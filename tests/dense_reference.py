"""Dense references for coordinates in a basis, kept for the tests.

The package reads coordinates through `lattices.coord_solver` and the
cached sparse reducers of `linalg.Subspace` and `lattices.Lattice`; these are
the dense routines they replaced, kept verbatim: reduction against rref rows
(`in_row_space`, `coords_in_row_space`) and the inverse matrix (`invert`).
"""

from grforge import linalg


def in_row_space(v, ech, pivots):
    """Reduce v against an rref basis; return the remainder."""
    v = list(v)
    for row, col in zip(ech, pivots):
        if v[col]:
            c = v[col]
            for j in range(len(v)):
                if row[j]:
                    v[j] = v[j] - c * row[j]
    return v


def coords_in_row_space(v, ech, pivots):
    """Coordinates of v in the rref basis, or None if v is outside."""
    v = list(v)
    cs = []
    for row, col in zip(ech, pivots):
        c = v[col]
        cs.append(c)
        if c:
            for j in range(len(v)):
                if row[j]:
                    v[j] = v[j] - c * row[j]
    if any(v):
        return None
    return cs


def invert(a, field):
    """Inverse matrix, or None if singular."""
    n = len(a)
    aug = [list(r) + e for r, e in zip(a, linalg.identity(field, n))]
    ech, pivots = linalg.rref(aug, field)
    if len(ech) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]
