"""Dense references for coordinates in a basis and for invertibility, kept
for the tests.

The package reads coordinates through `lattices.coord_solver`,
`linalg.Subspace` and `lattices.Lattice`, which all reduce a sparse vector
with `linalg.eliminate`; these are the dense routines they replaced, kept
verbatim: reduction against rref rows (`in_row_space`,
`coords_in_row_space`) and the inverse matrix (`invert`).
The package decides invertibility by a rank over K or k = O/pi and reads a
discriminant off Hermite pivots; the determinant `det` it replaced, with its
helpers `mat_copy` and `identity`, is kept verbatim as the oracle.
"""

from grforge import linalg


def mat_copy(m):
    return [list(r) for r in m]


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def det(a, field):
    """Determinant by fraction-free-ish Gaussian elimination (exact fields)."""
    n = len(a)
    m = mat_copy(a)
    d = field.one
    sign = 1
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            return field.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d = d * m[col][col]
        inv = field.one / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                c = m[i][col] * inv
                for j in range(col, n):
                    if m[col][j]:
                        m[i][j] = m[i][j] - c * m[col][j]
    return d if sign == 1 else -d


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
    aug = [list(r) + e for r, e in zip(a, identity(field, n))]
    ech, pivots = linalg.rref(aug, field)
    if len(ech) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]
