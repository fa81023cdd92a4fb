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
`Lattice.from_rows` runs its Hermite echelon on {index: entry} rows; the
dense worklist echelon it replaced (`lattice_from_rows`, with
`_normalize_pivot` and `_back_reduce`) is kept verbatim as the oracle.
`linalg.rref` returns each echelon row as the {index: entry} dict of its
nonzero entries; the dense output loop it dropped is kept verbatim in
`rref_dense`, the oracle for the sparse spans.
Every vector of the package is an {index: entry} dict: `vec` makes one from
a dense list (a dict passes through), `vecs` does so for rows, and `dense_vec` and `dense_rows`
write vectors as dense lists for the dense checks.  `dense_mul` is the
dense product from the structure constants that `StructureAlgebra.mul`
replaced, the oracle for the dict product.
A char-p radical stage reads a linear functional off one charpoly per
basis row of the candidate ideal; the pairwise Friedl-Ronyai form it
replaced, one product L_x L_y and one charpoly per pair of rows
(`fr_form_pairwise`, `fr_stage_pairwise`), is kept verbatim as the oracle,
with the radical it reaches (`radical_pairwise`).
`algebra.matrix_algebra_constants` forms each product of a basis of
matrices only at the pivot entries of the lattice; the route it replaced
in the q-Schur builder and the direct End_A(J) check, every product formed
in full and read by `Lattice.coords` (`matrix_algebra_constants_full`), is
kept as the oracle.
`lattices.saturate_rows` returns the K-echelon of the rows when it is
integral and sends only the rest through `smith_track`; the route it
replaced, every saturation through the Smith form
(`saturate_rows_smith`), is kept verbatim as the oracle.
`Lattice.lifts_over` takes its free lifts from the residue echelon when
the sublattice is pure and sends only the rest through `smith_track`; the
route it replaced, every quotient through the Smith form
(`lifts_over_smith`), is kept verbatim as the oracle.
`fixtures.build_qschur` spans its lattice by Lusztig's canonical basis;
the route it replaced, the O-algebra that matrices generate found as the
closure of the identity under left multiplication by them on flattened
matrices (`flat_closure`), is kept as the oracle.
"""

from collections.abc import Mapping
from functools import partial

from grforge import linalg, radicals
from grforge.algebra import AlgebraError, structure_constants
from grforge.lattices import (
    Lattice,
    LatticeError,
    _coords_matrix,
    smith_track,
    stable_span,
)
from grforge.scalars import RingSpec


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
    aug = [vec(list(r) + e) for r, e in zip(a, identity(field, n))]
    ech, pivots = linalg.rref(aug, field, 2 * n)
    ech = dense_rows(ech, 2 * n, field.zero)
    if len(ech) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]


def lattice_from_rows(ring, ambient, rows):
    """Canonicalize arbitrary generators (rows over O)."""
    piv_row = {}   # col -> normalized row with pivot pi^val at col
    piv_val = {}   # col -> pivot valuation
    queue = [list(r) for r in rows if any(r)]
    for r in queue:
        if len(r) != ambient:
            raise LatticeError("generator length != ambient rank")
    # worklist echelon: an incoming row either reduces or replaces a pivot
    while queue:
        r = queue.pop()
        col = 0
        while col < ambient:
            x = r[col]
            if not x:
                col += 1
                continue
            v = ring.valuation(x)
            if v < 0:
                raise LatticeError("generator entry outside O")
            if col not in piv_row:
                _normalize_pivot(ring, r, col, v)
                piv_row[col] = r
                piv_val[col] = v
                break
            prow, pv = piv_row[col], piv_val[col]
            if v >= pv:
                q = x / prow[col]
                for j in range(col, ambient):
                    if prow[j]:
                        r[j] = r[j] - q * prow[j]
            else:
                _normalize_pivot(ring, r, col, v)
                piv_row[col] = r
                piv_val[col] = v
                queue.append(prow)
                break
    cols = sorted(piv_row)
    ech = [(c, piv_val[c], piv_row[c]) for c in cols]
    _back_reduce(ring, ech)
    # the Lattice stores each canonical row as the dict of its nonzero entries
    rows_t = tuple({j: x for j, x in enumerate(r) if x} for (_, _, r) in ech)
    return Lattice(ring, ambient, rows_t, tuple(cols),
                   tuple(piv_val[c] for c in cols))


def transpose(m):
    return [list(col) for col in zip(*m)]


def vec(v):
    """The {index: entry} dict of the nonzero entries of a dense vector; a
    dict (or a read-only view of one) passes through as a copy."""
    if isinstance(v, Mapping):
        return dict(v)
    return {j: x for j, x in enumerate(v) if x}


def vecs(rows):
    """Rows, dense or dicts, as {index: entry} dicts."""
    return [vec(r) for r in rows]


def dense_vec(v, n, zero):
    """A vector, dense or an {index: entry} dict, as a dense list of
    length n."""
    out = [zero] * n
    for j, x in vec(v).items():
        out[j] = x
    return out


def dense_rows(rows, n, zero):
    """Vectors, dense or {index: entry} dicts, as dense lists of length n."""
    return [dense_vec(r, n, zero) for r in rows]


def dense_mul(alg, x, y):
    """The dense product x y of dense coordinate vectors, straight from the
    structure constants."""
    out = [alg.fld.zero] * alg.rank
    for (i, j), row in alg.sc.items():
        if x[i] and y[j]:
            c = x[i] * y[j]
            for t, v in row.items():
                out[t] = out[t] + c * v
    return out


def rref_dense(rows, field, ncols=None):
    """`linalg.rref` with the dense output loop it had: (echelon rows as
    dense lists, pivot columns)."""
    width = ncols or 0
    piv = {}
    for r in rows:
        if ncols is None:
            width = len(r)
        s = vec(r)
        for c in s.keys() & piv.keys():
            linalg.sub_multiple(s, s.pop(c), piv[c])
        if not s:
            continue
        col = min(s)
        inv = field.one / s.pop(col)
        s = {j: inv * x for j, x in s.items()}
        for q in piv.values():
            c = q.pop(col, None)
            if c is not None:
                linalg.sub_multiple(q, c, s)
        piv[col] = s
        if len(piv) == width:
            break
    pivots = sorted(piv)
    z, o = field.zero, field.one
    out = []
    for col in pivots:
        row = [z] * width
        row[col] = o
        for j, x in piv[col].items():
            row[j] = x
        out.append(row)
    return out, pivots


def _normalize_pivot(ring, row, col, val):
    """Scale the row by a unit so the pivot becomes exactly pi^val."""
    target = ring.pi_power(val)
    uinv = target / row[col]
    for j in range(col, len(row)):
        if row[j]:
            row[j] = uinv * row[j]
    row[col] = target


def _back_reduce(ring, ech):
    """Reduce entries above each pivot to canonical residues mod pi^val.

    Pivots are processed left to right: subtracting a multiple of a later
    pivot row never disturbs earlier pivot columns (those entries are zero).
    """
    for i in range(len(ech)):
        col, pval, row = ech[i]
        for i2 in range(i):
            _, _, above = ech[i2]
            x = above[col]
            if not x:
                continue
            canon = ring.canonical_mod(x, pval)
            q = (x - canon) / row[col]
            if q:
                for j in range(col, len(row)):
                    if row[j]:
                        above[j] = above[j] - q * row[j]


def fr_form_pairwise(alg, basis_rows, power):
    """The form (x, y) -> c_power of L_(x y) on the rows, an F_p matrix; the
    products and charpolys run on ints mod p.  It is symmetric, since L_x L_y
    and L_y L_x have one charpoly, so one triangle is computed."""
    p = alg.fld.p
    n = alg.rank
    # each L_x by its sparse columns, on ints
    mats = [[[(t, x.v) for t, x in col] for col in alg.left_mult_of(v)]
            for v in basis_rows]
    d = len(mats)
    form = [[None] * d for _ in range(d)]
    for s in range(d):
        left = mats[s]
        for t in range(s, d):
            prod = [[0] * n for _ in range(n)]
            for k, col in enumerate(mats[t]):
                for j, y in col:
                    for r, x in left[j]:
                        prod[r][k] += x * y
            prod = [[c % p for c in row] for row in prod]
            c = linalg.charpoly_mod_p(prod, p)[power]
            form[s][t] = form[t][s] = alg.fld.of(c)
    return form


def fr_stage_pairwise(alg, basis_rows, power):
    """Kernel of the Friedl-Ronyai form c_power on the span of the rows."""
    fld = alg.fld
    basis_rows, _ = linalg.rref(basis_rows, fld, alg.rank)
    ker = linalg.kernel_right(
        [vec(r) for r in fr_form_pairwise(alg, basis_rows, power)], fld,
        len(basis_rows))
    return linalg.rref([linalg.combine(c, basis_rows) for c in ker], fld,
                       alg.rank)[0]


def radical_pairwise(alg):
    """Radical rows (rref) of a field algebra of char p through the
    pairwise stages: the first candidate that is a nilpotent ideal."""
    fld = alg.fld
    candidate = linalg.kernel_right(radicals.trace_gram(alg), fld, alg.rank)
    power = 1
    while True:
        if radicals.is_ideal(alg, candidate):
            chain = radicals._subspace_powers(alg, candidate, alg.rank + 1)
            if not chain[-1].rank:
                return chain[0].rows
        if power * fld.char > alg.rank:
            raise AlgebraError("radical candidate is not a nilpotent ideal")
        power *= fld.char
        candidate = fr_stage_pairwise(alg, candidate, power)


def matrix_algebra_constants_full(lat, n):
    """The structure constants of the basis lat.rows of a lattice of n x n
    matrices, each product formed in full and read by `Lattice.coords`:
    AlgebraError names a product outside the lattice."""
    basis = [linalg.unflatten(r, n) for r in lat.rows]
    return structure_constants(
        (linalg.flatten(linalg.compose(x, y)) for x in basis for y in basis),
        len(basis), lat.coords)


def saturate_rows_smith(ring: RingSpec, ambient: int, rows) -> Lattice:
    """Smallest pure sublattice of O^ambient containing O^ambient ∩ K·span.

    Accepts {index: entry} rows over K (denominators allowed); the result
    depends only on the K-span of the input.
    """
    cleared = []
    for r in rows:
        if r:
            mv = min(map(ring.valuation, r.values()))
            f = ring.pi_power(-mv)
            cleared.append({j: f * x for j, x in r.items()} if mv else r)
    if not cleared:
        return Lattice.zero(ring, ambient)
    vals, track = smith_track(ring, ambient, cleared)
    return Lattice.from_rows(ring, ambient, track[: len(vals)])


def lifts_over_smith(m: Lattice, n: Lattice):
    """Free-part basis lifts and torsion elementary divisors of M/N.

    Returns (free_lifts, torsion_vals): M/N is a direct sum of a free module
    with basis the images of free_lifts and of cyclic summands O/pi^a for each
    a in torsion_vals (all a >= 1).  torsion_vals is empty iff N is pure in M.
    """
    coords = _coords_matrix(n, m)
    if m.rank == 0:
        return [], []
    ring = m.ring
    vals, track = smith_track(ring, m.rank, coords)
    torsion = sorted(v for v in vals if v > 0)
    free_lifts = [linalg.combine(c, m.rows) for c in track[len(vals):]]
    return free_lifts, torsion


def flat_closure(gens, n, ring):
    """The O-algebra that n x n matrices given by sparse columns generate:
    the `stable_span` of the flattened identity under left multiplication by
    each of them, where g X for a flattened X is the columns of g (x) 1
    applied to it (entry (r, c) at r * n + c, see linalg.flatten)."""
    one = ring.one()
    maps = [partial(linalg.apply, [tuple((r * n + c, x) for r, x in g[m])
                                   for m in range(n) for c in range(n)])
            for g in gens]
    return stable_span([{k * n + k: one for k in range(n)}], maps, n * n,
                       ring.field_K, ring)
