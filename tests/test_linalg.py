"""Property tests of the sparse linalg kernels against the dense reference.

`dense_rref`, `dense_mat_vec` and `dense_charpoly` are the dense kernels
that `rref`, `mat_vec` and `charpoly_mod_p` replaced, and `dense_mat_mul`
the dense product that the sparse-column kernels replaced, kept verbatim as
the reference.  The kernels take and return {index: entry} dicts; the
draws are dense rows, as the references read them, and `vecs` hands them
to the kernels.  Kernels, solves and ranks are compared with the same
functions run on `dense_rref`, and `lattices.coord_solver` with the inverse
matrix that `dense_reference.invert` computes on it.  Invertibility as a rank (over
the field, of the residues over k, and the pivot valuations of the Hermite
form over O) is compared with the determinant `dense_reference.det`.
"""

from fractions import Fraction

import pytest
from dense_reference import (
    dense_rows,
    dense_vec,
    det,
    identity,
    invert,
    mat_copy,
    transpose,
    vec,
    vecs,
)
from hypothesis import given, settings, strategies as st

from grforge import linalg
from grforge.lattices import Lattice, LatticeError, coord_solver
from grforge.scalars import (
    CYCLOTOMIC,
    RATIONAL,
    Cyc,
    CycField,
    PrimeField,
    RatField,
    RingSpec,
)

FIELDS = {"Q": RatField(), "F_2": PrimeField(2), "F_3": PrimeField(3),
          "F_5": PrimeField(5), "F_7": PrimeField(7),
          "Q(zeta_5)": CycField(5)}
PRIME_FIELDS = ["F_2", "F_3", "F_5", "F_7"]
RINGS = {"Z_(3)": RingSpec(RATIONAL, 3), "Z_(5)": RingSpec(RATIONAL, 5),
         "Z_(3)[zeta_3]": RingSpec(CYCLOTOMIC, 3),
         "Z_(5)[zeta_5]": RingSpec(CYCLOTOMIC, 5)}
SETTINGS = settings(max_examples=80, deadline=None)


# ---------------------------------------------------------------------------
# the dense reference
# ---------------------------------------------------------------------------

def dense_mat_vec(a, v, field):
    z = field.zero
    out = []
    for row in a:
        s = z
        for x, y in zip(row, v):
            if x and y:
                s = s + x * y
        out.append(s)
    return out


def dense_mat_mul(a, b, field):
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    z = field.zero
    out = [[z] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(m):
                    if bk[j]:
                        oi[j] = oi[j] + x * bk[j]
    return out


def dense_rref(rows, field, ncols=None):
    if ncols is not None:  # {column: entry} rows, made dense first
        rows = [[r.get(j, field.zero) for j in range(ncols)]
                if isinstance(r, dict) else r for r in rows]
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    out = []
    work = rows
    for col in range(ncols):
        piv = None
        for i, r in enumerate(work):
            if r[col]:
                piv = i
                break
        if piv is None:
            continue
        prow = work.pop(piv)
        inv = field.one / prow[col]
        prow = [inv * x for x in prow]
        for r in work:
            if r[col]:
                c = r[col]
                for j in range(col, ncols):
                    if prow[j]:
                        r[j] = r[j] - c * prow[j]
        for r in out:
            if r[col]:
                c = r[col]
                for j in range(col, ncols):
                    if prow[j]:
                        r[j] = r[j] - c * prow[j]
        out.append(prow)
        pivots.append(col)
        work = [r for r in work if any(r)]
        if not work:
            break
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], [pivots[i] for i in order]


def dense_charpoly(a, field):
    n = len(a)
    h = mat_copy(a)
    for col in range(n - 2):
        piv = None
        for i in range(col + 1, n):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for r in h:
                r[col + 1], r[piv] = r[piv], r[col + 1]
        inv = field.one / h[col + 1][col]
        for i in range(col + 2, n):
            if h[i][col]:
                c = h[i][col] * inv
                for j in range(n):
                    h[i][j] = h[i][j] - c * h[col + 1][j]
                for r in h:
                    r[col + 1] = r[col + 1] + c * r[i]
    z, o = field.zero, field.one
    polys = [[o]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [z] * (k + 1)
        for i, c in enumerate(prev):
            cur[i] = cur[i] + c
        for i, c in enumerate(prev):
            cur[i + 1] = cur[i + 1] - h[k - 1][k - 1] * c
        prod = o
        for m_ in range(1, k):
            prod = prod * h[k - m_][k - m_ - 1]
            coef = h[k - m_ - 1][k - 1] * prod
            if coef:
                sub = polys[k - m_ - 1]
                for i, c in enumerate(sub):
                    cur[i + m_ + 1] = cur[i + m_ + 1] - coef * c
        polys.append(cur)
    return polys[n]


def as_dicts(echelon):
    """(rows, pivots) with each row the dict of its nonzero entries, the form
    of linalg.rref's echelon rows."""
    rows, pivots = echelon
    return vecs(rows), pivots


def on_dense_rref(fn, *args):
    """fn(*args) with linalg.rref replaced by the dense reference."""
    kernel = linalg.rref
    linalg.rref = lambda *a: as_dicts(dense_rref(*a))
    try:
        return fn(*args)
    finally:
        linalg.rref = kernel


# ---------------------------------------------------------------------------
# draws: mostly zero entries, as in the structure-constant systems
# ---------------------------------------------------------------------------

def draw_scalar(data, fld):
    if data.draw(st.integers(0, 9)) < 6:
        return fld.zero
    if isinstance(fld, CycField):
        return Cyc(fld.p, [data.draw(st.integers(-2, 2))
                           for _ in range(fld.p - 1)])
    if isinstance(fld, RatField):
        return Fraction(data.draw(st.integers(-3, 3)),
                        data.draw(st.integers(1, 3)))
    return fld.of(data.draw(st.integers(-3, 3)))


def draw_rows(data, fld, nrows, ncols):
    """nrows rows of length ncols; some are combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and data.draw(st.integers(0, 3)) == 0:
            v = linalg.combine(vec([draw_scalar(data, fld) for _ in rows]),
                               vecs(rows))
            rows.append(dense_vec(v, ncols, fld.zero))
        else:
            rows.append([draw_scalar(data, fld) for _ in range(ncols)])
    return rows


def draw_integral(data, ring):
    """An entry of O: often zero, else an integer combination of the powers
    of zeta (an integer in the rational flavor), now and then times pi."""
    if data.draw(st.integers(0, 9)) < 3:
        return ring.zero()
    if ring.flavor == CYCLOTOMIC:
        x = Cyc(ring.p, [data.draw(st.integers(-2, 2))
                         for _ in range(ring.p - 1)])
    else:
        x = ring.of(data.draw(st.integers(-4, 4)))
    return x * ring.uniformizer if data.draw(st.booleans()) else x


def shape(data, most=6):
    return data.draw(st.integers(0, most)), data.draw(st.integers(1, most))


def types(rows):
    return [[type(x) for x in r] for r in rows]


# ---------------------------------------------------------------------------
# rref and what is built on it
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_rref_matches_dense(kind, data):
    fld = FIELDS[kind]
    nrows, ncols = shape(data)
    rows = draw_rows(data, fld, nrows, ncols)
    got = linalg.rref(vecs(rows), fld, ncols)
    want = dense_rref(rows, fld)
    assert got == as_dicts(want)
    # the echelon rows are the nonzero entries, pivot first, keys increasing
    assert all(list(r) == sorted(r) and next(iter(r)) == c
               for r, c in zip(*got))
    assert (dense_rows(got[0], ncols, fld.zero), got[1]) == want
    assert types(dense_rows(got[0], ncols, fld.zero)) == types(want[0])
    assert linalg.rank(vecs(rows), fld, ncols) == len(want[0])
    # rows given as a generator
    assert linalg.rref(iter(vecs(rows)), fld, ncols) == got


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_kernel_and_solve_match_dense(kind, data):
    fld = FIELDS[kind]
    nrows, ncols = shape(data)
    a = vecs(draw_rows(data, fld, max(nrows, 1), ncols))
    assert linalg.kernel_right(a, fld, ncols) == on_dense_rref(
        linalg.kernel_right, a, fld, ncols)
    assert linalg.kernel_left(a, fld, ncols) == on_dense_rref(
        linalg.kernel_left, a, fld, ncols)
    b = vec([draw_scalar(data, fld) for _ in a])
    got = linalg.solve_right(a, b, fld, ncols)
    assert got == on_dense_rref(linalg.solve_right, a, b, fld, ncols)
    if got is not None:
        assert linalg.mat_vec(a, got, fld) == b


# ---------------------------------------------------------------------------
# invertibility as a rank: over the field, over k = O/pi, by Hermite pivots
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_full_rank_iff_the_dense_determinant_is_nonzero(kind, data):
    fld = FIELDS[kind]
    n = data.draw(st.integers(1, 5))
    a = draw_rows(data, fld, n, n)
    assert (linalg.rank(vecs(a), fld, n) == n) == bool(det(a, fld))


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_residue_rank_and_hermite_pivots_give_the_determinant(kind, data):
    """Over O: the residues have rank n over k iff v(det) = 0, and the pivot
    valuations of the Hermite form add up to v(det) when det is nonzero."""
    ring = RINGS[kind]
    n = data.draw(st.integers(1, 4))
    a = []
    for _ in range(n):
        if a and not data.draw(st.integers(0, 3)):
            v = linalg.combine(vec([draw_integral(data, ring) for _ in a]),
                               vecs(a))
            a.append(dense_vec(v, n, ring.zero()))
        else:
            a.append([draw_integral(data, ring) for _ in range(n)])
    d = det(a, ring.field_K)
    residues = [[ring.residue(x) for x in row] for row in a]
    assert (linalg.rank(vecs(residues), ring.field_k, n) == n) == \
        (bool(d) and ring.valuation(d) == 0)
    hermite = Lattice.from_rows(ring, n, vecs(a))
    assert (hermite.rank == n) == bool(d)
    if d:
        assert sum(hermite.pivot_vals) == ring.valuation(d)


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_coord_solver_gives_the_dense_inverse(kind, data):
    """The coordinates of the unit vectors in the columns of a square matrix
    are the columns of its inverse, as the dense Gauss-Jordan reference
    computes it; a singular matrix has dependent columns, which the solver
    refuses."""
    fld = FIELDS[kind]
    n = data.draw(st.integers(1, 5))
    a = draw_rows(data, fld, n, n)
    if data.draw(st.booleans()):
        # often invertible: add the identity
        a = [[x + y for x, y in zip(r, e)]
             for r, e in zip(a, identity(fld, n))]
    want = on_dense_rref(invert, a, fld)
    if want is None:
        with pytest.raises(LatticeError):
            coord_solver(vecs(transpose(a)), fld, n)
        return
    coords = coord_solver(vecs(transpose(a)), fld, n)
    got = transpose([dense_vec(coords(vec(e)), n, fld.zero)
                     for e in identity(fld, n)])
    assert got == want
    assert dense_mat_mul(a, got, fld) == identity(fld, n)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_rref_edge_cases(kind):
    fld = FIELDS[kind]
    z, o = fld.zero, fld.one
    assert linalg.rref([], fld, 3) == ([], [])
    assert linalg.rref(iter([]), fld, 3) == ([], [])
    assert linalg.rref([{}, {}], fld, 3) == ([], [])
    assert linalg.kernel_right([{}], fld, 2) == [{0: o}, {1: o}]
    rows = [[z, z, z], [z, o, o], [z] * 3, [z, o + o, o]]
    for given_rows in (vecs(rows), iter(vecs(rows))):
        assert linalg.rref(given_rows, fld, 3) == \
            as_dicts(dense_rref(rows, fld))
    # full rank early: the remaining rows change nothing
    assert linalg.rref([{0: o}, {1: o}, {0: o, 1: o}], fld, 2) == \
        ([{0: o}, {1: o}], [0, 1])


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_dict_rows_without_a_width_raise(kind):
    """A dict row's length is its number of nonzero entries, not its width:
    read as the width it gave rank 1 for [{0: 1}, {1: 1}] and an empty
    kernel.  Every elimination needs ncols: it has no default."""
    fld = FIELDS[kind]
    o = fld.one
    rows = [{0: o}, {1: o}]
    for call in (lambda: linalg.rref(rows, fld),
                 lambda: linalg.rank(rows, fld),
                 lambda: linalg.kernel_right(rows, fld),
                 lambda: linalg.kernel_left(rows, fld),
                 lambda: linalg.solve_right(rows, {0: o, 1: o}, fld),
                 lambda: coord_solver(rows, fld)):
        with pytest.raises(TypeError, match="ncols"):
            call()
    assert linalg.rank(rows, fld, 2) == 2
    assert linalg.kernel_right(rows, fld, 3) == [{2: o}]
    assert linalg.solve_right(rows, {0: o, 1: o}, fld, 2) == {0: o, 1: o}
    assert coord_solver(rows, fld, 2)({1: o}) == {1: o}


# ---------------------------------------------------------------------------
# mat_vec
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_mat_vec_matches_dense(kind, data):
    fld = FIELDS[kind]
    nrows, ncols = shape(data)
    a = draw_rows(data, fld, nrows, ncols)
    v = [draw_scalar(data, fld) for _ in range(ncols)]
    got = linalg.mat_vec(vecs(a), vec(v), fld)
    want = vec(dense_mat_vec(a, v, fld))
    assert got == want
    assert [type(x) for x in got.values()] == \
        [type(x) for x in want.values()]


# ---------------------------------------------------------------------------
# the kernels on sparse columns, against the dense matrices they replaced
# ---------------------------------------------------------------------------

def dense_combine_matrices(coeffs, mats, zero):
    nrows = len(mats[0]) if mats else 0
    ncols = len(mats[0][0]) if nrows else 0
    out = [[zero] * ncols for _ in range(nrows)]
    for c, m in zip(coeffs, mats):
        if c:
            for row, orow in zip(m, out):
                for col, x in enumerate(row):
                    if x:
                        orow[col] = orow[col] + c * x
    return out


def draw_square(data, fld, n):
    """An n x n matrix of row lists, mostly zero."""
    return [[draw_scalar(data, fld) for _ in range(n)] for _ in range(n)]


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_columns_round_trip(kind, data):
    fld = FIELDS[kind]
    nrows, ncols = shape(data)
    a = draw_rows(data, fld, max(nrows, 1), ncols)
    cols = linalg.columns(a)
    assert len(cols) == ncols
    assert all(x for col in cols for _, x in col)
    assert all([t for t, _ in col] == sorted({t for t, _ in col})
               for col in cols)
    assert linalg.dense_rows(cols, len(a), fld.zero) == a
    assert [dict(r) for r in linalg.row_entries(cols, len(a))] == \
        [{j: x for j, x in enumerate(r) if x} for r in a]
    flat = [x for r in a for x in r]
    if len(a) == ncols:
        assert linalg.flatten(cols) == vec(flat)
    assert linalg.unflatten(vec(flat), ncols) == cols


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_apply_matches_dense_mat_vec(kind, data):
    fld = FIELDS[kind]
    n = data.draw(st.integers(0, 6))
    a = draw_square(data, fld, n)
    v = [draw_scalar(data, fld) for _ in range(n)]
    want = vec(dense_mat_vec(a, v, fld))
    assert linalg.apply(linalg.columns(a), vec(v)) == want


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_combine_columns_matches_dense_combination(kind, data):
    fld = FIELDS[kind]
    n = data.draw(st.integers(0, 5))
    mats = [draw_square(data, fld, n)
            for _ in range(data.draw(st.integers(1, 4)))]
    coeffs = [draw_scalar(data, fld) for _ in mats]
    if data.draw(st.booleans()):
        # a combination that cancels: mats[0] - mats[0]
        mats.append(mats[0])
        coeffs = [fld.one] + [fld.zero] * (len(mats) - 2) + [-fld.one]
    got = linalg.combine_columns(vec(coeffs),
                                 [linalg.columns(m) for m in mats])
    assert got == linalg.columns(dense_combine_matrices(coeffs, mats, fld.zero))


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_compose_matches_dense_mat_mul(kind, data):
    fld = FIELDS[kind]
    n, m, k = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = draw_rows(data, fld, n, m)
    b = draw_rows(data, fld, m, k)
    got = linalg.compose(linalg.columns(a), linalg.columns(b))
    assert got == linalg.columns(dense_mat_mul(a, b, fld))


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_trace_form_is_the_trace_of_the_dense_product(kind, data):
    fld = FIELDS[kind]
    n = data.draw(st.integers(0, 5))
    mats = [draw_square(data, fld, n)
            for _ in range(data.draw(st.integers(0, 4)))]
    got = linalg.trace_form([linalg.columns(m) for m in mats], fld)
    want = [[sum((dense_mat_mul(a, b, fld)[t][t] for t in range(n)), fld.zero)
             for b in mats] for a in mats]
    assert got == vecs(want)


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_dict_rows_eliminate_like_dense_rows(kind, data):
    fld = FIELDS[kind]
    nrows, ncols = shape(data)
    a = draw_rows(data, fld, max(nrows, 1), ncols)
    rows = vecs(a)
    want = dense_rref(a, fld)
    assert linalg.rref(rows, fld, ncols) == as_dicts(want)
    assert linalg.rank(rows, fld, ncols) == len(want[0])
    b = vec([draw_scalar(data, fld) for _ in a])
    got = linalg.solve_right(rows, b, fld, ncols)
    assert got == on_dense_rref(linalg.solve_right, rows, b, fld, ncols)
    for x in linalg.kernel_right(rows, fld, ncols):
        assert not any(dense_mat_vec(a, dense_vec(x, ncols, fld.zero), fld))
    # the dict rows are not consumed
    assert rows == vecs(a)


# ---------------------------------------------------------------------------
# charpoly over F_p
# ---------------------------------------------------------------------------

def ints(rows):
    """Rows of Fp values as rows of their ints in [0, p)."""
    return [[x.v for x in r] for r in rows]


@SETTINGS
@given(st.sampled_from(PRIME_FIELDS), st.data())
def test_charpoly_matches_fp_reference(kind, data):
    fld = FIELDS[kind]
    n = data.draw(st.integers(0, 7))
    a = draw_rows(data, fld, n, n)
    got = linalg.charpoly_mod_p(ints(a), fld.p)
    assert got == ints([dense_charpoly(a, fld)])[0]
    assert all(type(c) is int and 0 <= c < fld.p for c in got)


@SETTINGS
@given(st.sampled_from(PRIME_FIELDS), st.data())
def test_charpoly_of_ab_is_charpoly_of_ba(kind, data):
    # g(x y) = g(y x) for g = c_power(L_-): each Friedl-Ronyai stage is a
    # left ideal by it, and the pairwise oracle fills one triangle on it
    fld = FIELDS[kind]
    n = data.draw(st.integers(1, 6))
    a = draw_rows(data, fld, n, n)
    b = draw_rows(data, fld, n, n)
    assert linalg.charpoly_mod_p(ints(dense_mat_mul(a, b, fld)), fld.p) == \
        linalg.charpoly_mod_p(ints(dense_mat_mul(b, a, fld)), fld.p)
