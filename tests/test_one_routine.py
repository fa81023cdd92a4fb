"""One routine per question about spans, each checked against the slow
reference it replaced, kept here verbatim.

* The closure `lattices.stable_span` applies the maps only to the rows the
  last round added; the reference applies every map to every row in every
  round.
* `radicals.center_rows` takes commutators with the algebra's generating
  set; the reference stacks the commutators with every basis element, with
  the multiplication matrices made dense (their right multiplication
  matrices come from `right_mult_of`).
* `linalg.Subspace.intersection` against the stacked-kernel helper that
  the nested-radical check `subalgebra_radical_check` once kept for itself;
  that check is now a test routine in `test_radicals.py`.
"""

from fractions import Fraction
from functools import cache, partial

import pytest
from dense_reference import vec
from hypothesis import given, settings, strategies as st

from grforge import fixtures, linalg, radicals
from grforge.lattices import span_of, stable_span
from grforge.scalars import (
    CYCLOTOMIC,
    RATIONAL,
    Cyc,
    CycField,
    RatField,
    RingSpec,
)

SETTINGS = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# the slow references
# ---------------------------------------------------------------------------

def all_rows_stable_span(vectors, maps, ambient, fld, ring=None):
    span = span_of(vectors, ambient, fld, ring)
    while True:
        new = []
        for f in maps:
            for r in span.rows:
                w = f(r)
                if not span.contains_vector(w):
                    new.append(w)
        if not new:
            return span
        span = span_of(list(span.rows) + new, span.ambient, fld, ring)


def basis_center(alg):
    fld = alg.fld
    stacked = []
    for i in range(alg.rank):
        li = linalg.dense_rows(alg.left_mult_matrix(i), alg.rank, fld.zero)
        ri = linalg.dense_rows(alg.right_mult_of(alg.basis_vec(i)), alg.rank,
                               fld.zero)
        for r in range(alg.rank):
            stacked.append(vec([li[r][c] - ri[r][c] for c in range(alg.rank)]))
    ker = linalg.kernel_right(stacked, fld, alg.rank)
    ker, _ = linalg.rref(ker, fld, alg.rank)
    return ker


def intersect(rows1, rows2, fld, n):
    # subspace intersection via the kernel of the stacked matrix
    r1, r2 = list(rows1), list(rows2)
    if not r1 or not r2:
        return []
    ker = linalg.kernel_left(r1 + r2, fld, n)
    out = [linalg.combine({i: c for i, c in z.items() if i < len(r1)}, r1)
           for z in ker]
    out, _ = linalg.rref(out, fld, n)
    return out


# ---------------------------------------------------------------------------
# draws: mostly zero entries, integral ones at level O
# ---------------------------------------------------------------------------

# over Q, F_3 and Q(zeta_3), and at level O over Z_(3) and Z_(5)[zeta_5]
LEVELS = ["Q", "F3", "Q(z3)", "Z(3)", "Z(5)[z5]"]


def level(name):
    """(fld, ring): ring is None over a field, and spans are then subspaces."""
    if name == "Q":
        return RatField(), None
    if name == "F3":
        return RingSpec(RATIONAL, 3).field_k, None
    if name == "Q(z3)":
        return CycField(3), None
    ring = RingSpec(RATIONAL, 3) if name == "Z(3)" else RingSpec(CYCLOTOMIC, 5)
    return ring.field_K, ring


def draw_scalar(data, fld, integral):
    if data.draw(st.integers(0, 9)) < 5:
        return fld.zero
    if isinstance(fld, CycField):
        return Cyc(fld.p, [data.draw(st.integers(-2, 2))
                           for _ in range(fld.p - 1)])
    if isinstance(fld, RatField):
        # at level O over Z_(3) the denominators stay prime to 3
        den = data.draw(st.sampled_from([1, 2] if integral else [1, 2, 3]))
        return Fraction(data.draw(st.integers(-3, 3)), den)
    return fld.of(data.draw(st.integers(-3, 3)))


def draw_rows(data, fld, ambient, integral, lo=1, hi=3):
    return [vec([draw_scalar(data, fld, integral) for _ in range(ambient)])
            for _ in range(data.draw(st.integers(lo, hi)))]


def draw_map(data, fld, n, integral):
    """An n x n matrix; often strictly lower triangular with few entries, so
    that the closure of one vector takes several rounds."""
    if data.draw(st.booleans()):
        return draw_rows(data, fld, n, integral, n, n)
    m = [[fld.zero] * n for _ in range(n)]
    for i in range(1, n):
        m[i][i - 1] = draw_scalar(data, fld, integral) or fld.one
        if data.draw(st.booleans()):
            m[i][data.draw(st.integers(0, i - 1))] = \
                draw_scalar(data, fld, integral)
    return [vec(r) for r in m]


# ---------------------------------------------------------------------------
# one closure loop
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(LEVELS), st.data())
def test_frontier_closure_matches_the_all_rows_loop(name, data):
    fld, ring = level(name)
    integral = ring is not None
    n = data.draw(st.integers(1, 5))
    vectors = draw_rows(data, fld, n, integral, 1, 2)
    mats = [draw_map(data, fld, n, integral)
            for _ in range(data.draw(st.integers(0, 3)))]
    maps = [partial(linalg.mat_vec, m, field=fld) for m in mats]
    got = stable_span(vectors, maps, n, fld, ring)
    assert got == all_rows_stable_span(vectors, maps, n, fld, ring)
    # stable: every map sends the span into itself
    assert all(got.contains_lattice(span_of([f(r) for r in got.rows], n, fld,
                                            ring)) for f in maps)


def test_closure_of_the_qschur_generators_is_the_algebra(qschur23):
    alg = qschur23
    gens = alg.generating_set()
    assert len(gens) == len(alg.generators)
    span = alg.stable_span([alg.unit], [partial(alg.mul, g) for g in gens])
    assert span == all_rows_stable_span(
        [alg.unit], [partial(alg.mul, g) for g in gens], alg.rank,
        alg.fld, alg.ring)
    assert span.rank == alg.rank


# ---------------------------------------------------------------------------
# one center
# ---------------------------------------------------------------------------

@cache
def center_case(case):
    if case == "usl2@K":
        return fixtures.build_usl2(3).base_change("K")
    if case == "qschur23/rad@K":
        ak = fixtures.build_qschur(2, 3).base_change("K")
        return ak.quotient_by_ideal(radicals.radical_field(ak))[0]
    name, lvl = case.split("@")
    alg = fixtures.build_z5(3) if name == "z5" else fixtures.build_qschur(2, 3)
    return alg.base_change(lvl)


CENTER_CASES = ["z5@K", "z5@k", "qschur23@K", "usl2@K", "qschur23/rad@K"]


@pytest.mark.parametrize("case", CENTER_CASES)
def test_center_through_generators_is_the_basis_center(case):
    alg = center_case(case)
    assert radicals.center_rows(alg) == basis_center(alg)
    basis = [alg.basis_vec(i) for i in range(alg.rank)]
    through_basis = alg.generating_set() == basis
    # the quotient has no generators; the others prove through theirs
    assert through_basis == (case == "qschur23/rad@K")


@SETTINGS
@given(st.sampled_from(CENTER_CASES), st.data())
def test_center_membership_matches_commuting_with_the_basis(case, data):
    alg = center_case(case)
    fld = alg.fld
    center = radicals.center_rows(alg)
    x = linalg.combine(vec([draw_scalar(data, fld, False) for _ in center]),
                       center)
    if data.draw(st.booleans()):
        x = linalg.total([x, alg.basis_vec(
            data.draw(st.integers(0, alg.rank - 1)))])
    commutes = all(alg.mul(x, alg.basis_vec(i)) == alg.mul(alg.basis_vec(i), x)
                   for i in range(alg.rank))
    assert alg.span(center).contains_vector(x) == commutes


# ---------------------------------------------------------------------------
# one intersection
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(["Q", "F3", "Q(z3)"]), st.data())
def test_subspace_intersection_matches_the_stacked_kernel(name, data):
    fld, _ = level(name)
    n = data.draw(st.integers(1, 5))
    rows1 = draw_rows(data, fld, n, False, 0, 4)
    rows2 = draw_rows(data, fld, n, False, 0, 4)
    a = linalg.Subspace.from_rows(fld, n, rows1)
    b = linalg.Subspace.from_rows(fld, n, rows2)
    got = a.intersection(b)
    assert got.rows == intersect(rows1, rows2, fld, n)
    assert got == b.intersection(a)
    assert a.contains_lattice(got) and b.contains_lattice(got)
