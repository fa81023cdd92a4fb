"""The canonical rows of a span are the {index: entry} dicts of their
nonzero entries, keys increasing.  Hypothesis compares the sparse spans with
dense references: `Lattice.from_rows`, `add`, `intersection`, `coords`,
`quotient`, `lifts_over`, `saturate_rows` and `pure_closure` over Z_(3),
Z_(5), Z_(3)[zeta_3] and Z_(5)[zeta_5] against the dense worklist echelon
`dense_reference.lattice_from_rows` and the dense reduction
`test_lattices.dense_coords`, `saturate_rows` and `lifts_over` also
against the Smith-only routes `dense_reference.saturate_rows_smith` and
`dense_reference.lifts_over_smith`, and `linalg.Subspace` over Q,
F_3 and F_5 against the dense `dense_reference.rref_dense`.  No operation
writes into the rows of its operand spans or changes their hash."""

import copy
from unittest import mock

from dense_reference import (
    coords_in_row_space,
    dense_rows,
    dense_vec,
    in_row_space,
    lattice_from_rows,
    lifts_over_smith,
    rref_dense,
    saturate_rows_smith,
    vec,
    vecs,
)
from hypothesis import given, settings, strategies as st
from test_lattices import dense_coords

from grforge import lattices, linalg
from grforge.lattices import Lattice, pure_closure, saturate_rows, smith_track
from grforge.scalars import CYCLOTOMIC, RATIONAL, Cyc, RingSpec

SETTINGS = settings(max_examples=80, deadline=None)
RINGS = {"Z_(3)": RingSpec(RATIONAL, 3), "Z_(5)": RingSpec(RATIONAL, 5),
         "Z_(3)[zeta_3]": RingSpec(CYCLOTOMIC, 3),
         "Z_(5)[zeta_5]": RingSpec(CYCLOTOMIC, 5)}
FIELDS = {"Q": RINGS["Z_(3)"].field_K, "F_3": RINGS["Z_(3)"].field_k,
          "F_5": RINGS["Z_(5)"].field_k}


def dense(span):
    """The canonical rows of a Lattice or Subspace as dense lists."""
    zero = span.ring.zero() if isinstance(span, Lattice) else span.fld.zero
    return dense_rows(span.rows, span.ambient, zero)


def is_canonical_form(span):
    """Each row holds its nonzero entries only, keys increasing, pivot
    first."""
    return all(list(r) == sorted(r) and next(iter(r)) == c and all(r.values())
               for r, c in zip(span.rows, span.pivots))


def untouched(op, *spans):
    """op(), checking that the rows of the spans equal a deep copy taken
    before the call and that each Lattice keeps the hash of those rows."""
    rows = copy.deepcopy([s.rows for s in spans])
    hashes = [hash(s) for s in spans if isinstance(s, Lattice)]
    out = op()
    assert [s.rows for s in spans] == rows
    assert [hash(s) for s in spans if isinstance(s, Lattice)] == hashes == [
        hash(Lattice(s.ring, s.ambient, r, s.pivots, s.pivot_vals))
        for s, r in zip(spans, rows) if isinstance(s, Lattice)]
    return out


def draw_entry(data, ring, low=0):
    """Zero half of the time, else a small element of valuation >= low."""
    if data.draw(st.booleans()):
        return ring.zero()
    x = ring.of(data.draw(st.integers(-4, 4)))
    if ring.flavor == CYCLOTOMIC:
        x = x + Cyc.zeta_pow(ring.p, data.draw(st.integers(0, ring.p - 1))) \
            * data.draw(st.integers(-4, 4))
    return x * ring.pi_power(data.draw(st.integers(low, 2)))


def draw_rows(data, ring, amb, low=0):
    return [[draw_entry(data, ring, low) for _ in range(amb)]
            for _ in range(data.draw(st.integers(0, amb + 1)))]


def draw_inside(data, ring, rows):
    """O-combinations of the rows, often with a coefficient divisible by
    pi."""
    zero = ring.zero()
    out = []
    for _ in range(data.draw(st.integers(0, len(rows)))):
        v = linalg.combine(vec([draw_entry(data, ring) for _ in rows]),
                           vecs(rows))
        out.append(dense_vec(v, len(rows[0]), zero))
    return out


def residue_rank(ring, rows, ncols):
    return len(rref_dense([[ring.residue(x) for x in r] for r in rows],
                          ring.field_k, ncols)[0])


def field_rank(fld, rows, ncols):
    return len(rref_dense(rows, fld, ncols)[0])


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_lattice_rows_add_and_coords_match_the_dense_echelon(kind, data):
    ring = RINGS[kind]
    amb = data.draw(st.integers(1, 5))
    rows1, rows2 = draw_rows(data, ring, amb), draw_rows(data, ring, amb)
    l1 = Lattice.from_rows(ring, amb, vecs(rows1))
    l2 = Lattice.from_rows(ring, amb, vecs(rows2))
    for lat, rows in ((l1, rows1), (l2, rows2)):
        want = lattice_from_rows(ring, amb, rows)
        assert (lat.rows, lat.pivots, lat.pivot_vals) == \
            (want.rows, want.pivots, want.pivot_vals)
        assert lat == want and hash(lat) == hash(want)
        assert is_canonical_form(lat)
    total = untouched(lambda: l1.add(l2), l1, l2)
    assert total == lattice_from_rows(ring, amb, dense(l1) + dense(l2))
    free = [draw_entry(data, ring, -1) for _ in range(amb)]
    for v in dense(l2) + draw_inside(data, ring, dense(l1)) + [free]:
        assert untouched(lambda: l1.coords(vec(v)), l1) == dense_coords(l1, v)


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_lattice_meets_and_closures_match_dense_checks(kind, data):
    """intersection: inside both, of the rank of the K-spans' meet, and
    holding the common O-combinations drawn.  saturate_rows and
    pure_closure: the one pure sublattice with the right K-span, pure by
    Lemma 2.3(b) (its residues have full rank over k)."""
    ring = RINGS[kind]
    fld = ring.field_K
    amb = data.draw(st.integers(1, 5))
    l1 = Lattice.from_rows(ring, amb, vecs(draw_rows(data, ring, amb)))
    l2 = Lattice.from_rows(ring, amb, vecs(draw_rows(data, ring, amb)))
    meet = untouched(lambda: l1.intersection(l2), l1, l2)
    assert is_canonical_form(meet)
    assert meet.rank == l1.rank + l2.rank - field_rank(
        fld, dense(l1) + dense(l2), amb)
    for r in dense(meet):
        assert dense_coords(l1, r) is not None
        assert dense_coords(l2, r) is not None
    if l1.rank:
        for v in draw_inside(data, ring, dense(l1)):
            if dense_coords(l2, v) is not None:
                assert dense_coords(meet, v) is not None
    # the saturation of rows over K (entries down to valuation -1)
    rows = draw_rows(data, ring, amb, -1)
    sat = saturate_rows(ring, amb, vecs(rows))
    assert is_canonical_form(sat)
    assert rref_dense(dense(sat), fld, amb) == rref_dense(rows, fld, amb)
    assert residue_rank(ring, dense(sat), amb) == sat.rank
    # the pure closure of a sublattice n of l1
    if l1.rank:
        n = Lattice.from_rows(ring, amb,
                              vecs(draw_inside(data, ring, dense(l1))))
        closure = untouched(lambda: pure_closure(n, l1), n, l1)
        assert is_canonical_form(closure)
        assert rref_dense(dense(closure), fld, amb) == \
            rref_dense(dense(n), fld, amb)
        coords = [dense_coords(l1, r) for r in dense(closure)]
        assert None not in coords
        assert residue_rank(ring, dense_rows(coords, l1.rank, ring.zero()),
                            l1.rank) == closure.rank


def draw_echelon(data, ring, amb, integral):
    """Rows of a K-rref: unit pivots, zeros at the other pivot columns, O
    entries elsewhere.  Not integral: the last column is no pivot, and a
    row with its pivot left of it has an entry of valuation -1 there."""
    k = data.draw(st.integers(0 if integral else 1, amb - (not integral)))
    pivots = sorted(data.draw(st.lists(
        st.integers(0, amb - 1 - (not integral)), min_size=k, max_size=k,
        unique=True)))
    rows = []
    for c in pivots:
        rows.append([ring.one() if j == c else ring.zero()
                     if j < c or j in pivots else draw_entry(data, ring)
                     for j in range(amb)])
    if not integral:
        unit = ring.of(data.draw(st.integers(1, ring.p - 1)))
        rows[data.draw(st.integers(0, k - 1))][-1] = unit * ring.pi_power(-1)
    return rows


def smith_calls(op):
    """op() and the number of smith_track calls it made."""
    calls = []

    def counting(*args):
        calls.append(args)
        return smith_track(*args)

    with mock.patch.object(lattices, "smith_track", counting):
        return op(), len(calls)


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.booleans(), st.data())
def test_saturation_from_the_echelon_matches_the_smith_route(kind, integral,
                                                              data):
    """The rows span the K-span of a drawn echelon: each is a nonzero K
    multiple (valuation -1 to 2) of an echelon row plus O-combinations of
    the later rows, plus O-combinations of all rows, shuffled.  An integral
    echelon is the saturation itself, with no smith_track call; any other
    takes one.  Both routes give the same rows, entry for entry and in the
    same order."""
    ring = RINGS[kind]
    amb = data.draw(st.integers(1 if integral else 2, 5))
    ech = draw_echelon(data, ring, amb, integral)
    rows = []
    for i in range(len(ech)):
        scale = ring.of(data.draw(st.integers(1, ring.p - 1))) \
            * ring.pi_power(data.draw(st.integers(-1, 2)))
        c = [ring.zero()] * i + [scale] + [
            scale * draw_entry(data, ring) for _ in ech[i + 1:]]
        rows.append(dense_vec(linalg.combine(vec(c), vecs(ech)), amb,
                              ring.zero()))
    if ech:
        rows += draw_inside(data, ring, ech)
    rows = data.draw(st.permutations(rows))
    sat, calls = smith_calls(lambda: saturate_rows(ring, amb, vecs(rows)))
    want = saturate_rows_smith(ring, amb, vecs(rows))
    assert calls == (0 if integral else 1)
    assert repr((sat.rows, sat.pivots, sat.pivot_vals)) == \
        repr((want.rows, want.pivots, want.pivot_vals))
    assert sat == want and hash(sat) == hash(want)
    if integral:
        assert list(sat.rows) == vecs(ech)


def test_the_span_of_one_and_one_over_p_takes_the_smith_route():
    """K(1, 1/p) meets O^2 in O(p, 1): its rref (1, 1/p) is not integral,
    so the saturation takes the one smith_track call."""
    for ring in RINGS.values():
        row = {0: ring.one(), 1: ring.pi_power(-1)}
        sat, calls = smith_calls(lambda: saturate_rows(ring, 2, [row]))
        assert calls == 1
        assert sat == Lattice.from_rows(
            ring, 2, [{0: ring.uniformizer, 1: ring.one()}])
        assert sat == saturate_rows_smith(ring, 2, [row])


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_lattice_quotients_match_dense_indices(kind, data):
    """quotient: the rows and the lifts generate a full lattice of index
    pi^(sum of the torsion), and project reads the lift coordinates back.
    lifts_over: N and the free lifts generate a sublattice of M of full
    rank and index pi^(sum of the torsion) in M."""
    ring = RINGS[kind]
    amb = data.draw(st.integers(1, 5))
    zero = ring.zero()
    m = Lattice.from_rows(ring, amb, vecs(draw_rows(data, ring, amb)))
    lifts, torsion, project = untouched(m.quotient, m)
    dense_lifts = dense_rows(lifts, amb, zero)
    both = lattice_from_rows(ring, amb, dense(m) + dense_lifts)
    assert both.rank == amb and sum(both.pivot_vals) == sum(torsion)
    c = [draw_entry(data, ring) for _ in lifts]
    inside = draw_inside(data, ring, dense(m)) if m.rank else []
    v = linalg.combine(vec(c + [ring.one()] * len(inside)),
                       vecs(dense_lifts + inside))
    assert untouched(lambda: project(v), m) == vec(c)
    if not m.rank:
        return
    n = Lattice.from_rows(ring, amb, vecs(draw_inside(data, ring, dense(m))))
    free, tors = untouched(lambda: m.lifts_over(n), m, n)
    assert len(free) == m.rank - n.rank
    coords = [dense_coords(m, r)
              for r in dense(n) + dense_rows(free, amb, zero)]
    assert None not in coords
    gen = lattice_from_rows(ring, m.rank, dense_rows(coords, m.rank, zero))
    assert gen.rank == m.rank and sum(gen.pivot_vals) == sum(tors)


@SETTINGS
@given(st.sampled_from(sorted(RINGS)), st.data())
def test_lifts_over_matches_the_smith_route(kind, data):
    """M is nonzero (a row of ones is among its generators) and N is
    spanned by one to rank M combinations of M's rows, each coefficient a
    small integer times pi^0 or pi^1.  lifts_over gives the oracle's
    torsion; without torsion N and the lifts span M over O, with no
    smith_track call, and with torsion it makes the one call and gives the
    oracle's lifts."""
    ring = RINGS[kind]
    amb = data.draw(st.integers(1, 5))
    m = Lattice.from_rows(ring, amb, vecs(draw_rows(data, ring, amb)
                                          + [[ring.one()] * amb]))
    coeffs = [[ring.of(data.draw(st.integers(-2, 2)))
               * ring.pi_power(data.draw(st.integers(0, 1))) for _ in m.rows]
              for _ in range(data.draw(st.integers(1, m.rank)))]
    n = Lattice.from_rows(ring, amb,
                          [linalg.combine(vec(c), m.rows) for c in coeffs])
    (free, tors), calls = untouched(lambda: smith_calls(
        lambda: m.lifts_over(n)), m, n)
    want_free, want_tors = lifts_over_smith(m, n)
    assert tors == want_tors and len(free) == len(want_free)
    if tors:
        assert calls == 1 and free == want_free
    else:
        assert calls == 0
        assert Lattice.from_rows(ring, amb, n.rows + tuple(free)) == m


def test_pi_times_m_has_an_integral_k_rref_and_takes_the_smith_route():
    """N = pi M: the coordinates of N in M are pi times the identity, whose
    K-rref, the identity, is integral; yet M/N = (O/pi)^r is all torsion,
    and the residues are zero, so smith_track runs."""
    for ring in RINGS.values():
        m = Lattice.from_rows(ring, 3, [{0: ring.one(), 1: ring.of(2)},
                                        {2: ring.one()}])
        n = Lattice.from_rows(ring, 3, [linalg.combine(
            {0: ring.uniformizer}, [r]) for r in m.rows])
        coords = [m.coords(r) for r in n.rows]
        ech, _ = linalg.rref(coords, ring.field_K, m.rank)
        assert all(ring.in_O(x) for r in ech for x in r.values())
        (free, tors), calls = smith_calls(lambda: m.lifts_over(n))
        assert (free, tors) == ([], [1, 1]) == lifts_over_smith(m, n)
        assert calls == 1


def test_a_pivot_of_valuation_one_can_be_pure():
    """N = O(3, 1) in Z_(3)^2: its Hermite pivot 3 has valuation 1, yet its
    residue (0, 1) is nonzero, so N is pure, e_0 lifts O^2 / N and
    smith_track does not run."""
    ring = RINGS["Z_(3)"]
    m = Lattice.full(ring, 2)
    n = Lattice.from_rows(ring, 2, [{0: ring.of(3), 1: ring.one()}])
    assert n.pivot_vals == (1,)
    (free, tors), calls = smith_calls(lambda: m.lifts_over(n))
    assert (free, tors, calls) == ([{0: ring.one()}], [], 0)
    assert lifts_over_smith(m, n)[1] == []
    assert Lattice.from_rows(ring, 2, n.rows + tuple(free)) == m


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_subspace_rows_match_the_dense_rref(kind, data):
    fld = FIELDS[kind]
    n = data.draw(st.integers(1, 5))

    def draw_vector():
        return [fld.of(data.draw(st.integers(-3, 3)))
                if data.draw(st.booleans()) else fld.zero for _ in range(n)]

    rows1 = [draw_vector() for _ in range(data.draw(st.integers(0, n + 1)))]
    rows2 = [draw_vector() for _ in range(data.draw(st.integers(0, n + 1)))]
    s1 = linalg.Subspace.from_rows(fld, n, vecs(rows1))
    s2 = linalg.Subspace.from_rows(fld, n, vecs(rows2))
    for s, rows in ((s1, rows1), (s2, rows2)):
        assert (dense(s), s.pivots) == rref_dense(rows, fld, n)
        assert is_canonical_form(s)
    total = untouched(lambda: s1.add(s2), s1, s2)
    assert (dense(total), total.pivots) == rref_dense(rows1 + rows2, fld, n)
    meet = untouched(lambda: s1.intersection(s2), s1, s2)
    assert meet.rank == s1.rank + s2.rank - total.rank
    ech1, piv1 = rref_dense(rows1, fld, n)
    ech2, piv2 = rref_dense(rows2, fld, n)
    for r in dense(meet):
        assert not any(in_row_space(r, ech1, piv1))
        assert not any(in_row_space(r, ech2, piv2))
    v = draw_vector()
    want = coords_in_row_space(v, ech1, piv1)
    assert untouched(lambda: s1.coords(vec(v)), s1) == \
        (None if want is None else vec(want))
    lifts, torsion, project = untouched(s1.quotient, s1)
    assert torsion == [] and field_rank(
        fld, ech1 + dense_rows(lifts, n, fld.zero), n) == n
    back = linalg.combine(untouched(lambda: project(vec(v)), s1), lifts)
    assert s1.contains_vector(
        linalg.combine({0: fld.one, 1: -fld.one}, [vec(v), back]))
    free, tors = untouched(lambda: s1.lifts_over(meet), s1, meet)
    assert tors == [] and len(free) == s1.rank - meet.rank
    assert rref_dense(dense(meet) + dense_rows(free, n, fld.zero), fld, n) \
        == (ech1, piv1)
