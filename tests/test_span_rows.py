"""The canonical rows of a span are the {index: entry} dicts of their
nonzero entries, keys increasing.  Hypothesis compares the sparse spans with
dense references: `Lattice.from_rows`, `add`, `intersection`, `coords`,
`quotient`, `lifts_over`, `saturate_rows` and `pure_closure` over Z_(3),
Z_(5), Z_(3)[zeta_3] and Z_(5)[zeta_5] against the dense worklist echelon
`dense_reference.lattice_from_rows` and the dense reduction
`test_lattices.dense_coords`, and `linalg.Subspace` over Q, F_3 and F_5
against the dense `dense_reference.rref_dense`.  No operation writes into
the rows of its operand spans or changes their hash."""

import copy

from dense_reference import (
    coords_in_row_space,
    dense_rows,
    in_row_space,
    lattice_from_rows,
    rref_dense,
)
from hypothesis import given, settings, strategies as st
from test_lattices import dense_coords

from grforge import linalg
from grforge.lattices import Lattice, pure_closure, saturate_rows
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
        v = linalg.combine([draw_entry(data, ring) for _ in rows], rows)
        out.append(linalg.dense(v.items(), len(rows[0]), zero))
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
    given1 = [linalg.sparse(r) if data.draw(st.booleans()) else r
              for r in rows1]
    l1 = Lattice.from_rows(ring, amb, given1)
    l2 = Lattice.from_rows(ring, amb, rows2)
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
        for w in (v, linalg.sparse(v)):
            assert untouched(lambda: l1.coords(w), l1) == dense_coords(l1, v)


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
    l1 = Lattice.from_rows(ring, amb, draw_rows(data, ring, amb))
    l2 = Lattice.from_rows(ring, amb, draw_rows(data, ring, amb))
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
    sat = saturate_rows(ring, amb, [linalg.sparse(r) for r in rows])
    assert is_canonical_form(sat) and sat == saturate_rows(ring, amb, rows)
    assert rref_dense(dense(sat), fld, amb) == rref_dense(rows, fld, amb)
    assert residue_rank(ring, dense(sat), amb) == sat.rank
    # the pure closure of a sublattice n of l1
    if l1.rank:
        n = Lattice.from_rows(ring, amb, draw_inside(data, ring, dense(l1)))
        closure = untouched(lambda: pure_closure(n, l1), n, l1)
        assert is_canonical_form(closure)
        assert rref_dense(dense(closure), fld, amb) == \
            rref_dense(dense(n), fld, amb)
        coords = [dense_coords(l1, r) for r in dense(closure)]
        assert None not in coords
        assert residue_rank(ring, coords, l1.rank) == closure.rank


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
    m = Lattice.from_rows(ring, amb, draw_rows(data, ring, amb))
    lifts, torsion, project = untouched(m.quotient, m)
    dense_lifts = dense_rows(lifts, amb, zero)
    both = lattice_from_rows(ring, amb, dense(m) + dense_lifts)
    assert both.rank == amb and sum(both.pivot_vals) == sum(torsion)
    c = [draw_entry(data, ring) for _ in lifts]
    inside = draw_inside(data, ring, dense(m)) if m.rank else []
    v = linalg.combine(c + [ring.one()] * len(inside), dense_lifts + inside)
    assert untouched(lambda: project(v), m) == c
    if not m.rank:
        return
    n = Lattice.from_rows(ring, amb, draw_inside(data, ring, dense(m)))
    free, tors = untouched(lambda: m.lifts_over(n), m, n)
    assert len(free) == m.rank - n.rank
    coords = [dense_coords(m, r)
              for r in dense(n) + dense_rows(free, amb, zero)]
    assert None not in coords
    gen = lattice_from_rows(ring, m.rank, coords)
    assert gen.rank == m.rank and sum(gen.pivot_vals) == sum(tors)


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
    s1 = linalg.Subspace.from_rows(
        fld, n, [linalg.sparse(r) if data.draw(st.booleans()) else r
                 for r in rows1])
    s2 = linalg.Subspace.from_rows(fld, n, rows2)
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
    for w in (v, linalg.sparse(v)):
        assert untouched(lambda: s1.coords(w), s1) == \
            coords_in_row_space(v, ech1, piv1)
    lifts, torsion, project = untouched(s1.quotient, s1)
    assert torsion == [] and field_rank(
        fld, ech1 + dense_rows(lifts, n, fld.zero), n) == n
    back = linalg.combine(untouched(lambda: project(v), s1), lifts)
    assert s1.contains_vector(linalg.combine([fld.one, -fld.one], [v, back]))
    free, tors = untouched(lambda: s1.lifts_over(meet), s1, meet)
    assert tors == [] and len(free) == s1.rank - meet.rank
    assert rref_dense(dense(meet) + free, fld, n) == (ech1, piv1)
