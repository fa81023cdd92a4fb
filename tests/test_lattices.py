import itertools
import random
from fractions import Fraction

import pytest
from dense_reference import dense_rows, lattice_from_rows
from hypothesis import given, settings, strategies as st

from grforge import linalg
from grforge.lattices import (
    Lattice,
    LatticeError,
    coord_solver,
    is_pure,
    pure_closure,
    quotient_free_basis,
    saturate_rows,
)
from grforge.scalars import CYCLOTOMIC, RATIONAL, Cyc, RingSpec

R3 = RingSpec(RATIONAL, 3)
R5 = RingSpec(RATIONAL, 5)
C3 = RingSpec(CYCLOTOMIC, 3)
C5 = RingSpec(CYCLOTOMIC, 5)


def lat(ring, ambient, rows):
    return Lattice.from_rows(ring, ambient, [[ring.of(x) for x in r] for r in rows])


def dense(l):
    """The canonical rows of a lattice as dense lists."""
    return dense_rows(l.rows, l.ambient, l.ring.zero())


# -- brute-force intersection oracle (rank <= 3, small integer entries) -------
#
# Two independent checks, neither using the kernel/saturation code path:
#   * a coefficient-box enumeration: every O-combination of l1 generators that
#     happens to lie in l2 must lie in the computed intersection;
#   * for full-rank pairs, the exact index identity
#       v(det got) = v(det l1) + v(det l2) - v(det (l1+l2))
#     with inline Fraction determinants; together with got <= l1, got <= l2
#     (inline Cramer membership) this forces got = l1 ∩ l2.


def brute_members(ring, l1, l2, bound):
    out = []
    coeffs = range(-bound, bound + 1)
    for cs in itertools.product(coeffs, repeat=l1.rank):
        v = [ring.zero()] * l1.ambient
        for c, row in zip(cs, dense(l1)):
            if c:
                for j in range(l1.ambient):
                    v[j] = v[j] + ring.of(c) * row[j]
        if any(v) and inline_member(ring, l2, v):
            out.append(v)
    return out


def inline_det(rows):
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    if n == 2:
        return Fraction(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * inline_det(minor)
    return total


def inline_member(ring, l, v):
    """v in l, decided by Cramer solves against the generator matrix."""
    # solve c * G = v over Q by augmenting and eliminating
    g = [list(map(Fraction, row)) for row in dense(l)]
    vv = list(map(Fraction, v))
    cs = []
    for row in g:
        # generators are in echelon form; eliminate greedily
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        c = vv[piv] / row[piv]
        cs.append(c)
        for j in range(len(vv)):
            vv[j] -= c * row[j]
    if any(vv):
        return False
    return all(c.denominator % ring.p != 0 for c in cs)


def det_val(ring, l):
    d = inline_det([list(map(Fraction, row)) for row in dense(l)])
    assert d != 0
    v = 0
    num, den = abs(d.numerator), d.denominator
    while num % ring.p == 0:
        v += 1
        num //= ring.p
    assert den % ring.p != 0
    return v


class TestIntersection:
    def test_spec_example(self):
        l1 = lat(R3, 2, [[3, 0], [0, 1]])
        l2 = lat(R3, 2, [[1, 1]])
        expect = lat(R3, 2, [[3, 3]])
        assert l1.intersection(l2) == expect

    def test_idempotent(self):
        l = lat(R3, 3, [[1, 2, 0], [0, 3, 3]])
        assert l.intersection(l) == l

    def test_with_ambient(self):
        l = lat(R3, 2, [[2, 1], [0, 9]])
        assert l.intersection(Lattice.full(R3, 2)) == l

    def test_brute_force_oracle(self):
        rng = random.Random(20240811)
        for p, ring in [(3, R3), (5, R5)]:
            for trial in range(30):
                amb = rng.randint(1, 3)
                full_rank = trial % 3 != 0
                r1 = amb if full_rank else rng.randint(0, amb)
                r2 = amb if full_rank else rng.randint(0, amb)
                rows1 = [[rng.randint(-p * p, p * p) for _ in range(amb)] for _ in range(r1)]
                rows2 = [[rng.randint(-p * p, p * p) for _ in range(amb)] for _ in range(r2)]
                l1 = lat(ring, amb, rows1)
                l2 = lat(ring, amb, rows2)
                got = l1.intersection(l2)
                # soundness: every generator of got lies in both inputs
                for row in dense(got):
                    assert inline_member(ring, l1, row)
                    assert inline_member(ring, l2, row)
                # completeness on a coefficient box
                for v in brute_members(ring, l1, l2, bound=4):
                    assert got.contains_vector(v), (rows1, rows2, v)
                # exact index identity in the full-rank case
                if l1.rank == amb and l2.rank == amb:
                    assert got.rank == amb
                    t = l1.add(l2)
                    assert det_val(ring, got) == (
                        det_val(ring, l1) + det_val(ring, l2) - det_val(ring, t)
                    ), (rows1, rows2)


class TestPureClosure:
    def test_saturation_of_scaled_vector(self):
        n = lat(R3, 2, [[3, 3]])
        assert pure_closure(n, Lattice.full(R3, 2)) == lat(R3, 2, [[1, 1]])

    def test_fixed_point(self):
        n = lat(R3, 2, [[1, 2]])
        assert pure_closure(n, Lattice.full(R3, 2)) == n

    def test_idempotent(self):
        m = lat(R3, 3, [[1, 0, 0], [0, 3, 0], [0, 0, 9]])
        n = lat(R3, 3, [[3, 3, 0], [0, 9, 9]])
        once = pure_closure(n, m)
        assert pure_closure(once, m) == once
        assert once.rank == n.rank

    def test_inside_proper_sublattice(self):
        # closure depends on M, not just on the ambient lattice
        m = lat(R3, 2, [[3, 0], [0, 1]])
        n = lat(R3, 2, [[9, 0]])
        assert pure_closure(n, m) == lat(R3, 2, [[3, 0]])

    def test_not_contained_raises(self):
        m = lat(R3, 2, [[3, 0], [0, 1]])
        n = lat(R3, 2, [[1, 0]])
        with pytest.raises(LatticeError):
            pure_closure(n, m)


@pytest.mark.parametrize("check", [
    is_pure, pure_closure, lambda n, m: quotient_free_basis(m, n)],
    ids=["is_pure", "pure_closure", "quotient_free_basis"])
def test_sublattice_errors(check):
    m = lat(R3, 2, [[3, 0], [0, 1]])
    with pytest.raises(LatticeError, match="N is not contained in M"):
        check(lat(R3, 2, [[1, 0]]), m)
    for n in (lat(R3, 3, [[3, 0, 0]]), lat(R5, 2, [[5, 0]])):
        with pytest.raises(LatticeError, match="ambient mismatch"):
            check(n, m)


class TestIsPure:
    def test_scaled_vector_not_pure(self):
        assert is_pure(lat(R3, 2, [[3, 0]]), Lattice.full(R3, 2)) is False

    def test_primitive_vector_pure(self):
        assert is_pure(lat(R3, 2, [[1, 2]]), Lattice.full(R3, 2)) is True

    def test_zero_pure(self):
        assert is_pure(Lattice.zero(R3, 2), Lattice.full(R3, 2)) is True

    def test_pure_with_positive_pivot_valuation(self):
        # (3, 1) is primitive even though its first entry has valuation 1
        assert is_pure(lat(R3, 2, [[3, 1]]), Lattice.full(R3, 2)) is True


class TestQuotient:
    def test_free_quotient(self):
        free, tors = quotient_free_basis(Lattice.full(R3, 2), lat(R3, 2, [[1, 0]]))
        assert tors == []
        assert len(free) == 1

    def test_pure_torsion(self):
        free, tors = quotient_free_basis(Lattice.full(R3, 1), lat(R3, 1, [[3]]))
        assert free == []
        assert tors == [1]

    def test_smith_oracle_example(self):
        free, tors = quotient_free_basis(Lattice.full(R3, 2), lat(R3, 2, [[3, 3]]))
        assert len(free) == 1
        assert tors == [1]

    def test_mixed(self):
        m = Lattice.full(R3, 3)
        n = lat(R3, 3, [[1, 0, 0], [0, 9, 0]])
        free, tors = quotient_free_basis(m, n)
        assert len(free) == 1
        assert tors == [2]


class TestCanonicalForm:
    def test_equality_is_canonical(self):
        a = lat(R3, 2, [[1, 1], [0, 3]])
        b = lat(R3, 2, [[1, 4], [2, 5]])
        # same lattice, different generators
        assert a.contains_lattice(b) and b.contains_lattice(a)
        assert a == b

    def test_cyclotomic_lattice(self):
        z = Cyc.zeta_pow(3, 1)
        pi = z - 1
        l1 = Lattice.from_rows(C3, 2, [[pi, C3.of(0)], [C3.of(0), C3.of(1)]])
        l2 = Lattice.from_rows(C3, 2, [[pi, pi], [C3.of(0), C3.of(1)]])
        assert l1 == l2  # pi*e1 + pi*e2 reduces mod the second generator
        got = l1.intersection(lat(C3, 2, [[1, 1]]))
        assert got == Lattice.from_rows(C3, 2, [[pi, pi]])

    def test_rank_zero_everywhere(self):
        z = Lattice.zero(R3, 4)
        assert z.rank == 0
        assert z.add(z) == z
        assert z.intersection(Lattice.full(R3, 4)) == z
        assert saturate_rows(R3, 4, []) == z


class TestRandomPurityAgreement:
    def test_thousand_pairs(self):
        # Lemma 2.3(a) vs (b) agreement is asserted inside is_pure itself
        rng = random.Random(7)
        for ring in (R3, R5, C3):
            for _ in range(120):
                amb = rng.randint(1, 6)
                m = Lattice.full(ring, amb)
                rows = [
                    [ring.of(rng.randint(-9, 9)) for _ in range(amb)]
                    for _ in range(rng.randint(0, amb))
                ]
                scale = ring.uniformizer if rng.random() < 0.5 else ring.one()
                n = Lattice.from_rows(ring, amb, [[scale * x for x in r] for r in rows])
                is_pure(n, m)


def test_pure_closure_monotone():
    rng = random.Random(5)
    for _ in range(40):
        amb = rng.randint(1, 4)
        m = Lattice.full(R3, amb)
        rows2 = [[R3.of(rng.randint(-6, 6)) for _ in range(amb)]
                 for _ in range(rng.randint(1, amb))]
        n2 = Lattice.from_rows(R3, amb, rows2)
        rows1 = []
        for _ in range(rng.randint(0, n2.rank)):
            v = [R3.zero()] * amb
            for r in dense(n2):
                c = rng.randint(-2, 2) * (3 if rng.random() < 0.5 else 1)
                for t in range(amb):
                    v[t] = v[t] + R3.of(c) * r[t]
            rows1.append(v)
        n1 = Lattice.from_rows(R3, amb, rows1)
        c1 = pure_closure(n1, m)
        c2 = pure_closure(n2, m)
        assert c2.contains_lattice(c1)


def test_membership_agrees_with_the_cramer_oracle():
    """contains_vector and coords against inline_member, on vectors that are
    O-combinations, K-combinations with a 1/p coefficient (a pivot entry of
    too small valuation), and free vectors."""
    rng = random.Random(20261018)
    for ring in (R3, R5):
        p = ring.p
        for _ in range(60):
            amb = rng.randint(1, 4)
            rows = [[rng.randint(-p * p, p * p) for _ in range(amb)]
                    for _ in range(rng.randint(0, amb))]
            l = lat(ring, amb, rows)
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, p)))
                      for _ in l.rows]
            combo = [sum((c * r[j] for c, r in zip(coeffs, dense(l))),
                         Fraction(0))
                     for j in range(amb)]
            free = [Fraction(rng.randint(-p, p)) for _ in range(amb)]
            for v in (combo, free):
                v = [ring.of(x) for x in v]
                inside = inline_member(ring, l, v)
                assert l.contains_vector(v) == inside, (rows, v)
                assert (l.coords(v) is not None) == inside


# -- coords against the dense reduction ---------------------------------------

def dense_coords(l, vec):
    """O-coordinates of vec in l's canonical basis, or None: every row is
    walked column by column and each coordinate divides by the pivot."""
    ring = l.ring
    v = list(vec)
    cs = []
    for row, col, pval in zip(dense(l), l.pivots, l.pivot_vals):
        x = v[col]
        if not x:
            cs.append(ring.zero())
            continue
        if ring.valuation(x) < pval:
            return None
        q = x / row[col]
        cs.append(q)
        for j in range(col, l.ambient):
            if row[j]:
                v[j] = v[j] - q * row[j]
    return None if any(v) else cs


@st.composite
def lattice_and_vectors(draw):
    """A lattice over Q or Q(zeta_p) with entries of all valuations, an
    O-combination of its rows, a K-combination with a 1/pi coefficient and
    a free vector."""
    ring = draw(st.sampled_from((R3, R5, C3, C5)))
    amb = draw(st.integers(1, 5))
    small = st.integers(-4, 4)

    def entry():
        x = ring.of(draw(small))
        if ring.flavor == CYCLOTOMIC:
            x = x + Cyc.zeta_pow(ring.p, draw(st.integers(0, ring.p - 1))) \
                * draw(small)
        return x * ring.pi_power(draw(st.integers(0, 2)))

    rows = [[entry() for _ in range(amb)]
            for _ in range(draw(st.integers(0, amb)))]
    l = Lattice.from_rows(ring, amb, rows)
    vecs = []
    for scale in (ring.one(), ring.pi_inv):
        v = [ring.zero()] * amb
        for r in dense(l):
            c = ring.of(draw(small)) * (scale if draw(st.booleans()) else 1)
            v = [a + c * b for a, b in zip(v, r)]
        vecs.append(v)
    vecs.append([entry() for _ in range(amb)])
    return l, vecs


@settings(max_examples=150, deadline=None)
@given(lv=lattice_and_vectors())
def test_coords_match_dense_reduction(lv):
    l, vecs = lv
    for v in vecs:
        want = dense_coords(l, v)
        assert l.coords(v) == want
        assert l.contains_vector(v) == (want is not None)
    for r in l.rows:
        assert l.coords(r) is not None


# -- from_rows on {index: entry} rows against the dense worklist echelon -------

@st.composite
def generator_rows(draw):
    """Generators over O of Z_(3), Z_(5), Z_(3)[zeta_3] or Z_(5)[zeta_5] with
    entries of valuation 0 to 2 and many zeros, a zero row and a repeated
    row among them as drawn."""
    ring = draw(st.sampled_from((R3, R5, C3, C5)))
    amb = draw(st.integers(1, 5))
    small = st.integers(-4, 4)

    def entry():
        if draw(st.booleans()):
            return ring.zero()
        x = ring.of(draw(small))
        if ring.flavor == CYCLOTOMIC:
            x = x + Cyc.zeta_pow(ring.p, draw(st.integers(0, ring.p - 1))) \
                * draw(small)
        return x * ring.pi_power(draw(st.integers(0, 2)))

    rows = [[entry() for _ in range(amb)]
            for _ in range(draw(st.integers(0, amb + 2)))]
    if draw(st.booleans()):
        rows.append([ring.zero()] * amb)
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return ring, amb, rows


@settings(max_examples=200, deadline=None)
@given(g=generator_rows(), data=st.data())
def test_from_rows_on_dicts_matches_the_dense_echelon(g, data):
    ring, amb, rows = g
    want = lattice_from_rows(ring, amb, rows)
    mixed = [linalg.sparse(r) if data.draw(st.booleans()) else r
             for r in rows]
    for given_rows in (rows, [linalg.sparse(r) for r in rows], mixed):
        got = Lattice.from_rows(ring, amb, given_rows)
        assert (got.rows, got.pivots, got.pivot_vals) == \
            (want.rows, want.pivots, want.pivot_vals)


@pytest.mark.parametrize("ring", (R3, R5, C3, C5), ids=str)
def test_from_rows_rejects_what_is_not_a_generator_over_o(ring):
    one, zero = ring.one(), ring.zero()
    outside = [one * ring.pi_inv, zero, one]
    for rows in ([outside], [linalg.sparse(outside)]):
        with pytest.raises(LatticeError, match="outside O"):
            Lattice.from_rows(ring, 3, rows)
    with pytest.raises(LatticeError, match="outside O"):
        lattice_from_rows(ring, 3, [outside])
    # an entry outside O that the echelon never meets at a pivot, also
    # where it would be reduced away above a later pivot
    high = one / ring.p
    for rows in ([[one, high]], [[one, high], [zero, one]],
                 [{0: one, 1: high}, {1: one}]):
        with pytest.raises(LatticeError, match="outside O"):
            Lattice.from_rows(ring, 2, rows)
    for key in (3, 7, -1):
        with pytest.raises(LatticeError, match="index outside"):
            Lattice.from_rows(ring, 3, [{0: one}, {key: one}])
    for row in ([one] * 4, [one] * 2, [zero] * 4):
        with pytest.raises(LatticeError, match="length"):
            Lattice.from_rows(ring, 3, [row])


# -- coord_solver on a dict basis ------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_coord_solver_on_dict_rows_keeps_entries_past_the_width_outside(data):
    """An entry of v at index n + i (n the width of the basis) is outside the
    span; it must not be read as the coordinate at the augmented column
    n + i.  Over Q and Q(zeta_p), at level O and K, and over F_p."""
    ring = data.draw(st.sampled_from((R3, R5, C3, C5)))
    fld = data.draw(st.sampled_from((ring.field_K, ring.field_k)))
    over = ring if fld is ring.field_K and data.draw(st.booleans()) else None
    n = data.draw(st.integers(1, 5))
    small = st.integers(-4, 4)
    # unit pivots at distinct columns, so the rows are independent
    pivots = sorted(data.draw(st.permutations(range(n)))[:data.draw(
        st.integers(1, n))])
    rows = []
    for c in pivots:
        row = {c: fld.one}
        for j in range(c + 1, n):
            x = fld.of(data.draw(small))
            if x:
                row[j] = x
        rows.append(row)
    dense = [linalg.dense(r.items(), n, fld.zero) for r in rows]
    coords = coord_solver(rows, fld, over, n)
    dense_coords = coord_solver(dense, fld, over)
    c = [fld.of(data.draw(small)) for _ in rows]
    v = linalg.dense(linalg.combine(c, dense).items(), n, fld.zero)
    assert coords(v) == coords(linalg.sparse(v)) == dense_coords(v) == c
    i = data.draw(st.integers(0, len(rows) - 1))
    past = {**linalg.sparse(v), n + i: fld.one}
    assert coords(past) is None and dense_coords(past) is None
