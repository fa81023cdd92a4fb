from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from cyclo_reference import (geometric_inverse, in_O_by_valuation,
                             suite_reference)
from paper_checks import unit_u_alpha

from grforge import cyclo
from grforge.scalars import CYCLOTOMIC, Cyc, InternalCheckError, RingSpec


class TestUnitIdentity:
    def test_p5_d3(self):
        u, is_u, res = unit_u_alpha(5, 3)
        z = Cyc.zeta_pow(5, 1)
        assert u == Cyc.zeta_pow(5, 2) + z + 1
        assert is_u and res == 3

    def test_p3_d2(self):
        u, is_u, res = unit_u_alpha(3, 2)
        assert u == Cyc.zeta_pow(3, 1) + 1
        assert is_u and res == 2

    def test_d1_trivial(self):
        for p in (3, 5, 7):
            u, is_u, res = unit_u_alpha(p, 1)
            assert u == Cyc.of(p, 1) and is_u and res == 1

    def test_p_divides_d_rejected(self):
        with pytest.raises(cyclo.CycloError):
            unit_u_alpha(3, 3)

    def test_p_equals_unit_times_pi_power(self):
        for p in (3, 5, 7):
            ring = RingSpec(CYCLOTOMIC, p)
            x = ring.of(p)
            pi = ring.uniformizer
            for _ in range(p - 1):
                x = x / pi
            assert ring.valuation(x) == 0


class TestRootData:
    def test_positive_root_counts(self):
        assert len(cyclo.RootDatum.of_type("A1").positive) == 1
        assert len(cyclo.RootDatum.of_type("A2").positive) == 3
        assert len(cyclo.RootDatum.of_type("B2").positive) == 4
        assert len(cyclo.RootDatum.of_type("G2").positive) == 6

    def test_d_alpha_values(self):
        b2 = cyclo.RootDatum.of_type("B2")
        assert sorted(b2.d_alpha(b) for b in b2.positive) == [1, 1, 2, 2]
        g2 = cyclo.RootDatum.of_type("G2")
        assert sorted(g2.d_alpha(b) for b in g2.positive) == [1, 1, 1, 3, 3, 3]

    def test_unsupported_type(self):
        with pytest.raises(cyclo.CycloError):
            cyclo.RootDatum.of_type("E8")


class TestKBeta:
    def test_simple_definition_inverted(self):
        ring = RingSpec(CYCLOTOMIC, 5)
        rd = cyclo.RootDatum.of_type("A1")
        k = cyclo.k_simple(ring, rd, 0, 6)
        h = cyclo.Series.gen(ring, 1, 6, 0)
        zd = Cyc.zeta_pow(5, 1)
        assert k == cyclo.Series.const(ring, 1, 6, 1) + h * (zd - 1)

    def test_a2_composite_integral(self):
        ring = RingSpec(CYCLOTOMIC, 5)
        rd = cyclo.RootDatum.of_type("A2")
        hb, ok = cyclo.h_prime(ring, rd, (1, 1), 8)
        assert ok

    def test_g2_long_root_integral(self):
        ring = RingSpec(CYCLOTOMIC, 5)
        rd = cyclo.RootDatum.of_type("G2")
        for beta in rd.positive:
            hb, ok = cyclo.h_prime(ring, rd, beta, 6)
            assert ok, beta

    def test_h_prime_reads_a_given_k(self):
        ring = RingSpec(CYCLOTOMIC, 7)
        rd = cyclo.RootDatum.of_type("G2")
        for beta in rd.positive:
            k = cyclo.k_beta(ring, rd, beta, 6)
            hb, ok = cyclo.h_prime(ring, rd, beta, 6)
            hb_k, ok_k = cyclo.h_prime(ring, rd, beta, 6, k)
            assert exact(hb_k.c) == exact(hb.c) and ok_k == ok

    def test_negative_root_rejected(self):
        ring = RingSpec(CYCLOTOMIC, 3)
        rd = cyclo.RootDatum.of_type("A2")
        with pytest.raises(cyclo.CycloError):
            cyclo.k_beta(ring, rd, (-1, 0), 6)


class TestItemSuite:
    def test_p5_rank1(self):
        rd = cyclo.RootDatum.of_type("A1")
        v = cyclo.appendix_identity_suite(rd, 5, 8)
        assert all(v.values())

    def test_p3_b2(self):
        rd = cyclo.RootDatum.of_type("B2")
        v = cyclo.appendix_identity_suite(rd, 3, 8)
        assert all(v.values())

    def test_g2_p3_excluded(self):
        rd = cyclo.RootDatum.of_type("G2")
        with pytest.raises(cyclo.CycloError):
            cyclo.appendix_identity_suite(rd, 3, 8)

    def test_item6_scalar_example(self):
        # p = 3, r = 3: v((zeta-1)^3) = 3 > v(3) = 2, so the coefficient
        # (zeta^d - 1)^r / r stays integral
        ring = RingSpec(CYCLOTOMIC, 3)
        pi = ring.uniformizer
        x = pi * pi * pi * Fraction(1, 3)
        assert ring.valuation(x) == 1

    def test_low_order_trivial(self):
        rd = cyclo.RootDatum.of_type("A1")
        v = cyclo.appendix_identity_suite(rd, 5, 2)
        assert all(v.values())

    def test_order_one_rejected(self):
        rd = cyclo.RootDatum.of_type("A1")
        with pytest.raises(cyclo.CycloError):
            cyclo.appendix_identity_suite(rd, 5, 1)


class TestComult:
    def test_p3_d1(self):
        rd = cyclo.RootDatum.of_type("A1")
        assert cyclo.comult_check(rd, 0, 3, 8)

    def test_p5_d2(self):
        rd = cyclo.RootDatum.of_type("B2")
        # alpha_1 is the long root (d = 2)
        assert rd.d_simple[0] == 2
        assert cyclo.comult_check(rd, 0, 5, 8)

    def test_degenerate_truncation(self):
        rd = cyclo.RootDatum.of_type("A1")
        assert cyclo.comult_check(rd, 0, 3, 2)


class TestSeriesArithmetic:
    def test_inverse_roundtrip(self):
        ring = RingSpec(CYCLOTOMIC, 5)
        rd = cyclo.RootDatum.of_type("A1")
        k = cyclo.k_simple(ring, rd, 0, 7)
        one = cyclo.Series.const(ring, 1, 7, 1)
        assert k * k.inverse() == one

    def test_no_constant_term_inverse_fails(self):
        ring = RingSpec(CYCLOTOMIC, 3)
        h = cyclo.Series.gen(ring, 1, 5, 0)
        with pytest.raises(ZeroDivisionError):
            h.inverse()


# ---------------------------------------------------------------------------
# the packed series product against the schoolbook one
# ---------------------------------------------------------------------------

def schoolbook_product(a, b):
    """out[e1 + e2] += v1 v2 with plain Cyc operations, degree >= N dropped."""
    out = {}
    for e1, v1 in a.c.items():
        for e2, v2 in b.c.items():
            if sum(e1) + sum(e2) < a.order:
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, a.ring.zero()) + v1 * v2
    return {e: v for e, v in out.items() if v}


def exact(coeffs):
    return {e: (v.n, v.d) for e, v in coeffs.items()}


BIG = 10 ** 30


@st.composite
def series_case(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(1, 8))
    ring = RingSpec(CYCLOTOMIC, p)
    dens = [1, 2, 3, p, p * p]

    def cyc():
        den = draw(st.sampled_from(dens))
        return Cyc(p, [Fraction(draw(st.integers(-BIG, BIG)), den)
                       for _ in range(p - 1)])

    def series():
        # exponents up to the order, so some terms lie above the truncation
        exps = draw(st.lists(st.tuples(*[st.integers(0, order)] * nvars),
                             max_size=6, unique=True))
        return cyclo.Series(ring, nvars, order, {e: cyc() for e in exps})

    a, b = series(), series()
    if draw(st.booleans()):
        # (s + t)(s - t): the cross terms s t cancel monomial by monomial
        a, b = a + b, a - b
    scalar = draw(st.sampled_from(["int", "fraction", "cyc"]))
    if scalar == "int":
        x = draw(st.integers(-BIG, BIG) | st.just(0))
    elif scalar == "fraction":
        x = Fraction(draw(st.integers(-BIG, BIG)), draw(st.sampled_from(dens)))
    else:
        x = cyc()
    return a, b, x


@settings(max_examples=200, deadline=None)
@given(series_case())
def test_packed_products_match_the_schoolbook_product(case):
    a, b, x = case
    assert exact((a * b).c) == exact(schoolbook_product(a, b))
    scaled = {e: v * x for e, v in a.c.items() if v * x}
    assert exact((a * x).c) == exact(scaled)
    assert exact((x * a).c) == exact(scaled)


def worst_case(p, big_a, big_b, pairs):
    """Two one-variable series whose product at H^(pairs-1) sums ``pairs``
    term pairs of all-equal numerators: its middle convolution entry is
    (p-1) big_a big_b pairs, the width bound itself."""
    ring = RingSpec(CYCLOTOMIC, p)
    order = 2 * pairs

    def series(v):
        return cyclo.Series(ring, 1, order,
                            {(i,): Cyc(p, [v] * (p - 1)) for i in range(pairs)})

    return series(big_a), series(big_b)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_products_at_the_width_bound_are_exact(p):
    a, b = worst_case(p, BIG, BIG - 1, 4)
    assert exact((a * b).c) == exact(schoolbook_product(a, b))


def test_one_bit_narrower_slots_overflow(monkeypatch):
    # p = 3, A B t = 3 * 7 * 3 = 2^6 - 1: the slots of H^2 hold (63, 126, 63)
    # and the carry out of 126 pushes the top slot out of 7 balanced bits
    bound = cyclo._slot_width
    monkeypatch.setattr(cyclo, "_slot_width", lambda *args: bound(*args) - 1)
    a, b = worst_case(3, 3, 7, 3)
    with pytest.raises(InternalCheckError):
        a * b


# ---------------------------------------------------------------------------
# the Newton inverse and O-membership against the references
# ---------------------------------------------------------------------------

@st.composite
def invertible_case(draw):
    """A series with a nonzero constant term, coefficient denominators 1, 2,
    p and p^2, and some terms at or above the truncation order."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(1, 8))
    ring = RingSpec(CYCLOTOMIC, p)

    def cyc():
        den = draw(st.sampled_from([1, 2, p, p * p]))
        return Cyc(p, [Fraction(draw(st.integers(-50, 50)), den)
                       for _ in range(p - 1)])

    exps = draw(st.lists(st.tuples(*[st.integers(0, order)] * nvars),
                         max_size=6, unique=True))
    coeffs = {e: cyc() for e in exps}
    c0 = cyc()
    coeffs[(0,) * nvars] = c0 if c0 else Cyc.of(p, 1)
    return cyclo.Series(ring, nvars, order, coeffs)


@settings(max_examples=150, deadline=None)
@given(invertible_case())
def test_newton_inverse_matches_the_geometric_series(s):
    inv = s.inverse()
    ref = geometric_inverse(s)
    assert inv.order == ref.order == s.order
    assert exact(inv.c) == exact(ref.c)
    # without its constant term neither inverse exists
    s0 = cyclo.Series(s.ring, s.nvars, s.order,
                      {e: v for e, v in s.c.items() if any(e)})
    with pytest.raises(ZeroDivisionError):
        s0.inverse()
    with pytest.raises(ZeroDivisionError):
        geometric_inverse(s0)


@pytest.mark.parametrize("order", range(1, 9))
def test_newton_inverse_at_every_order(order):
    # orders 3, 5, 6 and 7 end on a step shorter than a doubling
    ring = RingSpec(CYCLOTOMIC, 5)
    z = Cyc.zeta_pow(5, 1)
    x, y = (cyclo.Series.gen(ring, 2, order, i) for i in range(2))
    s = 3 + x * (z - 1) + y * Fraction(2, 5) + x * y * z
    assert exact(s.inverse().c) == exact(geometric_inverse(s).c)
    assert s * s.inverse() == cyclo.Series.const(ring, 2, order, 1)


@st.composite
def membership_case(draw):
    """Coefficients at the edge of O: pi^k u / p with v(pi^k / p) = k - (p-1)
    for k = p-2, p-1, p, and numerators all divisible by p over p or p^2."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    ring = RingSpec(CYCLOTOMIC, p)
    values = []
    for _ in range(draw(st.integers(0, 4))):
        nums = [draw(st.integers(-30, 30)) for _ in range(p - 1)]
        if draw(st.booleans()):
            k = draw(st.sampled_from([p - 2, p - 1, p]))
            x = ring.pi_power(k) * Fraction(1, p)
            v = x * Cyc(p, nums) if any(nums) else x
        else:
            den = draw(st.sampled_from([p, p * p, 2 * p]))
            v = Cyc(p, [Fraction(p * a, den) for a in nums])
        if v:
            values.append(v)
    coeffs = {(i,): v for i, v in enumerate(values)}
    return ring, cyclo.Series(ring, 1, len(values) + 1, coeffs)


@settings(max_examples=200, deadline=None)
@given(membership_case())
def test_coeffs_in_O_matches_the_valuation(case):
    ring, s = case
    for v in s.c.values():
        assert ring.in_O(v) == (ring.valuation(v) >= 0)
    assert s.coeffs_in_O() == in_O_by_valuation(s)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_coeffs_in_O_on_both_sides_of_the_boundary(p):
    ring = RingSpec(CYCLOTOMIC, p)

    def series(v):
        return cyclo.Series.const(ring, 1, 2, v)

    for k, inside in ((p - 2, False), (p - 1, True), (p, True)):
        s = series(ring.pi_power(k) * Fraction(1, p))
        assert s.coeffs_in_O() == in_O_by_valuation(s) == inside
    # all numerators divisible by p: lowest terms drop one p of p^2
    s = series(Cyc(p, [Fraction(p * (i + 1), p * p) for i in range(p - 1)]))
    assert s.coeffs_in_O() == in_O_by_valuation(s) is False
    s = series(Cyc(p, [Fraction(p * (i + 1), p) for i in range(p - 1)]))
    assert s.coeffs_in_O() == in_O_by_valuation(s) is True


CRITERION_9_GRID = [(p, t) for p in (3, 5, 7) for t in ("A1", "A2", "B2")]
CRITERION_9_GRID += [(5, "G2"), (7, "G2")]


@pytest.mark.parametrize("order", [8, 5])
@pytest.mark.parametrize("p,label", CRITERION_9_GRID)
def test_suite_matches_the_reference_loop(p, label, order):
    rd = cyclo.RootDatum.of_type(label)
    verdicts = cyclo.appendix_identity_suite(rd, p, order)
    ref = suite_reference(rd, p, order)
    assert verdicts == ref and list(verdicts) == list(ref)
