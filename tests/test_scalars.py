import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grforge.scalars import (
    CYCLOTOMIC,
    RATIONAL,
    Cyc,
    Rat,
    RingSpec,
    ScalarError,
)

R3 = RingSpec(RATIONAL, 3)
C3 = RingSpec(CYCLOTOMIC, 3)
C5 = RingSpec(CYCLOTOMIC, 5)
C7 = RingSpec(CYCLOTOMIC, 7)


def zeta(ring, e=1):
    return Cyc.zeta_pow(ring.p, e)


# -- norm oracle for the cyclotomic valuation --------------------------------

def norm_valuation(ring, x):
    """v via the field norm: v(x) = v_p(N(x)) on the totally ramified prime."""
    if isinstance(x, (int, Fraction)):
        x = Cyc.of(ring.p, Fraction(x))
    if not x:
        return math.inf
    # N(x) = product of Galois conjugates zeta -> zeta^i, i = 1..p-1
    prod = Cyc.of(ring.p, 1)
    for i in range(1, ring.p):
        conj = Cyc.of(ring.p, x.c[0])
        for e, a in enumerate(x.c[1:], start=1):
            if a:
                conj = conj + Cyc.zeta_pow(ring.p, e * i) * a
        prod = prod * conj
    assert all(c == 0 for c in prod.c[1:]), "norm should be rational"
    n = prod.c[0]
    v = 0
    num, den = n.numerator, n.denominator
    while num % ring.p == 0:
        v += 1
        num //= ring.p
    while den % ring.p == 0:
        v -= 1
        den //= ring.p
    return v


class TestValuation:
    def test_rational_examples(self):
        assert R3.valuation(6) == 1
        assert R3.valuation(Fraction(2, 5)) == 0
        assert R3.valuation(Fraction(1, 3)) == -1
        assert R3.valuation(0) == math.inf

    def test_uniformizer_cyclotomic(self):
        assert C5.valuation(zeta(C5) - 1) == 1

    def test_p_is_unit_times_pi_to_p_minus_1(self):
        # p = unit * (zeta-1)^(p-1)
        for ring in (C3, C5, C7):
            assert ring.valuation(ring.p) == ring.p - 1
            u = ring.of(ring.p)
            pi = ring.uniformizer
            for _ in range(ring.p - 1):
                u = u / pi
            assert ring.valuation(u) == 0

    def test_cyclotomic_example_p3(self):
        assert C3.valuation(3) == 2
        assert norm_valuation(C3, 3) == 2

    def test_norm_oracle_agreement(self):
        samples = [
            zeta(C5) - 1,
            zeta(C5) + 1,
            Cyc(5, [1, 2, 3, 4]),
            Cyc(5, [5, 0, 0, 0]),
            Cyc(5, [Fraction(1, 2), 0, 1, 0]),
            (zeta(C5) - 1) * (zeta(C5) - 1),
            Cyc(5, [0, 0, 0, Fraction(3, 7)]),
        ]
        for x in samples:
            assert C5.valuation(x) == norm_valuation(C5, x)


class TestResidue:
    def test_zeta_maps_to_one(self):
        assert C5.residue(zeta(C5)) == 1

    def test_three_maps_to_zero(self):
        assert R3.residue(3) == 0
        assert C3.residue(3) == 0

    def test_quantum_unit_residue(self):
        # u = zeta^2 + zeta + 1 has residue 3 in F_5
        u = zeta(C5, 2) + zeta(C5) + 1
        assert C5.residue(u) == 3

    def test_residue_with_p_in_denominator_coeff(self):
        # x = (zeta-1)^4 / 5 is in O for p = 5 and has residue != 0
        x = C5.of(1)
        for _ in range(4):
            x = x * (zeta(C5) - 1)
        x = x / 5
        assert C5.valuation(x) == 0
        r = C5.residue(x)
        assert r != 0


class TestIsUnit:
    def test_examples(self):
        assert R3.valuation(2) == 0
        assert C3.valuation(zeta(C3) - 1) != 0
        assert C5.valuation(zeta(C5) + 1) == 0


# -- algebraic properties -----------------------------------------------------

small_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def cyc_elems(p):
    return st.lists(small_fracs, min_size=p - 1, max_size=p - 1).map(
        lambda cs: Cyc(p, cs)
    )


@settings(max_examples=60, deadline=None)
@given(x=small_fracs, y=small_fracs)
def test_valuation_multiplicative_rational(x, y):
    if x and y:
        assert R3.valuation(x * y) == R3.valuation(x) + R3.valuation(y)


@settings(max_examples=40, deadline=None)
@given(x=cyc_elems(5), y=cyc_elems(5))
def test_valuation_multiplicative_cyclotomic(x, y):
    if x and y:
        assert C5.valuation(x * y) == C5.valuation(x) + C5.valuation(y)


@settings(max_examples=40, deadline=None)
@given(x=cyc_elems(5), y=cyc_elems(5))
def test_residue_is_ring_hom(x, y):
    if C5.valuation(x) >= 0 and C5.valuation(y) >= 0:
        assert C5.residue(x * y) == C5.residue(x) * C5.residue(y)
        assert C5.residue(x + y) == C5.residue(x) + C5.residue(y)


@settings(max_examples=40, deadline=None)
@given(x=cyc_elems(3))
def test_field_inverse(x):
    if x:
        assert x * x.inverse() == Cyc.of(3, 1)


def test_canonical_mod():
    # digits lie in {0..p-1} along powers of pi
    x = C3.of(7) + zeta(C3) * 5
    c2 = C3.canonical_mod(x, 2)
    assert C3.valuation(x - c2) >= 2
    c1 = C3.canonical_mod(x, 1)
    assert c1 in (C3.of(0), C3.of(1), C3.of(2))


def test_scalar_serialization_roundtrip():
    for ring, val in [
        (R3, Fraction(-7, 4)),
        (C5, Cyc(5, [1, Fraction(2, 3), 0, -4])),
    ]:
        s = ring.format_scalar(val)
        assert ring.parse_scalar(s) == val


def test_rational_cyc_hashes_like_its_value():
    assert Cyc.of(5, 2) == 2
    assert 2 in {Cyc.of(5, 2)}
    assert Fraction(-3, 4) in {Cyc.of(7, Fraction(-3, 4))}
    assert Cyc.of(3, Fraction(1, 2)) in {Fraction(1, 2)}
    assert {Cyc.of(5, 0): "zero"}[0] == "zero"


def test_field_handles_are_cached():
    for ring in (R3, C3, C5, C7):
        assert ring.field_K is ring.field_K
        assert ring.field_k is ring.field_k
        assert ring.uniformizer is ring.uniformizer
        assert ring.pi_inv is ring.pi_inv
        assert ring.uniformizer * ring.pi_inv == 1


def test_c_is_read_only():
    x = Cyc(5, [1, Fraction(1, 2), 0, -3])
    assert x.c == (1, Fraction(1, 2), 0, -3)
    assert (x.n, x.d) == ((2, 1, 0, -6), 2)
    with pytest.raises(AttributeError):
        x.c = (0, 0, 0, 0)


# -- Fraction-list reference for the cyclotomic kernel ------------------------
#
# Elements of Q(zeta_p) as lists of p-1 Fractions on the power basis.  The
# inverse solves the multiplication matrix and the valuation reads v_p of its
# determinant (the norm; p is totally ramified), so neither shares a route
# with the kernel's norm-by-conjugates inverse or its pi-division loop.

def ref_add(a, b):
    return [x + y for x, y in zip(a, b)]


def ref_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def ref_mul(a, b):
    n = len(a)
    p = n + 1
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            e = (i + j) % p
            if e == p - 1:  # zeta^(p-1) = -(1 + ... + zeta^(p-2))
                out = [t - x * y for t in out]
            else:
                out[e] += x * y
    return out


def ref_unit(n, e):
    return [Fraction(int(i == e)) for i in range(n)]


def ref_mult_matrix(a):
    """Rows are the coefficients of a * zeta^j, j = 0..p-2 (its transpose is
    the matrix of multiplication by a)."""
    return [ref_mul(a, ref_unit(len(a), j)) for j in range(len(a))]


def ref_solve_det(rows, rhs):
    """(x, det) with x . rows = rhs, by Gauss-Jordan over Q; x is None for a
    singular system."""
    n = len(rows)
    m = [[rows[j][i] for j in range(n)] + [rhs[i]] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None, Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [inv * t for t in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                c = m[r][col]
                m[r] = [t - c * u for t, u in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)], det


def ref_inverse(a):
    x, _ = ref_solve_det(ref_mult_matrix(a), ref_unit(len(a), 0))
    return x


def ref_valuation(a):
    if not any(a):
        return math.inf
    p = len(a) + 1
    _, det = ref_solve_det(ref_mult_matrix(a), ref_unit(len(a), 0))
    return _vp(det.numerator, p) - _vp(det.denominator, p)


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ref_residue(a):
    """zeta -> 1 on O; None outside O."""
    p = len(a) + 1
    if ref_valuation(a) < 0:
        return None
    s = sum(a)
    return s.numerator * pow(s.denominator, -1, p) % p


def ref_canonical_mod(a, k):
    n = len(a)
    pi = ref_sub(ref_unit(n, 1), ref_unit(n, 0))
    pi_inv = ref_inverse(pi)
    r, out, pw = list(a), [Fraction(0)] * n, ref_unit(n, 0)
    for _ in range(k):
        d = ref_residue(r)
        out = ref_add(out, [d * t for t in pw])
        r = ref_mul(ref_sub(r, [Fraction(d)] + [Fraction(0)] * (n - 1)), pi_inv)
        pw = ref_mul(pw, pi)
    return out


PRIMES = (3, 5, 7, 11)
coeff = st.one_of(st.integers(-60, 60), small_fracs)


@st.composite
def cyc_lists(draw, p=None):
    p = p if p is not None else draw(st.sampled_from(PRIMES))
    zero = st.just(Fraction(0))
    cs = draw(st.lists(st.one_of(coeff, zero), min_size=p - 1, max_size=p - 1))
    return [Fraction(x) for x in cs]


@st.composite
def cyc_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return draw(cyc_lists(p)), draw(cyc_lists(p))


def ring_of(a):
    return RingSpec(CYCLOTOMIC, len(a) + 1)


@settings(max_examples=150, deadline=None)
@given(ab=cyc_pairs())
def test_kernel_ring_ops_match_reference(ab):
    a, b = ab
    p = len(a) + 1
    x, y = Cyc(p, a), Cyc(p, b)
    assert list((x + y).c) == ref_add(a, b)
    assert list((x - y).c) == ref_sub(a, b)
    assert list((x * y).c) == ref_mul(a, b)
    assert list((-x).c) == [-t for t in a]
    if any(b):
        assert list(y.inverse().c) == ref_inverse(b)
        assert list((x / y).c) == ref_mul(a, ref_inverse(b))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()


@settings(max_examples=150, deadline=None)
@given(ab=cyc_pairs())
def test_kernel_eq_hash_match_reference(ab):
    a, b = ab
    p = len(a) + 1
    x, y = Cyc(p, a), Cyc(p, b)
    assert (x == y) == (a == b)
    assert bool(x) == any(a)
    # halving often keeps the numerator vector and changes only d
    half = Cyc(p, [t / 2 for t in a])
    assert (x == half) == (not any(a))
    assert x == Cyc(p, list(a)) and hash(x) == hash(Cyc(p, list(a)))
    # the same value reached by arithmetic is the same key
    z = (x + y) - y
    assert z == x and hash(z) == hash(x) and z in {x}
    if not any(a[1:]):
        assert x == a[0] and hash(x) == hash(a[0]) and a[0] in {x}
    else:
        assert x != a[0]


@settings(max_examples=120, deadline=None)
@given(a=cyc_lists(), k=st.integers(0, 4))
def test_kernel_valuation_residue_match_reference(a, k):
    p = len(a) + 1
    ring = ring_of(a)
    # scale by pi^k so that positive valuations occur
    x, ref = Cyc(p, a), a
    pi = ref_sub(ref_unit(p - 1, 1), ref_unit(p - 1, 0))
    for _ in range(k):
        x, ref = x * ring.uniformizer, ref_mul(ref, pi)
    assert ring.valuation(x) == ref_valuation(ref)
    want = ref_residue(ref)
    if want is None:
        with pytest.raises(ScalarError):
            ring.residue(x)
    else:
        assert ring.residue(x) == want


@settings(max_examples=80, deadline=None)
@given(a=cyc_lists(), k=st.integers(0, 3))
def test_kernel_canonical_mod_matches_reference(a, k):
    p = len(a) + 1
    ring = ring_of(a)
    # clear every denominator so that x lies in O
    x = Cyc(p, a)
    x = x * x.d
    assert list(ring.canonical_mod(x, k).c) == ref_canonical_mod(list(x.c), k)


# -- Rat against Fraction ----------------------------------------------------

RAT_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


small_or_wide = st.one_of(st.just(Fraction(0)), small_fracs,
                         st.fractions(max_denominator=10 ** 12))


@st.composite
def rationals(draw):
    """An int, Fraction or Rat, zero and negative values included."""
    x = draw(small_or_wide)
    kind = draw(st.sampled_from((int, Fraction, Rat)))
    return kind(x.numerator) if kind is int else kind(x)


def is_lowest_rat(x):
    return (type(x) is Rat and x.denominator > 0
            and math.gcd(x.numerator, x.denominator) == 1)


@settings(max_examples=400, deadline=None)
@given(a=small_or_wide.map(Rat), b=rationals())
def test_rat_matches_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert -a == -fa and is_lowest_rat(-a)
    assert bool(a) == bool(fa)
    assert hash(a) == hash(fa) and str(a) == str(fa)
    assert (a == b) == (fa == fb) and (b == a) == (fa == fb)
    for op in RAT_OPS:
        # each operator and its reflected form: the Rat on either side
        for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
            if not fy and op is operator.truediv:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            got, want = op(x, y), op(fx, fy)
            assert got == want and hash(got) == hash(want)
            assert is_lowest_rat(got), (x, op, y, got)


@settings(max_examples=120, deadline=None)
@given(a=rationals(), c=st.lists(small_fracs, min_size=4, max_size=4))
def test_rat_leaves_cyc_arithmetic_unchanged(a, c):
    x = Cyc(5, c)
    r, f = Rat(a), Fraction(a)
    for op in RAT_OPS:
        for left, right, ref_left, ref_right in ((x, r, x, f), (r, x, f, x)):
            if op is operator.truediv and not right:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert type(got) is Cyc and got == op(ref_left, ref_right)
    assert r == Cyc.of(5, f) and Cyc.of(5, f) == r
    assert hash(Cyc.of(5, r)) == hash(r)


def test_rational_k_values_are_rat():
    field = R3.field_K
    for x in (field.zero, field.one, field.of(7), field.of(Fraction(2, 9)),
              R3.uniformizer, R3.pi_inv, R3.parse_scalar("-4/6"),
              R3.parse_scalar(5), R3.pi_power(-2), R3.pi_power(3)):
        assert is_lowest_rat(x) and isinstance(x, Fraction)
    assert R3.parse_scalar("-4/6") == Fraction(-2, 3)
    assert R3.format_scalar(Rat(-4, 6)) == "-2/3"
