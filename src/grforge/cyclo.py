"""Root-datum scalars and the truncated quantum-deformation identities.

The ring S' is a polynomial ring over O = Z_(p)[zeta] in the variables
H_alpha = (K_alpha - 1)/(zeta^(d_alpha) - 1), one per simple root; its
completion at the augmentation ideal is modeled by truncation at a fixed
total order N.  Membership claims "in S-hat" become "all coefficients of all
orders < N lie in O"; the two bracket factorization identities are also
verified exactly after clearing denominators, independently of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import (CYCLOTOMIC, Cyc, InternalCheckError, RingSpec,
                      _fold_phi, _reduced)


class CycloError(ValueError):
    pass


# ---------------------------------------------------------------------------
# root data
# ---------------------------------------------------------------------------

_CARTAN = {
    "A1": ([[2]], (1,)),
    "A2": ([[2, -1], [-1, 2]], (1, 1)),
    "B2": ([[2, -1], [-2, 2]], (2, 1)),
    "G2": ([[2, -3], [-1, 2]], (1, 3)),
}


@dataclass(frozen=True)
class RootDatum:
    """Cartan matrix, simple-root symmetrizer, and the positive roots."""

    type_label: str
    cartan: tuple
    d_simple: tuple
    positive: tuple  # tuples of simple-root coefficients

    @staticmethod
    def of_type(label: str) -> "RootDatum":
        if label not in _CARTAN:
            raise CycloError(f"unsupported root system {label!r} "
                             f"(supported: {sorted(_CARTAN)})")
        cartan, d = _CARTAN[label]
        pos = _positive_roots(cartan)
        return RootDatum(label, tuple(tuple(r) for r in cartan), tuple(d),
                         tuple(pos))

    @property
    def rank(self):
        return len(self.cartan)

    def pairing(self, beta, gamma):
        """(beta, gamma) under the symmetrized form, short roots of length 2."""
        s = 0
        for i in range(self.rank):
            for j in range(self.rank):
                s += beta[i] * gamma[j] * self.d_simple[i] * self.cartan[i][j]
        return s

    def d_alpha(self, beta) -> int:
        """(beta, beta) / (alpha_0, alpha_0) where alpha_0 is a short root."""
        val = self.pairing(beta, beta)
        if val % 2:
            raise InternalCheckError(f"root {beta} has odd squared length {val}")
        d = val // 2
        if d not in (1, 2, 3):
            raise CycloError(f"root {beta} has invalid length ratio {d}")
        return d


def _positive_roots(cartan):
    """Positive roots by height, via the root-string criterion."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    known = set(simple)
    by_height = {1: list(simple)}
    height = 1
    while by_height.get(height):
        nxt = []
        for beta in by_height[height]:
            for i in range(rank):
                # <beta, alpha_i^vee> = sum_j beta_j c_ij
                pair = sum(beta[j] * cartan[i][j] for j in range(rank))
                down = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if min(cur) < 0 or tuple(cur) not in known:
                        break
                    down += 1
                if down - pair > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        nxt.append(t)
        height += 1
        if nxt:
            by_height[height] = nxt
    return sorted(known, key=lambda r: (sum(r), r))


# ---------------------------------------------------------------------------
# truncated multivariate series over O
# ---------------------------------------------------------------------------

class Series:
    """Truncated power series in the variables H_alpha over Q(zeta).

    Exact below total degree N; products of degree >= N are discarded.
    """

    __slots__ = ("ring", "nvars", "order", "c")

    def __init__(self, ring: RingSpec, nvars: int, order: int, coeffs=None):
        self.ring = ring
        self.nvars = nvars
        self.order = order
        self.c = dict(coeffs or {})

    @staticmethod
    def const(ring, nvars, order, value) -> "Series":
        s = Series(ring, nvars, order)
        v = value if isinstance(value, Cyc) else ring.of(value)
        if v:
            s.c[(0,) * nvars] = v
        return s

    @staticmethod
    def gen(ring, nvars, order, i) -> "Series":
        s = Series(ring, nvars, order)
        e = [0] * nvars
        e[i] = 1
        s.c[tuple(e)] = ring.one()
        return s

    def _like(self, coeffs):
        out = Series(self.ring, self.nvars, self.order)
        out.c = {e: v for e, v in coeffs.items() if v}
        return out

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, self.ring.zero()) + v
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, Series):
            return self._like(_packed_product(self, other))
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the numerators and the denominator
            if not other:
                return self._like({})
            p, num, den = self.ring.p, other.numerator, other.denominator
            return self._like({e: _reduced(p, [a * num for a in v.n], v.d * den)
                               for e, v in self.c.items()})
        v = other if isinstance(other, Cyc) else self.ring.of(other)
        return self._like({e: c * v for e, c in self.c.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        return self.c == other.c

    def _coerce(self, other):
        if isinstance(other, Series):
            return other
        return Series.const(self.ring, self.nvars, self.order, other)

    def constant_term(self):
        return self.c.get((0,) * self.nvars, self.ring.zero())

    def _truncated(self, order) -> "Series":
        """The terms of total degree < order, as a series of that order."""
        return Series(self.ring, self.nvars, order,
                      {e: v for e, v in self.c.items() if sum(e) < order})

    def inverse(self) -> "Series":
        """1/self truncated at order N, by Newton's iteration x <- x + x (1 -
        a x) on a = self / c0: a step from an x exact below order n is exact
        below 2n, so the steps run at orders 2, 4, ... up to N."""
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("series has no constant term")
        inv0 = self.ring.one() / c0
        a = self * inv0
        x, n = Series.const(self.ring, self.nvars, 1, 1), 1
        while n < self.order:
            n = min(2 * n, self.order)
            x = x._truncated(n)
            x = x + x * (1 - a._truncated(n) * x)
        return x * inv0

    def coeffs_in_O(self) -> bool:
        return all(map(self.ring.in_O, self.c.values()))

    def __repr__(self):
        return f"Series({len(self.c)} terms, order {self.order})"


def _packed_product(a: Series, b: Series) -> dict:
    """The coefficients of a * b truncated at a's order, by Kronecker
    substitution: one big-int multiply per term pair.

    Each operand is brought over one common denominator and each numerator
    vector n is packed into the int sum n_i 2^(w i).  A product of two packed
    ints is the packed convolution of the vectors, and the packed sum over
    the term pairs of one output monomial holds that monomial's convolution,
    unpacked, folded mod phi_p and normalized once.  Its 2p-3 entries are
    each a sum of at most m = p-1 products per pair, over at most
    min(#terms a, #terms b) pairs, so |entry| <= m max|a| max|b| min(...),
    which balanced slots of width w = bound.bit_length() + 1 hold exactly.
    """
    order, p = a.order, a.ring.p
    m = p - 1
    ta, den_a = _common_terms(a.c, order)
    tb, den_b = _common_terms(b.c, order)
    if not ta or not tb:
        return {}
    amax = max(max(map(abs, n)) for _, _, n in ta)
    bmax = max(max(map(abs, n)) for _, _, n in tb)
    w = _slot_width(m, amax, bmax, min(len(ta), len(tb)))
    # by degree, so each row of the loop stops at the first b term too high
    packed_b = sorted((deg, key, _pack(n, w)) for deg, key, n in tb)
    acc = {}
    for deg, ka, n in ta:
        va = _pack(n, w)
        room = order - deg
        for deg_b, kb, vb in packed_b:
            if deg_b >= room:
                break
            k = ka + kb
            acc[k] = acc.get(k, 0) + va * vb
    unpack = _unpacker(w, 2 * m - 1)
    den = den_a * den_b
    out = {}
    for k, v in acc.items():
        if v:
            n = _fold_phi(unpack(v), p)
            if any(n):
                out[_exponents(k, order, a.nvars)] = _reduced(p, n, den)
    return out


def _common_terms(coeffs: dict, order: int):
    """The terms of degree < order as (degree, key, numerators) over their
    common denominator, and that denominator.

    The key of an exponent vector is its value in radix ``order``: the
    exponents of a kept pair sum to less than the order, so their keys add
    without carries.
    """
    kept = [(sum(e), e, v) for e, v in coeffs.items() if sum(e) < order]
    # a list, not a generator: spread into the call, a generator made the
    # peak RSS grow with every pass of the appendix jobs on CPython 3.11
    den = math.lcm(*[v.d for _, _, v in kept])
    terms = []
    for deg, e, v in kept:
        key = 0
        for x in reversed(e):
            key = key * order + x
        s = den // v.d
        terms.append((deg, key, v.n if s == 1 else [x * s for x in v.n]))
    return terms, den


def _exponents(key: int, order: int, nvars: int) -> tuple:
    """The exponent vector of a radix-``order`` key."""
    e = []
    for _ in range(nvars):
        key, x = divmod(key, order)
        e.append(x)
    return tuple(e)


def _slot_width(m: int, amax: int, bmax: int, pairs: int) -> int:
    """Bits per slot that hold every convolution entry of a packed product:
    a sum over ``pairs`` term pairs of at most m products, balanced."""
    return (m * amax * bmax * pairs).bit_length() + 1


def _pack(n, w: int) -> int:
    """sum n_i 2^(w i), in Horner form so negative n_i need no special case."""
    v = 0
    for x in reversed(n):
        v = (v << w) + x
    return v


def _unpacker(w: int, count: int):
    """Unpacks ``count`` balanced slots of width w, in [-2^(w-1), 2^(w-1)).

    Adding 2^(w-1) to every slot makes the slots the plain bit fields of a
    nonnegative int below 2^(w count).  Outside that range a carry is left
    over: a slot overflowed, so the width bound did not hold.  An overflow
    whose carry lands in a lower slot leaves none; the bound rules it out.
    """
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    offset = _pack([half] * count, w)
    top = w * count
    shifts = range(0, top, w)

    def unpack(v: int) -> list:
        u = v + offset
        if u < 0 or u >> top:
            raise InternalCheckError(
                f"packed product overflows {count} slots of {w} bits")
        return [((u >> s) & mask) - half for s in shifts]

    return unpack


# ---------------------------------------------------------------------------
# K_beta integrality
# ---------------------------------------------------------------------------

def _zeta_pow_scalar(ring, e):
    return Cyc.zeta_pow(ring.p, e % ring.p)


def k_simple(ring, datum: RootDatum, i, order) -> Series:
    """K of the i-th simple root: 1 + (zeta^(d_i) - 1) H_i."""
    z_d = _zeta_pow_scalar(ring, datum.d_simple[i])
    h = Series.gen(ring, datum.rank, order, i)
    return Series.const(ring, datum.rank, order, 1) + h * (z_d - 1)


def k_beta(ring, datum: RootDatum, beta, order) -> Series:
    """K_beta as a polynomial in the simple H variables (beta positive)."""
    if any(n < 0 for n in beta):
        raise CycloError("beta is not a positive root expansion")
    out = Series.const(ring, datum.rank, order, 1)
    for i, n in enumerate(beta):
        for _ in range(n):
            out = out * k_simple(ring, datum, i, order)
    return out


def h_prime(ring, datum: RootDatum, beta, order, k=None):
    """H_beta = (K_beta - 1)/(zeta^(d_beta) - 1); all coefficients must be
    in O (the recursive xy - 1 = (x-1)y + (y-1) argument).  K_beta is built
    unless `k` gives it."""
    d_b = datum.d_alpha(beta)
    if k is None:
        k = k_beta(ring, datum, beta, order)
    z_d = _zeta_pow_scalar(ring, d_b)
    hb = (k - 1) * (ring.one() / (z_d - 1))
    return hb, hb.coeffs_in_O()


# ---------------------------------------------------------------------------
# the bracket elements and the item suite
# ---------------------------------------------------------------------------

def _bracket(ring, d, j, k, k_inv):
    """[K_beta; j] = (K zeta^(dj) - zeta^(-dj) K^(-1)) / (zeta^d - zeta^-d)
    for K = K_beta, d = d_beta."""
    zd = _zeta_pow_scalar(ring, d)
    zdm = _zeta_pow_scalar(ring, -d)
    zj = _zeta_pow_scalar(ring, d * j)
    zjm = _zeta_pow_scalar(ring, -d * j)
    denom_inv = ring.one() / (zd - zdm)
    return (k * zj - k_inv * zjm) * denom_inv


def appendix_identity_suite(datum: RootDatum, p: int, order: int = 8):
    """Items (1)-(6) per positive root, in the order-N truncated model.

    (1) exactly; (2), (5), (6) coefficientwise in O at all orders < N;
    (3), (4) as truncated identities plus exact denominator-cleared
    polynomial identities independent of N.
    """
    if order < 2:
        raise CycloError("order must be at least 2")
    if datum.type_label == "G2" and p == 3:
        raise CycloError("G2 requires p > 3")
    ring = RingSpec(CYCLOTOMIC, p)
    verdicts = {}
    by_length = {}
    for beta in datum.positive:
        d = datum.d_alpha(beta)
        if d not in by_length:
            by_length[d] = _length_checks(ring, d, order)
        cleared, scalar_ok = by_length[d]
        k = k_beta(ring, datum, beta, order)
        k_inv = k.inverse()
        tag = "+".join(f"{n}a{i+1}" for i, n in enumerate(beta) if n)
        # (1) K in S'
        verdicts[(tag, 1)] = k.coeffs_in_O()
        # H_beta integrality (the recursive xy-1 argument)
        hb, h_ok = h_prime(ring, datum, beta, order, k)
        verdicts[(tag, "H")] = h_ok
        # (2) K^{-1} in S-hat
        one = Series.const(ring, datum.rank, order, 1)
        verdicts[(tag, 2)] = k_inv.coeffs_in_O() and (k * k_inv == one)
        zd = _zeta_pow_scalar(ring, d)
        zdm = _zeta_pow_scalar(ring, -d)
        # (3) [K;0] in K^{-1} S': displayed factorization and membership
        br0 = _bracket(ring, d, 0, k, k_inv)
        rhs = (k_inv * (ring.one() / zdm)) \
            * ((k + 1) * (ring.one() / (zd + 1))) * hb
        verdicts[(tag, 3)] = (br0 == rhs) and (k * br0).coeffs_in_O()
        verdicts[(tag, "3x")] = cleared[0]
        # (4) [K;j] in K^{-1} S' for 1 <= j < p; term1's factor
        # (K - 1)/((zeta^d - 1)(zeta^d + 1) zeta^-d) does not depend on j
        hb_over = hb * (ring.one() / ((zd + 1) * zdm))
        ok4 = True
        ok5 = True
        for j in range(1, p):
            brj = _bracket(ring, d, j, k, k_inv)
            zj = _zeta_pow_scalar(ring, d * j)
            zjm = _zeta_pow_scalar(ring, -d * j)
            term1 = hb_over * (zj + k_inv * zjm)
            term2 = Series.const(ring, datum.rank, order,
                                 (zj - zjm) / (zd - zdm))
            ok4 = ok4 and (brj == term1 + term2) \
                and (k * brj).coeffs_in_O()
            # (5) [K;j]^{-1} in S-hat
            brj_inv = brj.inverse()
            ok5 = ok5 and brj_inv.coeffs_in_O() and (brj * brj_inv == one)
        verdicts[(tag, 4)] = ok4
        verdicts[(tag, "4x")] = all(cleared[1:])
        verdicts[(tag, 5)] = ok5
        # (6) log K in S-hat, with the (zeta^d - 1)^r / r in O scalar checks
        logk = Series(ring, datum.rank, order)
        term = Series.const(ring, datum.rank, order, 1)
        km1 = k - 1
        for r in range(1, order + 1):
            term = term * km1
            if not term.c:
                break
            logk = logk + (-1) ** (r + 1) * term * Fraction(1, r)
        verdicts[(tag, 6)] = scalar_ok and logk.coeffs_in_O()
    return verdicts


def _length_checks(ring, d, order):
    """What the suite checks of a root through its length d alone: the
    cleared bracket identities for j = 0..p-1, and whether (zeta^d - 1)^r / r
    lies in O for r = 1..N."""
    cleared = [_bracket_cleared_identity(ring, d, j) for j in range(ring.p)]
    c = ring.one()
    pi_d = _zeta_pow_scalar(ring, d) - 1
    scalar_ok = True
    for r in range(1, order + 1):
        c = c * pi_d
        scalar_ok = scalar_ok and ring.in_O(c * Fraction(1, r))
    return cleared, scalar_ok


def _bracket_cleared_identity(ring, d, j):
    """Exact polynomial check of the bracket factorizations.

    With x a formal variable for K, multiplying the item-(3)/(4) displays by
    x (zeta^d - zeta^-d) clears their denominators and gives identities
    between polynomials of degree 2 in x, independent of the truncation.  A
    series in one variable of order 3 holds them exactly.
    """
    zd = _zeta_pow_scalar(ring, d)
    zdm = _zeta_pow_scalar(ring, -d)
    zj = _zeta_pow_scalar(ring, d * j)
    zjm = _zeta_pow_scalar(ring, -d * j)
    x = Series.gen(ring, 1, 3, 0)
    factor = (zd - zdm) / ((zd - 1) * (zd + 1) * zdm)
    # x^2 zj - zjm = (x - 1)(x zj + zjm) (zd - zdm) / ((zd - 1)(zd + 1) zdm)
    #                + x (zj - zjm); at j = 0 (zj = zjm = 1) this is item (3)
    return x * x * zj - zjm == (x - 1) * (x * zj + zjm) * factor + x * (zj - zjm)


# ---------------------------------------------------------------------------
# comultiplication
# ---------------------------------------------------------------------------

def comult_check(datum: RootDatum, alpha_index: int, p: int,
                 order: int = 8) -> bool:
    """Delta(H) = H (x) K + 1 (x) H for a simple root, K grouplike.

    Verified in the two-sided truncated ring with variables x = H (x) 1 and
    y = 1 (x) H.
    """
    ring = RingSpec(CYCLOTOMIC, p)
    d = datum.d_simple[alpha_index]
    zd = _zeta_pow_scalar(ring, d)
    x = Series.gen(ring, 2, order, 0)
    y = Series.gen(ring, 2, order, 1)
    one = Series.const(ring, 2, order, 1)
    kx = one + x * (zd - 1)
    ky = one + y * (zd - 1)
    # Delta(K) = K (x) K; Delta(H) = (K(x)K - 1)/(zeta^d - 1)
    lhs = (kx * ky - one) * (ring.one() / (zd - 1))
    rhs = x * ky + y
    return lhs == rhs
