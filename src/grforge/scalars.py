"""Exact scalar arithmetic for p-modular systems (K, O, k).

Two flavors are supported:

* ``rational_local``:   K = Q,       O = Z_(p),      k = F_p
* ``cyclotomic_local``: K = Q(zeta), O = Z_(p)[zeta], k = F_p

where zeta is a primitive p-th root of unity and the maximal ideal of O is
generated by the uniformizer pi (pi = p in the rational flavor, pi = zeta - 1
in the cyclotomic flavor).  All arithmetic is exact: rationals are stored as
reduced ``Fraction`` values, cyclotomic numbers as coefficient vectors of
length p-1 over Q reduced modulo the p-th cyclotomic polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf


class ScalarError(ValueError):
    pass


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyc:
    """Element of Q(zeta_p), stored on the power basis 1, zeta, ..., zeta^(p-2)."""

    __slots__ = ("p", "c")

    def __init__(self, p: int, coeffs):
        self.p = p
        c = list(coeffs)
        if len(c) != p - 1:
            raise ScalarError(f"need {p - 1} coefficients, got {len(c)}")
        self.c = tuple(x if isinstance(x, Fraction) else Fraction(x) for x in c)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def of(p: int, a) -> "Cyc":
        return Cyc(p, [a] + [0] * (p - 2))

    @staticmethod
    def zeta_pow(p: int, e: int) -> "Cyc":
        """zeta^e reduced to the power basis."""
        e %= p
        if e < p - 1:
            c = [0] * (p - 1)
            c[e] = 1
            return Cyc(p, c)
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        return Cyc(p, [-1] * (p - 1))

    # -- ring operations ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyc(self.p, [a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.p, [-a for a in self.c])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyc(self.p, [a - b for a, b in zip(self.c, other.c)])

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        n = p - 1
        a, b = self.c, other.c
        conv = [Fraction(0)] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        # fold exponents >= p-1: zeta^p = 1, zeta^(p-1) = -(1+...+zeta^(p-2))
        out = conv[:n]
        for e in range(n, 2 * n - 1):
            x = conv[e]
            if not x:
                continue
            r = e % p
            if r == n:
                for t in range(n):
                    out[t] -= x
            else:
                out[r] += x
        return Cyc(p, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self) -> "Cyc":
        """Inverse via extended Euclid on the power-basis polynomial and phi_p."""
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        p = self.p
        # phi_p(v) = v^(p-1) + ... + 1
        phi = [Fraction(1)] * p
        a = list(self.c)
        # extended gcd of a and phi in Q[v]
        r0, r1 = phi, a
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(f):
            for i in range(len(f) - 1, -1, -1):
                if f[i]:
                    return i
            return -1

        def sub_scaled(f, g, coef, shift):
            out = list(f)
            while len(out) < len(g) + shift:
                out.append(Fraction(0))
            for i, gi in enumerate(g):
                if gi:
                    out[i + shift] -= coef * gi
            return out

        while deg(r1) > 0:
            while deg(r0) >= deg(r1):
                d0, d1 = deg(r0), deg(r1)
                coef = r0[d0] / r1[d1]
                r0 = sub_scaled(r0, r1, coef, d0 - d1)
                s0 = sub_scaled(s0, s1, coef, d0 - d1)
                if deg(r0) < 0:
                    break
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        if deg(r1) != 0:
            raise ScalarError("element not invertible mod phi_p")
        lead = r1[0]
        inv = [x / lead for x in s1]
        inv += [Fraction(0)] * (p - 1 - len(inv))
        # reduce degree < p-1 is automatic (gcd cofactor has degree < deg phi - 1)
        return Cyc(p, inv[: p - 1])

    # -- misc -----------------------------------------------------------------
    def _coerce(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            if other.p != self.p:
                raise ScalarError("mixed cyclotomic moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.of(self.p, other)
        return NotImplemented

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.of(self.p, other)
        return isinstance(other, Cyc) and self.p == other.p and self.c == other.c

    def __hash__(self):
        return hash((self.p, self.c))

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.c):
            if a:
                terms.append(f"{a}" if i == 0 else f"{a}*z^{i}")
        return "Cyc(" + (" + ".join(terms) if terms else "0") + ")"


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

class Fp:
    """Element of F_p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return Fp(self.p, -self.v)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v - other.v)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Fp(self.p, self.v * other.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return Fp(self.p, pow(self.v, -1, self.p))

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ScalarError("mixed characteristics")
            return other
        if isinstance(other, int):
            return Fp(self.p, other)
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, Fp) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"Fp({self.v} mod {self.p})"


# ---------------------------------------------------------------------------
# field handles (used by generic linear algebra)
# ---------------------------------------------------------------------------

class RatField:
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, a):
        return Fraction(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RatField)

    def __hash__(self):
        return hash("Q")


class CycField:
    char = 0

    def __init__(self, p: int):
        self.p = p
        self.zero = Cyc.of(p, 0)
        self.one = Cyc.of(p, 1)
        self.zeta = Cyc.zeta_pow(p, 1)

    def of(self, a):
        return Cyc.of(self.p, a)

    def zeta_pow(self, e: int):
        return Cyc.zeta_pow(self.p, e)

    def __repr__(self):
        return f"Q(zeta_{self.p})"

    def __eq__(self, other):
        return isinstance(other, CycField) and other.p == self.p

    def __hash__(self):
        return hash(("Qz", self.p))


class PrimeField:
    def __init__(self, p: int):
        self.p = p
        self.char = p
        self.zero = Fp(p, 0)
        self.one = Fp(p, 1)

    def of(self, a):
        return Fp(self.p, a)

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


# ---------------------------------------------------------------------------
# the p-modular system
# ---------------------------------------------------------------------------

RATIONAL = "rational_local"
CYCLOTOMIC = "cyclotomic_local"


@dataclass(frozen=True)
class RingSpec:
    """A p-modular system (K, O, k), fixed by flavor and an odd prime p."""

    flavor: str
    p: int

    def __post_init__(self):
        if self.flavor not in (RATIONAL, CYCLOTOMIC):
            raise ScalarError(f"unknown flavor {self.flavor!r}")
        if not is_odd_prime(self.p):
            raise ScalarError(f"p must be an odd prime, got {self.p}")

    # -- fields ---------------------------------------------------------------
    @property
    def field_K(self):
        return RatField() if self.flavor == RATIONAL else CycField(self.p)

    @property
    def field_k(self):
        return PrimeField(self.p)

    @property
    def uniformizer(self):
        if self.flavor == RATIONAL:
            return Fraction(self.p)
        return Cyc.zeta_pow(self.p, 1) - 1

    def zero(self):
        return self.field_K.zero

    def one(self):
        return self.field_K.one

    def of(self, a):
        return self.field_K.of(a)

    # -- valuation / residue ----------------------------------------------------
    def valuation(self, x):
        """Discrete valuation on K, normalized so v(pi) = 1; v(0) = +inf."""
        if self.flavor == RATIONAL:
            x = Fraction(x)
            if x == 0:
                return INF
            return _int_val(x.numerator, self.p) - _int_val(x.denominator, self.p)
        if isinstance(x, (int, Fraction)):
            x = Cyc.of(self.p, x)
        if not x:
            return INF
        # split off the rational denominator: x = y / den with y in Z[zeta]
        den = 1
        for a in x.c:
            den = den * a.denominator // math.gcd(den, a.denominator)
        y = Cyc(self.p, [int(a * den) for a in x.c])
        v = -(self.p - 1) * _int_val(den, self.p)
        # y is divisible by (zeta - 1) in Z[zeta] iff y(1) = 0 in F_p;
        # repeated exact division computes the valuation
        pi_inv = (Cyc.zeta_pow(self.p, 1) - 1).inverse()
        while sum(int(a) for a in y.c) % self.p == 0:
            y = y * pi_inv
            assert all(a.denominator == 1 for a in y.c), "inexact pi-division"
            v += 1
        return v

    def is_unit(self, x) -> bool:
        """Unit of O: valuation zero (element must lie in O)."""
        v = self.valuation(x)
        if v < 0:
            raise ScalarError("element is not in O")
        return v == 0

    def residue(self, x) -> Fp:
        """Residue map O -> k = F_p.  Cyclotomic flavor sends zeta to 1."""
        if self.valuation(x) < 0:
            raise ScalarError("residue undefined: element not in O")
        p = self.p
        if self.flavor == RATIONAL:
            x = Fraction(x)
            return Fp(p, x.numerator * pow(x.denominator, -1, p))
        if isinstance(x, (int, Fraction)):
            x = Cyc.of(p, x)
        den = 1
        for a in x.c:
            den = den * a.denominator // math.gcd(den, a.denominator)
        ints = [int(a * den) for a in x.c]
        while den % p == 0:
            # v(x) >= 0 forces v(y) >= p-1, and (zeta-1)^(p-1) Z[zeta] = p Z[zeta],
            # so the integral part is exactly divisible by p
            assert all(c % p == 0 for c in ints), "valuation bookkeeping broken"
            ints = [c // p for c in ints]
            den //= p
        s = sum(ints) % p
        return Fp(p, s * pow(den % p, -1, p))

    # -- canonical residues mod pi^a (used for Hermite normal forms) -----------
    def canonical_mod(self, x, a: int):
        """Canonical representative of x modulo pi^a, for x in O.

        Digits are the integer lifts 0..p-1 along the pi-adic expansion, so the
        result is unique; subtracting it from x leaves an element of pi^a O.
        """
        if a <= 0:
            return self.zero()
        pi = self.uniformizer
        r = x
        out = self.zero()
        pw = self.one()
        for _ in range(a):
            d = self.residue(r).v
            out = out + pw * d
            r = (r - d) / pi
            pw = pw * pi
        return out

    # -- serialization ----------------------------------------------------------
    def format_scalar(self, x) -> object:
        if self.flavor == RATIONAL:
            return _fmt_frac(Fraction(x))
        if isinstance(x, (int, Fraction)):
            x = Cyc.of(self.p, x)
        return [_fmt_frac(c) for c in x.c]

    def parse_scalar(self, s):
        if self.flavor == RATIONAL:
            if not isinstance(s, (str, int)):
                raise ScalarError(f"bad rational scalar {s!r}")
            return Fraction(s)
        if isinstance(s, (str, int)):
            return Cyc.of(self.p, Fraction(s))
        if not isinstance(s, list) or len(s) != self.p - 1:
            raise ScalarError(f"bad cyclotomic scalar {s!r}")
        return Cyc(self.p, [Fraction(t) for t in s])


def _fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _int_val(n: int, p: int) -> int:
    if n == 0:
        return INF
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


# ---------------------------------------------------------------------------
# level-tagged scalars (serialization surface)
# ---------------------------------------------------------------------------

LEVELS = ("K", "O", "k")


@dataclass(frozen=True)
class PModularScalar:
    """One element of K, O, or k for a fixed RingSpec."""

    ring: RingSpec
    level: str
    value: object

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ScalarError(f"bad level {self.level!r}")
        if self.level == "O" and self.ring.valuation(self.value) < 0:
            raise ScalarError("level-O value has negative valuation")
        if self.level == "k" and not isinstance(self.value, Fp):
            raise ScalarError("level-k value must be a prime-field element")


def valuation(x: PModularScalar):
    """v(x) with v(pi) = 1 and v(0) = +inf; rejects level-k input."""
    if x.level == "k":
        raise ScalarError("valuation undefined on the residue field")
    return x.ring.valuation(x.value)


def residue(x: PModularScalar) -> PModularScalar:
    if x.level != "O":
        raise ScalarError("residue requires a level-O scalar")
    return PModularScalar(x.ring, "k", x.ring.residue(x.value))


def is_unit(x: PModularScalar) -> bool:
    if x.level != "O":
        raise ScalarError("is_unit requires a level-O scalar")
    return x.ring.is_unit(x.value)
