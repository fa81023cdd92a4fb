"""Exact scalar arithmetic for p-modular systems (K, O, k).

Two flavors are supported:

* ``rational_local``:   K = Q,       O = Z_(p),      k = F_p
* ``cyclotomic_local``: K = Q(zeta), O = Z_(p)[zeta], k = F_p

where zeta is a primitive p-th root of unity and the maximal ideal of O is
generated by the uniformizer pi (pi = p in the rational flavor, pi = zeta - 1
in the cyclotomic flavor).  All arithmetic is exact: rationals are stored as
reduced ``Fraction`` values, cyclotomic numbers (``Cyc``) as an integer
coefficient tuple ``n`` of length p-1 reduced modulo the p-th cyclotomic
polynomial, over one positive common denominator ``d`` with gcd(n, d) = 1.
Ring operations run on Python ints; the inverse goes through the norm.

A ``RingSpec`` builds its field handles, the uniformizer and its inverse once
and keeps them, so hot loops that ask for ``ring.field_K`` or divide by pi do
not rebuild them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

INF = math.inf


class ScalarError(ValueError):
    pass


class InternalCheckError(Exception):
    """An internal consistency check failed: a bug, never a verdict.

    It is not an AlgebraError, so no handler that turns algebra errors into
    verdicts or notes can catch it; the command line exits 2.
    """


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
    """Element of Q(zeta_p) on the power basis 1, zeta, ..., zeta^(p-2).

    Stored as ``n / d``: ``n`` is a tuple of p-1 Python ints and ``d`` a
    positive int with gcd(n_0, ..., n_(p-2), d) = 1, so every element has
    exactly one representation and ``==``/``hash`` compare ``(p, n, d)``.
    A rational element hashes like its ``Fraction`` value.  ``c`` gives the
    coefficients as ``Fraction`` values.
    """

    __slots__ = ("p", "n", "d")

    def __init__(self, p: int, coeffs):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        if len(c) != p - 1:
            raise ScalarError(f"need {p - 1} coefficients, got {len(c)}")
        # reduced fractions over their lcm denominator share no common factor
        d = math.lcm(*(x.denominator for x in c))
        self.p = p
        self.n = tuple(x.numerator * (d // x.denominator) for x in c)
        self.d = d

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def of(p: int, a) -> "Cyc":
        a = a if isinstance(a, (int, Fraction)) else Fraction(a)
        return _cyc(p, (a.numerator,) + (0,) * (p - 2), a.denominator)

    @staticmethod
    def zeta_pow(p: int, e: int) -> "Cyc":
        """zeta^e reduced to the power basis."""
        e %= p
        if e < p - 1:
            n = [0] * (p - 1)
            n[e] = 1
            return _cyc(p, tuple(n), 1)
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        return _cyc(p, (-1,) * (p - 1), 1)

    @property
    def c(self):
        """The power-basis coefficients as a tuple of ``Fraction`` values."""
        d = self.d
        return tuple(Fraction(a, d) for a in self.n)

    # -- ring operations ------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.d, other.d
        if da == db:
            return _reduced(self.p, [a + b for a, b in zip(self.n, other.n)], da)
        return _reduced(self.p, [a * db + b * da for a, b in zip(self.n, other.n)],
                        da * db)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.p, tuple(-a for a in self.n), self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.d, other.d
        if da == db:
            return _reduced(self.p, [a - b for a, b in zip(self.n, other.n)], da)
        return _reduced(self.p, [a * db - b * da for a, b in zip(self.n, other.n)],
                        da * db)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _reduced(self.p, _mul_int(self.n, other.n, self.p),
                        self.d * other.d)

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
        """Inverse through the norm: for y = d x in Z[zeta], the product P of
        the conjugates sigma_k(y), k = 2..p-1, has y P = N(y) rational, so
        1/x = d P / N(y).  Each sigma_k: zeta -> zeta^k permutes coefficients.
        """
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        p, y = self.p, self.n
        prod = _conjugate(y, 2, p)
        for k in range(3, p):
            prod = _mul_int(prod, _conjugate(y, k, p), p)
        norm = _mul_int(y, prod, p)
        # Q(zeta) is totally imaginary, so N(y) is a positive rational
        if any(norm[1:]) or norm[0] <= 0:
            raise ScalarError("norm is not a positive rational")
        return _reduced(p, [self.d * a for a in prod], norm[0])

    # -- misc -----------------------------------------------------------------
    def _coerce(self, other) -> "Cyc":
        if type(other) is Cyc:
            if other.p != self.p:
                raise ScalarError("mixed cyclotomic moduli")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.of(self.p, other)
        return NotImplemented

    def __bool__(self):
        return any(self.n)

    def __eq__(self, other):
        if type(other) is Cyc:
            return self.p == other.p and self.d == other.d and self.n == other.n
        if isinstance(other, (int, Fraction)):
            n = self.n
            return (n[0] == other.numerator and self.d == other.denominator
                    and not any(n[1:]))
        return False

    def __hash__(self):
        n = self.n
        if any(n[1:]):
            return hash((self.p, n, self.d))
        # rational: agree with int and Fraction, which compare equal
        return hash(n[0]) if self.d == 1 else hash(Fraction(n[0], self.d))

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.c):
            if a:
                terms.append(f"{a}" if i == 0 else f"{a}*z^{i}")
        return "Cyc(" + (" + ".join(terms) if terms else "0") + ")"


def _cyc(p: int, n: tuple, d: int) -> Cyc:
    """A Cyc from an already normalized (n, d)."""
    x = object.__new__(Cyc)
    x.p = p
    x.n = n
    x.d = d
    return x


def _reduced(p: int, n: list, d: int) -> Cyc:
    """The Cyc n / d for an int list n and a positive int d."""
    if d != 1:
        g = math.gcd(d, *n)
        if g != 1:
            n = [a // g for a in n]
            d //= g
    return _cyc(p, tuple(n), d)


def _mul_int(a, b, p: int) -> list:
    """Product of two integer power-basis vectors, reduced mod phi_p."""
    m = p - 1
    conv = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                conv[j] += ai * bj
    return _fold_phi(conv, p)


def _fold_phi(conv, p: int) -> list:
    """A length-(2p-3) coefficient list of powers of zeta, reduced mod phi_p
    to the power basis: zeta^p = 1, zeta^(p-1) = -(1+...+zeta^(p-2))."""
    m = p - 1
    out = conv[:m]
    top = conv[m]
    if top:
        out = [x - top for x in out]
    for e in range(p, 2 * m - 1):
        out[e - p] += conv[e]
    return out


def _conjugate(y, k: int, p: int) -> list:
    """sigma_k(y) for zeta -> zeta^k, on integer power-basis coefficients."""
    full = [0] * p
    for i, a in enumerate(y):
        full[i * k % p] += a
    top = full[p - 1]
    return [x - top for x in full[:p - 1]]


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

    # -- fields (built once per RingSpec) -------------------------------------
    @cached_property
    def field_K(self):
        return RatField() if self.flavor == RATIONAL else CycField(self.p)

    @cached_property
    def field_k(self):
        return PrimeField(self.p)

    @cached_property
    def uniformizer(self):
        if self.flavor == RATIONAL:
            return Fraction(self.p)
        return Cyc.zeta_pow(self.p, 1) - 1

    @cached_property
    def pi_inv(self):
        """1 / uniformizer, in K."""
        if self.flavor == RATIONAL:
            return Fraction(1, self.p)
        return self.uniformizer.inverse()

    def zero(self):
        return self.field_K.zero

    def one(self):
        return self.field_K.one

    def of(self, a):
        return self.field_K.of(a)

    # -- valuation / residue ----------------------------------------------------
    def valuation(self, x):
        """Discrete valuation on K, normalized so v(pi) = 1; v(0) = +inf."""
        p = self.p
        if self.flavor == RATIONAL:
            x = Fraction(x)
            if x == 0:
                return INF
            return _int_val(x.numerator, p) - _int_val(x.denominator, p)
        if isinstance(x, (int, Fraction)):
            x = Cyc.of(p, x)
        if not x:
            return INF
        # x = y / d with y in Z[zeta]; v(d) = (p-1) v_p(d)
        v = -(p - 1) * _int_val(x.d, p)
        y = _cyc(p, x.n, 1)
        # y is divisible by (zeta - 1) in Z[zeta] iff y(1) = 0 in F_p;
        # repeated exact division computes the valuation
        pi_inv = self.pi_inv
        while sum(y.n) % p == 0:
            y = y * pi_inv
            if y.d != 1:
                raise ScalarError(f"inexact pi-division of {x!r}")
            v += 1
        return v

    def is_unit(self, x) -> bool:
        """Unit of O: valuation zero (element must lie in O)."""
        v = self.valuation(x)
        if v < 0:
            raise ScalarError("element is not in O")
        return v == 0

    def residue(self, x) -> Fp:
        """Residue map O -> k = F_p.  Cyclotomic flavor sends zeta to 1.

        For x = n / d in lowest terms, x lies in O iff p does not divide d:
        if p | d, then p does not divide every n_i, so v(n) < p - 1 = v(p)
        and v(x) < 0.  Then zeta -> 1 sends x to sum(n) / d.
        """
        p = self.p
        if isinstance(x, Cyc):
            num, den = sum(x.n), x.d
        else:
            x = Fraction(x)
            num, den = x.numerator, x.denominator
        if den % p == 0:
            raise ScalarError("residue undefined: element not in O")
        return Fp(p, num * pow(den, -1, p))

    # -- canonical residues mod pi^a (used for Hermite normal forms) -----------
    def canonical_mod(self, x, a: int):
        """Canonical representative of x modulo pi^a, for x in O.

        Digits are the integer lifts 0..p-1 along the pi-adic expansion, so the
        result is unique; subtracting it from x leaves an element of pi^a O.
        """
        if a <= 0:
            return self.zero()
        pi, pi_inv = self.uniformizer, self.pi_inv
        r = x
        out = self.zero()
        pw = self.one()
        for _ in range(a):
            d = self.residue(r).v
            out = out + pw * d
            r = (r - d) * pi_inv
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
        """The scalar a document writes as s; ScalarError if s is not one."""
        if self.flavor == RATIONAL:
            if not isinstance(s, (str, int)):
                raise ScalarError(f"bad rational scalar {s!r}")
            return _parse_fraction(s)
        if isinstance(s, (str, int)):
            return Cyc.of(self.p, _parse_fraction(s))
        if not isinstance(s, list) or len(s) != self.p - 1:
            raise ScalarError(f"bad cyclotomic scalar {s!r}")
        return Cyc(self.p, [_parse_fraction(t) for t in s])


def _parse_fraction(s) -> Fraction:
    """Fraction(s), with ScalarError for what Fraction rejects ("x", "1/0")."""
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"bad scalar {s!r}: {exc}") from None


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

