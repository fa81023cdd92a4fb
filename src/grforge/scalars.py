"""Exact scalar arithmetic for p-modular systems (K, O, k).

Two flavors are supported:

* ``rational_local``:   K = Q,       O = Z_(p),      k = F_p
* ``cyclotomic_local``: K = Q(zeta), O = Z_(p)[zeta], k = F_p

where zeta is a primitive p-th root of unity and the maximal ideal of O is
generated by the uniformizer pi (pi = p in the rational flavor, pi = zeta - 1
in the cyclotomic flavor).  All arithmetic is exact: rationals are ``Rat``
values, reduced ``Fraction`` values whose arithmetic runs on their numerator
and denominator ints; cyclotomic numbers (``Cyc``) are an integer
coefficient tuple ``n`` of length p-1 reduced modulo the p-th cyclotomic
polynomial, over one positive common denominator ``d`` with gcd(n, d) = 1.
Ring operations run on Python ints; the inverse goes through the norm.

A ``RingSpec`` builds its field handles, the uniformizer, its inverse and
each power pi^e once and keeps them, so hot loops that ask for
``ring.field_K`` or scale by pi do not rebuild them.
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
# rational numbers
# ---------------------------------------------------------------------------

class Rat(Fraction):
    """A rational number of K = Q: a ``Fraction`` whose ``+ - * /``,
    negation, zero test and ``==`` run on its two ints directly.

    Sums and products cross-cancel before they multiply (Henrici, J. ACM 3,
    1956; Knuth, TAOCP vol. 2, 4.5.1), so each result is already in lowest
    terms with a positive denominator and is built without normalizing.
    Operands are tested as ``Rat``, then as ``int``, before any
    ``isinstance``; for anything but an int or a ``Fraction`` the operator
    is ``Fraction``'s own, which leaves ``Cyc`` and ``Fp`` operands to their
    reflected methods.  Results are ``Rat``; hash, order, ``str`` and every
    other ``Fraction`` method are inherited unchanged.
    """

    __slots__ = ()

    def __add__(a, b):
        if type(b) is Rat:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            d = a._denominator
            return _rat(a._numerator + b * d, d)
        if isinstance(b, (int, Fraction)):
            return _sum(a._numerator, a._denominator, b.numerator, b.denominator)
        return Fraction.__add__(a, b)

    __radd__ = __add__

    def __sub__(a, b):
        if type(b) is Rat:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if type(b) is int:
            d = a._denominator
            return _rat(a._numerator - b * d, d)
        if isinstance(b, (int, Fraction)):
            return _sum(a._numerator, a._denominator, -b.numerator, b.denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            d = b._denominator
            return _rat(a * d - b._numerator, d)
        if isinstance(a, (int, Fraction)):
            return _sum(a.numerator, a.denominator, -b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        if type(b) is Rat:
            return _prod(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            na, da = a._numerator, a._denominator
            g = math.gcd(b, da)
            if g == 1:
                return _rat(na * b, da)
            return _rat(na * (b // g), da // g)
        if isinstance(b, (int, Fraction)):
            return _prod(a._numerator, a._denominator, b.numerator, b.denominator)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    def __truediv__(a, b):
        if type(b) is Rat:
            return _quot(a._numerator, a._denominator, b._numerator, b._denominator)
        if type(b) is int:
            return _quot(a._numerator, a._denominator, b, 1)
        if isinstance(b, (int, Fraction)):
            return _quot(a._numerator, a._denominator, b.numerator, b.denominator)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if type(a) is int:
            return _quot(a, 1, b._numerator, b._denominator)
        if isinstance(a, (int, Fraction)):
            return _quot(a.numerator, a.denominator, b._numerator, b._denominator)
        return Fraction.__rtruediv__(b, a)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __bool__(a):
        return a._numerator != 0

    def __eq__(a, b):
        if type(b) is Rat:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__


def _rat(n: int, d: int) -> Rat:
    """The Rat n / d for coprime ints n and d > 0."""
    x = object.__new__(Rat)
    x._numerator = n
    x._denominator = d
    return x


def _sum(na: int, da: int, nb: int, db: int) -> Rat:
    """na/da + nb/db for reduced operands, cancelling through gcd(da, db)."""
    g = math.gcd(da, db)
    if g == 1:
        return _rat(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return _rat(t, s * db)
    return _rat(t // g2, s * (db // g2))


def _prod(na: int, da: int, nb: int, db: int) -> Rat:
    """(na/da) * (nb/db) for reduced operands, cancelling crosswise."""
    g1 = math.gcd(na, db)
    if g1 != 1:
        na //= g1
        db //= g1
    g2 = math.gcd(nb, da)
    if g2 != 1:
        nb //= g2
        da //= g2
    return _rat(na * nb, da * db)


def _quot(na: int, da: int, nb: int, db: int) -> Rat:
    """(na/da) / (nb/db) for reduced operands."""
    if nb > 0:
        return _prod(na, da, db, nb)
    if nb:
        return _prod(na, da, -db, -nb)
    raise ZeroDivisionError("rational division by zero")


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
        self.zero = _rat(0, 1)
        self.one = _rat(1, 1)

    def of(self, a):
        return Rat(a)

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
            return _rat(self.p, 1)
        return Cyc.zeta_pow(self.p, 1) - 1

    @cached_property
    def pi_inv(self):
        """1 / uniformizer, in K."""
        if self.flavor == RATIONAL:
            return _rat(1, self.p)
        return self.uniformizer.inverse()

    @cached_property
    def _pi_powers(self):
        return {}

    def pi_power(self, e: int):
        """pi^e in K for any integer e, computed once per RingSpec."""
        x = self._pi_powers.get(e)
        if x is None:
            base = self.uniformizer if e > 0 else self.pi_inv
            x = self.one()
            for _ in range(abs(e)):
                x = x * base
            self._pi_powers[e] = x
        return x

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
            n, d = _ratio(x)
            if not n:
                return INF
            return _int_val(n, p) if d == 1 else _int_val(n, p) - _int_val(d, p)
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

    def in_O(self, x) -> bool:
        """For x = n / d in lowest terms, x lies in O iff p does not divide
        d: if p | d, then p does not divide every n_i, so v(n) < p - 1 =
        v(p) and v(x) < 0."""
        return (x.d if isinstance(x, Cyc) else _ratio(x)[1]) % self.p != 0

    def residue(self, x) -> Fp:
        """Residue map O -> k = F_p, defined where `in_O` holds: zeta -> 1
        sends x = n / d to sum(n) / d."""
        p = self.p
        if isinstance(x, Cyc):
            num, den = sum(x.n), x.d
        else:
            num, den = _ratio(x)
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


def _parse_fraction(s) -> Rat:
    """Rat(s), with ScalarError for what Fraction rejects ("x", "1/0")."""
    try:
        return Rat(s)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScalarError(f"bad scalar {s!r}: {exc}") from None


def _ratio(x):
    """(numerator, denominator) of a rational value x: read off a Rat or an
    int, else through Rat(x)."""
    t = type(x)
    if t is Rat:
        return x._numerator, x._denominator
    if t is int:
        return x, 1
    x = Rat(x)
    return x._numerator, x._denominator


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

