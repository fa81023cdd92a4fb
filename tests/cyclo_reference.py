"""The appendix identity suite as it was before its per-length work was done
once, kept for the tests.

`cyclo.Series.inverse` runs Newton's iteration; the geometric series it
replaced (`geometric_inverse`) is kept verbatim as the oracle.
`Series.coeffs_in_O` reads membership in O off each coefficient's
denominator; `in_O_by_valuation` is the valuation test it replaced.
`suite_reference` is the suite loop that builds K_beta again for H_beta,
calls `_bracket_cleared_identity` once per root and j, recomputes each
(zeta^d - 1)^r / r check per root and the j-invariant factor of term1 per
j, with every inverse and every membership test through the two oracles.
"""

from fractions import Fraction

from grforge.cyclo import (CycloError, Series, _bracket,
                           _bracket_cleared_identity, _zeta_pow_scalar,
                           k_beta)
from grforge.scalars import CYCLOTOMIC, RingSpec


def geometric_inverse(s: Series) -> Series:
    """Geometric-series inverse: 1/(c0 (1 + rest)) truncated at order N."""
    c0 = s.constant_term()
    if not c0:
        raise ZeroDivisionError("series has no constant term")
    inv0 = s.ring.one() / c0
    rest = (s - c0) * inv0  # no constant term
    out = Series.const(s.ring, s.nvars, s.order, 1)
    term = Series.const(s.ring, s.nvars, s.order, 1)
    for k in range(1, s.order + 1):
        term = term * rest
        if not term.c:
            break
        out = out + (-1) ** k * term
    return out * inv0


def in_O_by_valuation(s: Series) -> bool:
    return all(s.ring.valuation(v) >= 0 for v in s.c.values())


def h_prime_reference(ring, datum, beta, order):
    d_b = datum.d_alpha(beta)
    kb = k_beta(ring, datum, beta, order)
    z_d = _zeta_pow_scalar(ring, d_b)
    denom_inv = ring.one() / (z_d - 1)
    num = kb - 1
    hb = num * denom_inv
    return hb, in_O_by_valuation(hb)


def suite_reference(datum, p: int, order: int = 8):
    if order < 2:
        raise CycloError("order must be at least 2")
    if datum.type_label == "G2" and p == 3:
        raise CycloError("G2 requires p > 3")
    ring = RingSpec(CYCLOTOMIC, p)
    verdicts = {}
    for beta in datum.positive:
        d = datum.d_alpha(beta)
        k = k_beta(ring, datum, beta, order)
        k_inv = geometric_inverse(k)
        tag = "+".join(f"{n}a{i+1}" for i, n in enumerate(beta) if n)
        # (1) K in S'
        verdicts[(tag, 1)] = in_O_by_valuation(k)
        # H_beta integrality (the recursive xy-1 argument)
        _, h_ok = h_prime_reference(ring, datum, beta, order)
        verdicts[(tag, "H")] = h_ok
        # (2) K^{-1} in S-hat
        one = Series.const(ring, datum.rank, order, 1)
        verdicts[(tag, 2)] = in_O_by_valuation(k_inv) and (k * k_inv == one)
        zd = _zeta_pow_scalar(ring, d)
        zdm = _zeta_pow_scalar(ring, -d)
        # (3) [K;0] in K^{-1} S': displayed factorization and membership
        br0 = _bracket(ring, d, 0, k, k_inv)
        rhs = (k_inv * (ring.one() / zdm)) \
            * ((k + 1) * (ring.one() / (zd + 1))) \
            * ((k - 1) * (ring.one() / (zd - 1)))
        verdicts[(tag, 3)] = (br0 == rhs) and in_O_by_valuation(k * br0)
        verdicts[(tag, "3x")] = _bracket_cleared_identity(ring, d, 0)
        # (4) [K;j] in K^{-1} S' for 1 <= j < p
        ok4 = True
        ok4x = True
        ok5 = True
        for j in range(1, p):
            brj = _bracket(ring, d, j, k, k_inv)
            zj = _zeta_pow_scalar(ring, d * j)
            zjm = _zeta_pow_scalar(ring, -d * j)
            term1 = ((k - 1) * (ring.one() / (zd - 1))) \
                * (ring.one() / ((zd + 1) * zdm)) * (zj + k_inv * zjm)
            term2 = Series.const(ring, datum.rank, order,
                                 (zj - zjm) / (zd - zdm))
            ok4 = ok4 and (brj == term1 + term2) \
                and in_O_by_valuation(k * brj)
            ok4x = ok4x and _bracket_cleared_identity(ring, d, j)
            # (5) [K;j]^{-1} in S-hat
            brj_inv = geometric_inverse(brj)
            ok5 = ok5 and in_O_by_valuation(brj_inv) and (brj * brj_inv == one)
        verdicts[(tag, 4)] = ok4
        verdicts[(tag, "4x")] = ok4x
        verdicts[(tag, 5)] = ok5
        # (6) log K in S-hat, with the (zeta^d - 1)^r / r in O scalar checks
        scalar_ok = True
        for r in range(1, order + 1):
            c = ring.one()
            for _ in range(r):
                c = c * (zd - 1)
            c = c * Fraction(1, r)
            if ring.valuation(c) < 0:
                scalar_ok = False
        logk = Series(ring, datum.rank, order)
        term = Series.const(ring, datum.rank, order, 1)
        km1 = k - 1
        for r in range(1, order + 1):
            term = term * km1
            if not term.c:
                break
            logk = logk + (-1) ** (r + 1) * term * Fraction(1, r)
        verdicts[(tag, 6)] = scalar_ok and in_O_by_valuation(logk)
    return verdicts
