"""Checks of statements of the paper that no command runs yet, shared by
the tests that exercise them."""

from grforge import cyclo
from grforge.scalars import CYCLOTOMIC, Cyc, InternalCheckError, RingSpec


def unit_u_alpha(p: int, d: int):
    """zeta^d - 1 = u (zeta - 1) with u = zeta^(d-1) + ... + 1, a unit of O.

    Returns (u, is_unit, residue); asserts the identity exactly.  Rejects
    p | d (d would collapse mod p).
    """
    if d % p == 0:
        raise cyclo.CycloError("p divides d")
    if d not in (1, 2, 3):
        raise cyclo.CycloError("d must be 1, 2, or 3")
    ring = RingSpec(CYCLOTOMIC, p)
    z = Cyc.zeta_pow(p, 1)
    u = ring.zero()
    for e in range(d):
        u = u + Cyc.zeta_pow(p, e)
    lhs = Cyc.zeta_pow(p, d) - 1
    pi = z - 1
    if lhs != u * pi:
        raise InternalCheckError("the unit identity fails")
    return u, ring.valuation(u) == 0, ring.residue(u)
