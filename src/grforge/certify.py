"""Heredity-ideal verification and quasi-heredity certification.

An ideal J = AeA (e idempotent) is split heredity when (i) A/J is O-free,
(ii) J^2 = J, (iii) eAe is a direct sum of matrix algebras over O and the
multiplication map Ae (x)_{eAe} eA -> J is bijective, and (iv) End_A(J) is
again a direct sum of matrix algebras over O.  Once (iii) holds, (iv) follows
structurally: J decomposes as a direct sum of copies of the Ae f_t (f_t the
diagonal block units), so End_A(J) = (+) M_(r_t)(O) with r_t = rank of f_t eA;
small ranks are additionally cross-checked by solving for End_A(J) directly.

The split test for an O-order E inside a split semisimple K-algebra is exact:
E is a direct sum of matrix algebras over O iff E_K is split semisimple and
the Gram determinant of the trace form on an O-basis of E is a unit (the
trace form of M_n(O) is unimodular, and an order with unimodular discriminant
is maximal; over a DVR maximal orders in split algebras are conjugate to
matrix algebras).  v(discriminant) is the sum of the pivot valuations of
the Hermite form of the Gram rows.  The explicit isomorphism is realized on
the lattice E.v inside a simple module, never by p-adic idempotent lifting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd

from . import linalg, radicals
from .algebra import AlgebraError, StructureAlgebra, matrix_algebra_constants
from .lattices import (
    Lattice,
    LatticeError,
    coord_solver,
    residue_echelon,
    saturate_rows,
)
from .modules import (
    ModuleError,
    ModuleRep,
    hom_equations,
    regular_module,
    weight_simples,
)
from .scalars import InternalCheckError


class CertifyError(AlgebraError):
    pass


# ranks of J = A e A up to which End_A(J) is also solved for directly
ENDO_DIRECT_LIMIT = 12


# ---------------------------------------------------------------------------
# modules over subalgebras / generic splitting without weight data
# ---------------------------------------------------------------------------

def _poly_roots(fld, coeffs):
    """Roots in the field of a monic polynomial with all roots rational-like.

    Over F_p all p candidates are tried; over Q (and Q(zeta) for rational
    eigenvalues) integer-divisor candidates of the constant term are tried.
    Returns (roots, complete): complete means deg(poly) roots were found with
    multiplicity one each.
    """
    deg = len(coeffs) - 1
    roots = []
    if getattr(fld, "char", 0):
        for a in range(fld.char):
            val = fld.zero
            x = fld.of(a)
            for c in reversed(coeffs):
                val = val * x + c
            if not val:
                roots.append(x)
        return roots, len(roots) == deg
    # char 0: clear to integers and try divisors of the constant term
    def as_fraction(c):
        if isinstance(c, Fraction):
            return c
        cc = getattr(c, "c", None)
        if cc is not None and all(x == 0 for x in cc[1:]):
            return cc[0]
        return None

    fracs = [as_fraction(c) for c in coeffs]
    if any(f is None for f in fracs):
        return [], False
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    # strip the t^k factor so the rational-root candidates see the real
    # constant term; k > 1 means a multiple root at 0 (not squarefree)
    k = 0
    while k < deg and ints[k] == 0:
        k += 1
    reduced = ints[k:]
    if k:
        roots.append(fld.of(0))
    cands = set()
    for p_ in _divisors(abs(reduced[0])):
        for q_ in _divisors(abs(reduced[-1])):
            cands.add(Fraction(p_, q_))
            cands.add(Fraction(-p_, q_))
    for r in sorted(cands):
        val = Fraction(0)
        for c in reversed(reduced):
            val = val * r + c
        if val == 0:
            roots.append(fld.of(r))
    return roots, k <= 1 and len(roots) == deg


def _divisors(n):
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def generic_simples(alg):
    """Simple modules of a split semisimple field algebra, without weight data.

    Splits the center by root-finding on minimal polynomials (all-residue
    search over F_p, rational candidates over characteristic zero), then
    refines to a primitive idempotent per block.  Returns one module per
    primitive idempotent, so isomorphic copies recur; split_semisimple keeps
    the first of each central character.  Raises NonSplitError when a
    minimal polynomial does not split through these routes.
    """
    fld = alg.fld
    rad = radicals.radical_field(alg)
    if rad:
        raise radicals.NonSplitError("generic_simples expects a semisimple algebra")
    # primitive idempotent refinement down from 1
    idems = [alg.unit]
    changed = True
    while changed:
        changed = False
        for e in list(idems):
            # corner eAe; look for a splitting element
            for i in range(alg.rank):
                x = alg.mul(e, alg.mul(alg.basis_vec(i), e))
                if not x or x == e:
                    continue
                mp = _corner_minpoly(alg, e, x)
                if len(mp) <= 2:
                    continue
                roots, complete = _poly_roots(fld, mp)
                if not complete:
                    continue
                # Lagrange idempotents of x in the corner, one per root
                parts = []
                for r in roots:
                    num = e
                    den = fld.one
                    for s in roots:
                        if s != r:
                            num = linalg.combine({0: fld.one, 1: -s},
                                                 [alg.mul(num, x), num])
                            den = den * (r - s)
                    part = {t: v / den for t, v in num.items()}
                    if part and alg.mul(part, part) == part:
                        parts.append(part)
                if len(parts) >= 2:
                    idems.remove(e)
                    idems.extend(parts)
                    changed = True
                    break
            if changed:
                break
    # verify each corner is one-dimensional (primitive, split)
    reg = regular_module(alg)
    out = []
    for idx, e in enumerate(idems):
        if alg.corner(e).rank != 1:
            raise radicals.NonSplitError(
                "idempotent refinement stalled (non-rational eigenvalues "
                "or a non-split block)")
        mod = reg.restrict_to(reg.submodule_generated([e]))
        out.append((f"blk{idx}", mod))
    return out


def _corner_minpoly(alg, e, x):
    """Minimal polynomial of x inside the corner algebra eAe (unit e)."""
    fld = alg.fld
    powers = []
    cur = e
    while True:
        # the powers so far are independent, so the coordinates are unique
        sol = alg.coord_solver(powers)(cur) if powers else None
        if sol is not None:
            return [-sol.get(i, fld.zero) for i in range(len(powers))] \
                + [fld.one]
        powers.append(cur)
        cur = alg.mul(cur, x)


# ---------------------------------------------------------------------------
# matrix algebras over the base ring
# ---------------------------------------------------------------------------

@dataclass
class MatrixAlgebraWitness:
    ok: bool
    reason: str = ""
    block_sizes: tuple = ()
    gram_det_valuation: object = None
    units: dict | None = None       # (block, i, j) -> coordinate vector in E


def recognize_matrix_algebra(e_alg: StructureAlgebra, simples=None):
    """Decide E ≅ (+) M_n over E's base ring, with an explicit witness.

    At every level E's field algebra must be semisimple and split, through
    `simples` (its simple modules) or else `generic_simples`.  At K and k
    that split is the witness; at O, E must also be a maximal order.
    """
    if e_alg.rank == 0:
        return MatrixAlgebraWitness(False, "zero algebra")
    ek = e_alg.field_algebra()
    try:
        rad = radicals.radical_field(ek)
    except AlgebraError as exc:
        return MatrixAlgebraWitness(False, f"radical failure: {exc}")
    if rad:
        return MatrixAlgebraWitness(False, "field algebra is not semisimple")
    try:
        blocks, units = radicals.matrix_units(
            ek, simples if simples is not None else generic_simples(ek))
    except AlgebraError as exc:  # NonSplitError and any other refusal
        return MatrixAlgebraWitness(False, f"splitting failed: {exc}")
    sizes = tuple(b.simple_dim for b in blocks)
    if e_alg.level != "O":
        return MatrixAlgebraWitness(True, "", sizes, 0, units)
    ring = e_alg.ring
    # maximality via the reduced trace: sum of matrix traces over the blocks;
    # the reduced discriminant of (+) M_n(O) is a unit, and an order with unit
    # reduced discriminant is maximal
    fldK = ek.fld
    grams = [linalg.trace_form(blk.module_acts, fldK) for blk in blocks]
    gram = [linalg.total(g[i] for g in grams) for i in range(e_alg.rank)]
    # O-bases of one full lattice differ by GL_n(O): the pivot valuations
    # add up to v(det); the entries are reduced traces of an order's elements
    try:
        disc = Lattice.from_rows(ring, e_alg.rank, gram)
    except LatticeError as exc:
        raise InternalCheckError("reduced trace outside O") from exc
    if disc.rank < e_alg.rank:
        return MatrixAlgebraWitness(False, "reduced trace form degenerate",
                                    gram_det_valuation=None)
    val = sum(disc.pivot_vals)
    if val != 0:
        return MatrixAlgebraWitness(
            False, "not a maximal order (discriminant has positive valuation)",
            gram_det_valuation=val)
    # explicit units: realize each block on the lattice E . v inside its module
    all_units = {}
    # image of each E-basis element: its matrices on the blocks' lattices,
    # block bi flattened (see linalg.flatten) from index off_bi
    iso_rows = [{} for _ in range(e_alg.rank)]
    off = 0
    for bi, blk in enumerate(blocks):
        # central idempotent must lie in the O-order
        z = blk.central_idempotent
        if not all(map(ring.in_O, z.values())):
            return MatrixAlgebraWitness(
                False, "central idempotent escapes the order",
                gram_det_valuation=val)
        d = blk.simple_dim
        # lattice L = E . w inside the simple module, w the image of E_11
        acts = blk.module_acts
        mod = ModuleRep(e_alg, len(acts[0]), acts)
        col = next((c for c in mod.act_matrix(units[(bi, 0, 0)]) if c),
                   None)
        if col is None:
            return MatrixAlgebraWitness(False, "block unit acts by zero",
                                        gram_det_valuation=val)
        gen_rows = [mod.act_basis(i, dict(col)) for i in range(e_alg.rank)]
        # scale w by a power of pi so that E.w lies in O^d
        low = min(ring.valuation(x) for row in gen_rows for x in row.values())
        scale = ring.pi_power(-min(low, 0))
        gen_rows = [{t: scale * x for t, x in row.items()} for row in gen_rows]
        lat = Lattice.from_rows(ring, mod.rank, gen_rows)
        if lat.rank != d:
            return MatrixAlgebraWitness(
                False, f"module lattice has rank {lat.rank}, expected {d}",
                gram_det_valuation=val)
        # action of E on L in the canonical basis: must be integral
        try:
            on_lat = mod.restrict_to(lat)
        except ModuleError:
            return MatrixAlgebraWitness(
                False, "order does not stabilize its own lattice",
                gram_det_valuation=val)
        for i in range(e_alg.rank):
            iso_rows[i].update((off + k, x) for k, x
                               in linalg.flatten(on_lat.acts[i]).items())
        off += d * d
    # matrix units inside E: the O-coordinates of the elementary matrices in
    # the images of the E-basis.  An O-order with unit discriminant is
    # maximal, so the map is onto over O and every coordinate is in O.
    try:
        coords = coord_solver(iso_rows, fldK, off, ring)
    except LatticeError as exc:
        raise InternalCheckError(
            "an isomorphism has dependent image rows") from exc
    off = 0
    for bi, d in enumerate(sizes):
        for i in range(d):
            for j in range(d):
                unit = coords({off + i * d + j: fldK.one})
                if unit is None:
                    raise InternalCheckError(
                        "a maximal order misses a matrix unit over O")
                all_units[(bi, i, j)] = unit
        off += d * d
    return MatrixAlgebraWitness(True, "", sizes, 0, all_units)


# ---------------------------------------------------------------------------
# heredity ideals and chains
# ---------------------------------------------------------------------------

@dataclass
class HeredityStep:
    labels: tuple
    ok: bool
    verdicts: dict
    e_vector: dict
    ideal_rank: int = 0
    corner: MatrixAlgebraWitness | None = None
    detail: dict = field(default_factory=dict)
    # J = A e A as built for the checks, so the chain can quotient by it
    ideal: object = field(default=None, repr=False, compare=False)


@dataclass
class ChainCertificate:
    ok: bool
    steps: list
    failure: str = ""

    def summary(self):
        lines = []
        for i, st in enumerate(self.steps):
            lines.append(
                f"step {i}: strip {sorted(map(str, st.labels))} "
                f"{'ok' if st.ok else 'FAIL ' + str(st.verdicts)}")
        return "\n".join(lines)


def _corner_simple_modules(alg, e, e_basis, corner, labels):
    """Simple modules of the corner e A_K e through the weight simples; None
    (then `generic_simples` splits the corner) without weight data, when
    `weight_simples` refuses, or when e kills each weight simple of labels."""
    ak = alg.field_algebra()
    if alg.weights is None:
        return None
    try:
        simples = weight_simples(ak)
    except (radicals.NonSplitError, AlgebraError):
        return None
    out = []
    for lam, lmod in simples:
        if lam not in labels:
            continue
        cmod = ModuleRep(corner, lmod.rank,
                         [lmod.act_matrix(b) for b in e_basis])
        rmod = cmod.restrict_to(lmod.image([e]))
        if rmod.rank:
            out.append((lam, rmod))
    return out or None


def is_split_heredity_ideal(alg: StructureAlgebra, e, labels=("e",)) -> HeredityStep:
    """Verify the footnote-4 conditions for J = A e A, with witnesses."""
    verdicts = {}
    detail = {}
    if alg.mul(e, e) != e:
        return HeredityStep(tuple(labels), False, {"idempotent": False}, e)
    verdicts["idempotent"] = True
    J = alg.ideal_generated(e)
    if J.rank == 0:
        return HeredityStep(tuple(labels), False, {"nonzero": False}, e)
    if alg.level == "O":
        _, torsion = Lattice.full(alg.ring, alg.rank).lifts_over(J)
        verdicts["free_quotient"] = not torsion
        if torsion:
            detail["torsion"] = torsion
    else:
        verdicts["free_quotient"] = True
    verdicts["idempotent_ideal"] = alg.product_span(J.rows, J.rows) == J
    cbasis = alg.corner(e).rows
    corner = alg.subalgebra_on(cbasis, unit=e)
    witness = recognize_matrix_algebra(corner, _corner_simple_modules(
        alg, e, cbasis, corner.field_algebra(), labels))
    verdicts["corner_split"] = witness.ok
    if not witness.ok:
        detail["corner"] = witness.reason
    # multiplication map Ae (x)_{eAe} eA -> J; End_A(J) follows structurally
    if witness.ok:
        verdicts["mult_map_bijective"], r_sizes = _mult_map_bijective(
            alg, cbasis, witness, J)
        verdicts["endo_matrix"] = True
        detail["endo_block_sizes"] = r_sizes
        if alg.level == "O" and J.rank <= ENDO_DIRECT_LIMIT:
            direct = _endo_direct_check(alg, J, r_sizes)
            detail["endo_direct_crosscheck"] = \
                "inconclusive" if direct is None else direct
            if direct is False:
                verdicts["endo_matrix"] = False
    ok = all(v for v in verdicts.values() if isinstance(v, bool))
    return HeredityStep(tuple(labels), ok, verdicts, e, J.rank,
                        witness, detail, J)


def _mult_map_bijective(alg, cbasis, witness, J):
    """Rank count and exact image equality for Ae (x)_{eAe} eA -> J.

    Returns (bijective, sizes): sizes[t] is the rank of f_t e A, f_t the
    first diagonal unit of block t, and End_A(J) = (+) M_(sizes[t])(O).
    Since f_t = e f_t e, A e f_t = A f_t and f_t e A = f_t A."""
    sides = []
    for bi in range(len(witness.block_sizes)):
        f = linalg.combine(witness.units[(bi, 0, 0)], cbasis)
        sides.append((alg.left_ideal([f]), alg.right_ideal([f])))
    sizes = tuple(right.rank for _, right in sides)
    # block t contributes d_t copies: rank(Ae f_t) * rank(f_t eA)
    if sum(left.rank * right.rank for left, right in sides) != J.rank:
        return False, sizes
    image = reduce(lambda a, b: a.add(b), (
        alg.product_span(left.rows, right.rows) for left, right in sides))
    return image == J, sizes


def _endo_direct_check(alg, J, expected_sizes):
    """Solve End_A(J) over O directly and compare block sizes (small ranks).

    Returns True/False for a conclusive verdict, None when the independent
    splitting route cannot decide (the structural route remains binding).
    The saturated kernel End_{A_K}(J_K) meet M_n(O) is an O-algebra.
    """
    fld = alg.fld
    mod = regular_module(alg).restrict_to(J)
    n = mod.rank
    ker = linalg.kernel_right(hom_equations(mod, mod), fld, n * n)
    if len(ker) != sum(s * s for s in expected_sizes):
        return False
    # endomorphisms restricted to the lattice: saturate and build the algebra
    sat = saturate_rows(alg.ring, n * n, ker)
    # each basis endomorphism h (h[r][c] at r * n + c) by its sparse columns
    matb = [linalg.unflatten(b, n) for b in sat.rows]
    unit_c = sat.coords({k * n + k: fld.one for k in range(n)})
    if unit_c is None:  # 1 lies in End_{A_K}(J_K) and in M_n(O), so in sat
        raise InternalCheckError("identity outside End_{A_K}(J_K) meet M_n(O)")
    endo = StructureAlgebra(alg.ring, "O", len(matb), None, unit_c,
                            matrix_algebra_constants(sat, n))
    # simple endo-modules sit inside J itself: End . v for module vectors v,
    # built lazily: the splitting stops at one per central character
    endo_k = endo.base_change("K")
    jmod = ModuleRep(endo_k, n, matb)
    cands = ((f"v{i}", jmod.restrict_to(sub)) for i in range(n)
             for sub in [jmod.submodule_generated([jmod.basis_vec(i)])]
             if sub.rank)
    try:
        w = recognize_matrix_algebra(endo, cands)
    except (radicals.NonSplitError, AlgebraError):
        return None
    if not w.ok:
        return None if "splitting failed" in w.reason else False
    return tuple(sorted(w.block_sizes)) == tuple(sorted(expected_sizes))


def certify_qha(alg: StructureAlgebra, order=None) -> ChainCertificate:
    """Greedy heredity chain stripping maximal antichains of Lambda.

    `order`: optional explicit strip order (a reversed linear extension); each
    entry must be maximal among the remaining weights when its turn comes.
    """
    w = alg.weights
    if w is None:
        raise CertifyError("certify_qha needs a weight datum")
    remaining = list(w.Lambda)
    cur = alg
    steps = []
    queue = list(order) if order else None
    while remaining:
        if queue:
            lam = queue.pop(0)
            if lam not in w.maximal(remaining):
                raise CertifyError(f"{lam!r} is not maximal among remaining weights")
            batch = [lam]
        else:
            batch = sorted(w.maximal(remaining), key=str)
        step = is_split_heredity_ideal(cur, cur.weight_idempotent(batch),
                                       tuple(batch))
        steps.append(step)
        if not step.ok:
            return ChainCertificate(False, steps,
                                    failure=f"step {len(steps) - 1} fails: "
                                            f"{step.verdicts}")
        remaining = [x for x in remaining if x not in batch]
        if not remaining:
            break
        # pass to the quotient algebra, transporting the weight datum
        cur, _ = cur.quotient_by_labels(batch, step.ideal)
    return ChainCertificate(True, steps)


def verify_chain(alg: StructureAlgebra, cert: ChainCertificate) -> bool:
    """Independent re-verification of an emitted chain certificate.

    Walks the recorded strip order from scratch; purity (level O) is judged
    only by the base-change-injectivity route, ideal idempotency at every
    level by J^2 == J as spans, and the corner witness by re-checking the
    stored matrix-unit identities.
    """
    cur = alg
    for step in cert.steps:
        e = cur.weight_idempotent(step.labels)
        if cur.mul(e, e) != e:
            return False
        if e != step.e_vector:
            return False
        J = cur.ideal_generated(e)
        if J.rank != step.ideal_rank:
            return False
        if cur.level == "O":
            # purity via residue ranks (Lemma 2.3(b) only)
            pure = len(residue_echelon(cur.ring, J.rows, cur.rank)[1]) \
                == J.rank
            if pure != step.verdicts.get("free_quotient"):
                return False
        J2 = cur.span([cur.mul(a, b) for a in J.rows for b in J.rows])
        if (J2 == J) != step.verdicts.get("idempotent_ideal"):
            return False
        if step.corner is not None and step.corner.ok:
            # stored corner matrix units must verify inside the corner algebra
            cbasis = cur.span([cur.mul(e, cur.mul(cur.basis_vec(i), e))
                               for i in range(cur.rank)]).rows
            # the stored units are coordinates in the corner basis
            units = {key: linalg.combine(v, cbasis)
                     for key, v in step.corner.units.items()}
            for (b1, i, j), u in units.items():
                for (b2, k, l), v in units.items():
                    prod = cur.mul(u, v)
                    if b1 == b2 and j == k:
                        if prod != units[(b1, i, l)]:
                            return False
                    elif prod:
                        return False
            if linalg.total(u for (_, i, j), u in units.items()
                            if i == j) != e:
                return False
        if not step.ok:
            return True  # failing certificates agree once the failure is hit
        if step is not cert.steps[-1]:
            # the quotient reuses this check's own J, never the prover's
            cur, _ = cur.quotient_by_labels(step.labels, J)
    return cert.ok
