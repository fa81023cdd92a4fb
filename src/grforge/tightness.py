"""Tight lattices, tight gradings, and the tightness-transfer pipeline.

A lattice M over a graded subalgebra a is tight when the forced radical
filtration of M matches the one induced by a's radical powers:
r~ad^r M = (r~ad^r a) M for every r.  The left side always contains the
right, so only the inclusion <= is tested, up to the nilpotency degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import MappingProxyType

from . import linalg, radicals
from .algebra import AlgebraError, StructureAlgebra
from .graded import algebra_rad_chain, gr_algebra, gr_module, module_rad_chain
from .lattices import (
    Lattice,
    is_pure,
    quotient_free_basis,
    saturate_rows,
)
from .modules import (
    ModuleRep,
    head_info,
    hom_with_generator_images,
    is_lambda_standard,
    regular_module,
    standard_module,
    weight_projective,
    weight_simples,
)
from .suites import SuiteResult, graded_head_context


class TightnessError(AlgebraError):
    pass


@dataclass
class GradedSubalgebraDatum:
    """A pure graded subalgebra of the ambient integral algebra.

    rows[i] is the coordinate vector of the i-th basis element of the
    subalgebra; grades[i] its grade.  The optional wedderburn rows span a
    Wedderburn complement of the ambient K-algebra.
    """

    rows: list
    grades: tuple
    wedderburn: list | None = None

    def validate(self, alg: StructureAlgebra):
        """TightnessError unless there is one grade per row and the rows are
        a basis of a subalgebra (pure at level O) on which the grades add
        under multiplication; the subalgebra is built once
        (`subalgebra_of`)."""
        if len(self.grades) != len(self.rows):
            raise TightnessError("the datum needs one grade per basis row")
        span = alg.span(self.rows)
        if span.rank != len(self.rows):
            raise TightnessError("subalgebra basis is not independent")
        if alg.level == "O" and not is_pure(
                span, Lattice.full(alg.ring, alg.rank)):
            raise TightnessError(
                "subalgebra is not O-pure in the ambient algebra")
        try:
            sub = subalgebra_of(alg, self.rows)
        except AlgebraError as exc:
            raise TightnessError(str(exc)) from exc
        g = self.grades
        for (i, j), row in sub.sc.items():
            if any(g[t] != g[i] + g[j] for t in row):
                raise TightnessError(f"grading not multiplicative at ({i},{j})")
        return True


def subalgebra_of(alg: StructureAlgebra, rows) -> StructureAlgebra:
    """The subalgebra on the basis `rows` (ambient coordinates, in this
    order, dense or dicts), built once per algebra and rows: it is kept in
    the ambient algebra's memo, keyed by the rows' nonzero entries."""
    return alg._derived(_subalgebra_of, _row_key(rows))


def _row_key(rows):
    """Each row's nonzero (index, entry) pairs: one key for a row dense or
    as a dict, whose tuple would be its indices alone."""
    return tuple(tuple(linalg.entries(r)) for r in rows)


def _subalgebra_of(alg, rows):
    sub, _ = alg.subalgebra_on([dict(r) for r in rows])
    return sub


def gr_subalgebra_of(alg: StructureAlgebra, rows):
    """gr of `subalgebra_of(alg, rows)`, built once and kept in the ambient
    algebra's memo next to the subalgebra (it refers to the subalgebra, not
    back to the ambient algebra)."""
    return alg._derived(_gr_subalgebra_of, _row_key(rows))


def _gr_subalgebra_of(alg, key):
    return gr_algebra(alg._derived(_subalgebra_of, key))


def module_over_subalgebra(alg, rows, mod: ModuleRep) -> ModuleRep:
    """Reinterpret a module over the ambient algebra as a module over the
    subalgebra spanned by `rows` (the action simply restricts)."""
    acts = [mod.act_matrix(r) for r in rows]
    return ModuleRep(subalgebra_of(alg, rows), mod.rank, acts,
                     mod.name + "|sub")


# ---------------------------------------------------------------------------
# tightness of a lattice
# ---------------------------------------------------------------------------

def is_tight(alg, sub_rows, mod: ModuleRep):
    """Definition check: r~ad^r M = (r~ad^r a) M for all r.

    Returns (tight, first_failing_r).  `sub_rows` span the subalgebra a in
    ambient coordinates; M is a module over the ambient algebra and is
    restricted to a internally.
    """
    submod = module_over_subalgebra(alg, sub_rows, mod)
    return is_tight_core(submod, module_rad_chain(submod))


def is_tight_core(submod: ModuleRep, mod_chain):
    """Tightness of a module given directly over the subalgebra, from its
    radical chain (graded.module_rad_chain)."""
    if submod.level != "O":
        raise TightnessError("tightness is an integral-level notion")
    if submod.rank == 0:
        return True, None
    sub_chain = algebra_rad_chain(submod.algebra)
    degree = len(sub_chain) - 1  # nilpotency degree of rad a_K
    for r in range(1, degree + 1):
        lhs = mod_chain[min(r, len(mod_chain) - 1)]
        rhs = submod.image(sub_chain[min(r, len(sub_chain) - 1)].rows)
        if not rhs.contains_lattice(lhs):
            if not lhs.contains_lattice(rhs):
                raise TightnessError(
                    f"(r~ad^{r} a) M is not inside r~ad^{r} M: the radical "
                    "chains of the subalgebra and the module disagree")
            return False, r
    return True, None


# ---------------------------------------------------------------------------
# tight gradings
# ---------------------------------------------------------------------------

def is_tightly_graded(alg_field, grade_rows) -> tuple[bool, list]:
    """Tight grading check for a field algebra.

    `grade_rows` maps grade -> list of basis rows of that graded piece.
    Verified: positivity, semisimple grade 0, generation by grade 1, and the
    equivalent condition rad^r = sum of grades >= r.
    """
    reasons = []
    grades = sorted(grade_rows)
    if any(g < 0 for g in grades):
        reasons.append("negative grades")
    total = sum(len(grade_rows[g]) for g in grades)
    if total != alg_field.rank:
        reasons.append("graded pieces do not span")
    # grade 0 semisimple
    sub0 = subalgebra_of(alg_field, grade_rows.get(0, []))
    if radicals.radical_field(sub0):
        reasons.append("grade-0 part is not semisimple")
    # generation: pieces of grade r >= 1 equal (grade 1)^r
    one_rows = grade_rows.get(1, [])
    power = alg_field.span(one_rows)
    for g in range(2, max(grades) + 1 if grades else 0):
        power = alg_field.product_span(power.rows, one_rows)
        if power != alg_field.span(grade_rows.get(g, [])):
            reasons.append(f"grade {g} is not (grade 1)^{g}")
    # rad^r = sum of grades >= r
    chain = radicals.radical_chain(alg_field)
    for r in range(1, (max(grades) + 2) if grades else 1):
        pos = []
        for g in grades:
            if g >= r:
                pos.extend(grade_rows[g])
        if alg_field.span(pos) != chain[min(r, len(chain) - 1)]:
            reasons.append(f"rad^{r} differs from the sum of grades >= {r}")
            break
    return (not reasons), reasons


# ---------------------------------------------------------------------------
# Conditions 5.1
# ---------------------------------------------------------------------------

def conditions_51_check(alg: StructureAlgebra, datum: GradedSubalgebraDatum,
                        delta_gradings=None):
    """The five conditions, each verified independently with witnesses.

    delta_gradings: {lam: [grade per Delta(lam) basis index]} supplying the
    graded a_K-structure of each standard module over K (never invented).
    """
    datum.validate(alg)
    w = alg.weights
    out = {}
    notes = {}
    ak = alg.base_change("K")
    sub_rows = datum.rows
    grade_rows = {}
    for r, g in zip(sub_rows, datum.grades):
        grade_rows.setdefault(g, []).append(r)
    sub = subalgebra_of(alg, sub_rows)
    subk = sub.base_change("K")
    sub_grade_rows = {}
    for i, g in zip(range(subk.rank), datum.grades):
        sub_grade_rows.setdefault(g, []).append(subk.basis_vec(i))
    ok1, reasons1 = is_tightly_graded(subk, sub_grade_rows)
    out["c1_tight_grading"] = ok1
    notes["c1"] = reasons1
    # (2) rad A_K = (rad a_K) A_K = A_K (rad a_K)
    rad_a = radicals.radical_field(subk)
    rad_amb = [linalg.combine(c, sub_rows) for c in rad_a]
    rad_span = ak.span(radicals.radical_field(ak))
    out["c2_radical_generation"] = (
        ak.right_ideal(rad_amb) == rad_span
        and ak.left_ideal(rad_amb) == rad_span)
    # (3) graded a_K-structure on each Delta_K(lam), generated by degree 0
    ok3 = True
    ok4 = True
    wedd, why = _wedderburn_rows(alg, datum)
    if wedd is None:
        notes["wedderburn"] = why
    if delta_gradings is None:
        out["c3_delta_generated_in_degree_0"] = None
        out["c4_degree0_stability"] = None
        notes["c3"] = "no graded Delta structure supplied"
    else:
        for lam in w.Lambda:
            dk = standard_module(ak, lam)
            grades = delta_gradings[lam]
            piece = {}
            for i, g in enumerate(grades):
                piece.setdefault(g, []).append(dk.basis_vec(i))
            # multiplicativity of the action grading
            for (ga, rows_a) in sub_grade_rows.items():
                ambs = [linalg.combine(c, sub_rows) for c in rows_a]
                for (gm, rows_m) in piece.items():
                    target = dk.span(piece.get(ga + gm, []))
                    if not target.contains_lattice(dk.image(ambs, rows_m)):
                        ok3 = False
            # generation by degree 0
            zero = dk.span(piece.get(0, []))
            gen = ak.stable_span(
                zero, [partial(linalg.apply, dk.act_matrix(c))
                       for c in sub_rows], dk.rank)
            if gen.rank != dk.rank:
                ok3 = False
            # (4) degree-0 part stable under the Wedderburn complement
            if wedd is not None and not zero.contains_lattice(
                    dk.image(wedd, zero.rows)):
                ok4 = False
        out["c3_delta_generated_in_degree_0"] = ok3
        out["c4_degree0_stability"] = ok4 if wedd is not None else None
    # (4) continued: A_K0 contains a_K0 and all idempotents
    if wedd is not None:
        out["c4_complement_contains"] = ak.span(wedd).contains_lattice(ak.span(
            [linalg.combine(c, sub_rows) for c in sub_grade_rows.get(0, [])]
            + [list(w.idempotents[nu]) for nu in w.X]))
    else:
        out["c4_complement_contains"] = None
    # (5) K a_r = a_K,r (by construction of the datum) plus the Prop 5.2(a)
    # integrality: a_r = a ∩ a_K,r and the symbol map is a graded isomorphism
    ok5 = True
    if alg.level == "O":
        ring = alg.ring
        full_sub = alg.span(sub_rows)
        for g, rows_g in grade_rows.items():
            piece = alg.span(rows_g)
            span_k = saturate_rows(ring, alg.rank, rows_g)
            meet = full_sub.intersection(span_k)
            if meet != piece:
                ok5 = False
                notes.setdefault("c5", []).append(
                    f"grade {g}: a ∩ a_K,{g} differs from a_{g}")
        # sum of grades >= r equals the integral radical power of the
        # subalgebra; in its own basis the datum rows are the unit vectors
        sub_chain = algebra_rad_chain(sub)
        for r in range(1, len(sub_chain) - 1):
            rows_ge = [c for g, cs in sub_grade_rows.items() if g >= r
                       for c in cs]
            if sub.span(rows_ge) != sub_chain[r]:
                ok5 = False
                notes.setdefault("c5", []).append(
                    f"sum of grades >= {r} differs from r~ad^{r} a")
        # symbol map a -> gr a is a graded isomorphism
        gr_sub = gr_subalgebra_of(alg, sub_rows)
        for g, cs in sub_grade_rows.items():
            symbols = []
            for c in cs:
                if gr_sub.depth(c) != g:
                    ok5 = False
                    notes.setdefault("c5", []).append(
                        f"element of grade {g} has symbol depth {gr_sub.depth(c)}")
                else:
                    symbols.append(gr_sub.symbol(c))
            got = sub.span(symbols)
            want = sub.span([gr_sub.algebra.basis_vec(i)
                             for i in range(sub.rank) if gr_sub.grades[i] == g])
            if got != want:
                ok5 = False
                notes.setdefault("c5", []).append(
                    f"symbols of grade {g} do not span (gr a)_{g}")
    out["c5_integral_grading"] = ok5
    return out, notes


# ---------------------------------------------------------------------------
# field-level PIMs and E_K(lam)
# ---------------------------------------------------------------------------

def field_pim(alg_field, lam):
    """P(lam) over a field: A f for a lifted primitive idempotent f of the
    lam-block.  Returns (module, f_vector); the module's `ambient_span` is
    A f in A's coordinates."""
    blocks, units = radicals.matrix_units(alg_field, weight_simples(alg_field))
    for bi, blk in enumerate(blocks):
        if blk.label == lam:
            f = units[(bi, 0, 0)]
            break
    else:
        raise TightnessError(f"no block labeled {lam!r}")
    reg = regular_module(alg_field)
    sub = reg.submodule_generated([list(f)])
    mod = reg.restrict_to(sub)
    mod.name = f"P_K({lam})"
    mod.ambient_span = sub
    return mod, list(f)


# ---------------------------------------------------------------------------
# Proposition 5.2(b): the three equivalent statements, computed independently
# ---------------------------------------------------------------------------

def prop_52_verdicts(alg, datum: GradedSubalgebraDatum, mod: ModuleRep,
                     over_sub: bool = False):
    """(i) tight; (ii) sum_{i>=r} a_i M = r~ad^r M; (iii) gr M generated in
    degree 0; returns the dict.

    The three criteria are tested independently of each other: (i) against
    the products (r~ad^r a) M, (ii) against the graded pieces of a, (iii) on
    gr M as a gr a-module.  The radical chain of M is one shared input, built
    once; computing it again per criterion gave the same chain and so never
    made the verdicts more independent.

    With over_sub=True, `mod` is already a module over the subalgebra; its
    basis order must match datum.rows.
    """
    sub = subalgebra_of(alg, datum.rows)
    if over_sub:
        submod = ModuleRep(sub, mod.rank, mod.acts, mod.name)
    else:
        submod = module_over_subalgebra(alg, datum.rows, mod)
    gm = gr_module(gr_subalgebra_of(alg, datum.rows), submod)
    mod_chain = gm.chain
    tight, first_fail = is_tight_core(submod, mod_chain)
    # (ii): grades in subalgebra coordinates (datum order = sub basis order)
    grade_idx = {}
    for i, g in enumerate(datum.grades):
        grade_idx.setdefault(g, []).append(i)
    degree = len(algebra_rad_chain(sub)) - 1  # nilpotency degree of rad a_K
    ok2 = True
    for r in range(1, degree + 1):
        radr = mod_chain[min(r, len(mod_chain) - 1)]
        pieces = [sub.basis_vec(bi) for g, idxs in grade_idx.items() if g >= r
                  for bi in idxs]
        if submod.image(pieces) != radr:
            ok2 = False
            break
    # (iii) gr M over gr a generated by degree 0
    zero_rows = [gm.module.basis_vec(i) for i in range(gm.module.rank)
                 if gm.grades[i] == 0]
    ok3 = (gm.module.submodule_generated(zero_rows)
           == gm.module.full_lattice())
    return {"tight": tight, "first_failing_r": first_fail,
            "sum_formula": ok2, "generated_in_degree_0": ok3}


# ---------------------------------------------------------------------------
# the tightness-transfer pipeline (main theorem of the special case)
# ---------------------------------------------------------------------------

def thm_53_pipeline(alg: StructureAlgebra, datum: GradedSubalgebraDatum, lam,
                    dagger: ModuleRep | None = None, v=None, p0_rows=None,
                    delta_gradings=None, conditions=None):
    """Verify hypotheses (i)-(iii) for P(lam)-dagger, then test the predicted
    conclusions directly: Delta(lam) restricted to the subalgebra is tight,
    and head(gr Delta(lam) mod pi) is the simple of weight lam.

    dagger defaults to A e_lam when that lattice is full in P_K(lam); v to its
    lam-weight generator; p0_rows to the lam-weight space.  Divergence between
    a verified hypothesis set and a failed conclusion is a falsification.
    """
    res = SuiteResult("thm53")
    w = alg.weights
    if conditions is None:  # conditions_51_check validates the datum
        conditions, cond_notes = conditions_51_check(alg, datum, delta_gradings)
        res.notes["conditions_notes"] = cond_notes
    else:
        datum.validate(alg)
    for key, val in conditions.items():
        res.hypotheses[key] = bool(val) if val is not None else True
    ls = is_lambda_standard(alg)
    res.hypotheses["lambda_standard"] = ls["ok"]
    # the dagger lattice
    if dagger is None:
        dagger = weight_projective(alg, lam)
        ak = alg.base_change("K")
        pimK, _ = field_pim(ak, lam)
        res.hypotheses["dagger_full_in_pim"] = dagger.rank == pimK.rank
    # r~ad^1 dagger: a module chain runs from the module down to 0
    rad_part = module_rad_chain(dagger)[1]
    if v is None or p0_rows is None:
        # default degree-0 part: the depth-0 stratum of the lam-weight space
        wlat = dagger.span(dagger.weight_space_rows(lam))
        deeper = wlat.intersection(rad_part)
        lifts, tors = quotient_free_basis(wlat, deeper)
        if tors:
            raise TightnessError("weight space stratum is not pure; supply v")
        if p0_rows is None:
            p0_rows = lifts
        if v is None:
            if len(lifts) != 1:
                raise TightnessError("ambiguous weight generator; supply v")
            v = lifts[0]
    # (i) dagger = A v with v a lam-weight vector
    e = list(w.idempotents[lam])
    res.hypotheses["h1_cyclic"] = (
        linalg.apply(dagger.act_matrix(e), v) == linalg.sparse(v)
        and dagger.submodule_generated([v]) == dagger.full_lattice())
    # (ii) dagger = P0 (+) (dagger ∩ rad P_K) with K P0 + E_K stable; once
    # P0 + rad = dagger, P0 ∩ rad = 0 iff their ranks add up to dagger's
    p0 = dagger.span(p0_rows)
    direct = p0.add(rad_part) == dagger.full_lattice() and \
        p0.rank + rad_part.rank == dagger.rank
    res.hypotheses["h2_direct_sum"] = direct
    stab = _h2_stability(alg, datum, lam, dagger, p0_rows)
    res.hypotheses["h2_degree0_stable"] = stab
    # (iii) dagger restricted to the subalgebra is tight
    tight_dagger, fail_r = is_tight(alg, datum.rows, dagger)
    res.hypotheses["h3_dagger_tight"] = tight_dagger
    if fail_r is not None:
        res.notes["dagger_first_failing_r"] = fail_r
    if not res.hypotheses_ok:
        return res.finalize()
    # conclusion 1: Delta(lam) restricted to the subalgebra is tight
    delta = standard_module(alg, lam)
    tight_delta, fail_d = is_tight(alg, datum.rows, delta)
    res.conclusions["delta_tight"] = tight_delta
    if fail_d is not None:
        res.notes["delta_first_failing_r"] = fail_d
    # conclusion 2: head(gr Delta(lam) mod pi) = L(lam)
    gr = gr_algebra(alg)
    gd = gr_module(gr, delta)
    _, gradk, gsimples_k = graded_head_context(gr)
    info = head_info(gd.module.base_change("k"), gradk, gsimples_k)
    res.conclusions["gr_delta_head_simple"] = (
        info["is_simple"] and info["label"] == lam)
    res.notes["head"] = {"dim": info["dim"],
                         "weights": {str(k): vv for k, vv
                                     in info["weight_dims"].items()}}
    return res.finalize()


def _h2_stability(alg, datum, lam, dagger, p0_rows):
    """K.P0 + E_K(lam) must be stable under the Wedderburn complement."""
    ak = alg.base_change("K")
    wedd, _ = _wedderburn_rows(alg, datum)
    if wedd is None:
        return False
    # E_K inside dagger coordinates: kernel of the surjection onto Delta_K
    daggerK = dagger.base_change("K")
    deltaK = standard_module(ak, lam)
    gen = daggerK.weight_space_rows(lam)[0]
    target = deltaK.weight_space_rows(lam)[0]
    h = hom_with_generator_images(daggerK, deltaK, [gen], [target])
    if h is None:
        return False
    ker = linalg.kernel_right(h, deltaK.fld)
    span = daggerK.span(ker + list(p0_rows))
    return span.contains_lattice(daggerK.image(wedd, span.rows))


def _wedderburn_rows(alg, datum):
    """(rows, None) spanning the datum's Wedderburn complement of A_K, or else
    one built to contain every weight idempotent; (None, reason) when the
    splitting fails."""
    if datum.wedderburn is not None:
        return datum.wedderburn, None
    ak = alg.base_change("K")
    w = alg.weights
    try:
        return radicals.wedderburn_complement(
            ak, weight_simples(ak),
            contain=[list(w.idempotents[nu]) for nu in w.X]), None
    except (radicals.NonSplitError, AlgebraError) as exc:
        return None, str(exc)


# kept for the benchmark's LsCacheGuard: the verdict now lives in the algebra's memo
_LS_CACHE = MappingProxyType({})
is_lambda_standard_cached = is_lambda_standard
