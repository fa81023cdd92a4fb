"""Theorem verification suites: the main graded quasi-heredity theorem, the
truncation-commutes-with-gr corollary, and the field-case appendix.

Every suite separates hypothesis verdicts from conclusion verdicts.  A
falsification event is a run where all hypothesis checks pass and a conclusion
check fails; suites report it rather than raising, so the caller decides the
exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import certify, forced, linalg, radicals
from .algebra import AlgebraError, StructureAlgebra
from .graded import GradedAlgebra, gr_algebra, gr_module
from .modules import (
    FiltrationFailure,
    ModuleRep,
    delta_filtration,
    head_info,
    is_lambda_standard,
    iso_with_generator_images,
    regular_module,
    section_multiset,
    standard_and_projectives,
    standard_iso,
    standard_module,
    truncate_to_ideal,
    weight_projective,
    weight_simples,
)
from .scalars import InternalCheckError


def graded_head_context(gr: GradedAlgebra):
    """Radical and simples of (gr A)_k, for judging heads of graded modules."""
    galgk = gr.algebra.base_change("k")
    radk = radicals.radical_field(galgk)
    simples = weight_simples(galgk)
    return galgk, radk, simples


@dataclass
class SuiteResult:
    name: str
    hypotheses: dict = field(default_factory=dict)
    conclusions: dict = field(default_factory=dict)
    falsification: bool = False
    notes: dict = field(default_factory=dict)

    @property
    def hypotheses_ok(self):
        return all(bool(v) for v in self.hypotheses.values())

    @property
    def ok(self):
        if not self.hypotheses_ok:
            return True  # nothing claimed, nothing falsified
        return all(bool(v) for v in self.conclusions.values())

    def finalize(self):
        self.falsification = self.hypotheses_ok and not all(
            bool(v) for v in self.conclusions.values())
        return self


def _nonzero(table):
    return {k: v for k, v in table.items() if v}


def _graded_piece_weight_ranks(gmod, weights):
    """rank of e_nu applied to each grade piece (grade, nu) -> rank."""
    mod = gmod.module
    out = {}
    for nu in weights.X:
        # e_nu M: the nonzero columns of e_nu's action
        img = [dict(col) for col in mod.act_matrix(weights.idempotents[nu])
               if col]
        for m in range(gmod.top_grade + 1):
            out[(m, nu)] = gmod.grade_part_rank(img, m)
    return out


# ---------------------------------------------------------------------------
# the main theorem suite
# ---------------------------------------------------------------------------

def thm_417_suite(alg: StructureAlgebra) -> SuiteResult:
    """End-to-end verification: hypotheses, then the graded quasi-heredity
    conclusion certified independently and compared gradewise."""
    res = SuiteResult("thm417")
    w = alg.weights
    if w is None:
        res.hypotheses["weight_datum"] = False
        return res.finalize()
    cert = certify.certify_qha(alg)
    res.hypotheses["base_is_split_qha"] = cert.ok
    res.notes["base_chain"] = [tuple(map(str, s.labels)) for s in cert.steps]
    if not cert.ok:
        res.notes["base_failure"] = cert.failure
        return res.finalize()
    res.hypotheses["checker_agrees"] = certify.verify_chain(alg, cert)
    ls = is_lambda_standard(alg)
    res.hypotheses["lambda_standard"] = ls["ok"]
    if not ls["ok"]:
        res.notes["lambda_failures"] = ls["failures"]
        return res.finalize()
    # Hypothesis: gr(A_K) is a QHA with the same poset and standard modules
    # gr Delta_K(lam)
    ak = alg.base_change("K")
    grk = gr_algebra(ak)
    try:
        certk = certify.certify_qha(grk.algebra)
        res.hypotheses["grK_is_qha"] = certk.ok
    except AlgebraError as exc:
        res.hypotheses["grK_is_qha"] = False
        res.notes["grK_failure"] = str(exc)
        return res.finalize()
    if not certk.ok:
        res.notes["grK_failure"] = certk.failure
        return res.finalize()
    grk_std_match = True
    for lam in w.Lambda:
        gr_of_d = gr_module(grk, standard_module(ak, lam))
        if standard_iso(gr_of_d.module, lam) is None:
            grk_std_match = False
            res.notes.setdefault("grK_std_mismatch", []).append(str(lam))
    res.hypotheses["grK_standards_are_gr_deltas"] = grk_std_match
    # Hypothesis: every gr Delta(lam) has a simple head over k
    gr = gr_algebra(alg)
    sp = standard_and_projectives(alg)
    _, gradk, gsimples_k = graded_head_context(gr)
    # gr Delta(lam), built once for the heads and the conclusion
    gr_deltas = {lam: gr_module(gr, sp[lam]["Delta"]) for lam in w.Lambda}
    heads_ok = True
    for lam, gd in gr_deltas.items():
        info = head_info(gd.module.base_change("k"), gradk, gsimples_k)
        if not (info["is_simple"] and info["label"] == lam):
            heads_ok = False
            res.notes.setdefault("non_simple_gr_delta_heads", []).append(str(lam))
    res.hypotheses["gr_delta_simple_heads"] = heads_ok
    if not res.hypotheses_ok:
        return res.finalize()
    # Conclusion: gr A is a split QHA with standard modules gr Delta(lam)
    gcert = certify.certify_qha(gr.algebra)
    res.conclusions["gr_certified_qha"] = gcert.ok
    if gcert.ok:
        res.conclusions["gr_checker_agrees"] = certify.verify_chain(gr.algebra, gcert)
        match = True
        for lam, gr_delta in gr_deltas.items():
            if standard_iso(gr_delta.module, lam) is None:
                match = False
                res.notes.setdefault("gr_std_mismatch", []).append(str(lam))
                continue
            # gradewise rank comparison per weight
            t1 = _nonzero(_graded_piece_weight_ranks(gr_delta,
                                                     gr.algebra.weights))
            if _nonzero(_grading_of_standard(gr, lam)) != t1:
                match = False
                res.notes.setdefault("gr_std_grade_mismatch", []).append(str(lam))
        res.conclusions["gr_standards_match_gradewise"] = match
    else:
        res.notes["gr_failure"] = gcert.failure
    return res.finalize()


def _grading_of_standard(gr: GradedAlgebra, lam):
    """(grade, weight) -> rank table of the standard module of gr A.

    The standard module of the graded algebra is the graded quotient P'/T,
    where P' = (gr A) e_lam and T is its truncation submodule; both are graded
    sublattices of the graded coordinate space (e_lam is homogeneous of grade
    zero and the truncation is generated by weight spaces, hence graded).  The
    rank of a graded sublattice in each grade is the rank of its projection,
    so the table sums to rank P' - rank T; InternalCheckError if it does not.
    """
    galg = gr.algebra
    w = galg.weights
    reg = regular_module(galg)
    # the b_i e_lam: the columns of right multiplication by e_lam
    p_rows = [dict(c) for c in galg.right_mult_of(w.idempotents[lam]) if c]
    e_acts = {nu: reg.act_matrix(w.idempotents[nu]) for nu in w.X}
    t_sub = reg.submodule_generated(
        [linalg.apply(e_acts[nu], r) for nu in w.Lambda
         if nu not in w.ideal_below(lam) for r in p_rows])
    table = {}
    top = gr.top_grade
    for nu in w.X:
        ep = [linalg.apply(e_acts[nu], r) for r in p_rows]
        et = [linalg.apply(e_acts[nu], r) for r in t_sub.rows]
        for m in range(top + 1):
            table[(m, nu)] = (gr.grade_part_rank(ep, m)
                              - gr.grade_part_rank(et, m))
    if sum(table.values()) != weight_projective(galg, lam).rank - t_sub.rank:
        raise InternalCheckError(
            f"grade table of the standard module at {lam!r} does not sum "
            "to its rank")
    return table


# ---------------------------------------------------------------------------
# truncation commutes with gr (integral corollary)
# ---------------------------------------------------------------------------

def cor_416_check(alg: StructureAlgebra, mod: ModuleRep, gamma) -> SuiteResult:
    """gr(N_Gamma) vs (gr N)_Gamma: gradewise ranks, and `explicit_iso`:
    the natural map (gr N)_Gamma -> gr(N_Gamma) is an isomorphism.

    Hypotheses: N has a verified Delta-filtration and every gr Delta(nu) with
    [N : Delta(nu)] != 0 has a simple head.
    """
    res = SuiteResult("cor416")
    w = alg.weights
    gamma = tuple(gamma)
    res.hypotheses["gamma_is_ideal"] = w.is_ideal(gamma)
    if not res.hypotheses["gamma_is_ideal"]:
        return res.finalize()
    try:
        stages = delta_filtration(mod)
        res.hypotheses["delta_filtration"] = True
        res.notes["sections"] = section_multiset(stages)
    except FiltrationFailure as exc:
        res.hypotheses["delta_filtration"] = False
        res.notes["filtration_failure"] = str(exc)
        return res.finalize()
    gr = gr_algebra(alg)
    _, gradk, gsimples_k = graded_head_context(gr)
    heads_ok = True
    for nu, count in res.notes["sections"].items():
        if not count:
            continue
        gd = gr_module(gr, standard_module(alg, nu))
        info = head_info(gd.module.base_change("k"), gradk, gsimples_k)
        if not info["is_simple"]:
            heads_ok = False
    res.hypotheses["gr_delta_simple_heads"] = heads_ok
    if not res.hypotheses_ok:
        return res.finalize()
    grn = gr_module(gr, mod)
    gr_of_trunc, torsion, torsion2, iso, killed = _natural_truncation_iso(
        grn, gamma)
    res.notes["truncation_torsion"] = torsion
    res.notes["graded_truncation_torsion"] = torsion2
    res.conclusions["both_torsion_free"] = not torsion and not torsion2
    # gradewise ranks: of gr(N_Gamma) from its gr structure, of (gr N)_Gamma
    # from the graded sublattice structure of the killed submodule
    t1 = gr_of_trunc.grade_ranks()
    t2 = tuple(grn.grade_rank(m) - grn.grade_part_rank(killed.rows, m)
               for m in range(grn.top_grade + 1))
    top = max(len(t1), len(t2))
    tab1, tab2 = (t + (0,) * (top - len(t)) for t in (t1, t2))
    res.conclusions["gradewise_ranks_equal"] = tab1 == tab2
    res.notes["ranks"] = {"gr_of_truncation": tab1, "truncation_of_gr": tab2}
    res.conclusions["explicit_iso"] = iso is not None
    # Remark: ungraded section multisets agree between the plain and graded
    # Delta-filtrations
    try:
        gstages = forced.gr_delta_filtration(grn)
        res.conclusions["section_multisets_agree"] = (
            section_multiset(gstages) == res.notes["sections"])
        res.notes["graded_sections"] = [
            (str(s.label), s.copies, s.shift, s.kind) for s in gstages]
        res.conclusions["all_sections_standard"] = all(
            s.kind == "standard" for s in gstages)
    except FiltrationFailure as exc:
        res.conclusions["section_multisets_agree"] = False
        res.notes["graded_filtration_failure"] = str(exc)
    return res.finalize()


def _natural_truncation_iso(grn, gamma):
    """(gr(N_Gamma), torsion of N_Gamma, torsion of (gr N)_Gamma, iso,
    killed) for grn = gr N: iso is the natural map (gr N)_Gamma ->
    gr(N_Gamma) if it is an isomorphism, else None, and killed is the
    submodule of gr N that the truncation kills, before its pure closure.
    N -> N_Gamma maps rad^g N into rad^g N_Gamma, so the map sends the
    projected grade-g basis element of gr N to the grade-g component of its
    projected lift."""
    n_gamma, torsion, project, _ = truncate_to_ideal(grn.base_module, gamma)
    gr_of_trunc = gr_module(grn.gralg, n_gamma)
    trunc_of_gr, torsion2, project_gr, killed = truncate_to_ideal(
        grn.module, gamma)
    gens = [project_gr(grn.module.basis_vec(i)) for i in range(grn.module.rank)]
    images = [gr_of_trunc.component(project(lift), g)
              for lift, g in zip(grn.lifts, grn.grades)]
    iso = iso_with_generator_images(trunc_of_gr, gr_of_trunc.module, gens,
                                    images)
    return gr_of_trunc, torsion, torsion2, iso, killed


# ---------------------------------------------------------------------------
# field case (appendix): gr of truncated PIMs stays projective indecomposable
# ---------------------------------------------------------------------------

def field_case_suite(alg_field: StructureAlgebra, gamma,
                     extra_modules=None) -> SuiteResult:
    """For a field QHA B with gr B a QHA: gr(P(gamma)_Gamma) is a PIM of
    (gr B)_Gamma, gr Delta(lam) is the standard module of gr B, and
    (gr M)_Gamma = gr(M_Gamma) through the natural map for supplied
    Delta-filtered M."""
    res = SuiteResult("field_case")
    if alg_field.level == "O":
        raise AlgebraError("field_case_suite expects a field-level algebra")
    w = alg_field.weights
    gamma = tuple(gamma)
    res.hypotheses["gamma_is_ideal"] = w.is_ideal(gamma)
    cert = certify.certify_qha(alg_field)
    res.hypotheses["B_is_qha"] = cert.ok
    gr = gr_algebra(alg_field)
    gcert = certify.certify_qha(gr.algebra)
    res.hypotheses["grB_is_qha"] = gcert.ok
    if not res.hypotheses_ok:
        return res.finalize()
    # gr Delta(lam) is the standard module of gr B
    std_ok = True
    for lam in w.Lambda:
        gr_of_d = gr_module(gr, standard_module(alg_field, lam))
        if standard_iso(gr_of_d.module, lam) is None:
            std_ok = False
            res.notes.setdefault("std_mismatch", []).append(str(lam))
    res.conclusions["gr_deltas_standard"] = std_ok
    # gr(P(g)_Gamma) is a PIM for (gr B)_Gamma: (gr B)_Gamma e_g -> it,
    # e_g -> the symbol of e_g, is onto (gr M is generated in degree 0), so
    # it is an isomorphism iff the ranks agree
    pim_ok = True
    # the truncated graded algebra (gr B)_Gamma and lifts of its basis
    galg_gamma, lifts = gr.algebra.quotient_by_labels(
        [nu for nu in w.Lambda if nu not in gamma])
    for g in gamma:
        p_gamma, _, project, _ = truncate_to_ideal(
            weight_projective(alg_field, g), gamma)
        gr_pg = gr_module(gr, p_gamma)
        # gr_pg is killed by the truncation ideal, so (gr B)_Gamma acts on it
        # through the lifts
        ungraded = ModuleRep(galg_gamma, gr_pg.module.rank,
                             [gr_pg.module.act_matrix(x) for x in lifts])
        image = gr_pg.symbol(project(_projective_generator(alg_field, g)))
        if iso_with_generator_images(
                weight_projective(galg_gamma, g), ungraded,
                [_projective_generator(galg_gamma, g)], [image]) is None:
            pim_ok = False
            res.notes.setdefault("pim_mismatch", []).append(str(g))
    res.conclusions["gr_truncated_pims"] = pim_ok
    # Cor 7.2 for supplied modules
    if extra_modules:
        eq_ok = True
        for name, m in extra_modules:
            if _natural_truncation_iso(gr_module(gr, m), gamma)[3] is None:
                eq_ok = False
                res.notes.setdefault("cor72_mismatch", []).append(str(name))
        res.conclusions["truncation_commutes"] = eq_ok
    return res.finalize()


def _projective_generator(alg: StructureAlgebra, g):
    """e_g in the coordinates of weight_projective(alg, g), the span of the
    b_i e_g."""
    e = list(alg.weights.idempotents[g])
    return alg.left_ideal([e]).coords(e)
