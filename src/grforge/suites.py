"""Theorem verification suites: the main graded quasi-heredity theorem, the
truncation-commutes-with-gr corollary, and the field-case appendix.

Every suite separates hypothesis verdicts from conclusion verdicts.  A
falsification event is a run where all hypothesis checks pass and a conclusion
check fails; suites report it rather than raising, so the caller decides the
exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import certify, forced, radicals
from .algebra import AlgebraError, StructureAlgebra
from .graded import GradedAlgebra, gr_algebra, gr_module
from .modules import (
    FiltrationFailure,
    ModuleRep,
    delta_filtration,
    find_iso,
    head_info,
    is_lambda_standard,
    regular_module,
    section_multiset,
    standard_and_projectives,
    standard_module,
    truncate_to_ideal,
    weight_projective,
    weight_simples,
)


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
        e = list(weights.idempotents[nu])
        img = [mod.act(e, mod.basis_vec(i)) for i in range(mod.rank)]
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
        d_of_gr = standard_module(grk.algebra, lam)
        delta_k = standard_module(ak, lam)
        gr_of_d = gr_module(grk, delta_k)
        if find_iso(d_of_gr, gr_of_d.module) is None:
            grk_std_match = False
            res.notes.setdefault("grK_std_mismatch", []).append(str(lam))
    res.hypotheses["grK_standards_are_gr_deltas"] = grk_std_match
    # Hypothesis: every gr Delta(lam) has a simple head over k
    gr = gr_algebra(alg)
    sp = standard_and_projectives(alg)
    _, gradk, gsimples_k = graded_head_context(gr)
    heads_ok = True
    for lam in w.Lambda:
        gd = gr_module(gr, sp[lam]["Delta"])
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
        for lam in w.Lambda:
            std_gr = standard_module(gr.algebra, lam)
            gr_delta = gr_module(gr, sp[lam]["Delta"])
            if find_iso(std_gr, gr_delta.module) is None:
                match = False
                res.notes.setdefault("gr_std_mismatch", []).append(str(lam))
                continue
            # gradewise rank comparison per weight
            t1 = _nonzero(_graded_piece_weight_ranks(gr_delta,
                                                     gr.algebra.weights))
            std_graded = _grading_of_standard(gr, lam)
            if std_graded is not None and _nonzero(std_graded) != t1:
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
    rank of a graded sublattice in each grade is the rank of its projection.
    """
    galg = gr.algebra
    w = galg.weights
    reg = regular_module(galg)
    e = list(w.idempotents[lam])
    p_rows = [reg.act(galg.basis_vec(i), e) for i in range(galg.rank)]
    kill = []
    pemod = weight_projective(galg, lam)
    for nu in w.Lambda:
        if nu not in w.ideal_below(lam):
            for r in _weight_rows_ambient(reg, galg, nu, p_rows):
                kill.append(r)
    t_sub = reg.submodule_generated(kill)
    table = {}
    top = gr.top_grade
    for nu in w.X:
        enu = list(w.idempotents[nu])
        for m in range(top + 1):
            pr = gr.grade_part_rank([reg.act(enu, list(r)) for r in p_rows], m)
            tr = gr.grade_part_rank([reg.act(enu, list(r)) for r in t_sub.rows],
                                    m)
            table[(m, nu)] = pr - tr
    if sum(table.values()) != pemod.rank - t_sub.rank:
        return None
    return table


def _weight_rows_ambient(reg, galg, nu, ambient_rows):
    e = list(galg.weights.idempotents[nu])
    return [reg.act(e, list(r)) for r in ambient_rows]


# ---------------------------------------------------------------------------
# truncation commutes with gr (integral corollary)
# ---------------------------------------------------------------------------

def cor_416_check(alg: StructureAlgebra, mod: ModuleRep, gamma) -> SuiteResult:
    """gr(N_Gamma) vs (gr N)_Gamma: gradewise ranks and an explicit iso.

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
    # side 1: gr of the truncation
    n_gamma, torsion, _ = truncate_to_ideal(mod, gamma)
    res.notes["truncation_torsion"] = torsion
    gr_of_trunc = gr_module(gr, n_gamma)
    # side 2: truncation of the gr module over the graded algebra
    grn = gr_module(gr, mod)
    trunc_of_gr, torsion2, _ = truncate_to_ideal(grn.module, gamma)
    res.notes["graded_truncation_torsion"] = torsion2
    res.conclusions["both_torsion_free"] = not torsion and not torsion2
    # gradewise ranks: grade table of side 1 from its gr structure; side 2
    # from the graded sublattice structure of the killed submodule
    t1 = {}
    for m in range(gr_of_trunc.top_grade + 1):
        t1[m] = gr_of_trunc.grade_rank(m)
    t2 = _truncation_grade_table(grn, gamma)
    top = max(max(t1, default=0), max(t2, default=0))
    tab1 = tuple(t1.get(m, 0) for m in range(top + 1))
    tab2 = tuple(t2.get(m, 0) for m in range(top + 1))
    res.conclusions["gradewise_ranks_equal"] = tab1 == tab2
    res.notes["ranks"] = {"gr_of_truncation": tab1, "truncation_of_gr": tab2}
    res.conclusions["explicit_iso"] = find_iso(
        gr_of_trunc.module, trunc_of_gr) is not None
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


def _truncation_grade_table(grn, gamma):
    """Grade ranks of (gr N)_Gamma from the graded killed sublattice."""
    galg = grn.gralg.algebra
    w = galg.weights
    mod = grn.module
    kill = []
    for nu in w.Lambda:
        if nu not in gamma:
            kill.extend(list(r) for r in mod.weight_space_rows(nu))
    sub = mod.submodule_generated(kill)
    out = {}
    for m in range(grn.top_grade + 1):
        out[m] = grn.grade_rank(m) - grn.grade_part_rank(sub.rows, m)
    return {m: r for m, r in out.items() if r or m <= grn.top_grade}


# ---------------------------------------------------------------------------
# field case (appendix): gr of truncated PIMs stays projective indecomposable
# ---------------------------------------------------------------------------

def field_case_suite(alg_field: StructureAlgebra, gamma,
                     extra_modules=None) -> SuiteResult:
    """For a field QHA B with gr B a QHA: gr(P(gamma)_Gamma) is a PIM of
    (gr B)_Gamma, gr Delta(lam) is the standard module of gr B, and
    (gr M)_Gamma = gr(M_Gamma) for supplied Delta-filtered M."""
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
        d_of_gr = standard_module(gr.algebra, lam)
        gr_of_d = gr_module(gr, standard_module(alg_field, lam))
        if find_iso(d_of_gr, gr_of_d.module) is None:
            std_ok = False
            res.notes.setdefault("std_mismatch", []).append(str(lam))
    res.conclusions["gr_deltas_standard"] = std_ok
    # gr(P(g)_Gamma) is a PIM for (gr B)_Gamma
    pim_ok = True
    rad_rows = radicals.radical_field(alg_field)
    simples = weight_simples(alg_field)
    # the truncated graded algebra (gr B)_Gamma and lifts of its basis
    galg_gamma, lifts = gr.algebra.quotient_by_labels(
        [nu for nu in w.Lambda if nu not in gamma])
    for g in gamma:
        p = weight_projective(alg_field, g)
        info = head_info(p, rad_rows, simples)
        p_gamma, _, _ = truncate_to_ideal(p, gamma)
        gr_pg = gr_module(gr, p_gamma)
        # gr_pg is killed by the truncation ideal, so (gr B)_Gamma acts on it
        # through the lifts
        ungraded = ModuleRep(galg_gamma, gr_pg.module.rank,
                             [gr_pg.module.act_matrix(list(x)) for x in lifts])
        target = weight_projective(galg_gamma, g)
        tgt_trunc, _, _ = truncate_to_ideal(target, gamma)
        if find_iso(ungraded, tgt_trunc) is None:
            pim_ok = False
            res.notes.setdefault("pim_mismatch", []).append(str(g))
    res.conclusions["gr_truncated_pims"] = pim_ok
    # Cor 7.2 for supplied modules
    if extra_modules:
        eq_ok = True
        for name, m in extra_modules:
            gr_of_t = gr_module(gr, truncate_to_ideal(m, gamma)[0])
            grm = gr_module(gr, m)
            t_of_gr, _, _ = truncate_to_ideal(grm.module, gamma)
            if find_iso(gr_of_t.module, t_of_gr) is None:
                eq_ok = False
                res.notes.setdefault("cor72_mismatch", []).append(str(name))
        res.conclusions["truncation_commutes"] = eq_ok
    return res.finalize()
