"""Acceptance suite: one criterion per test, exact tolerances, timed budgets.

Each test prints a single PASS line (the assertion fails loudly otherwise),
mirroring the workbench's exit criteria.  Budgets are wall-clock upper
bounds; every numeric comparison is exact.
"""

import random
import time

import pytest
from dense_reference import dense_rows, vec
from paper_checks import unit_u_alpha

from grforge import (
    certify,
    cyclo,
    fixtures,
    forced,
    graded,
    modules,
    radicals,
    randomized,
    suites,
    tightness,
)
from grforge.lattices import Lattice, is_pure, pure_closure
from grforge.scalars import CYCLOTOMIC, RATIONAL, RingSpec


def _report(n, text, t0, budget):
    dt = time.time() - t0
    assert dt < budget, f"criterion {n} exceeded budget: {dt:.1f}s >= {budget}s"
    print(f"criterion {n}: PASS ({dt:.1f}s) {text}")


# -- 1: lattice kernel ---------------------------------------------------------

def test_criterion_1_lattice_kernel():
    t0 = time.time()
    rng = random.Random(20260810)
    rings = [RingSpec(RATIONAL, 3), RingSpec(RATIONAL, 5),
             RingSpec(CYCLOTOMIC, 3)]
    trials = 0
    while trials < 1000:
        ring = rings[trials % len(rings)]
        amb = rng.randint(1, 6)
        m_rows = [[ring.of(rng.randint(-6, 6)) for _ in range(amb)]
                  for _ in range(rng.randint(1, amb))]
        m = Lattice.from_rows(ring, amb, [vec(r) for r in m_rows])
        if m.rank == 0:
            continue
        n_rows = []
        for _ in range(rng.randint(0, m.rank)):
            v = [ring.zero()] * amb
            for r in dense_rows(m.rows, amb, ring.zero()):
                c = rng.randint(-3, 3)
                if rng.random() < 0.4:
                    c *= ring.p
                if c:
                    for t in range(amb):
                        v[t] = v[t] + ring.of(c) * r[t]
            n_rows.append(v)
        n = Lattice.from_rows(ring, amb, [vec(r) for r in n_rows])
        # purity: route (a) vs route (b) agreement is asserted inside
        is_pure(n, m)
        # pure_closure idempotent
        once = pure_closure(n, m)
        assert pure_closure(once, m) == once
        assert once.rank == n.rank
        trials += 1
    # intersection against the brute-force oracle at ambient rank <= 3
    from test_lattices import brute_members, det_val, inline_member

    checked = 0
    for p, ring in [(3, RingSpec(RATIONAL, 3)), (5, RingSpec(RATIONAL, 5))]:
        for trial in range(20):
            amb = rng.randint(1, 3)
            rows1 = [[ring.of(rng.randint(-p * p, p * p)) for _ in range(amb)]
                     for _ in range(amb)]
            rows2 = [[ring.of(rng.randint(-p * p, p * p)) for _ in range(amb)]
                     for _ in range(amb)]
            l1 = Lattice.from_rows(ring, amb, [vec(r) for r in rows1])
            l2 = Lattice.from_rows(ring, amb, [vec(r) for r in rows2])
            got = l1.intersection(l2)
            for row in dense_rows(got.rows, amb, ring.zero()):
                assert inline_member(ring, l1, row)
                assert inline_member(ring, l2, row)
            for v in brute_members(ring, l1, l2, bound=3):
                assert got.contains_vector(vec(v))
            if l1.rank == amb and l2.rank == amb:
                t = l1.add(l2)
                assert det_val(ring, got) == det_val(ring, l1) + \
                    det_val(ring, l2) - det_val(ring, t)
                checked += 1
    _report(1, f"1000 purity pairs, {checked} exact-index intersections",
            t0, 30)


# -- 2: zigzag controls ----------------------------------------------------------

def test_criterion_2_zigzag_controls():
    t0 = time.time()
    z5 = fixtures.build_z5(3)
    cert = certify.certify_qha(z5)
    assert cert.ok and len(cert.steps) == 2
    sp = modules.standard_and_projectives(z5)
    assert {l: sp[l]["Delta"].rank for l in ("1", "2")} == {"1": 1, "2": 2}
    gr = graded.gr_algebra(z5)
    assert gr.grade_ranks() == (2, 2, 1)
    gcert = certify.certify_qha(gr.algebra)
    assert gcert.ok
    res = suites.thm_417_suite(z5)
    assert res.hypotheses_ok and all(res.conclusions.values())
    assert not res.falsification
    z5s = fixtures.build_z5s(3)
    bad = certify.certify_qha(z5s)
    assert not bad.ok
    step = bad.steps[0]
    assert step.labels == ("2",)
    assert step.verdicts["free_quotient"] is False
    assert step.detail["torsion"] == [1]  # the pi-torsion above gamma
    _report(2, "positive and negative controls", t0, 5)


# -- 3: main theorem cross-validation on the q-Schur grid -----------------------

def test_criterion_3_qschur_theorem_grid():
    t0 = time.time()
    outcomes = []
    for d, p in [(2, 3), (3, 3), (4, 3), (2, 5), (3, 5), (4, 5)]:
        alg = fixtures.build_qschur(d, p)
        res = suites.thm_417_suite(alg)
        assert not res.falsification, (d, p, res.conclusions, res.notes)
        assert res.hypotheses_ok, (d, p, res.hypotheses)
        assert all(res.conclusions.values()), (d, p, res.conclusions)
        outcomes.append((d, p))
    _report(3, f"zero falsification events on {outcomes}", t0, 600)


# -- 4: the tightness equivalences -----------------------------------------------

def test_criterion_4_prop52_equivalences():
    t0 = time.time()
    for p in (3, 5):
        z5 = fixtures.build_z5(p)
        rows = [z5.basis_vec(i) for i in range(5)]
        datum = tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 2))
        stats = randomized.prop52_campaign(z5, datum, trials=100,
                                           seed=1000 + p)
        assert stats["disagreements"] == 0, stats
        assert stats["tight"] and stats["not_tight"], stats
        conds, notes = tightness.conditions_51_check(
            z5, datum, {"1": [0], "2": [0, 1]})
        assert conds["c1_tight_grading"] and conds["c5_integral_grading"], notes
    _report(4, "100 draws per fixture, verdicts (i)=(ii)=(iii); symbol map "
               "is a graded isomorphism when (1)&(5) hold", t0, 60)


# -- 5: primitivity implication ---------------------------------------------------

def test_criterion_5_primitivity():
    t0 = time.time()
    total = {"trials": 0, "implication_violations": 0,
             "maximality_violations": 0, "primitive": 0}
    plan = [(fixtures.build_z5(3), 500), (fixtures.build_z5(5), 300),
            (fixtures.build_qschur(2, 3), 200)]
    for alg, trials in plan:
        sp = modules.standard_and_projectives(alg)
        mods = []
        for lam in alg.weights.Lambda:
            mods.extend([sp[lam]["P"], sp[lam]["Delta"]])
        stats = randomized.primitivity_campaign(alg, mods, trials,
                                                seed=555)
        for k in total:
            total[k] += stats.get(k, 0)
    assert total["trials"] >= 1000
    assert total["implication_violations"] == 0
    assert total["maximality_violations"] == 0
    _report(5, f"{total['trials']} vectors, {total['primitive']} primitive, "
               "zero exceptions", t0, 60)


# -- 6: truncation commutes with gr ----------------------------------------------

def test_criterion_6_cor416_and_multisets():
    t0 = time.time()
    z5 = fixtures.build_z5(3)
    sp = modules.standard_and_projectives(z5)
    z5_mods = [sp["1"]["P"], sp["2"]["P"], sp["2"]["Delta"],
               modules.regular_module(z5),
               modules.direct_sum_module(sp["2"]["Delta"], 2)]
    gammas_z5 = [("1",), ("1", "2")]
    checked = 0
    for mod in z5_mods:
        for gamma in gammas_z5:
            res = suites.cor_416_check(z5, mod, gamma)
            assert res.hypotheses_ok, (mod.name, gamma, res.hypotheses)
            assert all(res.conclusions.values()), \
                (mod.name, gamma, res.conclusions, res.notes)
            checked += 1
    q = fixtures.build_qschur(3, 3)
    spq = modules.standard_and_projectives(q)
    for lam in q.weights.Lambda:
        for gamma in [("2,1",), ("2,1", "3,0")]:
            res = suites.cor_416_check(q, spq[lam]["P"], gamma)
            assert res.hypotheses_ok, (lam, gamma, res.hypotheses)
            assert all(res.conclusions.values()), \
                (lam, gamma, res.conclusions, res.notes)
            checked += 1
    _report(6, f"{checked} module/ideal combinations, gradewise ranks with "
               "explicit isomorphisms, matching section multisets", t0, 60)


# -- 7: tightness transfer pipeline -----------------------------------------------

def test_criterion_7_thm53_pipeline():
    t0 = time.time()
    z5 = fixtures.build_z5(3)
    rows = [z5.basis_vec(i) for i in range(5)]
    datum = tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 2))
    for lam in ("1", "2"):
        res = tightness.thm_53_pipeline(z5, datum, lam,
                                        delta_gradings={"1": [0], "2": [0, 1]})
        assert res.hypotheses_ok, (lam, res.hypotheses)
        assert res.conclusions["delta_tight"], lam
        assert res.conclusions["gr_delta_head_simple"], lam
        assert not res.falsification
    # a semisimple q-Schur fixture supplies a dagger lattice for every weight
    q = fixtures.build_qschur(2, 3)
    spq = modules.standard_and_projectives(q)
    idem_rows = [q.weights.idempotents[nu] for nu in q.weights.X]
    qdatum = tightness.GradedSubalgebraDatum(
        idem_rows, tuple(0 for _ in idem_rows))
    dg = {lam: [0] * spq[lam]["Delta"].rank for lam in q.weights.Lambda}
    for lam in q.weights.Lambda:
        dag = spq[lam]["Delta"]
        res = tightness.thm_53_pipeline(
            q, qdatum, lam, dagger=dag,
            p0_rows=[dag.basis_vec(i) for i in range(dag.rank)],
            delta_gradings=dg)
        assert res.hypotheses_ok, (lam, res.hypotheses, res.notes)
        assert res.conclusions["delta_tight"], lam
        assert res.conclusions["gr_delta_head_simple"], lam
        assert not res.falsification
    _report(7, "zigzag both weights plus semisimple q-Schur daggers, "
               "zero divergences", t0, 60)


# -- 8: cyclotomic scalar identities ----------------------------------------------

def test_criterion_8_cyclotomic_scalars():
    t0 = time.time()
    count = 0
    for p in (3, 5, 7):
        for d in (1, 2, 3):
            if d % p == 0:
                with pytest.raises(cyclo.CycloError):
                    unit_u_alpha(p, d)
                continue
            u, is_u, res = unit_u_alpha(p, d)
            assert is_u and res == d
            count += 1
        ring = RingSpec(CYCLOTOMIC, p)
        x = ring.of(p)
        pi = ring.uniformizer
        for _ in range(p - 1):
            x = x / pi
        assert ring.valuation(x) == 0
    _report(8, f"{count} unit identities and p = unit*(zeta-1)^(p-1) for "
               "p in {3,5,7}", t0, 5)


# -- 9: the deformation identity grid ----------------------------------------------

def test_criterion_9_appendix_identity_grid():
    t0 = time.time()
    grid = [(p, t) for p in (3, 5, 7) for t in ("A1", "A2", "B2")]
    grid += [(5, "G2"), (7, "G2")]
    for p, label in grid:
        rd = cyclo.RootDatum.of_type(label)
        verdicts = cyclo.appendix_identity_suite(rd, p, order=8)
        bad = {k: v for k, v in verdicts.items() if not v}
        assert not bad, (p, label, bad)
        for i in range(rd.rank):
            assert cyclo.comult_check(rd, i, p, order=8), (p, label, i)
    _report(9, f"items (1)-(6) and comultiplication on {len(grid)} grid "
               "points at order 8", t0, 120)


# -- 10: field-case suite ------------------------------------------------------------

def test_criterion_10_field_case():
    t0 = time.time()
    z5 = fixtures.build_z5(3)
    q = fixtures.build_qschur(3, 3)
    jobs = [(z5, [("1",), ("1", "2")]), (q, [("2,1",), ("2,1", "3,0")])]
    checked = 0
    for alg, gammas in jobs:
        for level in ("k", "K"):
            b = alg.base_change(level)
            sp = modules.standard_and_projectives(b)
            extra = [(f"Delta({l})", sp[l]["Delta"]) for l in b.weights.Lambda]
            for gamma in gammas:
                res = suites.field_case_suite(b, gamma, extra_modules=extra)
                assert res.hypotheses_ok, (level, gamma, res.hypotheses)
                assert all(res.conclusions.values()), \
                    (level, gamma, res.conclusions, res.notes)
                checked += 1
    _report(10, f"{checked} (field, ideal) combinations", t0, 60)


# -- 11: weight-algebra transport -----------------------------------------------------

def test_criterion_11_lambda_standard_transport():
    t0 = time.time()
    algs = [fixtures.build_z5(3), fixtures.build_z5s(3),
            fixtures.build_qschur(2, 3), fixtures.build_qschur(3, 3)]
    for alg in algs:
        a = modules.is_lambda_standard(alg)["ok"]
        gr = graded.gr_algebra(alg)
        b = modules.is_lambda_standard(gr.algebra)["ok"]
        assert a == b, (alg.rank, a, b)
    _report(11, f"verdicts agree on {len(algs)} weighted fixtures", t0, 30)
