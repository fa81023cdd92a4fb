import hashlib
import json

import pytest

from grforge import files, fixtures, modules, suites
from grforge.scalars import InternalCheckError


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (d, p) -> sha256 of the document and of the thm417 report's stable portion.
# qschur(2,5) was pinned before the integer-vector Cyc kernel replaced the
# Fraction one; qschur(3,3) before the sparse rref and mat_vec and the int
# F_3 charpoly, since it runs both F_3 Friedl-Ronyai stages.
QSCHUR_GOLDEN = {
    (2, 5): ("c476d26fcfa889dfbcd1fe796dd7c87d4a2ceba40dda8575cf37026ade78d891",
             "52523f486bdaeaa2e123bf6e46599f00952a4edbbb9e0bf11967305462e54b66"),
    (3, 3): ("8916bed240d39349fe1c568b87017d498a7e2fa7f9d109c05fbd4b39e9b9752f",
             "2be19a4168dfac9a25a3388ebf1cf72bc4ace58b81b67e8972336958a2711fb7"),
}


# (d, p) -> sha256 of the document alone, for the builds too large to run
# the suite on in a unit test; pinned before the builder was rewritten on
# closed-form divided powers.
QSCHUR_DOC_PINS = {
    (4, 3): "80d353a5ee9d56b47aabac895c957c744bd4ce92f86105b4ecf5d47caa037bd1",
    (4, 5): "20ba1799f93a1d1a1dae9b3b2ecaa3d12eca615b65ebc09bee109fdbaccf5207",
    (5, 3): "b8e6f26d41138df6f8e40578c4359d9fb4769ef97c441cbdafafce8202760672",
}


@pytest.mark.parametrize("d, p", sorted(QSCHUR_DOC_PINS))
def test_qschur_document_pins(d, p):
    doc = files.algebra_to_doc(fixtures.build_qschur(d, p))
    assert _sha256(json.dumps(doc, sort_keys=True)) == QSCHUR_DOC_PINS[(d, p)]


def test_qschur_golden_digests():
    # the document and the report's stable portion must stay byte-identical
    for (d, p), (doc_digest, report_digest) in QSCHUR_GOLDEN.items():
        alg = fixtures.build_qschur(d, p)
        doc = files.algebra_to_doc(alg)
        assert _sha256(json.dumps(doc, sort_keys=True)) == doc_digest
        res = suites.thm_417_suite(alg)
        report = files.suite_report(
            "thm417", f"qschur-n2-d{d}@{p}",
            {"hypotheses": res.hypotheses, "conclusions": res.conclusions,
             "falsification": not res.falsification},
            res.notes, input_hash="")
        assert _sha256(files.canonical_json(files.stable_portion(report))) \
            == report_digest


class TestThm417:
    def test_z5_passes_end_to_end(self, z5):
        res = suites.thm_417_suite(z5)
        assert res.hypotheses_ok
        assert all(res.conclusions.values())
        assert not res.falsification

    def test_z5s_hypotheses_fail_cleanly(self, z5s):
        res = suites.thm_417_suite(z5s)
        assert res.hypotheses["base_is_split_qha"] is False
        assert not res.falsification
        assert res.conclusions == {}

    def test_qschur_nontrivial(self, qschur33):
        res = suites.thm_417_suite(qschur33)
        assert res.hypotheses_ok, res.hypotheses
        assert all(res.conclusions.values()), res.conclusions
        assert not res.falsification

    def test_grade_table_that_misses_rank_raises(self, monkeypatch):
        # a graded truncation always satisfies the sum identity, so a table
        # that breaks it is an internal fault, not a skipped comparison
        from grforge import graded

        monkeypatch.setattr(graded.GradedAlgebra, "grade_part_rank",
                            lambda self, rows, m: 0)
        with pytest.raises(InternalCheckError):
            suites.thm_417_suite(fixtures.build_z5(3))


class TestCor416:
    def test_p1_truncations(self, z5, sp_z5):
        res = suites.cor_416_check(z5, sp_z5["1"]["P"], ("1",))
        assert res.hypotheses_ok
        assert res.conclusions["gradewise_ranks_equal"]
        assert res.conclusions["explicit_iso"]
        assert res.conclusions["section_multisets_agree"]
        assert res.notes["ranks"]["gr_of_truncation"] == (1, 0, 0)

    def test_gamma_equals_lambda(self, z5, sp_z5):
        res = suites.cor_416_check(z5, sp_z5["1"]["P"], ("1", "2"))
        assert res.conclusions["gradewise_ranks_equal"]
        assert res.conclusions["explicit_iso"]

    def test_delta2_truncates_to_zero(self, z5, sp_z5):
        res = suites.cor_416_check(z5, sp_z5["2"]["Delta"], ("1",))
        assert res.conclusions["gradewise_ranks_equal"]

    def test_regular_module(self, z5):
        res = suites.cor_416_check(z5, modules.regular_module(z5), ("1",))
        assert res.hypotheses_ok and res.conclusions["gradewise_ranks_equal"]
        assert res.conclusions["section_multisets_agree"]

    def test_non_ideal_reported(self, z5, sp_z5):
        res = suites.cor_416_check(z5, sp_z5["1"]["P"], ("2",))
        assert res.hypotheses["gamma_is_ideal"] is False

    def test_input_module_is_graded_once(self, z5, monkeypatch):
        from grforge import forced, graded

        mod = modules.regular_module(z5)
        gr_builds, chains = [], []
        gr_module = graded.gr_module
        module_rad_chain = graded.module_rad_chain

        def counted_gr(gralg, m):
            gr_builds.append(m)
            return gr_module(gralg, m)

        def counted_chain(m):
            chains.append(m)
            return module_rad_chain(m)

        for ns in (suites, forced):
            monkeypatch.setattr(ns, "gr_module", counted_gr)
        for ns in (graded, forced):
            monkeypatch.setattr(ns, "module_rad_chain", counted_chain)
        res = suites.cor_416_check(z5, mod, ("1",))
        assert res.conclusions["section_multisets_agree"]
        # gr N and its radical chain serve the suite and the first stage of
        # the graded Delta-filtration
        assert sum(m is mod for m in gr_builds) == 1
        assert sum(m is mod for m in chains) == 1


# Delta(1)^3 and Delta(2)^2: the direct sums that cor_416_check and, over K
# and k, field_case_suite reported as falsifications while the iso came from
# a search of the hom space (the identity of S^n is a sum of singular basis
# maps)
DIRECT_SUMS = [("1", 3), ("2", 2)]


@pytest.mark.parametrize("lam,copies", DIRECT_SUMS)
@pytest.mark.parametrize("gamma", [("1",), ("1", "2")])
def test_cor416_direct_sums(z5, sp_z5, lam, copies, gamma):
    mod = modules.direct_sum_module(sp_z5[lam]["Delta"], copies)
    res = suites.cor_416_check(z5, mod, gamma)
    assert res.hypotheses_ok
    assert res.conclusions["explicit_iso"]
    assert not res.falsification


class TestFieldCase:
    @pytest.mark.parametrize("level", ["k", "K"])
    def test_z5_every_proper_ideal(self, z5, level):
        b = z5.base_change(level)
        sp = modules.standard_and_projectives(b)
        extra = [(f"Delta({l})", sp[l]["Delta"]) for l in ("1", "2")]
        extra.append(("P(1)", sp["1"]["P"]))
        extra += [(f"Delta({l})^{n}",
                   modules.direct_sum_module(sp[l]["Delta"], n))
                  for l, n in DIRECT_SUMS]
        for gamma in [("1",), ("1", "2")]:
            res = suites.field_case_suite(b, gamma, extra_modules=extra)
            assert res.hypotheses_ok
            assert all(res.conclusions.values()), (level, gamma, res.conclusions)
            assert not res.falsification

    def test_qschur_base_changes(self, qschur33):
        for level in ("k", "K"):
            b = qschur33.base_change(level)
            sp = modules.standard_and_projectives(b)
            extra = [(f"Delta({l})", sp[l]["Delta"])
                     for l in b.weights.Lambda]
            res = suites.field_case_suite(b, ("2,1",), extra_modules=extra)
            assert res.hypotheses_ok, res.hypotheses
            assert all(res.conclusions.values()), (level, res.conclusions)


class TestThm55Composite:
    def test_truncated_algebra_gr_certifies(self, z5):
        # when the tightness-transfer hypotheses hold for all weights of an
        # ideal, gr of the truncated algebra is again certified QHA with the
        # expected standard modules
        from grforge import certify, graded, tightness

        rows = [z5.basis_vec(i) for i in range(5)]
        datum = tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 2))
        for gamma in [("1",), ("1", "2")]:
            for lam in gamma:
                res = tightness.thm_53_pipeline(
                    z5, datum, lam, delta_gradings={"1": [0], "2": [0, 1]})
                assert res.hypotheses_ok and res.ok
            trunc, _ = z5.quotient_by_labels(
                [nu for nu in z5.weights.Lambda if nu not in gamma])
            gr_t = graded.gr_algebra(trunc)
            cert = certify.certify_qha(gr_t.algebra)
            assert cert.ok, gamma
            spt = modules.standard_and_projectives(trunc)
            for lam in gamma:
                gr_d = graded.gr_module(gr_t, spt[lam]["Delta"])
                assert modules.standard_iso(gr_d.module, lam) is not None, \
                    (gamma, lam)
