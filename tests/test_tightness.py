from fractions import Fraction as F

import pytest

from grforge import (fixtures, graded, linalg, modules, radicals, randomized,
                     tightness)
from grforge.algebra import StructureAlgebra
from grforge.lattices import Lattice


def path_datum(z5):
    rows = [z5.basis_vec(i) for i in range(5)]
    return tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 2))


DELTA_GRADINGS = {"1": [0], "2": [0, 1]}


class TestIsTight:
    def test_projectives_tight(self, z5, sp_z5):
        d = path_datum(z5)
        for lam in ("1", "2"):
            tight, _ = tightness.is_tight(z5, d.rows, sp_z5[lam]["P"])
            assert tight

    def test_scaled_sublattice_not_tight(self, z5, sp_z5):
        d2 = sp_z5["2"]["Delta"]
        sub = Lattice.from_rows(z5.ring, 2, [{0: F(3)}, {1: F(1)}])
        n = d2.restrict_to(sub)
        tight, first = tightness.is_tight(z5, path_datum(z5).rows, n)
        assert not tight and first == 1

    def test_zero_module_tight(self, z5, sp_z5):
        d2 = sp_z5["2"]["Delta"]
        zero = d2.restrict_to(Lattice.zero(z5.ring, 2))
        tight, _ = tightness.is_tight(z5, path_datum(z5).rows, zero)
        assert tight


class TestTightGrading:
    def test_z5_path_grading(self, z5_K):
        fld = z5_K.fld
        rows = {0: [z5_K.basis_vec(0), z5_K.basis_vec(1)],
                1: [z5_K.basis_vec(2), z5_K.basis_vec(3)],
                2: [z5_K.basis_vec(4)]}
        ok, reasons = tightness.is_tightly_graded(z5_K, rows)
        assert ok, reasons

    def test_x_in_grade_zero_fails(self):
        # K[x]/x^2 with x in grade 0: grade 0 not semisimple
        from grforge.algebra import StructureAlgebra
        from grforge.scalars import RATIONAL, RingSpec

        ring = RingSpec(RATIONAL, 3)
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}}
        a = StructureAlgebra(ring, "O", 2, None, {0: F(1)}, sc)
        ak = a.base_change("K")
        ok, reasons = tightness.is_tightly_graded(
            ak, {0: [ak.basis_vec(0), ak.basis_vec(1)]})
        assert not ok and any("semisimple" in r for r in reasons)

    def test_x_cubed_in_grade_one_passes(self):
        from grforge.algebra import StructureAlgebra
        from grforge.scalars import RATIONAL, RingSpec

        ring = RingSpec(RATIONAL, 3)
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
              (0, 2): {2: F(1)}, (2, 0): {2: F(1)}, (1, 1): {2: F(1)}}
        a = StructureAlgebra(ring, "O", 3, None, {0: F(1)}, sc)
        ak = a.base_change("K")
        ok, reasons = tightness.is_tightly_graded(
            ak, {0: [ak.basis_vec(0)], 1: [ak.basis_vec(1)],
                 2: [ak.basis_vec(2)]})
        assert ok, reasons


class TestConditions51:
    def test_z5_all_pass(self, z5):
        conds, _ = tightness.conditions_51_check(z5, path_datum(z5),
                                                 DELTA_GRADINGS)
        assert all(v for v in conds.values() if v is not None)

    def test_small_subalgebra_fails_c2(self, z5):
        # a = span{1, gamma}: (1) passes, (2) fails
        rows = [{0: F(1), 1: F(1)}, {4: F(1)}]
        d = tightness.GradedSubalgebraDatum(rows, (0, 1))
        conds, _ = tightness.conditions_51_check(z5, d, None)
        assert conds["c1_tight_grading"]
        assert not conds["c2_radical_generation"]

    def test_overscaled_grade_fails_c5(self, z5):
        # a_1 = span{3 alpha, 3 beta}: K a_1 still equals a_K,1 but the
        # integral piece is not a ∩ a_K,1 -> reported under (5)
        rows = [z5.basis_vec(0), z5.basis_vec(1),
                {2: F(3)}, {3: F(3)}, {4: F(3)}]
        d = tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 2))
        with pytest.raises(tightness.TightnessError):
            # the span is not even pure in the ambient algebra: validation
            # rejects the datum before the five conditions run
            tightness.conditions_51_check(z5, d, DELTA_GRADINGS)

    def test_overscaled_pure_variant_fails_c5(self, z5):
        # keep purity by scaling only the grading assignment: declare
        # gamma in grade 1; then sum-of-grades >= r mismatches r~ad^r
        rows = [z5.basis_vec(i) for i in range(5)]
        d = tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 1))
        with pytest.raises(tightness.TightnessError):
            # grading is not multiplicative (alpha*beta lands in grade 2)
            d.validate(z5)

    @pytest.mark.parametrize("grades", [(0, 0, 1), (0, 0, 1, 1, 2, 2)])
    def test_one_grade_per_row(self, z5, grades):
        rows = [z5.basis_vec(i) for i in range(5)]
        with pytest.raises(tightness.TightnessError, match="one grade"):
            tightness.GradedSubalgebraDatum(rows, grades).validate(z5)


# no command computes e_k lambda: the routine lives next to its test
def e_k_lambda(alg_field, lam):
    """Kernel of the canonical surjection P_K(lam) -> Delta_K(lam).

    Returns (pim_module, kernel_rows_in_pim_coords, surjection_matrix).
    """
    pim, f = tightness.field_pim(alg_field, lam)
    delta = modules.standard_module(alg_field, lam)
    # generator of the pim in its own coordinates
    gen = pim.ambient_span.coords(f)
    if gen is None:
        raise tightness.TightnessError("pim generator lost in restriction")
    h = None
    for i in range(delta.rank):
        w = linalg.apply(delta.act_matrix(f), delta.basis_vec(i))
        if not w:
            continue
        cand = modules.hom_with_generator_images(pim, delta, [gen], [w])
        if cand is None:
            continue
        # onto: the rows of the matrix have full rank
        if linalg.rank(cand, delta.fld, pim.rank) == delta.rank:
            h = cand
            break
    if h is None:
        raise tightness.TightnessError(
            f"no surjection P_K({lam!r}) -> Delta_K({lam!r}) found "
            "(weight datum corrupted?)")
    # kernel of h as a map on column coordinates: solve h x = 0
    ker = linalg.kernel_right(h, delta.fld, pim.rank)
    ker_rows, _ = linalg.rref(ker, delta.fld, pim.rank)
    if len(ker_rows) != pim.rank - delta.rank:
        raise tightness.TightnessError(
            f"kernel of P_K({lam!r}) -> Delta_K({lam!r}) has rank "
            f"{len(ker_rows)}, not {pim.rank - delta.rank}")
    return pim, ker_rows, h


class TestEKLambda:
    def test_z5_kernels(self, z5_K):
        pim, ker, _ = e_k_lambda(z5_K, "1")
        assert pim.rank == 3 and len(ker) == 2
        pim2, ker2, _ = e_k_lambda(z5_K, "2")
        assert len(ker2) == 0


class TestThm53:
    def test_z5_both_weights(self, z5):
        for lam in ("1", "2"):
            res = tightness.thm_53_pipeline(z5, path_datum(z5), lam,
                                            delta_gradings=DELTA_GRADINGS)
            assert res.hypotheses_ok
            assert res.conclusions["delta_tight"]
            assert res.conclusions["gr_delta_head_simple"]
            assert not res.falsification

    def test_bad_generator_fails_h1(self, z5, sp_z5):
        d = modules.weight_projective(z5, "1")
        res = tightness.thm_53_pipeline(
            z5, path_datum(z5), "1", dagger=d, v={0: F(3)},
            delta_gradings=DELTA_GRADINGS)
        assert res.hypotheses["h1_cyclic"] is False
        assert not res.falsification

    def test_degree_zero_part_meeting_the_radical_fails_h2(self, z5):
        # P0 = the whole of A e_1: P0 + rad = dagger, but P0 ∩ rad = rad
        d = modules.weight_projective(z5, "1")
        res = tightness.thm_53_pipeline(
            z5, path_datum(z5), "1", dagger=d,
            p0_rows=[d.basis_vec(i) for i in range(d.rank)],
            delta_gradings=DELTA_GRADINGS)
        assert res.hypotheses["h2_direct_sum"] is False
        assert not res.falsification

    def test_datum_is_validated_once(self, z5, monkeypatch):
        calls = []
        validate = tightness.GradedSubalgebraDatum.validate

        def counted(datum, alg):
            calls.append(datum)
            return validate(datum, alg)

        monkeypatch.setattr(tightness.GradedSubalgebraDatum, "validate",
                            counted)
        tightness.thm_53_pipeline(z5, path_datum(z5), "1",
                                  delta_gradings=DELTA_GRADINGS)
        assert len(calls) == 1

    def test_bad_datum_raises(self, z5):
        # alpha * beta = gamma lands in grade 2, not in the declared grade 1
        rows = [z5.basis_vec(i) for i in range(5)]
        bad = tightness.GradedSubalgebraDatum(rows, (0, 0, 1, 1, 1))
        with pytest.raises(tightness.TightnessError):
            tightness.thm_53_pipeline(z5, bad, "1",
                                      delta_gradings=DELTA_GRADINGS)


class TestProp52:
    def test_named_modules(self, z5, sp_z5):
        d = path_datum(z5)
        for lam in ("1", "2"):
            v = tightness.prop_52_verdicts(z5, d, sp_z5[lam]["P"])
            assert v["tight"] == v["sum_formula"] == \
                v["generated_in_degree_0"] is True

    def test_non_tight_agreement(self, z5, sp_z5):
        d2 = sp_z5["2"]["Delta"]
        sub = Lattice.from_rows(z5.ring, 2, [{0: F(3)}, {1: F(1)}])
        n = d2.restrict_to(sub)
        v = tightness.prop_52_verdicts(z5, path_datum(z5), n)
        assert v["tight"] is False
        assert v["tight"] == v["sum_formula"] == v["generated_in_degree_0"]

    def test_prop52a_isomorphism(self, z5):
        # whenever (1)&(5) hold the symbol map is a graded isomorphism;
        # this is asserted inside conditions_51_check's fifth verdict
        conds, notes = tightness.conditions_51_check(z5, path_datum(z5),
                                                     DELTA_GRADINGS)
        assert conds["c5_integral_grading"]
        assert "c5" not in notes


class TestBuiltOnce:
    def test_campaign_builds_the_subalgebra_once(self, monkeypatch):
        # every trial draws a new module over the same subalgebra
        calls = []
        subalgebra_on = StructureAlgebra.subalgebra_on

        def counted(alg, *args, **kwargs):
            calls.append(alg)
            return subalgebra_on(alg, *args, **kwargs)

        radical_builds = []
        radical_proof = radicals._radical_proof

        def counted_radical(alg):
            radical_builds.append(alg)
            return radical_proof(alg)

        gr_builds = []
        gr_algebra = tightness.gr_algebra

        def counted_gr(alg):
            gr_builds.append(alg)
            return gr_algebra(alg)

        monkeypatch.setattr(StructureAlgebra, "subalgebra_on", counted)
        monkeypatch.setattr(radicals, "_radical_proof", counted_radical)
        monkeypatch.setattr(tightness, "gr_algebra", counted_gr)
        z5 = fixtures.build_z5(3)  # a fresh algebra: an empty memo
        stats = randomized.prop52_campaign(z5, path_datum(z5), 20, seed=1)
        assert stats["trials"] == 20 and stats["disagreements"] == 0
        assert len(calls) == 1
        # the radical of the subalgebra's K-form, once for all trials
        assert len(radical_builds) == 1
        # gr of the subalgebra, once for all trials
        assert len(gr_builds) == 1
        assert gr_builds[0] is tightness.subalgebra_of(z5, path_datum(z5).rows)

    def test_prop52_builds_the_module_chain_once(self, z5, sp_z5,
                                                 monkeypatch):
        calls = []
        module_rad_chain = graded.module_rad_chain

        def counted(mod):
            calls.append(mod)
            return module_rad_chain(mod)

        monkeypatch.setattr(graded, "module_rad_chain", counted)
        monkeypatch.setattr(tightness, "module_rad_chain", counted)
        v = tightness.prop_52_verdicts(z5, path_datum(z5), sp_z5["1"]["P"])
        assert v["tight"] and v["sum_formula"] and v["generated_in_degree_0"]
        assert len(calls) == 1

    def test_subalgebra_is_kept_by_rows(self, z5):
        rows = path_datum(z5).rows
        sub = tightness.subalgebra_of(z5, rows)
        assert tightness.subalgebra_of(z5, [dict(r) for r in rows]) is sub
        other = tightness.subalgebra_of(z5, list(reversed(rows)))
        assert other is not sub and other.rank == sub.rank
        gr = tightness.gr_subalgebra_of(z5, rows)
        assert gr.base is sub
        # a row filled in another order is the same row
        unit_first = [z5.unit] + rows[1:]
        unit_last = [dict(reversed(list(z5.unit.items())))] + rows[1:]
        assert tightness.gr_subalgebra_of(z5, unit_first) is \
            tightness.gr_subalgebra_of(z5, unit_last)

    def test_subalgebra_keeps_dict_rows_apart_by_their_entries(self, z5):
        """Span rows are dicts; two bases of the whole algebra with the same
        supports are different rows and give different subalgebras."""
        ak = z5.base_change("K")
        rows = ak.span([ak.basis_vec(i) for i in range(ak.rank)]).rows
        doubled = [{j: x + x for j, x in r.items()} for r in rows]
        sub = tightness.subalgebra_of(ak, rows)
        other = tightness.subalgebra_of(ak, doubled)
        assert other is not sub
        assert (sub.unit, sub.sc) == (ak.unit, ak.sc)
        two = ak.fld.one + ak.fld.one
        assert other.unit == {t: x / two for t, x in ak.unit.items()}


class TestLambdaStandardCache:
    def test_entry_dies_with_its_algebra(self):
        # the verdict lives in the algebra's own memo, so nothing outlives it
        import weakref

        from grforge import fixtures

        alg = fixtures.build_z5(3)
        assert tightness.is_lambda_standard_cached(alg)["ok"]
        modules.standard_and_projectives(alg)  # memoizes modules as well
        probe = weakref.ref(alg)
        del alg
        # no memo entry points back at its algebra: no reference cycle, so
        # the last reference frees it without the cyclic collector
        assert probe() is None
        assert not tightness._LS_CACHE

    def test_new_algebra_gets_its_own_verdict(self, monkeypatch):
        # a cache keyed by id() could hand a dead algebra's verdict to a new
        # algebra at the same address; each algebra must compute its own
        from grforge import fixtures
        from grforge.algebra import StructureAlgebra, WeightDatum

        computed = []
        build = modules._is_lambda_standard

        def counted(alg):
            computed.append(id(alg))
            return build(alg)

        monkeypatch.setattr(modules, "_is_lambda_standard", counted)
        z5 = fixtures.build_z5(3)
        w = z5.weights
        ring, unit, sc = z5.ring, z5.unit, z5.sc
        assert tightness.is_lambda_standard_cached(z5)["ok"]
        assert tightness.is_lambda_standard_cached(z5)["ok"]
        assert len(computed) == 1
        del z5
        # weight "2" outside Lambda: two simples for one weight
        short = StructureAlgebra(ring, "O", 5, None, unit, sc,
                                 WeightDatum(w.X, ("1",), frozenset(),
                                             w.idempotents))
        assert not tightness.is_lambda_standard_cached(short)["ok"]
        assert computed[1:] == [id(short)]
