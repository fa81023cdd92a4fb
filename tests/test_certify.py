import dataclasses
from fractions import Fraction as F

import pytest

from test_span_rows import smith_calls

from grforge import certify, fixtures, graded, linalg, modules
from grforge.algebra import StructureAlgebra, WeightDatum
from grforge.fixtures import inflate, perturb
from grforge.lattices import Lattice
from grforge.modules import weight_simples
from grforge.radicals import NonSplitError
from grforge.scalars import RATIONAL, InternalCheckError, RingSpec


class TestHeredityStep:
    def test_z5_top_weight(self, z5):
        e = z5.weights.idempotents["2"]
        step = certify.is_split_heredity_ideal(z5, e, ("2",))
        assert step.ok
        assert step.corner.block_sizes == (1,)  # e2 A e2 = O
        assert step.ideal_rank == 4

    def test_z5s_fails_free_quotient(self, z5s):
        e = z5s.weights.idempotents["2"]
        step = certify.is_split_heredity_ideal(z5s, e, ("2",))
        assert not step.ok
        assert step.verdicts["free_quotient"] is False
        assert step.detail["torsion"] == [1]  # O/pi torsion at gamma

    def test_zero_ideal_rejected(self, z5):
        e = {}
        step = certify.is_split_heredity_ideal(z5, e, ("0",))
        assert not step.ok

    def test_non_idempotent_rejected(self, z5):
        e = {0: F(2)}
        step = certify.is_split_heredity_ideal(z5, e, ("x",))
        assert not step.ok and step.verdicts["idempotent"] is False

    def test_semisimple_block_passes(self):
        # M2(O) (+) O, e = identity of the matrix block
        ring = RingSpec(RATIONAL, 3)
        sc = {}
        def ui(i, j):
            return {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(i, j)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        if j == k:
                            sc[(ui(i, j), ui(k, l))] = {ui(i, l): F(1)}
        sc[(4, 4)] = {4: F(1)}
        a = StructureAlgebra(ring, "O", 5, None, {0: F(1), 3: F(1), 4: F(1)},
                             sc)
        e = {0: F(1), 3: F(1)}
        step = certify.is_split_heredity_ideal(a, e, ("m",))
        assert step.ok
        assert step.corner.block_sizes == (2,)

    def test_endo_direct_check_can_refute(self, z5, monkeypatch):
        # End_A(A e2 A) = M_2(O): the structural sizes (2,) agree, (1,) not
        J = z5.ideal_generated(z5.weights.idempotents["2"])
        assert certify._endo_direct_check(z5, J, (2,)) is True
        assert certify._endo_direct_check(z5, J, (1,)) is False
        # (1, 1, 1, 1) has the kernel dimension 4 of (2,), so the recognizer
        # runs, succeeds, and the block sizes refute
        seen = []
        recognize = certify.recognize_matrix_algebra

        def spy(*args):
            seen.append(recognize(*args))
            return seen[-1]

        monkeypatch.setattr(certify, "recognize_matrix_algebra", spy)
        assert certify._endo_direct_check(z5, J, (1, 1, 1, 1)) is False
        assert [(w.ok, w.block_sizes) for w in seen] == [(True, (2,))]

    def test_an_endo_lattice_without_the_identity_is_an_internal_error(
            self, z5, monkeypatch):
        # the identity lies in End_{A_K}(J_K) and in M_n(O), so in their
        # saturated meet: a meet that misses it is a fault of the program,
        # not a False cross-check verdict
        J = z5.ideal_generated(z5.weights.idempotents["2"])
        saturate = certify.saturate_rows

        def times_pi(ring, ambient, rows):
            sat = saturate(ring, ambient, rows)
            return Lattice.from_rows(ring, ambient, [
                {j: ring.uniformizer * x for j, x in r.items()}
                for r in sat.rows])

        monkeypatch.setattr(certify, "saturate_rows", times_pi)
        with pytest.raises(InternalCheckError, match="identity"):
            certify._endo_direct_check(z5, J, (2,))


class TestChains:
    def test_z5_chain(self, z5):
        cert = certify.certify_qha(z5)
        assert cert.ok
        assert [s.labels for s in cert.steps] == [("2",), ("1",)]
        assert certify.verify_chain(z5, cert)

    def test_z5s_failure(self, z5s):
        cert = certify.certify_qha(z5s)
        assert not cert.ok
        assert cert.steps[0].labels == ("2",)
        assert cert.steps[0].verdicts["free_quotient"] is False
        assert certify.verify_chain(z5s, cert)

    def test_pure_quotients_run_no_smith_form(self):
        """On z5 every quotient taken is pure, so gr, gr of the regular
        module and the chain certificate make no smith_track call.  On z5s
        the one quotient with torsion, A / A e_2 A, still fails with it.
        Fresh algebras, so that no memo hides a call."""
        z5, z5s = fixtures.build_z5(3), fixtures.build_z5s(3)

        def run():
            gr = graded.gr_algebra(z5)
            graded.gr_module(gr, modules.regular_module(z5))
            return certify.certify_qha(z5).ok

        assert smith_calls(run) == (True, 0)
        cert, calls = smith_calls(lambda: certify.certify_qha(z5s))
        step = cert.steps[0]
        assert not cert.ok and step.labels == ("2",) and calls >= 1
        assert step.verdicts["free_quotient"] is False
        assert step.detail["torsion"] == [1]

    @pytest.mark.parametrize("level", ["O", "K", "k"])
    def test_one_ideal_build_per_step(self, z5, z5_K, z5_k, monkeypatch, level):
        alg = {"O": z5, "K": z5_K, "k": z5_k}[level]
        builds = []
        orig = StructureAlgebra.ideal_generated

        def counted(self, e):
            builds.append(tuple(sorted(e.items())))
            return orig(self, e)

        monkeypatch.setattr(StructureAlgebra, "ideal_generated", counted)
        cert = certify.certify_qha(alg)
        assert cert.ok and len(builds) == len(cert.steps) == 2
        builds.clear()
        assert certify.verify_chain(alg, cert)
        assert len(builds) == len(cert.steps)

    @pytest.mark.parametrize("level", ["O", "K", "k"])
    def test_generic_simples_split_a_corner_with_a_square_head(self, level):
        # M2(O) (+) O with weights m = E11 + E22 < o = f: the head of
        # Delta(m) is L(m)^2, so weight_simples refuses and each corner is
        # split by generic_simples
        ring = RingSpec(RATIONAL, 3)
        sc = {(2 * i + j, 2 * j + l): {2 * i + l: F(1)}
              for i in range(2) for j in range(2) for l in range(2)}
        sc[(4, 4)] = {4: F(1)}
        w = WeightDatum.build(("m", "o"), ("m", "o"), [("m", "o")],
                              {"m": {0: F(1), 3: F(1)}, "o": {4: F(1)}})
        alg = StructureAlgebra(ring, "O", 5, None, {0: F(1), 3: F(1), 4: F(1)},
                               sc, w)
        alg = alg if level == "O" else alg.base_change(level)
        with pytest.raises(NonSplitError):
            weight_simples(alg.field_algebra())
        cert = certify.certify_qha(alg)
        assert cert.ok and certify.verify_chain(alg, cert)
        assert [s.labels for s in cert.steps] == [("o",), ("m",)]
        assert [s.corner.block_sizes for s in cert.steps] == [(1,), (2,)]

    def test_verify_chain_ignores_prover_ideal(self, z5):
        # the checker quotients by the ideal it built itself
        cert = certify.certify_qha(z5)
        cert.steps = [dataclasses.replace(s, ideal=object()) for s in cert.steps]
        assert certify.verify_chain(z5, cert)

    @pytest.mark.parametrize("level", ["O", "K", "k"])
    def test_flipped_idempotency_verdict_rejected(self, z5, level):
        # J^2 = J is re-checked at every level, not only at O
        alg = z5 if level == "O" else z5.base_change(level)
        cert = certify.certify_qha(alg)
        assert cert.ok and certify.verify_chain(alg, cert)
        step = cert.steps[0]
        verdicts = dict(step.verdicts,
                        idempotent_ideal=not step.verdicts["idempotent_ideal"])
        cert.steps[0] = dataclasses.replace(step, verdicts=verdicts)
        assert not certify.verify_chain(alg, cert)

    def test_gr_z5_tight_case(self, gr_z5):
        cert = certify.certify_qha(gr_z5.algebra)
        assert cert.ok

    def test_explicit_order(self, z5):
        cert = certify.certify_qha(z5, order=["2", "1"])
        assert cert.ok
        with pytest.raises(Exception):
            certify.certify_qha(z5, order=["1", "2"])  # 1 is not maximal first

    def test_field_level_chain(self, z5_K, z5_k):
        for alg in (z5_K, z5_k):
            cert = certify.certify_qha(alg)
            assert cert.ok

    def test_inflated_chain_with_matrix_corner(self, z5):
        infl = inflate(z5, {"2": 2})
        cert = certify.certify_qha(infl)
        assert cert.ok
        assert certify.verify_chain(infl, cert)

    def test_chain_order_robustness_delta_ranks(self, z5, qschur33):
        from grforge.modules import standard_and_projectives

        for alg in (z5, qschur33):
            w = alg.weights
            orders = [list(reversed(sorted(w.Lambda, key=str)))]
            # any reversed linear extension: for totally ordered posets there
            # is exactly one, so also exercise the antichain default
            c1 = certify.certify_qha(alg)
            c2 = certify.certify_qha(alg, order=sorted(
                w.Lambda, key=str, reverse=True)) if len(w.Lambda) == 2 else c1
            assert c1.ok and c2.ok
            sp = standard_and_projectives(alg)
            ranks = {lam: sp[lam]["Delta"].rank for lam in w.Lambda}
            assert all(r > 0 for r in ranks.values())

    def test_delta_ranks_z5(self, z5, sp_z5):
        assert {l: sp_z5[l]["Delta"].rank for l in ("1", "2")} == \
            {"1": 1, "2": 2}


class TestMutationConsistency:
    def test_perturbations_judged_consistently(self, z5):
        # >= 100 pi-scalings: certifier and independent checker never disagree
        found = 0
        seed = 0
        accepted = 0
        while found < 100 and seed < 400:
            seed += 1
            got = perturb(z5, seed=seed, count=1)
            if got is None:
                continue
            mutant, scaling = got
            if all(v == 0 for v in scaling.values()):
                continue
            found += 1
            mutant.validate()
            cert = certify.certify_qha(mutant)
            assert certify.verify_chain(mutant, cert), (seed, scaling)
            accepted += cert.ok
        assert found >= 100
        # every arrow of the zigzag is heredity-critical, so pi-scaling one
        # always breaks condition (i); what matters is checker agreement
        assert accepted == 0

    def test_z5s_is_a_pi_mutation(self, z5, z5s):
        # beta scaled by pi: same K-algebra, different order, rejected
        assert not certify.certify_qha(z5s).ok
        assert certify.certify_qha(z5).ok


class TestRecognitionEdgeCases:
    def test_scaled_unit_entry_not_maximal(self):
        ring = RingSpec(RATIONAL, 3)
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
              (1, 1): {0: F(9)}}
        # O[x]/(x^2 - 9): an order in Q x Q but not maximal
        a = StructureAlgebra(ring, "O", 2, None, {0: F(1)}, sc)
        a.validate()
        w = certify.recognize_matrix_algebra(a)
        assert not w.ok
        assert w.gram_det_valuation and w.gram_det_valuation > 0

    def test_maximal_split_quadratic(self):
        ring = RingSpec(RATIONAL, 3)
        # O[x]/(x^2 - x) = O x O, maximal
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
              (1, 1): {1: F(1)}}
        a = StructureAlgebra(ring, "O", 2, None, {0: F(1)}, sc)
        w = certify.recognize_matrix_algebra(a)
        assert w.ok and tuple(sorted(w.block_sizes)) == (1, 1)

    @pytest.mark.parametrize("level", ["O", "K", "k"])
    def test_every_level(self, level):
        ring = RingSpec(RATIONAL, 3)

        def at(a):
            return a if level == "O" else a.base_change(level)

        # O[x]/(x^2 - 9): split at K, x^2 at k, not maximal at O
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
              (1, 1): {0: F(9)}}
        w = certify.recognize_matrix_algebra(
            at(StructureAlgebra(ring, "O", 2, None, {0: F(1)}, sc)))
        if level == "K":
            assert w.ok and w.block_sizes == (1, 1)
        elif level == "k":
            assert not w.ok and "not semisimple" in w.reason
        else:
            assert not w.ok and w.gram_det_valuation > 0
        # O[x]/(x^2 - x) = O x O
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)},
              (1, 1): {1: F(1)}}
        w = certify.recognize_matrix_algebra(
            at(StructureAlgebra(ring, "O", 2, None, {0: F(1)}, sc)))
        assert w.ok and w.block_sizes == (1, 1)
        # M2(O) (+) O without weights: generic_simples returns two
        # isomorphic copies of the natural module, split_semisimple keeps one
        sc = {}
        for i in range(2):
            for j in range(2):
                for l in range(2):
                    sc[(2 * i + j, 2 * j + l)] = {2 * i + l: F(1)}
        sc[(4, 4)] = {4: F(1)}
        a = at(StructureAlgebra(ring, "O", 5, None,
                                {0: F(1), 3: F(1), 4: F(1)}, sc))
        assert len(certify.generic_simples(a.field_algebra())) == 3
        w = certify.recognize_matrix_algebra(a)
        assert w.ok and tuple(sorted(w.block_sizes)) == (1, 2)

    def test_simple_module_in_a_scaled_basis(self):
        # M2(Z_(3)) with its natural module in the basis (v1, 3 v2): E21
        # acts with an entry 1/3, so E.w leaves O^2 until w is rescaled
        ring = RingSpec(RATIONAL, 3)
        sc = {(2 * i + j, 2 * j + l): {2 * i + l: F(1)}
              for i in range(2) for j in range(2) for l in range(2)}
        a = StructureAlgebra(ring, "O", 4, ["E11", "E12", "E21", "E22"],
                             {0: F(1), 3: F(1)}, sc)
        acts = [[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(3)], [F(0), F(0)]],
                [[F(0), F(0)], [F(1, 3), F(0)]], [[F(0), F(0)], [F(0), F(1)]]]
        w = certify.recognize_matrix_algebra(
            a, [("natural", [linalg.columns(m) for m in acts])])
        assert w.ok and w.block_sizes == (2,)

    def test_a_missing_matrix_unit_is_an_internal_error(self, monkeypatch):
        """At O the matrix units are read only after the discriminant is a
        unit, so the order is maximal and each has O-coordinates: a change
        of basis that drops one is a bug, not a verdict."""
        ring = RingSpec(RATIONAL, 3)
        sc = {(2 * i + j, 2 * j + l): {2 * i + l: F(1)}
              for i in range(2) for j in range(2) for l in range(2)}
        a = StructureAlgebra(ring, "O", 4, None, {0: F(1), 3: F(1)}, sc)
        assert certify.recognize_matrix_algebra(a).ok
        solver = certify.coord_solver

        def dropping(rows, fld, ncols, ring=None):
            coords = solver(rows, fld, ncols, ring)
            seen = []

            def drop_second(v):
                seen.append(v)
                return None if len(seen) == 2 else coords(v)

            return drop_second

        monkeypatch.setattr(certify, "coord_solver", dropping)
        with pytest.raises(InternalCheckError, match="matrix unit"):
            certify.recognize_matrix_algebra(a)

    def test_nilpotent_rejected(self):
        ring = RingSpec(RATIONAL, 3)
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}}
        a = StructureAlgebra(ring, "O", 2, None, {0: F(1)}, sc)
        w = certify.recognize_matrix_algebra(a)
        assert not w.ok and "semisimple" in w.reason
