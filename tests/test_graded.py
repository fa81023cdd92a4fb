from fractions import Fraction as F

import pytest

from grforge import graded, lattices, modules, radicals
from grforge.fixtures import build_z5, build_z5s
from grforge.lattices import Lattice


class TestRadicalPowerLattice:
    def test_z5_powers(self, z5):
        chain = graded.algebra_rad_chain(z5)

        def step(n):
            return chain[min(n, len(chain) - 1)]

        assert step(0) == Lattice.full(z5.ring, 5)
        r1 = step(1)
        assert r1.rank == 3
        r2 = step(2)
        assert r2.rank == 1
        assert step(3).rank == 0
        assert step(99).rank == 0


class TestOneFiltration:
    @pytest.mark.parametrize("level", ["O", "K", "k"])
    def test_algebra_chain_is_the_regular_module_chain(self, z5, qschur23,
                                                      level):
        # r~ad^n A is r~ad^n of the regular module, at every level; over a
        # field both are the chain of radical powers
        for alg in (z5, qschur23):
            a = alg if level == "O" else alg.base_change(level)
            chain = graded.algebra_rad_chain(a)
            assert chain == graded.module_rad_chain(modules.regular_module(a))
            if level != "O":
                assert chain == radicals.radical_chain(a)
            assert chain[0].rank == a.rank and chain[-1].rank == 0

    def test_z5_chain_steps_are_their_field_echelons(self, monkeypatch):
        # every step of both z5 chains has an integral K-rref, which is
        # then the saturation itself: smith_track never runs
        z5 = build_z5(3)
        smith_track = lattices.smith_track
        calls = []

        def counting(*args):
            calls.append(args)
            return smith_track(*args)

        monkeypatch.setattr(lattices, "smith_track", counting)
        chain = graded.algebra_rad_chain(z5)
        assert chain == graded.module_rad_chain(modules.regular_module(z5))
        assert [s.rank for s in chain] == [5, 3, 1, 0]
        assert calls == []

    def test_integral_chain_saturates_the_field_chain(self, z5):
        chain_K = radicals.radical_chain(z5.base_change("K"))
        for lat, space in zip(graded.algebra_rad_chain(z5), chain_K):
            assert lat.rank == space.rank
            assert space.contains_lattice(lat)


class TestGrAlgebra:
    def test_z5_grade_ranks(self, gr_z5):
        assert gr_z5.grade_ranks() == (2, 2, 1)

    def test_rank_preserving(self, z5, gr_z5, qschur33):
        assert sum(gr_z5.grade_ranks()) == z5.rank
        g = graded.gr_algebra(qschur33)
        assert sum(g.grade_ranks()) == qschur33.rank

    def test_gr_validates(self, gr_z5):
        gr_z5.algebra.validate()

    def test_z5s_symbol_product(self):
        z5s = build_z5s(3)
        gr = graded.gr_algebra(z5s)
        assert gr.grade_ranks() == (2, 2, 1)
        beta_sym = gr.symbol({3: F(1)})
        alpha_sym = gr.symbol({2: F(1)})
        gamma_sym = gr.symbol({4: F(1)})
        prod = gr.algebra.mul(beta_sym, alpha_sym)
        assert prod == {t: x * 3 for t, x in gamma_sym.items()}

    def test_semisimple_concentrated_in_grade_zero(self):
        from grforge.algebra import StructureAlgebra
        from grforge.scalars import RATIONAL, RingSpec

        ring = RingSpec(RATIONAL, 3)
        sc = {(0, 0): {0: F(1)}, (1, 1): {1: F(1)}}
        a = StructureAlgebra(ring, "O", 2, None, {0: F(1), 1: F(1)}, sc)
        gr = graded.gr_algebra(a)
        assert gr.grade_ranks() == (2,)

    def test_base_change_dimensions_match(self, z5, gr_z5):
        # (gr A)_K has the same grade dimensions as gr(A_K)
        grk = graded.gr_algebra(z5.base_change("K"))
        assert grk.grade_ranks() == gr_z5.grade_ranks()

    def test_weights_transported_to_grade_zero(self, gr_z5):
        w = gr_z5.algebra.weights
        for lbl, e in w.idempotents.items():
            for i, x in enumerate(e):
                if x:
                    assert gr_z5.grades[i] == 0
        gr_z5.algebra.validate()


class TestGrModule:
    def test_delta2(self, gr_z5, sp_z5):
        gd = graded.gr_module(gr_z5, sp_z5["2"]["Delta"])
        assert gd.grade_ranks() == (1, 1)
        gd.module.validate()

    def test_p1(self, gr_z5, sp_z5):
        gp = graded.gr_module(gr_z5, sp_z5["1"]["P"])
        assert gp.grade_ranks() == (1, 1, 1)

    def test_simple_in_grade_zero(self, gr_z5, sp_z5):
        gd = graded.gr_module(gr_z5, sp_z5["1"]["Delta"])
        assert gd.grade_ranks() == (1,)

    def test_gr_commutes_with_base_change_dims(self, z5, gr_z5, sp_z5):
        # rank (gr M)_n = dim (gr M_K)_n
        grk = graded.gr_algebra(z5.base_change("K"))
        for lam in ("1", "2"):
            m = sp_z5[lam]["P"]
            gm = graded.gr_module(gr_z5, m)
            gmk = graded.gr_module(grk, m.base_change("K"))
            assert gm.grade_ranks() == gmk.grade_ranks()


class TestIrrCorrespondences:
    def _irr_count(self, alg_field):
        rad = radicals.radical_field(alg_field)
        quot, _, _ = alg_field.quotient_by_ideal(rad)
        return len(radicals.center_rows(quot))

    def test_simple_counts_match(self, z5, gr_z5, qschur23):
        for alg, gr in [(z5, gr_z5), (qschur23, graded.gr_algebra(qschur23))]:
            # Irr((gr A)_K) = Irr(A_K) and Irr((gr A)_k) = Irr(A_k)
            assert self._irr_count(gr.algebra.base_change("K")) == \
                self._irr_count(alg.base_change("K"))
            assert self._irr_count(gr.algebra.base_change("k")) == \
                self._irr_count(alg.base_change("k"))


class TestLemma43Transport:
    def test_lambda_standard_transports(self, z5, gr_z5, qschur33):
        for alg, gr in [(z5, gr_z5), (qschur33, graded.gr_algebra(qschur33))]:
            a = modules.is_lambda_standard(alg)["ok"]
            b = modules.is_lambda_standard(gr.algebra)["ok"]
            assert a == b

    def test_transport_on_negative_control(self):
        z5s = build_z5s(3)
        gr = graded.gr_algebra(z5s)
        a = modules.is_lambda_standard(z5s)["ok"]
        b = modules.is_lambda_standard(gr.algebra)["ok"]
        assert a == b
