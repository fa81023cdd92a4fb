import random
from fractions import Fraction as F

import pytest

from dense_reference import dense_rows, vec

from grforge import forced, graded, modules
from grforge.algebra import StructureAlgebra, WeightDatum
from grforge.graded import gr_module
from grforge.lattices import Lattice


class TestNPrime:
    def test_p1_at_weight_1(self, sp_z5):
        lat, _ = forced.n_prime_lattice(sp_z5["1"]["P"], "1")
        assert lat.rank == 2  # span{alpha, gamma}

    def test_delta2_at_weight_1_is_everything(self, sp_z5):
        lat, _ = forced.n_prime_lattice(sp_z5["2"]["Delta"], "1")
        assert lat.rank == 2

    def test_maximal_weight_gives_zero(self, sp_z5):
        lat, _ = forced.n_prime_lattice(sp_z5["2"]["Delta"], "2")
        assert lat.rank == 0


class TestPrimitivity:
    def test_generator_of_delta2(self, sp_z5):
        d2 = sp_z5["2"]["Delta"]
        v = d2.weight_space_rows("2")[0]
        rep = forced.primitivity_test(d2, v, "2")
        assert rep.primitive and rep.strongly_primitive and rep.grade == 0
        assert rep.maximality_ok

    def test_scaled_generator_fails_both(self, sp_z5):
        d2 = sp_z5["2"]["Delta"]
        v = {t: 3 * x for t, x in d2.weight_space_rows("2")[0].items()}
        rep = forced.primitivity_test(d2, v, "2")
        assert not rep.primitive and not rep.strongly_primitive

    def test_gamma_not_primitive(self, sp_z5):
        p1 = sp_z5["1"]["P"]
        chain = graded.module_rad_chain(p1)
        gamma = [r for r in p1.weight_space_rows("1")
                 if chain[2].contains_vector(r)][0]
        rep = forced.primitivity_test(p1, gamma, "1")
        assert not rep.primitive and not rep.strongly_primitive

    def test_non_weight_vector_rejected(self, sp_z5):
        p1 = sp_z5["1"]["P"]
        v = {t: F(1) for t in range(p1.rank)}
        with pytest.raises(forced.ForcedError):
            forced.primitivity_test(p1, v, "1")

    def test_random_implication_holds(self, z5, sp_z5):
        rng = random.Random(99)
        mods = [sp_z5[l][k] for l in ("1", "2") for k in ("P", "Delta")]
        fld = z5.fld
        for _ in range(120):
            mod = mods[rng.randrange(len(mods))]
            lam = ("1", "2")[rng.randrange(2)]
            rows = dense_rows(mod.weight_space_rows(lam), mod.rank, fld.zero)
            if not rows:
                continue
            v = [fld.zero] * mod.rank
            for r in rows:
                c = rng.randint(-3, 3)
                if rng.random() < 0.3:
                    c *= 3
                for t in range(mod.rank):
                    if r[t]:
                        v[t] = v[t] + fld.of(c) * r[t]
            rep = forced.primitivity_test(mod, vec(v), lam)
            if rep.strongly_primitive:
                assert rep.primitive
            if rep.primitive:
                assert rep.maximality_ok

    def test_campaign_builds_each_chain_once(self, z5, sp_z5, monkeypatch):
        from grforge import randomized

        chains, n_primes = [], []
        module_rad_chain = graded.module_rad_chain
        n_prime_lattice = forced.n_prime_lattice

        def counted_chain(mod):
            chains.append(mod)
            return module_rad_chain(mod)

        def counted_n_prime(mod, lam):
            n_primes.append((mod, lam))
            return n_prime_lattice(mod, lam)

        for ns in (graded, forced, randomized):
            monkeypatch.setattr(ns, "module_rad_chain", counted_chain,
                                raising=False)
        monkeypatch.setattr(forced, "n_prime_lattice", counted_n_prime)
        mods = [sp_z5[l][k] for l in ("1", "2") for k in ("P", "Delta")]
        stats = randomized.primitivity_campaign(z5, mods, 50, seed=1)
        # the counts of the campaign before the chains were kept per module
        assert stats == {"trials": 50, "primitive": 21,
                         "strongly_primitive": 21,
                         "implication_violations": 0,
                         "maximality_violations": 0}
        # one chain per module and one N ∩ N'_K(lam) per (module, weight)
        assert len(chains) == len(mods)
        assert all(sum(m is c for c in chains) == 1 for m in mods)
        assert all(sum(m is c and lam == l for c, l in n_primes) == 1
                   for m, lam in n_primes)


class TestGrB:
    def test_delta2_full(self, gr_z5, sp_z5):
        gd = graded.gr_module(gr_z5, sp_z5["2"]["Delta"])
        grb = forced.gr_b(gd)
        assert grb == gd.module.full_lattice()

    def test_projective_full(self, gr_z5, sp_z5):
        # gr^b P = gr P for projectives
        for lam in ("1", "2"):
            gp = graded.gr_module(gr_z5, sp_z5[lam]["P"])
            grb = forced.gr_b(gp)
            assert grb == gp.module.full_lattice()

    def test_zero_module(self, gr_z5, sp_z5):
        d = sp_z5["1"]["Delta"]
        zero = d.restrict_to(Lattice.zero(d.algebra.ring, d.rank))
        gz = graded.gr_module(gr_z5, zero)
        grb = forced.gr_b(gz)
        assert grb.rank == 0


# Lemma 4.9; no command runs this check
def lemma_4_9_check(gralg, lam, simples_k, radk):
    """Both sides of: gr Delta(lam) has simple head iff gr^b = gr.

    Returns (simple_head, grb_equals_gr) after checking the biconditional.
    Callers are expected to have verified Hypothesis 4.7(1) (TQHA) already.
    """
    gd = gr_module(gralg, modules.standard_module(gralg.base, lam))
    gdk = gd.module.base_change("k")
    info = modules.head_info(gdk, radk, simples_k)
    simple_head = info["is_simple"]
    equals = forced.gr_b(gd) == gd.module.full_lattice()
    if simple_head != equals:
        raise forced.ForcedError(
            f"Lemma 4.9 biconditional fails at {lam!r}: "
            f"simple_head={simple_head}, grb=gr:{equals}")
    return simple_head, equals


class TestLemma49:
    def test_z5_both_weights(self, z5, gr_z5, sp_z5):
        from grforge.suites import graded_head_context

        _, gradk, gsimples = graded_head_context(gr_z5)
        for lam in ("1", "2"):
            simple, equal = lemma_4_9_check(gr_z5, lam, gsimples, gradk)
            assert simple and equal

    def test_qschur_biconditional(self, qschur33):
        from grforge.suites import graded_head_context

        gr = graded.gr_algebra(qschur33)
        _, gradk, gsimples = graded_head_context(gr)
        for lam in qschur33.weights.Lambda:
            simple, equal = lemma_4_9_check(gr, lam, gsimples, gradk)
            assert simple == equal  # the biconditional itself


class TestGradedDeltaFiltration:
    def test_p1(self, z5, gr_z5, sp_z5):
        stages = forced.gr_delta_filtration(gr_module(gr_z5, sp_z5["1"]["P"]))
        assert [(s.label, s.copies, s.shift, s.kind) for s in stages] == [
            ("2", 1, 1, "standard"), ("1", 1, 0, "standard")]

    def test_delta2_single_section(self, z5, gr_z5, sp_z5):
        stages = forced.gr_delta_filtration(
            gr_module(gr_z5, sp_z5["2"]["Delta"]))
        assert [(s.label, s.copies, s.shift) for s in stages] == [("2", 1, 0)]

    def test_regular_module(self, z5, gr_z5, sp_z5):
        stages = forced.gr_delta_filtration(
            gr_module(gr_z5, modules.regular_module(z5)))
        assert modules.section_multiset(stages) == {"2": 2, "1": 1}
        shifts = sorted((str(s.label), s.shift) for s in stages)
        assert shifts == [("1", 0), ("2", 0), ("2", 1)]

    def test_multiset_matches_ungraded(self, z5, gr_z5, sp_z5):
        for lam in ("1", "2"):
            m = sp_z5[lam]["P"]
            g = forced.gr_delta_filtration(gr_module(gr_z5, m))
            u = modules.delta_filtration(m)
            assert modules.section_multiset(g) == modules.section_multiset(u)

    @pytest.mark.parametrize("case", ["scaled_lattice", "one_weight"])
    def test_fails_like_the_plain_filtration(self, z5, gr_z5, sp_z5, case):
        # both filtrations stop at the one shared peeling step, at the same
        # weight and for the same reason
        if case == "scaled_lattice":
            # span{3e2, beta} in Delta(2)
            n = sp_z5["2"]["Delta"].restrict_to(
                Lattice.from_rows(z5.ring, 2, [{0: F(3)}, {1: F(1)}]))
            gr, expect = gr_z5, ("2", "peeled submodule is not pure")
        else:
            # one weight whose idempotent is the unit: Delta(a)_a = A
            one = StructureAlgebra(
                z5.ring, "O", z5.rank, z5.labels, z5.unit, z5.sc,
                WeightDatum.build(["a"], ["a"], [], {"a": z5.unit}))
            n = modules.regular_module(one)
            gr = graded.gr_algebra(one)
            expect = ("a", "standard module weight space not rank 1")
        with pytest.raises(modules.FiltrationFailure) as plain:
            modules.delta_filtration(n)
        with pytest.raises(modules.FiltrationFailure) as graded_:
            forced.gr_delta_filtration(gr_module(gr, n))
        got = [(e.value.label, e.value.reason) for e in (plain, graded_)]
        assert got == [expect] * 2


class TestPrimitiveEqualsStronglyPrimitiveOnGr:
    def test_homogeneous_primitives_coincide_on_nice_fixtures(
            self, z5, gr_z5, sp_z5):
        # when every relevant gr Delta has a simple head, the primitive
        # homogeneous elements of gr N are exactly the strongly primitive ones
        rng = random.Random(31)
        galg = gr_z5.algebra
        for lam_mod in ("1", "2"):
            gn = graded.gr_module(gr_z5, sp_z5[lam_mod]["P"])
            gmod = gn.module
            for _ in range(40):
                lam = ("1", "2")[rng.randrange(2)]
                rows = dense_rows(gmod.weight_space_rows(lam), gmod.rank,
                                  gmod.fld.zero)
                if not rows:
                    continue
                # homogeneous: restrict to one grade
                grade = rng.choice(sorted({gn.grades[i]
                                           for r in rows
                                           for i, x in enumerate(r) if x}))
                v = [gmod.fld.zero] * gmod.rank
                for r in rows:
                    if any(x and gn.grades[i] != grade
                           for i, x in enumerate(r)):
                        continue
                    c = rng.randint(-2, 2)
                    if rng.random() < 0.3:
                        c *= 3
                    if c:
                        for t in range(gmod.rank):
                            if r[t]:
                                v[t] = v[t] + gmod.fld.of(c) * r[t]
                if not any(v):
                    continue
                rep = forced.primitivity_test(gmod, vec(v), lam)
                assert rep.primitive == rep.strongly_primitive, (lam, v)
