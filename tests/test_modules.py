"""Module lattices, heads, composition factors, Delta-filtrations and
Morita reduction.

No command computes composition multiplicities or Morita reductions, so
`composition_multiplicities` (with `simple_weight_table` and its
radical-layer oracle `composition_series_bruteforce`) and `morita_reduce`
live here, next to their only callers.
"""

from fractions import Fraction as F

import pytest

from dense_reference import dense_rows, vec

from grforge import graded, linalg, modules, radicals
from grforge.algebra import StructureAlgebra, WeightDatum
from grforge.lattices import Lattice
from grforge.modules import (
    FiltrationFailure,
    ModuleRep,
    delta_filtration,
    head_info,
    head_module,
    is_lambda_standard,
    regular_module,
    section_multiset,
    standard_and_projectives,
    truncate_to_ideal,
    weight_projective,
    weight_simples,
)

ALPHA = 2  # basis index of alpha in the zigzag fixtures


class TestSubmoduleGenerated:
    def test_alpha_orbit_in_p1(self, z5, sp_z5):
        p1 = sp_z5["1"]["P"]
        # find the alpha vector inside P(1): the weight-2 row
        arow = p1.weight_space_rows("2")[0]
        sub = p1.submodule_generated([arow])
        assert sub.rank == 2  # span{alpha, gamma}

    def test_zero(self, sp_z5):
        p1 = sp_z5["1"]["P"]
        assert p1.submodule_generated([{}]).rank == 0

    def test_delta2_weight_generator(self, sp_z5):
        d2 = sp_z5["2"]["Delta"]
        gen = d2.weight_space_rows("2")[0]
        assert d2.submodule_generated([gen]) == d2.full_lattice()


class TestStandardsAndProjectives:
    def test_ranks(self, sp_z5):
        assert sp_z5["1"]["P"].rank == 3
        assert sp_z5["2"]["P"].rank == 2
        assert sp_z5["1"]["Delta"].rank == 1
        assert sp_z5["2"]["Delta"].rank == 2

    def test_maximal_weight_delta_equals_p(self, sp_z5):
        # top weight: Delta(2) = P(2)
        assert sp_z5["2"]["Delta"].rank == sp_z5["2"]["P"].rank

    def test_rank_one_algebra(self):
        from grforge.algebra import StructureAlgebra, WeightDatum
        from grforge.scalars import RATIONAL, RingSpec

        ring = RingSpec(RATIONAL, 3)
        w = WeightDatum.build(("*",), ("*",), [], {"*": {0: F(1)}})
        a = StructureAlgebra(ring, "O", 1, None, {0: F(1)},
                             {(0, 0): {0: F(1)}}, w)
        sp = standard_and_projectives(a)
        assert sp["*"]["P"].rank == 1
        assert sp["*"]["Delta"].rank == 1


class TestTruncation:
    def test_p1_truncated_to_delta1(self, z5, sp_z5):
        q, torsion, _, _ = truncate_to_ideal(sp_z5["1"]["P"], ("1",))
        assert q.rank == 1 and torsion == []

    def test_gamma_equals_lambda_is_identity(self, z5, sp_z5):
        q, torsion, _, _ = truncate_to_ideal(sp_z5["1"]["P"], ("1", "2"))
        assert q.rank == sp_z5["1"]["P"].rank

    def test_delta2_truncated_to_zero(self, sp_z5):
        q, torsion, _, _ = truncate_to_ideal(sp_z5["2"]["Delta"], ("1",))
        assert q.rank == 0

    def test_non_ideal_rejected(self, sp_z5):
        with pytest.raises(Exception):
            truncate_to_ideal(sp_z5["1"]["P"], ("2",))


class TestHeads:
    def test_p1_head_is_l1(self, sp_z5, z5_simples_k):
        radk, simples = z5_simples_k
        info = head_info(sp_z5["1"]["P"].base_change("k"), radk, simples)
        assert info["is_simple"] and info["label"] == "1"

    def test_delta2_head_is_l2(self, sp_z5, z5_simples_k):
        radk, simples = z5_simples_k
        info = head_info(sp_z5["2"]["Delta"].base_change("k"), radk, simples)
        assert info["is_simple"] and info["label"] == "2"

    def test_semisimple_module_is_its_own_head(self, z5_k, z5_simples_k):
        radk, simples = z5_simples_k
        lam, lmod = simples[0]
        info = head_info(lmod, radk, simples)
        assert info["dim"] == lmod.rank


# ---------------------------------------------------------------------------
# composition factors, two ways: the triangular weight-dimension solve and
# the radical-layer count through central idempotents
# ---------------------------------------------------------------------------

def simple_weight_table(alg_field, simples):
    """dims[lam][mu] = dim L(lam)_mu for lam, mu in Lambda."""
    w = alg_field.weights
    table = {}
    for lam, lmod in simples:
        table[lam] = {mu: len(lmod.weight_space_rows(mu)) for mu in w.Lambda}
    return table


def composition_multiplicities(mod: ModuleRep, simples=None, table=None):
    """Solve the triangular weight-dimension system for [M : L(lam)].

    Requires a Lambda-standard algebra (unitriangular weight table); raises
    on inconsistency or non-integral solutions.
    """
    alg = mod.algebra
    w = alg.weights
    if w is None:
        raise modules.ModuleError("no weight datum")
    if simples is None:
        simples = weight_simples(alg)
    if table is None:
        table = simple_weight_table(alg, simples)
    dims = {mu: len(mod.weight_space_rows(mu)) for mu in w.Lambda}
    # iterate weights from maximal downwards
    remaining = dict(dims)
    mult = {}
    order = []
    todo = list(w.Lambda)
    while todo:
        for lam in w.maximal(todo):
            order.append(lam)
            todo.remove(lam)
    for lam in order:
        if table[lam][lam] != 1:
            raise modules.ModuleError(
                "weight table is not unitriangular: not Lambda-standard")
        m = remaining[lam]
        if m < 0:
            raise modules.ModuleError("negative multiplicity: inconsistent system")
        mult[lam] = m
        for mu in w.Lambda:
            remaining[mu] -= m * table[lam][mu]
    if any(remaining.values()):
        raise modules.ModuleError(f"inconsistent weight dimensions: {remaining}")
    return mult


def composition_series_bruteforce(mod: ModuleRep, rad_rows, blocks):
    """Radical-layer composition counting via central idempotents.

    blocks: list of (label, central_idempotent_lift, simple_dim).  Counts the
    multiplicity of each label across the radical series of mod; independent
    of the triangular weight solve.
    """
    counts = {lbl: 0 for (lbl, _, _) in blocks}
    cur = mod
    guard = 0
    while cur.rank and guard <= mod.rank + 1:
        guard += 1
        head, _, sub = head_module(cur, rad_rows)
        for (lbl, z, d) in blocks:
            # the rank of z on the head: the rank of its columns
            zcols = [dict(col) for col in head.act_matrix(z)]
            tr_rank = linalg.rank(zcols, head.fld, head.rank)
            if tr_rank % d:
                raise modules.ModuleError(
                    f"block {lbl!r} acts on a head with rank {tr_rank}, "
                    f"not a multiple of {d}")
            counts[lbl] += tr_rank // d
        # descend to rad * cur
        if sub.rank == cur.rank:
            raise modules.ModuleError("radical series does not descend")
        cur = cur.restrict_to(sub)
    return counts


class TestComposition:
    def test_p1(self, sp_z5):
        got = composition_multiplicities(sp_z5["1"]["P"].base_change("k"))
        assert got == {"1": 2, "2": 1}

    def test_delta2(self, sp_z5):
        got = composition_multiplicities(sp_z5["2"]["Delta"].base_change("k"))
        assert got == {"1": 1, "2": 1}

    def test_simple_itself(self, z5_k, z5_simples_k):
        _, simples = z5_simples_k
        lam, lmod = simples[0]
        got = composition_multiplicities(lmod)
        assert got[lam] == 1 and sum(got.values()) == 1

    def test_bruteforce_oracle_agreement(self, z5, z5_k, sp_z5, z5_simples_k):
        radk, simples = z5_simples_k
        quot, lifts, _ = z5_k.quotient_by_ideal(radk)
        qmods = radicals.quotient_modules(z5_k, lifts, simples)
        blocks = radicals.split_semisimple(quot, qmods)
        lift_rows = dense_rows(lifts, z5_k.rank, z5_k.fld.zero)
        blk_data = []
        for blk in blocks:
            z = [z5_k.fld.zero] * z5_k.rank
            for c, row in zip(dense_rows([blk.central_idempotent], len(lifts),
                                         z5_k.fld.zero)[0], lift_rows):
                if c:
                    for t in range(z5_k.rank):
                        if row[t]:
                            z[t] = z[t] + c * row[t]
            blk_data.append((blk.label, vec(z), blk.simple_dim))
        for lam in ("1", "2"):
            for kind in ("P", "Delta"):
                mk = sp_z5[lam][kind].base_change("k")
                fast = composition_multiplicities(mk)
                slow = composition_series_bruteforce(mk, radk, blk_data)
                assert fast == slow, (lam, kind, fast, slow)


class TestDeltaFiltration:
    def test_p1_sections(self, sp_z5):
        stages = delta_filtration(sp_z5["1"]["P"])
        assert [(s.label, s.copies) for s in stages] == [("2", 1), ("1", 1)]

    def test_direct_sum(self, z5, sp_z5):
        from grforge.modules import direct_sum_module

        both = direct_sum_module(sp_z5["2"]["Delta"], 2)
        stages = delta_filtration(both)
        assert section_multiset(stages) == {"2": 2}

    def test_gamma_line_is_delta1(self, z5, sp_z5):
        # span{gamma} inside P(1) is a weight-1 trivial-action line
        p1 = sp_z5["1"]["P"]
        chain = graded.module_rad_chain(p1)
        gamma = [r for r in p1.weight_space_rows("1")
                 if chain[2].contains_vector(r)][0]
        sub = p1.submodule_generated([gamma])
        n = p1.restrict_to(sub)
        stages = delta_filtration(n)
        assert section_multiset(stages) == {"1": 1}

    def test_regular_module(self, z5):
        stages = delta_filtration(regular_module(z5))
        assert section_multiset(stages) == {"2": 2, "1": 1}

    def test_failure_witness_on_scaled_lattice(self, z5, sp_z5):
        # the sublattice span{3e2, beta} of Delta(2) admits no Delta-filtration
        d2 = sp_z5["2"]["Delta"]
        rows = [{0: F(3)}, {1: F(1)}]
        sub = Lattice.from_rows(z5.ring, 2, rows)
        n = d2.restrict_to(sub)
        with pytest.raises(FiltrationFailure):
            delta_filtration(n)


# ---------------------------------------------------------------------------
# Morita reduction (the Prop 4.1 construction)
# ---------------------------------------------------------------------------

def morita_reduce(alg: StructureAlgebra):
    """B' = (+) e_lam B e_mu over lam, mu in Lambda, with induced weights."""
    w = alg.weights
    if w is None:
        raise modules.ModuleError("no weight datum")
    for lam in w.Lambda:
        if not w.idempotents[lam]:
            raise modules.ModuleError(f"idempotent e[{lam!r}] is zero")
    # the e_lam are orthogonal, so the sum of the e_lam B e_mu is e B e
    e = alg.weight_idempotent(w.Lambda)
    sub_basis = alg.corner(e).rows
    sub = alg.subalgebra_on(sub_basis, unit=e)
    coords = alg.coord_solver(sub_basis)
    idems = {}
    for lam in w.Lambda:
        c = coords(w.idempotents[lam])
        if c is None:
            raise modules.ModuleError(
                "weight idempotent escaped the Morita cut")
        idems[lam] = c
    weights = WeightDatum(tuple(w.Lambda), tuple(w.Lambda),
                          frozenset((a, b) for (a, b) in w.less
                                    if a in w.Lambda and b in w.Lambda),
                          idems)
    return StructureAlgebra(sub.ring, sub.level, sub.rank, sub.labels,
                            sub.unit, sub.sc, weights)


class TestMorita:
    def test_inflated_reduces_to_rank_5(self, z5):
        from grforge.fixtures import inflate

        infl = inflate(z5, {"2": 2})
        assert infl.rank == 10
        red = morita_reduce(infl)
        assert red.rank == 5
        red.validate()
        # simple counts preserved at both primes
        for lvl in ("K", "k"):
            rf = red.base_change(lvl)
            rad = radicals.radical_field(rf)
            quot, _, _ = rf.quotient_by_ideal(rad)
            assert len(radicals.center_rows(quot)) == 2

    def test_identity_on_already_reduced(self, z5):
        red = morita_reduce(z5)
        assert red.rank == 5
        red.validate()

    def test_extra_weight_discarded(self, z5):
        # z5 (+) O with the extra weight outside Lambda reduces to rank 5
        from grforge.algebra import StructureAlgebra, WeightDatum

        sc = {k: dict(v) for k, v in z5.sc.items()}
        sc[(5, 5)] = {5: F(1)}
        w = z5.weights
        idems = dict(w.idempotents)
        idems["extra"] = {5: F(1)}
        big = StructureAlgebra(
            z5.ring, "O", 6, None, {**z5.unit, 5: F(1)}, sc,
            WeightDatum.build(("1", "2", "extra"), ("1", "2"),
                              [("1", "2")], idems))
        big.validate()
        red = morita_reduce(big)
        assert red.rank == 5

    def test_zero_idempotent_rejected(self, z5):
        from grforge.algebra import StructureAlgebra, WeightDatum

        w = z5.weights
        idems = dict(w.idempotents)
        idems["1"] = {}
        idems["2"] = {**w.idempotents["1"], **w.idempotents["2"]}
        bad = StructureAlgebra(z5.ring, "O", 5, None, z5.unit, z5.sc,
                               WeightDatum(w.X, w.Lambda, w.less, idems))
        with pytest.raises(Exception):
            morita_reduce(bad)


class TestLambdaStandard:
    def test_z5_positive(self, z5):
        assert is_lambda_standard(z5)["ok"]

    def test_swapped_labels_caught_by_certification(self, z5):
        # swapping the idempotent labels relabels the (one-dimensional)
        # simples consistently, so the weight-algebra axioms still hold;
        # the mislabeling surfaces as a heredity failure instead (the corner
        # at the stripped weight acquires a radical)
        from grforge import certify
        from grforge.algebra import StructureAlgebra, WeightDatum

        w = z5.weights
        swapped = WeightDatum(w.X, w.Lambda, w.less, {
            "1": w.idempotents["2"], "2": w.idempotents["1"]})
        bad = StructureAlgebra(z5.ring, "O", 5, None, z5.unit, z5.sc, swapped)
        assert is_lambda_standard(bad)["ok"]
        cert = certify.certify_qha(bad)
        assert not cert.ok
        assert cert.steps[0].verdicts.get("corner_split") is False

    def test_rank_one(self):
        from grforge.algebra import StructureAlgebra, WeightDatum
        from grforge.scalars import RATIONAL, RingSpec

        ring = RingSpec(RATIONAL, 3)
        w = WeightDatum.build(("*",), ("*",), [], {"*": {0: F(1)}})
        a = StructureAlgebra(ring, "O", 1, None, {0: F(1)},
                             {(0, 0): {0: F(1)}}, w)
        assert is_lambda_standard(a)["ok"]


class TestEq31Decomposition:
    def test_weight_projective_decomposes_into_field_pims(self, z5, sp_z5):
        # over K: A e_lam decomposes into P_K(mu) with multiplicity
        # dim L_K(mu)_lam; checked via head isotypic dimensions
        zK = z5.base_change("K")
        radK = radicals.radical_field(zK)
        simples = weight_simples(zK)
        table = {lam: {mu: len(m.weight_space_rows(mu)) for mu in ("1", "2")}
                 for lam, m in simples}
        for lam in ("1", "2"):
            pk = sp_z5[lam]["P"].base_change("K")
            info = head_info(pk, radK, simples)
            # head multiplicities equal dim L(mu)_lam
            for mu, lmod in simples:
                expect = table[mu][lam]
                got = info["weight_dims"][mu]
                # head weight dims: sum over mu' of mult(mu') dim L(mu')_mu
                # for z5 the simples are 1-dimensional, so direct comparison
                assert got == expect
