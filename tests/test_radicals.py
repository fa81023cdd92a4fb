from fractions import Fraction as F

import pytest

from grforge import linalg, radicals
from grforge.algebra import AlgebraError, StructureAlgebra
from grforge.scalars import RATIONAL, InternalCheckError, RingSpec

R3 = RingSpec(RATIONAL, 3)


def upper_triangular_2x2():
    # basis E11, E12, E22
    sc = {
        (0, 0): {0: F(1)}, (0, 1): {1: F(1)},
        (1, 2): {1: F(1)},
        (2, 2): {2: F(1)},
    }
    return StructureAlgebra(R3, "O", 3, ["E11", "E12", "E22"],
                            (F(1), F(0), F(1)), sc)


def full_2x2():
    sc = {}
    def ui(i, j):
        return {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}[(i, j)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        sc[(ui(i, j), ui(k, l))] = {ui(i, l): F(1)}
    return StructureAlgebra(R3, "O", 4, None, (F(1), F(0), F(0), F(1)), sc)


class TestRadicalCharZero:
    def test_upper_triangular(self):
        a = upper_triangular_2x2().base_change("K")
        rad = radicals.radical_field(a)
        assert len(rad) == 1
        assert rad[0].get(1) and 0 not in rad[0] and 2 not in rad[0]

    def test_z5_radical(self, z5_K):
        rad = radicals.radical_field(z5_K)
        assert len(rad) == 3
        # spanned by alpha, beta, gamma: no idempotent coordinates
        for r in rad:
            assert 0 not in r and 1 not in r

    def test_semisimple_matrix_algebra(self):
        a = full_2x2().base_change("K")
        assert radicals.radical_field(a) == []


class TestRadicalCharP:
    def test_z5_mod_p(self, z5_k):
        rad = radicals.radical_field(z5_k)
        assert len(rad) == 3

    def test_group_algebra_of_cyclic_p(self):
        # k[C_3] = k[u]/(u^3 - 1): regular trace form vanishes identically,
        # so the Friedl-Ronyai stages beyond the trace form are exercised
        sc = {}
        for i in range(3):
            for j in range(3):
                sc[(i, j)] = {(i + j) % 3: F(1)}
        a = StructureAlgebra(R3, "O", 3, ["1", "g", "g2"],
                             (F(1), F(0), F(0)), sc).base_change("k")
        rad = radicals.radical_field(a)
        assert len(rad) == 2  # augmentation ideal of a totally ramified algebra

    def test_mixed_semisimple_char_p(self):
        a = full_2x2().base_change("k")
        assert radicals.radical_field(a) == []

    def test_nilpotent_candidate_must_be_an_ideal(self, monkeypatch):
        # a trace form whose kernel is span{E12}: nilpotent, not an ideal,
        # and no stage may start from it
        a = full_2x2().base_change("k")
        fld = a.fld
        gram = [[fld.one if i == j != 1 else fld.zero for j in range(4)]
                for i in range(4)]
        monkeypatch.setattr(radicals, "trace_gram", lambda alg: gram)
        with pytest.raises(InternalCheckError, match="not an ideal"):
            radicals.radical_field(a)


def natural_2x2_module(fld):
    """M_2 acting on column vectors: the basis unit E_ij of full_2x2 acts as
    the elementary matrix."""
    acts = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        acts.append(linalg.columns([[fld.one if (r, c) == (i, j) else fld.zero
                                     for c in range(2)] for r in range(2)]))
    return [("nat", acts)]


class TestSplitting:
    def test_z5_blocks_via_weight_simples(self, z5_K):
        from grforge.modules import weight_simples

        rad = radicals.radical_field(z5_K)
        simples = weight_simples(z5_K)
        quot, lifts, _ = z5_K.quotient_by_ideal(rad)
        qmods = radicals.quotient_modules(z5_K, lifts, simples)
        blocks = radicals.split_semisimple(quot, qmods)
        assert sorted(b.simple_dim for b in blocks) == [1, 1]
        for blk in blocks:
            assert set(blk.matrix_units) == {(0, 0)}

    @pytest.mark.parametrize("case", ["full_2x2@K", "z5@K", "z5@k"])
    def test_matrix_units(self, case, request):
        # full_2x2 takes the rad = 0 branch, z5 the lifting branch
        from grforge.modules import weight_simples

        if case == "full_2x2@K":
            alg = full_2x2().base_change("K")
            mods, sizes = natural_2x2_module(alg.fld), [2]
        else:
            alg = request.getfixturevalue("z5_" + case[-1])
            mods, sizes = weight_simples(alg), [1, 1]
        rad = radicals.radical_field(alg)
        assert bool(rad) == case.startswith("z5")
        blocks, units = radicals.matrix_units(alg, mods)
        assert sorted(b.simple_dim for b in blocks) == sizes
        assert radicals.matrix_units_hold(alg, units, alg.unit)
        diag = [alg.fld.zero] * alg.rank
        for (_, i, j), u in units.items():
            if i == j:
                diag = [a + b for a, b in zip(diag, u)]
        assert diag == list(alg.unit)
        assert alg.span(list(units.values()) + list(rad)).rank == alg.rank
        # every single flipped entry breaks the relations
        for key, u in units.items():
            for t in range(alg.rank):
                bad = dict(units)
                bad[key] = list(u)
                bad[key][t] = bad[key][t] + alg.fld.one
                assert not radicals.matrix_units_hold(alg, bad, alg.unit), \
                    (key, t)


class TestWedderburn:
    def test_z5_complement(self, z5_K):
        from grforge.modules import weight_simples

        mods = weight_simples(z5_K)
        s = radicals.wedderburn_complement(z5_K, mods)
        span = z5_K.span(s)
        assert span.rank == 2
        # contains both idempotents
        for lbl in ("1", "2"):
            assert span.contains_vector(list(z5_K.weights.idempotents[lbl]))

    def test_nilpotent_extension_of_scalars(self):
        # Q[x]/x^2: complement is the scalars
        sc = {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 0): {1: F(1)}}
        a = StructureAlgebra(R3, "O", 2, ["1", "x"], (F(1), F(0)), sc)
        ak = a.base_change("K")
        # trivial module: scalars acting through the augmentation
        triv = [linalg.columns([[ak.fld.one]]), linalg.columns([[ak.fld.zero]])]
        s = radicals.wedderburn_complement(ak, [("triv", triv)])
        assert len(s) == 1
        assert s[0] == {0: ak.fld.one}

    def test_semisimple_complement_is_everything(self):
        a = full_2x2().base_change("K")
        s = radicals.wedderburn_complement(a, [])
        assert len(s) == 4

    def test_contain_option(self, z5_K):
        from grforge.modules import weight_simples

        mods = weight_simples(z5_K)
        # a conjugated copy of the idempotent span: e1' = e1 + gamma-ish
        # (1 + n) e1 (1 - n) with n = gamma nilpotent central in e1 A e1:
        # gamma central => conjugation trivial; use n = beta instead
        fld = z5_K.fld
        n = [fld.zero] * 5
        n[3] = fld.one  # beta
        one = list(z5_K.unit)
        u = [a + b for a, b in zip(one, n)]
        uinv = [a - b for a, b in zip(one, n)]
        e1 = list(z5_K.weights.idempotents["1"])
        e2 = list(z5_K.weights.idempotents["2"])
        s0 = [z5_K.mul(u, z5_K.mul(e, uinv)) for e in (e1, e2)]
        s = radicals.wedderburn_complement(z5_K, mods, contain=s0)
        span = z5_K.span(s)
        for v in s0:
            assert span.contains_vector(v)


class TestNilpotency:
    def test_degree(self, z5_K):
        assert len(radicals.radical_chain(z5_K)) - 1 == 3

    def test_subspace_power(self, z5_K):
        rad = radicals.radical_field(z5_K)
        sq = radicals._subspace_powers(z5_K, rad, 2)[-1].rows
        assert len(sq) == 1  # span{gamma}
        cb = radicals._subspace_powers(z5_K, rad, 3)[-1].rows
        assert cb == []


# nested subalgebra radicals (char 0); no command runs this check
def subalgebra_radical_check(alg, a_rows, b_rows=None):
    """Verify the nested-radical identities for a <= b <= A over K.

    Checks b ∩ rad A = rad b and a ∩ rad A = a ∩ rad b = rad a, and returns
    the dimensions of every side.  Raises if a span is not closed under
    multiplication, misses the identity, or a is not contained in b.
    """
    if alg.fld.char != 0:
        raise AlgebraError("the nested-radical check runs over K")
    fld = alg.fld
    if b_rows is None:
        b_rows = [alg.basis_vec(i) for i in range(alg.rank)]

    def sub_and_rad(rows):
        sub, basis = alg.subalgebra_on([list(r) for r in rows], labels=None)
        return alg.span([linalg.combine(c, basis)
                         for c in radicals.radical_field(sub)])

    a_span, b_span = alg.span(a_rows), alg.span(b_rows)
    if not b_span.contains_lattice(a_span):
        raise AlgebraError("a is not contained in b")
    rad_A = alg.span(radicals.radical_field(alg) if alg.rank else [])
    rad_b = sub_and_rad(b_rows)
    rad_a = sub_and_rad(a_rows)
    b_cap_radA = b_span.intersection(rad_A)
    a_cap_radA = a_span.intersection(rad_A)
    a_cap_radb = a_span.intersection(rad_b)
    report = {
        "dim_rad_A": rad_A.rank,
        "dim_rad_b": rad_b.rank,
        "dim_rad_a": rad_a.rank,
        "dim_b_cap_rad_A": b_cap_radA.rank,
        "dim_a_cap_rad_A": a_cap_radA.rank,
        "dim_a_cap_rad_b": a_cap_radb.rank,
        "b_identity": b_cap_radA == rad_b,
        "a_identity": a_cap_radA == rad_a and a_cap_radb == rad_a,
    }
    report["ok"] = report["b_identity"] and report["a_identity"]
    return report


class TestSubalgebraRadicalCheck:
    def test_full_radical_subalgebra(self, z5_K):
        fld = z5_K.fld
        one = list(z5_K.unit)
        rows = [one]
        for i in (2, 3, 4):  # alpha, beta, gamma
            v = [fld.zero] * 5
            v[i] = fld.one
            rows.append(v)
        rep = subalgebra_radical_check(z5_K, rows)
        assert rep["ok"] and rep["dim_rad_a"] == 3

    def test_scalars_only(self, z5_K):
        rep = subalgebra_radical_check(z5_K, [list(z5_K.unit)])
        assert rep["ok"] and rep["dim_rad_a"] == 0

    def test_one_and_gamma(self, z5_K):
        fld = z5_K.fld
        gamma = [fld.zero] * 5
        gamma[4] = fld.one
        rep = subalgebra_radical_check(
            z5_K, [list(z5_K.unit), gamma])
        assert rep["ok"]
        assert rep["dim_rad_a"] == 1 and rep["dim_a_cap_rad_A"] == 1

    def test_intermediate_b(self, z5_K):
        fld = z5_K.fld
        gamma = [fld.zero] * 5
        gamma[4] = fld.one
        b_rows = [list(z5_K.unit)]
        for i in (2, 3, 4):
            v = [fld.zero] * 5
            v[i] = fld.one
            b_rows.append(v)
        rep = subalgebra_radical_check(
            z5_K, [list(z5_K.unit), gamma], b_rows)
        assert rep["ok"]

    def test_unclosed_span_rejected(self, z5_K):
        fld = z5_K.fld
        alpha = [fld.zero] * 5
        alpha[2] = fld.one
        beta = [fld.zero] * 5
        beta[3] = fld.one
        with pytest.raises(Exception):
            subalgebra_radical_check(
                z5_K, [list(z5_K.unit), alpha, beta])
