from collections import Counter
from fractions import Fraction as F

import pytest

from grforge import algebra, fixtures, graded, modules, radicals, suites
from grforge.algebra import (
    AlgebraError,
    StructureAlgebra,
    ValidationError,
    WeightDatum,
)
from grforge.scalars import RATIONAL, RingSpec


def test_z5_loads_and_validates(z5):
    rep = z5.validate()
    assert rep["associativity"] == "generators"
    assert z5.rank == 5
    assert z5.weights.Lambda == ("1", "2")
    assert z5.weights.lt("1", "2")


def test_broken_associativity_is_rejected(z5):
    sc = {k: dict(v) for k, v in z5.sc.items()}
    # corrupt beta*alpha = gamma into beta*alpha = e1
    sc[(3, 2)] = {0: F(1)}
    bad = StructureAlgebra(z5.ring, "O", 5, z5.labels, z5.unit, sc, z5.weights)
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert any("associativity" in p for p in exc.value.problems)


def test_unit_failure_is_reported(z5):
    bad = StructureAlgebra(z5.ring, "O", 5, z5.labels,
                           (F(1), F(0), F(0), F(0), F(0)), z5.sc, None)
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert any("unit" in p for p in exc.value.problems)


def test_idempotent_axioms_checked(z5):
    w = z5.weights
    broken = WeightDatum(w.X, w.Lambda, w.less, {
        "1": w.idempotents["1"],
        "2": tuple(F(2) * x for x in w.idempotents["2"]),
    })
    bad = StructureAlgebra(z5.ring, "O", 5, z5.labels, z5.unit, z5.sc, broken)
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert any("idempotent" in p for p in exc.value.problems)


def test_scalar_outside_O_rejected():
    ring = RingSpec(RATIONAL, 3)
    sc = {(0, 0): {0: F(1, 3)}}
    bad = StructureAlgebra(ring, "O", 1, None, (F(1),), sc)
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert any("outside O" in p for p in exc.value.problems)


def test_rank_one_algebra_loads():
    ring = RingSpec(RATIONAL, 3)
    alg = StructureAlgebra(ring, "O", 1, ["1"], (F(1),), {(0, 0): {0: F(1)}})
    assert alg.validate()["associativity"] == "basis"


def test_base_change_K_keeps_constants(z5, z5_K):
    assert z5_K.rank == 5
    assert z5_K.sc == z5.sc
    z5_K.validate()


def test_base_change_k_reduces(z5s):
    z5s_k = z5s.base_change("k")
    # beta' alpha = 3 gamma dies mod 3
    assert (3, 2) not in z5s_k.sc
    z5s_k.validate()


def test_poset_cycle_rejected():
    with pytest.raises(Exception):
        WeightDatum.build(("a", "b"), ("a", "b"),
                          [("a", "b"), ("b", "a")], {"a": (1,), "b": (1,)})


def test_subalgebra_closure_check(z5_K):
    # span{1, alpha} is not closed? alpha^2 = 0 so it is; span{alpha, beta} has
    # no unit and beta*alpha = gamma escapes -> must raise
    fld = z5_K.fld
    rows = [[fld.zero] * 5, [fld.zero] * 5]
    rows[0][2] = fld.one
    rows[1][3] = fld.one
    with pytest.raises(Exception):
        z5_K.subalgebra_on(rows)
    # with alpha as the unit the unit test passes; the closure test names
    # the first product that escapes, beta * alpha = gamma
    with pytest.raises(AlgebraError, match=r"multiplication at \(1,0\)$"):
        z5_K.subalgebra_on(rows, unit=rows[0])


def test_quotient_by_nonpure_ideal_rejected(z5):
    from grforge.lattices import Lattice

    # span{3*gamma} is an ideal but not pure
    rows = [[F(0), F(0), F(0), F(0), F(3)]]
    lat = Lattice.from_rows(z5.ring, 5, rows)
    with pytest.raises(Exception):
        z5.quotient_by_ideal(lat)


# the private builder behind each memoized derived object
MEMO_BUILDERS = [
    (algebra, "_base_change"),
    (algebra, "_mult_columns"),
    (algebra, "_sc_by_left"),
    (radicals, "_radical_proof"),
    (graded, "_algebra_radical_chain"),
    (modules, "_weight_projective"),
    (modules, "_standard_module"),
    (modules, "_weight_simples"),
    (modules, "_is_lambda_standard"),
]


class TestDerivedMemo:
    def test_each_derived_object_is_built_once_per_algebra(self, monkeypatch):
        builds = Counter()
        algebras = []  # keeps every algebra alive, so no id() is reused

        def counting(name, build):
            def counted(alg, *args):
                algebras.append(alg)
                builds[(id(alg), name, args)] += 1
                return build(alg, *args)
            return counted

        for mod, name in MEMO_BUILDERS:
            monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        alg = fixtures.build_qschur(2, 5)
        res = suites.thm_417_suite(alg)
        assert res.hypotheses_ok and not res.falsification
        assert {name for _, name, _ in builds} == \
            {name for _, name in MEMO_BUILDERS}
        repeated = {key: n for key, n in builds.items() if n != 1}
        assert not repeated

    def test_base_change_is_memoized(self, z5):
        assert z5.base_change("K") is z5.base_change("K")
        assert z5.base_change("k") is z5.base_change("k")
        assert z5.base_change("K") is not z5.base_change("k")

    def test_defining_attributes_are_fixed(self, z5):
        alg = StructureAlgebra(z5.ring, "O", 5, None, z5.unit, z5.sc, z5.weights)
        for name in ("weights", "unit", "sc"):
            with pytest.raises(AlgebraError):
                setattr(alg, name, getattr(alg, name))
        assert alg.unit == z5.unit and alg.weights is z5.weights
        alg.source_hash = "annotation"
        alg.metadata = {"fixture": "z5"}
        assert alg.source_hash == "annotation"
