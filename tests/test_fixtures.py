import pytest

from grforge import certify, files, fixtures, linalg
from grforge.algebra import AlgebraError
from grforge.scalars import Cyc, Rat


class TestZigzag:
    def test_z5_shape(self, z5):
        assert z5.rank == 5
        assert z5.weights.Lambda == ("1", "2")
        z5.validate()

    def test_z5_other_prime(self):
        z = fixtures.build_z5(5)
        z.validate()
        assert certify.certify_qha(z).ok

    def test_z5s_negative_control(self, z5s):
        z5s.validate()
        assert not certify.certify_qha(z5s).ok


def _k_values(alg):
    """The entries of the structure constants, unit, idempotents and
    generators of an algebra."""
    yield from (x for row in alg.sc.values() for x in row.values())
    yield from alg.unit
    for vectors in (alg.weights.idempotents, alg.generators):
        yield from (x for v in vectors.values() for x in v)


@pytest.mark.parametrize("build", [fixtures.build_z5, fixtures.build_z5s])
def test_fixture_and_loaded_k_values_are_rat(build):
    """Fixture-built and loaded algebras carry one rational scalar type."""
    alg = build(3)
    loaded = files.doc_to_algebra(files.algebra_to_doc(alg))
    for a in (alg, loaded):
        odd = [x for x in _k_values(a) if type(x) not in (int, Rat)]
        assert not odd, odd
        assert any(type(x) is Rat for x in _k_values(a))


class TestQSchur:
    def test_dimension_formula(self, qschur23, qschur33):
        assert qschur23.rank == 10   # C(5, 3)
        assert qschur33.rank == 20   # C(6, 3)

    def test_d4_rank(self):
        s = fixtures.build_qschur(4, 3)
        assert s.rank == 35          # C(7, 3)

    def test_weights_and_poset(self, qschur33):
        w = qschur33.weights
        assert set(w.X) == {"3,0", "2,1", "1,2", "0,3"}
        assert set(w.Lambda) == {"3,0", "2,1"}
        assert w.lt("2,1", "3,0")

    def test_validates_through_generators(self, qschur33):
        rep = qschur33.validate()
        assert rep["associativity"] == "generators"

    def test_p_regularity_labels(self):
        s = fixtures.build_qschur(4, 3)
        assert s.p_regular == {"4,0": True, "3,1": False, "2,2": True}

    def test_certified_qha_over_K(self, qschur33):
        # the algebra over K = Q(zeta) is a certified QHA with dominance order
        ak = qschur33.base_change("K")
        cert = certify.certify_qha(ak)
        assert cert.ok

    def test_base_change_dimension_preserved(self, qschur33):
        ak = qschur33.base_change("k")
        assert ak.rank == qschur33.rank
        ak.validate()

    def test_out_of_range(self):
        for d in (0, 9):
            with pytest.raises(AlgebraError, match="1 <= d <= 8"):
                fixtures.build_qschur(d, 3)


def _qint(p, m):
    """The quantum integer [m] = (v^m - v^-m) / (v - v^-1) at v = zeta_p."""
    z = Cyc.zeta_pow
    return (z(p, m) - z(p, -m)) / (z(p, 1) - z(p, -1))


def _scaled(c, cols):
    return [tuple((r, c * x) for r, x in col) for col in cols]


def _cartan(d, p, c):
    """[K; c] by sparse columns: e_w -> [wt(w) + c] e_w, where the word of
    index k has d - 2 popcount(k) as its weight."""
    cols = []
    for k in range(2 ** d):
        x = _qint(p, d - 2 * bin(k).count("1") + c)
        cols.append(((k, x),) if x else ())
    return cols


@pytest.mark.parametrize("d", [1, 2, 3])
def test_qschur_closed_forms_are_divided_powers(d):
    """[a]! E^(a) = E^a, [a]! F^(a) = F^a and [t]! [K;0;t] = the product of
    the [K; 1-s], s = 1..t, on V^(x)d at p = 31.  Every entry on either side
    is a Laurent polynomial spanning fewer than p - 1 = 30 exponents, so
    equality at zeta_31 is equality in Z[v, v^-1]."""
    p = 31
    gens = fixtures._qschur_generators(d, p)
    fact = Cyc.of(p, 1)
    prod = [((k, Cyc.of(p, 1)),) for k in range(2 ** d)]
    for a in range(1, d + 1):
        fact = fact * _qint(p, a)
        for name in ("E", "F"):
            power = gens[f"{name}(1)"]
            for _ in range(a - 1):
                power = linalg.compose(gens[f"{name}(1)"], power)
            assert _scaled(fact, gens[f"{name}({a})"]) == power
        prod = linalg.compose(_cartan(d, p, 1 - a), prod)
        assert _scaled(fact, gens[f"[K;0;{a}]"]) == prod


class TestUsl2:
    def test_rank_27(self, usl2_p3):
        assert usl2_p3.rank == 27
        usl2_p3.validate()

    def test_blocks_found_over_K_but_ship_unblocked(self, usl2_p3):
        # the monomial-basis order pins the integrally-scaled Serre relation;
        # for it the block idempotents exist over K but are not integral, so
        # the fixture degrades gracefully and records the reason
        info = usl2_p3.blocks_info
        assert info["blocked"] is False
        assert "escape" in info["reason"]
        weights = sorted(tuple(b["weights"]) for b in info["blocks"])
        assert weights == [(0, 1), (2,)]
        regs = {tuple(b["weights"]): b["regular"] for b in info["blocks"]}
        assert regs[(0, 1)] is True and regs[(2,)] is False
        assert all(b["idempotent_integral"] is False for b in info["blocks"])

    def test_block_idempotents_over_K_are_orthogonal(self, usl2_p3):
        ak = usl2_p3.base_change("K")
        es = [b["idempotent"] for b in usl2_p3.blocks_info["blocks"]]
        for e in es:
            assert ak.mul(e, e) == e
        assert linalg.total(es) == ak.unit
        assert not ak.mul(es[0], es[1])


class TestTransforms:
    def test_inflate_rank(self, z5):
        assert fixtures.inflate(z5, {"2": 2}).rank == 10
        assert fixtures.inflate(z5, {"1": 2}).rank == 13

    def test_inflate_identity(self, z5):
        same = fixtures.inflate(z5, {})
        assert same.rank == 5
        same.validate()

    def test_perturb_yields_valid_order(self, z5):
        got = fixtures.perturb(z5, seed=42)
        assert got is not None
        mutant, scaling = got
        mutant.validate()
        assert any(v for v in scaling.values())

    def test_perturb_requires_integral_level(self, z5_K):
        with pytest.raises(Exception):
            fixtures.perturb(z5_K, seed=1)
