"""The randomized campaigns decide each distinct draw once; the End_A(J)
cross-check builds its candidate modules lazily.

Each check compares the package with the loops it replaced, kept verbatim
in `campaign_reference`: the campaigns must return equal stats on
hypothesis-drawn seeds and trial counts, with one `primitivity_test` per
distinct (module, lam, v) and one `prop_52_verdicts` per distinct (copies,
pure lattice); the lazy `_endo_direct_check` must give the eager loop's
verdict on every heredity step it runs on.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import campaign_reference as ref
from dense_reference import dense_rows
from grforge import certify, fixtures, forced, linalg, modules, radicals, \
    randomized, tightness

ALGEBRAS = ["z5@3", "z5@5", "qschur2@3"]
SETTINGS = settings(max_examples=6, deadline=None)


@cache
def algebra(case):
    name, p = case.split("@")
    if name == "z5":
        return fixtures.build_z5(int(p))
    return fixtures.build_qschur(int(name[-1]), int(p))


@cache
def campaign_modules(case):
    alg = algebra(case)
    sp = modules.standard_and_projectives(alg)
    return [sp[lam][kind] for lam in alg.weights.Lambda
            for kind in ("P", "Delta")]


def datum(alg):
    """All basis rows: z5's path grading, and degree 0 for q-Schur."""
    grades = (0, 0, 1, 1, 2) if alg.rank == 5 else (0,) * alg.rank
    return tightness.GradedSubalgebraDatum(
        [alg.basis_vec(i) for i in range(alg.rank)], grades)


def recorded(calls, fn, key):
    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return fn(*args, **kwargs)
    return wrapper


def kept(results, fn):
    def wrapper(*args):
        results.append(fn(*args))
        return results[-1]
    return wrapper


@pytest.mark.parametrize("case", ALGEBRAS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(0, 60))
def test_primitivity_campaign_matches_the_loop_it_replaced(case, seed,
                                                           trials):
    alg, mods = algebra(case), campaign_modules(case)
    drawn, decided = [], []

    def key(mod, v, lam, *rest):
        # v is dense in the loop and a dict in the campaign
        return id(mod), lam, tuple(sorted(linalg.sparse(v).items()))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(ref, "primitivity_test",
                  recorded(drawn, ref.primitivity_test, key))
        m.setattr(forced, "primitivity_test",
                  recorded(decided, forced.primitivity_test, key))
        expected = ref.primitivity_campaign(alg, mods, trials, seed)
        got = randomized.primitivity_campaign(alg, mods, trials, seed)
    assert got == expected
    assert len(drawn) == trials
    # one decision per distinct draw
    assert sorted(decided, key=repr) == sorted(set(drawn), key=repr)


@pytest.mark.parametrize("case", ALGEBRAS)
@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), trials=st.integers(0, 25))
def test_prop52_campaign_matches_the_loop_it_replaced(case, seed, trials):
    alg = algebra(case)
    d = datum(alg)
    drawn, lattices, decided = [], [], []
    with pytest.MonkeyPatch.context() as m:
        # the pure lattices are the draws, in the order drawn
        m.setattr(ref, "pure_closure", kept(drawn, ref.pure_closure))
        expected = ref.prop52_campaign(alg, d, trials, seed)
        m.setattr(randomized, "pure_closure",
                  kept(lattices, randomized.pure_closure))
        m.setattr(tightness, "prop_52_verdicts",
                  recorded(decided, tightness.prop_52_verdicts,
                           lambda alg, datum, mod: mod.rank))
        got = randomized.prop52_campaign(alg, d, trials, seed)
    assert got == expected
    assert lattices == drawn and len(drawn) == trials
    # one decision per distinct lattice (its ambient rank fixes the copies)
    assert len(decided) == len(set(lattices))


def test_primitivity_test_builds_the_weight_invariants_once(sp_z5,
                                                            monkeypatch):
    """Many vectors of one (module, lam) through one WeightInvariants: the
    projector, N', the chain, each saturation and the maximality verdict
    are built once, and the reports equal those of the 3-argument call."""
    built = []
    for name in ("n_prime_lattice", "module_rad_chain", "saturate_rows"):
        monkeypatch.setattr(forced, name, recorded(
            built, getattr(forced, name), lambda *args, name=name: name))
    p1 = sp_z5["1"]["P"]
    rows = dense_rows(p1.weight_space_rows("1"), p1.rank, p1.fld.zero)
    vectors = [[a * x + b * y for x, y in zip(*rows)]
               for a in range(-3, 4) for b in range(-3, 4)]
    inv = forced.WeightInvariants(p1, "1")
    reports = [forced.primitivity_test(p1, v, "1", inv) for v in vectors]
    grades = {r.grade for r in reports if r.grade is not None}
    assert built.count("n_prime_lattice") == 1
    assert built.count("module_rad_chain") == 1
    assert built.count("saturate_rows") == len(grades) > 1
    built.clear()
    assert [forced.primitivity_test(p1, v, "1") for v in vectors] == reports
    assert [ref.primitivity_test(p1, v, "1") for v in vectors] == reports


# ---------------------------------------------------------------------------
# the End_A(J) cross-check
# ---------------------------------------------------------------------------

def heredity_algebras():
    z5 = fixtures.build_z5(3)
    yield z5
    yield fixtures.build_z5s(3)
    for seed in range(1, 9):
        got = fixtures.perturb(z5, seed=seed, count=1 + seed % 2)
        if got is not None:
            yield got[0]
    for d in (1, 2, 3):
        for p in (3, 5):
            yield fixtures.build_qschur(d, p)


def test_lazy_endo_check_matches_the_eager_loop(monkeypatch):
    seen = []
    lazy = certify._endo_direct_check

    def both(alg, J, sizes):
        got = lazy(alg, J, sizes)
        seen.append((got, ref.endo_direct_check(alg, J, sizes)))
        return got

    monkeypatch.setattr(certify, "_endo_direct_check", both)
    for alg in heredity_algebras():
        certify.certify_qha(alg)
    assert seen
    assert all(got == expected for got, expected in seen), seen


def test_split_semisimple_reads_one_module_per_character(z5_k):
    """z5 at k modulo its radical is k x k: after one module of each of the
    two central characters, the splitting reads no further module."""
    rad = radicals.radical_field(z5_k)
    quot, lifts, _ = z5_k.quotient_by_ideal(rad)
    simples = radicals.quotient_modules(z5_k, lifts,
                                        modules.weight_simples(z5_k))

    def then_fail():
        yield from simples
        raise AssertionError("read a module past the last character")

    blocks = radicals.split_semisimple(quot, then_fail())
    assert [b.label for b in blocks] == \
        [b.label for b in radicals.split_semisimple(quot, simples + simples)]
