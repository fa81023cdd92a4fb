"""The radical's proof chain and the fast paths it runs on.

Each property checks a fast path against the slow reference it replaced,
kept here verbatim: the full rank + 1 power loop, the dense double loop of
`StructureAlgebra.mul`, and the Friedl-Ronyai form built with dense `Fp`
products and `charpoly`.  The algebras are z5 over Q and F_3 and q-Schur
S(2,2) over Q(zeta_3) and F_3.
"""

import time
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from grforge import fixtures, linalg, radicals, suites
from grforge.scalars import Cyc, CycField, Fp, RatField

SETTINGS = settings(max_examples=40, deadline=None)
ALGEBRAS = ["z5@O", "z5@K", "z5@k", "qschur23@O", "qschur23@K", "qschur23@k"]
FIELD_ALGEBRAS = [a for a in ALGEBRAS if not a.endswith("@O")]
PRIME_ALGEBRAS = [a for a in ALGEBRAS if a.endswith("@k")]


@cache
def algebra(case):
    name, level = case.split("@")
    alg = fixtures.build_z5(3) if name == "z5" else fixtures.build_qschur(2, 3)
    return alg if level == "O" else alg.base_change(level)


# ---------------------------------------------------------------------------
# the slow references
# ---------------------------------------------------------------------------

def dense_mul(alg, x, y):
    out = alg.zero_vec()
    sc = alg.sc
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            row = sc.get((i, j))
            if row:
                c = xi * yj
                for t, v in row.items():
                    out[t] = out[t] + c * v
    return out


def full_powers(alg, rows):
    """[S, S^2, ..., S^(rank + 1)], cut only after a power that is 0."""
    base = alg.span(rows)
    powers = [base]
    while len(powers) < alg.rank + 1 and powers[-1].rank:
        powers.append(alg.span([dense_mul(alg, list(v), list(w))
                                for v in powers[-1].rows for w in base.rows]))
    return powers


def dense_product(a, b, field):
    """The product of two square matrices of row lists."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), field.zero)
             for j in range(n)] for i in range(n)]


def charpoly(a, p):
    """The characteristic polynomial of a matrix of Fp values, as ints."""
    return linalg.charpoly_mod_p([[x.v for x in r] for r in a], p)


def fp_form(alg, rows, power):
    fld = alg.fld
    mats = [linalg.dense_rows(alg.left_mult_of(list(v)), alg.rank, fld.zero)
            for v in rows]
    return [[Fp(fld.p, charpoly(dense_product(a, b, fld), fld.p)[power])
             for b in mats] for a in mats]


# ---------------------------------------------------------------------------
# draws: mostly zero entries
# ---------------------------------------------------------------------------

def draw_scalar(data, fld):
    if data.draw(st.integers(0, 9)) < 5:
        return fld.zero
    if isinstance(fld, CycField):
        return Cyc(fld.p, [data.draw(st.integers(-2, 2))
                           for _ in range(fld.p - 1)])
    if isinstance(fld, RatField):
        return Fraction(data.draw(st.integers(-3, 3)),
                        data.draw(st.integers(1, 3)))
    return fld.of(data.draw(st.integers(-3, 3)))


def draw_vec(data, alg):
    return [draw_scalar(data, alg.fld) for _ in range(alg.rank)]


def draw_span(data, alg):
    """1-4 rows: random vectors, or combinations of the radical's rows, so
    that both nilpotent and non-nilpotent spans come up."""
    rad = radicals.radical_field(alg)
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        if rad and data.draw(st.booleans()):
            coeffs = [draw_scalar(data, alg.fld) for _ in rad]
            rows.append(linalg.combine(coeffs, rad, alg.fld.zero))
        else:
            rows.append(draw_vec(data, alg))
    return rows


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(ALGEBRAS), st.data())
def test_indexed_mul_matches_dense_loop(case, data):
    alg = algebra(case)
    x, y = draw_vec(data, alg), draw_vec(data, alg)
    got = alg.mul(x, y)
    want = dense_mul(alg, x, y)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


@SETTINGS
@given(st.sampled_from(FIELD_ALGEBRAS), st.data())
def test_early_exit_powers_match_the_full_loop(case, data):
    alg = algebra(case)
    rows = draw_span(data, alg)
    fast = radicals._subspace_powers(alg, rows, alg.rank + 1)
    full = full_powers(alg, rows)
    # the same nilpotency verdict
    assert (fast[-1].rank == 0) == (full[-1].rank == 0)
    # a prefix of the full chain, which stays at its last power after it
    assert fast == full[:len(fast)]
    assert all(s == fast[-1] for s in full[len(fast):])


@SETTINGS
@given(st.sampled_from(PRIME_ALGEBRAS), st.data())
def test_int_fr_form_matches_fp_reference(case, data):
    alg = algebra(case)
    p = alg.fld.p
    rows = draw_span(data, alg)
    power = p ** data.draw(st.integers(0, 1))
    got = radicals._fr_form(alg, rows, power)
    assert got == fp_form(alg, rows, power)
    assert all(type(c) is Fp and c.p == p for r in got for c in r)


def dense_left_mult(alg):
    """The left multiplication matrices as row lists, from the structure
    constants."""
    z, n = alg.fld.zero, alg.rank
    mats = [[[z] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in alg.sc.items():
        for t, v in row.items():
            mats[i][t][j] = v
    return mats


@pytest.mark.parametrize("case", ALGEBRAS)
def test_trace_gram_is_the_trace_of_the_dense_products(case):
    """Over Q (z5@O, z5@K), F_3 (the k levels) and Q(zeta_3) (qschur23@O,
    qschur23@K)."""
    alg = algebra(case)
    fld = alg.fld
    mats = dense_left_mult(alg)
    want = [[trace(dense_product(a, b, fld), fld) for b in mats] for a in mats]
    assert radicals.trace_gram(alg) == want


def trace(m, field):
    return sum((m[t][t] for t in range(len(m))), field.zero)


@pytest.mark.parametrize("case", FIELD_ALGEBRAS)
def test_proof_chain_is_the_radical_filtration(case):
    alg = algebra(case)
    chain = radicals.radical_chain(alg)
    assert chain[-1].rank == 0
    assert chain[1].rows == radicals.radical_field(alg)
    assert radicals.is_ideal(alg, chain[1].rows)
    # strictly decreasing: the early exit never cut the radical's chain
    assert all(a.rank > b.rank for a, b in zip(chain, chain[1:]))
    assert chain[1:] == full_powers(alg, chain[1].rows)


# ---------------------------------------------------------------------------
# the main theorem at rank 56, within a wall budget
# ---------------------------------------------------------------------------

QSCHUR_56_BUDGET_S = 15


@pytest.mark.parametrize("p", [3, 5])
def test_thm_417_on_qschur_5_proves_each_radical_once(p, monkeypatch):
    proofs = Counter()
    candidates = Counter()
    stages = Counter()
    algebras = []  # keeps every algebra alive, so no id() is reused
    radical_proof = radicals._radical_proof
    is_ideal = radicals.is_ideal
    fr_stage = radicals._fr_stage

    def counted_proof(alg):
        algebras.append(alg)
        proofs[id(alg)] += 1
        return radical_proof(alg)

    def counted_is_ideal(alg, rows):
        candidates[(id(alg), tuple(map(tuple, rows)))] += 1
        return is_ideal(alg, rows)

    def counted_stage(alg, rows, power):
        stages[id(alg)] += 1
        return fr_stage(alg, rows, power)

    monkeypatch.setattr(radicals, "_radical_proof", counted_proof)
    monkeypatch.setattr(radicals, "is_ideal", counted_is_ideal)
    monkeypatch.setattr(radicals, "_fr_stage", counted_stage)
    t0 = time.time()
    alg = fixtures.build_qschur(5, p)
    res = suites.thm_417_suite(alg)
    dt = time.time() - t0
    assert res.hypotheses_ok and not res.falsification
    assert res.conclusions and all(res.conclusions.values())
    assert dt < QSCHUR_56_BUDGET_S, \
        f"qschur(5,{p}) took {dt:.1f}s >= {QSCHUR_56_BUDGET_S}s"
    assert proofs and set(proofs.values()) == {1}
    # one is_ideal per candidate: the trace-form kernel and each later stage
    assert set(candidates.values()) == {1}
    assert sum(candidates.values()) == len(proofs) + sum(stages.values())
