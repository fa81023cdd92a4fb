"""The radical's proof chain and the fast paths it runs on.

Each property checks a fast path against the slow reference it replaced,
kept here verbatim: the full rank + 1 power loop, and the dense product
from the structure constants (`dense_reference.dense_mul`) for the dict
product `StructureAlgebra.mul`.  The algebras are z5 over Q and F_3 and
q-Schur S(2,2) over Q(zeta_3) and F_3; the product is also checked on the
small quantum sl2 at p = 3.  The Friedl-Ronyai stage form, one charpoly
per row of the candidate ideal, is checked on the inputs the radical proof
actually gives it, against one charpoly per product z_k b_j and against the
pairwise form of `dense_reference`, on z5, z5s, the small quantum sl2 and
q-Schur algebras at k; on S(2,5) that check is opt-in (GRFORGE_OPT_IN=1).
"""

import os
import time
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from dense_reference import (
    dense_mul,
    dense_rows,
    fr_form_pairwise,
    radical_pairwise,
    vec,
)
from grforge import cli, fixtures, linalg, radicals, suites
from grforge.algebra import StructureAlgebra
from grforge.scalars import Cyc, CycField, RatField

SETTINGS = settings(max_examples=40, deadline=None)
ALGEBRAS = ["z5@O", "z5@K", "z5@k", "qschur23@O", "qschur23@K", "qschur23@k"]
FIELD_ALGEBRAS = [a for a in ALGEBRAS if not a.endswith("@O")]
MUL_ALGEBRAS = ALGEBRAS + ["usl2@O", "usl2@K", "usl2@k"]
BUILDERS = {"z5": lambda: fixtures.build_z5(3),
            "qschur23": lambda: fixtures.build_qschur(2, 3),
            "usl2": lambda: fixtures.build_usl2(3)}


@cache
def algebra(case):
    name, level = case.split("@")
    alg = BUILDERS[name]()
    return alg if level == "O" else alg.base_change(level)


# ---------------------------------------------------------------------------
# the slow references
# ---------------------------------------------------------------------------

def full_powers(alg, rows):
    """[S, S^2, ..., S^(rank + 1)], cut only after a power that is 0."""
    base = alg.span(rows)
    powers = [base]
    zero = alg.fld.zero
    while len(powers) < alg.rank + 1 and powers[-1].rank:
        powers.append(alg.span([
            vec(dense_mul(alg, v, w))
            for v in dense_rows(powers[-1].rows, alg.rank, zero)
            for w in dense_rows(base.rows, alg.rank, zero)]))
    return powers


def dense_product(a, b, field):
    """The product of two square matrices of row lists."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), field.zero)
             for j in range(n)] for i in range(n)]


def charpoly(a, p):
    """The characteristic polynomial of a matrix of Fp values, as ints."""
    return linalg.charpoly_mod_p([[x.v for x in r] for r in a], p)


def per_product_form(alg, rows, power):
    """[c_power(L_(z_k b_j))] for the rows z_k and the basis elements b_j:
    one product and one charpoly of its dense multiplication matrix per
    entry."""
    fld, n = alg.fld, alg.rank
    return [[fld.of(charpoly(linalg.dense_rows(
        alg.left_mult_of(alg.mul(z, alg.basis_vec(j))), n, fld.zero),
        fld.p)[power]) for j in range(n)] for z in rows]


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
            rows.append(linalg.combine(vec(coeffs), rad))
        else:
            rows.append(vec(draw_vec(data, alg)))
    return rows


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from(MUL_ALGEBRAS), st.data())
def test_indexed_mul_matches_dense_loop(case, data):
    """The dict product is the dense product of the dense vectors, entry
    types included, over Q (z5), Q(zeta_3) (qschur(2,3), usl2) and F_3."""
    alg = algebra(case)
    x, y = draw_vec(data, alg), draw_vec(data, alg)
    got = alg.mul(vec(x), vec(y))
    want = vec(dense_mul(alg, x, y))
    assert got == want
    assert all(type(got[t]) is type(c) for t, c in want.items())


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
    want = [vec([trace(dense_product(a, b, fld), fld) for b in mats])
            for a in mats]
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
# the Friedl-Ronyai stages: one charpoly per row of the candidate
# ---------------------------------------------------------------------------

OPT_IN = pytest.mark.skipif(not os.environ.get("GRFORGE_OPT_IN"),
                            reason="opt-in: set GRFORGE_OPT_IN=1")
FR_CASES = (["z5@3", "z5@5", "z5s@3", "usl2@3"]
            + [f"qschur{d}@{p}" for d in (2, 3, 4) for p in (3, 5)]
            + [pytest.param(f"qschur5@{p}", marks=OPT_IN) for p in (3, 5)])


@cache
def algebra_at_k(case):
    name, p = case.split("@")
    builders = {"z5": fixtures.build_z5, "z5s": fixtures.build_z5s,
                "usl2": fixtures.build_usl2}
    if name in builders:
        return builders[name](int(p)).base_change("k")
    return fixtures.build_qschur(int(name[-1]), int(p)).base_change("k")


def stage_inputs(alg):
    """The radical proof of alg, with the (ideal, power) of every stage it
    runs."""
    inputs = []
    fr_form = radicals._fr_form

    def recorded(alg, ideal, power):
        inputs.append((ideal, power))
        return fr_form(alg, ideal, power)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(radicals, "_fr_form", recorded)
        return radicals._radical_proof(alg), inputs


@pytest.mark.parametrize("case", FR_CASES)
def test_fr_stages_match_the_per_product_and_pairwise_forms(case):
    """On the trace-form kernel and each later stage, as the proof runs
    them: the form g(z_k b_j) equals the charpoly of each product, and
    g(z_s z_t) = sum_j z_t[j] g(z_s b_j) the pairwise form."""
    alg = algebra_at_k(case)
    fld, n = alg.fld, alg.rank
    chain, inputs = stage_inputs(alg)
    for ideal, power in inputs:
        cols = radicals._fr_form(alg, ideal, power)
        form = [[cols[j].get(k, fld.zero) for j in range(n)]
                for k in range(ideal.rank)]
        assert form == per_product_form(alg, ideal.rows, power)
        assert [[sum((x * y for x, y in zip(f, z)), fld.zero)
                 for z in dense_rows(ideal.rows, n, fld.zero)]
                for f in form] == \
            fr_form_pairwise(alg, ideal.rows, power)
    assert chain[0].rows == radical_pairwise(alg)


def test_one_charpoly_per_row_of_the_candidate(monkeypatch):
    # the trace-form kernel of qschur(3,3) at k has 16 rows: the pairwise
    # form took 16 * 17 / 2 = 136 charpolys
    calls = Counter()
    charpoly_mod_p = linalg.charpoly_mod_p

    def counted(h, p):
        calls[len(h)] += 1
        return charpoly_mod_p(h, p)

    monkeypatch.setattr(linalg, "charpoly_mod_p", counted)
    alg = fixtures.build_qschur(3, 3).base_change("k")
    chain, inputs = stage_inputs(alg)
    assert [(ideal.rank, power) for ideal, power in inputs] == [(16, 3)]
    assert calls == {alg.rank: 16}
    assert chain[0].rank == 12


def test_each_candidate_is_spanned_once(monkeypatch):
    """is_ideal and the power chain both read the candidate's span: the
    proof builds it once and hands the span to both, and a span passes
    through `span` unchanged.  When each spanned the rows itself, the
    trace-form kernel and the radical of qschur(4,3) at k were each spanned
    twice."""
    spanned = Counter()
    span = StructureAlgebra.span

    def counted(self, rows, ambient=None):
        if not isinstance(rows, linalg.Subspace):
            rows = list(rows)
            spanned[tuple(tuple(sorted(r.items())) for r in rows)] += 1
        return span(self, rows, ambient)

    monkeypatch.setattr(StructureAlgebra, "span", counted)
    chain = radicals._radical_proof(algebra_at_k("qschur4@3"))
    assert chain[0].rank and spanned
    assert max(spanned.values()) == 1, \
        [len(rows) for rows, n in spanned.items() if n > 1]


def test_non_ideal_candidate_gives_no_verdict(tmp_path, monkeypatch, capsys):
    # a trace form whose kernel is the span of a basis idempotent of z5,
    # which is no ideal: the proof stops with an internal error, and no
    # report is written
    cli.main(["gen", "z5", "--p", "3", "-o", str(tmp_path)])
    alg = fixtures.build_z5(3).base_change("k")
    e = next(i for i in range(alg.rank)
             if alg.mul(alg.basis_vec(i), alg.basis_vec(i))
             == alg.basis_vec(i))
    assert not radicals.is_ideal(alg, [alg.basis_vec(e)])

    def gram(alg):
        return [{} if i == e else {i: alg.fld.one} for i in range(alg.rank)]

    monkeypatch.setattr(radicals, "trace_gram", gram)
    rep = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(["verify", "thm417", str(tmp_path / "z5@3.alg.json"),
                     "--report", str(rep)]) == cli.EXIT_MALFORMED
    assert capsys.readouterr().err.startswith("internal error: ")
    assert not rep.exists()


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
    fr_form = radicals._fr_form

    def counted_proof(alg):
        algebras.append(alg)
        proofs[id(alg)] += 1
        return radical_proof(alg)

    def counted_is_ideal(alg, rows):
        # the proof hands is_ideal the candidate's span
        candidates[(id(alg), tuple(tuple(r.items())
                                   for r in alg.span(rows).rows))] += 1
        return is_ideal(alg, rows)

    def counted_stage(alg, ideal, power):
        stages[id(alg)] += 1
        return fr_form(alg, ideal, power)

    monkeypatch.setattr(radicals, "_radical_proof", counted_proof)
    monkeypatch.setattr(radicals, "is_ideal", counted_is_ideal)
    monkeypatch.setattr(radicals, "_fr_form", counted_stage)
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
