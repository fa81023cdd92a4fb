"""The exact multiplicativity proof behind StructureAlgebra.validate and
ModuleRep.validate (StructureAlgebra.representation_problems), against the
literal triple loop of associativity and the literal pair loop of the module
axiom kept here."""

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grforge import algebra, cli, files, fixtures, linalg, modules
from grforge.algebra import StructureAlgebra, ValidationError
from grforge.modules import ModuleError, ModuleRep
from grforge.scalars import RATIONAL, RingSpec

ONE, ZERO = Fraction(1), Fraction(0)


def square_zero(rank, products=(), generators=None):
    """Rank `rank` over Z_(3): unit x0 and x_i x_j = 0 for i, j >= 1, except
    x_i x_j = x_t for each (i, j, t) in `products`.  `generators` lists the
    indices of the document generators, named like the basis."""
    sc = {(0, j): {j: ONE} for j in range(rank)}
    sc.update({(j, 0): {j: ONE} for j in range(1, rank)})
    sc.update({(i, j): {t: ONE} for i, j, t in products})
    labels = [f"x{i}" for i in range(rank)]
    basis = [tuple(ONE if t == i else ZERO for t in range(rank))
             for i in range(rank)]
    gens = None if generators is None else \
        {labels[i]: basis[i] for i in generators}
    return StructureAlgebra(RingSpec(RATIONAL, 3), "O", rank, labels,
                            basis[0], sc, None, gens)


def matrix_unit(r, c):
    m = [[ZERO, ZERO], [ZERO, ZERO]]
    m[r][c] = ONE
    return m


def two_dim_acts(rank, a, b):
    """x0 acts as the identity, x_a and x_b as E12 and E21, all else as 0."""
    acts = [[[ZERO, ZERO], [ZERO, ZERO]] for _ in range(rank)]
    acts[0] = [[ONE, ZERO], [ZERO, ONE]]
    acts[a], acts[b] = matrix_unit(0, 1), matrix_unit(1, 0)
    return [linalg.columns(m) for m in acts]


# (x1 x2) x4 = x5 but x1 (x2 x4) = 0
NONASSOCIATIVE_30 = [(1, 2, 3), (3, 4, 5)]


def test_rank_30_nonassociative_algebra_is_rejected():
    bad = square_zero(30, NONASSOCIATIVE_30)
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert "associativity fails through generator 'x1' at basis x2" \
        in exc.value.problems
    with pytest.raises(ValidationError):
        files.doc_to_algebra(files.algebra_to_doc(bad))


def test_rank_30_module_checks_every_pair():
    # x1 x6 = 0, but x1 and x6 act by E12 and E21, whose product is E11
    with pytest.raises(ModuleError) as exc:
        ModuleRep(square_zero(30), 2, two_dim_acts(30, 1, 6)).validate()
    assert "the module axiom fails through generator 'x1' at basis x6" \
        in str(exc.value)


def test_gr_of_a_nonassociative_document_exits_2(tmp_path):
    path = tmp_path / "bad.alg.json"
    path.write_text(json.dumps(
        files.algebra_to_doc(square_zero(30, NONASSOCIATIVE_30))))
    out = tmp_path / "gr.alg.json"
    assert cli.main(["gr", str(path), "-o", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("mutate, problem", [
    (lambda d: d["generators"].update(e1=["1", "0"]),
     "generator 'e1' has wrong length"),
    (lambda d: d["generators"].update(e1=["1/3", "0", "0", "0", "0"]),
     "generator 'e1' has an entry outside O"),
    (lambda d: d.update(unit=["1/3", "1", "0", "0", "0"]),
     "unit has an entry outside O"),
    (lambda d: d["structure_constants"].append([2, 3, 4, "1/3"]),
     "structure constant c[2,3,4] outside O"),
])
def test_shapes_and_integrality_are_checked_before_the_proof(z5, mutate,
                                                            problem):
    doc = json.loads(json.dumps(files.algebra_to_doc(z5)))
    mutate(doc)
    with pytest.raises(ValidationError) as exc:
        files.doc_to_algebra(doc)
    assert exc.value.problems == [problem]


# a generating set of square_zero(12): all of x1..x11 in some order, a
# proper subset (which does not generate), or none
GENERATOR_SETS = st.one_of(
    st.none(), st.permutations(range(1, 12)),
    st.lists(st.integers(1, 11), max_size=10, unique=True))


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(1, 12)), GENERATOR_SETS)
def test_a_planted_failure_is_found_wherever_it_lies(order, generators):
    a, b, c, d, e = order[:5]
    alg = square_zero(12, generators=generators)
    generated = generators is not None and len(generators) == 11
    assert alg.validate() == \
        {"associativity": "generators" if generated else "basis"}
    # (x_a x_b) x_d = x_e, but x_a (x_b x_d) = 0
    bad = square_zero(12, [(a, b, c), (c, d, e)], generators)
    with pytest.raises(ValidationError) as exc:
        bad.validate()
    assert f"associativity fails through generator 'x{a}' at basis x{b}" \
        in exc.value.problems
    with pytest.raises(ModuleError) as exc:
        ModuleRep(alg, 2, two_dim_acts(12, a, b)).validate()
    assert f"the module axiom fails through generator 'x{a}' at basis x{b}" \
        in str(exc.value)


# -- the proof against literal loops on single-entry corruptions --------------

@functools.cache
def source(name):
    """A fixture with generators (rank 20 for qschur(3,3)) and its
    standard and projective modules."""
    alg = {"z5": lambda: fixtures.build_z5(3),
           "qschur(2,3)": lambda: fixtures.build_qschur(2, 3),
           "qschur(3,3)": lambda: fixtures.build_qschur(3, 3)}[name]()
    return alg, modules.standard_and_projectives(alg)


def rebuilt(alg, sc, with_generators):
    """The algebra with structure constants `sc`, without weights, and with
    or without the generators of `alg`."""
    return StructureAlgebra(alg.ring, "O", alg.rank, alg.labels, alg.unit, sc,
                            None, alg.generators if with_generators else None)


def literal_unit_ok(alg):
    basis = [alg.basis_vec(i) for i in range(alg.rank)]
    u = list(alg.unit)
    return all(alg.mul(u, b) == b and alg.mul(b, u) == b for b in basis)


def literal_associative(alg):
    n = alg.rank
    basis = [alg.basis_vec(i) for i in range(n)]
    prod = [[alg.mul(x, y) for y in basis] for x in basis]
    return all(alg.mul(prod[i][j], basis[k]) == alg.mul(basis[i], prod[j][k])
               for i in range(n) for j in range(n) for k in range(n))


def literal_product(a, b, zero):
    m = len(a)
    return [[sum((a[r][k] * b[k][c] for k in range(m) if a[r][k]), zero)
             for c in range(m)] for r in range(m)]


def literal_combination(coeffs, mats, zero):
    m = len(mats[0])
    terms = [(x, mat) for x, mat in zip(coeffs, mats) if x]
    return [[sum((x * mat[r][c] for x, mat in terms), zero)
             for c in range(m)] for r in range(m)]


def literal_module_unit_ok(alg, acts):
    fld, m = alg.fld, len(acts[0])
    ident = [[fld.one if r == c else fld.zero for c in range(m)]
             for r in range(m)]
    return literal_combination(alg.unit, acts, fld.zero) == ident


def literal_pairs_ok(alg, acts):
    zero = alg.fld.zero
    for i in range(alg.rank):
        for j in range(alg.rank):
            row = alg.sc.get((i, j), {})
            coeffs = [row.get(t, zero) for t in range(alg.rank)]
            if literal_product(acts[i], acts[j], zero) != \
                    literal_combination(coeffs, acts, zero):
                return False
    return True


ALGEBRAS = st.sampled_from(["z5", "qschur(2,3)", "qschur(3,3)"])
VALUES = st.integers(-2, 2)


@settings(max_examples=40, deadline=None)
@given(ALGEBRAS, st.booleans(), st.data())
def test_associativity_proof_matches_the_triple_loop(name, with_gens, data):
    alg, _ = source(name)
    n = alg.rank
    i, j, t = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    sc = {key: dict(row) for key, row in alg.sc.items()}
    sc.setdefault((i, j), {})[t] = alg.fld.of(data.draw(VALUES))
    sc = {key: {s: v for s, v in row.items() if v} for key, row in sc.items()}
    bad = rebuilt(alg, sc, with_gens)
    unit_ok, assoc_ok = literal_unit_ok(bad), literal_associative(bad)
    try:
        report, problems = bad.validate(), []
    except ValidationError as exc:
        report, problems = None, exc.problems
    assert (report is not None) == (unit_ok and assoc_ok)
    if unit_ok:
        assert assoc_ok == (not any("associativity" in p for p in problems))


@settings(max_examples=40, deadline=None)
@given(ALGEBRAS, st.booleans(), st.data())
def test_module_proof_matches_the_pair_loop(name, with_gens, data):
    alg, sp = source(name)
    lam = data.draw(st.sampled_from(sorted(sp)))
    mod = sp[lam][data.draw(st.sampled_from(["P", "Delta"]))]
    n, m = alg.rank, mod.rank
    i = data.draw(st.integers(0, n - 1))
    r, c = (data.draw(st.integers(0, m - 1)) for _ in range(2))
    acts = [linalg.dense_rows(mat, m, alg.fld.zero) for mat in mod.acts]
    acts[i][r][c] = alg.fld.of(data.draw(VALUES))
    over = rebuilt(alg, alg.sc, with_gens)
    bad = ModuleRep(over, m, [linalg.columns(mat) for mat in acts])
    unit_ok = literal_module_unit_ok(over, acts)
    pairs_ok = literal_pairs_ok(over, acts)
    try:
        accepted, message = bad.validate(), ""
    except ModuleError as exc:
        accepted, message = False, str(exc)
    assert accepted == (unit_ok and pairs_ok)
    if unit_ok:
        assert pairs_ok == ("module axiom" not in message)


# -- the sparse-column proof against the dense matrix identity ----------------

def dense_left_mult(alg):
    """The left multiplication matrices as row lists, from the structure
    constants."""
    z, n = alg.fld.zero, alg.rank
    mats = [[[z] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in alg.sc.items():
        for t, v in row.items():
            mats[i][t][j] = v
    return mats


def dense_mat_mul(a, b, field):
    """The dense product that `representation_problems` used before the
    sparse columns."""
    n, m = len(a), len(b[0]) if b else 0
    out = [[field.zero] * m for _ in range(n)]
    for ai, oi in zip(a, out):
        for x, bk in zip(ai, b):
            if x:
                for j in range(m):
                    if bk[j]:
                        oi[j] = oi[j] + x * bk[j]
    return out


def dense_representation_problems(alg, acts, what):
    """`representation_problems` on action matrices given as row lists, with
    the dense product and combination of matrices it used before the sparse
    columns."""
    zero = alg.fld.zero
    _, names, gens = alg._derived(algebra._proof_generators)
    problems = []
    for name, g in zip(names, gens):
        rg = literal_combination(g, acts, zero)
        for j in range(alg.rank):
            lhs = dense_mat_mul(rg, acts[j], alg.fld)
            rhs = literal_combination(alg.mul(g, alg.basis_vec(j)), acts, zero)
            if lhs != rhs:
                problems.append(f"{what} fails through generator {name!r} "
                                f"at basis {alg.labels[j]}")
                if len(problems) > 8:
                    return problems
    return problems


def at_level(alg, level):
    return alg if level == "O" else alg.base_change(level)


def reduced_acts(alg, acts):
    """Dense action matrices over O carried to the level of `alg`."""
    if alg.level != "k":
        return acts
    red = alg.ring.residue
    return [[[red(x) for x in row] for row in m] for m in acts]


# Q (z5 over Z_(3)), F_3, and Q(zeta_3) (qschur(2,3) over Z_(3)[zeta_3])
FIELD_CASES = st.sampled_from([("z5", "K"), ("z5", "k"), ("qschur(2,3)", "K"),
                               ("qschur(2,3)", "k")])


@settings(max_examples=40, deadline=None)
@given(FIELD_CASES, st.booleans(), st.data())
def test_sparse_proof_matches_the_dense_identity(case, corrupt, data):
    """The same problems, in the same order, as the dense identity, on the
    left multiplication matrices (a structure constant changed or not) and
    on a module's action matrices (an entry changed or not)."""
    name, level = case
    src, sp = source(name)
    n = src.rank
    if data.draw(st.booleans()):
        sc = {key: dict(row) for key, row in src.sc.items()}
        if corrupt:
            i, j, t = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            sc.setdefault((i, j), {})[t] = src.fld.of(data.draw(VALUES))
            sc = {key: {s: v for s, v in row.items() if v}
                  for key, row in sc.items()}
        alg = at_level(rebuilt(src, sc, data.draw(st.booleans())), level)
        dense = dense_left_mult(alg)
        cols = [alg.left_mult_matrix(i) for i in range(n)]
        what = "associativity"
    else:
        alg = at_level(rebuilt(src, src.sc, data.draw(st.booleans())), level)
        mod = sp[data.draw(st.sampled_from(sorted(sp)))][
            data.draw(st.sampled_from(["P", "Delta"]))]
        m = mod.rank
        dense = reduced_acts(alg, [linalg.dense_rows(mat, m, src.fld.zero)
                                   for mat in mod.acts])
        if corrupt:
            i = data.draw(st.integers(0, n - 1))
            r, c = (data.draw(st.integers(0, m - 1)) for _ in range(2))
            dense[i][r][c] = alg.fld.of(data.draw(VALUES))
        cols = [linalg.columns(mat) for mat in dense]
        what = "the module axiom"
    assert alg.representation_problems(cols, what) == \
        dense_representation_problems(alg, dense, what)


@pytest.mark.parametrize("level", ["O", "K", "k"])
def test_rank_30_cases_fail_the_same_way_sparse_and_dense(level):
    bad = at_level(square_zero(30, NONASSOCIATIVE_30), level)
    got = bad.representation_problems(
        [bad.left_mult_matrix(i) for i in range(30)], "associativity")
    assert got and got == dense_representation_problems(
        bad, dense_left_mult(bad), "associativity")
    over = at_level(square_zero(30), level)
    dense = reduced_acts(over, [linalg.dense_rows(m, 2, ZERO)
                                for m in two_dim_acts(30, 1, 6)])
    got = over.representation_problems([linalg.columns(m) for m in dense],
                                       "the module axiom")
    assert got and got == dense_representation_problems(
        over, dense, "the module axiom")
