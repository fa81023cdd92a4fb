"""Property tests of the shared exact helpers against slower references:
linalg.combine, linalg.Subspace (with lifts_over and quotient),
Lattice.lifts_over, lattices.coord_solver, modules.hom_equations, the
isomorphism checks modules.iso_with_generator_images and
modules.standard_iso, the product kernel StructureAlgebra.products against
the reference product `mul`, and the products of spans
StructureAlgebra.product_span, left_ideal, right_ideal and corner and
ModuleRep.image, with the sparse action columns behind them."""

from fractions import Fraction

import pytest
from dense_reference import (
    coords_in_row_space,
    dense_mul,
    dense_rows,
    dense_vec,
    det,
    identity,
    in_row_space,
    invert,
    rref_dense,
    transpose,
    vec,
    vecs,
)
from hypothesis import assume, given, settings, strategies as st

from grforge import graded, linalg, modules
from grforge.algebra import AlgebraError
from grforge.graded import GradingError
from grforge.lattices import (
    Lattice,
    LatticeError,
    coord_solver,
    is_pure,
)
from grforge.modules import (
    ModuleRep,
    hom_equations,
    iso_with_generator_images,
    standard_iso,
)
from grforge.scalars import (
    CYCLOTOMIC,
    RATIONAL,
    Cyc,
    CycField,
    InternalCheckError,
    RingSpec,
)

R3 = RingSpec(RATIONAL, 3)
R5 = RingSpec(RATIONAL, 5)
C3 = RingSpec(CYCLOTOMIC, 3)
C5 = RingSpec(CYCLOTOMIC, 5)

small = st.integers(-3, 3)
SETTINGS = settings(max_examples=40, deadline=None)


def dense_combination_of(coeffs, rows, n, zero):
    """The dense vector sum_i coeffs[i] * rows[i] of dense coefficients and
    dense rows of length n."""
    return dense_vec(linalg.combine(vec(coeffs), vecs(rows)), n, zero)


def draw_matrix(data, fld, nrows, ncols):
    return [[fld.of(data.draw(small)) for _ in range(ncols)]
            for _ in range(nrows)]


def draw_vector(data, fld, rows, n, denominator=1):
    """A combination of the rows (coefficients x / denominator) or, half of
    the time, a free vector."""
    def scalar():
        x = data.draw(small)
        return fld.of(x if denominator == 1 else Fraction(x, denominator))

    if not rows or data.draw(st.booleans()):
        return [scalar() for _ in range(n)]
    return dense_combination_of([scalar() for _ in rows], rows, n, fld.zero)


@SETTINGS
@given(st.data())
def test_combine_matches_naive_sum(data):
    fld = R5.field_k
    n = data.draw(st.integers(1, 4))
    rows = draw_matrix(data, fld, data.draw(st.integers(1, 4)), n)
    coeffs = [fld.of(data.draw(small)) for _ in rows]
    want = [sum((c * r[t] for c, r in zip(coeffs, rows)), fld.zero)
            for t in range(n)]
    # the nonzero entries
    assert linalg.combine(vec(coeffs), vecs(rows)) == vec(want)


COORD_FIELDS = {"Q": R5.field_K, "F_5": R5.field_k, "Q(zeta_5)": C5.field_K}


def draw_basis(data, fld, n):
    """Up to n rows of length n (entries from `draw_scalar`), now and then a
    combination of the earlier ones (so dependent), and now and then none."""
    rows = []
    for _ in range(data.draw(st.integers(0, n))):
        if rows and not data.draw(st.integers(0, 4)):
            rows.append(dense_combination_of(
                [fld.of(data.draw(small)) for _ in rows], rows, n, fld.zero))
        else:
            rows.append([draw_scalar(data, fld) for _ in range(n)])
    return rows


@SETTINGS
@given(st.sampled_from(sorted(COORD_FIELDS)), st.data())
def test_field_coord_solver_matches_solve_right(kind, data):
    """coord_solver(rows)(v) is the unique solution of rows^T c = v: None
    when v is outside the span, LatticeError when the rows are dependent,
    and for no rows {} at v = 0 and None elsewhere."""
    fld = COORD_FIELDS[kind]
    n = data.draw(st.integers(1, 4))
    rows = draw_basis(data, fld, n)
    v = vec(draw_vector(data, fld, rows, n))
    if rows and linalg.rank(vecs(rows), fld, n) < len(rows):
        with pytest.raises(LatticeError):
            coord_solver(vecs(rows), fld, n)
        return
    got = coord_solver(vecs(rows), fld, n)(v)
    if not rows:
        assert got == (None if v else {})
        return
    assert got == linalg.solve_right(vecs(transpose(rows)), v, fld, len(rows))
    if got is not None:
        assert linalg.combine(got, vecs(rows)) == v


@SETTINGS
@given(st.sampled_from([R3, C3, C5]), st.data())
def test_integral_coord_solver_matches_lattice_coords(ring, data):
    """At level O, coord_solver(rows, fld, ring)(v) is not None exactly when
    the lattice the rows span contains v, and then it is the unique
    coordinate vector, in O; v is a combination or a free vector scaled by
    pi^-1, 1 or pi."""
    fld = ring.field_K
    n = data.draw(st.integers(1, 3))
    rows = vecs(draw_basis(data, fld, n))
    if linalg.rank(rows, fld, n) < len(rows):
        with pytest.raises(LatticeError):
            coord_solver(rows, fld, n, ring)
        return
    lat = Lattice.from_rows(ring, n, rows)
    scale = ring.pi_power(data.draw(st.integers(-1, 1)))
    v = vec([scale * x for x in draw_vector(data, fld, rows and dense_rows(
        rows, n, fld.zero), n)])
    # in the canonical basis the solver is Lattice.coords itself
    want = coord_solver(lat.rows, fld, n, ring)(v)
    assert lat.coords(v) == want
    assert lat.contains_vector(v) == (want is not None)
    got = coord_solver(rows, fld, n, ring)(v)
    assert (got is not None) == lat.contains_vector(v)
    if got is not None:
        assert all(ring.valuation(c) >= 0 for c in got.values())
        assert linalg.combine(got, rows) == v


@pytest.mark.parametrize("fld", list(COORD_FIELDS.values()),
                         ids=list(COORD_FIELDS))
def test_no_rows_span_only_zero(fld):
    """With no basis rows only the zero vector has coordinates: the entries
    decide, so {0: 1} (whose one key is falsy) is outside."""
    solve = coord_solver([], fld, 2)
    one = fld.one
    assert solve({0: one}) is None
    assert solve({1: one}) is None
    assert solve({}) == {}


def test_dependent_rows_have_no_coordinates(z5):
    """[e1, 2 e1] is no basis: the solver refuses it instead of giving e1
    one coordinate, and so do the subalgebra and the adapted basis built on
    such rows."""
    for fld, ring in ((R3.field_K, None), (R3.field_K, R3), (R3.field_k, None)):
        one = fld.one
        with pytest.raises(LatticeError):
            coord_solver([{0: one}, {0: one + one}], fld, 2, ring)
    e1 = z5.basis_vec(0)
    with pytest.raises(LatticeError):
        z5.subalgebra_on([e1, {t: x + x for t, x in e1.items()}])
    ak = z5.base_change("K")
    whole = ak.span([ak.basis_vec(i) for i in range(ak.rank)])
    zero = ak.span([])
    # the steps whole, 0, whole, 0 lift the basis twice
    with pytest.raises(GradingError) as info:
        graded._adapted_basis([whole, zero, whole, zero], ak.fld, 2 * ak.rank)
    assert isinstance(info.value.__cause__, LatticeError)


# ---------------------------------------------------------------------------
# linalg.Subspace against bare rref rows
# ---------------------------------------------------------------------------

SPAN_FIELDS = {"Q": R5.field_K, "F_5": R5.field_k, "Q(zeta_5)": C5.field_K}


def draw_scalar(data, fld):
    """A small scalar; over Q(zeta) a full combination of the powers of zeta,
    zero a quarter of the time."""
    if isinstance(fld, CycField) and data.draw(st.integers(0, 3)):
        return Cyc(fld.p, [data.draw(small) for _ in range(fld.p - 1)])
    return fld.of(data.draw(small))


def draw_rows(data, fld, n):
    """Up to 4 rows of length n; some are combinations of earlier rows, so
    the rank is often below the row count."""
    rows = []
    for _ in range(data.draw(st.integers(0, 4))):
        if rows and data.draw(st.booleans()):
            rows.append(dense_combination_of(
                [draw_scalar(data, fld) for _ in rows], rows, n, fld.zero))
        else:
            rows.append([draw_scalar(data, fld) for _ in range(n)])
    return rows


def draw_member_or_not(data, fld, rows, n):
    if rows and data.draw(st.booleans()):
        return dense_combination_of([draw_scalar(data, fld) for _ in rows],
                                    rows, n, fld.zero)
    return [draw_scalar(data, fld) for _ in range(n)]


@SETTINGS
@given(st.sampled_from(sorted(SPAN_FIELDS)), st.data())
def test_subspace_matches_rref_reference(kind, data):
    fld = SPAN_FIELDS[kind]
    n = data.draw(st.integers(1, 4))
    rows = draw_rows(data, fld, n)
    span = linalg.Subspace.from_rows(fld, n, vecs(rows))
    assert (span.rows, span.pivots) == linalg.rref(vecs(rows), fld, n)
    ech, piv = rref_dense(rows, fld)
    assert (dense_rows(span.rows, n, fld.zero), span.pivots, span.rank) == \
        (ech, piv, len(ech))
    v = draw_member_or_not(data, fld, rows, n)
    inside = not any(in_row_space(v, ech, piv))
    want = coords_in_row_space(v, ech, piv)
    # reduce gives the remainder as the dict of its nonzero entries
    w = vec(v)
    assert span.reduce(w) == vec(in_row_space(v, ech, piv))
    assert span.contains_vector(w) == inside
    c = span.coords(w)
    assert c == (None if want is None else vec(want))
    assert (c is not None) == inside
    if c is not None:
        assert linalg.combine(c, span.rows) == w


@SETTINGS
@given(st.sampled_from(sorted(SPAN_FIELDS)), st.data())
def test_subspace_equality_and_add_match_reference(kind, data):
    fld = SPAN_FIELDS[kind]
    n = data.draw(st.integers(1, 4))
    rows1 = draw_rows(data, fld, n)
    # the second span is often the first one on another generating set
    rows2 = [draw_member_or_not(data, fld, rows1, n)
             for _ in range(data.draw(st.integers(0, 4)))]
    s1 = linalg.Subspace.from_rows(fld, n, vecs(rows1))
    s2 = linalg.Subspace.from_rows(fld, n, vecs(rows2))
    ref1, ref2 = rref_dense(rows1, fld, n)[0], rref_dense(rows2, fld, n)[0]
    assert (s1 == s2) == (ref1 == ref2)
    total = s1.add(s2)
    assert dense_rows(total.rows, n, fld.zero) == \
        rref_dense(rows1 + rows2, fld, n)[0]
    assert total.contains_lattice(s1) and total.contains_lattice(s2)
    assert s1.contains_lattice(s2) == (total.rank == s1.rank)
    assert s1.contains_lattice(s2) == all(
        not any(in_row_space(r, ref1, s1.pivots)) for r in rows2)
    # the quotient lifts complete a basis of F^n
    lifts, torsion, _ = s1.quotient()
    assert torsion == []
    assert linalg.rank(s1.rows + lifts, fld, n) == n


@SETTINGS
@given(st.sampled_from(sorted(SPAN_FIELDS)), st.data())
def test_subspace_quotient_projects_like_coord_solver(kind, data):
    """Subspace.quotient reads the image of v off `reduce(v)`; it is the
    tail, on the lifts, of v's coordinates in the basis rows + lifts."""
    fld = SPAN_FIELDS[kind]
    n = data.draw(st.integers(1, 4))
    rows = draw_rows(data, fld, n)
    span = linalg.Subspace.from_rows(fld, n, vecs(rows))
    lifts, torsion, project = span.quotient()
    assert torsion == []
    v = vec(draw_member_or_not(data, fld, rows, n))
    want = {i - span.rank: x for i, x in
            coord_solver(span.rows + lifts, fld, n)(v).items()
            if i >= span.rank}
    assert project(v) == want
    assert (not project(v)) == span.contains_vector(v)


# ---------------------------------------------------------------------------
# lifts_over: the quotient of two nested spans
# ---------------------------------------------------------------------------

def remainder_lifts_reference(fld, big_rows, small_rows):
    """The field-level adapted-lift loop of graded as it stood before
    Subspace.lifts_over, kept verbatim: the gr structure constants over a
    field depend on which lifts it picks."""
    lifts = []
    cur_ech, cur_piv = rref_dense([list(r) for r in small_rows], fld)
    for row in big_rows:
        rem = in_row_space(list(row), cur_ech, cur_piv)
        if any(rem):
            lifts.append(rem)
            cur_ech, cur_piv = rref_dense(cur_ech + [rem], fld)
    return lifts


def draw_inside(data, fld, rows, scalar):
    """Fewer combinations of the rows than there are rows (one for a single
    row, none for no rows), so the span is often a proper nonzero part."""
    count = data.draw(st.integers(0, max(len(rows) - 1, 1))) if rows else 0
    return [linalg.combine(vec([scalar() for _ in rows]), vecs(rows))
            for _ in range(count)]


LATTICE_RINGS = {"Q": R5, "Q(zeta_5)": C5}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SPAN_FIELDS)), st.data())
def test_lifts_over_nested_spans(kind, data):
    fld = SPAN_FIELDS[kind]
    n = data.draw(st.integers(1, 4))
    s_rows = draw_rows(data, fld, n)
    t_rows = draw_inside(data, fld, s_rows, lambda: draw_scalar(data, fld))
    big = linalg.Subspace.from_rows(fld, n, vecs(s_rows))
    small = linalg.Subspace.from_rows(fld, n, t_rows)
    lifts, torsion = big.lifts_over(small)
    assert torsion == []
    assert len(lifts) == big.rank - small.rank
    assert small.add(linalg.Subspace.from_rows(fld, n, lifts)) == big
    assert dense_rows(lifts, n, fld.zero) == remainder_lifts_reference(
        fld, dense_rows(big.rows, n, fld.zero),
        dense_rows(small.rows, n, fld.zero))
    if kind not in LATTICE_RINGS:
        return
    # over O: the same call on lattices; N is drawn
    # with coefficients in O, so it often has torsion in M
    ring = LATTICE_RINGS[kind]
    m_lat = Lattice.from_rows(ring, n, vecs(s_rows))
    p = fld.of(ring.p)
    n_lat = Lattice.from_rows(ring, n, draw_inside(
        data, fld, m_lat.rows,
        lambda: draw_scalar(data, fld) * (p if data.draw(st.booleans())
                                          else fld.one)))
    free, tors = m_lat.lifts_over(n_lat)
    assert len(free) == m_lat.rank - n_lat.rank
    assert (not tors) == is_pure(n_lat, m_lat)
    k_span = linalg.Subspace.from_rows(fld, n, [*n_lat.rows, *free])
    assert k_span == linalg.Subspace.from_rows(fld, n, m_lat.rows)


def test_span_picks_the_level(z5):
    """StructureAlgebra.span: a Lattice at O, a Subspace at K and k; spans
    pass through; ideal_generated returns the same kind, canonically."""
    for alg, kind in ((z5, Lattice), (z5.base_change("K"), linalg.Subspace),
                      (z5.base_change("k"), linalg.Subspace)):
        span = alg.span([alg.basis_vec(0), alg.basis_vec(1), alg.basis_vec(0)])
        assert type(span) is kind and span.rank == 2
        assert alg.span(span) is span
        ideal = alg.ideal_generated(alg.weight_idempotent(["2"]))
        assert type(ideal) is kind
        assert alg.span(list(reversed(ideal.rows))) == ideal


def test_quotient_takes_rows_or_span(z5_K):
    from grforge import radicals

    rad = radicals.radical_field(z5_K)
    by_rows, lifts1, _ = z5_K.quotient_by_ideal(rad)
    by_span, lifts2, _ = z5_K.quotient_by_ideal(z5_K.span(rad))
    assert (by_rows.sc, by_rows.unit, lifts1) == (by_span.sc, by_span.unit, lifts2)


def _modules(alg, sp):
    return [sp[lam][key] for lam in alg.weights.Lambda for key in ("P", "Delta")]


@pytest.fixture(scope="module")
def z5_module_sets(z5, sp_z5):
    out = {"O": _modules(z5, sp_z5)}
    for level in ("k", "K"):
        b = z5.base_change(level)
        out[level] = _modules(b, modules.standard_and_projectives(b))
    return out


def draw_base_change(data, mod, integral):
    """The module with actions g a g^-1 for a random invertible g (unimodular
    when `integral`): isomorphic to mod through g."""
    fld = mod.fld
    g = draw_matrix(data, fld, mod.rank, mod.rank)
    g_inv = invert(g, fld)
    assume(g_inv is not None)
    if integral:
        assume(mod.algebra.ring.valuation(det(g, fld)) == 0)
    zero = fld.zero
    acts = [linalg.columns(naive_matmul(
        naive_matmul(g, linalg.dense_rows(a, mod.rank, zero), zero), g_inv,
        zero)) for a in mod.acts]
    return ModuleRep(mod.algebra, mod.rank, acts, mod.name + "^g")


def naive_matmul(a, b, zero):
    """The product of two matrices of row lists, entry by entry."""
    return [[sum((x * b[k][c] for k, x in enumerate(row)), zero)
             for c in range(len(b[0]) if b else 0)] for row in a]


def equivariant(h, src, dst):
    """Is the matrix h (dense rows or {column: entry} rows) a module map?"""
    zero = src.fld.zero
    h = dense_rows(h, src.rank, zero)
    return all(
        naive_matmul(h, linalg.dense_rows(a_s, src.rank, zero), zero)
        == naive_matmul(linalg.dense_rows(a_d, dst.rank, zero), h, zero)
        for a_s, a_d in zip(src.acts, dst.acts))


@SETTINGS
@given(st.sampled_from(["O", "k", "K"]), st.sampled_from(["1", "2"]),
       st.data())
def test_standard_iso_recovers_a_base_change(z5, level, lam, data):
    alg = z5 if level == "O" else z5.base_change(level)
    delta = modules.standard_module(alg, lam)
    integral = level == "O"
    other = draw_base_change(data, delta, integral)
    h = standard_iso(other, lam)
    assert h is not None
    assert equivariant(h, delta, other)
    h = dense_rows(h, delta.rank, delta.fld.zero)
    assert invert(h, delta.fld) is not None
    if integral:
        assert alg.ring.valuation(det(h, delta.fld)) == 0


@SETTINGS
@given(st.sampled_from(["O", "k", "K"]), st.data())
def test_hom_equation_kernel_is_equivariant(z5_module_sets, level, data):
    mods = z5_module_sets[level]
    src = mods[data.draw(st.integers(0, len(mods) - 1))]
    dst = mods[data.draw(st.integers(0, len(mods) - 1))]
    dst = draw_base_change(data, dst, False)
    ns, nd = src.rank, dst.rank
    for v in linalg.kernel_right(hom_equations(src, dst), src.fld, ns * nd):
        h = [{c: v[r * ns + c] for c in range(ns) if r * ns + c in v}
             for r in range(nd)]
        assert equivariant(h, src, dst)


def test_standard_iso_needs_a_unit_determinant_at_O(z5, sp_z5):
    # span{3 e2, beta} in Delta(2) = span{e2, beta}: beta sends the generator
    # 3 e2 to 3 beta, so the lattice is not Delta(2), though it is over K
    fld = z5.fld
    sub = sp_z5["2"]["Delta"].restrict_to([{0: fld.of(3)}, {1: fld.one}])
    assert standard_iso(sub, "2") is None
    sub_K = sub.base_change("K")
    h = standard_iso(sub_K, "2")
    assert h is not None
    assert equivariant(h, modules.standard_module(sub_K.algebra, "2"), sub_K)


def test_a_wrong_hom_solution_is_an_internal_error(sp_z5, monkeypatch):
    """A solve that returns a non-solution is a fault of the program, not a
    verdict: it must not surface as a ModuleError (an AlgebraError), which
    the suites turn into verdicts and notes."""
    delta = sp_z5["2"]["Delta"]
    top = delta.weight_space_rows("2")
    h = modules.hom_with_generator_images(delta, delta, top, top)
    assert dense_rows(h, delta.rank, delta.fld.zero) == \
        identity(delta.fld, delta.rank)
    solve = linalg.solve_right

    def wrong(a, b, field, ncols):
        x = solve(a, b, field, ncols)
        x[0] = x.get(0, field.zero) + field.one  # the identity: diag(2, 1)
        return x

    monkeypatch.setattr(linalg, "solve_right", wrong)
    with pytest.raises(InternalCheckError):
        modules.hom_with_generator_images(delta, delta, top, top)
    assert not issubclass(InternalCheckError, AlgebraError)


def test_a_doubled_peel_witness_is_an_internal_error(z5_K, monkeypatch):
    """2 h is equivariant and has the image of h, so only the check of the
    generator images tells it from h: peel_standard_power must not hand it
    on as the witness of Delta(2) = A . (its generator)."""
    delta = modules.standard_module(z5_K, "2")
    rows = delta.weight_space_rows("2")
    h, sub = modules.peel_standard_power(delta, "2", rows)
    assert sub.rank == delta.rank
    assert dense_rows(h, delta.rank, z5_K.fld.zero) == \
        identity(z5_K.fld, delta.rank)
    solve = linalg.solve_right

    def doubled(a, b, field, ncols):
        return {k: x + x for k, x in solve(a, b, field, ncols).items()}

    monkeypatch.setattr(linalg, "solve_right", doubled)
    with pytest.raises(InternalCheckError, match="generator image"):
        modules.peel_standard_power(delta, "2", rows)


def test_standard_iso_rejects_a_projective(sp_z5):
    assert standard_iso(sp_z5["1"]["P"], "1") is None


def test_iso_with_generator_images_rank_zero_and_a_wrong_image(sp_z5):
    zero = sp_z5["1"]["P"].restrict_to([])
    assert iso_with_generator_images(zero, zero, [], []) == []
    delta = sp_z5["2"]["Delta"]
    top = delta.weight_space_rows("2")
    assert iso_with_generator_images(delta, delta, top, top) is not None
    for flipped in ([1, 1], [0, 0], [3, 0]):
        image = vec([delta.fld.of(x) for x in flipped])
        assert iso_with_generator_images(delta, delta, top, [image]) is None


# ---------------------------------------------------------------------------
# products of spans: StructureAlgebra.product_span, left_ideal, right_ideal
# and corner, ModuleRep.image, and the column kernel behind act_matrix /
# left_mult_of
# ---------------------------------------------------------------------------

def naive_mul(alg, x, y):
    """x y straight from the structure constants, by the dense reference."""
    n, zero = alg.rank, alg.fld.zero
    return vec(dense_mul(alg, dense_vec(x, n, zero), dense_vec(y, n, zero)))


def dense_acts(mod):
    return [linalg.dense_rows(m, mod.rank, mod.fld.zero) for m in mod.acts]


def naive_act(mod, x, v):
    """x v straight from the dense action matrices."""
    acts = dense_acts(mod)
    zero = mod.fld.zero
    x = dense_vec(x, len(acts), zero)
    v = dense_vec(v, mod.rank, zero)
    return vec([sum((x[c] * acts[c][t][s] * v[s] for c in range(len(x))
                     for s in range(mod.rank)), zero)
                for t in range(mod.rank)])


@pytest.fixture(scope="module")
def product_algebras(z5, qschur23):
    """z5@3 and qschur(2,3) at the levels O, K and k."""
    return {(name, level): alg if level == "O" else alg.base_change(level)
            for name, alg in (("z5", z5), ("qschur23", qschur23))
            for level in ("O", "K", "k")}


PRODUCT_CASES = [(name, level) for name in ("z5", "qschur23")
                 for level in ("O", "K", "k")]


def draw_element(data, alg):
    """An element with small integer coordinates: a basis vector, a weight
    idempotent or a random element."""
    kind = data.draw(st.sampled_from(["basis", "idempotent", "random"]))
    if kind == "basis":
        return alg.basis_vec(data.draw(st.integers(0, alg.rank - 1)))
    if kind == "idempotent":
        return alg.weights.idempotents[
            data.draw(st.sampled_from(alg.weights.X))]
    return vec([alg.fld.of(data.draw(small)) for _ in range(alg.rank)])


def draw_elements(data, alg):
    return [draw_element(data, alg) for _ in range(data.draw(st.integers(0, 3)))]


def draw_label_set(data, alg):
    X = alg.weights.X
    return [lbl for lbl in X if data.draw(st.booleans())] or [X[0]]


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_product_span_is_the_span_of_the_products(product_algebras, case, data):
    alg = product_algebras[case]
    xs, ys = draw_elements(data, alg), draw_elements(data, alg)
    want = alg.span([naive_mul(alg, x, y) for x in xs for y in ys])
    assert alg.product_span(xs, ys) == want


def annihilator(data, alg, y):
    """Maybe an x with x y = 0 although two or more of its terms x_i (b_i y)
    are nonzero, so that the entries of x y cancel: a vector of the kernel
    of right multiplication by y (None when there is none)."""
    cols = alg.right_mult_of(y)
    ker = [x for x in linalg.kernel_right(
        [dict(r) for r in linalg.row_entries(cols, alg.rank)], alg.fld,
        alg.rank)
        if sum(1 for i in x if cols[i]) >= 2]
    return data.draw(st.sampled_from(ker)) if ker else None


def draw_factor(data, alg):
    """`draw_element`, a multiple c b_i of a basis vector, or 0."""
    kind = data.draw(st.sampled_from(["element", "multiple", "zero"]))
    if kind == "element":
        return draw_element(data, alg)
    if kind == "zero":
        return {}
    c = data.draw(st.sampled_from([-2, -1, 2, 3]))
    return {data.draw(st.integers(0, alg.rank - 1)): alg.fld.of(c)}


def draw_products(data, alg):
    """Up to 3 factors xs and ys each (possibly none), and, when the last y
    has one, an x whose product with it cancels to 0."""
    xs, ys = ([draw_factor(data, alg)
               for _ in range(data.draw(st.integers(0, 3)))] for _ in "xy")
    if ys:
        x = annihilator(data, alg, ys[-1])
        if x is not None:
            xs.append(x)
    return xs, ys


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_products_are_mul(product_algebras, case, data):
    """The column kernel's x y is the dense reference mul(x, y), over Q
    (z5), F_p (level k), Q(zeta_3) (qschur(2,3) at K) and at level O."""
    alg = product_algebras[case]
    xs, ys = draw_products(data, alg)
    want = [alg.mul(x, y) for x in xs for y in ys]
    assert alg.products(xs, ys) == want


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_product_span_is_the_span_of_mul(product_algebras, case, data):
    alg = product_algebras[case]
    xs, ys = draw_products(data, alg)
    if alg.level == "O":
        # a lattice is spanned by vectors over O
        xs = [x for x in xs
              if all(alg.ring.valuation(c) >= 0 for c in x.values())]
    want = alg.span([alg.mul(x, y) for x in xs for y in ys])
    assert alg.product_span(xs, ys) == want


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_one_sided_ideals_are_product_spans_with_the_basis(product_algebras,
                                                           case, data):
    """left_ideal(ys) = A ys and right_ideal(xs) = xs A, read off the
    columns, are the product spans with the basis as the other factor, for
    factors that are random elements, basis vectors (and multiples),
    idempotents and zero."""
    alg = product_algebras[case]
    basis = [alg.basis_vec(i) for i in range(alg.rank)]
    xs, ys = ([draw_factor(data, alg)
               for _ in range(data.draw(st.integers(0, 3)))] for _ in "xy")
    assert alg.left_ideal(ys) == alg.product_span(basis, ys)
    assert alg.right_ideal(xs) == alg.product_span(xs, basis)


def test_products_drop_entries_that_cancel(product_algebras):
    alg = product_algebras[("qschur23", "K")]
    found = 0
    for j in range(alg.rank):
        y = alg.basis_vec(j)
        cols = alg.right_mult_of(y)
        for x in linalg.kernel_right(
                [dict(r) for r in linalg.row_entries(cols, alg.rank)],
                alg.fld, alg.rank):
            if sum(1 for i in x if cols[i]) >= 2:
                assert alg.products([x], [y]) == [{}]
                found += 1
    assert found


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_corner_is_the_span_of_e_b_e(product_algebras, case, data):
    alg = product_algebras[case]
    e = alg.weight_idempotent(draw_label_set(data, alg))
    basis = [alg.basis_vec(i) for i in range(alg.rank)]
    want = alg.span([naive_mul(alg, naive_mul(alg, e, b), e) for b in basis])
    assert alg.corner(e) == want


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_corner_of_a_sum_is_the_sum_of_the_e_lam_b_e_mu(product_algebras,
                                                          case, data):
    """For orthogonal idempotents e_lam, e = sum e_lam gives e A e =
    sum over lam, mu of e_lam A e_mu (the Morita cut)."""
    alg = product_algebras[case]
    labels = draw_label_set(data, alg)
    idems = [alg.weights.idempotents[lbl] for lbl in labels]
    want = alg.span([naive_mul(alg, naive_mul(alg, el, alg.basis_vec(i)), em)
                     for el in idems for em in idems for i in range(alg.rank)])
    assert alg.corner(alg.weight_idempotent(labels)) == want


@pytest.fixture(scope="module")
def product_modules(product_algebras):
    out = {}
    for case, alg in product_algebras.items():
        sp = modules.standard_and_projectives(alg)
        out[case] = [modules.regular_module(alg)] + _modules(alg, sp)
    return out


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_image_is_the_span_of_the_actions(product_modules, case, data):
    mods = product_modules[case]
    mod = mods[data.draw(st.integers(0, len(mods) - 1))]
    xs = draw_elements(data, mod.algebra)
    basis = [mod.basis_vec(i) for i in range(mod.rank)]
    want = mod.span([naive_act(mod, x, v) for x in xs for v in basis])
    assert mod.image(xs) == want
    vectors = [vec([mod.fld.of(data.draw(small)) for _ in range(mod.rank)])
               for _ in range(data.draw(st.integers(0, 3)))]
    want = mod.span([naive_act(mod, x, v) for x in xs for v in vectors])
    assert mod.image(xs, vectors) == want


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_action_matrices_combine_the_basis_actions(product_modules, case, data):
    mods = product_modules[case]
    mod = mods[data.draw(st.integers(0, len(mods) - 1))]
    alg = mod.algebra
    x = draw_element(data, alg)
    # column i of a matrix is the image of the i-th basis vector
    want = [linalg.column(naive_act(mod, x, mod.basis_vec(i)))
            for i in range(mod.rank)]
    assert mod.act_matrix(x) == want
    assert alg.left_mult_of(x) == [linalg.column(naive_mul(alg, x, b))
                                   for b in map(alg.basis_vec, range(alg.rank))]
    assert alg.right_mult_of(x) == [linalg.column(naive_mul(alg, b, x))
                                    for b in map(alg.basis_vec, range(alg.rank))]


def dense_combination(coeffs, mats, zero):
    """sum_i coeffs[i] * mats[i] for matrices of row lists."""
    n = len(mats[0])
    coeffs = dense_vec(coeffs, len(mats), zero)
    return [{s: x for s in range(n) if (x := sum(
        (c * m[r][s] for c, m in zip(coeffs, mats)), zero))}
        for r in range(n)]


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_act_and_image_match_dense_mat_vec(product_modules, case, data):
    """Over Q and Q(zeta_3) (levels O and K) and F_3 (level k)."""
    mods = product_modules[case]
    mod = mods[data.draw(st.integers(0, len(mods) - 1))]
    fld, zero = mod.fld, mod.fld.zero
    dense = dense_acts(mod)
    x = draw_element(data, mod.algebra)
    v = vec([fld.of(data.draw(small)) for _ in range(mod.rank)])
    i = data.draw(st.integers(0, mod.algebra.rank - 1))
    assert mod.act_basis(i, v) == linalg.mat_vec(vecs(dense[i]), v, fld)
    assert linalg.apply(mod.act_matrix(x), v) == linalg.mat_vec(
        dense_combination(x, dense, zero), v, fld)
    xs = draw_elements(data, mod.algebra)
    mats = [dense_combination(y, dense, zero) for y in xs]
    basis = [mod.basis_vec(k) for k in range(mod.rank)]
    assert mod.image(xs) == mod.span([linalg.mat_vec(m, b, fld)
                                      for m in mats for b in basis])
    vectors = [vec([fld.of(data.draw(small)) for _ in range(mod.rank)])
               for _ in range(data.draw(st.integers(0, 3)))]
    assert mod.image(xs, vectors) == mod.span([linalg.mat_vec(m, w, fld)
                                               for m in mats for w in vectors])


def dense_hom_equations(src, dst):
    """`hom_equations` before the sparse columns: one dense row per (basis
    element, r, c), read from the dense action matrices."""
    fld = src.fld
    ns, nd = src.rank, dst.rank
    rows = []
    for a_s, a_d in zip(dense_acts(src), dense_acts(dst)):
        for r in range(nd):
            for c in range(ns):
                row = [fld.zero] * (nd * ns)
                for t in range(ns):
                    if a_s[t][c]:
                        row[r * ns + t] = row[r * ns + t] + a_s[t][c]
                for t in range(nd):
                    if a_d[r][t]:
                        row[t * ns + c] = row[t * ns + c] - a_d[r][t]
                rows.append(row)
    return rows


@SETTINGS
@given(st.sampled_from(PRODUCT_CASES), st.data())
def test_sparse_hom_rows_have_the_dense_kernel(product_modules, case, data):
    """Over Q and Q(zeta_3) (levels O and K) and F_3 (level k)."""
    mods = [m for m in product_modules[case] if m.rank <= 6]
    src = mods[data.draw(st.integers(0, len(mods) - 1))]
    dst = mods[data.draw(st.integers(0, len(mods) - 1))]
    if data.draw(st.booleans()):
        dst = draw_base_change(data, dst, False)
    rows = hom_equations(src, dst)
    assert all(x for row in rows for x in row.values())
    dense = dense_hom_equations(src, dst)
    assert len(rows) <= len(dense)
    assert linalg.kernel_right(rows, src.fld, src.rank * dst.rank) == \
        linalg.kernel_right(vecs(dense), src.fld, src.rank * dst.rank)


def test_column_kernels_of_empty_shapes():
    fld = R5.field_k
    assert linalg.combine_columns({}, []) == []
    assert linalg.combine_columns({0: fld.one}, [[]]) == []
    assert linalg.compose([], []) == []
    assert linalg.apply([], {}) == {}
    assert linalg.trace_form([], fld) == []
    assert linalg.columns([]) == [] and linalg.dense_rows([], 0, fld.zero) == []


def restricted_module_reference(sub, sub_basis, mod, cut):
    """The module cut . M over the subalgebra with basis vectors `sub_basis`
    (coordinates in mod's algebra), coordinates from the rref basis of the
    cut subspace: the construction the corner route replaced."""
    def act(x, v):
        return linalg.apply(mod.act_matrix(x), v)

    rows = [act(cut, mod.basis_vec(i)) for i in range(mod.rank)]
    span = mod.span(rows)
    if not span.rank:
        return ModuleRep(sub, 0, [[] for _ in range(sub.rank)])
    acts = [[linalg.column(span.coords(act(bvec, r)))
             for r in span.rows] for bvec in sub_basis]
    return ModuleRep(sub, span.rank, acts)


@pytest.mark.parametrize("case", PRODUCT_CASES)
def test_corner_simple_modules_match_the_restricted_modules(product_algebras,
                                                            case):
    from grforge import certify

    alg = product_algebras[case]
    simples = modules.weight_simples(alg.field_algebra())
    Lambda = alg.weights.Lambda
    ranks = []
    cuts = [((lam,), alg.weight_idempotent([lam])) for lam in Lambda]
    cuts += [(Lambda, alg.weight_idempotent(Lambda)), (Lambda, alg.unit)]
    for labels, e in cuts:
        cbasis = alg.corner(e).rows
        corner = alg.subalgebra_on(cbasis, unit=e).field_algebra()
        got = certify._corner_simple_modules(alg, e, cbasis, corner, labels)
        want = [(mu, restricted_module_reference(corner, cbasis, lmod, e))
                for mu, lmod in simples if mu in labels]
        want = [(mu, m) for mu, m in want if m.rank] or None
        assert [(mu, m.rank, m.acts) for mu, m in got or []] == \
            [(mu, m.rank, m.acts) for mu, m in want or []]
        assert (got is None) == (want is None)
        ranks += [m.rank for _, m in got or []]
    # the simples of z5 are one-dimensional
    assert max(ranks) > 1 or case[0] == "z5"
