"""Property tests of the shared exact helpers against slower references:
linalg.combine, lattices.coord_solver, modules.hom_equations and
modules.find_iso."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from grforge import linalg, modules
from grforge.lattices import Lattice, coord_solver
from grforge.modules import ModuleRep, find_iso, hom_equations
from grforge.scalars import CYCLOTOMIC, RATIONAL, RingSpec

R3 = RingSpec(RATIONAL, 3)
R5 = RingSpec(RATIONAL, 5)
C3 = RingSpec(CYCLOTOMIC, 3)

small = st.integers(-3, 3)
SETTINGS = settings(max_examples=40, deadline=None)


def draw_matrix(data, fld, nrows, ncols):
    return [[fld.of(data.draw(small)) for _ in range(ncols)]
            for _ in range(nrows)]


def draw_vector(data, fld, rows, n, denominator=1):
    """A combination of the rows (coefficients x / denominator) or, half of
    the time, a free vector."""
    def scalar():
        x = data.draw(small)
        return fld.of(x if denominator == 1 else Fraction(x, denominator))

    if data.draw(st.booleans()):
        return [scalar() for _ in range(n)]
    return linalg.combine([scalar() for _ in rows], rows, fld.zero)


@SETTINGS
@given(st.data())
def test_combine_matches_naive_sum(data):
    fld = R5.field_k
    n = data.draw(st.integers(1, 4))
    rows = draw_matrix(data, fld, data.draw(st.integers(1, 4)), n)
    coeffs = [fld.of(data.draw(small)) for _ in rows]
    want = [sum((c * r[t] for c, r in zip(coeffs, rows)), fld.zero)
            for t in range(n)]
    assert linalg.combine(coeffs, rows, fld.zero) == want


@SETTINGS
@given(st.sampled_from(["F_5", "Q"]), st.data())
def test_field_coord_solver_matches_solve_right(kind, data):
    fld = R5.field_k if kind == "F_5" else R5.field_K
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    rows = draw_matrix(data, fld, k, n)
    assume(linalg.rank(rows, fld) == k)
    v = draw_vector(data, fld, rows, n)
    want = linalg.solve_right(linalg.transpose(rows), v, fld)
    assert coord_solver(rows, fld)(v) == want


@SETTINGS
@given(st.sampled_from([R3, C3]), st.data())
def test_integral_coord_solver_matches_lattice_coords(ring, data):
    fld = ring.field_K
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, n))
    rows = draw_matrix(data, fld, k, n)
    assume(linalg.rank(rows, fld) == k)
    lat = Lattice.from_rows(ring, n, rows)
    # coefficients with denominator p leave the lattice now and then
    v = draw_vector(data, fld, rows, n, denominator=ring.p)
    want = lat.coords(v)
    # in the canonical basis the solver is Lattice.coords itself
    assert coord_solver(lat.rows, fld, ring)(v) == want
    # in the generating rows: the same membership, and coordinates in O
    # that reproduce v
    got = coord_solver(rows, fld, ring)(v)
    assert (got is None) == (want is None)
    if got is not None:
        assert all(ring.valuation(c) >= 0 for c in got if c)
        assert linalg.combine(got, rows, fld.zero) == v


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
    g_inv = linalg.invert(g, fld)
    assume(g_inv is not None)
    if integral:
        assume(mod.algebra.ring.valuation(linalg.det(g, fld)) == 0)
    acts = [linalg.mat_mul(linalg.mat_mul(g, a, fld), g_inv, fld)
            for a in mod.acts]
    return ModuleRep(mod.algebra, mod.rank, acts, mod.name + "^g")


def equivariant(h, src, dst):
    fld = src.fld
    return all(linalg.mat_mul(h, a_s, fld) == linalg.mat_mul(a_d, h, fld)
               for a_s, a_d in zip(src.acts, dst.acts))


@SETTINGS
@given(st.sampled_from(["O", "k", "K"]), st.data())
def test_find_iso_recovers_a_base_change(z5_module_sets, level, data):
    mods = z5_module_sets[level]
    mod = mods[data.draw(st.integers(0, len(mods) - 1))]
    integral = level == "O"
    other = draw_base_change(data, mod, integral)
    h = find_iso(mod, other, integral=integral)
    assert h is not None
    assert equivariant(h, mod, other)
    assert linalg.invert(h, mod.fld) is not None
    if integral:
        assert mod.algebra.ring.valuation(linalg.det(h, mod.fld)) == 0


@SETTINGS
@given(st.sampled_from(["O", "k", "K"]), st.data())
def test_hom_equation_kernel_is_equivariant(z5_module_sets, level, data):
    mods = z5_module_sets[level]
    src = mods[data.draw(st.integers(0, len(mods) - 1))]
    dst = mods[data.draw(st.integers(0, len(mods) - 1))]
    dst = draw_base_change(data, dst, False)
    ns, nd = src.rank, dst.rank
    for v in linalg.kernel_right(hom_equations(src, dst), src.fld):
        h = [[v[r * ns + c] for c in range(ns)] for r in range(nd)]
        assert equivariant(h, src, dst)


def test_find_iso_rank_zero_and_mismatch(z5, sp_z5):
    zero = sp_z5["1"]["P"].restrict_to([])
    assert find_iso(zero, zero, integral=True) == []
    assert find_iso(sp_z5["1"]["P"], sp_z5["2"]["P"], integral=True) is None
