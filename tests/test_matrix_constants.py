"""`algebra.matrix_algebra_constants`, which forms each product of a basis
of matrices only at the pivot entries of its lattice, against the route it
replaced, every product formed in full
(`dense_reference.matrix_algebra_constants_full`): the same structure
constants on the q-Schur lattices, on the End_A(J) lattices of the thm417
suite, and on drawn matrix algebras over Z_(p) and Z_(p)[zeta]."""

import pytest
from dense_reference import (
    flat_closure,
    invert,
    matrix_algebra_constants_full,
)
from hypothesis import given, settings, strategies as st

from grforge import certify, fixtures, linalg, suites
from grforge.algebra import matrix_algebra_constants
from grforge.scalars import CYCLOTOMIC, RATIONAL, Cyc, RingSpec

SETTINGS = settings(max_examples=60, deadline=None)


def seen_lattices(monkeypatch, module):
    """The (lattice, n) pairs that `module` hands to
    matrix_algebra_constants from now on."""
    seen = []

    def spy(lat, n):
        seen.append((lat, n))
        return matrix_algebra_constants(lat, n)

    monkeypatch.setattr(module, "matrix_algebra_constants", spy)
    return seen


@pytest.mark.parametrize("d, p", [(d, 3) for d in range(1, 6)]
                         + [(d, 5) for d in range(1, 5)])
def test_qschur_constants_are_the_full_products(d, p, monkeypatch):
    seen = seen_lattices(monkeypatch, fixtures)
    alg = fixtures.build_qschur(d, p)
    [(lat, n)] = seen
    assert (n, lat.rank) == (2 ** d, alg.rank)
    assert alg.sc == matrix_algebra_constants_full(lat, n)


@pytest.mark.parametrize("d, p", [(2, 5), (3, 3)])
def test_endo_constants_are_the_full_products(d, p, monkeypatch):
    alg = fixtures.build_qschur(d, p)
    seen = seen_lattices(monkeypatch, certify)
    suites.thm_417_suite(alg)
    assert seen
    for lat, n in seen:
        assert matrix_algebra_constants(lat, n) == \
            matrix_algebra_constants_full(lat, n)


# ---------------------------------------------------------------------------
# drawn matrix algebras: the O-span of the words in a few generators applied
# to 1 (the O-algebra they generate), conjugated by a unitriangular matrix
# ---------------------------------------------------------------------------

RINGS = [RingSpec(RATIONAL, 3), RingSpec(RATIONAL, 5), RingSpec(CYCLOTOMIC, 3)]


def draw_entry(data, ring):
    """An entry in O, zero half the time, often of positive valuation."""
    if data.draw(st.booleans()):
        return ring.zero()
    if ring.flavor == CYCLOTOMIC:
        return Cyc(ring.p, [data.draw(st.integers(-3, 3))
                            for _ in range(ring.p - 1)])
    return ring.of(data.draw(st.sampled_from([1, -1, 2, ring.p, -ring.p])))


def dense_product(a, b, zero):
    return [[sum((x * b[k][c] for k, x in enumerate(row)), zero)
             for c in range(len(b[0]))] for row in a]


@given(st.data())
@SETTINGS
def test_drawn_matrix_algebra_constants_are_the_full_products(data):
    ring = data.draw(st.sampled_from(RINGS))
    fld, zero, one = ring.field_K, ring.zero(), ring.one()
    n = data.draw(st.integers(1, 4))
    u = [[one if r == c else draw_entry(data, ring) if r < c else zero
          for c in range(n)] for r in range(n)]
    u_inv = invert(u, fld)
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        g = [[draw_entry(data, ring) for _ in range(n)] for _ in range(n)]
        gens.append(linalg.columns(
            dense_product(dense_product(u, g, zero), u_inv, zero)))
    lat = flat_closure(gens, n, ring)
    assert matrix_algebra_constants(lat, n) == \
        matrix_algebra_constants_full(lat, n)
