"""`fixtures.build_qschur` spans S(2, d) by the images of Lusztig's
canonical basis.  Three checks bite on it:

* against the route it replaced, the closure of the identity under the
  generators (`dense_reference.flat_closure`): the same `Lattice` and the
  same document, for d <= 5 at p = 3 and 5 (d = 6 is opt-in);
* against a count that uses neither route: e_mu S e_lam has the rank of
  the 2 x 2 matrices over N with row sums mu and column sums lam (Green,
  Polynomial Representations of GL_n, 1980), for d <= 6; at d = 7 and 8,
  where no oracle pin reaches, this runs opt-in with one round of
  "g x lies in the lattice" for each generator g and basis element x;
* the generator check is live: a generator outside S(2, d) is refused.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest
from dense_reference import flat_closure
from test_radical_proof import OPT_IN

from grforge import files, fixtures, linalg
from grforge.scalars import Cyc, InternalCheckError


def build_with_lattice(monkeypatch, d, p):
    """build_qschur(d, p) and the lattice it hands to
    matrix_algebra_constants."""
    seen = []
    real = fixtures.matrix_algebra_constants

    def spy(lat, n):
        seen.append(lat)
        return real(lat, n)

    with monkeypatch.context() as m:
        m.setattr(fixtures, "matrix_algebra_constants", spy)
        alg = fixtures.build_qschur(d, p)
    [lat] = seen
    return alg, lat


def doc_digest(alg):
    doc = files.algebra_to_doc(alg)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "d, p", [(d, p) for p in (3, 5) for d in range(1, 6)]
    + [pytest.param(6, p, marks=OPT_IN) for p in (3, 5)])
def test_canonical_basis_spans_the_closure(d, p, monkeypatch):
    alg, lat = build_with_lattice(monkeypatch, d, p)
    closure = flat_closure(fixtures._qschur_generators(d, p).values(),
                           2 ** d, lat.ring)
    assert lat == closure
    # the document the builder writes when its lattice is the closure
    monkeypatch.setattr(fixtures, "Lattice", SimpleNamespace(
        from_rows=lambda ring, ambient, rows: closure))
    assert doc_digest(fixtures.build_qschur(d, p)) == doc_digest(alg)


def assert_greens_block_ranks(alg):
    """rank e_mu S e_lam, by `alg.mul`, is the number of 2 x 2 matrices
    over N with row sums mu and column sums lam: the entry x at (1, 1)
    runs from max(0, mu_1 - lam_2) to min(mu_1, lam_1)."""
    idems = alg.weights.idempotents
    basis = [alg.basis_vec(i) for i in range(alg.rank)]
    for mu, e_mu in idems.items():
        mu1 = int(mu.split(",")[0])
        left = [alg.mul(e_mu, x) for x in basis]
        for lam, e_lam in idems.items():
            lam1, lam2 = map(int, lam.split(","))
            rank = alg.span([alg.mul(x, e_lam) for x in left]).rank
            assert rank == min(mu1, lam1) - max(0, mu1 - lam2) + 1, (mu, lam)


@pytest.mark.parametrize("d, p", [(d, 3) for d in range(1, 7)]
                         + [(d, 5) for d in range(1, 6)])
def test_weight_blocks_have_greens_ranks(d, p):
    assert_greens_block_ranks(fixtures.build_qschur(d, p))


@OPT_IN
@pytest.mark.parametrize("d", [7, 8])
def test_large_builds_are_closed_under_the_generators(d, monkeypatch):
    alg, lat = build_with_lattice(monkeypatch, d, 3)
    assert alg.rank == lat.rank
    assert_greens_block_ranks(alg)
    n = 2 ** d
    for name, g in fixtures._qschur_generators(d, 3).items():
        for x in lat.rows:
            gx = linalg.compose(g, linalg.unflatten(x, n))
            assert lat.contains_vector(linalg.flatten(gx)), name


def test_a_generator_outside_the_algebra_is_refused(monkeypatch):
    real = fixtures._qschur_generators

    def with_matrix_unit(d, p):
        # word 1 -> word 2: both have one 1, but the matrix unit does not
        # commute with the Hecke algebra, so it is not in S(2, d)
        gens = real(d, p)
        gens["e21"] = [((2, Cyc.of(p, 1)),) if k == 1 else ()
                       for k in range(2 ** d)]
        return gens

    monkeypatch.setattr(fixtures, "_qschur_generators", with_matrix_unit)
    with pytest.raises(InternalCheckError, match="generator e21 is not in"):
        fixtures.build_qschur(2, 3)
