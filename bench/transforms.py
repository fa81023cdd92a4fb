"""Seed transforms: the benchmark's inputs are fixtures relabelled by a seed.

Every transform acts on a serialized document (a plain dict), so the program
under test only ever receives the generated documents.  A transform must not
change any verdict; ``test_bench.py`` checks that on one small case each.
"""

from __future__ import annotations

import random


def rng_for(seed: int, *what) -> random.Random:
    """An independent generator per (seed, purpose), stable across runs."""
    return random.Random("/".join(map(str, (seed,) + what)))


def permute_algebra_doc(doc: dict, perm: list) -> dict:
    """Relabel the basis of an algebra document: old basis i becomes perm[i].

    Structure constants, the unit, weight idempotents, generators and basis
    labels move together, so the document describes the same algebra.
    Metadata that refers to basis indices is not rewritten; use this only on
    documents without such metadata.
    """
    n = doc["rank"]
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of range({n}): {perm}")

    def vec(v):
        out = [None] * n
        for i, x in enumerate(v):
            out[perm[i]] = x
        return out

    new = dict(doc)
    new["unit"] = vec(doc["unit"])
    if "basis_labels" in doc:
        new["basis_labels"] = vec(doc["basis_labels"])
    new["structure_constants"] = sorted(
        [perm[i], perm[j], perm[t], val]
        for i, j, t, val in doc["structure_constants"])
    if "weights" in doc:
        w = dict(doc["weights"])
        w["idempotents"] = {k: vec(v) for k, v in w["idempotents"].items()}
        new["weights"] = w
    if "generators" in doc:
        new["generators"] = {k: vec(v) for k, v in doc["generators"].items()}
    return new


def random_permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def root_datum_doc(datum, p: int, order: int) -> dict:
    """A root datum as a document: type label, Cartan matrix, symmetrizer and
    positive roots in simple-root coordinates, plus the suite parameters."""
    return {
        "type": datum.type_label,
        "cartan": [list(r) for r in datum.cartan],
        "d_simple": list(datum.d_simple),
        "positive": [list(b) for b in datum.positive],
        "p": p,
        "order": order,
    }


def permute_root_datum_doc(doc: dict, perm: list) -> dict:
    """Reorder the simple roots: old simple root i becomes perm[i].

    The Cartan matrix, the symmetrizer and the coordinates of every positive
    root are permuted together, which describes the same root system.
    """
    r = len(doc["d_simple"])
    if sorted(perm) != list(range(r)):
        raise ValueError(f"not a permutation of range({r}): {perm}")
    cartan = [[0] * r for _ in range(r)]
    d = [0] * r
    for i in range(r):
        d[perm[i]] = doc["d_simple"][i]
        for j in range(r):
            cartan[perm[i]][perm[j]] = doc["cartan"][i][j]
    positive = []
    for beta in doc["positive"]:
        nb = [0] * r
        for i, c in enumerate(beta):
            nb[perm[i]] = c
        positive.append(nb)
    return dict(doc, cartan=cartan, d_simple=d, positive=positive)


def doc_to_root_datum(doc: dict):
    from grforge import cyclo

    return cyclo.RootDatum(doc["type"],
                           tuple(tuple(r) for r in doc["cartan"]),
                           tuple(doc["d_simple"]),
                           tuple(tuple(b) for b in doc["positive"]))
