"""Scalar microkernel probe: nanoseconds per scalar operation, on operands
sampled from a workload's own documents.

Each figure is the median, over several repetitions, of one timed loop over
the whole operand sample divided by the number of operations in it.
"""

from __future__ import annotations

import random
import statistics
import time

REPEATS = 5


def _ns_per_op(fn, items, repeats=REPEATS):
    clock = time.perf_counter_ns
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for x in items:
            fn(x)
        samples.append((clock() - t0) / len(items))
    return statistics.median(samples)


def operands_from_algebra_doc(doc, limit=64):
    """(ring, scalars) from a document's structure constants and weight
    idempotents, parsed the way the loader parses them."""
    from grforge.scalars import RingSpec

    ring = RingSpec(doc["ring"]["flavor"], doc["ring"]["p"])
    raw = [entry[3] for entry in doc["structure_constants"]]
    for v in doc.get("weights", {}).get("idempotents", {}).values():
        raw.extend(v)
    vals = [ring.parse_scalar(x) for x in raw]
    return ring, [x for x in dict.fromkeys(vals) if x][:limit]


def operands_from_root_datum_doc(doc):
    """(ring, scalars) for the appendix identities: zeta^(d j) - zeta^(-d j),
    zeta^(d j) - 1 and zeta^(d j) + 1 for the root lengths d of the datum."""
    from grforge.scalars import CYCLOTOMIC, RingSpec

    p = doc["p"]
    ring = RingSpec(CYCLOTOMIC, p)
    field = ring.field_K
    out = []
    for d in sorted(set(doc["d_simple"])):
        for j in range(1, p):
            z = field.zeta_pow(d * j)
            zi = field.zeta_pow(-d * j)
            out.extend([z - zi, z - 1, z + 1, z])
    return ring, [x for x in dict.fromkeys(out) if x]


def _inverse(x):
    # Cyc has its own inverse; Fraction inverts by division
    return x.inverse() if hasattr(x, "inverse") else 1 / x


def probe(samples, seed, pairs=400):
    """samples: list of (ring, nonzero operands).  Returns scalars.* metrics
    in nanoseconds per operation.

    Binary operations pair operands of the same ring.  Half of the zero tests
    see the ring's zero, because the matrices the program tests entry by
    entry are mostly zeros.
    """
    rng = random.Random(seed)
    by_ring = {}
    for ring, ops in samples:
        by_ring.setdefault(ring, []).extend(ops)
    rings = sorted(by_ring, key=lambda r: (r.flavor, r.p))
    pair_list = []
    for k in range(pairs):
        ops = by_ring[rings[k % len(rings)]]
        pair_list.append((rng.choice(ops), rng.choice(ops)))
    nonzero = [(r, x) for r in rings for x in by_ring[r]]
    if not nonzero:
        raise ValueError("no operands to probe")
    zeros = [r.zero() for r in rings]
    zero_mix = [x for _, x in nonzero] + [zeros[k % len(zeros)]
                                          for k in range(len(nonzero))]
    in_O = [(r, x) for r, x in nonzero if r.valuation(x) >= 0]
    return {
        "scalars.mul_ns": _ns_per_op(lambda ab: ab[0] * ab[1], pair_list),
        "scalars.add_ns": _ns_per_op(lambda ab: ab[0] + ab[1], pair_list),
        "scalars.zero_test_ns": _ns_per_op(bool, zero_mix * 4),
        "scalars.inverse_ns": _ns_per_op(_inverse, [x for _, x in nonzero]),
        "scalars.valuation_ns": _ns_per_op(lambda rx: rx[0].valuation(rx[1]),
                                           nonzero),
        "scalars.residue_ns": _ns_per_op(lambda rx: rx[0].residue(rx[1]), in_O),
        "scalars.field_K_ns": _ns_per_op(lambda r: r.field_K, rings * 50),
    }
