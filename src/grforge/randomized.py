"""Seeded randomized property campaigns (primitivity, tightness equivalences).

These drive the bulk invariants: strong primitivity implies primitivity with
the maximality side condition on every positive verdict, and the three
tightness characterizations agree on random subalgebra lattices.  All draws
are deterministic given the seed (GRFORGE_SEED for the CLI).  Each distinct
draw is decided once; its repeats count again with the same exact result.
"""

from __future__ import annotations

import random

from . import forced, linalg, tightness
from .graded import module_rad_chain
from .lattices import pure_closure
from .modules import direct_sum_module, regular_module

# prop52_campaign draws free modules of 1 to this many copies of the regular one
PROP52_MAX_COPIES = 2


def primitivity_campaign(alg, mods, trials: int, seed: int):
    """Random weight vectors across modules; asserts the implication
    strongly_primitive => primitive and checks footnote-style maximality on
    every positive primitive verdict.  Returns counters."""
    rng = random.Random(seed)
    w = alg.weights
    stats = {"trials": 0, "primitive": 0, "strongly_primitive": 0,
             "implication_violations": 0, "maximality_violations": 0}
    mods = [m for m in mods if m.rank]
    fld = alg.fld
    # one chain per module and one WeightInvariants per (module, lam), built
    # on the module's first draw; each distinct (module, lam, v) decided once
    invariants = {}
    reports = {}
    while stats["trials"] < trials:
        i = rng.randrange(len(mods))
        mod = mods[i]
        lam = w.Lambda[rng.randrange(len(w.Lambda))]
        if i not in invariants:
            chain = module_rad_chain(mod)
            invariants[i] = {mu: forced.WeightInvariants(mod, mu, chain)
                             for mu in w.Lambda}
        inv = invariants[i][lam]
        rows = inv.rows
        if not rows:
            continue
        coeffs = []
        for _ in rows:
            c = rng.randint(-2, 2)
            if rng.random() < 0.25:
                c *= alg.ring.p
            coeffs.append(fld.of(c))
        v = linalg.combine(coeffs, rows)
        stats["trials"] += 1
        key = (i, lam, tuple(sorted(v.items())))  # v is a dict
        if key not in reports:
            reports[key] = forced.primitivity_test(mod, v, lam, inv)
        rep = reports[key]
        if rep.primitive:
            stats["primitive"] += 1
            if rep.maximality_ok is False:
                stats["maximality_violations"] += 1
        if rep.strongly_primitive:
            stats["strongly_primitive"] += 1
            if not rep.primitive:
                stats["implication_violations"] += 1
    return stats


def prop52_campaign(alg, datum, trials: int, seed: int):
    """Random subalgebra lattices; the three tightness statements must agree.

    Draws random pure submodules of free modules over the graded subalgebra
    and compares the verdicts of prop_52_verdicts.  Returns counters and the
    number of tight/non-tight draws (both classes should occur).
    """
    rng = random.Random(seed)
    sub = tightness.subalgebra_of(alg, datum.rows)
    stats = {"trials": 0, "agreements": 0, "disagreements": 0,
             "tight": 0, "not_tight": 0}
    reg = regular_module(sub)
    bigs = {c: direct_sum_module(reg, c)
            for c in range(1, PROP52_MAX_COPIES + 1)}
    decided = {}  # (copies, pure lattice) -> its verdicts
    while stats["trials"] < trials:
        copies = rng.randint(1, PROP52_MAX_COPIES)
        big = bigs[copies]
        ngens = rng.randint(1, copies + 1)
        gens = []
        for _ in range(ngens):
            v = [sub.fld.zero] * big.rank
            for t in range(big.rank):
                c = rng.randint(-1, 1)
                if c and rng.random() < 0.4:
                    if rng.random() < 0.3:
                        c *= alg.ring.p
                    v[t] = v[t] + sub.fld.of(c)
            if any(v):
                gens.append(v)
        if not gens:
            continue
        lat = big.submodule_generated(gens)
        if lat.rank == 0:
            continue
        lat = pure_closure(lat, big.full_lattice())
        if (copies, lat) not in decided:
            decided[copies, lat] = tightness.prop_52_verdicts(
                alg, datum, big.restrict_to(lat), over_sub=True)
        verdicts = decided[copies, lat]
        stats["trials"] += 1
        agree = (verdicts["tight"] == verdicts["sum_formula"]
                 == verdicts["generated_in_degree_0"])
        stats["agreements" if agree else "disagreements"] += 1
        stats["tight" if verdicts["tight"] else "not_tight"] += 1
    return stats
