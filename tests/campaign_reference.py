"""The randomized campaigns and the End_A(J) cross-check as they were before
each distinct draw was decided once, kept for the tests.

`primitivity_campaign` and `prop52_campaign` decide every draw, repeats
included, and `primitivity_test` rebuilds the weight projector, the
saturations and the footnote-7 verdict on every call; they are the package
loops and test verbatim, apart from calling the `primitivity_test` of this
file and reading span rows, now {index: entry} dicts, in that form (a
drawn v is written out dense, as the loop drew it).  `endo_direct_check`
builds every cyclic candidate module before the splitting reads any of
them.  The package's campaigns must return the same
stats, and its lazy check the same verdicts.
"""

import random

from grforge import forced, linalg, radicals, tightness
from grforge.algebra import AlgebraError, StructureAlgebra, structure_constants
from grforge.certify import recognize_matrix_algebra
from grforge.forced import ForcedError, PrimitivityReport, n_prime_lattice
from grforge.graded import module_rad_chain
from grforge.lattices import is_pure, pure_closure, saturate_rows
from grforge.modules import (ModuleRep, direct_sum_module, hom_equations,
                             regular_module)
from grforge.randomized import PROP52_MAX_COPIES


def primitivity_test(mod: ModuleRep, v, lam, chain=None,
                     n_prime=None) -> PrimitivityReport:
    """Exact primitivity and strong primitivity of a lam-weight vector.

    `chain` and `n_prime` are module_rad_chain(mod) and
    n_prime_lattice(mod, lam); they are built here when not given, so that
    a caller testing many vectors builds them once.
    """
    if mod.level != "O":
        raise ForcedError("primitivity is an integral-level notion")
    alg = mod.algebra
    w = alg.weights
    e = list(w.idempotents[lam])
    v = list(v)
    if linalg.apply(mod.act_matrix(e), v) != linalg.sparse(v):
        raise ForcedError("vector is not a lam-weight vector")
    if n_prime is None:
        n_prime = n_prime_lattice(mod, lam)
    nprime, nprime_K = n_prime
    full = mod.full_lattice()
    detail = {}
    if not any(v):
        return PrimitivityReport(False, False, None, None, detail)
    in_nprime = nprime.contains_vector(v)
    if in_nprime:
        primitive = False
    else:
        with_v = nprime.add(mod.span([v]))
        primitive = is_pure(with_v, full)
    # strong primitivity at the unique filtration depth of v
    if chain is None:
        chain = module_rad_chain(mod)
    depth = 0
    while depth + 1 < len(chain) and chain[depth + 1].contains_vector(v):
        depth += 1
    grade = depth
    f_rows = list(chain[min(grade + 1, len(chain) - 1)].rows)
    f_rows += nprime_K.rows
    f_lat = saturate_rows(alg.ring, mod.rank, f_rows)
    if f_lat.contains_vector(v):
        strongly = False
    else:
        with_v = f_lat.add(mod.span([v]))
        strongly = is_pure(with_v, full)
    if strongly and not primitive:
        raise ForcedError("strong primitivity without primitivity (Prop 4.4(c))")
    maximality = None
    if primitive:
        # footnote-7 necessary condition: lam is maximal among mu with
        # (N_K / N'_K(lam))_mu != 0
        modK = mod.base_change("K")
        quot, _, _ = modK.quotient_by(nprime_K)
        maximality = len(quot.weight_space_rows(lam)) > 0
        for mu in w.Lambda:
            if w.lt(lam, mu) and len(quot.weight_space_rows(mu)):
                maximality = False
                detail["violating_weight"] = mu
    return PrimitivityReport(primitive, strongly, grade, maximality, detail)


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
    # each module's chain and N ∩ N'_K(lam) are built once, on first use
    chains = {}
    n_primes = {}
    while stats["trials"] < trials:
        i = rng.randrange(len(mods))
        mod = mods[i]
        lam = w.Lambda[rng.randrange(len(w.Lambda))]
        rows = mod.weight_space_rows(lam)
        if not rows:
            continue
        coeffs = []
        for _ in rows:
            c = rng.randint(-2, 2)
            if rng.random() < 0.25:
                c *= alg.ring.p
            coeffs.append(fld.of(c))
        v = linalg.dense(linalg.combine(coeffs, rows).items(), mod.rank,
                         fld.zero)
        stats["trials"] += 1
        if i not in chains:
            chains[i] = module_rad_chain(mod)
        if (i, lam) not in n_primes:
            n_primes[i, lam] = forced.n_prime_lattice(mod, lam)
        rep = primitivity_test(mod, v, lam, chains[i], n_primes[i, lam])
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
    while stats["trials"] < trials:
        copies = rng.randint(1, PROP52_MAX_COPIES)
        big = direct_sum_module(reg, copies)
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
        mod_sub = big.restrict_to(lat)
        verdicts = tightness.prop_52_verdicts(alg, datum, mod_sub,
                                              over_sub=True)
        stats["trials"] += 1
        agree = (verdicts["tight"] == verdicts["sum_formula"]
                 == verdicts["generated_in_degree_0"])
        stats["agreements" if agree else "disagreements"] += 1
        stats["tight" if verdicts["tight"] else "not_tight"] += 1
    return stats


def endo_direct_check(alg, J, expected_sizes):
    """Solve End_A(J) over O directly and compare block sizes (small ranks).

    Returns True/False for a conclusive verdict, None when the independent
    splitting route cannot decide (the structural route remains binding).
    """
    fld = alg.fld
    mod = regular_module(alg).restrict_to(J)
    n = mod.rank
    ker = linalg.kernel_right(hom_equations(mod, mod), fld, n * n)
    if len(ker) != sum(s * s for s in expected_sizes):
        return False
    # endomorphisms restricted to the lattice: saturate and build the algebra
    sat = saturate_rows(alg.ring, n * n, ker)
    # each basis endomorphism h (h[r][c] at r * n + c) by its sparse columns
    matb = [linalg.unflatten(b, n) for b in sat.rows]
    unit_c = sat.coords({k * n + k: fld.one for k in range(n)})
    if unit_c is None:
        return False
    try:
        sc = structure_constants(
            (linalg.flatten(linalg.compose(x, y)) for x in matb for y in matb),
            len(matb), sat.coords)
    except AlgebraError:
        return False
    endo = StructureAlgebra(alg.ring, "O", len(matb), None, unit_c, sc)
    # simple endo-modules sit inside J itself: End . v for module vectors v
    endo_k = endo.base_change("K")
    jmod = ModuleRep(endo_k, n, matb)
    cands = []
    for i in range(n):
        sub = jmod.submodule_generated([jmod.basis_vec(i)])
        if not sub.rank:
            continue
        smod = jmod.restrict_to(sub)
        cands.append((f"v{i}", smod))
    try:
        w = recognize_matrix_algebra(endo, cands)
    except (radicals.NonSplitError, AlgebraError):
        return None
    if not w.ok:
        return None if "splitting failed" in w.reason else False
    return tuple(sorted(w.block_sizes)) == tuple(sorted(expected_sizes))
