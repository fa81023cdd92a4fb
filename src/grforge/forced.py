"""Primitive elements, gr^b, and graded Delta-filtrations.

The higher-weight submodule N'_K(lam) is the A_K-submodule of N_K generated
by all mu-weight vectors with mu > lam.  Primitivity of a lam-weight vector v
is purity of Ov modulo N ∩ N'_K(lam); strong primitivity is the graded
analogue at the filtration depth of v.  gr^b N is the gr A-submodule of gr N
generated by all strongly primitive symbols, computed stratum by stratum: the
stratum (lam, i) contributes the full symbol image of (r~ad^i N)_lam whenever
the lam-weight part of grade i survives modulo N'_K(lam), and nothing
otherwise (sums/differences of strongly primitive elements at an active
stratum reach every symbol there).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .algebra import AlgebraError
from .graded import GradedModule, gr_module, module_rad_chain
from .lattices import Lattice, is_pure, saturate_rows
from .modules import (
    FiltrationFailure,
    ModuleRep,
    peel_standard_power,
    standard_module,
)


class ForcedError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# N'_K(lam) and primitivity
# ---------------------------------------------------------------------------

def n_prime_lattice(mod: ModuleRep, lam):
    """The pure lattice N ∩ N'_K(lam) (level O) and the subspace N'_K(lam)."""
    w = mod.algebra.weights
    if w is None or lam not in w.Lambda:
        raise ForcedError(f"{lam!r} is not a weight in Lambda")
    modK = mod.field_module()
    gens = []
    for mu in w.Lambda:
        if w.lt(lam, mu):
            gens.extend(modK.weight_space_rows(mu))
    span = modK.submodule_generated(gens)
    return mod.algebra.pure_span(span), span


@dataclass
class PrimitivityReport:
    primitive: bool
    strongly_primitive: bool
    grade: int | None
    maximality_ok: bool | None = None
    detail: dict = field(default_factory=dict)


class WeightInvariants:
    """What primitivity_test reads of (mod, lam) besides the vector: the
    weight projector's columns, the radical chain (pass one in to share it
    between weights) and, each built on first use and kept, the weight rows,
    N ∩ N'_K(lam), f_lat(g) and the footnote-7 maximality verdict."""

    def __init__(self, mod: ModuleRep, lam, chain=None):
        self.mod, self.lam = mod, lam
        self.projector = mod.act_matrix(mod.algebra.weights.idempotents[lam])
        self.chain = module_rad_chain(mod) if chain is None else chain
        self._f_lats = {}

    @cached_property
    def rows(self):
        return self.mod.weight_space_rows(self.lam)

    @cached_property
    def n_prime(self):
        return n_prime_lattice(self.mod, self.lam)

    def f_lat(self, grade):
        """The pure lattice of rad^(grade+1) N + N'_K(lam)."""
        if grade not in self._f_lats:
            step = self.chain[min(grade + 1, len(self.chain) - 1)]
            self._f_lats[grade] = saturate_rows(
                self.mod.algebra.ring, self.mod.rank,
                [*step.rows, *self.n_prime[1].rows])
        return self._f_lats[grade]

    @cached_property
    def maximality(self):
        """(ok, mu): lam is maximal among the weights of N_K / N'_K(lam)
        (footnote 7), and the last mu > lam that violates it, or None."""
        w = self.mod.algebra.weights
        quot, _, _ = self.mod.base_change("K").quotient_by(self.n_prime[1])
        ok, violating = len(quot.weight_space_rows(self.lam)) > 0, None
        for mu in w.Lambda:
            if w.lt(self.lam, mu) and len(quot.weight_space_rows(mu)):
                ok, violating = False, mu
        return ok, violating


def primitivity_test(mod: ModuleRep, v, lam,
                     inv: WeightInvariants | None = None) -> PrimitivityReport:
    """Exact primitivity and strong primitivity of a lam-weight vector.

    `inv` is WeightInvariants(mod, lam), built here when not given, so that
    a caller testing many vectors of one (mod, lam) builds it once.
    """
    if mod.level != "O":
        raise ForcedError("primitivity is an integral-level notion")
    if inv is None:
        inv = WeightInvariants(mod, lam)
    if linalg.apply(inv.projector, v) != v:
        raise ForcedError("vector is not a lam-weight vector")
    nprime, _ = inv.n_prime
    full = mod.full_lattice()
    detail = {}
    if not v:
        return PrimitivityReport(False, False, None, None, detail)
    if nprime.contains_vector(v):
        primitive = False
    else:
        with_v = nprime.add(mod.span([v]))
        primitive = is_pure(with_v, full)
    # strong primitivity at the unique filtration depth of v
    chain = inv.chain
    grade = 0
    while grade + 1 < len(chain) and chain[grade + 1].contains_vector(v):
        grade += 1
    f_lat = inv.f_lat(grade)
    if f_lat.contains_vector(v):
        strongly = False
    else:
        with_v = f_lat.add(mod.span([v]))
        strongly = is_pure(with_v, full)
    if strongly and not primitive:
        raise ForcedError("strong primitivity without primitivity (Prop 4.4(c))")
    maximality = None
    if primitive:
        maximality, violating = inv.maximality
        if violating is not None:
            detail["violating_weight"] = violating
    return PrimitivityReport(primitive, strongly, grade, maximality, detail)


# ---------------------------------------------------------------------------
# gr^b
# ---------------------------------------------------------------------------

def gr_b(grmod: GradedModule) -> Lattice:
    """The gr A-submodule of gr N generated by strongly primitive symbols, in
    the graded coordinates of gr N."""
    mod = grmod.base_module
    if mod.level != "O":
        raise ForcedError("gr_b is an integral-level computation")
    alg = mod.algebra
    w = alg.weights
    chain = grmod.chain
    gens = []
    for lam in w.Lambda:
        nprime, _ = n_prime_lattice(mod, lam)
        # quotient of N by the pure lattice N ∩ N'_K(lam), with its filtration
        quot, project, _ = mod.quotient_by(nprime)
        qchain = module_rad_chain(quot)
        e = w.idempotents[lam]
        for i in range(len(chain) - 1):
            qi = qchain[i] if i < len(qchain) else qchain[-1]
            qi1 = qchain[i + 1] if i + 1 < len(qchain) else qchain[-1]
            wi = quot.image([e], qi.rows)
            wi1 = quot.image([e], qi1.rows)
            if wi.rank == wi1.rank:
                continue  # inactive stratum
            wlat = mod.image([e], chain[i].rows)
            for r in wlat.rows:
                row = grmod.component(r, i)
                if row:
                    gens.append(row)
    return grmod.module.submodule_generated(gens)


# ---------------------------------------------------------------------------
# graded Delta-filtration (the Lemma 4.12 peeling)
# ---------------------------------------------------------------------------

@dataclass
class GradedStage:
    label: object
    copies: int
    shift: int
    kind: str                 # "standard" or "prestandard"


def gr_delta_filtration(grmod: GradedModule):
    """Peel gr^b N along the proof of the main filtration lemma, for
    grmod = gr N over a graded algebra gr A.

    Per stage: lam maximal with nonzero weight space, m1 the depth of the
    weight space, R = A . (depth-m1 weight stratum).
    Verifies R ≅ Delta(lam)^d (`peel_standard_power`: exact witness,
    purity), that the stratum is pure, the depth-shift identity
    R ∩ r~ad^(m1+s) N = r~ad^s R,  and whether the graded section
    gr^b N ∩ gr# R equals all of gr# R (standard) or is a verified
    prestandard sandwich.  Recurses on N/R; the first stage reads N's
    radical chain and gr N from grmod.
    """
    gralg = grmod.gralg
    mod = grmod.base_module
    w = mod.algebra.weights
    stages = []
    cur = mod
    guard = 0
    while cur.rank and guard <= mod.rank + 1:
        guard += 1
        cand = [lam for lam in w.Lambda if len(cur.weight_space_rows(lam))]
        if not cand:
            raise FiltrationFailure(None, "nonzero module with no Lambda-weights")
        lam = sorted(w.maximal(cand), key=str)[0]
        checks = {}
        grN = grmod if cur is mod else gr_module(gralg, cur)
        chain = grN.chain
        e = w.idempotents[lam]
        wlat = cur.image([e], chain[0].rows)
        m1 = 0
        while m1 + 1 < len(chain) and \
                chain[m1 + 1].contains_lattice(wlat):
            m1 += 1
        deeper = wlat.intersection(chain[min(m1 + 1, len(chain) - 1)])
        stratum_lifts, tors = wlat.lifts_over(deeper)
        d = len(stratum_lifts)
        h, r_lat = peel_standard_power(cur, lam, stratum_lifts)
        # A guard that cannot fire.  wlat = e.M is pure in M: if pi x lies in
        # e.M then pi x = e pi x, so x = e x as M is torsion-free.  Each chain
        # step is pure (saturated).  So `deeper`, the intersection of two pure
        # sublattices, is pure in M, hence in wlat: wlat / deeper is
        # torsion-free and `tors` is empty.
        checks["stratum_pure"] = not tors
        if tors:
            raise FiltrationFailure(lam, "weight stratum is not pure", checks)
        # depth-shift identity: R ∩ r~ad^(m1+s) N = r~ad^s R for all s
        rmod = cur.restrict_to(r_lat)
        rchain = module_rad_chain(rmod)
        shift_ok = True
        for s in range(len(rchain)):
            lhs = r_lat.intersection(chain[min(m1 + s, len(chain) - 1)])
            rl = rchain[min(s, len(rchain) - 1)]
            rows = [linalg.combine(rr, r_lat.rows) for rr in rl.rows]
            if lhs != cur.span(rows):
                shift_ok = False
                break
        checks["depth_shift_identity"] = shift_ok
        if not shift_ok:
            raise FiltrationFailure(lam, "depth-shift identity fails", checks)
        # graded section: gr^b N ∩ gr# R inside gr N
        grb = gr_b(grN)
        gsharp_rows = []
        for n in range(len(chain) - 1):
            for rr in r_lat.intersection(chain[n]).rows:
                row = grN.component(rr, n)
                if row:
                    gsharp_rows.append(row)
        gsharp = grN.module.span(gsharp_rows)
        section = grb.intersection(gsharp)
        standard = section == gsharp
        kind = "standard" if standard else "prestandard"
        if not standard:
            # sandwich: image of gr^b Delta(lam)^d inside the section
            delta = standard_module(mod.algebra, lam)
            gd = gr_module(gralg, delta)
            grb_delta = gr_b(gd)
            emb_rows = []
            for j in range(d):
                for rr in grb_delta.rows:
                    # lift graded row to Delta coordinates, copy j
                    lift = linalg.combine(rr, gd.lifts)
                    v = {j * delta.rank + t: x for t, x in lift.items()}
                    emb_rows.append(grN.symbol(linalg.mat_vec(h, v, cur.fld)))
            emb = grN.module.span(emb_rows)
            checks["sandwich_lower"] = section.contains_lattice(emb)
            checks["sandwich_upper"] = gsharp.contains_lattice(section)
            if not (checks["sandwich_lower"] and checks["sandwich_upper"]):
                raise FiltrationFailure(lam, "prestandard sandwich fails", checks)
        stages.append(GradedStage(lam, d, m1, kind))
        quot, _, _ = cur.quotient_by(r_lat)
        cur = quot
    if cur.rank:
        raise FiltrationFailure(None, "graded peeling did not terminate")
    # ordering property: lower weights occur above higher weights
    for a in range(len(stages)):
        for b in range(a + 1, len(stages)):
            if w.lt(stages[a].label, stages[b].label):
                raise FiltrationFailure(
                    stages[b].label, "ordering property violated "
                    f"({stages[a].label!r} below {stages[b].label!r})")
    return stages
