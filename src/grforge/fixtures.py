"""Desk-scale fixture algebras.

* z5  : the rank-5 zigzag algebra of the quiver 1 <-> 2 with the loop at
        vertex 2 killed (alpha: 1->2, beta: 2->1, alpha beta = 0,
        gamma := beta alpha a loop at vertex 1).  A split integral QHA with
        weights {1 < 2}.
* z5s : the same K-algebra with the arrow beta rescaled by pi, a different
        O-order that fails quasi-heredity (pi-torsion above gamma).
* qschur : the integral q-Schur algebra S(2, d) over Z_(p)[zeta], built from
        divided-power generators acting on tensor space, each written in
        closed form at v = zeta (every entry of E^(a), F^(a) is one power
        of zeta).
* usl2   : a rank p^3 integral small-quantum-sl2 algebra on the monomial
        basis F^a K^b E^c.
* inflate / perturb : Morita inflation and pi-rescaling mutations.
"""

from __future__ import annotations

import itertools
import math
import random

from . import linalg, radicals
from .algebra import (
    AlgebraError,
    StructureAlgebra,
    WeightDatum,
    matrix_algebra_constants,
)
from .lattices import Lattice
from .scalars import CYCLOTOMIC, RATIONAL, Cyc, InternalCheckError, RingSpec

# basis order for the zigzag fixtures
_Z5_LABELS = ("e1", "e2", "alpha", "beta", "gamma")
E1, E2, AL, BE, GA = range(5)


def build_z5(p: int = 3, beta_scale=1) -> StructureAlgebra:
    """The zigzag fixture over Z_(p); beta_scale = pi gives the z5s mutation."""
    ring = RingSpec(RATIONAL, p)
    s = ring.of(beta_scale)
    one = ring.one()

    prods = {
        (E1, E1): {E1: one}, (E1, BE): {BE: one}, (E1, GA): {GA: one},
        (E2, E2): {E2: one}, (E2, AL): {AL: one},
        (AL, E1): {AL: one},
        (BE, E2): {BE: one}, (BE, AL): {GA: s},
        (GA, E1): {GA: one},
    }
    # with beta scaled by s, gamma tracks beta*alpha = s*gamma_0; keep the
    # basis {e1, e2, alpha, s*beta_0, gamma_0}: only (BE, AL) changes
    sc = {k: dict(v) for k, v in prods.items()}
    unit = {E1: one, E2: one}
    weights = WeightDatum.build(
        X=("1", "2"),
        Lambda=("1", "2"),
        relations=[("1", "2")],
        idempotents={"1": {E1: one}, "2": {E2: one}},
    )
    alg = StructureAlgebra(ring, "O", 5, _Z5_LABELS, unit, sc, weights,
                           generators={"e1": {E1: one}, "e2": {E2: one},
                                       "alpha": {AL: one}, "beta": {BE: one}})
    return alg


def build_z5s(p: int = 3) -> StructureAlgebra:
    return build_z5(p, beta_scale=p)


# ---------------------------------------------------------------------------
# Morita inflation and pi-perturbation transforms
# ---------------------------------------------------------------------------

def inflate(alg: StructureAlgebra, multiplicities: dict) -> StructureAlgebra:
    """Blow up each weight label nu to multiplicity m_nu.

    The result is End-of-projective style: basis elements are triples
    (i, r, c) with i an original basis index lying in e_a A e_b and
    r < m_a, c < m_b copies; products match matrix composition.  The inflated
    algebra is Morita equivalent to the original with the same weight poset.
    """
    w = alg.weights
    if w is None:
        raise AlgebraError("inflation needs a weight datum")
    unknown = sorted(set(multiplicities) - set(w.X), key=str)
    if unknown:
        raise AlgebraError(f"multiplicities name labels {unknown} outside X; "
                           f"the labels are {list(w.X)}")
    mult = {nu: int(multiplicities.get(nu, 1)) for nu in w.X}
    if any(m < 1 for m in mult.values()):
        raise AlgebraError("multiplicities must be >= 1")
    # split each basis vector into e_a A e_b pieces; require the basis to be
    # weight-homogeneous (true for our fixtures)
    side = {}
    for i in range(alg.rank):
        bi = alg.basis_vec(i)
        homes = []
        for a in w.X:
            ea = w.idempotents[a]
            for b in w.X:
                eb = w.idempotents[b]
                v = alg.mul(ea, alg.mul(bi, eb))
                if v == bi:
                    homes.append((a, b))
        if len(homes) != 1:
            raise AlgebraError(
                f"basis element {i} is not weight-homogeneous; inflate needs "
                "a weight-adapted basis")
        side[i] = homes[0]
    new_basis = []
    for i in range(alg.rank):
        a, b = side[i]
        for r in range(mult[a]):
            for c in range(mult[b]):
                new_basis.append((i, r, c))
    index = {t: n for n, t in enumerate(new_basis)}
    sc = {}
    for (i, r, c) in new_basis:
        a_i, b_i = side[i]
        for (j, r2, c2) in new_basis:
            a_j, b_j = side[j]
            if b_i != a_j or c != r2:
                continue
            row = alg.sc.get((i, j))
            if not row:
                continue
            out = {}
            for t, v in row.items():
                # product lands in e_{a_i} A e_{b_j}
                out[index[(t, r, c2)]] = v
            sc[(index[(i, r, c)], index[(j, r2, c2)])] = out
    unit = {index[(i, r, r)]: x for i, x in alg.unit.items()
            if side[i][0] == side[i][1] for r in range(mult[side[i][0]])}
    idems = {}
    for nu in w.X:
        base = w.idempotents[nu]
        for copy in range(mult[nu]):
            idems[f"{nu}#{copy}"] = {index[(i, copy, copy)]: x
                                     for i, x in base.items()
                                     if side[i] == (nu, nu)}
    # copies become separate weight labels; Lambda keeps one copy per weight,
    # so the inflated algebra is Lambda-uniform and Morita-reduces back
    new_x = tuple(f"{nu}#{c}" for nu in w.X for c in range(mult[nu]))
    new_lambda = tuple(f"{nu}#0" for nu in w.Lambda)
    new_less = frozenset((f"{a}#0", f"{b}#0") for (a, b) in w.less)
    weights = WeightDatum(new_x, new_lambda, new_less, idems)
    labels = [f"{alg.labels[i]}[{r},{c}]" for (i, r, c) in new_basis]
    return StructureAlgebra(alg.ring, alg.level, len(new_basis), labels,
                            unit, sc, weights)


def perturb(alg: StructureAlgebra, seed: int, count: int = 1):
    """pi-rescale random non-idempotent basis elements (a valid new O-order).

    Rescaling b_i -> pi^(s_i) b_i keeps associativity; constants become
    pi^(s_i + s_j - s_t) c[i,j,t], and draws are retried until all stay in O.
    Returns (algebra, scaling) or None if no valid mutation was found.
    """
    if alg.level != "O":
        raise AlgebraError("perturb acts on integral algebras")
    rng = random.Random(seed)
    w = alg.weights
    frozen = set()
    if w is not None:
        for v in w.idempotents.values():
            frozen.update(v)
    frozen.update(alg.unit)
    candidates = [i for i in range(alg.rank) if i not in frozen]
    if not candidates:
        return None
    for _ in range(80):
        scaling = {i: 0 for i in range(alg.rank)}
        for i in rng.sample(candidates, min(count, len(candidates))):
            scaling[i] = rng.randint(1, 2)
        if all(s == 0 for s in scaling.values()):
            continue
        sc = {}
        ok = True
        for (i, j), row in alg.sc.items():
            out = {}
            for t, v in row.items():
                e = scaling[i] + scaling[j] - scaling[t]
                if e < 0:
                    val = alg.ring.valuation(v)
                    if val + e < 0:
                        ok = False
                        break
                out[t] = v * alg.ring.pi_power(e)
            if not ok:
                break
            sc[(i, j)] = out
        if not ok:
            continue
        mutant = StructureAlgebra(alg.ring, "O", alg.rank, alg.labels,
                                  alg.unit, sc, alg.weights, None)
        return mutant, scaling
    return None


# ---------------------------------------------------------------------------
# the integral q-Schur algebra S(2, d)
# ---------------------------------------------------------------------------

def _qschur_generators(d, p):
    """The divided-power generators on V^(x)d at v = zeta, by sparse columns
    (see linalg), written down in closed form.

    The basis vector e_w of a word w in {0, 1}^d has index
    sum_i w_i 2^(d-1-i) (itertools.product order).  Letter x has weight
    eps(x) = 1 - 2x and wt(w) = sum_i eps(w_i).  E^(a) e_w is the sum, over
    the a-subsets S of the slots where w is 1, of
    v^(a(a-1)/2 + sum_{j in S} sum_{i<j} eps(w_i)) times w with S set to 0;
    F^(a) e_w sums over the slots where w is 0 with the exponent
    a(a-1)/2 - sum_{j in S} sum_{i>j} eps(w_i), setting S to 1.  The a!
    orders of flipping S add v^2 once per inversion, which sums to
    [a]_{v^2}! = v^(a(a-1)/2) [a]! (Lusztig's q-binomial coproduct).
    K^(+-1) e_w = v^(+-wt(w)) e_w and [K;0;t] e_w = [wt(w); t] e_w.
    Distinct subsets give distinct words, so no column repeats a row.
    """
    words = list(itertools.product((0, 1), repeat=d))
    wts = [sum(1 - 2 * x for x in w) for w in words]
    gens = {}
    for a in range(1, d + 1):
        for name, letter, step in (("E", 1, -1), ("F", 0, 1)):
            cols = []
            for k, w in enumerate(words):
                # E: the weight of the letters before slot j; F: minus the
                # weight of those after it
                side = [sum(1 - 2 * x for x in w[:j]) if letter
                        else -sum(1 - 2 * x for x in w[j + 1:])
                        for j in range(d)]
                col = []
                for s in itertools.combinations(
                        [j for j in range(d) if w[j] == letter], a):
                    flip = sum(1 << (d - 1 - j) for j in s)
                    exp = a * (a - 1) // 2 + sum(side[j] for j in s)
                    col.append((k + step * flip, Cyc.zeta_pow(p, exp % p)))
                cols.append(tuple(sorted(col)))
            gens[f"{name}({a})"] = cols
    gens["K"] = [((k, Cyc.zeta_pow(p, m % p)),) for k, m in enumerate(wts)]
    gens["K^-1"] = [((k, Cyc.zeta_pow(p, -m % p)),) for k, m in enumerate(wts)]
    for t in range(1, d + 1):
        binom = {m: _cartan_binomial(m, t, p) for m in set(wts)}
        gens[f"[K;0;{t}]"] = [((k, binom[m]),) if binom[m] else ()
                              for k, m in enumerate(wts)]
    return gens


def _cartan_binomial(m, t, p):
    """[m; t] at v = zeta: the sum over the t-subsets S of {0..m-1} of
    v^(2 sum S - t(m-1)) for m >= 0, and (-1)^t [t-m-1; t] for m < 0."""
    if m < 0:
        c = _cartan_binomial(t - m - 1, t, p)
        return -c if t % 2 else c
    out = Cyc.of(p, 0)
    for s in itertools.combinations(range(m), t):
        out = out + Cyc.zeta_pow(p, (2 * sum(s) - t * (m - 1)) % p)
    return out


def build_qschur(d: int, p: int):
    """The integral q-Schur algebra S(2, d) over Z_(p)[zeta].

    The nonzero images of Lusztig's canonical basis of the modified
    quantum group of sl2, E^(a) 1_(-n) F^(c) and F^(c) 1_n E^(a) for
    n >= a + c (equal when n = a + c), are a basis of S(2, d), the
    O-algebra that the divided-power generators (`_qschur_generators`)
    generate on the d-th tensor power of O^2 (Lusztig, Introduction to
    Quantum Groups, 1993, 25.3; Beilinson-Lusztig-MacPherson, Duke Math.
    J. 61, 1990).  With P_b the projector onto the words with b ones, of
    weight m = d - 2b, the rows are E^(a) P_b F^(c) for m <= 0 and
    a + c <= -m, and F^(c) P_b E^(a) for m > 0 and a + c < m.  The P_b are
    the weight idempotents, Lambda the partitions under dominance.  A
    matrix on the 2^d words is a vector row by row (linalg.flatten).
    """
    if not (1 <= d <= 8):
        raise AlgebraError("supported range: 1 <= d <= 8")
    ring = RingSpec(CYCLOTOMIC, p)
    one = ring.one()
    n = 2 ** d
    gens = _qschur_generators(d, p)
    ident = [((k, one),) for k in range(n)]
    projs = [[((k, one),) if bin(k).count("1") == b else () for k in range(n)]
             for b in range(d + 1)]
    e, f = ([ident] + [gens[f"{x}({a})"] for a in range(1, d + 1)]
            for x in "EF")
    rows = []
    for b, proj in enumerate(projs):
        m = d - 2 * b
        x, y, top = (e, f, -m) if m <= 0 else (f, e, m - 1)
        rows += [linalg.flatten(linalg.compose(x[a],
                                               linalg.compose(proj, y[c])))
                 for a in range(top + 1) for c in range(top + 1 - a)]
    lat = Lattice.from_rows(ring, n * n, rows)
    rank = lat.rank
    if rank != math.comb(3 + d, 3):
        raise AlgebraError(f"q-Schur canonical basis has rank {rank}, "
                           f"expected {math.comb(3 + d, 3)}")

    def coords(what, cols):
        c = lat.coords(linalg.flatten(cols))
        if c is None:
            raise InternalCheckError(f"{what} is not in the algebra")
        return c

    sc = matrix_algebra_constants(lat, n)
    labels = [f"{d - b},{b}" for b in range(d + 1)]
    idems = {lbl: coords(f"weight projector ({lbl})", proj)
             for lbl, proj in zip(labels, projs)}
    parts = range(d // 2 + 1)  # b ones: the partition (d - b, b)
    relations = [(labels[a], labels[b]) for a in parts for b in parts if a > b]
    weights = WeightDatum.build(labels, labels[:len(parts)], relations, idems)
    gen_coords = {name: coords(f"generator {name}", g)
                  for name, g in gens.items()}
    alg = StructureAlgebra(ring, "O", rank, [f"x{i}" for i in range(rank)],
                           coords("unit", ident), sc, weights,
                           generators=gen_coords)
    alg.p_regular = {labels[b]: (d - 2 * b + 1) % p != 0 for b in parts}
    return alg


# ---------------------------------------------------------------------------
# the rank-1 small quantum group (integral form, scaled Serre generator)
# ---------------------------------------------------------------------------

def _usl2_times_f(p, elem, qint, zpow):
    """Right multiplication by F on a dict {(a,b,c): coeff}.

    Uses K F = zeta^-2 F K and E^c F = F E^c + [c](zeta^(1-c) K -
    zeta^(c-1) K^-1) E^(c-1), valid for the integral normalization with
    E F - F E = K - K^-1.
    """
    out = {}

    def add(key, val):
        if val:
            out[key] = out.get(key, Cyc.of(p, 0)) + val
            if not out[key]:
                del out[key]

    for (a, b, c), coef in elem.items():
        # F^a K^b E^c F = zeta^(-2b) F^(a+1) K^b E^c
        #   + [c] F^a K^b (zeta^(1-c) K - zeta^(c-1) K^-1) E^(c-1)
        if a + 1 < p:
            add((a + 1, b, c), coef * zpow(-2 * b))
        if c >= 1:
            qc = qint(c)
            add((a, (b + 1) % p, c - 1), coef * qc * zpow(1 - c))
            add((a, (b - 1) % p, c - 1), -(coef * qc * zpow(c - 1)))
    return out


def build_usl2(p: int):
    """The rank p^3 integral small quantum sl2 on the basis F^a K^b E^c.

    The Serre relation is normalized integrally as E F - F E = K - K^(-1)
    (the lowering generator carries the quantum-parameter factor), so the
    monomial basis spans an O-order.  Regular-block idempotents are searched
    for through the explicit simple modules; when they lie in the order the
    fixture records the block decomposition, otherwise it ships unblocked.
    """
    ring = RingSpec(CYCLOTOMIC, p)
    z = Cyc.zeta_pow(p, 1)

    def zpow(e):
        return Cyc.zeta_pow(p, e % p)

    def qint(n):
        # [n] = (zeta^n - zeta^-n)/(zeta - zeta^-1)
        num = zpow(n) - zpow(-n)
        den = zpow(1) - zpow(-1)
        return num / den

    idx = {}
    monos = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                idx[(a, b, c)] = len(monos)
                monos.append((a, b, c))
    rank = p ** 3

    def times_k(elem):
        out = {}
        for (a, b, c), coef in elem.items():
            key = (a, (b + 1) % p, c)
            out[key] = out.get(key, Cyc.of(p, 0)) + coef * zpow(-2 * c)
        return {k: v for k, v in out.items() if v}

    def times_e(elem):
        out = {}
        for (a, b, c), coef in elem.items():
            if c + 1 < p:
                out[(a, b, c + 1)] = out.get((a, b, c + 1), Cyc.of(p, 0)) + coef
        return {k: v for k, v in out.items() if v}

    sc = {}
    for i, m1 in enumerate(monos):
        elem_base = {m1: Cyc.of(p, 1)}
        for j, m2 in enumerate(monos):
            a2, b2, c2 = m2
            elem = elem_base
            for _ in range(a2):
                elem = _usl2_times_f(p, elem, qint, zpow)
                if not elem:
                    break
            for _ in range(b2):
                elem = times_k(elem)
            for _ in range(c2):
                elem = times_e(elem)
                if not elem:
                    break
            row = {idx[m]: v for m, v in elem.items() if v}
            if row:
                sc[(i, j)] = row
    one = ring.one()
    gens = {"F": {idx[(1, 0, 0)]: one}, "K": {idx[(0, 1, 0)]: one},
            "E": {idx[(0, 0, 1)]: one}}
    alg = StructureAlgebra(ring, "O", rank,
                           [f"F{a}K{b}E{c}" for (a, b, c) in monos],
                           {idx[(0, 0, 0)]: one}, sc, None, generators=gens)
    alg.monomial_index = idx
    alg.blocks_info = _usl2_blocks(alg, p, idx, qint, zpow)
    return alg


def _usl2_simple_acts(alg, p, lam, qint, zpow):
    """Action matrices (sparse columns, see linalg) of the simple of highest
    weight lam on all monomials: each monomial sends m_col to a multiple of
    one m_i."""
    ring = alg.ring
    dim = lam + 1

    def gen_f(i):  # F m_i = (zeta - zeta^-1)[i+1] m_(i+1)
        return (zpow(1) - zpow(-1)) * qint(i + 1)

    def gen_e(i):  # E m_i = [lam - i + 1] m_(i-1)
        return qint(lam - i + 1)

    acts = []
    for t in range(alg.rank):
        a, b, c = [m for m, j in alg.monomial_index.items() if j == t][0]
        cols = []
        for col in range(dim):
            # apply E^c, then K^b, then F^a to m_col
            i = col
            coef = ring.one()
            ok = True
            for _ in range(c):
                if i - 1 < 0:
                    ok = False
                    break
                coef = coef * gen_e(i)
                i -= 1
            if ok and coef:
                coef = coef * zpow(b * (lam - 2 * i))
                for _ in range(a):
                    if i + 1 >= dim:
                        ok = False
                        break
                    coef = coef * gen_f(i)
                    i += 1
            cols.append(((i, coef),) if ok and coef else ())
        acts.append(cols)
    return acts


def _usl2_blocks(alg, p, idx, qint, zpow):
    """Search for block idempotents over O through central characters.

    Returns {"blocked": bool, "blocks": [...], "regular": [...]} where each
    block lists its highest weights; degrades gracefully when the central
    idempotents do not lie in the integral form.
    """
    ring = alg.ring
    ak = alg.base_change("K")
    fld = ak.fld
    center = radicals.center_rows(ak)
    chars = {}
    for lam in range(p):
        chi = radicals.central_character(
            center, _usl2_simple_acts(alg, p, lam, qint, zpow))
        if chi is None:
            return {"blocked": False,
                    "reason": f"center acts non-scalar on L({lam})"}
        chars[lam] = tuple(sorted(chi.items()))
    groups = {}
    for lam, v in chars.items():
        groups.setdefault(v, []).append(lam)
    blocks = sorted(groups.values())
    if len({v for v in chars.values()}) != len(blocks):
        return {"blocked": False, "reason": "character collision"}
    # solve for the block idempotents inside the center (the character system
    # is underdetermined when the center has nilpotents; any solution has the
    # right characters and the idempotent iteration lands on the true block
    # idempotent, the unique one congruent to it modulo nilpotents)
    mat = [dict(chars[b[0]]) for b in blocks]
    out_blocks = []
    all_integral = True
    for t, b in enumerate(blocks):
        coef = linalg.solve_right(mat, {t: fld.one}, fld, len(center))
        if coef is None:
            return {"blocked": False, "reason": "character system unsolvable"}
        e = radicals._newton_idempotent(ak, linalg.combine(coef, center))
        integral = all(map(ring.in_O, e.values()))
        all_integral = all_integral and integral
        out_blocks.append({
            "weights": b,
            "regular": all((lam + 1) % p != 0 for lam in b),
            "idempotent_integral": integral,
            "idempotent": e,  # K-level when not integral
        })
    out = {"blocked": all_integral, "blocks": out_blocks}
    if not all_integral:
        out["reason"] = "central idempotents exist over K but escape the " \
                        "integral monomial-basis order"
    return out
