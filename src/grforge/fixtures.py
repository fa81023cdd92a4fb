"""Desk-scale fixture algebras.

* z5  : the rank-5 zigzag algebra of the quiver 1 <-> 2 with the loop at
        vertex 2 killed (alpha: 1->2, beta: 2->1, alpha beta = 0,
        gamma := beta alpha a loop at vertex 1).  A split integral QHA with
        weights {1 < 2}.
* z5s : the same K-algebra with the arrow beta rescaled by pi, a different
        O-order that fails quasi-heredity (pi-torsion above gamma).
* qschur : the integral q-Schur algebra S(2, d) over Z_(p)[zeta], built from
        divided-power generators acting on tensor space.
* usl2   : a rank p^3 integral small-quantum-sl2 algebra on the monomial
        basis F^a K^b E^c.
* inflate / perturb : Morita inflation and pi-rescaling mutations.
"""

from __future__ import annotations

import itertools
import random
from functools import partial

from . import linalg, radicals
from .algebra import AlgebraError, StructureAlgebra, WeightDatum
from .lattices import stable_span
from .scalars import CYCLOTOMIC, RATIONAL, Cyc, InternalCheckError, RingSpec

# basis order for the zigzag fixtures
_Z5_LABELS = ("e1", "e2", "alpha", "beta", "gamma")
E1, E2, AL, BE, GA = range(5)


def build_z5(p: int = 3, beta_scale=1) -> StructureAlgebra:
    """The zigzag fixture over Z_(p); beta_scale = pi gives the z5s mutation."""
    ring = RingSpec(RATIONAL, p)
    s = ring.of(beta_scale)
    one = ring.one()
    zero = ring.zero()

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
    unit = (one, one, zero, zero, zero)
    weights = WeightDatum.build(
        X=("1", "2"),
        Lambda=("1", "2"),
        relations=[("1", "2")],
        idempotents={
            "1": (one, 0, 0, 0, 0),
            "2": (0, one, 0, 0, 0),
        },
    )
    alg = StructureAlgebra(ring, "O", 5, _Z5_LABELS, unit, sc, weights,
                           generators={"e1": (one, 0, 0, 0, 0),
                                       "e2": (0, one, 0, 0, 0),
                                       "alpha": (0, 0, one, 0, 0),
                                       "beta": (0, 0, 0, one, 0)})
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
    mult = {nu: int(multiplicities.get(nu, 1)) for nu in w.X}
    if any(m < 1 for m in mult.values()):
        raise AlgebraError("multiplicities must be >= 1")
    fld = alg.fld
    # split each basis vector into e_a A e_b pieces; require the basis to be
    # weight-homogeneous (true for our fixtures)
    side = {}
    for i in range(alg.rank):
        bi = alg.basis_vec(i)
        homes = []
        for a in w.X:
            ea = list(w.idempotents[a])
            for b in w.X:
                eb = list(w.idempotents[b])
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
    unit = [fld.zero] * len(new_basis)
    uvec = list(alg.unit)
    for (i, r, c) in new_basis:
        if r == c and uvec[i]:
            a, b = side[i]
            if a == b:
                unit[index[(i, r, c)]] = uvec[i]
    idems = {}
    for nu in w.X:
        base = list(w.idempotents[nu])
        for copy in range(mult[nu]):
            v = [fld.zero] * len(new_basis)
            for i in range(alg.rank):
                if base[i] and side[i] == (nu, nu):
                    v[index[(i, copy, copy)]] = base[i]
            idems[f"{nu}#{copy}"] = tuple(v)
    # copies become separate weight labels; Lambda keeps one copy per weight,
    # so the inflated algebra is Lambda-uniform and Morita-reduces back
    new_x = tuple(f"{nu}#{c}" for nu in w.X for c in range(mult[nu]))
    new_lambda = tuple(f"{nu}#0" for nu in w.Lambda)
    new_less = frozenset((f"{a}#0", f"{b}#0") for (a, b) in w.less)
    weights = WeightDatum(new_x, new_lambda, new_less, idems)
    labels = [f"{alg.labels[i]}[{r},{c}]" for (i, r, c) in new_basis]
    out = StructureAlgebra(alg.ring, alg.level, len(new_basis), labels,
                           tuple(unit), sc, weights)
    out.copy_idempotents = idems
    return out


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
            frozen.update(i for i, x in enumerate(v) if x)
    frozen.update(i for i, x in enumerate(alg.unit) if x)
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
# Laurent polynomials over Z (generic quantum parameter)
# ---------------------------------------------------------------------------

def _lp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
        if not out[e]:
            del out[e]
    return out


def _lp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _lp_div(a, b):
    """Exact division of Laurent polynomials over Z; None if inexact."""
    if not a:
        return {}
    if not b:
        raise ZeroDivisionError
    rem = dict(a)
    out = {}
    bexps = sorted(b)
    blead = bexps[-1]
    bc = b[blead]
    guard = 0
    while rem:
        guard += 1
        if guard > 10000:
            return None
        rexps = sorted(rem)
        rlead = rexps[-1]
        q, r = divmod(rem[rlead], bc)
        if r:
            return None
        e = rlead - blead
        out[e] = out.get(e, 0) + q
        for be, bcoef in b.items():
            key = be + e
            rem[key] = rem.get(key, 0) - q * bcoef
            if not rem[key]:
                del rem[key]
    return out


def _quantum_int(n):
    """[n] = v^(n-1) + v^(n-3) + ... + v^(1-n) as a Laurent polynomial."""
    if n == 0:
        return {}
    s = 1 if n > 0 else -1
    n = abs(n)
    out = {}
    for k in range(n):
        out[n - 1 - 2 * k] = s
    return out


def _quantum_factorial(n):
    out = {0: 1}
    for j in range(1, n + 1):
        out = _lp_mul(out, _quantum_int(j))
    return out


def _lp_eval_zeta(a, p):
    """Specialize v -> zeta (a primitive p-th root of unity)."""
    out = Cyc.of(p, 0)
    for e, c in a.items():
        out = out + Cyc.zeta_pow(p, e % p) * c
    return out


# ---------------------------------------------------------------------------
# the integral q-Schur algebra S(2, d)
# ---------------------------------------------------------------------------

def _tensor_ops_generic(d):
    """Sparse generic operators on V^(x)d over Z[v, v^-1].

    Words are tuples in {0, 1}^d (0 = highest weight vector, weight +1).
    Returns (E, F, K, Kinv) as dicts word -> dict word -> Laurent.
    """
    words = list(itertools.product((0, 1), repeat=d))
    wt = {w: sum(1 if x == 0 else -1 for x in w) for w in words}
    E = {}
    F = {}
    K = {}
    Kinv = {}
    for w in words:
        K.setdefault(w, {})[w] = {wt[w]: 1}
        Kinv.setdefault(w, {})[w] = {-wt[w]: 1}
        for j in range(d):
            if w[j] == 1:
                # E acts in slot j, K on earlier slots
                tw = w[:j] + (0,) + w[j + 1:]
                exp = sum(1 if w[i] == 0 else -1 for i in range(j))
                col = E.setdefault(w, {})
                col[tw] = _lp_add(col.get(tw, {}), {exp: 1})
            else:
                # F acts in slot j, K^-1 on later slots
                tw = w[:j] + (1,) + w[j + 1:]
                exp = -sum(1 if w[i] == 0 else -1 for i in range(j + 1, d))
                col = F.setdefault(w, {})
                col[tw] = _lp_add(col.get(tw, {}), {exp: 1})
    return words, wt, E, F, K, Kinv


def _op_mul(a, b):
    """Compose sparse operators (column convention: op[src][dst])."""
    out = {}
    for src, mids in b.items():
        acc = {}
        for mid, c1 in mids.items():
            arow = a.get(mid)
            if not arow:
                continue
            for dst, c2 in arow.items():
                acc[dst] = _lp_add(acc.get(dst, {}), _lp_mul(c1, c2))
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out[src] = acc
    return out


def _op_divided_power(op, i):
    """op^i / [i]! with exact Laurent division of every entry."""
    power = None
    for _ in range(i):
        power = op if power is None else _op_mul(op, power)
    fact = _quantum_factorial(i)
    out = {}
    for src, col in power.items():
        ncol = {}
        for dst, val in col.items():
            q = _lp_div(val, fact)
            if q is None:
                raise InternalCheckError("divided power is not integral")
            if q:
                ncol[dst] = q
        if ncol:
            out[src] = ncol
    return out


def _cartan_binomial_diag(words, wt, t):
    """Diagonal operator [K; 0; t]: entries prod_{s=1..t} [m - s + 1]/[s]."""
    out = {}
    for w in words:
        m = wt[w]
        num = {0: 1}
        for s in range(1, t + 1):
            num = _lp_mul(num, _quantum_int(m - s + 1))
        den = _quantum_factorial(t)
        q = _lp_div(num, den)
        if q is None:
            raise InternalCheckError("Cartan binomial is not integral")
        if q:
            out[w] = {w: q}
    return out


def build_qschur(d: int, p: int):
    """The integral q-Schur algebra S(2, d) over Z_(p)[zeta].

    Built as the O-span closure of the divided-power generators acting on the
    d-th tensor power of the rank-2 free module; weight idempotents are the
    content projectors, Lambda the partitions with dominance order.
    """
    if not (1 <= d <= 6):
        raise AlgebraError("supported range: 1 <= d <= 6")
    ring = RingSpec(CYCLOTOMIC, p)
    words, wt, E, F, K, Kinv = _tensor_ops_generic(d)
    widx = {w: i for i, w in enumerate(words)}
    nwords = len(words)

    def specialize(op):
        out = {}
        for src, col in op.items():
            for dst, val in col.items():
                c = _lp_eval_zeta(val, p)
                if c:
                    out[(widx[dst], widx[src])] = c
        return out

    gens = {}
    for i in range(1, d + 1):
        gens[f"E({i})"] = specialize(_op_divided_power(E, i))
        gens[f"F({i})"] = specialize(_op_divided_power(F, i))
    gens["K"] = specialize(K)
    gens["K^-1"] = specialize(Kinv)
    for t in range(1, d + 1):
        gens[f"[K;0;{t}]"] = specialize(_cartan_binomial_diag(words, wt, t))

    def flat(sparse):
        v = [ring.zero()] * (nwords * nwords)
        for (r, c), x in sparse.items():
            v[r * nwords + c] = x
        return v

    def sparse_times_flat(sparse, fv):
        out = [ring.zero()] * (nwords * nwords)
        # (A B)[r][c] = sum_m A[r][m] B[m][c]
        for (r, m), a in sparse.items():
            base = m * nwords
            orow = r * nwords
            for c in range(nwords):
                b = fv[base + c]
                if b:
                    out[orow + c] = out[orow + c] + a * b
        return out

    ident = {(i, i): ring.one() for i in range(nwords)}
    lat = stable_span([flat(ident)],
                      [partial(sparse_times_flat, g) for g in gens.values()],
                      nwords * nwords, ring.field_K, ring)
    rank = lat.rank
    expected = _binom(3 + d, 3)
    if rank != expected:
        raise AlgebraError(
            f"q-Schur closure has rank {rank}, expected {expected}")
    basis = [list(r) for r in lat.rows]

    def to_matrix(fv):
        return {(r, c): fv[r * nwords + c]
                for r in range(nwords) for c in range(nwords)
                if fv[r * nwords + c]}

    mats = [to_matrix(b) for b in basis]
    sc = {}
    for i in range(rank):
        for j in range(rank):
            prod = sparse_times_flat(mats[i], basis[j])
            coords = lat.coords(prod)
            if coords is None:
                raise InternalCheckError("algebra not closed")
            row = {t: v for t, v in enumerate(coords) if v}
            if row:
                sc[(i, j)] = row
    unit = lat.coords(flat(ident))
    # weight idempotents: content projectors
    contents = {}
    for w in words:
        mu = (sum(1 for x in w if x == 0), sum(1 for x in w if x == 1))
        contents.setdefault(mu, []).append(w)
    idems = {}
    for mu, ws in sorted(contents.items(), reverse=True):
        proj = {(widx[w], widx[w]): ring.one() for w in ws}
        c = lat.coords(flat(proj))
        if c is None:
            raise AlgebraError(
                f"weight projector {mu} is not in the integral closure")
        idems[f"{mu[0]},{mu[1]}"] = tuple(c)
    x_labels = [f"{mu[0]},{mu[1]}" for mu in sorted(contents, reverse=True)]
    partitions = [mu for mu in sorted(contents, reverse=True) if mu[0] >= mu[1]]
    lam_labels = [f"{mu[0]},{mu[1]}" for mu in partitions]
    relations = []
    for a in partitions:
        for b in partitions:
            if a[0] < b[0]:  # dominance on two-row partitions
                relations.append((f"{a[0]},{a[1]}", f"{b[0]},{b[1]}"))
    weights = WeightDatum.build(x_labels, lam_labels, relations, idems)
    gen_coords = {}
    for name, g in gens.items():
        c = lat.coords(flat(g))
        if c is None:
            raise InternalCheckError(f"generator {name} is not in the algebra")
        gen_coords[name] = tuple(c)
    alg = StructureAlgebra(ring, "O", rank, [f"x{i}" for i in range(rank)],
                           tuple(unit), sc, weights, generators=gen_coords)
    alg.p_regular = {f"{mu[0]},{mu[1]}": (mu[0] - mu[1] + 1) % p != 0
                     for mu in partitions}
    return alg


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


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
    unit = [ring.zero()] * rank
    unit[idx[(0, 0, 0)]] = ring.one()
    gens = {
        "F": tuple(ring.one() if t == idx[(1, 0, 0)] else ring.zero()
                   for t in range(rank)),
        "K": tuple(ring.one() if t == idx[(0, 1, 0)] else ring.zero()
                   for t in range(rank)),
        "E": tuple(ring.one() if t == idx[(0, 0, 1)] else ring.zero()
                   for t in range(rank)),
    }
    alg = StructureAlgebra(ring, "O", rank,
                           [f"F{a}K{b}E{c}" for (a, b, c) in monos],
                           tuple(unit), sc, None, generators=gens)
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
            center, _usl2_simple_acts(alg, p, lam, qint, zpow), fld)
        if chi is None:
            return {"blocked": False,
                    "reason": f"center acts non-scalar on L({lam})"}
        chars[lam] = tuple(chi)
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
    mat = [list(chars[b[0]]) for b in blocks]
    out_blocks = []
    all_integral = True
    for t, b in enumerate(blocks):
        target = [fld.one if s == t else fld.zero for s in range(len(blocks))]
        coef = linalg.solve_right(mat, target, fld)
        if coef is None:
            return {"blocked": False, "reason": "character system unsolvable"}
        e = radicals._newton_idempotent(
            ak, linalg.combine(coef, center, fld.zero))
        integral = all(ring.valuation(x) >= 0 for x in e if x)
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
