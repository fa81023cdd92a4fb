"""Module lattices and field-level modules over a structure-constant algebra.

A ModuleRep of rank m stores the action of each algebra basis element b_i by
sparse columns (see linalg): acts[i][k] holds the (row, entry) pairs of
b_i . e_k, so the matrices act on column coordinates.  Module elements are
the {index: entry} dicts of their coordinates in O^m (level O) or F^m
(levels K, k).  Submodules are spans
in the module's own coordinates (see `StructureAlgebra.span`): Lattices in
O^m at level O (the module lattice itself is O^m), linalg.Subspaces of F^m at
field level.
"""

from __future__ import annotations

from functools import partial

from . import linalg, radicals
from .algebra import AlgebraError, StructureAlgebra
from .lattices import Lattice, is_pure, pure_closure, residue_echelon
from .scalars import InternalCheckError


class ModuleError(AlgebraError):
    pass


class ModuleRep:
    def __init__(self, algebra: StructureAlgebra, rank: int, acts, name=""):
        self.algebra = algebra
        self.rank = rank
        self.acts = acts  # per algebra basis element, its action's sparse columns
        self.name = name

    @property
    def level(self):
        return self.algebra.level

    @property
    def fld(self):
        return self.algebra.fld

    def __repr__(self):
        return f"ModuleRep({self.name or 'module'}, rank {self.rank})"

    # -- actions ----------------------------------------------------------------
    def act_basis(self, i, v):
        """b_i v as an {index: entry} dict (see linalg.apply)."""
        return linalg.apply(self.acts[i], v)

    def act_matrix(self, x):
        """Sparse columns of the action of the element x."""
        return linalg.combine_columns(x, self.acts)

    def basis_vec(self, i):
        return {i: self.fld.one}

    def full_lattice(self):
        return Lattice.full(self.algebra.ring, self.rank)

    def span(self, rows):
        """The span of `rows` in the module's coordinates (see
        `StructureAlgebra.span`)."""
        return self.algebra.span(rows, self.rank)

    def image(self, xs, vectors=None):
        """The span (see `span`) of x v over x in xs and v in `vectors`; by
        default v runs over the basis, which gives the span of the x M."""
        mats = [self.act_matrix(x) for x in xs]
        if vectors is None:
            # x e_k is column k of x's matrix
            return self.span([dict(col) for m in mats for col in m])
        return self.span([linalg.apply(m, v) for m in mats for v in vectors])

    # -- validation ----------------------------------------------------------------
    def validate(self):
        """Check the shapes, the unit, integrality at level O and then the
        module axiom through `StructureAlgebra.representation_problems`;
        raises ModuleError at the first failure."""
        alg = self.algebra
        n = self.rank
        if len(self.acts) != alg.rank:
            raise ModuleError("need one action matrix per algebra basis element")
        if any(len(m) != n or any(not 0 <= t < n for col in m for t, _ in col)
               for m in self.acts):
            raise ModuleError(f"action matrices must be {n} x {n}")
        one = self.fld.one
        if self.act_matrix(alg.unit) != [((k, one),) for k in range(n)]:
            raise ModuleError("unit does not act as identity")
        values = (x for m in self.acts for col in m for _, x in col)
        if alg.level == "O" and not all(map(alg.ring.in_O, values)):
            raise ModuleError("action entry outside O")
        problems = alg.representation_problems(self.acts, "the module axiom")
        if problems:
            raise ModuleError("; ".join(problems))
        return True

    # -- base change ----------------------------------------------------------------
    def base_change(self, level: str) -> "ModuleRep":
        if self.level != "O":
            raise ModuleError("base change starts from the integral level")
        balg = self.algebra.base_change(level)
        if level == "K":
            return ModuleRep(balg, self.rank, self.acts, self.name + "_K")
        red = self.algebra.ring.residue
        acts = [[tuple((t, y) for t, y in ((t, red(x)) for t, x in col) if y)
                 for col in m] for m in self.acts]
        return ModuleRep(balg, self.rank, acts, self.name + "_k")

    def field_module(self) -> "ModuleRep":
        """The module over `algebra.field_algebra()` behind this one: M_K at
        level O, the module itself at K and k."""
        return self.base_change("K") if self.level == "O" else self

    # -- weight spaces ----------------------------------------------------------------
    def weight_space_rows(self, nu):
        """Basis rows of e_nu M (a pure sublattice at level O)."""
        w = self.algebra.weights
        if w is None:
            raise ModuleError("no weight datum")
        return list(self.image([w.idempotents[nu]]).rows)

    # -- submodules -------------------------------------------------------------------
    def submodule_generated(self, vectors):
        """Smallest action-stable span (see `span`) containing the vectors."""
        return self.algebra.stable_span(
            vectors, [partial(self.act_basis, i) for i in range(self.algebra.rank)],
            self.rank)

    def restrict_to(self, sub) -> "ModuleRep":
        """Module structure on an action-stable span, or on the span of rows,
        in the span's canonical basis."""
        span = self.span(sub)
        if not span.rank:
            return ModuleRep(self.algebra, 0,
                             [[] for _ in range(self.algebra.rank)], self.name + "|0")
        basis = [linalg.column(r) for r in span.rows]
        acts = []
        for cols in self.acts:
            images = []
            for img in linalg.compose(cols, basis):
                c = span.coords(dict(img))
                if c is None:
                    raise ModuleError("span is not action-stable")
                images.append(linalg.column(c))
            acts.append(images)
        return ModuleRep(self.algebra, span.rank, acts, self.name + "|sub")

    def quotient_by(self, sub):
        """Quotient module by an action-stable span, or by the span of rows;
        at level O the span must be pure (O-free quotient).

        Returns (module, project, lift_rows).
        """
        lifts, torsion, project = self.span(sub).quotient()
        if torsion:
            raise ModuleError("quotient has torsion; sublattice not pure")
        basis = [linalg.column(lift) for lift in lifts]
        acts = [[linalg.column(project(dict(img)))
                 for img in linalg.compose(cols, basis)]
                for cols in self.acts]
        out = ModuleRep(self.algebra, len(lifts), acts, self.name + "/sub")
        return out, project, lifts


# ---------------------------------------------------------------------------
# regular module, PIMs, standard modules
# ---------------------------------------------------------------------------

def regular_module(alg: StructureAlgebra) -> ModuleRep:
    acts = [alg.left_mult_matrix(i) for i in range(alg.rank)]
    return ModuleRep(alg, alg.rank, acts, "regular")


def weight_projective(alg: StructureAlgebra, lam) -> ModuleRep:
    """The module A e_lam (a PIM when the datum is basic, else a multiple),
    built once per algebra and weight."""
    return ModuleRep(alg, *alg._derived(_weight_projective, lam))


def _weight_projective(alg, lam):
    w = alg.weights
    if w is None:
        raise ModuleError("no weight datum")
    # restrict_to raises if A e were not stable
    mod = regular_module(alg).restrict_to(
        alg.left_ideal([w.idempotents[lam]]))
    return mod.rank, mod.acts, f"P({lam})"


def truncate_to_ideal(mod: ModuleRep, gamma):
    """N_Gamma = N / sum of A e_nu N over nu in Lambda minus Gamma.

    Returns (quotient_module, torsion_vals, project, killed), killed the
    submodule the weight spaces outside Gamma generate.  At level O the
    quotient is taken by its pure closure and the elementary divisors of the
    discarded torsion are reported.
    """
    w = mod.algebra.weights
    if w is None:
        raise ModuleError("no weight datum")
    gamma = tuple(gamma)
    if not w.is_ideal(gamma):
        raise ModuleError(f"{gamma!r} is not a poset ideal of Lambda")
    kill = [nu for nu in w.Lambda if nu not in gamma]
    gens = []
    for nu in kill:
        gens.extend(mod.weight_space_rows(nu))
    killed = sub = mod.submodule_generated(gens)
    torsion = []
    if mod.level == "O":
        sub = pure_closure(killed, mod.full_lattice())
        _, torsion = sub.lifts_over(killed)
    quot, project, _ = mod.quotient_by(sub)
    quot.name = f"{mod.name}|{gamma}"
    return quot, torsion, project, killed


def standard_module(alg: StructureAlgebra, lam) -> ModuleRep:
    """Delta(lam): the weight projective truncated below lam, built once per
    algebra and weight."""
    return ModuleRep(alg, *alg._derived(_standard_module, lam))


def _standard_module(alg, lam):
    w = alg.weights
    pe = weight_projective(alg, lam)
    delta, torsion, _, _ = truncate_to_ideal(pe, w.ideal_below(lam))
    if torsion:
        raise ModuleError(f"standard module at {lam!r} is not O-free: {torsion}")
    return delta.rank, delta.acts, f"Delta({lam})"


def standard_and_projectives(alg: StructureAlgebra):
    """All A e_lam and Delta(lam): dict lam -> {"P": module, "Delta":
    module}.  At level O each Delta(lam) is checked to have the simple head
    L(lam) over k and to be generated by its lam-weight space."""
    w = alg.weights
    if w is None:
        raise ModuleError("no weight datum")
    out = {}
    for lam in w.Lambda:
        p = weight_projective(alg, lam)
        d = standard_module(alg, lam)
        out[lam] = {"P": p, "Delta": d}
    # head simplicity is judged over k for level-O algebras
    if alg.level == "O":
        algk = alg.base_change("k")
        simples = weight_simples(algk)
        radk = radicals.radical_field(algk)
        for lam in w.Lambda:
            dk = out[lam]["Delta"].base_change("k")
            hd = head_info(dk, radk, simples)
            if not (hd["is_simple"] and hd["label"] == lam):
                raise ModuleError(
                    f"standard module at {lam!r} has head {hd}, expected L({lam})")
            # Lemma 4.6 behavior: Delta is generated by its lam-weight space
            dd = out[lam]["Delta"]
            gen = dd.submodule_generated(dd.weight_space_rows(lam))
            if gen != dd.full_lattice():
                raise ModuleError(f"Delta({lam}) not generated by its weight space")
    return out


# ---------------------------------------------------------------------------
# field-level: simples, heads, composition multiplicities
# ---------------------------------------------------------------------------

def weight_simples(alg: StructureAlgebra):
    """Candidate simple modules L(lam) = head of Delta(lam) at field level.

    Returns list of (label, module) sorted by label; each head is verified to
    have one-dimensional endomorphism ring (absolute irreducibility).  Built
    once per algebra.
    """
    return [(lam, ModuleRep(alg, *parts))
            for lam, parts in alg._derived(_weight_simples)]


def _weight_simples(alg):
    if alg.level == "O":
        raise ModuleError("weight_simples expects a field-level algebra")
    w = alg.weights
    if w is None:
        raise ModuleError("no weight datum")
    rad = radicals.radical_field(alg)
    out = []
    for lam in w.Lambda:
        delta = standard_module(alg, lam)
        head, _, _ = head_module(delta, rad)
        if not _endo_dim_is_one(head):
            raise radicals.NonSplitError(
                f"head of Delta({lam!r}) is not absolutely irreducible")
        out.append((lam, (head.rank, head.acts, f"L({lam})")))
    return out


def head_module(mod: ModuleRep, rad_rows):
    """M / (rad A) M at field level: (module, project, (rad A) M)."""
    if mod.level == "O":
        raise ModuleError("head is a field-level notion here")
    sub = mod.image(rad_rows)
    quot, project, _ = mod.quotient_by(sub)
    quot.name = f"head({mod.name})"
    return quot, project, sub


def _endo_dim_is_one(mod: ModuleRep):
    if mod.rank == 0:
        return False
    return len(linalg.kernel_right(hom_equations(mod, mod), mod.fld,
                                   mod.rank ** 2)) == 1


def head_info(mod: ModuleRep, rad_rows, simples):
    """Head decomposition by weight labels.

    Returns {"is_simple": bool, "label": lam or None,
             "weight_dims": {nu: dim e_nu head}}.
    """
    head, _, _ = head_module(mod, rad_rows)
    w = mod.algebra.weights
    dims = {}
    if w is not None:
        for nu in w.X:
            dims[nu] = len(head.weight_space_rows(nu))
    if head.rank == 0:
        return {"is_simple": False, "label": None, "weight_dims": dims, "dim": 0}
    simple = _endo_dim_is_one(head)
    label = None
    if simple and w is not None:
        for lam, lmod in simples:
            if lmod.rank != head.rank:
                continue
            ldims = {nu: len(lmod.weight_space_rows(nu)) for nu in w.X}
            if ldims == dims:
                label = lam
                break
    return {"is_simple": simple, "label": label, "weight_dims": dims,
            "dim": head.rank}


# ---------------------------------------------------------------------------
# hom spaces and Delta-filtrations
# ---------------------------------------------------------------------------

def hom_equations(src: ModuleRep, dst: ModuleRep):
    """Linear equations h . a_src - a_dst . h = 0 for every algebra basis
    element, one {column: entry} row of nonzero entries per (basis element,
    r, c) whose equation is not 0 = 0.

    The unknown h is a dst.rank x src.rank matrix on column coordinates,
    flattened row-major: h[r][c] at index r * src.rank + c, so the rows have
    src.rank * dst.rank columns.  The kernel of the rows is Hom_A(src, dst).
    """
    ns = src.rank
    rows = []
    for a_s, a_d in zip(src.acts, dst.acts):
        for r, d_row in enumerate(linalg.row_entries(a_d, dst.rank)):
            for c, s_col in enumerate(a_s):
                # (h . a_s)[r][c] = sum_t h[r][t] a_s[t][c]
                row = {r * ns + t: x for t, x in s_col}
                # (a_d . h)[r][c] = sum_t a_d[r][t] h[t][c]
                for t, x in d_row:
                    k = t * ns + c
                    y = row.get(k)
                    if y is None:
                        row[k] = -x
                    elif y == x:  # the two terms cancel
                        del row[k]
                    else:
                        row[k] = y - x
                if row:
                    rows.append(row)
    return rows


def hom_with_generator_images(src: ModuleRep, dst: ModuleRep, gens, images):
    """The module homomorphism src -> dst sending each generator to its image.

    `gens` must generate src, so the hom (h, as a dst.rank x src.rank matrix
    on column coordinates, by its {column: entry} rows) is unique if it
    exists; returns None when no such homomorphism exists.  Equivariance and
    the generator images are re-checked exactly: a solution that fails is a
    fault of the solver, not a verdict, and raises InternalCheckError.
    """
    fld = src.fld
    ns, nd = src.rank, dst.rank
    rows = hom_equations(src, dst)
    rhs = {}
    for g, img in zip(gens, images):
        for r in range(nd):
            if r in img:
                rhs[len(rows)] = img[r]
            rows.append({r * ns + c: x for c, x in g.items()})
    sol = linalg.solve_right(rows, rhs, fld, ns * nd)
    if sol is None:
        return None
    h_cols = linalg.unflatten(sol, ns)
    for a_s, a_d in zip(src.acts, dst.acts):
        if linalg.compose(h_cols, a_s) != linalg.compose(a_d, h_cols):
            raise InternalCheckError("hom solve returned a non-equivariant map")
    if any(linalg.apply(h_cols, g) != img for g, img in zip(gens, images)):
        raise InternalCheckError("hom solve missed a generator image")
    return [dict(r) for r in linalg.row_entries(h_cols, nd)]


def iso_with_generator_images(src: ModuleRep, dst: ModuleRep, gens, images):
    """The hom h of `hom_with_generator_images` when it is an isomorphism
    (rank h = n, or at level O: h over O with residues of rank n), else None.

    `gens` must generate src, so that hom is the only candidate: None proves
    that no isomorphism sends the generators to these images.
    """
    if src.rank != dst.rank:
        return None
    if not src.rank:
        return []
    h = hom_with_generator_images(src, dst, gens, images)
    if h is None:
        return None
    n = src.rank
    if src.level != "O":
        return h if linalg.rank(h, src.fld, n) == n else None
    ring = src.algebra.ring
    if not all(ring.in_O(x) for row in h for x in row.values()):
        return None
    return h if len(residue_echelon(ring, h, n)[1]) == n else None


def standard_iso(mod: ModuleRep, lam):
    """An isomorphism Delta(lam) -> mod, or None when there is none.

    An isomorphism maps Delta(lam)_lam onto mod_lam, so when both have rank
    1 it maps the generator of Delta(lam) to the one basis row of mod_lam up
    to a unit; scaling by that unit gives the hom tried here.  None unless
    both weight spaces have rank 1.
    """
    delta = standard_module(mod.algebra, lam)
    top, img = delta.weight_space_rows(lam), mod.weight_space_rows(lam)
    if len(top) != 1 or len(img) != 1:
        return None
    return iso_with_generator_images(delta, mod, top, img)


def direct_sum_module(mod: ModuleRep, copies: int) -> ModuleRep:
    n = mod.rank
    acts = [[tuple((j * n + t, x) for t, x in col)
             for j in range(copies) for col in m]
            for m in mod.acts]
    return ModuleRep(mod.algebra, n * copies, acts, f"{mod.name}^{copies}")


class FiltrationStage:
    """One peeling step of a Delta-filtration."""

    def __init__(self, label, copies, witness, sub_rows_original):
        self.label = label
        self.copies = copies
        self.witness = witness  # {column: entry} rows: Delta^copies -> stage
        self.sub_rows_original = sub_rows_original  # chain lattice in original coords

    def __repr__(self):
        return f"Stage({self.label!r} x {self.copies})"


class FiltrationFailure(Exception):
    def __init__(self, label, reason, detail=None):
        self.label = label
        self.reason = reason
        self.detail = detail
        super().__init__(f"delta filtration fails at {label!r}: {reason}")


def peel_standard_power(cur: ModuleRep, lam, rows):
    """Embed Delta(lam)^d onto the submodule generated by the d lam-weight
    vectors `rows` (the one peeling step of the plain and graded
    Delta-filtrations).

    Returns (h, sub): the witness h, a cur.rank x (d * rank Delta(lam))
    matrix sending the generator of the j-th copy to rows[j] (checked), and
    the submodule sub = A . rows, its image.  Raises FiltrationFailure
    naming the first check that fails: Delta(lam)_lam has rank 1, a
    homomorphism extends the rows, (at O) it has no entry outside O, it is
    injective, (at O) sub is pure.
    """
    alg = cur.algebra
    delta = standard_module(alg, lam)
    top = delta.weight_space_rows(lam)
    if len(top) != 1:
        raise FiltrationFailure(lam, "standard module weight space not rank 1")
    d = len(rows)
    big = direct_sum_module(delta, d)
    gens = [{j * delta.rank + t: x for t, x in top[0].items()}
            for j in range(d)]
    h = hom_with_generator_images(big, cur, gens, rows)
    if h is None:
        raise FiltrationFailure(lam, "no homomorphism extends the weight basis")
    integral = cur.level == "O"
    if integral and not all(alg.ring.in_O(x) for row in h
                            for x in row.values()):
        raise FiltrationFailure(lam, "witness map does not preserve the lattice")
    sub = cur.submodule_generated(rows)
    if sub.rank != big.rank:
        raise FiltrationFailure(lam, "peeled map is not injective")
    if integral and not is_pure(sub, cur.full_lattice()):
        raise FiltrationFailure(lam, "peeled submodule is not pure")
    return h, sub


def delta_filtration(mod: ModuleRep):
    """Greedy bottom-up Delta-filtration with exact isomorphism witnesses.

    Peels A . (lam-weight space) for lam maximal (lexicographically least on
    ties) among weights with nonzero weight space (`peel_standard_power`),
    and recurses on the quotient.  Returns the list of FiltrationStage
    bottom-to-top; raises FiltrationFailure with a witness when the module
    has no such filtration.
    """
    w = mod.algebra.weights
    if w is None:
        raise ModuleError("no weight datum")
    stages = []
    cur = mod
    # lifts of current-quotient basis vectors, in original coordinates
    to_original = [mod.basis_vec(i) for i in range(mod.rank)]
    peeled_original = []  # accumulated generators of the peeled chain
    guard = 0
    while cur.rank and guard <= mod.rank + 1:
        guard += 1
        cand = [lam for lam in w.Lambda if len(cur.weight_space_rows(lam))]
        if not cand:
            raise FiltrationFailure(None, "nonzero module with no Lambda-weights")
        lam = sorted(w.maximal(cand), key=str)[0]
        wrows = cur.weight_space_rows(lam)
        h, sub = peel_standard_power(cur, lam, wrows)
        quot, project, lifts = cur.quotient_by(sub)
        # record the stage in original coordinates
        peeled_original.extend(linalg.combine(r, to_original)
                               for r in sub.rows)
        stages.append(FiltrationStage(lam, len(wrows), h, list(peeled_original)))
        to_original = [linalg.combine(lift, to_original) for lift in lifts]
        cur = quot
    if cur.rank:
        raise FiltrationFailure(None, "peeling did not terminate")
    return stages


def section_multiset(stages):
    out = {}
    for st in stages:
        out[st.label] = out.get(st.label, 0) + st.copies
    return out


# ---------------------------------------------------------------------------
# Lambda-standardness (weight-algebra axioms at both primes)
# ---------------------------------------------------------------------------

def is_lambda_standard(alg: StructureAlgebra):
    """Check the Lambda-standard weight-algebra axioms at both primes.

    For a level-O algebra the primes are (0) = K and (pi) = k; a field-level
    algebra is checked at its own prime.  Reports every failure with a
    witness; `ok` is True iff no failure was found.  Computed once per
    algebra.
    """
    return alg._derived(_is_lambda_standard)


def _is_lambda_standard(alg):
    w = alg.weights
    if w is None:
        raise ModuleError("missing weight datum")
    if alg.level == "O":
        prime_algs = [("0", alg.base_change("K")), ("m", alg.base_change("k"))]
    else:
        prime_algs = [("0" if alg.fld.char == 0 else "m", alg)]
    failures = []
    for prime, af in prime_algs:
        try:
            rad = radicals.radical_field(af)
            simples = weight_simples(af)
        except (radicals.NonSplitError, ModuleError) as exc:
            failures.append({"prime": prime, "kind": "simples", "witness": str(exc)})
            continue
        quot, lifts, _ = af.quotient_by_ideal(rad)
        n_irr = len(radicals.center_rows(quot))
        if n_irr != len(w.Lambda):
            failures.append({
                "prime": prime, "kind": "uniformity",
                "witness": f"{n_irr} simples for {len(w.Lambda)} weights"})
        seen = set()
        for lam, lmod in simples:
            dims = {mu: len(lmod.weight_space_rows(mu)) for mu in w.Lambda}
            key = tuple(sorted(dims.items(), key=lambda kv: str(kv[0])))
            if key in seen:
                failures.append({"prime": prime, "kind": "uniformity",
                                 "witness": f"duplicate simple at {lam!r}"})
            seen.add(key)
            if dims[lam] != 1:
                failures.append({
                    "prime": prime, "kind": "weight-dim",
                    "witness": f"dim L({lam})_{lam} = {dims[lam]} != 1"})
            if dims[lam] == 0:
                failures.append({
                    "prime": prime, "kind": "weight-algebra",
                    "witness": f"e[{lam!r}] kills L({lam})"})
            for mu in w.Lambda:
                if dims[mu] and not w.leq(mu, lam):
                    failures.append({
                        "prime": prime, "kind": "triangularity",
                        "witness": f"L({lam})_{mu} != 0 but {mu!r} is not <= {lam!r}"})
    return {"ok": not failures, "failures": failures}
