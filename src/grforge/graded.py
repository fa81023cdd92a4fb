"""The forced grading: radical-power lattices, gr of algebras and modules.

For an integral algebra A (level O), the n-th radical-power lattice is
A ∩ rad^n(A_K), computed as the saturation of the subspace rad^n(A_K) inside
the standard lattice.  gr A lives on a filtration-adapted basis: free lifts
of each consecutive quotient, grade by grade; products of lifts are expanded
in the full adapted basis and truncated to their leading grade.  The same
construction applies verbatim to field-level algebras (subspaces instead of
lattices) and to modules.
"""

from __future__ import annotations

from . import linalg, radicals
from .algebra import AlgebraError, StructureAlgebra, WeightDatum
from .lattices import Lattice, quotient_free_basis, saturate_rows
from .modules import ModuleRep


class GradingError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# radical chains
# ---------------------------------------------------------------------------

def algebra_rad_chain(alg: StructureAlgebra):
    """[r~ad^0 A, r~ad^1 A, ..., 0] as Lattices (level O), built once per
    algebra."""
    if alg.level != "O":
        raise GradingError("integral radical chain needs a level-O algebra")
    return alg._derived(_algebra_radical_chain)


def _algebra_radical_chain(alg):
    ring = alg.ring
    n = alg.rank
    ak = alg.base_change("K")
    rad = radicals.radical_field(ak)
    chain = [Lattice.full(ring, n)]
    cur = [list(r) for r in rad]
    while cur:
        chain.append(saturate_rows(ring, n, cur))
        nxt = []
        for v in cur:
            for w in rad:
                nxt.append(ak.mul(v, list(w)))
        cur, _ = linalg.rref(nxt, ak.fld)
    chain.append(Lattice.zero(ring, n))
    return chain


def radical_power_lattice(alg: StructureAlgebra, n: int) -> Lattice:
    """The pure ideal A ∩ rad^n(A_K); A itself for n = 0, eventually 0."""
    chain = algebra_rad_chain(alg)
    return chain[min(n, len(chain) - 1)]


def module_rad_chain(mod: ModuleRep):
    """[r~ad^0 M, r~ad^1 M, ..., 0] for a level-O module (Lattices)."""
    if mod.level != "O":
        raise GradingError("integral module chain needs a level-O module")
    ring = mod.algebra.ring
    modK = mod.base_change("K")
    rad = radicals.radical_field(modK.algebra)
    chain = [Lattice.full(ring, mod.rank)]
    cur = [modK.basis_vec(i) for i in range(mod.rank)]
    while True:
        nxt = []
        for r in rad:
            for v in cur:
                nxt.append(modK.act(list(r), list(v)))
        cur, _ = linalg.rref(nxt, modK.fld)
        if not cur:
            break
        chain.append(saturate_rows(ring, mod.rank, cur))
    chain.append(Lattice.zero(ring, mod.rank))
    return chain


def field_rad_chain_rows(alg_field, mod: ModuleRep | None = None):
    """Radical series as row bases at field level (algebra or module)."""
    rad = radicals.radical_field(alg_field)
    fld = alg_field.fld
    if mod is None:
        chain = [[alg_field.basis_vec(i) for i in range(alg_field.rank)]]
        cur = [list(r) for r in rad]
        while cur:
            chain.append(cur)
            nxt = []
            for v in cur:
                for w in rad:
                    nxt.append(alg_field.mul(list(v), list(w)))
            cur, _ = linalg.rref(nxt, fld)
        chain.append([])
        return chain
    chain = [[mod.basis_vec(i) for i in range(mod.rank)]]
    cur = chain[0]
    while True:
        nxt = []
        for r in rad:
            for v in cur:
                nxt.append(mod.act(list(r), list(v)))
        cur, _ = linalg.rref(nxt, fld)
        if not cur:
            break
        chain.append(cur)
    chain.append([])
    return chain


# ---------------------------------------------------------------------------
# adapted bases
# ---------------------------------------------------------------------------

def _adapted_lifts_O(ring, chain):
    """Free lifts per grade: chain[m] = (lifts of grade m) + chain[m+1]."""
    lifts = []
    grades = []
    for m in range(len(chain) - 1):
        free, torsion = quotient_free_basis(chain[m], chain[m + 1])
        if torsion:
            raise GradingError("radical filtration steps must be pure")
        for r in free:
            lifts.append(list(r))
            grades.append(m)
    return lifts, grades


def _adapted_lifts_field(fld, chain):
    lifts = []
    grades = []
    for m in range(len(chain) - 1):
        cur_ech, cur_piv = linalg.rref([list(r) for r in chain[m + 1]], fld)
        for row in chain[m]:
            rem = linalg.in_row_space(list(row), cur_ech, cur_piv)
            if any(rem):
                lifts.append(rem)
                grades.append(m)
                cur_ech, cur_piv = linalg.rref(cur_ech + [rem], fld)
    return lifts, grades


class GradedAlgebra:
    """gr A on a filtration-adapted basis, with provenance.

    `algebra` is a plain StructureAlgebra at the same level; `grades[i]` is
    the grade of its i-th basis element, `lifts[i]` the chosen lift in the
    coordinates of the base algebra.  `full_coords` expands base elements in
    the adapted basis (grades of nonzero entries bound the filtration depth).
    """

    def __init__(self, base, algebra, grades, lifts, chain, inv0):
        self.base = base
        self.algebra = algebra
        self.grades = tuple(grades)
        self.lifts = lifts
        self.chain = chain
        self._inv0 = inv0

    @property
    def top_grade(self):
        return max(self.grades) if self.grades else 0

    def grade_rank(self, m):
        return sum(1 for g in self.grades if g == m)

    def grade_ranks(self):
        return tuple(self.grade_rank(m) for m in range(self.top_grade + 1))

    def full_coords(self, x):
        return linalg.mat_vec(self._inv0, list(x), self.base.fld)

    def depth(self, x):
        """Filtration depth of a nonzero base element (max m with x in chain m)."""
        c = self.full_coords(x)
        ds = [self.grades[i] for i, v in enumerate(c) if v]
        if not ds:
            return None
        return min(ds)

    def symbol(self, x):
        """Symbol vector of x in gr coordinates (leading-grade component)."""
        c = self.full_coords(x)
        d = self.depth(x)
        if d is None:
            return [self.algebra.fld.zero] * self.algebra.rank
        return [v if self.grades[i] == d else self.algebra.fld.zero
                for i, v in enumerate(c)]

    def component(self, x, m):
        """Grade-m component of the full adapted expansion of x."""
        c = self.full_coords(x)
        return [v if self.grades[i] == m else self.algebra.fld.zero
                for i, v in enumerate(c)]


def gr_algebra(alg: StructureAlgebra) -> GradedAlgebra:
    """The forced graded algebra of an integral or field-level algebra."""
    fld = alg.fld
    if alg.level == "O":
        chain = algebra_rad_chain(alg)
        lifts, grades = _adapted_lifts_O(alg.ring, chain)
    else:
        chain = field_rad_chain_rows(alg)
        lifts, grades = _adapted_lifts_field(fld, chain)
    n = alg.rank
    if len(lifts) != n:
        raise GradingError("adapted basis has wrong size")
    inv0 = linalg.invert(linalg.transpose([list(r) for r in lifts]), fld)
    if inv0 is None:
        raise GradingError("adapted basis is not a basis")

    def full_coords(x):
        return linalg.mat_vec(inv0, list(x), fld)

    sc = {}
    for i in range(n):
        for j in range(n):
            z = alg.mul(lifts[i], lifts[j])
            if not any(z):
                continue
            c = full_coords(z)
            target = grades[i] + grades[j]
            row = {}
            for t, v in enumerate(c):
                if v:
                    if grades[t] < target:
                        raise GradingError(
                            "product fell below its expected grade (filtration bug)")
                    if grades[t] == target:
                        row[t] = v
            if row:
                sc[(i, j)] = row
    unit_c = full_coords(list(alg.unit))
    unit = tuple(v if grades[i] == 0 else fld.zero for i, v in enumerate(unit_c))
    weights = None
    if alg.weights is not None:
        w = alg.weights
        idems = {}
        for lbl, e in w.idempotents.items():
            c = full_coords(list(e))
            idems[lbl] = tuple(v if grades[i] == 0 else fld.zero
                               for i, v in enumerate(c))
        weights = WeightDatum(w.X, w.Lambda, w.less, idems)
    galg = StructureAlgebra(alg.ring, alg.level, n,
                            [f"g{grades[i]}_{i}" for i in range(n)],
                            unit, sc, weights)
    return GradedAlgebra(alg, galg, grades, lifts, chain, inv0)


class GradedModule:
    """gr M over gr A, on a filtration-adapted module basis."""

    def __init__(self, gralg, base_module, module, grades, lifts, chain, inv0):
        self.gralg = gralg
        self.base_module = base_module
        self.module = module  # ModuleRep over gralg.algebra
        self.grades = tuple(grades)
        self.lifts = lifts
        self.chain = chain
        self._inv0 = inv0

    @property
    def top_grade(self):
        return max(self.grades) if self.grades else 0

    def grade_rank(self, m):
        return sum(1 for g in self.grades if g == m)

    def grade_ranks(self):
        return tuple(self.grade_rank(m) for m in range(self.top_grade + 1))

    def full_coords(self, x):
        return linalg.mat_vec(self._inv0, list(x), self.base_module.fld)

    def depth(self, x):
        c = self.full_coords(x)
        ds = [self.grades[i] for i, v in enumerate(c) if v]
        return min(ds) if ds else None

    def symbol(self, x):
        c = self.full_coords(x)
        d = self.depth(x)
        fld = self.module.fld
        if d is None:
            return [fld.zero] * self.module.rank
        return [v if self.grades[i] == d else fld.zero for i, v in enumerate(c)]


def gr_module(gralg: GradedAlgebra, mod: ModuleRep) -> GradedModule:
    """gr of a module over the (already graded) algebra."""
    alg = gralg.base
    fld = mod.fld
    if mod.level == "O":
        chain = module_rad_chain(mod)
        lifts, grades = _adapted_lifts_O(alg.ring, chain)
    else:
        chain = field_rad_chain_rows(alg, mod)
        lifts, grades = _adapted_lifts_field(fld, chain)
    m = mod.rank
    if len(lifts) != m:
        raise GradingError("adapted module basis has wrong size")
    if m:
        inv0 = linalg.invert(linalg.transpose([list(r) for r in lifts]), fld)
        if inv0 is None:
            raise GradingError("adapted module basis is not a basis")
    else:
        inv0 = []

    def full_coords(x):
        return linalg.mat_vec(inv0, list(x), fld) if m else []

    acts = []
    for gi in range(gralg.algebra.rank):
        g = gralg.grades[gi]
        u = gralg.lifts[gi]
        cols = []
        for s in range(m):
            z = mod.act(list(u), lifts[s])
            c = full_coords(z)
            target = g + grades[s]
            col = [fld.zero] * m
            for t, v in enumerate(c):
                if v:
                    if grades[t] < target:
                        raise GradingError(
                            "module action fell below its grade (filtration bug)")
                    if grades[t] == target:
                        col[t] = v
            cols.append(col)
        acts.append(linalg.transpose(cols))
    gmod = ModuleRep(gralg.algebra, m, acts, f"gr({mod.name})")
    return GradedModule(gralg, mod, gmod, grades, lifts, chain, inv0)
