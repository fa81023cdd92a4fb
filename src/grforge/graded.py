"""The forced grading: radical-power filtrations, gr of algebras and modules.

The radical filtration is one object at every level.  Over a field it is the
chain rad^n A (radicals.radical_chain) or rad^n M, as linalg.Subspaces.  At
level O its n-th step is A ∩ rad^n(A_K) (or M ∩ rad^n(A_K) M_K): the
saturation of the field-level step, a pure lattice (`pure_span`).

gr lives on a filtration-adapted basis: lifts of each consecutive quotient
chain[m] / chain[m+1], grade by grade (`lifts_over`, the same call for
lattices and subspaces).  Products of lifts are expanded in the full adapted
basis and truncated to their leading grade.  The one construction serves
algebras and modules, over O, K and k alike.
"""

from __future__ import annotations

from . import linalg, radicals
from .algebra import (
    AlgebraError,
    StructureAlgebra,
    WeightDatum,
    structure_constants,
)
from .lattices import LatticeError, coord_solver
from .modules import ModuleRep


class GradingError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# radical chains
# ---------------------------------------------------------------------------

def algebra_rad_chain(alg: StructureAlgebra):
    """[r~ad^0 A, r~ad^1 A, ..., 0], built once per algebra: pure Lattices
    at level O, radicals.radical_chain itself at K and k."""
    return alg._derived(_algebra_radical_chain)


def _algebra_radical_chain(alg):
    field_chain = radicals.radical_chain(alg.field_algebra())
    return [alg.pure_span(s) for s in field_chain]


def module_rad_chain(mod: ModuleRep):
    """[r~ad^0 M, r~ad^1 M, ..., 0]: pure Lattices at level O, Subspaces at
    K and k.  At O, rad^n M_K is computed on the field module and then
    saturated."""
    alg = mod.algebra
    modf = mod.field_module()
    rad = radicals.radical_field(alg.field_algebra())
    spaces = [modf.span([modf.basis_vec(i) for i in range(mod.rank)])]
    while True:
        spaces.append(modf.image(rad, spaces[-1].rows))
        if not spaces[-1].rank:
            return [alg.pure_span(s) for s in spaces]


# ---------------------------------------------------------------------------
# adapted bases
# ---------------------------------------------------------------------------

def _adapted_basis(chain, fld, size):
    """Lifts per grade (chain[m] = lifts of grade m + chain[m+1]), their
    grades, and the coordinates in the lifts (`lattices.coord_solver`)."""
    lifts = []
    grades = []
    for m in range(len(chain) - 1):
        free, torsion = chain[m].lifts_over(chain[m + 1])
        if torsion:
            raise GradingError("radical filtration steps must be pure")
        lifts += free
        grades += [m] * len(free)
    if len(lifts) != size:
        raise GradingError("adapted basis has wrong size")
    try:
        coords = coord_solver(lifts, fld, size)
    except LatticeError as exc:
        raise GradingError("adapted basis is not a basis") from exc
    return lifts, grades, coords


def _leading(coords, grades, target, what="product"):
    """The (index, entry) pairs, index increasing, of the grade-`target`
    part of an adapted expansion; a nonzero entry of lower grade means the
    filtration is not multiplicative."""
    out = []
    for t, v in sorted(coords.items()):
        g = grades[t]
        if g < target:
            raise GradingError(
                f"{what} fell below its expected grade (filtration bug)")
        if g == target:
            out.append((t, v))
    return out


class AdaptedBasis:
    """An object on a filtration-adapted basis, with provenance.

    `grades[i]` is the grade of the i-th basis element and `lifts[i]` its
    chosen lift in the coordinates of the filtered object; `chain` is the
    filtration.  `full_coords` expands elements of the filtered object in
    the adapted basis (grades of nonzero entries bound the filtration depth).
    """

    def __init__(self, fld, grades, lifts, chain, coords):
        self._fld = fld
        self.grades = tuple(grades)
        self.lifts = lifts
        self.chain = chain
        self.full_coords = coords

    @property
    def top_grade(self):
        return max(self.grades) if self.grades else 0

    def grade_rank(self, m):
        return sum(1 for g in self.grades if g == m)

    def grade_ranks(self):
        return tuple(self.grade_rank(m) for m in range(self.top_grade + 1))

    def grade_part_rank(self, rows, m):
        """Rank of the grade-m parts of `rows`, given in adapted (gr)
        coordinates."""
        return linalg.rank([self._part(r, m) for r in rows],
                           self._fld, len(self.grades))

    def _part(self, v, m):
        """The grade-m part of a vector in adapted coordinates."""
        grades = self.grades
        return {t: x for t, x in v.items() if grades[t] == m}

    def depth(self, x):
        """Filtration depth of a nonzero element (max m with x in chain m)."""
        ds = [self.grades[t] for t in self.full_coords(x)]
        return min(ds) if ds else None

    def component(self, x, m):
        """Grade-m component of the full adapted expansion of x."""
        return self._part(self.full_coords(x), m)

    def symbol(self, x):
        """Symbol vector of x in gr coordinates (leading-grade component;
        zero for x = 0, whose depth is None)."""
        return self.component(x, self.depth(x))


class GradedAlgebra(AdaptedBasis):
    """gr A: `algebra` is a plain StructureAlgebra at the level of `base`."""

    def __init__(self, base, algebra, grades, lifts, chain, coords):
        super().__init__(base.fld, grades, lifts, chain, coords)
        self.base = base
        self.algebra = algebra


def gr_algebra(alg: StructureAlgebra) -> GradedAlgebra:
    """The forced graded algebra of an integral or field-level algebra."""
    fld = alg.fld
    chain = algebra_rad_chain(alg)
    lifts, grades, coords = _adapted_basis(chain, fld, alg.rank)
    n = alg.rank
    # a product of lifts of grades g_i, g_j keeps its grade g_i + g_j part
    sc = structure_constants(
        alg.products(lifts, lifts), n, coords,
        lambda i, j, c: _leading(c, grades, grades[i] + grades[j]))

    def grade_zero(x):
        return {t: c for t, c in coords(x).items() if grades[t] == 0}

    weights = None
    if alg.weights is not None:
        w = alg.weights
        weights = WeightDatum(w.X, w.Lambda, w.less,
                              {lbl: grade_zero(e)
                               for lbl, e in w.idempotents.items()})
    galg = StructureAlgebra(alg.ring, alg.level, n,
                            [f"g{grades[i]}_{i}" for i in range(n)],
                            grade_zero(alg.unit), sc, weights)
    return GradedAlgebra(alg, galg, grades, lifts, chain, coords)


class GradedModule(AdaptedBasis):
    """gr M over gr A: `module` is a ModuleRep over gralg.algebra."""

    def __init__(self, gralg, base_module, module, grades, lifts, chain,
                 coords):
        super().__init__(base_module.fld, grades, lifts, chain, coords)
        self.gralg = gralg
        self.base_module = base_module
        self.module = module


def gr_module(gralg: GradedAlgebra, mod: ModuleRep) -> GradedModule:
    """gr of a module over the (already graded) algebra."""
    fld = mod.fld
    chain = module_rad_chain(mod)
    lifts, grades, coords = _adapted_basis(chain, fld, mod.rank)
    lift_cols = [linalg.column(lift) for lift in lifts]
    acts = []
    for g, u in zip(gralg.grades, gralg.lifts):
        images = linalg.compose(mod.act_matrix(u), lift_cols)
        acts.append([tuple(_leading(coords(dict(img)), grades, g + gs,
                                    "module action"))
                     for gs, img in zip(grades, images)])
    gmod = ModuleRep(gralg.algebra, mod.rank, acts, f"gr({mod.name})")
    return GradedModule(gralg, mod, gmod, grades, lifts, chain, coords)
