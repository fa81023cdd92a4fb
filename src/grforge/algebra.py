"""Structure-constant algebras over O with base change to K and k.

An algebra is a free module of finite rank with a bilinear multiplication
given by sparse structure constants c[i,j] (a vector for each basis pair) and
a two-sided unit.  The same class serves the integral level O and the two
field levels K and k; `level` records which one, and scalars are Fraction/Cyc
at levels O and K, prime-field elements at level k.

An optional WeightDatum attaches orthogonal idempotents e_nu summing to 1,
a distinguished subset Lambda of the labels, and a partial order on Lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import linalg
from .lattices import (
    coord_solver,
    saturate_rows,
    span_of,
    stable_span,
)
from .scalars import RingSpec


class AlgebraError(ValueError):
    pass


class ValidationError(AlgebraError):
    """Raised by load-time checks; carries every violated axiom."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class WeightDatum:
    """Orthogonal idempotents indexed by X, a weight subset Lambda, a poset."""

    X: tuple
    Lambda: tuple
    less: frozenset          # pairs (a, b) with a < b, transitively closed
    idempotents: dict        # label -> coordinate tuple

    @staticmethod
    def build(X, Lambda, relations, idempotents):
        X = tuple(X)
        Lambda = tuple(Lambda)
        less = set()
        rels = {(a, b) for (a, b) in relations}
        changed = True
        while changed:
            changed = False
            for (a, b) in list(rels):
                for (c, d) in list(rels):
                    if b == c and (a, d) not in rels:
                        rels.add((a, d))
                        changed = True
        for (a, b) in rels:
            if a == b:
                raise AlgebraError(f"poset has a cycle through {a!r}")
            if a not in Lambda or b not in Lambda:
                raise AlgebraError("poset relation outside Lambda")
        less = frozenset(rels)
        idempotents = {lbl: tuple(v) for lbl, v in idempotents.items()}
        if set(idempotents) != set(X):
            raise AlgebraError("idempotents must be indexed exactly by X")
        if not set(Lambda) <= set(X):
            raise AlgebraError("Lambda must be a subset of X")
        return WeightDatum(X, Lambda, less, idempotents)

    def lt(self, a, b) -> bool:
        return (a, b) in self.less

    def leq(self, a, b) -> bool:
        return a == b or (a, b) in self.less

    def maximal(self, subset) -> list:
        subset = list(subset)
        return [a for a in subset if not any(self.lt(a, b) for b in subset)]

    def is_ideal(self, subset) -> bool:
        """Poset ideal of Lambda: downward closed."""
        s = set(subset)
        if not s <= set(self.Lambda):
            return False
        return all(a in s for a in self.Lambda for b in s if self.lt(a, b))

    def ideal_below(self, lam) -> tuple:
        return tuple(m for m in self.Lambda if self.leq(m, lam))


# the attributes that define an algebra: each is set once, in the constructor
_DEFINING = frozenset(("ring", "level", "rank", "labels", "unit", "sc",
                       "weights", "generators"))


class StructureAlgebra:
    """Finite free algebra by structure constants, at level O, K, or k.

    An algebra is immutable after construction: reassigning a defining
    attribute raises AlgebraError.  So objects derived from it (base changes,
    radical, multiplication matrices, modules, verdicts) are memoized on it by
    `_derived` and live exactly as long as it does.  Annotations such as
    `source_hash`, `metadata` and `blocks_info` stay writable.
    """

    def __init__(self, ring: RingSpec, level: str, rank: int, labels, unit, sc,
                 weights: WeightDatum | None = None, generators: dict | None = None):
        if level not in ("O", "K", "k"):
            raise AlgebraError(f"bad level {level!r}")
        self.ring = ring
        self.level = level
        self.rank = rank
        self.labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(rank))
        self.unit = tuple(unit)
        self.sc = sc  # dict (i, j) -> dict t -> scalar
        self.weights = weights
        self.generators = generators  # optional: label -> coordinate tuple
        self._memo = {}

    def __setattr__(self, name, value):
        if name in _DEFINING and name in self.__dict__:
            raise AlgebraError(f"an algebra is immutable: cannot reassign {name!r}")
        object.__setattr__(self, name, value)

    def _derived(self, build, *args):
        """build(self, *args), computed on the first request and memoized.

        The memo is keyed by (build, *args), so `build` must be a module-level
        function, never a closure made per call.  No entry may refer back to
        this algebra: the reference cycle would keep both alive until the
        cyclic garbage collector ran.  So modules are kept as (rank, acts, name).
        """
        key = (build, *args)
        memo = self._memo
        if key not in memo:
            memo[key] = build(self, *args)
        return memo[key]

    # -- scalars ---------------------------------------------------------------
    @property
    def fld(self):
        return self.ring.field_k if self.level == "k" else self.ring.field_K

    def zero_vec(self):
        return [self.fld.zero] * self.rank

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.fld.one
        return v

    # -- multiplication ----------------------------------------------------------
    def mul(self, x, y):
        """The dense product x y of coordinate vectors x, y (dense or dicts),
        straight from the structure constants: the dense reference.  It serves
        single products and the independent re-checker `certify.verify_chain`;
        spans and structure constants of many products come from `products`."""
        out = self.zero_vec()
        by_left = self._derived(_sc_by_left)
        at = y.get if isinstance(y, dict) else y.__getitem__
        for i, xi in linalg.entries(x):
            for j, row in by_left[i]:
                yj = at(j)
                if yj:
                    c = xi * yj
                    for t, v in row:
                        out[t] = out[t] + c * v
        return out

    def left_mult_matrix(self, i):
        """Sparse columns (see linalg) of left multiplication by b_i."""
        return self._derived(_mult_columns, "left")[i]

    def left_mult_of(self, x):
        """Sparse columns of left multiplication by the element with
        coordinates x: applied to y it gives mul(x, y)."""
        return self._mult_of("left", x)

    def right_mult_of(self, x):
        """Sparse columns of right multiplication by the element with
        coordinates x: applied to y it gives mul(y, x)."""
        return self._mult_of("right", x)

    def _mult_of(self, side, x):
        """Sparse columns (see linalg) of multiplication by x (dense, or a
        dict; see linalg.sparse) on `side`: the combination of the basis
        elements' columns that the nonzero entries of x name, the stored
        columns themselves when x is a basis vector."""
        mats = self._derived(_mult_columns, side)
        nx = linalg.sparse(x)
        if len(nx) == 1 and self.fld.one in nx.values():
            (j,) = nx
            return mats[j]
        return linalg.combine_columns(nx, mats)

    def products(self, xs, ys):
        """The products x y for x in xs and y in ys (each dense, or a dict;
        see linalg.sparse), x outer, each a {column: entry} dict of its
        nonzero entries.

        Right multiplication by y is formed once per y, as the sparse
        columns R_y (see `right_mult_of`): column i is b_i y.  Then x y is
        `linalg.apply` of R_y to x; a basis vector x reads its column as it
        is."""
        one = self.fld.one
        mats = [self.right_mult_of(y) for y in ys]
        out = []
        for x in xs:
            nx = linalg.sparse(x)
            if len(nx) == 1 and one in nx.values():
                (i,) = nx
                out += [dict(m[i]) for m in mats]
            else:
                out += [linalg.apply(m, nx) for m in mats]
        return out

    def generating_set(self):
        """Vectors that generate the algebra with the unit: the document's
        generators when they do, else the basis.  A condition whose
        solutions form a unital subalgebra (commuting with a fixed x, or the
        identity of `representation_problems`) holds on the whole algebra
        once it holds on this set."""
        return self._derived(_proof_generators)[2]

    # -- validation ---------------------------------------------------------------
    def validate(self):
        """Check the algebra axioms; raises ValidationError listing failures.

        Associativity is proved exactly by `representation_problems` on the
        sparse columns of the left multiplication matrices.  Returns a dict
        report that names the generating set the proof went through:
        "generators" or "basis".
        """
        n = self.rank
        # the proof spans the unit, the generators and their products: at
        # level O these must be lattices, so shapes and integrality come first
        vectors = [("unit", self.unit)] + [
            (f"generator {name!r}", v)
            for name, v in (self.generators or {}).items()]
        problems = [f"{what} has wrong length"
                    for what, v in vectors if len(v) != n]
        if self.level == "O":
            problems += [f"{what} has an entry outside O" for what, v in vectors
                         if not all(map(self.ring.in_O, v))]
            problems += [f"structure constant c[{i},{j},{t}] outside O"
                         for (i, j), row in self.sc.items()
                         for t, v in row.items() if not self.ring.in_O(v)]
        if problems:
            raise ValidationError(problems)
        # unit axiom
        for j in range(n):
            bj = self.basis_vec(j)
            if self.mul(list(self.unit), bj) != bj:
                problems.append(f"unit fails on the left at basis {j}")
            if self.mul(bj, list(self.unit)) != bj:
                problems.append(f"unit fails on the right at basis {j}")
        problems += self.representation_problems(
            self._derived(_mult_columns, "left"), "associativity")
        if self.weights is not None:
            problems += self._check_weights()
        if problems:
            raise ValidationError(problems)
        return {"associativity": self._derived(_proof_generators)[0]}

    def representation_problems(self, acts, what):
        """Where rho(g) rho(b_j) = rho(g b_j) fails, for the linear map rho
        with rho(b_i) = acts[i] (sparse columns, see linalg), g in the proof
        generating set and b_j in the basis; each failure names g and b_j
        after `what`.  At most 9 are listed.

        The w with rho(w) rho(x) = rho(w x) for all x form a subalgebra, which
        is unital when rho(1) is the identity (the caller checks that).  So
        the identity on a generating set proves it on the whole algebra.  For
        the left multiplication matrices it is associativity, and the closure
        argument needs no associativity; for a module's action matrices it is
        the module axiom, and the argument uses the associativity proved by
        `validate`.  The generating set is the document's generators when they
        generate the algebra with the unit, else the basis.  Both sides are
        built on the columns, which are canonical, so they compare as lists.
        """
        _, names, gens = self._derived(_proof_generators)
        problems = []
        for name, g in zip(names, gens):
            rg = linalg.combine_columns(g, acts)
            # g b_j is column j of left multiplication by g
            for j, gb in enumerate(self.left_mult_of(g)):
                lhs = linalg.compose(rg, acts[j])
                rhs = (linalg.combine_columns([x for _, x in gb],
                                              [acts[t] for t, _ in gb])
                       if gb else [()] * len(lhs))
                if lhs != rhs:
                    problems.append(f"{what} fails through generator {name!r} "
                                    f"at basis {self.labels[j]}")
                    if len(problems) > 8:
                        return problems
        return problems

    def _check_weights(self):
        problems = []
        w = self.weights
        total = self.zero_vec()
        idems = {lbl: list(v) for lbl, v in w.idempotents.items()}
        for lbl, e in idems.items():
            if len(e) != self.rank:
                problems.append(f"idempotent {lbl!r} has wrong length")
                return problems
            if self.mul(e, e) != e:
                problems.append(f"e[{lbl!r}] is not idempotent")
            total = [a + b for a, b in zip(total, e)]
        labels = sorted(idems, key=str)
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                ea, eb = idems[labels[a]], idems[labels[b]]
                if any(self.mul(ea, eb)) or any(self.mul(eb, ea)):
                    problems.append(
                        f"idempotents {labels[a]!r}, {labels[b]!r} not orthogonal")
        if tuple(total) != self.unit:
            problems.append("idempotents do not sum to the unit")
        return problems

    # -- base change -----------------------------------------------------------------
    def base_change(self, level: str) -> "StructureAlgebra":
        """Reinterpret over K, or reduce modulo pi to k; built once per level."""
        if self.level != "O":
            raise AlgebraError("base change starts from the integral level")
        if level not in ("K", "k"):
            raise AlgebraError(f"cannot base change to {level!r}")
        return self._derived(_base_change, level)

    def field_algebra(self) -> "StructureAlgebra":
        """The algebra over a field behind this one: A_K at level O, the
        algebra itself at K and k.  Radicals and their powers are computed
        there; `pure_span` brings such a subspace back to this level."""
        return self if self._span_ring is None else self.base_change("K")

    # -- subquotients -----------------------------------------------------------------
    def subalgebra_on(self, rows, labels=None, unit=None):
        """The algebra structure on an O-lattice / subspace closed under product.

        `rows` are coordinate vectors forming a basis (lattice canonical rows at
        level O, any independent rows at field level).  `unit` is the element
        (in this algebra's coordinates) that serves as the unit of the
        subalgebra, by default the unit of this algebra.  Raises if the span is
        not closed under multiplication or misses that unit.
        """
        basis = list(rows)
        coords = self.coord_solver(basis)
        unit_c = coords(list(self.unit if unit is None else unit))
        if unit_c is None:
            raise AlgebraError("subalgebra does not contain the unit")
        n = len(basis)
        sc = structure_constants(self.products(basis, basis), n, coords)
        return StructureAlgebra(self.ring, self.level, n,
                                labels or [f"s{i}" for i in range(n)],
                                unit_c, sc, None, None), basis

    @property
    def _span_ring(self):
        """The ring O whose lattices are this algebra's spans at level O;
        None at K and k, where spans are subspaces."""
        return self.ring if self.level == "O" else None

    def coord_solver(self, basis):
        """lattices.coord_solver at this algebra's level."""
        return coord_solver(basis, self.fld, self._span_ring, self.rank)

    def span(self, rows, ambient=None):
        """The span of `rows` in the free module of rank `ambient` (default
        this algebra's rank) at this algebra's level: a canonical Lattice at
        O, a linalg.Subspace at K and k.  A span passes through unchanged."""
        return span_of(rows, self.rank if ambient is None else ambient,
                       self.fld, self._span_ring)

    def pure_span(self, space):
        """A subspace over `field_algebra()`'s field, brought to this level:
        the pure Lattice O^n ∩ space at level O (it depends only on the
        subspace, not on its rows), the subspace itself at K and k."""
        if self._span_ring is None:
            return space
        return saturate_rows(self.ring, space.ambient, space.rows)

    def stable_span(self, vectors, maps, ambient=None):
        """lattices.stable_span at this algebra's level: the smallest span
        (see `span`) that contains the vectors and is mapped into itself by
        each of the linear maps."""
        return stable_span(vectors, maps,
                           self.rank if ambient is None else ambient,
                           self.fld, self._span_ring)

    def weight_idempotent(self, labels):
        """The sum of the weight idempotents e_nu over the given labels."""
        e = self.zero_vec()
        for lbl in labels:
            e = [a + b for a, b in zip(e, self.weights.idempotents[lbl])]
        return e

    def product_span(self, xs, ys):
        """The span (see `span`) of the products x y, x in xs, y in ys, read
        off the multiplication columns by `products`."""
        return self.span(self.products(xs, ys))

    def left_ideal(self, ys):
        """A ys, the span (see `span`) of the b y over the basis b and y in
        ys: the columns of right multiplication by each y."""
        return self.span([dict(col) for y in ys
                          for col in self.right_mult_of(y)])

    def right_ideal(self, xs):
        """xs A, the span (see `span`) of the x b over x in xs and the basis
        b: the columns of left multiplication by each x."""
        return self.span([dict(col) for x in xs
                          for col in self.left_mult_of(x)])

    def ideal_generated(self, e):
        """A e A as a span (see `span`): the left ideal of the e b_j, which
        are the columns of left multiplication by e."""
        return self.left_ideal([dict(c) for c in self.left_mult_of(e) if c])

    def corner(self, e):
        """e A e as a span (see `span`), the twin of `ideal_generated`: the
        b_i e are the columns of right multiplication by e."""
        return self.product_span(
            [e], [dict(c) for c in self.right_mult_of(e) if c])

    def quotient_by_labels(self, labels, ideal=None):
        """A / A e A for e the sum of e_nu over `labels`, with the weight datum
        restricted to the other labels and carried along.

        `ideal` is A e A when the caller has already built it with
        `ideal_generated`; otherwise it is built here.  Returns
        (quotient_algebra, lift_rows) as quotient_by_ideal does.
        """
        w = self.weights
        if ideal is None:
            ideal = self.ideal_generated(self.weight_idempotent(labels))
        quot, lifts, project = self.quotient_by_ideal(ideal)
        keep = tuple(x for x in w.X if x not in labels)
        weights = WeightDatum(
            keep,
            tuple(x for x in w.Lambda if x not in labels),
            frozenset((a, b) for (a, b) in w.less
                      if a not in labels and b not in labels),
            {lbl: tuple(project(list(w.idempotents[lbl]))) for lbl in keep})
        return StructureAlgebra(quot.ring, quot.level, quot.rank, quot.labels,
                                quot.unit, quot.sc, weights), lifts

    def quotient_by_ideal(self, ideal):
        """Quotient algebra by a two-sided ideal.

        `ideal` is a span (see `span`) or rows spanning one; at level O it
        must be pure, else the quotient is not O-free.  Returns
        (quotient_algebra, lift_rows, project): lift_rows are coordinate
        vectors of chosen basis lifts; project sends an element vector to its
        quotient coordinates.
        """
        lifts, torsion, project = self.span(ideal).quotient()
        if torsion:
            raise AlgebraError("ideal is not pure; quotient is not O-free")
        m = len(lifts)
        sc = structure_constants(self.products(lifts, lifts), m, project)
        unit_c = project(list(self.unit))
        quot = StructureAlgebra(self.ring, self.level, m,
                                [f"q{i}" for i in range(m)], unit_c, sc)
        return quot, lifts, project


def structure_constants(products, n, coords, row=None):
    """The sparse structure constants {(i, j): {t: c_t}} of a basis of size
    n, given the products basis[i] basis[j] in the order i outer, j inner,
    dense or as {index: entry} dicts (an empty dict is a zero product, as
    `StructureAlgebra.products` gives them): product = sum_t c_t basis[t], with
    c = coords(product) and zero rows left out.  `coords` returns None for
    a vector outside the span; AlgebraError names the first such product.
    `row(i, j, c)`, when given, picks the (t, c_t) pairs of the row in
    place of the nonzero entries of c."""
    sc = {}
    for k, z in enumerate(products):
        if not z:
            continue
        i, j = divmod(k, n)
        c = coords(z)
        if c is None:
            raise AlgebraError(
                f"span not closed under multiplication at ({i},{j})")
        r = dict(row(i, j, c) if row else
                 ((t, v) for t, v in enumerate(c) if v))
        if r:
            sc[(i, j)] = r
    return sc


def _sc_by_left(alg):
    """For each i, [(j, items of sc[(i, j)])] over the nonzero rows, j
    increasing and the items sorted: the products b_i b_j that `mul` may
    need, each a sparse column (see linalg)."""
    by_left = [[] for _ in range(alg.rank)]
    for (i, j), row in sorted(alg.sc.items()):
        if row:
            by_left[i].append((j, tuple(sorted(row.items()))))
    return by_left


def _proof_generators(alg):
    """(kind, names, vectors) of the set `representation_problems` proves
    through: the document's generators ("generators") when they and the unit
    generate the algebra, else the basis ("basis"), which always does."""
    if alg.generators:
        gens = [list(v) for v in alg.generators.values()]
        closure = alg.stable_span(
            [list(alg.unit)] + gens,
            [partial(linalg.apply, alg.left_mult_of(g)) for g in gens])
        if closure == alg.span([alg.basis_vec(i) for i in range(alg.rank)]):
            return "generators", tuple(alg.generators), gens
    return "basis", alg.labels, [alg.basis_vec(i) for i in range(alg.rank)]


def _mult_columns(alg, side):
    """Sparse columns (see linalg) of left (side "left") or right
    multiplication by each b_i, read off `_sc_by_left`: column j of L_i and
    column i of R_j are both the product b_i b_j."""
    n = alg.rank
    mats = [[()] * n for _ in range(n)]
    for i, row in enumerate(alg._derived(_sc_by_left)):
        for j, items in row:
            if side == "left":
                mats[i][j] = items
            else:
                mats[j][i] = items
    return mats


def _base_change(alg, level):
    if level == "K":
        return StructureAlgebra(alg.ring, "K", alg.rank, alg.labels,
                                alg.unit, alg.sc, alg.weights, alg.generators)
    red = alg.ring.residue
    sc = {}
    for (i, j), row in alg.sc.items():
        nr = {t: red(v) for t, v in row.items()}
        nr = {t: v for t, v in nr.items() if v}
        if nr:
            sc[(i, j)] = nr
    unit = tuple(red(v) for v in alg.unit)
    weights = None
    if alg.weights is not None:
        weights = WeightDatum(
            alg.weights.X, alg.weights.Lambda, alg.weights.less,
            {lbl: tuple(red(x) for x in v)
             for lbl, v in alg.weights.idempotents.items()})
    gens = None
    if alg.generators:
        gens = {lbl: tuple(red(x) for x in v) for lbl, v in alg.generators.items()}
    return StructureAlgebra(alg.ring, "k", alg.rank, alg.labels, unit, sc,
                            weights, gens)
