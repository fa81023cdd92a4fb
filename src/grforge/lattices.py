"""Lattices over the discrete valuation ring O.

A lattice is a finitely generated O-submodule of O^n, stored by the rows of
a canonical Hermite-style echelon generator matrix, each the dict of its
nonzero entries (see linalg.rref).  Over a DVR every nonzero entry is a unit
times pi^a, so an entry of minimal valuation in a column divides the others;
pivots are normalized to pi^a and entries above a pivot are reduced to
canonical residues mod pi^a.  Two lattices are equal iff their rows are.

All entries live in K (Rat or Cyc); membership in O means valuation >= 0.
"""

from __future__ import annotations

from . import linalg
from .scalars import RingSpec


class LatticeError(ValueError):
    pass


class Lattice:
    """An O-sublattice of O^ambient in canonical echelon form."""

    __slots__ = ("ring", "ambient", "rows", "pivots", "pivot_vals", "_hash",
                 "_reducer")

    def __init__(self, ring: RingSpec, ambient: int, rows, pivots, pivot_vals):
        self.ring = ring
        self.ambient = ambient
        self.rows = rows              # tuple of canonical row dicts
        self.pivots = pivots          # pivot column per row, strictly increasing
        self.pivot_vals = pivot_vals  # valuation of each pivot entry
        self._hash = None
        self._reducer = None

    # -- construction ---------------------------------------------------------
    @staticmethod
    def from_rows(ring: RingSpec, ambient: int, rows) -> "Lattice":
        """Canonicalize generators over O, each a dense row of length
        `ambient` or an {index: entry} dict (see linalg.sparse); a generator
        with an entry outside O raises LatticeError.

        A worklist echelon on the rows as dicts: an incoming row either
        reduces against the pivot row at its first column or, when its entry
        there has the smaller valuation, replaces that pivot row, which goes
        back on the worklist.  Then each pivot row, left to right, reduces
        the entries above it to canonical residues mod pi^a: a later pivot
        row is zero in every earlier pivot column."""
        queue = []
        for r in rows:
            if not isinstance(r, dict):
                if len(r) != ambient:
                    raise LatticeError("generator length != ambient rank")
            elif r and not 0 <= min(r) <= max(r) < ambient:
                raise LatticeError("generator index outside the ambient rank")
            r = linalg.sparse(r)
            if not all(map(ring.in_O, r.values())):
                raise LatticeError("generator entry outside O")
            if r:
                queue.append(r)
        piv = {}   # col -> (valuation a, row with pivot entry exactly pi^a)
        while queue:
            r = queue.pop()
            while r:
                col = min(r)
                x = r[col]
                v = ring.valuation(x)
                if col in piv:
                    a, prow = piv[col]
                    if v >= a:
                        linalg.sub_multiple(r, x / prow[col], prow)
                        continue
                    queue.append(prow)  # r takes its place as pivot row
                target = ring.pi_power(v)
                uinv = target / x
                piv[col] = v, {j: target if j == col else uinv * y
                               for j, y in r.items()}
                break
        cols = sorted(piv)
        for i, col in enumerate(cols):
            a, row = piv[col]
            for above in cols[:i]:
                arow = piv[above][1]
                x = arow.get(col)
                if x is not None:
                    q = (x - ring.canonical_mod(x, a)) / row[col]
                    if q:
                        linalg.sub_multiple(arow, q, row)
        return Lattice(ring, ambient,
                       tuple(dict(sorted(piv[c][1].items())) for c in cols),
                       tuple(cols), tuple(piv[c][0] for c in cols))

    @staticmethod
    def zero(ring: RingSpec, ambient: int) -> "Lattice":
        return Lattice(ring, ambient, (), (), ())

    @staticmethod
    def full(ring: RingSpec, ambient: int) -> "Lattice":
        one = ring.one()
        return Lattice(ring, ambient, tuple({i: one} for i in range(ambient)),
                       tuple(range(ambient)), (0,) * ambient)

    # -- basic protocol ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ring == other.ring
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.ambient,
                               tuple(frozenset(r.items()) for r in self.rows)))
        return self._hash

    def __repr__(self):
        return f"Lattice(rank {self.rank} in O^{self.ambient})"

    # -- membership -------------------------------------------------------------
    def contains_vector(self, vec) -> bool:
        return self.coords(vec) is not None

    def coords(self, vec):
        """O-coordinates of vec (dense or a dict) in the canonical basis, or
        None: `linalg.eliminate` against the rows divided by their pivots
        pi^a meets x = c pi^a for the coordinate c, in O iff v(x) >= a."""
        if self._reducer is None:
            pi_power = self.ring.pi_power
            scales = tuple((a, pi_power(-a)) for a in self.pivot_vals)
            self._reducer = scales, tuple(
                (col, {j: x * inv if a else x
                       for j, x in row.items() if j != col})
                for row, col, (a, inv) in zip(self.rows, self.pivots, scales))
        scales, steps = self._reducer
        v = linalg.sparse(vec)
        met = linalg.eliminate(steps, v)
        if v:
            return None
        valuation, zero = self.ring.valuation, self.ring.zero()
        cs = []
        for x, (a, inv) in zip(met, scales):
            if x is not None and valuation(x) < a:
                return None
            cs.append(zero if x is None else x * inv if a else x)
        return cs

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def quotient(self):
        """(lifts, torsion_vals, project) of O^ambient / self: the lifts map
        to a basis of the free part of the quotient and torsion_vals are the
        elementary divisors of its torsion (see quotient_free_basis; empty
        iff self is pure), and project(v) gives the coordinates of the image
        of v in that basis."""
        lifts, torsion = quotient_free_basis(
            Lattice.full(self.ring, self.ambient), self)
        if self.rank + len(lifts) != self.ambient:
            raise LatticeError("span basis plus lifts do not span")
        coords = coord_solver(self.rows + tuple(lifts), self.ring.field_K,
                              ncols=self.ambient)

        def project(v):
            return coords(v)[self.rank:]  # the coordinates on the lifts

        return lifts, torsion, project

    def lifts_over(self, sub: "Lattice"):
        """(free_lifts, torsion_vals) of self / sub; see quotient_free_basis."""
        return quotient_free_basis(self, sub)

    # -- lattice arithmetic -------------------------------------------------------
    def add(self, other: "Lattice") -> "Lattice":
        self._check_compatible(other)
        return Lattice.from_rows(self.ring, self.ambient,
                                 self.rows + other.rows)

    def intersection(self, other: "Lattice") -> "Lattice":
        """{v : v in self and v in other}, canonical."""
        self._check_compatible(other)
        if self.rank == 0 or other.rank == 0:
            return Lattice.zero(self.ring, self.ambient)
        stacked = self.rows + other.rows
        ker = linalg.kernel_left(stacked, self.ring.field_K, self.ambient)
        if not ker:
            return Lattice.zero(self.ring, self.ambient)
        # O-kernel = saturation of the cleared K-kernel inside O^(r1+r2)
        kerlat = saturate_rows(self.ring, len(stacked), ker)
        gens = [linalg.combine({i: c for i, c in z.items() if i < self.rank},
                               self.rows) for z in kerlat.rows]
        return Lattice.from_rows(self.ring, self.ambient, gens)

    def _check_compatible(self, other):
        if self.ring != other.ring or self.ambient != other.ambient:
            raise LatticeError("ambient mismatch")


# ---------------------------------------------------------------------------
# echelon helpers
# ---------------------------------------------------------------------------

def _normalize_pivot(ring, row, col, val):
    """Scale the row by a unit so the pivot becomes exactly pi^val."""
    target = ring.pi_power(val)
    uinv = target / row[col]
    for j in range(col, len(row)):
        if row[j]:
            row[j] = uinv * row[j]
    row[col] = target


# ---------------------------------------------------------------------------
# saturation and Smith form
# ---------------------------------------------------------------------------

def saturate_rows(ring: RingSpec, ambient: int, rows) -> Lattice:
    """Smallest pure sublattice of O^ambient containing O^ambient ∩ K·span.

    Accepts rows over K (denominators allowed), dense or dicts; the result
    depends only on the K-span of the input.
    """
    cleared = []
    for r in map(linalg.entries, rows):
        if r:
            mv = min(ring.valuation(x) for _, x in r)
            f = ring.pi_power(-mv)
            row = [ring.zero()] * ambient  # smith_track's matrix is dense
            for j, x in r:
                row[j] = f * x if mv else x
            cleared.append(row)
    if not cleared:
        return Lattice.zero(ring, ambient)
    vals, track = smith_track(ring, ambient, cleared)
    return Lattice.from_rows(ring, ambient, track[: len(vals)])


def smith_track(ring: RingSpec, ambient: int, rows):
    """Smith normal form over the DVR O with a tracked change of basis.

    Returns (divisor_vals, track_rows): track_rows is an O-basis of O^ambient
    such that the input row span equals span{ pi^divisor_vals[i] * track_rows[i] }
    for i < len(divisor_vals).  In particular the first len(divisor_vals) rows
    span the saturation of the input.
    """
    m = [list(r) for r in rows if any(r)]
    track = [[ring.one() if i == j else ring.zero() for j in range(ambient)]
             for i in range(ambient)]
    if not m:
        return [], track
    nr, nc = len(m), ambient
    perm = list(range(nc))  # column j of m corresponds to track row perm[j]
    vals = []
    top = 0
    while top < nr and top < nc:
        best = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j]:
                    v = ring.valuation(m[i][j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == (vals[-1] if vals else 0):
                            break
            else:
                continue
            break
        if best is None:
            break
        v, bi, bj = best
        if v < 0:
            raise LatticeError("entry outside O in Smith reduction")
        m[top], m[bi] = m[bi], m[top]
        if bj != top:
            for r in m:
                r[top], r[bj] = r[bj], r[top]
            perm[top], perm[bj] = perm[bj], perm[top]
        _normalize_pivot(ring, m[top], top, v)
        for i in range(top + 1, nr):
            if m[i][top]:
                q = m[i][top] / m[top][top]
                for j in range(top, nc):
                    if m[top][j]:
                        m[i][j] = m[i][j] - q * m[top][j]
        for j in range(top + 1, nc):
            if m[top][j]:
                q = m[top][j] / m[top][top]
                # column op col_j -= q col_top; compensate track: row_top += q row_j
                m[top][j] = ring.zero()
                tr_top, tr_j = track[perm[top]], track[perm[j]]
                for t in range(nc):
                    if tr_j[t]:
                        tr_top[t] = tr_top[t] + q * tr_j[t]
        vals.append(v)
        top += 1
    ordered = [track[perm[i]] for i in range(nc)]
    return vals, ordered


# ---------------------------------------------------------------------------
# the spec-level operations
# ---------------------------------------------------------------------------

def pure_closure(n: Lattice, m: Lattice) -> Lattice:
    """M intersect K.N: the smallest pure sublattice of M containing N."""
    return _pure_closure(n, m, _coords_matrix(n, m))


def _pure_closure(n: Lattice, m: Lattice, coords) -> Lattice:
    """pure_closure(N, M), given the coordinates of N's rows in M's basis."""
    if n.rank == 0:
        return Lattice.zero(n.ring, n.ambient)
    sat = saturate_rows(n.ring, m.rank, coords)
    gens = [linalg.combine(c, m.rows) for c in sat.rows]
    return Lattice.from_rows(n.ring, n.ambient, gens)


def is_pure(n: Lattice, m: Lattice) -> bool:
    """Purity of N in M, cross-checked by base-change injectivity.

    Route (a): pure_closure(N, M) == N.
    Route (b): N_k -> M_k stays injective, i.e. the coordinate matrix of N in
    a basis of M has full rank modulo pi.
    """
    coords = _coords_matrix(n, m)
    if n.rank == 0:
        return True
    a = _pure_closure(n, m, coords) == n
    fk = n.ring.field_k
    red = [[n.ring.residue(x) for x in row] for row in coords]
    b = linalg.rank(red, fk) == n.rank
    if a != b:
        raise LatticeError("purity cross-check disagreement (Lemma 2.3 routes)")
    return a


def quotient_free_basis(m: Lattice, n: Lattice):
    """Free-part basis lifts and torsion elementary divisors of M/N.

    Returns (free_lifts, torsion_vals): M/N is a direct sum of a free module
    with basis the images of free_lifts and of cyclic summands O/pi^a for each
    a in torsion_vals (all a >= 1).  torsion_vals is empty iff N is pure in M.
    """
    coords = _coords_matrix(n, m)
    if m.rank == 0:
        return [], []
    ring = m.ring
    vals, track = smith_track(ring, m.rank, coords)
    torsion = sorted(v for v in vals if v > 0)
    free_lifts = [linalg.combine(c, m.rows) for c in track[len(vals):]]
    return free_lifts, torsion


def _coords_matrix(n: Lattice, m: Lattice):
    """The coordinates of N's rows in M's basis; LatticeError unless N is a
    sublattice of M."""
    n._check_compatible(m)
    out = []
    for r in n.rows:
        c = m.coords(r)
        if c is None:
            raise LatticeError("N is not contained in M")
        out.append(c)
    return out


def span_of(rows, ambient: int, fld, ring=None):
    """The span of `rows` (each dense or an {index: entry} dict) in the free
    module of rank `ambient`: a canonical Lattice over O when `ring` is
    given, else a linalg.Subspace over `fld`.  A Lattice or Subspace passes
    through unchanged."""
    if isinstance(rows, (Lattice, linalg.Subspace)):
        return rows
    if ring is not None:
        return Lattice.from_rows(ring, ambient, rows)
    return linalg.Subspace.from_rows(fld, ambient, rows)


def stable_span(vectors, maps, ambient: int, fld, ring=None):
    """The smallest span (see `span_of`) that contains the vectors and is
    mapped into itself by each of the linear maps.

    Each round applies the maps only to the rows the previous round added.
    That is exact: the rows the maps have been applied to span the current
    span, so once the maps send them into it they send all of it.
    """
    span = span_of(vectors, ambient, fld, ring)
    frontier = span.rows
    while True:
        new = [w for f in maps for w in map(f, frontier)
               if not span.contains_vector(w)]
        if not new:
            return span
        added = span_of(new, ambient, fld, ring)
        span = span.add(added)
        frontier = added.rows


def coord_solver(rows, fld, ring=None, ncols=None):
    """Coordinates in the basis `rows`: v -> c with v = sum c[i] rows[i], or
    None when there is none (with `ring`, level O: none in O, which for a
    basis is membership in the lattice it spans).  The rows are dense, or
    {index: entry} dicts in a space of `ncols` columns (see linalg.rref);
    v is dense or a dict.  LatticeError if the rows are dependent.  One
    rref of the rows [rows[i] | e_i]: each pivot row [w | T] has
    w = sum T[i] rows[i], and a pivot among the e_i columns is a vanishing
    combination.  With T negated they are the `linalg.eliminate` steps: v
    reduces to c at the columns n + i, and to nothing else iff it lies in
    the span.  So an entry of v at an index >= n is outside at once: it
    would land among the c."""
    rows = list(rows)
    if not rows:
        return lambda v: None if linalg.sparse(v) else []
    k = len(rows)
    n = linalg.row_width(rows, ncols)
    one, zero = fld.one, fld.zero
    aug = [{**linalg.sparse(r), n + i: one} for i, r in enumerate(rows)]
    ech, pivots = linalg.rref(aug, fld, n + k)
    if pivots[-1] >= n:
        raise LatticeError("basis rows are linearly dependent")
    steps = tuple(
        (col, {j: x if j < n else -x for j, x in row.items() if j != col})
        for row, col in zip(ech, pivots))
    in_O = ring.in_O if ring is not None else None

    def coords(v):
        v = linalg.sparse(v)
        if v and max(v) >= n:
            return None
        linalg.eliminate(steps, v)
        if v and min(v) < n:
            return None
        if in_O and not all(map(in_O, v.values())):
            return None
        return [v.get(n + i, zero) for i in range(k)]

    return coords
