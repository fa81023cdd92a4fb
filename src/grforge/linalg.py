"""Exact linear algebra over a field (Q, Q(zeta), or F_p): sparse columns for
linear actions, sparse rows inside elimination, and {index: entry} dicts for
the vectors that one kernel hands to another.

Entries are Fraction, Cyc, or Fp values.  Everything is plain Gaussian
elimination with exact arithmetic; no pivot growth control is needed at desk
scale.

A linear action (a module's action matrices, an algebra's multiplication
matrices) is stored once, by sparse columns (Gustavson, ACM TOMS 1978):
`cols[k]` is a tuple of the (row, entry) pairs of the nonzero entries of
column k, rows increasing, so equal matrices have equal columns.  The
kernels on that form (`apply`, `combine_columns`, `compose`, `trace_form`,
`row_entries`) visit only nonzero entries.  Other matrices (homomorphism
witnesses, Gram matrices) are lists of row lists; `columns` and `dense_rows`
convert at the document boundary.  A vector passed between kernels is the
{index: entry} dict of its nonzero entries (`sparse` makes one from a dense
vector): `apply` and `combine` return one, `flatten` gives a square
matrix's entries as one, and `rref`, `eliminate`, `Subspace` and the
lattices routines take them.  `rref` returns such rows, and the canonical
rows of a span are such dicts; algebra elements stay dense.  `rref` reduces
rows dense or as dicts, `eliminate` reduces a dict against its echelon
rows, `mat_vec` visits only the nonzero entries of its vector, and
`charpoly_mod_p` computes characteristic polynomials over F_p on plain ints
mod p.  Coordinates in a basis come from `lattices.coord_solver`; no inverse
matrix is formed, and no determinant: invertibility is full `rank`, over K,
or over k = O/pi for a unit determinant over O.
"""

from __future__ import annotations


def mat_vec(a, v, field):
    """The column a v for a matrix of row lists; only the nonzero entries of
    v (dense, or a dict; see `sparse`) are visited."""
    z = field.zero
    nonzero = entries(v)
    out = []
    for row in a:
        s = z
        for j, y in nonzero:
            x = row[j]
            if x:
                s = s + x * y
        out.append(s)
    return out


def combine(coeffs, rows):
    """The {index: entry} dict of sum_i coeffs[i] * rows[i], the
    coefficients and each row dense or a dict (see `sparse`); entries that
    cancel are dropped."""
    acc = {}
    for i, c in entries(coeffs):
        for t, x in entries(rows[i]):
            y = acc.get(t)
            acc[t] = c * x if y is None else y + c * x
    return {t: x for t, x in acc.items() if x}


# ---------------------------------------------------------------------------
# linear actions by sparse columns
# ---------------------------------------------------------------------------

def column(v):
    """The sparse column (the (row, entry) pairs of the nonzero entries) of
    a vector, dense or a dict (see `sparse`)."""
    return tuple(sorted(entries(v)))


def _column_of(acc):
    """The sparse column of a {row: entry} accumulator; entries that
    cancelled are dropped."""
    return tuple(sorted((t, x) for t, x in acc.items() if x))


def columns(m):
    """The sparse columns of a matrix given as row lists."""
    return [column(c) for c in zip(*m)]


def dense(col, n, zero):
    """The dense vector of length n with the entries of a sparse column."""
    v = [zero] * n
    for t, x in col:
        v[t] = x
    return v


def dense_rows(cols, nrows, zero):
    """The row lists of a matrix with `nrows` rows given by sparse columns."""
    out = [[zero] * len(cols) for _ in range(nrows)]
    for k, col in enumerate(cols):
        for t, x in col:
            out[t][k] = x
    return out


def flatten(cols):
    """The {index: entry} dict of a square matrix given by sparse columns,
    row by row: entry (r, c) at index r * n + c."""
    n = len(cols)
    return {r * n + c: x for c, col in enumerate(cols) for r, x in col}


def unflatten(v, ncols):
    """The sparse columns of the matrix with `ncols` columns whose entry
    (r, c) is v's entry r * ncols + c (v dense, or a dict; see `sparse`)."""
    cols = [[] for _ in range(ncols)]
    for k, x in sorted(entries(v)):
        r, c = divmod(k, ncols)
        cols[c].append((r, x))
    return [tuple(col) for col in cols]


def apply(cols, v):
    """The {index: entry} dict of A v for a square matrix A given by sparse
    columns: the combination of the columns that the nonzero entries of v
    (dense, or a dict of nonzero entries; see `sparse`) name.  Entries that
    cancel are dropped."""
    acc = {}
    for k, y in entries(v):
        for t, x in cols[k]:
            z = acc.get(t)
            acc[t] = x * y if z is None else z + x * y
    return {t: x for t, x in acc.items() if x}


def combine_columns(coeffs, mats):
    """Sparse columns of sum_i coeffs[i] * mats[i] for equal-size square
    matrices given by sparse columns, the coefficients dense or a dict (see
    `sparse`); zero coefficients are skipped.  The size is that of mats[0]
    (0 for no matrices)."""
    acc = [{} for _ in (mats[0] if mats else ())]
    for i, c in entries(coeffs):
        for d, col in zip(acc, mats[i]):
            for t, x in col:
                y = d.get(t)
                d[t] = c * x if y is None else y + c * x
    return [_column_of(d) for d in acc]


def compose(a, b):
    """Sparse columns of the product a b of matrices given by sparse
    columns: column k is the combination of the columns of a that column k
    of b names.  No dense matrix is formed."""
    out = []
    for col in b:
        d = {}
        for s, y in col:
            for t, x in a[s]:
                z = d.get(t)
                d[t] = x * y if z is None else z + x * y
        out.append(_column_of(d))
    return out


def row_entries(cols, nrows):
    """The rows of a matrix given by sparse columns, each a list of
    (column, entry) pairs: the sparse transpose."""
    rows = [[] for _ in range(nrows)]
    for k, col in enumerate(cols):
        for t, x in col:
            rows[t].append((k, x))
    return rows


def trace_form(mats, field):
    """The Gram matrix [tr(M_i M_j)] of square matrices given by sparse
    columns.  tr(A B) is the sum of A[t][s] B[s][t] over the nonzero entries
    of the sparser factor, so no product is formed."""
    entries = [{(t, s): x for s, col in enumerate(m) for t, x in col}
               for m in mats]
    n = len(mats)
    g = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            small, big = entries[i], entries[j]
            if len(big) < len(small):
                small, big = big, small
            s = field.zero
            for (t, u), x in small.items():
                y = big.get((u, t))
                if y is not None:
                    s = s + x * y
            g[i][j] = g[j][i] = s
    return g


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def rref(rows, field, ncols=None):
    """Reduced row echelon form.  Returns (echelon_rows, pivot_columns).

    Zero rows are dropped; the result spans the same row space.  Rows are
    equal-length sequences, or, when `ncols` is given, dense rows of that
    length or {column: entry} dicts of nonzero entries (see `sparse`) in a
    space of `ncols` columns (ValueError without: a dict's length is not its
    width).  Each echelon row is the dict of its nonzero entries, keys
    increasing, so that its pivot entry, one, comes first.

    Each row is reduced as a {column: nonzero entry} dict against the pivot
    rows found so far, which are kept fully reduced: a pivot row is zero in
    every other pivot column, and it is stored without its pivot entry, which
    is one.  So reducing a row needs one pass over the pivot columns where it
    is nonzero, and a new pivot row (pivot at its first nonzero column) is
    eliminated from the earlier pivot rows at once.  A pivot row never gains
    an entry left of its pivot, so sorting by pivot gives the reduced row
    echelon form, which is unique.
    """
    rows = list(rows)
    width = row_width(rows, ncols)
    piv = {}
    for r in rows:
        s = sparse(r)
        for c in s.keys() & piv.keys():
            sub_multiple(s, s.pop(c), piv[c])
        if not s:
            continue
        col = min(s)
        inv = field.one / s.pop(col)
        s = {j: inv * x for j, x in s.items()}
        for q in piv.values():
            c = q.pop(col, None)
            if c is not None:
                sub_multiple(q, c, s)
        piv[col] = s
        if len(piv) == width:
            break
    pivots = sorted(piv)
    return [{col: field.one, **dict(sorted(piv[col].items()))}
            for col in pivots], pivots


def sub_multiple(s, c, q):
    """s -= c * q in place, for sparse rows s and q; entries that cancel are
    removed."""
    for j, y in q.items():
        x = s.get(j)
        if x is None:
            s[j] = -(c * y)
        else:
            x = x - c * y
            if x:
                s[j] = x
            else:
                del s[j]


def entries(v):
    """The (index, entry) pairs of the nonzero entries of a vector, dense or
    a dict (see `sparse`)."""
    if isinstance(v, dict):
        return v.items()
    return [(j, x) for j, x in enumerate(v) if x]


def sparse(v):
    """A fresh {index: entry} dict of the nonzero entries of a dense vector,
    or a copy of such a dict."""
    return dict(entries(v))


def row_width(rows, ncols=None):
    """`ncols` when given, else the length of the dense rows (0 for none);
    ValueError for dict rows without `ncols`, as in `rref`."""
    if ncols is not None:
        return ncols
    if any(isinstance(r, dict) for r in rows):
        raise ValueError("{index: entry} rows need ncols")
    return len(rows[0]) if rows else 0


def eliminate(steps, v):
    """Reduce the {index: entry} vector v in place against echelon rows
    with unit pivots, given as (pivot column, {column: entry} right of the
    pivot) pairs in pivot order, by rref's step.  Returns the entry met at
    each pivot (None where v had none); v is left as the remainder."""
    met = []
    for col, tail in steps:
        x = v.pop(col, None)
        if x is not None and tail:
            sub_multiple(v, x, tail)
        met.append(x)
    return met


def rank(rows, field, ncols=None):
    return len(rref(rows, field, ncols)[0])


class Subspace:
    """A subspace of F^ambient in canonical form: its rref rows (dicts, see
    `rref`) and pivots.

    The field-level counterpart of lattices.Lattice, with the same protocol
    (`rows`, `rank`, `contains_vector`, `contains_lattice`, `coords`, `add`,
    `intersection`, `quotient`, `lifts_over`, ==).  Two subspaces are
    equal iff their rref rows are equal.
    """

    __slots__ = ("fld", "ambient", "rows", "pivots", "_reducer")

    def __init__(self, fld, ambient: int, rows, pivots):
        self.fld = fld
        self.ambient = ambient
        self.rows = rows      # rref rows, pivot columns increasing
        self.pivots = pivots
        self._reducer = None

    @staticmethod
    def from_rows(fld, ambient: int, rows) -> "Subspace":
        """The span of rows, each dense or an {index: entry} dict."""
        return Subspace(fld, ambient, *rref(rows, fld, ambient))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.fld == other.fld
                and self.ambient == other.ambient and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(rank {self.rank} in F^{self.ambient})"

    def _steps(self):
        """The `eliminate` steps of the rref rows, built once per subspace."""
        if self._reducer is None:
            self._reducer = tuple(
                (col, {j: x for j, x in row.items() if j != col})
                for row, col in zip(self.rows, self.pivots))
        return self._reducer

    def reduce(self, vec):
        """The remainder of vec (dense, or a dict; see `sparse`) modulo the
        span, as the {index: entry} dict of its nonzero entries."""
        v = sparse(vec)
        eliminate(self._steps(), v)
        return v

    def contains_vector(self, vec) -> bool:
        return not self.reduce(vec)

    def coords(self, vec):
        """Coordinates of vec in the rref basis (its entries at the pivots),
        or None if vec is outside."""
        v = sparse(vec)
        met = eliminate(self._steps(), v)
        return None if v else [self.fld.zero if x is None else x for x in met]

    def contains_lattice(self, other) -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def add(self, other) -> "Subspace":
        return Subspace.from_rows(self.fld, self.ambient,
                                  self.rows + other.rows)

    def intersection(self, other) -> "Subspace":
        """{v : v in self and v in other}: the combinations of self's rows
        that the left kernel of the stacked rows gives."""
        if not self.rank or not other.rank:
            return Subspace(self.fld, self.ambient, [], [])
        ker = kernel_left(self.rows + other.rows, self.fld, self.ambient)
        return Subspace.from_rows(
            self.fld, self.ambient,
            [combine(z[:self.rank], self.rows) for z in ker])

    def quotient(self):
        """(lifts, torsion, project) of F^ambient / self: the unit vectors
        off the pivot columns (as dicts) lift a basis, there is no torsion,
        and the image of v has as coordinates the entries of `reduce(v)` at
        those columns.  No elimination is run."""
        z, o = self.fld.zero, self.fld.one
        pivots = set(self.pivots)
        free = [j for j in range(self.ambient) if j not in pivots]
        lifts = [{j: o} for j in free]

        def project(v):
            r = self.reduce(v)
            return [r.get(j, z) for j in free]

        return lifts, [], project

    def lifts_over(self, sub):
        """(lifts, torsion) of self / sub for a subspace sub of self: each
        row of self in turn, reduced modulo sub and the lifts kept so far,
        is kept when the remainder is nonzero.  No torsion."""
        cur = sub
        lifts = []
        for row in self.rows:
            rem = cur.reduce(row)
            if rem:
                lifts.append(dense(rem.items(), self.ambient, self.fld.zero))
                cur = Subspace.from_rows(self.fld, self.ambient,
                                         cur.rows + lifts[-1:])
        return lifts, []


def solve_right(a, b, field, ncols=None):
    """One solution x of a x = b (column vector), or None.  The rows of a
    are dense, or {column: entry} dicts with `ncols` columns (see rref)."""
    m = row_width(a, ncols)
    aug = [{**sparse(row), m: y} if y else sparse(row)
           for row, y in zip(a, b)]
    ech, pivots = rref(aug, field, m + 1)
    x = [field.zero] * m
    for row, col in zip(ech, pivots):
        if col == m:
            return None
        x[col] = row.get(m, field.zero)
    return x


def kernel_right(a, field, ncols=None):
    """Basis of the right kernel {x : a x = 0}.  The rows of a are dense, or
    {column: entry} dicts with `ncols` columns (see rref)."""
    m = row_width(a, ncols)
    ech, pivots = rref(a, field, m)
    pivset = set(pivots)
    free = [j for j in range(m) if j not in pivset]
    basis = []
    for f in free:
        x = [field.zero] * m
        x[f] = field.one
        for row, col in zip(ech, pivots):
            y = row.get(f)
            if y is not None:
                x[col] = -y
        basis.append(x)
    return basis


def kernel_left(a, field, ncols=None):
    """Basis of the left kernel {y : y a = 0}; rows as in kernel_right."""
    cols = row_entries([entries(r) for r in a], row_width(a, ncols))
    return kernel_right([dict(c) for c in cols], field, len(a))


def charpoly_mod_p(h, p):
    """Characteristic polynomial coefficients [c_0=1, c_1, ..., c_n] of a
    square matrix h of ints in [0, p): det(tI - h) = t^n + c_1 t^(n-1) + ...
    + c_n, as ints in [0, p), by the Hessenberg method; h is overwritten.
    Only the char-p radical needs it: in characteristic 0 the radical is the
    kernel of the trace form."""
    n = len(h)
    # similarity transforms to upper Hessenberg form
    for col in range(n - 2):
        piv = next((i for i in range(col + 1, n) if h[i][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            h[col + 1], h[piv] = h[piv], h[col + 1]
            for r in h:
                r[col + 1], r[piv] = r[piv], r[col + 1]
        top = h[col + 1]
        inv = pow(top[col], -1, p)
        for i in range(col + 2, n):
            if h[i][col]:
                c = h[i][col] * inv % p
                h[i] = [(x - c * y) % p for x, y in zip(h[i], top)]
                for r in h:
                    r[col + 1] = (r[col + 1] + c * r[i]) % p
    # p_k = charpoly of the leading k x k block, highest degree first
    polys = [[1]]
    for k in range(1, n + 1):
        cur = polys[k - 1] + [0]
        d = h[k - 1][k - 1]
        for i, c in enumerate(polys[k - 1]):
            cur[i + 1] -= d * c
        prod = 1
        for m in range(1, k):
            prod = prod * h[k - m][k - m - 1] % p
            if not prod:
                break
            coef = h[k - m - 1][k - 1] * prod % p
            if coef:
                for i, c in enumerate(polys[k - m - 1]):
                    cur[i + m + 1] -= coef * c
        polys.append([c % p for c in cur])
    return polys[n]
