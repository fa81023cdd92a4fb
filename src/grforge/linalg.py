"""Exact linear algebra over a field (Q, Q(zeta), or F_p): dense matrices at
the boundary, sparse rows inside.

Matrices are lists of row lists; entries are Fraction, Cyc, or Fp values.
Everything is plain Gaussian elimination with exact arithmetic; no pivot
growth control is needed at desk scale.  The systems built from structure
constants are mostly zeros, so `rref` and `mat_vec` touch only nonzero
entries, and `charpoly` over F_p runs on plain ints mod p.
"""

from __future__ import annotations

from .scalars import Fp, PrimeField, ScalarError


def mat_copy(m):
    return [list(r) for r in m]


def identity(field, n):
    z, o = field.zero, field.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(a, b, field):
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    z = field.zero
    out = [[z] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(m):
                    if bk[j]:
                        oi[j] = oi[j] + x * bk[j]
    return out


def mat_vec(a, v, field):
    """The column a v; only the nonzero entries of v are visited."""
    z = field.zero
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in a:
        s = z
        for j, y in nonzero:
            x = row[j]
            if x:
                s = s + x * y
        out.append(s)
    return out


def combine(coeffs, rows, zero):
    """The vector sum_i coeffs[i] * rows[i]; zero coefficients and entries
    are skipped.  The length is that of the rows (0 for no rows)."""
    v = [zero] * (len(rows[0]) if rows else 0)
    for c, row in zip(coeffs, rows):
        if c:
            for t, x in enumerate(row):
                if x:
                    v[t] = v[t] + c * x
    return v


def combine_matrices(coeffs, mats, zero):
    """The matrix sum_i coeffs[i] * mats[i] of equal-shape matrices; zero
    coefficients and entries are skipped.  The shape is that of mats[0]
    (0 x 0 for no matrices)."""
    nrows = len(mats[0]) if mats else 0
    ncols = len(mats[0][0]) if nrows else 0
    out = [[zero] * ncols for _ in range(nrows)]
    for c, m in zip(coeffs, mats):
        if c:
            for row, orow in zip(m, out):
                for col, x in enumerate(row):
                    if x:
                        orow[col] = orow[col] + c * x
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def rref(rows, field):
    """Reduced row echelon form.  Returns (echelon_rows, pivot_columns).

    Zero rows are dropped; the result spans the same row space.  Rows may be
    any iterable of equal-length sequences.

    Each row is reduced as a {column: nonzero entry} dict against the pivot
    rows found so far, which are kept fully reduced: a pivot row is zero in
    every other pivot column, and it is stored without its pivot entry, which
    is one.  So reducing a row needs one pass over the pivot columns where it
    is nonzero, and a new pivot row (pivot at its first nonzero column) is
    eliminated from the earlier pivot rows at once.  A pivot row never gains
    an entry left of its pivot, so sorting by pivot gives the reduced row
    echelon form, which is unique.
    """
    ncols = 0
    piv = {}
    for r in rows:
        ncols = len(r)
        s = {j: x for j, x in enumerate(r) if x}
        for c in s.keys() & piv.keys():
            _sub_multiple(s, s.pop(c), piv[c])
        if not s:
            continue
        col = min(s)
        inv = field.one / s.pop(col)
        s = {j: inv * x for j, x in s.items()}
        for q in piv.values():
            c = q.pop(col, None)
            if c is not None:
                _sub_multiple(q, c, s)
        piv[col] = s
        if len(piv) == ncols:
            break
    pivots = sorted(piv)
    z, o = field.zero, field.one
    out = []
    for col in pivots:
        row = [z] * ncols
        row[col] = o
        for j, x in piv[col].items():
            row[j] = x
        out.append(row)
    return out, pivots


def _sub_multiple(s, c, q):
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


def rank(rows, field):
    return len(rref(rows, field)[0])


def in_row_space(v, ech, pivots):
    """Reduce v against an rref basis; return the remainder."""
    v = list(v)
    for row, col in zip(ech, pivots):
        if v[col]:
            c = v[col]
            for j in range(len(v)):
                if row[j]:
                    v[j] = v[j] - c * row[j]
    return v


def coords_in_row_space(v, ech, pivots):
    """Coordinates of v in the rref basis, or None if v is outside."""
    v = list(v)
    cs = []
    for row, col in zip(ech, pivots):
        c = v[col]
        cs.append(c)
        if c:
            for j in range(len(v)):
                if row[j]:
                    v[j] = v[j] - c * row[j]
    if any(v):
        return None
    return cs


class Subspace:
    """A subspace of F^ambient in canonical form: its rref rows and pivots.

    The field-level counterpart of lattices.Lattice, with the same protocol
    (`rows`, `rank`, `contains_vector`, `contains_lattice`, `coords`, `add`,
    `intersection`, `quotient_lifts`, `lifts_over`, ==).  Two subspaces are
    equal iff their rref rows are equal.
    """

    __slots__ = ("fld", "ambient", "rows", "pivots")

    def __init__(self, fld, ambient: int, rows, pivots):
        self.fld = fld
        self.ambient = ambient
        self.rows = rows      # rref rows, pivot columns increasing
        self.pivots = pivots

    @staticmethod
    def from_rows(fld, ambient: int, rows) -> "Subspace":
        return Subspace(fld, ambient, *rref(rows, fld))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.fld == other.fld
                and self.ambient == other.ambient and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(rank {self.rank} in F^{self.ambient})"

    def reduce(self, vec):
        return in_row_space(vec, self.rows, self.pivots)

    def contains_vector(self, vec) -> bool:
        return not any(self.reduce(vec))

    def coords(self, vec):
        """Coordinates of vec in the rref basis, or None if vec is outside."""
        return coords_in_row_space(vec, self.rows, self.pivots)

    def contains_lattice(self, other) -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def add(self, other) -> "Subspace":
        return Subspace.from_rows(self.fld, self.ambient,
                                  self.rows + list(other.rows))

    def intersection(self, other) -> "Subspace":
        """{v : v in self and v in other}: the combinations of self's rows
        that the left kernel of the stacked rows gives."""
        if not self.rank or not other.rank:
            return Subspace(self.fld, self.ambient, [], [])
        ker = kernel_left(self.rows + list(other.rows), self.fld)
        return Subspace.from_rows(
            self.fld, self.ambient,
            [combine(z, self.rows, self.fld.zero) for z in ker])

    def quotient_lifts(self):
        """(lifts, torsion): the unit vectors off the pivot columns, which
        lift a basis of F^ambient / self, and no torsion."""
        z, o = self.fld.zero, self.fld.one
        pivots = set(self.pivots)
        lifts = [[o if t == j else z for t in range(self.ambient)]
                 for j in range(self.ambient) if j not in pivots]
        return lifts, []

    def lifts_over(self, sub):
        """(lifts, torsion) of self / sub for a subspace sub of self: each
        row of self in turn, reduced modulo sub and the lifts kept so far,
        is kept when the remainder is nonzero.  No torsion."""
        cur = sub
        lifts = []
        for row in self.rows:
            rem = cur.reduce(row)
            if any(rem):
                lifts.append(rem)
                cur = Subspace.from_rows(self.fld, self.ambient,
                                         cur.rows + [rem])
        return lifts, []


def solve_right(a, b, field):
    """One solution x of a x = b (column vector), or None."""
    n, m = len(a), len(a[0])
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    ech, pivots = rref(aug, field)
    x = [field.zero] * m
    for row, col in zip(ech, pivots):
        if col == m:
            return None
        x[col] = row[m]
    return x


def kernel_right(a, field):
    """Basis of the right kernel {x : a x = 0}."""
    m = len(a[0]) if a else 0
    ech, pivots = rref(a, field)
    pivset = set(pivots)
    free = [j for j in range(m) if j not in pivset]
    basis = []
    for f in free:
        x = [field.zero] * m
        x[f] = field.one
        for row, col in zip(ech, pivots):
            x[col] = -row[f]
        basis.append(x)
    return basis


def kernel_left(a, field):
    """Basis of the left kernel {y : y a = 0}."""
    return kernel_right(transpose(a), field)


def invert(a, field):
    """Inverse matrix, or None if singular."""
    n = len(a)
    aug = [list(r) + e for r, e in zip(a, identity(field, n))]
    ech, pivots = rref(aug, field)
    if len(ech) < n or pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]


def det(a, field):
    """Determinant by fraction-free-ish Gaussian elimination (exact fields)."""
    n = len(a)
    m = mat_copy(a)
    d = field.one
    sign = 1
    for col in range(n):
        piv = None
        for i in range(col, n):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            return field.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d = d * m[col][col]
        inv = field.one / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                c = m[i][col] * inv
                for j in range(col, n):
                    if m[col][j]:
                        m[i][j] = m[i][j] - c * m[col][j]
    return d if sign == 1 else -d


def charpoly(a, field):
    """Characteristic polynomial coefficients [c_0=1, c_1, ..., c_n] of a
    square matrix over F_p (a PrimeField): det(tI - a) = t^n + c_1 t^(n-1)
    + ... + c_n.  Only the char-p radical needs it: in characteristic 0 the
    radical is the kernel of the trace form.
    """
    if not isinstance(field, PrimeField):
        raise ScalarError(f"charpoly is computed over F_p only, not {field}")
    p = field.p
    return [Fp(p, c) for c in charpoly_mod_p([[x.v for x in r] for r in a], p)]


def charpoly_mod_p(h, p):
    """`charpoly` of a square matrix of ints in [0, p), as ints in [0, p),
    by the Hessenberg method; h is overwritten."""
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
