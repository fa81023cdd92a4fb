"""Radicals, semisimple splitting, and Wedderburn complements at field level.

The radical of a field-level algebra comes with its proof, built once per
algebra (`_radical_proof`): the chain [rad, rad^2, ..., 0].  A candidate is
checked once to be an ideal, and its power chain reaching 0 is the
nilpotency proof; `radical_field` reads the head of the chain and
`radical_chain` puts the whole algebra in front of it.  The candidates:

* char 0: the kernel of the trace form tr(L_x L_y) (Dickson); the trace form
  must also be nondegenerate on the quotient.
* char p (prime field): the trace-form kernel, then the Friedl-Ronyai
  stages {x in I : g(x b_j) = 0 for every basis element b_j} of the last
  ideal I, g = c_(p^i)(L_-), p^i <= rank: g is F_p-linear on I (Ronyai
  1990), so a stage takes one charpoly per row of I, on ints mod p.  Each
  stage contains the radical, so the first that is nilpotent IS the radical;
  a candidate that is not an ideal raises InternalCheckError.

A power chain S, S^2, ... of any span stops early once S^(k+1) = S^k, since
S^(k+2) = S^(k+1) S then repeats it: a span that is not nilpotent costs only
the powers up to where they settle.

Splitting a split semisimple algebra uses module characters: given enough
simple modules to separate the blocks, central primitive idempotents come out
of a linear solve (characters of a commutative split semisimple algebra are
linearly independent), and `split_semisimple` returns each block with its
matrix units, pulled back through the exact block action on a simple module.
`matrix_units` is the one route to units of any field algebra: it splits a
semisimple algebra directly, and otherwise splits A/rad and lifts the units
to exactly orthogonal ones of A (a Wedderburn complement spans them).  No
idempotent lifting over O and no polynomial factorization over number fields
is ever attempted.
"""

from __future__ import annotations

from . import linalg
from .algebra import AlgebraError, StructureAlgebra
from .lattices import LatticeError, coord_solver
from .scalars import InternalCheckError


class NonSplitError(AlgebraError):
    """The algebra (or a quotient) is not split over its field, or the
    implemented splitting routes cannot certify it."""


# ---------------------------------------------------------------------------
# subspace helpers (field level)
# ---------------------------------------------------------------------------

def is_ideal(alg, rows) -> bool:
    span = alg.span(rows)
    return (span.contains_lattice(alg.left_ideal(span.rows))
            and span.contains_lattice(alg.right_ideal(span.rows)))


def _subspace_powers(alg, rows, n):
    """[S, S^2, ..., S^m] for S the span of the rows, m <= n: cut after the
    first power that is 0, and before the first S^(k+1) equal to S^k, since
    S^(k+2) = S^(k+1) S then repeats S^(k+1).  The span is nilpotent iff the
    last power is 0 (for n > rank, a nilpotent span has S^n = 0)."""
    base = alg.span(rows)
    powers = [base]
    while len(powers) < n and powers[-1].rank:
        nxt = alg.product_span(powers[-1].rows, base.rows)
        if nxt == powers[-1]:
            break
        powers.append(nxt)
    return powers


# ---------------------------------------------------------------------------
# the radical
# ---------------------------------------------------------------------------

def trace_gram(alg):
    """The trace form tr(L_i L_j) on the basis, from the sparse columns of
    the left multiplication matrices."""
    return linalg.trace_form([alg.left_mult_matrix(i) for i in range(alg.rank)],
                             alg.fld)


def radical_field(alg: StructureAlgebra):
    """Basis rows (rref) of the Jacobson radical of a field-level algebra:
    the head of its proof chain."""
    return alg._derived(_radical_proof)[0].rows


def radical_chain(alg: StructureAlgebra):
    """[rad^0, rad^1, ..., 0] of a field-level algebra as linalg.Subspaces.
    rad^0 is the whole algebra, and len(chain) - 1 is the nilpotency degree:
    the least L with rad^L = 0."""
    whole = alg.span([alg.basis_vec(i) for i in range(alg.rank)])
    return [whole] + alg._derived(_radical_proof)


def _radical_proof(alg):
    """[rad, rad^2, ..., 0] as linalg.Subspaces, built and checked once per
    algebra: the candidate is an ideal, and its power chain reaching 0 is
    the nilpotency proof.  In char p a candidate that is not nilpotent is
    replaced by the next Friedl-Ronyai stage; in char 0 the trace form must
    also be nondegenerate on the quotient (Dickson)."""
    if alg.level == "O":
        raise AlgebraError("radical_field expects a K- or k-level algebra")
    fld = alg.fld
    # the trace form is symmetric: its right kernel is its left kernel
    candidate = linalg.kernel_right(trace_gram(alg), fld)
    power = 1
    while True:
        # spanned once here: is_ideal and _subspace_powers pass it through
        candidate = alg.span(candidate)
        # the trace-form kernel and every stage of an ideal are ideals
        if not is_ideal(alg, candidate):
            raise InternalCheckError("radical candidate is not an ideal")
        chain = _subspace_powers(alg, candidate, alg.rank + 1)
        if not chain[-1].rank:
            break
        # the stages c_(p^i) for p^i <= rank end at the radical
        if fld.char == 0 or power * fld.char > alg.rank:
            raise AlgebraError("radical candidate is not a nilpotent ideal")
        power *= fld.char
        ideal = chain[0]
        ker = linalg.kernel_right(_fr_form(alg, ideal, power), fld, ideal.rank)
        candidate = [linalg.combine(c, ideal.rows) for c in ker]
    if fld.char == 0:
        quot, _, _ = alg.quotient_by_ideal(chain[0].rows)
        if linalg.rank(trace_gram(quot), fld) < quot.rank:
            raise AlgebraError("trace form degenerate on the quotient")
    return chain


def _fr_form(alg, ideal, power):
    """The matrix [g(z_k b_j)] of the Friedl-Ronyai stage c_power on an
    ideal I (a linalg.Subspace with rref rows z_k), g(z) = c_power(L_z), by
    its n columns {k: entry} over F_p; its left kernel is the next stage.
    g is linear on I: one charpoly per row, on ints mod p, gives its values
    g_m on the rows.  Each z_k b_j lies in I with coordinates its entries at
    the unit pivots c_m, so g(z_k b_j) = sum_m L_(z_k)[c_m][j] g_m."""
    fld = alg.fld
    p, n = fld.p, alg.rank
    at = {c: m for m, c in enumerate(ideal.pivots)}
    mats = [[[(r, x.v) for r, x in col] for col in alg.left_mult_of(z)]
            for z in ideal.rows]
    g = [linalg.charpoly_mod_p(linalg.dense_rows(cols, n, 0), p)[power]
         for cols in mats]
    form = [{} for _ in range(n)]
    for k, cols in enumerate(mats):
        for j, col in enumerate(cols):
            y = sum(x * g[at[r]] for r, x in col if r in at) % p
            if y:
                form[j][k] = fld.of(y)
    return form


# ---------------------------------------------------------------------------
# the center
# ---------------------------------------------------------------------------

def center_rows(alg):
    """Basis rows (rref) of the center: the x with g x = x g for every g in
    the algebra's generating set, which makes x central."""
    fld = alg.fld
    stacked = []
    for g in alg.generating_set():
        commutator = linalg.combine_columns(
            [fld.one, -fld.one], [alg.left_mult_of(g), alg.right_mult_of(g)])
        stacked += [dict(r) for r in linalg.row_entries(commutator, alg.rank)]
    return linalg.rref(linalg.kernel_right(stacked, fld, alg.rank), fld)[0]


def central_character(center, acts, fld):
    """The scalars by which the center rows act on a nonzero module with
    action matrices `acts` (sparse columns), or None when one of them acts
    as a non-scalar (or the module is zero)."""
    dim = len(acts[0]) if acts else 0
    if not dim:
        return None
    chi = []
    for zb in center:
        a = linalg.combine_columns(zb, acts)
        scal = dict(a[0]).get(0, fld.zero)
        if a != [((k, scal),) if a[0] else () for k in range(dim)]:
            return None
        chi.append(scal)
    return chi


# ---------------------------------------------------------------------------
# splitting a (semisimple) algebra through module characters
# ---------------------------------------------------------------------------

class Block:
    """One matrix block of a split semisimple algebra."""

    def __init__(self, label, central_idempotent, simple_dim, module_acts):
        self.label = label
        self.central_idempotent = central_idempotent  # algebra coordinates
        self.simple_dim = simple_dim
        self.module_acts = module_acts  # the simple module's sparse columns
        self.matrix_units = None        # dict (i, j) -> algebra coordinates

    def __repr__(self):
        return f"Block({self.label!r}, dim {self.simple_dim})"


def split_semisimple(alg, modules):
    """Split a semisimple field algebra into matrix blocks.

    `modules` is an iterable of (label, acts) with acts the action matrices
    (sparse columns) of a module that is expected to be simple; they must jointly separate (cover)
    all blocks.  The first module of each central character names its block;
    reading stops at the m-th character, m = dim of the center.
    Returns a list of Block with verified central idempotents and matrix units.
    """
    fld = alg.fld
    z = center_rows(alg)
    m = len(z)
    chars = []
    for label, acts in modules:
        acts = getattr(acts, "acts", acts)  # ModuleRep or raw matrices
        vec = central_character(z, acts, fld)
        if vec is None:
            # zero, or not simple: unusable for splitting
            continue
        if tuple(vec) not in {tuple(c) for (c, _, _) in chars}:
            chars.append((vec, label, acts))
            if len(chars) == m:
                break  # distinct characters are independent: at most m
    if len(chars) != m:
        raise NonSplitError(
            f"modules separate {len(chars)} of {m} central characters")
    blocks = []
    # chi_b(e) = sum_s coef_s chi_b(z_s) = [b == idx]: coef is the coordinate
    # vector of the unit vector at idx in the rows (chi_b(z_s))_b, one per s
    try:
        coords = coord_solver([[c[s] for (c, _, _) in chars]
                               for s in range(m)], fld)
    except LatticeError as exc:
        raise NonSplitError(
            "central characters are linearly dependent") from exc
    for idx, (vec, label, acts) in enumerate(chars):
        target = [fld.one if t == idx else fld.zero for t in range(m)]
        e = linalg.combine(coords(target), z)  # an algebra element: dense
        e = [e.get(t, fld.zero) for t in range(alg.rank)]
        if alg.mul(e, e) != e:
            raise NonSplitError("central idempotent solve failed")
        dim = len(acts[0])
        blocks.append(Block(label, e, dim, acts))
    # orthogonality + completeness
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            prod = alg.mul(list(blocks[a].central_idempotent),
                           list(blocks[b].central_idempotent))
            if any(prod):
                raise NonSplitError("central idempotents not orthogonal")
    total = [fld.zero] * alg.rank
    for b in blocks:
        total = [x + y for x, y in zip(total, b.central_idempotent)]
    if list(alg.unit) != total:
        raise NonSplitError("central idempotents do not sum to 1")
    # dimension audit: sum of (dim simple)^2 must be the algebra dimension
    if sum(b.simple_dim ** 2 for b in blocks) != alg.rank:
        raise NonSplitError("block dimensions do not add up: not split")
    for blk in blocks:
        blk.matrix_units = _block_matrix_units(alg, blk)
    return blocks


def _block_matrix_units(alg, block: Block):
    """Matrix units of one block, pulled back through the simple module.

    The block e_b * alg acts faithfully on its simple module; units are the
    preimages of the elementary matrices in a fixed module basis.
    """
    fld = alg.fld
    d = block.simple_dim
    e = list(block.central_idempotent)
    sub = alg.corner(e).rows
    if len(sub) != d * d:
        raise NonSplitError(
            f"block {block.label!r} has dimension {len(sub)}, not {d * d}")
    # action matrices of the block basis, flattened; the unit E_ij is the
    # combination of the basis with the coordinates of the elementary
    # matrix (the unit vector at i * d + j) in those flattened matrices
    flat = [linalg.flatten(linalg.combine_columns(v, block.module_acts))
            for v in sub]
    try:
        coords = coord_solver(flat, fld, ncols=d * d)
    except LatticeError as exc:
        raise NonSplitError(
            "module action is not surjective on the block") from exc
    units = {(i, j): [u.get(t, fld.zero) for t in range(alg.rank)]
             for i in range(d) for j in range(d)
             for u in [linalg.combine(coords({i * d + j: fld.one}), sub)]}
    if not matrix_units_hold(
            alg, {(0, i, j): u for (i, j), u in units.items()}, e):
        raise NonSplitError("matrix unit relations fail")
    return units


def matrix_units_hold(alg, units, total) -> bool:
    """Do the units, keyed (block, i, j), multiply as matrix units
    (u_bij u_bkl = u_bil if j == k, else 0, and 0 across blocks), with the
    diagonal units summing to `total`?"""
    zero = [alg.fld.zero] * alg.rank
    diag = zero
    for (b, i, j), u in units.items():
        for (c, k, l), v in units.items():
            expect = units[(b, i, l)] if b == c and j == k else zero
            if alg.mul(list(u), list(v)) != list(expect):
                return False
        if i == j:
            diag = [x + y for x, y in zip(diag, u)]
    return diag == list(total)


def matrix_units(alg, modules):
    """Blocks of alg/rad and matrix units of alg lifting theirs.

    `modules` feeds the splitting (see split_semisimple).  With rad = 0 the
    algebra is split directly; otherwise alg/rad is split and its units are
    lifted.  Returns (blocks, units), units a dict (block_index, i, j) ->
    coordinates in alg of exactly orthogonal units whose diagonal sums to 1;
    read units from this dict, not from the blocks, which live in alg/rad.
    """
    rad = radical_field(alg)
    if not rad:
        blocks = split_semisimple(alg, modules)
        return blocks, {(bi, i, j): u for bi, blk in enumerate(blocks)
                        for (i, j), u in blk.matrix_units.items()}
    quot, lifts, _ = alg.quotient_by_ideal(rad)
    blocks = split_semisimple(quot, quotient_modules(alg, lifts, modules))
    return blocks, _lift_matrix_units(alg, lifts, blocks)


# ---------------------------------------------------------------------------
# Wedderburn complements (field level)
# ---------------------------------------------------------------------------

def _newton_idempotent(alg, x):
    """Iterate x <- 3x^2 - 2x^3 until exactly idempotent (defect nilpotent)."""
    for _ in range(alg.rank + 2):
        sq = alg.mul(x, x)
        if sq == x:
            return x
        cube = alg.mul(sq, x)
        x = [a * 3 - b * 2 for a, b in zip(sq, cube)]
    raise AlgebraError("idempotent iteration did not converge")


def _corner_inverse(alg, e, x):
    """Inverse of x inside the corner algebra e A e (unit e); x = e - j, j nilpotent."""
    j = linalg.combine([alg.fld.one, -alg.fld.one], [e, x])
    out = list(e)
    term = list(e)
    for _ in range(alg.rank + 1):
        term = alg.mul(term, j)
        if not any(term):
            break
        out = [a + b for a, b in zip(out, term)]
    if alg.mul(out, x) != list(e):
        raise InternalCheckError("corner inverse failed")
    return out


def _lift_matrix_units(alg, lifts, blocks):
    """Lift the matrix units of the semisimple quotient to the algebra.

    `lifts` comes from alg.quotient_by_ideal(rad) and `blocks` from splitting
    that quotient.  Returns a dict (block_index, i, j) -> algebra coordinate
    vector of exactly orthogonal lifted units spanning a Wedderburn complement.
    """
    fld = alg.fld

    def lift_vec(qv):
        return linalg.combine(qv, lifts)

    # 1. lift all diagonal units to orthogonal idempotents, sequentially
    diag = {}
    done = [fld.zero] * alg.rank  # sum of lifted idempotents so far
    for bi, blk in enumerate(blocks):
        for i in range(blk.simple_dim):
            y = lift_vec(blk.matrix_units[(i, i)])
            comp = [a - b for a, b in zip(alg.unit, done)]
            y = alg.mul(comp, alg.mul(y, comp))
            e = _newton_idempotent(alg, y)
            diag[(bi, i)] = e
            done = [a + b for a, b in zip(done, e)]

    # 2. lift off-diagonal units within each block and correct exactly
    units = {}
    for bi, blk in enumerate(blocks):
        d = blk.simple_dim
        e1 = diag[(bi, 0)]
        units[(bi, 0, 0)] = e1
        for i in range(1, d):
            ei = diag[(bi, i)]
            u = alg.mul(e1, alg.mul(lift_vec(blk.matrix_units[(0, i)]), ei))
            v = alg.mul(ei, alg.mul(lift_vec(blk.matrix_units[(i, 0)]), e1))
            uv = alg.mul(u, v)  # = e1 - j with j nilpotent in e1 A e1
            w = alg.mul(v, _corner_inverse(alg, e1, uv))
            if alg.mul(u, w) != e1:
                raise InternalCheckError("lifted matrix unit is not invertible")
            if alg.mul(w, u) != ei:
                raise InternalCheckError(
                    "corner idempotent drifted during lifting")
            units[(bi, 0, i)] = u
            units[(bi, i, 0)] = w
            units[(bi, i, i)] = ei
        for i in range(1, d):
            for j in range(1, d):
                if i != j:
                    units[(bi, i, j)] = alg.mul(units[(bi, i, 0)], units[(bi, 0, j)])
    if not matrix_units_hold(alg, units, alg.unit):
        raise InternalCheckError("lifted matrix unit relations fail")
    return units


def wedderburn_complement(alg, modules, contain=None):
    """A semisimple subalgebra S with alg = S (+) rad as vector spaces.

    `modules` feeds the splitting of alg/rad (see split_semisimple).  With
    `contain` (rows spanning a semisimple unital subalgebra), the returned
    complement contains it, by Malcev conjugation.
    """
    rad = radical_field(alg)
    if not rad:
        return [alg.basis_vec(i) for i in range(alg.rank)]
    _, units = matrix_units(alg, modules)
    s_rows = alg.span(list(units.values())).rows
    if contain is not None:
        s_rows = _malcev_enlarge(alg, s_rows, contain)
    _verify_complement(alg, s_rows, rad)
    if contain is not None and not alg.span(s_rows).contains_lattice(
            alg.span(contain)):
        raise InternalCheckError(
            "complement does not contain the requested subalgebra")
    return s_rows


def _verify_complement(alg, s_rows, rad):
    span = alg.span(s_rows)
    if span.rank + len(rad) != alg.rank:
        raise InternalCheckError("complement has wrong dimension")
    both = alg.span([*s_rows, *rad])
    if both.rank != alg.rank:
        raise InternalCheckError("complement meets the radical")
    if not span.contains_lattice(alg.product_span(span.rows, span.rows)):
        raise InternalCheckError("complement is not closed under multiplication")
    if not span.contains_vector(list(alg.unit)):
        raise InternalCheckError("complement does not contain the unit")


def quotient_modules(alg, lifts, modules):
    """Turn modules over alg (killed by rad) into modules over alg/rad.

    The quotient basis element [lift_t] acts the way lifts[t] does.
    """
    out = []
    for label, acts in modules:
        acts = getattr(acts, "acts", acts)
        qacts = [linalg.combine_columns(lift, acts) for lift in lifts]
        out.append((label, qacts))
    return out


def _malcev_enlarge(alg, s_rows, contain):
    """Conjugate the complement S so that it contains the subalgebra S0.

    Stagewise Malcev correction: with the defect of S0 against S inside J^m,
    solve h sigma(s) - sigma(s) h = delta(s) mod J^(2m) for h in J^m and
    replace S by (1-h)^(-1) S (1-h); the defect moves into J^(2m).
    """
    fld = alg.fld
    chain = radical_chain(alg)
    top = len(chain) - 1  # J^top = 0
    rad = chain[1].rows
    s0_rows = alg.span(contain).rows
    max_rounds = alg.rank.bit_length() + 3
    for _ in range(max_rounds):
        s_ech = alg.span(s_rows).rows
        full = [*s_ech, *rad]
        try:
            coords = coord_solver(full, fld, ncols=alg.rank)
        except LatticeError:
            coords = None
        if coords is None or len(full) != alg.rank:
            raise InternalCheckError("complement plus radical is not a basis")

        def decompose(v):
            c = coords(v)
            sig = linalg.combine(c[: len(s_ech)], s_ech)
            return sig, linalg.combine([fld.one, -fld.one], [v, sig])

        pairs = [decompose(s) for s in s0_rows]
        deltas = [d for (_, d) in pairs]
        if not any(deltas):
            return s_ech
        # defect depth: largest m with all deltas in J^m
        m = 1
        while m + 1 < top and all(chain[m + 1].contains_vector(d)
                                  for d in deltas):
            m += 1
        basis_m = chain[m].rows
        if not all(chain[1].contains_vector(d) for d in deltas):
            raise InternalCheckError("Malcev defect lies outside the radical")
        mod_j2m = chain[min(2 * m, top)].reduce

        # unknown h over basis_m; equations h sig - sig h = delta mod J^(2m),
        # one {hi: entry} row per sig and coordinate t of the remainders
        big = []
        big_rhs = []
        for sig, delta in pairs:
            cols = []
            for hb in basis_m:
                comm = [a - b for a, b in zip(alg.mul(hb, sig),
                                              alg.mul(sig, hb))]
                cols.append(mod_j2m(comm))
            r = mod_j2m(delta)
            for t in range(alg.rank):
                big.append({hi: c[t] for hi, c in enumerate(cols) if t in c})
                big_rhs.append(r.get(t, fld.zero))
        sol = linalg.solve_right(big, big_rhs, fld, len(basis_m))
        if sol is None:
            raise AlgebraError("Malcev correction unsolvable (is S0 semisimple?)")
        h = linalg.combine(sol, basis_m)
        one_minus = linalg.combine([fld.one, -fld.one], [alg.unit, h])
        inv = _corner_inverse(alg, alg.unit, one_minus)
        s_rows = [alg.mul(inv, alg.mul(s, one_minus)) for s in s_ech]
    raise AlgebraError("Malcev iteration did not converge")
