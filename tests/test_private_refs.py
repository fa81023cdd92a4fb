"""Static checks over the package source.

Three checks read the whole package.  Every function, class and method is
reachable by name from a command (`cli.main`) or from a name the benchmark
scripts read from grforge (a method only through an attribute read): code
that only tests run lives in tests/.  Every attribute the package stores is
read somewhere: state that nothing reads is work and memory for no verdict.
Every reduction of a vector against echelon rows
(`Subspace.reduce`, `contains_vector` and `coords`, `Lattice.coords` and
the closure of `coord_solver`) calls `linalg.eliminate` and has no loop of
its own that writes into the vector.

The other checks are one table, `RULES`.  Each row is a predicate over an
`ast` node, an allowlist of `module` or `module.qualname` labels, a message
that says what the rule keeps out and why, and a hand-made violation with
the exact (line, what) findings the predicate must give on it.  Each
package module is parsed once; one walker labels each node with the
`module.qualname` of the innermost definition around it and runs the rows
over the nodes.  A finding is allowed when its label is an allowlist entry
or lies in a module the allowlist names, and each entry must allow at least
one finding, so a stale entry fails.  The rows of one check share its two
tests, the package test and the snippet test, whose names the rows carry.
Adding a check means adding one row and its snippet.
"""

import ast
import pathlib
from collections import namedtuple

import grforge

PKG = pathlib.Path(grforge.__file__).resolve().parent
BENCH = PKG.parent.parent / "bench"
TESTS = PKG.parent.parent / "tests"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(PKG.glob("*.py"))}


def _sites(tree, stem):
    """(node, label, top) for every node of a module: label is the
    `stem.qualname` of the innermost function or class around the node (a
    definition counts as around itself; the stem alone at module level),
    top the outermost function around it, else the module."""
    stack = [(tree, stem, tree)]
    while stack:
        node, label, top = stack.pop()
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            label = f"{label}.{node.name}"
            if top is tree and isinstance(node, FUNCTIONS):
                top = node
        yield node, label, top
        stack += [(child, label, top) for child in ast.iter_child_nodes(node)]


SITES = {stem: list(_sites(tree, stem)) for stem, tree in TREES.items()}


def _functions(sites):
    """{qualname: node} of the functions of a module: `f`, `C.m`, `f.g`."""
    return {label.partition(".")[2]: node for node, label, _ in sites
            if isinstance(node, FUNCTIONS)}


def _getattr_constant(node):
    """The constant name of a `getattr(x, "name", ...)` call, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def _attributes_read(node, stored=frozenset()):
    """The attribute names read inside node: `x.name` and the constant of
    `getattr(x, "name")`, but not the attributes whose id is in stored."""
    return {n.attr if isinstance(n, ast.Attribute) else _getattr_constant(n)
            for n in ast.walk(node) if id(n) not in stored} - {None}


def _names_read(*nodes):
    """(names, attributes) read inside the nodes: every identifier and
    attribute name, and the attribute names alone (see `_attributes_read`)."""
    attrs = set().union(*map(_attributes_read, nodes))
    return ({n.id for node in nodes for n in ast.walk(node)
             if isinstance(n, ast.Name)} | attrs, attrs)


def _definitions(trees):
    """The definitions of the modules {stem: tree}: (name, label, is a
    method, reads) for each top-level function and class and each method
    that is not a dunder, reads a pair (names, attributes) as
    `_names_read` gives it; and the reads of module-level code, which runs
    on import.  A class reads the names in its bases, decorators, body and
    dunder methods, which run without being named."""
    defs, loose = [], []
    for stem, tree in sorted(trees.items()):
        for stmt in tree.body:
            if isinstance(stmt, FUNCTIONS):
                defs.append((stmt.name, f"{stem}.{stmt.name}", False,
                             _names_read(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, FUNCTIONS)
                           and not (s.name.startswith("__")
                                    and s.name.endswith("__"))]
                defs += [(m.name, f"{stem}.{stmt.name}.{m.name}", True,
                          _names_read(m)) for m in methods]
                rest = [s for s in stmt.body if s not in methods]
                defs.append((stmt.name, f"{stem}.{stmt.name}", False,
                             _names_read(*stmt.bases, *stmt.keywords,
                                         *stmt.decorator_list, *rest)))
            else:
                loose.append(stmt)
    return defs, _names_read(*loose)


def _names_taken_from_grforge(script):
    """The names a script reads from grforge: each name it imports from a
    grforge module, and each attribute of a grforge module it imports."""
    nodes = list(ast.walk(ast.parse(script)))
    imports = [n for n in nodes if isinstance(n, ast.ImportFrom)
               and (n.module or "").split(".")[0] == "grforge"]
    modules = {a.asname or a.name for n in imports if n.module == "grforge"
               for a in n.names}
    names = {a.name for n in imports if n.module != "grforge"
             for a in n.names}
    return names | {n.attr for n in nodes if isinstance(n, ast.Attribute)
                    and getattr(n.value, "id", None) in modules}


def _unreachable(trees, roots):
    """Labels of the definitions that no chain of reads leads to from the
    roots and module-level code: a function or class is reached when a
    reached definition reads its name, a method only when one reads it as
    an attribute (`x.name` or `getattr(x, "name")`), so a local variable
    of the same name does not reach it."""
    defs, on_import = _definitions(trees)
    names, attrs = set(roots) | on_import[0], set(on_import[1])
    done = set()
    changed = True
    while changed:
        changed = False
        for name, label, is_method, reads in defs:
            if label not in done and name in (attrs if is_method else names):
                done.add(label)
                names |= reads[0]
                attrs |= reads[1]
                changed = True
    return sorted(label for _, label, _, _ in defs if label not in done)


def test_every_definition_is_reachable_from_a_command():
    assert "main" in _functions(SITES["cli"])
    scripts = [p for p in sorted(BENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    assert scripts, f"no benchmark scripts under {BENCH}"
    roots = {"main"}
    for path in scripts:
        roots |= _names_taken_from_grforge(path.read_text())
    unreached = _unreachable(TREES, roots)
    assert not unreached, f"definitions no command reaches: {unreached}"


def test_reachability_check_sees_an_unreached_definition():
    sources = {
        "cli": "from . import core\n"
               "def main():\n"
               "    return core.TABLE[0]().run()\n",
        "core": "TABLE = [lambda: Job()]\n"
                "class Job:\n"
                "    def __init__(self):\n"
                "        self.n = _size()\n"
                "    def run(self):\n"
                "        scale = getattr(self, 'factor')()\n"
                "        return self.n * scale\n"
                "    def factor(self):\n"
                "        return 1\n"
                "    def scale(self):\n"
                "        return 2\n"
                "    def unused(self):\n"
                "        return orphan()\n"
                "def _size():\n"
                "    return 1\n"
                "def orphan():\n"
                "    return 2\n"
                "def timed():\n"
                "    return 3\n",
    }
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    script = "from grforge import core\nfrom grforge.cli import main\n" \
             "core.timed()\n"
    assert _names_taken_from_grforge(script) == {"main", "timed"}
    # a local variable `scale` does not reach the method `scale`; the
    # getattr constant reaches `factor`
    assert _unreachable(trees, {"main"}) == [
        "core.Job.scale", "core.Job.unused", "core.orphan", "core.timed"]
    assert _unreachable(trees, {"main", "timed"}) == [
        "core.Job.scale", "core.Job.unused", "core.orphan"]


# The predicates of the rule table: each takes a node and the outermost
# function around it (see `_sites`) and gives what it finds at the node.

def _call_name(node):
    """The name a call `f(...)` or `x.f(...)` calls, else None."""
    if isinstance(node, ast.Call):
        f = node.func
        return f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", None)
    return None


def _method(node):
    """The name a call `x.f(...)` calls, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _identifiers(node):
    """The identifiers a node defines, imports, reads or passes: the `name`
    of a definition, import alias or exception, an alias's `asname`, the
    `id` of a name, the `attr` of an attribute, the `arg` of an argument or
    keyword."""
    return [v for v in (getattr(node, a, None)
                        for a in ("name", "asname", "id", "attr", "arg"))
            if isinstance(v, str)]


def _banned(match, called=False):
    """The predicate that finds each identifier of a node that `match`
    accepts; when `called`, only the name a call calls, found also when
    that name is bound to an accepted name in the same function (see
    `_bound`)."""
    def alias(value):
        return any(map(match, _identifiers(value)))

    def predicate(node, top):
        if not called:
            return [name for name in _identifiers(node) if match(name)]
        name = _call_name(node)
        if name is None:
            return []
        if match(name) or isinstance(node.func, ast.Name) \
                and name in _bound(top, alias):
            return [name]
        return []
    return predicate


def _flag(test, what):
    """The predicate that finds `what` at each node that `test` accepts."""
    return lambda node, top: [what] if test(node) else []


def _bound(top, test):
    """The names assigned, inside top, a value that `test` accepts."""
    return {t.id for n in ast.walk(top) if isinstance(n, ast.Assign)
            and test(n.value) for t in n.targets if isinstance(t, ast.Name)}


def _span_probe(node):
    """`isinstance(x, ...Lattice...)` or `hasattr(x, "rank" | "rows")`."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and len(node.args) == 2):
        return False
    kind = node.args[1]
    if node.func.id == "isinstance":
        names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        return any(getattr(n, "id", getattr(n, "attr", None)) == "Lattice"
                   for n in names)
    if node.func.id == "hasattr":
        return isinstance(kind, ast.Constant) and kind.value in ("rank", "rows")
    return False


def _span_of_products(node):
    """A `.span(...)` call whose first argument is a comprehension of
    `.mul(...)` or `.act(...)` products."""
    return (_method(node) == "span" and node.args
            and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp))
            and any(_method(n) in PRODUCTS
                    for n in ast.walk(node.args[0].elt)))


def _is_basis_list(node):
    """`[x.basis_vec(i) for i in range(...)]` (or a generator of it) or
    `map(x.basis_vec, range(...))`, inside `list(...)` or not: all the basis
    vectors as one list."""
    if _call_name(node) == "list" and len(node.args) == 1:
        node = node.args[0]
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return (_call_name(node.elt) == "basis_vec"
                and _call_name(node.generators[0].iter) == "range")
    return (_call_name(node) == "map" and len(node.args) == 2
            and getattr(node.args[0], "attr", None) == "basis_vec"
            and _call_name(node.args[1]) == "range")


def _whole_algebra_product(node, top):
    """An `act` method, an `.act` read (a call or a bound method such as
    `partial(mod.act, x)`), and a `product_span` or `products` call with a
    factor that is the list of all basis vectors, inline or through a name
    bound to it in the same function: products with the whole algebra by a
    dense path."""
    if isinstance(node, FUNCTIONS) and node.name == "act":
        yield "act method"
    if isinstance(node, ast.Attribute) and node.attr == "act":
        yield ".act read"
    called = _call_name(node)
    if called in ("product_span", "products") and any(
            _is_basis_list(a) or getattr(a, "id", None)
            in _bound(top, _is_basis_list) for a in node.args):
        yield f"basis list to {called}"


def _full_product(node, top):
    """`flatten(compose(...))`, the compose called inline or through a name
    bound to it in the same function: a product formed in full."""
    if _call_name(node) == "flatten" and any(
            _call_name(a) == "compose" or getattr(a, "id", None)
            in _bound(top, lambda v: _call_name(v) == "compose")
            for a in node.args):
        yield "flatten(compose)"


def _vector_test_of_products(node):
    """A `.contains_vector(...)` call with a `.mul(...)` or `.act(...)` call
    inside its argument."""
    return _method(node) == "contains_vector" and any(
        _method(n) in PRODUCTS for arg in node.args for n in ast.walk(arg))


def _sampling(node, top):
    """Each identifier containing "sampl" and each import of `random`."""
    yield from _banned(lambda name: "sampl" in name.lower())(node, top)
    if isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "random" for a in node.names):
        yield "import random"
    if isinstance(node, ast.ImportFrom) and \
            (node.module or "").split(".")[0] == "random":
        yield "from random import"


def _dense_action(node, top):
    """A call of a dense kernel, and a dense zero matrix `[[zero] * n for
    ...]` (zero `x.zero`, `zero`, `z` or `x.zero()`)."""
    yield from _banned(lambda name: name in DENSE_KERNELS, True)(node, top)
    if (isinstance(node, ast.ListComp) and isinstance(node.elt, ast.BinOp)
            and isinstance(node.elt.op, ast.Mult)
            and isinstance(node.elt.left, ast.List)
            and len(node.elt.left.elts) == 1):
        zero = node.elt.left.elts[0]
        zero = zero.func if isinstance(zero, ast.Call) else zero
        if getattr(zero, "attr", None) == "zero" or \
                getattr(zero, "id", None) in ("zero", "z"):
            yield "dense zero matrix"


# a valuation compared with 0 on the side that asks "in O?" (v < 0, v >= 0)
_MEMBERSHIP_OPS = {False: (ast.Lt, ast.GtE), True: (ast.Gt, ast.LtE)}


def _valuation_membership(node, top):
    """A comparison `valuation(x) < 0` or `valuation(x) >= 0` (or
    `0 > valuation(x)`, `0 <= valuation(x)`), the valuation called as
    `valuation` or through a name bound to a `.valuation` attribute in the
    same function."""
    if not isinstance(node, ast.Compare) or len(node.ops) != 1:
        return
    sides = (node.left, node.comparators[0])
    for flipped in (False, True):
        call, other = sides[::-1] if flipped else sides
        if (isinstance(other, ast.Constant) and other.value == 0
                and isinstance(node.ops[0], _MEMBERSHIP_OPS[flipped])
                and _call_name(call) in {"valuation"} | _bound(
                    top, lambda v: getattr(v, "attr", None) == "valuation")):
            yield "valuation"


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _residue_comprehension(node, top):
    """A comprehension whose element or condition, outside the
    comprehensions nested in it, calls `residue`, as `.residue` or through
    a name bound to a `.residue` attribute in the same function: entries
    mapped mod pi by hand."""
    if not isinstance(node, COMPREHENSIONS):
        return
    names = {"residue"} | _bound(
        top, lambda v: getattr(v, "attr", None) == "residue")
    stack = [getattr(node, f) for f in ("elt", "key", "value")
             if hasattr(node, f)] + [c for g in node.generators for c in g.ifs]
    while stack:
        part = stack.pop()
        if _call_name(part) in names:
            yield "residue"
            return
        if not isinstance(part, COMPREHENSIONS):
            stack += ast.iter_child_nodes(part)


def _identity_block(node):
    """An identity block: a call of `identity`, a Kronecker delta
    `one if i == j else zero`, or a dict entry of a tag column `n + i`."""
    if _call_name(node) == "identity":
        return True
    if (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1
            and isinstance(node.test.ops[0], ast.Eq)):
        return True
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.BinOp) and isinstance(k.op, ast.Add)
        for k in node.keys)


def _augmented_rref(node, top):
    """A function that calls `rref` and builds an identity block: a change
    of basis by hand."""
    if isinstance(node, FUNCTIONS):
        inner = list(ast.walk(node))
        if any(_call_name(n) == "rref" for n in inner) and \
                any(_identity_block(n) for n in inner):
            yield node.name


def _is_swap(node):
    """`a[i], a[j] = a[j], a[i]`: two subscripted entries swapped, the step
    of a dense elimination by pivoting."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    left, right = node.targets[0], node.value
    return (isinstance(left, ast.Tuple) and isinstance(right, ast.Tuple)
            and len(left.elts) == len(right.elts) == 2
            and all(isinstance(x, ast.Subscript)
                    for x in left.elts + right.elts)
            and [ast.unparse(x) for x in left.elts]
            == [ast.unparse(x) for x in reversed(right.elts)])


def _is_dict_test(node):
    """An `isinstance(x, dict)` call (dict alone or in a tuple of types)."""
    if not (_call_name(node) == "isinstance" and len(node.args) == 2):
        return False
    types = node.args[1]
    elts = types.elts if isinstance(types, ast.Tuple) else [types]
    return any(isinstance(t, ast.Name) and t.id == "dict" for t in elts)


def _densify(node):
    """A dense vector made by hand: a call of `dense`, a repeated list
    (`[zero] * n`), or a comprehension over a range whose element reads a
    dict with a default (`v.get(t, zero)`)."""
    if _call_name(node) == "dense":
        return True
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.List)):
        return True
    return (isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and _call_name(node.elt) == "get" and len(node.elt.args) == 2
            and any(_call_name(g.iter) == "range" for g in node.generators))


def _dense_vector(node, top):
    """A `flatten` defined or called with more than the columns, an
    unflatten by hand (`column(v[c::n])`), and a dense vector made by hand
    (see `_densify`) in the arguments of a call that spans."""
    if isinstance(node, FUNCTIONS) and node.name == "flatten" \
            and len(node.args.args) != 1:
        yield "dense flatten"
    called = _call_name(node)
    if called == "flatten" and len(node.args) != 1:
        yield "dense flatten"
    if called == "column" and any(
            isinstance(a, ast.Subscript) and isinstance(a.slice, ast.Slice)
            and a.slice.step for a in node.args):
        yield "unflatten by hand"
    if called in SPAN_MAKERS and any(
            _densify(n) for a in node.args for n in ast.walk(a)):
        yield f"dense vector to {called}"


# the routines that read their products off the multiplication columns
# (StructureAlgebra.products, left_mult_of, right_mult_of), never `mul`
COLUMN_PRODUCTS = {"product_span", "left_ideal", "right_ideal",
                   "ideal_generated", "corner", "subalgebra_on",
                   "quotient_by_ideal", "representation_problems",
                   "gr_algebra", "_mult_map_bijective"}
PRODUCTS = {"mul", "act"}
DENSE_KERNELS = {"mat_mul", "combine_matrices", "transpose"}
REMOVED_COORDINATE_ROUTINES = {"invert", "coords_matrix", "in_row_space",
                               "coords_in_row_space"}
REMOVED_DENSE_ROUTINES = {"_sparse_span", "_column_vectors", "_back_reduce",
                          "entries", "sparse", "row_width", "dense",
                          "zero_vec"}
SPAN_MAKERS = {"span", "span_of", "from_rows", "product_span", "left_ideal",
               "right_ideal", "stable_span", "image", "submodule_generated",
               "rref", "rank", "coord_solver"}

# The rule table.  test, sees: the names of the package test and the snippet
# test of the check; scope: when given, the rule looks only inside the
# definitions of these names (and what they define).
Rule = namedtuple("Rule", "test sees predicate allow message snippet "
                          "expected scope", defaults=((),))

COORDINATES = ("test_every_change_of_basis_is_coord_solver",
               "test_change_of_basis_check_sees_an_inverse_by_hand")
CHANGE_OF_BASIS = (
    "from .linalg import coords_in_row_space\n"
    "def invert(a, field):\n"
    "    n = len(a)\n"
    "    aug = [list(r) + e for r, e in zip(a, identity(field, n))]\n"
    "    return linalg.rref(aug, field)\n"
    "def solve(rows, fld):\n"
    "    n, one = len(rows[0]), fld.one\n"
    "    aug = [{**dict(enumerate(r)), n + i: one}\n"
    "           for i, r in enumerate(rows)]\n"
    "    return linalg.rref(aug, fld, n + len(rows))\n"
    "def unit_rows(rows, k, one, zero):\n"
    "    return rref([r + [one if i == j else zero for j in range(k)]\n"
    "                 for i, r in enumerate(rows)], one)\n"
    "def quotient(span, fld):\n"
    "    return linalg.coords_matrix(span.rows, fld)\n")

VECTORS = ("test_vectors_between_kernels_stay_dicts",
           "test_dense_vector_check_sees_a_densify_in_front_of_a_span")
DENSE_VECTORS = (
    "class StructureAlgebra:\n"
    "    def _column_vectors(self, cols):\n"
    "        return [linalg.dense(c, self.rank, self.fld.zero)\n"
    "                for c in cols if c]\n"
    "    def corner(self, e):\n"
    "        cols = self.right_mult_of(e)\n"
    "        rows = [[c.get(t, self.fld.zero) for t in range(self.rank)]\n"
    "                for c in map(dict, cols)]\n"
    "        return self.span([dense(c, self.rank, 0) for c in cols])\n"
    "    def ideal(self, e):\n"
    "        return self.span([dict(c).get(t, 0) for t in range(3)]\n"
    "                         for c in self.left_mult_of(e))\n"
    "    def fine(self, e):\n"
    "        return self.span([dict(c) for c in self.left_mult_of(e)])\n"
    "def flatten(cols, zero):\n"
    "    out = [zero] * len(cols) ** 2\n"
    "    return Lattice.from_rows(ring, 4, [[zero] * 4, flatten(cols)])\n"
    "def matb(rows, n):\n"
    "    return [[linalg.column(b[c::n]) for c in range(n)] for b in rows]\n"
    "class Subspace:\n"
    "    def lifts_over(self, sub):\n"
    "        return [dense(r.items(), 3, 0) for r in sub]\n"
    "def entries(v):\n"
    "    if isinstance(v, dict):\n"
    "        return v.items()\n"
    "    return [(j, x) for j, x in enumerate(v) if x]\n"
    "def mul(x, y):\n"
    "    at = y.get if isinstance(y, (dict, list)) else y.__getitem__\n"
    "    return [at(j) for j, _ in linalg.entries(x)] + sparse(y)\n"
    "def row_width(rows, ncols=None):\n"
    "    return ncols or len(rows[0])\n"
    "class ModuleRep:\n"
    "    def zero_vec(self):\n"
    "        return [self.fld.zero] * self.rank\n")

RULES = [
    Rule("test_no_assert_outside_allowlist",
         "test_assert_check_sees_an_assert",
         _flag(lambda n: isinstance(n, ast.Assert), "assert"), (),
         "asserts, which python -O strips (raise InternalCheckError)",
         "def check(x):\n"
         "    assert x, 'x'\n"
         "    if not x:\n"
         "        raise InternalCheckError('x')\n",
         [(2, "assert")]),
    Rule("test_no_span_kind_probes_outside_lattices",
         "test_span_kind_check_sees_a_probe",
         _flag(_span_probe, "probe"), ("lattices",),
         "span-kind probes outside lattices (spans come from alg.span)",
         "def rows_of(x):\n"
         "    if isinstance(x, (Lattice, Subspace)) or hasattr(x, 'rows'):\n"
         "        return isinstance(x, lattices.Lattice), hasattr(x, 'rank')\n"
         "    return isinstance(x, dict), hasattr(x, 'ring')\n",
         [(2, "probe"), (2, "probe"), (3, "probe"), (3, "probe")]),
    Rule("test_products_of_spans_go_through_the_helpers",
         "test_span_of_products_check_sees_a_hand_rolled_product",
         _flag(_span_of_products, "span of products"),
         ("certify.verify_chain",),
         "spans of products by hand, outside the independent re-checker",
         "def f(alg, xs, ys):\n"
         "    return alg.span([alg.mul(x, y) for x in xs for y in ys])\n",
         [(2, "span of products")]),
    Rule("test_products_come_from_the_columns",
         "test_column_product_check_sees_a_hand_written_mul",
         _flag(lambda n: _method(n) == "mul", "mul"), (),
         "products by the dense mul in the routines that read columns",
         "def corner(alg, e):\n"
         "    bs = [alg.basis_vec(i) for i in range(alg.rank)]\n"
         "    return alg.product_span([e], [alg.mul(b, e) for b in bs])\n"
         "def other(alg, x):\n"
         "    return alg.mul(x, x)\n",
         [(3, "mul")], COLUMN_PRODUCTS),
    Rule("test_products_with_the_algebra_are_one_sided_ideals",
         "test_whole_algebra_check_sees_basis_lists_and_act",
         _whole_algebra_product, (), "dense products with the whole algebra",
         "class ModuleRep:\n"
         "    def act(self, x, v):\n"
         "        return v\n"
         "def is_ideal(alg, span):\n"
         "    basis = [alg.basis_vec(i) for i in range(alg.rank)]\n"
         "    return alg.product_span(basis, span.rows) == \\\n"
         "        alg.product_span(span.rows, basis)\n"
         "def projective(alg, e, mod, v):\n"
         "    mod.act(e, v), partial(mod.act, e)\n"
         "    alg.products(list(map(alg.basis_vec, range(alg.rank))), [e])\n"
         "    return alg.product_span((alg.basis_vec(j) for j in range(3)), [e])\n"
         "def fine(alg, basis, e):\n"
         "    rows = [alg.basis_vec(i) for i in range(alg.rank)]\n"
         "    return alg.products(basis, basis), alg.span(rows), \\\n"
         "        alg.product_span([e], [alg.basis_vec(0)])\n",
         [(2, "act method"), (6, "basis list to product_span"),
          (7, "basis list to product_span"), (9, ".act read"),
          (9, ".act read"), (10, "basis list to products"),
          (11, "basis list to product_span")]),
    Rule("test_stability_is_one_containment",
         "test_stability_check_sees_a_hand_rolled_loop",
         _flag(_vector_test_of_products, "contains_vector"), (),
         "stability tested product by product",
         "def f(alg, mod, span, xs):\n"
         "    for v in span.rows:\n"
         "        if not span.contains_vector(alg.mul(v, v)):\n"
         "            return False\n"
         "    return all(span.contains_vector(list(mod.act(x, v)))\n"
         "               for x in xs for v in span.rows)\n",
         [(3, "contains_vector"), (5, "contains_vector")]),
    Rule("test_no_full_matrix_products",
         "test_full_product_check_sees_a_flattened_compose",
         _full_product, ("fixtures.build_qschur",),
         "full products of flattened matrices (matrix_algebra_constants "
         "reads a product at the pivot entries alone)",
         "def sc(basis, lat):\n"
         "    z = [linalg.flatten(linalg.compose(x, y)) for x in basis\n"
         "         for y in basis]\n"
         "    prod = compose(basis[0], basis[1])\n"
         "    return z, lat.coords(flatten(prod)), flatten(basis[0])\n",
         [(2, "flatten(compose)"), (5, "flatten(compose)")]),
    Rule("test_no_verdict_rests_on_a_sample",
         "test_sampling_check_sees_a_sampler_and_an_import",
         _sampling, ("randomized", "fixtures"),
         "samples outside the seeded campaigns and fixture generators",
         "import random\n"
         "_SAMPLED = 4\n"
         "def _sample_pairs(n):\n"
         "    return random.sample(range(n), _SAMPLED)\n",
         [(1, "import random"), (2, "_SAMPLED"), (3, "_sample_pairs"),
          (4, "_SAMPLED"), (4, "sample")]),
    Rule("test_actions_stay_sparse_columns",
         "test_dense_action_check_sees_a_hand_written_loop",
         _dense_action, ("linalg",),
         "dense action matrices outside linalg, which defines the forms",
         "def quotient_acts(mod, lifts, project):\n"
         "    acts = []\n"
         "    for i in range(mod.algebra.rank):\n"
         "        cols = [project(mod.act_basis(i, lift)) for lift in lifts]\n"
         "        acts.append(linalg.transpose(cols))\n"
         "    return acts\n"
         "def direct_sum(mod, m, fld):\n"
         "    big = [[fld.zero] * m for _ in range(m)]\n"
         "    return linalg.combine_matrices([fld.one], [big], fld.zero)\n"
         "def square(a, fld):\n"
         "    return mat_mul(a, a, fld)\n"
         "def flip(a):\n"
         "    new = linalg.transpose\n"
         "    return new(a), len(a)\n",
         [(5, "transpose"), (8, "dense zero matrix"), (9, "combine_matrices"),
          (11, "mat_mul"), (14, "new")]),
    Rule("test_no_plain_fraction_outside_scalars",
         "test_fraction_check_sees_a_constructor_call",
         _banned(lambda name: name == "Fraction", called=True),
         ("scalars", "cyclo", "certify._poly_roots"),
         "plain Fractions outside Rat's module, the exact series of cyclo "
         "and the rational-root candidates of certify (K-values are Rat)",
         "import fractions\n"
         "from fractions import Fraction\n"
         "def unit(n):\n"
         "    one = Fraction(1)\n"
         "    return [one] + [fractions.Fraction(0)] * (n - 1)\n"
         "def is_rational(x):\n"
         "    return isinstance(x, Fraction)\n"
         "def half():\n"
         "    new = Fraction\n"
         "    return new(1) / new(2), str(1)\n",
         [(4, "Fraction"), (5, "Fraction"), (10, "new"), (10, "new")]),
    Rule("test_membership_in_O_is_in_O",
         "test_membership_check_sees_valuation_comparisons",
         _valuation_membership, (),
         "a valuation compared with 0 (membership in O is RingSpec.in_O)",
         "def f(ring, xs, a):\n"
         "    valuation = ring.valuation\n"
         "    if any(ring.valuation(x) < 0 for x in xs):\n"
         "        return all(valuation(x) >= 0 for x in xs)\n"
         "    if 0 > ring.valuation(xs[0]) or 0 <= valuation(a):\n"
         "        return ring.valuation(a) < 2\n"
         "    return min(map(valuation, xs)) >= 0 or "
         "ring.valuation(a) > 0\n"
         "def g(alg, m):\n"
         "    val = alg.ring.valuation\n"
         "    if any(val(x) < 0 for x in m):\n"
         "        return val(m[0]) > 0 or valid(m[0]) < 0\n",
         [(3, "valuation"), (4, "valuation"), (5, "valuation"),
          (5, "valuation"), (10, "valuation")]),
    Rule("test_rows_are_reduced_mod_pi_in_one_place",
         "test_residue_check_sees_rows_reduced_by_hand",
         _residue_comprehension,
         ("lattices.residue_echelon", "algebra._base_change.reduce",
          "modules.ModuleRep.base_change"),
         "entries mapped mod pi by hand outside the base changes to k (the "
         "residue rows of Lemma 2.3(b) come from lattices.residue_echelon)",
         "def is_pure(n, m, coords):\n"
         "    residue = n.ring.residue\n"
         "    red = [{j: y for j, x in row.items() if (y := residue(x))}\n"
         "           for row in coords]\n"
         "    return linalg.rank(red, n.ring.field_k, m.rank) == n.rank\n"
         "def verify_chain(cur, J):\n"
         "    red = [{j: y for j, x in r.items()\n"
         "            if (y := cur.ring.residue(x))} for r in J.rows]\n"
         "    return linalg.rank(red, cur.ring.field_k, cur.rank) == J.rank\n"
         "def iso_with_generator_images(ring, h, n):\n"
         "    red = [{c: y for c, x in row.items()\n"
         "            if (y := ring.residue(x))} for row in h]\n"
         "    return linalg.rank(red, ring.field_k, n) == n\n"
         "def fine(ring, rows, n):\n"
         "    pivots = residue_echelon(ring, rows, n)[1]\n"
         "    return pivots, ring.residue(rows[0]), \\\n"
         "        [ring.valuation(x) for x in rows[0].values()]\n",
         [(3, "residue"), (7, "residue"), (11, "residue")]),
    Rule(*COORDINATES,
         _banned(lambda name: name in REMOVED_COORDINATE_ROUTINES), (),
         "the dense routines coord_solver replaced", CHANGE_OF_BASIS,
         [(1, "coords_in_row_space"), (2, "invert"), (15, "coords_matrix")]),
    Rule(*COORDINATES,
         _augmented_rref, ("lattices.coord_solver",),
         "a change of basis outside coord_solver", CHANGE_OF_BASIS,
         [(2, "invert"), (6, "solve"), (11, "unit_rows")]),
    Rule("test_only_smith_and_hessenberg_swap_rows",
         "test_row_swap_check_sees_a_determinant_by_pivoting",
         _flag(_is_swap, "row swap"),
         ("lattices.smith_track", "linalg.charpoly_mod_p"),
         "row swaps outside the Smith form and the Hessenberg reduction "
         "(invertibility is a rank)",
         "def det(a, field):\n"
         "    m = [list(r) for r in a]\n"
         "    for col, piv in pivots(m):\n"
         "        m[col], m[piv] = m[piv], m[col]\n"
         "    return m\n"
         "class Form:\n"
         "    def permute(self, i, j):\n"
         "        for r in self.rows:\n"
         "            r[i], r[j] = r[j], r[i]\n"
         "def rotate(a, b, v):\n"
         "    a, b = b, a\n"
         "    v[0], v[1] = v[1], v[2]\n"
         "    v[0], v[1] = 0, v[0]\n"
         "    return a, b\n",
         [(4, "row swap"), (9, "row swap")]),
    Rule(*VECTORS,
         _banned(lambda name: name in REMOVED_DENSE_ROUTINES), (),
         "the routines of a dense vector form", DENSE_VECTORS,
         [(2, "_column_vectors"), (3, "dense"), (9, "dense"), (22, "dense"),
          (23, "entries"), (29, "entries"), (29, "sparse"), (30, "row_width"),
          (33, "zero_vec")]),
    Rule(*VECTORS,
         _flag(_is_dict_test, "isinstance dict"), ("files", "cli"),
         "isinstance dict outside the document boundary", DENSE_VECTORS,
         [(24, "isinstance dict"), (28, "isinstance dict")]),
    Rule(*VECTORS,
         _dense_vector, (), "vectors made dense by hand", DENSE_VECTORS,
         [(9, "dense vector to span"), (11, "dense vector to span"),
          (15, "dense flatten"), (17, "dense vector to from_rows"),
          (19, "unflatten by hand")]),
]


def _findings(rule, sites):
    """(line, what, label) for each finding of rule among sites, allowed or
    not; a rule with a scope looks only inside the definitions it names."""
    for node, label, top in sites:
        if rule.scope and not rule.scope & set(label.split(".")[1:]):
            continue
        for what in rule.predicate(node, top):
            yield node.lineno, what, label


def _tests(rules):
    """The package test and the snippet test of the rules of one check."""
    def holds():
        defined = {node.name for sites in SITES.values()
                   for node, _, _ in sites if isinstance(node, FUNCTIONS)}
        for rule in rules:
            assert set(rule.scope) <= defined, \
                f"{rule.message}: lost {set(rule.scope) - defined}"
            found, used = [], set()
            for sites in SITES.values():
                for line, what, label in _findings(rule, sites):
                    allowed = {a for a in rule.allow if label == a
                               or "." not in a and label.startswith(a + ".")}
                    used |= allowed
                    if not allowed:
                        found.append(f"{label}:{line} {what}")
            assert not found, f"{rule.message}: {found}"
            assert used == set(rule.allow), \
                f"{rule.message}: stale {sorted(set(rule.allow) - used)}"

    def sees():
        for rule in rules:
            sites = list(_sites(ast.parse(rule.snippet), "snippet"))
            got = sorted((line, what) for line, what, _
                         in _findings(rule, sites))
            assert got == sorted(rule.expected), rule.message
    return holds, sees


for _name in dict.fromkeys(rule.test for rule in RULES):
    _rules = [rule for rule in RULES if rule.test == _name]
    globals()[_name], globals()[_rules[0].sees] = _tests(_rules)


# the routines that reduce a vector against echelon rows: each goes through
# the one kernel `linalg.eliminate` (a closure is named `function.closure`)
ELIMINATORS = {
    "linalg": ("Subspace.reduce", "Subspace.contains_vector",
               "Subspace.coords"),
    "lattices": ("Lattice.coords", "coord_solver.coords"),
}


def _own_nodes(fn):
    """The nodes of a function's body, without those of the functions and
    lambdas defined in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.Lambda,)):
            stack += ast.iter_child_nodes(node)


def _writes_in_a_loop(fn):
    """Whether a `for` or `while` loop of fn itself assigns into or deletes
    a subscripted entry: a reduction loop of its own."""
    kinds = (ast.Assign, ast.AugAssign, ast.Delete)
    return any(isinstance(t, ast.Subscript) for loop in _own_nodes(fn)
               if isinstance(loop, (ast.For, ast.While))
               for t in _stores(loop, kinds))


def _elimination_problems(sites, names):
    """(name, problem) for each named routine of a module (see `_functions`)
    that is missing, reaches no call of `eliminate` (itself or through the
    `self.` methods it calls) or has a reduction loop of its own."""
    fns = _functions(sites)

    def reaches(name, seen):
        own = list(_own_nodes(fns[name]))
        if any(_call_name(n) == "eliminate" for n in own):
            return True
        cls = name.rpartition(".")[0]
        called = {f"{cls}.{_method(n)}" for n in own if _method(n)
                  and getattr(n.func.value, "id", None) == "self"}
        return any(reaches(m, seen | {name}) for m in called
                   if m in fns and m not in seen)

    for name in names:
        if name not in fns:
            yield name, "is missing"
            continue
        if not reaches(name, set()):
            yield name, "does not call linalg.eliminate"
        if _writes_in_a_loop(fns[name]):
            yield name, "has its own reduction loop"


def test_every_reduction_goes_through_eliminate():
    found = [f"{stem}.{name} {problem}" for stem, names in ELIMINATORS.items()
             for name, problem
             in _elimination_problems(SITES[stem], names)]
    assert not found, f"reductions outside linalg.eliminate: {found}"


def test_reduction_check_sees_a_hand_made_loop():
    tree = ast.parse(
        "class Subspace:\n"
        "    def reduce(self, vec):\n"
        "        v = list(vec)\n"
        "        for col, tail in self._reducer:\n"
        "            x = v[col]\n"
        "            if x:\n"
        "                v[col] = self.fld.zero\n"
        "                for j, e in tail:\n"
        "                    v[j] = v[j] - x * e\n"
        "        return v\n"
        "    def contains_vector(self, vec):\n"
        "        return not any(self.reduce(vec))\n"
        "    def coords(self, vec):\n"
        "        v = sparse(vec)\n"
        "        met = linalg.eliminate(self._steps(), v)\n"
        "        return None if v else met\n"
        "class Lattice:\n"
        "    def contains_vector(self, vec):\n"
        "        return self.coords(vec) is not None\n"
        "    def coords(self, vec):\n"
        "        v = sparse(vec)\n"
        "        met = linalg.eliminate(self._steps(), v)\n"
        "        while v:\n"
        "            del v[min(v)]\n"
        "        return met\n"
        "def coord_solver(rows, fld):\n"
        "    steps = linalg.eliminate(rows, {})\n"
        "    def coords(v):\n"
        "        c = {}\n"
        "        for col, tail in steps:\n"
        "            c[col] = v.pop(col, None)\n"
        "        return c\n"
        "    return coords\n")
    names = ("Subspace.reduce", "Subspace.contains_vector", "Subspace.coords",
             "Lattice.contains_vector", "Lattice.coords",
             "coord_solver.coords", "Lattice.intersection")
    assert sorted(_elimination_problems(_sites(tree, "core"), names)) == [
        ("Lattice.coords", "has its own reduction loop"),
        ("Lattice.intersection", "is missing"),
        ("Subspace.contains_vector", "does not call linalg.eliminate"),
        ("Subspace.reduce", "does not call linalg.eliminate"),
        ("Subspace.reduce", "has its own reduction loop"),
        ("coord_solver.coords", "does not call linalg.eliminate"),
        ("coord_solver.coords", "has its own reduction loop")]


def _is_dataclass(node):
    """A class decorated with `dataclass`, `dataclass(...)` or
    `dataclasses.dataclass`."""
    return any(getattr(f, "id", getattr(f, "attr", None)) == "dataclass"
               for f in (d.func if isinstance(d, ast.Call) else d
                         for d in node.decorator_list))


def _targets(node):
    """The assignment targets inside node, tuples and starred unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _stores(tree, kinds=(ast.Assign, ast.AnnAssign)):
    """The targets of the statements of `kinds` in tree, unpacked."""
    for node in ast.walk(tree):
        if isinstance(node, kinds):
            for target in getattr(node, "targets", None) or [node.target]:
                yield from _targets(target)


def _attributes_stored(tree):
    """(line, name) for each attribute the source stores: each `x.name = ...`
    target and each field of a dataclass."""
    for t in _stores(tree):
        if isinstance(t, ast.Attribute):
            yield t.lineno, t.attr
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, stmt.target.id


def _attributes_loaded(tree):
    """The attribute names a source reads: `x.name` outside a plain store
    (an augmented assignment reads its target) and getattr constants."""
    kinds = (ast.Assign, ast.AnnAssign, ast.Delete)
    return _attributes_read(tree, {id(t) for t in _stores(tree, kinds)})


def _write_only(package, readers):
    """(module:line, name) for each attribute that the package modules
    {stem: tree} store and that no tree in `readers` reads."""
    read = set().union(*map(_attributes_loaded, readers))
    return sorted(f"{stem}:{line} {name}"
                  for stem, tree in sorted(package.items())
                  for line, name in _attributes_stored(tree)
                  if name not in read)


def test_every_stored_attribute_is_read():
    # read in the package, the benchmark scripts or the tests
    readers = list(TREES.values()) + [
        ast.parse(p.read_text()) for d in (BENCH, TESTS)
        for p in sorted(d.glob("*.py"))]
    found = _write_only(TREES, readers)
    assert not found, f"attributes stored and never read: {found}"


def test_write_only_check_sees_a_stored_attribute_nobody_reads():
    package = {"core": ast.parse(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    ok: bool\n"
        "    notes: dict = field(default_factory=dict)\n"
        "class Job:\n"
        "    def __init__(self, doc):\n"
        "        self.doc = doc\n"
        "        self.hits, (self.seen, self.log) = 0, ([], [])\n"
        "        self.count = 0\n"
        "    def run(self, report):\n"
        "        self.count += 1\n"
        "        del self.doc\n"
        "        return report.ok and getattr(self, 'seen')\n")}
    assert _write_only(package, package.values()) == [
        "core:5 notes", "core:8 doc", "core:9 hits", "core:9 log"]
