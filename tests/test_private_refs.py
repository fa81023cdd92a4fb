"""Static checks over the package source.

Every function, class and method in the package is reachable by name from
a command (`cli.main`) or from a name the benchmark scripts read from
grforge (a method only through an attribute read): code that only tests
run lives in tests/.  And every attribute the package stores is read
somewhere.  No check may rest
on an `assert`, which `python -O` strips: internal checks raise
`InternalCheckError`.  And no module but `lattices` asks which kind of span it holds:
spans come from `StructureAlgebra.span`.  Spans of products come from the
product helpers, outside the modules that define them, and "S is stable
under X" is one containment of such a span in S.  And no verdict rests on a
sample: only the seeded campaigns and fixture generators draw at random.
The routines that build spans and structure constants of products read them
off the multiplication columns, not through the dense `mul`, and a product
with the whole algebra is a one-sided ideal (`left_ideal`, `right_ideal`),
never a list of all basis vectors; a module element acts through the
columns of `act_matrix`.
Linear actions stay sparse columns: outside `linalg` and `files` nothing
multiplies or combines dense matrices or transposes columns back into them.
And rational K-values are `scalars.Rat`: outside `scalars`, `cyclo` and the
rational-root candidates of `certify` no module builds a plain `Fraction`.
And membership in O is `RingSpec.in_O`: no valuation is compared with 0.
And every change of basis is `lattices.coord_solver`: the dense inverse and
row-space reducers it replaced are gone, and nothing else runs `rref` on
rows augmented with an identity.  Invertibility is a rank, over K or over
k = O/pi, and a discriminant the pivot valuations of a Hermite form: no
dense determinant is left, and only the Smith form and the Hessenberg
reduction swap rows in place.  Every reduction of a vector against echelon
rows (`Subspace.reduce`, `contains_vector` and `coords`, `Lattice.coords`
and the closure of `coord_solver`) calls `linalg.eliminate` and has no
loop of its own that writes into the vector.  Every vector is an
{index: entry} dict: the routines that served a second, dense form
(`entries`, `sparse`, `row_width`, `dense`, `zero_vec`) are gone, no module
but the document boundary (`files`, `cli`) asks whether a value is a dict,
no span is handed a vector made dense by hand, `flatten` gives a dict, and
one `unflatten` reads a flat vector back as columns.
"""

import ast
import pathlib

import grforge

PKG = pathlib.Path(grforge.__file__).resolve().parent
BENCH = PKG.parent.parent / "bench"
TESTS = PKG.parent.parent / "tests"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _getattr_constant(node):
    """The constant name of a `getattr(x, "name", ...)` call, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def _attributes_read(node):
    """The attribute names read inside node: `x.name` and the constant of
    `getattr(x, "name")`."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif _getattr_constant(n) is not None:
            found.add(_getattr_constant(n))
    return found


def _names_read(node):
    """(names, attributes) read inside node: every identifier and attribute
    name, and the attribute names alone (see `_attributes_read`)."""
    attrs = _attributes_read(node)
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | attrs,
            attrs)


def _definitions(sources):
    """The definitions of the modules {stem: source}: (name, label, is a
    method, reads) for each top-level function and class and each method
    that is not a dunder, reads a pair (names, attributes) as
    `_names_read` gives it; and the reads of module-level code, which runs
    on import.  A class reads the names in its bases, decorators, body and
    dunder methods, which run without being named."""
    defs, on_import = [], (set(), set())
    for stem, text in sorted(sources.items()):
        for stmt in ast.parse(text).body:
            if isinstance(stmt, FUNCTIONS):
                defs.append((stmt.name, f"{stem}.{stmt.name}", False,
                             _names_read(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                reads = (set(), set())
                for node in stmt.bases + stmt.keywords + stmt.decorator_list:
                    _merge(reads, _names_read(node))
                for sub in stmt.body:
                    if isinstance(sub, FUNCTIONS) and not (
                            sub.name.startswith("__")
                            and sub.name.endswith("__")):
                        label = f"{stem}.{stmt.name}.{sub.name}"
                        defs.append((sub.name, label, True, _names_read(sub)))
                    else:
                        _merge(reads, _names_read(sub))
                defs.append((stmt.name, f"{stem}.{stmt.name}", False, reads))
            else:
                _merge(on_import, _names_read(stmt))
    return defs, on_import


def _merge(into, reads):
    into[0].update(reads[0])
    into[1].update(reads[1])


def _names_taken_from_grforge(script):
    """The names a script reads from grforge: each name it imports from a
    grforge module, and each attribute of a grforge module it imports."""
    tree = ast.parse(script)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "grforge":
            for alias in node.names:
                if node.module == "grforge":
                    modules.add(alias.asname or alias.name)
                else:
                    names.add(alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def _unreachable(sources, roots):
    """Labels of the definitions that no chain of reads leads to from the
    roots and module-level code: a function or class is reached when a
    reached definition reads its name, a method only when one reads it as
    an attribute (`x.name` or `getattr(x, "name")`), so a local variable
    of the same name does not reach it."""
    defs, on_import = _definitions(sources)
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
    sources = {p.stem: p.read_text() for p in sorted(PKG.glob("*.py"))}
    assert "def main(" in sources["cli"]
    scripts = [p for p in sorted(BENCH.glob("*.py"))
               if not p.name.startswith("test_")]
    assert scripts, f"no benchmark scripts under {BENCH}"
    roots = {"main"}
    for path in scripts:
        roots |= _names_taken_from_grforge(path.read_text())
    unreached = _unreachable(sources, roots)
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
    script = "from grforge import core\nfrom grforge.cli import main\n" \
             "core.timed()\n"
    assert _names_taken_from_grforge(script) == {"main", "timed"}
    # a local variable `scale` does not reach the method `scale`; the
    # getattr constant reaches `factor`
    assert _unreachable(sources, {"main"}) == [
        "core.Job.scale", "core.Job.unused", "core.orphan", "core.timed"]
    assert _unreachable(sources, {"main", "timed"}) == [
        "core.Job.scale", "core.Job.unused", "core.orphan"]


# modules whose remaining asserts have not yet become explicit raises
ASSERT_ALLOWLIST = set()


def test_no_assert_outside_allowlist():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in ASSERT_ALLOWLIST:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"asserts outside the allowlist: {found}"


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


def test_no_span_kind_probes_outside_lattices():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem == "lattices":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if _span_probe(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"span-kind probes outside lattices.py: {found}"


# modules that define the product helpers, and the one function elsewhere
# that keeps its own products: the independent re-checker of certificates
PRODUCT_HELPER_MODULES = {"algebra", "modules"}
OWN_PRODUCTS = {("certify", "verify_chain")}


def _is_product(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("mul", "act"))


def _spans_of_products(tree):
    """Line numbers of `.span(...)` calls whose first argument is a
    comprehension of `.mul(...)` or `.act(...)` products."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span" and node.args
                and isinstance(node.args[0], (ast.ListComp, ast.GeneratorExp))
                and any(_is_product(n) for n in ast.walk(node.args[0].elt))):
            yield node.lineno


def test_products_of_spans_go_through_the_helpers():
    """Spans of products are built by StructureAlgebra.product_span,
    StructureAlgebra.corner and ModuleRep.image, not by hand."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in PRODUCT_HELPER_MODULES:
            continue
        tree = ast.parse(path.read_text())
        exempt = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and (path.stem, node.name) in OWN_PRODUCTS):
                exempt.update(_spans_of_products(node))
        found += [f"{path.name}:{line}" for line in _spans_of_products(tree)
                  if line not in exempt]
    assert not found, f"spans of hand-rolled products: {found}"


def test_span_of_products_check_sees_a_hand_rolled_product():
    tree = ast.parse("def f(alg, xs, ys):\n"
                     "    return alg.span([alg.mul(x, y) for x in xs for y in ys])\n")
    assert list(_spans_of_products(tree)) == [2]


# the routines that read their products off the multiplication columns
# (StructureAlgebra.products, left_mult_of, right_mult_of), never `mul`
COLUMN_PRODUCTS = {
    "algebra": {"product_span", "left_ideal", "right_ideal", "ideal_generated",
                "corner", "subalgebra_on", "quotient_by_ideal",
                "representation_problems"},
    "graded": {"gr_algebra"},
    "certify": {"_mult_map_bijective"},
}


def _mul_calls(tree, names):
    """(line, function) for each `.mul(...)` call inside a function whose
    name is in `names`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            for n in ast.walk(node):
                if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "mul"):
                    yield n.lineno, node.name


def test_products_come_from_the_columns():
    """Spans and structure constants of products go through the column
    kernel; `mul` is the dense reference, which the independent re-checker
    `certify.verify_chain` keeps for its own products."""
    found = []
    for module, names in sorted(COLUMN_PRODUCTS.items()):
        tree = ast.parse((PKG / f"{module}.py").read_text())
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef)}
        assert names <= defined, f"{module}.py lost {names - defined}"
        found += [f"{module}.py:{line} {fn}"
                  for line, fn in _mul_calls(tree, names)]
    assert not found, f"products by mul in the column routines: {found}"
    certify = ast.parse((PKG / "certify.py").read_text())
    assert list(_mul_calls(certify, {"verify_chain"}))


def test_column_product_check_sees_a_hand_written_mul():
    tree = ast.parse("def corner(alg, e):\n"
                     "    bs = [alg.basis_vec(i) for i in range(alg.rank)]\n"
                     "    return alg.product_span([e], [alg.mul(b, e) for b in bs])\n"
                     "def other(alg, x):\n"
                     "    return alg.mul(x, x)\n")
    assert list(_mul_calls(tree, {"corner"})) == [(3, "corner")]


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


def _dense_whole_algebra_products(tree):
    """(line, what) for each `act` method, each `.act` read (a call or a
    bound method such as `partial(mod.act, x)`), and each
    `product_span` or `products` call with a factor that is the list of all
    basis vectors, inline or through a name bound to it in the same
    function: products with the whole algebra by a dense path."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, FUNCTIONS) and sub.name == "act":
                    yield sub.lineno, "act method"
        if isinstance(node, ast.Attribute) and node.attr == "act":
            yield node.lineno, ".act read"
        if not isinstance(node, FUNCTIONS):
            continue
        bases = {t.id for n in ast.walk(node) if isinstance(n, ast.Assign)
                 and _is_basis_list(n.value)
                 for t in n.targets if isinstance(t, ast.Name)}
        for n in ast.walk(node):
            if _call_name(n) in ("product_span", "products") and any(
                    _is_basis_list(a) or getattr(a, "id", None) in bases
                    for a in n.args):
                yield n.lineno, f"basis list to {_call_name(n)}"


def test_products_with_the_algebra_are_one_sided_ideals():
    """A ys and xs A come from StructureAlgebra.left_ideal and right_ideal,
    which read the multiplication columns; a module element acts through
    the sparse columns of `act_matrix`."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        found += [f"{path.name}:{line} {what}" for line, what
                  in _dense_whole_algebra_products(ast.parse(path.read_text()))]
    assert not found, f"dense products with the whole algebra: {found}"


def test_whole_algebra_check_sees_basis_lists_and_act():
    tree = ast.parse(
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
        "        alg.product_span([e], [alg.basis_vec(0)])\n")
    assert sorted(_dense_whole_algebra_products(tree)) == [
        (2, "act method"), (6, "basis list to product_span"),
        (7, "basis list to product_span"), (9, ".act read"), (9, ".act read"),
        (10, "basis list to products"), (11, "basis list to product_span")]


def _vector_tests_of_products(tree):
    """Line numbers of `.contains_vector(...)` calls with a `.mul(...)` or
    `.act(...)` call inside their argument."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "contains_vector"
                and any(_is_product(n) for arg in node.args
                        for n in ast.walk(arg))):
            yield node.lineno


def test_stability_is_one_containment():
    """S is stable under X when S.contains_lattice(product_span(...)) or
    S.contains_lattice(mod.image(X, S.rows)), not through a loop that tests
    each product with contains_vector."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        found += [f"{path.name}:{line}" for line
                  in _vector_tests_of_products(ast.parse(path.read_text()))]
    assert not found, f"stability tested product by product: {found}"


def test_stability_check_sees_a_hand_rolled_loop():
    tree = ast.parse("def f(alg, mod, span, xs):\n"
                     "    for v in span.rows:\n"
                     "        if not span.contains_vector(alg.mul(v, v)):\n"
                     "            return False\n"
                     "    return all(span.contains_vector(list(mod.act(x, v)))\n"
                     "               for x in xs for v in span.rows)\n")
    assert list(_vector_tests_of_products(tree)) == [3, 5]


# the seeded randomized campaigns and the fixture generators (perturb)
RANDOM_MODULES = {"randomized", "fixtures"}


def _sampling(tree):
    """(line, what) for each identifier containing "sampl" and each import
    of `random`."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.keyword) and node.arg:
            names = [node.arg]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname or ""]
        for name in names:
            if "sampl" in name.lower():
                yield node.lineno, name
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "random" for a in node.names):
            yield node.lineno, "import random"
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "random":
            yield node.lineno, "from random import"


def test_no_verdict_rests_on_a_sample():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in RANDOM_MODULES:
            continue
        found += [f"{path.name}:{line} {what}"
                  for line, what in _sampling(ast.parse(path.read_text()))]
    assert not found, f"sampling outside the campaigns: {found}"


def test_sampling_check_sees_a_sampler_and_an_import():
    tree = ast.parse("import random\n"
                     "_SAMPLED = 4\n"
                     "def _sample_pairs(n):\n"
                     "    return random.sample(range(n), _SAMPLED)\n")
    assert sorted(_sampling(tree)) == [
        (1, "import random"), (2, "_SAMPLED"), (3, "_sample_pairs"),
        (4, "_SAMPLED"), (4, "sample")]


# linalg defines the dense forms and files converts documents
DENSE_MODULES = {"linalg", "files"}
DENSE_KERNELS = {"mat_mul", "combine_matrices", "transpose"}


def _is_zero(node):
    """`x.zero`, `zero`, `z` or `x.zero()`."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Attribute) and node.attr == "zero") or \
        (isinstance(node, ast.Name) and node.id in ("zero", "z"))


def _dense_actions(tree):
    """(line, what) for each call of `mat_mul`, `combine_matrices` or
    `transpose` (as a name or an attribute), and each dense zero matrix
    `[[zero] * n for ...]`: the ways an action was built or used densely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name in DENSE_KERNELS:
                yield node.lineno, name
        elif (isinstance(node, ast.ListComp)
              and isinstance(node.elt, ast.BinOp)
              and isinstance(node.elt.op, ast.Mult)
              and isinstance(node.elt.left, ast.List)
              and len(node.elt.left.elts) == 1
              and _is_zero(node.elt.left.elts[0])):
            yield node.lineno, "dense zero matrix"


def test_actions_stay_sparse_columns():
    """Action and multiplication matrices are built, combined, composed and
    traced on their sparse columns (linalg.combine_columns, compose,
    trace_form); dense lists stay at the document boundary."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in DENSE_MODULES:
            continue
        found += [f"{path.name}:{line} {what}"
                  for line, what in _dense_actions(ast.parse(path.read_text()))]
    assert not found, f"dense action matrices: {found}"


def test_dense_action_check_sees_a_hand_written_loop():
    tree = ast.parse(
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
        "    return mat_mul(a, a, fld)\n")
    assert sorted(_dense_actions(tree)) == [
        (5, "transpose"), (8, "dense zero matrix"), (9, "combine_matrices"),
        (11, "mat_mul")]


# scalars defines Rat, cyclo keeps exact series coefficients, and the
# rational-root candidates of certify are tried before `fld.of` takes them
# into K
FRACTION_MODULES = {"scalars", "cyclo"}
FRACTION_CALLERS = {("certify", "_poly_roots")}


def _fraction_calls(tree):
    """Line numbers of calls `Fraction(...)` or `fractions.Fraction(...)`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else \
                getattr(f, "id", None)
            if name == "Fraction":
                yield node.lineno


def test_no_plain_fraction_outside_scalars():
    """A plain Fraction built outside scalars would re-enter the K path
    without Rat's arithmetic; K-values come from the ring (`ring.of`,
    `parse_scalar`, `one`, `zero`)."""
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in FRACTION_MODULES:
            continue
        tree = ast.parse(path.read_text())
        exempt = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and (path.stem, node.name) in FRACTION_CALLERS):
                exempt.update(_fraction_calls(node))
        found += [f"{path.name}:{line}" for line in _fraction_calls(tree)
                  if line not in exempt]
    assert not found, f"plain Fraction values built: {found}"


def test_fraction_check_sees_a_constructor_call():
    tree = ast.parse("import fractions\n"
                     "from fractions import Fraction\n"
                     "def unit(n):\n"
                     "    one = Fraction(1)\n"
                     "    return [one] + [fractions.Fraction(0)] * (n - 1)\n"
                     "def is_rational(x):\n"
                     "    return isinstance(x, Fraction)\n")
    assert sorted(_fraction_calls(tree)) == [4, 5]


# a valuation compared with 0 on the side that asks "in O?" (v < 0, v >= 0)
_MEMBERSHIP_OPS = {False: (ast.Lt, ast.GtE), True: (ast.Gt, ast.LtE)}


def _valuation_memberships(tree):
    """Line numbers of comparisons `valuation(x) < 0` and `valuation(x) >= 0`
    (or `0 > valuation(x)`, `0 <= valuation(x)`), whatever the valuation
    is called through."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        sides = (node.left, node.comparators[0])
        for flipped in (False, True):
            call, other = sides[::-1] if flipped else sides
            if (_call_name(call) == "valuation"
                    and isinstance(other, ast.Constant) and other.value == 0
                    and isinstance(node.ops[0], _MEMBERSHIP_OPS[flipped])):
                yield node.lineno


def test_membership_in_O_is_in_O():
    """`RingSpec.in_O` reads membership in O off one denominator; a
    valuation runs repeated pi-divisions for the same answer."""
    found = [f"{path.name}:{line}" for path in sorted(PKG.glob("*.py"))
             for line in _valuation_memberships(ast.parse(path.read_text()))]
    assert not found, f"valuation compared with 0: {found}"


def test_membership_check_sees_valuation_comparisons():
    tree = ast.parse("def f(ring, xs, a):\n"
                     "    valuation = ring.valuation\n"
                     "    if any(ring.valuation(x) < 0 for x in xs):\n"
                     "        return all(valuation(x) >= 0 for x in xs)\n"
                     "    if 0 > ring.valuation(xs[0]) or 0 <= valuation(a):\n"
                     "        return ring.valuation(a) < 2\n"
                     "    return min(map(valuation, xs)) >= 0 or "
                     "ring.valuation(a) > 0\n")
    assert sorted(_valuation_memberships(tree)) == [3, 4, 5, 5]


# the one routine that builds a change of basis, and the dense routines it
# replaced
COORD_SOLVER = ("lattices", "coord_solver")
REMOVED_COORDINATE_ROUTINES = {"invert", "coords_matrix", "in_row_space",
                               "coords_in_row_space"}


def _call_name(node):
    if isinstance(node, ast.Call):
        f = node.func
        return f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", None)
    return None


def _removed_coordinate_routines(tree):
    """(line, name) for each definition, import or use of a removed dense
    coordinate routine."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname or ""]
        else:
            continue
        for name in names:
            if name in REMOVED_COORDINATE_ROUTINES:
                yield node.lineno, name


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


def _augmented_rrefs(tree, module):
    """(line, function) for each function other than `coord_solver` that
    calls `rref` and builds an identity block: a change of basis by hand."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or (module, node.name) == COORD_SOLVER:
            continue
        inner = list(ast.walk(node))
        if any(_call_name(n) == "rref" for n in inner) and \
                any(_identity_block(n) for n in inner):
            yield node.lineno, node.name


def test_every_change_of_basis_is_coord_solver():
    found = []
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [f"{path.name}:{line} {what}" for line, what
                  in _removed_coordinate_routines(tree)]
        found += [f"{path.name}:{line} {fn} augments rows for rref"
                  for line, fn in _augmented_rrefs(tree, path.stem)]
    assert not found, f"changes of basis outside coord_solver: {found}"


def test_change_of_basis_check_sees_an_inverse_by_hand():
    tree = ast.parse(
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
    assert sorted(_removed_coordinate_routines(tree)) == [
        (1, "coords_in_row_space"), (2, "invert"), (15, "coords_matrix")]
    assert sorted(_augmented_rrefs(tree, "linalg")) == [
        (2, "invert"), (6, "solve"), (11, "unit_rows")]
    # coord_solver itself is seen, and allowed only in lattices
    tree = ast.parse((PKG / "lattices.py").read_text())
    assert [fn for _, fn in _augmented_rrefs(tree, "other")] == ["coord_solver"]
    assert list(_augmented_rrefs(tree, "lattices")) == []


# the routines that permute rows or columns in place: the Smith form with
# its tracked basis, and the Hessenberg reduction of the char-p charpolys
ROW_SWAPPERS = {"lattices.smith_track", "linalg.charpoly_mod_p"}


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


def _row_swaps(stem, tree):
    """The labels `stem.function` or `stem.Class.method` of the top-level
    functions and methods that swap two subscripted entries."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            fns = [(f"{stmt.name}.{f.name}", f) for f in stmt.body
                   if isinstance(f, FUNCTIONS)]
        else:
            fns = [(stmt.name, stmt)] if isinstance(stmt, FUNCTIONS) else []
        found |= {f"{stem}.{name}" for name, fn in fns
                  if any(_is_swap(n) for n in ast.walk(fn))}
    return found


def test_only_smith_and_hessenberg_swap_rows():
    found = set()
    for path in sorted(PKG.glob("*.py")):
        found |= _row_swaps(path.stem, ast.parse(path.read_text()))
    assert found - ROW_SWAPPERS == set(), \
        f"dense eliminations by row swaps: {sorted(found - ROW_SWAPPERS)}"
    assert ROW_SWAPPERS <= found, "the allowed swappers have moved"


def test_row_swap_check_sees_a_determinant_by_pivoting():
    tree = ast.parse(
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
        "    return a, b\n")
    assert _row_swaps("core", tree) == {"core.det", "core.Form.permute"}


# the routines that reduce a vector against echelon rows: each goes through
# the one kernel `linalg.eliminate` (a closure is named `function.closure`)
ELIMINATORS = {
    "linalg": ("Subspace.reduce", "Subspace.contains_vector",
               "Subspace.coords"),
    "lattices": ("Lattice.coords", "coord_solver.coords"),
}


def _functions(tree):
    """{name: node} of the functions of a module, with the class or the
    enclosing function as a dotted prefix: `f`, `C.m`, `f.closure`."""
    out = {}
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            if isinstance(node, FUNCTIONS):
                out[prefix + node.name] = node
            prefix = f"{prefix}{node.name}."
        stack += [(child, prefix) for child in ast.iter_child_nodes(node)]
    return out


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
    for loop in _own_nodes(fn):
        if isinstance(loop, (ast.For, ast.While)):
            for node in ast.walk(loop):
                if isinstance(node, (ast.Assign, ast.Delete)):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                if any(isinstance(t, ast.Subscript) for t in targets):
                    return True
    return False


def _elimination_problems(tree, names):
    """(name, problem) for each named routine that is missing, reaches no
    call of `eliminate` (itself or through the `self.` methods it calls)
    or has a reduction loop of its own."""
    fns = _functions(tree)

    def reaches(name, seen):
        own = list(_own_nodes(fns[name]))
        if any(_call_name(n) == "eliminate" for n in own):
            return True
        cls = name.rpartition(".")[0]
        called = {f"{cls}.{n.func.attr}" for n in own
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and isinstance(n.func.value, ast.Name)
                  and n.func.value.id == "self"}
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
    found = []
    for stem, names in ELIMINATORS.items():
        tree = ast.parse((PKG / f"{stem}.py").read_text())
        found += [f"{stem}.{name} {problem}" for name, problem
                  in _elimination_problems(tree, names)]
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
    assert sorted(_elimination_problems(tree, names)) == [
        ("Lattice.coords", "has its own reduction loop"),
        ("Lattice.intersection", "is missing"),
        ("Subspace.contains_vector", "does not call linalg.eliminate"),
        ("Subspace.reduce", "does not call linalg.eliminate"),
        ("Subspace.reduce", "has its own reduction loop"),
        ("coord_solver.coords", "does not call linalg.eliminate"),
        ("coord_solver.coords", "has its own reduction loop")]


# every vector is an {index: entry} dict: the routines of a second, dense
# form are gone, and only the modules that read JSON documents ask whether
# a value is a dict
REMOVED_DENSE_ROUTINES = {"_sparse_span", "_column_vectors", "_back_reduce",
                          "entries", "sparse", "row_width", "dense",
                          "zero_vec"}
DOCUMENT_MODULES = {"files", "cli"}
SPAN_MAKERS = {"span", "span_of", "from_rows", "product_span", "left_ideal",
               "right_ideal", "stable_span", "image", "submodule_generated",
               "rref", "rank", "coord_solver"}


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


def _is_dict_test(node):
    """An `isinstance(x, dict)` call (dict alone or in a tuple of types)."""
    if not (_call_name(node) == "isinstance" and len(node.args) == 2):
        return False
    types = node.args[1]
    elts = types.elts if isinstance(types, ast.Tuple) else [types]
    return any(isinstance(t, ast.Name) and t.id == "dict" for t in elts)


def _dense_vector_problems(stem, tree):
    """(line, what) for each definition or use of a removed dense routine,
    each `flatten` defined or called with more than the columns, each
    unflatten by hand (`column(v[c::n])`) outside `linalg.unflatten`, each
    `isinstance(x, dict)` outside DOCUMENT_MODULES and each dense vector
    made by hand (see `_densify`) in the arguments of a call that spans."""
    owner = {id(node): f"{stem}.{name}"
             for name, fn in _functions(tree).items()
             for node in _own_nodes(fn)}
    for node in ast.walk(tree):
        name = getattr(node, "name", getattr(node, "id", getattr(
            node, "attr", None)))
        if name in REMOVED_DENSE_ROUTINES:
            yield node.lineno, name
        if isinstance(node, FUNCTIONS) and node.name == "flatten" \
                and len(node.args.args) != 1:
            yield node.lineno, "dense flatten"
        called = _call_name(node)
        if called == "flatten" and len(node.args) != 1:
            yield node.lineno, "dense flatten"
        if called == "column" and owner.get(id(node)) != "linalg.unflatten" \
                and any(isinstance(a, ast.Subscript)
                        and isinstance(a.slice, ast.Slice) and a.slice.step
                        for a in node.args):
            yield node.lineno, "unflatten by hand"
        if _is_dict_test(node) and stem not in DOCUMENT_MODULES:
            yield node.lineno, "isinstance dict"
        if called in SPAN_MAKERS and any(
                _densify(n) for a in node.args for n in ast.walk(a)):
            yield node.lineno, f"dense vector to {called}"


def test_vectors_between_kernels_stay_dicts():
    found = []
    for path in sorted(PKG.glob("*.py")):
        found += [f"{path.name}:{line} {what}" for line, what
                  in _dense_vector_problems(path.stem,
                                            ast.parse(path.read_text()))]
    assert not found, f"dense vectors between the kernels: {found}"


def test_dense_vector_check_sees_a_densify_in_front_of_a_span():
    tree = ast.parse(
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
    got = sorted(_dense_vector_problems("linalg", tree))
    assert got == [
        (2, "_column_vectors"), (3, "dense"), (9, "dense"),
        (9, "dense vector to span"), (11, "dense vector to span"),
        (15, "dense flatten"), (17, "dense vector to from_rows"),
        (19, "unflatten by hand"), (22, "dense"), (23, "entries"),
        (24, "isinstance dict"), (28, "isinstance dict"), (29, "entries"),
        (29, "sparse"), (30, "row_width"), (33, "zero_vec")]
    # the document boundary may ask whether a JSON value is an object
    assert [w for _, w in _dense_vector_problems("files", tree)
            if w == "isinstance dict"] == []


def _is_dataclass(node):
    """A class decorated with `dataclass`, `dataclass(...)` or
    `dataclasses.dataclass`."""
    for dec in node.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _targets(node):
    """The assignment targets inside node, tuples and starred unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _attributes_stored(tree):
    """(line, name) for each attribute the source stores: each `x.name = ...`
    target and each field of a dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for t in _targets(target):
                    if isinstance(t, ast.Attribute):
                        yield t.lineno, t.attr
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    yield stmt.lineno, stmt.target.id


def _attributes_loaded(tree):
    """The attribute names a source reads: `x.name` outside a plain store
    (an augmented assignment reads its target) and getattr constants."""
    stored = {id(t) for node in ast.walk(tree)
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
              for t in _targets(target)}
    stored |= {id(t) for node in ast.walk(tree) if isinstance(node, ast.Delete)
               for target in node.targets for t in _targets(target)}
    return {name for node in ast.walk(tree) if id(node) not in stored
            for name in ([node.attr] if isinstance(node, ast.Attribute)
                         else [_getattr_constant(node)])
            if name is not None}


def _write_only(package, readers):
    """(module:line, name) for each attribute that the package sources
    {stem: source} store and that no source in `readers` reads."""
    read = set()
    for text in readers:
        read |= _attributes_loaded(ast.parse(text))
    return sorted(f"{stem}:{line} {name}"
                  for stem, text in sorted(package.items())
                  for line, name in _attributes_stored(ast.parse(text))
                  if name not in read)


def test_every_stored_attribute_is_read():
    """State that nothing reads is work and memory for no verdict: every
    attribute the package stores is read in the package, the benchmark
    scripts or the tests."""
    package = {p.stem: p.read_text() for p in sorted(PKG.glob("*.py"))}
    readers = list(package.values()) + [
        p.read_text() for d in (BENCH, TESTS) for p in sorted(d.glob("*.py"))]
    found = _write_only(package, readers)
    assert not found, f"attributes stored and never read: {found}"


def test_write_only_check_sees_a_stored_attribute_nobody_reads():
    package = {"core": "from dataclasses import dataclass, field\n"
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
                       "        return report.ok and getattr(self, 'seen')\n"}
    assert _write_only(package, package.values()) == [
        "core:5 notes", "core:8 doc", "core:9 hits", "core:9 log"]
