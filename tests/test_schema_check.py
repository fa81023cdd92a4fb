"""The compiled accept check of each package schema against jsonschema.

`files.validate_schema` returns as soon as `files._accepts(name)` accepts a
document and asks jsonschema only when it does not.  So an acceptance must
mean that jsonschema accepts: the check may reject more than jsonschema does,
never less.  The property test edits real documents at random and compares
the two; the command-line test requires every document the package writes
to pass the check, so that loading one never reaches jsonschema.
"""

import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from grforge import cli, files, suites

# strings one character away from what a schema asks for, and the strings a
# `const`, an `enum` or a key of the schemas names
NEAR_MISSES = [
    "1.5", " 3", "3/", "3\n", "1/0", "-0/7", "/3", "3/-4", "", "x",
    "0" * 64, "0" * 63 + "\n", "F" * 64, "grforge/v1/algebra",
    "grforge/v1/module", "grforge/v1/report", "rational_local",
    "cyclotomic_local"]
KEYS = ["schema", "ring", "p", "flavor", "rank", "unit", "weights", "X",
        "idempotents", "generators", "algebra_hash", "action", "timing",
        "wall_clock_s", "verdicts", "zz"]

near_misses = st.sampled_from(NEAR_MISSES) | st.text(max_size=4)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.integers(),
    st.sampled_from([1.0, 0.0, -1.0, 3.0]), st.floats(), near_misses)
# strings are drawn more often: most nodes of a document are scalar strings
values = near_misses | scalars | st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def _nodes(node, path=()):
    """(path, node) for node and every node below it."""
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))


def _edit(node, path, change):
    """node with change applied to the node at path; only the containers
    along path are copied."""
    if not path:
        return change(node)
    out = node.copy()
    out[path[0]] = _edit(node[path[0]], path[1:], change)
    return out


@st.composite
def edited(draw, doc):
    """doc after one or two edits of a random node: replaced by a drawn JSON
    value, or for an object or array, a key or item deleted or added."""
    for _ in range(draw(st.integers(1, 2))):
        nodes = list(_nodes(doc))
        path, node = nodes[draw(st.integers(0, len(nodes) - 1))]
        how = "replace"
        if isinstance(node, (dict, list)):
            how = draw(st.sampled_from(["replace", "delete", "add"]))
        if how == "replace":
            value = draw(values)
            doc = _edit(doc, path, lambda _: value)
        elif how == "delete" and node:
            if isinstance(node, dict):
                key = draw(st.sampled_from(sorted(node)))
                doc = _edit(doc, path, lambda d: {
                    k: v for k, v in d.items() if k != key})
            else:
                i = draw(st.integers(0, len(node) - 1))
                doc = _edit(doc, path, lambda xs: xs[:i] + xs[i + 1:])
        elif isinstance(node, dict):
            key, value = draw(st.sampled_from(KEYS)), draw(values)
            doc = _edit(doc, path, lambda d: {**d, key: value})
        else:
            value = draw(values)
            doc = _edit(doc, path, lambda xs: xs + [value])
    return doc


def _as_written(name):
    """A jsonschema validator built on the schema file as written."""
    schema = json.loads(resources.files("grforge.schemas")
                        .joinpath(name).read_text())
    return jsonschema.validators.validator_for(schema)(schema)


@pytest.fixture(scope="module")
def documents(z5, z5s, qschur23, sp_z5):
    z5_doc = files.algebra_to_doc(z5, metadata={"fixture": "z5@3"})
    res = suites.thm_417_suite(z5)
    report = files.suite_report(
        "thm417", "z5@3",
        {"hypotheses": res.hypotheses, "conclusions": res.conclusions,
         "falsification": not res.falsification},
        res.notes, wall_clock=0.25, input_hash=files.content_hash(z5_doc))
    written = {
        "z5": ("algebra.json", z5_doc),
        "z5s": ("algebra.json", files.algebra_to_doc(z5s)),
        "qschur23": ("algebra.json", files.algebra_to_doc(qschur23)),
        "module": ("module.json", files.module_to_doc(sp_z5["1"]["P"],
                                                      z5_doc)),
        "report": ("report.json", report),
    }
    # as a loader receives them: plain JSON values
    return {k: (name, json.loads(files.canonical_json(doc)))
            for k, (name, doc) in written.items()}


@pytest.fixture(scope="module")
def validators_as_written():
    return {name: _as_written(name)
            for name in ("algebra.json", "module.json", "report.json")}


@pytest.mark.parametrize("which", ["z5", "z5s", "qschur23", "module",
                                   "report"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_an_accepted_document_is_one_jsonschema_accepts(
        documents, validators_as_written, which, data):
    name, doc = documents[which]
    doc = data.draw(edited(doc), label="document")
    if files._accepts(name)(doc):
        assert not list(files._validator(name).iter_errors(doc))
    want = jsonschema.exceptions.best_match(
        validators_as_written[name].iter_errors(doc))
    if want is None:
        files.validate_schema(doc, name)
        return
    path = "/".join(str(p) for p in want.absolute_path)
    with pytest.raises(files.DocumentError) as got:
        files.validate_schema(doc, name)
    assert str(got.value) == f"schema violation at /{path}: {want.message}"


@pytest.mark.parametrize("which", ["z5", "z5s", "qschur23", "module",
                                   "report"])
def test_real_documents_are_accepted(documents, which):
    name, doc = documents[which]
    assert files._accepts(name)(doc)


def test_package_output_never_reaches_jsonschema(tmp_path, monkeypatch):
    """Every document the command line writes passes the compiled check: it
    writes and loads them all with jsonschema's validator out of reach."""
    for name in ("algebra.json", "module.json", "report.json"):
        files._accepts(name)

    def unreachable(name):
        raise AssertionError(f"a package document reached jsonschema ({name})")

    monkeypatch.setattr(files, "_validator", unreachable)
    out = str(tmp_path)
    z5 = str(tmp_path / "z5@3.alg.json")
    for argv in (["gen", "z5", "--with-modules"], ["gen", "z5s"],
                 ["gen", "qschur", "--d", "2", "--p", "3"],
                 ["gen", "qschur", "--d", "2", "--p", "5"],
                 ["gen", "usl2"],
                 ["gen", "inflate", "--input", z5, "--mult", "2:2"],
                 ["gen", "perturb", "--input", z5, "--seed", "1"],
                 ["certify", z5, "--report", str(tmp_path / "cert.rep")],
                 ["gr", z5, "-o", str(tmp_path / "gr.alg.json")]):
        assert cli.main(argv + (["-o", out] if argv[0] == "gen" else [])) == 0
    schema_of = {".alg.json": "algebra.json", ".mod.json": "module.json",
                 ".rep": "report.json"}
    seen = {name: 0 for name in schema_of.values()}
    for path in sorted(tmp_path.iterdir()):
        name = next(schema_of[s] for s in schema_of if path.name.endswith(s))
        doc = json.loads(path.read_text())
        assert files._accepts(name)(doc), path.name
        seen[name] += 1
        if name == "algebra.json":
            files.doc_to_algebra(doc)
    # z5, z5s, two q-Schur algebras, usl2, inflate, perturb and gr; the
    # standard and projective modules of z5; the certify report
    assert seen == {"algebra.json": 8, "module.json": 4, "report.json": 1}
