"""JSON document formats: ring specs, algebras, modules, reports.

One schema family; scalars are exact strings ("num/den") or length-(p-1)
arrays of them for the cyclotomic flavor.  Module documents reference their
algebra by content hash so certificates cannot be replayed across mutated
fixtures.  Serialization is canonical (sorted keys, no whitespace drift), so
gen -> serialize -> load -> serialize is byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from importlib import resources

import jsonschema

from . import __version__, linalg
from .algebra import StructureAlgebra, ValidationError, WeightDatum
from .modules import ModuleError, ModuleRep
from .scalars import RingSpec

SCHEMA_VERSION = "grforge/v1"


class DocumentError(ValueError):
    pass


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_hash(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@functools.cache
def _validator(name):
    """The validator of a package schema, read and checked once per name.
    Its local `$ref`s are replaced by what they point to, so validation
    does not resolve a reference at every scalar."""
    with resources.files("grforge.schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(_inline_refs(schema, schema))


def _inline_refs(node, root):
    """`node` with each local reference {"$ref": "#/a/b"} replaced by the
    subschema root["a"]["b"], itself inlined.  In the drafts the package
    schemas use, a `$ref` ignores its sibling keywords, so the replacement
    validates alike.  The package schemas have no recursive references."""
    if isinstance(node, list):
        return [_inline_refs(x, root) for x in node]
    if not isinstance(node, dict):
        return node
    ref = node.get("$ref")
    if isinstance(ref, str) and ref.startswith("#/"):
        target = root
        for part in ref[2:].split("/"):
            target = target[part]
        return _inline_refs(target, root)
    return {k: _inline_refs(v, root) for k, v in node.items()}


@functools.cache
def _accepts(name):
    """The accept check of a package schema, compiled once per name from the
    `$ref`-inlined schema of `_validator(name)`."""
    return _compile(_validator(name).schema)


# the draft-7 type names that hold for every instance of an exact JSON type;
# an integral float is also an "integer" there, which the accept check
# leaves to jsonschema
_JSON_TYPES = {dict: {"object"}, list: {"array"}, str: {"string"},
               int: {"integer", "number"}, float: {"number"},
               bool: {"boolean"}, type(None): {"null"}}
_KEYWORDS = {"type", "const", "enum", "minimum", "pattern", "required",
             "properties", "additionalProperties", "items", "minItems",
             "maxItems"}
_ANNOTATIONS = {"$schema", "$id", "definitions"}


def _accept(x):
    return True


def _reject(x):
    return False


def _all(checks):
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]
    return lambda x: all(c(x) for c in checks)


def _compile(schema):
    """A check that returns True only for an instance the draft-7 schema
    accepts; where it returns False, jsonschema decides.  It knows the
    keywords of the package schemas, each applied only to the instances
    jsonschema applies it to.  It rejects an instance whose type is not
    exactly a JSON type, a float where "integer" is asked, and every
    instance at a schema node with another keyword."""
    if schema is True:
        return _accept
    if type(schema) is not dict or \
            not schema.keys() <= _KEYWORDS | _ANNOTATIONS:
        return _reject
    named = schema.get("type")
    if named is None:
        kinds = set(_JSON_TYPES)
    else:
        named = {named} if isinstance(named, str) else set(named)
        kinds = {t for t, names in _JSON_TYPES.items() if names & named}
    # a constant is compared with its type too (True is not 1), and only
    # as a scalar: == on containers would equate nested True and 1
    if "const" in schema:
        const = schema["const"]
        kinds &= {type(const)} - {dict, list}
    if "enum" in schema:
        enum = schema["enum"]
        kinds &= {type(e) for e in enum} - {dict, list}
    checks = {t: [] for t in kinds}

    def add(t, check):
        if t in checks:
            checks[t].append(check)

    for t in kinds:
        if "const" in schema:
            add(t, lambda x: x == const)
        if "enum" in schema:
            add(t, lambda x: any(type(x) is type(e) and x == e
                                 for e in enum))
    if "minimum" in schema:
        low = schema["minimum"]
        add(int, lambda x: x >= low)
        add(float, lambda x: x >= low)
    if "pattern" in schema:
        add(str, re.compile(schema["pattern"]).search)
    if "required" in schema:
        required = schema["required"]
        add(dict, lambda x: all(k in x for k in required))
    if "properties" in schema or "additionalProperties" in schema:
        props = {k: _compile(s)
                 for k, s in schema.get("properties", {}).items()}
        extra = _compile(schema.get("additionalProperties", True))
        add(dict, lambda x: all(props.get(k, extra)(v) for k, v in x.items()))
    if "items" in schema:
        items = schema["items"]
        if isinstance(items, list):
            each = [_compile(s) for s in items]
            add(list, lambda x: all(c(y) for c, y in zip(each, x)))
        else:
            item = _compile(items)
            add(list, lambda x: all(map(item, x)))
    if "minItems" in schema:
        least = schema["minItems"]
        add(list, lambda x: len(x) >= least)
    if "maxItems" in schema:
        most = schema["maxItems"]
        add(list, lambda x: len(x) <= most)
    by_type = {t: _all(cs) for t, cs in checks.items()}.get
    return lambda x: by_type(type(x), _reject)(x)


def validate_schema(doc, name):
    """Validate doc against a package schema.  The compiled accept check
    passes the documents the package writes; a document it does not accept
    goes to jsonschema, and the error reported is the one
    jsonschema.validate would raise."""
    if _accepts(name)(doc):
        return
    exc = jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))
    if exc is not None:
        path = "/".join(str(p) for p in exc.absolute_path)
        msg = f"schema violation at /{path}: {exc.message}"
        raise DocumentError(msg) from exc


# ---------------------------------------------------------------------------
# algebra documents
# ---------------------------------------------------------------------------

def algebra_to_doc(alg: StructureAlgebra, metadata: dict | None = None) -> dict:
    if alg.level != "O":
        raise DocumentError("only integral algebras are serialized")
    ring = alg.ring
    zero = ring.zero()

    def written(v):
        # a document writes each vector dense
        return [ring.format_scalar(v.get(i, zero)) for i in range(alg.rank)]

    sc = []
    for (i, j) in sorted(alg.sc):
        for t in sorted(alg.sc[(i, j)]):
            sc.append([i, j, t, ring.format_scalar(alg.sc[(i, j)][t])])
    doc = {
        "schema": f"{SCHEMA_VERSION}/algebra",
        "ring": {"flavor": ring.flavor, "p": ring.p},
        "rank": alg.rank,
        "basis_labels": list(alg.labels),
        "unit": written(alg.unit),
        "structure_constants": sc,
    }
    if alg.weights is not None:
        w = alg.weights
        doc["weights"] = {
            "X": [str(x) for x in w.X],
            "Lambda": [str(x) for x in w.Lambda],
            "poset": sorted([str(a), str(b)] for (a, b) in w.less),
            "idempotents": {str(lbl): written(v)
                            for lbl, v in w.idempotents.items()},
        }
    if alg.generators:
        doc["generators"] = {str(lbl): written(v)
                             for lbl, v in alg.generators.items()}
    if metadata:
        doc["metadata"] = metadata
    return doc


def doc_to_algebra(doc) -> StructureAlgebra:
    validate_schema(doc, "algebra.json")
    ring = RingSpec(doc["ring"]["flavor"], doc["ring"]["p"])
    rank = doc["rank"]
    parse = ring.parse_scalar
    sc = {}
    for entry in doc["structure_constants"]:
        i, j, t, val = entry
        if not (0 <= i < rank and 0 <= j < rank and 0 <= t < rank):
            raise DocumentError(f"structure constant index out of range: {entry}")
        v = parse(val)
        if v:
            sc.setdefault((i, j), {})[t] = v
    # a dense row is length-checked here: its dict cannot show a short row
    problems = []

    def vector(what, row):
        if len(row) != rank:
            problems.append(f"{what} has wrong length")
        return {i: x for i, x in enumerate(map(parse, row)) if x}

    unit = vector("unit", doc["unit"])
    wd = doc.get("weights")
    if wd is not None:
        idems = {lbl: vector(f"idempotent {lbl!r}", v)
                 for lbl, v in wd["idempotents"].items()}
    gens = doc.get("generators")
    if gens is not None:
        gens = {lbl: vector(f"generator {lbl!r}", v)
                for lbl, v in gens.items()}
    if problems:
        raise ValidationError(problems)
    weights = None
    if wd is not None:
        weights = WeightDatum.build(
            wd["X"], wd["Lambda"], [(a, b) for a, b in wd["poset"]], idems)
    alg = StructureAlgebra(ring, "O", rank, doc.get("basis_labels"),
                           unit, sc, weights, gens)
    alg.validate()
    alg.metadata = doc.get("metadata", {})
    alg.source_hash = content_hash(doc)
    return alg


# ---------------------------------------------------------------------------
# module documents
# ---------------------------------------------------------------------------

def module_to_doc(mod: ModuleRep, algebra_doc: dict, name: str = "") -> dict:
    ring = mod.algebra.ring
    zero = mod.fld.zero
    action = [[[ring.format_scalar(x) for x in row]
               for row in linalg.dense_rows(m, mod.rank, zero)]
              for m in mod.acts]
    return {
        "schema": f"{SCHEMA_VERSION}/module",
        "algebra_hash": content_hash(algebra_doc),
        "rank": mod.rank,
        "name": name or mod.name,
        "action": action,
    }


def doc_to_module(doc, alg: StructureAlgebra) -> ModuleRep:
    validate_schema(doc, "module.json")
    if getattr(alg, "source_hash", None) != doc["algebra_hash"]:
        raise DocumentError(
            "module references a different algebra (content hash mismatch)")
    parse = alg.ring.parse_scalar
    n = doc["rank"]
    acts = []
    for m in doc["action"]:
        # the dense rows are checked here: their columns cannot show a short row
        if len(m) != n or any(len(row) != n for row in m):
            raise ModuleError(f"action matrices must be {n} x {n}")
        acts.append(linalg.columns([[parse(x) for x in row] for row in m]))
    mod = ModuleRep(alg, n, acts, doc.get("name", "module"))
    mod.validate()
    return mod


# ---------------------------------------------------------------------------
# suite reports
# ---------------------------------------------------------------------------

def suite_report(suite_name: str, fixture_id: str, verdicts: dict,
                 witnesses=None, wall_clock: float | None = None,
                 input_hash: str = "") -> dict:
    """Machine report; the volatile timing lives in its own sub-object so the
    deterministic portion is byte-stable across runs."""
    doc = {
        "schema": f"{SCHEMA_VERSION}/report",
        "suite": suite_name,
        "fixture": fixture_id,
        "verdicts": {str(k): _plain(v) for k, v in verdicts.items()},
        "witnesses": _plain(witnesses) if witnesses is not None else None,
        "tool_version": __version__,
        "input_hash": input_hash,
        "timing": {"wall_clock_s": wall_clock},
    }
    validate_schema(doc, "report.json")
    return doc


def report_passed(doc) -> bool:
    def ok(v):
        if isinstance(v, dict):
            return all(ok(x) for x in v.values())
        if isinstance(v, (list, tuple)):
            return all(ok(x) for x in v)
        if v is None:
            return True
        return bool(v)

    return ok(doc["verdicts"])


def stable_portion(report_doc) -> dict:
    out = {k: v for k, v in report_doc.items() if k != "timing"}
    return out


def _plain(v):
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)
