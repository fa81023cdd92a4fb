"""Static checks over the package source.

Every private function must be used somewhere in the package: a `_name` is
not part of the public API, so a definition that nothing in src/grforge
references (outside its own def line) is dead code.  And no check may rest
on an `assert`, which `python -O` strips, outside the modules that still
have some.
"""

import ast
import pathlib
import re

import grforge

PKG = pathlib.Path(grforge.__file__).resolve().parent


def test_every_private_function_is_referenced():
    texts = {p.name: p.read_text() for p in sorted(PKG.glob("*.py"))}
    unused = []
    for name, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            fn = node.name
            if not fn.startswith("_") or fn.startswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(fn)}\b")
            if sum(len(word.findall(t)) for t in texts.values()) < 2:
                unused.append(f"{name}:{node.lineno} {fn}")
    assert not unused, f"private functions nothing references: {unused}"


# modules whose remaining asserts have not yet become explicit raises
ASSERT_ALLOWLIST = {"cyclo", "fixtures", "lattices", "modules", "radicals"}


def test_no_assert_outside_allowlist():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.stem in ASSERT_ALLOWLIST:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"asserts outside the allowlist: {found}"
