"""Every private function of the package must be used somewhere in it.

A `_name` is not part of the public API, so a definition that nothing in
src/grforge references (outside its own def line) is dead code.
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
