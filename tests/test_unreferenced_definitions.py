"""No function or class in ``src/repro`` that nothing names.

A definition whose name occurs once across the source, the tests, the
scripts, the benchmarks, the examples, the benchmark harness and the
Makefile has no caller and no test: it is code to read and keep that
nothing runs. Decorated definitions (properties, registered handlers,
cached functions) are skipped, since a decorator can be their caller, and
so are dunder methods, which Python calls by protocol.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "tests", "scripts", "benchmarks", "examples", "perf")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _searched_files():
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                yield path
    yield ROOT / "Makefile"


def _word_counts():
    counts = collections.Counter()
    for path in _searched_files():
        try:
            counts.update(WORD.findall(path.read_text(encoding="utf-8")))
        except UnicodeDecodeError:
            continue
    return counts


def test_every_definition_is_named_somewhere_else():
    counts = _word_counts()
    unreferenced = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.decorator_list:
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if counts[name] <= 1:
                unreferenced.append(
                    f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                )
    assert unreferenced == []
