"""No function or class in ``src/repro`` that nothing names, no
module-level function parameter that nothing reads, and no import that
its module never uses.

A definition whose name occurs once across the source, the tests, the
scripts, the benchmarks, the examples, the benchmark harness and the
Makefile has no caller and no test: it is code to read and keep that
nothing runs. In Python files only code counts: a name that occurs in a
comment or a docstring is prose, not a use (f-strings and other string
literals still count, since ``getattr`` and dispatch tables name code in
strings). Decorated definitions (properties, registered handlers, cached
functions) are skipped, since a decorator can be their caller, and so are
dunder methods, which Python calls by protocol.

A parameter that its function's body never reads is a value every caller
computes and passes for nothing. Methods are exempt, since overrides and
dispatch tables share one signature. Module-level functions are not, even
those the source registers as callbacks (``set_defaults(func=cmd_...)``):
each CLI command reads its ``out``.

A name a module imports and never uses costs an import and misleads a
reader about what the module depends on. The check covers every module
of ``src/repro`` but the packages' ``__init__.py`` files, whose imports
are their public interface; a name in the module's ``__all__`` is used.
"""

from __future__ import annotations

import ast
import collections
import io
import pathlib
import re
import tokenize

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


def _docstring_starts(tree):
    """``(line, column)`` of every docstring in ``tree``."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def _code_words(text):
    """The words of a Python module's tokens, comments and docstrings
    left out; ``None`` when the text does not parse as Python."""
    try:
        docstrings = _docstring_starts(ast.parse(text))
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (SyntaxError, tokenize.TokenError):
        return None
    words = []
    for token in tokens:
        if token.type == tokenize.COMMENT or (
            token.type == tokenize.STRING and token.start in docstrings
        ):
            continue
        words += WORD.findall(token.string)
    return words


def _word_counts():
    counts = collections.Counter()
    for path in _searched_files():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            continue
        words = _code_words(text) if path.suffix == ".py" else None
        counts.update(WORD.findall(text) if words is None else words)
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


def test_every_module_level_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            arguments = node.args
            read = {
                name.id for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name)
                and not isinstance(name.ctx, ast.Store)
            }
            for argument in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            ):
                if argument.arg not in read:
                    unread.append(
                        f"{path.relative_to(ROOT)}:{node.lineno} "
                        f"{node.name}({argument.arg})"
                    )
    assert unread == []


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = (
                    node.lineno
                )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(element.value for element in node.value.elts)
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items() if name not in used
    ]


def test_every_import_is_used():
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            unused += _unused_imports(path)
    assert unused == []
