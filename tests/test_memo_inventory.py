"""Every process-wide memo in ``src/repro`` is an audited ``lru_cache``.

DESIGN.md §6d argues memo by memo that each one stores a pure function of
its key, which is what keeps ``generate`` pure. This walks the package
with :mod:`ast` so a new memo cannot skip that table, and so a new
hand-rolled dict memo (a module-level ``*_CACHE_CAP``) cannot reappear
beside ``functools.lru_cache``.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: The compiled-closure cache stays hand-rolled: it caches fallback
#: verdicts, skips uncacheable closures and counts its hits and misses.
ALLOWED_CAPS = {"_COMPILED_CACHE_CAP"}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        dotted = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        yield dotted, ast.parse(path.read_text(encoding="utf-8"))


def _is_lru_cache(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "lru_cache"
    return isinstance(decorator, ast.Name) and decorator.id == "lru_cache"


def _memo_table():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text[text.index("## 6d."):text.index("## 6e.")]
    return "\n".join(
        line for line in section.splitlines() if line.startswith("|")
    )


def test_every_lru_cache_is_in_the_design_memo_table():
    table = _memo_table()
    memos = [
        f"{module}.{node.name}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_lru_cache(item) for item in node.decorator_list)
    ]
    assert "text.normalize.stem" in memos
    missing = [name for name in memos if f"`{name}`" not in table]
    assert not missing, f"lru_cache memos missing from DESIGN.md §6d: {missing}"


def test_no_hand_rolled_cache_caps_remain():
    caps = []
    for module, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            caps.extend(
                f"{module}.{target.id}" for target in targets
                if isinstance(target, ast.Name)
                and target.id.endswith("_CACHE_CAP")
                and target.id not in ALLOWED_CAPS
            )
    assert not caps, f"hand-rolled memo caps: {caps}"
