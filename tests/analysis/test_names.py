"""Every name a module loads is bound in it, and every import is used.

``ruff`` is not installed in the build container, and ``from __future__
import annotations`` keeps an unbound name in an annotation from failing
at run time, so nothing else here sees pyflakes' F821 (undefined name) or
F401 (unused import).  Names are matched per module, not per scope: that
is enough to catch a missing ``typing`` import or an import a deleted call
left behind.
"""

import ast
import builtins
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]
TREES = ("src", "tests", "benchmarks", "examples")
MODULE_GLOBALS = {"__file__", "__name__", "__doc__", "__package__"}


def name_errors(source, check_imports=True):
    """``line: message`` for each loaded name nothing in ``source`` binds
    and, with ``check_imports``, each import nothing in it uses."""
    imported, bound, loads, quoted = {}, set(), [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imported[local] = node.lineno
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                loads.append(node)
            else:
                bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            quoted.add(node.value)  # an ``__all__`` entry, a forward ref
    known = bound | set(imported) | set(dir(builtins)) | MODULE_GLOBALS
    errors = [f"{n.lineno}: undefined name {n.id!r}"
              for n in loads if n.id not in known]
    used = {n.id for n in loads} | quoted
    if check_imports:
        errors += [f"{line}: unused import {name!r}"
                   for name, line in imported.items() if name not in used]
    return sorted(errors)


def test_no_undefined_name_and_no_unused_import():
    found = []
    for tree in TREES:
        for path in sorted((REPO / tree).rglob("*.py")):
            found += [f"{path.relative_to(REPO)}:{e}" for e in name_errors(
                path.read_text(), check_imports=path.name != "__init__.py")]
    assert not found, "\n".join(found)


def test_both_kinds_are_reported():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import Dict, List\n"
              "def f(x: Set[str]) -> Dict[str, int]:\n"
              "    return {k: len(k) for k in x}\n")
    assert name_errors(source) == ["2: unused import 'os'",
                                   "3: unused import 'List'",
                                   "4: undefined name 'Set'"]
    assert name_errors(source, check_imports=False) == [
        "4: undefined name 'Set'"]
