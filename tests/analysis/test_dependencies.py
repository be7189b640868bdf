"""What ``src/`` imports from outside the standard library is exactly what
``pyproject.toml`` declares as ``dependencies``.

A declared distribution nobody imports costs every install a download (and,
imported transitively, every process its import time); an imported one
nobody declares breaks a clean install.  Distribution and import names
coincide for everything this project may depend on, so they are compared as
written.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import repro

REPO = Path(repro.__file__).resolve().parents[2]


def third_party_imports(tree):
    """Top-level names of the absolute imports under ``tree`` that are
    neither standard library nor the package itself."""
    found = set()
    for path in Path(tree).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def declared(pyproject):
    """Distribution names in ``[project] dependencies``, specifiers cut."""
    project = tomllib.loads(Path(pyproject).read_text())["project"]
    return {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
            for dep in project["dependencies"]}


def test_src_imports_what_pyproject_declares():
    assert third_party_imports(REPO / "src") == declared(
        REPO / "pyproject.toml")


def test_both_directions_are_reported(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "import os.path\nimport numpy as np\nfrom . import sibling\n"
        "def f():\n    from yaml.nodes import Node\n")
    (tmp_path / "pyproject.toml").write_text(
        '[project]\ndependencies = ["numpy>=1.24", "scipy >= 1.10"]\n')
    imported = third_party_imports(tmp_path / "pkg")
    listed = declared(tmp_path / "pyproject.toml")
    assert imported - listed == {"yaml"}    # imported, not declared
    assert listed - imported == {"scipy"}   # declared, never imported
