"""The simulator packages never import the tools built on top of them.

``repro.experiments`` drives the simulator and reads its results; an
import the other way would let a sweep spec change what it measures.
"""

import ast
import sys
from pathlib import Path

import repro

SIMULATOR = ("lon", "streaming", "obs", "lightfield", "render", "volume")
TOOLS = ("experiments",)


def imported_from(node, package):
    """The dotted module an ``ast.ImportFrom`` names, ``from ..x import y``
    resolved against ``package``, the package of the importing file."""
    base = node.module or ""
    if node.level:
        anchor = package.split(".")
        anchor = anchor[:len(anchor) + 1 - node.level]
        base = ".".join(anchor + ([base] if base else []))
    return base


def _imported_packages(path, package):
    """Top-level ``repro`` subpackages imported anywhere in ``path``
    (absolute or relative, module level or inside a function)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = imported_from(node, package)
            # ``from .. import experiments`` names the package as an alias
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.add(parts[1])
    return found


def _offenders(packages, forbidden):
    """``file -> repro.<package>`` for every forbidden import under
    ``packages``."""
    root = Path(repro.__file__).parent
    offenders = []
    for sub in packages:
        for path in sorted((root / sub).rglob("*.py")):
            package = ".".join(
                ("repro",) + path.relative_to(root).parent.parts)
            for tool in sorted(_imported_packages(path, package)
                               & set(forbidden)):
                offenders.append(f"{path.relative_to(root)} -> repro.{tool}")
    return offenders


def test_simulator_packages_do_not_import_the_tools():
    assert _offenders(SIMULATOR, TOOLS) == []


def test_rate_kernel_imports_only_stdlib():
    """``lon/rates.py`` is the rate problem and nothing else: no ``Flow``,
    ``Network`` or ``EventQueue`` can reach it, so it can be tested on bare
    lists, and no BLAS build can move its floats."""
    tree = ast.parse((Path(repro.__file__).parent / "lon" / "rates.py")
                     .read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in lon/rates.py"
            imported.add((node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names), imported
