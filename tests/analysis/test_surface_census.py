"""Every module under ``src/repro`` is reached by something that runs.

The roots are what a user or CI can start: every ``__main__.py`` in the
package (``python -m repro`` reaches ``repro.cli`` and through it the sweep
engine) and every file under ``perf/`` and ``benchmarks/``.  From there
the walk follows imports, plus any string that is the dotted name of a
module — that is how a builtin sweep spec names its scenario and its
assembler.  Tests and examples are not roots, and a package ``__init__``
re-exporting a name is not a caller:
``from repro.lon import Network`` reaches ``lon/network.py``, where
``lon/__init__`` got the name, and nothing else ``lon/__init__`` imports.
A module the walk never reaches has no figure, command or benchmark behind
it; it earns one or leaves (DESIGN.md section 3).
"""

import ast
from pathlib import Path

import repro

from .test_layering import imported_from

PACKAGE = Path(repro.__file__).resolve().parent
REPO = PACKAGE.parents[1]
ROOT_TREES = ("perf", "benchmarks")


def _modules(package_dir):
    """``dotted name -> path`` for every module under ``package_dir``; a
    package goes under its own name, without ``.__init__``."""
    found = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = (package_dir.name,) + path.relative_to(package_dir).parts
        parts = parts[:-1] + (() if path.stem == "__init__" else (path.stem,))
        found[".".join(parts)] = path
    return found


def _references(tree, package):
    """``(module, imported name or None)`` for each import in ``tree``, a
    file of ``package``, plus every string constant as a candidate module
    name — whole, or as the ``pkg.mod`` of a ``pkg.mod.func`` /
    ``pkg.mod:func`` reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = imported_from(node, package)
            for alias in node.names:
                yield base, alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            dotted = node.value.replace(":", ".")
            yield dotted, None
            yield dotted.rpartition(".")[0], None


def _bindings(tree, package):
    """``local name -> (module, imported name)`` for the ``from`` imports
    of ``package``'s ``__init__``: where each re-exported name comes from."""
    return {alias.asname or alias.name:
            (imported_from(node, package), alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def unreached(package_dir, root_files):
    """Files under ``package_dir`` that neither a ``__main__`` in it nor
    any of ``root_files`` reaches, as paths relative to ``package_dir``."""
    modules = _modules(package_dir)
    trees = {name: ast.parse(path.read_text())
             for name, path in modules.items()}
    packages = {name for name, path in modules.items()
                if path.stem == "__init__"}
    exports = {name: _bindings(trees[name], name) for name in packages}

    def resolve(module, attr):
        """The module a reference lands in, seeing through re-exports."""
        while module in packages and attr is not None:
            if f"{module}.{attr}" in modules:
                return f"{module}.{attr}"
            if attr not in exports[module]:
                break
            module, attr = exports[module][attr]
        return module

    reached = set()
    todo = [(name, trees[name]) for name in modules
            if name.endswith("__main__")]
    todo += [("", ast.parse(Path(p).read_text())) for p in root_files]
    while todo:
        name, tree = todo.pop()
        for module, attr in _references(tree, name.rpartition(".")[0]):
            target = resolve(module, attr)
            if target in modules and target not in reached:
                reached.add(target)
                if target not in packages:
                    todo.append((target, trees[target]))
    return sorted(str(path.relative_to(package_dir))
                  for name, path in modules.items()
                  if name not in reached and name not in packages
                  and not name.endswith("__main__"))


def _write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_every_module_is_reached_from_a_root():
    roots = [path for tree in ROOT_TREES
             for path in sorted((REPO / tree).rglob("*.py"))]
    orphans = unreached(PACKAGE, roots)
    assert not orphans, "nothing reaches: " + ", ".join(orphans)


def test_a_module_only_its_package_init_imports_is_reported(tmp_path):
    _write(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/__main__.py": "from .sub import used\n",
        "pkg/sub/__init__.py": ("from .core import used\n"
                                "from .orphan import unused\n"),
        "pkg/sub/core.py": "from .helper import h\nused = h\n",
        "pkg/sub/helper.py": "h = 1\n",
        "pkg/sub/orphan.py": "from .core import used\nunused = used\n",
        "pkg/sub/named.py": "def point(): pass\n",
        "pkg/sub/by_root.py": "x = 1\n",
        "pkg/sub/island.py": "from .orphan import unused\n",
        "bench/run.py": ("from pkg.sub.by_root import x\n"
                         "SCENARIO = 'pkg.sub.named:point'\n"),
        "tests/test_orphan.py": "from pkg.sub.orphan import unused\n",
    })
    assert unreached(tmp_path / "pkg", [tmp_path / "bench" / "run.py"]) == [
        "sub/island.py", "sub/orphan.py"]
    assert unreached(tmp_path / "pkg", []) == [
        "sub/by_root.py", "sub/island.py", "sub/named.py", "sub/orphan.py"]
