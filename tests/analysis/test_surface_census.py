"""Every module and every function under ``src/repro`` is reached by
something that runs.

The roots are what a user or CI can start: every ``__main__.py`` in the
package (``python -m repro`` reaches ``repro.cli`` and through it the sweep
engine) and every file under ``ROOT_TREES``: ``perf/``, ``benchmarks/``
and ``examples/`` (``tests/integration/test_examples.py`` runs each
example).  Tests are not roots.

Modules: the walk follows imports, plus any string that is the dotted name
of a module — that is how a builtin sweep spec names its scenario and its
assembler.  A package ``__init__`` re-exporting a name is not a caller:
``from repro.lon import Network`` reaches ``lon/network.py``, where
``lon/__init__`` got the name, and nothing else ``lon/__init__`` imports.

Functions: a ``def`` or ``class`` (dunders aside) is reached when its name
appears outside its own definition, in the package or a root tree, as a
``Name``, as an ``Attribute`` or as a part of a dotted or ``:``-joined
string constant (``perf/trace.py`` names the methods it wraps that way).
An import is no caller and neither is an ``__all__`` entry.  The match is
by name alone, so a collision can hide a dead function, never report a
live one.

What neither walk reaches has no figure, command, example or benchmark
behind it; it earns one or leaves (DESIGN.md section 3).  A function only
tests call moves into ``tests/`` as an oracle, or it goes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

from .test_layering import imported_from

PACKAGE = Path(repro.__file__).resolve().parent
REPO = PACKAGE.parents[1]
ROOT_TREES = ("perf", "benchmarks", "examples")


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


_DOTTED = re.compile(r"[\w.:]+")


def _mentions(tree):
    """``(name, (line, col))`` for every name ``tree`` uses: ``Name`` ids,
    ``Attribute`` attrs and the parts of dotted / ``:`` string constants,
    leaving out what an ``__all__`` assignment lists."""
    listed = {id(n) for node in ast.walk(tree)
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in (node.targets if isinstance(node, ast.Assign)
                                else [node.target]))
              for n in ast.walk(node)}
    for node in ast.walk(tree):
        if id(node) in listed:
            continue
        at = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if isinstance(node, ast.Name):
            yield node.id, at
        elif isinstance(node, ast.Attribute):
            yield node.attr, at
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            for part in re.split("[.:]", node.value):
                yield part, at


def _definitions(tree, prefix=""):
    """``(qualified name, node)`` for every def and class in ``tree``, at
    any depth, dunders aside."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = prefix + node.name
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield name, node
            yield from _definitions(node, name + ".")
        else:
            yield from _definitions(node, prefix)


def _span(node):
    """First and one-past-last ``(line, col)`` of a def, decorators in."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return (first, 0), (node.end_lineno, node.end_col_offset)


def uncalled(package_dir, caller_files):
    """``relative path:qualified name`` of each def or class under
    ``package_dir`` whose name nothing in the package or ``caller_files``
    mentions outside the definition itself."""
    sources = sorted(package_dir.rglob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in sources + [Path(p) for p in caller_files]}
    where = {path: {} for path in trees}
    for path, tree in trees.items():
        for name, at in _mentions(tree):
            where[path].setdefault(name, []).append(at)
    total = Counter()
    for found in where.values():
        total.update({name: len(ats) for name, ats in found.items()})
    report = []
    for path in sources:
        for qualname, node in _definitions(trees[path]):
            start, end = _span(node)
            own = sum(start <= at < end
                      for at in where[path].get(node.name, ()))
            if total[node.name] == own:
                report.append(f"{path.relative_to(package_dir)}:{qualname}")
    return report


def _write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _roots():
    return [path for tree in ROOT_TREES
            for path in sorted((REPO / tree).rglob("*.py"))]


def test_every_module_is_reached_from_a_root():
    orphans = unreached(PACKAGE, _roots())
    assert not orphans, "nothing reaches: " + ", ".join(orphans)


def test_every_function_is_named_outside_tests():
    orphans = uncalled(PACKAGE, _roots())
    assert not orphans, "only tests name: " + ", ".join(orphans)


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


def test_a_function_only_tests_name_is_reported(tmp_path):
    _write(tmp_path, {
        "pkg/__init__.py": ("from .core import exported\n"
                            "__all__ = ['exported', 'tested']\n"),
        "pkg/core.py": (
            "def tested(): pass\n"
            "def exported(): pass\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "def by_example(): pass\n"
            "class Wrapped:\n"
            "    def __init__(self): self.hidden()\n"
            "    def hidden(self): pass\n"
            "    def traced(self): pass\n"
            "    def untraced(self): pass\n"),
        "perf/trace.py": ("from pkg.core import Wrapped\n"
                          "WRAPPED = [(Wrapped, 'traced'),\n"
                          "           'pkg.core:Wrapped.untraced.x']\n"),
        "examples/demo.py": ("from pkg.core import by_example\n"
                             "by_example()\n"),
        "tests/test_core.py": ("from pkg.core import tested, exported\n"
                               "tested(); exported()\n"),
    })
    roots = [tmp_path / tree / name for tree, name in (
        ("perf", "trace.py"), ("examples", "demo.py"))]
    assert uncalled(tmp_path / "pkg", roots) == [
        "core.py:tested", "core.py:exported", "core.py:recursive"]
    assert uncalled(tmp_path / "pkg", roots[:1]) == [
        "core.py:tested", "core.py:exported", "core.py:recursive",
        "core.py:by_example"]
    assert uncalled(tmp_path / "pkg", roots[1:]) == [
        "core.py:tested", "core.py:exported", "core.py:recursive",
        "core.py:Wrapped", "core.py:Wrapped.traced",
        "core.py:Wrapped.untraced"]
