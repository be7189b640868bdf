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

Parameters: a defaulted parameter of a ``def`` under ``src/repro`` is set
when a call in the package, ``perf/`` or ``benchmarks/`` passes it, by
keyword or by position, something other than its default literal.  Calls
match by name (``Name`` id or ``Attribute`` attr; a class name calls its
``__init__``, ``super().__init__`` the bases'; a ``__call__`` takes any
call no ``def`` answers to).  Also set: a string key of a dict in the
builtin specs' module, which the sweep engine passes as keywords; a keyword
on an indirect call (``factories[name](size=...)``) sets every parameter
of that name; ``**d`` passes the keys of the dict ``d`` is bound to in the
same scope.  A value that is the caller's own defaulted parameter sets
nothing unless that one is set.  Examples and tests do not count: a knob
only they turn has one value in use, and becomes a constant they
monkeypatch.  ``SEAMS`` lists the few a correctness oracle needs.
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
#: trees whose calls set a parameter (examples are a user's, not a caller)
SETTING_TREES = ("perf", "benchmarks")
#: the module whose dicts are the builtin specs' keyword arguments
SPECS = PACKAGE / "experiments" / "spec.py"
#: ``file:def.parameter`` -> (test that sets it, why no constant serves)
SEAMS = {
    "lon/shard.py:run_sharded_session.collect_streams": (
        "tests/lon/test_shard.py::test_workers_bit_equal_to_sequential",
        "the workers=N == workers=1 oracle compares the streams of two "
        "runs in one process, and only this switch ships a worker's "
        "streams back to its parent"),
    "lon/lors.py:LoRS.place.replicas": (
        "tests/lon/test_lors_properties.py::"
        "test_any_single_depot_loss_is_survivable",
        "the layout oracle draws r per hypothesis example beside "
        "single-copy placements in one process, and "
        "examples/depot_faults.py shows a replica surviving an outage; a "
        "module constant would replicate every placement at once"),
}


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


def _definitions(tree, prefix="", dunders=False):
    """``(qualified name, node)`` for every def and class in ``tree``, at
    any depth, dunders aside unless asked for."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            name = prefix + node.name
            if dunders or not (node.name.startswith("__")
                               and node.name.endswith("__")):
                yield name, node
            yield from _definitions(node, name + ".", dunders)
        else:
            yield from _definitions(node, prefix, dunders)


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


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        return False, None


def _is_default(value, default):
    """Whether ``value`` is the default: the same expression, or a literal
    of the same type and value."""
    if ast.dump(value) == ast.dump(default):
        return True
    (ok_v, v), (ok_d, d) = _literal(value), _literal(default)
    return ok_v and ok_d and type(v) is type(d) and v == d


class _Def:
    """One ``def``: its defaulted parameters and the names calls reach it
    by."""

    def __init__(self, node, cls, rel):
        self.node, self.rel = node, rel
        args = node.args
        decorators = {getattr(d, "id", getattr(d, "attr", None))
                      for d in node.decorator_list}
        self.skip = int(cls is not None and "staticmethod" not in decorators)
        self.positional = [p.arg for p in args.posonlyargs + args.args]
        firsts = self.positional[len(self.positional) - len(args.defaults):]
        self.defaults = dict(zip(firsts, args.defaults))
        self.defaults.update({p.arg: d for p, d in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None})
        self.key = cls.name if node.name == "__init__" and cls else node.name
        self.overload = "overload" in decorators


def _scopes(tree, func=None, cls=None):
    """``(node, enclosing def node, enclosing class node)`` for each node."""
    for node in ast.iter_child_nodes(tree):
        yield node, func, cls
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _scopes(node, node, cls)
        else:
            yield from _scopes(
                node, func, node if isinstance(node, ast.ClassDef) else cls)


def _dict_items(node):
    """``(key, value)`` of a dict display or a ``dict(...)`` call."""
    if isinstance(node, ast.Dict):
        return [(k.value, v) for k, v in zip(node.keys, node.values)
                if isinstance(k, ast.Constant) and isinstance(k.value, str)]
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "dict":
        return [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
    return []


def _bound_dicts(tree):
    """``name -> [(key, value, enclosing def node)]`` for every dict a
    name is bound to anywhere in ``tree``: ``**options`` in a worker passes
    what its parent built under that name."""
    found = {}
    for node, func, _ in _scopes(tree):
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and node.value is not None:
                found.setdefault(target.id, []).extend(
                    (key, value, func)
                    for key, value in _dict_items(node.value))
    return found


def _callee_keys(call, cls, dicts):
    """The ``def`` keys a call names, or ``None`` for an indirect call
    nothing resolves; ``table[key](...)`` calls the names ``table`` holds."""
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        held = [getattr(v, "id", getattr(v, "attr", None))
                for _, v, _ in dicts.get(func.value.id, ())]
        return [k for k in held if k] or None
    if not isinstance(func, ast.Attribute):
        return None
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super" and cls):
        return [getattr(b, "id", getattr(b, "attr", None))
                for b in cls.bases]
    return [func.attr]


def _passed(call, func, dicts):
    """``(position or keyword, value, starred, scope)`` for what a call
    passes; ``scope`` is the def the value is evaluated in."""
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            yield i, arg.value, True, func
            break
        yield i, arg, False, func
    for kw in call.keywords:
        if kw.arg is not None:
            yield kw.arg, kw.value, False, func
        elif isinstance(kw.value, ast.Name):
            for key, value, scope in dicts.get(kw.value.id, ()):
                yield key, value, False, scope


def _spec_keys(tree):
    """The keys a builtin spec passes a scenario: those of the dicts in a
    ``SweepSpec(...)`` call's ``fixed``, ``axes`` and ``points`` (through
    the module's helpers they call), and of a dict that merges others, as
    a run's ``{**fixed, **point, "seed": seed}`` does."""
    helpers = {n.name: n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef)}
    todo = [kw.value for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "SweepSpec"
            for kw in call.keywords if kw.arg in ("fixed", "axes", "points")]
    keys = {k.value for node in ast.walk(tree) if isinstance(node, ast.Dict)
            and None in node.keys
            for k in node.keys if isinstance(k, ast.Constant)}
    seen = set()
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Dict):
                keys |= {k.value for k in node.keys
                         if isinstance(k, ast.Constant)}
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in helpers
                  and node.func.id not in seen):
                seen.add(node.func.id)
                todo.append(helpers[node.func.id])
    return keys


def unset_parameters(package_dir, caller_files, spec_file, seams=()):
    """``relative path:qualified def.parameter`` of each defaulted parameter
    under ``package_dir`` that nothing in the package, ``caller_files`` or
    the spec dicts of ``spec_file`` sets (see the module docstring).  A
    seam counts as set, and so does what a caller forwards from it."""
    sources = sorted(Path(package_dir).rglob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in sources + [Path(p) for p in caller_files]}
    defs = {}
    for path, tree in trees.items():
        rel = path.relative_to(package_dir) if path in sources else None
        for node, _, cls in _scopes(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                d = _Def(node, cls, rel)
                if not d.overload:
                    defs[id(node)] = d
    qualnames = {id(node): name for path in sources
                 for name, node in _definitions(trees[path], dunders=True)}

    def label(i, name):
        return f"{defs[i].rel}:{qualnames[i]}.{name}"

    by_key = {}
    for d in defs.values():
        by_key.setdefault(d.key, []).append(d)
    answered = set(by_key) - {"__call__"}
    passes = {}                # (def id, parameter) -> [(value, caller)]
    for tree in trees.values():
        dicts = _bound_dicts(tree)
        for call, func, cls in _scopes(tree):
            if not isinstance(call, ast.Call):
                continue
            keys = _callee_keys(call, cls, dicts)
            if keys is None:
                targets = list(defs.values())
            else:
                targets = [d for k in keys for d in by_key.get(k, ())]
                if not any(k in answered for k in keys):
                    targets += by_key.get("__call__", [])
            for key, value, starred, scope in _passed(call, func, dicts):
                if keys is None and not isinstance(key, str):
                    continue
                caller = defs.get(id(scope))
                for d in targets:
                    if isinstance(key, str):
                        names = [key]
                    else:
                        names = d.positional[key + d.skip:]
                        names = names if starred else names[:1]
                    for name in names:
                        if name in d.defaults:
                            passes.setdefault((id(d.node), name), []).append(
                                (value, caller))
    spec = _spec_keys(ast.parse(Path(spec_file).read_text()))
    is_set = {(i, name) for i, d in defs.items() for name in d.defaults
              if name in spec or d.rel is not None and label(i, name) in seams}
    grown = True
    while grown:
        grown = False
        for (i, name), values in passes.items():
            if (i, name) in is_set:
                continue
            default = defs[i].defaults[name]
            for value, caller in values:
                if _is_default(value, default) or (
                        isinstance(value, ast.Name) and caller is not None
                        and value.id in caller.defaults
                        and (id(caller.node), value.id) not in is_set):
                    continue
                is_set.add((i, name))
                grown = True
                break
    return sorted(label(i, name) for i, d in defs.items() if d.rel is not None
                  for name in d.defaults if (i, name) not in is_set)


def _setters():
    return [path for tree in SETTING_TREES
            for path in sorted((REPO / tree).rglob("*.py"))]


def missing_seam_tests(seams, repo):
    """The seams whose ``path::name`` test is not a def in that file."""
    missing = []
    for seam, (test, _why) in sorted(seams.items()):
        path, _, name = test.partition("::")
        file = Path(repo) / path
        defined = file.is_file() and any(
            isinstance(node, ast.FunctionDef) and node.name == name
            for node in ast.walk(ast.parse(file.read_text())))
        if not defined:
            missing.append(seam)
    return missing


def test_every_parameter_has_a_second_value():
    assert unset_parameters(PACKAGE, _setters(), SPECS, SEAMS) == [], (
        "one value in use: make it a constant")
    unseamed = unset_parameters(PACKAGE, _setters(), SPECS)
    assert [s for s in SEAMS if s not in unseamed] == [], (
        "a seam some caller sets is no seam")
    assert len(SEAMS) <= 3
    assert missing_seam_tests(SEAMS, REPO) == []


def test_a_parameter_only_tests_set_is_reported(tmp_path):
    _write(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/core.py": (
            "def tested(x, knob=1): return x + knob\n"
            "def passed_default(x, knob=1.0): return x + knob\n"
            "def by_position(x, knob=1): return x + knob\n"
            "class Box:\n"
            "    def __init__(self, size=2): self.size = size\n"
            "    def grow(self, by=1): self.size += by\n"
            "def target(x, knob=1): return x + knob\n"
            "def forwarder(knob=1): return target(0, knob)\n"
            "def caller():\n"
            "    passed_default(1, knob=1.0)\n"
            "    by_position(1, 5)\n"
            "    Box(size=3).grow(2)\n"
            "    forwarder()\n"),
        "tests/test_core.py": ("from pkg.core import tested, forwarder\n"
                               "tested(1, knob=2)\n"
                               "forwarder(knob=3)\n"),
        "bench/run.py": ("from pkg.core import forwarder\n"
                         "forwarder(knob=3)\n"),
    })
    spec = tmp_path / "spec.py"
    spec.write_text("")
    unset = ["core.py:forwarder.knob", "core.py:passed_default.knob",
             "core.py:target.knob", "core.py:tested.knob"]
    assert unset_parameters(tmp_path / "pkg", [], spec) == unset
    # forwarding an unset parameter sets nothing; once it is set, it does
    assert unset_parameters(
        tmp_path / "pkg", [tmp_path / "bench" / "run.py"], spec) == [
        "core.py:passed_default.knob", "core.py:tested.knob"]


def test_spec_keys_indirect_keywords_and_forwarding_set(tmp_path):
    _write(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/scenarios.py": (
            "def point(case, speed=1.0): return case * speed\n"
            "def make(size=64): return size\n"
            "def shard(window=30.0, flag=False): return window, flag\n"
            "def label(title=''): return title\n"
            "def other(size=8): return size\n"),
        "pkg/driver.py": (
            "from .scenarios import make, shard\n"
            "def run(fn, params): return fn(**params)\n"
            "def cli(name, n):\n"
            "    factories = {'make': make}\n"
            "    return factories[name](size=n)\n"
            "def fleet(window=30.0, flag=False):\n"
            "    options = dict(window=window, flag=flag)\n"
            "    return shard(**options)\n"
            "def main(w): return fleet(window=w)\n"),
        "pkg/spec.py": ("SPECS = [SweepSpec(points=[{'case': 2,\n"
                        "                            'speed': 4}])]\n"
                        "DOC = {'title': 'not a keyword'}\n"),
    })
    assert unset_parameters(tmp_path / "pkg", [],
                            tmp_path / "pkg" / "spec.py") == [
        "driver.py:fleet.flag", "scenarios.py:label.title",
        "scenarios.py:other.size", "scenarios.py:shard.flag"]
    # a seam counts as set, and so does what is forwarded from it
    assert unset_parameters(tmp_path / "pkg", [],
                            tmp_path / "pkg" / "spec.py",
                            {"driver.py:fleet.flag": None}) == [
        "scenarios.py:label.title", "scenarios.py:other.size"]


def test_a_seam_whose_test_is_gone_fails(tmp_path):
    _write(tmp_path, {"tests/test_oracle.py": "def test_oracle(): pass\n"})
    seams = {"a.py:f.x": ("tests/test_oracle.py::test_oracle", "why"),
             "a.py:g.y": ("tests/test_oracle.py::test_renamed", "why"),
             "a.py:h.z": ("tests/test_missing.py::test_oracle", "why")}
    assert missing_seam_tests(seams, tmp_path) == ["a.py:g.y", "a.py:h.z"]
