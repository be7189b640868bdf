"""Custom AST lint passes encoding the simulator's determinism invariants.

Generic linters cannot know that ``time.time()`` inside ``repro.lon`` is a
correctness bug while the same call inside a benchmark harness is the whole
point, or that iterating a ``set`` of flow ids right before rescheduling
completion events silently reorders same-timestamp ties.  These passes do.

Rules
-----
``SIM001`` wall-clock-in-sim
    ``time.time`` / ``time.monotonic`` / ``time.perf_counter`` (and their
    ``_ns`` variants), argless ``datetime.now()`` / ``utcnow()`` /
    ``today()``, module-level ``random.*`` and the legacy global
    ``np.random.*`` API inside simulator packages (``repro.lon``,
    ``repro.streaming``, ``repro.obs``).  Simulated components must read
    the :class:`~repro.lon.simtime.SimClock` and draw randomness from
    seeded ``np.random.default_rng`` generators.
``SIM002`` unsorted-set-iteration
    Iterating a ``set``-typed expression (a set display, ``set()`` /
    ``frozenset()`` call, or a name/attribute/subscript whose annotation
    says set — including values of ``Dict[..., Set[...]]`` attributes)
    inside a function that schedules events or rebalances flows, without a
    ``sorted(...)`` wrapper.  Set order is observable through event
    sequence numbers: two same-timestamp events fire in schedule order, so
    an arbitrary iteration order breaks bit-reproducibility.
``SIM003`` event-queue-bypass
    Touching ``EventQueue._heap`` or constructing
    :class:`~repro.lon.simtime.Event` outside ``simtime.py``.  Direct heap
    pushes bypass the queue's live-entry accounting — the exact bug class
    behind the ``Event.cancel()`` regression fixed in the scale PR.
``SIM004`` mutable-default-arg
    A mutable literal (``[]``, ``{}``, ``set()``, …) as a function default:
    one shared instance across every call.
``SIM005`` float-time-equality
    ``==`` / ``!=`` between sim-time-valued expressions (``.now``,
    ``*_time``, ``*_at``, ``deadline`` …).  Rate rebalancing settles flows
    to within ``1e-12``-class epsilons; exact float comparison on times is
    either dead code or a heisenbug.  Use
    :func:`repro.lon.simtime.time_eq`.
``SIM006``–``SIM010`` concurrency-correctness passes
    Shared-array writes outside publish helpers, unpicklable worker
    captures, unordered float accumulation feeding fingerprints,
    barrier-phase violations and unstable identity keys — the sharded
    core's invariants, documented in
    :mod:`repro.analysis.concurrency` and backed by the
    inter-procedural call graph in :mod:`repro.analysis.dataflow`.

Suppression
-----------
Append ``# repro: allow[SIM001]`` (comma-separate several ids) to the
flagged line, or put it on a comment line directly above.  Suppressions are
deliberate and greppable — every one in ``src/`` should explain itself.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    from .dataflow import ProjectIndex

__all__ = ["Finding", "RULES", "lint_source", "lint_paths", "main"]

#: rule id -> (slug, one-line description)
RULES: dict[str, tuple[str, str]] = {
    "SIM001": (
        "wall-clock-in-sim",
        "wall-clock or unseeded randomness inside simulator code",
    ),
    "SIM002": (
        "unsorted-set-iteration",
        "set iteration feeding event scheduling without a deterministic sort",
    ),
    "SIM003": (
        "event-queue-bypass",
        "EventQueue._heap access or Event construction outside simtime",
    ),
    "SIM004": (
        "mutable-default-arg",
        "mutable default argument shared across calls",
    ),
    "SIM005": (
        "float-time-equality",
        "exact float ==/!= on simulation-time values",
    ),
    # SIM006-SIM010 live in repro.analysis.concurrency; the ids are
    # registered here so Finding.slug, --rule validation and the
    # suppression syntax treat every pass uniformly
    "SIM006": (
        "shared-array-write-outside-publish",
        "shared mp.Array/BoundaryExchange write outside a publish helper",
    ),
    "SIM007": (
        "unpicklable-worker-capture",
        "lambda/lock/handle crossing a worker process boundary",
    ),
    "SIM008": (
        "unordered-float-accumulation",
        "order-sensitive float accumulation over an unordered iterable "
        "feeding a fingerprint",
    ),
    "SIM009": (
        "barrier-phase-violation",
        "boundary-exchange read/publish outside its barrier phase",
    ),
    "SIM010": (
        "unstable-identity-key",
        "id()/salted hash() used as a cross-process or fingerprint key",
    ),
}

#: path fragments marking the simulator packages SIM001/SIM002/SIM005 watch
SIM_PACKAGE_FRAGMENTS = (
    "repro/lon", "repro/streaming", "repro/obs", "repro/experiments",
)

#: calls whose presence marks a function as feeding the event/flow machinery
_SCHEDULING_CALLS = frozenset({
    "schedule", "schedule_in", "heappush", "transfer", "submit",
    "pause_flow", "resume_flow", "cancel_flow", "set_flow_weight",
    "_poke", "_reschedule", "flush", "_retire",
})

#: function-name fragments that imply scheduling/rebalancing context even
#: when the body delegates (e.g. a rebalance helper calling private hooks)
_SCHEDULING_NAME_RE = re.compile(r"rebalance|flush|schedule")

_WALL_CLOCK_TIME_ATTRS = frozenset({
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
})
_DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})
#: np.random attributes that are fine: explicit seeded construction
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")

_TIMEY_EXACT = frozenset({
    "now", "time", "deadline", "horizon", "expiry", "last_update",
    "t0", "t1",
})


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str

    @property
    def slug(self) -> str:
        """Human-readable rule name (``wall-clock-in-sim`` …)."""
        return RULES[self.rule][0]

    def render(self) -> str:
        """``path:line:col RULEID message (fix: hint)`` — one line."""
        return (f"{self.path}:{self.line}:{self.col} "
                f"{self.rule}[{self.slug}] {self.message} (fix: {self.hint})")


def is_sim_scope(path: str) -> bool:
    """True when ``path`` lies inside a simulator package."""
    norm = str(path).replace("\\", "/")
    return any(frag in norm for frag in SIM_PACKAGE_FRAGMENTS)


def _is_timey_name(name: str) -> bool:
    """Heuristic: does this identifier carry a simulation time value?"""
    if name in _TIMEY_EXACT:
        return True
    if name.endswith("_at"):
        return True
    parts = name.split("_")
    return "time" in parts


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_is_set(ann: ast.expr) -> bool:
    """Does an annotation node denote a set-like type?"""
    target = ann
    if isinstance(target, ast.Subscript):
        target = target.value
    name = None
    if isinstance(target, ast.Name):
        name = target.id
    elif isinstance(target, ast.Attribute):
        name = target.attr
    return name in ("Set", "FrozenSet", "set", "frozenset", "MutableSet",
                    "AbstractSet")


def _annotation_is_dict_of_set(ann: ast.expr) -> bool:
    """Does an annotation denote ``Dict[..., Set[...]]``-shaped types?"""
    if not isinstance(ann, ast.Subscript):
        return False
    base = ann.value
    base_name = None
    if isinstance(base, ast.Name):
        base_name = base.id
    elif isinstance(base, ast.Attribute):
        base_name = base.attr
    if base_name not in ("Dict", "dict", "DefaultDict", "defaultdict",
                        "Mapping", "MutableMapping"):
        return False
    sl = ann.slice
    if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
        return _annotation_is_set(sl.elts[1])
    return False


class _SetTypeIndex:
    """Names/attributes annotated set-like anywhere in the module.

    Attribute types are collected module-wide rather than per-class: the
    simulator's private state (``self._dirty: Set[int]``) never reuses a
    name with a different shape, and module-wide lookup keeps the pass to
    one walk.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.set_names: set[str] = set()
        self.set_attrs: set[str] = set()
        self.dict_of_set_attrs: set[str] = set()
        self.dict_of_set_names: set[str] = set()
        for node in ast.walk(tree):
            ann = None
            target = None
            if isinstance(node, ast.AnnAssign):
                ann, target = node.annotation, node.target
            elif isinstance(node, ast.arg) and node.annotation is not None:
                if _annotation_is_set(node.annotation):
                    self.set_names.add(node.arg)
                elif _annotation_is_dict_of_set(node.annotation):
                    self.dict_of_set_names.add(node.arg)
                continue
            if ann is None or target is None:
                continue
            if _annotation_is_set(ann):
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    self.set_attrs.add(target.attr)
            elif _annotation_is_dict_of_set(ann):
                if isinstance(target, ast.Name):
                    self.dict_of_set_names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    self.dict_of_set_attrs.add(target.attr)
        # second pass — one-hop alias propagation: `members = self._members`
        # gives the local the attribute's shape (the hot rebalance paths
        # hoist attribute lookups exactly like this)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if node.value.attr in self.set_attrs:
                        self.set_names.add(target.id)
                    if node.value.attr in self.dict_of_set_attrs:
                        self.dict_of_set_names.add(target.id)

    # ------------------------------------------------------------------
    def names_set_expr(self, node: ast.expr) -> bool:
        """Is ``node`` (an iteration target) a set-typed expression?"""
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in ("set", "frozenset"):
                return True
            # d.get(k) / d.get(k, default) on a dict-of-set attribute
            if (isinstance(fn, ast.Attribute) and fn.attr == "get"
                    and self._is_dict_of_set(fn.value)):
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.Subscript):
            return self._is_dict_of_set(node.value)
        return False

    def _is_dict_of_set(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.dict_of_set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.dict_of_set_attrs
        return False


class _Suppressions:
    """``# repro: allow[...]`` comments, resolved per line."""

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, set[str]] = {}
        for lineno, text in enumerate(source.splitlines(), start=1):
            m = _ALLOW_RE.search(text)
            if not m:
                continue
            ids = {part.strip().upper() for part in m.group(1).split(",")
                   if part.strip()}
            self._by_line[lineno] = ids
            # a comment-only line covers the statement right below it
            if text.lstrip().startswith("#"):
                self._by_line.setdefault(lineno + 1, set()).update(ids)

    def allows(self, line: int, rule: str) -> bool:
        return rule in self._by_line.get(line, ())


class _Checker(ast.NodeVisitor):
    """Single-walk visitor running every rule over one module."""

    def __init__(self, path: str, sim_scope: bool,
                 set_index: _SetTypeIndex) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.set_index = set_index
        self.is_simtime = Path(path).name == "simtime.py"
        self.findings: list[Finding] = []
        self._func_stack: list[bool] = []  # is enclosing func scheduling?
        self._event_names: set[str] = set()  # local bindings of simtime.Event
        # comprehensions passed straight into sorted()/min()/max() are
        # already order-insensitive; remember their node ids so SIM002
        # skips them
        self._ordered_args: set[int] = set()

    # -- plumbing ------------------------------------------------------
    def flag(self, node: ast.AST, rule: str, message: str,
             hint: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
            hint=hint,
        ))

    @property
    def _in_scheduling_func(self) -> bool:
        return any(self._func_stack)

    # -- imports (SIM003 needs to know what `Event` means here) --------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        from_simtime = module.endswith("simtime") or (
            node.level > 0 and module == "simtime")
        if from_simtime:
            for alias in node.names:
                if alias.name == "Event":
                    self._event_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- function context ---------------------------------------------
    def _visit_func(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self._check_mutable_defaults(node)
        schedules = bool(_SCHEDULING_NAME_RE.search(node.name))
        if not schedules:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    callee = sub.func
                    name = (callee.attr if isinstance(callee, ast.Attribute)
                            else callee.id if isinstance(callee, ast.Name)
                            else None)
                    if name in _SCHEDULING_CALLS:
                        schedules = True
                        break
        self._func_stack.append(schedules)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_mutable_defaults(node)
        self.generic_visit(node)

    def _check_mutable_defaults(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    ) -> None:
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (not mutable and isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set",
                                            "bytearray")):
                mutable = True
            if mutable:
                self.flag(
                    default, "SIM004",
                    "mutable default argument is shared across calls",
                    "default to None and create the container in the body",
                )

    # -- SIM001: wall clock / nondeterminism ---------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.sim_scope:
            self._check_wall_clock(node)
        self._check_event_construction(node)
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("sorted", "min", "max", "len")):
            for arg in node.args:
                self._ordered_args.add(id(arg))
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if len(parts) < 2:
            return
        head, attr = parts[0], parts[-1]
        base = ".".join(parts[:-1])
        if base == "time" and attr in _WALL_CLOCK_TIME_ATTRS:
            self.flag(node, "SIM001",
                      f"wall-clock call time.{attr}() in simulator code",
                      "read sim time from the EventQueue/SimClock instead")
        elif (parts[-2] == "datetime" if len(parts) >= 2 else False) \
                and attr in _DATETIME_NOW_ATTRS and not node.args \
                and not node.keywords:
            self.flag(node, "SIM001",
                      f"wall-clock call datetime.{attr}() in simulator code",
                      "sim components must not read the host calendar")
        elif head == "random" and len(parts) == 2 and attr != "Random":
            self.flag(node, "SIM001",
                      f"module-level random.{attr}() uses the shared "
                      "unseeded RNG",
                      "use a seeded np.random.default_rng(seed) generator")
        elif (base in ("np.random", "numpy.random")
                and attr not in _NP_RANDOM_OK):
            self.flag(node, "SIM001",
                      f"global {base}.{attr}() is unseeded process state",
                      "use a seeded np.random.default_rng(seed) generator")

    # -- SIM002: unsorted set iteration --------------------------------
    def _check_iteration(self, iter_node: ast.expr) -> None:
        if not (self.sim_scope and self._in_scheduling_func):
            return
        if self.set_index.names_set_expr(iter_node):
            what = _dotted(iter_node) or "set expression"
            self.flag(
                iter_node, "SIM002",
                f"iterating {what!r} (a set) in scheduling code without a "
                "deterministic order",
                "wrap in sorted(...) — set order leaks into event "
                "sequence numbers and breaks same-timestamp tie-breaks",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(
        self,
        node: (ast.ListComp | ast.SetComp | ast.DictComp
               | ast.GeneratorExp),
    ) -> None:
        if id(node) not in self._ordered_args:
            for gen in node.generators:
                self._check_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- SIM003: EventQueue bypass -------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "_heap" and not self.is_simtime:
            self.flag(node, "SIM003",
                      "direct access to EventQueue._heap bypasses "
                      "live-entry accounting",
                      "use schedule()/schedule_in()/cancel() on the queue")
        self.generic_visit(node)

    def _check_event_construction(self, node: ast.Call) -> None:
        if self.is_simtime:
            return
        fn = node.func
        name = None
        if isinstance(fn, ast.Name) and fn.id in self._event_names:
            name = fn.id
        elif isinstance(fn, ast.Attribute) and fn.attr == "Event":
            dotted = _dotted(fn)
            if dotted is not None and "simtime" in dotted:
                name = dotted
        if name is not None:
            self.flag(node, "SIM003",
                      f"constructing {name}(...) directly bypasses the "
                      "queue's seq/live accounting",
                      "obtain events via EventQueue.schedule()")

    # -- SIM005: float == on sim-time ----------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if self.sim_scope and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            # `x == None` is SIM005-adjacent but pyflakes' E711 territory
            if not any(isinstance(o, ast.Constant) and o.value is None
                       for o in operands):
                for operand in operands:
                    name = None
                    if isinstance(operand, ast.Attribute):
                        name = operand.attr
                    elif isinstance(operand, ast.Name):
                        name = operand.id
                    if name is not None and _is_timey_name(name):
                        self.flag(
                            node, "SIM005",
                            f"exact float ==/!= on sim-time value {name!r}",
                            "use repro.lon.simtime.time_eq(a, b) "
                            "(epsilon compare)",
                        )
                        break
        self.generic_visit(node)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
    sim_scope: Optional[bool] = None,
    index: Optional["ProjectIndex"] = None,
) -> list[Finding]:
    """Run every pass over one module's source text.

    ``sim_scope`` overrides the path-based package detection (used by the
    fixture tests); ``rules`` restricts output to a subset of rule ids.
    ``index`` supplies the project-wide call graph to the concurrency
    passes (SIM006–SIM010); without one they fall back to a single-module
    graph.
    """
    from .concurrency import check_concurrency

    tree = ast.parse(source, filename=path)
    scope = is_sim_scope(path) if sim_scope is None else sim_scope
    set_index = _SetTypeIndex(tree)
    checker = _Checker(path, scope, set_index)
    checker.visit(tree)
    checker.findings.extend(
        check_concurrency(tree, path, scope, set_index, index=index)
    )
    suppressions = _Suppressions(source)
    wanted = set(rules) if rules is not None else None
    out = []
    for f in checker.findings:
        if wanted is not None and f.rule not in wanted:
            continue
        if suppressions.allows(f.line, f.rule):
            continue
        out.append(f)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def _iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[str]] = None,
) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    Runs in two passes: the first builds the inter-procedural call graph
    over every simulator-package file (sink reachability must see
    cross-module edges — ``sharded_fingerprint`` lives two packages away
    from the scheduler it taints), the second lints each file against
    that shared index.
    """
    from .dataflow import ProjectIndex

    sources: list[tuple[Path, str]] = []
    for file in _iter_python_files(paths):
        try:
            sources.append((file, file.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            continue
    index = ProjectIndex()
    for file, source in sources:
        if not is_sim_scope(str(file)):
            continue
        try:
            index.add_module(ast.parse(source, filename=str(file)),
                             str(file))
        except SyntaxError:
            continue
    findings: list[Finding] = []
    for file, source in sources:
        findings.extend(
            lint_source(source, str(file), rules=rules, index=index)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro.analysis lint`` (0 = clean)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis lint",
        description="simulation-correctness lint passes (SIM001-SIM010)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--rule", action="append", dest="rules",
                        metavar="SIMXXX",
                        help="restrict to one rule id (repeatable)")
    args = parser.parse_args(argv)
    rules = None
    if args.rules:
        rules = [r.upper() for r in args.rules]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"unknown rule ids: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    findings = lint_paths(args.paths or ["src"], rules=rules)
    for f in findings:
        print(f.render())
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0
