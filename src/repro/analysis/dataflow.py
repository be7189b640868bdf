"""Lightweight inter-procedural dataflow over the simulator packages.

The concurrency rules (SIM006–SIM010, :mod:`repro.analysis.concurrency`)
need one fact the purely syntactic passes cannot establish: *does this
function's behaviour feed a determinism-sensitive sink?*  A sink is a
fingerprint digest, an event-timestamp producer, or a boundary-exchange
publish — the three places where an ordering or identity wobble becomes a
cross-run or cross-process divergence.  In an event-driven simulator that
property is viral: ``sharded_fingerprint`` hashes the event stream of a
whole fleet run, so anything that schedules an event anywhere under it is
order-observable.

The model here is deliberately small: a module-level call graph keyed by
*bare callee names* (``self._poke(...)`` and ``poke(...)`` both produce
the edge ``caller -> _poke`` / ``poke``), built in one AST walk per file.
Name-keyed resolution over-approximates — two unrelated functions sharing
a name are conflated — which is the right failure mode for a lint: extra
reachability can only make a rule *consider* a site, never suppress one.
On top of the graph, :meth:`ProjectIndex.sink_feeding` computes the set of
functions that can reach a sink primitive, and the per-function
:class:`FunctionInfo` records the nondeterminism sources observed inside
(``id()`` / ``hash()`` / wall-clock reads) so rules can combine "taints a
nondet value" with "reaches a sink".
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = [
    "FunctionInfo",
    "ProjectIndex",
    "NONDET_SOURCE_CALLS",
    "SINK_PRIMITIVE_CALLS",
    "SINK_NAME_RE",
    "index_module",
]

#: bare callee names that ARE determinism-sensitive sinks: fingerprint
#: digests, event-timestamp producers, boundary publishes.  A function
#: calling one of these is a sink; anything that can reach it through the
#: call graph is sink-feeding.
SINK_PRIMITIVE_CALLS = frozenset({
    # fingerprinting / digesting
    "sha256", "blake2b", "_digest", "hexdigest",
    # event-timestamp producers (the scheduling machinery)
    "schedule", "schedule_in", "heappush", "transfer", "submit",
    "submit_batch",
    # boundary-exchange summaries
    "publish", "set_remote_load",
})

#: function names that mark a sink even when the body delegates
SINK_NAME_RE = re.compile(r"fingerprint|digest|checksum")

#: bare callee names whose results are process- or run-unstable:
#: CPython object identity, PYTHONHASHSEED-salted hashing, entropy.
NONDET_SOURCE_CALLS = frozenset({
    "id", "hash", "urandom", "token_bytes", "token_hex", "uuid4", "uuid1",
})


@dataclass
class FunctionInfo:
    """One function (or method) as the call graph sees it."""

    qualname: str            #: ``module:Class.func`` / ``module:func``
    name: str                #: bare name (graph key)
    module: str              #: module path the function lives in
    class_name: Optional[str]
    lineno: int
    calls: Set[str] = field(default_factory=set)
    #: nondeterminism-source calls observed in the body (bare names)
    nondet_calls: Set[str] = field(default_factory=set)
    #: directly calls a sink primitive or is named like one
    is_sink: bool = False


def _bare_callee(node: ast.Call) -> Optional[str]:
    fn = node.func
    if isinstance(fn, ast.Name):
        return fn.id
    if isinstance(fn, ast.Attribute):
        return fn.attr
    return None


class _FunctionCollector(ast.NodeVisitor):
    """One walk: every function's callees and nondet sources."""

    def __init__(self, module: str) -> None:
        self.module = module
        self.functions: List[FunctionInfo] = []
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionInfo] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        cls = self._class_stack[-1] if self._class_stack else None
        qual = f"{self.module}:{cls + '.' if cls else ''}{node.name}"
        info = FunctionInfo(
            qualname=qual,
            name=node.name,
            module=self.module,
            class_name=cls,
            lineno=node.lineno,
            is_sink=bool(SINK_NAME_RE.search(node.name)),
        )
        self.functions.append(info)
        self._func_stack.append(info)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        callee = _bare_callee(node)
        if callee is not None and self._func_stack:
            # nested defs attribute their calls to every enclosing
            # function: a closure's call runs when the outer scope does
            for info in self._func_stack:
                info.calls.add(callee)
                if callee in NONDET_SOURCE_CALLS:
                    info.nondet_calls.add(callee)
                if callee in SINK_PRIMITIVE_CALLS:
                    info.is_sink = True
        self.generic_visit(node)


def index_module(tree: ast.AST, module: str) -> List[FunctionInfo]:
    """Collect every function in one parsed module."""
    collector = _FunctionCollector(module)
    collector.visit(tree)
    return collector.functions


class ProjectIndex:
    """Name-keyed call graph over every indexed module.

    ``sink_feeding()`` answers the one inter-procedural query the rules
    need: the set of bare function names whose behaviour is observable
    through a sink.  That is the union of two closures over the
    name-keyed edges:

    * **reaches-a-sink** — ``f`` is sink-feeding when ``f`` is a sink or
      any callee of ``f`` is (the scheduler's ``submit_batch`` feeds
      event timestamps because it can reach ``schedule``);
    * **runs-under-a-sink** — every indexed function transitively
      *called by* a sink (``sharded_fingerprint`` hashes a whole fleet
      run, so everything the run executes feeds the digest).  This walk
      only follows names that resolve to indexed functions, so builtin
      noise (``len``, ``append`` …) cannot blow the closure up.
    """

    def __init__(self) -> None:
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        self._sink_feeding: Optional[Set[str]] = None

    def add_module(self, tree: ast.AST, module: str) -> List[FunctionInfo]:
        """Index one module's functions into the graph."""
        infos = index_module(tree, module)
        self.functions.extend(infos)
        for info in infos:
            self.by_name.setdefault(info.name, []).append(info)
        self._sink_feeding = None  # graph changed; recompute lazily
        return infos

    # ------------------------------------------------------------------
    def sink_feeding(self) -> Set[str]:
        """Bare names of functions that can reach a sink primitive."""
        if self._sink_feeding is None:
            self._sink_feeding = self._compute_sink_feeding()
        return self._sink_feeding

    def is_sink_feeding(self, name: str) -> bool:
        """Can a function of this bare name reach a sink?

        Sink primitives themselves count (a function *named* ``schedule``
        is scheduling machinery even if its body only delegates through
        dynamic dispatch the static graph cannot see).
        """
        if name in SINK_PRIMITIVE_CALLS or SINK_NAME_RE.search(name):
            return True
        return name in self.sink_feeding()

    def _compute_sink_feeding(self) -> Set[str]:
        sinks = {info.name for info in self.functions if info.is_sink}
        # reaches-a-sink fixpoint: f joins when any callee name is
        # already feeding or is itself a sink primitive.  Iterations are
        # bounded by the longest acyclic call chain; the graphs here are
        # a few hundred nodes.
        feeding = set(sinks)
        changed = True
        while changed:
            changed = False
            for info in self.functions:
                if info.name in feeding:
                    continue
                for callee in info.calls:
                    if callee in feeding or callee in SINK_PRIMITIVE_CALLS:
                        feeding.add(info.name)
                        changed = True
                        break
        # runs-under-a-sink closure: transitive callees of sinks,
        # restricted to names that resolve to indexed functions
        frontier = list(sinks)
        under: Set[str] = set(sinks)
        while frontier:
            name = frontier.pop()
            for info in self.by_name.get(name, ()):
                for callee in info.calls:
                    if callee in self.by_name and callee not in under:
                        under.add(callee)
                        frontier.append(callee)
        return feeding | under

    # ------------------------------------------------------------------
    def nondet_tainted(self) -> Set[str]:
        """Bare names of functions observing a nondeterminism source."""
        return {
            info.name for info in self.functions if info.nondet_calls
        }
