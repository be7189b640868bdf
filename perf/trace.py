"""Outside-in span tracer for the benchmark's per-layer run.

Nothing in ``src/`` knows about this module.  Spans come from two places,
both installed (and removed) from here:

* class-level wrappers around the public entry points of each layer
  (``Network.transfer``, ``LoRS.download``, ``ZlibCodec.decompress`` ...):
  one span per call, nested by the Python call stack;
* the public ``EventQueue.on_fire`` hook: every fired event's callback is
  timed and owned by the layer of the callback's module, so simulator time
  lands on the layer that scheduled the work.

A layer's self time is its spans' duration minus the part their child spans
cover, so the self times of all layers sum to the duration of the root
spans exactly.  Aggregates are complete; individual spans are kept up to
``SPAN_CAP`` and written as Chrome ``trace_event`` JSON.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SPAN_CAP = 50_000

#: layers a span may be owned by; a fired event whose callback lives
#: elsewhere is owned by ``unknown`` (the tests hold that share under 1 %)
LAYERS = (
    "harness",
    "lon.simtime", "lon.network", "lon.scheduler", "lon.lors", "lon.ibp",
    "lon.shard", "lon.other",
    "streaming.session", "streaming.multiclient", "streaming.client",
    "streaming.agent", "streaming.staging", "streaming.other",
    "obs",
    "lightfield.compression", "lightfield.viewset", "lightfield.build",
    "lightfield.synthesis", "render.raycast", "volume.accel",
    "unknown",
)


def layer_of_module(module: Optional[str]) -> str:
    """The declared layer owning code in ``module`` (a dotted name)."""
    if not module or not module.startswith("repro."):
        return "unknown"
    name = module[len("repro."):]
    if name in LAYERS:
        return name
    package = name.partition(".")[0]
    if package == "obs":
        return "obs"
    other = f"{package}.other"
    return other if other in LAYERS else "unknown"


def layer_of_callback(callback: Callable[..., Any]) -> str:
    """Layer of an event callback (function, lambda, method or partial)."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    return layer_of_module(getattr(callback, "__module__", None))


class SpanTracer:
    """In-memory nested spans with per-layer self-time aggregation."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = {}          # span name -> count
        self.name_self_s: Dict[str, float] = {}  # span name -> self seconds
        self.counters: Dict[str, float] = {}     # free-form work counts
        self.root_s = 0.0
        self.spans: List[Tuple[str, str, float, float, int, str]] = []
        self.dropped = 0
        # open spans: [layer, name, start, child seconds, span index, request]
        self._stack: List[List[Any]] = []
        #: objects seen as ``self`` by a wrapper, by class name, in first-
        #: seen order — lets the harness read public ``stats`` afterwards
        self.instances: Dict[str, Dict[int, Any]] = {}

    @property
    def active(self) -> bool:
        """True inside a root span; calls outside one (set-up, the
        benchmark's own output checks) are not the program under test."""
        return bool(self._stack)

    # ------------------------------------------------------------------
    def enter(self, layer: str, name: str, request: str = "") -> None:
        stack = self._stack
        if not request and stack:
            request = stack[-1][5]
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(("", "", 0.0, 0.0, -1, ""))  # filled on exit
        else:
            self.dropped += 1
        stack.append([layer, name, perf_counter(), 0.0, index, request])

    def exit(self) -> None:
        end = perf_counter()
        layer, name, start, child_s, index, request = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[name] = self.calls.get(name, 0) + 1
        self.name_self_s[name] = (
            self.name_self_s.get(name, 0.0) + duration - child_s)
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_index = parent[4]
        else:
            self.root_s += duration
            parent_index = -1
        if index >= 0:
            self.spans[index] = (name, layer, start, end, parent_index,
                                 request)

    @contextmanager
    def span(self, layer: str, name: str, request: str = "") -> Iterator[None]:
        self.enter(layer, name, request)
        try:
            yield
        finally:
            self.exit()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def note_instance(self, obj: Any) -> None:
        self.instances.setdefault(type(obj).__name__, {})[id(obj)] = obj

    def seen(self, class_name: str) -> List[Any]:
        return list(self.instances.get(class_name, {}).values())

    # ------------------------------------------------------------------
    def chrome_events(self) -> List[Dict[str, Any]]:
        """The kept spans as Chrome ``trace_event`` complete events."""
        if not self.spans:
            return []
        t0 = min(s[2] for s in self.spans if s[0])
        return [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "request": request},
            }
            for i, (name, layer, start, end, parent, request)
            in enumerate(self.spans) if name
        ]

    def write_chrome(self, path: str, meta: Dict[str, Any]) -> None:
        with open(path, "w") as fh:
            json.dump({"traceEvents": self.chrome_events(),
                       "otherData": {**meta, "dropped_spans": self.dropped}},
                      fh)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
After = Callable[[SpanTracer, Any, tuple, Any], None]


def _after_raycast(tr: SpanTracer, self: Any, args: tuple, out: Any) -> None:
    stats = self.last_render_stats
    tr.count("render.raycast.rays", stats.rays)
    tr.count("render.raycast.steps", stats.steps)
    tr.count("render.raycast.skipped_rays", stats.skipped_rays)


def _after_synthesis(tr: SpanTracer, self: Any, args: tuple, out: Any) -> None:
    camera = args[0]
    tr.count("lightfield.synthesis.rays", camera.width * camera.height)


def _after_decompress(tr: SpanTracer, self: Any, args: tuple, out: Any) -> None:
    tr.count("lightfield.compression.decompressed_bytes", out[0].nbytes)


def _wrap_specs() -> List[Tuple[type, str, str, Optional[After]]]:
    """(class, method, layer, after-hook) for every wrapped entry point."""
    from repro.lightfield import (
        DeltaZlibCodec, LightFieldBuilder, LightFieldSynthesizer, ViewSet,
        ZlibCodec,
    )
    from repro.lon import Depot, LoRS, Network, TransferScheduler
    from repro.lon.shard import BoundaryExchange
    from repro.obs import Tracer
    from repro.render import RaycastRenderer
    from repro.streaming import ClientAgent, StagingPump

    specs: List[Tuple[type, str, str, Optional[After]]] = []

    def add(cls: type, layer: str, *methods: str,
            after: Optional[After] = None) -> None:
        specs.extend((cls, m, layer, after) for m in methods)

    add(Network, "lon.network", "transfer", "flush", "admission_plan",
        "cancel_flow", "pause_flow", "resume_flow", "set_flow_weight",
        "set_remote_load")
    add(TransferScheduler, "lon.scheduler", "submit", "submit_batch",
        "cancel", "promote")
    add(LoRS, "lon.lors", "place", "upload", "download", "augment")
    add(Depot, "lon.ibp", "allocate", "store", "load", "copy_out")
    add(BoundaryExchange, "lon.shard", "publish", "remote")
    add(ClientAgent, "streaming.agent", "request", "retarget", "prefetch")
    add(StagingPump, "streaming.staging", "update_cursor")
    add(Tracer, "obs", "begin", "record", "span")
    for codec in (ZlibCodec, DeltaZlibCodec):
        add(codec, "lightfield.compression", "compress")
        add(codec, "lightfield.compression", "decompress",
            after=_after_decompress)
    add(ViewSet, "lightfield.viewset", "from_bytes")
    add(LightFieldBuilder, "lightfield.build", "render_viewset",
        "compress_viewset")
    add(RaycastRenderer, "render.raycast", "render", after=_after_raycast)
    add(RaycastRenderer, "volume.accel", "prepare")
    add(LightFieldSynthesizer, "lightfield.synthesis", "render",
        after=_after_synthesis)
    return specs


def _wrapped(tr: SpanTracer, fn: Callable[..., Any], layer: str, name: str,
             after: Optional[After], note_self: bool) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not tr.active:
            return fn(self, *args, **kwargs)
        if note_self:
            tr.note_instance(self)
        tr.enter(layer, name)
        try:
            out = fn(self, *args, **kwargs)
        finally:
            tr.exit()
        if after is not None:
            after(tr, self, args, out)
        return out

    return wrapper


class Instrumentation:
    """Installs the wrappers and the event hook; ``remove`` undoes both."""

    def __init__(self, tracer: SpanTracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[type, str, Any]] = []

    def install(self) -> None:
        from repro.lon import EventQueue

        tr = self.tracer
        for cls, method, layer, after in _wrap_specs():
            raw = cls.__dict__[method]
            name = f"{cls.__name__}.{method}"
            if isinstance(raw, classmethod):
                new: Any = classmethod(
                    _wrapped(tr, raw.__func__, layer, name, after, False))
            else:
                new = _wrapped(tr, raw, layer, name, after, True)
            self._saved.append((cls, method, raw))
            setattr(cls, method, new)

        run_until = EventQueue.__dict__["run_until"]

        def on_fire(event: Any) -> None:
            # the queue reads ``event.callback`` after this hook returns,
            # so swapping it times exactly the callback's own interval
            callback = event.callback
            layer = layer_of_callback(callback)
            label = event.label
            kind, _, request = label.partition(":")
            name = "event:" + kind
            if layer == "obs":
                tr.count("obs.sampler_ticks")
            elif label == "cursor":
                tr.count("streaming.client.cursor_samples")

            def timed() -> None:
                tr.enter(layer, name, request)
                try:
                    callback()
                finally:
                    tr.exit()

            event.callback = timed

        @functools.wraps(run_until)
        def traced_run_until(queue: Any, *args: Any, **kwargs: Any) -> Any:
            if not tr.active:
                return run_until(queue, *args, **kwargs)
            tr.note_instance(queue)
            hooked = queue.on_fire is None
            if hooked:
                queue.on_fire = on_fire
            tr.enter("lon.simtime", "EventQueue.run_until")
            try:
                return run_until(queue, *args, **kwargs)
            finally:
                tr.exit()
                if hooked:
                    queue.on_fire = None

        self._saved.append((EventQueue, "run_until", run_until))
        EventQueue.run_until = traced_run_until  # type: ignore[method-assign]

    def remove(self) -> None:
        while self._saved:
            cls, method, raw = self._saved.pop()
            setattr(cls, method, raw)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()


def wrapped_entry_points() -> List[Tuple[type, str]]:
    """Every (class, method) the instrumentation replaces (for the tests)."""
    from repro.lon import EventQueue

    return [(c, m) for c, m, _, _ in _wrap_specs()] + [(EventQueue,
                                                        "run_until")]
