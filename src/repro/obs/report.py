"""Trace analysis: per-access waterfalls and per-stage latency breakdowns.

This is the read side of the observability layer — the ``python -m repro
trace-report`` CLI and :meth:`SessionMetrics.breakdown` both land here.  The
input is the span-dict list produced by :meth:`Tracer.span_dicts` or
recovered from a saved trace via :func:`repro.obs.export.load_trace`; the
output reproduces the paper's latency-attribution story as tables: where did
each access's wait go (request RPC, queue wait, network transfer, shipping,
decompression), split by the :class:`AccessSource` tier that served it.

Quantiles here are *exact* (computed from the raw per-access durations, not
histogram buckets) because a report over a finished trace has all the data
in hand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union, cast

__all__ = [
    "stage_breakdown",
    "render_breakdown_table",
    "render_waterfall",
    "trace_report",
]

#: spans as read here: strict tracer dicts or loose loaded dicts both fit
SpanDict = Mapping[str, object]

#: canonical display order of the demand-path stages
STAGE_ORDER = [
    "request-rpc",
    "queue-wait",
    "cache-lookup",
    "network-transfer",
    "ship-to-console",
    "decompress",
]

#: characters of a waterfall bar: the whole access window
WATERFALL_WIDTH = 48


def _duration(span: SpanDict) -> float:
    return float(cast(float, span["end"])) - float(cast(float, span["start"]))


def _children_by_parent(spans: Sequence[SpanDict]) -> Dict[int, List[SpanDict]]:
    out: Dict[int, List[SpanDict]] = {}
    for s in spans:
        pid = s.get("parent_id")
        if pid is not None:
            out.setdefault(cast(int, pid), []).append(s)
    return out


def access_roots(spans: Sequence[SpanDict]) -> List[SpanDict]:
    """Root spans representing client accesses, ordered by access index."""
    roots = [
        s for s in spans
        if s.get("parent_id") is None and s.get("cat") == "access"
    ]
    roots.sort(key=lambda s: (
        cast(int, cast(Dict[str, object],
                       s.get("attrs") or {}).get("index", 0)),
        cast(float, s["start"]),
    ))
    return roots


def exact_quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over raw values (0 for an empty set)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def stage_breakdown(
    spans: Iterable[SpanDict],
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-stage latency statistics, keyed source tier -> stage name.

    Returns ``{source: {stage: {count, mean, p50, p95, total}}}`` where
    ``source`` is an :class:`AccessSource` value string (``"wan"``,
    ``"hit"``, ...) taken from each access root span's ``source`` attribute,
    and the stages are that access's direct ``"stage"``-category child
    spans (the client's exact partition of the wait; fetch/transfer detail
    spans under the same root are not stages and are skipped).
    """
    spans = list(spans)
    children = _children_by_parent(spans)
    acc: Dict[str, Dict[str, List[float]]] = {}
    for root in access_roots(spans):
        attrs = cast(Dict[str, object], root.get("attrs") or {})
        source = str(attrs.get("source", "unknown"))
        per_source = acc.setdefault(source, {})
        kids = [c for c in children.get(cast(int, root["span_id"]), [])
                if c.get("cat") == "stage"]
        if not kids:
            per_source.setdefault("total", []).append(_duration(root))
            continue
        for child in kids:
            per_source.setdefault(str(child["name"]), []).append(
                _duration(child)
            )
        per_source.setdefault("total", []).append(_duration(root))
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for source, stages in acc.items():
        out[source] = {}
        for stage, durs in stages.items():
            out[source][stage] = {
                "count": float(len(durs)),
                "mean": sum(durs) / len(durs),
                "p50": exact_quantile(durs, 0.50),
                "p95": exact_quantile(durs, 0.95),
                "total": sum(durs),
            }
    return out


def _stage_sort_key(stage: str) -> Tuple[int, Union[int, str]]:
    try:
        return (0, STAGE_ORDER.index(stage))
    except ValueError:
        return (1 if stage != "total" else 2, stage)


def render_breakdown_table(
    breakdown: Dict[str, Dict[str, Dict[str, float]]],
) -> str:
    """Format a breakdown dict as an aligned text table."""
    lines: List[str] = []
    header = (f"{'source':<12} {'stage':<18} {'count':>6} "
              f"{'mean_ms':>10} {'p50_ms':>10} {'p95_ms':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for source in sorted(breakdown):
        stages = breakdown[source]
        for stage in sorted(stages, key=_stage_sort_key):
            st = stages[stage]
            lines.append(
                f"{source:<12} {stage:<18} {int(st['count']):>6} "
                f"{st['mean'] * 1e3:>10.3f} {st['p50'] * 1e3:>10.3f} "
                f"{st['p95'] * 1e3:>10.3f}"
            )
    return "\n".join(lines)


def render_waterfall(
    spans: Iterable[SpanDict],
    max_accesses: Optional[int] = None,
) -> str:
    """Per-access waterfall: one block per access, one bar row per stage.

    Bars are positioned within the access's own [start, end] window, so a
    1 s WAN access and a 0.2 ms cache hit are each readable at full width;
    a block pads its stage names to its longest, so its bars line up.  A
    root span that names its ``client`` (a stitched fleet trace) shows it
    in the block's header.
    """
    width = WATERFALL_WIDTH
    spans = list(spans)
    children = _children_by_parent(spans)
    roots = access_roots(spans)
    if max_accesses is not None:
        roots = roots[:max_accesses]
    lines: List[str] = []
    for root in roots:
        attrs = cast(Dict[str, object], root.get("attrs") or {})
        total = _duration(root)
        index = attrs.get("index", "?")
        source = attrs.get("source", "?")
        vid = attrs.get("viewset", attrs.get("vid", ""))
        client = f"client={attrs['client']}  " if "client" in attrs else ""
        lines.append(
            f"access #{index}  {vid}  {client}source={source}  "
            f"total={total * 1e3:.3f} ms  "
            f"(t={float(cast(float, root['start'])):.3f}s)"
        )
        kids = sorted(
            children.get(cast(int, root["span_id"]), []),
            key=lambda s: (cast(float, s["start"]), cast(int, s["span_id"])),
        )
        t0 = float(cast(float, root["start"]))
        t1 = float(cast(float, root["end"]))
        window = max(t1 - t0, 1e-12)
        pad = max((len(str(child["name"])) for child in kids), default=0)
        for child in kids:
            s = (float(cast(float, child["start"])) - t0) / window
            e = (float(cast(float, child["end"])) - t0) / window
            a = int(round(s * width))
            b = max(a, int(round(e * width)))
            bar = " " * a + "#" * max(b - a, 1 if e > s else 0)
            lines.append(
                f"  {str(child['name']):<{pad}} |{bar:<{width}}| "
                f"{_duration(child) * 1e3:>10.3f} ms"
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def trace_report(
    path: str,
    max_accesses: Optional[int] = 10,
    waterfall: bool = True,
) -> str:
    """Load a saved trace file and render the full report text."""
    from .export import load_trace

    spans = load_trace(path)
    roots = access_roots(spans)
    parts: List[str] = []
    parts.append(
        f"trace: {path}  ({len(spans)} spans, {len(roots)} accesses)"
    )
    if waterfall and roots:
        parts.append("")
        parts.append("== per-access waterfall ==")
        parts.append(render_waterfall(spans, max_accesses=max_accesses))
        shown = len(roots) if max_accesses is None else min(
            len(roots), max_accesses
        )
        if shown < len(roots):
            parts.append(f"... ({len(roots) - shown} more accesses)")
    parts.append("")
    parts.append("== per-stage latency breakdown ==")
    parts.append(render_breakdown_table(stage_breakdown(spans)))
    return "\n".join(parts)
