"""Markdown reports from merged ``repro-bench/1`` artifacts.

The last layer of the sweep engine: one or more BENCH documents in, one
markdown report out, with paper-vs-measured tables wherever the paper
publishes a number (:data:`~repro.experiments.claims.PAPER`) and each
artifact's claim verdicts (:data:`~repro.experiments.claims.CLAIMS`).  The
same renderer regenerates the generated-table section of ``EXPERIMENTS.md``
(``tests/experiments/test_claims.py`` holds the two equal), so committed
tables are what the artifacts say.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .artifacts import WALL_CLOCK_KEY, bench_path, payload_fingerprint
from .claims import PAPER, Claim, verdicts
from .spec import builtin_specs

__all__ = [
    "access_rate_table",
    "comm_tier_table",
    "format_series",
    "latency_table",
    "load_bench",
    "md_table",
    "render_report",
    "render_section",
    "report_sections",
]

BenchDoc = Mapping[str, object]


def load_bench(
    name: str, out_dir: Union[str, Path, None] = None
) -> Optional[Dict[str, object]]:
    """``BENCH_<name>.json`` as a dict, or None when absent."""
    path = bench_path(name, out_dir)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: artifact must hold one JSON object")
    return doc


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return ", ".join(f"({_cell(v)})" if isinstance(v, (list, tuple))
                         else _cell(v) for v in value)
    return str(value)


def md_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """A GitHub-markdown table."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(c) for c in row) + " |")
    return "\n".join(lines)


def format_series(
    name: str,
    values: Sequence[float],
    per_line: int = 10,
    fmt: str = "{:.3f}",
) -> str:
    """A labelled numeric series, wrapped for terminals."""
    chunks = []
    for i in range(0, len(values), per_line):
        row = "  ".join(fmt.format(v) for v in values[i:i + per_line])
        chunks.append(f"  [{i + 1:>3}] {row}")
    return f"{name} ({len(values)} points):\n" + "\n".join(chunks)


def _rows_table(rows: Sequence[Mapping[str, object]],
                columns: Optional[Sequence[str]] = None) -> str:
    """A table over homogeneous dict rows (columns default to union)."""
    if not rows:
        return "*(no rows)*"
    if columns is None:
        cols: List[str] = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(str(key))
        columns = cols
    return md_table(columns, [[r.get(c, "") for c in columns] for r in rows])


def _meta_line(doc: BenchDoc) -> str:
    meta = doc.get("meta")
    if not isinstance(meta, Mapping):
        return ""
    bits = [f"scale `{meta.get('scale')}`", f"seed {meta.get('seed')}"]
    if "spec" in meta:
        bits.append(f"spec `{meta.get('spec')}`")
    bits.append(f"payload fingerprint `{payload_fingerprint(dict(doc))[:16]}`")
    return "*(" + ", ".join(bits) + ")*"


# ----------------------------------------------------------------------
# per-artifact sections
# ----------------------------------------------------------------------
def _section_generic(name: str, doc: BenchDoc) -> str:
    rows = doc.get("rows")
    body = (_rows_table(rows) if isinstance(rows, list)  # type: ignore[arg-type]
            else "```json\n" + json.dumps(
                {k: v for k, v in doc.items() if k != "meta"},
                indent=2, sort_keys=True) + "\n```")
    return body


def _dict_rows(doc: BenchDoc, key: str) -> List[Mapping[str, object]]:
    rows = doc.get(key, [])
    assert isinstance(rows, list)
    return [r for r in rows if isinstance(r, Mapping)]


def _wall_runs(doc: BenchDoc) -> Mapping[str, Mapping[str, object]]:
    """``wall_clock.runs`` of a default-assembled artifact, by run label."""
    wall = doc.get(WALL_CLOCK_KEY, {})
    assert isinstance(wall, Mapping)
    runs = wall.get("runs", {})
    assert isinstance(runs, Mapping)
    return runs


def latency_table(doc: BenchDoc) -> str:
    """Figures 9-11: one row per session."""
    rows = sorted(_dict_rows(doc, "rows"),
                  key=lambda r: (r.get("resolution"), r.get("case")))
    return _rows_table(rows, columns=[
        "resolution", "case", "accesses", "hit_rate", "wan_rate",
        "initial_phase", "mean_latency_s", "steady_latency_s", "staged",
        "modeled_decompress_s",
    ])


def comm_tier_table(doc: BenchDoc) -> str:
    """Figure 12: median communication latency per tier."""
    lo, hi = PAPER.tier_lan_depot
    return md_table(
        ["resolution", "hit tier s", "LAN-depot tier s", "WAN tier s"],
        [["paper", PAPER.tier_hit, f"{lo}-{hi}", f"~{PAPER.tier_wan:.0f}"]]
        + [[r.get("resolution"), r.get("hit_s"), r.get("lan_depot_s"),
            r.get("wan_s")] for r in _dict_rows(doc, "comm_tiers")],
    )


def access_rate_table(doc: BenchDoc) -> str:
    """Section 4.3: WAN-access and hit rates over Case 3's initial phase."""
    return md_table(
        ["resolution", "case2 WAN", "case3 WAN", "case2 hit", "case3 hit",
         "case2 phase", "case3 phase"],
        [["paper @500²", PAPER.wan_rate_initial_case2,
          PAPER.wan_rate_initial_case3, PAPER.hit_rate_initial_case2,
          PAPER.hit_rate_initial_case3, "—", PAPER.initial_phase_500]]
        + [[r.get("resolution"), r.get("case2_wan_rate_initial"),
            r.get("case3_wan_rate_initial"),
            r.get("case2_hit_rate_initial"),
            r.get("case3_hit_rate_initial"), r.get("case2_initial_phase"),
            r.get("case3_initial_phase")]
           for r in _dict_rows(doc, "access_rates")],
    )


def _section_latency(doc: BenchDoc) -> str:
    return "\n".join([
        "Figures 9-11 — client latency, one row per session:", "",
        latency_table(doc), "",
        "Figure 12 — communication-latency tiers (medians):", "",
        comm_tier_table(doc), "",
        "Section 4.3 — access rates over Case 3's initial phase:", "",
        access_rate_table(doc),
    ])


def _section_database_size(doc: BenchDoc) -> str:
    rows = []
    for r in _dict_rows(doc, "rows"):
        paper = PAPER.fig7_sizes_gb.get(
            int(r["resolution"]), ("—", "—"))  # type: ignore[call-overload]
        rows.append([
            r.get("resolution"), paper[0], r.get("total_uncompressed_gb"),
            paper[1], r.get("total_compressed_gb"), r.get("ratio"),
            r.get("viewset_compressed_mb"),
        ])
    lo, hi = PAPER.compression_ratio_band
    return md_table(
        ["resolution", "paper raw GB", "raw GB", "paper zlib GB", "zlib GB",
         f"ratio (paper {lo:.0f}-{hi:.0f})", "view set zlib MB"], rows)


def _section_decompression(doc: BenchDoc) -> str:
    walls = _wall_runs(doc)
    measured = ["synthesize_s", "compress_s", "mean_inflate_s",
                "max_inflate_s"]
    return md_table(
        ["resolution", "view sets", "payload MB", "modelled s",
         "measured synthesize s", "compress s", "mean inflate s",
         "max inflate s"],
        [[r.get("resolution"), r.get("viewsets"), r.get("payload_mb"),
          r.get("modeled_decompress_s")]
         + [walls.get(str(r.get("resolution")), {}).get(k) for k in measured]
         for r in _dict_rows(doc, "rows")],
    )


def _section_fps(doc: BenchDoc) -> str:
    walls = _wall_runs(doc)
    rows = _dict_rows(doc, "rows")
    modes = list(dict.fromkeys(r.get("mode") for r in rows))

    def runs(res: object) -> str:
        return " / ".join(
            _cell(walls.get(f"{res}/{m}", {}).get("runs_per_frame"))
            for m in modes)

    return md_table(
        ["resolution"] + [f"{m} fps" for m in modes]
        + [f"runs/frame ({' / '.join(modes)})", "paper"],
        [[res] + [walls.get(f"{res}/{m}", {}).get("fps") for m in modes]
         + [runs(res), f">{PAPER.fps_claim:.0f} fps"]
         for res in dict.fromkeys(r.get("resolution") for r in rows)],
    )


def _section_qgr(doc: BenchDoc) -> str:
    return (
        f"Hidden-latency fraction at {doc.get('resolution')}², mean over "
        f"trace seeds {_cell(doc.get('seeds'))}:\n\n"
        + _rows_table(_dict_rows(doc, "rows"),
                      columns=["case", "speed", "hidden_fraction"])
    )


def _section_generation(doc: BenchDoc) -> str:
    wall = doc.get(WALL_CLOCK_KEY, {})
    assert isinstance(wall, Mapping)
    parts = [md_table(
        ["metric", "measured", "paper"],
        [
            ["empty macrocell fraction", doc.get("empty_cell_fraction"),
             "—"],
            ["kernel speedup (macrocell vs brute)", wall.get("speedup"),
             "—"],
            ["zlib ratios (levels 1/6/9)",
             [r.get("ratio") for r in doc.get("zlib_levels", [])  # type: ignore[union-attr]
              if isinstance(r, Mapping)],
             f"{PAPER.compression_ratio_band[0]}-"
             f"{PAPER.compression_ratio_band[1]} (500² shaded renders)"],
            ["full DB hours on 32 CPUs",
             wall.get("full_db_hours_on_32cpu"),
             f"{PAPER.generation_hours_band[0]}-"
             f"{PAPER.generation_hours_band[1]}"],
        ],
    )]
    return "\n".join(parts)


def _section_scheduling(doc: BenchDoc) -> str:
    arms = doc.get("arms")
    parts = []
    if isinstance(arms, Mapping):
        rows = [{"arm": k, **v} for k, v in sorted(arms.items())
                if isinstance(v, Mapping)]
        parts.append(_rows_table(rows, columns=[
            "arm", "policy", "staging", "misses", "demand_miss_latency_s",
            "mean_latency_s", "deduped", "promoted", "cancelled",
        ]))
    parts.append("")
    parts.append(md_table(
        ["speedup (demand-miss latency)", "value"],
        [["weighted vs off", doc.get("speedup_weighted_vs_off")],
         ["strict vs off", doc.get("speedup_strict_vs_off")]],
    ))
    return "\n".join(parts)


def _section_observability(doc: BenchDoc) -> str:
    wall = doc.get(WALL_CLOCK_KEY, {})
    assert isinstance(wall, Mapping)
    parts = [md_table(
        ["metric", "value"],
        [
            ["resolution", doc.get("resolution")],
            ["accesses", doc.get("accesses")],
            ["spans recorded", doc.get("spans")],
            ["untraced s (best of repeats)", wall.get("untraced_s")],
            ["traced s (best of repeats)", wall.get("traced_s")],
            ["traced / untraced", wall.get("ratio")],
        ],
    )]
    fleet = doc.get("fleet")
    if isinstance(fleet, Mapping) and fleet:
        fleet_wall = wall.get("fleet", {})
        assert isinstance(fleet_wall, Mapping)
        def tier_order(key: str) -> Tuple[int, int]:
            clients, _, shards = key.partition("/")
            return (int(clients), int(shards))

        rows = []
        # the artifact is written with sorted (lexicographic) keys;
        # render tiers in fleet-size order
        for key in sorted(fleet, key=tier_order):
            tier = fleet[key]
            if not isinstance(tier, Mapping):
                continue
            w = fleet_wall.get(key, {})
            assert isinstance(w, Mapping)
            rows.append({
                "clients/shards": key,
                "QGR": tier.get("qgr"),
                "miss p99 s": tier.get("demand_miss_p99_s"),
                "skew max/mean": tier.get("load_skew_max_over_mean"),
                "skew gini": tier.get("load_skew_gini"),
                "spans": tier.get("spans"),
                "traced/untraced": w.get("ratio"),
            })
        parts.append("")
        parts.append("Fleet tiers (pinned rig, stitched telemetry):")
        parts.append("")
        parts.append(_rows_table(rows, columns=[
            "clients/shards", "QGR", "miss p99 s", "skew max/mean",
            "skew gini", "spans", "traced/untraced"]))
    return "\n".join(parts)


def _section_scale(doc: BenchDoc) -> str:
    wall = doc.get(WALL_CLOCK_KEY, {})
    assert isinstance(wall, Mapping)
    wall_runs = wall.get("runs", {})
    assert isinstance(wall_runs, Mapping)
    rows = []
    for r in doc.get("runs", []):  # type: ignore[union-attr]
        if not isinstance(r, Mapping):
            continue
        w = wall_runs.get(str(r.get("n_clients")), {})
        assert isinstance(w, Mapping)
        rows.append({
            "N": r.get("n_clients"),
            "events": r.get("events_fired"), "sim s": r.get("sim_s"),
            "wall s": w.get("wall_s"),
            "events/s": w.get("events_per_second"),
        })
    parts = [_rows_table(rows, columns=[
        "N", "events", "sim s", "wall s", "events/s"])]
    contended = doc.get("contended")
    if isinstance(contended, Mapping) and "events_rescheduled" in contended:
        # where a bandwidth-limited fleet's host time goes: how many flows
        # each flush re-rates, and how many drain checks get armed on the
        # queue per event that actually fires (DESIGN.md section 10)
        tiers = wall.get("contended", {})
        assert isinstance(tiers, Mapping)
        w = tiers.get(str(contended.get("n_clients")), {})
        assert isinstance(w, Mapping)
        fired = contended["events_fired"]
        flushes = contended["recomputes"]
        parts.append("")
        parts.append(md_table(
            ["contended N", "events", "flushes", "flows/flush",
             "armed/event", "wall s", "events/s"],
            [[contended.get("n_clients"), fired, flushes,
              round(contended["component_flows"] / flushes, 1),
              round(contended["events_rescheduled"] / fired, 2),
              w.get("wall_s"), w.get("events_per_second")]],
        ))
    for key, label in (("sharded", "shards"),
                       ("cross_shard", "cross-shard fraction")):
        tiers = wall.get(key)
        if isinstance(tiers, Mapping):
            parts.append("")
            parts.append(md_table(
                [label, "makespan s", "cpu s", "events/s", "events/s-core"],
                [[s, w.get("makespan_s"), w.get("cpu_s"),
                  w.get("events_per_second"),
                  w.get("events_per_core_second")]
                 for s, w in sorted(tiers.items(),
                                    key=lambda kv: float(kv[0]))
                 if isinstance(w, Mapping)],
            ))
    return "\n".join(parts)


def _section_ablations(doc: BenchDoc) -> str:
    families = doc.get("families")
    parts = []
    if isinstance(families, Mapping):
        for family in sorted(families):
            rows = [r for r in families[family]  # type: ignore[union-attr]
                    if isinstance(r, Mapping)]
            parts.append(f"**{family}**")
            parts.append("")
            parts.append(_rows_table(rows))
            parts.append("")
    return "\n".join(parts).rstrip()


_RENDERERS = {
    "database_size": _section_database_size,
    "decompression": _section_decompression,
    "latency": _section_latency,
    "fps": _section_fps,
    "qgr": _section_qgr,
    "generation": _section_generation,
    "streaming": _section_scheduling,
    "observability": _section_observability,
    "scale": _section_scale,
    "ablations": _section_ablations,
}


def render_section(
    name: str, doc: BenchDoc, results: Sequence[Tuple[Claim, object, bool]]
) -> str:
    """One artifact document as a titled markdown section, closed by its
    claim ``results`` (:func:`~repro.experiments.claims.verdicts`)."""
    meta = doc.get("meta", {})
    assert isinstance(meta, Mapping)
    spec = builtin_specs().get(str(meta.get("spec")))
    title = spec.title if spec is not None and spec.title else name
    renderer = _RENDERERS.get(name)
    body = renderer(doc) if renderer else _section_generic(name, doc)
    claims = [[claim.id, "—" if claim.paper is None else claim.paper,
               measured, holds]
              for claim, measured, holds in results]
    if claims:
        body += "\n\nClaims (DESIGN §4):\n\n" + md_table(
            ["claim", "paper", "measured", "holds"], claims)
    return f"## {title}\n\n{_meta_line(doc)}\n\n{body}"


def report_sections(
    names: Sequence[str], out_dir: Union[str, Path, None] = None
) -> Tuple[List[str], List[str]]:
    """One rendered markdown section per artifact that exists on disk, and
    the ids of the claims that do not hold on those artifacts."""
    sections: List[str] = []
    failed: List[str] = []
    for name in names:
        doc = load_bench(name, out_dir)
        if doc is None:
            continue
        results = verdicts(name, doc)
        sections.append(render_section(name, doc, results))
        failed += [claim.id for claim, _, holds in results if not holds]
    return sections, failed


def render_report(
    names: Sequence[str],
    out_dir: Union[str, Path, None] = None,
    title: str = "Sweep report",
) -> Tuple[str, List[str]]:
    """A full markdown report over the named BENCH artifacts, and the ids
    of the claims that do not hold on them."""
    sections, failed = report_sections(names, out_dir)
    if not sections:
        body = ("*(no BENCH artifacts found — run `python -m repro sweep "
                "run <spec>` first)*")
    else:
        body = "\n\n".join(sections)
    header = (
        f"# {title}\n\n"
        "Deterministic payloads are reproducible from the stamped seed; "
        "host timings live under each artifact's quarantined `wall_clock` "
        "section and are excluded from payload fingerprints.\n"
    )
    return header + "\n" + body + "\n", failed
