"""The paper's Section-4 numbers and the claims the artifacts must meet.

`PAPER` collects the published values (digitized from the figures and
quoted text of Section 4).  `CLAIMS` maps a BENCH artifact name to its
claims: each one predicate over the merged document alone, tied to the
DESIGN §4 row it serves, so a committed ``BENCH_*.json`` is re-checked
without running anything.  Claims are never written into an artifact.
Where a contrast needs paper-sized payloads, the claim reads the scale
stamped in the artifact's ``meta``, not the environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

__all__ = ["CLAIMS", "PAPER", "Claim", "verdicts"]

Doc = Mapping[str, Any]


@dataclass(frozen=True)
class _PaperNumbers:
    """Published values from the paper's Section 4."""

    #: Figure 7 — total database size in GB at each resolution,
    #: (uncompressed, compressed); digitized from the bar chart.
    fig7_sizes_gb: Dict[int, Tuple[float, float]] = field(
        default_factory=dict
    )

    #: zlib compression ratio band quoted in Section 4.1
    compression_ratio_band: Tuple[float, float] = (5.0, 7.0)

    #: generation time band on 32 CPUs, hours (Section 4.1)
    generation_hours_band: Tuple[float, float] = (2.0, 4.5)

    #: client rendering rate claim (Section 4.2)
    fps_claim: float = 30.0

    #: Figure 8 — decompression is sub-second below 400², up to ~1.8 s at 500²
    decompress_subsecond_below: int = 400

    #: Section 4.3 @500²: initial-phase WAN access rates
    wan_rate_initial_case2: float = 0.69
    wan_rate_initial_case3: float = 0.28
    #: Section 4.3 @500²: initial-phase hit rates
    hit_rate_initial_case2: float = 0.28
    hit_rate_initial_case3: float = 0.33
    #: initial phase lengths (accesses) at 200/300 vs 500
    initial_phase_low_res: int = 1
    initial_phase_500: int = 33
    #: Figure 12 latency tiers (seconds): hit, LAN depot, WAN
    tier_hit: float = 1e-4
    tier_lan_depot: Tuple[float, float] = (0.01, 0.1)
    tier_wan: float = 1.0
    #: number of view-set accesses per experiment
    n_accesses: int = 58


PAPER = _PaperNumbers(
    fig7_sizes_gb={
        200: (1.5, 0.25),
        300: (3.4, 0.6),
        400: (6.2, 1.0),
        500: (9.7, 1.6),
        600: (14.0, 2.1),
    }
)


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``measured(doc)`` is what it reads from an artifact,
    ``test(measured, doc)`` its verdict (``doc`` only for what the measured
    value does not show, such as the stamped scale), and ``paper`` the
    published value of the same quantity (None where the paper gives only
    a shape)."""

    id: str
    row: str
    paper: object
    measured: Callable[[Doc], Any]
    test: Callable[[Any, Doc], bool]


def verdicts(name: str, doc: Doc) -> List[Tuple[Claim, object, bool]]:
    """``(claim, measured, holds)`` for each claim on artifact ``name``;
    a claim the document cannot answer is reported as not holding."""
    out: List[Tuple[Claim, object, bool]] = []
    for claim in CLAIMS.get(name, ()):
        try:
            measured = claim.measured(doc)
            out.append((claim, measured, bool(claim.test(measured, doc))))
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            out.append((claim, f"error: {exc!r}", False))
    return out


def _small(doc: Doc) -> bool:
    return bool(doc["meta"]["scale"] == "small")


def _walls(doc: Doc) -> Mapping[str, Any]:
    runs: Mapping[str, Any] = doc["wall_clock"]["runs"]
    return runs


# ----------------------------------------------------------------------
# Figure 7 — BENCH_database_size.json
# ----------------------------------------------------------------------
def _raw_growth(doc: Doc) -> Tuple[float, float]:
    """(raw-size growth, resolution² growth) from first to last row."""
    first, last = doc["rows"][0], doc["rows"][-1]
    return (last["total_uncompressed_gb"] / first["total_uncompressed_gb"],
            (last["resolution"] / first["resolution"]) ** 2)


_DATABASE_SIZE = (
    Claim("fig7.raw_quadratic", "Fig 7", None, _raw_growth,
          lambda m, _: abs(m[0] - m[1]) <= 0.15 * m[1]),
    Claim("fig7.zlib_ratio", "Fig 7", PAPER.compression_ratio_band,
          lambda d: [r["ratio"] for r in d["rows"]],
          lambda m, _: min(m) > PAPER.compression_ratio_band[0]),
)


# ----------------------------------------------------------------------
# Figure 8 — BENCH_decompression.json
# ----------------------------------------------------------------------
def _inflate_s(doc: Doc) -> List[float]:
    return [_walls(doc)[str(r["resolution"])]["mean_inflate_s"]
            for r in doc["rows"]]


def _low_res_inflate_s(doc: Doc) -> List[float]:
    return [s for r, s in zip(doc["rows"], _inflate_s(doc))
            if r["resolution"] < PAPER.decompress_subsecond_below]


_DECOMPRESSION = (
    Claim("fig8.inflate_grows", "Fig 8", None, _inflate_s,
          lambda m, _: m[-1] > m[0]),
    Claim("fig8.modelled_grows", "Fig 8", None,
          lambda d: [r["modeled_decompress_s"] for r in d["rows"]],
          lambda m, _: m == sorted(m) and m[-1] > m[0]),
    Claim("fig8.subsecond_below_400", "Fig 8", None, _low_res_inflate_s,
          lambda m, _: bool(m) and max(m) < 1.0),
    Claim("fig8.host_time_quarantined", "Fig 8", None,
          lambda d: sorted({k for r in d["rows"] for k in r}),
          lambda m, _: "mean_inflate_s" not in m),
)


# ----------------------------------------------------------------------
# Figures 9-12 and Section 4.3 — BENCH_latency.json
# ----------------------------------------------------------------------
def _resolution(doc: Doc, index: int) -> int:
    """The ``index``-th lowest resolution among the document's rows."""
    resolutions: List[int] = sorted({r["resolution"] for r in doc["rows"]})
    return resolutions[index]


def _sessions(doc: Doc, index: int) -> Dict[int, Mapping[str, Any]]:
    """``{case: row}`` at the ``index``-th lowest resolution."""
    resolution = _resolution(doc, index)
    return {int(r["case"][-1]): r for r in doc["rows"]
            if r["resolution"] == resolution}


def _steady(doc: Doc, index: int) -> Tuple[float, float]:
    """(Case 3 steady latency, Case 1 mean latency after its first access)."""
    by = _sessions(doc, index)
    c1 = by[1]["latency_s"]
    return by[3]["steady_latency_s"], sum(c1[1:]) / (len(c1) - 1)


def _case3_phase(doc: Doc, index: int) -> Tuple[int, int]:
    """Case 3's (initial phase, accesses) at the ``index``-th resolution."""
    case3 = _sessions(doc, index)[3]
    return case3["initial_phase"], case3["accesses"]


def _latency_figure(fig: int, index: int) -> Tuple[Claim, ...]:
    """The shape Figures 9-11 share, at the ``index``-th resolution."""
    p, row = f"fig{fig}", f"Fig {fig}"

    def by(d: Doc) -> Dict[int, Mapping[str, Any]]:
        return _sessions(d, index)

    return (
        Claim(f"{p}.accesses", row, PAPER.n_accesses,
              lambda d: [by(d)[c]["accesses"] for c in (1, 2, 3)],
              lambda m, _: m == [PAPER.n_accesses] * 3),
        Claim(f"{p}.case1_no_wan", row, None,
              lambda d: by(d)[1]["wan_rate"], lambda m, _: m == 0.0),
        Claim(f"{p}.case2_pays_wan", row, None,
              lambda d: by(d)[2]["wan_rate"], lambda m, _: m > 0.0),
        Claim(f"{p}.case2_slower", row, None,
              lambda d: (by(d)[2]["mean_latency_s"],
                         by(d)[1]["mean_latency_s"]),
              lambda m, _: m[0] > m[1]),
        Claim(f"{p}.case3_phase_ends", row, None,
              lambda d: _case3_phase(d, index), lambda m, _: m[0] < m[1]),
        Claim(f"{p}.case3_steady_local", row, None,
              lambda d: _steady(d, index),
              lambda m, _: m[0] < max(5 * m[1], m[1] + 0.25)),
    )


def _phase_longer(phase: int, doc: Doc) -> bool:
    """Case 3's top-resolution initial phase against the lowest one's."""
    low = _case3_phase(doc, 0)[0]
    # at smoke scale the payloads are too small for the contrast
    return phase >= low if _small(doc) else phase > low and phase >= 5


def _top_wan(doc: Doc) -> Tuple[float, float]:
    """Case 3's and Case 2's WAN rate at the top resolution."""
    by = _sessions(doc, -1)
    return by[3]["wan_rate"], by[2]["wan_rate"]


def _tiers(doc: Doc, *keys: str) -> List[List[float]]:
    """``keys`` of each ``comm_tiers`` row that has all of them."""
    return [[t[k] for k in keys] for t in doc["comm_tiers"]
            if all(t[k] for k in keys)]


_LATENCY = (
    _latency_figure(9, 0)
    + (Claim("fig9.case3_phase_short", "Fig 9", PAPER.initial_phase_low_res,
             lambda d: _case3_phase(d, 0)[0], lambda m, _: m <= 6),)
    + _latency_figure(10, 1)
    + (Claim("fig10.case3_phase_third", "Fig 10", PAPER.initial_phase_low_res,
             lambda d: _case3_phase(d, 1)[0],
             lambda m, d: m <= _case3_phase(d, 1)[1] // 3),)
    + _latency_figure(11, 2)
    + (Claim("fig11.case3_phase_longer", "Fig 11", PAPER.initial_phase_500,
             lambda d: _case3_phase(d, -1)[0], _phase_longer),)
    + (
        # the tier claims read (hit, other tier) seconds per resolution
        Claim("fig12.wan_over_hit", "Fig 12", (PAPER.tier_hit, PAPER.tier_wan),
              lambda d: _tiers(d, "hit_s", "wan_s"),
              lambda m, _: all(wan / hit > 100 for hit, wan in m)),
        Claim("fig12.hit_below_lan", "Fig 12",
              (PAPER.tier_hit, PAPER.tier_lan_depot),
              lambda d: _tiers(d, "hit_s", "lan_depot_s"),
              lambda m, _: all(hit < lan for hit, lan in m)),
        Claim("fig12.hit_submillisecond", "Fig 12", PAPER.tier_hit,
              lambda d: [h for h, in _tiers(d, "hit_s")],
              lambda m, _: all(h < 0.001 for h in m)),
        # full ordering only where staging finishes within an access or
        # two: at the top resolution Case 3's LAN-depot accesses all fall
        # in its initial phase, while staging contends for the WAN path
        Claim("fig12.tiers_ordered_low", "Fig 12",
              (PAPER.tier_hit, PAPER.tier_lan_depot, PAPER.tier_wan),
              lambda d: [d["comm_tiers"][0][k]
                         for k in ("hit_s", "lan_depot_s", "wan_s")],
              lambda m, _: not all(m) or m[0] < m[1] < m[2]),
        Claim("rates.case3_wan_initial", "Text §4.3",
              (PAPER.wan_rate_initial_case3, PAPER.wan_rate_initial_case2),
              lambda d: (d["access_rates"][-1]["case3_wan_rate_initial"],
                         d["access_rates"][-1]["case2_wan_rate_initial"]),
              lambda m, _: m[0] <= m[1]),
        Claim("rates.case3_wan", "Text §4.3", None, _top_wan,
              lambda m, d: m[0] <= m[1] if _small(d) else m[0] < m[1]),
    )
)


# ----------------------------------------------------------------------
# Section 4.2 — BENCH_fps.json and BENCH_qgr.json
# ----------------------------------------------------------------------
def _fps(doc: Doc, index: int, key: str) -> Dict[str, Any]:
    """``{mode: wall_clock key}`` at the ``index``-th lowest resolution."""
    resolution = _resolution(doc, index)
    return {r["mode"]: _walls(doc)[f"{resolution}/{r['mode']}"][key]
            for r in doc["rows"] if r["resolution"] == resolution}


_FPS = (
    Claim("fps.cost_grows", "Text §4.2", None,
          lambda d: [top / _fps(d, 0, "ms_per_frame")[mode] for mode, top
                     in _fps(d, -1, "ms_per_frame").items()],
          lambda m, _: all(r > 1 for r in m)),
    Claim("fps.nearest_beats_quadrilinear", "Text §4.2", None,
          lambda d: (_fps(d, -1, "fps")["nearest"],
                     _fps(d, -1, "fps")["quadrilinear"]),
          lambda m, _: m[0] >= m[1]),
    Claim("fps.30fps_low_res", "Text §4.2", PAPER.fps_claim,
          lambda d: max(_fps(d, 0, "fps").values()),
          lambda m, _: m >= PAPER.fps_claim),
    Claim("fps.host_time_quarantined", "Text §4.2", None,
          lambda d: sorted({tuple(sorted(r)) for r in d["rows"]}),
          lambda m, _: m == [("frames", "mode", "resolution")]),
)


def _hidden(doc: Doc, case: int) -> List[float]:
    """Case ``case``'s hidden-latency fraction, by ascending speed."""
    return [r["hidden_fraction"] for r in
            sorted(doc["rows"], key=lambda r: r["speed"]) if r["case"] == case]


_QGR = (
    Claim("qgr.case3_wins_top_speed", "Text §4.2 (QGR)", None,
          lambda d: (_hidden(d, 3)[-1], _hidden(d, 2)[-1]),
          lambda m, _: m[0] >= m[1] - 0.05),
    Claim("qgr.case3_hidden", "Text §4.2 (QGR)", None,
          lambda d: min(_hidden(d, 3)), lambda m, _: m >= 0.5),
)


# ----------------------------------------------------------------------
# Section 4.1 — BENCH_generation.json
# ----------------------------------------------------------------------
_GENERATION = (
    Claim("gen.seconds_per_viewset", "Text §4.1", None,
          lambda d: d["wall_clock"]["seconds_per_viewset"],
          lambda m, _: m > 0),
    Claim("gen.compression", "Text §4.1", PAPER.compression_ratio_band,
          lambda d: d["viewset_generation"]["compression_ratio"],
          lambda m, _: m > 2.0),
    # our numpy generator lands within a couple of orders of magnitude of
    # the paper's 32-CPU cluster; the lower edge allows for macrocell
    # skipping, which the paper's generator lacked
    Claim("gen.hours", "Text §4.1", PAPER.generation_hours_band,
          lambda d: d["wall_clock"]["full_db_hours_on_32cpu"],
          lambda m, d: _small(d) or 0.005 < m < 50),
    # generation_viewset_point renders its default 2 view sets of the
    # paper lattice, l = 6: 36 views each, at every scale
    Claim("gen.views_per_viewset", "Text §4.1", None,
          lambda d: d["viewset_generation"]["views_rendered"],
          lambda m, _: m == 36 * 2),
    Claim("gen.empty_cells", "Text §4.1", None,
          lambda d: d["empty_cell_fraction"], lambda m, _: m >= 0.5),
    Claim("gen.lossless_skipping", "Text §4.1", None,
          lambda d: d["max_abs_error"], lambda m, _: m <= 1e-3),
    Claim("gen.fewer_steps", "Text §4.1", None,
          lambda d: (d["accelerated"]["steps_per_ray"],
                     d["brute"]["steps_per_ray"]),
          lambda m, _: m[0] < m[1]),
    # the tiny smoke volume is too cheap for a stable speedup
    Claim("gen.speedup", "Text §4.1", None,
          lambda d: d["wall_clock"]["speedup"],
          lambda m, d: _small(d) or m > 1.5),
    Claim("gen.zlib_levels", "Text §4.1", None,
          lambda d: [r["ratio"] for r in d["zlib_levels"]],
          lambda m, _: m[-1] >= m[0] * 0.99),
)


# ----------------------------------------------------------------------
# Section 4.3's contention, answered by priorities — BENCH_streaming.json
# ----------------------------------------------------------------------
#: the `scheduling` spec's arms: staging off, then staging under each policy
_ARMS = ("staging+off", "staging+strict", "staging+weighted", "staging-off")


def _miss_s(doc: Doc, arm: str) -> float:
    latency: float = doc["arms"][arm]["demand_miss_latency_s"]
    return latency


def _beats_blind(policy: str) -> Claim:
    """``policy``'s demand-miss latency against priority-blind staging."""

    def test(m: Tuple[float, float], doc: Doc) -> bool:
        # the smoke database localizes before contention builds (a single
        # miss), so only parity is required there
        return m[0] <= m[1] * 1.05 if _small(doc) else m[0] < m[1]

    return Claim(f"sched.{policy}_beats_blind", "Scheduling", None,
                 lambda d: (_miss_s(d, f"staging+{policy}"),
                            _miss_s(d, "staging+off")), test)


def _speedups(doc: Doc) -> List[Tuple[float, float]]:
    """(recorded, derived) demand-miss speedup of each policy over blind."""
    out: List[Tuple[float, float]] = []
    for policy in ("weighted", "strict"):
        latency = _miss_s(doc, f"staging+{policy}")
        out.append((doc[f"speedup_{policy}_vs_off"],
                    round(_miss_s(doc, "staging+off") / latency, 4)
                    if latency else 0.0))
    return out


_STREAMING = (
    _beats_blind("weighted"),
    _beats_blind("strict"),
    Claim("sched.arms", "Scheduling", None, lambda d: sorted(d["arms"]),
          lambda m, _: m == list(_ARMS)),
    Claim("sched.every_arm_misses", "Scheduling", None,
          lambda d: [d["arms"][a]["misses"] for a in _ARMS],
          lambda m, _: all(n > 0 for n in m)),
    Claim("sched.speedups_derived", "Scheduling", None, _speedups,
          lambda m, _: all(recorded == derived for recorded, derived in m)),
)


# ----------------------------------------------------------------------
# Tracing cost and fleet health — BENCH_observability.json
# ----------------------------------------------------------------------
def _fleet(doc: Doc, key: str) -> List[Any]:
    """``key`` of each fleet tier, from the wall section for ``ratio``."""
    tiers = doc["wall_clock"]["fleet"] if key == "ratio" else doc["fleet"]
    return [tiers[tier][key] for tier in doc["fleet"]]


def _every_tier(ok: Callable[[Any], bool]) -> Callable[[List[Any], Doc], bool]:
    """At least one fleet tier, and ``ok`` of each."""
    return lambda m, _: bool(m) and all(ok(v) for v in m)


_OBSERVABILITY = (
    Claim("obs.spans_recorded", "Observability", None,
          lambda d: d["spans"], lambda m, _: m > 0),
    # an order of magnitude would mean a hot path allocates spans per
    # block, not per request; the untraced run is its own baseline
    Claim("obs.traced_ratio", "Observability", None,
          lambda d: d["wall_clock"]["ratio"], lambda m, _: m < 10.0),
    Claim("obs.host_time_quarantined", "Observability", None,
          lambda d: sorted(d["wall_clock"]),
          lambda m, d: (m == ["fleet", "ratio", "traced_s", "untraced_s"]
                        and not {"ratio", "traced_s", "untraced_s"} & set(d))),
    Claim("obs.fleet_spans", "Observability", None,
          lambda d: _fleet(d, "spans"), _every_tier(lambda n: n > 0)),
    Claim("obs.fleet_qgr", "Observability", None,
          lambda d: _fleet(d, "qgr"), _every_tier(lambda q: 0.0 <= q <= 1.0)),
    Claim("obs.fleet_miss_p99", "Observability", None,
          lambda d: _fleet(d, "demand_miss_p99_s"),
          _every_tier(lambda s: s > 0.0)),
    Claim("obs.fleet_load_skew", "Observability", None,
          lambda d: list(zip(_fleet(d, "load_skew_max_over_mean"),
                             _fleet(d, "load_skew_gini"))),
          _every_tier(lambda s: s[0] >= 1.0 and 0.0 <= s[1] < 1.0)),
    Claim("obs.fleet_traced_ratio", "Observability", None,
          lambda d: _fleet(d, "ratio"), _every_tier(lambda r: r < 10.0)),
)


# ----------------------------------------------------------------------
# Simulator scale — BENCH_scale.json
# ----------------------------------------------------------------------
def _fleet_accesses(doc: Doc) -> int:
    """Accesses of the largest single-process fleet, which the sharded and
    crossing runs split across shards."""
    top: int = max(doc["runs"], key=lambda r: r["n_clients"])["accesses"]
    return top


def _whole_workload(m: Tuple[List[int], int], _: Doc) -> bool:
    """Each run of a split fleet delivered the whole fleet's accesses."""
    return bool(m[0]) and all(accesses == m[1] for accesses in m[0])


def _crossing(doc: Doc) -> List[Tuple[float, Any, Any]]:
    """(fraction, boundary windows, staleness bound) of each crossing run;
    None where the run has no boundary exchange."""
    runs = doc["cross_shard"]["runs"]
    return [(f, runs[str(f)].get("boundary_windows"),
             runs[str(f)].get("boundary_staleness_bound"))
            for f in doc["cross_shard"]["fractions"]]


def _exchanged(frac: float, windows: Any, staleness: Any) -> bool:
    """Boundary loads were exchanged iff clients cross the backbone."""
    if frac > 0.0:
        return bool(windows and windows > 0 and staleness > 0.0)
    return windows is None and staleness is None


def _sharded_scales(eps: List[Tuple[int, float]], doc: Doc) -> bool:
    """At >= 4 shards the fleet clears 100k events/s or, on hosts too slow
    for the absolute bar, 3x the single shard; the smoke fleet is too small
    to scale."""
    if _small(doc):
        return True
    best = max(v for shards, v in eps if shards >= 4)
    return best >= 100_000 or best >= 3.0 * dict(eps)[1]


_SCALE = (
    # every client delivered its whole trace
    Claim("scale.every_access_delivered", "Scale", None,
          lambda d: [(r["n_clients"], r["accesses"],
                      sorted(set(r["per_client_accesses"])))
                     for r in d["runs"]],
          lambda m, _: bool(m) and all(
              len(per) == 1 and n * per[0] == total for n, total, per in m)),
    # every trigger flushed a dirty component or took the quiet fast path
    Claim("scale.rebalancer_ran", "Scale", None,
          lambda d: [r["recomputes"] + r["fast_rated"] for r in d["runs"]],
          lambda m, _: all(n > 0 for n in m)),
    # the contended rig runs the optimized paths: none is dead code
    Claim("scale.contended_paths_live", "Scale", None,
          lambda d: [d["contended"][k] for k in (
              "vectorized", "coalesced", "component_flows")],
          lambda m, _: all(n > 0 for n in m)),
    # a flush arms one drain check per calendar, so fewer get armed than
    # events fire; one per flushed member would not be
    Claim("scale.armed_per_event", "Scale", None,
          lambda d: (d["contended"]["events_rescheduled"],
                     d["contended"]["events_fired"]),
          lambda m, _: 0 < m[0] <= m[1]),
    Claim("scale.crossing_delivers", "Scale", None,
          lambda d: ([r["accesses"] for r in d["cross_shard"]["runs"].values()],
                     _fleet_accesses(d)),
          _whole_workload),
    Claim("scale.crossing_exchanges", "Scale", None, _crossing,
          lambda m, _: bool(m) and all(_exchanged(*run) for run in m)),
    # the lockstep driver interleaves shards; per-shard walls must not
    # count the siblings
    Claim("scale.crossing_cpu", "Scale", None,
          lambda d: (d["wall_clock"]["cross_shard"]["0.0"]["cpu_s"],
                     [w["cpu_s"]
                      for w in d["wall_clock"]["cross_shard"].values()]),
          lambda m, _: all(cpu <= 1.5 * m[0] + 0.05 for cpu in m[1])),
    Claim("scale.sharded_delivers", "Scale", None,
          lambda d: (list(d["sharded"]["accesses"].values()),
                     _fleet_accesses(d)),
          _whole_workload),
    Claim("scale.sharded_throughput", "Scale", None,
          lambda d: [(int(s), w["events_per_second"])
                     for s, w in d["wall_clock"]["sharded"].items()],
          _sharded_scales),
)


# ----------------------------------------------------------------------
# Ablations — BENCH_ablations.json
# ----------------------------------------------------------------------
def _family(doc: Doc, family: str, key: str) -> Dict[Any, Mapping[str, Any]]:
    return {r[key]: r for r in doc["families"][family]}


def _staging(doc: Doc) -> List[float]:
    """Proximity minus FIFO WAN rate, at each proximity concurrency."""
    rows = doc["families"]["staging"]
    fifo = {r["concurrency"]: r["wan_rate"] for r in rows
            if r["order"] == "fifo"}
    return [r["wan_rate"] - fifo[r["concurrency"]] for r in rows
            if r["order"] == "proximity"]


def _wan_fetch(doc: Doc) -> Tuple[float, float]:
    """Mean WAN fetch seconds at stripe widths 3 and 1."""
    by = _family(doc, "stripe", "stripe_width")
    return by[3]["mean_wan_fetch_s"], by[1]["mean_wan_fetch_s"]


_ABLATIONS = (
    Claim("abl.prefetch_none_worst", "Ablations", None,
          lambda d: (_family(d, "prefetch", "policy")["none"]["hit_rate"],
                     _family(d, "prefetch", "policy")["quadrant"]["hit_rate"]),
          lambda m, _: m[0] <= m[1]),
    Claim("abl.prefetch_all_neighbors_more", "Ablations", None,
          lambda d: [_family(d, "prefetch", "policy")[p]["prefetches"]
                     for p in ("all-neighbors", "quadrant")],
          lambda m, _: m[0] >= m[1]),
    Claim("abl.staging_proximity", "Ablations", None, _staging,
          lambda m, _: bool(m) and max(m) <= 0.15),
    Claim("abl.stripe_no_slower", "Ablations", None, _wan_fetch,
          lambda m, _: not all(m) or m[0] <= m[1] * 1.10),
    Claim("abl.codec_levels", "Ablations", None,
          lambda d: [_family(d, "codec", "codec")[c]["ratio"]
                     for c in ("zlib-9", "zlib-1")],
          lambda m, _: m[0] >= m[1] * 0.99),
    Claim("abl.codec_lossless", "Ablations", None,
          lambda d: [r["ratio"] for r in d["families"]["codec"]],
          lambda m, _: all(r > 1.0 for r in m)),
    Claim("abl.codec_host_time_quarantined", "Ablations", None,
          lambda d: sorted({k for r in d["families"]["codec"] for k in r}),
          lambda m, _: not {"compress_s", "decompress_s"} & set(m)),
    Claim("abl.codec_host_time_recorded", "Ablations", None,
          lambda d: [d["wall_clock"]["codec"][r["codec"]]["compress_s"]
                     for r in d["families"]["codec"]],
          lambda m, _: all(s >= 0.0 for s in m)),
    Claim("abl.cache_starved", "Ablations", None,
          lambda d: [_family(d, "agent_cache", "cache_payloads")[b]["hit_rate"]
                     for b in (2, "unbounded")],
          lambda m, _: m[0] <= m[1] + 1e-9),
    Claim("abl.viewset_size", "Ablations", None,
          lambda d: [_family(d, "viewset_size", "l")[l]["payload_mb"]
                     for l in (6, 2)],
          lambda m, _: m[0] > m[1]),
)


#: artifact name -> the claims its merged document must meet
CLAIMS: Dict[str, Tuple[Claim, ...]] = {
    "database_size": _DATABASE_SIZE,
    "decompression": _DECOMPRESSION,
    "latency": _LATENCY,
    "fps": _FPS,
    "qgr": _QGR,
    "generation": _GENERATION,
    "streaming": _STREAMING,
    "observability": _OBSERVABILITY,
    "scale": _SCALE,
    "ablations": _ABLATIONS,
}
