"""Declarative sweep specifications.

A :class:`SweepSpec` names *what* to run — a scenario callable (by dotted
name), the axes/points of the parameter grid, seeds, and how the per-run
rows assemble into one BENCH artifact — without saying anything about
*how*: expansion, parallel execution, checkpointing and merging live in
:mod:`repro.experiments.executor`.

Specs come from three places, all equivalent:

* the **builtin registry** (:func:`builtin_specs` / :func:`spec_named`) —
  every Section-4 figure and text claim of the paper, the multiclient/shard
  scale curve and the scheduler/prefetch/staging ablations, i.e. every
  committed ``BENCH_*.json`` expressed declaratively;
* a **TOML or JSON file** (:func:`load_spec_file`) with the same fields;
* inline construction in tests.

Expansion is deterministic: runs are ordered by the cartesian product of
``axes`` values (in declaration order) × ``seeds``, or by the explicit
``points`` list; each run gets a stable content-addressed ``run_id`` so an
interrupted sweep resumes against exactly the runs it planned.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from .artifacts import hex_canonical

__all__ = [
    "RunSpec",
    "SweepSpec",
    "builtin_specs",
    "load_spec_file",
    "resolve_dotted",
    "spec_named",
]

#: reserved per-point key overriding the spec-level scenario
SCENARIO_KEY = "_scenario"


def resolve_dotted(dotted: str) -> Callable[..., object]:
    """Import ``pkg.mod.func`` (or ``pkg.mod:func``) and return the
    callable."""
    module_name, sep, attr = dotted.rpartition(":")
    if not sep:
        module_name, _, attr = dotted.rpartition(".")
    if not module_name or not attr:
        raise ValueError(f"not a dotted callable reference: {dotted!r}")
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, attr)
    except AttributeError as exc:
        raise AttributeError(
            f"{module_name!r} has no attribute {attr!r}"
        ) from exc
    if not callable(fn):
        raise TypeError(f"{dotted!r} resolved to non-callable {fn!r}")
    return fn


@dataclass(frozen=True)
class RunSpec:
    """One independent unit of work inside a sweep."""

    index: int                      # position in the deterministic order
    run_id: str                     # content hash of (spec, params, seed)
    scenario: str                   # dotted callable executing this run
    params: Dict[str, object]       # scenario kwargs (includes the seed)
    point: Dict[str, object]        # just the axes coordinates, for labels

    @property
    def label(self) -> str:
        """Human-readable coordinates, e.g. ``8/incremental``."""
        if not self.point:
            return str(self.index)
        return "/".join(str(v) for v in self.point.values())


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment sweep (see module docstring)."""

    name: str
    #: dotted name of the scenario callable each run executes
    scenario: str
    #: grid axes: name -> ordered values (cartesian product, declaration
    #: order); ignored when ``points`` is given
    axes: Mapping[str, Sequence[object]] = field(default_factory=dict)
    #: explicit run coordinates (overrides ``axes``); a point may carry a
    #: ``_scenario`` key to route through a different callable
    points: Optional[Sequence[Mapping[str, object]]] = None
    #: constant kwargs merged under every point
    fixed: Mapping[str, object] = field(default_factory=dict)
    #: every point runs once per seed (passed as the ``seed`` kwarg)
    seeds: Sequence[int] = (7,)
    #: BENCH artifact stem (``BENCH_<artifact>.json``); None = no artifact
    artifact: Optional[str] = None
    #: dotted name of the assembler merging rows -> (payload, wall_clock);
    #: None = repro.experiments.assemble.default_assemble
    assemble: Optional[str] = None
    #: report section title (falls back to the spec name)
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        if not self.scenario and not all(
            SCENARIO_KEY in p for p in (self.points or [])
        ):
            raise ValueError(
                f"spec {self.name!r}: no scenario and not every point "
                f"carries {SCENARIO_KEY!r}"
            )
        if not self.seeds:
            raise ValueError(f"spec {self.name!r}: seeds must be non-empty")

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON/TOML-compatible, reload-equivalent)."""
        doc: Dict[str, object] = {
            "name": self.name,
            "scenario": self.scenario,
            "seeds": list(self.seeds),
        }
        if self.points is not None:
            doc["points"] = [dict(p) for p in self.points]
        elif self.axes:
            doc["axes"] = {k: list(v) for k, v in self.axes.items()}
        if self.fixed:
            doc["fixed"] = dict(self.fixed)
        if self.artifact:
            doc["artifact"] = self.artifact
        if self.assemble:
            doc["assemble"] = self.assemble
        if self.title:
            doc["title"] = self.title
        return doc

    @property
    def identity(self) -> str:
        """Content hash pinning the planned sweep (checkpoint validation)."""
        digest = hashlib.sha256(hex_canonical(self.to_dict()).encode())
        return digest.hexdigest()[:16]

    def expanded_points(self) -> List[Dict[str, object]]:
        """The ordered run coordinates (before seeds multiply them)."""
        if self.points is not None:
            return [dict(p) for p in self.points]
        if not self.axes:
            return [{}]
        names = list(self.axes.keys())
        out: List[Dict[str, object]] = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            out.append(dict(zip(names, combo)))
        return out

    def expand(self) -> List[RunSpec]:
        """The full deterministic run list: points × seeds, in order."""
        runs: List[RunSpec] = []
        for point in self.expanded_points():
            scenario = str(point.pop(SCENARIO_KEY, self.scenario))
            for seed in self.seeds:
                params: Dict[str, object] = {
                    **self.fixed, **point, "seed": seed,
                }
                run_id = hashlib.sha256(hex_canonical(
                    [self.name, scenario, params]
                ).encode()).hexdigest()[:12]
                runs.append(RunSpec(
                    index=len(runs), run_id=run_id, scenario=scenario,
                    params=params, point=dict(point),
                ))
        return runs

    def with_overrides(self, seeds: Sequence[int]) -> "SweepSpec":
        """A copy with seeds replaced."""
        return replace(self, seeds=tuple(seeds))


# ----------------------------------------------------------------------
# file loading
# ----------------------------------------------------------------------
_SPEC_FIELDS = frozenset({
    "name", "scenario", "axes", "points", "fixed", "seeds", "artifact",
    "assemble", "title",
})


def _spec_from_mapping(doc: Mapping[str, object]) -> SweepSpec:
    unknown = set(doc) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"unknown spec fields: {sorted(unknown)}")
    kwargs: Dict[str, object] = dict(doc)
    if "seeds" in kwargs:
        kwargs["seeds"] = tuple(int(s) for s in kwargs["seeds"])  # type: ignore[union-attr]
    return SweepSpec(**kwargs)  # type: ignore[arg-type]


def load_spec_file(path: Union[str, Path]) -> SweepSpec:
    """Load a :class:`SweepSpec` from a ``.toml`` or ``.json`` file.

    TOML files put the spec under a ``[sweep]`` table (or at the top
    level); JSON files are the spec object directly.
    """
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".toml":
        import tomllib

        doc = tomllib.loads(text)
        inner = doc.get("sweep", doc)
        if not isinstance(inner, dict):
            raise ValueError(f"{p}: [sweep] must be a table")
        return _spec_from_mapping(inner)
    if p.suffix == ".json":
        loaded = json.loads(text)
        if not isinstance(loaded, dict):
            raise ValueError(f"{p}: spec file must hold one JSON object")
        return _spec_from_mapping(loaded)
    raise ValueError(f"unsupported spec file type: {p.suffix!r} "
                     "(expected .toml or .json)")


# ----------------------------------------------------------------------
# builtin registry: the committed artifacts, declaratively
# ----------------------------------------------------------------------
_S = "repro.experiments.scenarios"
_A = "repro.experiments.assemble"


def _scale_points() -> List[Dict[str, object]]:
    """The four-regime point list behind ``BENCH_scale.json``."""
    from .config import scale_small

    small = scale_small()
    client_counts = [1, 4, 8] if small else [1, 8, 32, 64]
    shard_counts = [1, 2] if small else [1, 2, 4, 8]
    contended = 8 if small else 64
    points: List[Dict[str, object]] = []
    for n in client_counts:
        points.append({"regime": "scaling", "n_clients": n})
    points.append({"regime": "contended", "n_clients": contended})
    for s in shard_counts:
        points.append({
            "regime": "sharded", "n_clients": client_counts[-1],
            "n_shards": s,
            SCENARIO_KEY: f"{_S}.sharded_point",
        })
    # cross-shard traffic axis: same fleet at max shards, 0/10/30% of
    # clients routed over the shared backbone boundary link
    for frac in (0.0, 0.1, 0.3):
        points.append({
            "regime": "cross_shard", "n_clients": client_counts[-1],
            "n_shards": shard_counts[-1],
            "cross_fraction": frac,
            SCENARIO_KEY: f"{_S}.sharded_point",
        })
    return points


def builtin_specs() -> Dict[str, SweepSpec]:
    """The registry of named sweeps (constructed fresh: axes depend on
    ``REPRO_SCALE``)."""
    from .config import (
        experiment_resolutions,
        scale_small,
    )

    small = scale_small()
    resolutions = list(experiment_resolutions())
    res0 = resolutions[0]
    res1 = resolutions[1 if not small else 0]
    specs = [
        # -- CI smoke: the minimal two-axis sweep ------------------------
        SweepSpec(
            name="smoke",
            title="Sweep-engine smoke",
            scenario=f"{_S}.latency_point",
            axes={"case": [2, 3], "resolution": resolutions[:2]},
            fixed={"n_accesses": 10, "lattice": [9, 18, 3]},
            artifact="smoke",
        ),
        # -- Figures 9-12 + Section 4.3 (the latency suite) --------------
        SweepSpec(
            name="latency",
            title="Figures 9-12, Section 4.3 — latency per access (Cases 1-3)",
            scenario=f"{_S}.latency_point",
            axes={"case": [1, 2, 3], "resolution": resolutions},
            artifact="latency",
            assemble=f"{_A}.assemble_latency",
        ),
        # -- Figure 7 (database size on real renders) ---------------------
        SweepSpec(
            name="database_size",
            title="Figure 7 — database size vs sample resolution",
            scenario=f"{_S}.database_size_point",
            axes={"resolution": ([64, 128] if small
                                 else [200, 300, 400, 500, 600])},
            artifact="database_size",
        ),
        # -- Figure 8 (real inflate beside the modelled cost) -------------
        SweepSpec(
            name="decompression",
            title="Figure 8 — decompression time per view set",
            scenario=f"{_S}.decompression_point",
            axes={"resolution": resolutions},
            artifact="decompression",
        ),
        # -- Section 4.2 (client frame rate; every number host-timed) -----
        SweepSpec(
            name="fps",
            title="Section 4.2 — client synthesis rate",
            scenario=f"{_S}.fps_point",
            axes={"resolution": [64, 128] if small else [200, 300, 500],
                  "mode": ["quadrilinear", "uv-nearest", "nearest"]},
            artifact="fps",
        ),
        # -- Section 4.2 (QGR: re-timed cursor paths, mean over seeds) ----
        SweepSpec(
            name="qgr",
            title="Section 4.2 — Quality Guaranteed Rate",
            scenario=f"{_S}.qgr_point",
            axes={"case": [2, 3], "speed": [1.0, 2.0, 4.0]},
            fixed={"resolution": res0, "n_accesses": 20 if small else 40},
            seeds=(7, 11) if small else (7, 11, 13),
            artifact="qgr",
            assemble=f"{_A}.assemble_qgr",
        ),
        # -- Section 4.1 (generation) -------------------------------------
        SweepSpec(
            name="generation",
            title="Section 4.1 — database generation",
            scenario=f"{_S}.generation_zlib_point",
            points=[
                {"stage": "kernel", SCENARIO_KEY: f"{_S}.generation_kernel_point"},
                {"stage": "zlib-1", "level": 1},
                {"stage": "zlib-6", "level": 6},
                {"stage": "zlib-9", "level": 9},
                {"stage": "viewset", SCENARIO_KEY: f"{_S}.generation_viewset_point"},
            ],
            artifact="generation",
            assemble=f"{_A}.assemble_generation",
        ),
        # -- transfer scheduling (BENCH_streaming.json) -------------------
        SweepSpec(
            name="scheduling",
            title="Transfer scheduling — demand-miss latency by policy",
            scenario=f"{_S}.scheduling_arm",
            points=[
                {"arm": "staging-off", "case": 2, "policy": "weighted"},
                {"arm": "staging+off", "case": 3, "policy": "off"},
                {"arm": "staging+weighted", "case": 3, "policy": "weighted"},
                {"arm": "staging+strict", "case": 3, "policy": "strict"},
            ],
            fixed={"resolution": res0},
            artifact="streaming",
            assemble=f"{_A}.assemble_scheduling",
        ),
        # -- observability overhead (BENCH_observability.json) ------------
        # The session point scales with REPRO_SCALE; the fleet tiers run a
        # pinned rig (see fleet_observability_point) so shared tiers are
        # bit-identical across scales — small just runs fewer of them.
        SweepSpec(
            name="observability",
            title="Observability overhead",
            scenario=f"{_S}.observability_point",
            points=(
                [{
                    "resolution": 48 if small else 64,
                    "n_accesses": 20 if small else 30,
                    "repeats": 3,
                }]
                + [{"n_clients": n, "n_shards": 8,
                    SCENARIO_KEY: f"{_S}.fleet_observability_point"}
                   for n in ([8, 64] if small else [8, 64, 256])]
            ),
            artifact="observability",
            assemble=f"{_A}.assemble_observability",
        ),
        # -- multiclient / shard scale curve (BENCH_scale.json) -----------
        SweepSpec(
            name="scale",
            title="Multi-client scaling and sharded fleets",
            scenario=f"{_S}.multiclient_point",
            points=_scale_points(),
            artifact="scale",
            assemble=f"{_A}.assemble_scale",
        ),
        # -- the design-choice ablations (BENCH_ablations.json) -----------
        SweepSpec(
            name="ablations",
            title="Design-choice ablations",
            scenario="",
            points=(
                [{"family": "prefetch", "policy": p, "case": 2,
                  "resolution": res0,
                  SCENARIO_KEY: f"{_S}.prefetch_arm"}
                 for p in ("quadrant", "all-neighbors", "none")]
                + [{"family": "staging", "order": o, "concurrency": c,
                    "resolution": res1,
                    SCENARIO_KEY: f"{_S}.staging_arm"}
                   for o in ("proximity", "fifo") for c in (1, 4, 8)]
                + [{"family": "stripe", "width": w, "resolution": res0,
                    SCENARIO_KEY: f"{_S}.stripe_arm"}
                   for w in (1, 2, 3)]
                + [{"family": "codec", "codec": c,
                    "resolution": 64 if small else 128,
                    SCENARIO_KEY: f"{_S}.codec_arm"}
                   for c in ("zlib-1", "zlib-6", "zlib-9", "delta-zlib-6")]
                + [{"family": "agent_cache", "payloads": b, "case": 2,
                    "resolution": res0,
                    SCENARIO_KEY: f"{_S}.agent_cache_arm"}
                   for b in (2, 6, 0)]
                + [{"family": "viewset_size", "l": l,
                    "resolution": 64 if small else 128,
                    SCENARIO_KEY: f"{_S}.viewset_size_arm"}
                   for l in (2, 3, 6)]
            ),
            artifact="ablations",
            assemble=f"{_A}.assemble_ablations",
        ),
    ]
    return {s.name: s for s in specs}


def spec_named(name: str) -> SweepSpec:
    """Look up a builtin spec by name (``KeyError`` lists what exists)."""
    specs = builtin_specs()
    try:
        return specs[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep spec {name!r}; builtin specs: "
            f"{', '.join(sorted(specs))}"
        ) from None
