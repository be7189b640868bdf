"""The single writer for ``repro-bench/1`` BENCH artifacts.

Every machine-readable benchmark artifact in this repo is one JSON document
with the same contract:

* the **payload** carries only deterministic fields — sim-time statistics,
  counts, modeled costs — reproducible bit-for-bit from the stamped seed;
* host wall-clock measurements are **quarantined** under the top-level
  ``wall_clock`` key, which reviewers and automated comparisons ignore;
* the ``meta`` header stamps the format, scale, seed and the modeled
  decompression cost so any diff that does appear is attributable.

The quarantine is structural, not advisory: :func:`payload_fingerprint`
(the checkpoint/resume comparison key of the sweep engine) encodes floats
with ``float.hex()`` and excludes the ``wall_clock`` section entirely, so
an artifact's identity is exactly its deterministic content.

:func:`wall_timer` is the one wall-clock source for experiment drivers.
Routing every measurement through this helper keeps the quarantine
auditable: if a wall number shows up outside a ``wall_clock`` section, it
came from here and is greppable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "BENCH_FORMAT",
    "WALL_CLOCK_KEY",
    "WallTimer",
    "bench_document",
    "bench_meta",
    "bench_path",
    "hex_canonical",
    "payload_fingerprint",
    "render_bench",
    "split_wall_clock",
    "wall_timer",
    "write_bench",
]

#: artifact format tag; bump only with a migration note in DESIGN.md
BENCH_FORMAT = "repro-bench/1"

#: reserved key: host timing quarantined out of every fingerprint
WALL_CLOCK_KEY = "wall_clock"

#: a merged artifact document / payload section
BenchDoc = Dict[str, object]


class WallTimer:
    """Elapsed wall seconds between ``__enter__`` and the ``seconds`` read.

    The timer stays live after the ``with`` block closes — ``seconds``
    freezes at exit — so drivers can time a block and read the result
    outside it.
    """

    def __init__(self) -> None:
        self._t0 = 0.0
        self._elapsed: Optional[float] = None

    def start(self) -> None:
        # the sanctioned wall-clock read for experiment drivers: results
        # must land under a quarantined wall_clock section, never in a
        # deterministic payload
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        self._elapsed = time.perf_counter() - self._t0
        return self._elapsed

    @property
    def seconds(self) -> float:
        """Elapsed seconds (frozen once the context block exits)."""
        if self._elapsed is None:
            return time.perf_counter() - self._t0
        return self._elapsed


@contextmanager
def wall_timer() -> Iterator[WallTimer]:
    """Measure a block's wall time: ``with wall_timer() as t: ...``."""
    t = WallTimer()
    t.start()
    try:
        yield t
    finally:
        t.stop()


def _hexify(obj: object) -> object:
    """Recursively encode floats as ``float.hex()`` for bit-exact hashing."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, dict):
        return {str(k): _hexify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hexify(v) for v in obj]
    return obj


def hex_canonical(obj: object) -> str:
    """Stable JSON encoding with bit-exact floats (sorted keys, hex)."""
    return json.dumps(_hexify(obj), sort_keys=True,
                      separators=(",", ":"), default=str)


def payload_fingerprint(obj: object) -> str:
    """SHA-256 over the float-hex canonical encoding, ``wall_clock``
    excluded.

    This is the identity the sweep engine's checkpoint/resume machinery
    compares: two runs (or two merged artifacts) with equal fingerprints
    are bit-identical in every deterministic field, even when their host
    timings differ by every ulp.
    """
    if isinstance(obj, dict):
        obj = {k: v for k, v in obj.items() if k != WALL_CLOCK_KEY}
    digest = hashlib.sha256(hex_canonical(obj).encode("utf-8"))
    return digest.hexdigest()


def split_wall_clock(
    row: Mapping[str, object],
) -> Tuple[Dict[str, object], Optional[Dict[str, object]]]:
    """Separate a result row into (deterministic row, wall section).

    Drivers nest their host measurements under the reserved
    ``wall_clock`` key; everything else must be deterministic.
    """
    wall = row.get(WALL_CLOCK_KEY)
    payload = {k: v for k, v in row.items() if k != WALL_CLOCK_KEY}
    if wall is None:
        return payload, None
    if not isinstance(wall, Mapping):
        raise TypeError(
            f"row[{WALL_CLOCK_KEY!r}] must be a mapping, got {type(wall)!r}"
        )
    return payload, dict(wall)


def bench_meta(
    extra: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """The stamped ``meta`` header: format, scale, seed, modeled costs."""
    from ..streaming.session import SessionConfig

    defaults = SessionConfig()
    meta: Dict[str, object] = {
        "format": BENCH_FORMAT,
        "scale": os.environ.get("REPRO_SCALE", "default"),
        "seed": defaults.trace_seed if seed is None else seed,
        "cpu_seconds_per_byte": defaults.cpu_seconds_per_byte,
    }
    if extra:
        meta.update(extra)
    return meta


def bench_document(
    payload: Mapping[str, object],
    wall_clock: Optional[Mapping[str, object]] = None,
    meta_extra: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = None,
) -> BenchDoc:
    """Assemble a full artifact document (meta + payload + quarantine)."""
    if WALL_CLOCK_KEY in payload:
        raise ValueError(
            f"payload must not carry {WALL_CLOCK_KEY!r}; pass it separately"
        )
    doc: BenchDoc = {"meta": bench_meta(meta_extra, seed=seed)}
    doc.update(payload)
    if wall_clock is not None:
        doc[WALL_CLOCK_KEY] = dict(wall_clock)
    return doc


def render_bench(doc: Mapping[str, object]) -> str:
    """The canonical on-disk serialization (byte-stable given the doc)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def bench_path(name: str, out_dir: Union[str, Path, None] = None) -> Path:
    """``<out_dir>/BENCH_<name>.json`` (default: the repository root)."""
    if out_dir is None:
        out_dir = Path(__file__).resolve().parents[3]
    return Path(out_dir) / f"BENCH_{name}.json"


def write_bench(
    name: str,
    doc: Mapping[str, object],
    out_dir: Union[str, Path, None] = None,
) -> Path:
    """Write a :func:`bench_document` as ``BENCH_<name>.json``; returns
    its path."""
    path = bench_path(name, out_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_bench(doc))
    return path
