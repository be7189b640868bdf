"""Test-side oracle: ``SyntheticSource.viewset`` as it shipped through PR 20.

The body below is that method verbatim (``self`` renamed ``source``): an l²
loop that evaluates three ``np.sin`` over an r² meshgrid, stacks the channels
into a fresh float array and runs three boolean-mask passes over it.  Slow,
and the definition of every synthetic payload byte — the production method
must return a ``ViewSet`` that compares ``==`` to this one.  Nothing under
``src/``, ``benchmarks/`` or ``examples/`` imports it.

:class:`DatabaseSource` is the fixture that streams a really-rendered
database instead; only tests stream a built one.  :func:`to_bytes` is the
uncompressed LFVS wire blob, which the codecs stream without building: the
oracle they are held to.
"""

import numpy as np

from repro.lightfield import source as source_module
from repro.lightfield.database import LightFieldDatabase
from repro.lightfield.lattice import ViewSetKey
from repro.lightfield.source import SyntheticSource
from repro.lightfield.viewset import ViewSet


def reference_viewset(source: SyntheticSource, key: ViewSetKey) -> ViewSet:
    vi, vj = key
    l, r = source.lattice.l, source.resolution
    rng = np.random.default_rng(
        (source.seed * 1_000_003 + vi * 1009 + vj) & 0x7FFFFFFF
    )
    span = np.linspace(-1.0, 1.0, r, dtype=np.float32)
    xx, yy = np.meshgrid(span, span)
    disk = (xx * xx + yy * yy) <= 0.92  # silhouette of inner sphere
    phase = rng.uniform(0, 2 * np.pi, size=4).astype(np.float32)
    freq = rng.uniform(2.0, 6.0, size=4).astype(np.float32)
    images = np.zeros((l, l, r, r, 3), dtype=np.uint8)
    n_disk = int(disk.sum())
    for a in range(l):
        for b in range(l):
            drift = 0.06 * (a * l + b)  # slow per-view drift
            base = (
                np.sin(freq[0] * xx + phase[0] + drift)
                + np.sin(freq[1] * yy + phase[1])
                + np.sin(freq[2] * (xx + yy) + phase[2] + drift)
            ) / 3.0
            lum = (0.5 + 0.45 * base) * 255.0
            lum = np.round(lum / 3.0) * 3.0  # smooth quantized shading
            img = np.stack(
                [lum, lum * 0.8, lum * 0.6 + 20.0], axis=-1
            )
            img[~disk] = 0.0
            if source_module.NOISE_FRACTION > 0 and n_disk:
                mask = ((rng.random((r, r)) < source_module.NOISE_FRACTION)
                        & disk)
                img[mask] += rng.integers(
                    -5, 6, size=(int(mask.sum()), 3)
                )
            images[a, b] = np.clip(img, 0, 255).astype(np.uint8)
    return ViewSet(key=key, images=images)


class DatabaseSource:
    """Adapter exposing a built :class:`LightFieldDatabase` as a source."""

    def __init__(self, db: LightFieldDatabase) -> None:
        if not db.is_complete():
            raise ValueError(
                "streaming sessions need a complete database; "
                f"{len(db)} of {db.lattice.n_viewsets} view sets present"
            )
        self.db = db
        self.lattice = db.lattice
        self.spheres = db.spheres
        self.resolution = db.resolution

    def payload(self, key: ViewSetKey) -> bytes:
        return self.db.payload(key)


def to_bytes(vs: ViewSet) -> bytes:
    """Serialize to the LFVS wire format."""
    # one copy: the join reads the pixel block through its buffer
    return b"".join((vs.header(), vs.images.reshape(-1).data))
