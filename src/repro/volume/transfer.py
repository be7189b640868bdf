"""Transfer functions: scalar value → (RGB emission, opacity).

Light field rendering's selling point in the paper is that it handles "the
most general form of volume rendering with both semi-transparency and full
opaqueness".  The transfer function is where that generality lives: a
piecewise-linear map from normalized scalar values to color and extinction,
applied vectorized over ray-sample batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["TransferFunction", "preset"]


@dataclass
class TransferFunction:
    """Piecewise-linear color + opacity map over scalar values in [0, 1].

    Control points are ``(value, r, g, b, alpha)`` rows sorted by value.
    ``alpha`` is opacity per unit length in world space (extinction density);
    the ray caster converts it to per-step opacity with the Beer-Lambert
    correction, so rendering is step-size independent.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 5:
            raise ValueError("points must be (N, 5): value, r, g, b, alpha")
        if pts.shape[0] < 2:
            raise ValueError("need at least two control points")
        if not np.isfinite(pts).all():
            raise ValueError("control points must be finite")
        order = np.argsort(pts[:, 0], kind="stable")
        pts = pts[order]
        if pts[0, 0] > 0.0 or pts[-1, 0] < 1.0:
            raise ValueError("control points must span [0, 1]")
        if ((pts[:, 1:4] < 0) | (pts[:, 1:4] > 1)).any():
            raise ValueError("colors must be within [0, 1]")
        if (pts[:, 4] < 0).any():
            raise ValueError("alpha must be non-negative")
        self.points = pts

    @classmethod
    def from_list(
        cls, rows: Sequence[Tuple[float, float, float, float, float]]
    ) -> TransferFunction:
        """Build from a list of (value, r, g, b, alpha) tuples."""
        return cls(points=np.asarray(rows, dtype=np.float64))

    def __call__(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map scalars to (colors ``(N, 3)``, extinction ``(N,)``).

        Input values are clipped into [0, 1].
        """
        v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
        xp = self.points[:, 0]
        rgb = np.empty(v.shape + (3,), dtype=np.float32)
        for c in range(3):
            rgb[..., c] = np.interp(v, xp, self.points[:, 1 + c])
        alpha = np.interp(v, xp, self.points[:, 4])
        return rgb, alpha.astype(np.float32)

    def opacity_only(self, values: np.ndarray) -> np.ndarray:
        """Extinction densities for scalars (occlusion precomputation)."""
        v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
        return np.interp(v, self.points[:, 0], self.points[:, 4]).astype(
            np.float32
        )

    def max_opacity_in(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Maximum extinction over scalar ranges ``[lo, hi]`` (vectorized).

        For a piecewise-linear opacity map the maximum over an interval is
        attained either at an endpoint or at a control point inside it, so
        the bound is *exact*, not merely conservative.  ``lo``/``hi`` are
        broadcast together; values are clipped into [0, 1] exactly like
        :meth:`__call__` clips its inputs.  This is the query the macrocell
        empty-space classifier (:class:`repro.volume.accel.MacrocellGrid`)
        uses to mark cells transparent under the current classification.
        """
        lo = np.clip(np.asarray(lo, dtype=np.float64), 0.0, 1.0)
        hi = np.clip(np.asarray(hi, dtype=np.float64), 0.0, 1.0)
        lo, hi = np.broadcast_arrays(lo, hi)
        if (lo > hi).any():
            raise ValueError("range lower bounds exceed upper bounds")
        xp = self.points[:, 0]
        fp = self.points[:, 4]
        out = np.maximum(np.interp(lo, xp, fp), np.interp(hi, xp, fp))
        # control points are few; loop over them, vectorized over queries
        for vk, ak in zip(xp, fp):
            if ak > 0.0:
                inside = (lo <= vk) & (vk <= hi)
                out = np.where(inside, np.maximum(out, ak), out)
        return out.astype(np.float32)


_PRESETS = {
    # emphasize both lobes of a potential field: blue negative-ish lows,
    # red highs, transparent far field — the classic negHip look.  The
    # synthetic negHip's zero-potential background normalizes to ~0.23-0.38,
    # so the fully-transparent band brackets that range: most of the volume
    # is genuine empty space, as in the paper's renders (and as the
    # macrocell skipping acceleration expects).
    "neghip": [
        (0.00, 0.05, 0.05, 0.60, 6.0),
        (0.10, 0.10, 0.30, 0.90, 3.0),
        (0.20, 0.05, 0.05, 0.05, 0.0),
        (0.50, 0.05, 0.05, 0.05, 0.0),
        (0.75, 0.95, 0.55, 0.10, 5.0),
        (1.00, 1.00, 0.90, 0.30, 9.0),
    ],
    # mostly transparent with a bright opaque core
    "hot-core": [
        (0.00, 0.00, 0.00, 0.00, 0.0),
        (0.40, 0.30, 0.05, 0.02, 0.0),
        (0.70, 0.90, 0.40, 0.05, 6.0),
        (1.00, 1.00, 1.00, 0.60, 18.0),
    ],
    # a translucent cool-to-warm ramp exercising semi-transparency
    "ramp": [
        (0.00, 0.10, 0.15, 0.70, 0.0),
        (0.50, 0.60, 0.60, 0.60, 2.0),
        (1.00, 0.90, 0.30, 0.10, 5.0),
    ],
    # near-binary isosurface-like step: tests full opaqueness
    "opaque-shell": [
        (0.00, 0.00, 0.00, 0.00, 0.0),
        (0.49, 0.00, 0.00, 0.00, 0.0),
        (0.51, 0.80, 0.80, 0.85, 60.0),
        (1.00, 0.95, 0.95, 1.00, 60.0),
    ],
}


def preset(name: str) -> TransferFunction:
    """A named transfer function preset; raises KeyError on unknown names."""
    try:
        rows = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return TransferFunction.from_list(rows)


def preset_names() -> List[str]:
    """All available preset names."""
    return sorted(_PRESETS)
