"""Test-side oracles for the empty-space classifier.

* :func:`opacity_only`: extinction alone, by one ``np.interp`` over the
  whole input; ``TransferFunction.max_opacity_in`` is checked against it.
* :func:`ray_intervals`: the coarse entry/exit summary of
  ``ActiveCells.ray_segments``.
"""

from typing import Tuple

import numpy as np

from repro.volume.accel import ActiveCells
from repro.volume.transfer import TransferFunction


def opacity_only(tf: TransferFunction, values: np.ndarray) -> np.ndarray:
    """Extinction densities for scalars."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return np.interp(v, tf.points[:, 0], tf.points[:, 4]).astype(np.float32)


def ray_intervals(
    cells: ActiveCells,
    origins: np.ndarray,
    dirs: np.ndarray,
    t_near: np.ndarray,
    t_far: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conservative overall active span ``[t0, t1]`` per ray.

    ``t0``/``t1`` bound the first and last active segment; ``hit`` is False
    for rays that can never sample nonzero extinction (their ``t0``/``t1``
    are ``+inf``/``-inf``).
    """
    seg_t0, seg_t1, ray_ptr = cells.ray_segments(origins, dirs, t_near, t_far)
    n = len(ray_ptr) - 1
    t0 = np.full(n, np.inf)
    t1 = np.full(n, -np.inf)
    hit = ray_ptr[1:] > ray_ptr[:-1]
    who = np.nonzero(hit)[0]
    t0[who] = seg_t0[ray_ptr[:-1][who]]
    t1[who] = seg_t1[ray_ptr[1:][who] - 1]
    return t0, t1, hit
