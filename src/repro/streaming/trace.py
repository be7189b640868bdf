"""Cursor-movement traces driving the streaming experiments.

The paper orchestrates every experiment with "a standard list of cursor
movements" whose 58 view-set requests form the x-axis of Figures 8-12.  A
:class:`CursorTrace` is a deterministic sequence of timed view angles; the
standard trace is a seeded smooth random walk over the view sphere, scaled so
it crosses exactly the requested number of view-set boundaries.

Trace speed is the experiment's independent variable for the Quality
Guaranteed Rate (QGR) analysis: :func:`scaled` re-times the same spatial path
at a different angular velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..lightfield.lattice import CameraLattice, ViewSetKey

__all__ = ["CursorSample", "CursorTrace", "standard_trace"]


@dataclass(frozen=True)
class CursorSample:
    """One cursor position: simulation time and view angles."""

    time: float
    theta: float
    phi: float


@dataclass
class CursorTrace:
    """A timed sequence of cursor positions."""

    samples: List[CursorSample]

    def __post_init__(self) -> None:
        for a, b in zip(self.samples, self.samples[1:]):
            if b.time < a.time:
                raise ValueError("trace timestamps must be non-decreasing")

    def __iter__(self) -> Iterator[CursorSample]:
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Time of the last sample."""
        return self.samples[-1].time if self.samples else 0.0

    def viewset_accesses(self, lattice: CameraLattice) -> List[ViewSetKey]:
        """The distinct view-set entries the trace produces, in order.

        Consecutive samples inside the same view set collapse to one entry;
        re-entering a previously visited view set counts again (the client
        may have evicted it).
        """
        out: List[ViewSetKey] = []
        current = None
        for s in self.samples:
            key = lattice.viewset_containing(s.theta, s.phi)
            if key != current:
                out.append(key)
                current = key
        return out

    def scaled(self, speed: float) -> CursorTrace:
        """The same spatial path at ``speed``× the angular velocity."""
        if speed <= 0:
            raise ValueError("speed must be positive")
        return CursorTrace(
            samples=[
                CursorSample(time=s.time / speed, theta=s.theta, phi=s.phi)
                for s in self.samples
            ]
        )

    def shifted(self, dt: float) -> CursorTrace:
        """The same path starting ``dt`` seconds later (staggered clients).

        A zero shift shares the (frozen) samples in a new list."""
        if dt < 0:
            raise ValueError("shift must be non-negative")
        if dt == 0:
            return CursorTrace(samples=list(self.samples))
        return CursorTrace(
            samples=[
                CursorSample(s.time + dt, s.theta, s.phi)
                for s in self.samples
            ]
        )


def standard_trace(
    lattice: CameraLattice,
    n_accesses: int = 58,
    step_period: float = 0.35,
    seed: int = 7,
    heading_noise: float = 0.55,
    dwell_steps: Tuple[int, int] = (4, 10),
    sweep_steps: Tuple[int, int] = (2, 6),
    max_samples: int = 100_000,
) -> CursorTrace:
    """The orchestrated standard trace: exactly ``n_accesses`` view-set entries.

    A *bursty* momentum walk on (theta, phi), seeded and deterministic,
    mimicking human examination behaviour: the cursor **dwells** inside a
    view set (small slow movements while the user studies the view), then
    **sweeps** — a fast decisive motion crossing one or more view-set
    boundaries.  Reactive prefetching has little lead time on sweep entries
    while long-horizon staging has the dwell periods to pre-position — the
    asymmetry the paper's Case 2 / Case 3 contrast rides on.

    Samples are emitted every ``step_period`` seconds until the walk has
    entered ``n_accesses`` view sets (counting the initial one).
    """
    if n_accesses < 1:
        raise ValueError("n_accesses must be >= 1")
    rng = np.random.default_rng(seed)
    # the walk is Python float math (math.cos / sin, float %): the same
    # values numpy scalars gave, at a fraction of the per-step cost
    two_pi = 2 * math.pi
    # start mid-band, away from the poles
    theta = math.pi * 0.5 + rng.uniform(-0.2, 0.2)
    phi = rng.uniform(0, two_pi)
    window = lattice.l * lattice.theta_step
    dwell_speed = 0.06 * window   # examining: stays inside the view set
    sweep_speed = 0.55 * window   # decisive motion: crosses in ~2 steps
    heading = rng.uniform(0, two_pi)

    samples: List[CursorSample] = []
    viewset_containing = lattice.viewset_containing
    accesses = 0
    current = None
    t = 0.0
    lo = 1.5 * lattice.theta_step
    hi = math.pi - 1.5 * lattice.theta_step
    mode_sweep = False
    mode_left = int(rng.integers(*dwell_steps))
    for _ in range(max_samples):
        key = viewset_containing(theta, phi)
        if key != current:
            accesses += 1
            current = key
        samples.append(CursorSample(t, theta, phi))
        if accesses >= n_accesses:
            break
        if mode_left <= 0:
            mode_sweep = not mode_sweep
            mode_left = int(
                rng.integers(*(sweep_steps if mode_sweep else dwell_steps))
            )
            if mode_sweep:
                # a sweep picks a fresh decisive direction
                heading = rng.uniform(0, two_pi)
        mode_left -= 1
        speed = sweep_speed if mode_sweep else dwell_speed
        jitter = heading_noise * (0.3 if mode_sweep else 1.0)
        heading += rng.normal(scale=jitter)
        theta_new = theta + speed * math.cos(heading)
        if not lo <= theta_new <= hi:
            heading = -heading  # bounce off the polar caps
            theta_new = min(max(theta_new, lo), hi)
        theta = theta_new
        phi = (phi + speed * math.sin(heading)) % two_pi
        t += step_period
    else:
        raise RuntimeError(
            f"trace did not reach {n_accesses} accesses in {max_samples} "
            "samples"
        )
    return CursorTrace(samples=samples)
