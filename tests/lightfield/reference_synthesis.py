"""Test-side oracle: the straightforward gather synthesizer.

This is the implementation ``repro.lightfield.synthesis`` shipped before the
view-set texel store, with the caching taken out: every frame intersects
each ray with each sphere on its own (``intersect_sphere``, not the
synthesizer's ``TwoSphere.project``), builds the exact set of cameras it
touches (``np.unique``), a ``look_at`` per camera, a copy of every camera
image, and samples with three-index fancy gathers and einsums.  It is slow and obviously right, which is the point — nothing under
``src/``, ``benchmarks/`` or ``examples/`` imports it.

The helpers below are for tests only: :func:`intersect_sphere` (one
sphere), :func:`stuv_to_ray` (``TwoSphere.project``'s inverse),
:func:`view_for_camera`, and :func:`render_rays` / :func:`required_viewsets`
(a synthesizer's frame kernel and the view sets it would touch, on
row-major ``(N, 3)`` rays with unit directions).
"""

from typing import Set, Tuple

import numpy as np

from repro.lightfield.lattice import CameraLattice, ViewSetKey
from repro.lightfield.sphere import (
    TwoSphere,
    angles_to_cartesian,
    cartesian_to_angles,
)
from repro.lightfield.synthesis import LightFieldSynthesizer, ViewSetProvider
from repro.lightfield.viewset import ViewSet
from repro.render.camera import look_at


def intersect_sphere(
    spheres: TwoSphere, origins: np.ndarray, dirs: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """First non-negative intersection parameter with a centered sphere.

    Returns ``(t, hit)``: ray parameter of the first intersection with
    ``t >= 0`` and a boolean hit mask.  Directions must be unit length.
    Row-major ``(N, 3)`` rays and one sphere at a time.
    """
    o = np.asarray(origins, dtype=np.float64)
    d = np.asarray(dirs, dtype=np.float64)
    b = np.einsum("ij,ij->i", o, d)
    c = np.einsum("ij,ij->i", o, o) - radius * radius
    disc = b * b - c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t0 = -b - sq
    t1 = -b + sq
    # first intersection at t >= 0: prefer entry point, else exit
    t = np.where(t0 >= 0.0, t0, t1)
    hit &= t >= 0.0
    return t, hit


def stuv_to_ray(spheres: TwoSphere, s: np.ndarray, t: np.ndarray,
                u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse mapping: the ray from outer point (u,v) to inner (s,t).

    Returns unit-direction rays originating on the outer sphere.
    """
    p_out = angles_to_cartesian(np.asarray(u), np.asarray(v), spheres.r_outer)
    p_in = angles_to_cartesian(np.asarray(s), np.asarray(t), spheres.r_inner)
    d = p_in - p_out
    n = np.linalg.norm(d, axis=-1, keepdims=True)
    if np.any(n == 0):
        raise ValueError("degenerate ray: coincident sphere points")
    return p_out, d / n


def view_for_camera(vs: ViewSet, i: int, j: int) -> np.ndarray:
    """The sample view for global lattice camera (i, j).

    Raises KeyError if the camera is not in this view set.
    """
    vi, vj = vs.key
    a, b = i - vi * vs.l, j - vj * vs.l
    if not (0 <= a < vs.l and 0 <= b < vs.l):
        raise KeyError(f"camera ({i}, {j}) not in view set {vs.key}")
    return vs.images[a, b]


def _planar(origins, dirs):
    return (np.asarray(origins, dtype=np.float64).T,
            np.asarray(dirs, dtype=np.float64).T)


def render_rays(synth: LightFieldSynthesizer, origins: np.ndarray,
                dirs: np.ndarray) -> Tuple[np.ndarray, float, Set[ViewSetKey]]:
    """``(colors (N,3) float32, coverage, missing keys)`` of ``synth``."""
    return synth._synthesize(*_planar(origins, dirs))


def required_viewsets(synth: LightFieldSynthesizer, origins: np.ndarray,
                      dirs: np.ndarray) -> Set[ViewSetKey]:
    """The keys :func:`render_rays` asks the provider for on these rays."""
    vidx, _, u, v = synth.spheres.project(*_planar(origins, dirs))
    if not len(vidx):
        return set()
    leads = np.unique(synth._leads(u, v)[0])
    return set(synth._touched_viewsets(synth._corners(leads)))


def _corner_cameras(lattice: CameraLattice, mode: str, u, v):
    """(ci, cj, weight) triples for an interpolation mode."""
    fi, fj = lattice.continuous_index(u, v)
    if mode in ("uv-nearest", "nearest"):
        i = np.clip(np.rint(fi), 0, lattice.n_theta - 1).astype(np.intp)
        j = np.rint(fj).astype(np.intp) % lattice.n_phi
        return [(i, j, np.ones(len(fi)))]
    i0 = np.clip(np.floor(fi).astype(np.intp), 0, lattice.n_theta - 1)
    i1 = np.minimum(i0 + 1, lattice.n_theta - 1)
    wi = np.clip(fi - i0, 0.0, 1.0)
    j0 = np.floor(fj).astype(np.intp) % lattice.n_phi
    j1 = (j0 + 1) % lattice.n_phi
    wj = np.clip(fj - np.floor(fj), 0.0, 1.0)
    return [
        (i0, j0, (1 - wi) * (1 - wj)),
        (i0, j1, (1 - wi) * wj),
        (i1, j0, wi * (1 - wj)),
        (i1, j1, wi * wj),
    ]


def reference_render_rays(
    lattice: CameraLattice,
    spheres: TwoSphere,
    resolution: int,
    provider: ViewSetProvider,
    origins: np.ndarray,
    dirs: np.ndarray,
    background: float = 0.0,
    interpolation: str = "quadrilinear",
) -> Tuple[np.ndarray, float, Set[ViewSetKey]]:
    """``(colors (N,3) float32, coverage, missing view-set keys)``."""
    r = resolution
    tan_half = np.tan(np.radians(spheres.camera_fov_deg()) / 2.0)
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    colors = np.full((len(origins), 3), background, dtype=np.float32)
    t_in, hit_in = intersect_sphere(spheres, origins, dirs, spheres.r_inner)
    t_out, hit_out = intersect_sphere(spheres, origins, dirs, spheres.r_outer)
    vidx = np.nonzero(hit_in & hit_out)[0]
    if not len(vidx):
        return colors, 1.0, set()
    o, d = origins[vidx], dirs[vidx]
    p_in = (o + t_in[vidx, None] * d).astype(np.float32)
    u, v = cartesian_to_angles(o + t_out[vidx, None] * d)
    corners = _corner_cameras(lattice, interpolation, u, v)
    corner_codes = [ci * lattice.n_phi + cj for ci, cj, _ in corners]

    # gather tables for exactly the cameras this frame touches
    code_list = sorted(
        {int(c) for code in corner_codes for c in np.unique(code)}
    )
    K = len(code_list)
    images = np.zeros((K, r, r, 3), dtype=np.uint8)
    eyes = np.zeros((K, 3), dtype=np.float32)
    rights = np.zeros((K, 3), dtype=np.float32)
    ups = np.zeros((K, 3), dtype=np.float32)
    forwards = np.zeros((K, 3), dtype=np.float32)
    present = np.zeros(K, dtype=bool)
    missing: Set[ViewSetKey] = set()
    slot_lut = np.full(lattice.n_cameras, -1, dtype=np.intp)
    for slot, code in enumerate(code_list):
        slot_lut[code] = slot
        i, j = divmod(code, lattice.n_phi)
        theta, phi = lattice.angles(i, j)
        eye = angles_to_cartesian(
            np.array(theta), np.array(phi), spheres.r_outer
        )
        up = np.array([0.0, 0.0, 1.0])
        if abs(np.cos(theta)) > 0.999:
            up = np.array([1.0, 0.0, 0.0])
        right, true_up, forward = look_at(eye, np.zeros(3), up)
        eyes[slot], rights[slot] = eye, right
        ups[slot], forwards[slot] = true_up, forward
        key = lattice.viewset_of(i, j)
        vs = provider.get_resident(key)
        if vs is None:
            missing.add(key)
            continue
        images[slot] = view_for_camera(vs, i, j)
        present[slot] = True

    acc = np.zeros((len(vidx), 3), dtype=np.float32)
    wsum = np.zeros(len(vidx), dtype=np.float32)
    for (_ci, _cj, w), code in zip(corners, corner_codes):
        slots = slot_lut[code]
        sel = np.nonzero(present[slots])[0]
        if not len(sel):
            continue
        s = slots[sel]
        rel = p_in[sel] - eyes[s]
        z = np.einsum("ij,ij->i", rel, forwards[s])
        z = np.maximum(z, np.float32(1e-9))
        inv = 1.0 / (z * np.float32(tan_half))
        x = np.einsum("ij,ij->i", rel, rights[s]) * inv
        y = np.einsum("ij,ij->i", rel, ups[s]) * inv
        px = np.clip((x + 1.0) * (0.5 * r) - 0.5, 0.0, r - 1.0)
        py = np.clip((1.0 - y) * (0.5 * r) - 0.5, 0.0, r - 1.0)
        if interpolation == "nearest":
            xi = np.rint(px).astype(np.intp)
            yi = np.rint(py).astype(np.intp)
            samples = images[s, yi, xi].astype(np.float32)
        else:
            x0 = np.floor(px).astype(np.intp)
            y0 = np.floor(py).astype(np.intp)
            if r > 1:
                np.minimum(x0, r - 2, out=x0)
                np.minimum(y0, r - 2, out=y0)
            fx = (px - x0).astype(np.float32)[:, None]
            fy = (py - y0).astype(np.float32)[:, None]
            x1 = x0 + 1 if r > 1 else x0
            y1 = y0 + 1 if r > 1 else y0
            c00 = images[s, y0, x0].astype(np.float32)
            c01 = images[s, y0, x1].astype(np.float32)
            c10 = images[s, y1, x0].astype(np.float32)
            c11 = images[s, y1, x1].astype(np.float32)
            top = c00 + (c01 - c00) * fx
            bot = c10 + (c11 - c10) * fx
            samples = top + (bot - top) * fy
        wf = w[sel].astype(np.float32)
        acc[sel] += wf[:, None] * (samples * np.float32(1.0 / 255.0))
        wsum[sel] += wf

    have = wsum > 1e-6
    out = np.full((len(vidx), 3), background, dtype=np.float32)
    out[have] = acc[have] / wsum[have, None]
    colors[vidx] = out
    return colors, float(np.mean(wsum > 0.999)), missing
