"""The per-ray synthesis kernel, kept as the oracle for ``_synthesize``.

``reference_synthesize`` is ``LightFieldSynthesizer._synthesize`` as it was
before a frame's rays were walked in runs that share their corner cameras:
every corner gathers its twelve camera-basis values, texel base and
presence per ray with ``take``, and absent cameras are sampled at weight 0.
It gathers from one flat texel buffer of its own, the provider's resident
view sets copied in one after another (as the synthesizer's store once
held them), and reads the synthesizer's basis tables and projection, so a
frame rendered with it patched over ``_synthesize`` is the old frame bit
for bit.
"""

import numpy as np

from repro.lightfield import synthesis


def _corner_cameras(synth, u, v):
    """(camera code, weight) pairs for the configured interpolation."""
    n_theta, n_phi = synth.lattice.n_theta, synth.lattice.n_phi
    fi, fj = synth.lattice.continuous_index(u, v)
    if synth.interpolation in ("uv-nearest", "nearest"):
        i = np.clip(np.rint(fi), 0, n_theta - 1).astype(np.intp)
        j = np.rint(fj).astype(np.intp) % n_phi
        return [(i * n_phi + j, np.ones(len(fi)))]
    i0 = np.clip(np.floor(fi).astype(np.intp), 0, n_theta - 1)
    i1 = np.minimum(i0 + 1, n_theta - 1)
    wi = np.clip(fi - i0, 0.0, 1.0)
    j0 = np.floor(fj).astype(np.intp) % n_phi
    j1 = (j0 + 1) % n_phi
    wj = np.clip(fj - np.floor(fj), 0.0, 1.0)
    i0 *= n_phi
    i1 *= n_phi
    return [
        (i0 + j0, (1 - wi) * (1 - wj)),
        (i0 + j1, (1 - wi) * wj),
        (i1 + j0, wi * (1 - wj)),
        (i1 + j1, wi * wj),
    ]


def _touched_viewsets(synth, corners):
    """Keys of the view sets holding any corner camera."""
    cols = synth.lattice.n_viewsets[1]
    touched = np.zeros(synth.lattice.n_viewsets[0] * cols, dtype=bool)
    for code, _ in corners:
        touched[synth._viewset_of_code.take(code)] = True
    return [divmod(int(c), cols) for c in np.flatnonzero(touched)]


def _texel_buffer(synth, keys):
    """``(texels, base, present, missing)`` for the view sets ``keys``.

    ``texels`` is the resident view sets' blocks copied into one flat
    buffer; ``base`` and ``present`` are indexed by camera code.
    """
    lattice = synth.lattice
    view_bytes = synth.resolution * synth.resolution * 3
    base = np.zeros(lattice.n_cameras, dtype=np.intp)
    present = np.zeros(lattice.n_cameras, dtype=bool)
    blocks, missing, start = [], set(), 0
    for key in keys:
        vs = synth.provider.get_resident(key)
        if vs is None:
            missing.add(key)
            continue
        codes = [i * lattice.n_phi + j
                 for i, j in lattice.cameras_in_viewset(key)]
        base[codes] = start + np.arange(len(codes)) * view_bytes
        present[codes] = True
        blocks.append(vs.images.reshape(-1))
        start += blocks[-1].size
    texels = np.concatenate(blocks) if blocks else np.zeros(0, np.uint8)
    return texels, base, present, missing


def _sample(synth, texels, base, code, points):
    """Reproject ``points`` into each ray's camera and tap its image."""
    ex, ey, ez, rx, ry, rz, ux, uy, uz, fx, fy, fz = (
        lut.take(code) for lut in synth._bases
    )
    relx, rely, relz = points[0] - ex, points[1] - ey, points[2] - ez
    z = relx * fx + rely * fy + relz * fz
    np.maximum(z, np.float32(1e-9), out=z)
    inv = 1.0 / (z * np.float32(synth._tan_half))
    x = (relx * rx + rely * ry + relz * rz) * inv
    y = (relx * ux + rely * uy + relz * uz) * inv
    r = synth.resolution
    px = (x + 1.0) * (0.5 * r) - 0.5
    py = (1.0 - y) * (0.5 * r) - 0.5
    np.clip(px, 0.0, r - 1.0, out=px)
    np.clip(py, 0.0, r - 1.0, out=py)
    nearest = synth.interpolation == "nearest"
    if nearest:
        x0, y0 = np.rint(px), np.rint(py)
    else:
        x0 = np.minimum(np.floor(px), max(r - 2, 0))
        y0 = np.minimum(np.floor(py), max(r - 2, 0))
    tap = y0.astype(np.intp)
    tap *= r
    tap += x0.astype(np.intp)
    tap *= 3
    tap += base.take(code)
    tap = tap + np.arange(3)[:, None]
    c00 = texels.take(tap).astype(np.float32)
    if nearest:
        return c00
    dx, dy = (3, 3 * r) if r > 1 else (0, 0)
    tap += dx
    c01 = texels.take(tap).astype(np.float32)
    tap += dy
    c11 = texels.take(tap).astype(np.float32)
    tap -= dx
    c10 = texels.take(tap).astype(np.float32)
    px -= x0
    py -= y0
    c01 -= c00
    c01 *= px
    c01 += c00
    c11 -= c10
    c11 *= px
    c11 += c10
    c11 -= c01
    c11 *= py
    c11 += c01
    return c11


def reference_synthesize(synth, origins, dirs):
    """``(colors (N,3) float32, coverage, missing keys)``, ray by ray."""
    colors = np.full((dirs.shape[1], 3), synthesis.BACKGROUND,
                     dtype=np.float32)
    vidx, points, u, v = synth.spheres.project(origins, dirs)
    if not len(vidx):
        return colors, 1.0, set()
    corners = _corner_cameras(synth, u, v)
    texels, base, present, missing = _texel_buffer(
        synth, _touched_viewsets(synth, corners))
    if not present.any():
        return colors, 0.0, missing
    acc = np.zeros((3, len(vidx)), dtype=np.float32)
    wsum = np.zeros(len(vidx), dtype=np.float32)
    for code, w in corners:
        wf = w.astype(np.float32) * present.take(code)
        acc += _sample(synth, texels, base, code, points) * wf
        wsum += wf
    have = wsum > 1e-6
    acc *= np.float32(1.0 / 255.0) / np.where(have, wsum, np.float32(1.0))
    if not have.all():
        acc[:, ~have] = synthesis.BACKGROUND
    colors[vidx] = acc.T
    return colors, float(np.mean(wsum > 0.999)), missing
