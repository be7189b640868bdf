"""The one-step-per-turn marcher, kept as the oracle for ``_march``.

``reference_march`` is ``RaycastRenderer._march`` as it was before the
marcher took a run of steps per sampling call, with the masked
``shade_blinn_phong`` and the stacking ``TransferFunction.__call__`` of
that time inlined, so a frame rendered with it patched in is the old
frame bit for bit.  Patch it over ``RaycastRenderer._march`` to render
the oracle image.

It composites opacity in the dtype ``sigma * dt`` promotes to: float64
for the default (numpy float64) step.  Compare against it at the default
step only.
"""

import numpy as np

from repro.render import lighting, raycast


def reference_transfer(tf, values):
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    xp = tf.points[:, 0]
    rgb = np.stack(
        [np.interp(v, xp, tf.points[:, 1 + c]) for c in range(3)],
        axis=-1,
    )
    alpha = np.interp(v, xp, tf.points[:, 4])
    return rgb.astype(np.float32), alpha.astype(np.float32)


def reference_shade(colors, gradients, view_dirs):
    colors = np.asarray(colors, dtype=np.float32)
    g = np.asarray(gradients, dtype=np.float64)
    v = -np.asarray(view_dirs, dtype=np.float64)
    mag = np.linalg.norm(g, axis=1)
    shaded = colors * (lighting.AMBIENT + lighting.DIFFUSE)
    strong = mag > lighting.GRADIENT_FLOOR
    if strong.any():
        n = g[strong] / mag[strong, None]
        ldir = np.asarray(lighting.LIGHT_DIRECTION, dtype=np.float64)
        ldir = ldir / np.linalg.norm(ldir)
        ndotl = np.abs(n @ ldir)
        half = ldir[None, :] + v[strong]
        half_norm = np.linalg.norm(half, axis=1, keepdims=True)
        half = np.divide(half, half_norm, out=np.zeros_like(half),
                         where=half_norm > 0)
        ndoth = np.abs(np.einsum("ij,ij->i", n, half))
        spec = lighting.SPECULAR * (ndoth ** lighting.SHININESS)
        lum = lighting.AMBIENT + lighting.DIFFUSE * ndotl
        shaded[strong] = colors[strong] * lum[:, None].astype(np.float32)
        shaded[strong] += spec[:, None].astype(np.float32)
    return np.clip(shaded, 0.0, 1.0)


def reference_march(self, o, d, t_base, t_far, seg_t0, seg_t1, cur, hi,
                    stats):
    m = len(o)
    dt = self._step
    cutoff = raycast.OPACITY_CUTOFF
    col_out = np.zeros((m, 3), dtype=np.float32)
    tr_out = np.ones(m, dtype=np.float32)

    live = np.arange(m)
    o, d = o.copy(), d.copy()
    t_base, t_far = t_base.copy(), t_far.copy()
    cur, hi = cur.copy(), hi.copy()
    tr = np.ones(m, dtype=np.float32)
    col = np.zeros((m, 3), dtype=np.float32)
    k = np.maximum(0.0, np.floor((seg_t0[cur] - t_base) / dt))
    t_end = np.minimum(seg_t1[cur] + 0.5 * dt, t_far)

    for _ in range(raycast.MAX_STEPS):
        if live.size == 0:
            break
        mid = t_base + (k + 0.5) * dt
        adv = mid >= t_end
        while adv.any():
            ai = np.nonzero(adv)[0]
            cur[ai] += 1
            more = cur[ai] < hi[ai]
            good = ai[more]
            if good.size:
                k[good] = np.maximum(
                    k[good],
                    np.floor((seg_t0[cur[good]] - t_base[good]) / dt),
                )
                t_end[good] = np.minimum(
                    seg_t1[cur[good]] + 0.5 * dt, t_far[good]
                )
                mid[good] = t_base[good] + (k[good] + 0.5) * dt
            t_end[ai[~more]] = -np.inf
            adv = np.zeros_like(adv)
            adv[good] = mid[good] >= t_end[good]
        keep = (tr > cutoff) & (mid < t_end)
        if not keep.all():
            dead = np.nonzero(~keep)[0]
            col_out[live[dead]] = col[dead]
            tr_out[live[dead]] = tr[dead]
            kept = np.nonzero(keep)[0]
            live = live[kept]
            o, d = o[kept], d[kept]
            t_base, t_far = t_base[kept], t_far[kept]
            cur, hi = cur[kept], hi[kept]
            k, t_end, mid = k[kept], t_end[kept], mid[kept]
            tr, col = tr[kept], col[kept]
            if live.size == 0:
                break
        pos = o + mid[:, None] * d
        vals = self.volume.sample(pos)
        sample_rgb, sigma = reference_transfer(self.transfer, vals)
        if self.settings.shaded:
            lit = sigma > 1e-6
            if lit.any():
                grads = self.volume.gradient(pos[lit])
                sample_rgb[lit] = reference_shade(
                    sample_rgb[lit], grads, d[lit])
        a = 1.0 - np.exp(-sigma * dt)
        w = (tr * a).astype(np.float32)
        col += w[:, None] * sample_rgb
        tr *= (1.0 - a).astype(np.float32)
        k += 1.0
        stats.steps += int(live.size)

    if live.size:
        col_out[live] = col
        tr_out[live] = tr
    return col_out, tr_out
