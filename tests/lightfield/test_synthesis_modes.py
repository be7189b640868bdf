"""Tests for synthesizer interpolation modes and the view-set texel store."""

import numpy as np
import pytest

from repro.lightfield import SyntheticSource
from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.lattice import CameraLattice
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.lightfield.viewset import ViewSet
from repro.render.camera import orbit_camera
from repro.render.image import rmse
from repro.render.raycast import RenderSettings
from repro.volume import neg_hip, preset

from .reference_synthesis import required_viewsets


@pytest.fixture(scope="module")
def scene():
    vol = neg_hip(size=24)
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
    builder = LightFieldBuilder(
        vol, preset("neghip"), lattice, resolution=40, workers=1,
        settings=RenderSettings(shaded=False),
    )
    db = builder.build(keys=[(2, 3), (2, 4), (1, 3), (1, 4), (3, 3),
                             (3, 4), (2, 2), (1, 2), (3, 2)])
    provider = DictProvider({k: db.get_viewset(k) for k in db.keys()})
    return db, provider


def camera_for(db, res=32, dth=0.02, dph=0.04):
    theta, phi = db.lattice.viewset_center((2, 3))
    return orbit_camera(
        theta + dth, phi + dph,
        radius=db.spheres.r_outer * 2.0, resolution=res,
        fov_deg=db.spheres.camera_fov_deg() * 0.5,
    )


class TestInterpolationModes:
    @pytest.mark.parametrize("mode", ["quadrilinear", "uv-nearest",
                                      "nearest"])
    def test_all_modes_render_valid_frames(self, scene, mode):
        db, provider = scene
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, provider,
            interpolation=mode,
        )
        result = synth.render(camera_for(db))
        assert result.image.min() >= 0
        assert result.image.max() <= 1
        assert result.coverage > 0.9
        assert result.image.max() > 0.01  # not a blank frame

    def test_modes_agree_closely(self, scene):
        db, provider = scene
        frames = {}
        for mode in ("quadrilinear", "uv-nearest", "nearest"):
            synth = LightFieldSynthesizer(
                db.lattice, db.spheres, db.resolution, provider,
                interpolation=mode,
            )
            frames[mode] = synth.render(camera_for(db)).image
        # a 15-degree lattice makes snapping to one camera visibly blur
        # against the 4-camera blend; they still must broadly agree
        assert rmse(frames["quadrilinear"], frames["uv-nearest"]) < 0.12
        assert rmse(frames["quadrilinear"], frames["nearest"]) < 0.14

    def test_unknown_mode_rejected(self, scene):
        db, provider = scene
        with pytest.raises(ValueError):
            LightFieldSynthesizer(
                db.lattice, db.spheres, db.resolution, provider,
                interpolation="cubic",
            )


class CountingProvider(DictProvider):
    """A DictProvider that records which keys it was asked for."""

    def __init__(self, viewsets):
        super().__init__(viewsets)
        self.asked = []

    def get_resident(self, key):
        self.asked.append(key)
        return super().get_resident(key)


def _missing(synth, prov, cam):
    """The non-resident view sets ``cam``'s corner cameras touch."""
    return {
        k for k in required_viewsets(synth, *cam.rays())
        if prov.get_resident(k) is None
    }


@pytest.mark.parametrize("mode", ["quadrilinear", "uv-nearest", "nearest"])
def test_required_viewsets_are_what_a_frame_asks_for(mode):
    """Prefetch planning and the frame agree on every corner camera.

    Over seeded cameras anywhere on the sphere, near and far, narrow and
    wide, ``required_viewsets`` on the camera's rays names exactly the view
    sets ``render`` asks the provider for.
    """
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
    source = SyntheticSource(lattice, 16)
    prov = CountingProvider(
        {k: source.viewset(k) for k in lattice.all_viewsets()})
    synth = LightFieldSynthesizer(
        lattice, source.spheres, 16, prov, interpolation=mode)
    rng = np.random.default_rng(11)
    for _ in range(30):
        cam = orbit_camera(
            rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi),
            radius=rng.uniform(1.02, 3.0) * source.spheres.r_outer,
            resolution=24,
            fov_deg=rng.uniform(0.3, 1.5) * source.spheres.camera_fov_deg())
        prov.asked.clear()
        synth.render(cam)
        assert prov.asked
        assert sorted(prov.asked) == sorted(
            required_viewsets(synth, *cam.rays()))


class TestAtlasCache:
    """The view-set texel store, seen only through public behaviour."""

    def test_repeat_render_copies_nothing(self, scene):
        db, provider = scene
        prov = CountingProvider(
            {k: ViewSet(k, db.get_viewset(k).images.copy())
             for k in db.keys()}
        )
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov
        )
        cam = camera_for(db)
        first = synth.render(cam).image
        # a frame asks only for the view sets its corner cameras touch
        needed = required_viewsets(synth, *cam.rays())
        assert sorted(prov.asked) == sorted(needed)
        # the store taps the resident view set's own block, so scribbling
        # over that object's pixels is seen by the very next frame, exactly
        # as a fresh synthesizer over the scribbled pixels draws it
        vs = prov.get_resident((2, 3))
        vs.images[:] = 255 - vs.images
        scribbled = synth.render(cam).image
        assert not np.array_equal(scribbled, first)
        fresh = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov
        )
        np.testing.assert_array_equal(scribbled, fresh.render(cam).image)
        # handing over a new object with the old pixels brings them back
        prov.add(ViewSet((2, 3), db.get_viewset((2, 3)).images))
        np.testing.assert_array_equal(synth.render(cam).image, first)

    def test_moving_camera_picks_up_new_viewsets(self, scene):
        db, provider = scene
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, provider
        )
        # far enough apart to need view sets outside the first frame's,
        # then back again: keys are mapped, let go of and mapped again
        path = [camera_for(db, dph=dph) for dph in (0.01, 0.30, -0.25, 0.01)]
        for cam in path:
            fresh = LightFieldSynthesizer(
                db.lattice, db.spheres, db.resolution, provider
            )
            got, want = synth.render(cam), fresh.render(cam)
            np.testing.assert_array_equal(got.image, want.image)
            assert got.coverage == want.coverage
            assert got.missing_keys == want.missing_keys

    def test_invalidate_cache_after_residency_change(self, scene):
        db, provider = scene
        resident = {k: db.get_viewset(k) for k in db.keys()
                    if k != (2, 3)}
        prov = DictProvider(resident)
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov
        )
        cam = camera_for(db)
        r1 = synth.render(cam)
        assert (2, 3) in r1.missing_keys
        # the view set arrives; dropping every mapping is allowed, not needed
        prov.add(db.get_viewset((2, 3)))
        synth.invalidate_cache()
        r2 = synth.render(cam)
        assert (2, 3) not in r2.missing_keys
        assert r2.coverage >= r1.coverage
        synth.invalidate_cache()
        np.testing.assert_array_equal(synth.render(cam).image, r2.image)

    def test_resolution_mismatch_detected(self, scene):
        db, provider = scene
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution + 8, provider
        )
        with pytest.raises(ValueError):
            synth.render(camera_for(db))


class TestResidencyChanges:
    """Regressions: the old camera atlas went stale until invalidated."""

    def test_added_viewset_seen_without_invalidate(self, scene):
        db, provider = scene
        prov = DictProvider({k: db.get_viewset(k) for k in db.keys()
                             if k != (2, 3)})
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov
        )
        cam = camera_for(db)
        before = synth.render(cam)
        assert (2, 3) in before.missing_keys and before.coverage < 0.999
        prov.add(db.get_viewset((2, 3)))
        after = synth.render(cam)
        assert after.missing_keys == _missing(synth, prov, cam)
        assert (2, 3) not in after.missing_keys
        assert after.coverage > before.coverage
        full = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, provider
        ).render(cam)
        np.testing.assert_array_equal(after.image, full.image)

    def test_removed_viewset_seen_without_invalidate(self, scene):
        db, provider = scene
        prov = DictProvider({k: db.get_viewset(k) for k in db.keys()})
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov
        )
        cam = camera_for(db)
        before = synth.render(cam)
        assert (2, 3) not in before.missing_keys
        prov.remove((2, 3))
        after = synth.render(cam)
        assert (2, 3) in after.missing_keys
        assert after.coverage < before.coverage
        fresh = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov
        ).render(cam)
        np.testing.assert_array_equal(after.image, fresh.image)

    def test_missing_keys_are_this_frames_only(self, scene):
        db, provider = scene
        prov = DictProvider({k: db.get_viewset(k) for k in db.keys()
                             if k != (2, 2)})
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, prov,
            interpolation="uv-nearest",
        )
        over_hole = camera_for(db, dph=-0.25)
        elsewhere = camera_for(db, dph=0.30)
        assert (2, 2) in synth.render(over_hole).missing_keys
        # the union atlas kept reporting (2, 2) from the earlier frame
        later = synth.render(elsewhere)
        assert later.missing_keys == _missing(synth, prov, elsewhere)
        assert (2, 2) not in later.missing_keys
