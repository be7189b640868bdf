"""Integration tests: database build, persistence, and synthesis fidelity.

The decisive check is `test_synthesis_matches_ray_casting`: a novel view
synthesized purely from view-set lookups must approximate the ground-truth
ray-cast rendering of the same camera — the "direct metric of correctness"
the paper claims for light fields.
"""

import numpy as np
import pytest

from repro.lightfield.build import LightFieldBuilder
from repro.lightfield.database import DatabaseError, LightFieldDatabase
from repro.lightfield.lattice import CameraLattice
from repro.lightfield.synthesis import DictProvider, LightFieldSynthesizer
from repro.render.camera import Camera, orbit_camera
from repro.render.image import rmse
from repro.render.raycast import RaycastRenderer, RenderSettings
from repro.volume.synthetic import neg_hip
from repro.volume.transfer import preset

from .reference_synthesis import required_viewsets, view_for_camera


@pytest.fixture(scope="module")
def scene():
    vol = neg_hip(size=32)
    tf = preset("neghip")
    return vol, tf


@pytest.fixture(scope="module")
def built(scene):
    """A coarse but complete database: 12x24 lattice (15-degree spacing)."""
    vol, tf = scene
    lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
    builder = LightFieldBuilder(
        vol, tf, lattice, resolution=48, workers=1,
        settings=RenderSettings(shaded=False),
    )
    db = builder.build()
    return builder, db


class TestBuild:
    def test_complete_database(self, built):
        _, db = built
        assert db.is_complete()
        assert len(db) == 4 * 8

    def test_stats_accumulate(self, built):
        builder, db = built
        assert builder.stats.viewsets_built == len(db)
        assert builder.stats.views_rendered == 12 * 24
        assert builder.stats.render_seconds > 0
        assert builder.stats.raw_bytes == db.raw_size()

    def test_compression_achieved(self, built):
        _, db = built
        # rendered views are smooth; zlib should do well
        assert db.compression_ratio() > 2.0

    def test_subset_build(self, scene):
        vol, tf = scene
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        builder = LightFieldBuilder(
            vol, tf, lattice, resolution=16, workers=1,
            settings=RenderSettings(shaded=False),
        )
        db = builder.build(keys=[(0, 0), (1, 1)])
        assert len(db) == 2
        assert not db.is_complete()
        assert (0, 0) in db and (1, 1) in db and (0, 1) not in db

    def test_viewset_payload_roundtrip(self, built):
        _, db = built
        key = next(iter(db.keys()))
        vs = db.get_viewset(key)
        assert vs.key == key
        assert vs.resolution == db.resolution

    def test_missing_key_raises(self, built):
        _, db = built
        with pytest.raises(DatabaseError):
            # lattice is 4x8 viewsets; key (3, 7) exists, so fabricate a
            # database lookup for a never-built subset
            empty = LightFieldDatabase(db.lattice, db.spheres, db.resolution)
            empty.payload((0, 0))

    def test_default_spheres_enclose_volume(self, scene):
        vol, tf = scene
        lattice = CameraLattice(n_theta=6, n_phi=12, l=3)
        builder = LightFieldBuilder(vol, tf, lattice, resolution=8)
        assert builder.spheres.r_inner >= vol.bounding_radius
        assert builder.spheres.r_outer > builder.spheres.r_inner


class TestWrappedKeys:
    """A column out of range names the view set it wraps to, and the
    rendered view set says so."""

    @pytest.fixture(scope="class")
    def builder(self, scene):
        vol, tf = scene
        # 2 x 4 view sets: column 7 and column -1 both wrap to column 3
        return LightFieldBuilder(
            vol, tf, CameraLattice(n_theta=4, n_phi=8, l=2), resolution=8)

    @pytest.mark.parametrize("key", [(0, 7), (0, -1)])
    def test_render_viewset_labels_the_wrapped_key(self, builder, key):
        vs = builder.render_viewset(key)
        assert vs.key == (0, 3)
        assert np.array_equal(vs.images, builder.render_viewset((0, 3)).images)

    @pytest.mark.parametrize("key", [(0, 7), (0, -1)])
    def test_synthesizer_takes_the_wrapped_render(self, builder, key):
        spheres = builder.spheres
        synth = LightFieldSynthesizer(
            builder.lattice, spheres, builder.resolution,
            DictProvider({(0, 3): builder.render_viewset(key)}))
        theta, phi = builder.lattice.viewset_center((0, 3))
        result = synth.render(orbit_camera(
            theta, phi, radius=1.02 * spheres.r_outer, resolution=8,
            fov_deg=spheres.camera_fov_deg()))
        assert result.coverage > 0
        assert (0, 3) not in result.missing_keys


class TestPersistence:
    def test_save_load_roundtrip(self, built, tmp_path):
        _, db = built
        db.save(tmp_path / "lfd")
        back = LightFieldDatabase.load(tmp_path / "lfd")
        assert len(back) == len(db)
        assert back.resolution == db.resolution
        assert back.lattice == db.lattice
        key = next(iter(db.keys()))
        assert back.payload(key) == db.payload(key)
        assert back.raw_size() == db.raw_size()

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(DatabaseError):
            LightFieldDatabase.load(tmp_path / "nope")

    def test_load_detects_missing_files(self, built, tmp_path):
        _, db = built
        d = tmp_path / "lfd2"
        db.save(d)
        victim = next(d.glob("vs-*.lfvs"))
        victim.unlink()
        with pytest.raises(DatabaseError):
            LightFieldDatabase.load(d)


class TestSynthesis:
    def make_synth(self, db, provider=None):
        if provider is None:
            provider = DictProvider(
                {key: db.get_viewset(key) for key in db.keys()}
            )
        return LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, provider
        )

    def novel_camera(self, db, res=40, dth=0.03, dph=0.05):
        theta, phi = db.lattice.viewset_center((2, 3))
        return orbit_camera(
            theta + dth, phi + dph,
            radius=db.spheres.r_outer * 2.0,
            resolution=res,
            fov_deg=db.spheres.camera_fov_deg() * 0.6,
        )

    def test_synthesis_matches_ray_casting(self, scene, built):
        """Novel-view synthesis approximates ground truth (the headline)."""
        vol, tf = scene
        _, db = built
        synth = self.make_synth(db)
        cam = self.novel_camera(db)
        result = synth.render(cam)
        truth = RaycastRenderer(
            vol, tf, RenderSettings(shaded=False)
        ).render(cam)
        err = rmse(result.image, truth)
        assert result.coverage > 0.95
        # coarse lattice + 48px sample views: interpolation blur expected,
        # but images must clearly agree
        assert err < 0.08, f"synthesis rmse too high: {err}"

    def test_full_residency_has_no_missing_keys(self, built):
        _, db = built
        synth = self.make_synth(db)
        result = synth.render(self.novel_camera(db))
        assert result.missing_keys == set()

    def test_missing_viewsets_reported_and_degrade(self, built):
        _, db = built
        resident = {key: db.get_viewset(key) for key in db.keys()}
        cam = self.novel_camera(db)
        full = self.make_synth(db).render(cam)
        # drop the view set under the camera
        theta, phi = db.lattice.viewset_center((2, 3))
        del resident[(2, 3)]
        partial = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, DictProvider(resident)
        ).render(cam)
        assert (2, 3) in partial.missing_keys
        assert partial.coverage < full.coverage

    def test_empty_provider_gives_background(self, built):
        _, db = built
        synth = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, DictProvider({}),
            background=0.5,
        )
        result = synth.render(self.novel_camera(db))
        np.testing.assert_allclose(result.image, 0.5, atol=1e-6)
        assert result.missing_keys  # it knows what it wanted

    def test_rays_missing_volume_get_background(self, built):
        _, db = built
        synth = self.make_synth(db)
        # camera looking away from the origin: all rays invalid
        cam = Camera(
            eye=np.array([0.0, 0.0, db.spheres.r_outer * 2]),
            target=np.array([0.0, 0.0, db.spheres.r_outer * 4]),
            up=np.array([0.0, 1.0, 0.0]),
            fov_deg=30.0, width=8, height=8,
        )
        result = synth.render(cam)
        np.testing.assert_allclose(result.image, 0.0, atol=1e-6)

    def test_required_viewsets_cover_render(self, built):
        _, db = built
        synth = self.make_synth(db)
        cam = self.novel_camera(db)
        o, d = cam.rays()
        required = required_viewsets(synth, o, d)
        assert required, "a volume-facing camera needs at least one view set"
        # rendering with exactly these resident must yield no missing keys
        provider = DictProvider(
            {key: db.get_viewset(key) for key in required}
        )
        synth2 = LightFieldSynthesizer(
            db.lattice, db.spheres, db.resolution, provider
        )
        assert synth2.render(cam).missing_keys == set()

    def test_synthesis_deterministic(self, built):
        _, db = built
        synth = self.make_synth(db)
        cam = self.novel_camera(db)
        a = synth.render(cam).image
        b = synth.render(cam).image
        np.testing.assert_array_equal(a, b)

    def test_view_from_lattice_camera_reproduces_sample(self, scene, built):
        """Synthesizing from exactly a lattice camera's pose recovers the
        stored sample view (lookup hits the stored pixels)."""
        vol, tf = scene
        _, db = built
        synth = self.make_synth(db)
        i, j = 7, 11  # interior camera
        theta, phi = db.lattice.angles(i, j)
        cam = orbit_camera(
            theta, phi, radius=db.spheres.r_outer,
            resolution=db.resolution,
            fov_deg=db.spheres.camera_fov_deg(),
        )
        # move the eye slightly outside the outer sphere so rays enter it
        cam = orbit_camera(
            theta, phi, radius=db.spheres.r_outer * 1.001,
            resolution=db.resolution,
            fov_deg=db.spheres.camera_fov_deg() / 1.001,
        )
        result = synth.render(cam)
        stored = view_for_camera(
            db.get_viewset(db.lattice.viewset_of(i, j)), i, j
        ).astype(np.float32) / 255.0
        err = rmse(result.image, stored)
        assert err < 0.06, f"lattice-pose synthesis rmse {err}"
