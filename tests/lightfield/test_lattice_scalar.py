"""The lattice's scalar cursor path against its array routine and its oracle.

``CameraLattice`` has two index routines: ``continuous_index`` (numpy, one
call per ray bundle) and ``scalar_index`` (builtin floats, one call per
cursor sample).  They perform the same IEEE operations in the same order, so
every result is bit-equal; these tests are what holds that, and what holds
the public scalar methods to the numpy bodies they replaced
(``reference_lattice.py``).
"""

import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lightfield.lattice import CameraLattice

from . import reference_lattice as ref

LATTICES = [
    CameraLattice(12, 24, 2),
    CameraLattice(18, 36, 3),
    CameraLattice(24, 48, 6),
    CameraLattice(72, 144, 6),
]
SCALAR_TYPES = [float, np.float64]

thetas = st.floats(-0.5, math.pi + 0.5)
phis = st.floats(-4 * math.pi, 4 * math.pi)


def _is_ints(values) -> bool:
    return all(type(v) is int for v in values)


def assert_matches_everywhere(lat: CameraLattice, theta, phi) -> None:
    """Scalar index ≡ array index (float.hex); public methods ≡ oracle."""
    fi, fj, i, j = lat.scalar_index(theta, phi)
    afi, afj = lat.continuous_index(np.array(theta), np.array(phi))
    assert float(fi).hex() == float(afi).hex()
    assert float(fj).hex() == float(afj).hex()

    camera = lat.scalar_index(theta, phi)[2:]
    assert camera == (i, j) == ref.nearest_camera(lat, theta, phi)
    key = lat.viewset_containing(theta, phi)
    assert key == ref.viewset_containing(lat, theta, phi)
    quadrant = lat.locate(theta, phi)[1]
    assert quadrant == ref.quadrant(lat, theta, phi)
    side = lat.quadrant_side(*lat.locate(theta, phi))
    assert side == ref.quadrant_neighbors(lat, theta, phi)
    located = lat.locate(theta, phi)
    assert located == (key, quadrant) == ref.locate(lat, theta, phi)
    assert lat.quadrant_side(key, quadrant) == side

    assert _is_ints(camera) and _is_ints(key) and _is_ints(quadrant)
    assert all(_is_ints(k) for k in side)
    assert _is_ints(located[0]) and _is_ints(located[1])


def _angles_hitting(step: float, target: float, offset: float):
    """Angles whose ``angle / step - offset`` is exactly ``target``."""
    guess = (target + offset) * step
    out = []
    for angle in (guess, math.nextafter(guess, -math.inf),
                  math.nextafter(guess, math.inf)):
        if angle / step - offset == target:
            out.append(angle)
    return out


@pytest.mark.parametrize("scalar", SCALAR_TYPES)
@pytest.mark.parametrize("lat", LATTICES, ids=repr)
class TestScalarAgainstArrayAndOracle:
    @settings(max_examples=150, deadline=None)
    @given(theta=thetas, phi=phis)
    def test_random_angles(self, lat, scalar, theta, phi):
        assert_matches_everywhere(lat, scalar(theta), scalar(phi))

    def test_poles_and_beyond(self, lat, scalar):
        for theta in (0.0, -0.0, math.pi, -0.5, math.pi + 0.5,
                      0.5 * lat.theta_step, math.pi - 0.5 * lat.theta_step):
            for phi in (0.0, 1.0, 6.0):
                assert_matches_everywhere(lat, scalar(theta), scalar(phi))

    def test_phi_zero_and_full_turns(self, lat, scalar):
        tiny = 5e-324
        for phi in (0.0, -0.0, tiny, -tiny, 2 * math.pi, -2 * math.pi,
                    4 * math.pi, -4 * math.pi,
                    math.nextafter(2 * math.pi, 0.0),
                    math.nextafter(2 * math.pi, 7.0)):
            assert_matches_everywhere(lat, scalar(1.0), scalar(phi))

    def test_seam_sliver(self, lat, scalar):
        """Half a camera step left of the phi seam (the known defect)."""
        theta = scalar(math.pi / 2 + 0.01)
        for frac in (0.01, 0.1, 0.3, 0.49, 0.5, 0.51, 0.99):
            for turn in (-1, 0, 1):
                phi = (turn * lat.n_phi - frac) * lat.phi_step
                assert_matches_everywhere(lat, theta, scalar(phi))
                assert_matches_everywhere(
                    lat, theta, scalar(phi % (2 * math.pi)))

    def test_every_half_integer_row(self, lat, scalar):
        """fi = k + 0.5 is a banker's-rounding tie: round ≡ np.rint."""
        exact = 0
        for k in range(lat.n_theta - 1):
            for theta in _angles_hitting(lat.theta_step, k + 0.5, 0.5):
                exact += 1
                assert lat.scalar_index(theta, 1.0)[0] == k + 0.5
                assert lat.scalar_index(theta, 1.0)[2] == k + k % 2
                assert_matches_everywhere(lat, scalar(theta), scalar(1.0))
        assert exact >= lat.n_theta - 1

    def test_every_half_integer_column(self, lat, scalar):
        exact = 0
        for k in range(lat.n_phi):
            for phi in _angles_hitting(lat.phi_step, k + 0.5, 0.0):
                exact += 1
                assert lat.scalar_index(1.0, phi)[1] == k + 0.5
                assert lat.scalar_index(1.0, phi)[3] == (
                    (k + k % 2) % lat.n_phi)
                assert_matches_everywhere(lat, scalar(1.0), scalar(phi))
                assert_matches_everywhere(
                    lat, scalar(1.0), scalar(phi - 2 * math.pi))
        assert exact >= lat.n_phi

    def test_exactly_on_a_viewset_half(self, lat, scalar):
        """local == (l - 1) / 2 belongs to the upper / left quadrant."""
        half = (lat.l - 1) / 2.0
        rows, cols = lat.n_viewsets
        exact = 0
        for vi in range(rows):
            for theta in _angles_hitting(
                    lat.theta_step, vi * lat.l + half, 0.5):
                exact += 1
                assert_matches_everywhere(lat, scalar(theta), scalar(1.0))
        for vj in range(cols):
            for phi in _angles_hitting(lat.phi_step, vj * lat.l + half, 0.0):
                exact += 1
                assert_matches_everywhere(lat, scalar(1.0), scalar(phi))
        assert exact >= rows + cols


class TestViewsetDistance:
    # math.hypot is NOT np.hypot: on the host this was written on, 408 of
    # the 90 000 integer pairs 0 <= di, dj < 300 differ in the last bit
    # ((17, 27) is one), and viewset_distance is a sort key with ties
    # (StagingPump's order, ClientAgent's cancel radius).  The table is
    # filled by np.hypot and every entry is held to the scalar call it
    # replaced; do not "simplify" either side to math.hypot.
    @pytest.mark.parametrize("lat", [CameraLattice(72, 144, 6),
                                     CameraLattice(72, 144, 2)], ids=repr)
    def test_every_pair_equals_scalar_np_hypot(self, lat):
        rows, cols = lat.n_viewsets
        # one scalar np.hypot call per table entry, as the old body made
        table = np.array([[float(np.hypot(di, dj))
                           for dj in range(cols // 2 + 1)]
                          for di in range(rows)])
        keys = list(lat.all_viewsets())
        bi, bj = np.array(keys).T
        for a in keys:
            dj = np.abs(a[1] - bj)
            expected = table[np.abs(a[0] - bi), np.minimum(dj, cols - dj)]
            got = list(map(lat.viewset_distance, repeat(a), keys))
            assert got == expected.tolist()

    def test_matches_the_oracle_with_unwrapped_columns(self):
        lat = CameraLattice(24, 48, 6)
        rows, cols = lat.n_viewsets
        for a in lat.all_viewsets():
            for bi in range(rows):
                for bj in range(-cols, 2 * cols):
                    assert type(lat.viewset_distance(a, (bi, bj))) is float
                    assert lat.viewset_distance(a, (bi, bj)) == (
                        ref.viewset_distance(lat, a, (bi, bj)))
                    assert lat.viewset_distance((bi, bj), a) == (
                        ref.viewset_distance(lat, (bi, bj), a))

    def test_row_out_of_range(self):
        lat = CameraLattice(24, 48, 6)
        with pytest.raises(IndexError):
            lat.viewset_distance((4, 0), (0, 0))
        with pytest.raises(IndexError):
            lat.viewset_distance((0, 0), (-1, 0))


class TestDerivedConstants:
    def test_fields_equality_hash_and_repr_ignore_them(self):
        a, b = CameraLattice(24, 48, 6), CameraLattice(24, 48, 6)
        a.viewset_distance((0, 0), (1, 1))
        a.locate(1.0, 1.0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "CameraLattice(n_theta=24, n_phi=48, l=6)"

    def test_steps_are_the_numpy_constants(self):
        for lat in LATTICES:
            assert lat.theta_step == np.pi / lat.n_theta
            assert lat.phi_step == 2.0 * np.pi / lat.n_phi
            assert type(lat.theta_step) is float
            assert lat.n_viewsets == (lat.n_theta // lat.l,
                                      lat.n_phi // lat.l)
