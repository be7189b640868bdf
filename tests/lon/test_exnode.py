"""Tests for exNode structure and coverage queries."""

import pytest

from repro.lon.exnode import ExNode, ExNodeError, Extent, Mapping
from repro.lon.ibp import Capability, CapType


def cap(depot, key, t=CapType.READ):
    return Capability(depot, key, t)


def mapping(depot, key, offset, length, full=False):
    return Mapping(
        extent=Extent(offset, length),
        read_cap=cap(depot, key, CapType.READ),
        write_cap=cap(depot, key, CapType.WRITE) if full else None,
        manage_cap=cap(depot, key, CapType.MANAGE) if full else None,
    )


class TestExtent:
    def test_end(self):
        assert Extent(10, 5).end == 15

    def test_rejects_bad_values(self):
        with pytest.raises(ExNodeError):
            Extent(-1, 10)
        with pytest.raises(ExNodeError):
            Extent(0, 0)


class TestMappingValidation:
    def test_read_cap_must_be_read(self):
        with pytest.raises(ExNodeError):
            Mapping(extent=Extent(0, 1), read_cap=cap("d", "k", CapType.WRITE))

    def test_write_cap_must_be_write(self):
        with pytest.raises(ExNodeError):
            Mapping(
                extent=Extent(0, 1),
                read_cap=cap("d", "k"),
                write_cap=cap("d", "k", CapType.READ),
            )

    def test_depot_property(self):
        assert mapping("dep7", "k", 0, 4).depot == "dep7"


class TestExNodeStructure:
    def test_mapping_beyond_length_rejected(self):
        with pytest.raises(ExNodeError):
            ExNode("f", 10, [mapping("d", "k", 5, 10)])

    def test_negative_length_rejected(self):
        with pytest.raises(ExNodeError):
            ExNode("f", -1)

    def test_full_coverage_single(self):
        ex = ExNode("f", 10, [mapping("d", "k", 0, 10)])
        assert ex.is_fully_covered()

    def test_coverage_hole_detected(self):
        ex = ExNode("f", 10, [mapping("d", "k1", 0, 4), mapping("d", "k2", 6, 4)])
        assert not ex.is_fully_covered()

    def test_striped_coverage(self):
        ex = ExNode(
            "f",
            12,
            [
                mapping("d1", "k1", 0, 4),
                mapping("d2", "k2", 4, 4),
                mapping("d3", "k3", 8, 4),
            ],
        )
        assert ex.is_fully_covered()
        assert ex.depots() == ("d1", "d2", "d3")

    def test_zero_length_always_covered(self):
        assert ExNode("empty", 0).is_fully_covered()

    def test_tail_hole_detected(self):
        ex = ExNode("f", 10, [mapping("d", "k", 0, 8)])
        assert not ex.is_fully_covered()

    def test_read_only_view_strips_caps(self):
        ex = ExNode("f", 8, [mapping("d1", "k1", 0, 8, full=True)])
        ro = ex.read_only_view()
        assert ro.mappings[0].write_cap is None
        assert ro.mappings[0].manage_cap is None
        assert ro.mappings[0].read_cap == ex.mappings[0].read_cap
