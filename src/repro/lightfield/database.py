"""The light field database (LFD): compressed view sets + size accounting.

"The size of the light field database only depends on the number of sample
views taken and the pixel resolution of each sample view" — this container
tracks exactly those numbers per view set (raw and compressed), which is what
Figure 7 plots, and offers directory persistence so a generated database can
be re-used across experiment runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Union

from .compression import CompressionResult, codec_for_payload
from .lattice import CameraLattice, ViewSetKey, parse_viewset_id
from .sphere import TwoSphere
from .viewset import ViewSet

__all__ = ["LightFieldDatabase", "DatabaseError"]


class DatabaseError(RuntimeError):
    """Missing view sets, corrupt directories, mismatched geometry."""


@dataclass
class _Entry:
    payload: bytes
    raw_size: int


class LightFieldDatabase:
    """Compressed view sets indexed by view-set key.

    Parameters
    ----------
    lattice:
        Camera lattice the view sets were rendered on.
    spheres:
        Two-sphere parameterization used.
    resolution:
        Sample-view resolution r.
    """

    def __init__(
        self,
        lattice: CameraLattice,
        spheres: TwoSphere,
        resolution: int,
        name: str = "lfd",
    ) -> None:
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.lattice = lattice
        self.spheres = spheres
        self.resolution = int(resolution)
        self.name = name
        self._entries: Dict[str, _Entry] = {}

    # ------------------------------------------------------------------
    # content
    # ------------------------------------------------------------------
    def add(self, key: ViewSetKey, result: CompressionResult) -> None:
        """Store a compressed view set under its key."""
        vid = self.lattice.viewset_id(key)
        self._entries[vid] = _Entry(
            payload=result.payload, raw_size=result.raw_size
        )

    def __contains__(self, key: ViewSetKey) -> bool:
        return self.lattice.viewset_id(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterator[ViewSetKey]:
        """All stored view-set keys."""
        return (parse_viewset_id(v) for v in self._entries)

    def payload(self, key: ViewSetKey) -> bytes:
        """The compressed wire payload for a view set."""
        vid = self.lattice.viewset_id(key)
        try:
            return self._entries[vid].payload
        except KeyError:
            raise DatabaseError(f"view set {vid} not in database") from None

    def get_viewset(self, key: ViewSetKey) -> ViewSet:
        """Decompress and return a view set (convenience for tests/examples)."""
        payload = self.payload(key)
        codec = codec_for_payload(payload)
        vs, _ = codec.decompress(payload)
        return vs

    # ------------------------------------------------------------------
    # size accounting (Figure 7's quantities)
    # ------------------------------------------------------------------
    def compressed_size(self) -> int:
        """Compressed bytes of the whole database."""
        return sum(len(e.payload) for e in self._entries.values())

    def raw_size(self) -> int:
        """Uncompressed bytes of the whole database."""
        return sum(e.raw_size for e in self._entries.values())

    def compression_ratio(self) -> float:
        """Aggregate raw/compressed ratio across stored view sets."""
        c = self.compressed_size()
        if c == 0:
            return float("inf")
        return self.raw_size() / c

    def is_complete(self) -> bool:
        """True when every lattice view set is present."""
        rows, cols = self.lattice.n_viewsets
        return len(self._entries) == rows * cols

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Write an index.json plus one ``.lfvs`` file per view set."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        index = {
            "name": self.name,
            "resolution": self.resolution,
            "lattice": {
                "n_theta": self.lattice.n_theta,
                "n_phi": self.lattice.n_phi,
                "l": self.lattice.l,
            },
            "spheres": {
                "r_inner": self.spheres.r_inner,
                "r_outer": self.spheres.r_outer,
            },
            "viewsets": {
                vid: {"raw_size": e.raw_size}
                for vid, e in self._entries.items()
            },
        }
        (d / "index.json").write_text(json.dumps(index, indent=1))
        for vid, e in self._entries.items():
            (d / f"{vid}.lfvs").write_bytes(e.payload)

    @classmethod
    def load(cls, directory: Union[str, Path]) -> LightFieldDatabase:
        """Load a database previously written by :meth:`save`."""
        d = Path(directory)
        try:
            index = json.loads((d / "index.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise DatabaseError(f"cannot read index at {d}: {exc}") from exc
        lattice = CameraLattice(**index["lattice"])
        spheres = TwoSphere(**index["spheres"])
        db = cls(
            lattice, spheres, index["resolution"], index.get("name", "lfd")
        )
        for vid, meta in index["viewsets"].items():
            path = d / f"{vid}.lfvs"
            if not path.exists():
                raise DatabaseError(f"index names {vid} but {path} is missing")
            db._entries[vid] = _Entry(
                payload=path.read_bytes(), raw_size=int(meta["raw_size"])
            )
        return db
