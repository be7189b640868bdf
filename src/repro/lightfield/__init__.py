"""The paper's core contribution: spherical light fields organized into view
sets, with lossless compression, database generation and novel-view
synthesis by 4-D table lookup.
"""

from .build import BuildStats, LightFieldBuilder
from .compression import (
    CodecError,
    CompressionResult,
    DeltaZlibCodec,
    ZlibCodec,
    codec_for_payload,
)
from .database import DatabaseError, LightFieldDatabase
from .lattice import CameraLattice, ViewSetKey, parse_viewset_id
from .source import SyntheticSource, ViewSetSource
from .sphere import TwoSphere, angles_to_cartesian, cartesian_to_angles
from .synthesis import (
    DictProvider,
    LightFieldSynthesizer,
    SynthesisResult,
    SynthesisStats,
    ViewSetProvider,
)
from .viewset import ViewSet, ViewSetFormatError

__all__ = [
    "BuildStats",
    "CameraLattice",
    "CodecError",
    "CompressionResult",
    "DatabaseError",
    "DeltaZlibCodec",
    "DictProvider",
    "LightFieldBuilder",
    "LightFieldDatabase",
    "LightFieldSynthesizer",
    "SynthesisResult",
    "SynthesisStats",
    "SyntheticSource",
    "TwoSphere",
    "ViewSetSource",
    "ViewSet",
    "ViewSetFormatError",
    "ViewSetKey",
    "ViewSetProvider",
    "ZlibCodec",
    "angles_to_cartesian",
    "cartesian_to_angles",
    "codec_for_payload",
    "parse_viewset_id",
]
