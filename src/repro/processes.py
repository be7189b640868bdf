"""The start-method decision every worker pool in the package shares."""

import multiprocessing as mp
from typing import Any

__all__ = ["start_context"]


def start_context() -> Any:
    """A ``fork`` context where the platform has one (workers inherit the
    parent's state copy-on-write), else ``spawn`` (state is pickled)."""
    return mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")
