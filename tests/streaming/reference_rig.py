"""Test-side fixtures that reach into a streaming rig.

The program never drops a view set from the DVS or lists a console's
residency; tests do both, to check how a view set the DVS lacks fails and
to compare what landed.
"""

from repro.streaming.client import Client
from repro.streaming.dvs import DVSServer


def forget(dvs: DVSServer, vid: str) -> int:
    """Remove every exNode for a view set; returns count removed."""
    table = dvs._exnode_tables.get(dvs._leaf_path(vid), {})
    return len(table.pop(vid, []))


def resident_keys(client: Client) -> list:
    """View sets currently held on the console, least recent first."""
    return list(client._resident)
