"""repro — a reproduction of "Remote Visualization by Browsing Image Based
Databases with Logistical Networking" (Ding, Huang, Beck, Liu, Moore,
Soltesz; SC 2003).

Subpackages
-----------
``repro.volume``
    Volume dataset substrate (grids, synthetic negHip, transfer functions).
``repro.render``
    Ray-casting generator: cameras, compositing, shading, process pools.
``repro.lightfield``
    The core contribution: spherical light fields, view sets, compression,
    database build and novel-view synthesis.
``repro.lon``
    Logistical Networking substrate: IBP depots, exNodes, L-Bone, LoRS over
    a discrete-event network simulator.
``repro.streaming``
    The LoN-Enabled Browser: client/agent/DVS, quadrant prefetching,
    aggressive two-stage staging, and the Cases 1-3 session harness.
``repro.experiments``
    Drivers that regenerate every figure and in-text claim of Section 4.

Quickstart
----------
>>> from repro.volume import neg_hip, preset
>>> from repro.lightfield import CameraLattice, LightFieldBuilder
>>> vol, tf = neg_hip(size=32), preset("neghip")
>>> lattice = CameraLattice(n_theta=12, n_phi=24, l=3)
>>> db = LightFieldBuilder(vol, tf, lattice, resolution=64).build()
>>> db.is_complete()
True
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
