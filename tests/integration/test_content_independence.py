"""No session path reads what a payload holds, only how long it is.

The sweeps below run twice at ``REPRO_SCALE=small``: once on the synthetic
payloads and once with every payload swapped for as many zero bytes.  The
rows, the events each queue fires and a traced session's Chrome events must
not change: every simulated figure (transfer times, the decompression
charge, cache budgets) is a function of payload lengths, and a client
inflates a payload only when a synthesizer asks it for pixels.
"""

import hashlib
import io

import pytest

from repro.experiments import run_sweep, spec_named
from repro.lightfield import CameraLattice, SyntheticSource
from repro.lon import EventQueue
from repro.obs import write_chrome_trace
from repro.streaming import SessionConfig, run_session

SPECS = ("smoke", "latency", "scheduling", "scale")


def _zeroed(real):
    """``SyntheticSource.payload`` with each payload's bytes zeroed, made
    once per source and key like the real ones."""
    def payload(self, key):
        made = self.__dict__.setdefault("_zeroed", {})
        if key not in made:
            made[key] = bytes(len(real(self, key)))
        return made[key]
    return payload


def _counting(real, fired):
    def run(self, *args, **kwargs):
        n = real(self, *args, **kwargs)
        fired.append(n)
        return n
    return run


def _observe(zeroed):
    """(rows per spec, events fired per queue run, sha of a traced
    session's Chrome trace file)."""
    fired = []
    with pytest.MonkeyPatch.context() as m:
        m.setenv("REPRO_SCALE", "small")
        if zeroed:
            m.setattr(SyntheticSource, "payload",
                      _zeroed(SyntheticSource.payload))
        for name in ("run", "run_until"):
            m.setattr(EventQueue, name,
                      _counting(getattr(EventQueue, name), fired))
        rows = {name: run_sweep(spec_named(name), write_artifact=False).rows
                for name in SPECS}
        source = SyntheticSource(CameraLattice(9, 18, 3), resolution=32)
        traced = run_session(source, SessionConfig(case=3, n_accesses=8,
                                                   tracing=True))
        trace = io.StringIO()
        write_chrome_trace(traced.tracer, trace)
    return rows, fired, hashlib.sha256(trace.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def runs():
    return _observe(zeroed=False), _observe(zeroed=True)


def test_zeroed_payloads_give_the_same_rows(runs):
    (real, _, _), (zeroed, _, _) = runs
    assert [len(real[name]) for name in SPECS] == [4, 9, 4, 9]
    for name in SPECS:
        assert zeroed[name] == real[name], name


def test_zeroed_payloads_fire_the_same_events(runs):
    (_, real, _), (_, zeroed, _) = runs
    assert sum(real) > 0
    assert zeroed == real


def test_zeroed_payloads_write_the_same_trace(runs):
    (_, _, real), (_, _, zeroed) = runs
    assert zeroed == real
