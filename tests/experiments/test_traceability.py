"""Every Section-4 result is a sweep spec, and only a sweep spec.

DESIGN §4 indexes the paper's figures and text claims; each must name the
builtin spec that regenerates it and a claim that checks it, every claim
must serve a §4 row, every builtin spec must resolve to real callables,
and no benchmark may run sessions on its own beside the engine.
"""

import ast
import re
from pathlib import Path

from repro.experiments.claims import CLAIMS
from repro.experiments.spec import SCENARIO_KEY, builtin_specs, resolve_dotted

REPO_ROOT = Path(__file__).resolve().parents[2]

#: what a benchmark would need to run sessions beside the engine (the
#: per-figure driver module and its memoizing suite class are deleted,
#: so importing those fails on its own)
FORBIDDEN = {"run_session", "SessionConfig"}


def _experiment_index():
    """``(exp id, last column)`` of every row of DESIGN §4's table."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("## 4. Experiment index", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|")
            for line in section.splitlines() if line.startswith("| ")]
    assert rows[0][0].strip() == "Exp id"
    return [(cells[0].strip(), cells[-1]) for cells in rows[1:]]


def test_every_experiment_names_a_builtin_spec():
    specs = set(builtin_specs())
    index = _experiment_index()
    assert len(index) >= 14    # Fig 7-12, text, ablations, sched, obs, scale
    for exp_id, target in index:
        named = set(re.findall(r"`([a-z_]+)`", target)) & specs
        assert named, f"DESIGN §4 row {exp_id!r} names no builtin spec"


def test_every_experiment_names_a_claim():
    ids = {claim.id for claims in CLAIMS.values() for claim in claims}
    for exp_id, target in _experiment_index():
        named = set(re.findall(r"`([a-z0-9_.]+)`", target)) & ids
        assert named, f"DESIGN §4 row {exp_id!r} names no claim id"


def test_every_claim_serves_an_experiment():
    rows = {exp_id for exp_id, _ in _experiment_index()}
    stray = [claim.id for claims in CLAIMS.values() for claim in claims
             if claim.row not in rows]
    assert stray == []


def test_every_builtin_spec_resolves():
    for spec in builtin_specs().values():
        scenarios = {spec.scenario} | {
            str(p[SCENARIO_KEY]) for p in (spec.points or [])
            if SCENARIO_KEY in p}
        for dotted in scenarios - {""}:
            assert callable(resolve_dotted(dotted)), (spec.name, dotted)
        if spec.assemble:
            assert callable(resolve_dotted(spec.assemble)), spec.name
        assert spec.expand(), spec.name


def test_benchmarks_run_sessions_only_through_the_engine():
    offenders = []
    for path in sorted((REPO_ROOT / "benchmarks").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                for bad in sorted(names & FORBIDDEN):
                    offenders.append(f"{path.name} imports {bad}")
    assert offenders == []
