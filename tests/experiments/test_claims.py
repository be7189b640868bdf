"""Every paper claim holds on the committed artifact it reads.

A claim is one predicate over a merged ``BENCH_*.json``
(:mod:`repro.experiments.claims`).  These tests evaluate all of them on the
committed default-scale artifacts at the repository root, with no
simulation, and hold EXPERIMENTS.md's generated section to the renderer's
output over the same artifacts.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.experiments.claims import CLAIMS, PAPER, verdicts
from repro.experiments.report import load_bench, report_sections
from repro.experiments.spec import builtin_specs

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the artifacts EXPERIMENTS.md's generated section renders, in its order
GENERATED = ("database_size", "decompression", "latency", "fps", "qgr",
             "generation", "streaming", "observability", "scale", "ablations")


def _holds(name, claim_id, doc):
    (holds,) = [holds for claim, _, holds in verdicts(name, doc)
                if claim.id == claim_id]
    return holds


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_every_claim_holds_on_the_committed_artifact(name):
    doc = load_bench(name, REPO_ROOT)
    assert doc["meta"]["scale"] == "default"
    failed = [(claim.id, measured)
              for claim, measured, holds in verdicts(name, doc) if not holds]
    assert failed == []


def test_a_doctored_artifact_fails_and_names_the_claim(tmp_path):
    doc = load_bench("latency", REPO_ROOT)
    for row in doc["rows"]:
        if row["case"] == "case1" and row["resolution"] == 200:
            row["wan_rate"] = 0.1
    (tmp_path / "BENCH_latency.json").write_text(json.dumps(doc))
    _, failed = report_sections(["latency"], tmp_path)
    assert failed == ["fig9.case1_no_wan"]


def test_the_smoke_branch_reads_the_artifact_not_the_environment(
        monkeypatch):
    doc = load_bench("latency", REPO_ROOT)
    for row in doc["rows"]:
        if row["case"] == "case3" and row["resolution"] == 500:
            row["initial_phase"] = 1      # no longer than at 200²
    monkeypatch.setenv("REPRO_SCALE", "small")
    assert not _holds("latency", "fig11.case3_phase_longer", doc)
    doc["meta"]["scale"] = "small"
    assert _holds("latency", "fig11.case3_phase_longer", doc)


def test_every_artifact_but_the_engine_smoke_has_claims():
    artifacts = {spec.artifact for spec in builtin_specs().values()
                 if spec.artifact}
    assert set(CLAIMS) == artifacts - {"smoke"}


def _weighted_above_blind(doc):
    doc["arms"]["staging+weighted"]["demand_miss_latency_s"] = 0.6


def _contended_vectorized_dead(doc):
    doc["contended"]["vectorized"] = 0


def _fleet_gini_one(doc):
    doc["fleet"]["8/8"]["load_skew_gini"] = 1.0


@pytest.mark.parametrize("name, doctor, claim_ids", [
    ("streaming", _weighted_above_blind,
     ["sched.weighted_beats_blind", "sched.speedups_derived"]),
    ("scale", _contended_vectorized_dead, ["scale.contended_paths_live"]),
    ("observability", _fleet_gini_one, ["obs.fleet_load_skew"]),
])
def test_a_doctored_artifact_fails_by_claim_id(tmp_path, name, doctor,
                                              claim_ids):
    doc = load_bench(name, REPO_ROOT)
    doctor(doc)
    (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(doc))
    assert report_sections([name], tmp_path)[1] == claim_ids


def test_a_viewset_count_off_by_one_viewset_fails():
    doc = load_bench("generation", REPO_ROOT)
    doc["viewset_generation"]["views_rendered"] = 36
    assert not _holds("generation", "gen.views_per_viewset", doc)


def test_a_claim_the_artifact_cannot_answer_does_not_hold():
    doc = load_bench("qgr", REPO_ROOT)
    doc["rows"] = []
    results = verdicts("qgr", doc)
    assert results and not any(holds for _, _, holds in results)
    assert all(str(measured).startswith("error:")
               for _, measured, _ in results)


def test_claim_ids_are_unique():
    ids = [claim.id for claims in CLAIMS.values() for claim in claims]
    assert len(ids) == len(set(ids))


def test_every_paper_number_has_a_reader():
    source = "\n".join(path.read_text()
                       for path in (REPO_ROOT / "src").rglob("*.py"))
    unread = [f.name for f in fields(PAPER)
              if f"PAPER.{f.name}" not in source]
    assert unread == []


def test_experiments_generated_section_is_the_renderers_output():
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    marked = (text.split("<!-- BEGIN GENERATED", 1)[1].split("-->", 1)[1]
              .split("<!-- END GENERATED -->", 1)[0])
    sections, failed = report_sections(GENERATED, REPO_ROOT)
    assert failed == []
    assert len(sections) == len(GENERATED)
    # the report's "## " sections sit one heading level down in the file
    assert marked.strip() == "\n\n".join("#" + s for s in sections)
