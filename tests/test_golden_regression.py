"""Golden regression fixture: frozen matching semantics.

The committed dataset under ``tests/data/golden_study/`` is a tiny
seeded synthetic study stored raw (no extracted visits); its expected
Figure-1 Venn counts and class breakdown live in ``expected.json``.
If any of these tests fail, the pipeline's *semantics* changed — either
fix the regression, or, when the change is intentional, regenerate the
fixture and commit it together with the change::

    PYTHONPATH=src python tests/data/regenerate_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import validate
from repro.io import load_dataset
from repro.model import CheckinType

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"


@pytest.fixture(scope="module")
def expected():
    return json.loads((GOLDEN_DIR / "expected.json").read_text(encoding="utf-8"))


def test_fixture_is_raw():
    # The whole point: extraction must run on load, so visits are not stored.
    assert not (GOLDEN_DIR / "visits.jsonl").exists()


def test_golden_venn_counts(expected):
    report = validate(load_dataset(GOLDEN_DIR))
    assert report.n_honest == expected["venn"]["honest"]
    assert report.n_extraneous == expected["venn"]["extraneous"]
    assert report.n_missing == expected["venn"]["missing"]
    assert report.matching.n_checkins == expected["n_checkins"]
    assert report.matching.n_visits == expected["n_visits"]


def test_golden_class_breakdown_and_summary(expected):
    report = validate(load_dataset(GOLDEN_DIR))
    counts = report.type_counts()
    assert {kind.value: counts[kind] for kind in CheckinType} == expected["type_counts"]
    assert report.summary() == expected["summary"]


def test_golden_parallel_matches_fixture(expected):
    # The runtime determinism guarantee, anchored to committed data.
    report = validate(load_dataset(GOLDEN_DIR), workers=2)
    assert report.n_honest == expected["venn"]["honest"]
    assert report.n_extraneous == expected["venn"]["extraneous"]
    assert report.n_missing == expected["venn"]["missing"]
    assert report.summary() == expected["summary"]


def test_committed_reference_manifest_matches_fresh_run():
    # A fresh golden run must diff clean against the committed reference
    # manifest (the anchor `repro-study diff` CI auditing compares to);
    # stale references would mask — or falsely flag — semantic drift.
    from repro.obs import ObsContext, RunManifest, diff_manifests

    reference = RunManifest.load(GOLDEN_DIR / "reference.manifest.json")
    ctx = ObsContext()
    validate(load_dataset(GOLDEN_DIR), workers=2, obs=ctx)
    for name, value in ctx.metrics.snapshot()["counters"].items():
        assert reference.counter(name) == value or name.startswith("runtime."), (
            f"counter {name} drifted from the committed reference; "
            "regenerate via tests/data/regenerate_golden.py if intentional"
        )
    assert reference.scorecard["status"] == "pass"
    # The committed scorecard is what today's registry makes of the
    # reference's own statistics: a check added to the registry later
    # must be added to the reference too.
    from repro.obs.fidelity import scorecard_for_manifest

    rescored = json.loads(scorecard_for_manifest(reference).to_json())
    assert rescored == reference.scorecard, (
        "committed scorecard is stale; regenerate via "
        "tests/data/regenerate_golden.py"
    )
    # Self-diff sanity: the reference never regresses against itself.
    assert not diff_manifests(reference, reference).has_regressions
