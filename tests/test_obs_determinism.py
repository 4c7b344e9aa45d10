"""Instrumentation is a no-op: obs on/off and any worker count agree.

The observability layer's hard contract: it observes, it never steers.
``validate()`` must produce byte-identical reports with obs enabled or
disabled, serial or process-pool, and the metric *totals* (counters,
data-derived histograms) must be identical for workers ∈ {1, 2, 4}
because counter merges commute and histograms pool before summarising.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import validate
from repro.io import load_dataset
from repro.obs import ObsContext, read_trace, write_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"

#: Counters whose totals must not depend on obs mode or worker count.
DATA_COUNTERS = [
    "extract.visits_total",
    "matching.honest_total",
    "matching.extraneous_total",
    "matching.missing_total",
    "matching.rounds_total",
    "classify.remote_total",
    "classify.driveby_total",
    "classify.superfluous_total",
    "classify.other_total",
]


def golden():
    return load_dataset(GOLDEN_DIR)


def fingerprint(report):
    """Everything observable about a report, as bytes-comparable data."""
    return {
        "user_order": list(report.matching.per_user),
        "pairs": {
            user_id: [(c.checkin_id, v.visit_id) for c, v in m.matches]
            for user_id, m in report.matching.per_user.items()
        },
        "labels": {
            cid: label.value for cid, label in report.classification.labels.items()
        },
        "summary": report.summary(),
    }


class TestObsIsANoOp:
    @pytest.fixture(scope="class")
    def baseline(self):
        """Obs disabled, serial: the reference output."""
        return fingerprint(validate(golden()))

    def test_obs_on_is_byte_identical_serial(self, baseline):
        report = validate(golden(), obs=ObsContext())
        assert fingerprint(report) == baseline

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_obs_on_is_byte_identical_parallel(self, baseline, workers):
        report = validate(golden(), workers=workers, obs=ObsContext())
        assert fingerprint(report) == baseline

    @pytest.mark.parametrize("workers", [2, 4])
    def test_obs_off_parallel_matches(self, baseline, workers):
        report = validate(golden(), workers=workers)
        assert fingerprint(report) == baseline


@pytest.mark.parametrize(
    "mode", ["no-obs", "obs", "obs-telemetry", "obs-profile"]
)
def test_observation_never_steers(mode, tmp_path):
    """The golden summary is the same with no obs, plain obs, obs under a
    running telemetry sampler (the ``--telemetry`` wiring), and
    ``--profile``; it also matches the committed expected summary."""
    from repro.obs import TelemetrySampler, read_status, registry_collector

    expected = json.loads(
        (GOLDEN_DIR / "expected.json").read_text(encoding="utf-8")
    )["summary"]
    dataset = golden()
    if mode == "no-obs":
        report = validate(dataset)
    elif mode == "obs":
        report = validate(dataset, obs=ObsContext())
    elif mode == "obs-telemetry":
        ctx = ObsContext()
        with TelemetrySampler(
            collectors=[registry_collector(ctx.metrics)],
            interval_s=0.01,
            status_path=tmp_path,
            command="validate",
        ):
            report = validate(dataset, obs=ctx)
        status = read_status(tmp_path)
        assert status["finished"]
        assert status["metrics"]["counters"]["pipeline.runs_total"] == 1
    else:
        report = validate(dataset, obs=ObsContext(profile=True))
    assert report.summary() == expected


class TestMetricDeterminism:
    def run_with_obs(self, workers):
        ctx = ObsContext()
        validate(golden(), workers=workers, obs=ctx)
        return ctx

    @pytest.fixture(scope="class")
    def contexts(self):
        return {workers: self.run_with_obs(workers) for workers in (1, 2, 4)}

    def test_counters_identical_across_worker_counts(self, contexts):
        snapshots = {
            workers: ctx.metrics.snapshot()["counters"]
            for workers, ctx in contexts.items()
        }
        for name in DATA_COUNTERS:
            values = {workers: snap.get(name) for workers, snap in snapshots.items()}
            assert len(set(values.values())) == 1, f"{name} diverged: {values}"

    def test_data_histograms_identical_across_worker_counts(self, contexts):
        summaries = {
            workers: ctx.metrics.snapshot()["histograms"]["matching.rounds_per_user"]
            for workers, ctx in contexts.items()
        }
        assert summaries[1] == summaries[2] == summaries[4]

    def test_counters_match_report(self, contexts):
        report = validate(golden())
        counters = contexts[2].metrics.snapshot()["counters"]
        assert counters["matching.honest_total"] == report.n_honest
        assert counters["matching.extraneous_total"] == report.n_extraneous
        assert counters["matching.missing_total"] == report.n_missing

    def test_span_stream_structure(self, contexts):
        ctx = contexts[2]
        # Root span exists exactly once; every stage span is its child.
        roots = ctx.spans_named("pipeline.validate")
        assert len(roots) == 1
        stage_names = {"stage.extract", "stage.match", "stage.classify"}
        stages = [s for s in ctx.spans if s.name in stage_names]
        assert {s.name for s in stages} == stage_names
        assert all(s.parent_id == roots[0].span_id for s in stages)
        # Every shard.run span hangs off a stage span.
        stage_ids = {s.span_id for s in stages}
        shard_spans = ctx.spans_named("shard.run")
        assert shard_spans and all(s.parent_id in stage_ids for s in shard_spans)

    def test_trace_export_parses(self, contexts, tmp_path):
        path = write_trace(tmp_path / "golden.jsonl", contexts[4])
        records = read_trace(path)
        assert any(r["type"] == "span" and r["name"] == "pipeline.validate"
                   for r in records)
        counters = {r["name"]: r["value"] for r in records
                    if r["type"] == "metric" and r["kind"] == "counter"}
        expected = json.loads((GOLDEN_DIR / "expected.json").read_text())
        assert counters["matching.honest_total"] == expected["venn"]["honest"]
