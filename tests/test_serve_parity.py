"""Streaming replay must be byte-identical to batch validation.

The replay-parity tier: the golden fixture fed through the streaming
service event by event must reproduce the batch ``validate()`` run exactly: per-checkin verdicts, missing
visits, summary text, semantic counters, gauges, histograms, dataset
fingerprint, and (through the CLI) the manifest's fidelity scorecard.
The golden fixture's users each span several settlement-horizon gaps,
so these runs genuinely settle chunks mid-stream rather than doing all
the work at finish().
"""

from __future__ import annotations

import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import validate
from repro.io import load_dataset
from repro.obs import ObsContext, RunManifest, activate, dataset_fingerprint
from repro.serve import ServeConfig, ServeStateStore, ValidationService
from repro.synth import replay_events

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"

#: Manifest metrics that describe results (not runtime/serving
#: mechanics); identical between the batch and streaming paths.
SEMANTIC_PREFIXES = ("extract.", "matching.", "classify.", "pipeline.")


def semantic_metrics(metrics):
    counters = {
        name: value
        for name, value in metrics.get("counters", {}).items()
        if name.startswith(SEMANTIC_PREFIXES)
    }
    histograms = {
        name: value
        for name, value in metrics.get("histograms", {}).items()
        if name.startswith(SEMANTIC_PREFIXES)
    }
    return counters, metrics.get("gauges", {}), histograms


# Function-scoped on purpose: validate() annotates the dataset with
# extracted visits in place, and a second batch run over the same object
# would skip extraction (and its counters) entirely.
@pytest.fixture()
def golden():
    return load_dataset(GOLDEN_DIR)


def batch_run(dataset):
    ctx = ObsContext()
    with activate(ctx):
        report = validate(dataset)
    return report, ctx


def serve_run(dataset, **service_kwargs):
    ctx = ObsContext()
    service = ValidationService(
        dataset.pois,
        ServeConfig(),
        name=dataset.name,
        obs=ctx,
        **service_kwargs,
    )
    for event in replay_events(dataset):
        service.ingest(event)
    summary = service.finish()
    return service, summary, ctx


def batch_verdict_view(report):
    """Batch results in the verdict stream's vocabulary."""
    labels = {
        checkin_id: label.value
        for checkin_id, label in report.classification.labels.items()
    }
    missing = {
        user_id: [visit.visit_id for visit in matching.missing]
        for user_id, matching in report.matching.per_user.items()
    }
    return labels, missing


def serve_verdict_view(service):
    labels = {}
    missing = {}
    for user_id, verdicts in service.verdicts.items():
        missing[user_id] = []
        for verdict in verdicts:
            if verdict.kind == "checkin":
                labels[verdict.subject_id] = verdict.label
            else:
                missing[user_id].append(verdict.subject_id)
    return labels, missing


class TestReplayParity:
    def test_stream_matches_batch(self, golden):
        report, batch_ctx = batch_run(golden)
        service, summary, serve_ctx = serve_run(golden)

        assert summary.summary() == report.summary()
        assert serve_verdict_view(service) == batch_verdict_view(report)
        assert semantic_metrics(serve_ctx.metrics.snapshot()) == semantic_metrics(
            batch_ctx.metrics.snapshot()
        )
        # The golden study replays over a dataset validate() has
        # annotated with visits, so both fingerprints are
        # post-extraction and must agree exactly.
        assert summary.fingerprint == dataset_fingerprint(golden)

    def test_settlement_happens_mid_stream(self, golden):
        """The fixture must exercise incremental settlement: several
        chunks per user, and verdicts emitted before finish()."""
        ctx = ObsContext()
        service = ValidationService(golden.pois, name=golden.name, obs=ctx)
        emitted_before_finish = 0
        for event in replay_events(golden):
            service.ingest(event)
        emitted_before_finish = service.verdicts_emitted
        summary = service.finish()
        assert emitted_before_finish > 0
        assert summary.n_chunks >= 2 * summary.n_users
        assert service.verdicts_emitted == summary.n_verdicts

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_service_starts_no_threads(self, golden, tmp_path, monkeypatch,
                                       telemetry):
        """Register, ingest, snapshot and finish all run on the caller's
        thread, with the telemetry instruments armed (sampler not
        started) or absent."""

        def refuse_start(thread):
            raise AssertionError(f"serving started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse_start)
        service = ValidationService(
            golden.pois, name=golden.name, obs=ObsContext(),
            state_store=ServeStateStore(tmp_path / "snapshots"),
            telemetry=telemetry,
        )
        for event in replay_events(golden):
            service.ingest(event)
        service.snapshot()
        summary = service.finish()
        assert summary.n_verdicts == service.verdicts_emitted > 0
        assert (service.telemetry is not None) == telemetry


def run_cli(tmp_path, capsys, tag, *argv):
    manifest_path = tmp_path / f"{tag}.manifest.json"
    assert main([*argv, "--manifest", str(manifest_path)]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if "manifest" not in line]
    return RunManifest.load(manifest_path), lines


class TestCliParity:
    def test_serve_cli_matches_validate_cli(self, tmp_path, capsys):
        batch, batch_out = run_cli(
            tmp_path, capsys, "validate",
            "validate", "--data", str(GOLDEN_DIR),
        )
        serve, serve_out = run_cli(
            tmp_path, capsys, "serve",
            "serve", "--data", str(GOLDEN_DIR),
        )
        assert serve_out == batch_out
        assert serve.dataset == batch.dataset  # incl. the content sha256
        assert serve.config_hash == batch.config_hash
        assert serve.scorecard == batch.scorecard
        assert serve.scorecard["status"] == "pass"
        sc, sg, sh = semantic_metrics(serve.metrics)
        bc, bg, bh = semantic_metrics(batch.metrics)
        assert (sc, sg, sh) == (bc, bg, bh)
        assert serve.extra["serve"]["chunks"] >= 2

    def test_serve_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--data", str(GOLDEN_DIR), "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_event_stream_round_trip(self, tmp_path, capsys):
        """Dump the replayed stream, re-serve from the captured file:
        same manifest semantics."""
        events_path = tmp_path / "events.jsonl"
        direct, direct_out = run_cli(
            tmp_path, capsys, "direct",
            "serve", "--data", str(GOLDEN_DIR),
            "--dump-events", str(events_path),
        )
        replayed, replayed_out = run_cli(
            tmp_path, capsys, "replayed",
            "serve", "--data", str(GOLDEN_DIR),
            "--events", str(events_path),
        )
        assert [l for l in replayed_out if "events" not in l] == [
            l for l in direct_out if "events" not in l
        ]
        assert replayed.dataset == direct.dataset
        assert semantic_metrics(replayed.metrics) == semantic_metrics(direct.metrics)
