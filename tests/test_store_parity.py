"""Disk-store runs must be byte-identical to in-memory runs.

The out-of-core path (``validate --store disk``) restructures *how* the
study flows through the pipeline — segment streaming, manifest-count
sharding, incremental merging — but must never change *what* comes out.
This suite pins that contract on the golden fixture across worker
counts, at the API level and end to end
through the CLI: stdout, summary text, per-user results, dataset
fingerprint, semantic metrics, and the fidelity scorecard all compare
equal, and checkpoint replay reproduces the same bytes again.
"""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import VisitConfig, validate, validate_store
from repro.io import load_dataset, load_dataset_into_store
from repro.obs import ObsContext, RunManifest, activate
from repro.store import StudyStore
from repro.synth.scalegen import generate_scale_store

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"

#: One user per segment: the 3-user golden fixture spans 3 segments,
#: exercising the cross-segment merge with every user on a boundary.
SEGMENT_USERS = 1

#: Manifest counters that describe results (not runtime mechanics);
#: these must be identical between the memory and disk paths.
SEMANTIC_PREFIXES = ("extract.", "matching.", "classify.", "pipeline.")


#: Every counter a window-1 disk run records on the golden store.  The
#: scheduler's ``store.prefetch_*`` counters are absent: at window 1
#: nothing is prefetched, so there is no overlap or stall to count.
WINDOW_ONE_COUNTERS = [
    "classify.driveby_total", "classify.extraneous_total",
    "classify.other_total", "classify.remote_total",
    "classify.superfluous_total", "classify.users_total",
    "extract.gps_points_total", "extract.users_total", "extract.visits_total",
    "matching.extraneous_total", "matching.honest_total",
    "matching.missing_total", "matching.rematch_rounds",
    "matching.rounds_total", "matching.tie_losers_total",
    "matching.users_total", "pipeline.runs_total",
    "runtime.merged_users_total", "runtime.shards_total",
    "runtime.stages_total", "store.segments_total",
]
WINDOW_ONE_GAUGES = [
    "matching.extraneous_fraction", "matching.missing_fraction",
    "store.inflight_segments",
]


def semantic_metrics(manifest: RunManifest):
    counters = {
        name: value
        for name, value in manifest.metrics.get("counters", {}).items()
        if name.startswith(SEMANTIC_PREFIXES)
    }
    # Gauges likewise, minus runtime mechanics (``store.*`` — e.g. the
    # in-flight window size, which memory runs don't have).
    gauges = {
        name: value
        for name, value in manifest.metrics.get("gauges", {}).items()
        if not name.startswith("store.")
    }
    return counters, gauges


def run_cli(tmp_path, tag, *extra):
    """One golden-fixture validate writing its manifest under ``tag``."""
    manifest_path = tmp_path / f"{tag}.manifest.json"
    argv = ["validate", "--data", str(GOLDEN_DIR),
            "--manifest", str(manifest_path), *extra]
    assert main(argv) == 0
    return RunManifest.load(manifest_path)


def result_lines(stdout: str):
    """stdout minus the one line naming the (run-specific) manifest path."""
    return [line for line in stdout.splitlines() if "manifest" not in line]


class TestCliParity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_disk_matches_memory(self, tmp_path, capsys, workers):
        base = ["--workers", str(workers)]
        memory = run_cli(tmp_path, "memory", *base)
        memory_out = capsys.readouterr().out
        disk = run_cli(tmp_path, "disk", *base,
                       "--store", "disk", "--segment-users", str(SEGMENT_USERS))
        disk_out = capsys.readouterr().out

        assert result_lines(disk_out) == result_lines(memory_out)
        assert disk.dataset == memory.dataset  # incl. the content sha256
        assert disk.config_hash == memory.config_hash
        assert disk.scorecard == memory.scorecard
        assert disk.scorecard["status"] == "pass"
        assert semantic_metrics(disk) == semantic_metrics(memory)
        # The disk run declares itself and spans several segments.
        assert disk.extra["store"]["mode"] == "disk"
        assert disk.extra["store"]["count"] > 1

    def test_disk_store_counts_segments(self, tmp_path, capsys):
        manifest = run_cli(tmp_path, "d", "--store", "disk",
                           "--segment-users", "2")
        capsys.readouterr()
        expected = json.loads(
            (GOLDEN_DIR / "expected.json").read_text(encoding="utf-8")
        )
        n_users = expected["n_users"]
        assert manifest.counter("store.segments_total") == -(-n_users // 2)
        assert manifest.counter("matching.honest_total") == expected["venn"]["honest"]

    def test_prebuilt_store_dir_is_reusable(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        first = run_cli(tmp_path, "first", "--store", "disk",
                        "--segment-users", "2", "--store-dir", str(store_dir))
        capsys.readouterr()
        assert (store_dir / "store.json").exists()
        # Second run points --data straight at the store directory.
        manifest_path = tmp_path / "again.manifest.json"
        assert main(["validate", "--data", str(store_dir), "--store", "disk",
                     "--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        again = RunManifest.load(manifest_path)
        assert again.dataset == first.dataset
        assert semantic_metrics(again) == semantic_metrics(first)


class TestApiParity:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("parity") / "store"
        return load_dataset_into_store(GOLDEN_DIR, store_dir,
                                       segment_users=SEGMENT_USERS)

    @pytest.fixture(scope="class")
    def memory_report(self):
        return validate(load_dataset(GOLDEN_DIR))

    def test_full_report_parity(self, store, memory_report):
        reference = memory_report
        report = validate_store(store, keep_results=True)
        assert report.summary() == reference.summary()
        assert report.type_counts() == reference.type_counts()
        assert list(report.matching.per_user) == list(reference.matching.per_user)
        assert report.matching.per_user == reference.matching.per_user
        assert report.classification.labels == reference.classification.labels

    @pytest.mark.parametrize("workers", [1, 4])
    def test_summary_mode_parity(self, store, memory_report, workers):
        summary = validate_store(store, workers=workers)
        assert summary.summary() == memory_report.summary()
        assert summary.n_users == len(memory_report.dataset.users)
        assert summary.n_segments == len(store.segments)
        assert summary.segments_reused == 0

    def test_fingerprint_matches_post_extraction_dataset(self, store, memory_report):
        from repro.obs.manifest import dataset_fingerprint

        summary = validate_store(store)
        # The in-memory CLI fingerprints the dataset *after* extraction
        # mutates visits in place; the store path must reproduce that.
        assert store.fingerprint(visit_counts=summary.visit_counts) == \
            dataset_fingerprint(memory_report.dataset)

    def test_checkpoint_replay_is_byte_identical(self, store, tmp_path):
        ckpt = tmp_path / "ckpt"
        cold = validate_store(store, checkpoints=ckpt)
        assert cold.segments_reused == 0
        warm = validate_store(store, checkpoints=ckpt)
        assert warm.segments_reused == len(store.segments)
        assert warm.summary() == cold.summary()
        assert warm.visit_counts == cold.visit_counts
        assert warm.type_counts == cold.type_counts

    def test_checkpoint_replay_restores_semantic_counters(self, store, tmp_path):
        ckpt = tmp_path / "ckpt"

        def counters():
            ctx = ObsContext()
            with activate(ctx):
                validate_store(store, checkpoints=ckpt)
            return {
                name: value
                for name, value in ctx.metrics.snapshot()["counters"].items()
                if name.startswith(SEMANTIC_PREFIXES)
            }

        assert counters() == counters()  # cold run, then full replay

    def test_config_change_invalidates_checkpoints(self, store, tmp_path):
        ckpt = tmp_path / "ckpt"
        validate_store(store, checkpoints=ckpt)
        rerun = validate_store(store, visit_config=VisitConfig(dwell_s=420.0),
                               checkpoints=ckpt)
        assert rerun.segments_reused == 0


class TestPipelinedParity:
    """``--inflight-segments > 1`` must change wall-clock, nothing else.

    The pipelined scheduler overlaps segment loads and stage compute
    across threads; everything observable — summary, per-user results,
    semantic counters, manifest fingerprint, scorecard, and the
    checkpoint files' literal bytes — must be identical to the serial
    streaming loop at any worker count and any in-flight window.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("pipelined") / "store"
        return load_dataset_into_store(GOLDEN_DIR, store_dir,
                                       segment_users=SEGMENT_USERS)

    def test_cli_parallel_disk_parity_smoke(self, tmp_path, capsys):
        """The CI smoke: inflight 3 at 4 workers == serial, byte-for-byte."""
        base = ["--store", "disk", "--segment-users", str(SEGMENT_USERS)]
        serial = run_cli(tmp_path, "serial", *base,
                         "--inflight-segments", "1")
        serial_out = capsys.readouterr().out
        pipelined = run_cli(tmp_path, "pipelined", *base, "--workers", "4",
                            "--inflight-segments", "3")
        pipelined_out = capsys.readouterr().out

        assert result_lines(pipelined_out) == result_lines(serial_out)
        assert pipelined.dataset == serial.dataset
        assert pipelined.config_hash == serial.config_hash
        assert pipelined.scorecard == serial.scorecard
        assert semantic_metrics(pipelined) == semantic_metrics(serial)

    @pytest.mark.parametrize("workers,inflight", [(1, 3), (4, 2), (4, 8)])
    def test_summary_parity(self, store, workers, inflight):
        serial = validate_store(store, inflight_segments=1)
        pipelined = validate_store(store, workers=workers,
                                   inflight_segments=inflight)
        assert pipelined.summary() == serial.summary()
        assert pipelined.visit_counts == serial.visit_counts
        assert pipelined.type_counts == serial.type_counts

    def test_full_report_parity(self, store):
        reference = validate_store(store, keep_results=True)
        report = validate_store(store, workers=2, inflight_segments=3,
                                keep_results=True)
        assert report.summary() == reference.summary()
        assert list(report.matching.per_user) == list(reference.matching.per_user)
        assert report.matching.per_user == reference.matching.per_user
        assert report.classification.labels == reference.classification.labels

    @pytest.mark.parametrize("workers", [1, 4])
    def test_checkpoints_byte_identical(self, store, tmp_path, workers):
        serial_dir = tmp_path / f"serial-{workers}"
        pipe_dir = tmp_path / f"pipe-{workers}"
        validate_store(store, workers=workers, inflight_segments=1,
                       checkpoints=serial_dir)
        validate_store(store, workers=workers, inflight_segments=3,
                       checkpoints=pipe_dir)
        serial_files = sorted(p.name for p in serial_dir.glob("*.pkl"))
        pipe_files = sorted(p.name for p in pipe_dir.glob("*.pkl"))
        assert serial_files == pipe_files and serial_files
        for name in serial_files:
            assert (pipe_dir / name).read_bytes() == \
                (serial_dir / name).read_bytes(), name

    def test_pipelined_resumes_serial_checkpoints(self, store, tmp_path):
        """Checkpoint interop: either loop replays the other's files."""
        ckpt = tmp_path / "ckpt"
        cold = validate_store(store, checkpoints=ckpt)
        warm = validate_store(store, workers=2, inflight_segments=3,
                              checkpoints=ckpt)
        assert warm.segments_reused == len(store.segments)
        assert warm.summary() == cold.summary()

    def test_semantic_counters_identical(self, store):
        def counters(**kwargs):
            ctx = ObsContext()
            with activate(ctx):
                validate_store(store, **kwargs)
            return {
                name: value
                for name, value in ctx.metrics.snapshot()["counters"].items()
                if name.startswith(SEMANTIC_PREFIXES)
            }

        assert counters(workers=2, inflight_segments=3) == \
            counters(workers=2, inflight_segments=1)

    def test_pipeline_stats_surface_on_manifest(self, store):
        ctx = ObsContext()
        with activate(ctx):
            validate_store(store, workers=2, inflight_segments=3)
        snapshot = ctx.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["store.prefetch_overlap_total"] \
            + counters["store.prefetch_stalls_total"] == len(store.segments)
        assert snapshot["gauges"]["store.inflight_segments"] == 3.0

    def test_explicit_executor_rejects_pipelining(self, store):
        from repro.runtime import SerialExecutor
        from repro.runtime.errors import RuntimeConfigError

        with pytest.raises(RuntimeConfigError, match="in-flight"):
            validate_store(store, executor=SerialExecutor(),
                           inflight_segments=2)

    def test_window_one_manifest_names_are_pinned(self, store, tmp_path):
        """A window-1 run records exactly the serial walk's metric names,
        cold and when replaying checkpoints."""
        ckpt = tmp_path / "ckpt"

        def names():
            ctx = ObsContext()
            with activate(ctx):
                validate_store(store, inflight_segments=1, checkpoints=ckpt)
            snapshot = ctx.metrics.snapshot()
            return sorted(snapshot["counters"]), sorted(snapshot["gauges"])

        assert names() == (WINDOW_ONE_COUNTERS, WINDOW_ONE_GAUGES)
        assert names() == (
            sorted(WINDOW_ONE_COUNTERS + ["store.segments_reused"]),
            WINDOW_ONE_GAUGES,
        )


class TestSegmentLiveness:
    """A reduced segment's data is released before later loads start.

    Peak memory is ``baseline + window × segment`` only if nothing keeps
    a segment's :class:`Dataset` alive past its reduce.  Weak references
    to every dataset ``load_segment`` returns show which earlier
    segments are still reachable when each load starts: at window *W*
    only the *W − 1* loaded-but-unreduced predecessors may be.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return generate_scale_store(
            tmp_path_factory.mktemp("liveness") / "store",
            n_users=8, segment_users=1, points_per_user=72,
            checkins_per_user=4, n_pois=40,
        )

    @pytest.mark.parametrize("inflight", [1, 3])
    def test_no_reduced_segment_alive_at_next_load(
        self, store, monkeypatch, inflight
    ):
        original = StudyStore.load_segment
        refs = []
        alive_at_load = []

        def tracking_load(self, entry, *args, **kwargs):
            gc.collect()
            alive_at_load.append(
                [index for index, ref in enumerate(refs) if ref() is not None]
            )
            dataset = original(self, entry, *args, **kwargs)
            refs.append(weakref.ref(dataset))
            return dataset

        monkeypatch.setattr(StudyStore, "load_segment", tracking_load)
        validate_store(store, inflight_segments=inflight)
        assert len(alive_at_load) == len(store.segments)
        for index, alive in enumerate(alive_at_load):
            assert all(earlier > index - inflight for earlier in alive), (
                f"load {index} started with segments {alive} still alive"
            )
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
