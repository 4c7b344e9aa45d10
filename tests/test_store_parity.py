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


#: Every counter and gauge a disk run records on the golden store.
STORE_WALK_COUNTERS = [
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
STORE_WALK_GAUGES = [
    "matching.extraneous_fraction", "matching.missing_fraction",
]


def semantic_metrics(manifest: RunManifest):
    counters = {
        name: value
        for name, value in manifest.metrics.get("counters", {}).items()
        if name.startswith(SEMANTIC_PREFIXES)
    }
    # Gauges likewise, minus runtime mechanics (``store.*``, which
    # memory runs don't have).
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


class TestParallelDiskParity:
    """A parallel disk walk changes wall-clock, nothing else.

    ``workers`` shards each segment's stages over a process pool;
    everything observable — summary, per-user results, semantic
    counters, manifest fingerprint, scorecard — must be identical to the
    serial walk, and checkpoint files must decode to its payloads.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        store_dir = tmp_path_factory.mktemp("parallel") / "store"
        return load_dataset_into_store(GOLDEN_DIR, store_dir,
                                       segment_users=SEGMENT_USERS)

    def test_cli_parallel_disk_parity_smoke(self, tmp_path, capsys):
        """The CI smoke: 4 workers == serial, byte-for-byte."""
        base = ["--store", "disk", "--segment-users", str(SEGMENT_USERS)]
        serial = run_cli(tmp_path, "serial", *base)
        serial_out = capsys.readouterr().out
        parallel = run_cli(tmp_path, "parallel", *base, "--workers", "4")
        parallel_out = capsys.readouterr().out

        assert result_lines(parallel_out) == result_lines(serial_out)
        assert parallel.dataset == serial.dataset
        assert parallel.config_hash == serial.config_hash
        assert parallel.scorecard == serial.scorecard
        assert semantic_metrics(parallel) == semantic_metrics(serial)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_summary_parity(self, store, workers):
        serial = validate_store(store)
        parallel = validate_store(store, workers=workers)
        assert parallel.summary() == serial.summary()
        assert parallel.visit_counts == serial.visit_counts
        assert parallel.type_counts == serial.type_counts

    def test_full_report_parity(self, store):
        reference = validate_store(store, keep_results=True)
        report = validate_store(store, workers=4, keep_results=True)
        assert report.summary() == reference.summary()
        assert list(report.matching.per_user) == list(reference.matching.per_user)
        assert report.matching.per_user == reference.matching.per_user
        assert report.classification.labels == reference.classification.labels

    @pytest.mark.parametrize("workers", [1, 4])
    def test_checkpoints_byte_identical(self, store, tmp_path, workers):
        """Two walks at one worker count write the same checkpoint bytes."""
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        validate_store(store, workers=workers, checkpoints=first_dir)
        validate_store(store, workers=workers, checkpoints=second_dir)
        first_files = sorted(p.name for p in first_dir.glob("*.pkl"))
        second_files = sorted(p.name for p in second_dir.glob("*.pkl"))
        assert first_files == second_files and first_files
        for name in first_files:
            assert (second_dir / name).read_bytes() == \
                (first_dir / name).read_bytes(), name

    def test_checkpoints_decode_equal_across_worker_counts(
        self, store, tmp_path
    ):
        """A workers=4 walk checkpoints the serial walk's files and values.

        The bytes differ: pickle records shared object identity, and the
        serial walk's matches share ``Visit`` objects with the segment
        while pool results come back as copies.
        """
        import pickle

        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        validate_store(store, checkpoints=serial_dir)
        validate_store(store, workers=4, checkpoints=parallel_dir)
        serial_files = sorted(p.name for p in serial_dir.glob("*.pkl"))
        parallel_files = sorted(p.name for p in parallel_dir.glob("*.pkl"))
        assert serial_files == parallel_files and serial_files
        for name in serial_files:
            assert pickle.loads((parallel_dir / name).read_bytes()) == \
                pickle.loads((serial_dir / name).read_bytes()), name

    def test_parallel_resumes_serial_checkpoints(self, store, tmp_path):
        """Checkpoint interop: a parallel walk replays a serial one's files."""
        ckpt = tmp_path / "ckpt"
        cold = validate_store(store, checkpoints=ckpt)
        warm = validate_store(store, workers=4, checkpoints=ckpt)
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

        assert counters(workers=4) == counters()

    def test_explicit_executor_walks_like_workers(self, store):
        from repro.runtime import ParallelExecutor

        serial = validate_store(store)
        with ParallelExecutor(workers=2) as executor:
            parallel = validate_store(store, executor=executor)
        assert parallel.summary() == serial.summary()
        assert parallel.visit_counts == serial.visit_counts

    def test_store_walk_manifest_names_are_pinned(self, store, tmp_path):
        """A disk run records exactly the serial walk's metric names,
        cold and when replaying checkpoints."""
        ckpt = tmp_path / "ckpt"

        def names():
            ctx = ObsContext()
            with activate(ctx):
                validate_store(store, checkpoints=ckpt)
            snapshot = ctx.metrics.snapshot()
            return sorted(snapshot["counters"]), sorted(snapshot["gauges"])

        assert names() == (STORE_WALK_COUNTERS, STORE_WALK_GAUGES)
        assert names() == (
            sorted(STORE_WALK_COUNTERS + ["store.segments_reused"]),
            STORE_WALK_GAUGES,
        )


class TestSegmentLiveness:
    """A reduced segment's data is released before the next load starts.

    Peak memory is ``baseline + one segment`` only if nothing keeps a
    segment's :class:`Dataset` alive past its reduce.  Weak references
    to every dataset ``load_segment`` returns show which earlier
    segments are still reachable when each load starts: none may be.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return generate_scale_store(
            tmp_path_factory.mktemp("liveness") / "store",
            n_users=8, segment_users=1, points_per_user=72,
            checkins_per_user=4, n_pois=40,
        )

    @pytest.mark.parametrize("workers", [1, 3])
    def test_no_reduced_segment_alive_at_next_load(
        self, store, monkeypatch, workers
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
        validate_store(store, workers=workers)
        assert alive_at_load == [[]] * len(store.segments)
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)
