"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import RunManifest, read_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"


def test_generate_and_validate(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["generate", "--dataset", "primary", "--scale", "0.02",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "wrote Primary" in captured
    assert (out / "checkins.jsonl").exists()

    assert main(["validate", "--data", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "extraneous breakdown" in captured


def test_generate_baseline(tmp_path, capsys):
    out = tmp_path / "bl"
    assert main(["generate", "--dataset", "baseline", "--scale", "0.05",
                 "--seed", "9", "--out", str(out)]) == 0
    assert "Baseline" in capsys.readouterr().out


def test_validate_generates_when_no_data(capsys):
    assert main(["validate", "--scale", "0.02"]) == 0
    assert "honest checkins" in capsys.readouterr().out


def test_report_subset(capsys):
    assert main(["report", "--scale", "0.05", "--only", "table1,figure1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Figure 1" in out
    assert "Figure 4" not in out


def test_report_unknown_experiment(capsys):
    assert main(["report", "--only", "figure99"]) == 2
    assert "unknown experiments" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_export_subcommand(tmp_path, capsys):
    out = tmp_path / "csv"
    assert main(["export", "--scale", "0.05", "--out", str(out), "--no-manet"]) == 0
    assert "CSV files" in capsys.readouterr().out
    assert (out / "table1.csv").exists()
    assert (out / "figure4.csv").exists()


def test_recover_subcommand(capsys):
    assert main(["recover", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Recovery gain" in out
    assert "events_per_day" in out


def test_serve_resume_appends_verdicts(tmp_path, capsys):
    """--resume must append to --verdicts, never truncate: verdicts
    settled before the snapshot exist only in the old file, and the
    resumed service re-emits post-snapshot verdicts with identical
    (user_id, seq), so dedup reconstructs the exact clean stream."""
    ckpt = tmp_path / "ckpt"
    verdicts = tmp_path / "verdicts.jsonl"
    argv = ["serve", "--scale", "0.02", "--checkpoint-dir", str(ckpt),
            "--checkpoint-every", "50", "--verdicts", str(verdicts)]
    assert main(argv) == 0
    capsys.readouterr()
    first = verdicts.read_text(encoding="utf-8")
    clean = {(v["user_id"], v["seq"]): v
             for v in map(json.loads, first.splitlines())}
    assert clean
    assert main(argv + ["--resume"]) == 0
    assert "resumed from snapshot" in capsys.readouterr().out
    combined = verdicts.read_text(encoding="utf-8")
    assert combined.startswith(first)
    merged = {(v["user_id"], v["seq"]): v
              for v in map(json.loads, combined.splitlines())}
    assert merged == clean


class TestObservabilityFlags:
    """--trace / --manifest / --no-obs / inspect, end to end on golden data."""

    @pytest.fixture(scope="class")
    def expected(self):
        return json.loads((GOLDEN_DIR / "expected.json").read_text(encoding="utf-8"))

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        """One traced --workers 2 validate over the golden fixture."""
        out = tmp_path_factory.mktemp("trace")
        trace = out / "run.jsonl"
        assert main(["validate", "--data", str(GOLDEN_DIR),
                     "--workers", "2", "--trace", str(trace)]) == 0
        return trace

    def test_trace_and_manifest_written(self, traced_run, capsys):
        capsys.readouterr()
        assert traced_run.exists()
        assert traced_run.with_suffix(".manifest.json").exists()

    def test_trace_stream_has_spans_and_metrics(self, traced_run):
        records = read_trace(traced_run)
        types = {r["type"] for r in records}
        assert "span" in types and "metric" in types
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"pipeline.validate", "stage.match", "shard.run"} <= span_names

    def test_manifest_counts_match_golden_expectations(self, traced_run, expected):
        manifest = RunManifest.load(traced_run.with_suffix(".manifest.json"))
        assert manifest.command == "validate"
        assert manifest.workers == 2
        assert manifest.counter("matching.honest_total") == expected["venn"]["honest"]
        assert manifest.counter("matching.extraneous_total") == expected["venn"]["extraneous"]
        assert manifest.counter("matching.missing_total") == expected["venn"]["missing"]
        for kind in ("superfluous", "remote", "driveby", "other"):
            assert manifest.counter(f"classify.{kind}_total") == expected["type_counts"][kind]
        assert manifest.dataset["n_users"] == expected["n_users"]
        assert manifest.dataset["n_checkins"] == expected["n_checkins"]
        assert [s["stage"] for s in manifest.timings["stages"]] == [
            "extract", "match", "classify",
        ]

    def test_workers_output_matches_serial(self, expected, capsys):
        assert main(["validate", "--data", str(GOLDEN_DIR)]) == 0
        serial = capsys.readouterr().out
        assert main(["validate", "--data", str(GOLDEN_DIR), "--workers", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert expected["summary"] in serial

    def test_no_obs_output_identical(self, capsys):
        assert main(["validate", "--data", str(GOLDEN_DIR), "--no-obs"]) == 0
        disabled = capsys.readouterr().out
        assert main(["validate", "--data", str(GOLDEN_DIR)]) == 0
        enabled = capsys.readouterr().out
        assert disabled == enabled

    def test_no_obs_conflicts_with_trace(self, tmp_path, capsys):
        code = main(["validate", "--data", str(GOLDEN_DIR), "--no-obs",
                     "--trace", str(tmp_path / "t.jsonl")])
        assert code == 2
        assert "no-obs" in capsys.readouterr().err

    def test_explicit_manifest_path(self, tmp_path, capsys):
        manifest_path = tmp_path / "custom.json"
        assert main(["validate", "--data", str(GOLDEN_DIR),
                     "--manifest", str(manifest_path)]) == 0
        capsys.readouterr()
        manifest = RunManifest.load(manifest_path)
        assert manifest.counter("pipeline.runs_total") == 1

    def test_inspect_round_trip(self, traced_run, capsys):
        manifest_path = traced_run.with_suffix(".manifest.json")
        assert main(["inspect", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "matching.honest_total" in out
        assert "config hash" in out

    def test_inspect_missing_file(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_inspect_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["inspect", str(bad)]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_report_accepts_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "report.jsonl"
        assert main(["report", "--scale", "0.02", "--only", "figure1",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        manifest = RunManifest.load(trace.with_suffix(".manifest.json"))
        assert manifest.command == "report"
        assert manifest.counter("synth.users_total") > 0
        span_names = {r["name"] for r in read_trace(trace) if r["type"] == "span"}
        assert "synth.generate" in span_names and "study.build" in span_names


class TestAuditAndDiff:
    """audit / diff / --profile subcommand surface, end to end."""

    @pytest.fixture(scope="class")
    def manifests(self, tmp_path_factory):
        """Golden validate manifests at two worker counts."""
        out = tmp_path_factory.mktemp("audit")
        paths = {}
        for workers in (1, 4):
            manifest = out / f"w{workers}.manifest.json"
            assert main(["validate", "--data", str(GOLDEN_DIR),
                         "--workers", str(workers),
                         "--manifest", str(manifest)]) == 0
            paths[workers] = manifest
        return paths

    def test_manifest_embeds_passing_scorecard(self, manifests):
        manifest = RunManifest.load(manifests[1])
        assert manifest.scorecard["status"] == "pass"
        assert manifest.scorecard["counts"]["fail"] == 0

    def test_audit_golden_passes(self, manifests, capsys):
        assert main(["audit", str(manifests[1])]) == 0
        out = capsys.readouterr().out
        assert "fidelity scorecard: PASS" in out
        assert "matching.extraneous_fraction" in out

    def test_audit_json_is_byte_deterministic(self, manifests, capsys):
        assert main(["audit", str(manifests[1]), "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["audit", str(manifests[4]), "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["status"] == "pass"

    def test_audit_missing_file(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path / "nope.json")]) == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_audit_strict_fails_on_warn(self, manifests, tmp_path, capsys):
        data = json.loads(manifests[1].read_text(encoding="utf-8"))
        # Push the missing fraction just outside its warn band
        # (54 -> 18 gives 0.75 vs reference 0.886: ~15% deviation).
        data["metrics"]["counters"]["matching.missing_total"] = 18
        warped = tmp_path / "warn.manifest.json"
        warped.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["audit", str(warped)]) == 0
        assert main(["audit", str(warped), "--strict"]) == 1

    def test_diff_same_config_different_workers_is_clean(
            self, manifests, capsys):
        assert main(["diff", str(manifests[1]), str(manifests[4])]) == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_diff_flags_injected_drift(self, manifests, tmp_path, capsys):
        data = json.loads(manifests[1].read_text(encoding="utf-8"))
        data["metrics"]["counters"]["matching.extraneous_total"] += 5
        drifted = tmp_path / "drift.manifest.json"
        drifted.write_text(json.dumps(data), encoding="utf-8")
        assert main(["diff", str(manifests[1]), str(drifted)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "matching.extraneous_total" in out

    def test_diff_json_output(self, manifests, tmp_path, capsys):
        data = json.loads(manifests[1].read_text(encoding="utf-8"))
        data["seeds"]["primary"] = 7
        drifted = tmp_path / "seed.manifest.json"
        drifted.write_text(json.dumps(data), encoding="utf-8")
        assert main(["diff", str(manifests[1]), str(drifted), "--json"]) == 1
        dump = json.loads(capsys.readouterr().out)
        assert dump["regression"] is True
        assert dump["entries"][0]["section"] == "seeds"

    def test_diff_missing_file(self, manifests, tmp_path, capsys):
        assert main(["diff", str(manifests[1]),
                     str(tmp_path / "nope.json")]) == 2
        assert "cannot diff" in capsys.readouterr().err

    def test_diff_traces(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path, workers in ((a, 1), (b, 4)):
            assert main(["validate", "--data", str(GOLDEN_DIR),
                         "--workers", str(workers),
                         "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_profile_records_in_trace_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "prof.jsonl"
        assert main(["validate", "--data", str(GOLDEN_DIR), "--workers", "2",
                     "--trace", str(trace), "--profile"]) == 0
        capsys.readouterr()
        profiles = [r for r in read_trace(trace) if r["type"] == "profile"]
        assert {p["stage"] for p in profiles} == {"extract", "match", "classify"}
        manifest = RunManifest.load(trace.with_suffix(".manifest.json"))
        assert set(manifest.extra["profile"]) == {"extract", "match", "classify"}
        assert main(["inspect", str(trace.with_suffix(".manifest.json"))]) == 0
        assert "profile (per stage)" in capsys.readouterr().out

    def test_profile_output_identical_to_plain_run(self, capsys):
        assert main(["validate", "--data", str(GOLDEN_DIR)]) == 0
        plain = capsys.readouterr().out
        assert main(["validate", "--data", str(GOLDEN_DIR), "--profile"]) == 0
        profiled = capsys.readouterr().out
        assert plain == profiled

    def test_no_obs_conflicts_with_profile(self, capsys):
        assert main(["validate", "--data", str(GOLDEN_DIR), "--no-obs",
                     "--profile"]) == 2
        assert "no-obs" in capsys.readouterr().err


def test_manet_subcommand(monkeypatch, capsys):
    from repro.manet import ManetConfig
    import repro.cli as cli

    tiny = ManetConfig(
        n_nodes=12, arena_m=3000.0, radio_range_m=1200.0, n_pairs=3,
        duration_s=180.0, seed=4,
    )
    monkeypatch.setattr(cli, "bench_config", lambda: tiny)
    assert main(["manet", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "Honest-Checkin" in out


def test_manet_multi_seed(monkeypatch, capsys):
    from repro.manet import ManetConfig
    import repro.cli as cli

    tiny = ManetConfig(
        n_nodes=12, arena_m=3000.0, radio_range_m=1200.0, n_pairs=3,
        duration_s=180.0, seed=4,
    )
    monkeypatch.setattr(cli, "bench_config", lambda: tiny)
    assert main(["manet", "--scale", "0.05", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "across 2 seeds" in out
    assert "±" in out  # mean ± band summary lines
    assert "seed 4:" in out and "seed 5:" in out


def test_manet_rejects_nonpositive_seeds(capsys):
    with pytest.raises(SystemExit):
        main(["manet", "--scale", "0.05", "--seeds", "0"])
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--kernel", "scalar"],
    ["manet", "--engine", "scalar"],
])
def test_no_implementation_selector_flags(argv, capsys):
    """Each stage has one implementation, so there is nothing to select."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


class TestParallelDiskCli:
    """--workers on disk validate and disk generate; --quiet."""

    def test_validate_disk_parallel_matches_serial_output(self, capsys):
        base = ["validate", "--data", str(GOLDEN_DIR), "--store", "disk",
                "--segment-users", "1"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2", "--quiet"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "extraneous breakdown" in serial

    def test_generate_disk_parallel_fingerprint_matches_serial(
            self, tmp_path, capsys):
        from repro.store import StudyStore

        args = ["generate", "--dataset", "primary", "--scale", "0.02",
                "--store", "disk", "--segment-users", "4"]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(args + ["--out", str(serial_dir)]) == 0
        assert main(args + ["--out", str(parallel_dir), "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote Primary store:") == 2
        serial = StudyStore.open(serial_dir)
        parallel = StudyStore.open(parallel_dir)
        assert parallel.fingerprint() == serial.fingerprint()
        assert parallel.n_users == serial.n_users > 0

    @pytest.mark.parametrize("argv", [
        ["validate", "--store", "disk", "--inflight-segments", "2"],
        ["generate", "--out", "x", "--inflight-segments", "2"],
        ["bench", "--quick"],
    ], ids=["validate-inflight", "generate-inflight", "bench"])
    def test_removed_surface_exits_2(self, argv, capsys):
        """The store walk takes one segment at a time, and benchmarks
        run from ``perfbench/``: neither the window flag nor the bench
        wrapper exists."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err


class TestMalformedDataset:
    """A dataset the loader rejects exits 2 with one line, no traceback."""

    @pytest.fixture(scope="class")
    def nan_data(self, tmp_path_factory):
        """The golden fixture with one checkin's ``y`` set to NaN."""
        import shutil

        data = tmp_path_factory.mktemp("malformed") / "golden"
        shutil.copytree(GOLDEN_DIR, data)
        path = data / "checkins.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[0])
        record["y"] = float("nan")
        lines[0] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        return data, record["user_id"]

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["validate", "--store", "disk"],
        ["serve"],
    ], ids=["validate", "validate-disk", "serve"])
    def test_nan_coordinate_exits_2(self, nan_data, argv, capsys):
        data, user_id = nan_data
        assert main(argv + ["--data", str(data)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("cannot load dataset:")
        assert "checkins.jsonl" in line
        assert repr(user_id) in line


class TestMalformedEvents:
    """A captured event stream the service refuses exits 2 with one
    line, no traceback: the bad line's ``path:lineno``, or the user."""

    @pytest.fixture(scope="class")
    def stream_lines(self, tmp_path_factory):
        """The golden fixture's replayed stream, one JSON line per event."""
        from repro.io import load_dataset
        from repro.serve import write_events
        from repro.synth import replay_events

        path = tmp_path_factory.mktemp("events") / "events.jsonl"
        write_events(path, replay_events(load_dataset(GOLDEN_DIR)))
        return path.read_text(encoding="utf-8").splitlines(keepends=True)

    @pytest.mark.parametrize("case, expected", [
        ("nan-fix", "non-finite"),
        ("fix-without-t", "gps event needs a timestamp"),
        ("truncated-json", "invalid JSON"),
        ("unregistered-user", "user 'ghost' not registered"),
    ], ids=["nan-fix", "fix-without-t", "truncated-json", "unregistered-user"])
    def test_bad_stream_exits_2(self, stream_lines, tmp_path, capsys, case,
                                expected):
        lines = list(stream_lines)
        n = next(i for i, line in enumerate(lines) if '"gps"' in line)
        record = json.loads(lines[n])
        if case == "nan-fix":
            record["x"] = float("nan")
        elif case == "fix-without-t":
            del record["t"]
        elif case == "unregistered-user":
            record["user_id"] = "ghost"
        lines[n] = json.dumps(record) + "\n"
        if case == "truncated-json":
            lines[n] = lines[n][: len(lines[n]) // 2] + "\n"
        path = tmp_path / "events.jsonl"
        path.write_text("".join(lines), encoding="utf-8")

        argv = ["serve", "--data", str(GOLDEN_DIR), "--events", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("cannot serve events:")
        assert expected in line
        if case != "unregistered-user":
            assert f"{path}:{n + 1}:" in line
