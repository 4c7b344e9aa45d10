"""Run-diff auditing: severity classification, gates, trace diffs."""

from __future__ import annotations

import copy

import pytest

from repro.obs import RunManifest, diff_manifests, diff_traces


def make_manifest(**overrides):
    base = dict(
        command="validate",
        package_version="1.0.0",
        python_version="3.11.0",
        config_hash="c" * 64,
        dataset={"name": "Golden", "n_users": 3, "sha256": "d" * 64},
        seeds={"primary": 20131121},
        workers=2,
        timings={"wall_s": 1.0, "stages": [
            {"stage": "extract", "wall_s": 0.6, "executor": "serial", "shards": []},
            {"stage": "match", "wall_s": 0.4, "executor": "serial", "shards": []},
        ]},
        metrics={
            "counters": {"matching.honest_total": 6, "runtime.shards_total": 4},
            "gauges": {"matching.extraneous_fraction": 0.8},
            "histograms": {"runtime.shard_wall_s": {"count": 4, "p50": 0.1}},
        },
        extra={"data": "/tmp/a"},
        scorecard={"status": "pass", "counts": {}, "checks": [
            {"name": "matching.extraneous_fraction", "status": "pass"},
        ]},
    )
    base.update(overrides)
    return RunManifest(**base)


def variant(manifest, mutate):
    clone = copy.deepcopy(manifest)
    mutate(clone)
    return clone


class TestManifestDiff:
    def test_identical_runs_diff_clean(self):
        a = make_manifest()
        diff = diff_manifests(a, copy.deepcopy(a))
        assert not diff.has_regressions
        assert diff.entries == []
        assert "equivalent" in diff.format_report()

    def test_worker_count_and_versions_are_info(self):
        a = make_manifest()
        b = variant(a, lambda m: (
            setattr(m, "workers", 8),
            setattr(m, "python_version", "3.12.0"),
        ))
        diff = diff_manifests(a, b)
        assert not diff.has_regressions
        assert {e.key for e in diff.entries} == {"workers", "python_version"}

    def test_config_hash_change_is_regression(self):
        a = make_manifest()
        b = variant(a, lambda m: setattr(m, "config_hash", "e" * 64))
        diff = diff_manifests(a, b)
        assert diff.has_regressions
        assert diff.regressions()[0].key == "config_hash"

    def test_dataset_and_seed_changes_are_regressions(self):
        a = make_manifest()
        b = variant(a, lambda m: (
            m.dataset.update(sha256="f" * 64),
            m.seeds.update(primary=7),
        ))
        diff = diff_manifests(a, b)
        assert {e.section for e in diff.regressions()} == {"dataset", "seeds"}

    def test_semantic_counter_drift_is_regression(self):
        a = make_manifest()
        b = variant(a, lambda m: m.metrics["counters"].update(
            {"matching.honest_total": 7}))
        diff = diff_manifests(a, b)
        assert diff.has_regressions
        assert diff.regressions()[0].note == "semantic metric drift"

    def test_runtime_metrics_are_info(self):
        a = make_manifest()
        b = variant(a, lambda m: (
            m.metrics["counters"].update({"runtime.shards_total": 9}),
            m.metrics["histograms"].update(
                {"runtime.shard_wall_s": {"count": 9, "p50": 0.2}}),
        ))
        diff = diff_manifests(a, b)
        assert not diff.has_regressions
        # Histogram noise is suppressed entirely; the counter is info.
        assert [e.key for e in diff.entries] == ["runtime.shards_total"]

    def test_semantic_histogram_drift_is_regression(self):
        a = make_manifest()
        a.metrics["histograms"]["match.candidates"] = {"count": 5, "p50": 2.0}
        b = variant(a, lambda m: m.metrics["histograms"].update(
            {"match.candidates": {"count": 5, "p50": 3.0}}))
        assert diff_manifests(a, b).has_regressions

    def test_headline_extra_drift_is_regression(self):
        a = make_manifest()
        a.extra["headline"] = {"figure7.honest_gps_speed_ratio": 0.06}
        b = variant(a, lambda m: m.extra["headline"].update(
            {"figure7.honest_gps_speed_ratio": 0.5}))
        diff = diff_manifests(a, b)
        assert diff.has_regressions
        assert diff.regressions()[0].key == "headline.figure7.honest_gps_speed_ratio"

    def test_profile_and_health_extras_never_gate(self):
        a = make_manifest()
        b = variant(a, lambda m: m.extra.update(
            profile={"extract": {"shards": 3}},
            health={"degraded": True},
        ))
        assert diff_manifests(a, b).entries == []

    def test_data_path_extra_is_info(self):
        a = make_manifest()
        b = variant(a, lambda m: m.extra.update({"data": "/tmp/b"}))
        diff = diff_manifests(a, b)
        assert not diff.has_regressions
        assert len(diff.entries) == 1

    def test_scorecard_worsening_flip_is_regression(self):
        a = make_manifest()
        b = variant(a, lambda m: m.scorecard["checks"][0].update(
            {"status": "fail"}))
        diff = diff_manifests(a, b)
        assert diff.has_regressions
        assert diff.regressions()[0].section == "scorecard"

    def test_scorecard_improving_flip_is_info(self):
        a = make_manifest()
        a.scorecard["checks"][0]["status"] = "warn"
        b = variant(a, lambda m: m.scorecard["checks"][0].update(
            {"status": "pass"}))
        diff = diff_manifests(a, b)
        assert not diff.has_regressions
        assert diff.entries[0].note == "fidelity check improved"

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_scorecard_check_on_one_side_is_info(self, side):
        a = make_manifest()
        b = variant(a, lambda m: m.scorecard["checks"].append(
            {"name": "figure8.new_band", "status": "skipped"}))
        if side == "a":
            a, b = b, a
        diff = diff_manifests(a, b)
        assert not diff.has_regressions
        [entry] = diff.entries
        assert (entry.section, entry.key, entry.severity) == (
            "scorecard", "figure8.new_band", "info")
        present = entry.a if side == "a" else entry.b
        absent = entry.b if side == "a" else entry.a
        assert (present, absent) == ("skipped", None)
        assert entry.note == f"fidelity check only in run {side.upper()}"

    def test_wall_time_regression_needs_both_gates(self):
        a = make_manifest()
        # +400% but only +0.24s: under the absolute floor -> info.
        small = variant(a, lambda m: m.timings["stages"][1].update(
            {"wall_s": 0.4 + 0.24}))
        diff = diff_manifests(a, small, wall_abs_floor_s=0.5)
        assert not diff.has_regressions
        assert diff.entries and diff.entries[0].section == "timings"
        # +100% and +0.6s: beyond both gates -> regression.
        big = variant(a, lambda m: m.timings["stages"][0].update(
            {"wall_s": 1.2}))
        assert diff_manifests(a, big, wall_abs_floor_s=0.5).has_regressions

    def test_wall_time_speedup_never_flags(self):
        a = make_manifest()
        b = variant(a, lambda m: m.timings["stages"][0].update({"wall_s": 0.01}))
        assert diff_manifests(a, b).entries == []

    def test_stage_structure_change_is_regression(self):
        a = make_manifest()
        b = variant(a, lambda m: m.timings["stages"].pop())
        diff = diff_manifests(a, b)
        assert diff.has_regressions
        assert diff.regressions()[0].key == "stages"

    def test_as_dict_orders_regressions_first(self):
        a = make_manifest()
        b = variant(a, lambda m: (
            setattr(m, "workers", 8),
            m.metrics["counters"].update({"matching.honest_total": 9}),
        ))
        dump = diff_manifests(a, b).as_dict()
        assert dump["regression"] is True
        assert dump["n_regressions"] == 1 and dump["n_info"] == 1
        assert dump["entries"][0]["severity"] == "regression"

    def test_format_report_lists_regressions(self):
        a = make_manifest()
        b = variant(a, lambda m: m.metrics["counters"].update(
            {"matching.honest_total": 9}))
        text = diff_manifests(a, b).format_report()
        assert "REGRESSION" in text
        assert "matching.honest_total" in text


class TestTraceDiff:
    def records(self, honest=6, shards=2):
        recs = [
            {"type": "run", "command": "validate"},
            {"type": "metric", "kind": "counter",
             "name": "matching.honest_total", "value": honest},
            {"type": "metric", "kind": "counter",
             "name": "runtime.shards_total", "value": shards},
        ]
        recs += [{"type": "span", "name": "shard.run"} for _ in range(shards)]
        return recs

    def test_identical_traces_diff_clean(self):
        assert diff_traces(self.records(), self.records()).entries == []

    def test_semantic_metric_drift_is_regression(self):
        diff = diff_traces(self.records(honest=6), self.records(honest=7))
        assert diff.has_regressions
        assert diff.regressions()[0].key == "counter:matching.honest_total"

    def test_execution_shape_differences_are_info(self):
        diff = diff_traces(self.records(shards=2), self.records(shards=5))
        assert not diff.has_regressions
        assert [e.section for e in diff.entries] == ["trace.spans"]
