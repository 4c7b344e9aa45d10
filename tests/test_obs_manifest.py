"""Run manifests: hashing, fingerprints, round-trip, rendering."""

from __future__ import annotations

import json

import pytest

from repro.core import ClassifyConfig, MatchConfig, VisitConfig
from repro.obs import (
    SCHEMA_VERSION,
    RunManifest,
    build_manifest,
    config_hash,
    dataset_fingerprint,
)

from helpers import make_checkin, make_dataset, make_user


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(MatchConfig()) == config_hash(MatchConfig())

    def test_sensitive_to_any_threshold(self):
        assert config_hash(MatchConfig()) != config_hash(MatchConfig(alpha_m=501.0))

    def test_sensitive_to_config_class(self):
        # Same field values, different class -> different hash.
        assert config_hash(MatchConfig()) != config_hash(ClassifyConfig())

    def test_order_matters_and_composes(self):
        a = config_hash(VisitConfig(), MatchConfig())
        b = config_hash(MatchConfig(), VisitConfig())
        assert a != b
        assert len(a) == 64  # sha256 hex


class TestDatasetFingerprint:
    def dataset(self):
        return make_dataset(
            [
                make_user("u0", checkins=[make_checkin("c0", "u0", t=0.0)]),
                make_user("u1"),
            ]
        )

    def test_stable_across_builds(self):
        assert dataset_fingerprint(self.dataset()) == dataset_fingerprint(self.dataset())

    def test_changes_when_data_changes(self):
        base = dataset_fingerprint(self.dataset())
        grown = self.dataset()
        grown.users["u1"].checkins.append(make_checkin("c9", "u1", t=9.0))
        changed = dataset_fingerprint(grown)
        assert changed["sha256"] != base["sha256"]
        assert changed["n_checkins"] == base["n_checkins"] + 1

    def test_counts_in_fingerprint(self):
        fp = dataset_fingerprint(self.dataset())
        assert fp["n_users"] == 2
        assert fp["n_checkins"] == 1
        assert fp["name"] == fp["name"]  # present


class TestRoundTrip:
    def manifest(self):
        return build_manifest(
            "validate",
            dataset=make_dataset([make_user("u0")]),
            configs=(VisitConfig(), MatchConfig(), ClassifyConfig()),
            seeds={"primary": 20131121},
            workers=2,
            timings={"wall_s": 1.25, "stages": []},
            metrics={"counters": {"matching.honest_total": 6},
                     "gauges": {}, "histograms": {}},
            extra={"scale": 0.15},
        )

    def test_write_load_round_trip(self, tmp_path):
        manifest = self.manifest()
        path = manifest.write(tmp_path / "run.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest
        assert loaded.as_dict() == manifest.as_dict()

    def test_written_json_shape(self, tmp_path):
        path = self.manifest().write(tmp_path / "m.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["command"] == "validate"
        assert data["seeds"] == {"primary": 20131121}
        assert data["metrics"]["counters"]["matching.honest_total"] == 6

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = self.manifest().write(tmp_path / "m.json")
        data = json.loads(path.read_text(encoding="utf-8"))
        data["schema_version"] = 99
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="schema_version"):
            RunManifest.load(path)

    def test_counter_accessor(self):
        manifest = self.manifest()
        assert manifest.counter("matching.honest_total") == 6
        assert manifest.counter("nonexistent") == 0

    def test_format_report_mentions_key_fields(self):
        text = self.manifest().format_report()
        assert "validate" in text
        assert "config hash" in text
        assert "matching.honest_total" in text
        assert "primary=20131121" in text

    def test_format_report_no_runtime_section_without_figures(self):
        text = self.manifest().format_report()
        assert "runtime:" not in text
        assert "prefetch" not in text
