"""Live telemetry: sampler lifecycle, status file, OpenMetrics, no-op path.

The contract under test (DESIGN §12): telemetry is strictly opt-in — a
run without it constructs no sampler, spawns no thread, writes no files
and takes a ``tel is None`` branch on the ingest hot path — and when
armed it never changes the run's results: summaries, verdict streams
and manifest metrics are byte-identical with telemetry on or off.  The
status file is atomically rewritten (a concurrent reader never sees a
torn document) and the ``/metrics`` exposition round-trips through the
text-format parser.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.obs import (
    LiveMetrics,
    MetricsRegistry,
    TelemetrySampler,
    format_dashboard,
    parse_openmetrics,
    process_stats,
    read_status,
    registry_collector,
    render_openmetrics,
)
from repro.obs.telemetry import metric_family, sample_rates, split_series


def _sampler_threads():
    return [
        t for t in threading.enumerate()
        if t.name.startswith(TelemetrySampler.THREAD_NAME)
    ]


# -- naming convention and the text format ----------------------------------


class TestOpenMetricsFormat:
    def test_family_naming_convention(self):
        assert metric_family("serve.events_ingested_total") == (
            "repro_serve_events_ingested_total"
        )
        assert metric_family("store.inflight_segments") == (
            "repro_store_inflight_segments"
        )

    def test_split_series_labels(self):
        name, labels = split_series("job.items_total{shard=3}")
        assert name == "job.items_total"
        assert labels == {"shard": "3"}
        assert split_series("plain.name") == ("plain.name", {})

    def test_render_parse_round_trip(self):
        sample = {
            "uptime_s": 1.5,
            "seq": 7,
            "process": {"rss_kb": 1024.0, "cpu_s": 0.5, "threads": 3.0},
            "metrics": {
                "counters": {
                    "serve.events_ingested_total": 100,
                    "job.items_total{shard=0}": 60,
                    "job.items_total{shard=1}": 40,
                },
                "gauges": {"serve.watermark_s": 123.5},
                "histograms": {
                    "job.batch_size{shard=0}": {
                        "count": 4, "sum": 10.0, "min": 0.0, "max": 7.0,
                        "p50": 1.0, "p90": 6.0, "p99": 7.0,
                    },
                },
            },
        }
        text = render_openmetrics(sample)
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)
        ingested = families["repro_serve_events_ingested_total"]
        assert ingested["type"] == "counter"
        assert ingested["samples"][""] == 100.0
        items = families["repro_job_items_total"]
        assert items["samples"]['{shard="0"}'] == 60.0
        assert items["samples"]['{shard="1"}'] == 40.0
        assert families["repro_serve_watermark_s"]["type"] == "gauge"
        batch = families["repro_job_batch_size"]
        assert batch["type"] == "summary"
        assert batch["samples"]['{quantile="0.5",shard="0"}'] == 1.0
        assert families["repro_job_batch_size_count"][
            "samples"]['{shard="0"}'] == 4.0
        assert families["repro_process_resident_memory_kb"]["samples"][""] == (
            1024.0
        )

    def test_counters_end_in_total(self):
        sample = {"metrics": {"counters": {"serve.events_ingested_total": 1},
                              "gauges": {}, "histograms": {}}}
        for line in render_openmetrics(sample).splitlines():
            if line.startswith("# TYPE") and line.endswith(" counter"):
                family = line.split()[2]
                assert family.endswith(("_total", "_count", "_sum")), family

    def test_parser_rejects_sample_before_type(self):
        with pytest.raises(ValueError, match="before # TYPE"):
            parse_openmetrics("repro_orphan 1\n# EOF\n")


# -- building blocks --------------------------------------------------------


class TestLiveMetrics:
    def test_inc_and_gauge(self):
        live = LiveMetrics()
        live.inc("a_total", 2)
        live.inc("a_total")
        live.set_gauge("g", 4.0)
        snap = live.collect()
        assert snap["counters"]["a_total"] == 3
        assert snap["gauges"]["g"] == 4.0
        assert snap["histograms"] == {}


def test_process_stats_shape():
    stats = process_stats()
    assert set(stats) == {"rss_kb", "cpu_s", "threads"}
    assert stats["threads"] >= 1.0
    assert stats["cpu_s"] >= 0.0


def test_registry_collector_snapshots_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("pipeline.runs_total").inc()
    registry.gauge("store.inflight_segments").set(2.0)
    snap = registry_collector(registry)()
    assert snap["counters"]["pipeline.runs_total"] == 1
    assert snap["gauges"]["store.inflight_segments"] == 2.0


def test_sample_rates_counter_deltas():
    previous = {"t_epoch": 100.0,
                "metrics": {"counters": {"x_total": 10, "y_total": 5}}}
    current = {"t_epoch": 102.0,
               "metrics": {"counters": {"x_total": 30, "y_total": 5}}}
    rates = sample_rates(current, previous)
    assert rates == {"x_total": 10.0}
    assert sample_rates(current, None) == {}


# -- sampler lifecycle ------------------------------------------------------


class TestSamplerLifecycle:
    def test_status_file_written_and_finished(self, tmp_path):
        live_seen = LiveMetrics()
        with TelemetrySampler(
            collectors=[live_seen.collect], interval_s=0.02,
            status_path=tmp_path, command="test",
        ) as sampler:
            live_seen.inc("work_total", 5)
            deadline = time.monotonic() + 5.0
            while sampler.latest is None and time.monotonic() < deadline:
                time.sleep(0.01)
        status = json.loads((tmp_path / "live.json").read_text())
        assert status["schema"] == 1
        assert status["command"] == "test"
        assert status["finished"] is True
        assert status["metrics"]["counters"]["work_total"] == 5
        assert status["process"]["threads"] >= 1

    def test_close_is_idempotent_and_joins_thread(self, tmp_path):
        sampler = TelemetrySampler(interval_s=0.02, status_path=tmp_path)
        sampler.start()
        assert _sampler_threads()
        sampler.close()
        sampler.close()
        assert not _sampler_threads()

    def test_crash_path_leaves_unfinished_status(self, tmp_path):
        with pytest.raises(RuntimeError):
            with TelemetrySampler(interval_s=0.02, status_path=tmp_path):
                raise RuntimeError("boom")
        # The final sample still landed, flagged not-finished, and the
        # sampler thread is gone.
        status = read_status(tmp_path)
        assert status["finished"] is False
        assert not _sampler_threads()

    def test_ring_buffer_bounded(self):
        sampler = TelemetrySampler(interval_s=5.0, ring_size=3)
        for _ in range(10):
            sampler.sample_now()
        assert len(sampler.ring) == 3
        assert sampler.latest["seq"] == 9

    def test_broken_collector_counted_not_fatal(self, tmp_path):
        def broken():
            raise RuntimeError("racing resize")

        with TelemetrySampler(
            collectors=[broken], interval_s=0.02, status_path=tmp_path,
        ):
            pass
        status = read_status(tmp_path / "live.json")
        assert status["metrics"]["counters"][
            "telemetry.collector_errors_total"] >= 1

    def test_status_parseable_during_concurrent_rewrites(self, tmp_path):
        """A reader polling live.json mid-rewrite must never see a torn
        document — the atomic tmp+replace write is the guarantee."""
        sampler = TelemetrySampler(interval_s=5.0, status_path=tmp_path)
        sampler.sample_now()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                sampler.sample_now()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            last_seq = -1
            reads = 0
            deadline = time.monotonic() + 10.0
            # Keep reading until the writer has demonstrably rewritten the
            # file under us many times; every read must parse cleanly.
            while (last_seq < 20 or reads < 300) and time.monotonic() < deadline:
                status = read_status(tmp_path)  # raises on torn JSON
                assert status["schema"] == 1
                assert status["seq"] >= last_seq
                last_seq = status["seq"]
                reads += 1
        finally:
            stop.set()
            thread.join()
        assert last_seq >= 20


# -- HTTP endpoint ----------------------------------------------------------


class TestEndpoint:
    def test_metrics_and_live_routes(self):
        live_seen = LiveMetrics()
        live_seen.inc("serve.events_ingested_total", 42)
        with TelemetrySampler(
            collectors=[live_seen.collect], interval_s=5.0, port=0,
            command="serve",
        ) as sampler:
            base = f"http://127.0.0.1:{sampler.port}"
            text = urllib.request.urlopen(
                f"{base}/metrics", timeout=10).read().decode()
            families = parse_openmetrics(text)
            assert families["repro_serve_events_ingested_total"][
                "samples"][""] == 42.0
            assert "repro_process_resident_memory_kb" in families
            status = json.loads(urllib.request.urlopen(
                f"{base}/live", timeout=10).read().decode())
            assert status["command"] == "serve"
            scraped = read_status(base)
            assert scraped["command"] == "serve"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope", timeout=10)
        assert sampler.port is not None


# -- strict no-op when disabled ---------------------------------------------


class TestDisabledPath:
    def test_service_without_telemetry_builds_no_instruments(self, monkeypatch):
        """telemetry=False must not construct ServeTelemetry at all —
        the hot path branches on ``tel is None``."""
        import repro.serve.service as service_mod
        from repro.model import Poi, PoiCategory

        def forbidden(*args, **kwargs):
            raise AssertionError("ServeTelemetry constructed while disabled")

        monkeypatch.setattr(service_mod, "ServeTelemetry", forbidden)
        poi = Poi(poi_id="p0", name="p0", category=PoiCategory.FOOD,
                  x=0.0, y=0.0)
        service = service_mod.ValidationService([poi])
        assert service.telemetry is None
        service.finish()

    def test_no_sampler_thread_or_files_without_flags(self, tmp_path):
        before = _sampler_threads()
        assert before == []
        from repro.cli import main

        out = tmp_path / "ds"
        assert main(["generate", "--scale", "0.02", "--out", str(out)]) == 0
        assert main(["validate", "--data", str(out)]) == 0
        assert _sampler_threads() == []
        assert not list(tmp_path.glob("**/live.json"))

    def test_validate_store_ignores_absent_telemetry(self, tmp_path):
        from repro.core import validate_store
        from repro.synth import generate_study_store, primary_config

        store = generate_study_store(
            primary_config().scaled(0.02), tmp_path / "store",
            segment_users=5,
        )
        summary = validate_store(store, telemetry=None)
        assert summary.n_users == store.n_users
        assert _sampler_threads() == []


# -- results are identical with telemetry on --------------------------------


class TestParity:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        from repro.synth import generate_dataset, primary_config

        return generate_dataset(primary_config().scaled(0.02))

    def test_serve_summary_and_verdicts_identical(self, small_dataset,
                                                  tmp_path):
        from repro.serve import ValidationService
        from repro.synth import replay_events

        events = list(replay_events(small_dataset))

        def run(telemetry: bool):
            got = []
            service = ValidationService(
                small_dataset.pois, name=small_dataset.name,
                sink=got.append, telemetry=telemetry,
            )
            sampler = None
            if telemetry:
                sampler = TelemetrySampler(
                    collectors=[service.telemetry.collect],
                    interval_s=0.01, status_path=tmp_path, command="serve",
                ).start()
            for event in events:
                service.ingest(event)
            summary = service.finish()
            if sampler is not None:
                sampler.close()
            return summary, [v.as_dict() for v in got]

        summary_off, verdicts_off = run(False)
        summary_on, verdicts_on = run(True)
        assert summary_on.summary() == summary_off.summary()
        assert verdicts_on == verdicts_off
        status = read_status(tmp_path)
        counters = status["metrics"]["counters"]
        # Registrations are bookkeeping: the ingest counter covers trace
        # events (gps + checkin) only.
        n_trace = sum(1 for e in events if e.kind != "register")
        assert counters["serve.events_ingested_total"] == n_trace
        assert counters["serve.verdicts_emitted_total"] == len(verdicts_on)
        gauges = status["metrics"]["gauges"]
        assert "serve.watermark_s" in gauges
        assert "serve.watermark_wall_lag_s" in gauges
        assert gauges["serve.backlog_events"] == 0.0
        dashboard = format_dashboard(status)
        assert "events" in dashboard and "watermark" in dashboard

    def test_validate_store_output_identical_and_live_published(
        self, tmp_path,
    ):
        from repro.core import validate_store
        from repro.synth import generate_study_store, primary_config

        store = generate_study_store(
            primary_config().scaled(0.05), tmp_path / "store",
            segment_users=4,
        )
        plain = validate_store(store, workers=2, inflight_segments=2)
        sampler = TelemetrySampler(
            interval_s=0.01, status_path=tmp_path / "tel", command="validate",
        ).start()
        telemetered = validate_store(
            store, workers=2, inflight_segments=2, telemetry=sampler,
        )
        sampler.close()
        assert telemetered.summary() == plain.summary()
        status = read_status(tmp_path / "tel")
        gauges = status["metrics"]["gauges"]
        assert gauges["store.segments_done"] == len(store.segments)
        assert gauges["store.segments_planned"] == len(store.segments)
        assert gauges["store.users_done"] == store.n_users
        assert status["metrics"]["counters"][
            "store.users_done_total"] == store.n_users
        assert "store.prefetch_overlap" in gauges
        dashboard = format_dashboard(status)
        assert "segments" in dashboard and "pipeline" in dashboard


# -- the monitor CLI --------------------------------------------------------


class TestMonitorCli:
    def test_monitor_once_renders_finished_run(self, tmp_path, capsys):
        from repro.cli import main

        live_seen = LiveMetrics()
        with TelemetrySampler(
            collectors=[live_seen.collect], interval_s=5.0,
            status_path=tmp_path, command="serve",
        ):
            live_seen.inc("serve.events_ingested_total", 10)
        assert main(["monitor", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro live telemetry" in out
        assert "[finished]" in out

    def test_monitor_waits_until_finished(self, tmp_path, capsys):
        from repro.cli import main

        sampler = TelemetrySampler(interval_s=0.05, status_path=tmp_path)
        sampler.start()
        finisher = threading.Timer(0.4, sampler.close)
        finisher.start()
        try:
            assert main(["monitor", str(tmp_path), "--interval", "0.1"]) == 0
        finally:
            finisher.join()
            sampler.close()
        assert "[finished]" in capsys.readouterr().out

    def test_monitor_unreachable_target_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["monitor", str(tmp_path / "missing"), "--once"]) == 2
        assert "cannot read telemetry" in capsys.readouterr().err

    def test_monitor_rejects_bad_interval(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["monitor", str(tmp_path), "--interval", "0"]) == 2
        assert "--interval" in capsys.readouterr().err
