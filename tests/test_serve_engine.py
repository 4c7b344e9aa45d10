"""Unit tests of the streaming engine's settlement semantics.

Pins the places where a streaming implementation could *plausibly*
diverge from batch and must not:

* the β-window edge: an event-timeline gap exactly equal to the
  settlement horizon must NOT split a chunk, because a checkin exactly
  β seconds from a visit end still matches (``<=`` in the matcher) —
  the regression that motivates the strict ``>`` cut;
* ``max_rematch_rounds``: round counts, tie-loser totals and verdicts
  must be identical in both paths even when tie-break rematching runs
  multiple rounds in one settled chunk;
* mid-stay deferral: no verdict may be emitted while events are still
  within one horizon of the high-water mark;
* snapshots: state round-trips through the two-slot store, and torn or
  mismatched snapshot files read as absent (fresh start), never as
  corrupt state;
* event decoding: a NaN or infinite time or position is rejected where
  the event enters, never fed to the kernels.
"""

from __future__ import annotations

import pytest

from helpers import make_checkin, make_dataset, make_poi, make_user, stationary_gps
from repro.core import MatchConfig, VisitConfig, validate
from repro.obs import ObsContext, activate, config_hash
from repro.serve import (
    ServeConfig,
    ServeStateStore,
    StreamEngine,
    ValidationService,
    read_events,
)
from repro.synth import replay_events

#: The settlement horizon at default configs (max of β, max_gap, ...).
HORIZON = ServeConfig().settlement_horizon_s()


def both_paths(dataset, config=None):
    """(batch report+ctx, serve service+summary+ctx) over ``dataset``."""
    serve_config = config or ServeConfig()
    batch_ctx = ObsContext()
    with activate(batch_ctx):
        report = validate(
            dataset,
            visit_config=serve_config.visit,
            match_config=serve_config.match,
            classify_config=serve_config.classify,
        )
    serve_ctx = ObsContext()
    service = ValidationService(
        dataset.pois, serve_config, name=dataset.name, obs=serve_ctx,
    )
    for event in replay_events(dataset):
        service.ingest(event)
    summary = service.finish()
    return report, batch_ctx, service, summary, serve_ctx


def labels_of(service):
    return {
        v.subject_id: v.label
        for verdicts in service.verdicts.values()
        for v in verdicts
        if v.kind == "checkin"
    }


def batch_labels_of(report):
    return {cid: label.value for cid, label in report.classification.labels.items()}


class TestHorizonEdge:
    def test_horizon_is_beta_at_defaults(self):
        config = ServeConfig()
        assert HORIZON == config.match.beta_s == 1800.0

    def test_checkin_exactly_beta_after_visit_still_matches(self):
        """Gap == horizon must not split: the checkin sits exactly β
        after the visit end and batch matches it (``dt <= β``)."""
        gps = stationary_gps(0.0, 0.0, 0.0, 600.0)
        checkin = make_checkin("c0", t=600.0 + HORIZON, x=0.0, y=0.0)
        dataset = make_dataset(
            [make_user("u0", gps=gps, checkins=[checkin])], [make_poi()]
        )
        report, _, service, summary, _ = both_paths(dataset)
        assert batch_labels_of(report) == {"c0": "honest"}
        assert labels_of(service) == {"c0": "honest"}
        assert summary.summary() == report.summary()
        # One chunk: the gap equalled the horizon, so nothing split.
        assert summary.n_chunks == 1

    def test_checkin_just_past_beta_splits_and_stays_extraneous(self):
        """One second past the horizon the chunk splits — and batch
        agrees the checkin is extraneous (dt > β), so splitting is
        exactly as aggressive as it is allowed to be."""
        gps = stationary_gps(0.0, 0.0, 0.0, 600.0)
        checkin = make_checkin("c0", t=601.0 + HORIZON, x=0.0, y=0.0)
        dataset = make_dataset(
            [make_user("u0", gps=gps, checkins=[checkin])], [make_poi()]
        )
        report, _, service, summary, _ = both_paths(dataset)
        assert batch_labels_of(report) == {"c0": "other"}
        assert labels_of(service) == {"c0": "other"}
        assert summary.summary() == report.summary()
        assert summary.n_chunks == 2

    def test_settlement_defers_within_horizon(self):
        """While every event is within one horizon of the high-water
        mark, nothing may settle — verdicts only appear at finish."""
        gps = stationary_gps(0.0, 0.0, 0.0, 600.0)
        checkin = make_checkin("c0", t=300.0, x=0.0, y=0.0)
        dataset = make_dataset(
            [make_user("u0", gps=gps, checkins=[checkin])], [make_poi()]
        )
        service = ValidationService(dataset.pois, name=dataset.name)
        for event in replay_events(dataset):
            service.ingest(event)
            assert service.verdicts_emitted == 0
        summary = service.finish()
        assert summary.n_verdicts > 0

    def test_settlement_fires_once_gap_clears_horizon(self):
        """An in-order arrival more than 2H past a stay settles it
        immediately (watermark has passed gap + horizon)."""
        gps = stationary_gps(0.0, 0.0, 0.0, 600.0)
        checkin = make_checkin("c0", t=300.0, x=0.0, y=0.0)
        dataset = make_dataset(
            [make_user("u0", gps=gps, checkins=[checkin])], [make_poi()]
        )
        service = ValidationService(dataset.pois, name=dataset.name)
        for event in replay_events(dataset):
            service.ingest(event)
        from repro.serve import gps_event

        service.ingest(gps_event("u0", 600.0 + 2 * HORIZON + 1.0, 5000.0, 0.0))
        assert service.verdicts_emitted > 0


class TestRematchIdentity:
    def _contention_dataset(self):
        """Two checkins claiming one visit; the tie loser rematches to a
        second visit in round 2.  A second, independent single-round
        stay sits one-horizon-plus away, so the streaming path must
        take the max round count over chunks, not the sum."""
        gps = (
            stationary_gps(0.0, 0.0, 0.0, 600.0)
            + stationary_gps(400.0, 0.0, 700.0, 1320.0)
            + stationary_gps(0.0, 0.0, 1320.0 + HORIZON + 60.0,
                             1920.0 + HORIZON + 60.0)
        )
        checkins = [
            make_checkin("c0", t=300.0, x=0.0, y=0.0),
            make_checkin("c1", t=300.0, x=50.0, y=0.0),
            make_checkin("c2", t=1620.0 + HORIZON + 60.0, x=0.0, y=0.0),
        ]
        return make_dataset(
            [make_user("u0", gps=gps, checkins=checkins)], [make_poi()]
        )

    @pytest.mark.parametrize("max_rounds", [1, 2, 10])
    def test_rematch_rounds_identical(self, max_rounds):
        config = ServeConfig(
            match=MatchConfig(rematch_losers=True, max_rematch_rounds=max_rounds)
        )
        dataset = self._contention_dataset()
        report, batch_ctx, service, summary, serve_ctx = both_paths(
            dataset, config
        )
        assert labels_of(service) == batch_labels_of(report)
        assert summary.summary() == report.summary()
        batch_counters = batch_ctx.metrics.snapshot()["counters"]
        serve_counters = serve_ctx.metrics.snapshot()["counters"]
        for name in (
            "matching.rounds_total",
            "matching.rematch_rounds",
            "matching.tie_losers_total",
            "matching.honest_total",
            "matching.extraneous_total",
        ):
            assert serve_counters.get(name) == batch_counters.get(name), name
        if max_rounds >= 2:
            # The contention really produced a second round.
            assert serve_counters["matching.rounds_total"] == 2

    def test_paper_mode_single_round(self):
        dataset = self._contention_dataset()
        report, batch_ctx, service, _, serve_ctx = both_paths(dataset)
        assert labels_of(service) == batch_labels_of(report)
        assert (
            serve_ctx.metrics.snapshot()["counters"]["matching.rounds_total"]
            == batch_ctx.metrics.snapshot()["counters"]["matching.rounds_total"]
        )


class TestLateness:
    def test_late_event_beyond_bound_rejected(self):
        from repro.serve import gps_event

        service = ValidationService([make_poi()], ServeConfig())
        from repro.serve import register_event

        service.ingest(register_event("u0"))
        service.ingest(gps_event("u0", 1000.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="late"):
            service.ingest(gps_event("u0", 900.0, 0.0, 0.0))

    def test_finalize_settles_tail_after_gap_under_large_lateness(self):
        """Regression: with a lateness bound so large the watermark
        never seals the gap before end of stream, finalize (force) must
        still settle everything *after* the last gap.  The force path
        once stopped the cutoff at the last gap boundary, silently
        dropping all tail verdicts and leaving events pending forever."""
        gap = 50_000.0
        gps = (
            stationary_gps(0.0, 0.0, 0.0, 600.0)
            + stationary_gps(0.0, 0.0, gap, gap + 600.0)
        )
        checkins = [
            make_checkin("c0", t=300.0, x=0.0, y=0.0),
            make_checkin("c1", t=gap + 300.0, x=0.0, y=0.0),
        ]
        dataset = make_dataset(
            [make_user("u0", gps=gps, checkins=checkins)], [make_poi()]
        )
        config = ServeConfig(allowed_lateness_s=100_000.0)
        report, _, service, summary, _ = both_paths(dataset, config)
        assert batch_labels_of(report) == {"c0": "honest", "c1": "honest"}
        assert labels_of(service) == batch_labels_of(report)
        assert summary.summary() == report.summary()
        # Two chunks (split at the gap), and nothing left pending.
        assert summary.n_chunks == 2
        for state in service._states.values():
            assert state.pending_count() == 0

    def test_out_of_order_within_bound_matches_batch(self):
        """A checkin arriving after later GPS (within the lateness
        bound) produces the same verdicts as the sorted batch trace."""
        gps = stationary_gps(0.0, 0.0, 0.0, 600.0)
        checkin = make_checkin("c0", t=300.0, x=0.0, y=0.0)
        dataset = make_dataset(
            [make_user("u0", gps=gps, checkins=[checkin])], [make_poi()]
        )
        batch_ctx = ObsContext()
        with activate(batch_ctx):
            report = validate(dataset)
        config = ServeConfig(allowed_lateness_s=600.0)
        service = ValidationService(dataset.pois, config, name=dataset.name)
        events = [e for e in replay_events(dataset)]
        # Deliver the checkin last: 300 s behind the final fix at 600 s.
        checkin_events = [e for e in events if e.kind == "checkin"]
        others = [e for e in events if e.kind != "checkin"]
        for event in others + checkin_events:
            service.ingest(event)
        summary = service.finish()
        assert labels_of(service) == batch_labels_of(report)
        assert summary.summary() == report.summary()


class TestSnapshotStore:
    def _state(self):
        engine = StreamEngine(ServeConfig(), build_index())
        state = engine.new_state("u0")
        from repro.serve import gps_event

        engine.ingest(state, gps_event("u0", 60.0, 1.0, 2.0))
        engine.ingest(state, gps_event("u0", 120.0, 1.0, 2.0))
        return state

    def test_user_state_round_trips(self, tmp_path):
        store = ServeStateStore(tmp_path)
        key = config_hash(ServeConfig())
        state = self._state()
        store.save_user(key, 1, state)
        loaded = store.load_user(key, 1, "u0")
        assert loaded is not None
        assert loaded.pending_gps == state.pending_gps
        assert loaded.max_seen_t == state.max_seen_t
        assert loaded.verdict_seq == state.verdict_seq

    def test_wrong_key_or_generation_reads_absent(self, tmp_path):
        store = ServeStateStore(tmp_path)
        key = config_hash(ServeConfig())
        store.save_user(key, 1, self._state())
        assert store.load_user("deadbeef", 1, "u0") is None
        assert store.load_user(key, 2, "u0") is None

    def test_torn_cursor_reads_absent(self, tmp_path):
        store = ServeStateStore(tmp_path)
        key = config_hash(ServeConfig())
        store.save_cursor(key, {"cursor": 10, "generation": 1, "users": []})
        cursor_file = tmp_path / "serve-cursor.pkl"
        cursor_file.write_bytes(cursor_file.read_bytes()[:7])
        assert store.load_cursor(key) is None

    def test_restore_with_missing_user_file_starts_fresh(self, tmp_path):
        """A cursor naming a user whose state file is gone must fall
        back to a fresh start, not a partial restore."""
        store = ServeStateStore(tmp_path)
        key = config_hash(ServeConfig())
        store.save_user(key, 1, self._state())
        store.save_cursor(
            key,
            {"cursor": 10, "generation": 1, "users": ["u0", "ghost"],
             "verdicts_total": 0, "name": "t", "n_pois": 0},
        )
        service = ValidationService([], ServeConfig(), state_store=store)
        assert service.restore() == 0


#: Trace events with a NaN or infinite field, in both JSON spellings: a
#: quoted string that ``float()`` parses, and the bare token Python's
#: ``json`` module accepts.
NON_FINITE_LINES = [
    '{"kind": "gps", "user_id": "u0", "t": "nan", "x": "inf", "y": 1}',
    '{"kind": "gps", "user_id": "u0", "t": 60.0, "x": 1.0, "y": NaN}',
    '{"kind": "gps", "user_id": "u0", "t": Infinity, "x": 1.0, "y": 2.0}',
    '{"kind": "checkin", "user_id": "u0", "checkin": {"checkin_id": "c0", '
    '"poi_id": "p0", "x": "-inf", "y": 0.0, "t": 60.0, "category": "Food"}}',
    '{"kind": "checkin", "user_id": "u0", "checkin": {"checkin_id": "c0", '
    '"poi_id": "p0", "x": 0.0, "y": 0.0, "t": NaN, "category": "Food"}}',
]


class TestEventDecoding:
    @pytest.mark.parametrize(
        "line", NON_FINITE_LINES,
        ids=["gps-strings", "gps-y-nan", "gps-t-infinity", "checkin-x-string",
             "checkin-t-nan"],
    )
    def test_non_finite_fields_rejected(self, tmp_path, line):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"kind": "register", "user_id": "u0"}\n'
            '{"kind": "gps", "user_id": "u0", "t": 0.0, "x": 1.0, "y": 2.0}\n'
            + line + "\n"
        )
        events = read_events(path)
        assert [e.kind for e in (next(events), next(events))] == [
            "register", "gps",
        ]
        with pytest.raises(ValueError, match="non-finite"):
            next(events)


def build_index():
    from repro.core import build_poi_index

    return build_poi_index([make_poi()])
