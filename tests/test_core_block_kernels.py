"""Shard-at-once matching and classification vs the per-user oracles.

Production matches and classifies a whole shard of users with one
same-user candidate pass (:func:`repro.geo.grid.owner_pairs_within`),
one ``lexsort`` ranking every checkin's candidates, and per-shard
counters.  The oracles in ``oracles.py`` are the per-user loops it
replaced: a grid index and radius query per user, a candidate scan per
checkin, counters bumped per user and per round.  Everything must agree
exactly — matches, extraneous and missing lists in order, taxonomy
labels, :class:`MatchStats`, and every counter and histogram the stages
leave behind.  Shards are drawn on a 100 m / 5 min lattice so checkins
land exactly on α and β, and two checkins often claim one visit from the
same distance, where the ``checkin_id`` decides.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_checkin, make_visit
from oracles import (
    classify_shard_reference,
    classify_user_extraneous_reference,
    match_shard_reference,
    match_user_reference,
)
from repro.core import (
    ClassifyConfig,
    MatchConfig,
    MatchStats,
    classify_user_extraneous,
    match_user,
)
from repro.core.classify import _classify_shard
from repro.core.matching import _match_shard
from repro.geo import grid
from repro.geo.grid import owner_pairs_within, pairs_within
from repro.model import GpsTrace
from repro.obs import NULL_OBS, ObsContext, activate

STEP_M = 100.0
STEP_S = 300.0

CONFIGS = [
    MatchConfig(),
    MatchConfig(rematch_losers=True),
    MatchConfig(rematch_losers=True, max_rematch_rounds=1),
    MatchConfig(rematch_losers=True, max_rematch_rounds=2),
]


@st.composite
def users(draw, uid):
    """One user's visits, checkins and GPS trace on the lattice."""
    n_visits = draw(st.integers(0, 8))
    # Distinct starts, as no trace opens two visits at once; but visits
    # may overlap, and the list need not be in start order.
    starts = draw(
        st.lists(st.integers(0, 24), min_size=n_visits, max_size=n_visits, unique=True)
    )
    coord = st.integers(-4, 4).map(lambda k: k * STEP_M)
    visits = [
        make_visit(
            f"{uid}-v{k:05d}",
            uid,
            x=draw(coord),
            y=draw(coord),
            t_start=start * STEP_S,
            t_end=(start + draw(st.sampled_from([0, 1, 2, 6]))) * STEP_S,
        )
        for k, start in enumerate(starts)
    ]
    n_checkins = draw(st.integers(0, 10))
    # Ids in a drawn order, so the id tie-break differs from list order.
    ids = draw(st.permutations(range(n_checkins)))
    checkins = [
        make_checkin(
            f"{uid}-c{ids[k]:03d}",
            uid,
            x=draw(coord),
            y=draw(coord),
            t=draw(st.integers(-8, 32)) * STEP_S,
        )
        for k in range(n_checkins)
    ]
    # Per-minute fixes, held still or jumping every 5 minutes, with gaps
    # so some checkins have no fresh fix.
    t, x, y = [], [], []
    px = py = 0.0
    for block in range(-8, 34):
        kind = draw(st.sampled_from(["stay", "stay", "jump", "gap"]))
        if kind == "gap":
            continue
        if kind == "jump":
            px, py = draw(coord), draw(coord)
        for minute in range(5):
            t.append(block * STEP_S + minute * 60.0)
            x.append(px)
            y.append(py)
    return uid, checkins, visits, GpsTrace(t, x, y)


@st.composite
def shards(draw, max_users=4):
    n = draw(st.integers(0, max_users))
    return [draw(users(f"u{k}")) for k in range(n)]


def run_counted(fn, payload):
    ctx = ObsContext()
    with activate(ctx):
        out = fn(payload)
    return out, ctx.metrics.snapshot(raw=True)


def assert_parity(shard, match_config, classify_config=None):
    """Both stages on one shard: production against the oracle."""
    match_payload = (match_config, [(uid, c, v) for uid, c, v, _ in shard])
    matched, match_counts = run_counted(_match_shard, match_payload)
    expected, expected_counts = run_counted(match_shard_reference, match_payload)
    assert list(matched) == list(expected)
    assert matched == expected
    assert match_counts == expected_counts

    for uid, checkins, visits, _ in shard:
        got_stats, want_stats = MatchStats(), MatchStats()
        got_ctx, want_ctx = ObsContext(), ObsContext()
        got = match_user(checkins, visits, match_config, obs=got_ctx, stats=got_stats)
        want = match_user_reference(
            checkins, visits, match_config, obs=want_ctx, stats=want_stats
        )
        assert got == want
        assert got_stats == want_stats
        assert got_ctx.metrics.snapshot(raw=True) == want_ctx.metrics.snapshot(raw=True)

    config = classify_config or ClassifyConfig()
    classify_payload = (
        config,
        [(uid, gps, v, expected[uid].extraneous) for uid, _, v, gps in shard],
    )
    labels, label_counts = run_counted(_classify_shard, classify_payload)
    want_labels, want_counts = run_counted(classify_shard_reference, classify_payload)
    assert labels == want_labels
    assert label_counts == want_counts
    for uid, _, visits, gps in shard:
        extraneous = expected[uid].extraneous
        assert classify_user_extraneous(
            gps, visits, extraneous, config
        ) == classify_user_extraneous_reference(gps, visits, extraneous, config)


@settings(max_examples=150, deadline=None)
@given(shard=shards(), match_config=st.sampled_from(CONFIGS))
def test_shard_matches_per_user_oracle(shard, match_config):
    assert_parity(shard, match_config)


@settings(max_examples=60, deadline=None)
@given(
    shard=shards(max_users=5),
    match_config=st.sampled_from(CONFIGS),
    block=st.integers(1, 40),
)
def test_pair_runs_cut_anywhere(shard, match_config, block):
    """Tiny pair runs: runs end mid-user and single checkins overflow them."""
    with mock.patch.object(grid, "_BLOCK_ELEMENTS", block):
        assert_parity(shard, match_config)


def lattice_user(uid, visits, checkins, gps=None):
    trace = gps or GpsTrace([0.0, 60.0], [0.0, 0.0], [0.0, 0.0])
    return uid, checkins, visits, trace


class TestEdges:
    @pytest.mark.parametrize("match_config", CONFIGS)
    def test_empty_users_and_empty_shard(self, match_config):
        shard = [
            lattice_user("u0", [], []),
            lattice_user("u1", [make_visit("u1-v0", "u1")], []),
            lattice_user("u2", [], [make_checkin("u2-c0", "u2")]),
        ]
        assert_parity(shard, match_config)
        assert_parity([], match_config)

    def test_alpha_and_beta_are_inclusive(self):
        visit = make_visit("u0-v0", "u0", x=0.0, y=0.0, t_start=0.0, t_end=600.0)
        on_alpha = make_checkin("u0-c0", "u0", x=300.0, y=400.0, t=300.0)
        on_beta = make_checkin("u0-c1", "u0", x=0.0, y=0.0, t=600.0 + 1800.0)
        past_both = make_checkin("u0-c2", "u0", x=500.1, y=0.0, t=2400.1)
        shard = [lattice_user("u0", [visit], [on_alpha, on_beta, past_both])]
        for match_config in CONFIGS:
            assert_parity(shard, match_config)
        matched = match_user([on_alpha], [visit])
        assert [c.checkin_id for c, _ in matched.matches] == ["u0-c0"]
        assert match_user([on_beta], [visit]).matches[0][0] is on_beta

    @pytest.mark.parametrize("match_config", CONFIGS)
    def test_equal_distance_claims_go_to_smaller_id(self, match_config):
        visits = [
            make_visit("u0-v0", "u0", t_start=0.0, t_end=600.0),
            make_visit("u0-v1", "u0", t_start=1200.0, t_end=1800.0),
        ]
        checkins = [
            make_checkin("u0-c9", "u0", x=100.0, t=300.0),
            make_checkin("u0-c1", "u0", x=-100.0, t=300.0),
        ]
        assert_parity([lattice_user("u0", visits, checkins)], match_config)
        matched = match_user(checkins, visits, match_config)
        assert matched.matches[0][0].checkin_id == "u0-c1"

    def test_user_past_the_pair_cap(self):
        """One user with more (checkin, visit) pairs than a run holds."""
        rng = np.random.default_rng(7)
        n_visits, n_checkins = 300, 260
        assert n_visits * n_checkins > grid._BLOCK_ELEMENTS
        starts = np.sort(rng.choice(200_000, n_visits, replace=False)) * 10.0
        visits = [
            make_visit(
                f"u0-v{k:05d}",
                "u0",
                x=float(rng.integers(0, 30)) * STEP_M,
                y=float(rng.integers(0, 30)) * STEP_M,
                t_start=float(s),
                t_end=float(s) + 600.0,
            )
            for k, s in enumerate(starts)
        ]
        checkins = [
            make_checkin(
                f"u0-c{k:04d}",
                "u0",
                x=float(rng.integers(0, 30)) * STEP_M,
                y=float(rng.integers(0, 30)) * STEP_M,
                t=float(rng.integers(0, 200_000)) * 10.0,
            )
            for k in range(n_checkins)
        ]
        gps = GpsTrace(
            np.arange(0.0, 2_000_000.0, 600.0),
            rng.integers(0, 30, 3334) * STEP_M,
            rng.integers(0, 30, 3334) * STEP_M,
        )
        shard = [lattice_user("u0", visits, checkins, gps), lattice_user("u1", [], [])]
        for match_config in CONFIGS[:2]:
            assert_parity(shard, match_config)
        assert match_user(checkins, visits, obs=NULL_OBS).matches


class TestOwnerPairs:
    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6),
        block=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_as_per_owner_pass(self, sizes, block, seed):
        rng = np.random.default_rng(seed)
        n_points = [p for p, _ in sizes]
        n_queries = [q for _, q in sizes]
        px, py = rng.normal(0, 300, (2, sum(n_points)))
        qx, qy = rng.normal(0, 300, (2, sum(n_queries)))
        with mock.patch.object(grid, "_BLOCK_ELEMENTS", block):
            rows, hit, d2 = owner_pairs_within(px, py, n_points, qx, qy, n_queries, 250.0)
        want_rows, want_hit, want_d2 = [], [], []
        p0 = q0 = 0
        for p, q in sizes:
            r, h, d = pairs_within(
                px[p0 : p0 + p], py[p0 : p0 + p], qx[q0 : q0 + q], qy[q0 : q0 + q], 250.0
            )
            want_rows.extend((r + q0).tolist())
            want_hit.extend((h + p0).tolist())
            want_d2.extend(d.tolist())
            p0 += p
            q0 += q
        assert rows.tolist() == want_rows
        assert hit.tolist() == want_hit
        assert d2.tolist() == want_d2

    @pytest.mark.parametrize("owners", [1, 2])
    def test_temporaries_stay_within_the_cap(self, owners):
        """Owners of 2,000 points and 2,000 queries each never hold all
        of their pairs at once."""
        rng = np.random.default_rng(3)
        px, py, qx, qy = rng.uniform(0, 100_000, (4, 2000 * owners))
        tracemalloc.start()
        try:
            owner_pairs_within(
                px, py, [2000] * owners, qx, qy, [2000] * owners, 500.0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4M pairs at once would need 32 MB per float64 temporary.
        assert peak < 8 * 2**20

    def test_checks_its_inputs(self):
        empty = np.zeros(0)
        with pytest.raises(ValueError, match="radius"):
            owner_pairs_within(empty, empty, [0], empty, empty, [0], -1.0)
        with pytest.raises(ValueError, match="same owners"):
            owner_pairs_within(empty, empty, [0], empty, empty, [0, 0], 1.0)
        with pytest.raises(ValueError, match="add up"):
            owner_pairs_within(empty, empty, [1], empty, empty, [0], 1.0)
