"""Production stay-point kernel vs the scalar oracle: bit-level parity.

The lockstep-lane kernel must reproduce the scalar reference loop
(``oracles.extract_visits_scalar``) *exactly* — same visit ids, same
float64 centroids, same timestamps, same POI annotation — for any trace
and any block of users.  The property tests throw randomised traces
with recording gaps, jitter and dwell-threshold edge cases at both, one
user at a time and many users per block; the annotation tests pin the
radius boundary and tie rule of the one batched POI query against the
oracle's per-visit ``BucketGrid.nearest``; the golden tests anchor parity
to the committed fixture through the full pipeline at several worker
counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from helpers import make_poi
from oracles import extract_visits_scalar
from repro.core import VisitConfig, build_poi_index, extract_visits, validate
from repro.core import visits as visits_module
from repro.io import load_dataset
from repro.model import GpsPoint, GpsTrace

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_study"

MIN = 60.0


def both_kernels(points, config_kwargs=None):
    config = VisitConfig(**(config_kwargs or {}))
    scalar = extract_visits_scalar(points, "u0", config)
    vector = extract_visits(points, "u0", config)
    return scalar, vector


def assert_identical(scalar, vector):
    # Dataclass equality on Visit compares every float field exactly —
    # bit-identity, not approximate agreement.
    assert vector == scalar


@st.composite
def traces(draw):
    """Randomised traces exercising the kernel's branchy edge cases.

    Interleaves stationary dwells (from sub-dwell to multi-window
    length), movement bursts and recording gaps; adds positional jitter
    around the roam-radius boundary so cluster membership decisions are
    razor-edge.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_phases = draw(st.integers(0, 8))
    t = 0.0
    x, y = 0.0, 0.0
    points = []
    for _ in range(n_phases):
        kind = draw(st.sampled_from(["dwell", "move", "gap"]))
        if kind == "gap":
            # Straddle the max_gap_s=600 boundary from both sides.
            t += draw(st.sampled_from([599.0, 600.0, 601.0, 4000.0]))
            continue
        n = draw(st.integers(1, 40))
        period = draw(st.sampled_from([30.0, 60.0, 90.0]))
        for _ in range(n):
            if kind == "move":
                x += float(rng.normal(200.0, 50.0))
                y += float(rng.normal(0.0, 50.0))
            else:
                # Jitter at the scale of the 80 m roam radius, so some
                # samples fall just inside and some just outside.
                x += float(rng.normal(0.0, 40.0))
                y += float(rng.normal(0.0, 40.0))
            points.append(GpsPoint(t=t, x=x, y=y))
            t += period
    return points


@given(traces())
@settings(max_examples=150, deadline=None)
def test_kernels_bit_identical_on_random_traces(points):
    scalar, vector = both_kernels(points)
    assert_identical(scalar, vector)


@given(traces())
@settings(max_examples=50, deadline=None)
def test_kernels_bit_identical_with_tight_thresholds(points):
    scalar, vector = both_kernels(
        points, {"dwell_s": 90.0, "roam_radius_m": 45.0, "max_gap_s": 120.0}
    )
    assert_identical(scalar, vector)


def test_kernels_agree_on_unsorted_input():
    rng = np.random.default_rng(3)
    pts = [
        GpsPoint(t=float(t), x=float(rng.normal(0, 30)), y=float(rng.normal(0, 30)))
        for t in rng.choice(np.arange(0.0, 3600.0, 60.0), size=40)
    ]
    scalar, vector = both_kernels(pts)
    assert_identical(scalar, vector)


def test_kernels_agree_on_trace_and_list_inputs():
    rng = np.random.default_rng(4)
    t = np.arange(0.0, 40 * MIN, MIN)
    trace = GpsTrace(t, rng.normal(0, 30, t.size), rng.normal(0, 30, t.size))
    from_trace = both_kernels(trace)
    from_list = both_kernels(trace.to_points())
    assert from_trace[0] == from_list[0]
    assert_identical(*from_trace)
    assert_identical(*from_list)


def test_window_growth_covers_long_stays():
    # A stay much longer than the first scan window forces several
    # window doublings; the fresh-cumsum rule must keep bit-identity.
    n = 600  # 10 hours of per-minute samples, one cluster
    rng = np.random.default_rng(5)
    trace = GpsTrace(
        np.arange(n) * MIN, rng.normal(0, 10, n), rng.normal(0, 10, n)
    )
    scalar, vector = both_kernels(trace)
    assert len(scalar) == 1
    assert_identical(scalar, vector)


@st.composite
def user_blocks(draw):
    """A shard's worth of users plus POIs around their traces.

    Users are the randomised traces above (empty and one-sample traces
    included), some with a stay longer than the first scan window; the
    block size is drawn small so lanes cross block boundaries.  POIs sit
    on and near stay centres, one of them duplicated.
    """
    users = []
    for u in range(draw(st.integers(0, 9))):
        points = draw(traces())
        if draw(st.booleans()):
            # A stay of 65..200 per-minute samples: window growth.
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            t0 = points[-1].t + 60.0 if points else 0.0
            n = draw(st.integers(65, 200))
            points = points + [
                GpsPoint(
                    t=t0 + k * MIN,
                    x=float(rng.normal(0, 10)),
                    y=float(rng.normal(0, 10)),
                )
                for k in range(n)
            ]
        users.append((f"u{u}", points))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xy = rng.normal(0.0, 400.0, size=(draw(st.integers(0, 12)), 2))
    pois = [make_poi(f"p{k}", float(x), float(y)) for k, (x, y) in enumerate(xy)]
    if pois:
        pois.append(make_poi("dup", pois[0].x, pois[0].y))
    block = draw(st.sampled_from([1, 2, 3, visits_module._BLOCK_USERS]))
    # 1: every round takes the matrix window step, even a lone lane.
    matrix_lanes = draw(st.sampled_from([1, visits_module._MATRIX_LANES]))
    return users, pois, block, matrix_lanes


@given(user_blocks())
@settings(max_examples=60, deadline=None)
def test_block_kernel_matches_oracle_per_user(case):
    """Production's shard worker (users in lockstep blocks, one POI
    query per block) equals the oracle run one user at a time, with
    either window step."""
    users, pois, block, matrix_lanes = case
    config = VisitConfig()
    payload = (config, pois, [(uid, GpsTrace.coerce(pts)) for uid, pts in users])
    with mock.patch.object(visits_module, "_BLOCK_USERS", block), mock.patch.object(
        visits_module, "_MATRIX_LANES", matrix_lanes
    ):
        got = visits_module._extract_shard(payload)
    poi_index = build_poi_index(pois)
    assert list(got) == [uid for uid, _ in users]
    for uid, pts in users:
        assert_identical(extract_visits_scalar(pts, uid, config, poi_index), got[uid])


@given(traces(), st.integers(0, 99_999))
@settings(max_examples=40, deadline=None)
def test_one_user_call_continues_the_counter(points, start_counter):
    pois = [make_poi("p0", 0.0, 0.0), make_poi("p1", 120.0, -40.0)]
    poi_index = build_poi_index(pois)
    assert_identical(
        extract_visits_scalar(points, "u0", None, poi_index, start_counter),
        extract_visits(points, "u0", None, poi_index, start_counter),
    )


def stay_at_origin(minutes=20):
    """A stay whose centroid is exactly (0, 0)."""
    return [GpsPoint(t=k * MIN, x=0.0, y=0.0) for k in range(minutes)]


@pytest.mark.parametrize(
    "pois, expected",
    [
        # Exactly at the annotation radius: inside (<=).
        ([make_poi("edge", 150.0, 0.0)], "edge"),
        # One nanometre-scale step beyond it: outside.
        ([make_poi("beyond", 150.0 + 1e-9, 0.0)], None),
        # Identical coordinates: the first inserted wins, as with nearest.
        ([make_poi("first", 30.0, 40.0), make_poi("second", 30.0, 40.0)], "first"),
        # The nearer of two wins whatever the insertion order.
        ([make_poi("far", 0.0, 100.0), make_poi("near", 0.0, -60.0)], "near"),
    ],
)
def test_annotation_edges_match_nearest(pois, expected):
    config = VisitConfig()
    poi_index = build_poi_index(pois)
    [visit] = extract_visits(stay_at_origin(), "u0", config, poi_index)
    [oracle] = extract_visits_scalar(stay_at_origin(), "u0", config, poi_index)
    assert (visit.x, visit.y) == (0.0, 0.0)
    assert visit.poi_id == oracle.poi_id == expected
    assert visit == oracle


def scalar_visits(dataset):
    """Populate every user's visits with the scalar oracle, as the
    pipeline's extract stage would (it leaves populated users alone)."""
    poi_index = build_poi_index(dataset.pois)
    for user_id, data in dataset.users.items():
        data.visits = extract_visits_scalar(
            data.gps, user_id, VisitConfig(), poi_index
        )
    return dataset


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize("kernel", ["scalar", "vectorized"])
def test_golden_pipeline_identical_for_all_kernels(workers, kernel):
    """Full pipeline on the committed fixture: visits from either the
    oracle or production, at every worker count, reproduce the frozen
    expected counts and summary."""
    expected = json.loads((GOLDEN_DIR / "expected.json").read_text(encoding="utf-8"))
    dataset = load_dataset(GOLDEN_DIR)
    if kernel == "scalar":
        scalar_visits(dataset)
    report = validate(dataset, workers=workers)
    assert report.n_honest == expected["venn"]["honest"]
    assert report.n_extraneous == expected["venn"]["extraneous"]
    assert report.n_missing == expected["venn"]["missing"]
    assert report.summary() == expected["summary"]


def test_golden_visits_bit_identical_across_kernels():
    """Strongest form: every extracted visit equal field-for-field."""
    vector = validate(load_dataset(GOLDEN_DIR)).dataset
    scalar = scalar_visits(load_dataset(GOLDEN_DIR))
    assert set(scalar.users) == set(vector.users)
    for user_id in scalar.users:
        assert vector.users[user_id].visits == scalar.users[user_id].visits
