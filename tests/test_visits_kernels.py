"""Production stay-point kernel vs the scalar oracle: bit-level parity.

The columnar kernel must reproduce the scalar reference loop
(``oracles.extract_visits_scalar``) *exactly* — same visit ids, same
float64 centroids, same timestamps — for any trace.  The property test
throws randomised traces with recording gaps, jitter and dwell-threshold
edge cases at both; the golden tests anchor parity to the committed
fixture through the full pipeline at several worker counts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import extract_visits_scalar
from repro.core import VisitConfig, build_poi_index, extract_visits, validate
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
