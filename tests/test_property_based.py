"""Property-based tests (hypothesis) on core data structures and invariants."""

import atexit
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MatchConfig, match_dataset, match_user
from repro.core.visits import VisitConfig, extract_visits
from repro.geo import GridIndex, LocalProjection, haversine
from repro.levy.generate import _reflect
from repro.model import GpsPoint
from repro.runtime import ParallelExecutor, SerialExecutor
from repro.stats import Ecdf, entropy_from_counts, fit_pareto, ks_distance, pearson
from helpers import make_checkin, make_dataset, make_user, make_visit

_POOL = None


def shared_pool() -> ParallelExecutor:
    """One lazily created 2-worker pool for all executor properties."""
    global _POOL
    if _POOL is None:
        _POOL = ParallelExecutor(workers=2)
        atexit.register(_POOL.close)
    return _POOL

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# Millimetre-quantised coordinates: subnormal-magnitude values make the
# naive squared-distance brute force underflow, disagreeing with the
# index over distances of 1e-243 m — noise with no physical meaning.
coords = st.floats(min_value=-50_000, max_value=50_000, allow_nan=False).map(
    lambda v: round(v, 3)
)


@st.composite
def point_sets(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    return [
        (draw(coords), draw(coords), i)
        for i in range(n)
    ]


class TestGridIndexProperties:
    @given(points=point_sets(), qx=coords, qy=coords,
           radius=st.floats(min_value=0, max_value=100_000).map(lambda v: round(v, 3)))
    @settings(max_examples=60, deadline=None)
    def test_within_matches_bruteforce(self, points, qx, qy, radius):
        xs, ys, items = zip(*points)
        index = GridIndex.from_columns(xs, ys, items, cell_size=1500.0)
        [hits] = index.within_many([qx], [qy], radius)
        got = sorted(item for _, item in hits)
        expected = sorted(
            item
            for x, y, item in points
            if (x - qx) * (x - qx) + (y - qy) * (y - qy) <= radius * radius
        )
        assert got == expected

    @given(points=point_sets(), qx=coords, qy=coords)
    @settings(max_examples=60, deadline=None)
    def test_nearest_matches_bruteforce(self, points, qx, qy):
        xs, ys, items = zip(*points)
        index = GridIndex.from_columns(xs, ys, items, cell_size=1500.0)
        [(dist, _)] = index.nearest_many([qx], [qy], math.inf)
        best = min(math.hypot(x - qx, y - qy) for x, y, _ in points)
        assert math.isclose(dist, best, rel_tol=1e-9, abs_tol=1e-9)


class TestProjectionProperties:
    @given(
        lat=st.floats(min_value=-80, max_value=80),
        lon=st.floats(min_value=-179, max_value=179),
        dx=st.floats(min_value=-30_000, max_value=30_000),
        dy=st.floats(min_value=-30_000, max_value=30_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, lat, lon, dx, dy):
        proj = LocalProjection(lat, lon)
        back = proj.to_plane(*proj.to_geo(dx, dy))
        assert math.isclose(back[0], dx, abs_tol=1e-6)
        assert math.isclose(back[1], dy, abs_tol=1e-6)


class TestEcdfProperties:
    @given(st.lists(finite, min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_monotone_and_bounded(self, sample):
        ecdf = Ecdf.from_sample(sample)
        xs = sorted(sample)
        values = ecdf.evaluate_many(xs)
        assert all(0 <= v <= 1 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert ecdf.evaluate(max(sample)) == 1.0

    @given(st.lists(finite, min_size=1, max_size=100),
           st.lists(finite, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_ks_is_a_metric_ish(self, a, b):
        ea, eb = Ecdf.from_sample(a), Ecdf.from_sample(b)
        d = ks_distance(ea, eb)
        assert 0.0 <= d <= 1.0
        assert math.isclose(d, ks_distance(eb, ea))
        assert ks_distance(ea, ea) == 0.0

    @given(st.lists(finite, min_size=1, max_size=100),
           st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_quantile_evaluate_consistency(self, sample, q):
        ecdf = Ecdf.from_sample(sample)
        value = ecdf.quantile(q)
        assert ecdf.evaluate(value) >= q - 1e-12


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_pareto_fit_valid(self, sample):
        fit = fit_pareto(sample)
        assert fit.xm == min(sample)
        assert fit.alpha > 0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_entropy_bounds(self, counts):
        positive = [c for c in counts if c > 0]
        if not positive:
            return
        h = entropy_from_counts(positive)
        assert 0.0 <= h <= math.log2(len(positive)) + 1e-9

    @given(st.lists(st.tuples(finite, finite), min_size=2, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_pearson_bounded(self, pairs):
        xs = [a for a, _ in pairs]
        ys = [b for _, b in pairs]
        assert -1.0 <= pearson(xs, ys) <= 1.0


class TestReflectProperties:
    @given(value=st.floats(min_value=-1e7, max_value=1e7, allow_nan=False),
           size=st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=100, deadline=None)
    def test_always_in_bounds(self, value, size):
        folded = _reflect(value, size)
        assert 0.0 <= folded <= size


@st.composite
def matching_scenarios(draw):
    n_visits = draw(st.integers(min_value=0, max_value=12))
    n_checkins = draw(st.integers(min_value=0, max_value=12))
    visits = []
    t = 0.0
    for i in range(n_visits):
        t += draw(st.floats(min_value=60, max_value=7200))
        dur = draw(st.floats(min_value=360, max_value=7200))
        visits.append(
            make_visit(
                f"v{i}",
                x=draw(st.floats(min_value=0, max_value=5000)),
                y=draw(st.floats(min_value=0, max_value=5000)),
                t_start=t,
                t_end=t + dur,
            )
        )
        t += dur
    checkins = [
        make_checkin(
            f"c{i}",
            x=draw(st.floats(min_value=0, max_value=5000)),
            y=draw(st.floats(min_value=0, max_value=5000)),
            t=draw(st.floats(min_value=0, max_value=t + 3600)),
        )
        for i in range(n_checkins)
    ]
    return checkins, visits


def assert_matching_invariants(checkins, visits, result, config):
    """The matcher's full contract, shared by all executor paths."""
    # Every checkin is honest XOR extraneous (exactly one bucket, no dupes).
    honest_ids = {c.checkin_id for c, _ in result.matches}
    extraneous_ids = {c.checkin_id for c in result.extraneous}
    assert len(result.matches) + len(result.extraneous) == len(checkins)
    assert not (honest_ids & extraneous_ids)
    assert honest_ids | extraneous_ids == {c.checkin_id for c in checkins}
    # Every visit is matched XOR missing.
    matched_visits = [v.visit_id for _, v in result.matches]
    missing_ids = {v.visit_id for v in result.missing}
    assert len(result.matches) + len(result.missing) == len(visits)
    assert not (set(matched_visits) & missing_ids)
    assert set(matched_visits) | missing_ids == {v.visit_id for v in visits}
    # No visit claimed twice; no checkin matched twice.
    assert len(matched_visits) == len(set(matched_visits))
    assert len(honest_ids) == len(result.matches)
    # Every match satisfies the α/β thresholds.
    for checkin, visit in result.matches:
        assert math.hypot(checkin.x - visit.x, checkin.y - visit.y) <= config.alpha_m
        assert visit.time_distance(checkin.t) <= config.beta_s


class TestMatchingProperties:
    @given(scenario=matching_scenarios(), rematch=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_validity(self, scenario, rematch):
        checkins, visits = scenario
        config = MatchConfig(rematch_losers=rematch)
        result = match_user(checkins, visits, config)
        assert_matching_invariants(checkins, visits, result, config)

    @given(scenario=matching_scenarios(), rounds=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_conservation_under_round_cap(self, scenario, rounds):
        # The rematch round cap must never leak or duplicate a checkin.
        checkins, visits = scenario
        config = MatchConfig(rematch_losers=True, max_rematch_rounds=rounds)
        result = match_user(checkins, visits, config)
        assert_matching_invariants(checkins, visits, result, config)


@st.composite
def dataset_scenarios(draw, n_users=3):
    """A small multi-user dataset with visits attached (matcher input)."""
    users = []
    for u in range(n_users):
        checkins, visits = draw(matching_scenarios())
        user_id = f"u{u}"
        users.append(
            make_user(
                user_id,
                checkins=[
                    make_checkin(f"{user_id}-{c.checkin_id}", user_id=user_id,
                                 x=c.x, y=c.y, t=c.t)
                    for c in checkins
                ],
                visits=[
                    make_visit(f"{user_id}-{v.visit_id}", user_id=user_id,
                               x=v.x, y=v.y, t_start=v.t_start, t_end=v.t_end)
                    for v in visits
                ],
            )
        )
    return make_dataset(users)


class TestExecutorEquivalence:
    """The runtime determinism guarantee as a property: serial and
    process-pool executors agree on every generated dataset."""

    @given(dataset=dataset_scenarios(), rematch=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_invariants_hold_through_both_executors(self, dataset, rematch):
        config = MatchConfig(rematch_losers=rematch)
        serial = match_dataset(dataset, config, executor=SerialExecutor())
        parallel = match_dataset(dataset, config, executor=shared_pool())
        for user_id, data in dataset.users.items():
            for result in (serial.per_user[user_id], parallel.per_user[user_id]):
                assert_matching_invariants(data.checkins, data.visits, result, config)

    @given(dataset=dataset_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_executors_agree_exactly(self, dataset):
        serial = match_dataset(dataset, executor=SerialExecutor())
        parallel = match_dataset(dataset, executor=shared_pool())
        assert list(serial.per_user) == list(parallel.per_user)
        for user_id in serial.per_user:
            a, b = serial.per_user[user_id], parallel.per_user[user_id]
            assert [(c.checkin_id, v.visit_id) for c, v in a.matches] == [
                (c.checkin_id, v.visit_id) for c, v in b.matches
            ]
            assert [c.checkin_id for c in a.extraneous] == [
                c.checkin_id for c in b.extraneous
            ]
            assert [v.visit_id for v in a.missing] == [v.visit_id for v in b.missing]


@st.composite
def gps_traces(draw):
    n = draw(st.integers(min_value=0, max_value=120))
    t = 0.0
    x = draw(st.floats(min_value=0, max_value=10_000))
    y = draw(st.floats(min_value=0, max_value=10_000))
    points = []
    for _ in range(n):
        t += 60.0
        x += draw(st.floats(min_value=-500, max_value=500))
        y += draw(st.floats(min_value=-500, max_value=500))
        points.append(GpsPoint(t=t, x=x, y=y))
    return points


class TestVisitExtractionProperties:
    @given(points=gps_traces())
    @settings(max_examples=60, deadline=None)
    def test_visits_well_formed(self, points):
        visits = extract_visits(points, "u0", VisitConfig())
        for visit in visits:
            assert visit.duration >= 360.0
        for a, b in zip(visits, visits[1:]):
            assert a.t_end <= b.t_start
        times = {p.t for p in points}
        for visit in visits:
            assert visit.t_start in times
            assert visit.t_end in times
