"""Grid spatial index: the batched ``GridIndex`` against the scalar
bucket grid of ``tests/oracles.py``, and that oracle against brute force."""

import math

import numpy as np
import pytest

from oracles import BucketGrid
from repro.geo import GridIndex


def test_empty_index():
    grid = BucketGrid(cell_size=100.0)
    assert len(grid) == 0
    assert grid.within(0, 0, 1000) == []
    assert grid.nearest(0, 0) is None
    index = GridIndex.from_columns([], [], [], cell_size=100.0)
    assert len(index) == 0
    assert index.within_many([0.0], [0.0], 1000.0) == [[]]
    assert index.nearest_many([0.0], [0.0], 1000.0) == [None]


def test_insert_and_len():
    grid = BucketGrid(cell_size=100.0)
    grid.insert(0, 0, "a")
    grid.insert(5000, 5000, "b")
    assert len(grid) == 2


def test_within_radius():
    grid = BucketGrid(cell_size=100.0)
    grid.insert(0, 0, "near")
    grid.insert(150, 0, "mid")
    grid.insert(1000, 0, "far")
    found = {item for _, item in grid.within(0, 0, 200)}
    assert found == {"near", "mid"}


def test_within_is_inclusive_at_boundary(monkeypatch):
    from repro.geo import grid as grid_module

    grid = BucketGrid(cell_size=100.0)
    grid.insert(100, 0, "edge")
    assert {item for _, item in grid.within(0, 0, 100)} == {"edge"}
    index = GridIndex.from_columns([100.0], [0.0], ["edge"], cell_size=100.0)
    for block in (1 << 16, 0):  # one distance pass; the x-strip search
        monkeypatch.setattr(grid_module, "_BLOCK_ELEMENTS", block)
        assert index.within_many([0.0, -1e-9], [0.0, 0.0], 100.0) == [
            [(100.0, "edge")],
            [],
        ]


def test_within_returns_distances():
    grid = BucketGrid(cell_size=50.0)
    grid.insert(3, 4, "x")
    [(dist, item)] = grid.within(0, 0, 10)
    assert item == "x"
    assert dist == pytest.approx(5.0)


def test_within_negative_radius_rejected():
    grid = BucketGrid(cell_size=100.0)
    with pytest.raises(ValueError):
        grid.within(0, 0, -1)


def test_nearest_simple():
    grid = BucketGrid(cell_size=100.0)
    grid.insert(10, 0, "a")
    grid.insert(500, 0, "b")
    dist, item = grid.nearest(0, 0)
    assert item == "a"
    assert dist == pytest.approx(10.0)


def test_nearest_respects_max_radius():
    grid = BucketGrid(cell_size=100.0)
    grid.insert(500, 0, "b")
    assert grid.nearest(0, 0, max_radius=100) is None


def test_nearest_crosses_cells():
    # The nearest point can be in a non-adjacent cell.
    grid = BucketGrid(cell_size=10.0)
    grid.insert(95, 0, "far_in_cells")
    dist, item = grid.nearest(0, 0)
    assert item == "far_in_cells"
    assert dist == pytest.approx(95.0)


def test_nearest_matches_bruteforce(rng):
    points = rng.uniform(0, 1000, size=(200, 2))
    grid = BucketGrid(cell_size=80.0)
    for i, (x, y) in enumerate(points):
        grid.insert(float(x), float(y), i)
    for _ in range(25):
        qx, qy = rng.uniform(-100, 1100, size=2)
        dist, item = grid.nearest(float(qx), float(qy))
        brute = min(
            (math.hypot(x - qx, y - qy), i) for i, (x, y) in enumerate(points)
        )
        assert dist == pytest.approx(brute[0])


def test_within_matches_bruteforce(rng):
    points = rng.uniform(0, 1000, size=(300, 2))
    grid = BucketGrid(cell_size=120.0)
    for i, (x, y) in enumerate(points):
        grid.insert(float(x), float(y), i)
    for _ in range(25):
        qx, qy = rng.uniform(0, 1000, size=2)
        radius = float(rng.uniform(10, 400))
        got = sorted(item for _, item in grid.within(float(qx), float(qy), radius))
        expected = sorted(
            i
            for i, (x, y) in enumerate(points)
            if math.hypot(x - qx, y - qy) <= radius
        )
        assert got == expected


def test_from_points():
    grid = BucketGrid.from_points([(0, 0, 1), (10, 10, 2)], cell_size=5.0)
    assert len(grid) == 2
    assert grid.nearest(9, 9) == (math.hypot(1, 1), 2)


def test_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        GridIndex.from_columns([0.0], [0.0], ["a"], cell_size=0.0)


def test_within_many_matches_per_query_within(rng):
    points = rng.uniform(0, 1000, size=(300, 2))
    index = GridIndex.from_columns(
        points[:, 0], points[:, 1], list(range(300)), cell_size=100.0
    )
    grid = BucketGrid.of_index(index)
    qx = [float(v) for v in rng.uniform(-100, 1100, size=30)]
    qy = [float(v) for v in rng.uniform(-100, 1100, size=30)]
    radius = 250.0
    batched = index.within_many(qx, qy, radius)
    assert len(batched) == 30
    for x, y, got in zip(qx, qy, batched):
        # Both are unordered candidate lists; compare as sorted pairs.
        assert sorted(got) == sorted(grid.within(x, y, radius))


def test_pairs_within_blocks_match_per_query_passes(rng, monkeypatch):
    """Row blocks change neither the hits, their order, nor a bit of the
    squared distances, against one distance pass per query."""
    from repro.geo import grid

    px, py = rng.uniform(0, 1000, size=(2, 97))
    qx, qy = rng.uniform(-100, 1100, size=(2, 41))
    radius = 180.0
    expected = []
    for q, (x, y) in enumerate(zip(qx.tolist(), qy.tolist())):
        d2 = (px - x) ** 2 + (py - y) ** 2
        hit = np.flatnonzero(d2 <= radius * radius)
        expected += [(q, int(i), float(d2[i])) for i in hit]
    assert expected
    for block in (1 << 16, 97 * 5, 1):  # one block, several, one row each
        monkeypatch.setattr(grid, "_BLOCK_ELEMENTS", block)
        rows, hit, d2 = grid.pairs_within(px, py, qx, qy, radius)
        assert list(zip(rows.tolist(), hit.tolist(), d2.tolist())) == expected
    assert grid.split_rows(["a", "b", "c"], np.array([0, 0, 2]), 4) == [
        ["a", "b"], [], ["c"], []
    ]


@pytest.mark.parametrize("n_points", [0, 5])
def test_pairs_within_no_queries(n_points):
    """Zero queries find no pairs, typed like owner_pairs_within's empty
    result."""
    from repro.geo import grid

    px = py = np.arange(float(n_points))
    none = np.zeros(0)
    got = grid.pairs_within(px, py, none, none, 10.0)
    want = grid.owner_pairs_within(px, py, [n_points], none, none, [0], 10.0)
    assert [a.size for a in got] == [0, 0, 0]
    assert [a.dtype for a in got] == [a.dtype for a in want]


def assert_same_candidates(got, want):
    """Same items; distances to the last bit or two.  The oracle's
    ``within`` squares with Python's ``**`` (libm ``pow``), the batched
    paths multiply, and the two may round a square differently."""
    assert sorted(i for _, i in got) == sorted(i for _, i in want)
    assert sorted(d for d, _ in got) == pytest.approx(
        sorted(d for d, _ in want), rel=1e-15
    )


@pytest.mark.parametrize("block", [None, 64, 1])
def test_within_many_strip_path(rng, monkeypatch, block):
    # Past one distance block of (query, point) pairs the batched query
    # searches each query's x-strip instead, a block of queries at a
    # time; results must not change, whatever the block size.
    from repro.geo import grid

    if block is not None:
        monkeypatch.setattr(grid, "_BLOCK_ELEMENTS", block)
    n = 5000
    points = rng.uniform(0, 5000, size=(n, 2))
    index = GridIndex.from_columns(
        points[:, 0], points[:, 1], list(range(n)), cell_size=150.0
    )
    oracle = BucketGrid.of_index(index)
    qx = [float(v) for v in rng.uniform(0, 5000, size=20)]
    qy = [float(v) for v in rng.uniform(0, 5000, size=20)]
    assert len(qx) * n > grid._BLOCK_ELEMENTS
    for x, y, got in zip(qx, qy, index.within_many(qx, qy, 400.0)):
        assert_same_candidates(got, oracle.within(x, y, 400.0))


def test_within_many_edge_cases():
    index = GridIndex.from_columns([], [], [], cell_size=100.0)
    assert index.within_many([], [], 50.0) == []
    assert index.within_many([0.0], [0.0], 50.0) == [[]]
    index = GridIndex.from_columns([10.0], [0.0], ["a"], cell_size=100.0)
    assert index.within_many([], [], 50.0) == []
    with pytest.raises(ValueError):
        index.within_many([0.0, 1.0], [0.0], 50.0)
    with pytest.raises(ValueError):
        index.within_many([0.0], [0.0], -1.0)


def test_nearest_ring_bound_after_spread_inserts():
    # The incremental bbox must keep nearest() correct when points land
    # in far-apart cells (max_ring is an overestimate, never too small).
    grid = BucketGrid(cell_size=10.0)
    grid.insert(-2000, -2000, "sw")
    grid.insert(1000, 500, "e")
    assert grid.nearest(0, 0)[1] == "e"
    assert grid.nearest(-1990, -1990)[1] == "sw"
    grid = BucketGrid(cell_size=10.0)
    grid.insert(7, 7, "only")
    assert grid.nearest(500, 500)[1] == "only"


class TestFromColumns:
    """Bulk columnar load: the same answers as the oracle grid."""

    def test_matches_from_points(self, rng):
        points = rng.uniform(-800, 800, size=(300, 2))
        triples = [(float(x), float(y), i) for i, (x, y) in enumerate(points)]
        bucket = BucketGrid.from_points(triples, cell_size=90.0)
        columnar = GridIndex.from_columns(
            points[:, 0], points[:, 1], list(range(300)), cell_size=90.0
        )
        assert len(columnar) == len(bucket) == 300
        qx = [float(v) for v in rng.uniform(-900, 900, size=20)]
        qy = [float(v) for v in rng.uniform(-900, 900, size=20)]
        for x, y, got in zip(qx, qy, columnar.within_many(qx, qy, 200.0)):
            assert sorted(got) == sorted(bucket.within(x, y, 200.0))
        assert columnar.nearest_many(qx, qy, 200.0) == [
            bucket.nearest(x, y, 200.0) for x, y in zip(qx, qy)
        ]

    def test_iteration_after_bulk_load(self):
        # The bulk-loaded rows are the index's contents, in caller
        # order: the ring-walk tie rule and the oracle's copy rely on it.
        index = GridIndex.from_columns(
            [20.0, 0.0, 10.0], [0.0, 0.0, 0.0], ["c", "a", "b"], cell_size=5.0
        )
        assert index.items == ["c", "a", "b"]
        assert index.x.tolist() == [20.0, 0.0, 10.0]
        assert index.y.tolist() == [0.0, 0.0, 0.0]

    def test_empty_and_invalid_inputs(self):
        index = GridIndex.from_columns([], [], [], cell_size=10.0)
        assert len(index) == 0
        assert index.within_many([0.0], [0.0], 5.0) == [[]]
        assert index.nearest_many([0.0], [0.0], 5.0) == [None]
        with pytest.raises(ValueError, match="equal-length"):
            GridIndex.from_columns([0.0, 1.0], [0.0], [1, 2], cell_size=10.0)
        with pytest.raises(ValueError, match="items"):
            GridIndex.from_columns([0.0, 1.0], [0.0, 1.0], [1], cell_size=10.0)

    def test_strip_path_after_bulk_load(self, rng):
        # Past one distance block the x-sorted rows back the batched
        # query; answers must match the oracle's per-query within().
        from repro.geo.grid import _BLOCK_ELEMENTS

        n = 5000
        points = rng.uniform(0, 5000, size=(n, 2))
        index = GridIndex.from_columns(
            points[:, 0], points[:, 1], list(range(n)), cell_size=150.0
        )
        oracle = BucketGrid.of_index(index)
        qx = [float(v) for v in rng.uniform(0, 5000, size=20)]
        qy = [float(v) for v in rng.uniform(0, 5000, size=20)]
        assert len(qx) * n > _BLOCK_ELEMENTS
        for x, y, got in zip(qx, qy, index.within_many(qx, qy, 350.0)):
            assert_same_candidates(got, oracle.within(x, y, 350.0))

    def test_nearest_ring_bound_after_bulk_load(self):
        index = GridIndex.from_columns(
            [-2000.0, 1000.0], [-2000.0, 500.0], ["sw", "e"], cell_size=10.0
        )
        hits = index.nearest_many([0.0, -1990.0], [0.0, -1990.0], 5000.0)
        assert [hit[1] for hit in hits] == ["e", "sw"]


class TestNearestMany:
    """Batched nearest: the same answer as the oracle's ``nearest`` per
    query."""

    @pytest.mark.parametrize("n", [60, 5000])  # one distance block; x-strip
    def test_matches_nearest(self, rng, n):
        points = rng.uniform(0, 3000, size=(n, 2))
        points[n // 2 : n // 2 + 10] = points[:10]  # exact duplicate ties
        index = GridIndex.from_columns(
            points[:, 0], points[:, 1], list(range(n)), cell_size=250.0
        )
        oracle = BucketGrid.of_index(index)
        qx = np.concatenate((rng.uniform(-100, 3100, 40), points[:5, 0]))
        qy = np.concatenate((rng.uniform(-100, 3100, 40), points[:5, 1]))
        expected = [
            oracle.nearest(x, y, max_radius=150.0)
            for x, y in zip(qx.tolist(), qy.tolist())
        ]
        assert any(hit is not None for hit in expected)
        assert index.nearest_many(qx, qy, 150.0) == expected

    def test_ties_follow_the_ring_walk(self):
        # Equal distances in different cells: the ring walk meets the
        # query's own cell first, then lower cell coordinates first.
        index = GridIndex.from_columns(
            [300.0, 200.0, 575.0, 175.0],
            [100.0, 100.0, 125.0, 125.0],
            ["own-cell", "west-cell", "east", "west"],
            cell_size=250.0,
        )
        oracle = BucketGrid.of_index(index)
        queries = ([250.0, 375.0], [100.0, 125.0])
        assert [hit[1] for hit in index.nearest_many(*queries, 250.0)] == [
            oracle.nearest(x, y, 250.0)[1] for x, y in zip(*queries)
        ] == ["own-cell", "own-cell"]
        far = GridIndex.from_columns(
            [575.0, 175.0], [125.0, 125.0], ["east", "west"], cell_size=250.0
        )
        assert far.nearest_many([375.0], [125.0], 250.0)[0][1] == "west"
        assert BucketGrid.of_index(far).nearest(375.0, 125.0, 250.0)[1] == "west"

    def test_radius_boundary_and_empty(self, monkeypatch):
        from repro.geo import grid

        index = GridIndex.from_columns([150.0], [0.0], ["edge"], cell_size=250.0)
        for block in (1 << 16, 0):  # one distance pass; the x-strip search
            monkeypatch.setattr(grid, "_BLOCK_ELEMENTS", block)
            assert index.nearest_many([0.0, -1e-9], [0.0, 0.0], 150.0) == [
                (150.0, "edge"),
                None,
            ]
        assert index.nearest_many([], [], 150.0) == []
        empty = GridIndex.from_columns([], [], [], cell_size=250.0)
        assert empty.nearest_many([0.0], [0.0], 150.0) == [None]
        with pytest.raises(ValueError):
            index.nearest_many([0.0], [0.0], -1.0)
