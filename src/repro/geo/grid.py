"""Planar radius and nearest-point queries, answered in batches.

The pipeline asks two spatial questions: matching (Section 4.1 of the
paper) asks which of a user's visits lie within α metres of each
checkin, and visit annotation asks which POI lies nearest each stay.
Both are asked for many query points at once, so every query here is
array arithmetic over flat float64 coordinate columns.

:func:`pairs_within` is one distance pass over every (query, point)
pair, a block of at most :data:`_BLOCK_ELEMENTS` pairs at a time; the
MANET engine runs it directly on node coordinates for a tick's
broadcasts.  When queries and points both belong to owners (a shard's
users) and only same-owner pairs count, :func:`owner_pairs_within`
runs that test over every owner at once with no index at all: matching
and classification call it once per shard.  :class:`GridIndex` holds
one bulk-loaded point set (the POIs) for :meth:`GridIndex.nearest_many`
and :meth:`GridIndex.within_many`: a small batch is one
:func:`pairs_within` pass, a larger one tests only each query's x-strip
of points.
"""

from __future__ import annotations

import math
from typing import Dict, Generic, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Elements per row block of a (queries x points) distance pass, and
#: candidate pairs per query block of an x-strip search: bounds their
#: float64 temporaries at a few hundred KB each, whatever the sizes.
_BLOCK_ELEMENTS = 1 << 16


def _no_pairs() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty, np.zeros(0)


def pairs_within(
    px: np.ndarray, py: np.ndarray, qx: np.ndarray, qy: np.ndarray, radius: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (query, point) pair within ``radius``, from one array pass.

    Evaluates ``(px - qx)**2 + (py - qy)**2 <= radius**2`` over the whole
    (queries x points) matrix, a block of query rows at a time so memory
    stays bounded.  Returns the query index, point index and squared
    distance of each hit, ordered by query, then by point.
    """
    r2 = radius * radius
    step = max(1, _BLOCK_ELEMENTS // max(px.size, 1))
    found = []
    for lo in range(0, qx.size, step):
        bx = qx[lo : lo + step, None]
        by = qy[lo : lo + step, None]
        d2 = (px - bx) ** 2 + (py - by) ** 2
        rows, hit = np.nonzero(d2 <= r2)
        found.append((rows + lo, hit, d2[rows, hit]))
    if not found:
        return _no_pairs()
    if len(found) == 1:
        return found[0]
    rows, hit, d2 = zip(*found)
    return np.concatenate(rows), np.concatenate(hit), np.concatenate(d2)


def owner_pairs_within(
    px: np.ndarray,
    py: np.ndarray,
    p_counts: Sequence[int],
    qx: np.ndarray,
    qy: np.ndarray,
    q_counts: Sequence[int],
    radius: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every same-owner (query, point) pair within ``radius``.

    Points and queries come grouped by owner: owner ``k`` holds the next
    ``p_counts[k]`` points and the next ``q_counts[k]`` queries.  Each
    query is tested against its own owner's points only, by
    :func:`pairs_within`'s arithmetic on the unshifted coordinates, so
    the squared distances are the same bits.  Every same-owner pair is
    tested, so an owner costs its queries x points; query rows are
    walked in runs of at most :data:`_BLOCK_ELEMENTS` pairs, so memory
    stays bounded.  Returns the query index, point index and squared
    distance of each hit, ordered by query, then by point.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius!r}")
    if len(q_counts) != len(p_counts):
        raise ValueError("point and query counts must cover the same owners")
    if sum(q_counts) != qx.size or sum(p_counts) != px.size:
        raise ValueError("owner counts must add up to the point and query columns")
    if qx.size == 0 or px.size == 0:
        return _no_pairs()
    # Array methods rather than np.* wrappers: the streaming engine
    # calls this once per one-user chunk, where call overhead dominates.
    q_counts = np.asarray(q_counts, dtype=np.int64)
    p_counts = np.asarray(p_counts, dtype=np.int64)
    owner = np.arange(q_counts.size).repeat(q_counts)
    first = (p_counts.cumsum() - p_counts)[owner]
    return _ranged_pairs(px, py, qx, qy, first, p_counts[owner], radius)


def _ranged_pairs(
    px: np.ndarray,
    py: np.ndarray,
    qx: np.ndarray,
    qy: np.ndarray,
    lo: np.ndarray,
    counts: np.ndarray,
    radius: float,
    order: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hits of query ``q`` among points ``lo[q] .. lo[q] + counts[q] - 1``.

    Positions index ``order`` when it is given (points in another
    order), else the points themselves.  Each pair is tested with
    :func:`pairs_within`'s arithmetic.  Query rows are walked in runs
    of at most :data:`_BLOCK_ELEMENTS` pairs (a query with more is a
    run of its own), so the temporaries stay bounded.  Returns the
    query index, point index and squared distance of each hit, ordered
    by query, then by position.
    """
    r2 = radius * radius
    ends = counts.cumsum()
    found = []
    qa = 0
    while qa < qx.size:
        done = int(ends[qa - 1]) if qa else 0
        qb = max(qa + 1, int(ends.searchsorted(done + _BLOCK_ELEMENTS, "right")))
        n = counts[qa:qb]
        rows = np.arange(qa, qb).repeat(n)
        # Pair k of this run is position lo[q] + (k - start of q's pairs).
        starts = ends[qa:qb] - n - done
        idx = np.arange(rows.size) + (lo[qa:qb] - starts).repeat(n)
        if order is not None:
            idx = order[idx]
        d2 = (px[idx] - qx[rows]) ** 2 + (py[idx] - qy[rows]) ** 2
        keep = d2 <= r2
        found.append((rows[keep], idx[keep], d2[keep]))
        qa = qb
    if len(found) == 1:
        return found[0]
    rows, hit, d2 = zip(*found)
    return np.concatenate(rows), np.concatenate(hit), np.concatenate(d2)


def split_rows(flat: list, rows: np.ndarray, n_rows: int) -> List[list]:
    """Cut ``flat`` (one entry per hit, ordered by row) into per-row lists."""
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _query_columns(
    xs: Sequence[float], ys: Sequence[float], radius: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a batched query: coordinates as float64 arrays."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius!r}")
    qx = np.asarray(xs, dtype=np.float64)
    qy = np.asarray(ys, dtype=np.float64)
    if qx.shape != qy.shape or qx.ndim != 1:
        raise ValueError("batched queries take two equal-length 1-d coordinate arrays")
    return qx, qy


class GridIndex(Generic[T]):
    """Columnar point index over the plane: batched radius and nearest
    queries.

    Holds the points as flat columns, ``x``, ``y`` and ``items``, in
    the caller's order, plus the row order by x, sorted on first use of
    the x-strip search.  Build it with :meth:`from_columns`.

    Parameters
    ----------
    cell_size:
        Edge length in metres of the square cells whose ring walk
        decides exact ties in :meth:`nearest_many`.
    """

    __slots__ = ("cell_size", "x", "y", "items", "_by_x")

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        items: Sequence[T],
        cell_size: float,
    ) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        x = np.asarray(xs, dtype=np.float64)
        y = np.asarray(ys, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("GridIndex takes two equal-length 1-d coordinate arrays")
        if len(items) != x.size:
            raise ValueError(f"expected {x.size} items, got {len(items)}")
        self.cell_size = float(cell_size)
        self.x = x
        self.y = y
        self.items: List[T] = list(items)
        self._by_x: "Tuple[np.ndarray, np.ndarray] | None" = None

    @classmethod
    def from_columns(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        items: Sequence[T],
        cell_size: float,
    ) -> "GridIndex[T]":
        """Bulk-load an index from coordinate arrays: two array
        conversions and no per-point Python work."""
        return cls(xs, ys, items, cell_size)

    def __len__(self) -> int:
        return self.x.size

    def within_many(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        radius: float,
    ) -> List[List[Tuple[float, T]]]:
        """Every point within ``radius`` of each query point, inclusive.

        One ``(distance, item)`` list per query, ordered by row in the
        distance pass and by x in the strip search: callers must treat
        it as unordered.
        """
        qx, qy = _query_columns(xs, ys, radius)
        rows, hit, d2 = self._pairs(qx, qy, radius)
        items = self.items
        flat = [(d, items[i]) for d, i in zip(np.sqrt(d2).tolist(), hit.tolist())]
        return split_rows(flat, rows, qx.size)

    def nearest_many(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        max_radius: float,
    ) -> List["Tuple[float, T] | None"]:
        """The nearest point to each query within ``max_radius``, as
        ``(distance, item)``, or ``None``.

        One squared-distance prefilter, at a radius a hair above
        ``max_radius`` so no point whose ``math.hypot`` distance rounds
        inside it is dropped; then the exact rule on the survivors:
        ``math.hypot`` distance ``<= max_radius``, smallest wins, and
        exact ties go to the point a ring walk over cells from the query
        meets first (:meth:`_walk_order`).
        """
        qx, qy = _query_columns(xs, ys, max_radius)
        out: List["Tuple[float, T] | None"] = [None] * qx.size
        rows, hit, _ = self._pairs(qx, qy, max_radius * (1.0 + 1e-9))
        best: Dict[int, Tuple[float, int]] = {}
        for r, i, x, y, px, py in zip(
            rows.tolist(),
            hit.tolist(),
            qx[rows].tolist(),
            qy[rows].tolist(),
            self.x[hit].tolist(),
            self.y[hit].tolist(),
        ):
            d = math.hypot(px - x, py - y)
            if d > max_radius:
                continue
            held = best.get(r)
            if held is None or d < held[0] or (
                d == held[0]
                and self._walk_order(x, y, i) < self._walk_order(x, y, held[1])
            ):
                best[r] = (d, i)
        for r, (d, i) in best.items():
            out[r] = (d, self.items[i])
        return out

    def _walk_order(self, x: float, y: float, i: int) -> Tuple[int, int, int, int]:
        """Where a ring walk from (x, y) meets row ``i``: by ring (cell
        distance from the query's cell), then cell column, then cell
        row, then row number, which is insertion order within a cell."""
        size = self.cell_size
        cx, cy = math.floor(x / size), math.floor(y / size)
        gx = math.floor(float(self.x[i]) / size)
        gy = math.floor(float(self.y[i]) / size)
        return (max(abs(gx - cx), abs(gy - cy)), gx, gy, i)

    def _pairs(
        self, qx: np.ndarray, qy: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (query, row) pair within ``radius``: query index, row
        and squared distance of each hit, ordered by query.

        A small batch is one :func:`pairs_within` pass over every
        (query, point) pair.  A larger one tests only the points in each
        query's x-strip ``[qx - radius, qx + radius]``, found by binary
        search on the x-sorted rows, in runs of at most
        :data:`_BLOCK_ELEMENTS` candidates (:func:`_ranged_pairs`).  Both
        paths compute the same squared distances with the same
        arithmetic, so they agree exactly.
        """
        if qx.size * self.x.size <= _BLOCK_ELEMENTS:
            return pairs_within(self.x, self.y, qx, qy, radius)
        if self._by_x is None:
            order = np.argsort(self.x, kind="stable")
            self._by_x = (order, self.x[order])
        order, sx = self._by_x
        # The strip only preselects: widen it past any rounding in
        # ``qx +- radius`` so the exact test sees every hit.
        pad = radius + 1e-9 * (radius + np.abs(qx))
        lo = np.searchsorted(sx, qx - pad, side="left")
        counts = np.searchsorted(sx, qx + pad, side="right") - lo
        return _ranged_pairs(self.x, self.y, qx, qy, lo, counts, radius, order)
