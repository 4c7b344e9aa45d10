"""Uniform grid spatial index for planar radius queries.

The matching algorithm (Section 4.1 of the paper) repeatedly asks "which
visits lie within α metres of this checkin?", and the MANET simulator asks
"which nodes lie within radio range of this node?".  Both are radius
queries over a few thousand points, for which a uniform grid hashed by
cell is simple, dependency-free, and O(points in nearby cells) per query.

Two representations coexist: mutable per-cell Python buckets (inserts,
``within``/``nearest``) and a lazily built columnar snapshot — flat
NumPy coordinate arrays — that powers the batched
:meth:`GridIndex.within_many` and :meth:`GridIndex.nearest_many`, which
amortise per-query overhead when a caller needs answers for many query
points at once.  A batch of at most :data:`_BLOCK_ELEMENTS` (query,
point) pairs is one distance pass, :func:`pairs_within`, which the
MANET engine also runs directly on node coordinates for a tick's
broadcasts; a larger batch tests only each query's x-strip of points.
When queries and points both belong to owners (a shard's users), and
only same-owner pairs count, :func:`owner_pairs_within` runs that test
over every owner at once with no index at all: matching and
classification call it once per shard.

Either representation can come first.  :meth:`GridIndex.from_columns`
bulk-loads coordinate arrays straight into the columnar snapshot (no
per-point Python work) and defers building the Python buckets until a
bucket API (``within``/``nearest``/iteration/mutation) is actually used.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

_Cell = Tuple[int, int]

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
    """Point index over the plane supporting radius and nearest queries.

    Parameters
    ----------
    cell_size:
        Edge length of each square cell in metres.  Choose it close to
        the typical query radius; queries scan ``ceil(r / cell_size) + 1``
        rings of cells around the query point.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size!r}")
        self.cell_size = float(cell_size)
        self._cells: Dict[_Cell, List[Tuple[float, float, T]]] = defaultdict(list)
        self._count = 0
        # Occupied-cell bounding box, maintained incrementally so
        # `nearest` never rescans every cell to bound its ring walk.
        self._gx_min = self._gy_min = math.inf
        self._gx_max = self._gy_max = -math.inf
        # Columnar snapshot for within_many; rebuilt lazily after writes.
        self._columns: "_Columns[T] | None" = None
        # True after from_columns: buckets lag the snapshot and are
        # materialised on first use of a bucket API.
        self._cells_stale = False

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Tuple[float, float, T]]:
        self._ensure_cells()
        return self._iter_cells()

    def _iter_cells(self) -> Iterator[Tuple[float, float, T]]:
        for bucket in self._cells.values():
            yield from bucket

    def _ensure_cells(self) -> None:
        """Materialise Python buckets from a columns-first bulk load."""
        if not self._cells_stale:
            return
        cols = self._columns
        assert cols is not None
        gx = np.floor(cols.x / self.cell_size).astype(np.int64)
        gy = np.floor(cols.y / self.cell_size).astype(np.int64)
        for x, y, item, cx, cy in zip(
            cols.x.tolist(), cols.y.tolist(), cols.items, gx.tolist(), gy.tolist()
        ):
            self._cells[(cx, cy)].append((x, y, item))
        self._grow_bbox(int(gx.min()), int(gy.min()))
        self._grow_bbox(int(gx.max()), int(gy.max()))
        self._cells_stale = False

    def _cell_of(self, x: float, y: float) -> _Cell:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def _grow_bbox(self, gx: int, gy: int) -> None:
        if gx < self._gx_min:
            self._gx_min = gx
        if gx > self._gx_max:
            self._gx_max = gx
        if gy < self._gy_min:
            self._gy_min = gy
        if gy > self._gy_max:
            self._gy_max = gy

    def insert(self, x: float, y: float, item: T) -> None:
        """Insert ``item`` at planar position (x, y) metres."""
        self._ensure_cells()
        cell = self._cell_of(x, y)
        self._cells[cell].append((x, y, item))
        self._count += 1
        self._grow_bbox(cell[0], cell[1])
        self._columns = None

    def extend(self, points: Iterable[Tuple[float, float, T]]) -> None:
        """Insert many ``(x, y, item)`` triples.

        Bulk path: cell coordinates are computed in one vectorised pass
        and buckets are extended per cell, not per point.
        """
        self._ensure_cells()
        triples = points if isinstance(points, list) else list(points)
        if not triples:
            return
        n = len(triples)
        xs = np.fromiter((p[0] for p in triples), dtype=np.float64, count=n)
        ys = np.fromiter((p[1] for p in triples), dtype=np.float64, count=n)
        gx = np.floor(xs / self.cell_size).astype(np.int64)
        gy = np.floor(ys / self.cell_size).astype(np.int64)
        grouped: Dict[_Cell, List[Tuple[float, float, T]]] = {}
        for triple, cx, cy in zip(triples, gx.tolist(), gy.tolist()):
            grouped.setdefault((cx, cy), []).append(triple)
        for cell, members in grouped.items():
            self._cells[cell].extend(members)
        self._count += n
        self._grow_bbox(int(gx.min()), int(gy.min()))
        self._grow_bbox(int(gx.max()), int(gy.max()))
        self._columns = None

    def clear(self) -> None:
        """Remove all points."""
        self._cells.clear()
        self._count = 0
        self._gx_min = self._gy_min = math.inf
        self._gx_max = self._gy_max = -math.inf
        self._columns = None
        self._cells_stale = False

    def within(self, x: float, y: float, radius: float) -> List[Tuple[float, T]]:
        """All items within ``radius`` metres of (x, y), as (distance, item).

        Results are unordered; callers needing the nearest first should
        sort or use :meth:`nearest`.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius!r}")
        self._ensure_cells()
        reach = math.ceil(radius / self.cell_size)
        cx, cy = self._cell_of(x, y)
        r2 = radius * radius
        found: List[Tuple[float, T]] = []
        for gx in range(cx - reach, cx + reach + 1):
            for gy in range(cy - reach, cy + reach + 1):
                bucket = self._cells.get((gx, gy))
                if not bucket:
                    continue
                for px, py, item in bucket:
                    d2 = (px - x) ** 2 + (py - y) ** 2
                    if d2 <= r2:
                        found.append((math.sqrt(d2), item))
        return found

    def within_many(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        radius: float,
    ) -> List[List[Tuple[float, T]]]:
        """Batched :meth:`within`: one candidate list per query point.

        Equivalent to ``[self.within(x, y, radius) for x, y in ...]`` up
        to result order (lists are unordered, like ``within``), but runs
        the distance filter as array arithmetic over a columnar snapshot
        of the index, amortising the per-query bucket walk.
        """
        qx, qy = _query_columns(xs, ys, radius)
        if self._count == 0 or qx.size == 0:
            return [[] for _ in range(qx.size)]
        rows, hit, d2 = self._pairs(qx, qy, radius)
        items = self._columns.items
        flat = [(d, items[i]) for d, i in zip(np.sqrt(d2).tolist(), hit.tolist())]
        return split_rows(flat, rows, qx.size)

    def nearest_many(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        max_radius: float,
    ) -> List["Tuple[float, T] | None"]:
        """Batched :meth:`nearest`: the same result for every query point.

        One squared-distance prefilter over the columnar snapshot, at a
        radius a hair above ``max_radius`` so no point whose
        ``math.hypot`` distance rounds inside it is dropped; then
        ``nearest``'s exact rule on the survivors: ``math.hypot`` distance
        ``<= max_radius``, smallest wins, and exact ties go to the point
        ``nearest``'s ring walk meets first (ring, then cell, then
        insertion order).
        """
        qx, qy = _query_columns(xs, ys, max_radius)
        out: List["Tuple[float, T] | None"] = [None] * qx.size
        if self._count == 0 or qx.size == 0:
            return out
        rows, hit, _ = self._pairs(qx, qy, max_radius * (1.0 + 1e-9))
        cols = self._columns
        best: Dict[int, Tuple[float, int]] = {}
        for r, i, x, y, px, py in zip(
            rows.tolist(),
            hit.tolist(),
            qx[rows].tolist(),
            qy[rows].tolist(),
            cols.x[hit].tolist(),
            cols.y[hit].tolist(),
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
            out[r] = (d, cols.items[i])
        return out

    def _walk_order(self, x: float, y: float, i: int) -> Tuple[int, int, int, int]:
        """Where :meth:`nearest`'s ring walk from (x, y) meets column row ``i``.

        Rows of one cell keep their insertion order in the snapshot, so
        the row number orders points within a cell.
        """
        cx, cy = self._cell_of(x, y)
        gx, gy = self._cell_of(float(self._columns.x[i]), float(self._columns.y[i]))
        return (max(abs(gx - cx), abs(gy - cy)), gx, gy, i)

    def _pairs(
        self, qx: np.ndarray, qy: np.ndarray, radius: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (query, snapshot row) pair within ``radius``: query
        index, row and squared distance of each hit, ordered by query.

        A small batch is one :func:`pairs_within` pass over every
        (query, point) pair.  A larger one tests only the points in each
        query's x-strip ``[qx - radius, qx + radius]``, found by binary
        search on the x-sorted rows, in runs of at most
        :data:`_BLOCK_ELEMENTS` candidates (:func:`_ranged_pairs`).  Both
        paths compute the same squared distances with the same
        arithmetic, so they agree exactly.
        """
        cols = self._ensure_columns()
        if qx.size * self._count <= _BLOCK_ELEMENTS:
            return pairs_within(cols.x, cols.y, qx, qy, radius)
        order, sx = cols.by_x
        # The strip only preselects: widen it past any rounding in
        # ``qx +- radius`` so the exact test sees every hit.
        pad = radius + 1e-9 * (radius + np.abs(qx))
        lo = np.searchsorted(sx, qx - pad, side="left")
        counts = np.searchsorted(sx, qx + pad, side="right") - lo
        return _ranged_pairs(cols.x, cols.y, qx, qy, lo, counts, radius, order)

    def _ensure_columns(self) -> "_Columns[T]":
        """The columnar snapshot, rebuilt if writes invalidated it."""
        if self._columns is None:
            self._columns = _Columns.build(self._cells, self._count)
        return self._columns

    def nearest(self, x: float, y: float, max_radius: float = math.inf):
        """Nearest item to (x, y) within ``max_radius``, or ``None``.

        Returns ``(distance, item)``.  Searches expanding rings of cells,
        stopping as soon as the best candidate provably beats anything in
        unexplored rings.
        """
        if self._count == 0:
            return None
        self._ensure_cells()
        cx, cy = self._cell_of(x, y)
        best: Tuple[float, T] | None = None
        ring = 0
        # Largest useful ring, from the incrementally maintained
        # occupied-cell bounding box: beyond it every cell is empty.
        max_ring = int(
            max(
                cx - self._gx_min,
                self._gx_max - cx,
                cy - self._gy_min,
                self._gy_max - cy,
                0,
            )
        )
        while ring <= max_ring:
            for gx in range(cx - ring, cx + ring + 1):
                for gy in range(cy - ring, cy + ring + 1):
                    if max(abs(gx - cx), abs(gy - cy)) != ring:
                        continue
                    bucket = self._cells.get((gx, gy))
                    if not bucket:
                        continue
                    for px, py, item in bucket:
                        d = math.hypot(px - x, py - y)
                        if d <= max_radius and (best is None or d < best[0]):
                            best = (d, item)
            if best is not None and best[0] <= ring * self.cell_size:
                # No unexplored cell can hold a closer point.
                break
            ring += 1
        return best

    @classmethod
    def from_points(
        cls, points: Sequence[Tuple[float, float, T]], cell_size: float
    ) -> "GridIndex[T]":
        """Build an index directly from ``(x, y, item)`` triples."""
        index: GridIndex[T] = cls(cell_size)
        index.extend(points)
        return index

    @classmethod
    def from_columns(
        cls,
        xs: Sequence[float],
        ys: Sequence[float],
        items: Sequence[T],
        cell_size: float,
    ) -> "GridIndex[T]":
        """Bulk-load an index from coordinate arrays.

        Builds the columnar snapshot of the batched queries directly,
        with no per-point Python work, and defers the cell sort, the
        per-cell Python buckets and their bounding box until
        a bucket API (``within``, ``nearest``, iteration, or a mutation)
        is used.  The batched queries never need the cell grouping, so a
        bulk-loaded index that only answers them costs two array
        conversions.
        """
        index: GridIndex[T] = cls(cell_size)
        qx = np.asarray(xs, dtype=np.float64)
        qy = np.asarray(ys, dtype=np.float64)
        if qx.shape != qy.shape or qx.ndim != 1:
            raise ValueError("from_columns takes two equal-length 1-d coordinate arrays")
        n = qx.size
        if len(items) != n:
            raise ValueError(f"expected {n} items, got {len(items)}")
        if n == 0:
            return index
        index._columns = _Columns(qx, qy, list(items))
        index._count = n
        index._cells_stale = True
        return index


class _Columns(Generic[T]):
    """Flat columnar snapshot of a grid: coordinates + items.

    Built from buckets the rows arrive cell by cell, each cell's rows in
    insertion order; built from a bulk :meth:`GridIndex.from_columns`
    load they stay in caller order.  Either way one cell's rows keep
    their insertion order, which :meth:`GridIndex.nearest_many` relies
    on to break ties the way :meth:`GridIndex.nearest` does.
    """

    __slots__ = ("x", "y", "items", "_by_x")

    def __init__(self, x: np.ndarray, y: np.ndarray, items: List[T]) -> None:
        self.x = x
        self.y = y
        self.items = items
        self._by_x: "Tuple[np.ndarray, np.ndarray] | None" = None

    @property
    def by_x(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row order by x coordinate, and the x column in that order."""
        if self._by_x is None:
            order = np.argsort(self.x, kind="stable")
            self._by_x = (order, self.x[order])
        return self._by_x

    @classmethod
    def build(
        cls, cells: Dict[_Cell, List[Tuple[float, float, T]]], count: int
    ) -> "_Columns[T]":
        rows = [row for bucket in cells.values() for row in bucket]
        x = np.fromiter((row[0] for row in rows), dtype=np.float64, count=count)
        y = np.fromiter((row[1] for row in rows), dtype=np.float64, count=count)
        return cls(x, y, [row[2] for row in rows])
