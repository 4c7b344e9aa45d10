"""Uniform grid spatial index for planar radius queries.

The matching algorithm (Section 4.1 of the paper) repeatedly asks "which
visits lie within α metres of this checkin?", and the MANET simulator asks
"which nodes lie within radio range of this node?".  Both are radius
queries over a few thousand points, for which a uniform grid hashed by
cell is simple, dependency-free, and O(points in nearby cells) per query.

Two representations coexist: mutable per-cell Python buckets (inserts,
``within``/``nearest``) and a lazily built columnar snapshot — flat
NumPy coordinate arrays grouped cell by cell — that powers the batched
:meth:`GridIndex.within_many`, which amortises per-query overhead when a
caller needs candidates for many query points at once.  Below
:data:`_BRUTE_FORCE_MAX` points the batch is one blocked (queries x
points) distance pass, :func:`pairs_within`, which the MANET engine
also runs directly on node coordinates for a tick's broadcasts.

Either representation can come first.  :meth:`GridIndex.from_columns`
bulk-loads coordinate arrays straight into the columnar snapshot (one
vectorised cell-sort, no per-point Python work) and defers building the
Python buckets until a bucket API (``within``/``nearest``/iteration/
mutation) is actually used.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

_Cell = Tuple[int, int]

#: Below this many indexed points a batched query beats cell gathering
#: with one vectorised distance pass over *all* points.
_BRUTE_FORCE_MAX = 4096

#: Elements per row block of a (queries x points) distance pass: bounds
#: its float64 temporaries at a few hundred KB each, whatever the sizes.
_BLOCK_ELEMENTS = 1 << 16


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
    if len(found) == 1:
        return found[0]
    rows, hit, d2 = zip(*found)
    return np.concatenate(rows), np.concatenate(hit), np.concatenate(d2)


def split_rows(flat: list, rows: np.ndarray, n_rows: int) -> List[list]:
    """Cut ``flat`` (one entry per hit, ordered by row) into per-row lists."""
    bounds = np.searchsorted(rows, np.arange(n_rows + 1)).tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
        spans = cols.spans  # may sort cols.x/y/items in place; read it first
        xs = cols.x.tolist()
        ys = cols.y.tolist()
        for cell, (lo, hi) in spans.items():
            self._cells[cell].extend(zip(xs[lo:hi], ys[lo:hi], cols.items[lo:hi]))
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
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius!r}")
        qx = np.asarray(xs, dtype=np.float64)
        qy = np.asarray(ys, dtype=np.float64)
        if qx.shape != qy.shape or qx.ndim != 1:
            raise ValueError("within_many takes two equal-length 1-d coordinate arrays")
        if self._count == 0 or qx.size == 0:
            return [[] for _ in range(qx.size)]
        cols = self._ensure_columns()
        if self._count <= _BRUTE_FORCE_MAX:
            # One blocked array pass over every (query, indexed point) pair.
            rows, hit, d2 = pairs_within(cols.x, cols.y, qx, qy, radius)
            items = cols.items
            flat = [
                (d, items[i]) for d, i in zip(np.sqrt(d2).tolist(), hit.tolist())
            ]
            return split_rows(flat, rows, qx.size)
        out: List[List[Tuple[float, T]]] = []
        r2 = radius * radius
        reach = math.ceil(radius / self.cell_size)
        for x, y in zip(qx.tolist(), qy.tolist()):
            cx, cy = self._cell_of(x, y)
            spans = [
                cols.spans[(gx, gy)]
                for gx in range(cx - reach, cx + reach + 1)
                for gy in range(cy - reach, cy + reach + 1)
                if (gx, gy) in cols.spans
            ]
            if not spans:
                out.append([])
                continue
            idx = np.concatenate([np.arange(lo, hi) for lo, hi in spans])
            d2 = (cols.x[idx] - x) ** 2 + (cols.y[idx] - y) ** 2
            keep = d2 <= r2
            dists = np.sqrt(d2[keep])
            out.append(
                [
                    (d, cols.items[i])
                    for d, i in zip(dists.tolist(), idx[keep].tolist())
                ]
            )
        return out

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

        Builds the columnar :meth:`within_many` snapshot directly — one
        vectorised cell computation, no per-point Python work — and
        defers materialising the per-cell Python buckets until a bucket
        API (``within``, ``nearest``, iteration, or a mutation) is used.
        Even the cell sort is deferred: the sub-:data:`_BRUTE_FORCE_MAX`
        batched path scans every point regardless of grouping, so a
        bulk-loaded index pays for sorting only if the span table or the
        buckets are actually needed.
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
        gx = np.floor(qx / index.cell_size).astype(np.int64)
        gy = np.floor(qy / index.cell_size).astype(np.int64)
        index._columns = _Columns(qx, qy, list(items), cells_xy=(gx, gy))
        index._count = n
        index._grow_bbox(int(gx.min()), int(gy.min()))
        index._grow_bbox(int(gx.max()), int(gy.max()))
        index._cells_stale = True
        return index


class _Columns(Generic[T]):
    """Flat columnar snapshot of a grid: coordinates + items.

    Built from buckets the rows arrive cell-grouped with an eager span
    table.  Built from a bulk :meth:`GridIndex.from_columns` load the
    rows stay in caller order with their cell coordinates on the side;
    the first :attr:`spans` access sorts rows by cell in place and
    derives the span table then — the brute-force ``within_many`` path
    reads only ``x``/``y``/``items`` and never triggers the sort.
    """

    __slots__ = ("x", "y", "items", "_spans", "_cells_xy")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        items: List[T],
        spans: "Dict[_Cell, Tuple[int, int]] | None" = None,
        cells_xy: "Tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> None:
        self.x = x
        self.y = y
        self.items = items
        self._spans = spans
        self._cells_xy = cells_xy

    @property
    def spans(self) -> Dict[_Cell, Tuple[int, int]]:
        """Cell -> (start, end) row range, sorting rows by cell on demand."""
        if self._spans is None:
            gx, gy = self._cells_xy
            order = np.lexsort((gy, gx))
            self.x = self.x[order]
            self.y = self.y[order]
            items = self.items
            self.items = [items[i] for i in order.tolist()]
            sgx = gx[order]
            sgy = gy[order]
            n = sgx.size
            cut = np.flatnonzero((np.diff(sgx) != 0) | (np.diff(sgy) != 0)) + 1
            starts = np.concatenate(([0], cut))
            ends = np.concatenate((cut, [n]))
            self._cells_xy = None
            self._spans = {
                (cx, cy): (lo, hi)
                for cx, cy, lo, hi in zip(
                    sgx[starts].tolist(),
                    sgy[starts].tolist(),
                    starts.tolist(),
                    ends.tolist(),
                )
            }
        return self._spans

    @classmethod
    def build(
        cls, cells: Dict[_Cell, List[Tuple[float, float, T]]], count: int
    ) -> "_Columns[T]":
        x = np.empty(count, dtype=np.float64)
        y = np.empty(count, dtype=np.float64)
        items: List[T] = []
        spans: Dict[_Cell, Tuple[int, int]] = {}
        pos = 0
        for cell, bucket in cells.items():
            start = pos
            for px, py, item in bucket:
                x[pos] = px
                y[pos] = py
                items.append(item)
                pos += 1
            if pos > start:
                spans[cell] = (start, pos)
        return cls(x, y, items, spans=spans)
