"""Pickled-once shared-memory packing of transformed points.

The parent process flattens every :class:`~repro.transform.point.Point`
into a handful of flat ``numpy`` arrays inside **one**
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Worker
processes attach the segment once (in the pool initializer) and rebuild
their shard's points from array rows -- no per-task pickling of records,
vectors or native sets ever happens.  What *is* pickled is pickled once:
the schema + domain mappings setup blob shipped to each worker at pool
start (see :mod:`repro.parallel.worker`).

Layout (all offsets 8-byte aligned, ``n`` points, ``d`` transformed
dimensions, ``m`` poset attributes)::

    vectors  float64  (n, d)   transformed minimisation vectors
    levels   int64    (n,)     record-level uncovered levels
    cats     uint8    (n,)     category codes (CATEGORY_CODES order)
    rids     int64    (n,)     original record ids (rebuilt points carry
                               the true rid so heap tie-breaks match the
                               parent's; non-int rids fall back to the
                               row id)
    order    int64    (n,)     shard layout: global row ids, shards
                               contiguous; a task is a [start, stop)
                               slice of this array
    pix      int64    (n, m)   per-attribute interval/node indexes
                               (omitted when m == 0)

Native sets are *not* shipped: they are interned per poset node, so the
worker reconstructs them from ``pix`` through its own copy of the domain
mappings (``mapping.native_set_ix``) -- identical objects to what the
parent's :meth:`TransformedDataset.transform` would produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.categories import Category
from repro.transform.point import Point

__all__ = [
    "CATEGORY_CODES",
    "CATEGORY_BY_CODE",
    "ShmLayout",
    "SharedPointStore",
    "AttachedPointStore",
]

#: Stable category <-> uint8 code mapping (enum definition order).
CATEGORY_CODES: dict[Category, int] = {cat: i for i, cat in enumerate(Category)}
CATEGORY_BY_CODE: tuple[Category, ...] = tuple(Category)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class ShmLayout:
    """Everything a worker needs to attach and map the segment."""

    name: str
    n: int
    dims: int
    nposets: int
    vectors_off: int
    levels_off: int
    cats_off: int
    rids_off: int
    order_off: int
    pix_off: int
    total: int


def _compute_layout(name: str, n: int, dims: int, nposets: int) -> ShmLayout:
    vectors_off = 0
    levels_off = _align8(vectors_off + 8 * n * dims)
    cats_off = _align8(levels_off + 8 * n)
    rids_off = _align8(cats_off + n)
    order_off = _align8(rids_off + 8 * n)
    pix_off = _align8(order_off + 8 * n)
    total = _align8(pix_off + 8 * n * nposets)
    return ShmLayout(
        name=name,
        n=n,
        dims=dims,
        nposets=nposets,
        vectors_off=vectors_off,
        levels_off=levels_off,
        cats_off=cats_off,
        rids_off=rids_off,
        order_off=order_off,
        pix_off=pix_off,
        total=max(total, 8),
    )


def _map_arrays(buf, layout: ShmLayout):
    """numpy views over a shared-memory buffer, per the layout."""
    n, d, m = layout.n, layout.dims, layout.nposets
    vectors = np.ndarray((n, d), dtype=np.float64, buffer=buf, offset=layout.vectors_off)
    levels = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=layout.levels_off)
    cats = np.ndarray((n,), dtype=np.uint8, buffer=buf, offset=layout.cats_off)
    rids = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=layout.rids_off)
    order = np.ndarray((n,), dtype=np.int64, buffer=buf, offset=layout.order_off)
    pix = (
        np.ndarray((n, m), dtype=np.int64, buffer=buf, offset=layout.pix_off)
        if m
        else None
    )
    return vectors, levels, cats, rids, order, pix


class SharedPointStore:
    """Parent-side owner of the shared segment (create + pack + unlink)."""

    def __init__(self, points: list[Point], dims: int, nposets: int, order) -> None:
        n = len(points)
        probe = _compute_layout("?", n, dims, nposets)
        self._shm = shared_memory.SharedMemory(create=True, size=probe.total)
        self.layout = _compute_layout(self._shm.name, n, dims, nposets)
        vectors, levels, cats, rids, order_arr, pix = _map_arrays(
            self._shm.buf, self.layout
        )
        for i, p in enumerate(points):
            vectors[i] = p.vector
            levels[i] = p.level
            cats[i] = CATEGORY_CODES[p.category]
            # Heap tie-breaks key on rid (rtree/heap.py); ship the true
            # rid so worker-local emission order matches the parent's.
            # Non-int rids degrade to the row id -- order parity then
            # needs rids that sort like row positions, which every
            # integer-rid dataset satisfies trivially.
            rid = p.record.rid
            rids[i] = rid if isinstance(rid, int) else i
            if pix is not None:
                pix[i] = p.pix
        order_arr[:] = np.asarray(order, dtype=np.int64)

    def close(self) -> None:
        """Release the parent's mapping and destroy the segment."""
        try:
            self._shm.close()
        finally:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class AttachedPointStore:
    """Worker-side read-only attachment to the parent's segment."""

    def __init__(self, layout: ShmLayout) -> None:
        self.layout = layout
        self._shm = shared_memory.SharedMemory(name=layout.name)
        (
            self.vectors,
            self.levels,
            self.cats,
            self.rids,
            self.order,
            self.pix,
        ) = _map_arrays(self._shm.buf, layout)

    def build_rows(self, mappings, rows) -> list[Point]:
        """Rebuild points for explicit **global** row ids.

        ``Point.record`` carries a lightweight stub whose ``rid`` is the
        parent point's **original record id**, so the heap's canonical
        ``(key, rid)`` tie-break (rtree/heap.py) orders worker-local
        emission exactly like the parent's serial run would.  Answers
        ship back as global row ids via an identity map kept by the
        caller (``zip(points, rows)``), never via the stub rid.  Vectors
        round-trip exactly (float64 in, float64 out), so the
        lazily-derived ``Point.key`` is bit-identical to the parent's.
        Workers call this with the rows that survived the filter board.
        """
        from repro.core.record import Record

        points: list[Point] = []
        for g in rows:
            vector = tuple(self.vectors[g].tolist())
            if self.pix is not None:
                pix = tuple(self.pix[g].tolist())
                nsets = tuple(
                    mapping.native_set_ix(i) for mapping, i in zip(mappings, pix)
                )
            else:
                pix = ()
                nsets = ()
            points.append(
                Point(
                    Record(int(self.rids[g]), (), ()),
                    vector,
                    pix,
                    nsets,
                    CATEGORY_BY_CODE[int(self.cats[g])],
                    int(self.levels[g]),
                )
            )
        return points

    def close(self) -> None:
        """Detach (the parent owns unlinking)."""
        self.vectors = self.levels = self.cats = None
        self.rids = self.order = self.pix = None
        self._shm.close()
