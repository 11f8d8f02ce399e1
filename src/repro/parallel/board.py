"""Shared-memory control block: task deque, steal ledger, filter board.

One :class:`ControlBlock` is created per *query* (the points themselves
reach the workers by fork inheritance, see :mod:`repro.parallel.worker`;
this segment carries only coordination state).  It packs three things
into a single ``multiprocessing.shared_memory`` segment:

**Task deque.**  Every task is a ``[start, stop)`` slice of the pool's
shard-major row ``order`` array plus a *home slot* (contiguous blocks
of tasks are pre-assigned to worker slots).  Workers claim their own queue
front-to-back and, when it drains, steal from the back of the victim
with the most unclaimed work -- the classic work-stealing discipline,
serialised by one ``fork``-inherited lock (claims are rare and coarse).
``steals`` and per-slot claim-wait seconds are accounted in the block.

**Result regions.**  Each task owns a slice of the result array
mirroring its input slice, plus a counter row (one
:class:`~repro.core.stats.ComparisonStats` vector) and a status word the
parent polls to merge finished shards *incrementally* -- no barrier on
the full fan-out.

**Filter board** (the cross-shard Lemma 4.2 propagation).  Each task owns
:data:`BOARD_REPS` representative slots.  The parent deterministically
seeds up to two *static* representatives per task before dispatch: the
task's minimum-key point and its minimum-key completely-covering point.
The min-key point of any subset is a member of that subset's local
skyline (dominance implies a strictly smaller key), and soundness never
needs more: ``rep`` eliminates ``q`` whenever the ``(rep.category,
q.category)`` edge is *bold* (m-dominance coincides with dominance,
Lemma 4.2) and ``rep`` strictly m-dominates ``q``'s vector -- ``rep`` is
a real record, so ``q`` is dominated and cannot be a skyline answer,
whether or not ``rep`` itself survives.  The strictness also protects
transformed-space duplicates of ``rep`` (they must survive).  Workers
consult the board *before and during* their shard scans (in
:data:`FILTER_CHUNK`-row passes) and, in ``"dynamic"`` filter mode,
publish improved representatives out of each finished local skyline into
their remaining slots -- cross-shard pruning while computation is still
running, instead of only at merge time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from multiprocessing import shared_memory

import numpy as np

from repro.core.categories import Category, is_bold
from repro.core.stats import ComparisonStats

__all__ = [
    "CATEGORY_CODES",
    "CATEGORY_BY_CODE",
    "STAT_FIELDS",
    "BOLD_MATRIX",
    "FILTER_MODES",
    "BOARD_REPS",
    "FILTER_CHUNK",
    "ControlLayout",
    "ControlBlock",
    "static_representatives",
    "prune_chunk",
    "TASK_PENDING",
    "TASK_OK",
    "TASK_TIMEOUT",
]

#: Stable category <-> uint8 code mapping (enum definition order).
CATEGORY_CODES: dict[Category, int] = {cat: i for i, cat in enumerate(Category)}
CATEGORY_BY_CODE: tuple[Category, ...] = tuple(Category)

#: Canonical counter-vector order shipped through the control block.
STAT_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(ComparisonStats))

#: ``BOLD_MATRIX[src_code, dst_code]`` -- Lemma 4.2 bold edges over the
#: stable :data:`CATEGORY_CODES`.
BOLD_MATRIX: np.ndarray = np.array(
    [[is_bold(src, dst) for dst in Category] for src in Category], dtype=bool
)

FILTER_MODES = {"off": 0, "static": 1, "dynamic": 2}

#: Filter-board slots per task: the parent seeds up to two static
#: representatives and workers may publish into the remaining slots.
BOARD_REPS = 4

#: Rows per filter pass: workers prune their shard in chunks of this
#: size, re-reading the board between chunks so representatives
#: published mid-query prune the remainder.
FILTER_CHUNK = 4096

TASK_PENDING, TASK_OK, TASK_TIMEOUT = 0, 1, 2

#: Representative-slot states.
REP_EMPTY, REP_STATIC, REP_DYNAMIC = 0, 1, 2

_HEADER_INTS = 2  # filter mode, cancel flag
_HEADER_FLOATS = 1  # deadline epoch (0 = none)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class ControlLayout:
    """Everything a worker needs to attach and map the segment."""

    name: str
    n_tasks: int
    slots: int
    dims: int
    total_rows: int
    total: int


def _compute_layout(
    name: str, n_tasks: int, slots: int, dims: int, total_rows: int
) -> tuple[ControlLayout, dict[str, int]]:
    nstat = len(STAT_FIELDS)
    nreps = n_tasks * BOARD_REPS
    offsets: dict[str, int] = {}
    cursor = 0

    def put(key: str, nbytes: int) -> None:
        nonlocal cursor
        offsets[key] = cursor
        cursor = _align8(cursor + nbytes)

    put("header_i", 8 * _HEADER_INTS)
    put("header_f", 8 * _HEADER_FLOATS)
    put("bounds", 8 * n_tasks * 2)
    put("home", 8 * n_tasks)
    put("kill", n_tasks)
    put("claims", 8 * n_tasks)
    put("status", 8 * n_tasks)
    put("result_count", 8 * n_tasks)
    put("result_rows", 8 * total_rows)
    put("counters", 8 * n_tasks * nstat)
    put("steals", 8 * slots)
    put("claim_seconds", 8 * slots)
    put("rep_state", 8 * nreps)
    put("rep_cat", 8 * nreps)
    put("rep_vec", 8 * nreps * dims)
    layout = ControlLayout(
        name=name,
        n_tasks=n_tasks,
        slots=slots,
        dims=dims,
        total_rows=total_rows,
        total=max(cursor, 8),
    )
    return layout, offsets


class ControlBlock:
    """Parent- or worker-side mapping of one query's control segment."""

    def __init__(
        self,
        layout: ControlLayout,
        shm: shared_memory.SharedMemory,
        offsets: dict[str, int],
        owner: bool,
    ) -> None:
        self.layout = layout
        self._shm = shm
        self._owner = owner
        buf = shm.buf
        n, s, d, r = layout.n_tasks, layout.slots, layout.dims, BOARD_REPS
        nstat = len(STAT_FIELDS)

        def arr(key: str, shape, dtype):
            return np.ndarray(shape, dtype=dtype, buffer=buf, offset=offsets[key])

        self.header_i = arr("header_i", (_HEADER_INTS,), np.int64)
        self.header_f = arr("header_f", (_HEADER_FLOATS,), np.float64)
        self.bounds = arr("bounds", (n, 2), np.int64)
        self.home = arr("home", (n,), np.int64)
        self.kill = arr("kill", (n,), np.uint8)
        self.claims = arr("claims", (n,), np.int64)
        self.status = arr("status", (n,), np.int64)
        self.result_count = arr("result_count", (n,), np.int64)
        self.result_rows = arr("result_rows", (layout.total_rows,), np.int64)
        self.counters = arr("counters", (n, nstat), np.int64)
        self.steals = arr("steals", (s,), np.int64)
        self.claim_seconds = arr("claim_seconds", (s,), np.float64)
        self.rep_state = arr("rep_state", (n * r,), np.int64)
        self.rep_cat = arr("rep_cat", (n * r,), np.int64)
        self.rep_vec = arr("rep_vec", (n * r, d), np.float64)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        shards,
        slots: int,
        dims: int,
        filter_mode: str,
        deadline_epoch: float | None,
    ) -> "ControlBlock":
        """Parent-side: allocate and initialise the segment.

        ``shards`` is the ordered shard tuple from the partition; task
        ``i`` covers rows ``[start_i, stop_i)`` of the pool's ``order``
        array, and homes are assigned as contiguous blocks over the
        ``slots`` worker slots.
        """
        n_tasks = len(shards)
        total_rows = sum(len(s.rows) for s in shards)
        probe, _ = _compute_layout("?", n_tasks, slots, dims, total_rows)
        shm = shared_memory.SharedMemory(create=True, size=probe.total)
        layout, offsets = _compute_layout(shm.name, n_tasks, slots, dims, total_rows)
        block = cls(layout, shm, offsets, owner=True)
        block.header_i[:] = 0
        block.header_f[:] = 0.0
        block.header_i[0] = FILTER_MODES[filter_mode]
        if deadline_epoch is not None:
            block.header_f[0] = deadline_epoch
        cursor = 0
        for i, shard in enumerate(shards):
            block.bounds[i, 0] = cursor
            cursor += len(shard.rows)
            block.bounds[i, 1] = cursor
            block.home[i] = i * slots // n_tasks
        block.kill[:] = 0
        block.claims[:] = 0
        block.status[:] = TASK_PENDING
        block.result_count[:] = 0
        block.counters[:] = 0
        block.steals[:] = 0
        block.claim_seconds[:] = 0.0
        block.rep_state[:] = REP_EMPTY
        return block

    @classmethod
    def attach(cls, layout: ControlLayout) -> "ControlBlock":
        """Worker-side: map an existing segment read-write."""
        shm = shared_memory.SharedMemory(name=layout.name)
        _, offsets = _compute_layout(
            layout.name, layout.n_tasks, layout.slots, layout.dims, layout.total_rows
        )
        return cls(layout, shm, offsets, owner=False)

    # ------------------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        return bool(self.header_i[1])

    def cancel(self) -> None:
        """Raise the cooperative stop flag (drains exit between tasks)."""
        self.header_i[1] = 1

    @property
    def filter_mode(self) -> int:
        return int(self.header_i[0])

    @property
    def deadline_epoch(self) -> float | None:
        value = float(self.header_f[0])
        return value if value > 0 else None

    def remaining_seconds(self) -> float | None:
        """Wall-clock budget left, or ``None`` without a deadline."""
        expires = self.deadline_epoch
        if expires is None:
            return None
        return expires - time.time()

    # ------------------------------------------------------------------
    def seed_static_reps(self, task: int, reps) -> None:
        """Parent-side: publish a task's deterministic representatives.

        ``reps`` is a list of ``(category_code, vector)`` pairs, at most
        two (min-key + min-key covering; see
        :func:`static_representatives`).
        """
        base = task * BOARD_REPS
        for j, (cat_code, vector) in enumerate(reps[:2]):
            self.rep_vec[base + j] = vector
            self.rep_cat[base + j] = cat_code
            self.rep_state[base + j] = REP_STATIC

    def publish_dynamic_reps(self, task: int, reps) -> int:
        """Worker-side: fill the task's free slots with better reps.

        ``reps`` is ``(category_code, vector)`` pairs in deterministic
        (min-key per category) order.  The state word is written last so
        a concurrent reader never observes a half-written entry.
        Returns how many were published.
        """
        base = task * BOARD_REPS
        free = [
            base + j
            for j in range(BOARD_REPS)
            if self.rep_state[base + j] == REP_EMPTY
        ]
        published = 0
        for slot_ix, (cat_code, vector) in zip(free, reps):
            self.rep_vec[slot_ix] = vector
            self.rep_cat[slot_ix] = cat_code
            self.rep_state[slot_ix] = REP_DYNAMIC
            published += 1
        return published

    def read_reps(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """Current board snapshot: ``(rep_vectors, rep_categories)``.

        ``mode`` gates visibility: static mode sees only the parent's
        seed entries (deterministic), dynamic mode additionally sees
        worker-published entries.  Entries are returned in board-slot
        order, which is fixed, so the *consultation order* is
        deterministic even when visibility is not.
        """
        states = self.rep_state
        if mode >= FILTER_MODES["dynamic"]:
            mask = states != REP_EMPTY
        else:
            mask = states == REP_STATIC
        idx = np.nonzero(mask)[0]
        return self.rep_vec[idx], self.rep_cat[idx]

    def task_counters(self, task: int) -> dict[str, int]:
        """Parent-side: one task's :class:`ComparisonStats` snapshot."""
        row = self.counters[task]
        return {name: int(row[i]) for i, name in enumerate(STAT_FIELDS)}

    def write_task_counters(self, task: int, stats: ComparisonStats) -> None:
        """Worker-side: persist a finished task's exact counter bill."""
        snapshot = stats.snapshot()
        for i, name in enumerate(STAT_FIELDS):
            self.counters[task, i] = snapshot[name]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the mapping (owner also destroys the segment)."""
        arrays = (
            "header_i header_f bounds home kill claims status result_count "
            "result_rows counters steals claim_seconds "
            "rep_state rep_cat rep_vec"
        ).split()
        for name in arrays:
            setattr(self, name, None)
        try:
            self._shm.close()
        finally:
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass


def static_representatives(points, rows) -> list[tuple[int, tuple[float, ...]]]:
    """Deterministic parent-side seed reps for one task's raw rows.

    The minimum-key point plus, when distinct, the minimum-key
    completely-covering point -- ``(category_code, vector)`` pairs.
    Soundness does not require local-skyline membership (any real record
    works as an eliminator), but the min-key point *is* a local-skyline
    member, which makes it the strongest single filter the task owns.
    """
    best = min(rows, key=lambda i: (points[i].key, i))
    reps = [(CATEGORY_CODES[points[best].category], points[best].vector)]
    covering = [i for i in rows if points[i].category.completely_covering]
    if covering:
        best_cov = min(covering, key=lambda i: (points[i].key, i))
        if best_cov != best:
            reps.append(
                (CATEGORY_CODES[points[best_cov].category], points[best_cov].vector)
            )
    return reps


def prune_chunk(
    vectors: np.ndarray,
    cats: np.ndarray,
    alive: np.ndarray,
    rep_vecs: np.ndarray,
    rep_cats: np.ndarray,
) -> tuple[int, int]:
    """Apply board representatives to one chunk of shard rows.

    ``vectors``/``cats``/``alive`` are chunk-aligned views; ``alive`` is
    mutated in place.  A row dies when some representative's category
    edge to it is bold *and* the representative strictly m-dominates its
    vector (all coordinates ``<=``, at least one ``<``) -- the exact
    per-point analogue of the merge prefilter's corner test, so
    duplicates of a representative always survive.  Returns
    ``(checks, hits)`` where a check is one representative-vs-point test
    actually evaluated (bold edge and still-alive rows only), billed to
    ``ComparisonStats.filter_board_checks``.
    """
    checks = 0
    hits = 0
    for r in range(len(rep_vecs)):
        if not alive.any():
            break
        eligible = alive & BOLD_MATRIX[rep_cats[r]][cats]
        count = int(eligible.sum())
        if not count:
            continue
        checks += count
        rv = rep_vecs[r]
        dominated = eligible & (rv <= vectors).all(axis=1) & (rv < vectors).any(axis=1)
        newly = int(dominated.sum())
        if newly:
            hits += newly
            alive[dominated] = False
    return checks, hits
