"""Worker-process side of the sharded skyline executor.

Each pool worker runs :func:`init_worker` exactly once: it unpickles the
setup blob (schema + domain mappings, pickled **once** in the parent)
and attaches the shared-memory point store.

The parent then submits one *drain* (:func:`run_steal_drain`) per worker
slot.  Each drain claims fine-grained tasks from the shared control
block -- its own home queue front-to-back first, then steals from the
back of the most-loaded victim -- until the deque is empty.  Before
(and, in dynamic filter mode, during) each shard scan it prunes rows
against the cross-shard filter board, rebuilds the surviving points from
shared array rows, assembles a standalone shard dataset (own counters,
own kernel, own lazily-built R-trees) and runs the requested algorithm
locally.  Results -- the emitted **global row ids** plus a counter row
-- travel back through the control block's shared arrays rather than
the future's return value, so the parent can merge finished shards
while the drain is still running.

Each pool has its own claim lock, handed to the workers through
:func:`init_worker`: ``multiprocessing`` locks cannot be pickled, but a
``fork``-started pool passes ``initargs`` to its workers by inheritance.
A broken pool terminates its surviving workers, possibly one inside a
claim; the lock that worker leaves held is discarded with its pool
instead of blocking every pool after it.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from dataclasses import dataclass

from repro.exceptions import QueryTimeoutError

__all__ = ["WorkerSetup", "init_worker", "run_steal_drain"]


@dataclass(frozen=True)
class WorkerSetup:
    """Pickled-once pool configuration (everything points don't carry)."""

    schema: object
    mappings: tuple
    strategy: object
    native_mode: str
    kernel_name: str
    faithful_gate: bool
    max_entries: int
    bulk_load: bool


# Per-process state installed by the pool initializer.
_SETUP: WorkerSetup | None = None
_STORE = None
#: Caches that survive across tasks in one worker process (batch-kernel
#: relation memo keyed by nothing -- one dataset per pool).
_CACHES: dict = {}
#: This worker's pool claim lock (see module docstring).
_CLAIM_LOCK = None


def init_worker(setup_blob: bytes, layout, claim_lock) -> None:
    """Pool initializer: unpickle setup, attach shared memory, keep the
    pool's claim lock."""
    global _SETUP, _STORE, _CLAIM_LOCK
    from repro.parallel.shard import AttachedPointStore

    _SETUP = pickle.loads(setup_blob)
    _STORE = AttachedPointStore(layout)
    _CACHES.clear()
    _CLAIM_LOCK = claim_lock


def _make_shard_dataset(points, stats, context):
    """A standalone :class:`TransformedDataset` over rebuilt shard points.

    Mirrors ``TransformedDataset.subset_view`` construction, but with a
    worker-local kernel bound to this task's fresh counter bundle (the
    batch kernel's relation memo is reused across tasks in the same
    process -- it depends only on the mappings).
    """
    from repro.core.dominance import DominanceKernel
    from repro.transform.dataset import TransformedDataset

    setup = _SETUP
    closures = (
        tuple(m.closure for m in setup.mappings)
        if setup.native_mode == "closure" and setup.mappings
        else None
    )
    if setup.kernel_name == "numpy":
        from repro.core.batch import BatchDominanceKernel

        kernel = BatchDominanceKernel(
            setup.schema, stats, setup.faithful_gate, closures, setup.mappings
        )
        memo = _CACHES.get("relations")
        if memo is not None:
            kernel._relations = memo
    else:
        kernel = DominanceKernel(setup.schema, stats, setup.faithful_gate, closures)

    ds = TransformedDataset.__new__(TransformedDataset)
    ds.schema = setup.schema
    ds.records = [p.record for p in points]
    ds.strategy = setup.strategy
    ds.stats = stats
    ds.mappings = setup.mappings
    ds.native_mode = setup.native_mode
    ds.kernel_name = setup.kernel_name
    ds.kernel = kernel
    ds.max_entries = setup.max_entries
    ds.bulk_load = setup.bulk_load
    ds.context = context
    ds.points = list(points)
    ds._index = None
    ds._stratification = None
    ds._buffer_pool = None
    ds._build_lock = threading.RLock()
    ds._base = None
    ds._kernel_injector = None
    ds._update_injector = None
    return ds


def _claim_task(block, slot: int):
    """Claim one task under the inherited lock, stealing when dry.

    Own home queue front-to-back first (preserves shard locality), then
    the *back* of the victim slot with the most unclaimed tasks -- the
    classic steal-from-the-tail discipline, which takes the work its
    owner would reach last.  Lock hold plus scan time is billed to the
    per-slot ``claim_seconds`` cell (the bench's ``steal_wait`` stage).
    """
    started = time.perf_counter()
    with _CLAIM_LOCK:
        claims = block.claims
        home = block.home
        mine = None
        for i in range(block.layout.n_tasks):
            if home[i] == slot and not claims[i]:
                mine = i
                break
        stolen = False
        if mine is None:
            per_slot: dict[int, list[int]] = {}
            for i in range(block.layout.n_tasks):
                if not claims[i]:
                    per_slot.setdefault(int(home[i]), []).append(i)
            if per_slot:
                victim = max(per_slot, key=lambda s: (len(per_slot[s]), -s))
                mine = per_slot[victim][-1]
                stolen = True
        if mine is not None:
            claims[mine] = 1
            if stolen:
                block.steals[slot] += 1
        block.claim_seconds[slot] += time.perf_counter() - started
    return mine


def _board_prune(block, rows, stats):
    """Filter one task's rows against the board; returns survivors.

    Rows are scanned in :data:`~repro.parallel.board.FILTER_CHUNK`-sized
    passes; in dynamic filter mode the board is re-read between passes
    so representatives published by other workers mid-query prune the
    remainder of this shard too.  Billing goes to the dedicated ``filter_board_*``
    counters, never to the algorithms' own dominance bill.
    """
    import numpy as np

    from repro.parallel.board import FILTER_CHUNK, FILTER_MODES, prune_chunk

    mode = block.filter_mode
    if mode == FILTER_MODES["off"] or len(rows) == 0:
        return rows
    vectors = _STORE.vectors[rows]
    cats = _STORE.cats[rows]
    alive = np.ones(len(rows), dtype=bool)
    rep_vecs, rep_cats = block.read_reps(mode)
    for lo in range(0, len(rows), FILTER_CHUNK):
        if lo and mode == FILTER_MODES["dynamic"]:
            rep_vecs, rep_cats = block.read_reps(mode)
        if not len(rep_vecs):
            continue
        hi = min(lo + FILTER_CHUNK, len(rows))
        checks, hits = prune_chunk(
            vectors[lo:hi], cats[lo:hi], alive[lo:hi], rep_vecs, rep_cats
        )
        stats.filter_board_checks += checks
        stats.filter_board_hits += hits
    return rows[alive]


def _local_representatives(points, local) -> list:
    """Min-key local-skyline representative per category, best first."""
    from repro.parallel.shard import CATEGORY_CODES

    best: dict = {}
    for p in local:
        cur = best.get(p.category)
        if cur is None or p.key < cur.key:
            best[p.category] = p
    ranked = sorted(best.values(), key=lambda p: (p.key, CATEGORY_CODES[p.category]))
    return [(CATEGORY_CODES[p.category], p.vector) for p in ranked]


def _run_steal_task(block, task_ix: int, algorithm: str, options: dict) -> None:
    """Execute one claimed task; all output goes through the block.

    The status word is written *last* so the parent's incremental merge
    never observes a half-written result region.
    """
    from repro.algorithms.base import get_algorithm
    from repro.core.stats import ComparisonStats
    from repro.parallel.board import (
        FILTER_MODES,
        TASK_OK,
        TASK_TIMEOUT,
    )
    from repro.resilience.context import NULL_CONTEXT, QueryContext

    stats = ComparisonStats()
    start, stop = (int(v) for v in block.bounds[task_ix])
    rows = _STORE.order[start:stop]

    remaining = block.remaining_seconds()
    if remaining is not None and remaining <= 0:
        block.write_task_counters(task_ix, stats)
        block.status[task_ix] = TASK_TIMEOUT
        return
    if remaining is not None:
        # Deadline re-arming: the worker-side budget is whatever is left
        # of the parent's absolute deadline at *claim* time.
        context = QueryContext(deadline=remaining)
        context.start(stats)
    else:
        context = NULL_CONTEXT

    surviving = _board_prune(block, rows, stats).tolist()
    points = _STORE.build_rows(_SETUP.mappings, surviving)
    # Stub rids are *original* record ids (heap tie-break parity); map
    # emitted points back to global rows by identity.
    row_of = {id(p): g for p, g in zip(points, surviving)}
    dataset = _make_shard_dataset(points, stats, context)
    algo = get_algorithm(algorithm, **options)
    try:
        local = list(algo.run(dataset))
    except QueryTimeoutError:
        block.write_task_counters(task_ix, stats)
        block.status[task_ix] = TASK_TIMEOUT
        return

    if _SETUP.kernel_name == "numpy" and "relations" not in _CACHES:
        memo = getattr(dataset.kernel, "_relations", None)
        if memo is not None:
            _CACHES["relations"] = memo

    if block.filter_mode == FILTER_MODES["dynamic"] and local:
        block.publish_dynamic_reps(task_ix, _local_representatives(points, local))

    count = len(local)
    block.result_rows[start : start + count] = [row_of[id(p)] for p in local]
    block.result_count[task_ix] = count
    block.write_task_counters(task_ix, stats)
    block.status[task_ix] = TASK_OK


def run_steal_drain(control_layout, slot: int, algorithm: str, options: dict) -> int:
    """Drain the shared task deque from worker slot ``slot``.

    Claims (or steals) tasks until none remain or the query is
    cancelled, running each through the board filter and the shard-local
    algorithm.  Returns the number of tasks this slot executed; results
    travel through the control block, not the future.
    """
    from repro.parallel.board import ControlBlock

    block = ControlBlock.attach(control_layout)
    executed = 0
    try:
        while not block.cancelled:
            task_ix = _claim_task(block, slot)
            if task_ix is None:
                break
            if block.kill[task_ix]:
                # Deterministic stand-in for a worker crash mid-steal
                # (chaos harness): bypass all python-level cleanup,
                # exactly like SIGKILL.
                os._exit(17)
            _run_steal_task(block, task_ix, algorithm, options)
            executed += 1
    finally:
        block.close()
    return executed
