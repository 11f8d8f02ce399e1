"""Worker-process side of the sharded skyline executor.

The pool always forks, so every worker already holds the parent's
dataset.  :func:`init_worker` runs once per worker process and keeps
what the parent hands it through the fork-inherited pool ``initargs``
(nothing is pickled): the dataset, the filter board's ``(n, d)`` vector
and per-row category arrays (built once per pool), the shard-major row
order, and the pool's claim lock.

The parent then submits one *drain* (:func:`run_steal_drain`) per worker
slot.  Each drain claims fine-grained tasks from the shared control
block -- its own home queue front-to-back first, then steals from the
back of the most-loaded victim -- until the deque is empty.  Before
(and, in dynamic filter mode, during) each shard scan it prunes the
task's rows against the cross-shard filter board, then runs the
requested algorithm on a per-query view of the task's **shard base**: a
:meth:`~repro.transform.dataset.TransformedDataset.subset_view` over the
surviving rows, kept per task for the life of the pool and rebuilt only
when the board leaves the task a different survivor set.  A shard's
R-tree and strata are therefore built once per pool, not once per task
per query.  Results -- the emitted **global row ids** plus a counter
row -- travel back through the control block's shared arrays rather
than the future's return value, so the parent can merge finished shards
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
import time

from repro.exceptions import QueryTimeoutError

__all__ = ["init_worker", "run_steal_drain"]

# Per-process state installed by the pool initializer.
_DATASET = None
#: Filter-board inputs per global row: ``(n, d)`` vectors, category codes.
_VECTORS = None
_CATS = None
#: Shard-major global row order; a task is a ``[start, stop)`` slice.
_ORDER = None
#: This worker's pool claim lock (see module docstring).
_CLAIM_LOCK = None
#: Shard bases kept across queries: task index -> (surviving rows as
#: bytes, shard base, global row of each shard point keyed by identity).
_SHARDS: dict = {}


def init_worker(dataset, vectors, cats, order, claim_lock) -> None:
    """Pool initializer: keep the fork-inherited pool state."""
    global _DATASET, _VECTORS, _CATS, _ORDER, _CLAIM_LOCK
    _DATASET = dataset
    _VECTORS = vectors
    _CATS = cats
    _ORDER = order
    _CLAIM_LOCK = claim_lock
    _SHARDS.clear()


def _shard_base(task_ix: int, rows):
    """The task's shard base over ``rows``, and its point -> row map.

    Cached per task while the board leaves it the same survivors.  The
    base carries no kernel fault injector (chaos fires at the dispatch
    sites instead) and no buffer pool, so its counters match a
    standalone dataset over the same points.
    """
    key = rows.tobytes()
    cached = _SHARDS.get(task_ix)
    if cached is not None and cached[0] == key:
        return cached[1], cached[2]
    rows = rows.tolist()
    points = [_DATASET.points[g] for g in rows]
    shard = _DATASET.subset_view(points)
    shard._kernel_injector = None
    shard._buffer_pool = None
    # Answers ship back as global rows; points map to them by identity.
    row_of = {id(p): g for p, g in zip(points, rows)}
    _SHARDS[task_ix] = (key, shard, row_of)
    return shard, row_of


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
    remainder of this shard too.  Billing goes to the dedicated
    ``filter_board_*`` counters, never to the algorithms' own dominance
    bill.
    """
    import numpy as np

    from repro.parallel.board import FILTER_CHUNK, FILTER_MODES, prune_chunk

    mode = block.filter_mode
    if mode == FILTER_MODES["off"] or len(rows) == 0:
        return rows
    vectors = _VECTORS[rows]
    cats = _CATS[rows]
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


def _local_representatives(local) -> list:
    """Min-key local-skyline representative per category, best first."""
    from repro.parallel.board import CATEGORY_CODES

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
    from repro.parallel.board import FILTER_MODES, TASK_OK, TASK_TIMEOUT
    from repro.resilience.context import NULL_CONTEXT, QueryContext

    stats = ComparisonStats()
    start, stop = (int(v) for v in block.bounds[task_ix])

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

    surviving = _board_prune(block, _ORDER[start:stop], stats)
    shard, row_of = _shard_base(task_ix, surviving)
    algo = get_algorithm(algorithm, **options)
    try:
        local = list(algo.run(shard.query_view(stats=stats, context=context)))
    except QueryTimeoutError:
        block.write_task_counters(task_ix, stats)
        block.status[task_ix] = TASK_TIMEOUT
        return

    if block.filter_mode == FILTER_MODES["dynamic"] and local:
        block.publish_dynamic_reps(task_ix, _local_representatives(local))

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
