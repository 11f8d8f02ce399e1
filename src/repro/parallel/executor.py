"""Process-pool skyline execution: partition, fan out, steal, merge.

:class:`ParallelSkylineExecutor` owns the sharding decision, the route
choice and a persistent ``fork``-started worker pool over one
:class:`~repro.transform.dataset.TransformedDataset`.  One executor
serves many queries (the serving layer keeps one per server); everything
is built lazily on the first :meth:`run` and torn down by :meth:`close`.
Workers inherit the dataset by fork and keep each task's shard base
(points, R-tree, strata) for the life of the pool
(:mod:`repro.parallel.worker`).

Sharding does not win for every algorithm -- shard-local index
traversals lose the global R-tree's pruning -- so each full-space query
picks its route from measurements in the executor's
:class:`~repro.serving.admission.CostEstimator`.  Complete serial runs
calibrate the algorithm's profile; warm sharded runs calibrate its
``<algorithm>|sharded`` profile.  The first sharded run of an algorithm
on each pool pays for the pool start, the partition and the shard
builds, so it is not recorded.  A query shards until the sharded profile
has a sample, then runs serial once (``routed_reason="calibrating"``)
when the serial profile has none, and from then on routes serial
(``"cost"``) whenever the serial estimate is faster.

A sharded query over-partitions into fine-grained tasks (about
:attr:`~repro.parallel.config.ParallelConfig.tasks_per_worker` per slot),
submits one *drain* per worker slot, and lets drains claim tasks from
the shared deque (stealing from the most-loaded victim when their home
queue runs dry).  Workers prune their shards against the cross-shard
filter board before and during their scans, and the parent absorbs
finished shards into the merge **incrementally** -- shard ``g`` merges
(and streams to the sink) the moment tasks ``0..g`` are done, while
later tasks still compute.  ``tasks_per_worker=1`` with ``filter="off"``
is the plain one-task-per-slot partition/merge (the comparison
benchmark's baseline).

Execution contract (asserted by the parity suite):

* **Answers** are the exact skyline -- the same *set* of points the
  serial engine produces for every algorithm, and in strata mode the
  same emission *order* as serial SDC+.
* **Counters**: every task's :class:`~repro.core.stats.ComparisonStats`
  snapshot plus the parent-side merge bill are added into the same
  aggregate bundle a serial run would charge.  The totals are exact sums
  (no sampling, no loss); they differ from the serial totals only
  because partitioned work *is* different work.  With ``filter="static"``
  (or ``"off"``) they are also deterministic run-to-run; the default
  ``"dynamic"`` filter keeps answers exact but lets counter *magnitudes*
  vary with task timing (a representative published earlier prunes
  more).
* **Resilience**: deadlines propagate into workers (each task re-arms a
  :class:`~repro.resilience.context.QueryContext` with the remaining
  wall-clock budget at claim time); cancellation is polled while waiting
  on workers; a dead worker (or any broken pool) degrades to a serial
  recomputation with a :class:`~repro.exceptions.ParallelFallbackWarning`
  -- never a wrong or partial answer (an already-streamed sink prefix is
  retracted through the sink's typed reset).  Queries carrying a
  *resource budget* run serially: budget truncation is defined on the
  serial emission prefix, which a fan-out cannot reproduce.  Every
  serial routing is explicit -- :attr:`ParallelResult.routed_serial`
  plus a reason (including the route choice's ``"calibrating"`` and
  ``"cost"``), surfaced as the server's ``routed_serial`` metric --
  instead of a silent fall-through.  Platforms without the ``fork``
  start method route serial (``"no-fork"``): drains inherit the claim
  lock by fork.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
import warnings
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.algorithms.base import get_algorithm
from repro.core.stats import ComparisonStats
from repro.exceptions import (
    ParallelError,
    ParallelFallbackWarning,
    QueryCancelledError,
    QueryTimeoutError,
    ResilienceError,
)
from repro.parallel.board import (
    CATEGORY_CODES,
    REP_DYNAMIC,
    TASK_PENDING,
    TASK_TIMEOUT,
    ControlBlock,
    static_representatives,
)
from repro.parallel.config import ParallelConfig
from repro.parallel.merge import IncrementalMerger
from repro.parallel.partition import Partition, partition_dataset
from repro.parallel.worker import init_worker, run_steal_drain
from repro.resilience.context import QueryContext
from repro.resilience.executor import PartialResult, execute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.record import Record
    from repro.transform.dataset import TransformedDataset
    from repro.transform.point import Point

__all__ = ["ParallelResult", "ParallelSkylineExecutor"]

logger = logging.getLogger("repro.parallel")

#: Stage keys every :attr:`ParallelResult.stage_seconds` dict carries.
STAGE_KEYS = (
    "partition", "pool_setup", "board_seed", "compute", "steal_wait", "merge"
)

#: Seconds between cancellation/deadline/merge-frontier checks while
#: the parent waits on workers.
POLL_INTERVAL = 0.02


@dataclass
class ParallelResult:
    """The outcome of one sharded query.

    ``counters`` is the query's aggregate bill (worker snapshots plus
    the merge phase, or the serial bill when the query did not shard);
    the same numbers are merged into the caller's stats bundle.
    """

    points: list["Point"] = field(default_factory=list)
    algorithm: str = ""
    elapsed: float = 0.0
    #: ``"strata"``, ``"grid"`` or ``"serial"``.
    mode: str = "serial"
    #: Whether the query actually fanned out to worker processes.
    parallel: bool = False
    workers: int = 0
    shard_sizes: tuple[int, ...] = ()
    #: Shards eliminated whole by the representative prefilter.
    eliminated_shards: tuple[int, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    worker_counters: list[dict[str, int]] = field(default_factory=list)
    merge_counters: dict[str, int] = field(default_factory=dict)
    #: ``True`` when a broken pool degraded this query to serial.
    fallback: bool = False
    fallback_reason: str | None = None
    #: Fine-grained tasks the query fanned out into (0 when serial).
    tasks: int = 0
    #: Tasks executed by a slot other than their home (steal events).
    steals: int = 0
    #: ``True`` when the query was *deliberately* routed to the serial
    #: path (tiny data, shard floor, collapsed partition, budget, no
    #: fork, route choice) -- distinct from :attr:`fallback`, which is a
    #: crash recovery.
    routed_serial: bool = False
    routed_reason: str | None = None
    #: Wall-clock breakdown over :data:`STAGE_KEYS`.  ``partition`` is
    #: billed only to the query that computed the (cached) partition;
    #: ``pool_setup`` is the pool start (zero on a warm pool);
    #: ``board_seed`` is the per-query control-block allocation plus
    #: filter-board seeding; ``merge`` overlaps ``compute`` (shards
    #: absorb while others still run) and ``steal_wait`` is the
    #: *aggregate* across slots of time spent in claim/steal arbitration.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Dynamic filter-board representatives published by workers.
    filter_reps_published: int = 0

    @property
    def records(self) -> list["Record"]:
        return [p.record for p in self.points]

    @property
    def filter_board_checks(self) -> int:
        return self.counters.get("filter_board_checks", 0)

    @property
    def filter_board_hits(self) -> int:
        return self.counters.get("filter_board_hits", 0)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator["Point"]:
        return iter(self.points)

    def to_partial(self) -> PartialResult:
        """Adapt for callers speaking the resilient-executor protocol."""
        return PartialResult(
            points=self.points,
            complete=True,
            exhausted_reason=None,
            algorithm=self.algorithm,
            elapsed=self.elapsed,
            counters=dict(self.counters),
            checkpoints=0,
            fallback=False,
        )


def _fork_context():
    """The ``fork`` multiprocessing context, or ``None`` without fork."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def _worker_arrays(dataset: "TransformedDataset", partition: Partition):
    """What workers get besides the dataset, built once per pool.

    The filter board's ``(n, d)`` vectors and per-row category codes
    (indexed by global row), and the shard-major row order whose
    ``[start, stop)`` slices are the tasks.
    """
    points = dataset.points
    vectors = np.array([p.vector for p in points], dtype=np.float64)
    cats = np.fromiter(
        (CATEGORY_CODES[p.category] for p in points),
        dtype=np.uint8,
        count=len(points),
    )
    order = np.fromiter(
        chain.from_iterable(shard.rows for shard in partition.shards),
        dtype=np.int64,
    )
    return vectors.reshape(len(points), dataset.dimensions), cats, order


def _stage_dict(**values: float) -> dict[str, float]:
    return {key: float(values.get(key, 0.0)) for key in STAGE_KEYS}


class ParallelSkylineExecutor:
    """Reusable sharded-execution backend over one dataset."""

    def __init__(
        self,
        dataset: "TransformedDataset",
        config: ParallelConfig | int | None = None,
        estimator=None,
    ) -> None:
        from repro.serving.admission import CostEstimator

        self.dataset = dataset
        self.config = ParallelConfig.coerce(config) or ParallelConfig()
        #: The :class:`~repro.serving.admission.CostEstimator` feeding the
        #: adaptive task sizing and the route choice (the serving layer
        #: wires in the admission controller's; a private one otherwise).
        self.estimator = estimator if estimator is not None else CostEstimator()
        self._partition: Partition | None = None
        #: ``(partition, per-task static filter-board seeds)``.
        self._seeds: tuple[Partition, list] | None = None
        self._pool: ProcessPoolExecutor | None = None
        #: The partition the current pool's row order was built from.
        self._pool_partition: Partition | None = None
        #: The current pool's claim lock (one per pool, see
        #: :mod:`repro.parallel.worker`).
        self._claim_lock = None
        #: Algorithms that have run sharded on the current pool: their
        #: next sharded run is warm and calibrates the sharded profile.
        self._warm: set[str] = set()
        self._closed = False
        # Serving runs concurrent queries through one executor; setup and
        # teardown must not interleave (a lost race leaks a pool).
        self._setup_lock = threading.Lock()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelSkylineExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def partition(self) -> Partition:
        """The sharding decision (computed on first use)."""
        if self._partition is None:
            self._partition = partition_dataset(
                self.dataset, self.config, self.estimator
            )
        return self._partition

    def _board_seeds(self, partition: Partition) -> list:
        """Each task's static board representatives (once per partition)."""
        with self._setup_lock:
            if self._seeds is None or self._seeds[0] is not partition:
                points = self.dataset.points
                self._seeds = (
                    partition,
                    [
                        static_representatives(points, shard.rows)
                        for shard in partition.shards
                    ],
                )
            return self._seeds[1]

    def _ensure_pool(self) -> tuple[ProcessPoolExecutor, Partition]:
        """The pool and the partition its workers' row order follows.

        A query runs on this partition, not on the one it was routed
        with: a concurrent pool failure may have re-partitioned since.
        """
        with self._setup_lock:
            if self._pool is not None:
                return self._pool, self._pool_partition
            partition = self._pool_partition = self.partition
            ctx = _fork_context()
            self._claim_lock = ctx.Lock()
            # Fork hands the initargs to the workers by inheritance: the
            # dataset and its arrays are never pickled.
            self._pool = ProcessPoolExecutor(
                max_workers=min(
                    self.config.resolved_workers(), len(partition.shards)
                ),
                mp_context=ctx,
                initializer=init_worker,
                initargs=(
                    self.dataset,
                    *_worker_arrays(self.dataset, partition),
                    self._claim_lock,
                ),
            )
            return self._pool, partition

    def invalidate(self) -> None:
        """Drop the partition and pool so the next run re-shards.

        Callers mutating the dataset (insert/delete) must invalidate --
        the workers hold the dataset as it was when the pool forked.
        The serving layer does this under its writer lock.  Route
        samples stay in the estimator; the warm set goes with the pool.
        """
        self._teardown()

    def _teardown(self) -> None:
        with self._setup_lock:
            pool, self._pool = self._pool, None
            self._partition = self._pool_partition = None
            self._seeds = None
            self._warm.clear()
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down."""
        self._teardown()
        self._closed = True

    def _serial_route(self, algorithm: str) -> str | None:
        """Why a shardable query should run serial, or ``None`` to shard.

        Shards until the sharded profile has a sample, then calibrates
        the serial profile once, then takes the faster estimate.
        """
        estimator = self.estimator
        sharded = f"{algorithm}|sharded"
        if not estimator.profile_samples(sharded):
            return None
        if not estimator.profile_samples(algorithm):
            return "calibrating"
        n, d = len(self.dataset), self.dataset.dimensions
        serial_s = estimator.estimate(algorithm, n, d).seconds
        sharded_s = estimator.estimate(sharded, n, d).seconds
        return "cost" if serial_s < sharded_s else None

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: str = "sdc+",
        *,
        stats: ComparisonStats | None = None,
        context: QueryContext | None = None,
        sink: "list[Point] | None" = None,
        **options,
    ) -> ParallelResult:
        """Execute one query, sharded when the dataset is big enough.

        ``stats`` redirects the aggregate bill (defaults to the
        dataset's bundle); ``context`` carries deadline / cancellation
        (a resource *budget* forces the serial path, see the module
        docstring); ``sink`` receives answers incrementally -- on the
        serial path per algorithm checkpoint, on the sharded path one
        batch per merged shard as its merge pass completes (each batch
        extends a valid prefix of the final emission order, and batches
        arrive while later tasks still compute).  An unknown algorithm
        or option raises :class:`~repro.exceptions.AlgorithmError`
        before any routing.
        """
        if self._closed:
            raise ParallelError("executor is closed")
        # A caller error raises here, before routing: never a pool
        # failure, a fallback or a breaker verdict.
        get_algorithm(algorithm, **options)
        target = stats if stats is not None else self.dataset.stats
        started = time.perf_counter()
        cached = self._partition is not None
        partition = self.partition
        partition_seconds = 0.0 if cached else time.perf_counter() - started

        if context is not None and context.budget is not None:
            routed_reason = "budget"
        elif partition.mode == "serial":
            routed_reason = partition.reason or "serial"
        elif _fork_context() is None:
            routed_reason = "no-fork"
        else:
            routed_reason = self._serial_route(algorithm)
        if routed_reason is not None:
            return self._run_serial(
                algorithm,
                target,
                context,
                sink,
                options,
                started,
                partition_seconds,
                mode="serial",
                routed_reason=routed_reason,
            )

        try:
            return self._run_stealing(
                algorithm,
                target,
                context,
                sink,
                options,
                started,
                partition_seconds,
            )
        except ResilienceError:
            # Deadline / cancellation stops are the query's own control
            # flow, not a pool failure -- never recompute after them.
            raise
        except Exception as err:
            self._teardown()  # the pool is broken; rebuild lazily
            message = (
                f"parallel worker pool failed mid-query "
                f"({type(err).__name__}: {err}); recomputing serially "
                f"(algorithm={algorithm}, shards={len(partition.shards)})"
            )
            logger.warning(message)
            warnings.warn(message, ParallelFallbackWarning, stacklevel=2)
            if sink is not None and len(sink):
                # The merge may have streamed some shard batches before
                # the failure; the serial recompute restarts emission
                # from scratch, so retract the stale prefix (push sinks
                # propagate this as a typed reset).
                reset = getattr(sink, "reset", None)
                if reset is not None:
                    reset()
                else:
                    del sink[:]
            return self._run_serial(
                algorithm,
                target,
                _remaining_context(context),
                sink,
                options,
                started,
                partition_seconds,
                mode=partition.mode,
                fallback_reason=f"{type(err).__name__}: {err}",
            )

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        algorithm: str,
        target: ComparisonStats,
        context: QueryContext | None,
        sink,
        options: dict,
        started: float,
        partition_seconds: float,
        *,
        mode: str,
        fallback_reason: str | None = None,
        routed_reason: str | None = None,
    ) -> ParallelResult:
        view = self.dataset.query_view(stats=target)
        before = target.snapshot()
        serial_started = time.perf_counter()
        result = execute(view, algorithm, context, sink=sink, **options)
        counters = target.diff(before)
        if result.complete:
            self.estimator.observe(
                algorithm,
                len(self.dataset),
                counters,
                time.perf_counter() - serial_started,
            )
        return ParallelResult(
            points=result.points,
            algorithm=result.algorithm,
            elapsed=time.perf_counter() - started,
            mode=mode,
            counters=counters,
            fallback=fallback_reason is not None,
            fallback_reason=fallback_reason,
            routed_serial=routed_reason is not None,
            routed_reason=routed_reason,
            stage_seconds=_stage_dict(partition=partition_seconds),
        )

    def _run_stealing(
        self,
        algorithm: str,
        target: ComparisonStats,
        context: QueryContext | None,
        sink,
        options: dict,
        started: float,
        partition_seconds: float,
    ) -> ParallelResult:
        dataset = self.dataset
        config = self.config
        setup_started = time.perf_counter()
        pool, partition = self._ensure_pool()
        pool_setup = time.perf_counter() - setup_started
        n_tasks = len(partition.shards)
        slots = min(config.resolved_workers(), n_tasks)
        deadline = context.deadline if context is not None else None
        cancel = context.cancel if context is not None else None
        expires = started + deadline if deadline is not None else None
        deadline_epoch = (
            time.time() + (expires - time.perf_counter())
            if expires is not None
            else None
        )

        seed_started = time.perf_counter()
        block = ControlBlock.create(
            partition.shards,
            slots,
            dataset.dimensions,
            filter_mode=config.filter,
            deadline_epoch=deadline_epoch,
        )
        try:
            if config.filter != "off":
                # Deterministic parent-side board seed: every task gets
                # its static representatives *before* any worker starts,
                # so static-filter counters are claim-order independent.
                seeds = self._board_seeds(partition)
                for shard, reps in zip(partition.shards, seeds):
                    block.seed_static_reps(shard.index, reps)
            chaos = config.chaos
            if chaos is not None:
                for shard in partition.shards:
                    try:
                        chaos.maybe_fail(f"parallel.dispatch.shard{shard.index}")
                    except Exception:
                        block.kill[shard.index] = 1
            board_seed = time.perf_counter() - seed_started

            compute_started = time.perf_counter()
            futures = [
                pool.submit(
                    run_steal_drain, block.layout, slot, algorithm, dict(options)
                )
                for slot in range(slots)
            ]

            merge_stats = ComparisonStats()
            merge_view = dataset.query_view(stats=merge_stats)
            merger = IncrementalMerger(merge_view, sink=sink)

            def stop(error: ResilienceError) -> ResilienceError:
                """Package a deadline/cancel stop: bill every finished
                task plus the merge work done so far, and attach the
                already-absorbed shard prefix (a valid prefix of the
                final emission order)."""
                block.cancel()
                for i in range(n_tasks):
                    if int(block.status[i]) != TASK_PENDING:
                        target.add_snapshot(block.task_counters(i))
                target.merge(merge_stats)
                error.partial = PartialResult(
                    points=list(merger.outcome().points),
                    complete=False,
                    exhausted_reason=(
                        "deadline"
                        if isinstance(error, QueryTimeoutError)
                        else "cancelled"
                    ),
                    algorithm=algorithm,
                    elapsed=time.perf_counter() - started,
                )
                return error

            frontier = 0
            merge_seconds = 0.0
            compute_seconds = None
            pending = set(futures)
            while True:
                if pending:
                    done, pending = wait(
                        pending, timeout=POLL_INTERVAL, return_when=FIRST_EXCEPTION
                    )
                    for future in done:
                        future.result()  # raises on a broken pool
                    if not pending:
                        compute_seconds = time.perf_counter() - compute_started
                # Absorb every newly finished shard at the frontier --
                # merging while later tasks are still computing.
                while (
                    frontier < n_tasks
                    and int(block.status[frontier]) != TASK_PENDING
                ):
                    if int(block.status[frontier]) == TASK_TIMEOUT:
                        raise stop(
                            QueryTimeoutError(deadline, time.perf_counter() - started)
                        )
                    lo = int(block.bounds[frontier, 0])
                    count = int(block.result_count[frontier])
                    rows = block.result_rows[lo : lo + count].tolist()
                    candidates = [dataset.points[row] for row in rows]
                    absorb_started = time.perf_counter()
                    merger.absorb(frontier, candidates)
                    merge_seconds += time.perf_counter() - absorb_started
                    frontier += 1
                # Control checks come before the exit test: a cancelled
                # or expired query must raise even when every task
                # happened to finish inside the first poll interval.
                if cancel is not None and cancel.cancelled:
                    raise stop(QueryCancelledError())
                if expires is not None and time.perf_counter() > expires:
                    raise stop(
                        QueryTimeoutError(deadline, time.perf_counter() - started)
                    )
                if frontier >= n_tasks and not pending:
                    break
            if compute_seconds is None:  # pragma: no cover - defensive
                compute_seconds = time.perf_counter() - compute_started

            merged = merger.outcome()
            worker_counters = [block.task_counters(i) for i in range(n_tasks)]
            aggregate = ComparisonStats()
            for snapshot in worker_counters:
                aggregate.add_snapshot(snapshot)
            aggregate.merge(merge_stats)
            for snapshot in worker_counters:
                target.add_snapshot(snapshot)
            target.merge(merge_stats)

            result = ParallelResult(
                points=merged.points,
                algorithm=algorithm,
                elapsed=time.perf_counter() - started,
                mode=partition.mode,
                parallel=True,
                workers=slots,
                shard_sizes=partition.sizes,
                eliminated_shards=merged.eliminated,
                counters=aggregate.snapshot(),
                worker_counters=worker_counters,
                merge_counters=merge_stats.snapshot(),
                tasks=n_tasks,
                steals=int(block.steals.sum()),
                stage_seconds=_stage_dict(
                    partition=partition_seconds,
                    pool_setup=pool_setup,
                    board_seed=board_seed,
                    compute=compute_seconds,
                    steal_wait=float(block.claim_seconds.sum()),
                    merge=merge_seconds,
                ),
                filter_reps_published=int(
                    (block.rep_state == REP_DYNAMIC).sum()
                ),
            )
        finally:
            block.close()
        # The first sharded run of an algorithm on a pool paid for the
        # pool start, the partition and the shard builds: not a sample.
        if algorithm in self._warm:
            self.estimator.observe(
                f"{algorithm}|sharded", len(dataset), result.counters,
                result.elapsed,
            )
        else:
            self._warm.add(algorithm)
        return result


def _remaining_context(context: QueryContext | None) -> QueryContext | None:
    """A fresh context carrying what is left of ``context``'s deadline
    (re-arming the original would restart its clock)."""
    if context is None:
        return None
    deadline = context.deadline
    if deadline is not None and context._expires_at is not None:
        deadline = max(1e-6, context._expires_at - time.monotonic())
    return QueryContext(deadline=deadline, budget=context.budget, cancel=context.cancel)

