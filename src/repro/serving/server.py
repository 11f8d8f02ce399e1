"""Thread-pool skyline server: many concurrent queries, one dataset.

:class:`SkylineServer` multiplexes concurrent skyline queries over one
shared immutable :class:`~repro.transform.dataset.TransformedDataset`
(the paper's setting: an index built once offline, queried repeatedly).
The moving parts, in submission order:

1. **Admission** (:mod:`repro.serving.admission`): every
   :class:`QueryRequest` is checked against its comparison budget and
   deadline using the cost model's up-front estimate, and against the
   server's pending capacity.  Hopeless or over-capacity queries are
   rejected with :class:`~repro.exceptions.AdmissionRejectedError`
   having executed zero dominance comparisons; overload can instead
   *deflect* (admit at the lowest priority).
2. **Queueing**: admitted requests enter a
   :class:`~repro.serving.overload.BoundedQueryQueue` (lower
   ``priority`` runs sooner; FIFO within a priority).  When bounded, a
   full queue *sheds* by policy -- doomed-deadline drops, priority
   eviction, or reject-newest -- resolving shed handles with a typed
   :class:`~repro.exceptions.QueryShedError` and an empty partial.
3. **Execution**: a fixed pool of worker threads runs each query on its
   own :meth:`~repro.transform.dataset.TransformedDataset.query_view` --
   private :class:`~repro.core.stats.ComparisonStats`, private kernel,
   private :class:`~repro.resilience.context.QueryContext` -- through
   the resilient executor (deadlines, budgets, cancellation and batch
   kernel -> python fallback all apply per query).  The request deadline
   is **end-to-end**: time spent queued counts against it.  Transient
   infrastructure failures (kernel faults, index corruption, broken
   pools) may be retried under the overload layer's
   :class:`~repro.serving.overload.RetryPolicy` (idempotent requests
   only, exponential backoff, bounded budget).
4. **Accounting**: on completion the query's private counter bundle is
   merged into the server-wide aggregate and its latency recorded in
   per-algorithm histograms (:mod:`repro.serving.metrics`); completed
   queries also calibrate the admission cost estimator.

Two :class:`~repro.serving.overload.CircuitBreaker` instances guard the
expensive recovery paths: repeated parallel-pool failures or batch
kernel fallbacks open the matching breaker and the server degrades
*once* (serial execution / python kernel) for the recovery window
instead of re-paying the failure per query.  A watchdog thread monitors
worker liveness -- a dead worker's query resolves with a typed error
(never a hang), a replacement thread is spawned, and sustained failure
drives the explicit degradation ladder ``healthy -> serial_only ->
cache_only -> rejecting`` surfaced in
:class:`~repro.serving.metrics.ServerMetrics`.  See
``docs/overload.md``.

Updates (:meth:`SkylineServer.insert` / :meth:`SkylineServer.delete`)
take the writer side of a writer-preferring reader-writer lock: they
drain in-flight queries, mutate the dataset (incremental index + strata
maintenance), and only then let new queries start.

With ``cache`` enabled (``docs/views.md``), step 1 is preceded by a
views-layer lookup: a query whose canonical shape is resident is served
at submission time in O(answer) with zero dominance comparisons, and
committed updates invalidate or incrementally patch affected entries
inside the writer lock, so readers can never observe a stale hit.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.stats import ComparisonStats
from repro.exceptions import (
    AdmissionRejectedError,
    KernelError,
    ParallelError,
    QueryCancelledError,
    QueryShedError,
    QueryTimeoutError,
    ResilienceError,
    RTreeError,
    ServingError,
)
from repro.resilience import (
    CancellationToken,
    PartialResult,
    QueryContext,
    ResourceBudget,
    execute,
)
from repro.net.stream import EmissionChannel
from repro.serving.admission import AdmissionController
from repro.serving.metrics import ServerMetrics
from repro.serving.overload import (
    BoundedQueryQueue,
    CircuitBreaker,
    DegradationLadder,
    OverloadConfig,
)
from repro.serving.rwlock import ReadWriteLock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.record import Record
    from repro.transform.dataset import TransformedDataset
    from repro.transform.point import Point

__all__ = ["QueryRequest", "QueryHandle", "SkylineServer"]

#: Priority deflected queries are demoted to (beyond any sane user value).
DEFLECTED_PRIORITY = 1 << 20

#: Transient infrastructure failures the retry policy may re-attempt.
#: Control errors (deadline/cancel/budget) and logic errors never retry.
RETRYABLE_FAULTS = (KernelError, FloatingPointError, RTreeError, ParallelError)


@dataclass(frozen=True)
class QueryRequest:
    """One query's full specification, as submitted to the server.

    ``priority`` orders the queue (lower runs sooner); ``deadline`` is
    end-to-end wall-clock seconds from submission; the ``max_*`` fields
    build the query's :class:`~repro.resilience.context.ResourceBudget`;
    ``options`` is forwarded to the algorithm constructor (e.g.
    ``{"window_size": 128}``); ``fallback`` controls batch-kernel
    recovery; ``tag`` is an opaque client label echoed in the handle;
    ``idempotent`` marks the request as safe to re-execute, which is
    what the overload layer's retry policy requires before re-running
    it after a transient failure (skyline queries are read-only, so the
    default is ``True``).

    At most one of the *shaping* fields may be set: ``subspace`` (an
    attribute-name collection: skyline over the projection),
    ``constraint`` (a :class:`~repro.queries.constrained.Constraint`) or
    ``skyband_k`` (the k-skyband).  All three default off, leaving the
    full-space skyline.  For constrained/skyband requests ``options``
    may carry ``{"method": "bnl"/"nested-loops"}`` to override the
    default index-accelerated evaluation.
    """

    algorithm: str = "sdc+"
    deadline: float | None = None
    max_comparisons: int | None = None
    max_heap_entries: int | None = None
    max_window_entries: int | None = None
    max_answers: int | None = None
    priority: int = 0
    fallback: bool = True
    options: dict = field(default_factory=dict)
    tag: str | None = None
    subspace: tuple | None = None
    constraint: object | None = None
    skyband_k: int | None = None
    idempotent: bool = True

    def shape(self):
        """This request's canonical, algorithm-independent
        :class:`~repro.views.keys.QueryShape` (cache key).

        Raises :class:`~repro.exceptions.ServingError` when more than
        one shaping field is set.
        """
        from repro.views.keys import QueryShape

        return QueryShape.of(
            subspace=self.subspace,
            constraint=self.constraint,
            skyband_k=self.skyband_k,
        )

    def budget(self) -> ResourceBudget | None:
        """The request's resource budget (``None`` when unlimited)."""
        limits = (
            self.max_comparisons,
            self.max_heap_entries,
            self.max_window_entries,
            self.max_answers,
        )
        if any(v is not None for v in limits):
            return ResourceBudget(*limits)
        return None


class QueryHandle:
    """Future-like handle to one admitted query.

    ``result()`` blocks for the outcome, ``partial()`` snapshots the
    answers emitted so far (valid even while the query runs -- always a
    prefix of the algorithm's deterministic emission order), and
    ``cancel()`` fires the query's cooperative cancellation token.

    ``stats`` is the query's **private**
    :class:`~repro.core.stats.ComparisonStats` bundle -- every
    comparison, node access and heap operation this query performed, and
    nothing any other query did.
    """

    def __init__(self, request: QueryRequest, seq: int, estimate,
                 deflected: bool) -> None:
        self.request = request
        self.seq = seq
        self.estimate = estimate
        self.deflected = deflected
        self.stats = ComparisonStats()
        self.cancel_token = CancellationToken()
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.outcome: str | None = None
        #: Dataset ``update_version`` the answer reflects (set while the
        #: read lock is held, for both cache hits and computed queries);
        #: ``None`` until then.  Staleness tests replay against this.
        self.served_version: int | None = None
        #: Incremental emission channel: the executor appends answers
        #: into it as the algorithm yields them, and push consumers
        #: (the network front-end) subscribe for live delivery.
        self._sink: EmissionChannel = EmissionChannel()
        self._result: PartialResult | None = None
        self._error: BaseException | None = None
        self._done = threading.Event()
        self._callback_lock = threading.Lock()
        self._done_callbacks: list = []

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Whether the query reached a terminal state."""
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> PartialResult:
        """Block for the outcome.

        Returns the :class:`~repro.resilience.executor.PartialResult`
        (complete or budget-truncated); re-raises the query's typed
        error for deadline expiry, cancellation, shedding or kernel
        failure -- exactly the contract of
        :meth:`SkylineEngine.query <repro.engine.SkylineEngine.query>`.
        Raises :class:`TimeoutError` when ``timeout`` elapses first
        (the query keeps running; call again).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query (seq={self.seq}, {self.request.algorithm}) still "
                f"running after {timeout}s wait"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def partial(self) -> list["Point"]:
        """Snapshot of the answers emitted so far (running or done)."""
        if self._result is not None:
            return list(self._result.points)
        error = self._error
        if error is not None and getattr(error, "partial", None) is not None:
            return list(error.partial.points)
        return list(self._sink)

    def subscribe(self, callback, replay: bool = True):
        """Subscribe to this query's incremental emission stream.

        ``callback(kind, points)`` receives every
        :class:`~repro.net.stream.EmissionChannel` event -- ``points``
        batches in emission order and ``reset`` retractions (retry
        restarts).  With ``replay`` (default) the already-emitted prefix
        is delivered first, so late subscribers (including cache hits,
        which resolve before ``submit`` even returns) see the complete
        stream exactly once.  Returns an unsubscribe function.
        """
        return self._sink.subscribe(callback, replay=replay)

    def add_done_callback(self, fn) -> None:
        """Run ``fn(handle)`` when the query reaches a terminal state.

        Fires exactly once, on the finishing thread -- immediately if
        the query is already done.  Callback errors are swallowed (a
        consumer's bug must not poison the worker).  Because the same
        worker thread performs the final sink mutation and then
        ``_finish``, a subscriber attached via :meth:`subscribe` always
        observes the last ``points`` event before the done callback.
        """
        with self._callback_lock:
            if not self._done.is_set():
                self._done_callbacks.append(fn)
                return
        self._invoke_done_callback(fn)

    def _invoke_done_callback(self, fn) -> None:
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - consumer isolation
            import logging

            logging.getLogger("repro.serving").exception(
                "query done-callback raised (seq=%d)", self.seq
            )

    def cancel(self) -> bool:
        """Request cooperative cancellation; ``False`` if already done.

        A queued query is dropped without running; a running query stops
        at its next checkpoint and its handle raises
        :class:`~repro.exceptions.QueryCancelledError` (with the partial
        answers attached).
        """
        if self._done.is_set():
            return False
        self.cancel_token.cancel()
        return True

    @property
    def queue_wait(self) -> float | None:
        """Seconds spent queued (``None`` until execution started)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    # ------------------------------------------------------------------
    def _finish(self, outcome: str, result: PartialResult | None = None,
                error: BaseException | None = None) -> None:
        self.finished_at = time.perf_counter()
        self.outcome = outcome
        self._result = result
        self._error = error
        with self._callback_lock:
            self._done.set()
            callbacks, self._done_callbacks = self._done_callbacks, []
        for fn in callbacks:
            self._invoke_done_callback(fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = self.outcome if self._done.is_set() else (
            "running" if self.started_at is not None else "queued"
        )
        return (
            f"QueryHandle(seq={self.seq}, {self.request.algorithm}, {state})"
        )


class SkylineServer:
    """Concurrent skyline query server over one shared dataset.

    Parameters
    ----------
    target:
        A :class:`~repro.engine.SkylineEngine` or a
        :class:`~repro.transform.dataset.TransformedDataset`.
    workers:
        Worker threads executing admitted queries.
    admission:
        A ready :class:`~repro.serving.admission.AdmissionController`;
        when omitted one is built from ``max_pending`` / ``hard_limit``
        / ``overload_policy``.
    validate_on_admission:
        Check R-tree structural invariants at every submission and, on
        corruption, rebuild the indexes once before retrying --
        availability recovery without an engine restart (repairs are
        counted in the metrics).  Validation is O(index), so it defaults
        off; switch it on for untrusted index storage.
    warm:
        Pre-build the global R-tree, the SDC+ stratum trees and the
        batch kernel's relation memo at construction, so no query pays
        the cold-build cost (mirrors the paper's offline index build).
    metrics:
        A ready :class:`~repro.serving.metrics.ServerMetrics` (fresh
        when omitted).
    parallel:
        A :class:`~repro.parallel.ParallelConfig` (or worker count)
        enabling the sharded process-pool execution mode
        (``docs/parallel.md``).  Large admitted queries without a
        resource budget run on the shared
        :class:`~repro.parallel.ParallelSkylineExecutor`, which picks
        sharded or serial per algorithm from the admission estimator's
        measurements; everything else stays on the serial per-thread
        path.  ``None`` (default) disables sharding.
    parallel_threshold:
        Minimum dataset size (points) before an admitted query is
        routed to the parallel executor.
    cache:
        Result caching (``docs/views.md``).  ``None``/``False``
        (default) disables it -- every query recomputes, and per-query
        counters match a serial run exactly.  ``True`` builds a
        :class:`~repro.views.ViewManager` with a fresh
        :class:`~repro.views.ResultCache` (sized by ``cache_entries`` /
        ``cache_bytes``); a ready ``ViewManager`` or ``ResultCache`` is
        used as-is.  With caching on, a submitted query whose shape is
        resident is served at admission in O(answer) with **zero**
        dominance comparisons, bypassing the cost model and the
        executor; committed updates invalidate or incrementally patch
        affected entries before the writer lock releases.
    cache_entries / cache_bytes:
        Budgets for the built cache when ``cache=True``.
    overload:
        An :class:`~repro.serving.overload.OverloadConfig` tuning the
        overload-resilience layer (bounded queue + shedding policy,
        retry policy, circuit breakers, watchdog + degradation ladder;
        ``docs/overload.md``).  The default keeps the queue unbounded
        and retries off -- behaviourally identical to the pre-overload
        server under healthy operation -- while breakers and the
        watchdog defend against repeated failure.
    durability:
        Opt-in crash safety (``docs/durability.md``).  ``None``
        (default) keeps the server purely in-memory.  A directory path
        or :class:`~repro.durability.DurabilityConfig` builds a
        :class:`~repro.durability.DurabilityManager` (owned: closed
        with the server); a ready manager is attached as-is.  With
        durability on, every :meth:`insert`/:meth:`delete` appends a
        fsynced WAL record inside the dataset's commit path under the
        writer lock -- an update is acknowledged only once it is on
        disk -- and a WAL I/O failure rolls the update back and
        latches the server into **read-only** degradation (queries
        keep serving; further updates raise
        :class:`~repro.exceptions.ServingError`) instead of crashing.
    """

    def __init__(
        self,
        target,
        *,
        workers: int = 4,
        admission: AdmissionController | None = None,
        max_pending: int = 64,
        hard_limit: int | None = None,
        overload_policy: str = "deflect",
        validate_on_admission: bool = False,
        warm: bool = True,
        metrics: ServerMetrics | None = None,
        parallel=None,
        parallel_threshold: int = 5000,
        cache=None,
        cache_entries: int = 256,
        cache_bytes: int = 32 * 1024 * 1024,
        overload: OverloadConfig | None = None,
        durability=None,
    ) -> None:
        if workers < 1:
            raise ServingError("workers must be positive")
        self.dataset: "TransformedDataset" = getattr(target, "dataset", target)
        self.parallel_threshold = parallel_threshold
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(
                max_pending=max_pending,
                hard_limit=hard_limit,
                overload_policy=overload_policy,
            )
        )
        if parallel is not None:
            from repro.parallel import ParallelSkylineExecutor

            # The admission controller's calibrated estimator drives the
            # steal scheduler's adaptive task sizing.
            self._parallel = ParallelSkylineExecutor(
                self.dataset, parallel, estimator=self.admission.estimator
            )
        else:
            self._parallel = None
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.validate_on_admission = validate_on_admission
        self._rwlock = ReadWriteLock()
        self.overload = overload if overload is not None else OverloadConfig()
        self._queue = BoundedQueryQueue(
            capacity=self.overload.queue_capacity,
            policy=self.overload.shed_policy,
            on_shed=self._on_queue_shed,
        )
        self._retry = self.overload.retry
        if self.overload.breakers:
            self._parallel_breaker = CircuitBreaker(
                "parallel",
                failure_threshold=self.overload.breaker_failures,
                recovery_time=self.overload.breaker_recovery,
                on_transition=self.metrics.on_breaker,
            )
            self._kernel_breaker = CircuitBreaker(
                "kernel",
                failure_threshold=self.overload.breaker_failures,
                recovery_time=self.overload.breaker_recovery,
                on_transition=self.metrics.on_breaker,
            )
            self.metrics.register_breaker("parallel")
            self.metrics.register_breaker("kernel")
        else:
            self._parallel_breaker = None
            self._kernel_breaker = None
        self._ladder = DegradationLadder(
            on_transition=self.metrics.on_degradation
        )
        # Sticky read-only degradation: latched on a WAL I/O failure and
        # deliberately NOT a ladder rung -- the ladder's recovery path
        # steps down automatically after a clear window, which must
        # never silently re-enable writes over a broken log.
        self._read_only = False
        self._read_only_reason: str | None = None
        # Per-listener failure counts from the dataset's hardened
        # post-commit registry surface in this server's metrics.
        self.dataset._listener_failure_hook = self.metrics.on_listener_failure
        self._durability = None
        self._owns_durability = False
        if durability is not None:
            from repro.durability import DurabilityManager

            if isinstance(durability, DurabilityManager):
                self._durability = durability
                if durability.metrics is None:
                    durability.metrics = self.metrics
            else:
                self._durability = DurabilityManager(
                    durability, metrics=self.metrics
                )
                self._owns_durability = True
            if not self._durability._attached:
                self._durability.attach(self.dataset)
        # Chaos fault points (armed by repro.resilience.chaos helpers).
        self._worker_injector = None
        self._stall_injector = None
        self._lock_injector = None
        self._seq = itertools.count()
        self._closed = False
        self._views = None
        if cache:
            from repro.views import ResultCache, ViewManager

            if isinstance(cache, ViewManager):
                if cache.dataset is not self.dataset:
                    raise ServingError(
                        "the ViewManager is attached to a different dataset"
                    )
                if cache.metrics is None:
                    cache.metrics = self.metrics
                    if cache.cache.metrics is None:
                        cache.cache.metrics = self.metrics
                self._views = cache
            elif isinstance(cache, ResultCache):
                self._views = ViewManager(
                    self.dataset, cache=cache, metrics=self.metrics
                )
            else:
                self._views = ViewManager(
                    self.dataset,
                    metrics=self.metrics,
                    cache_entries=cache_entries,
                    cache_bytes=cache_bytes,
                )
        if warm:
            self.warm()
        # Worker pool + watchdog state.  ``_inflight`` maps a worker
        # slot to its currently-executing handle so the watchdog can
        # resolve queries orphaned by a dead thread.
        self._workers_lock = threading.Lock()
        self._inflight: dict[int, tuple[QueryHandle, float]] = {}
        self._inflight_lock = threading.Lock()
        self._worker_deaths: list[float] = []
        self._stuck_seqs: set[int] = set()
        self._last_degraded_signal = 0.0
        self._workers = [
            threading.Thread(
                target=self._worker, args=(i,),
                name=f"skyline-worker-{i}", daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()
        self._watchdog_stop = threading.Event()
        self._watchdog: threading.Thread | None = None
        if self.overload.watchdog:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="skyline-watchdog", daemon=True
            )
            self._watchdog.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def warm(self) -> None:
        """Build every queryable structure now (offline, not per query)."""
        dataset = self.dataset
        _ = dataset.index
        for stratum in dataset.stratification:
            _ = stratum.tree
        kernel = getattr(dataset.kernel, "wrapped", dataset.kernel)
        if getattr(kernel, "is_batch", False):
            with dataset._build_lock:
                kernel.warm()
        if self._views is not None and not self._views.materialized:
            self._views.materialize()

    def close(self, wait: bool = True) -> None:
        """Stop accepting queries; optionally drain and join the pool.

        Already-queued queries still run to completion (their handles
        resolve); only new submissions fail with
        :class:`~repro.exceptions.ServingError`.
        """
        if self._closed:
            return
        self._closed = True
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join()
        with self._workers_lock:
            workers = list(self._workers)
        for _ in workers:
            self._queue.put_sentinel(next(self._seq))
        if wait:
            for thread in workers:
                thread.join()
        if self._parallel is not None:
            self._parallel.close()
        if self._views is not None:
            self._views.detach()
        if self._durability is not None and self._owns_durability:
            self._durability.detach()

    def __enter__(self) -> "SkylineServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=True)

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(self, request: QueryRequest | None = None, **kwargs) -> QueryHandle:
        """Admit one query; returns its :class:`QueryHandle`.

        Accepts a ready :class:`QueryRequest` or its fields as keyword
        arguments (``server.submit(algorithm="bbs+", deadline=0.5)``).
        Raises :class:`~repro.exceptions.AdmissionRejectedError` when
        the admission controller (or the degradation ladder) refuses
        the query -- before a single dominance comparison has been
        executed on its behalf -- ,
        :class:`~repro.exceptions.QueryShedError` when the bounded
        queue sheds the incoming query under load, and
        :class:`~repro.exceptions.ServingError` after :meth:`close`.
        """
        if request is None:
            request = QueryRequest(**kwargs)
        elif kwargs:
            raise ServingError("pass a QueryRequest or keyword fields, not both")
        metrics = self.metrics
        metrics.on_submitted()
        if self._closed:
            raise ServingError("server is closed")
        if self.validate_on_admission:
            self._ensure_valid_indexes()
        mode = self._ladder.mode
        if mode == "rejecting":
            metrics.on_rejected("rejecting")
            raise AdmissionRejectedError("rejecting", None, None)
        if self._views is not None:
            handle = self._serve_from_cache(request)
            if handle is not None:
                return handle
            metrics.on_cache_miss()
        if mode == "cache_only":
            metrics.on_rejected("cache_only")
            raise AdmissionRejectedError("cache_only", None, None)
        decision = self.admission.decide(request, self.dataset, metrics.queue_depth)
        if decision.action == "reject":
            metrics.on_rejected(decision.reason)
            estimate, limit = self._rejection_bounds(request, decision)
            raise AdmissionRejectedError(decision.reason, estimate, limit)
        deflected = decision.action == "deflect"
        priority = request.priority
        if deflected:
            priority = DEFLECTED_PRIORITY + request.priority
        handle = QueryHandle(request, next(self._seq), decision.estimate, deflected)
        metrics.on_admitted(deflected)
        metrics.on_enqueued()
        shed_reason = self._queue.put(priority, handle.seq, handle)
        if shed_reason is not None:
            metrics.on_shed(shed_reason)
            error = QueryShedError(self._queue.policy, shed_reason)
            error.partial = self._empty_partial(request, "shed")
            handle._finish("shed", error=error)
            raise error
        return handle

    def _on_queue_shed(self, handle: QueryHandle, reason: str) -> None:
        """Resolve one queued query the shedding policy dropped.

        The handle finishes with a typed
        :class:`~repro.exceptions.QueryShedError` carrying an empty
        partial (zero comparisons executed, trivially a prefix of the
        emission order), so blocked ``result()`` callers never hang.
        """
        error = QueryShedError(self._queue.policy, reason)
        error.partial = self._empty_partial(handle.request, "shed")
        handle._finish("shed", error=error)
        self.metrics.on_shed(reason)

    def _serve_from_cache(self, request: QueryRequest) -> QueryHandle | None:
        """Serve ``request`` from the views layer; ``None`` on a miss.

        Runs at submission time, under the read lock (so the looked-up
        answer is consistent with a committed dataset state and cannot
        race a writer).  A hit bypasses the admission cost model, the
        queue and the executor entirely: the handle resolves before this
        method returns, in O(answer) time, with its private counter
        bundle untouched -- zero dominance comparisons, asserted.
        """
        shape = request.shape()  # raises ServingError on invalid combos
        with self._rwlock.read_lock():
            hit = self._views.lookup(shape)
            if hit is None:
                return None
            handle = QueryHandle(request, next(self._seq), None, False)
            handle.served_version = hit.version
            assert handle.stats.total_dominance_checks == 0, (
                "cache hit must not execute dominance comparisons"
            )
            handle.started_at = handle.submitted_at
            handle._sink.extend(hit.points)
            handle._finish(
                "complete",
                result=PartialResult(
                    points=hit.points,
                    complete=True,
                    algorithm=request.algorithm,
                    elapsed=time.perf_counter() - handle.submitted_at,
                    counters=handle.stats.snapshot(),
                    cached=True,
                ),
            )
        self.metrics.on_cache_hit(hit.age)
        return handle

    def _rejection_bounds(self, request: QueryRequest, decision):
        """The (estimate, limit) pair a rejection error reports."""
        if decision.reason == "comparisons":
            return decision.estimate.comparisons, float(request.max_comparisons)
        if decision.reason == "deadline":
            return decision.estimate.seconds, request.deadline
        return float(self.metrics.queue_depth), float(self.admission.hard_limit)

    def _ensure_valid_indexes(self) -> bool:
        """Validate the built R-trees; rebuild once on corruption.

        Returns ``True`` when a repair happened.  A second validation
        failure after the rebuild surfaces as
        :class:`~repro.exceptions.RTreeError` to the submitter.
        """
        try:
            with self._rwlock.read_lock():
                self._validate_trees()
            return False
        except RTreeError:
            pass
        with self._rwlock.write_lock():
            try:
                self._validate_trees()
                return False  # another submitter repaired while we waited
            except RTreeError:
                self.dataset.rebuild_indexes(validate=True)
                self.metrics.on_index_repair()
                return True

    def _validate_trees(self) -> None:
        dataset = self.dataset
        dataset.index.validate()
        stratification = dataset._stratification
        if stratification is not None:
            for stratum in stratification:
                if stratum._tree is not None:
                    stratum._tree.validate()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _worker(self, slot: int) -> None:
        while True:
            handle = self._queue.get()
            if handle is None:  # shutdown sentinel
                break
            self.metrics.on_dequeued()
            with self._inflight_lock:
                self._inflight[slot] = (handle, time.monotonic())
            try:
                self._run_query(handle)
            except BaseException as err:  # noqa: BLE001 - last resort
                if not handle.done():
                    error = err if isinstance(err, Exception) else ServingError(
                        f"worker thread died mid-query "
                        f"({type(err).__name__}); resubmit"
                    )
                    handle._finish("error", error=error)
                if not isinstance(err, Exception):
                    # A genuine thread-killing event (SystemExit-like):
                    # let the thread die; the watchdog respawns it.
                    raise
            finally:
                with self._inflight_lock:
                    self._inflight.pop(slot, None)

    def _run_query(self, handle: QueryHandle) -> None:
        request = handle.request
        metrics = self.metrics
        # Chaos fault points, armed by repro.resilience.chaos: a kill
        # injector raising a non-Exception (e.g. SystemExit) emulates a
        # dying worker thread; a stall injector emulates a wedged one.
        if self._worker_injector is not None:
            self._worker_injector.maybe_fail("server.worker")
        if self._stall_injector is not None:
            self._stall_injector.maybe_stall("server.worker")
        handle.started_at = time.perf_counter()
        wait = handle.started_at - handle.submitted_at
        metrics.on_started(wait)
        outcome = "error"
        fallback_used = False
        result: PartialResult | None = None
        try:
            if handle.cancel_token.cancelled:
                error = QueryCancelledError()
                error.partial = self._empty_partial(request, "cancelled")
                handle._finish("cancelled", error=error)
                outcome = "cancelled"
                return
            shape = request.shape()
            attempt = 0
            while True:
                elapsed = time.perf_counter() - handle.submitted_at
                remaining = None
                if request.deadline is not None:
                    remaining = request.deadline - elapsed
                    if remaining <= 0:  # expired while queued / retrying
                        error = QueryTimeoutError(request.deadline, elapsed)
                        error.partial = self._empty_partial(request, "deadline")
                        handle._finish("timeout", error=error)
                        outcome = "timeout"
                        return
                context = QueryContext(
                    deadline=remaining,
                    budget=request.budget(),
                    cancel=handle.cancel_token,
                )
                try:
                    result, calibrated = self._attempt(
                        handle, request, shape, context
                    )
                    break
                except QueryTimeoutError as err:
                    handle._finish("timeout", error=err)
                    outcome = "timeout"
                    return
                except QueryCancelledError as err:
                    handle._finish("cancelled", error=err)
                    outcome = "cancelled"
                    return
                except ResilienceError as err:
                    handle._finish("error", error=err)
                    return
                except RETRYABLE_FAULTS as err:
                    if not self._grant_retry(handle, request, attempt):
                        handle._finish("error", error=err)
                        return
                    attempt += 1
            fallback_used = result.fallback
            outcome = "complete" if result.complete else "partial"
            handle._finish(outcome, result=result)
            # The parallel executor observes each route into its own
            # profile: a sharded bill under the bare key would price the
            # serial runs budgeted queries get far too low.
            if result.complete and not calibrated:
                self.admission.observe(
                    request.algorithm,
                    len(self.dataset),
                    handle.stats,
                    result.elapsed,
                    shape=shape,
                )
        except Exception as err:
            handle._finish("error", error=err)
            outcome = "error"
        finally:
            # No path may leave the handle unresolved -- a hung
            # ``result()`` is the one failure mode clients cannot
            # defend against.
            if not handle.done():
                handle._finish(
                    "error",
                    error=ServingError(
                        "query aborted: worker terminated mid-execution"
                    ),
                )
            elapsed = time.perf_counter() - handle.started_at
            metrics.on_finished(
                request.algorithm,
                elapsed,
                outcome,
                stats=handle.stats,
                fallback=fallback_used,
            )

    def _grant_retry(self, handle: QueryHandle, request: QueryRequest,
                     attempt: int) -> bool:
        """Decide + pace one retry of a transiently-failed execution.

        Grants only idempotent requests under the configured
        :class:`~repro.serving.overload.RetryPolicy`, refuses when the
        backoff sleep would blow the end-to-end deadline, clears the
        handle's sink (the retry restarts emission from scratch, so the
        observable partial stays a prefix of one attempt's emission
        order) and sleeps the jittered backoff before returning.
        """
        policy = self._retry
        if policy is None or not policy.grant(attempt, request.idempotent):
            return False
        delay = policy.delay(attempt)
        if request.deadline is not None:
            elapsed = time.perf_counter() - handle.submitted_at
            if elapsed + delay >= request.deadline:
                return False
        self.metrics.on_retry()
        # Retraction, not deletion: subscribers (network streams) get a
        # typed ``reset`` event so remote clients discard the stale
        # prefix before the retry's re-emission arrives.
        handle._sink.reset()
        time.sleep(delay)
        return True

    def _attempt(self, handle: QueryHandle, request: QueryRequest,
                 shape, context: QueryContext) -> tuple[PartialResult, bool]:
        """One execution attempt under the read lock.

        Routes through the parallel executor / batch kernel only when
        the degradation ladder and the matching circuit breaker allow
        it; breaker verdicts are recorded from the attempt's outcome
        (a parallel-pool fallback or batch-kernel fallback counts as a
        failure of the guarded fast path even though the query itself
        recovered).  Returns the result and whether the parallel
        executor ran it (and so already calibrated the estimator).
        """
        metrics = self.metrics
        dataset = self.dataset
        use_parallel = (
            self._parallel is not None
            and shape.kind == "skyline"
            and request.budget() is None
            and len(dataset) >= self.parallel_threshold
            and not self._ladder.at_least("serial_only")
            and (self._parallel_breaker is None or self._parallel_breaker.allow())
        )
        with self._rwlock.read_lock():
            if use_parallel:
                breaker = self._parallel_breaker
                try:
                    presult = self._parallel.run(
                        request.algorithm,
                        stats=handle.stats,
                        context=context,
                        sink=handle._sink,
                        **request.options,
                    )
                except Exception:
                    if breaker is not None:
                        breaker.record_failure()
                    raise
                metrics.on_parallel(
                    presult.fallback,
                    routed_serial=presult.routed_serial,
                    tasks=presult.tasks,
                    steals=presult.steals,
                    filter_checks=presult.filter_board_checks,
                    filter_hits=presult.filter_board_hits,
                    stage_seconds=presult.stage_seconds,
                )
                if breaker is not None:
                    if presult.fallback:
                        breaker.record_failure()
                    else:
                        breaker.record_success()
                result = presult.to_partial()
            elif shape.kind != "skyline":
                result = self._run_shaped(handle, request, shape, context)
            else:
                view = dataset.query_view(
                    stats=handle.stats, context=context
                )
                breaker = self._kernel_breaker
                base_kernel = getattr(view.kernel, "wrapped", view.kernel)
                batch = getattr(base_kernel, "is_batch", False)
                probing = True
                if batch and breaker is not None:
                    probing = breaker.allow()
                    if not probing:
                        # Breaker open: degrade to the reference python
                        # kernel up front instead of re-paying the batch
                        # failure + per-query fallback.
                        view = view.fallback_view()
                try:
                    result = execute(
                        view,
                        request.algorithm,
                        context,
                        fallback=request.fallback,
                        sink=handle._sink,
                        **request.options,
                    )
                except RETRYABLE_FAULTS:
                    if batch and breaker is not None and probing:
                        breaker.record_failure()
                    raise
                if batch and breaker is not None and probing:
                    if result.fallback:
                        breaker.record_failure()
                    else:
                        breaker.record_success()
            # Both reads happen while writers are still excluded:
            # the version tag and the populated entry are guaranteed
            # consistent with the state the answer was computed on.
            handle.served_version = self.dataset.update_version
            if self._views is not None and result.complete:
                self._views.store(
                    shape, result.points, region=request.constraint
                )
                metrics.on_cache_stored()
        return result, use_parallel

    def _run_shaped(self, handle: QueryHandle, request: QueryRequest,
                    shape, context: QueryContext) -> PartialResult:
        """Execute a subspace/constrained/skyband query on a private view.

        Same isolation contract as the full-space path: private stats,
        private kernel, armed context (deadlines, budgets and
        cancellation all enforced at the evaluators' checkpoints).
        Shaped evaluators are not generators, so answers land in the
        handle's sink only on completion.
        """
        from repro.queries.constrained import constrained_skyline
        from repro.queries.skyband import k_skyband
        from repro.queries.subspace import project_dataset

        start = time.perf_counter()
        view = self.dataset.query_view(stats=handle.stats, context=context)
        context.start(handle.stats)
        if shape.kind == "subspace":
            from repro.algorithms.base import get_algorithm

            projected = project_dataset(view, list(shape.subspace))
            projected.context = context
            by_rid = {p.record.rid: p for p in view.points}
            points = [
                by_rid[p.record.rid]
                for p in get_algorithm(
                    request.algorithm, **request.options
                ).run(projected)
            ]
        elif shape.kind == "constrained":
            points = constrained_skyline(
                view, request.constraint, request.options.get("method", "bbs")
            )
        else:  # skyband
            points = k_skyband(
                view, request.skyband_k, request.options.get("method", "bbs")
            )
        handle._sink.extend(points)
        return PartialResult(
            points=points,
            complete=True,
            algorithm=request.algorithm,
            elapsed=time.perf_counter() - start,
            counters=handle.stats.snapshot(),
            checkpoints=context.checkpoints,
        )

    @staticmethod
    def _empty_partial(request: QueryRequest, reason: str) -> PartialResult:
        return PartialResult(
            points=[],
            complete=False,
            exhausted_reason=reason,
            algorithm=request.algorithm,
        )

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def _watchdog_loop(self) -> None:
        """Monitor worker liveness; drive the degradation ladder.

        Each sweep: (1) any dead worker thread has its orphaned query
        resolved with a typed error and a replacement thread spawned in
        its slot; (2) in-flight queries older than ``stuck_after`` are
        flagged; (3) the worst current health signal picks a target
        mode -- escalation is immediate, recovery steps down one rung
        per ``recovery_window`` of continuously-clear signals.
        """
        cfg = self.overload
        while not self._watchdog_stop.wait(cfg.watchdog_interval):
            if self._closed:
                break
            self._watchdog_sweep()

    def _watchdog_sweep(self) -> None:
        cfg = self.overload
        metrics = self.metrics
        now = time.monotonic()
        with self._workers_lock:
            workers = list(enumerate(self._workers))
        dead = [(slot, t) for slot, t in workers if not t.is_alive()]
        for slot, thread in dead:
            metrics.on_worker_death()
            self._worker_deaths.append(now)
            with self._inflight_lock:
                orphan = self._inflight.pop(slot, None)
            if orphan is not None and not orphan[0].done():
                orphan[0]._finish(
                    "error",
                    error=ServingError(
                        "worker thread died mid-query; resubmit"
                    ),
                )
            replacement = threading.Thread(
                target=self._worker, args=(slot,),
                name=f"{thread.name}+", daemon=True,
            )
            with self._workers_lock:
                self._workers[slot] = replacement
            replacement.start()
            metrics.on_worker_restart()
        self._worker_deaths = [
            t for t in self._worker_deaths if now - t < cfg.death_window
        ]
        stuck_seqs: set[int] = set()
        if cfg.stuck_after is not None:
            with self._inflight_lock:
                inflight = list(self._inflight.values())
            stuck_seqs = {
                h.seq for h, started in inflight
                if now - started > cfg.stuck_after
            }
            for _ in stuck_seqs - self._stuck_seqs:
                metrics.on_stuck_query()
        self._stuck_seqs = stuck_seqs
        deaths = len(self._worker_deaths)
        breaker_open = any(
            b is not None and b.state == "open"
            for b in (self._parallel_breaker, self._kernel_breaker)
        )
        if deaths >= cfg.cache_only_deaths or stuck_seqs:
            target = "cache_only"
            reason = (
                "repeated-worker-deaths"
                if deaths >= cfg.cache_only_deaths
                else "stuck-queries"
            )
            if self._views is None:
                # Without a result cache there is nothing to serve in
                # cache_only mode; refusing outright is more honest.
                target = "rejecting"
        elif deaths > 0 or breaker_open:
            target = "serial_only"
            reason = "worker-death" if deaths else "breaker-open"
        else:
            target, reason = "healthy", ""
        if target != "healthy":
            self._last_degraded_signal = now
            self._ladder.escalate(target, reason)
        elif (
            self._ladder.mode != "healthy"
            and now - self._last_degraded_signal >= cfg.recovery_window
        ):
            self._ladder.recover()
            # Each rung re-earns its own clear window before the next.
            self._last_degraded_signal = now

    # ------------------------------------------------------------------
    # Updates (writer side)
    # ------------------------------------------------------------------
    def insert(self, record: "Record") -> None:
        """Insert one record, draining in-flight queries first.

        Raises :class:`~repro.exceptions.LockTimeoutError` when the
        overload config's ``update_lock_timeout`` elapses before every
        in-flight query drains (the dataset is untouched in that case).
        """
        from repro.exceptions import DurabilityError

        self._check_writable()
        timeout = self.overload.update_lock_timeout
        with self._rwlock.write_lock(timeout=timeout):
            self._chaos_lock_hold()
            try:
                self.dataset.insert_record(record)
            except DurabilityError as err:
                # The dataset already rolled the update back; the
                # storage layer is no longer trustworthy for writes.
                self._enter_read_only(str(err))
                raise
            if self._parallel is not None:
                # The pool's workers hold the dataset as it was when
                # they forked; re-shard on the next parallel query.
                self._parallel.invalidate()
        self.metrics.on_update()

    def delete(self, rid) -> bool:
        """Delete the record with id ``rid`` (``False`` when absent)."""
        from repro.exceptions import DurabilityError

        self._check_writable()
        timeout = self.overload.update_lock_timeout
        with self._rwlock.write_lock(timeout=timeout):
            self._chaos_lock_hold()
            try:
                removed = self.dataset.delete_record(rid)
            except DurabilityError as err:
                self._enter_read_only(str(err))
                raise
            if removed and self._parallel is not None:
                self._parallel.invalidate()
        if removed:
            self.metrics.on_update()
        return removed

    def checkpoint(self):
        """Force a durability checkpoint now (writer-excluded snapshot).

        Raises :class:`~repro.exceptions.ServingError` when the server
        was built without ``durability``.
        """
        if self._durability is None:
            raise ServingError("server has no durability manager")
        timeout = self.overload.update_lock_timeout
        with self._rwlock.write_lock(timeout=timeout):
            return self._durability.checkpoint()

    def _check_writable(self) -> None:
        if self._read_only:
            raise ServingError(
                f"server is read-only ({self._read_only_reason}); "
                "recover the durability directory and restart to resume writes"
            )

    def _enter_read_only(self, reason: str) -> None:
        """Latch read-only degradation after a durability failure."""
        if not self._read_only:
            self._read_only = True
            self._read_only_reason = reason
            self.metrics.on_read_only(reason)

    def _chaos_lock_hold(self) -> None:
        """Chaos fault point: stall while holding the writer lock."""
        if self._lock_injector is not None:
            self._lock_injector.maybe_stall("server.update.lock_hold")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ComparisonStats:
        """Server-wide counter aggregate (merged per-query bundles)."""
        return self.metrics.comparison_totals

    @property
    def views(self):
        """The :class:`~repro.views.ViewManager` (``None`` when off)."""
        return self._views

    @property
    def durability(self):
        """The :class:`~repro.durability.DurabilityManager` (or ``None``)."""
        return self._durability

    @property
    def read_only(self) -> bool:
        """Whether a durability failure latched the server read-only."""
        return self._read_only

    @property
    def ladder(self) -> DegradationLadder:
        """The degradation ladder (``docs/overload.md``)."""
        return self._ladder

    @property
    def mode(self) -> str:
        """Current degradation mode (``"healthy"`` .. ``"rejecting"``)."""
        return self._ladder.mode

    @property
    def breakers(self) -> dict[str, CircuitBreaker]:
        """The circuit breakers by name (empty when disabled)."""
        result = {}
        if self._parallel_breaker is not None:
            result["parallel"] = self._parallel_breaker
        if self._kernel_breaker is not None:
            result["kernel"] = self._kernel_breaker
        return result

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet executing."""
        return self.metrics.queue_depth

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SkylineServer(n={len(self.dataset)}, "
            f"workers={len(self._workers)}, queue_depth={self.queue_depth}, "
            f"closed={self._closed})"
        )
