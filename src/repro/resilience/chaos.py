"""Deterministic fault injection for the chaos test suite.

Every injector is seeded, so a failing chaos run reproduces exactly.
Four failure families are covered, matching the ways a production
skyline service actually breaks:

* **kernel exceptions** -- :class:`FaultInjector` wraps a dataset's
  dominance kernel (and the vectorized buffers it hands out) in
  :class:`ChaoticKernel` / :class:`ChaoticBuffer` proxies that raise a
  typed :class:`~repro.exceptions.KernelError` on a chosen call;
* **R-tree node corruption** -- :func:`corrupt_rtree` flips one node's
  MBR or category bits in place, which
  :meth:`~repro.rtree.rstar.RStarTree.validate` must detect as a typed
  :class:`~repro.exceptions.RTreeError`;
* **malformed records** -- :func:`malform_records` produces records with
  wrong arity or out-of-domain poset values (typed
  :class:`~repro.exceptions.SchemaError` at transform time);
* **NaN / infinity numerics** -- :func:`malform_records` also emits
  non-finite totals, rejected by input hardening in the schema and
  :mod:`repro.io` layers;
* **serving-infrastructure failures** -- :class:`StallInjector` plus the
  ``inject_worker_*`` / :func:`inject_lock_delays` /
  :func:`inject_pool_crashes` helpers arm the
  :class:`~repro.serving.server.SkylineServer`'s chaos fault points:
  worker threads that die or wedge mid-query, updates that stall while
  holding the writer lock, and parallel worker processes that hard-exit
  mid-shard.  The overload layer (``docs/overload.md``) must turn each
  into a typed error, a watchdog respawn or a breaker-guarded
  degradation -- never a hung ``QueryHandle``.

None of the proxies ever *falsifies* a verdict: a fault is always an
exception, never a wrong answer, so everything an algorithm emitted
before the fault is still correct -- which is what lets the resilient
executor keep the emitted prefix when it falls back to the python
kernel.
"""

from __future__ import annotations

import math
import random
import threading
from typing import TYPE_CHECKING, Iterator

from repro.core.record import Record
from repro.exceptions import KernelError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rtree.rstar import RStarTree
    from repro.transform.dataset import TransformedDataset

__all__ = [
    "FaultInjector",
    "StallInjector",
    "CrashInjector",
    "KILL_POINTS",
    "ChaoticKernel",
    "ChaoticBuffer",
    "inject_kernel_faults",
    "inject_update_faults",
    "inject_worker_faults",
    "inject_worker_stalls",
    "inject_lock_delays",
    "inject_pool_crashes",
    "corrupt_rtree",
    "malform_records",
]

#: Named process kill-points honoured by the durability subsystem
#: (:mod:`repro.durability`): mid-WAL-append leaves a torn record on
#: disk, post-append-pre-fsync leaves a complete but unacknowledged
#: record, mid-snapshot-rename leaves a temp file next to the previous
#: checkpoint, and mid-replay dies while a *recovery* is replaying the
#: log.  ``repro crash-replay`` sweeps all four (docs/durability.md).
KILL_POINTS = (
    "wal.append.mid-write",
    "wal.append.pre-fsync",
    "snapshot.mid-rename",
    "recovery.mid-replay",
)


class FaultInjector:
    """Seeded fault source shared by one query's chaos proxies.

    Parameters
    ----------
    seed:
        Seeds the injector's private RNG (used by ``rate`` mode).
    fail_after:
        Deterministic mode: fail exactly on the N-th intercepted call.
    rate:
        Probabilistic mode: each intercepted call fails with this
        probability (still deterministic for a fixed seed).
    max_faults:
        Stop injecting after this many faults (default one, so a
        recovered query cannot be re-broken by the same injector).
    fault_type:
        Exception class to raise; defaults to
        :class:`~repro.exceptions.KernelError`.
    """

    __slots__ = ("rng", "fail_after", "rate", "max_faults", "fault_type",
                 "calls", "fired", "sites", "_lock")

    def __init__(
        self,
        seed: int = 0,
        fail_after: int | None = None,
        rate: float = 0.0,
        max_faults: int = 1,
        fault_type: type = KernelError,
    ) -> None:
        self.rng = random.Random(seed)
        self.fail_after = fail_after
        self.rate = rate
        self.max_faults = max_faults
        self.fault_type = fault_type
        self.calls = 0
        self.fired = 0
        self.sites: list[str] = []
        # One injector may be shared by many concurrent per-query view
        # kernels (the server's chaos tests); the lock keeps the call
        # counting and the max_faults cap exact under that sharing.
        self._lock = threading.Lock()

    def maybe_fail(self, site: str) -> None:
        """Count one intercepted call; raise when this one should fail."""
        with self._lock:
            self.calls += 1
            if self.fired >= self.max_faults:
                return
            trip = False
            if self.fail_after is not None:
                trip = self.calls >= self.fail_after
            elif self.rate > 0.0:
                trip = self.rng.random() < self.rate
            if not trip:
                return
            self.fired += 1
            self.sites.append(site)
            calls = self.calls
        raise self.fault_type(f"injected fault at {site} (call #{calls})")


class StallInjector:
    """Seeded stall source: a fault that *wedges* instead of raising.

    Same triggering contract as :class:`FaultInjector` (``fail_after``
    exact-call mode, ``rate`` probabilistic mode, ``max_faults`` cap,
    thread-safe under concurrent sharing) but a tripped call sleeps for
    ``stall_seconds`` instead of raising -- modelling a wedged worker
    thread or an update stuck while holding the writer lock.  The sleep
    honours an optional ``release`` event so tests can un-wedge a stall
    early instead of waiting it out.
    """

    __slots__ = ("rng", "fail_after", "rate", "max_faults", "stall_seconds",
                 "calls", "fired", "sites", "release", "_lock")

    def __init__(
        self,
        seed: int = 0,
        fail_after: int | None = None,
        rate: float = 0.0,
        max_faults: int = 1,
        stall_seconds: float = 0.5,
    ) -> None:
        self.rng = random.Random(seed)
        self.fail_after = fail_after
        self.rate = rate
        self.max_faults = max_faults
        self.stall_seconds = stall_seconds
        self.calls = 0
        self.fired = 0
        self.sites: list[str] = []
        self.release = threading.Event()
        self._lock = threading.Lock()

    def maybe_stall(self, site: str) -> bool:
        """Count one intercepted call; sleep when this one should wedge.

        Returns ``True`` when a stall happened (after it ends).
        """
        with self._lock:
            self.calls += 1
            if self.fired >= self.max_faults:
                return False
            trip = False
            if self.fail_after is not None:
                trip = self.calls >= self.fail_after
            elif self.rate > 0.0:
                trip = self.rng.random() < self.rate
            if not trip:
                return False
            self.fired += 1
            self.sites.append(site)
        self.release.wait(self.stall_seconds)
        return True


class CrashInjector:
    """Seeded process kill: ``os._exit`` at a named durability site.

    Unlike :class:`FaultInjector` (raises) and :class:`StallInjector`
    (sleeps), a tripped call *terminates the process immediately* --
    no ``finally`` blocks, no atexit handlers, no flushing -- which is
    exactly what a power cut or ``kill -9`` looks like to the
    write-ahead log.  The durability code threads one injector through
    its crash sites (:data:`KILL_POINTS`); ``maybe_crash`` fires on the
    ``fail_after``-th call at the armed ``site`` and ignores every other
    site, so one injector models one precisely-placed crash.

    ``before_exit`` (passed by the call site, not the constructor) runs
    just before the exit to materialize the torn on-disk state the
    crash should leave behind -- e.g. half of a WAL record flushed to
    the OS.  Exit code :attr:`exit_code` (default 17) lets the
    crash-replay harness distinguish an injected crash from a real bug.
    """

    __slots__ = ("site", "fail_after", "exit_code", "calls", "armed")

    def __init__(self, site: str, fail_after: int = 1, exit_code: int = 17) -> None:
        if site not in KILL_POINTS:
            raise KernelError(f"unknown kill-point {site!r}")
        self.site = site
        self.fail_after = fail_after
        self.exit_code = exit_code
        self.calls = 0
        self.armed = True

    def maybe_crash(self, site: str, before_exit=None) -> None:
        """Count one pass through ``site``; kill the process on the match."""
        if not self.armed or site != self.site:
            return
        self.calls += 1
        if self.calls < self.fail_after:
            return
        import os

        if before_exit is not None:
            before_exit()
        os._exit(self.exit_code)


class ChaoticBuffer:
    """Fault-injecting proxy over a vectorized skyline buffer."""

    __slots__ = ("_buffer", "_injector")

    def __init__(self, buffer, injector: FaultInjector) -> None:
        self._buffer = buffer
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._buffer, name)

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator:
        return iter(self._buffer)

    def prunes_point(self, point):
        """Proxy of the buffer's ``prunes_point`` (may inject a fault)."""
        self._injector.maybe_fail("buffer.prunes_point")
        return self._buffer.prunes_point(point)

    def prunes_mins(self, mins, bound):
        """Proxy of the buffer's ``prunes_mins`` (may inject a fault)."""
        self._injector.maybe_fail("buffer.prunes_mins")
        return self._buffer.prunes_mins(mins, bound)

    def filters(self, point):
        """Proxy of the buffer's ``filters`` (may inject a fault)."""
        self._injector.maybe_fail("buffer.filters")
        return self._buffer.filters(point)

    def update_native(self, point, count_calls: bool = False):
        """Proxy of the buffer's ``update_native`` (may inject a fault)."""
        self._injector.maybe_fail("buffer.update_native")
        return self._buffer.update_native(point, count_calls)

    def update_compare(self, point):
        """Proxy of the buffer's ``update_compare`` (may inject a fault)."""
        self._injector.maybe_fail("buffer.update_compare")
        return self._buffer.update_compare(point)

    def scan_compare(self, point):
        """Proxy of the buffer's ``scan_compare`` (may inject a fault)."""
        self._injector.maybe_fail("buffer.scan_compare")
        return self._buffer.scan_compare(point)

    def absorb(self, other) -> None:
        """Proxy of the buffer's ``absorb``; unwraps a proxied ``other``."""
        self._injector.maybe_fail("buffer.absorb")
        if isinstance(other, ChaoticBuffer):
            other = other._buffer
        self._buffer.absorb(other)


class ChaoticKernel:
    """Fault-injecting proxy over a dominance kernel.

    Wraps the scalar comparison methods and, for batch kernels, the
    BNL scan verdicts and the buffers handed out by ``new_buffer`` --
    so faults hit both the python-style scalar paths and the vectorized
    batch paths.  All other attributes pass through to the wrapped
    kernel.
    """

    __slots__ = ("_kernel", "_injector")

    def __init__(self, kernel, injector: FaultInjector) -> None:
        self._kernel = kernel
        self._injector = injector

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    @property
    def wrapped(self):
        """The kernel behind the proxy."""
        return self._kernel

    def m_dominates(self, p, q):
        """Proxy of the kernel's ``m_dominates`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.m_dominates")
        return self._kernel.m_dominates(p, q)

    def m_dominates_mins(self, p, mins):
        """Proxy of the kernel's ``m_dominates_mins`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.m_dominates_mins")
        return self._kernel.m_dominates_mins(p, mins)

    def native_dominates(self, p, q):
        """Proxy of the kernel's ``native_dominates`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.native_dominates")
        return self._kernel.native_dominates(p, q)

    def compare_dominance(self, x, y):
        """Proxy of the kernel's ``compare_dominance`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.compare_dominance")
        return self._kernel.compare_dominance(x, y)

    def full_dominates(self, p, q):
        """Proxy of the kernel's ``full_dominates`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.full_dominates")
        return self._kernel.full_dominates(p, q)

    def block_verdicts(self, native, block, rows_vt, rows_pt):
        """Proxy of the kernel's ``block_verdicts`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.block_verdicts")
        return self._kernel.block_verdicts(native, block, rows_vt, rows_pt)

    def scan_verdict(self, native, point, rows_vt, rows_pt):
        """Proxy of the kernel's ``scan_verdict`` (may inject a fault)."""
        self._injector.maybe_fail("kernel.scan_verdict")
        return self._kernel.scan_verdict(native, point, rows_vt, rows_pt)

    def new_buffer(self):
        """New buffer, wrapped in a :class:`ChaoticBuffer` proxy."""
        self._injector.maybe_fail("kernel.new_buffer")
        return ChaoticBuffer(self._kernel.new_buffer(), self._injector)


def inject_kernel_faults(
    dataset: "TransformedDataset", injector: FaultInjector
) -> FaultInjector:
    """Swap the dataset's kernel for a fault-injecting proxy.

    Returns the injector (for inspecting ``calls`` / ``fired`` after the
    run).  The resilient executor's fallback path builds a *fresh*
    python kernel, so a recovered query bypasses the proxy entirely.

    The injector is also recorded on the dataset so per-query views
    (:meth:`~repro.transform.dataset.TransformedDataset.query_view`)
    re-wrap their own kernels with the same injector -- this is how the
    serving chaos tests break exactly one of N concurrent queries.
    """
    dataset.kernel = ChaoticKernel(dataset.kernel, injector)
    dataset._kernel_injector = injector
    return injector


def inject_update_faults(
    dataset: "TransformedDataset", injector: FaultInjector
) -> FaultInjector:
    """Arm the dataset's update fault points with ``injector``.

    ``insert_record`` / ``delete_record`` call the injector at two
    mid-update sites each (after the point/record lists changed but
    before the index insert/delete, and between the index and the
    stratification maintenance), so a fired fault lands the dataset in
    the worst spot -- and the update code must restore the exact
    pre-update state before re-raising (asserted by the update-chaos
    suite).  Pass ``injector=None``-like behaviour by simply never
    arming; a dataset starts with no update injector.
    """
    dataset._update_injector = injector
    return injector


# ---------------------------------------------------------------------------
# Serving-infrastructure fault points
# ---------------------------------------------------------------------------
def inject_worker_faults(server, injector: FaultInjector) -> FaultInjector:
    """Arm the server's worker fault point with ``injector``.

    The injector fires at the ``server.worker`` site, at the top of a
    worker thread's query execution (before the query is marked
    started).  With ``fault_type=SystemExit`` the fired call kills the
    worker thread outright -- the regression scenario for satellite
    hang-proofing: the orphaned query's handle must still resolve (a
    typed :class:`~repro.exceptions.ServingError`) and the watchdog
    must respawn the thread.  With an ``Exception`` fault type the
    query fails but the worker survives.
    """
    server._worker_injector = injector
    return injector


def inject_worker_stalls(server, injector: StallInjector) -> StallInjector:
    """Arm the server's worker stall point with ``injector``.

    A tripped call wedges the worker thread at the ``server.worker``
    site for ``stall_seconds`` -- long enough for the watchdog's
    ``stuck_after`` detection to flag the query and degrade the server.
    """
    server._stall_injector = injector
    return injector


def inject_lock_delays(server, injector: StallInjector) -> StallInjector:
    """Arm the server's writer-lock-hold stall point with ``injector``.

    A tripped update stalls at ``server.update.lock_hold`` *while
    holding the writer lock*, starving every queued reader -- the
    scenario :meth:`~repro.serving.rwlock.ReadWriteLock.acquire_write`
    timeouts and queue shedding are built for.
    """
    server._lock_injector = injector
    return injector


def inject_pool_crashes(target, injector: FaultInjector) -> FaultInjector:
    """Arm the parallel executor's pool-crash fault points.

    ``target`` is a :class:`~repro.serving.server.SkylineServer` (its
    shared executor is armed) or a
    :class:`~repro.parallel.ParallelSkylineExecutor`.  A fired fault
    hard-exits a worker *process* mid-shard (``parallel.dispatch.*``
    sites), breaking the pool; the executor's serial fallback and the
    server's parallel circuit breaker must absorb it.
    ``ParallelConfig`` is frozen, so the config is swapped for a copy
    carrying the injector.
    """
    import dataclasses

    executor = getattr(target, "_parallel", target)
    if executor is None:
        raise KernelError("target has no parallel executor to arm")
    executor.config = dataclasses.replace(executor.config, chaos=injector)
    return injector


# ---------------------------------------------------------------------------
# Structure / data corruption
# ---------------------------------------------------------------------------
def _all_nodes(node) -> list:
    nodes = [node]
    if not node.leaf:
        for child in node.entries:
            nodes.extend(_all_nodes(child))
    return nodes


def corrupt_rtree(tree: "RStarTree", seed: int = 0) -> str:
    """Deterministically corrupt one R-tree node in place.

    Picks a node by seed and either shifts its MBR (so it no longer
    contains its entries) or flips its aggregated category bits.
    Returns a description of what was broken;
    :meth:`~repro.rtree.rstar.RStarTree.validate` must subsequently
    raise :class:`~repro.exceptions.RTreeError`.
    """
    rng = random.Random(seed)
    if tree.size == 0:
        raise KernelError("cannot corrupt an empty tree")
    nodes = _all_nodes(tree.root)
    node = rng.choice(nodes)
    if rng.random() < 0.5 and node.mins:
        node.mins = tuple(m + 1.0 for m in node.mins)
        return f"shifted MBR mins of {'leaf' if node.leaf else 'internal'} node"
    node.covered_all = not node.covered_all
    return f"flipped covered_all of {'leaf' if node.leaf else 'internal'} node"


def malform_records(
    seed: int = 0,
    kinds: tuple[str, ...] = ("nan", "inf", "arity", "unknown"),
) -> list[Record]:
    """Deterministic malformed records, one per requested kind.

    ``nan`` / ``inf`` carry non-finite totals, ``arity`` has the wrong
    number of poset values, ``unknown`` uses a value outside any poset
    domain.  Feeding any of them to a transform must raise a typed
    :class:`~repro.exceptions.SchemaError` (never a raw traceback or --
    worse -- a silently poisoned comparison).
    """
    rng = random.Random(seed)
    records = []
    for kind in kinds:
        rid = f"chaos-{kind}-{rng.randrange(1 << 16)}"
        if kind == "nan":
            records.append(Record(rid, (math.nan,), ("a",)))
        elif kind == "inf":
            records.append(Record(rid, (math.inf,), ("a",)))
        elif kind == "arity":
            records.append(Record(rid, (1.0,), ("a", "b", "c")))
        elif kind == "unknown":
            records.append(Record(rid, (1.0,), ("no-such-value",)))
        else:
            raise KernelError(f"unknown malformation kind {kind!r}")
    return records
