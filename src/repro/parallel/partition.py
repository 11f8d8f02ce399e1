"""Dataset partitioning for sharded skyline execution.

Two strategies (cf. Ciaccia & Martinenghi's grid/stratum partitioning):

**Strata mode** groups *consecutive* SDC+ strata (``R_cp, R_cc, R^1_pp,
R^1_pc, ...``; see :mod:`repro.transform.stratification`) into balanced
shards.  The stratification order carries a one-directional dominance
guarantee -- a point can only be dominated by points in its own or an
*earlier* stratum -- so shard-local skylines merge with a single ordered
pass (earlier shards' survivors are definite; see
:mod:`repro.parallel.merge`).

**Grid mode** is the fallback when no poset attribute exists, one
stratum holds more than :data:`MAX_STRATUM_SKEW` of all points, or the
caller forces it: points are
rank-partitioned on the monotone L1 key of the transformed vector
(``Point.key``) into contiguous chunks.  Key rank is one-directional for
dominance too: dominance implies m-dominance (the transform's
necessary-condition property, Section 4.2), and m-dominance implies a
strictly smaller key -- so a point in a later chunk can never dominate a
point in an earlier one and the same ordered merge applies.

**Task sizing** is adaptive: :func:`plan_tasks` targets
:attr:`~repro.parallel.config.ParallelConfig.tasks_per_worker` tasks per
worker slot (so skewed strata cannot leave slots idle), scaled down when
the admission cost model's calibrated per-``n log n`` work estimate says
the query is too light to amortise that many dispatches, and floored by
``min_shard_points``.  Every serial routing decision carries an explicit
``reason`` so callers can *count* it (the ``routed_serial`` metric)
instead of silently falling through.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transform.dataset import TransformedDataset

from repro.parallel.config import ParallelConfig

__all__ = ["Shard", "Partition", "TaskPlan", "plan_tasks", "partition_dataset"]

#: Strata-mode eligibility threshold: when one SDC+ stratum holds more
#: than this fraction of all points, category partitioning cannot
#: balance and the partitioner falls back to grid mode.
MAX_STRATUM_SKEW = 0.8


@dataclass(frozen=True)
class Shard:
    """One unit of worker-local skyline work.

    ``rows`` are indexes into the parent's ``dataset.points`` list; they
    are laid out contiguously in the shared ``order`` array so a task
    payload is just a ``[start, stop)`` slice.
    """

    index: int
    rows: tuple[int, ...]
    #: Stratum labels grouped into this shard ("grid" chunks have none).
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class Partition:
    """The sharding decision for one dataset.

    Shard order always carries the one-directional dominance guarantee
    (a shard's points can only be dominated from its own or an earlier
    shard), which the ordered merge relies on.
    """

    shards: tuple[Shard, ...]
    #: ``"strata"``, ``"grid"`` or ``"serial"`` (too small to shard).
    mode: str
    #: Why the partitioner chose this outcome -- always set for serial
    #: routings (``"tiny-data"``, ``"shard-floor"``, ``"single-stratum"``,
    #: ``"strata-collapsed"``, ``"grid-collapsed"``), informational
    #: otherwise (``"skewed-strata"`` for a skew-forced grid, ``None``
    #: for a plain strata/grid split).
    reason: str | None = None

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s.rows) for s in self.shards)


@dataclass(frozen=True)
class TaskPlan:
    """How many tasks :func:`partition_dataset` should aim for."""

    slots: int
    tasks: int
    #: Estimated total dominance comparisons the sizing was based on.
    estimated_comparisons: float
    #: ``True`` when the estimate came from a calibrated cost profile.
    calibrated: bool
    #: Set when the plan routes the query serial.
    serial_reason: str | None = None


def _serial(reason: str) -> Partition:
    return Partition(shards=(), mode="serial", reason=reason)


def _estimated_work(n: int, dimensions: int, estimator) -> tuple[float, bool]:
    """Total-comparison estimate driving the task-count adaptation."""
    if estimator is not None:
        try:
            return estimator.peak_comparisons(n, dimensions)
        except AttributeError:  # duck-typed estimator without the hook
            pass
    from repro.serving.admission import _analytic_skyline_size

    return n * _analytic_skyline_size(n, dimensions), False


def plan_tasks(
    dataset: TransformedDataset, config: ParallelConfig, estimator=None
) -> TaskPlan:
    """Pick the task count for one dataset under one config.

    ``slots * tasks_per_worker`` tasks, scaled down to ``estimated_work /
    min_task_work`` when the cost model predicts the query is light,
    floored at one task per slot and capped by the ``min_shard_points``
    floor.  Fewer than two viable tasks routes the query serial with an
    explicit reason.
    """
    n = len(dataset.points)
    slots = config.resolved_workers()
    floor_cap = n // max(1, config.min_shard_points)
    if n == 0 or n < 2 * config.min_shard_points:
        return TaskPlan(slots, 0, 0.0, False, serial_reason="tiny-data")
    work, calibrated = _estimated_work(n, dataset.dimensions, estimator)
    by_work = int(work // config.min_task_work)
    tasks = max(slots, min(slots * config.tasks_per_worker, max(1, by_work)))
    tasks = min(tasks, floor_cap)
    if tasks < 2:
        return TaskPlan(
            slots, tasks, work, calibrated, serial_reason="shard-floor"
        )
    return TaskPlan(slots, tasks, work, calibrated)


def _balanced_groups(sizes: list[int], groups: int) -> list[list[int]]:
    """Greedily group consecutive blocks into ``groups`` balanced runs."""
    total = sum(sizes)
    target = total / groups
    out: list[list[int]] = []
    current: list[int] = []
    acc = 0
    for i, size in enumerate(sizes):
        current.append(i)
        acc += size
        if acc >= target and len(out) < groups - 1:
            out.append(current)
            current = []
            acc = 0
    if current:
        out.append(current)
    return out


def partition_dataset(
    dataset: TransformedDataset, config: ParallelConfig, estimator=None
) -> Partition:
    """Split ``dataset`` into shards per the configured strategy.

    ``estimator`` (a :class:`~repro.serving.admission.CostEstimator`, or
    anything with its ``peak_comparisons`` hook) feeds the adaptive task
    sizing; without one the analytic cold-start work bound is used.
    """
    n = len(dataset.points)
    plan = plan_tasks(dataset, config, estimator)
    if plan.serial_reason is not None:
        return _serial(plan.serial_reason)

    mode = config.mode
    if mode in ("auto", "strata") and dataset.schema.num_partial > 0:
        strata = dataset.stratification.strata
        if len(strata) < 2:
            # All points share one stratum (e.g. a single-category
            # dataset): category partitioning is impossible.
            return _grid_partition(dataset, plan, reason="single-stratum")
        if max(len(s) for s in strata) > MAX_STRATUM_SKEW * n:
            return _grid_partition(dataset, plan, reason="skewed-strata")
        return _strata_partition(dataset, strata, plan)
    return _grid_partition(dataset, plan, reason=None)


def _strata_partition(dataset, strata, plan: TaskPlan) -> Partition:
    position = {id(p): i for i, p in enumerate(dataset.points)}
    sizes = [len(s) for s in strata]
    # A stratum is never split: within one stratum there is no dominance
    # direction, so a split would break the ordered-merge invariant (and
    # the serial SDC+ emission order).  Fine granularity comes from
    # grouping fewer strata per task.
    groups = _balanced_groups(sizes, min(plan.tasks, len(strata)))
    shards = []
    for gi, stratum_ixs in enumerate(groups):
        rows: list[int] = []
        labels: list[str] = []
        for si in stratum_ixs:
            stratum = strata[si]
            labels.append(stratum.label)
            rows.extend(position[id(p)] for p in stratum.points)
        shards.append(Shard(index=gi, rows=tuple(rows), labels=tuple(labels)))
    shards = [s for s in shards if s.rows]
    if len(shards) < 2:
        return _serial("strata-collapsed")
    shards = tuple(
        Shard(index=i, rows=s.rows, labels=s.labels) for i, s in enumerate(shards)
    )
    return Partition(shards=shards, mode="strata")


def _grid_partition(dataset, plan: TaskPlan, reason: str | None) -> Partition:
    n = len(dataset.points)
    ranked = sorted(range(n), key=lambda i: (dataset.points[i].key, i))
    base, extra = divmod(n, plan.tasks)
    shards = []
    cursor = 0
    for gi in range(plan.tasks):
        size = base + (1 if gi < extra else 0)
        if size == 0:
            continue
        shards.append(
            Shard(index=len(shards), rows=tuple(ranked[cursor : cursor + size]))
        )
        cursor += size
    if len(shards) < 2:
        return _serial("grid-collapsed")
    # Key rank is one-directional for dominance even with posets:
    # dominance => m-dominance => strictly smaller key.
    return Partition(shards=tuple(shards), mode="grid", reason=reason)
