"""Configuration for the multi-core work-stealing skyline executor."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.chaos import FaultInjector

__all__ = ["ParallelConfig"]


@dataclass(frozen=True)
class ParallelConfig:
    """How to shard a query across worker processes.

    Parameters
    ----------
    workers:
        Worker-process slots.  ``None`` (default) resolves to
        ``os.cpu_count()`` -- the pool is sized by the hardware unless
        the caller pins it.  The partitioner may still produce fewer
        tasks than slots (small datasets, few strata), in which case
        the pool shrinks to match.
    min_shard_points:
        Floor on the average task size: with ``n`` points at most
        ``n // min_shard_points`` tasks are created.  When that leaves
        fewer than two tasks the query is routed serial (sharding
        overhead would dominate) and the routing is *counted* -- see
        :attr:`ParallelResult.routed_serial` and the ``routed_serial``
        counter in the server's ``parallel`` metrics section.
    mode:
        ``"auto"`` (default) picks strata partitioning when the schema
        has a poset attribute and the strata are balanced enough, grid
        otherwise; ``"strata"`` / ``"grid"`` force one strategy
        (``"strata"`` still degrades to grid when no poset attribute
        exists).
    tasks_per_worker:
        Over-partitioning target: aim for this many tasks per worker
        slot so skewed strata cannot leave slots idle.  ``1`` gives one
        task per slot (the comparison benchmark's baseline plan).
    min_task_work:
        Work floor, in estimated dominance comparisons per task.  The
        task count adapts to the admission cost model's per-``n log n``
        work estimate (calibrated when an estimator is supplied,
        analytic otherwise): light queries get fewer, larger tasks so
        per-task dispatch overhead cannot dominate.
    filter:
        Filter-board behaviour.  ``"dynamic"`` (default): workers
        consult the board before and between chunks of their shard scan
        and publish improved representatives from each finished local
        skyline -- best pruning, but the visible board depends on task
        timing so counter *magnitudes* (never answers) can vary
        run-to-run.  ``"static"``: only the parent's deterministic
        seed representatives are consulted -- bit-reproducible
        counters, used by the CI comparison-reduction gate.  ``"off"``:
        no board pruning (pure scheduling benefit).
    chaos:
        Optional :class:`~repro.resilience.chaos.FaultInjector` fired at
        the ``parallel.dispatch.shard<i>`` sites.  An injected fault
        marks that task so the worker process hard-exits the moment it
        *claims* it -- a deterministic stand-in for a worker crash
        (``kill -9``) mid-steal, used by the chaos suite.
    """

    workers: int | None = None
    min_shard_points: int = 32
    mode: str = "auto"
    tasks_per_worker: int = 4
    min_task_work: float = 8_000.0
    filter: str = "dynamic"
    chaos: "FaultInjector | None" = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.mode not in ("auto", "strata", "grid"):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.filter not in ("dynamic", "static", "off"):
            raise ValueError(f"unknown filter mode {self.filter!r}")
        if self.min_shard_points < 1:
            raise ValueError(
                f"min_shard_points must be >= 1, got {self.min_shard_points}"
            )
        if self.tasks_per_worker < 1:
            raise ValueError(
                f"tasks_per_worker must be >= 1, got {self.tasks_per_worker}"
            )
        if self.min_task_work <= 0:
            raise ValueError(f"min_task_work must be > 0, got {self.min_task_work}")

    def resolved_workers(self) -> int:
        """Worker slots: the explicit count, or ``os.cpu_count()``."""
        if self.workers is not None:
            return self.workers
        return max(1, os.cpu_count() or 1)

    @staticmethod
    def coerce(value: "ParallelConfig | int | None") -> "ParallelConfig | None":
        """Normalise an ``engine.run(parallel=...)`` argument.

        Accepts a ready :class:`ParallelConfig`, a bare worker count, or
        ``None`` (meaning: run serially).
        """
        if value is None or isinstance(value, ParallelConfig):
            return value
        if isinstance(value, bool):  # bool is an int subclass; reject it
            raise TypeError("parallel= expects a ParallelConfig or a worker count")
        if isinstance(value, int):
            return ParallelConfig(workers=value)
        raise TypeError(
            f"parallel= expects a ParallelConfig or a worker count, got {value!r}"
        )
