"""High-level public API.

:func:`skyline` answers a one-shot query; :class:`SkylineEngine` keeps the
transformed dataset (domain mappings, R-tree indexes, strata) around so
several algorithms or repeated queries can share the build work -- the
paper's setting, where the index is constructed once offline.

Example
-------
>>> from repro import NumericAttribute, PosetAttribute, Record, Schema, skyline
>>> from repro.posets import diamond
>>> schema = Schema([NumericAttribute("price", "min"),
...                  PosetAttribute.set_valued("tier", diamond())])
>>> records = [Record(0, (100,), ("a",)), Record(1, (100,), ("d",))]
>>> [r.rid for r in skyline(records, schema)]
[0]
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.algorithms.base import SkylineAlgorithm, get_algorithm
from repro.core.record import Record
from repro.core.schema import Schema
from repro.core.stats import ComparisonStats
from repro.posets.optimize import SpanningTreeStrategy
from repro.transform.dataset import TransformedDataset
from repro.transform.point import Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel import ParallelConfig, ParallelSkylineExecutor
    from repro.resilience.context import CancellationToken, QueryContext
    from repro.serving.server import SkylineServer

__all__ = ["SkylineEngine", "skyline"]


class SkylineEngine:
    """Reusable query engine over one dataset.

    Parameters
    ----------
    schema, records:
        The relation to query.
    strategy:
        Spanning-tree strategy (``default``, ``random``, ``minpc``,
        ``maxpc``) applied to every poset attribute.
    stats:
        Optional shared counter bundle.
    kernel:
        Dominance backend, ``"python"`` or ``"numpy"`` (vectorized; see
        ``docs/performance.md``).  Answers, emission order and counters
        are identical.
    max_entries, bulk_load, faithful_gate, rng:
        Forwarded to :class:`~repro.transform.dataset.TransformedDataset`.
    """

    def __init__(
        self,
        schema: Schema,
        records: Iterable[Record],
        strategy: SpanningTreeStrategy | str = SpanningTreeStrategy.DEFAULT,
        stats: ComparisonStats | None = None,
        max_entries: int = 50,
        bulk_load: bool = True,
        faithful_gate: bool = False,
        native_mode: str = "native",
        rng: random.Random | None = None,
        forests: dict | None = None,
        kernel: str = "python",
    ) -> None:
        self.dataset = TransformedDataset(
            schema,
            records,
            strategy=strategy,
            stats=stats,
            faithful_gate=faithful_gate,
            max_entries=max_entries,
            bulk_load=bulk_load,
            native_mode=native_mode,
            rng=rng,
            forests=forests,
            kernel=kernel,
        )

    @property
    def stats(self) -> ComparisonStats:
        """The counter bundle shared with all runs on this engine."""
        return self.dataset.stats

    def algorithm(self, name: str | SkylineAlgorithm, **options) -> SkylineAlgorithm:
        """Resolve an algorithm argument (name or ready instance)."""
        if isinstance(name, SkylineAlgorithm):
            return name
        return get_algorithm(name, **options)

    def run_points(
        self,
        algorithm: str | SkylineAlgorithm = "sdc+",
        *,
        stats: ComparisonStats | None = None,
        parallel: "ParallelConfig | int | None" = None,
        **options,
    ) -> Iterator[Point]:
        """Stream skyline :class:`Point` objects progressively.

        ``stats`` redirects this one call's counters into the given
        bundle instead of the engine-level one (the run executes on an
        isolated :meth:`~repro.transform.dataset.TransformedDataset.query_view`,
        so the engine bundle is untouched) -- per-call attribution
        without a second engine.

        ``parallel`` (a :class:`~repro.parallel.ParallelConfig` or a
        worker count) shards the query across a work-stealing process
        pool (see ``docs/parallel.md``).  The answer set is identical to
        the serial run (same emission order as serial SDC+ under strata
        partitioning); this convenience entry point returns the fully
        merged answer, but the executor itself streams each merged
        shard's survivors to a ``sink`` incrementally while later tasks
        still compute -- pass one through
        :meth:`parallel_executor`\\ 's ``run``.  Counters billed are the
        aggregate of all tasks plus the merge phase.  For repeated
        parallel queries prefer :meth:`parallel_executor`, which reuses
        the pool, the workers' shard indexes and its route measurements
        across calls.
        """
        if parallel is not None:
            from repro.parallel import ParallelSkylineExecutor

            with ParallelSkylineExecutor(self.dataset, parallel) as executor:
                result = executor.run(
                    algorithm if isinstance(algorithm, str) else algorithm.name,
                    stats=stats,
                    **options,
                )
            return iter(result.points)
        dataset = self.dataset if stats is None else self.dataset.query_view(stats)
        return self.algorithm(algorithm, **options).run(dataset)

    def parallel_executor(
        self, config: "ParallelConfig | int | None" = None
    ) -> "ParallelSkylineExecutor":
        """A reusable sharded-execution backend over this dataset.

        Use as a context manager (it owns a process pool)::

            with engine.parallel_executor(4) as pex:
                for algo in ("sdc+", "bbs+"):
                    result = pex.run(algo)
        """
        from repro.parallel import ParallelSkylineExecutor

        return ParallelSkylineExecutor(self.dataset, config)

    def run(
        self,
        algorithm: str | SkylineAlgorithm = "sdc+",
        *,
        stats: ComparisonStats | None = None,
        parallel: "ParallelConfig | int | None" = None,
        **options,
    ) -> Iterator[Record]:
        """Stream skyline :class:`Record` objects progressively."""
        for point in self.run_points(
            algorithm, stats=stats, parallel=parallel, **options
        ):
            yield point.record

    def skyline(
        self,
        algorithm: str | SkylineAlgorithm = "sdc+",
        *,
        stats: ComparisonStats | None = None,
        parallel: "ParallelConfig | int | None" = None,
        **options,
    ) -> list[Record]:
        """The full skyline as a record list."""
        return list(self.run(algorithm, stats=stats, parallel=parallel, **options))

    def query(
        self,
        algorithm: str | SkylineAlgorithm = "sdc+",
        *,
        deadline: float | None = None,
        max_comparisons: int | None = None,
        max_heap_entries: int | None = None,
        max_window_entries: int | None = None,
        max_answers: int | None = None,
        cancel: "CancellationToken | None" = None,
        context: "QueryContext | None" = None,
        fallback: bool = True,
        stats: ComparisonStats | None = None,
        **options,
    ):
        """Run one resilient query (see :mod:`repro.resilience`).

        Returns a :class:`~repro.resilience.executor.PartialResult`;
        exhausting a resource budget truncates gracefully, while an
        expired ``deadline`` (seconds) or a fired ``cancel`` token raises
        the typed control error with the partial result attached.  A
        ready-made ``context`` overrides the individual limits; ``stats``
        redirects this call's counters into the given bundle (the query
        runs on an isolated view, leaving the engine bundle untouched).
        """
        from repro.resilience import QueryContext, ResourceBudget, execute

        if context is None:
            limits = (max_comparisons, max_heap_entries, max_window_entries,
                      max_answers)
            budget = (
                ResourceBudget(*limits) if any(v is not None for v in limits)
                else None
            )
            context = QueryContext(deadline=deadline, budget=budget, cancel=cancel)
        dataset = self.dataset if stats is None else self.dataset.query_view(stats)
        return execute(
            dataset, algorithm, context, fallback=fallback, **options
        )

    def serve(self, **options) -> "SkylineServer":
        """A concurrent query server over this engine's dataset.

        Keyword arguments are forwarded to
        :class:`~repro.serving.server.SkylineServer` (``workers``,
        ``max_pending``, ``validate_on_admission``, ...).  Use as a
        context manager::

            with engine.serve(workers=8) as server:
                handles = [server.submit(algorithm="sdc+") for _ in range(32)]
                answers = [h.result() for h in handles]
        """
        from repro.serving import SkylineServer

        return SkylineServer(self, **options)

    def materialize(self, cache=None, **options):
        """A :class:`~repro.views.ViewManager` over this engine's dataset.

        Materializes the full-space skyline immediately and registers
        for incremental maintenance on :meth:`insert` / :meth:`delete`.
        ``cache`` is an optional ready
        :class:`~repro.views.ResultCache`; other keyword arguments are
        forwarded to the manager (``algorithm``, ``cache_entries``,
        ``cache_bytes``, ``metrics``).  Use as a context manager (or
        call :meth:`~repro.views.ViewManager.detach`) to unhook::

            with engine.materialize() as views:
                hit = views.lookup(QueryShape.full_skyline())
        """
        from repro.views import ViewManager

        manager = ViewManager(self.dataset, cache=cache, **options)
        manager.materialize()
        return manager

    # ------------------------------------------------------------------
    # Skyline-related queries (repro.queries convenience front-ends)
    # ------------------------------------------------------------------
    def skyband(self, k: int, method: str = "bbs") -> list[Record]:
        """Records dominated by fewer than ``k`` others (1 == skyline)."""
        from repro.queries.skyband import k_skyband

        return [p.record for p in k_skyband(self.dataset, k, method)]

    def constrained(self, constraint, method: str = "bbs") -> list[Record]:
        """Skyline of the records admitted by a
        :class:`~repro.queries.constrained.Constraint`."""
        from repro.queries.constrained import constrained_skyline

        return [
            p.record for p in constrained_skyline(self.dataset, constraint, method)
        ]

    def layers(
        self, max_layers: int | None = None, algorithm: str = "bnl"
    ) -> Iterator[list[Record]]:
        """Successive skyline layers (onion peeling)."""
        from repro.queries.layers import skyline_layers

        for layer in skyline_layers(self.dataset, max_layers, algorithm):
            yield [p.record for p in layer]

    def subspace(
        self, attributes: list[str], algorithm: str = "bnl"
    ) -> list[Record]:
        """Skyline over a subset of the schema's attributes."""
        from repro.queries.subspace import subspace_skyline

        return subspace_skyline(self.dataset, attributes, algorithm)

    def top_k_dominating(self, k: int) -> list[tuple[Record, int]]:
        """The ``k`` records dominating the most others, with counts."""
        from repro.queries.topk import top_k_dominating

        return [(p.record, count) for p, count in top_k_dominating(self.dataset, k)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Structural summary of the dataset and its domain mappings.

        Covers the quantities the paper's analysis turns on: category
        populations, uncovered-level range, per-attribute poset shape
        (size, height, width, comparability) and SDC+ stratum count.
        """
        from repro.posets.analysis import comparability_ratio, width

        dataset = self.dataset
        attributes = []
        for mapping in dataset.mappings:
            poset = mapping.attribute.poset
            attributes.append(
                {
                    "name": mapping.attribute.name,
                    "domain_size": len(poset),
                    "height": poset.height,
                    "width": width(poset),
                    "comparability_ratio": round(comparability_ratio(poset), 4),
                    "max_uncovered_level": mapping.max_level,
                    "set_valued": mapping.attribute.set_domain is not None,
                }
            )
        return {
            "records": len(dataset),
            "schema": {
                "total": dataset.schema.num_total,
                "partial": dataset.schema.num_partial,
                "transformed_dimensions": dataset.dimensions,
            },
            "strategy": dataset.strategy.value,
            "native_mode": dataset.native_mode,
            "kernel": dataset.kernel_name,
            "categories": {
                str(cat): count for cat, count in dataset.category_counts().items()
            },
            "max_uncovered_level": dataset.max_uncovered_level,
            "strata": dataset.stratification.num_strata,
            "poset_attributes": attributes,
        }

    def explain(self, algorithm: str | SkylineAlgorithm = "sdc+", **options) -> dict:
        """Run one instrumented query and report what it cost.

        Returns the answer size, wall time, counter deltas, first-answer
        latency and the emission-progressiveness score.
        """
        from repro.bench.harness import run_progressive

        run = run_progressive(self.dataset, algorithm, **options)
        first = run.first_answer()
        return {
            "algorithm": run.algorithm,
            "answers": run.skyline_size,
            "total_seconds": round(run.total_elapsed, 6),
            "first_answer_seconds": round(first.elapsed, 6) if first else None,
            "first_answer_checks": first.dominance_checks if first else None,
            "progressiveness": round(run.progressiveness(), 4),
            "counters": run.final_delta,
        }

    # ------------------------------------------------------------------
    # Dynamic updates (paper future work, Section 6)
    # ------------------------------------------------------------------
    def insert(self, record: Record) -> None:
        """Add a record; indexes and strata are maintained incrementally."""
        self.dataset.insert_record(record)

    def delete(self, rid) -> bool:
        """Remove the record with id ``rid``; returns ``False`` if absent."""
        return self.dataset.delete_record(rid)


def skyline(
    records: Iterable[Record],
    schema: Schema,
    algorithm: str | SkylineAlgorithm = "sdc+",
    strategy: SpanningTreeStrategy | str = SpanningTreeStrategy.DEFAULT,
    kernel: str = "python",
    **options,
) -> list[Record]:
    """One-shot skyline query (see :class:`SkylineEngine` for reuse)."""
    engine = SkylineEngine(schema, records, strategy=strategy, kernel=kernel)
    return engine.skyline(algorithm, **options)
