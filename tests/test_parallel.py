"""Sharded process-pool execution: partition, merge and resilience edges.

The cross-product parity suite lives in ``test_parallel_parity.py``;
this file covers the unit-level contracts -- partitioner mode selection,
the Lemma 4.2 representative prefilter, the ``ComparisonStats``
double-count guard, the bulk buffer promotion, and the worker-crash /
deadline / cancellation / budget / no-fork behaviours of the executor.
"""

from __future__ import annotations

import random

import pytest

from repro.core.batch import BatchDominanceKernel, SkylineBuffer
from repro.core.record import Record
from repro.core.schema import NumericAttribute, PosetAttribute, Schema
from repro.core.stats import ComparisonStats
from repro.engine import SkylineEngine
from repro.exceptions import (
    AlgorithmError,
    ParallelError,
    ParallelFallbackWarning,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.parallel import (
    IncrementalMerger,
    ParallelConfig,
    ParallelSkylineExecutor,
    partition_dataset,
    plan_tasks,
)
from repro.parallel.executor import STAGE_KEYS
from repro.posets.builder import diamond
from repro.queries.constrained import Constraint
from repro.resilience import CancellationToken, QueryContext, ResourceBudget
from repro.resilience.chaos import FaultInjector
from repro.serving import QueryRequest, SkylineServer

KERNELS = ("python", "numpy")


def _poset_engine(n: int = 300, seed: int = 31, kernel: str = "python") -> SkylineEngine:
    rng = random.Random(seed)
    poset = diamond()
    schema = Schema(
        [
            NumericAttribute("a", "min"),
            NumericAttribute("b", "min"),
            PosetAttribute.set_valued("p", poset),
        ]
    )
    records = [
        Record(
            i,
            (rng.randint(1, 60), rng.randint(1, 60)),
            (poset.value(rng.randrange(len(poset))),),
        )
        for i in range(n)
    ]
    return SkylineEngine(schema, records, kernel=kernel)


def _numeric_engine(records, kernel: str = "python") -> SkylineEngine:
    schema = Schema([NumericAttribute("a", "min"), NumericAttribute("b", "min")])
    return SkylineEngine(schema, records, kernel=kernel)


def _merge_all(dataset, local_skylines, sink=None):
    """Absorb ``local_skylines`` in shard order through one merger."""
    merger = IncrementalMerger(dataset, sink=sink)
    for g, candidates in enumerate(local_skylines):
        merger.absorb(g, candidates)
    return merger.outcome()


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class TestParallelConfig:
    def test_coerce(self):
        config = ParallelConfig(workers=3)
        assert ParallelConfig.coerce(config) is config
        assert ParallelConfig.coerce(None) is None
        assert ParallelConfig.coerce(4).workers == 4

    def test_coerce_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            ParallelConfig.coerce(True)
        with pytest.raises(TypeError):
            ParallelConfig.coerce("two")

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(mode="hash")
        with pytest.raises(ValueError):
            ParallelConfig(filter="maybe")
        with pytest.raises(ValueError):
            ParallelConfig(tasks_per_worker=0)
        with pytest.raises(ValueError):
            ParallelConfig(min_task_work=0)

    def test_default_workers_resolve_to_cpu_count(self):
        import os

        config = ParallelConfig()
        assert config.workers is None
        assert config.resolved_workers() == max(1, os.cpu_count() or 1)
        assert ParallelConfig(workers=3).resolved_workers() == 3


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------
class TestPartition:
    def test_tiny_dataset_runs_serially(self):
        engine = _poset_engine(n=20)
        partition = partition_dataset(engine.dataset, ParallelConfig(workers=4))
        assert partition.mode == "serial"
        assert partition.shards == ()
        assert partition.reason == "tiny-data"

    def test_shard_floor_routes_serial_with_reason(self):
        # One worker slot and a work estimate too light to amortise a
        # second task: explicit shard-floor routing, not silence.
        engine = _poset_engine(n=300)
        partition = partition_dataset(
            engine.dataset, ParallelConfig(workers=1, min_task_work=1e12)
        )
        assert partition.mode == "serial"
        assert partition.reason == "shard-floor"
        partition = partition_dataset(
            engine.dataset, ParallelConfig(workers=1, tasks_per_worker=1)
        )
        assert partition.mode == "serial"
        assert partition.reason == "shard-floor"

    def test_steal_overpartitions_beyond_worker_count(self):
        engine = _poset_engine(n=300)
        config = ParallelConfig(
            workers=2, min_shard_points=16, min_task_work=1.0, mode="grid"
        )
        plan = plan_tasks(engine.dataset, config)
        assert plan.serial_reason is None
        assert plan.slots == 2
        assert plan.tasks == 2 * config.tasks_per_worker
        assert not plan.calibrated
        partition = partition_dataset(engine.dataset, config)
        assert len(partition.shards) == plan.tasks

    def test_strata_mode_caps_tasks_at_stratum_count(self):
        # Strata are never split, so fine granularity in strata mode is
        # bounded by how many strata exist (here: 3).
        engine = _poset_engine(n=300)
        config = ParallelConfig(workers=2, min_shard_points=16, min_task_work=1.0)
        partition = partition_dataset(engine.dataset, config)
        assert partition.mode == "strata"
        strata = engine.dataset.stratification.strata
        assert 2 <= len(partition.shards) <= len(strata)

    def test_light_work_estimate_caps_task_count(self):
        # A huge min_task_work makes every query "light": the plan drops
        # to one task per slot instead of tasks_per_worker x slots.
        engine = _poset_engine(n=300)
        plan = plan_tasks(
            engine.dataset,
            ParallelConfig(workers=2, min_shard_points=16, min_task_work=1e12),
        )
        assert plan.tasks == 2

    def test_calibrated_estimator_feeds_task_plan(self):
        from repro.serving.admission import CostEstimator

        engine = _poset_engine(n=300)
        estimator = CostEstimator()
        estimator.observe(
            "sdc+", 300, {"m_dominance_point": 3_000_000}, seconds=0.5
        )
        plan = plan_tasks(
            engine.dataset,
            ParallelConfig(workers=2, min_shard_points=16, min_task_work=1.0),
            estimator,
        )
        assert plan.calibrated
        assert plan.estimated_comparisons > 0

    def test_one_task_per_worker_plan(self):
        # tasks_per_worker=1 keeps one task per slot even when the work
        # estimate would justify more (the comparison baseline's plan).
        engine = _poset_engine(n=300)
        config = ParallelConfig(
            workers=4, tasks_per_worker=1, min_task_work=1.0, mode="grid"
        )
        assert plan_tasks(engine.dataset, config).tasks == 4
        assert len(partition_dataset(engine.dataset, config).shards) == 4

    def test_strata_are_never_split(self):
        # Fine-grained steal tasks must respect stratum boundaries --
        # within a stratum there is no dominance direction.
        engine = _poset_engine(n=300)
        config = ParallelConfig(workers=4, min_shard_points=2, min_task_work=1.0)
        partition = partition_dataset(engine.dataset, config)
        assert partition.mode == "strata"
        strata = engine.dataset.stratification.strata
        assert len(partition.shards) <= len(strata)
        position = {}
        for si, stratum in enumerate(strata):
            for p in stratum.points:
                position[id(p)] = si
        seen: set[int] = set()
        for shard in partition.shards:
            shard_strata = {
                position[id(engine.dataset.points[r])] for r in shard.rows
            }
            assert not (shard_strata & seen)
            seen |= shard_strata

    def test_strata_mode_on_poset_data(self):
        engine = _poset_engine(n=300)
        partition = partition_dataset(engine.dataset, ParallelConfig(workers=4))
        assert partition.mode == "strata"
        assert len(partition.shards) >= 2
        # every row exactly once
        rows = [r for s in partition.shards for r in s.rows]
        assert sorted(rows) == list(range(300))
        assert all(s.labels for s in partition.shards)

    def test_single_stratum_falls_back_to_grid(self):
        # All records share one poset value -> one stratum -> grid.
        poset = diamond()
        value = poset.value(0)
        schema = Schema(
            [NumericAttribute("a", "min"), PosetAttribute.set_valued("p", poset)]
        )
        rng = random.Random(5)
        records = [Record(i, (rng.randint(1, 99),), (value,)) for i in range(200)]
        engine = SkylineEngine(schema, records)
        partition = partition_dataset(engine.dataset, ParallelConfig(workers=2))
        assert partition.mode == "grid"

    def test_numeric_only_schema_uses_grid_even_when_strata_forced(self):
        rng = random.Random(9)
        records = [
            Record(i, (rng.randint(1, 99), rng.randint(1, 99))) for i in range(200)
        ]
        engine = _numeric_engine(records)
        partition = partition_dataset(
            engine.dataset, ParallelConfig(workers=2, mode="strata")
        )
        assert partition.mode == "grid"

    def test_grid_chunks_are_key_ranked(self):
        engine = _poset_engine(n=200)
        partition = partition_dataset(
            engine.dataset, ParallelConfig(workers=4, mode="grid")
        )
        assert partition.mode == "grid"
        points = engine.dataset.points
        previous_max = None
        for shard in partition.shards:
            keys = [points[r].key for r in shard.rows]
            if previous_max is not None:
                assert min(keys) >= previous_max
            previous_max = max(keys)


# ---------------------------------------------------------------------------
# Merge + representative prefilter
# ---------------------------------------------------------------------------
class TestMerge:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_local_skylines_are_skipped(self, kernel):
        rng = random.Random(3)
        records = [
            Record(i, (rng.randint(1, 99), rng.randint(1, 99))) for i in range(40)
        ]
        engine = _numeric_engine(records, kernel=kernel)
        points = engine.dataset.points
        outcome = _merge_all(engine.dataset, [[], [points[0]], []])
        assert outcome.points == [points[0]]
        assert outcome.eliminated == ()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_prefilter_eliminates_dominated_shard(self, kernel):
        # One best point plus strictly worse filler: the later shard's
        # entire local skyline is knocked out by shard 0's representative
        # at merge time.  The board is off: with it on, it empties the
        # shard *before* merge (covered by TestFilterBoard).
        rng = random.Random(11)
        records = [Record(0, (0, 0))] + [
            Record(i, (rng.randint(5, 40), rng.randint(5, 40))) for i in range(1, 33)
        ]
        engine = _numeric_engine(records, kernel=kernel)
        config = ParallelConfig(
            workers=2, min_shard_points=8, mode="grid", tasks_per_worker=1,
            filter="off",
        )
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            result = executor.run("bnl")
        assert result.parallel
        assert result.eliminated_shards == (1,)
        assert [p.record.rid for p in result.points] == [0]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_incremental_merger_matches_one_shot(self, kernel):
        from repro.reference import reference_dominates

        engine = _poset_engine(n=200, kernel=kernel)
        partition = partition_dataset(
            engine.dataset, ParallelConfig(workers=4, min_shard_points=8)
        )
        assert len(partition.shards) >= 2
        points = engine.dataset.points
        schema = engine.dataset.schema
        # Stand-in local skylines: every shard's raw rows (mutually
        # dominated rows make the merge do real elimination work).
        locals_ = [
            [points[r] for r in shard.rows] for shard in partition.shards
        ]
        # One-shot oracle of the ordered merge: a shard's candidate
        # survives unless an earlier shard's survivor dominates it.
        expected: list = []
        for candidates in locals_:
            earlier = list(expected)
            expected.extend(
                p for p in candidates
                if not any(
                    reference_dominates(schema, q.record, p.record)
                    for q in earlier
                )
            )
        sink: list = []
        merger = IncrementalMerger(
            engine.dataset.query_view(stats=ComparisonStats()), sink=sink
        )
        batches = [merger.absorb(g, c) for g, c in enumerate(locals_)]
        incremental = merger.outcome()
        assert [p.record.rid for p in incremental.points] == [
            p.record.rid for p in expected
        ]
        assert [p for batch in batches for p in batch] == incremental.points
        assert sink == incremental.points

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_duplicate_of_representative_survives_prefilter(self, kernel):
        # Two copies of the best vector in different shards: corner
        # strictness must keep the later shard alive, and the per-point
        # pass must then keep the duplicate (no strict dominance).
        records = [Record(0, (1, 1)), Record(1, (1, 1))] + [
            Record(i, (50 + i, 50 + i)) for i in range(2, 32)
        ]
        engine = _numeric_engine(records, kernel=kernel)
        points = engine.dataset.points
        outcome = _merge_all(engine.dataset, [[points[0]], [points[1]]])
        assert outcome.eliminated == ()
        assert {p.record.rid for p in outcome.points} == {0, 1}


# ---------------------------------------------------------------------------
# ComparisonStats guard + bulk promotion (satellites)
# ---------------------------------------------------------------------------
class TestStatsGuards:
    def test_merge_rejects_self(self):
        stats = ComparisonStats()
        with pytest.raises(ValueError, match="distinct objects"):
            stats.merge(stats)

    def test_merge_of_distinct_bundles_still_works(self):
        a, b = ComparisonStats(), ComparisonStats()
        b.m_dominance_point = 3
        a.merge(b)
        assert a.m_dominance_point == 3

    def test_add_snapshot(self):
        stats = ComparisonStats()
        stats.add_snapshot({"m_dominance_point": 5, "tuples_scanned": 2})
        stats.add_snapshot({"m_dominance_point": 1, "unknown_field_ignored": 9})
        assert stats.m_dominance_point == 6
        assert stats.tuples_scanned == 2


class TestBufferExtend:
    def test_extend_matches_sequential_appends(self):
        engine = _poset_engine(n=80, kernel="numpy")
        dataset = engine.dataset
        base = getattr(dataset.kernel, "wrapped", dataset.kernel)
        assert isinstance(base, BatchDominanceKernel)
        group = list(dataset.points[:20])
        one = SkylineBuffer(base)
        for p in group:
            one.append(p)
        bulk = SkylineBuffer.from_points(base, group)
        assert len(one) == len(bulk) == len(group)
        assert list(one) == list(bulk)
        # identical contents -> identical scan outcome and identical bill
        probe = dataset.points[25]
        before = base.stats.snapshot()
        outcome_one = one.scan_compare(probe)
        delta_one = base.stats.diff(before)
        before = base.stats.snapshot()
        outcome_bulk = bulk.scan_compare(probe)
        delta_bulk = base.stats.diff(before)
        assert outcome_one == outcome_bulk
        assert delta_one == delta_bulk


# ---------------------------------------------------------------------------
# Executor behaviour
# ---------------------------------------------------------------------------
class TestExecutor:
    def test_empty_dataset(self):
        engine = _numeric_engine([])
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            result = executor.run("bnl")
        assert result.points == []
        assert result.mode == "serial"
        assert not result.parallel

    def test_closed_executor_raises(self):
        engine = _poset_engine(n=50)
        executor = ParallelSkylineExecutor(engine.dataset, ParallelConfig(workers=2))
        executor.close()
        with pytest.raises(ParallelError):
            executor.run("bnl")

    def test_budget_forces_serial_path(self):
        engine = _poset_engine(n=300)
        context = QueryContext(budget=ResourceBudget(max_answers=3))
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            result = executor.run("sdc+", context=context, stats=ComparisonStats())
        assert not result.parallel
        assert result.mode == "serial"
        assert len(result.points) == 3

    def test_deadline_propagates_into_workers(self):
        engine = _poset_engine(n=400)
        context = QueryContext(deadline=1e-4)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            with pytest.raises(QueryTimeoutError) as info:
                executor.run("sdc+", context=context, stats=ComparisonStats())
        assert info.value.partial is not None
        assert not info.value.partial.complete

    def test_cancellation_is_polled(self):
        engine = _poset_engine(n=300)
        cancel = CancellationToken()
        cancel.cancel()
        context = QueryContext(cancel=cancel)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            with pytest.raises(QueryCancelledError):
                executor.run("sdc+", context=context, stats=ComparisonStats())

    def test_sink_receives_merged_answers(self):
        engine = _poset_engine(n=300)
        sink: list = []
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            result = executor.run("sdc+", sink=sink, stats=ComparisonStats())
        assert result.parallel
        assert sink == result.points

    def test_counters_are_exact_sums(self):
        engine = _poset_engine(n=300, kernel="numpy")
        stats = ComparisonStats()
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            result = executor.run("sdc+", stats=stats)
        assert result.parallel
        expected: dict[str, int] = {}
        for snapshot in result.worker_counters + [result.merge_counters]:
            for name, value in snapshot.items():
                expected[name] = expected.get(name, 0) + value
        aggregate = {k: v for k, v in result.counters.items() if v}
        assert aggregate == {k: v for k, v in expected.items() if v}
        assert stats.snapshot() == result.counters

    def test_counters_are_deterministic_run_to_run(self):
        # filter="static" pins the board to the parent's seed reps, so
        # steal-mode counters are bit-reproducible regardless of claim
        # timing (the CI comparison gate depends on this).
        engine = _poset_engine(n=300)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2, filter="static")
        ) as executor:
            first = executor.run("sdc+", stats=ComparisonStats())
            second = executor.run("sdc+", stats=ComparisonStats())
        assert first.counters == second.counters
        assert [p.record.rid for p in first.points] == [
            p.record.rid for p in second.points
        ]

    def test_routed_serial_is_counted_not_silent(self):
        engine = _poset_engine(n=20)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=4)
        ) as executor:
            result = executor.run("sdc+", stats=ComparisonStats())
        assert not result.parallel
        assert result.routed_serial
        assert result.routed_reason == "tiny-data"
        assert not result.fallback

    def test_budget_routing_carries_reason(self):
        engine = _poset_engine(n=300)
        context = QueryContext(budget=ResourceBudget(max_answers=3))
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            result = executor.run("sdc+", context=context, stats=ComparisonStats())
        assert result.routed_serial
        assert result.routed_reason == "budget"

    def test_no_fork_routes_serial(self, monkeypatch):
        import multiprocessing

        engine = _poset_engine(n=300)
        reference = [p.record.rid for p in engine.run_points("sdc+")]
        real_get_context = multiprocessing.get_context

        def get_context(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", get_context)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            result = executor.run("sdc+", stats=ComparisonStats())
        assert not result.parallel
        assert result.routed_serial
        assert result.routed_reason == "no-fork"
        assert not result.fallback
        assert [p.record.rid for p in result.points] == reference

    def test_stage_timings_and_steal_accounting(self):
        engine = _poset_engine(n=300)
        config = ParallelConfig(
            workers=2, min_shard_points=16, min_task_work=1.0, mode="grid"
        )
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            result = executor.run("sdc+", stats=ComparisonStats())
        assert result.parallel
        assert result.tasks == len(result.shard_sizes)
        assert result.tasks > result.workers
        assert result.steals >= 0
        assert set(result.stage_seconds) == set(STAGE_KEYS)
        assert all(v >= 0.0 for v in result.stage_seconds.values())
        assert result.stage_seconds["compute"] > 0.0

    def test_warm_executor_bills_partition_once(self):
        # The partition is computed once and cached: only the query
        # that computed it pays for it.
        engine = _poset_engine(n=300)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            first = executor.run("sdc+", stats=ComparisonStats())
            second = executor.run("sdc+", stats=ComparisonStats())
        assert first.parallel and second.parallel
        assert first.stage_seconds["partition"] > 0.0
        assert second.stage_seconds["partition"] == 0.0
        assert second.stage_seconds["board_seed"] > 0.0

    def test_board_seeds_once_per_partition(self, monkeypatch):
        # The static seed representatives depend only on the partition:
        # a warm executor copies them into each query's control block
        # without rescanning the tasks' rows.
        from repro.parallel import executor as executor_module

        calls = []
        real = executor_module.static_representatives

        def counting(points, rows):
            calls.append(len(rows))
            return real(points, rows)

        monkeypatch.setattr(executor_module, "static_representatives", counting)
        engine = _poset_engine(n=300)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2, filter="static")
        ) as executor:
            first = executor.run("sdc+", stats=ComparisonStats())
            assert len(calls) == first.tasks
            second = executor.run("sdc+", stats=ComparisonStats())
            assert second.parallel
            assert len(calls) == first.tasks
            executor.invalidate()
            assert executor._seeds is None
        assert second.counters == first.counters


# ---------------------------------------------------------------------------
# Route choice: sharded or serial, per algorithm, from measurements
# ---------------------------------------------------------------------------
class TestRouteChoice:
    def _calibrated(self, serial_s: float, sharded_s: float):
        from repro.serving.admission import CostEstimator

        estimator = CostEstimator()
        estimator.observe("bnl", 300, {"m_dominance_point": 1000}, serial_s)
        estimator.observe(
            "bnl|sharded", 300, {"m_dominance_point": 1000}, sharded_s
        )
        return estimator

    def test_routes_serial_when_serial_estimate_is_faster(self):
        engine = _poset_engine(n=300)
        serial_stats = ComparisonStats()
        serial = [p.record.rid for p in engine.run_points("bnl", stats=serial_stats)]
        stats = ComparisonStats()
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2),
            estimator=self._calibrated(serial_s=0.001, sharded_s=1.0),
        ) as executor:
            result = executor.run("bnl", stats=stats)
            assert executor._pool is None
        assert result.routed_serial
        assert result.routed_reason == "cost"
        assert not result.parallel
        assert [p.record.rid for p in result.points] == serial
        assert result.counters == serial_stats.snapshot()
        assert stats.snapshot() == serial_stats.snapshot()

    def test_shards_when_sharded_estimate_is_faster(self):
        engine = _poset_engine(n=300)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2),
            estimator=self._calibrated(serial_s=1.0, sharded_s=0.001),
        ) as executor:
            result = executor.run("bnl", stats=ComparisonStats())
        assert result.parallel
        assert not result.routed_serial

    def test_fresh_estimator_shards_twice_then_calibrates(self):
        # Cold sharded run (not a sample), warm sharded run (the sharded
        # sample), then one serial run to calibrate the serial profile.
        engine = _poset_engine(n=300)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            estimator = executor.estimator
            routes = []
            samples = []
            for _ in range(3):
                result = executor.run("bnl", stats=ComparisonStats())
                routes.append((result.parallel, result.routed_reason))
                samples.append((
                    estimator.profile_samples("bnl|sharded"),
                    estimator.profile_samples("bnl"),
                    # The sharded profile never feeds the task sizing.
                    estimator.peak_comparisons(300, 4)[1],
                ))
        assert routes == [(True, None), (True, None), (False, "calibrating")]
        assert samples == [(0, 0, False), (1, 0, False), (1, 1, True)]

    def test_first_sharded_run_after_invalidate_adds_no_sample(self):
        engine = _poset_engine(n=300)
        estimator = self._calibrated(serial_s=60.0, sharded_s=0.001)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2), estimator=estimator
        ) as executor:
            samples = []
            for invalidate in (False, False, True, False):
                if invalidate:
                    executor.invalidate()
                result = executor.run("bnl", stats=ComparisonStats())
                assert result.parallel
                samples.append(estimator.profile_samples("bnl|sharded"))
        # Samples survive invalidate(); the warm set does not.
        assert samples == [1, 2, 2, 3]


# ---------------------------------------------------------------------------
# Cross-shard filter board
# ---------------------------------------------------------------------------
class TestFilterBoard:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_board_prunes_before_local_compute(self, kernel):
        # One best point plus strictly worse filler: shard 0's static
        # representative empties every later shard *during* compute.
        rng = random.Random(11)
        records = [Record(0, (0, 0))] + [
            Record(i, (rng.randint(5, 40), rng.randint(5, 40))) for i in range(1, 65)
        ]
        engine = _numeric_engine(records, kernel=kernel)
        config = ParallelConfig(
            workers=2, min_shard_points=8, mode="grid",
            filter="static", min_task_work=1.0,
        )
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            result = executor.run("bnl", stats=ComparisonStats())
        assert result.parallel
        assert [p.record.rid for p in result.points] == [0]
        assert result.filter_board_checks > 0
        # Everything except the best point is strictly dominated by it,
        # and every cross-task survivor candidate gets board-pruned.
        assert result.filter_board_hits > 0
        assert result.counters["filter_board_hits"] == result.filter_board_hits

    @pytest.mark.parametrize("filter_mode", ["off", "static", "dynamic"])
    def test_filter_modes_preserve_answers(self, filter_mode):
        engine = _poset_engine(n=300)
        serial = [p.record.rid for p in engine.run_points("sdc+")]
        config = ParallelConfig(
            workers=2, min_shard_points=16, min_task_work=1.0,
            filter=filter_mode,
        )
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            result = executor.run("sdc+", stats=ComparisonStats())
        assert result.parallel
        assert [p.record.rid for p in result.points] == serial
        if filter_mode == "off":
            assert result.filter_board_checks == 0

    def test_prune_chunk_soundness(self):
        import numpy as np

        from repro.parallel.board import prune_chunk
        from repro.parallel.board import CATEGORY_CODES

        rng = random.Random(17)
        records = [
            Record(i, (rng.randint(1, 99), rng.randint(1, 99))) for i in range(200)
        ]
        engine = _numeric_engine(records)
        points = engine.dataset.points
        rep = min(points, key=lambda p: p.key)
        vectors = np.array([p.vector for p in points])
        cats = np.array([CATEGORY_CODES[p.category] for p in points], dtype=np.uint8)
        alive = np.ones(len(points), dtype=bool)
        rep_vecs = np.array([rep.vector])
        rep_cats = np.array([CATEGORY_CODES[rep.category]])
        checks, hits = prune_chunk(vectors, cats, alive, rep_vecs, rep_cats)
        assert checks > 0 and hits == int((~alive).sum())
        # The representative itself (strictness) always survives ...
        assert alive[points.index(rep)]
        # ... and every pruned point is *really* dominated by rep.
        stats_view = engine.dataset.query_view(stats=ComparisonStats())
        for i, p in enumerate(points):
            if not alive[i]:
                assert stats_view.kernel.compare_dominance(p, rep) == 1

    def test_static_representatives_min_key(self):
        from repro.parallel.board import static_representatives
        from repro.parallel.board import CATEGORY_BY_CODE

        engine = _poset_engine(n=100)
        points = engine.dataset.points
        rows = list(range(50))
        reps = static_representatives(points, rows)
        assert 1 <= len(reps) <= 2
        best = min(rows, key=lambda i: (points[i].key, i))
        cat_code, vector = reps[0]
        assert vector == points[best].vector
        assert CATEGORY_BY_CODE[cat_code] == points[best].category

    def test_dynamic_mode_publishes_reps(self):
        engine = _poset_engine(n=300)
        config = ParallelConfig(
            workers=2, min_shard_points=16, min_task_work=1.0, filter="dynamic"
        )
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            result = executor.run("sdc+", stats=ComparisonStats())
        assert result.parallel
        assert result.filter_reps_published >= 0  # timing-dependent count
        assert result.counters["filter_board_checks"] > 0


# ---------------------------------------------------------------------------
# Worker-resident shard bases (driven in-process)
# ---------------------------------------------------------------------------
class TestShardCache:
    @pytest.fixture
    def worker(self, monkeypatch):
        """The worker module, its per-process state restored afterwards."""
        from repro.parallel import worker

        for name in ("_DATASET", "_VECTORS", "_CATS", "_ORDER", "_CLAIM_LOCK"):
            monkeypatch.setattr(worker, name, getattr(worker, name))
        monkeypatch.setattr(worker, "_SHARDS", {})
        return worker

    @pytest.fixture
    def builds(self, monkeypatch):
        """Counts every R-tree build."""
        from repro.transform.dataset import TransformedDataset

        calls = []
        real = TransformedDataset.build_tree

        def counting(self, points):
            calls.append(len(points))
            return real(self, points)

        monkeypatch.setattr(TransformedDataset, "build_tree", counting)
        return calls

    def _setup(self, worker, engine):
        import threading

        from repro.parallel.executor import _worker_arrays

        dataset = engine.dataset
        partition = partition_dataset(
            dataset,
            ParallelConfig(
                workers=2, min_shard_points=8, mode="grid", min_task_work=1.0
            ),
        )
        worker.init_worker(
            dataset, *_worker_arrays(dataset, partition), threading.Lock()
        )
        return partition

    def _engine(self):
        # One best point plus strictly worse filler: task 0's own seed
        # representative prunes the rest of task 0 under the board.
        rng = random.Random(11)
        records = [Record(0, (0, 0))] + [
            Record(i, (rng.randint(5, 40), rng.randint(5, 40)))
            for i in range(1, 65)
        ]
        return _numeric_engine(records)

    def test_repeated_task_reuses_shard_base(self, worker, builds):
        from repro.parallel.board import TASK_OK, ControlBlock

        engine = self._engine()
        partition = self._setup(worker, engine)
        block = ControlBlock.create(
            partition.shards, 1, engine.dataset.dimensions,
            filter_mode="off", deadline_epoch=None,
        )
        try:
            worker._run_steal_task(block, 0, "bbs+", {})
            assert int(block.status[0]) == TASK_OK
            shard = worker._SHARDS[0][1]
            assert len(shard.points) == len(partition.shards[0].rows)
            assert builds == [len(shard.points)]
            first = block.task_counters(0)
            worker._run_steal_task(block, 0, "bbs+", {})
            assert worker._SHARDS[0][1] is shard
            assert builds == [len(shard.points)]  # no tree rebuilt
            assert block.task_counters(0) == first
        finally:
            block.close()

    def test_new_survivors_rebuild_shard_base(self, worker, builds):
        from repro.parallel.board import ControlBlock, static_representatives

        engine = self._engine()
        points = engine.dataset.points
        partition = self._setup(worker, engine)
        dims = engine.dataset.dimensions
        off = ControlBlock.create(
            partition.shards, 1, dims, filter_mode="off", deadline_epoch=None
        )
        board = ControlBlock.create(
            partition.shards, 1, dims, filter_mode="static",
            deadline_epoch=None,
        )
        try:
            for shard in partition.shards:
                board.seed_static_reps(
                    shard.index, static_representatives(points, shard.rows)
                )
            worker._run_steal_task(off, 0, "bbs+", {})
            unpruned = worker._SHARDS[0][1]
            worker._run_steal_task(board, 0, "bbs+", {})
            assert board.task_counters(0)["filter_board_hits"] > 0
            pruned = worker._SHARDS[0][1]
            assert pruned is not unpruned
            assert len(pruned.points) < len(unpruned.points)
            assert builds == [len(unpruned.points), len(pruned.points)]
        finally:
            off.close()
            board.close()

    def test_shard_view_has_no_kernel_fault_injector(self, worker):
        from repro.parallel.board import TASK_OK, ControlBlock
        from repro.resilience.chaos import ChaoticKernel, inject_kernel_faults

        engine = self._engine()
        injector = inject_kernel_faults(
            engine.dataset, FaultInjector(seed=1, rate=1.0, max_faults=10**9)
        )
        partition = self._setup(worker, engine)
        block = ControlBlock.create(
            partition.shards, 1, engine.dataset.dimensions,
            filter_mode="off", deadline_epoch=None,
        )
        try:
            worker._run_steal_task(block, 0, "bbs+", {})
            assert int(block.status[0]) == TASK_OK
        finally:
            block.close()
        shard = worker._SHARDS[0][1]
        assert shard._kernel_injector is None
        assert not isinstance(shard.query_view().kernel, ChaoticKernel)
        assert injector.calls == 0


# ---------------------------------------------------------------------------
# Worker-crash chaos
# ---------------------------------------------------------------------------
class TestWorkerCrash:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_crash_degrades_to_serial_with_typed_warning(self, kernel):
        engine = _poset_engine(n=300, kernel=kernel)
        reference = [p.record.rid for p in engine.run_points("sdc+")]
        chaos = FaultInjector(seed=7, rate=1.0, max_faults=1)
        config = ParallelConfig(workers=2, chaos=chaos)
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            with pytest.warns(ParallelFallbackWarning):
                result = executor.run("sdc+", stats=ComparisonStats())
        assert result.fallback
        assert result.fallback_reason
        assert not result.parallel
        assert [p.record.rid for p in result.points] == reference

    def test_rebuilt_pool_gets_a_fresh_claim_lock(self):
        # A broken pool terminates its surviving workers, possibly one
        # holding the claim lock; that lock must not outlive its pool.
        engine = _poset_engine(n=300)
        with ParallelSkylineExecutor(
            engine.dataset, ParallelConfig(workers=2)
        ) as executor:
            executor.run("sdc+", stats=ComparisonStats())
            executor._claim_lock.acquire()  # left held by a killed worker
            executor.invalidate()
            result = executor.run(
                "sdc+",
                stats=ComparisonStats(),
                context=QueryContext(deadline=30.0),
            )
        assert result.parallel

    def test_executor_recovers_after_fallback(self):
        engine = _poset_engine(n=300)
        chaos = FaultInjector(seed=7, rate=1.0, max_faults=1)
        config = ParallelConfig(workers=2, chaos=chaos)
        with ParallelSkylineExecutor(engine.dataset, config) as executor:
            with pytest.warns(ParallelFallbackWarning):
                executor.run("sdc+", stats=ComparisonStats())
            # injector exhausted -> pool rebuilds and shards again
            result = executor.run("sdc+", stats=ComparisonStats())
        assert result.parallel
        assert not result.fallback


# ---------------------------------------------------------------------------
# Engine + server integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_parallel_matches_serial(self, kernel):
        engine = _poset_engine(n=300, kernel=kernel)
        serial = {r.rid for r in engine.run("sdc+")}
        sharded = {r.rid for r in engine.run("sdc+", parallel=2)}
        assert sharded == serial

    def test_reusable_executor(self):
        engine = _poset_engine(n=300)
        with engine.parallel_executor(ParallelConfig(workers=2)) as executor:
            a = executor.run("bnl", stats=ComparisonStats())
            b = executor.run("sdc+", stats=ComparisonStats())
        assert {p.record.rid for p in a.points} == {p.record.rid for p in b.points}


class TestServerIntegration:
    def test_server_routes_large_queries_to_parallel(self):
        engine = _poset_engine(n=300)
        reference = {r.rid for r in engine.run("sdc+")}
        server = SkylineServer(
            engine.dataset,
            workers=2,
            parallel=ParallelConfig(workers=2),
            parallel_threshold=100,
        )
        try:
            result = server.submit(QueryRequest(algorithm="sdc+")).result(timeout=60)
            assert {r.rid for r in result.points} == reference
            snap = server.metrics.snapshot()
            assert snap["parallel"]["queries"] == 1
            assert snap["parallel"]["fallbacks"] == 0
        finally:
            server.close()

    def test_server_threshold_keeps_small_queries_serial(self):
        engine = _poset_engine(n=300)
        server = SkylineServer(
            engine.dataset,
            workers=1,
            parallel=ParallelConfig(workers=2),
            parallel_threshold=10_000,
        )
        try:
            server.submit(QueryRequest(algorithm="bnl")).result(timeout=60)
            assert server.metrics.snapshot()["parallel"]["queries"] == 0
        finally:
            server.close()

    def test_server_insert_invalidates_shards(self):
        engine = _poset_engine(n=300)
        server = SkylineServer(
            engine.dataset,
            workers=1,
            parallel=ParallelConfig(workers=2),
            parallel_threshold=100,
        )
        try:
            server.submit(QueryRequest(algorithm="bnl")).result(timeout=60)
            server.insert(Record("fresh", (0, 0), (diamond().value(0),)))
            result = server.submit(QueryRequest(algorithm="bnl")).result(timeout=60)
            assert "fresh" in {r.rid for r in result.points}
            assert server.metrics.snapshot()["parallel"]["queries"] == 2
        finally:
            server.close()

    def test_server_counts_parallel_fallbacks(self):
        engine = _poset_engine(n=300)
        chaos = FaultInjector(seed=2025, rate=1.0, max_faults=1)
        server = SkylineServer(
            engine.dataset,
            workers=1,
            parallel=ParallelConfig(workers=2, chaos=chaos),
            parallel_threshold=100,
        )
        try:
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore", ParallelFallbackWarning)
                result = server.submit(QueryRequest(algorithm="sdc+")).result(
                    timeout=60
                )
            reference = {r.rid for r in engine.run("sdc+")}
            assert {r.rid for r in result.points} == reference
            snap = server.metrics.snapshot()
            assert snap["parallel"]["queries"] == 1
            assert snap["parallel"]["fallbacks"] == 1
            assert snap["recovery"]["parallel_fallbacks"] == 1
        finally:
            server.close()

    def test_server_surfaces_steal_and_board_metrics(self):
        engine = _poset_engine(n=300)
        server = SkylineServer(
            engine.dataset,
            workers=1,
            parallel=ParallelConfig(
                workers=2, min_shard_points=16, min_task_work=1.0, mode="grid"
            ),
            parallel_threshold=100,
        )
        try:
            server.submit(QueryRequest(algorithm="sdc+")).result(timeout=60)
            snap = server.metrics.snapshot()["parallel"]
            assert snap["queries"] == 1
            assert snap["routed_serial"] == 0
            assert snap["tasks"] > 2
            assert snap["steals"] >= 0
            assert snap["filter_board_checks"] > 0
            assert set(snap["stage_seconds"]) == set(STAGE_KEYS)
        finally:
            server.close()

    def test_sharded_bills_do_not_calibrate_admission(self):
        # Budgeted queries always run serial, so admission must price
        # them from serial bills -- never from a cheaper sharded one.
        from repro.exceptions import AdmissionRejectedError

        engine = _poset_engine(n=300)
        server = SkylineServer(
            engine.dataset,
            workers=1,
            parallel=ParallelConfig(workers=2),
            parallel_threshold=100,
        )
        try:
            for _ in range(2):  # cold, then warm sharded
                server.submit(QueryRequest(algorithm="bnl")).result(timeout=60)
            estimator = server.admission.estimator
            assert estimator.profile_samples("bnl") == 0
            assert estimator.profile_samples("bnl|sharded") == 1
            spent = server.stats.total_dominance_checks
            with pytest.raises(AdmissionRejectedError) as info:
                server.submit(algorithm="bnl", max_comparisons=1000)
            assert info.value.reason == "comparisons"
            assert server.stats.total_dominance_checks == spent
            assert server.metrics.snapshot()["parallel"]["queries"] == 2
        finally:
            server.close()

    def test_server_counts_routed_serial(self):
        # Below the executor's own shard floor but above the server's
        # parallel_threshold: the executor routes serial and the server
        # counts it explicitly.
        engine = _poset_engine(n=300)
        server = SkylineServer(
            engine.dataset,
            workers=1,
            parallel=ParallelConfig(workers=2, min_shard_points=200),
            parallel_threshold=100,
        )
        try:
            server.submit(QueryRequest(algorithm="sdc+")).result(timeout=60)
            snap = server.metrics.snapshot()["parallel"]
            assert snap["queries"] == 1
            assert snap["routed_serial"] == 1
            assert snap["fallbacks"] == 0
        finally:
            server.close()


class TestCallerErrors:
    """A request no evaluator can run fails where it is submitted: zero
    comparisons, no pool, no fallback, no breaker verdict."""

    def _server(self):
        return SkylineServer(
            _poset_engine(n=300).dataset,
            workers=2,
            parallel=ParallelConfig(workers=2),
            parallel_threshold=100,
        )

    def test_unknown_algorithm_raises_from_submit_after_zero_comparisons(self):
        server = self._server()
        try:
            with pytest.raises(AlgorithmError):
                server.submit(QueryRequest(algorithm="bogus"))
            snap = server.metrics.snapshot()
            assert snap["admission"]["rejected"] == {"invalid-request": 1}
            assert snap["admission"]["admitted"] == 0
            assert server.stats.total_dominance_checks == 0
            assert server._parallel._pool is None
        finally:
            server.close()

    def test_bogus_requests_leave_the_parallel_breaker_closed(self):
        import warnings as _warnings

        server = self._server()
        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", ParallelFallbackWarning)
                for _ in range(3):
                    with pytest.raises(AlgorithmError):
                        server.submit(QueryRequest(algorithm="bogus"))
            assert server._parallel_breaker.state == "closed"
            assert server.metrics.snapshot()["parallel"]["queries"] == 0
        finally:
            server.close()

    @pytest.mark.parametrize(
        "request_fields",
        [
            {"algorithm": "bnl", "options": {"bogus_option": 1}},
            {"algorithm": "bogus", "subspace": ("a", "b")},
            {"skyband_k": 2, "options": {"method": "no-such-method"}},
            {"skyband_k": 2, "options": {"window_size": 7}},
            {
                "constraint": Constraint(ranges={"a": (None, 20)}),
                "options": {"method": "nested-loops"},
            },
        ],
    )
    def test_invalid_shapes_and_options_raise_from_submit(self, request_fields):
        server = self._server()
        try:
            with pytest.raises(AlgorithmError):
                server.submit(QueryRequest(**request_fields))
            assert server.stats.total_dominance_checks == 0
        finally:
            server.close()

    def test_accepted_methods_still_run(self):
        server = self._server()
        try:
            for method in ("bbs", "nested-loops", "nl"):
                result = server.submit(
                    QueryRequest(skyband_k=1, options={"method": method})
                ).result(timeout=60)
                assert result.complete
        finally:
            server.close()

    def test_executor_rejects_unknown_option_before_routing(self):
        engine = _poset_engine(n=300)
        with engine.parallel_executor(ParallelConfig(workers=2)) as executor:
            with pytest.raises(AlgorithmError):
                executor.run("bnl", stats=ComparisonStats(), bogus_option=1)
            assert executor._pool is None

    def test_get_algorithm_rejects_unknown_option(self):
        from repro.algorithms.base import get_algorithm

        with pytest.raises(AlgorithmError):
            get_algorithm("bnl", bogus_option=1)
        assert get_algorithm("bnl", window_size=7).window_size == 7
