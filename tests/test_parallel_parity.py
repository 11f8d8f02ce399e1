"""Sharded-vs-serial parity: every algorithm, kernel, seed, worker count.

CI's ``parallel-smoke`` job runs this file once per seed (it sets
``REPRO_PARALLEL_SEED``); locally every test sweeps all three seeds.

Contract asserted here:

* the merged answer *set* is identical to the serial engine's for all
  eight algorithms, both dominance backends, 2/4/8 workers and both
  task plans in :data:`PLANS`;
* under strata partitioning, ``sdc+`` additionally reproduces the exact
  serial emission *order* (shard order x local order = stratum order);
* the aggregate :class:`~repro.core.stats.ComparisonStats` bill equals
  the exact sum of the worker/task snapshots plus the merge-phase
  bundle, and is deterministic run-to-run with the board off or
  ``"static"`` (parent-seeded representatives only);
* a seeded chaos fault killing one worker mid-steal degrades to the
  serial engine with a *bit-identical* answer sequence.
"""

from __future__ import annotations

import functools
import os
import random

import pytest

from repro.core.record import Record
from repro.core.schema import NumericAttribute, PosetAttribute, Schema
from repro.core.stats import ComparisonStats
from repro.engine import SkylineEngine
from repro.parallel import ParallelConfig, ParallelSkylineExecutor
from repro.posets.builder import diamond

_FIXED_SEEDS = (7, 101, 2025)
_ENV_SEED = os.environ.get("REPRO_PARALLEL_SEED")
SEEDS = (int(_ENV_SEED),) if _ENV_SEED else _FIXED_SEEDS

ALL_ALGORITHMS = ("bnl", "bnl+", "sfs", "bbs+", "sdc", "sdc+", "nn+", "dnc")
KERNELS = ("python", "numpy")
WORKER_COUNTS = (2, 4, 8)
_N = 240

#: Task plans under test, keyed by test id.  ``"static"``: one task per
#: worker slot with the filter board off -- the plain partition/merge
#: the comparison benchmark's baseline runs.  ``"steal"``: the default
#: over-partitioned plan with the dynamic board.
PLANS = {
    "static": {"tasks_per_worker": 1, "filter": "off"},
    "steal": {},
}


@functools.lru_cache(maxsize=None)
def _engine(kernel: str, seed: int) -> SkylineEngine:
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
        for i in range(_N)
    ]
    return SkylineEngine(schema, records, kernel=kernel)


@functools.lru_cache(maxsize=None)
def _serial_reference(kernel: str, seed: int, algorithm: str) -> tuple:
    engine = _engine(kernel, seed)
    return tuple(p.record.rid for p in engine.run_points(algorithm))


def _summed(worker_counters, merge_counters) -> dict[str, int]:
    out: dict[str, int] = {}
    for snapshot in list(worker_counters) + [merge_counters]:
        for name, value in snapshot.items():
            out[name] = out.get(name, 0) + value
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("plan", tuple(PLANS))
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parity_all_algorithms(kernel, seed, workers, plan):
    engine = _engine(kernel, seed)
    config = ParallelConfig(workers=workers, **PLANS[plan])
    with ParallelSkylineExecutor(engine.dataset, config) as executor:
        assert executor.partition.mode == "strata"
        for algorithm in ALL_ALGORITHMS:
            reference = _serial_reference(kernel, seed, algorithm)
            stats = ComparisonStats()
            result = executor.run(algorithm, stats=stats)
            assert result.parallel, (algorithm, workers, plan)
            rids = [p.record.rid for p in result.points]
            assert set(rids) == set(reference), (
                algorithm, kernel, seed, workers, plan,
            )
            assert len(rids) == len(reference)
            # exact aggregate = sum of worker/task snapshots + merge bundle
            aggregate = {k: v for k, v in result.counters.items() if v}
            assert aggregate == _summed(
                result.worker_counters, result.merge_counters
            ), (algorithm, kernel, seed, workers, plan)
            assert stats.snapshot() == result.counters


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_strata_mode_preserves_sdc_plus_order(kernel, seed):
    engine = _engine(kernel, seed)
    reference = list(_serial_reference(kernel, seed, "sdc+"))
    with ParallelSkylineExecutor(
        engine.dataset, ParallelConfig(workers=4, mode="strata")
    ) as executor:
        assert executor.partition.mode == "strata"
        result = executor.run("sdc+", stats=ComparisonStats())
    assert [p.record.rid for p in result.points] == reference


@pytest.mark.parametrize("seed", SEEDS)
def test_grid_mode_parity(seed):
    engine = _engine("numpy", seed)
    with ParallelSkylineExecutor(
        engine.dataset, ParallelConfig(workers=4, mode="grid")
    ) as executor:
        assert executor.partition.mode == "grid"
        for algorithm in ("bnl", "sfs", "sdc+"):
            reference = _serial_reference("numpy", seed, algorithm)
            result = executor.run(algorithm, stats=ComparisonStats())
            assert {p.record.rid for p in result.points} == set(reference)


@pytest.mark.parametrize("plan", tuple(PLANS))
@pytest.mark.parametrize("seed", SEEDS)
def test_counters_deterministic_across_runs(seed, plan):
    # ``filter="static"`` pins the board to parent-seeded representatives
    # (and "off" has none), so counters cannot depend on claim timing.
    engine = _engine("python", seed)
    config = ParallelConfig(workers=4, **({"filter": "static"} | PLANS[plan]))
    with ParallelSkylineExecutor(engine.dataset, config) as executor:
        first = executor.run("sdc+", stats=ComparisonStats())
        second = executor.run("sdc+", stats=ComparisonStats())
    assert first.counters == second.counters
    assert first.worker_counters == second.worker_counters
    assert [p.record.rid for p in first.points] == [
        p.record.rid for p in second.points
    ]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_kill_mid_steal_falls_back_bit_identical(kernel, seed):
    # A seeded fault kills one drain worker while it holds a claimed
    # task (os._exit inside the steal loop).  The executor must degrade
    # to the serial engine and reproduce the serial answer *sequence*
    # exactly -- not merely the same set.
    from repro.parallel.executor import ParallelFallbackWarning
    from repro.resilience.chaos import FaultInjector

    engine = _engine(kernel, seed)
    reference = list(_serial_reference(kernel, seed, "sdc+"))
    chaos = FaultInjector(seed=seed, rate=1.0, max_faults=1)
    config = ParallelConfig(
        workers=2,
        tasks_per_worker=4,
        min_task_work=1.0,
        min_shard_points=16,
        chaos=chaos,
    )
    with ParallelSkylineExecutor(engine.dataset, config) as executor:
        with pytest.warns(ParallelFallbackWarning):
            result = executor.run("sdc+", stats=ComparisonStats())
    assert result.fallback
    assert not result.parallel
    assert [p.record.rid for p in result.points] == reference
    # serial fallback bills exactly what a serial run bills
    serial_stats = ComparisonStats()
    list(engine.run_points("sdc+", stats=serial_stats))
    assert result.counters == serial_stats.snapshot()
