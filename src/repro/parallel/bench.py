"""Scaling + comparison-reduction benchmark for the parallel backend.

Drives the fig12a lineup (BNL, BNL+, BBS+, SDC, SDC+) through
:class:`~repro.parallel.executor.ParallelSkylineExecutor` and writes
``benchmarks/results/parallel_scaling.json`` with two independent gates:

* **Speedup curve** (hardware-dependent): wall-clock at 1/2/4/8 workers
  under the default config, parity-checked against the serial
  engine on every run.  The report records ``cpu_count`` alongside every
  timing: speedup from process-level sharding is bounded by the physical
  cores available, and a curve measured on a 1-core container honestly
  shows slowdown (fork, pool start and shard index builds with zero
  hardware parallelism).  Each executor runs each algorithm once, so
  every entry is that algorithm's first sharded run on a fresh pool:
  the executor's route choice never fires, and the timings include the
  pool start and the shard builds.  The assertion only *evaluates* on
  machines with at least :data:`SPEEDUP_REQUIRED_CORES` cores.

* **Comparison reduction** (hardware-independent): aggregate dominance
  comparisons of the default over-partitioned plan with cross-shard
  filter propagation vs. the :data:`BASELINE_PLAN` (one task per slot,
  board off -- a plain partition/merge), at a pinned worker-slot count.
  Counters are exact sums, and the gated run uses ``filter="static"``
  (parent-seeded board representatives only) so the numbers are
  bit-reproducible regardless of claim timing or core count -- this is
  the CI gate a 1-core container can still enforce.  The steal bill
  honestly *includes* every ``filter_board_checks`` test the board
  performed.  Two more runs are recorded alongside: the default plan
  with the board off, whose bill against the gated run is the board's
  own ``board_reduction`` (granularity and representative filtering are
  separate optimizations), and a ``filter="dynamic"`` run for reference
  (answers exact; counter magnitudes timing-dependent).
"""

from __future__ import annotations

import os
import time

from repro.bench.artifacts import write_artifact
from repro.engine import SkylineEngine
from repro.parallel.config import ParallelConfig
from repro.parallel.executor import ParallelSkylineExecutor
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import generate_workload

__all__ = [
    "FIG12A_LINEUP",
    "run_parallel_bench",
    "speedup_assertion",
    "comparison_assertion",
]

#: The paper's Fig. 12(a) algorithm lineup (large-dataset experiment).
FIG12A_LINEUP = ("bnl", "bnl+", "bbs+", "sdc", "sdc+")

#: Physical cores below which a speedup assertion is meaningless: with
#: fewer, sharding honestly measures pure fork/attach overhead.
SPEEDUP_REQUIRED_CORES = 4

#: Worker-slot count the comparison-reduction section is pinned to --
#: counters depend on the partition (slots x tasks_per_worker tasks),
#: never on how many physical cores executed them, so one fixed setting
#: is comparable across every host.
COMPARISON_WORKERS = 4

#: Minimum relative comparison reduction the CI gate requires.
COMPARISON_REDUCTION_REQUIRED = 0.15

#: The comparison gate's baseline: one task per worker slot and no
#: filter board, i.e. a plain ordered partition/merge.
BASELINE_PLAN = {"tasks_per_worker": 1, "filter": "off"}


def speedup_assertion(curve: dict, cpu_count: int | None) -> dict:
    """Evaluate the CI speedup gate over a measured worker curve.

    The assertion -- best multi-worker aggregate speedup must exceed
    1.0x serial -- is only *evaluated* when the machine has at least
    :data:`SPEEDUP_REQUIRED_CORES` cores and the curve includes a
    multi-worker point; on smaller machines it reports
    ``evaluated: false`` (skipped) so a 1-core container's honest
    slowdown curve never fails CI, and never gets committed as if it
    were a scaling result.
    """
    multi = {
        int(count): entry["aggregate_speedup"]
        for count, entry in curve.items()
        if int(count) > 1
    }
    evaluated = (cpu_count or 0) >= SPEEDUP_REQUIRED_CORES and bool(multi)
    best_workers, best = (
        max(multi, key=multi.get),
        max(multi.values()),
    ) if multi else (None, 0.0)
    return {
        "required_cores": SPEEDUP_REQUIRED_CORES,
        "cpu_count": cpu_count,
        "evaluated": evaluated,
        "best_workers": best_workers,
        "best_aggregate_speedup": best,
        "passed": bool(best > 1.0) if evaluated else None,
    }


def comparison_assertion(
    comparison: dict, threshold: float = COMPARISON_REDUCTION_REQUIRED
) -> dict:
    """Evaluate the hardware-independent comparison-reduction gate.

    Passes when the default plan with (deterministic) filter propagation
    spent at least ``threshold`` fewer aggregate dominance comparisons --
    filter-board checks included -- than the :data:`BASELINE_PLAN` over
    the whole lineup.
    """
    return {
        "required_reduction": threshold,
        "reduction": comparison["reduction"],
        "baseline_comparisons": comparison["baseline_comparisons"],
        "steal_comparisons": comparison["steal_comparisons"],
        "evaluated": True,
        "passed": bool(comparison["reduction"] >= threshold),
    }


def _billed_comparisons(counters: dict) -> int:
    """Dominance work plus the filter board's own tests (honest bill)."""
    return (
        counters.get("m_dominance_point", 0)
        + counters.get("native_set", 0)
        + counters.get("native_closure", 0)
        + counters.get("native_numeric", 0)
        + counters.get("filter_board_checks", 0)
    )


def _run_entry(executor: ParallelSkylineExecutor, name: str, serial_rids) -> dict:
    begin = time.perf_counter()
    result = executor.run(name)
    seconds = time.perf_counter() - begin
    return {
        "seconds": seconds,
        "answers": len(result.points),
        "mode": result.mode,
        "sharded": result.parallel,
        "tasks": result.tasks,
        "steals": result.steals,
        "shards": list(result.shard_sizes),
        "eliminated_shards": list(result.eliminated_shards),
        "fallback": result.fallback,
        "routed_serial": result.routed_serial,
        "filter_board_checks": result.filter_board_checks,
        "filter_board_hits": result.filter_board_hits,
        "filter_reps_published": result.filter_reps_published,
        "stage_seconds": {k: round(v, 6) for k, v in result.stage_seconds.items()},
        "comparisons": _billed_comparisons(result.counters),
        "parity": {p.record.rid for p in result.points} == set(serial_rids),
    }


def _reduction(cost: int, base: int) -> float:
    return 1.0 - cost / base if base else 0.0


def _comparison_section(dataset, algorithms, mode: str, serial: dict) -> dict:
    """Baseline-plan vs. default-plan counter bill, per algorithm."""
    variants = {
        "baseline": ParallelConfig(
            workers=COMPARISON_WORKERS, mode=mode, **BASELINE_PLAN
        ),
        "steal": ParallelConfig(
            workers=COMPARISON_WORKERS, mode=mode, filter="static"
        ),
        "steal_off": ParallelConfig(
            workers=COMPARISON_WORKERS, mode=mode, filter="off"
        ),
        "steal_dynamic": ParallelConfig(
            workers=COMPARISON_WORKERS, mode=mode, filter="dynamic"
        ),
    }
    per_algorithm: dict[str, dict] = {}
    totals = dict.fromkeys(variants, 0)
    parity_ok = True
    for label, config in variants.items():
        with ParallelSkylineExecutor(dataset, config) as executor:
            for name in algorithms:
                entry = _run_entry(executor, name, serial[name]["rids"])
                parity_ok = parity_ok and entry["parity"]
                per_algorithm.setdefault(name, {})[label] = entry
                totals[label] += entry["comparisons"]
    for entry in per_algorithm.values():
        steal_cost = entry["steal"]["comparisons"]
        entry["reduction"] = _reduction(
            steal_cost, entry["baseline"]["comparisons"]
        )
        entry["board_reduction"] = _reduction(
            steal_cost, entry["steal_off"]["comparisons"]
        )
    return {
        "workers": COMPARISON_WORKERS,
        "filter": "static",
        "baseline_config": {"workers": COMPARISON_WORKERS, "mode": mode}
        | BASELINE_PLAN,
        "per_algorithm": per_algorithm,
        "baseline_comparisons": totals["baseline"],
        "steal_comparisons": totals["steal"],
        "steal_off_comparisons": totals["steal_off"],
        "steal_dynamic_comparisons": totals["steal_dynamic"],
        "reduction": _reduction(totals["steal"], totals["baseline"]),
        "board_reduction": _reduction(totals["steal"], totals["steal_off"]),
        "parity_ok": parity_ok,
    }


def run_parallel_bench(
    size: int = 20_000,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    algorithms: tuple[str, ...] | None = None,
    kernel: str = "numpy",
    seed: int = 7,
    mode: str = "auto",
    filter: str = "dynamic",
    output: str | None = None,
) -> dict:
    """Measure the scaling curve + comparison bill; return the report.

    Every sharded run is parity-checked against the serial answer (rid
    sequence for the deterministic serial baseline vs. merged rid set);
    a mismatch marks ``parity: false`` in the report and flips the
    top-level ``parity_ok`` flag, which the CLI turns into a non-zero
    exit code.
    """
    algorithms = tuple(algorithms) if algorithms else FIG12A_LINEUP
    workload = generate_workload(WorkloadConfig.default(data_size=size, seed=seed))
    engine = SkylineEngine(workload.schema, workload.records, kernel=kernel)
    dataset = engine.dataset

    serial: dict[str, dict] = {}
    for name in algorithms:
        begin = time.perf_counter()
        points = list(engine.run_points(name))
        serial[name] = {
            "seconds": time.perf_counter() - begin,
            "answers": len(points),
            "rids": [p.record.rid for p in points],
        }

    curve: dict[str, dict] = {}
    parity_ok = True
    for count in workers:
        per_algorithm: dict[str, dict] = {}
        config = ParallelConfig(workers=count, mode=mode, filter=filter)
        with ParallelSkylineExecutor(dataset, config) as executor:
            for name in algorithms:
                entry = _run_entry(executor, name, serial[name]["rids"])
                entry["speedup"] = (
                    serial[name]["seconds"] / entry["seconds"]
                    if entry["seconds"]
                    else 0.0
                )
                parity_ok = parity_ok and entry["parity"]
                per_algorithm[name] = entry
        serial_total = sum(serial[name]["seconds"] for name in algorithms)
        sharded_total = sum(entry["seconds"] for entry in per_algorithm.values())
        curve[str(count)] = {
            "algorithms": per_algorithm,
            "total_seconds": sharded_total,
            "aggregate_speedup": serial_total / sharded_total if sharded_total else 0.0,
        }

    comparison = _comparison_section(dataset, algorithms, mode, serial)
    parity_ok = parity_ok and comparison["parity_ok"]

    report = {
        "benchmark": "parallel_scaling",
        "experiment": "fig12a-lineup",
        "records": size,
        "kernel": kernel,
        "seed": seed,
        "mode": mode,
        "filter": filter,
        "cpu_count": os.cpu_count(),
        "parity_ok": parity_ok,
        "speedup_assertion": speedup_assertion(curve, os.cpu_count()),
        "comparison": comparison,
        "comparison_assertion": comparison_assertion(comparison),
        "serial": {
            name: {k: v for k, v in entry.items() if k != "rids"}
            for name, entry in serial.items()
        },
        "workers": curve,
    }
    if output:
        write_artifact(output, report)
    return report
