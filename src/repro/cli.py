"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``algorithms``
    List the registered skyline algorithms.
``demo``
    Run the hotel/amenity quickstart on built-in data.
``generate``
    Generate a Table-1-style synthetic workload and save it as JSON.
``query``
    Answer a skyline query over a saved workload.
``experiment``
    Run one of the paper's experiments and print its figure tables.
``bench-kernels``
    Side-by-side ``explain()`` of the python vs numpy dominance
    backends on a generated workload.
``serve-bench``
    Seeded multi-client workload replay against the concurrent
    :class:`~repro.serving.server.SkylineServer` (throughput, p50/p99,
    JSON artifact; see docs/serving.md).
``serve``
    Run the asyncio network front-end: remote clients connect over TCP
    and receive skyline answers progressively, stratum by stratum
    (see docs/network.md).
``net-bench``
    Seeded multi-connection open-loop benchmark of the network
    front-end: throughput, p50/p99, time-to-first-point vs.
    time-to-done, optional disconnect-storm chaos (JSON artifact;
    see docs/network.md).
``replay``
    Trace-driven capacity-envelope sweep: seeded Poisson / bursty /
    diurnal arrival traces replayed at a ladder of rate multipliers
    (optionally under chaos fault injection), reporting p50/p99,
    shed/reject counts and degradation behaviour per cell
    (see docs/overload.md).
``bench-parallel``
    Worker-count speedup curve of the sharded process-pool backend
    (parity-checked against the serial engine; see docs/parallel.md).
``bench-views``
    Hit-rate vs. speedup curves of the materialized-view result cache
    under repeated-query workloads (parity-checked against uncached
    recomputes; see docs/views.md).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.algorithms.base import available_algorithms
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.reporting import format_run_table, format_summary
from repro.engine import SkylineEngine
from repro.io import load_workload, save_workload
from repro.posets.generator import PosetGeneratorConfig
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import generate_workload

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Skylines with partially-ordered domains (SIGMOD 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("algorithms", help="list registered algorithms")

    sub.add_parser("demo", help="run the hotel/amenity quickstart")

    gen = sub.add_parser("generate", help="generate a synthetic workload JSON")
    gen.add_argument("output", help="output JSON path")
    gen.add_argument("--size", type=int, default=10_000, help="number of records")
    gen.add_argument("--num-total", type=int, default=2)
    gen.add_argument("--num-partial", type=int, default=1)
    gen.add_argument(
        "--correlation",
        choices=["independent", "correlated", "anti-correlated"],
        default="independent",
    )
    gen.add_argument("--poset-nodes", type=int, default=450)
    gen.add_argument("--poset-height", type=int, default=6)
    gen.add_argument("--seed", type=int, default=7)

    query = sub.add_parser("query", help="skyline of a saved workload")
    query.add_argument("workload", help="workload JSON path")
    query.add_argument("--algorithm", default="sdc+", choices=sorted(available_algorithms()))
    query.add_argument(
        "--strategy",
        default="default",
        choices=["default", "random", "minpc", "maxpc"],
    )
    query.add_argument("--limit", type=int, default=20, help="answers to print (0 = all)")
    query.add_argument("--stats", action="store_true", help="print comparison counters")
    query.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )
    query.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; an expired query exits 2 with its partial answers",
    )
    query.add_argument(
        "--max-comparisons",
        type=int,
        default=None,
        help="dominance-comparison budget; exhausting it truncates gracefully",
    )
    query.add_argument(
        "--max-answers",
        type=int,
        default=None,
        help="stop after this many skyline answers",
    )
    query.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="inject a deterministic kernel fault (fault-injection demo; "
        "see docs/robustness.md)",
    )

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    exp.add_argument("--size", type=int, default=None, help="records (default REPRO_BENCH_N/4000)")
    exp.add_argument(
        "--metric", choices=["time", "checks", "both"], default="both"
    )

    band = sub.add_parser("skyband", help="k-skyband of a saved workload")
    band.add_argument("workload", help="workload JSON path")
    band.add_argument("-k", type=int, default=2, help="dominator threshold")
    band.add_argument("--method", choices=["bbs", "nested-loops"], default="bbs")
    band.add_argument("--limit", type=int, default=20)

    lay = sub.add_parser("layers", help="skyline layers of a saved workload")
    lay.add_argument("workload", help="workload JSON path")
    lay.add_argument("--max-layers", type=int, default=5)
    lay.add_argument("--algorithm", default="bnl", choices=sorted(available_algorithms()))

    ssp = sub.add_parser("subspace", help="skyline over selected attributes")
    ssp.add_argument("workload", help="workload JSON path")
    ssp.add_argument("attributes", nargs="+", help="attribute names")
    ssp.add_argument("--limit", type=int, default=20)

    exp2 = sub.add_parser(
        "explain", help="dataset structure + instrumented query report"
    )
    exp2.add_argument("workload", help="workload JSON path")
    exp2.add_argument(
        "--algorithm", default="sdc+", choices=sorted(available_algorithms())
    )
    exp2.add_argument(
        "--strategy",
        default="default",
        choices=["default", "random", "minpc", "maxpc"],
    )
    exp2.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )

    bk = sub.add_parser(
        "bench-kernels",
        help="compare the python and numpy dominance backends side by side",
    )
    bk.add_argument("--size", type=int, default=1000, help="records to generate")
    bk.add_argument(
        "--algorithms",
        nargs="+",
        default=["bnl", "bnl+", "sfs", "bbs+", "sdc", "sdc+"],
        choices=sorted(available_algorithms()),
        help="algorithms to time",
    )
    bk.add_argument("--seed", type=int, default=7, help="workload seed")

    sb = sub.add_parser(
        "serve-bench",
        help="seeded multi-client benchmark of the concurrent query server",
    )
    sb.add_argument("--size", type=int, default=400, help="records to generate")
    sb.add_argument("--clients", type=int, default=8, help="concurrent client threads")
    sb.add_argument(
        "--queries-per-client", type=int, default=4, help="queries each client submits"
    )
    sb.add_argument("--workers", type=int, default=4, help="server worker threads")
    sb.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        choices=sorted(available_algorithms()),
        help="algorithm pool clients draw from (default: all)",
    )
    sb.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )
    sb.add_argument("--seed", type=int, default=7, help="workload + client-stream seed")
    sb.add_argument(
        "--repeat-fraction",
        type=float,
        default=0.0,
        metavar="F",
        help="probability each client re-submits the hot request instead "
        "of drawing a fresh algorithm (0..1; models repeated-query "
        "production traffic)",
    )
    sb.add_argument(
        "--cache",
        action="store_true",
        help="enable the server's materialized-view result cache "
        "(docs/views.md) so the report measures cache-aware throughput",
    )
    sb.add_argument(
        "--output",
        default=None,
        metavar="JSON",
        help="write the full report as a JSON artifact "
        "(e.g. benchmarks/results/serve_bench.json)",
    )

    sv = sub.add_parser(
        "serve",
        help="run the asyncio network front-end (docs/network.md)",
    )
    sv.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (port 0 picks an ephemeral port)",
    )
    sv.add_argument("--size", type=int, default=4000, help="records to generate")
    sv.add_argument("--seed", type=int, default=7, help="workload seed")
    sv.add_argument("--workers", type=int, default=8, help="server worker threads")
    sv.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )
    sv.add_argument(
        "--cache",
        action="store_true",
        help="enable the server's materialized-view result cache",
    )
    sv.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="per-connection token-bucket refill (cost-model tokens/s)",
    )
    sv.add_argument(
        "--burst",
        type=float,
        default=200.0,
        help="per-connection token-bucket capacity",
    )
    sv.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write 'HOST PORT' here once listening (CI readiness probe)",
    )

    nb = sub.add_parser(
        "net-bench",
        help="seeded multi-connection benchmark of the network front-end",
    )
    nb.add_argument("--size", type=int, default=4000, help="records to generate")
    nb.add_argument(
        "--connections", type=int, default=8, help="concurrent client connections"
    )
    nb.add_argument(
        "--queries-per-connection",
        type=int,
        default=4,
        help="queries each connection submits (open-loop)",
    )
    nb.add_argument("--workers", type=int, default=8, help="server worker threads")
    nb.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        choices=sorted(available_algorithms()),
        help="algorithm pool connections draw from (default: all)",
    )
    nb.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )
    nb.add_argument("--seed", type=int, default=7, help="workload + arrival seed")
    nb.add_argument(
        "--arrival-rate",
        type=float,
        default=0.5,
        metavar="QPS",
        help="per-connection open-loop arrival rate (queries/second)",
    )
    nb.add_argument(
        "--disconnect-rate",
        type=float,
        default=0.0,
        metavar="F",
        help="chaos: probability each query's connection is hard-aborted "
        "mid-stream (0..1; exercises disconnect -> cancellation)",
    )
    nb.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="drive an already-running 'repro serve' instead of a "
        "self-contained in-process server",
    )
    nb.add_argument(
        "--assert-progressive",
        action="store_true",
        help="fail unless median time-to-first-point < 0.5x median "
        "time-to-done and multi-point answers span multiple frames",
    )
    nb.add_argument(
        "--output",
        default=None,
        metavar="JSON",
        help="write the full report as a JSON artifact "
        "(e.g. benchmarks/results/net_bench.json)",
    )

    rp = sub.add_parser(
        "replay",
        help="trace-driven capacity-envelope sweep of the query server",
    )
    rp.add_argument("--size", type=int, default=300, help="records to generate")
    rp.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=["poisson", "bursty", "diurnal"],
        help="arrival processes to sweep (default: all three)",
    )
    rp.add_argument(
        "--duration",
        type=float,
        default=3.0,
        help="base trace length in seconds (scaled down at higher multipliers)",
    )
    rp.add_argument(
        "--rate", type=float, default=30.0, help="base mean arrival rate (q/s)"
    )
    rp.add_argument(
        "--multipliers",
        type=float,
        nargs="+",
        default=None,
        metavar="M",
        help="rate multipliers to sweep (default: 0.5 1.0 2.0 4.0)",
    )
    rp.add_argument("--workers", type=int, default=4, help="server worker threads")
    rp.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )
    rp.add_argument("--seed", type=int, default=7, help="workload + trace seed")
    rp.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="arm deterministic fault injection (worker kill + kernel "
        "faults) in every cell; the sweep then asserts chaos-replay "
        "invariants (docs/overload.md)",
    )
    rp.add_argument(
        "--capacity",
        type=int,
        default=64,
        help="bounded queue capacity (0 = unbounded)",
    )
    rp.add_argument(
        "--shed-policy",
        choices=["deadline", "priority", "reject-newest"],
        default="deadline",
        help="shedding policy when the bounded queue fills",
    )
    rp.add_argument(
        "--deadline",
        type=float,
        default=0.5,
        help="end-to-end deadline carried by a fraction of requests "
        "(0 disables deadlines)",
    )
    rp.add_argument(
        "--output",
        default=None,
        metavar="JSON",
        help="write the capacity envelope as a JSON artifact "
        "(e.g. benchmarks/results/replay_capacity.json)",
    )
    rp.add_argument(
        "--assert-resilient",
        action="store_true",
        help="exit non-zero unless every cell drained with zero hung "
        "handles and the server returned to healthy",
    )
    rp.add_argument(
        "--baseline",
        default=None,
        metavar="JSON",
        help="committed replay artifact to compare the p99-vs-rate "
        "saturation knee against; a knee shifting left beyond the "
        "tolerance prints a warning (never fails the run)",
    )
    rp.add_argument(
        "--knee-tolerance",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="fractional left-shift of the saturation knee tolerated "
        "before warning (default 0.25)",
    )
    rp.add_argument(
        "--knee-factor",
        type=float,
        default=3.0,
        metavar="F",
        help="p99 multiple over the lowest-rate cell that defines the "
        "knee (default 3.0)",
    )

    bp = sub.add_parser(
        "bench-parallel",
        help="speedup curve of the sharded process-pool backend",
    )
    bp.add_argument("--size", type=int, default=20_000, help="records to generate")
    bp.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="worker counts to sweep",
    )
    bp.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        choices=sorted(available_algorithms()),
        help="algorithms to time (default: the fig12a lineup)",
    )
    bp.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="numpy",
        help="dominance backend (see docs/performance.md)",
    )
    bp.add_argument("--seed", type=int, default=7, help="workload seed")
    bp.add_argument(
        "--mode",
        choices=["auto", "strata", "grid"],
        default="auto",
        help="partitioning strategy (see docs/parallel.md)",
    )
    bp.add_argument(
        "--filter",
        choices=["dynamic", "static", "off"],
        default="dynamic",
        help="filter-board mode for the scaling curve runs (the "
        "comparison-reduction section always measures the "
        "deterministic static filter; see docs/parallel.md)",
    )
    bp.add_argument(
        "--output",
        default=None,
        metavar="JSON",
        help="write the curve as a JSON artifact "
        "(e.g. benchmarks/results/parallel_scaling.json)",
    )
    bp.add_argument(
        "--assert-speedup",
        action="store_true",
        help="exit non-zero when the multi-worker aggregate speedup is "
        "<= 1.0x serial; automatically skipped (with a note) on "
        "machines with fewer than 4 cores, where sharding honestly "
        "measures pure overhead",
    )
    bp.add_argument(
        "--assert-comparison-reduction",
        action="store_true",
        help="exit non-zero unless the default plan with filter "
        "propagation spends >= 15%% fewer aggregate dominance comparisons "
        "than the one-task-per-slot, filter-off baseline (counter-based: "
        "hardware- and core-count-independent)",
    )

    bv = sub.add_parser(
        "bench-views",
        help="hit-rate vs. speedup curves of the materialized-view result cache",
    )
    bv.add_argument("--size", type=int, default=400, help="records to generate")
    bv.add_argument(
        "--queries", type=int, default=60, help="queries per repeat fraction"
    )
    bv.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=None,
        metavar="F",
        help="repeat fractions to sweep (default: 0.0 0.25 0.5 0.75)",
    )
    bv.add_argument(
        "--kernel",
        choices=["python", "numpy"],
        default="python",
        help="dominance backend (see docs/performance.md)",
    )
    bv.add_argument("--seed", type=int, default=7, help="workload + stream seed")
    bv.add_argument("--workers", type=int, default=2, help="server worker threads")
    bv.add_argument(
        "--output",
        default=None,
        metavar="JSON",
        help="write the curves as a JSON artifact "
        "(e.g. benchmarks/results/view_cache.json)",
    )

    fs = sub.add_parser(
        "fsck",
        help="recover a durability directory and audit its integrity",
    )
    fs.add_argument(
        "directory",
        help="durability root (wal/ + snapshots/, see docs/durability.md)",
    )
    fs.add_argument(
        "--algorithm",
        default="sdc+",
        choices=sorted(available_algorithms()),
        help="algorithm used for the skyline recompute comparison",
    )

    cr = sub.add_parser(
        "crash-replay",
        help="kill-point x seed crash chaos matrix over the durability layer",
    )
    cr.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=[7, 2025],
        help="workload seeds to sweep",
    )
    cr.add_argument(
        "--kill-points",
        nargs="+",
        default=None,
        metavar="SITE",
        help="kill-points to inject (default: all; see "
        "repro.resilience.chaos.KILL_POINTS)",
    )
    cr.add_argument(
        "--size", type=int, default=40, help="base records per cell"
    )
    cr.add_argument(
        "--ops", type=int, default=12, help="insert/delete plan length per cell"
    )
    cr.add_argument(
        "--output",
        default=None,
        metavar="JSON",
        help="write the recovery report as a JSON artifact "
        "(e.g. benchmarks/results/crash_replay.json)",
    )
    return parser


def _cmd_algorithms(_args) -> int:
    for name in available_algorithms():
        print(name)
    return 0


def _run_demo() -> int:
    from repro import NumericAttribute, PosetAttribute, Record, Schema, skyline
    from repro.posets import from_set_family

    amenities = from_set_family(
        {
            "deluxe": {"gym", "pool", "spa"},
            "active": {"gym", "pool"},
            "relax": {"spa"},
            "none": set(),
        }
    )
    schema = Schema(
        [
            NumericAttribute("price", "min"),
            PosetAttribute.set_valued("amenities", amenities),
        ]
    )
    hotels = [
        Record("Grand", (320,), ("deluxe",)),
        Record("Budget", (60,), ("none",)),
        Record("Fit", (140,), ("active",)),
        Record("Worse", (190,), ("active",)),
    ]
    print("skyline of the demo hotel table:")
    for record in skyline(hotels, schema):
        print(f"  {record.rid:8} price={record.totals[0]:<4} amenities={record.partials[0]}")
    return 0


def _cmd_generate(args) -> int:
    config = WorkloadConfig(
        num_total=args.num_total,
        num_partial=args.num_partial,
        correlation=args.correlation,
        data_size=args.size,
        poset=PosetGeneratorConfig(
            num_nodes=args.poset_nodes, height=args.poset_height, seed=args.seed
        ),
        seed=args.seed,
    )
    workload = generate_workload(config)
    save_workload(args.output, workload.schema, workload.records)
    print(
        f"wrote {len(workload.records)} records "
        f"({workload.schema.num_total} numeric + "
        f"{workload.schema.num_partial} poset attrs) to {args.output}"
    )
    return 0


def _cmd_query(args) -> int:
    schema, records = load_workload(args.workload)
    engine = SkylineEngine(
        schema, records, strategy=args.strategy, kernel=args.kernel
    )
    resilient = (
        args.deadline is not None
        or args.max_comparisons is not None
        or args.max_answers is not None
        or args.chaos_seed is not None
    )
    if not resilient:
        start = time.perf_counter()
        answers = engine.skyline(args.algorithm)
        elapsed = time.perf_counter() - start
        status = f"{args.algorithm}, {elapsed * 1000:.1f} ms"
    else:
        from repro.exceptions import QueryTimeoutError
        from repro.resilience.chaos import FaultInjector, inject_kernel_faults

        if args.chaos_seed is not None:
            inject_kernel_faults(
                engine.dataset, FaultInjector(seed=args.chaos_seed, fail_after=10)
            )
        exit_code = 0
        try:
            result = engine.query(
                args.algorithm,
                deadline=args.deadline,
                max_comparisons=args.max_comparisons,
                max_answers=args.max_answers,
            )
        except QueryTimeoutError as err:
            result = err.partial
            exit_code = 2
        answers = result.records
        status = f"{args.algorithm}, {result.elapsed * 1000:.1f} ms"
        if result.complete:
            status += ", complete"
        else:
            status += f", PARTIAL ({result.exhausted_reason})"
        if result.fallback:
            status += ", python-kernel fallback"
    print(f"{len(answers)} skyline records out of {len(records)} ({status})")
    shown = answers if args.limit == 0 else answers[: args.limit]
    for record in shown:
        print(f"  rid={record.rid} totals={record.totals} partials={record.partials}")
    if len(shown) < len(answers):
        print(f"  ... {len(answers) - len(shown)} more (use --limit 0)")
    if args.stats:
        print(engine.stats)
    return exit_code if resilient else 0


def _cmd_experiment(args) -> int:
    result = run_experiment(args.id, data_size=args.size)
    print(format_summary(result))
    print()
    if args.metric in ("time", "both"):
        print(format_run_table(result.runs, "time", "time-to-output milestones (ms)"))
        print()
    if args.metric in ("checks", "both"):
        print(format_run_table(result.runs, "checks", "dominance-check milestones"))
    return 0


def _cmd_skyband(args) -> int:
    from repro.queries.skyband import k_skyband
    from repro.transform.dataset import TransformedDataset

    schema, records = load_workload(args.workload)
    dataset = TransformedDataset(schema, records)
    band = k_skyband(dataset, args.k, args.method)
    print(f"{args.k}-skyband: {len(band)} of {len(records)} records")
    for point in band[: args.limit]:
        r = point.record
        print(f"  rid={r.rid} totals={r.totals} partials={r.partials}")
    if len(band) > args.limit:
        print(f"  ... {len(band) - args.limit} more")
    return 0


def _cmd_layers(args) -> int:
    from repro.queries.layers import skyline_layers
    from repro.transform.dataset import TransformedDataset

    schema, records = load_workload(args.workload)
    dataset = TransformedDataset(schema, records)
    for number, layer in enumerate(
        skyline_layers(dataset, max_layers=args.max_layers, algorithm=args.algorithm),
        start=1,
    ):
        print(f"layer {number}: {len(layer)} records")
    return 0


def _cmd_subspace(args) -> int:
    from repro.queries.subspace import subspace_skyline
    from repro.transform.dataset import TransformedDataset

    schema, records = load_workload(args.workload)
    dataset = TransformedDataset(schema, records)
    answers = subspace_skyline(dataset, args.attributes)
    names = ", ".join(args.attributes)
    print(f"subspace [{names}]: {len(answers)} skyline records of {len(records)}")
    for record in answers[: args.limit]:
        print(f"  rid={record.rid} totals={record.totals} partials={record.partials}")
    if len(answers) > args.limit:
        print(f"  ... {len(answers) - args.limit} more")
    return 0


def _cmd_explain(args) -> int:
    import json

    schema, records = load_workload(args.workload)
    engine = SkylineEngine(
        schema, records, strategy=args.strategy, kernel=args.kernel
    )
    print(json.dumps(engine.describe(), indent=2))
    print(json.dumps(engine.explain(args.algorithm), indent=2))
    return 0


def _cmd_bench_kernels(args) -> int:
    from repro.bench.harness import run_progressive
    from repro.transform.dataset import TransformedDataset

    config = WorkloadConfig.default(data_size=args.size, seed=args.seed)
    workload = generate_workload(config)
    print(
        f"workload: {len(workload.records)} records, "
        f"{workload.schema.num_total} numeric + "
        f"{workload.schema.num_partial} poset attrs"
    )
    header = (
        f"{'algorithm':<10} {'python (s)':>12} {'numpy (s)':>12} "
        f"{'speedup':>9}  {'answers':>7}  parity"
    )
    print(header)
    print("-" * len(header))
    exit_code = 0
    for name in args.algorithms:
        results = {}
        for kernel in ("python", "numpy"):
            dataset = TransformedDataset(
                workload.schema, workload.records, kernel=kernel
            )
            run = run_progressive(dataset, name)
            results[kernel] = (
                run.total_elapsed,
                [p.record.rid for p in run.points],
                run.final_delta,
            )
        py_s, py_rids, py_counters = results["python"]
        np_s, np_rids, np_counters = results["numpy"]
        parity = py_rids == np_rids and py_counters == np_counters
        if not parity:
            exit_code = 1
        speedup = py_s / np_s if np_s > 0 else float("inf")
        print(
            f"{name:<10} {py_s:>12.4f} {np_s:>12.4f} {speedup:>8.2f}x "
            f"{len(py_rids):>8}  {'ok' if parity else 'MISMATCH'}"
        )
    return exit_code


def _cmd_serve_bench(args) -> int:
    from repro.serving.bench import run_serve_bench

    report = run_serve_bench(
        size=args.size,
        clients=args.clients,
        queries_per_client=args.queries_per_client,
        workers=args.workers,
        algorithms=tuple(args.algorithms) if args.algorithms else None,
        kernel=args.kernel,
        seed=args.seed,
        output=args.output,
        repeat_fraction=args.repeat_fraction,
        cache=args.cache,
    )
    workload = report["workload"]
    print(
        f"serve-bench: {workload['clients']} clients x "
        f"{workload['queries_per_client']} queries, "
        f"{workload['workers']} workers, {workload['records']} records "
        f"({workload['kernel']} kernel, seed {workload['seed']})"
    )
    if workload["repeat_fraction"] or workload["cache"]:
        cache_stats = report["server"]["cache"]
        print(
            f"  repeat_fraction={workload['repeat_fraction']:.2f} "
            f"cache={'on' if workload['cache'] else 'off'}"
            + (
                f" (hits={cache_stats['hits']}, "
                f"misses={cache_stats['misses']}, "
                f"hit_rate={cache_stats['hit_rate']:.2f})"
                if workload["cache"]
                else ""
            )
        )
    latency = report["latency"]
    print(
        f"  {report['queries']} queries in {report['wall_seconds']:.3f}s "
        f"({report['throughput_qps']:.1f} q/s); latency "
        f"p50={latency['p50_seconds'] * 1000:.1f}ms "
        f"p99={latency['p99_seconds'] * 1000:.1f}ms "
        f"max={latency['max_seconds'] * 1000:.1f}ms"
    )
    header = f"  {'algorithm':<10} {'count':>5} {'p50 ms':>9} {'p99 ms':>9}"
    print(header)
    for name, summary in report["latency_by_algorithm"].items():
        print(
            f"  {name:<10} {summary['count']:>5} "
            f"{summary['p50_seconds'] * 1000:>9.1f} "
            f"{summary['p99_seconds'] * 1000:>9.1f}"
        )
    if report["errors"]:
        print(f"  {len(report['errors'])} failed submissions:")
        for line in report["errors"][:5]:
            print(f"    {line}")
    if args.output:
        print(f"  report written to {args.output}")
    return 1 if report["errors"] else 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.lstrip("-").isdigit():
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _cmd_serve(args) -> int:
    import asyncio

    from repro.net.netserver import NetworkConfig, NetworkFrontend
    from repro.serving.server import SkylineServer
    from repro.transform.dataset import TransformedDataset
    from repro.workloads.config import WorkloadConfig
    from repro.workloads.generator import generate_workload

    host, port = _parse_hostport(args.listen)
    config = WorkloadConfig.default(data_size=args.size, seed=args.seed)
    workload = generate_workload(config)
    dataset = TransformedDataset(
        workload.schema, workload.records, kernel=args.kernel
    )
    server = SkylineServer(
        dataset, workers=args.workers, warm=True, cache=args.cache
    )
    frontend = NetworkFrontend(
        server,
        NetworkConfig(host=host, port=port, rate=args.rate, burst=args.burst),
    )

    async def main() -> None:
        bound_host, bound_port = await frontend.start()
        print(
            f"serving {len(dataset)} records ({args.kernel} kernel, "
            f"seed {args.seed}) on {bound_host}:{bound_port}",
            flush=True,
        )
        if args.ready_file:
            from pathlib import Path

            Path(args.ready_file).write_text(
                f"{bound_host} {bound_port}\n", encoding="utf-8"
            )
        try:
            await frontend.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await frontend.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_net_bench(args) -> int:
    from repro.net.bench import run_net_bench

    connect = _parse_hostport(args.connect) if args.connect else None
    try:
        report = run_net_bench(
            size=args.size,
            connections=args.connections,
            queries_per_connection=args.queries_per_connection,
            workers=args.workers,
            algorithms=tuple(args.algorithms) if args.algorithms else None,
            kernel=args.kernel,
            seed=args.seed,
            output=args.output,
            arrival_rate=args.arrival_rate,
            disconnect_rate=args.disconnect_rate,
            connect=connect,
            assert_progressive=args.assert_progressive,
        )
    except AssertionError as err:
        print(f"net-bench FAILED: {err}")
        return 1
    config = report["config"]
    where = args.connect if args.connect else "in-process"
    print(
        f"net-bench: {config['connections']} connections x "
        f"{config['queries_per_connection']} queries against {where} "
        f"(seed {config['seed']}, arrival {config['arrival_rate']}/s"
        + (
            f", disconnect_rate={config['disconnect_rate']:.2f}"
            if config["disconnect_rate"]
            else ""
        )
        + ")"
    )
    ttd = report["time_to_done"]
    ttfp = report["time_to_first_point"]
    prog = report["progressiveness"]
    print(
        f"  {report['completed']}/{report['queries']} completed in "
        f"{report['elapsed_seconds']:.3f}s ({report['throughput_qps']:.1f} q/s), "
        f"{report['disconnects']} chaos disconnects"
    )
    print(
        f"  time-to-done     p50={ttd['p50_seconds'] * 1000:.1f}ms "
        f"p99={ttd['p99_seconds'] * 1000:.1f}ms"
    )
    print(
        f"  time-to-first    p50={ttfp['p50_seconds'] * 1000:.1f}ms "
        f"p99={ttfp['p99_seconds'] * 1000:.1f}ms"
    )
    print(
        f"  progressiveness: ttfp/ttd ratio {prog['ratio']:.3f} "
        f"({prog['multi_frame_queries']}/{prog['multi_point_queries']} "
        f"multi-point queries streamed over >1 frame)"
    )
    if report["errors"]:
        print(f"  errors by code: {report['errors']}")
    print(f"  server mode after run: {report['server']['mode']}")
    if args.output:
        print(f"  report written to {args.output}")
    return 0


def _cmd_replay(args) -> int:
    from repro.serving.replay import run_replay

    report = run_replay(
        size=args.size,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        duration=args.duration,
        rate=args.rate,
        multipliers=tuple(args.multipliers) if args.multipliers else None,
        workers=args.workers,
        kernel=args.kernel,
        seed=args.seed,
        chaos_seed=args.chaos_seed,
        capacity=args.capacity if args.capacity > 0 else None,
        shed_policy=args.shed_policy,
        deadline=args.deadline if args.deadline > 0 else None,
        output=args.output,
    )
    config = report["config"]
    chaos = (
        f", chaos seed {config['chaos_seed']}"
        if config["chaos_seed"] is not None
        else ""
    )
    print(
        f"replay: {config['records']} records, {config['workers']} workers, "
        f"{config['base_rate_qps']:g} q/s x {config['duration_seconds']:g}s "
        f"base trace ({config['kernel']} kernel, seed {config['seed']}{chaos})"
    )
    resilient = True
    for scenario, row in report["scenarios"].items():
        print(f"  {scenario} ({row['arrivals']} arrivals):")
        header = (
            f"    {'xrate':>5} {'offered':>7} {'done':>5} {'shed':>5} "
            f"{'rej':>4} {'t/o':>4} {'err':>4} {'hung':>4} "
            f"{'p50 ms':>8} {'p99 ms':>8} {'mode':>11} {'healthy':>7}"
        )
        print(header)
        for cell in row["cells"]:
            healthy = cell["returned_healthy"]
            resilient = resilient and healthy and cell["hung"] == 0
            print(
                f"    {cell['multiplier']:>5g} {cell['offered']:>7} "
                f"{cell['completed']:>5} {cell['shed']:>5} "
                f"{cell['rejected']:>4} {cell['timeouts']:>4} "
                f"{cell['errors']:>4} {cell['hung']:>4} "
                f"{cell['latency_p50_ms']:>8.1f} {cell['latency_p99_ms']:>8.1f} "
                f"{cell['final_mode']:>11} {'yes' if healthy else 'NO':>7}"
            )
    if args.output:
        print(f"  envelope written to {args.output}")
    if args.baseline:
        import json as _json

        from repro.serving.replay import compare_baseline

        with open(args.baseline, encoding="utf-8") as fh:
            baseline = _json.load(fh)
        comparison = compare_baseline(
            report,
            baseline,
            tolerance=args.knee_tolerance,
            factor=args.knee_factor,
        )
        print(
            f"  knee vs baseline {args.baseline} "
            f"(factor {comparison['factor']:g}x, "
            f"tolerance {comparison['tolerance']:.0%}):"
        )
        for name, entry in comparison["scenarios"].items():
            knee = entry["current_knee"]
            base_knee = entry["baseline_knee"]
            fmt = lambda k: f"{k:g}x" if k is not None else ">sweep"
            mark = "  WARNING: knee shifted left" if entry["shifted_left"] else ""
            print(f"    {name:<10} {fmt(base_knee):>7} -> {fmt(knee):>7}{mark}")
        if comparison["regressions"]:
            print(
                "  WARNING: saturation knee regressed in "
                + ", ".join(comparison["regressions"])
                + " (capacity envelope shrank; not failing the run)"
            )
    if args.assert_resilient and not resilient:
        print("replay: FAILED resilience assertion (hung handle or no recovery)")
        return 1
    return 0


def _cmd_fsck(args) -> int:
    from repro.durability import fsck, recover
    from repro.exceptions import DurabilityError

    try:
        report = recover(args.directory)
    except DurabilityError as err:
        print(f"fsck: {err}")
        return 2
    info = report.to_dict()
    print(
        f"fsck: recovered {args.directory} from {info['snapshot']} "
        f"(LSN {info['snapshot_lsn']}) + {info['replayed']} replayed WAL records "
        f"-> version {info['last_lsn']}"
    )
    if info["truncated_bytes"]:
        print(f"  truncated {info['truncated_bytes']} torn/corrupt WAL bytes")
    if info["orphaned_segments"]:
        print(f"  quarantined segments: {', '.join(info['orphaned_segments'])}")
    if info["skipped_snapshots"]:
        print(f"  skipped snapshots: {', '.join(info['skipped_snapshots'])}")
    audit = fsck(report.dataset, algorithm=args.algorithm)
    for check, detail in audit["checks"].items():
        print(f"  {check}: {detail}")
    if audit["clean"]:
        print("fsck: clean")
        return 0
    for problem in audit["problems"]:
        print(f"  PROBLEM: {problem}")
    print("fsck: FAILED")
    return 1


def _cmd_crash_replay(args) -> int:
    from repro.durability.crashreplay import run_crash_replay
    from repro.resilience.chaos import KILL_POINTS

    kill_points = tuple(args.kill_points) if args.kill_points else KILL_POINTS
    unknown = sorted(set(kill_points) - set(KILL_POINTS))
    if unknown:
        print(f"crash-replay: unknown kill-points {', '.join(unknown)}")
        return 2
    report = run_crash_replay(
        kill_points=kill_points,
        seeds=tuple(args.seeds),
        n=args.size,
        ops=args.ops,
        out=args.output,
    )
    config = report["config"]
    print(
        f"crash-replay: {len(config['kill_points'])} kill-points x "
        f"{len(config['seeds'])} seeds ({config['n']} records, "
        f"{config['ops']} ops per cell)"
    )
    print(
        f"  {'kill-point':<24} {'seed':>5} {'acked':>5} {'recov':>5} "
        f"{'torn B':>6} {'skyline':>7}  status"
    )
    for cell in report["cells"]:
        status = "pass" if cell["pass"] else "FAIL"
        print(
            f"  {cell['kill_point']:<24} {cell['seed']:>5} {cell['acked']:>5} "
            f"{cell['recovered']:>5} {cell['truncated_bytes']:>6} "
            f"{cell['skyline_size']:>7}  {status}"
        )
        for problem in cell["problems"]:
            print(f"      {problem}")
    if args.output:
        print(f"  report written to {args.output}")
    if report["passed"]:
        print("crash-replay: all cells passed")
        return 0
    print(f"crash-replay: {report['failures']} cell(s) FAILED")
    return 1


def _cmd_bench_parallel(args) -> int:
    from repro.parallel.bench import run_parallel_bench

    report = run_parallel_bench(
        size=args.size,
        workers=tuple(args.workers),
        algorithms=tuple(args.algorithms) if args.algorithms else None,
        kernel=args.kernel,
        seed=args.seed,
        mode=args.mode,
        filter=args.filter,
        output=args.output,
    )
    print(
        f"bench-parallel: {report['records']} records, "
        f"{report['kernel']} kernel, seed {report['seed']}, "
        f"mode {report['mode']}, filter {report['filter']} "
        f"(cpu_count={report['cpu_count']})"
    )
    print(
        f"  {'workers':<8} {'total s':>10} {'speedup':>8} "
        f"{'steals':>7} {'board hits':>11}  modes"
    )
    for count, entry in report["workers"].items():
        algos = entry["algorithms"].values()
        modes = sorted({info["mode"] for info in algos})
        steals = sum(info["steals"] for info in algos)
        hits = sum(info["filter_board_hits"] for info in algos)
        print(
            f"  {count:<8} {entry['total_seconds']:>10.3f} "
            f"{entry['aggregate_speedup']:>7.2f}x "
            f"{steals:>7} {hits:>11}  {','.join(modes)}"
        )
    comparison = report["comparison"]
    baseline = comparison["baseline_config"]
    print(
        f"  comparisons at {comparison['workers']} workers: "
        f"baseline {comparison['baseline_comparisons']} "
        f"(tasks_per_worker={baseline['tasks_per_worker']}, "
        f"filter={baseline['filter']}), "
        f"steal {comparison['steal_comparisons']} "
        f"({comparison['reduction']:.1%} reduction; board "
        f"{comparison['board_reduction']:.1%} vs filter off; dynamic-filter "
        f"{comparison['steal_dynamic_comparisons']})"
    )
    if not report["parity_ok"]:
        print("  PARITY MISMATCH against the serial engine")
    if args.output:
        print(f"  curve written to {args.output}")
    exit_code = 0 if report["parity_ok"] else 1
    if args.assert_comparison_reduction:
        assertion = report["comparison_assertion"]
        if assertion["passed"]:
            print(
                f"  comparison-reduction assertion passed: "
                f"{assertion['reduction']:.1%} >= "
                f"{assertion['required_reduction']:.0%}"
            )
        else:
            print(
                f"  comparison-reduction assertion FAILED: "
                f"{assertion['reduction']:.1%} < "
                f"{assertion['required_reduction']:.0%}"
            )
            exit_code = 1
    if args.assert_speedup:
        assertion = report["speedup_assertion"]
        if not assertion["evaluated"]:
            print(
                f"  speedup assertion SKIPPED: "
                f"cpu_count={assertion['cpu_count']} < "
                f"required {assertion['required_cores']} cores"
            )
        elif assertion["passed"]:
            print(
                f"  speedup assertion passed: "
                f"{assertion['best_aggregate_speedup']:.2f}x at "
                f"{assertion['best_workers']} workers"
            )
        else:
            print(
                f"  speedup assertion FAILED: best aggregate speedup "
                f"{assertion['best_aggregate_speedup']:.2f}x <= 1.0x serial "
                f"(cpu_count={assertion['cpu_count']})"
            )
            exit_code = 1
    return exit_code


def _cmd_bench_views(args) -> int:
    from repro.views.bench import DEFAULT_FRACTIONS, run_views_bench

    report = run_views_bench(
        size=args.size,
        queries=args.queries,
        fractions=(
            tuple(args.fractions) if args.fractions else DEFAULT_FRACTIONS
        ),
        kernel=args.kernel,
        seed=args.seed,
        workers=args.workers,
        output=args.output,
    )
    print(
        f"bench-views: {report['records']} records, "
        f"{report['queries_per_fraction']} queries per fraction, "
        f"{report['kernel']} kernel, seed {report['seed']}"
    )
    print(
        f"  {'fraction':<9} {'hit rate':>8} {'uncached s':>11} "
        f"{'cached s':>9} {'speedup':>8}  parity"
    )
    for key, entry in sorted(report["curves"].items()):
        print(
            f"  {key:<9} {entry['hit_rate']:>8.2f} "
            f"{entry['uncached_wall_seconds']:>11.3f} "
            f"{entry['cached_wall_seconds']:>9.3f} "
            f"{entry['speedup']:>7.2f}x  "
            f"{'ok' if entry['parity'] else 'MISMATCH'}"
        )
    acceptance = report["acceptance"]
    status = "passed" if acceptance["passed"] else "FAILED"
    print(
        f"  acceptance ({acceptance['required_speedup']:.0f}x at "
        f"{acceptance['repeat_fraction']:.2f} repeat fraction): "
        f"{acceptance['achieved_speedup']:.2f}x -> {status}"
    )
    if args.output:
        print(f"  curves written to {args.output}")
    return 0 if (report["parity_ok"] and acceptance["passed"]) else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "algorithms": _cmd_algorithms,
        "demo": lambda _a: _run_demo(),
        "generate": _cmd_generate,
        "query": _cmd_query,
        "experiment": _cmd_experiment,
        "skyband": _cmd_skyband,
        "layers": _cmd_layers,
        "subspace": _cmd_subspace,
        "explain": _cmd_explain,
        "bench-kernels": _cmd_bench_kernels,
        "serve-bench": _cmd_serve_bench,
        "serve": _cmd_serve,
        "net-bench": _cmd_net_bench,
        "replay": _cmd_replay,
        "bench-parallel": _cmd_bench_parallel,
        "bench-views": _cmd_bench_views,
        "fsck": _cmd_fsck,
        "crash-replay": _cmd_crash_replay,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # e.g. `repro algorithms | head -1`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
