"""The ``lineup`` and ``lineup-parallel`` workloads.

A closed loop with one caller runs the Fig. 12(a) algorithms BNL, BNL+,
BBS+, SDC and SDC+ over the full space of the 100K-record Table-1
default instance, on the numpy kernel -- serially through
:class:`~repro.SkylineEngine` (``lineup``) or through one reused
:class:`~repro.ParallelSkylineExecutor` with 2 workers
(``lineup-parallel``).  The loop runs whole passes, each algorithm once
per pass in an order drawn from the seed, until the run's seconds are
used up.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from collections import Counter
from contextlib import nullcontext

from perfbench.common import (
    LABELS,
    LINEUP,
    Context,
    Outcome,
    SetupClock,
    build_engine,
    check_counts,
    counter_layers,
    instance,
    oracle_check,
    repeated_setup,
    write_spans,
)
from perfbench.layers import fill_end_to_end, fill_layers
from perfbench.measure import Tally, geomean, median, peak_rss_mb
from perfbench.tracing import Tracer

RECORDS = 100_000
WORKERS = 2


class FirstAppendSink(list):
    """A sink list remembering when the first answer point arrived."""

    first_at: float | None = None

    def append(self, point) -> None:
        if self.first_at is None:
            self.first_at = time.perf_counter()
        super().append(point)

    def extend(self, points) -> None:
        points = list(points)
        if points and self.first_at is None:
            self.first_at = time.perf_counter()
        super().extend(points)


class Query:
    """One timed lineup query."""

    __slots__ = ("tag", "algorithm", "start", "end", "ttfp", "counters",
                 "result", "ok")

    def __init__(self, tag: str, algorithm: str) -> None:
        self.tag = tag
        self.algorithm = algorithm
        self.start = self.end = 0.0
        self.ttfp: float | None = None
        self.counters: dict = {}
        self.result = None
        self.ok = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _build(workload, parallel: bool):
    from repro import ParallelConfig

    clock = SetupClock()
    engine = build_engine(workload, clock)
    executor = None
    if parallel:
        executor = engine.parallel_executor(ParallelConfig(workers=WORKERS))
        clock.lap("serving.start_s")
    return (engine, executor), clock


def _teardown(built) -> None:
    _, executor = built
    if executor is not None:
        executor.close()


def _run_query(engine, executor, query: Query, tally: Tally,
               expected: frozenset | None) -> list:
    """Run one query, timing it; returns the answer rids."""
    from repro import ComparisonStats

    stats = ComparisonStats()
    rids = []
    try:
        if executor is None:
            query.start = time.perf_counter()
            for point in engine.run_points(query.algorithm, stats=stats):
                if query.ttfp is None:
                    query.ttfp = time.perf_counter() - query.start
                rids.append(point.record.rid)
            query.end = time.perf_counter()
        else:
            sink = FirstAppendSink()
            query.start = time.perf_counter()
            result = executor.run(query.algorithm, stats=stats, sink=sink)
            query.end = time.perf_counter()
            if sink.first_at is not None:
                query.ttfp = sink.first_at - query.start
            rids = [p.record.rid for p in result.points]
            query.result = result
            if {p.record.rid for p in sink} != set(rids):
                rids = None  # the streamed answers disagree with the result
    except Exception:  # noqa: BLE001 - counted as a failure, run goes on
        query.end = time.perf_counter()
        tally.fail("exception")
        return []
    query.counters = stats.snapshot()
    if expected is not None and (rids is None or frozenset(rids) != expected):
        tally.fail("wrong_answer")
        return rids or []
    query.ok = True
    tally.ok()
    return rids


def _phase(ctx: Context, engine, executor, seconds: float, tally: Tally,
           expected: frozenset, rng: random.Random,
           tracer: Tracer | None = None) -> tuple:
    """Whole lineup passes until ``seconds`` have elapsed.

    Each pass runs every algorithm once, in an order drawn from ``rng``.
    On the serial lineup each query is followed by SDC+ first-point
    probes (see :func:`_probe`); returns the queries, the probe times,
    the timed wall time without the probes, and the pass count.
    """
    queries: list[Query] = []
    probes: list[float] = []
    started = time.perf_counter()
    probing = 0.0
    passes = 0
    while True:
        order = list(LINEUP)
        rng.shuffle(order)
        for algorithm in order:
            query = Query(f"q{len(queries)}", algorithm)
            spans = []
            if tracer is not None:
                spans.append(tracer.open("bench.query", query.tag))
                if executor is None:  # the benchmark's own layer span
                    spans.append(tracer.open("engine.run_points"))
            _run_query(engine, executor, query, tally, expected)
            for span in reversed(spans):
                tracer.close(span)
            queries.append(query)
            if executor is None:
                probe_started = time.perf_counter()
                probes += _probe(engine, tally)
                probing += time.perf_counter() - probe_started
        passes += 1
        if time.perf_counter() - started - probing >= seconds:
            break
    return queries, probes, time.perf_counter() - started - probing, passes


#: SDC+ first-point probes after each serial lineup query.
PROBES_PER_QUERY = 3


def _probe(engine, tally: Tally) -> list[float]:
    """Time to the first SDC+ answer, from queries stopped after it.

    The serial lineup runs one SDC+ query per pass and its first answer
    arrives within milliseconds, so the ttfp median needs more samples
    than the passes give; spreading the probes over the passes samples
    the same conditions as the lineup queries.
    """
    from repro import ComparisonStats

    times = []
    for _ in range(PROBES_PER_QUERY):
        started = time.perf_counter()
        points = engine.run_points("sdc+", stats=ComparisonStats())
        try:
            next(points)
        except Exception:  # noqa: BLE001 - counted, the probes go on
            tally.fail("exception")
            continue
        finally:
            points.close()
        times.append(time.perf_counter() - started)
        tally.ok()
    return times


def _latencies(queries: list[Query], missed: float) -> list[float]:
    return [q.seconds if q.ok else missed for q in queries]


def _lineup_p50(queries: list[Query], missed: float) -> float:
    """Each algorithm's median latency, combined by geometric mean.

    One median across the five algorithms would land on whichever of
    them sits in the middle (their latencies differ tenfold), so each
    algorithm's queries give their own median, and every algorithm
    weighs the same in the result.
    """
    return geomean(
        median(_latencies([q for q in queries if q.algorithm == a], missed))
        for a in LINEUP
    )


def run(ctx: Context) -> Outcome:
    parallel = ctx.workload == "lineup-parallel"
    tally = Tally(missed=ctx.cap)
    outcome = Outcome(tally)
    oracle_check(ctx, outcome)
    rng = random.Random(f"{ctx.workload}/{ctx.seed}")

    workload = instance(RECORDS)
    (engine, executor), setup_s, steps = repeated_setup(
        lambda: _build(workload, parallel), _teardown
    )
    del workload
    tracer = Tracer() if ctx.trace else None
    with executor if executor is not None else nullcontext():
        # Untimed warm-up.  On lineup one serial pass also gives the
        # expected answer and the reference counters; on lineup-parallel
        # one pass through the executor starts its pool, checked against
        # the serial SDC+ answer.
        warm_tally = Tally(missed=ctx.cap)
        reference = {}
        if parallel:
            serial = _run_query(engine, None, Query("serial", "sdc+"),
                                warm_tally, None)
            expected = frozenset(serial)
            started = time.perf_counter()
            for algorithm in LINEUP:
                _run_query(engine, executor, Query("warm", algorithm),
                           warm_tally, expected)
        else:
            started = time.perf_counter()
            answers = set()
            for algorithm in LINEUP:
                query = Query("warm", algorithm)
                rids = _run_query(engine, None, query, warm_tally, None)
                reference[algorithm] = query.counters
                answers.add(frozenset(rids))
            outcome.check(
                len(answers) == 1,
                "the five algorithms disagree on the skyline rid set",
            )
            expected = next(iter(answers))
        warmup_s = time.perf_counter() - started
        outcome.check(warm_tally.failed == 0,
                      f"warm-up failed: {warm_tally.describe()}")

        queries, probes, wall, passes = _phase(
            ctx, engine, executor, ctx.seconds, tally, expected, rng
        )
        traced = []
        if tracer is not None:
            from repro import ParallelSkylineExecutor

            tracer.patch(ParallelSkylineExecutor, "run", "parallel.run")
            try:
                traced, _, _, _ = _phase(
                    ctx, engine, executor, ctx.seconds, tally, expected, rng,
                    tracer,
                )
            finally:
                tracer.restore()
    _wait_for_workers()

    if not parallel:
        for query in queries + traced:
            if query.ok and query.counters != reference[query.algorithm]:
                outcome.problems.append(
                    f"{query.algorithm} counters changed between passes: "
                    f"{query.counters} != {reference[query.algorithm]}"
                )
                break
        check_counts(ctx, outcome, {
            LABELS[a]: reference[a] for a in LINEUP
        } | {"answer_size": len(expected)})

    p50 = _lineup_p50(queries, ctx.cap)
    in_loop = [q.ttfp for q in queries if q.algorithm == "sdc+" and q.ok
               and q.ttfp is not None]
    ttfps = in_loop if parallel else probes
    outcome.notes.append(
        f"{ctx.workload}: {passes} passes of {len(LINEUP)} algorithms over "
        f"{RECORDS} records in {wall:.3f}s; skyline {len(expected)} points; "
        f"{passes} samples per algorithm support no percentile above the "
        f"median, so query_tail_s repeats query_p50_s; ttfp over "
        f"{len(ttfps)} SDC+ "
        f"{'queries' if parallel else 'first-point probes'}; in-loop SDC+ "
        f"ttfp p50 {median(in_loop):.5f}s over {len(in_loop)}"
    )
    for algorithm in LINEUP:
        times = [q.seconds for q in queries if q.algorithm == algorithm and q.ok]
        outcome.notes.append(
            f"  {LABELS[algorithm]}: p50 {median(times):.4f}s over {len(times)}"
        )
    if parallel:
        _note_board_spread(outcome, queries)

    if not ctx.trace:
        fill_end_to_end(outcome, {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children=parallel),
            "throughput_qps": sum(q.ok for q in queries) / wall,
            "query_p50_s": p50,
            "query_tail_s": p50,
        })
        return outcome

    layers = dict(steps)
    layers["warmup_s"] = warmup_s
    layers["ttfp_p50_s"] = median(ttfps)
    ok = [q for q in traced if q.ok]
    for algorithm in LINEUP:
        layers[f"algorithms.{LABELS[algorithm]}_p50_s"] = median(
            [q.seconds for q in ok if q.algorithm == algorithm]
        )
    totals = Counter()
    for query in ok:
        totals.update(query.counters)
    layers.update(counter_layers(totals, len(ok)))
    layers["resilience.kernel_fallbacks"] = totals["kernel_fallbacks"]
    if parallel:
        layers.update(_parallel_layers(ok))
    layers["trace.overhead_frac"] = _lineup_p50(traced, ctx.cap) / p50 - 1.0
    roots = tracer.named("bench.query")
    layers["trace.unattributed_s"] = median(tracer.unattributed(roots))
    fill_layers(outcome, layers)
    write_spans(ctx, outcome, tracer)
    return outcome


def _wait_for_workers(timeout: float = 10.0) -> None:
    """Wait until the executor's pool processes have exited and been reaped.

    ``ParallelSkylineExecutor.close`` shuts the pool down without
    waiting, so its workers outlive the ``with`` block briefly.
    """
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def _parallel_layers(queries: list[Query]) -> dict:
    results = [q.result for q in queries if q.result is not None]
    layers = {}
    for stage in ("partition", "pool_setup", "compute", "steal_wait", "merge"):
        layers[f"parallel.{stage}_s"] = median(
            [r.stage_seconds.get(stage, 0.0) for r in results]
        )
    count = max(1, len(results))
    checks = sum(r.filter_board_checks for r in results)
    hits = sum(r.filter_board_hits for r in results)
    layers["parallel.tasks_per_query"] = sum(r.tasks for r in results) / count
    layers["parallel.steals_per_query"] = sum(r.steals for r in results) / count
    layers["parallel.board_hit_ratio"] = hits / checks if checks else 0.0
    layers["parallel.point_checks_per_query"] = sum(
        q.counters.get("m_dominance_point", 0) for q in queries
    ) / count
    layers["parallel.routed_serial"] = sum(r.routed_serial for r in results)
    return layers


def _note_board_spread(outcome: Outcome, queries: list[Query]) -> None:
    """The dynamic filter board's counts vary run to run: report spread."""
    results = [q.result for q in queries if q.result is not None]
    for label, values in (
        ("filter_board_checks", [r.filter_board_checks for r in results]),
        ("filter_board_hits", [r.filter_board_hits for r in results]),
        ("steals", [r.steals for r in results]),
    ):
        if values:
            outcome.notes.append(
                f"  {label} per query: min {min(values)} "
                f"p50 {median(values):g} max {max(values)}"
            )
