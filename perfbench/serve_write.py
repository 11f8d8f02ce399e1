"""The ``serve-write`` workload.

``SkylineServer(workers=2, cache=True, durability=DurabilityConfig(dir,
sync="commit"))``: one writer thread applies a seeded open-loop stream
of inserts and deletes while one closed-loop reader thread issues hot
full-space SDC+ queries and cold boxes; afterwards ``recover()``
rebuilds the run's directory.  Every update and shape is drawn from the
seed before timing starts.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass

from perfbench.common import (
    NUMERIC,
    Context,
    Outcome,
    SetupClock,
    build_engine,
    check_counts,
    instance,
    oracle_check,
    repeated_setup,
    write_spans,
)
from perfbench.layers import fill_end_to_end, fill_layers
from perfbench.measure import (
    Tally,
    failure_cause,
    median,
    peak_rss_mb,
    supported,
    tail,
)
from perfbench.serving import (
    BOX,
    DRAIN,
    RECORDS,
    WORKERS,
    ServerTrace,
    Stack,
    durations,
    random_box,
    serving_layers,
    teardown,
)
from perfbench.tracing import Tracer

#: Open-loop inserts per second.  An insert is acknowledged within
#: milliseconds, so the update, WAL, fsync and insert medians come from
#: a large sample.
INSERT_RATE = 4.0
#: Open-loop deletes per second.  Slow, because about one delete in
#: eight dissolves an R-tree node and reinserts its subtree point by
#: point for one to three seconds, holding the write lock (see README,
#: Findings); those stalls stay in the tails.
DELETE_RATE = 0.2
#: Share of cold boxes among the reader's queries, so that the reader's
#: median falls among them: it then averages over many distinct boxes
#: instead of one hot answer.
WRITE_COLD = 0.7
#: The closed-loop reader's nominal rate (it completed 27 to 50 queries
#: a second on a 2-core host).  It fixes the percentile of the reader's
#: tail for a given --seconds, whatever count a run reaches.
READER_QPS = 30.0


def run(ctx: Context) -> Outcome:
    outcome = Outcome(Tally(missed=ctx.cap))
    oracle_check(ctx, outcome)
    run_write(ctx, outcome)
    return outcome


@dataclass
class Update:
    offset: float
    tag: str
    record: object = None  # insert
    rid: object = None  # delete


def update_plan(seed: int, seconds: float, workload) -> list[Update]:
    """``INSERT_RATE * seconds`` inserts and ``DELETE_RATE * seconds``
    deletes, each at uniform times over the phase (a Poisson process
    conditioned on its count)."""
    from repro import Record, WorkloadConfig, generate_workload

    rng = random.Random(f"serve-write/{seed}")
    inserts = max(1, round(INSERT_RATE * seconds))
    deletes = max(1, round(DELETE_RATE * seconds))
    fresh = generate_workload(
        WorkloadConfig.default(data_size=inserts, seed=seed + 7919)
    ).records
    ops = [
        (rng.uniform(0.0, seconds), Record(RECORDS + i, r.totals, r.partials),
         None)
        for i, r in enumerate(fresh)
    ]
    ops += [
        (rng.uniform(0.0, seconds), None, rid)
        for rid in rng.sample([r.rid for r in workload.records], deletes)
    ]
    ops.sort(key=lambda op: op[0])
    return [
        Update(offset, f"u{i}", record=record, rid=rid)
        for i, (offset, record, rid) in enumerate(ops)
    ]


def build_write(ctx: Context, workload):
    from repro.durability import DurabilityConfig, DurabilityManager

    directory = ctx.temp_dir("wal-")
    clock = SetupClock()
    engine = build_engine(workload, clock)
    # The genesis checkpoint, timed on its own; the server then attaches
    # to the directory and finds its base snapshot already written.
    genesis = DurabilityManager(DurabilityConfig(directory, sync="commit"))
    genesis.attach(engine.dataset)
    genesis.detach()
    clock.lap("durability.genesis_s")
    try:
        server = engine.serve(
            workers=WORKERS, cache=True,
            durability=DurabilityConfig(directory, sync="commit"),
        )
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    clock.lap("serving.start_s")
    return Stack(engine, server, directory), clock


@dataclass
class Done:
    tag: str
    start: float
    end: float
    ok: bool
    ttfp: float | None = None
    cold: bool = False


class FirstPoints:
    """Emission-channel subscriber noting when the first points arrived."""

    def __init__(self) -> None:
        self.at: float | None = None

    def __call__(self, kind: str, points: list) -> None:
        if self.at is None and kind == "points" and points:
            self.at = time.perf_counter()


def _writer(server, plan, start: float, out: list, tally: Tally,
            tracer: Tracer | None) -> None:
    for update in plan:
        due = start + update.offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        span = tracer.open("bench.update", update.tag, start=due) if tracer else None
        ok = False
        try:
            if update.record is not None:
                server.insert(update.record)
                ok = True
            else:
                ok = server.delete(update.rid)
        except Exception as err:  # noqa: BLE001 - counted per cause
            tally.fail(failure_cause(err))
        else:
            if ok:
                tally.ok()
            else:
                tally.fail("wrong_answer")
        finally:
            if span is not None:
                tracer.close(span)
        out.append(Done(update.tag, due, time.perf_counter(), ok))


def reader_plan(seed: int) -> list:
    """The reader's query sequence: a cold box, or ``None`` for hot.

    Longer than any 15 s run consumes, so no box repeats (and hits).
    """
    rng = random.Random(f"serve-write/{seed}/reader")
    return [
        {k: tuple(v) for k, v in random_box(rng).items()}
        if rng.random() < WRITE_COLD else None
        for _ in range(20_000)
    ]


def _reader(server, shapes: list, stop_at: float, out: list, tally: Tally,
            tracer: Tracer | None, limit: float) -> None:
    from repro import QueryRequest
    from repro.queries.constrained import Constraint

    i = 0
    while time.perf_counter() < stop_at:
        box = shapes[i % len(shapes)]
        tag = f"r{i}"
        i += 1
        request = QueryRequest(
            algorithm="sdc+", tag=tag,
            constraint=Constraint(ranges=box) if box is not None else None,
        )
        first = FirstPoints()
        start = time.perf_counter()
        span = tracer.open("bench.query", tag, start=start) if tracer else None
        ok = False
        try:
            handle = server.submit(request)
            handle.subscribe(first, replay=True)
            handle.result(timeout=limit)
            ok = True
            tally.ok()
        except Exception as err:  # noqa: BLE001 - counted per cause
            tally.fail(failure_cause(err))
        finally:
            if span is not None:
                tracer.close(span)
        end = time.perf_counter()
        out.append(Done(
            tag, start, end, ok,
            first.at - start if first.at is not None else None,
            box is not None,
        ))


def _write_phase(ctx: Context, stack: Stack, plan, shapes, tally: Tally,
                 tracer: Tracer | None):
    """Run the writer and the reader side by side for one phase.

    Returns the updates, their tally, the reads, the reader's wall time
    (until its last query finished) and the names of stuck threads.
    """
    updates: list[Done] = []
    reads: list[Done] = []
    update_tally = Tally(missed=ctx.cap)
    limit = ctx.seconds + DRAIN
    start = time.perf_counter()
    writer = threading.Thread(
        target=_writer, name="perfbench-writer",
        args=(stack.server, plan, start, updates, update_tally, tracer),
    )
    reader = threading.Thread(
        target=_reader, name="perfbench-reader",
        args=(stack.server, shapes, start + ctx.seconds, reads, tally,
              tracer, limit),
    )
    writer.start()
    reader.start()
    for thread in (writer, reader):
        thread.join(max(0.0, start + limit - time.perf_counter()))
    wall = max((r.end for r in reads), default=start + ctx.seconds) - start
    stuck = [t.name for t in (writer, reader) if t.is_alive()]
    return updates, update_tally, reads, wall, stuck


def _final_records(workload, plan) -> dict:
    """The record set the update stream should leave, by rid."""
    records = {r.rid: r for r in workload.records}
    for update in plan:
        if update.record is not None:
            records[update.record.rid] = update.record
        else:
            records.pop(update.rid, None)
    return records


def _check_final(outcome: Outcome, stack: Stack, workload, records: dict):
    """Live state after the run: records and full-space answer."""
    from repro import QueryRequest, SkylineEngine

    live = {r.rid: r for r in stack.server.dataset.records}
    outcome.check(
        live.keys() == records.keys(),
        f"live dataset holds {len(live)} records, the update stream "
        f"leaves {len(records)}",
    )
    fresh = SkylineEngine(workload.schema, list(records.values()),
                          kernel="numpy")
    want = frozenset(r.rid for r in fresh.skyline("sdc+"))
    result = stack.server.submit(QueryRequest(algorithm="sdc+")).result(
        timeout=DRAIN
    )
    got = frozenset(p.record.rid for p in result.points)
    outcome.check(
        got == want,
        f"server full-space answer ({len(got)} rids) differs from a fresh "
        f"engine over the final records ({len(want)} rids)",
    )
    return want


def _recover(directory, records: dict, want: frozenset, outcome: Outcome,
             tracer: Tracer | None = None) -> float:
    """Time ``recover()`` and check the recovered state equals the live one."""
    from repro import get_algorithm
    from repro.durability import recover

    span = tracer.open("durability.recover") if tracer else None
    started = time.perf_counter()
    try:
        report = recover(directory)
    finally:
        if span is not None:
            tracer.close(span)
    seconds = time.perf_counter() - started
    dataset = report.dataset
    recovered = {r.rid: (r.totals, r.partials) for r in dataset.records}
    outcome.check(
        recovered == {rid: (r.totals, r.partials) for rid, r in records.items()},
        "recovered records differ from the live records",
    )
    got = frozenset(p.record.rid for p in get_algorithm("sdc+").run(dataset))
    outcome.check(got == want,
                  "recovered skyline differs from the live skyline")
    return seconds


def run_write(ctx: Context, outcome: Outcome) -> None:
    workload = instance(RECORDS)
    plan = update_plan(ctx.seed, ctx.seconds, workload)
    shapes = reader_plan(ctx.seed)
    records = _final_records(workload, plan)
    stack, setup_s, steps = repeated_setup(
        lambda: build_write(ctx, workload), teardown
    )
    try:
        started = time.perf_counter()
        _write_warmup(stack)
        warmup_s = time.perf_counter() - started
        updates, update_tally, reads, wall, stuck = _write_phase(
            ctx, stack, plan, shapes, outcome.tally, None
        )
        outcome.check(not stuck, f"threads still running at the cap: {stuck}")
        want = _check_final(outcome, stack, workload, records)
        stack.server.close(wait=True)
        recover_s = median([
            _recover(stack.directory, records, want, outcome)
            for _ in range(3)
        ])
    finally:
        teardown(stack)
    outcome.tally.merge(update_tally)
    summary = _summarize_write(ctx, outcome, updates, reads, wall, recover_s)
    if not ctx.trace:
        fill_end_to_end(outcome, summary["end_to_end"] | {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        })
        return

    trace = ServerTrace()
    tracer = trace.tracer
    stack, _ = build_write(ctx, workload)
    try:
        _write_warmup(stack)
        before = stack.server.metrics.snapshot()
        trace.install(updates=True)
        try:
            _, traced_tally, traced_reads, _, stuck = _write_phase(
                ctx, stack, plan, shapes, outcome.tally, tracer
            )
            outcome.tally.merge(traced_tally)
            outcome.check(not stuck, f"traced threads still running: {stuck}")
            after = stack.server.metrics.snapshot()
            want = _check_final(outcome, stack, workload, records)
            stack.server.close(wait=True)
            _recover(stack.directory, records, want, outcome, tracer)
        finally:
            tracer.restore()
    finally:
        teardown(stack)

    layers = dict(steps)
    layers["warmup_s"] = warmup_s
    layers.update(summary["layers"])
    layers.update(serving_layers(trace, before, after, len(traced_reads)))
    layers.update(_write_layers(tracer, before, after, outcome))
    untraced = median([r.end - r.start for r in reads if r.ok])
    layers["trace.overhead_frac"] = (
        median([r.end - r.start for r in traced_reads if r.ok]) - untraced
    ) / untraced
    layers["trace.unattributed_s"] = median(
        tracer.unattributed(tracer.named("bench.query"))
        + tracer.unattributed(tracer.named("bench.update"))
    )
    layers["loadgen.late_tail_s"] = tail(_writer_lateness(tracer)).value
    fill_layers(outcome, layers)
    check_counts(ctx, outcome, {
        "rtree.reinserts_per_delete": layers["rtree.reinserts_per_delete"],
        "durability.wal_bytes_per_update":
            layers["durability.wal_bytes_per_update"],
    })
    write_spans(ctx, outcome, tracer)


def _write_warmup(stack: Stack) -> None:
    """One hot query and one cold box before timing starts."""
    from repro import QueryRequest
    from repro.queries.constrained import Constraint

    server = stack.server
    box = {name: (400, 400 + BOX) for name in NUMERIC}
    for request in (QueryRequest(algorithm="sdc+"),
                    QueryRequest(algorithm="sdc+",
                                 constraint=Constraint(ranges=box))):
        server.submit(request).result(timeout=DRAIN)


def _writer_lateness(tracer: Tracer) -> list[float]:
    """Per update: seconds from its due time to the start of its server call."""
    calls = {
        span.parent: span for span in tracer.finished()
        if span.name in ("serving.insert", "serving.delete")
    }
    return [
        calls[root.id].start - root.start
        for root in tracer.named("bench.update") if root.id in calls
    ]


def _summarize_write(ctx: Context, outcome: Outcome, updates, reads,
                     wall: float, recover_s: float) -> dict:
    missed = ctx.cap
    update_times = [u.end - u.start if u.ok else missed for u in updates]
    read_times = [r.end - r.start if r.ok else missed for r in reads]
    ttfps = [r.ttfp for r in reads if r.ok and not r.cold
             and r.ttfp is not None]
    update_tail = tail(update_times)
    query_tail = tail(read_times, supported(round(READER_QPS * ctx.seconds)))
    cold = [r.end - r.start for r in reads if r.ok and r.cold]
    hot = [r.end - r.start for r in reads if r.ok and not r.cold]
    outcome.notes.extend([
        f"serve-write: {len(updates)} updates ({INSERT_RATE:g} inserts/s, "
        f"{DELETE_RATE:g} deletes/s) beside a closed-loop reader over "
        f"{RECORDS} records; update tail "
        f"{update_tail.describe()}; reader tail {query_tail.describe()}",
        f"  updates: p50 {median(update_times):.4f}s, tail "
        f"{update_tail.value:.4f}s, max {max(update_times, default=0):.4f}s",
        f"  reader hot: {len(hot)} queries, p50 {median(hot):.5f}s, max "
        f"{max(hot, default=0):.4f}s; cold: {len(cold)} queries, p50 "
        f"{median(cold):.4f}s, max {max(cold, default=0):.4f}s",
        f"  recover: {recover_s:.4f}s (median of 3)",
    ])
    done = sum(1 for r in reads if r.ok)
    return {
        "end_to_end": {
            "throughput_qps": done / wall,
            "query_p50_s": median(read_times),
            "query_tail_s": query_tail.value,
        },
        "layers": {
            "ttfp_p50_s": median(ttfps),
            "update_p50_s": median(update_times),
            "update_tail_s": update_tail.value,
            "recover_s": recover_s,
        },
    }


def _write_layers(tracer: Tracer, before: dict, after: dict,
                  outcome: Outcome) -> dict:
    """repro.transform / repro.rtree (write) / repro.durability metrics.

    Notes the sample size behind each of their medians and tails.
    """
    spans = tracer.finished()
    by_id = {s.id: s for s in spans}

    def under(span, name: str) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    live = [s for s in spans if not under(s, "durability.recover")]
    replay = [s for s in spans if s.name.startswith("transform.")
              and under(s, "durability.recover")]

    def named(name: str) -> list:
        return [s for s in live if s.name == name]

    deletes = durations(named("transform.delete_record"))
    rtree_deletes = named("rtree.delete")
    delete_ids = {s.id for s in rtree_deletes}
    reinserts = sum(1 for s in named("rtree.insert") if s.parent in delete_ids)
    kids = tracer.children()
    lock_waits = []
    for call in named("serving.insert") + named("serving.delete"):
        inner = [k for k in kids.get(call.id, ())
                 if k.name.startswith("transform.")]
        if inner:
            lock_waits.append(inner[0].start - call.start)
    updates = after["updates"] - before["updates"]
    appends = after["durability"]["wal_appends"] - before["durability"]["wal_appends"]
    fsyncs = (after["durability"]["wal_fsync"]["count"]
              - before["durability"]["wal_fsync"]["count"])
    wal_bytes = after["durability"]["wal_bytes"] - before["durability"]["wal_bytes"]
    invalidations = (after["cache"]["invalidations"]
                     - before["cache"]["invalidations"])
    outcome.notes.append("  traced write samples: " + ", ".join(
        f"{name} {len(named(name))}" for name in (
            "transform.insert_record", "transform.delete_record",
            "rtree.delete", "durability.wal_append",
        )
    ) + f", write-lock waits {len(lock_waits)}")
    recovers = tracer.named("durability.recover")
    replay_s = sum(s.seconds for s in replay)
    return {
        "serving.write_lock_wait_p50_s": median(lock_waits),
        "serving.write_lock_wait_tail_s": tail(lock_waits).value,
        "views.patch_p50_s": median(durations(named("views.on_update"))),
        "views.invalidations_per_update": invalidations / max(1, updates),
        "transform.insert_p50_s": median(
            durations(named("transform.insert_record"))
        ),
        "transform.delete_p50_s": median(deletes),
        "transform.delete_tail_s": tail(deletes).value,
        "rtree.delete_p50_s": median(durations(rtree_deletes)),
        "rtree.delete_tail_s": tail(durations(rtree_deletes)).value,
        "rtree.reinserts_per_delete": reinserts / max(1, len(deletes)),
        "durability.wal_append_p50_s": median(
            durations(named("durability.wal_append"))
        ),
        "durability.wal_append_tail_s": tail(
            durations(named("durability.wal_append"))
        ).value,
        "durability.wal_bytes_per_update": wal_bytes / max(1, appends),
        "durability.fsyncs_per_update": fsyncs / max(1, appends),
        "durability.snapshot_load_s": (
            recovers[0].seconds - replay_s if recovers else 0.0
        ),
        "durability.replay_s": replay_s,
    }

