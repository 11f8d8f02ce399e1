"""The ``serve-read`` workload.

An open loop of seeded arrivals over two connections to an in-process
:class:`~repro.net.netserver.NetworkFrontend` on 127.0.0.1 in front of
``SkylineServer(workers=2, cache=True)``: hot repeated shapes
(full-space SDC+, one subspace) mixed with cold one-off constrained
boxes.  Every arrival time and shape is drawn from the seed before
timing starts.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass

from perfbench.common import (
    Context,
    Outcome,
    SetupClock,
    build_engine,
    instance,
    oracle_check,
    repeated_setup,
    write_spans,
)
from perfbench.layers import fill_end_to_end, fill_layers
from perfbench.measure import Tally, failure_cause, median, peak_rss_mb, tail
from perfbench.serving import (
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

CONNECTIONS = 2
#: Open-loop arrivals per second over all connections.
READ_RATE = 10.0
#: Mix by share of arrivals: the median falls among the cache hits
#: (full, subspace) and the tail among the misses (cold).
READ_MIX = (("full", 0.5), ("subspace", 0.2), ("cold", 0.3))
SUBSPACE = ("t0", "p0")


def run(ctx: Context) -> Outcome:
    outcome = Outcome(Tally(missed=ctx.cap))
    oracle_check(ctx, outcome)
    run_read(ctx, outcome)
    return outcome


@dataclass
class Arrival:
    offset: float
    tag: str
    kind: str  # "full" | "subspace" | "cold"
    box: dict | None = None


def read_plan(seed: int, seconds: float, phase: int) -> list[Arrival]:
    """Exactly ``READ_RATE * seconds`` arrivals, uniform over the phase.

    Uniform arrival times given their count are a Poisson process
    conditioned on that count; the class counts are exact shares.
    """
    rng = random.Random(f"serve-read/{seed}/{phase}")
    total = max(1, round(READ_RATE * seconds))
    kinds = []
    for kind, share in READ_MIX:
        kinds += [kind] * round(share * total)
    kinds = (kinds + ["full"] * total)[:total]
    rng.shuffle(kinds)
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(total))
    return [
        Arrival(offset, f"p{phase}q{i}", kind,
                random_box(rng) if kind == "cold" else None)
        for i, (offset, kind) in enumerate(zip(offsets, kinds))
    ]


def warmup_plan(seed: int) -> list[Arrival]:
    """Fill the cache for the hot shapes and touch the cold path twice."""
    rng = random.Random(f"serve-read/{seed}/warm")
    return [Arrival(0.0, "w0", "full"), Arrival(0.0, "w1", "subspace"),
            Arrival(0.05, "w2", "cold", random_box(rng)),
            Arrival(0.05, "w3", "cold", random_box(rng))]


class LoopThread:
    """An asyncio event loop running in its own thread."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-frontend-loop"
        )
        self.thread.start()

    def call(self, coro, timeout: float):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self, timeout: float = 10.0) -> None:
        try:
            self.call(self.loop.shutdown_default_executor(), timeout)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout)
            if not self.thread.is_alive():
                self.loop.close()


def build_read(workload):
    from repro.net.netserver import NetworkFrontend

    clock = SetupClock()
    engine = build_engine(workload, clock)
    stack = Stack(engine, engine.serve(workers=WORKERS, cache=True))
    try:
        stack.loop = LoopThread()
        stack.frontend = NetworkFrontend(stack.server)
        stack.address = stack.loop.call(stack.frontend.start(), 10.0)
    except BaseException:
        teardown(stack)
        raise
    clock.lap("serving.start_s")
    return stack, clock


@dataclass
class Reply:
    arrival: Arrival
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    ttfp: float | None = None
    wire: float | None = None


def _expected_read(engine, plans) -> dict:
    """The engine's answer for every shape the plans ask, computed once."""
    from repro.queries.constrained import Constraint

    expected = {
        "full": frozenset(r.rid for r in engine.skyline("sdc+")),
        "subspace": frozenset(
            r.rid for r in engine.subspace(list(SUBSPACE), algorithm="sdc+")
        ),
    }
    for plan in plans:
        for arrival in plan:
            if arrival.kind == "cold":
                ranges = {k: tuple(v) for k, v in arrival.box.items()}
                expected[arrival.tag] = frozenset(
                    r.rid for r in engine.constrained(Constraint(ranges=ranges))
                )
    return expected


def _fields(arrival: Arrival) -> dict:
    fields = {"algorithm": "sdc+", "tag": arrival.tag}
    if arrival.kind == "subspace":
        fields["subspace"] = list(SUBSPACE)
    elif arrival.kind == "cold":
        fields["constraint"] = {"ranges": arrival.box}
    return fields


async def _ask(client, arrival: Arrival, reply: Reply, expected: dict,
               tally: Tally, limit: float) -> None:
    from repro.exceptions import RemoteQueryError

    reply.sent = time.perf_counter()
    try:
        stream = await client.query(qid=arrival.tag, **_fields(arrival))
        result = await asyncio.wait_for(stream.result(), limit)
    except (RemoteQueryError, asyncio.TimeoutError) as err:
        reply.done = time.perf_counter()
        tally.fail("timeout" if isinstance(err, asyncio.TimeoutError)
                   else failure_cause(err))
        return
    except Exception:  # noqa: BLE001 - counted, the loop goes on
        reply.done = time.perf_counter()
        tally.fail("exception")
        return
    reply.done = time.perf_counter()
    key = arrival.tag if arrival.kind == "cold" else arrival.kind
    if frozenset(p["rid"] for p in result.points) != expected[key]:
        tally.fail("wrong_answer")
        return
    reply.ok = True
    reply.ttfp = result.time_to_first_point
    reply.wire = result.time_to_done - result.elapsed
    tally.ok()


async def _read_phase(address, plan, expected, tally: Tally,
                      limit: float) -> tuple[list[Reply], float]:
    from repro.net.client import SkylineClient

    clients = []
    try:
        for _ in range(CONNECTIONS):
            clients.append(await SkylineClient.connect(*address))
        tasks, replies = [], []
        start = time.perf_counter()
        for i, arrival in enumerate(plan):
            due = start + arrival.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            reply = Reply(arrival, due)
            replies.append(reply)
            tasks.append(asyncio.ensure_future(_ask(
                clients[i % CONNECTIONS], arrival, reply, expected, tally,
                limit,
            )))
        await asyncio.gather(*tasks)
        return replies, time.perf_counter() - start
    finally:
        for client in clients:
            await client.close()


def run_read(ctx: Context, outcome: Outcome) -> None:
    workload = instance(RECORDS)
    stack, setup_s, steps = repeated_setup(
        lambda: build_read(workload), teardown
    )
    try:
        warm_plan = warmup_plan(ctx.seed)
        plans = [read_plan(ctx.seed, ctx.seconds, 0)]
        if ctx.trace:
            plans.append(read_plan(ctx.seed, ctx.seconds, 1))
        expected = _expected_read(stack.engine, plans + [warm_plan])

        warm = Tally(missed=ctx.cap)
        started = time.perf_counter()
        asyncio.run(_read_phase(stack.address, warm_plan, expected, warm,
                                DRAIN))
        warmup_s = time.perf_counter() - started
        outcome.check(warm.failed == 0, f"warm-up failed: {warm.describe()}")

        limit = ctx.seconds + DRAIN
        replies, wall = asyncio.run(_read_phase(
            stack.address, plans[0], expected, outcome.tally, limit
        ))
        summary = _summarize_read(ctx, outcome, replies, wall)
        if not ctx.trace:
            fill_end_to_end(outcome, summary["end_to_end"] | {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
            })
            return

        trace = ServerTrace()
        server = stack.server
        before = server.metrics.snapshot()
        trace.install(updates=False)
        try:
            traced, _ = asyncio.run(_read_phase(
                stack.address, plans[1], expected, outcome.tally, limit
            ))
        finally:
            trace.tracer.restore()
        after = server.metrics.snapshot()
    finally:
        teardown(stack)

    tracer = trace.tracer
    for reply in traced:
        tracer.record("bench.query", reply.due, reply.done, reply.arrival.tag)
    layers = dict(steps)
    layers["warmup_s"] = warmup_s
    layers.update(summary["layers"])
    layers.update(serving_layers(trace, before, after, len(traced)))
    queries = after["net"]["queries"] - before["net"]["queries"]
    frames = (after["net"]["frames_in"] + after["net"]["frames_out"]
              - before["net"]["frames_in"] - before["net"]["frames_out"])
    wire_bytes = (after["net"]["bytes_in"] + after["net"]["bytes_out"]
                  - before["net"]["bytes_in"] - before["net"]["bytes_out"])
    layers["net.wire_p50_s"] = median(
        [r.wire for r in traced if r.wire is not None]
    )
    layers["net.encode_p50_s"] = median(durations(tracer.named("net.encode")))
    layers["net.decode_p50_s"] = median(_decode_times(trace.frames))
    layers["net.bytes_per_query"] = wire_bytes / max(1, queries)
    layers["net.frames_per_query"] = frames / max(1, queries)
    layers["loadgen.late_tail_s"] = tail(
        [r.sent - r.due for r in traced]
    ).value
    untraced = median([r.done - r.due for r in replies])
    layers["trace.overhead_frac"] = (
        median([r.done - r.due for r in traced]) - untraced
    ) / untraced
    layers["trace.unattributed_s"] = median(
        tracer.unattributed(tracer.named("bench.query"))
    )
    fill_layers(outcome, layers)
    write_spans(ctx, outcome, tracer)


def _decode_times(frames: list[bytes]) -> list[float]:
    """Time the public frame decoder over the frames the server sent."""
    from repro.net.protocol import FrameReader

    times = []
    for data in frames:
        reader = FrameReader()
        started = time.perf_counter()
        reader.feed(data)
        times.append(time.perf_counter() - started)
    return times


def _summarize_read(ctx: Context, outcome: Outcome, replies, wall: float):
    missed = ctx.cap
    latencies = [r.done - r.due if r.ok else missed for r in replies]
    late = [r.sent - r.due for r in replies]
    ttfps = [r.ttfp for r in replies
             if r.ok and r.arrival.kind == "full" and r.ttfp is not None]
    # The plan fixes the arrival count, so every run of a given --seconds
    # takes its tail at the same percentile.
    query_tail = tail(latencies)
    for kind, _ in READ_MIX:
        times = [r.done - r.due for r in replies
                 if r.ok and r.arrival.kind == kind]
        outcome.notes.append(
            f"  {kind}: {len(times)} queries, p50 {median(times):.4f}s, "
            f"max {max(times, default=0.0):.4f}s"
        )
    outcome.notes.insert(0, (
        f"serve-read: {len(replies)} arrivals at {READ_RATE:g}/s over "
        f"{CONNECTIONS} connections, {RECORDS} records; query tail "
        f"{query_tail.describe()}; ttfp over {len(ttfps)} full-space SDC+ "
        f"queries; generator lateness {tail(late).describe()} = "
        f"{tail(late).value:.4f}s"
    ))
    done = sum(1 for r in replies if r.ok)
    return {
        "end_to_end": {
            "throughput_qps": done / wall,
            "query_p50_s": median(latencies),
            "query_tail_s": query_tail.value,
        },
        "layers": {"ttfp_p50_s": median(ttfps)},
    }

