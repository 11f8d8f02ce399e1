"""End-to-end tests of the asyncio network front-end.

Each test runs a real :class:`~repro.serving.server.SkylineServer`
behind a :class:`~repro.net.netserver.NetworkFrontend` on an ephemeral
port and drives it with the asyncio client over actual TCP.  Every wait
is bounded (``asyncio.wait_for``), so a hang is a test failure, not a
stuck suite.
"""

from __future__ import annotations

import asyncio
import random
import struct
from types import SimpleNamespace

import pytest

from repro.core.record import Record
from repro.core.schema import NumericAttribute, PosetAttribute, Schema
from repro.engine import SkylineEngine
from repro.exceptions import RemoteQueryError
from repro.net.client import SkylineClient
from repro.net.netserver import NetworkConfig, NetworkFrontend, _QueryStream
from repro.net.protocol import PROTOCOL_VERSION, read_frame, write_frame
from repro.posets.builder import diamond
from repro.resilience import execute
from repro.resilience.chaos import FaultInjector, inject_kernel_faults
from repro.serving import QueryRequest, SkylineServer
from repro.serving.metrics import ServerMetrics
from repro.serving.overload import OverloadConfig, RetryPolicy

TIMEOUT = 30.0


def _mixed_engine(kernel: str = "python", n: int = 150) -> SkylineEngine:
    rng = random.Random(23)
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
            (rng.randint(1, 40), rng.randint(1, 40)),
            (poset.value(rng.randrange(len(poset))),),
        )
        for i in range(n)
    ]
    return SkylineEngine(schema, records, kernel=kernel)


def _wide_engine(n: int = 400, dims: int = 5) -> SkylineEngine:
    """Higher-dimensional workload: a large skyline and slower queries
    (the 2-d mixed engine's skyline is <10 points and finishes in
    milliseconds -- useless for streaming/cancellation tests)."""
    rng = random.Random(23)
    poset = diamond()
    schema = Schema(
        [NumericAttribute(f"d{i}", "min") for i in range(dims)]
        + [PosetAttribute.set_valued("p", poset)]
    )
    records = [
        Record(
            i,
            tuple(rng.randint(1, 100) for _ in range(dims)),
            (poset.value(rng.randrange(len(poset))),),
        )
        for i in range(n)
    ]
    return SkylineEngine(schema, records, kernel="python")


def _fake_point(i: int):
    return SimpleNamespace(
        record=SimpleNamespace(rid=i, totals=(i,), partials=())
    )


class _Frontend:
    """Async context manager: server + frontend on an ephemeral port."""

    def __init__(self, server: SkylineServer, config: NetworkConfig | None = None):
        self.server = server
        self.frontend = NetworkFrontend(server, config)

    async def __aenter__(self):
        self.host, self.port = await self.frontend.start()
        return self

    async def __aexit__(self, *exc):
        await self.frontend.close()
        self.server.close()

    async def connect(self) -> SkylineClient:
        return await SkylineClient.connect(self.host, self.port)


def _serve(engine, config=None, **server_kwargs) -> _Frontend:
    server_kwargs.setdefault("workers", 2)
    return _Frontend(SkylineServer(engine, **server_kwargs), config)


async def _wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(0.02)


class TestProgressiveDelivery:
    def test_points_frames_arrive_before_done_for_multi_stratum_query(self):
        engine = _wide_engine(n=400)
        reference = execute(engine.dataset, "sdc+").points

        async def main():
            # Small frame batches force genuinely progressive framing.
            async with _serve(
                engine, NetworkConfig(points_per_frame=8)
            ) as env:
                client = await env.connect()
                try:
                    stream = await client.query(algorithm="sdc+")
                    kinds = []
                    async for kind, _payload in stream.events():
                        kinds.append(kind)
                    result = await asyncio.wait_for(
                        stream.result(), timeout=TIMEOUT
                    )
                finally:
                    await client.close()
                return kinds, result

        kinds, result = asyncio.run(main())
        assert result.complete
        # At least one POINTS frame strictly precedes DONE, and the
        # stratified answer arrives across multiple frames.
        assert "points" in kinds
        assert result.point_frames >= 2
        assert result.time_to_first_point is not None
        assert result.time_to_first_point <= result.time_to_done
        assert [p["rid"] for p in result.points] == [
            p.record.rid for p in reference
        ]

    def test_remote_result_matches_local_execution(self):
        engine = _mixed_engine(n=150)
        reference = execute(engine.dataset, "bnl+").points

        async def main():
            async with _serve(engine) as env:
                client = await env.connect()
                try:
                    return await asyncio.wait_for(
                        client.execute(algorithm="bnl+"), timeout=TIMEOUT
                    )
                finally:
                    await client.close()

        result = asyncio.run(main())
        assert result.complete
        assert [p["rid"] for p in result.points] == [
            p.record.rid for p in reference
        ]

    def test_cache_hit_streams_through_replay_with_cached_flag(self):
        engine = _mixed_engine(n=150)

        async def main():
            async with _serve(engine, cache=True, warm=False) as env:
                client = await env.connect()
                try:
                    first = await asyncio.wait_for(
                        client.execute(algorithm="sdc+"), timeout=TIMEOUT
                    )
                    second = await asyncio.wait_for(
                        client.execute(algorithm="sdc+"), timeout=TIMEOUT
                    )
                finally:
                    await client.close()
                return first, second

        first, second = asyncio.run(main())
        assert not first.cached
        assert second.cached
        assert second.point_frames >= 1
        # The cache stores the answer in canonical (not emission) order;
        # the hit must stream the same answer set.
        assert sorted(p["rid"] for p in second.points) == sorted(
            p["rid"] for p in first.points
        )


class TestCancellation:
    def test_cancel_frame_terminates_stream_with_cancelled_error(self):
        engine = _wide_engine(n=5000)

        async def main():
            async with _serve(engine, workers=1) as env:
                client = await env.connect()
                try:
                    blocker = await client.query(algorithm="bnl")
                    victim = await client.query(algorithm="bnl")
                    # Let the victim register server-side (it is queued
                    # behind the blocker on the single worker).
                    await asyncio.sleep(0.1)
                    await victim.cancel()
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await asyncio.wait_for(
                            victim.result(), timeout=TIMEOUT
                        )
                    blocked = await asyncio.wait_for(
                        blocker.result(), timeout=TIMEOUT
                    )
                finally:
                    await client.close()
                return excinfo.value, blocked

        error, blocked = asyncio.run(main())
        assert error.code == "cancelled"
        assert blocked.complete  # the other stream is unaffected

    def test_disconnect_mid_stream_cancels_and_server_returns_idle(self):
        engine = _wide_engine(n=5000)

        async def main():
            async with _serve(engine, workers=1) as env:
                server = env.server
                client = await env.connect()
                await client.query(algorithm="bnl")
                await client.query(algorithm="bnl")
                await asyncio.sleep(0.1)  # both in flight server-side
                # Hard-abort the transport mid-stream: disconnect==cancel.
                client._writer.transport.abort()
                await client.close()
                await _wait_until(
                    lambda: server.metrics.in_flight == 0
                    and not server._inflight
                    and server.metrics.snapshot()["net"]["connections"][
                        "active"
                    ]
                    == 0
                )
                return server.metrics.snapshot()

        snapshot = asyncio.run(main())
        net = snapshot["net"]
        assert net["disconnect_cancellations"] >= 1
        assert snapshot["queue"]["in_flight"] == 0


class TestProtocolViolations:
    def test_malformed_frame_answered_with_typed_error_then_close(self):
        engine = _mixed_engine(n=60)

        async def main():
            async with _serve(engine) as env:
                reader, writer = await asyncio.open_connection(
                    env.host, env.port
                )
                try:
                    write_frame(
                        writer, {"type": "hello", "protocol": PROTOCOL_VERSION}
                    )
                    await writer.drain()
                    hello, _ = await asyncio.wait_for(
                        read_frame(reader), timeout=TIMEOUT
                    )
                    assert hello["type"] == "hello"
                    # A frame whose CRC does not match its payload.
                    body = b'{"type":"metrics"}'
                    writer.write(struct.pack("!II", len(body), 0) + body)
                    await writer.drain()
                    received = await asyncio.wait_for(
                        read_frame(reader), timeout=TIMEOUT
                    )
                    assert received is not None
                    error, _ = received
                    # ... and then the server closes the connection.
                    assert (
                        await asyncio.wait_for(
                            read_frame(reader), timeout=TIMEOUT
                        )
                        is None
                    )
                finally:
                    writer.close()
                return error, env.server.metrics.snapshot()["net"]

        error, net = asyncio.run(main())
        assert error["type"] == "error"
        assert error["code"] == "protocol"
        assert net["malformed_frames"] >= 1

    def test_handshake_version_mismatch_rejected(self):
        engine = _mixed_engine(n=60)

        async def main():
            async with _serve(engine) as env:
                reader, writer = await asyncio.open_connection(
                    env.host, env.port
                )
                try:
                    write_frame(writer, {"type": "hello", "protocol": 99})
                    await writer.drain()
                    received = await asyncio.wait_for(
                        read_frame(reader), timeout=TIMEOUT
                    )
                    assert received is not None
                    error, _ = received
                    assert (
                        await asyncio.wait_for(
                            read_frame(reader), timeout=TIMEOUT
                        )
                        is None
                    )
                finally:
                    writer.close()
                return error

        error = asyncio.run(main())
        assert error["code"] == "protocol"
        assert "protocol 1" in error["message"]

    def test_client_sending_server_only_frame_is_rejected(self):
        engine = _mixed_engine(n=60)

        async def main():
            async with _serve(engine) as env:
                reader, writer = await asyncio.open_connection(
                    env.host, env.port
                )
                try:
                    write_frame(
                        writer, {"type": "hello", "protocol": PROTOCOL_VERSION}
                    )
                    await writer.drain()
                    await asyncio.wait_for(read_frame(reader), timeout=TIMEOUT)
                    write_frame(
                        writer,
                        {"type": "points", "qid": 1, "seq": 0, "points": []},
                    )
                    await writer.drain()
                    error, _ = await asyncio.wait_for(
                        read_frame(reader), timeout=TIMEOUT
                    )
                finally:
                    writer.close()
                return error

        error = asyncio.run(main())
        assert error["code"] == "protocol"
        assert "must not send" in error["message"]

    def test_unknown_algorithm_surfaces_as_typed_serving_error(self):
        engine = _mixed_engine(n=60)

        async def main():
            async with _serve(engine) as env:
                client = await env.connect()
                try:
                    with pytest.raises(RemoteQueryError) as excinfo:
                        await asyncio.wait_for(
                            client.execute(algorithm="not-an-algorithm"),
                            timeout=TIMEOUT,
                        )
                finally:
                    await client.close()
                return excinfo.value

        error = asyncio.run(main())
        assert error.code == "invalid-request"


class TestRateLimiting:
    def test_bucket_exhaustion_returns_rate_limited_with_retry_after(self):
        engine = _mixed_engine(n=150)
        # A near-zero refill rate: the burst covers the first priced
        # queries, then the bucket runs dry and stays dry.
        config = NetworkConfig(rate=0.01, burst=8.0)

        async def main():
            async with _serve(engine, config) as env:
                client = await env.connect()
                successes = 0
                try:
                    with pytest.raises(RemoteQueryError) as excinfo:
                        for _ in range(20):
                            await asyncio.wait_for(
                                client.execute(algorithm="sdc+"),
                                timeout=TIMEOUT,
                            )
                            successes += 1
                finally:
                    await client.close()
                return successes, excinfo.value, env.server.metrics.snapshot()

        successes, error, snapshot = asyncio.run(main())
        assert successes >= 1  # the burst admitted at least one query
        assert error.code == "rate-limited"
        assert error.detail["cost"] > 1.0
        assert error.detail["retry_after"] > 0.0
        assert snapshot["net"]["rate_limited"] >= 1


class TestSlowConsumer:
    """Deterministic pause/shed unit tests of the per-query stream.

    Real sockets absorb small result sets in kernel buffers, so the
    bounds are exercised directly against a fake connection; the e2e
    integration path is covered by the bench's chaos pass.
    """

    @staticmethod
    def _fake_conn(config: NetworkConfig):
        sent = []
        metrics = ServerMetrics()

        async def send(frame):
            sent.append(frame)

        conn = SimpleNamespace(
            loop=None,
            frontend=SimpleNamespace(config=config, metrics=metrics),
            streams={},
            send=send,
        )
        return conn, sent, metrics

    def test_soft_bound_pauses_and_drain_resumes(self):
        config = NetworkConfig(pending_soft=5, pending_hard=100,
                               points_per_frame=512)
        conn, sent, metrics = self._fake_conn(config)

        async def main():
            stream = _QueryStream(
                conn,
                qid=1,
                handle=SimpleNamespace(
                    _error=None,
                    _result=SimpleNamespace(
                        complete=True,
                        exhausted_reason=None,
                        elapsed=0.0,
                        points=[],
                        cached=False,
                        fallback=False,
                    ),
                    outcome="completed",
                    cancel=lambda: True,
                ),
            )
            conn.streams[1] = stream
            stream._on_event(
                "points", [_fake_point(i) for i in range(6)]
            )  # > soft bound
            assert stream.paused
            assert metrics.net_backpressure_pauses == 1
            # Draining below the soft bound releases the pause.
            pump = asyncio.ensure_future(stream.pump())
            await _wait_until(lambda: not stream.pending, timeout=5.0)
            assert not stream.paused
            stream._on_finished()
            await asyncio.wait_for(pump, timeout=5.0)

        asyncio.run(main())
        assert [f["type"] for f in sent] == ["points", "done"] or [
            f["type"] for f in sent
        ] == ["points", "error"]

    def test_hard_bound_sheds_cancels_and_sends_typed_error(self):
        config = NetworkConfig(pending_soft=5, pending_hard=10)
        conn, sent, metrics = self._fake_conn(config)
        cancelled = []

        async def main():
            stream = _QueryStream(
                conn,
                qid=7,
                handle=SimpleNamespace(
                    _result=None, cancel=lambda: cancelled.append(True)
                ),
            )
            conn.streams[7] = stream
            batch = [_fake_point(i) for i in range(6)]
            stream._on_event("points", batch)   # pause
            stream._on_event("points", batch)   # 12 > hard: shed
            assert stream.shed
            assert stream.pending == []  # dropped, not buffered
            await asyncio.wait_for(stream.pump(), timeout=5.0)

        asyncio.run(main())
        assert cancelled  # the query's cancellation token was tripped
        assert metrics.net_slow_consumer_sheds == 1
        assert len(sent) == 1
        assert sent[0]["type"] == "error"
        assert sent[0]["code"] == "slow-consumer"
        assert sent[0]["qid"] == 7
        # Later emissions for a shed stream are ignored, not buffered.
        assert conn.streams == {}

    def test_slow_but_reading_client_completes_without_hang(self):
        engine = _wide_engine(n=400)

        async def main():
            async with _serve(
                engine, NetworkConfig(points_per_frame=4, send_queue_frames=4)
            ) as env:
                client = await env.connect()
                try:
                    stream = await client.query(algorithm="sdc+")
                    batches = 0
                    async for _batch in stream:
                        batches += 1
                        await asyncio.sleep(0.005)  # slow consumer, reading
                    result = await asyncio.wait_for(
                        stream.result(), timeout=TIMEOUT
                    )
                finally:
                    await client.close()
                return batches, result

        batches, result = asyncio.run(main())
        assert result.complete
        assert batches >= 2


class TestRetryReset:
    def test_server_side_retry_sends_reset_before_reemission(self):
        engine = _wide_engine(n=1500)
        reference = execute(engine.dataset, "sdc+").points
        # One transient kernel fault mid-query (~40% through the ~48k
        # instrumented calls, so well after the stream subscribes): the
        # server retries and the wire stream retracts the prefix with a
        # typed RESET frame before re-emission.
        inject_kernel_faults(
            engine.dataset,
            FaultInjector(seed=5, fail_after=20_000, max_faults=1),
        )

        async def main():
            async with _serve(
                engine,
                workers=1,
                overload=OverloadConfig(
                    retry=RetryPolicy(
                        max_attempts=3, base_delay=0.01, max_delay=0.02, seed=5
                    ),
                    watchdog=False,
                ),
            ) as env:
                client = await env.connect()
                try:
                    result = await asyncio.wait_for(
                        client.execute(algorithm="sdc+"), timeout=TIMEOUT
                    )
                finally:
                    await client.close()
                return result, env.server.metrics

        result, metrics = asyncio.run(main())
        assert metrics.retries == 1
        assert result.complete
        assert result.resets >= 1
        assert metrics.net_resets_sent >= 1
        assert [p["rid"] for p in result.points] == [
            p.record.rid for p in reference
        ]


class TestMetricsFrame:
    def test_metrics_frame_returns_snapshot_with_net_section(self):
        engine = _mixed_engine(n=60)

        async def main():
            async with _serve(engine) as env:
                client = await env.connect()
                try:
                    await asyncio.wait_for(
                        client.execute(algorithm="sdc+"), timeout=TIMEOUT
                    )
                    return await asyncio.wait_for(
                        client.metrics(), timeout=TIMEOUT
                    )
                finally:
                    await client.close()

        snapshot = asyncio.run(main())
        net = snapshot["net"]
        assert net["connections"]["opened"] >= 1
        assert net["queries"] >= 1
        assert net["frames_in"] >= 2
        assert net["frames_out"] >= 2
        assert net["points_sent"] >= 1
        assert "time_to_first_point" in net
