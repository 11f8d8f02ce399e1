"""What the ``serve-read`` and ``serve-write`` workloads share.

Both serve the 20K-record Table-1 default instance on the numpy kernel
through ``SkylineServer(workers=2, cache=True)``.  This module tears a
server stack down, wraps the serving path's public functions for the
traced run, and turns the spans and ``ServerMetrics`` snapshots into
per-layer metrics.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, field

from perfbench.common import NUMERIC, counter_layers
from perfbench.measure import median, tail
from perfbench.tracing import Tracer

RECORDS = 20_000
WORKERS = 2
#: Side of a cold box on the numeric attributes (domain 1..1000).  Small
#: enough that a hit rarely waits for the interpreter lock behind a
#: miss that is computing.
BOX = 150
#: Extra seconds a phase may take to drain before it counts as stuck.
DRAIN = 60.0


def random_box(rng: random.Random) -> dict:
    ranges = {}
    for name in NUMERIC:
        low = rng.randint(1, 1000 - BOX)
        ranges[name] = [low, low + BOX]
    return ranges


@dataclass
class Stack:
    engine: object
    server: object
    directory: object = None
    loop: object = None
    frontend: object = None
    address: tuple = ()


def teardown(stack: Stack) -> None:
    """Close the frontend, its loop thread and the server; drop the WAL."""
    try:
        if stack.frontend is not None and stack.address:
            stack.loop.call(stack.frontend.close(), 10.0)
    finally:
        try:
            if stack.loop is not None:
                stack.loop.close()
        finally:
            if not stack.server.closed:
                stack.server.close(wait=True)
            if stack.directory is not None:
                shutil.rmtree(stack.directory, ignore_errors=True)


@dataclass
class ServerTrace:
    """Handles and frames the traced phase keeps for its layer metrics."""

    tracer: Tracer = field(default_factory=Tracer)
    handles: list = field(default_factory=list)
    frames: list = field(default_factory=list)

    def install(self, updates: bool) -> None:
        import repro.net.netserver
        import repro.net.protocol
        import repro.serving.server
        from repro.serving.admission import AdmissionController
        from repro.serving.server import SkylineServer
        from repro.views.manager import ViewManager

        tracer = self.tracer

        def submitted(args, kwargs, handle) -> None:
            tracer.bind(handle.cancel_token, handle.request.tag)
            self.handles.append(handle)

        def encoded(args, kwargs, data) -> None:
            if args[0].get("type") in ("points", "done"):
                self.frames.append(data)

        def frame_tag(args, kwargs):
            return args[0].get("qid")

        def request_tag(args, kwargs):
            request = args[1] if len(args) > 1 else kwargs.get("request")
            return getattr(request, "tag", None)

        tracer.patch(SkylineServer, "submit", "serving.submit",
                     tag_of=request_tag, on_result=submitted)
        tracer.patch(AdmissionController, "decide", "serving.admission",
                     tag_of=request_tag)
        tracer.patch(ViewManager, "lookup", "views.lookup")
        tracer.patch(repro.serving.server, "execute", "resilience.execute",
                     key_of=lambda a, k: id(a[2].cancel))
        tracer.patch(repro.net.netserver, "encode_frame", "net.encode",
                     tag_of=frame_tag, on_result=encoded)
        tracer.patch(repro.net.protocol, "encode_frame", "net.encode",
                     tag_of=frame_tag)
        if updates:
            import repro.durability.recovery
            from repro.durability.wal import WriteAheadLog
            from repro.rtree.rstar import RStarTree
            from repro.transform.dataset import TransformedDataset

            tracer.patch(SkylineServer, "insert", "serving.insert")
            tracer.patch(SkylineServer, "delete", "serving.delete")
            tracer.patch(ViewManager, "on_update", "views.on_update")
            tracer.patch(TransformedDataset, "insert_record",
                         "transform.insert_record")
            tracer.patch(TransformedDataset, "delete_record",
                         "transform.delete_record")
            tracer.patch(RStarTree, "insert", "rtree.insert")
            tracer.patch(RStarTree, "delete", "rtree.delete")
            tracer.patch(WriteAheadLog, "append", "durability.wal_append")
            tracer.patch(repro.durability.recovery, "rebuild_dataset",
                         "durability.rebuild_dataset")


def durations(spans) -> list[float]:
    return [s.seconds for s in spans]


def serving_layers(trace: ServerTrace, before: dict, after: dict,
                   queries: int) -> dict:
    """The repro.serving / repro.views / repro.core metrics of one phase."""
    tracer = trace.tracer
    handles = [h for h in trace.handles if h.done()]
    misses = []
    for handle in handles:
        try:
            if not handle.result(timeout=0).cached:
                misses.append(handle)
        except Exception:  # noqa: BLE001 - failed queries have no result
            continue
    waits = [h.queue_wait for h in misses if h.queue_wait is not None]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    refused = (
        after["admission"]["rejected_total"]
        - before["admission"]["rejected_total"]
        + after["overload"]["shed_total"] - before["overload"]["shed_total"]
    )
    layers = {
        "serving.submit_p50_s": median(durations(tracer.named("serving.submit"))),
        "serving.admission_p50_s": median(
            durations(tracer.named("serving.admission"))
        ),
        "serving.queue_wait_p50_s": median(waits),
        "serving.queue_wait_tail_s": tail(waits).value,
        "serving.exec_p50_s": median(
            [h.finished_at - h.started_at for h in misses]
        ),
        "serving.refused": refused,
        "views.hit_ratio": hits / lookups if lookups else 0.0,
        "views.lookup_p50_s": median(durations(tracer.named("views.lookup"))),
        "views.evictions": (
            after["cache"]["evictions"] - before["cache"]["evictions"]
        ),
    }
    totals = {
        name: after["comparison_totals"][name]
        - before["comparison_totals"].get(name, 0)
        for name in after["comparison_totals"]
    }
    layers.update(counter_layers(totals, queries))
    layers["resilience.kernel_fallbacks"] = (
        after["recovery"]["kernel_fallbacks"]
        - before["recovery"]["kernel_fallbacks"]
    )
    return layers
