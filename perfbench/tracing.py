"""Span recorder for the traced run.

A :class:`Tracer` records spans -- name, start, end, parent and request
id -- in memory and writes them out when the run ends.  Spans come from
two places:

* the benchmark's own code, which opens a root span per operation
  (:meth:`Tracer.record` for an interval it timed itself, such as an
  open-loop query timed from when it was due);
* public functions of the program that :meth:`Tracer.patch` wraps for
  the traced run only.  A wrapper is installed where the caller looks
  the function up (a class attribute for a method, the importing
  module's global for a function) and :meth:`Tracer.restore` puts the
  original back.

A span's parent is the span open on the same thread when it started.
Its request id is given explicitly, inherited from that parent, or
resolved at write-out from a key the benchmark registered (for work a
server thread runs on behalf of a request).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from perfbench.measure import median


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    tag: str | None
    key: int | None
    thread: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.key_tags: dict[int, str] = {}
        #: Objects whose ``id`` serves as a key, kept alive so that no
        #: id is reused while the trace may still resolve it.
        self._keyed: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, tag: str | None = None,
             key: int | None = None, start: float | None = None) -> Span:
        """Open a span on this thread (``start`` backdates it)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and tag is None and key is None:
            tag, key = parent.tag, parent.key
        span = Span(
            next(self._ids), name,
            time.perf_counter() if start is None else start, 0.0,
            parent.id if parent is not None else None, tag, key,
            threading.current_thread().name,
        )
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def record(self, name: str, start: float, end: float,
               tag: str | None = None) -> Span:
        """Store an interval the benchmark timed itself (a root span)."""
        span = Span(next(self._ids), name, start, end, None, tag, None,
                    threading.current_thread().name)
        self.spans.append(span)
        return span

    def bind(self, obj, tag: str) -> None:
        """Resolve spans keyed by ``id(obj)`` to request ``tag``."""
        self._keyed.append(obj)
        self.key_tags[id(obj)] = tag

    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, name: str, *, tag_of=None,
              key_of=None, on_result=None) -> None:
        """Wrap ``owner.attr`` so each call records a span ``name``.

        ``tag_of(args, kwargs)`` / ``key_of(args, kwargs)`` give the
        request id (or a key resolved later); ``on_result(args, kwargs,
        result)`` sees each return value after the span closed.
        """
        original = getattr(owner, attr)
        owned = attr in vars(owner)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(
                name,
                tag_of(args, kwargs) if tag_of is not None else None,
                key_of(args, kwargs) if key_of is not None else None,
            )
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, owned))

    def restore(self) -> None:
        """Put every wrapped function back, last patch first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def finished(self) -> list[Span]:
        """Closed spans with their keys resolved to request ids."""
        out = []
        for span in self.spans:
            if span.end <= 0.0:
                continue
            if span.tag is None and span.key is not None:
                span.tag = self.key_tags.get(span.key)
            out.append(span)
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.finished() if s.name == name]

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = defaultdict(list)
        for span in self.finished():
            if span.parent is not None:
                kids[span.parent].append(span)
        return kids

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total time, self time and median.

        Self time is a span's duration minus the time its children (the
        spans nested in it on the same thread) cover.
        """
        kids = self.children()
        rows: dict[str, dict] = {}
        durations: dict[str, list[float]] = defaultdict(list)
        for span in self.finished():
            covered = sum(child.seconds for child in kids.get(span.id, ()))
            row = rows.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.seconds
            row["self_s"] += max(0.0, span.seconds - covered)
            durations[span.name].append(span.seconds)
        for name, row in rows.items():
            row["p50_s"] = median(durations[name])
        return dict(sorted(rows.items()))

    def unattributed(self, roots: list[Span]) -> list[float]:
        """Per root span: the time no other span of its request covers."""
        by_tag: dict[str, list[Span]] = defaultdict(list)
        for span in self.finished():
            if span.tag is not None:
                by_tag[span.tag].append(span)
        gaps = []
        for root in roots:
            intervals = sorted(
                (max(s.start, root.start), min(s.end, root.end))
                for s in by_tag.get(root.tag, ())
                if s is not root and s.end > root.start and s.start < root.end
            )
            covered, reach = 0.0, root.start
            for lo, hi in intervals:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            gaps.append(max(0.0, root.seconds - covered))
        return gaps

    def write(self, path: Path, header: dict) -> None:
        """Write the spans and the per-layer table as one JSON document."""
        spans = self.finished()
        origin = min((s.start for s in spans), default=0.0)
        document = dict(header)
        document["layers"] = self.layer_table()
        document["span_fields"] = [
            "id", "name", "start_s", "end_s", "parent", "tag", "thread"
        ]
        document["spans"] = [
            [s.id, s.name, round(s.start - origin, 9),
             round(s.end - origin, 9), s.parent, s.tag, s.thread]
            for s in spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
