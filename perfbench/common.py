"""Shared run context, result shape, set-up timing and resource hygiene."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.measure import Tally, median

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Numeric attributes of the Table-1 default schema.
NUMERIC = ("t0", "t1")

#: Algorithm names as they appear in metric names (``+`` is not allowed).
LABELS = {
    "bnl": "bnl",
    "bnl+": "bnl-plus",
    "bbs+": "bbs-plus",
    "sdc": "sdc",
    "sdc+": "sdc-plus",
}

#: The Fig. 12(a) lineup.
LINEUP = tuple(LABELS)

#: ComparisonStats fields summed into each per-query counter metric.
COUNTERS = {
    "algorithms.window_inserts_per_query": ("window_inserts",),
    "core.point_checks_per_query": ("m_dominance_point",),
    "core.mbr_checks_per_query": ("m_dominance_mbr",),
    "core.compare_dominance_per_query": ("compare_dominance_calls",),
    "posets.native_checks_per_query": (
        "native_set", "native_closure", "native_numeric",
    ),
    "rtree.node_accesses_per_query": ("node_accesses",),
    "rtree.heap_pops_per_query": ("heap_pops",),
}


@dataclass
class Context:
    """What one benchmark run was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    out: Path
    cap: float
    #: This run's own directory for temporary files, inside ``out``.
    scratch: Path = None

    def __post_init__(self) -> None:
        if self.scratch is None:
            base = self.out / "tmp"
            base.mkdir(parents=True, exist_ok=True)
            self.scratch = Path(
                tempfile.mkdtemp(prefix=f"{self.workload}-", dir=base)
            )

    def temp_dir(self, prefix: str) -> Path:
        """A fresh directory inside this run's scratch directory."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))


@dataclass
class Outcome:
    """One workload's verdict, metrics and human-readable report."""

    tally: Tally
    metrics: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


class SetupClock:
    """Times the set-up steps of one build; ``total`` is ``setup_s``."""

    def __init__(self) -> None:
        self.steps: dict[str, float] = {}
        self._started = time.perf_counter()
        self._last = self._started

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.steps[name] = self.steps.get(name, 0.0) + (now - self._last)
        self._last = now

    @property
    def total(self) -> float:
        return self._last - self._started


def counter_layers(totals: dict, queries: int) -> dict:
    """The :data:`COUNTERS` metrics from summed ComparisonStats fields."""
    return {
        name: sum(totals.get(f, 0) for f in fields) / max(1, queries)
        for name, fields in COUNTERS.items()
    }


def instance(records: int):
    """The data set of a workload: the Table-1 default generator's own
    instance at ``records`` points.

    It does not depend on the run's seed, which draws the operations run
    against it instead: from one seed to the next the generated records
    changed the lineup's work by more than the benchmark's bounds allow
    (see README, Data sets).
    """
    from repro import WorkloadConfig, generate_workload

    return generate_workload(WorkloadConfig.default(data_size=records))


def build_engine(workload, clock: SetupClock):
    """A numpy-kernel engine with its R-trees, strata and kernel built."""
    from repro import SkylineEngine

    engine = SkylineEngine(workload.schema, workload.records, kernel="numpy")
    clock.lap("transform.build_s")
    dataset = engine.dataset
    _ = dataset.index
    for stratum in dataset.stratification:
        _ = stratum.tree
    clock.lap("rtree.build_s")
    dataset.kernel.warm()
    clock.lap("core.warm_s")
    return engine


def repeated_setup(build, teardown):
    """Run ``build()`` :data:`SETUPS` times; keep the last, tear down the rest.

    ``build`` returns ``(thing, SetupClock)``.  Returns the kept thing,
    the median total and the per-step medians.
    """
    clocks = []
    kept = None
    for _ in range(SETUPS):
        if kept is not None:
            teardown(kept)
            kept = None
            gc.collect()
        kept, clock = build()
        clocks.append(clock)
    steps = {
        name: median([c.steps.get(name, 0.0) for c in clocks])
        for name in clocks[-1].steps
    }
    return kept, median([c.total for c in clocks]), steps


def source_fingerprint(root: Path) -> str:
    """Hash of the program source, so stored counts never cross versions."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(ctx: Context, outcome: Outcome, counts: dict) -> None:
    """Compare deterministic counts with an earlier run of this seed.

    The first run of a seed (per program version) stores its counts;
    later runs must reproduce them exactly.  A drift is a defect.
    """
    name = (
        f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}-"
        f"{source_fingerprint(ctx.root)}.json"
    )
    path = ctx.out / "counts" / name
    if path.exists():
        stored = json.loads(path.read_text())
        for key, value in sorted(counts.items()):
            if key in stored and stored[key] != value:
                outcome.problems.append(
                    f"count drift in {key}: {value!r} != {stored[key]!r} "
                    "from an earlier run of this seed"
                )
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")


def write_spans(ctx: Context, outcome: Outcome, tracer) -> None:
    """Write the traced run's spans and layer table next to the counts."""
    path = ctx.out / f"{ctx.workload}-seed{ctx.seed}-spans.json"
    tracer.write(path, {"workload": ctx.workload, "seed": ctx.seed})
    outcome.notes.append(f"spans written to {path}")


#: Records of the small instance checked against the O(n^2) oracle.
ORACLE_RECORDS = 500


def oracle_check(ctx: Context, outcome: Outcome) -> None:
    """SDC+ on a small seeded instance must equal the brute-force skyline."""
    from repro import SkylineEngine, WorkloadConfig, generate_workload
    from repro.reference import reference_skyline

    small = generate_workload(
        WorkloadConfig.default(data_size=ORACLE_RECORDS, seed=ctx.seed)
    )
    want = {r.rid for r in reference_skyline(small.schema, small.records)}
    engine = SkylineEngine(small.schema, small.records, kernel="numpy")
    got = {r.rid for r in engine.skyline("sdc+")}
    outcome.check(
        got == want,
        f"SDC+ on {ORACLE_RECORDS} records differs from reference_skyline "
        f"({len(got)} vs {len(want)} rids)",
    )


# ----------------------------------------------------------------------
# Resource hygiene
# ----------------------------------------------------------------------
def _shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _child_pids() -> list[int]:
    """Live children of this process (from ``/proc``)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker if shared memory started it."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def _mapped_segments() -> set[str]:
    """Shared-memory segments some live process still maps."""
    mapped = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/maps", "rb") as fh:
                for line in fh:
                    if b"/dev/shm/" in line:
                        path = line.split(b"/dev/shm/", 1)[1].split()[0]
                        mapped.add(path.decode("utf-8", "replace"))
        except OSError:
            continue
    return mapped


class Hygiene:
    """Checks that a run leaves no process, thread, segment or directory.

    Segments are attributed to this run when they appeared after it
    started and no live process maps them any more, so a concurrent run
    on the same host is never blamed (or cleaned up) for its own.
    """

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.shm_before = _shm_entries()
        self.threads_before = {t.ident for t in threading.enumerate()}

    def _leftovers(self):
        children = _child_pids()
        threads = [
            t for t in threading.enumerate()
            if t.ident not in self.threads_before and not t.daemon
            and t.is_alive()
        ]
        segments = sorted(_shm_entries() - self.shm_before)
        if segments:
            segments = sorted(set(segments) - _mapped_segments())
        temps = sorted(p.name for p in self.ctx.scratch.glob("*"))
        return children, threads, segments, temps

    def settle(self, timeout: float = 15.0) -> list[str]:
        """Wait (bounded) for everything the run started to go away.

        Returns the problems left after ``timeout``; leftovers are then
        killed or removed so the process can still exit cleanly.
        """
        import multiprocessing

        deadline = time.monotonic() + timeout
        _stop_resource_tracker()
        while True:
            multiprocessing.active_children()  # reaps finished workers
            children, threads, segments, temps = self._leftovers()
            if not (children or threads or segments or temps):
                break
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        problems = []
        if children:
            problems.append(f"child processes left running: {children}")
            for pid in children:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except OSError:
                    pass
        if threads:
            problems.append(
                f"non-daemon threads left running: {[t.name for t in threads]}"
            )
        if segments:
            problems.append(f"shared-memory segments left behind: {segments}")
            for name in segments:
                try:
                    os.unlink(f"/dev/shm/{name}")
                except OSError:
                    pass
        if temps:
            problems.append(f"temporary directories left behind: {temps}")
        shutil.rmtree(self.ctx.scratch, ignore_errors=True)
        return problems


def kill_children() -> None:
    """Last resort for the wall-clock cap: kill every child process."""
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
