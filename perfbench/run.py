"""Run one benchmark workload with one seed in this process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lineup --seed 1 --seconds 20 --trace 0

The workloads are ``lineup``, ``lineup-parallel``, ``serve-read`` and
``serve-write`` (see ``perfbench/README.md``).  The program is imported
from ``src/`` next to this directory and driven only through its public
API.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0,
     "metrics": {"query_p50_s": {"value": 0.31, "unit": "s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the run repeats the workload with spans recorded and
reports the per-layer metrics instead, writing the spans to
``perfbench-out/<workload>-seed<seed>-spans.json``.  The run exits 0
once it has printed its result, 1 when it crashed or the wall-clock cap
stopped it, and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lineup", "lineup-parallel", "serve-read", "serve-write")

#: Wall-clock cap of one run, in seconds.
CAP = 170.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True), flush=True)


def _arm_cap(seconds: float) -> threading.Timer:
    """Turn a stuck run into a reported failure instead of a hang."""
    from perfbench.common import kill_children

    def fire() -> None:
        print(f"perfbench: wall-clock cap of {seconds:g}s reached; "
              "the run is stuck", file=sys.stderr, flush=True)
        kill_children()
        _emit(False, 1, 1, {})
        os._exit(1)

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    timer.start()
    return timer


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import Context, Hygiene
    from perfbench.measure import Tally

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        out=ROOT / "perfbench-out",
        cap=CAP,
    )
    cap = _arm_cap(CAP)
    hygiene = Hygiene(ctx)
    outcome = None
    try:
        if ctx.workload in ("lineup", "lineup-parallel"):
            from perfbench.lineup import run
        elif ctx.workload == "serve-read":
            from perfbench.serve_read import run
        else:
            from perfbench.serve_write import run
        outcome = run(ctx)
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
    leftovers = hygiene.settle()
    cap.cancel()

    if outcome is None:
        for problem in leftovers:
            print(f"PROBLEM: {problem}")
        _emit(False, 1, 1, {})
        return 1
    outcome.problems.extend(leftovers)
    for line in outcome.notes:
        print(line)
    print(f"operations: {outcome.tally.describe()}")
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")
    tally: Tally = outcome.tally
    _emit(not outcome.problems, tally.attempted, tally.failed, outcome.metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
