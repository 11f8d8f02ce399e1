"""Latency summaries, failure accounting and process-level gauges.

Every timing the benchmark reports goes through :func:`median` or
:func:`tail`.  A tail is the highest percentile of :data:`LADDER` that
still has at least :data:`MIN_BEYOND` samples beyond it, so a small
sample never reports a percentile it cannot support; the chosen
percentile and the sample count are reported beside the value.
"""

from __future__ import annotations

import math
import resource
from collections import Counter
from dataclasses import dataclass, field

#: Percentiles a tail may be taken at, lowest first.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Failure causes, in the order the report lists them.
CAUSES = (
    "admission_rejected",
    "shed",
    "rate_limited",
    "error_frame",
    "timeout",
    "exception",
    "wrong_answer",
)


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def median(values) -> float:
    """The 0.5-quantile (0.0 for an empty sample)."""
    return quantile(values, 0.5)


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile it was taken at."""

    percentile: float
    value: float
    samples: int

    def describe(self) -> str:
        beyond = int(self.samples * (1.0 - self.percentile / 100.0))
        return f"p{self.percentile:g} of {self.samples} ({beyond} beyond)"


def supported(samples: int) -> float:
    """The highest :data:`LADDER` percentile ``samples`` support.

    That is the highest one with at least :data:`MIN_BEYOND` samples
    beyond it, or the median when even p50 has fewer.
    """
    percentile = LADDER[0]
    for step in LADDER:
        if samples * (1.0 - step / 100.0) >= MIN_BEYOND:
            percentile = step
    return percentile


def tail(values, percentile: float | None = None) -> Tail:
    """A tail at ``percentile``, by default the one the sample supports.

    End-to-end tails are taken at the percentile their workload's
    nominal sample size at the run's ``--seconds`` supports (an open
    loop's plan fixes its count; a closed loop passes the percentile),
    so that every run of a workload, on any version of the program,
    reports the same one.
    """
    values = list(values)
    if percentile is None:
        percentile = supported(len(values))
    return Tail(percentile, quantile(values, percentile / 100.0), len(values))


def geomean(values) -> float:
    """Geometric mean of positive ``values`` (0.0 for an empty sample)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Tally:
    """Operations attempted, succeeded and failed (by cause).

    A failed operation is recorded with the latency ``missed`` -- the
    workload's wall-clock cap -- so it lands beyond every percentile.
    """

    missed: float
    attempted: int = 0
    succeeded: int = 0
    failures: Counter = field(default_factory=Counter)

    def ok(self) -> None:
        self.attempted += 1
        self.succeeded += 1

    def fail(self, cause: str) -> float:
        """Count one failure; returns the latency it is recorded with."""
        if cause not in CAUSES:
            raise ValueError(f"unknown failure cause {cause!r}")
        self.attempted += 1
        self.failures[cause] += 1
        return self.missed

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.failures.update(other.failures)

    def describe(self) -> str:
        causes = ", ".join(
            f"{cause}={self.failures[cause]}" for cause in CAUSES
        )
        return (
            f"attempted={self.attempted} succeeded={self.succeeded} "
            f"failed={self.failed} ({causes})"
        )


def failure_cause(error: BaseException) -> str:
    """Map a local or remote query error onto a :data:`CAUSES` entry."""
    from repro.exceptions import (
        AdmissionRejectedError,
        QueryShedError,
        QueryTimeoutError,
        RemoteQueryError,
    )

    if isinstance(error, AdmissionRejectedError):
        return "admission_rejected"
    if isinstance(error, QueryShedError):
        return "shed"
    if isinstance(error, (QueryTimeoutError, TimeoutError)):
        return "timeout"
    if isinstance(error, RemoteQueryError):
        return {
            "admission-rejected": "admission_rejected",
            "shed": "shed",
            "rate-limited": "rate_limited",
            "timeout": "timeout",
        }.get(error.code, "error_frame")
    return "exception"


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus the largest reaped child."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0
