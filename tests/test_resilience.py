"""Resilient query execution: deadlines, budgets, cancellation, partials."""

from __future__ import annotations

import random

import pytest

from repro.core.record import Record
from repro.core.schema import NumericAttribute, PosetAttribute, Schema
from repro.engine import SkylineEngine
from repro.exceptions import (
    BudgetExhaustedError,
    QueryCancelledError,
    QueryTimeoutError,
    WorkloadError,
)
from repro.posets.builder import diamond
from repro.resilience import (
    NULL_CONTEXT,
    CancellationToken,
    PartialResult,
    QueryContext,
    ResourceBudget,
    execute,
)

from conftest import brute_force_skyline

ALL_ALGORITHMS = ("bnl", "bnl+", "sfs", "bbs+", "sdc", "sdc+", "nn+", "dnc")
KERNELS = ("python", "numpy")


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


def _total_engine(n: int = 120) -> SkylineEngine:
    rng = random.Random(5)
    schema = Schema([NumericAttribute("a", "min"), NumericAttribute("b", "min")])
    records = [Record(i, (rng.randint(1, 50), rng.randint(1, 50)), ()) for i in range(n)]
    return SkylineEngine(schema, records)


# ---------------------------------------------------------------------------
# QueryContext / ResourceBudget basics
# ---------------------------------------------------------------------------
def test_null_context_is_unarmed_noop():
    assert not NULL_CONTEXT.armed
    NULL_CONTEXT.checkpoint()  # must never raise
    NULL_CONTEXT.guard_heap(10**9)
    NULL_CONTEXT.guard_window(10**9)


def test_budget_rejects_nonpositive_limits():
    with pytest.raises(WorkloadError):
        ResourceBudget(max_comparisons=0)
    with pytest.raises(WorkloadError):
        ResourceBudget(max_answers=-1)


def test_cancellation_token():
    token = CancellationToken()
    assert not token.cancelled
    token.cancel()
    assert token.cancelled


# ---------------------------------------------------------------------------
# Deadlines and cancellation: honored by every algorithm
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_expired_deadline_raises_with_partial(algorithm):
    engine = _mixed_engine()
    with pytest.raises(QueryTimeoutError) as info:
        engine.query(algorithm, deadline=0.0)
    partial = info.value.partial
    assert isinstance(partial, PartialResult)
    assert not partial.complete
    assert partial.exhausted_reason == "deadline"
    assert partial.algorithm == algorithm


def test_expired_deadline_bbs_totally_ordered():
    engine = _total_engine()
    with pytest.raises(QueryTimeoutError) as info:
        engine.query("bbs", deadline=0.0)
    assert info.value.partial.exhausted_reason == "deadline"


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_precancelled_token_raises(algorithm):
    engine = _mixed_engine()
    token = CancellationToken()
    token.cancel()
    with pytest.raises(QueryCancelledError) as info:
        engine.query(algorithm, cancel=token)
    assert info.value.partial.exhausted_reason == "cancelled"


def test_generous_deadline_completes():
    engine = _mixed_engine()
    result = engine.query("sdc+", deadline=3600.0)
    assert result.complete
    assert result.exhausted_reason is None
    assert result.checkpoints > 0


# ---------------------------------------------------------------------------
# Budget exhaustion: graceful PartialResult, prefix of the emission order
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ("bnl", "bnl+", "bbs+", "sdc", "sdc+"))
@pytest.mark.parametrize("kernel", KERNELS)
def test_comparison_budget_partial_is_prefix(algorithm, kernel):
    full = [p.record.rid for p in _mixed_engine(kernel).query(algorithm)]
    for limit in (10, 100, 1000):
        engine = _mixed_engine(kernel)
        result = engine.query(algorithm, max_comparisons=limit)
        got = [p.record.rid for p in result]
        assert got == full[: len(got)], (algorithm, kernel, limit)
        if not result.complete:
            assert result.exhausted_reason == "comparisons"
            assert result.counters  # the partial still reports its charges


@pytest.mark.parametrize("algorithm", ("bnl", "bnl+"))
def test_comparison_budget_partial_matches_python_kernel(algorithm):
    """Block verdicts charge each candidate before its successor's
    checkpoint, so a budget stops the numpy kernel at the same candidate,
    with the same answers and counters, as the python kernel."""
    engine = _mixed_engine("python")
    engine.query(algorithm)
    total = engine.stats.total_dominance_checks
    for limit in (10, 100, total // 4, total // 2, 3 * total // 4):
        partials = {}
        for kernel in KERNELS:
            result = _mixed_engine(kernel).query(algorithm, max_comparisons=limit)
            partials[kernel] = (
                [p.record.rid for p in result],
                result.counters,
                result.exhausted_reason,
            )
        assert partials["numpy"] == partials["python"], (algorithm, limit)
        assert partials["numpy"][2] == "comparisons", (algorithm, limit)


def test_comparison_budget_eventually_completes():
    engine = _mixed_engine()
    result = engine.query("sdc+", max_comparisons=10**9)
    assert result.complete


@pytest.mark.parametrize("kernel", KERNELS)
def test_max_answers_prefix(kernel):
    full = [p.record.rid for p in _mixed_engine(kernel).query("sdc+")]
    assert len(full) > 3
    engine = _mixed_engine(kernel)
    result = engine.query("sdc+", max_answers=3)
    assert not result.complete
    assert result.exhausted_reason == "answers"
    assert [p.record.rid for p in result] == full[:3]


def test_heap_budget_exhausts_index_traversal():
    engine = _mixed_engine()
    result = engine.query("bbs+", max_heap_entries=2)
    assert not result.complete
    assert result.exhausted_reason == "heap_entries"


def test_window_budget_exhausts_bnl():
    engine = _mixed_engine()
    result = engine.query("bnl", max_window_entries=2)
    assert not result.complete
    assert result.exhausted_reason == "window_entries"


def test_budget_error_carries_usage():
    err = BudgetExhaustedError("comparisons", limit=10, used=11)
    assert err.reason == "comparisons"
    assert err.limit == 10 and err.used == 11


# ---------------------------------------------------------------------------
# Module-level execute() and context reuse
# ---------------------------------------------------------------------------
def test_execute_restores_dataset_context():
    engine = _mixed_engine()
    dataset = engine.dataset
    assert dataset.context is NULL_CONTEXT
    ctx = QueryContext(budget=ResourceBudget(max_comparisons=50))
    execute(dataset, "sdc+", ctx)
    assert dataset.context is NULL_CONTEXT


def test_engine_query_accepts_prebuilt_context():
    engine = _mixed_engine()
    ctx = QueryContext(budget=ResourceBudget(max_answers=2))
    result = engine.query("sdc+", context=ctx)
    assert len(result) == 2
    assert result.exhausted_reason == "answers"


def test_complete_result_matches_reference():
    engine = _mixed_engine()
    records = [p.record for p in engine.dataset.points]
    expected = brute_force_skyline(engine.dataset.schema, records)
    result = engine.query("sdc+")
    assert result.complete
    assert sorted(r.rid for r in result.records) == expected
    assert result.elapsed >= 0.0
    assert len(result) == len(result.points)
