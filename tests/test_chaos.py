"""Fault-injection (chaos) suite: seeded failures, typed errors, recovery.

CI runs this file once per seed in ``CHAOS_SEEDS`` (the chaos smoke job
sets ``REPRO_CHAOS_SEED``); locally every test runs over all three.
"""

from __future__ import annotations

import os
import random
import warnings

import pytest

from repro.core.record import Record
from repro.core.schema import NumericAttribute, PosetAttribute, Schema
from repro.engine import SkylineEngine
from repro.exceptions import (
    KernelError,
    KernelFallbackWarning,
    RTreeError,
    SchemaError,
)
from repro.posets.builder import diamond
from repro.resilience.chaos import (
    FaultInjector,
    corrupt_rtree,
    inject_kernel_faults,
    inject_update_faults,
    malform_records,
)

_FIXED_SEEDS = (7, 101, 2025)
_ENV_SEED = os.environ.get("REPRO_CHAOS_SEED")
CHAOS_SEEDS = (int(_ENV_SEED),) if _ENV_SEED else _FIXED_SEEDS

ALL_ALGORITHMS = ("bnl", "bnl+", "sfs", "bbs+", "sdc", "sdc+", "nn+", "dnc")


def _make_engine(kernel: str, n: int = 150) -> SkylineEngine:
    rng = random.Random(31)
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


@pytest.fixture(scope="module")
def reference_skyline_rids():
    return sorted(r.rid for r in _make_engine("python").skyline("sdc+"))


# ---------------------------------------------------------------------------
# Batch-kernel faults: python fallback recovers the exact skyline
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_numpy_fault_falls_back_to_exact_answer(
    seed, algorithm, reference_skyline_rids
):
    engine = _make_engine("numpy")
    injector = inject_kernel_faults(
        engine.dataset, FaultInjector(seed=seed, fail_after=1 + seed % 40)
    )
    with pytest.warns(KernelFallbackWarning):
        result = engine.query(algorithm)
    assert injector.fired == 1
    assert result.fallback
    assert result.complete
    assert engine.stats.kernel_fallbacks == 1
    assert sorted(p.record.rid for p in result) == reference_skyline_rids


class _BlockFaults(FaultInjector):
    """Counts, and fails, only BNL block-verdict calls."""

    def maybe_fail(self, site: str) -> None:
        if site == "kernel.block_verdicts":
            super().maybe_fail(site)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("algorithm", ("bnl", "bnl+"))
def test_fault_inside_a_block_falls_back_to_exact_answer(seed, algorithm):
    """A fault raised mid-run by a block verdict (2K records, so many
    blocks precede it) recovers on the python kernel exactly."""
    reference = sorted(r.rid for r in _make_engine("python", n=2000).skyline("sdc+"))
    engine = _make_engine("numpy", n=2000)
    injector = inject_kernel_faults(
        engine.dataset, _BlockFaults(seed=seed, fail_after=5 + seed % 11)
    )
    with pytest.warns(KernelFallbackWarning):
        result = engine.query(algorithm)
    # The fault fired at the N-th block verdict (N >= 5), mid-run.
    assert injector.sites == ["kernel.block_verdicts"]
    assert injector.calls == injector.fail_after
    assert result.fallback
    assert result.complete
    assert engine.stats.kernel_fallbacks == 1
    assert sorted(p.record.rid for p in result) == reference


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_fallback_disabled_reraises(seed):
    engine = _make_engine("numpy")
    inject_kernel_faults(engine.dataset, FaultInjector(seed=seed, fail_after=5))
    with pytest.raises(KernelError) as info:
        engine.query("sdc+", fallback=False)
    assert info.value.partial is not None
    assert info.value.partial.exhausted_reason == "kernel"


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_python_kernel_fault_has_no_fallback(seed):
    engine = _make_engine("python")
    inject_kernel_faults(engine.dataset, FaultInjector(seed=seed, fail_after=5))
    with pytest.raises(KernelError) as info:
        engine.query("sdc+")
    assert info.value.partial is not None


def test_injection_is_deterministic():
    sites = []
    for _ in range(2):
        engine = _make_engine("numpy")
        injector = inject_kernel_faults(
            engine.dataset, FaultInjector(seed=7, fail_after=12)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KernelFallbackWarning)
            engine.query("sdc+")
        sites.append((injector.calls, tuple(injector.sites)))
    assert sites[0] == sites[1]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_rate_mode_is_seed_deterministic(seed):
    def run():
        injector = FaultInjector(seed=seed, rate=0.05, max_faults=3)
        fired_at = []
        for i in range(200):
            try:
                injector.maybe_fail("site")
            except KernelError:
                fired_at.append(i)
        return fired_at

    assert run() == run()


# ---------------------------------------------------------------------------
# R-tree corruption: validate() must detect it with a typed error
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_corrupt_rtree_detected(seed):
    engine = _make_engine("python")
    tree = engine.dataset.index
    tree.validate()  # sane before corruption
    description = corrupt_rtree(tree, seed=seed)
    assert description
    with pytest.raises(RTreeError):
        tree.validate()


# ---------------------------------------------------------------------------
# Malformed records: typed SchemaError at validation, never a traceback
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_malformed_records_rejected(seed):
    poset = diamond()
    schema = Schema(
        [NumericAttribute("a", "min"), PosetAttribute.set_valued("p", poset)]
    )
    for record in malform_records(seed=seed):
        with pytest.raises(SchemaError):
            schema.validate_record(record.totals, record.partials)


def test_malform_records_kinds():
    records = malform_records(seed=0)
    assert len(records) == 4
    with pytest.raises(KernelError):
        malform_records(kinds=("no-such-kind",))


# ---------------------------------------------------------------------------
# Update-time faults: an update either completes or restores the exact
# pre-update state (transactional insert_record / delete_record)
# ---------------------------------------------------------------------------
def _dataset_fingerprint(dataset) -> tuple:
    """Everything an update could corrupt, in one comparable value."""
    return (
        [r.rid for r in dataset.records],
        [p.record.rid for p in dataset.points],
        dataset.index.size,
        dataset.stratification.num_strata,
        sorted(r.rid for r in [p.record for p in _skyline_points(dataset)]),
    )


def _skyline_points(dataset):
    from repro.algorithms.base import get_algorithm

    return list(get_algorithm("sdc+").run(dataset))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("fail_after", (1, 2))  # pre-index / pre-strata site
def test_insert_fault_restores_pre_update_state(seed, fail_after):
    engine = _make_engine("python")
    dataset = engine.dataset
    _ = dataset.index, dataset.stratification  # build so both sites are live
    before = _dataset_fingerprint(dataset)
    injector = inject_update_faults(
        dataset, FaultInjector(seed=seed, fail_after=fail_after)
    )
    record = Record("chaos-insert", (1, 1), ("b",))
    with pytest.raises(KernelError):
        dataset.insert_record(record)
    assert injector.fired == 1
    assert injector.sites[0].startswith("dataset.insert_record.")
    assert _dataset_fingerprint(dataset) == before
    # the injector is spent (max_faults=1): the retry must now succeed
    dataset.insert_record(record)
    assert dataset.points[-1].record.rid == "chaos-insert"
    assert dataset.index.size == len(dataset.points)
    assert dataset.delete_record("chaos-insert")
    assert _dataset_fingerprint(dataset) == before


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("fail_after", (1, 2))
def test_delete_fault_restores_pre_update_state(seed, fail_after):
    engine = _make_engine("python")
    dataset = engine.dataset
    _ = dataset.index, dataset.stratification
    victim = dataset.points[seed % len(dataset.points)].record.rid
    before = _dataset_fingerprint(dataset)
    injector = inject_update_faults(
        dataset, FaultInjector(seed=seed, fail_after=fail_after)
    )
    with pytest.raises(KernelError):
        dataset.delete_record(victim)
    assert injector.fired == 1
    assert injector.sites[0].startswith("dataset.delete_record.")
    assert _dataset_fingerprint(dataset) == before
    # spent injector: the delete now goes through and stays consistent
    assert dataset.delete_record(victim)
    assert victim not in {p.record.rid for p in dataset.points}
    assert dataset.index.size == len(dataset.points)


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_update_fault_through_server_keeps_serving(seed):
    """A failed server-side update leaves concurrent queries unharmed."""
    from repro.serving import SkylineServer

    engine = _make_engine("python")
    expected = sorted(r.rid for r in engine.skyline("sdc+"))
    injector = inject_update_faults(
        engine.dataset, FaultInjector(seed=seed, fail_after=1)
    )
    with SkylineServer(engine.dataset, workers=2) as server:
        with pytest.raises(KernelError):
            server.insert(Record("chaos", (1, 1), ("b",)))
        assert injector.fired == 1
        result = server.submit(algorithm="sdc+").result(timeout=60)
        assert sorted(p.record.rid for p in result.points) == expected
    assert server.metrics.snapshot()["updates"] == 0  # nothing committed
