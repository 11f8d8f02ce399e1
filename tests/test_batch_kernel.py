"""Randomized parity suite: ``kernel="numpy"`` vs ``kernel="python"``.

The vectorized :class:`~repro.core.batch.BatchDominanceKernel` promises
*bit-identical observable behaviour*: every algorithm must produce the
same answer set, in the same emission order, with the same
:class:`~repro.core.stats.ComparisonStats` counter bundle, on every
workload.  This module checks that promise on a few dozen seeded random
workloads spanning the kernel's native-comparison modes (set
containment, poset reachability, compressed transitive closure), its
memo fallbacks (packed bitsets, LRU pair-cache), schema shapes
(totally-ordered only, multiple posets), the Lemma-4.2 gate variants,
the SDC ablation switches and multi-pass BNL windows.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_mixed_dataset
from repro.bench.harness import run_progressive
from repro.core.record import Record
from repro.core.schema import NumericAttribute, Schema
from repro.posets.generator import PosetGeneratorConfig
from repro.transform.dataset import TransformedDataset
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import generate_workload

ALGORITHMS = ("bnl", "bnl+", "sfs", "bbs+", "sdc", "sdc+")


def run_one(dataset: TransformedDataset, algorithm: str, **options):
    """``(rid sequence, counter delta)`` of one instrumented run."""
    run = run_progressive(dataset, algorithm, **options)
    return [p.record.rid for p in run.points], run.final_delta


def assert_backend_parity(
    schema,
    records,
    algorithms=ALGORITHMS,
    options=None,
    tweak=None,
    **dataset_kwargs,
):
    """Both backends must agree on answers, order and counters.

    ``tweak`` (optional) mutates the numpy dataset before it runs --
    used to force the kernel's fallback paths.
    """
    results = {}
    for kernel in ("python", "numpy"):
        dataset = TransformedDataset(
            schema, records, kernel=kernel, **dataset_kwargs
        )
        if kernel == "numpy" and tweak is not None:
            tweak(dataset)
        results[kernel] = {
            name: run_one(dataset, name, **(options or {}))
            for name in algorithms
        }
    for name in algorithms:
        py_rids, py_stats = results["python"][name]
        np_rids, np_stats = results["numpy"][name]
        assert np_rids == py_rids, f"{name}: answer sequences diverge"
        assert np_stats == py_stats, f"{name}: counters diverge"
    return results


# ---------------------------------------------------------------------------
# Seeded random workloads across the three native-comparison modes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_parity_set_valued(seed):
    """Set-containment mode (the paper's default workloads)."""
    rng = random.Random(1000 + seed)
    schema, records = random_mixed_dataset(
        rng,
        n=60 + 15 * seed,
        num_total=1 + seed % 3,
        num_partial=1 + seed % 2,
        set_valued=True,
    )
    assert_backend_parity(schema, records)


@pytest.mark.parametrize("seed", range(6))
def test_parity_reachability(seed):
    """Plain poset attributes: native verdicts via reachability."""
    rng = random.Random(2000 + seed)
    schema, records = random_mixed_dataset(
        rng,
        n=55 + 20 * seed,
        num_total=1 + seed % 2,
        num_partial=1 + seed % 2,
        set_valued=False,
    )
    assert_backend_parity(schema, records)


@pytest.mark.parametrize("seed", range(6))
def test_parity_closure_mode(seed):
    """``native_mode="closure"``: verdicts through the interval closure."""
    rng = random.Random(3000 + seed)
    schema, records = random_mixed_dataset(
        rng, n=50 + 18 * seed, set_valued=seed % 2 == 0
    )
    assert_backend_parity(schema, records, native_mode="closure")


@pytest.mark.parametrize("seed", (5, 6))
def test_parity_generated_workload(seed):
    """Table-1-style generated workloads (bigger posets, real shapes)."""
    config = WorkloadConfig.default(
        data_size=260,
        poset=PosetGeneratorConfig(num_nodes=48, height=4, num_trees=2, seed=seed),
        seed=seed,
    )
    workload = generate_workload(config)
    assert_backend_parity(workload.schema, workload.records)


# ---------------------------------------------------------------------------
# Schema shapes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", (0, 1))
def test_parity_totally_ordered_only(seed):
    """No poset attributes at all: the pure-numeric fast paths."""
    rng = random.Random(4000 + seed)
    schema = Schema([NumericAttribute(f"t{k}") for k in range(3)])
    records = [
        Record(i, tuple(rng.randint(1, 9) for _ in range(3)), ())
        for i in range(120)
    ]
    assert_backend_parity(schema, records)


# ---------------------------------------------------------------------------
# Memo fallbacks and gate variants
# ---------------------------------------------------------------------------
def test_parity_lru_pair_cache_fallback():
    """``max_bitset_nodes=0`` forces the LRU pair-cache for every domain."""
    rng = random.Random(51)
    schema, records = random_mixed_dataset(rng, n=90, set_valued=True)

    def force_lru(dataset):
        assert dataset.kernel._relations is None
        dataset.kernel._max_bitset_nodes = 0

    assert_backend_parity(schema, records, tweak=force_lru)


def test_parity_packed_bits_fallback(monkeypatch):
    """Domains above ``_UNPACK_NODES`` use packed bitsets only."""
    import repro.core.batch as batch_mod

    monkeypatch.setattr(batch_mod, "_UNPACK_NODES", 0)
    rng = random.Random(52)
    schema, records = random_mixed_dataset(rng, n=90, set_valued=False)
    assert_backend_parity(schema, records)


def test_parity_faithful_gate():
    """The literal Fig.-6 gate (no Lemma-4.2 shortcut) stays in parity."""
    rng = random.Random(53)
    schema, records = random_mixed_dataset(rng, n=80, set_valued=True)
    assert_backend_parity(schema, records, faithful_gate=True)


# ---------------------------------------------------------------------------
# Algorithm options
# ---------------------------------------------------------------------------
def test_parity_sdc_ablation_flags():
    """SDC with each Section-5.3 ablation switch disabled."""
    rng = random.Random(54)
    schema, records = random_mixed_dataset(rng, n=80, set_valued=True)
    for flag in (
        "restrict_categories",
        "optimize_comparisons",
        "progressive_output",
    ):
        assert_backend_parity(
            schema, records, algorithms=("sdc",), options={flag: False}
        )


def test_parity_small_window_multipass():
    """Tiny BNL windows force overflow passes and carried entries."""
    rng = random.Random(55)
    schema, records = random_mixed_dataset(rng, n=120, set_valued=True)
    for algorithm in ("bnl", "bnl+"):
        assert_backend_parity(
            schema,
            records,
            algorithms=(algorithm,),
            options={"window_size": 7},
        )


# ---------------------------------------------------------------------------
# BNL block verdicts at their edges
# ---------------------------------------------------------------------------
BLOCK_EDGE_CASES = {
    "set-valued": {"set_valued": True},
    "reachability": {"set_valued": False},
    "closure": {"set_valued": True, "native_mode": "closure"},
    "lru-pair-cache": {"set_valued": True, "lru": True},
    "packed-bits": {"set_valued": False, "packed": True},
    "multipass": {"set_valued": True, "window_size": 7},
    "no-totals": {"set_valued": True, "num_total": 0, "num_partial": 2},
    "totally-ordered": {"set_valued": True, "num_total": 3, "num_partial": 0},
}


@pytest.mark.parametrize("block,prefix", [(1, 3), (3, 2), (5, 6)])
@pytest.mark.parametrize("case", sorted(BLOCK_EDGE_CASES))
def test_parity_block_edges(monkeypatch, case, block, prefix):
    """Tiny blocks and prefixes (``_BLOCK``/``_PREFIX``) on ~100-record
    instances: windows longer than the prefix, evictions inside it
    mid-block, block expiry and carried multi-pass entries all stay in
    parity with the python kernel, on every relation storage."""
    import repro.core.batch as batch_mod
    from repro.core.batch import BatchDominanceKernel

    spec = BLOCK_EDGE_CASES[case]
    monkeypatch.setattr(batch_mod, "_BLOCK", block)
    monkeypatch.setattr(batch_mod, "_PREFIX", prefix)
    if spec.get("packed"):
        monkeypatch.setattr(batch_mod, "_UNPACK_NODES", 0)
    seen = {"full_prefix": 0, "evict_first": 0, "expired": 0, "resumed": 0}
    last_block: list = []
    real_block = BatchDominanceKernel.block_verdicts
    real_scan = BatchDominanceKernel.scan_verdict

    def block_verdicts(self, native, cands, rows_vt, rows_pt):
        out = real_block(self, native, cands, rows_vt, rows_pt)
        seen["full_prefix"] += rows_vt.shape[1] == prefix
        seen["evict_first"] += sum(e < d for d, e in zip(out[0], out[1]))
        # A block starting inside the previous one: that one expired.
        seen["expired"] += any(cands[0] is p for p in last_block[1:])
        last_block[:] = cands
        return out

    def scan_verdict(self, native, point, rows_vt, rows_pt):
        seen["resumed"] += 1
        return real_scan(self, native, point, rows_vt, rows_pt)

    monkeypatch.setattr(BatchDominanceKernel, "block_verdicts", block_verdicts)
    monkeypatch.setattr(BatchDominanceKernel, "scan_verdict", scan_verdict)

    def force_lru(dataset):
        dataset.kernel._max_bitset_nodes = 0

    rng = random.Random(5700 + sorted(BLOCK_EDGE_CASES).index(case))
    schema, records = random_mixed_dataset(
        rng,
        n=100,
        num_total=spec.get("num_total", 2),
        num_partial=spec.get("num_partial", 1),
        set_valued=spec["set_valued"],
    )
    options = {}
    if "window_size" in spec:
        options["window_size"] = spec["window_size"]
    kwargs = {}
    if "native_mode" in spec:
        kwargs["native_mode"] = spec["native_mode"]
    results = assert_backend_parity(
        schema,
        records,
        algorithms=("bnl", "bnl+", "sfs"),
        options=options,
        tweak=force_lru if spec.get("lru") else None,
        **kwargs,
    )
    assert seen["full_prefix"], "no window reached the prefix"
    assert seen["resumed"], "no scan resumed past a block verdict"
    assert seen["evict_first"], "no eviction inside a prefix"
    if block > 1:
        assert seen["expired"], "no block expired"
    if "window_size" in spec:
        bnl_stats = results["numpy"]["bnl"][1]
        assert bnl_stats["tuples_scanned"] > len(records), "single pass"


def test_parity_sdc_plus_faithful_exclusion():
    """SDC+ with the paper-literal same-category exclusion."""
    rng = random.Random(56)
    schema, records = random_mixed_dataset(rng, n=80, set_valued=True)
    assert_backend_parity(
        schema,
        records,
        algorithms=("sdc+",),
        options={"faithful_category_exclusion": True},
    )
