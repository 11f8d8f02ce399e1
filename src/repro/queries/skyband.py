"""k-skyband queries over partially-ordered domains.

The *k-skyband* of a relation is the set of records dominated by fewer
than ``k`` other records; the skyline is exactly the 1-skyband.  Two
evaluators are provided:

* :func:`k_skyband_nested_loops` -- exact pairwise counting with early
  termination at ``k`` dominators (the BNL-style baseline);
* :func:`k_skyband_bbs` -- an index-accelerated evaluator in the spirit
  of the BBS skyband extension, adapted to the transformed space: an
  R-tree entry is pruned once ``k`` already-found candidates m-dominate
  it, and the surviving candidates are post-filtered by exact native
  dominator counting.

Correctness of the index pruning with false positives: m-dominance
implies native dominance, so a pruned entry's points each have at least
``k`` true dominators and cannot belong to the skyband.  The candidate
set therefore contains the whole k-skyband.  Counting dominators *within
the candidate set* is also sufficient: if a record has ``t >= k``
dominators overall, the first ``k`` elements of any linear extension of
its dominator set each have fewer than ``k`` dominators themselves
(their dominators are dominators of the record too), hence belong to the
k-skyband and thus to the candidate set.
"""

from __future__ import annotations

from typing import Iterable

from repro.algorithms.bbs import traverse
from repro.exceptions import AlgorithmError
from repro.rtree.node import Node
from repro.transform.dataset import TransformedDataset
from repro.transform.point import Point

__all__ = ["k_skyband", "k_skyband_nested_loops", "k_skyband_bbs", "METHODS"]

#: The ``method`` values :func:`k_skyband` accepts.
METHODS = ("bbs", "nested-loops", "nl")


def _exact_filter(
    dataset: TransformedDataset, candidates: Iterable[Point], k: int
) -> list[Point]:
    """Keep candidates with fewer than ``k`` native dominators among
    ``candidates`` (sufficient per the module docstring)."""
    kernel = dataset.kernel
    pool = list(candidates)
    out: list[Point] = []
    for p in pool:
        count = 0
        for q in pool:
            if q is p:
                continue
            if kernel.native_dominates(q, p):
                count += 1
                if count >= k:
                    break
        if count < k:
            out.append(p)
    return out


def k_skyband_nested_loops(dataset: TransformedDataset, k: int) -> list[Point]:
    """Exact k-skyband by pairwise native dominator counting."""
    if k < 1:
        raise AlgorithmError("k must be at least 1")
    return _exact_filter(dataset, dataset.points, k)


def k_skyband_bbs(dataset: TransformedDataset, k: int) -> list[Point]:
    """Index-accelerated k-skyband over the transformed space."""
    if k < 1:
        raise AlgorithmError("k must be at least 1")
    kernel = dataset.kernel
    candidates: list[Point] = []

    # `candidates` stays key-sorted (ascending pop order), so counting
    # scans stop once keys reach the probe's bound.
    def node_pruned(node: Node) -> bool:
        mins = node.mins
        bound = node.min_key
        count = 0
        for p in candidates:
            if p.key >= bound:
                break
            if kernel.m_dominates_mins(p, mins):
                count += 1
                if count >= k:
                    return True
        return False

    def point_pruned(point: Point) -> bool:
        bound = point.key
        count = 0
        for p in candidates:
            if p.key >= bound:
                break
            if kernel.m_dominates(p, point):
                count += 1
                if count >= k:
                    return True
        return False

    for e in traverse(
        dataset.index, dataset.stats, node_pruned, point_pruned, dataset.context
    ):
        if not point_pruned(e):
            candidates.append(e)

    return _exact_filter(dataset, candidates, k)


def k_skyband(
    dataset: TransformedDataset, k: int, method: str = "bbs"
) -> list[Point]:
    """Dispatch: ``method`` is ``"bbs"`` (indexed) or ``"nested-loops"``."""
    if method == "bbs":
        return k_skyband_bbs(dataset, k)
    if method in ("nested-loops", "nl"):
        return k_skyband_nested_loops(dataset, k)
    raise AlgorithmError(
        f"unknown skyband method {method!r}; available: {list(METHODS)}"
    )
