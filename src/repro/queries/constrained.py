"""Constrained skyline queries over partially-ordered domains.

A :class:`Constraint` restricts the input relation before the skyline is
computed:

* **range predicates** on totally-ordered attributes
  (``lo <= value <= hi``) -- these translate to a rectangle in the
  transformed space, so the index-accelerated evaluator skips R-tree
  entries disjoint from the constraint region (as in the BBS paper's
  constrained-skyline extension);
* **dominance predicates** on poset attributes: ``must_dominate`` (the
  record's value must be ``>=`` the given value) and ``dominated_by``
  (``<=``).  The qualifying value set of a poset predicate is not a box
  in the transformed space, so poset predicates are applied as exact
  per-record filters (via poset reachability) while numeric predicates
  still prune subtrees.

The skyline semantics are "skyline of the qualifying records": a record
excluded by the constraint neither appears in the answer *nor* dominates
anything (consistent with evaluating the skyline after a WHERE clause).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping

from repro.algorithms.bbs import traverse
from repro.algorithms.bnl import bnl_passes
from repro.exceptions import AlgorithmError, SchemaError
from repro.rtree.node import Node
from repro.transform.dataset import TransformedDataset
from repro.transform.point import Point

__all__ = ["Constraint", "constrained_skyline", "METHODS"]

#: The ``method`` values :func:`constrained_skyline` accepts.
METHODS = ("bbs", "bnl")


class Constraint:
    """Conjunction of per-attribute predicates.

    Parameters
    ----------
    ranges:
        ``{attribute_name: (lo, hi)}`` for totally-ordered attributes;
        either bound may be ``None`` (unbounded).
    must_dominate:
        ``{attribute_name: value}``: the record's value must equal or
        dominate ``value`` in the attribute's poset.
    dominated_by:
        ``{attribute_name: value}``: the record's value must equal
        ``value`` or be dominated by it.
    """

    def __init__(
        self,
        ranges: Mapping[str, tuple[float | None, float | None]] | None = None,
        must_dominate: Mapping[str, Hashable] | None = None,
        dominated_by: Mapping[str, Hashable] | None = None,
    ) -> None:
        self.ranges = dict(ranges or {})
        self.must_dominate = dict(must_dominate or {})
        self.dominated_by = dict(dominated_by or {})

    def validate(self, dataset: TransformedDataset) -> None:
        """Check attribute names/kinds/values against the schema."""
        schema = dataset.schema
        total_names = {a.name for a in schema.total_attrs}
        partial_names = {a.name for a in schema.partial_attrs}
        for name in self.ranges:
            if name not in total_names:
                raise SchemaError(
                    f"range predicate on {name!r}: not a totally-ordered attribute"
                )
        for mapping in (self.must_dominate, self.dominated_by):
            for name, value in mapping.items():
                if name not in partial_names:
                    raise SchemaError(
                        f"dominance predicate on {name!r}: not a poset attribute"
                    )
                if value not in schema.attribute(name).poset:
                    raise SchemaError(
                        f"constraint value {value!r} outside domain of {name!r}"
                    )

    # ------------------------------------------------------------------
    def _transformed_box(
        self, dataset: TransformedDataset
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Constraint rectangle over the *numeric* leading coordinates,
        unbounded elsewhere."""
        schema = dataset.schema
        mins = [-math.inf] * schema.transformed_dimensions
        maxs = [math.inf] * schema.transformed_dimensions
        for k, attr in enumerate(schema.total_attrs):
            bounds = self.ranges.get(attr.name)
            if bounds is None:
                continue
            lo, hi = bounds
            if attr.sign == 1:
                if lo is not None:
                    mins[k] = lo
                if hi is not None:
                    maxs[k] = hi
            else:
                # Negation flips the roles: a raw lower bound becomes an
                # upper bound in the minimisation space and vice versa.
                if lo is not None:
                    maxs[k] = -lo
                if hi is not None:
                    mins[k] = -hi
        return tuple(mins), tuple(maxs)

    def admits(self, dataset: TransformedDataset, point: Point) -> bool:
        """Exact per-record predicate."""
        schema = dataset.schema
        for k, attr in enumerate(schema.total_attrs):
            bounds = self.ranges.get(attr.name)
            if bounds is None:
                continue
            lo, hi = bounds
            value = point.record.totals[k]
            if lo is not None and value < lo:
                return False
            if hi is not None and value > hi:
                return False
        for k, attr in enumerate(schema.partial_attrs):
            poset = attr.poset
            value = point.record.partials[k]
            anchor = self.must_dominate.get(attr.name)
            if anchor is not None and not poset.leq(anchor, value):
                return False
            anchor = self.dominated_by.get(attr.name)
            if anchor is not None and not poset.leq(value, anchor):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Constraint(ranges={self.ranges}, must_dominate={self.must_dominate}, "
            f"dominated_by={self.dominated_by})"
        )


def constrained_skyline(
    dataset: TransformedDataset,
    constraint: Constraint,
    method: str = "bbs",
) -> list[Point]:
    """Skyline of the records admitted by ``constraint``.

    ``method`` is ``"bbs"`` (index-accelerated: numeric predicates prune
    subtrees, poset predicates filter records, dominance handled BBS+-
    style with native false-positive removal) or ``"bnl"`` (filter, then
    native block-nested-loops).
    """
    constraint.validate(dataset)
    kernel = dataset.kernel

    if method == "bnl":
        qualifying = [p for p in dataset.points if constraint.admits(dataset, p)]
        return list(
            bnl_passes(qualifying, kernel.native_dominates, 10**9, dataset.stats)
        )
    if method not in METHODS:
        raise AlgorithmError(
            f"unknown constrained-skyline method {method!r}; available: {list(METHODS)}"
        )

    box_mins, box_maxs = constraint._transformed_box(dataset)
    skyline: list[Point] = []

    def node_pruned(node: Node) -> bool:
        # Disjoint from the numeric constraint region: nothing inside
        # can qualify.
        for lo, hi, nlo, nhi in zip(box_mins, box_maxs, node.mins, node.maxs):
            if nhi < lo or nlo > hi:
                return True
        mins = node.mins
        bound = node.min_key
        for p in skyline:
            if p.key >= bound:
                break
            if kernel.m_dominates_mins(p, mins):
                return True
        return False

    def point_pruned(point: Point) -> bool:
        for lo, hi, x in zip(box_mins, box_maxs, point.vector):
            if x < lo or x > hi:
                return True
        bound = point.key
        for p in skyline:
            if p.key >= bound:
                break
            if kernel.m_dominates(p, point):
                return True
        return False

    for e in traverse(
        dataset.index, dataset.stats, node_pruned, point_pruned, dataset.context
    ):
        if not constraint.admits(dataset, e):
            continue
        dominated = False
        i = 0
        while i < len(skyline):
            p = skyline[i]
            if kernel.native_dominates(p, e):
                dominated = True
                break
            if kernel.native_dominates(e, p):
                del skyline[i]  # order-preserving for the key-bounded scans
                continue
            i += 1
        if not dominated:
            skyline.append(e)
    return skyline
