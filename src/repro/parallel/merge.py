"""Cross-shard merge of shard-local skylines.

Every partition is *ordered* (see :mod:`repro.parallel.partition`):
a point in shard ``g`` can only be dominated by points in shards
``h <= g``.  The merge is therefore a single pass in shard order -- each
shard's candidates are checked against the running definite set ``S``
and the survivors are promoted into ``S`` afterwards (never during: a
shard's candidates are its local skyline, hence mutually non-dominated).

That single-pass structure is what makes the merge *incremental*:
:class:`IncrementalMerger` absorbs one shard at a time, so the
work-stealing executor can merge shard ``g`` the moment tasks
``0..g`` have finished, while later tasks are still computing -- no
barrier on the full fan-out, and each absorbed shard's survivors stream
to the sink immediately (they are definite: only earlier shards could
have dominated them).

Two paper devices make the pass cheap:

**Lemma 4.1 restriction.**  ``S`` is bucketed by category and a
candidate ``p`` only scans the buckets in ``dominators_of(p.category)``
-- dominance is impossible from any other category.  With the batch
kernel the buckets are :class:`~repro.core.batch.SkylineBuffer` objects
seeded per shard with the bulk ``extend`` promotion; counters are
identical to the scalar scan by the buffer contract.

**Representative prefilter (Lemma 4.2).**  Before any per-point work,
each shard nominates up to two representatives from its local skyline
(its minimum-key point, and its minimum-key *completely covering* point)
and earlier shards' representatives try to knock out whole later shards:
``rep`` eliminates shard ``g`` when (a) every category present in ``g``
is reachable from ``rep.category`` over a *bold* edge -- where
m-dominance coincides with dominance -- and (b) ``rep`` strictly
m-dominates the componentwise min corner of ``g``'s candidates, which
makes it m-dominate (hence, by (a), dominate) every one of them.  The
corner strictness also protects transformed-space duplicates of ``rep``:
if some candidate shares ``rep``'s vector the corner test cannot be
strict and the shard survives to the per-point pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.categories import Category, dominators_of, is_bold, ordered_categories
from repro.transform.point import Point

__all__ = ["MergeOutcome", "IncrementalMerger"]


@dataclass
class MergeOutcome:
    """The merged skyline plus what the prefilter managed to skip."""

    points: list[Point]
    #: Shard indexes whose entire local skyline the prefilter eliminated.
    eliminated: tuple[int, ...]


def _min_corner(points: list[Point]) -> list[float]:
    mins = list(points[0].vector)
    for p in points[1:]:
        vector = p.vector
        for k in range(len(mins)):
            if vector[k] < mins[k]:
                mins[k] = vector[k]
    return mins


def _representatives(points: list[Point]) -> list[Point]:
    """Min-key candidate, plus the min-key completely covering one."""
    best = min(range(len(points)), key=lambda i: (points[i].key, i))
    reps = [points[best]]
    covering = [
        i for i, p in enumerate(points) if p.category.completely_covering
    ]
    if covering:
        best_cov = min(covering, key=lambda i: (points[i].key, i))
        if best_cov != best:
            reps.append(points[best_cov])
    return reps


class IncrementalMerger:
    """Absorb shard-local skylines one at a time, **in shard order**.

    ``dataset`` supplies the dominance kernel and the counter bundle the
    merge phase bills to (callers pass an isolated ``query_view``).
    ``sink``, when given, receives each shard's survivor batch the
    moment :meth:`absorb` finishes with it -- long before later shards
    merge; each batch extends a valid prefix of the final emission
    order, which is shard order x local emission order and identical to
    the serial SDC+ order under strata partitioning.
    """

    def __init__(self, dataset, sink=None) -> None:
        self._kernel = dataset.kernel
        self._batch = getattr(self._kernel, "is_batch", False)
        self._sink = sink
        #: Representatives of absorbed, non-eliminated, non-empty shards.
        self._reps: list[list[Point]] = []
        #: Running definite set, bucketed by category (Lemma 4.1).
        self._S: dict[Category, object] = {}
        self._out: list[Point] = []
        self._eliminated: list[int] = []

    def absorb(self, shard_index: int, candidates: list[Point]) -> list[Point]:
        """Merge one shard's local skyline; returns its survivors."""
        if not candidates:
            return []

        # Representative prefilter (Lemma 4.2): earlier shards try to
        # knock out this whole shard before any per-point work.
        corner = tuple(_min_corner(candidates))
        cats = frozenset(p.category for p in candidates)
        for reps in self._reps:
            for rep in reps:
                if all(is_bold(rep.category, c) for c in cats) and (
                    self._kernel.m_dominates_mins(rep, corner)
                ):
                    self._eliminated.append(shard_index)
                    return []

        survivors: list[Point] = []
        for p in candidates:
            dominated = False
            for scat in ordered_categories(dominators_of(p.category)):
                bucket = self._S.get(scat)
                if bucket is None or not len(bucket):
                    continue
                if self._batch:
                    dominated = bucket.scan_compare(p)
                else:
                    for q in bucket:
                        if self._kernel.compare_dominance(p, q) == 1:
                            dominated = True
                            break
                if dominated:
                    break
            if not dominated:
                survivors.append(p)
        self._out.extend(survivors)
        self._reps.append(_representatives(candidates))
        if not survivors:
            return []
        if self._sink is not None:
            self._sink.extend(survivors)
        # Bulk promotion into the definite buckets (one array fill per
        # category with the batch kernel; see SkylineBuffer.extend).
        by_cat: dict[Category, list[Point]] = {}
        for p in survivors:
            by_cat.setdefault(p.category, []).append(p)
        for cat, group in by_cat.items():
            bucket = self._S.get(cat)
            if bucket is None:
                if self._batch:
                    from repro.core.batch import SkylineBuffer

                    self._S[cat] = SkylineBuffer.from_points(self._kernel, group)
                else:
                    self._S[cat] = list(group)
            else:
                bucket.extend(group)
        return survivors

    def outcome(self) -> MergeOutcome:
        """Global skyline so far (emission order) + eliminated shards."""
        return MergeOutcome(points=self._out, eliminated=tuple(self._eliminated))

