"""Vectorized batch dominance backend (the ``kernel="numpy"`` option).

The pure-Python :class:`~repro.core.dominance.DominanceKernel` compares
one point pair at a time, which makes the skyline-buffer scan -- the
paper's dominant cost (Section 5, Figs. 10-12) -- O(|buffer|)
interpreted iterations per candidate.  This module keeps each skyline
buffer as a contiguous ``float64`` numpy matrix (grown incrementally,
with per-row poset-node-index side arrays) and answers the two hot
questions

* "is this candidate m-dominated by any buffer point?"  and
* "which buffer points does this candidate dominate?"

as single vectorized reductions.  Expensive original-domain comparisons
are memoized: per-poset-attribute relations are packed once into numpy
**bitset matrices** (built from the real native sets, the
:class:`~repro.posets.closure.IntervalClosure`, or the
:class:`~repro.posets.poset.Poset`, per the dataset's ``native_mode``)
so a native verdict is a handful of array lookups; domains too large to
square are served by an LRU pair-cache instead.

Counter fidelity
----------------
Both backends must stay interpretable against the paper's
comparison-count analysis, so every operation here charges
:class:`~repro.core.stats.ComparisonStats` for **exactly the logical
comparisons the Python backend would have performed**: key-bounded scans
charge up to the first dominator (or the whole ``key < bound`` prefix),
update scans charge each row up to the early-exit row, and native
counters split into ``native_numeric`` vs ``native_set``/``native_closure``
per pair exactly as :meth:`DominanceKernel.native_dominates` does.  The
randomized parity suite (``tests/test_batch_kernel.py``) asserts
identical answer sequences *and* identical counter bundles.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.core.dominance import DominanceKernel
from repro.core.schema import Schema
from repro.core.stats import ComparisonStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.transform.mapping import DomainMapping
    from repro.transform.point import Point

__all__ = ["BatchDominanceKernel", "SkylineBuffer", "batch_bnl_passes"]


# ---------------------------------------------------------------------------
# Bitset helpers
# ---------------------------------------------------------------------------
# Largest poset domain whose relation matrices are additionally kept as
# unpacked bool arrays (n x n bytes each) for single-gather vectorized
# lookups; beyond this only the 8x-smaller packed bitsets are stored.
_UNPACK_NODES = 2048


def _bits_rows(bits: np.ndarray, rows: np.ndarray, j: int) -> np.ndarray:
    """Bit ``(rows[k], j)`` of a packed (n, ceil(n/8)) matrix, as bools."""
    return ((bits[rows, j >> 3] >> (7 - (j & 7))) & 1).astype(bool)


def _bits_cols(bits: np.ndarray, i: int, cols: np.ndarray) -> np.ndarray:
    """Bit ``(i, cols[k])`` of a packed matrix, as bools."""
    row = bits[i]
    return ((row[cols >> 3] >> (7 - (cols & 7))) & 1).astype(bool)


def _bits_block(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bits ``(rows[x], cols[y])`` of a packed matrix, as an (x, y) bool block."""
    words = bits.take(rows, axis=0).take(cols >> 3, axis=1)
    return ((words >> (7 - (cols & 7))) & 1).astype(bool)


class _AttrRelation:
    """Memoized ``(ge, gt)`` node-pair relations of one poset attribute.

    ``ge(i, j)`` is the non-strict original-domain relation ("value i is
    at least as good as value j"): set containment ``set_j <= set_i`` for
    set-valued attributes, ``i == j or i reaches j`` otherwise.
    ``gt(i, j)`` is the strict part.  Domains with at most
    ``max_bitset_nodes`` values are packed into two n x ceil(n/8) uint8
    bitset matrices; larger domains fall back to an LRU pair-cache over
    the scalar comparison (so repeated pairs are still O(1)).
    """

    __slots__ = ("mode", "n", "ge_bits", "gt_bits", "ge_bool", "gt_bool",
                 "ge_boolT", "gt_boolT", "_ge_ints", "_gt_ints", "_sets",
                 "_sizes", "_closure", "_cache", "_cache_cap")

    def __init__(
        self,
        mapping: "DomainMapping",
        closure,
        max_bitset_nodes: int,
        pair_cache_size: int,
    ) -> None:
        attr = mapping.attribute
        self.n = n = len(attr.poset)
        self._cache: OrderedDict[tuple[int, int], tuple[bool, bool]] = OrderedDict()
        self._cache_cap = pair_cache_size
        self.ge_bits = None
        self.gt_bits = None
        self.ge_bool = None
        self.gt_bool = None
        self.ge_boolT = None
        self.gt_boolT = None
        self._ge_ints = None
        self._gt_ints = None
        self._sets = None
        self._sizes = None
        self._closure = None
        if closure is not None:
            self.mode = "closure"
            self._closure = closure
        elif attr.set_domain is not None:
            self.mode = "set"
            dom = attr.set_domain
            self._sets = tuple(dom.set_of_ix(i) for i in range(n))
            self._sizes = tuple(len(s) for s in self._sets)
        else:
            self.mode = "reach"
            # The interval closure over the mapping's own forest is an
            # exact reachability index (ABJ'89), so its verdicts match
            # Poset.dominates_ix while building in vectorized passes.
            self._closure = mapping.closure
        if n <= max_bitset_nodes:
            self._build_bits()

    # ------------------------------------------------------------------
    def _build_bits(self) -> None:
        n = self.n
        if self.mode == "set":
            # Membership-matrix route: |a & b| == |b|  <=>  b <= a.
            index: dict = {}
            for s in self._sets:
                for item in s:
                    if item not in index:
                        index[item] = len(index)
            members = np.zeros((n, max(1, len(index))), dtype=np.float32)
            for i, s in enumerate(self._sets):
                for item in s:
                    members[i, index[item]] = 1.0
            inter = members @ members.T
            sizes = np.asarray(self._sizes, dtype=np.float32)
            ge = inter == sizes[None, :]
            gt = ge & (sizes[:, None] > sizes[None, :])
        else:
            closure = self._closure
            posts = np.asarray(
                [closure.encoding.interval_ix(i)[1] for i in range(n)],
                dtype=np.int64,
            )
            covers = np.zeros((n, n), dtype=bool)
            for i in range(n):
                row = covers[i]
                for lo, hi in closure.intervals_ix(i):
                    row |= (posts >= lo) & (posts <= hi)
            eye = np.eye(n, dtype=bool)
            gt = covers & ~eye
            ge = gt | eye
        self.ge_bits = np.packbits(ge, axis=1)
        self.gt_bits = np.packbits(gt, axis=1)
        if n <= _UNPACK_NODES:
            # Unpacked bool matrices (and their transposes) for the
            # vectorized gathers: indexing a contiguous *row* and then
            # fancy-gathering from the resulting 1-D view is ~3x cheaper
            # than a 2-D fancy index, so `rows` reads the transpose and
            # `cols` the original.
            self.ge_bool = np.ascontiguousarray(ge)
            self.gt_bool = np.ascontiguousarray(gt)
            self.ge_boolT = np.ascontiguousarray(ge.T)
            self.gt_boolT = np.ascontiguousarray(gt.T)
        # Arbitrary-precision row masks (bit j of row i = relation(i, j))
        # for the scalar path: `(mask >> j) & 1` is a few tens of ns,
        # far cheaper than indexing a numpy scalar out of the packed
        # matrix.  The vectorized paths keep using the packed matrices.
        self._ge_ints = self._row_ints(ge)
        self._gt_ints = self._row_ints(gt)

    @staticmethod
    def _row_ints(rel: np.ndarray) -> list[int]:
        n = rel.shape[1]
        packed = np.packbits(rel[:, ::-1], axis=1)
        shift = packed.shape[1] * 8 - n
        data = packed.tobytes()
        width = packed.shape[1]
        return [
            int.from_bytes(data[i * width : (i + 1) * width], "big") >> shift
            for i in range(rel.shape[0])
        ]

    def _pair_slow(self, i: int, j: int) -> tuple[bool, bool]:
        if self.mode == "set":
            sp, sq = self._sets[i], self._sets[j]
            ge = sq <= sp
            return ge, ge and self._sizes[i] > self._sizes[j]
        gt = self._closure.reachable_ix(i, j)
        return gt or i == j, gt

    # ------------------------------------------------------------------
    def pair(self, i: int, j: int) -> tuple[bool, bool]:
        """Scalar ``(ge, gt)`` for one node-index pair (memoized)."""
        ints = self._ge_ints
        if ints is not None:
            if not (ints[i] >> j) & 1:
                return False, False
            return True, bool((self._gt_ints[i] >> j) & 1)
        cache = self._cache
        key = (i, j)
        hit = cache.get(key)
        if hit is not None:
            # The memo may be shared by concurrent per-query kernels; a
            # concurrent eviction between get() and move_to_end() only
            # loses the recency bump, never the (pure) verdict.
            try:
                cache.move_to_end(key)
            except KeyError:
                pass
            return hit
        verdict = self._pair_slow(i, j)
        cache[key] = verdict
        if len(cache) > self._cache_cap:
            cache.popitem(last=False)
        return verdict

    def rows(self, rows_pix: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(ge, gt)`` of many row nodes vs one target node."""
        if self.ge_boolT is not None:
            return self.ge_boolT[j][rows_pix], self.gt_boolT[j][rows_pix]
        if self.ge_bits is not None:
            ge = _bits_rows(self.ge_bits, rows_pix, j)
            gt = _bits_rows(self.gt_bits, rows_pix, j)
            return ge, gt
        out = [self.pair(int(i), j) for i in rows_pix]
        if not out:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        arr = np.asarray(out, dtype=bool)
        return arr[:, 0], arr[:, 1]

    def cols(self, i: int, cols_pix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(ge, gt)`` of one source node vs many row nodes."""
        if self.ge_bool is not None:
            return self.ge_bool[i][cols_pix], self.gt_bool[i][cols_pix]
        if self.ge_bits is not None:
            ge = _bits_cols(self.ge_bits, i, cols_pix)
            gt = _bits_cols(self.gt_bits, i, cols_pix)
            return ge, gt
        out = [self.pair(i, int(j)) for j in cols_pix]
        if not out:
            empty = np.zeros(0, dtype=bool)
            return empty, empty
        arr = np.asarray(out, dtype=bool)
        return arr[:, 0], arr[:, 1]

    def block(
        self, a_pix: np.ndarray, b_pix: np.ndarray, reverse: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(ge, gt)`` of every ``(a_pix[x], b_pix[y])`` pair.

        Both results have shape ``(len(a_pix), len(b_pix))``; with
        ``reverse`` entry ``(x, y)`` relates ``b_pix[y]`` to ``a_pix[x]``
        instead.  Results are C-contiguous, so the elementwise folds
        that consume them run at full speed.  The unpacked storage
        gathers whole rows first, then columns from them -- several
        times cheaper than one 2-D fancy index -- reading the transposes
        for ``reverse``.
        """
        if self.ge_bool is not None:
            ge, gt = (self.ge_boolT, self.gt_boolT) if reverse else (
                self.ge_bool, self.gt_bool)
            return (ge.take(a_pix, axis=0).take(b_pix, axis=1),
                    gt.take(a_pix, axis=0).take(b_pix, axis=1))
        if self.ge_bits is not None:
            if reverse:
                return (
                    np.ascontiguousarray(_bits_block(self.ge_bits, b_pix, a_pix).T),
                    np.ascontiguousarray(_bits_block(self.gt_bits, b_pix, a_pix).T),
                )
            return (_bits_block(self.ge_bits, a_pix, b_pix),
                    _bits_block(self.gt_bits, a_pix, b_pix))
        # LRU pair-cache: one scalar verdict per distinct node pair.
        ua, ia = np.unique(a_pix, return_inverse=True)
        ub, ib = np.unique(b_pix, return_inverse=True)
        pair = self.pair
        table = np.asarray(
            [
                [pair(j, i) if reverse else pair(i, j) for j in ub.tolist()]
                for i in ua.tolist()
            ],
            dtype=bool,
        ).reshape(len(ua), len(ub), 2)
        table = table.take(ia, axis=0).take(ib, axis=1)
        return np.ascontiguousarray(table[:, :, 0]), np.ascontiguousarray(table[:, :, 1])


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------
class BatchDominanceKernel(DominanceKernel):
    """Drop-in :class:`DominanceKernel` with vectorized buffer operations.

    The scalar API (``m_dominates``, ``native_dominates``,
    ``compare_dominance``, ``full_dominates``) keeps working -- native
    comparisons are answered through the bitset memo with identical
    counters -- so algorithms and queries without a dedicated batch path
    run unchanged.  Algorithms with a batch path obtain vectorized
    skyline buffers from :meth:`new_buffer`.

    Parameters
    ----------
    mappings:
        The dataset's per-poset-attribute
        :class:`~repro.transform.mapping.DomainMapping` objects, from
        which the relation memo is built.
    max_bitset_nodes:
        Largest poset domain that gets a packed n x n bitset matrix
        (quadratic space); larger domains use the LRU pair-cache.
    pair_cache_size:
        Capacity of the LRU pair-cache used beyond the bitset limit.
    """

    is_batch = True

    __slots__ = ("_mappings", "_relations", "_max_bitset_nodes", "_pair_cache_size")

    def __init__(
        self,
        schema: Schema,
        stats: ComparisonStats | None = None,
        faithful_gate: bool = False,
        closures: tuple | None = None,
        mappings: tuple = (),
        max_bitset_nodes: int = 4096,
        pair_cache_size: int = 1 << 20,
    ) -> None:
        super().__init__(schema, stats, faithful_gate, closures)
        self._mappings = tuple(mappings)
        self._relations: tuple[_AttrRelation, ...] | None = None
        self._max_bitset_nodes = max_bitset_nodes
        self._pair_cache_size = pair_cache_size

    # ------------------------------------------------------------------
    def relations(self) -> tuple[_AttrRelation, ...]:
        """The per-attribute relation memo (built on first use)."""
        rels = self._relations
        if rels is None:
            closures = self._closures or (None,) * len(self._mappings)
            rels = tuple(
                _AttrRelation(
                    mapping, closure, self._max_bitset_nodes, self._pair_cache_size
                )
                for mapping, closure in zip(self._mappings, closures)
            )
            self._relations = rels
        return rels

    def warm(self) -> None:
        """Force the relation memo to exist (offline build, like indexes)."""
        self.relations()

    def new_buffer(self) -> "SkylineBuffer":
        """A fresh vectorized skyline buffer bound to this kernel."""
        return SkylineBuffer(self)

    @staticmethod
    def point_array(point: "Point") -> np.ndarray:
        """The point's vector as a cached float64 array."""
        arr = point._arr
        if arr is None:
            arr = point._arr = np.asarray(point.vector, dtype=np.float64)
        return arr

    # ------------------------------------------------------------------
    # Verdicts for BNL window scans
    # ------------------------------------------------------------------
    # A BNL scan of window rows tests, row by row, "does the row dominate
    # the candidate?" and then "does the candidate dominate the row?",
    # stopping at the first dominator and reshaping the window at the
    # first eviction.  Both methods below reduce such a scan to those two
    # events: the first dominator row and the first row the candidate
    # dominates (``R``, the row count, when there is none; an eviction
    # row past the dominator may read as ``R``, since the scan stops at
    # the dominator).  They add ``fails``: how many of the scan's charged
    # tests -- both directions for every row up to the earlier event,
    # except the reverse test of a dominator row -- a native comparison
    # settles on the totally-ordered prefix (``native_numeric`` charges;
    # 0 for m-dominance and for schemas without poset attributes, whose
    # tests never split).  Nothing is charged here: the caller charges
    # each candidate as it consumes its verdict.

    def block_verdicts(
        self,
        native: bool,
        block: list["Point"],
        rows_vt: np.ndarray,
        rows_pt: np.ndarray,
    ) -> tuple[list[int], list[int], list[int]]:
        """Scan verdicts of every candidate in ``block`` against the
        window rows ``rows_vt``/``rows_pt`` (one column per row), from
        one broadcast evaluation of the (candidate, row) grid.

        ``native`` selects original-domain dominance, otherwise
        m-dominance.  Returns the ``(first_dom, first_evict, fails)``
        lists described above, one entry per candidate.
        """
        R = rows_vt.shape[1]
        B = len(block)
        d = rows_vt.shape[0]
        cand_vt = np.fromiter(
            chain.from_iterable(p.vector for p in block), np.float64, B * d
        ).reshape(B, d).T
        split = False
        if native:
            nt = self._num_total
            if nt:
                le1 = rows_vt[0] <= cand_vt[0][:, None]  # row no worse
                le2 = rows_vt[0] >= cand_vt[0][:, None]  # candidate no worse
                for k in range(1, nt):
                    le1 &= rows_vt[k] <= cand_vt[k][:, None]
                    le2 &= rows_vt[k] >= cand_vt[k][:, None]
                fail1 = ~le1
                fail2 = ~le2
            else:
                le1 = np.ones((B, R), dtype=bool)
                le2 = le1.copy()
                fail1 = fail2 = np.zeros((B, R), dtype=bool)
            # A row strictly better on some total is exactly one the
            # candidate fails to match there (and vice versa).
            strict1, strict2 = fail2, fail1
            rels = self.relations()
            if rels:
                split = True
                cand_pt = np.fromiter(
                    chain.from_iterable(p.pix for p in block),
                    np.int64,
                    B * len(rels),
                ).reshape(B, len(rels)).T
            for k, rel in enumerate(rels):
                ge1, gt1 = rel.block(cand_pt[k], rows_pt[k], reverse=True)
                ge2, gt2 = rel.block(cand_pt[k], rows_pt[k])
                le1 &= ge1
                le2 &= ge2
                strict1 = strict1 | gt1
                strict2 = strict2 | gt2
            dom1 = le1 & strict1
            dom2 = le2 & strict2
        else:
            le = rows_vt[0] <= cand_vt[0][:, None]
            ge = rows_vt[0] >= cand_vt[0][:, None]
            for k in range(1, d):
                le &= rows_vt[k] <= cand_vt[k][:, None]
                ge &= rows_vt[k] >= cand_vt[k][:, None]
            dom1 = le > ge  # le and not ge: not equal, so strict
            dom2 = ge > le
        first_dom = dom1.argmax(axis=1)
        first_evict = dom2.argmax(axis=1)
        idx = np.arange(B)
        first_dom[~dom1[idx, first_dom]] = R
        first_evict[~dom2[idx, first_evict]] = R
        if not split:
            return first_dom.tolist(), first_evict.tolist(), [0] * B
        # Rows [0, t1) ran both directions, less the reverse test of a
        # dominator row.  One segmented sum over the flattened grid
        # counts the failures in each candidate's first t1 rows.
        t1 = np.minimum(np.minimum(first_dom, first_evict) + 1, R)
        bounds = np.empty(2 * B, dtype=np.intp)
        bounds[0::2] = idx * R
        bounds[1::2] = bounds[0::2] + t1
        both = fail1.view(np.uint8) + fail2.view(np.uint8)
        if bounds[-1] == both.size:  # the last candidate counts its row whole
            bounds = bounds[:-1]
        fails = np.add.reduceat(both.ravel(), bounds, dtype=np.intp)[0::2]
        fails -= fail2[idx, t1 - 1] & (first_dom < first_evict)
        return first_dom.tolist(), first_evict.tolist(), fails.tolist()

    def scan_verdict(
        self,
        native: bool,
        point: "Point",
        rows_vt: np.ndarray,
        rows_pt: np.ndarray,
    ) -> tuple[int, int, int]:
        """``(first_dom, first_evict, fails)`` of one candidate against
        the window rows, from 1-D masks (a scan resumed past its block
        verdict)."""
        R = rows_vt.shape[1]
        if native:
            dom1, fail1, dom2, fail2 = _native_masks_both(
                self, rows_vt, rows_pt, point.vector, point.pix
            )
        else:
            le, ge = _m_le_both(rows_vt, point.vector)
            dom1 = le > ge
            dom2 = ge > le
        # A bool argmax stops at the first True; a miss reads 0.
        first_dom = int(dom1.argmax())
        if not dom1[first_dom]:
            first_dom = R
        first_evict = int(dom2[:first_dom].argmax()) if first_dom else 0
        if first_evict >= first_dom or not dom2[first_evict]:
            first_evict = R
        if not native or not self._posets:
            return first_dom, first_evict, 0
        if first_dom < first_evict:
            t1, t2 = first_dom + 1, first_dom
        else:
            t1 = t2 = min(first_evict + 1, R)
        fails = int(np.count_nonzero(fail1[:t1])) + int(np.count_nonzero(fail2[:t2]))
        return first_dom, first_evict, fails

    # ------------------------------------------------------------------
    # Scalar native dominance through the memo (identical counters)
    # ------------------------------------------------------------------
    def native_dominates(self, p: "Point", q: "Point") -> bool:
        nt = self._num_total
        pv, qv = p.vector, q.vector
        stats = self.stats
        strict = False
        for k in range(nt):
            a, b = pv[k], qv[k]
            if a > b:
                stats.native_numeric += 1
                return False
            if a < b:
                strict = True
        if not self._posets:
            stats.native_numeric += 1
            return strict
        if self._closures is not None:
            stats.native_closure += 1
        else:
            stats.native_set += 1
        ppix, qpix = p.pix, q.pix
        rels = self._relations
        if rels is None:
            rels = self.relations()
        for k, rel in enumerate(rels):
            # Inlined rel.pair() fast path: the int-bitmask probes avoid
            # a method call and tuple allocation per attribute, which is
            # most of this function's cost on the BNL scalar prefix.
            ge_ints = rel._ge_ints
            i, j = ppix[k], qpix[k]
            if ge_ints is not None:
                if not (ge_ints[i] >> j) & 1:
                    return False
                if not strict and (rel._gt_ints[i] >> j) & 1:
                    strict = True
            else:
                ge, gt = rel.pair(i, j)
                if not ge:
                    return False
                if gt:
                    strict = True
        return strict

    def compare_native_tail(self, x: "Point", y: "Point") -> int:
        """The original-domain tail of ``compare_dominance`` (Fig. 6
        steps 5-9), applied when m-dominance was inconclusive.  The
        caller accounts for the m-dominance part of the comparison."""
        x_cat, y_cat = x.category, y.category
        if self.faithful_gate:
            if not x_cat.completely_covering and not y_cat.completely_covered:
                if self.native_dominates(y, x):
                    return 1
                if self.native_dominates(x, y):
                    return -1
            return 0
        if not y_cat.completely_covering and not x_cat.completely_covered:
            if self.native_dominates(y, x):
                return 1
        if not x_cat.completely_covering and not y_cat.completely_covered:
            if self.native_dominates(x, y):
                return -1
        return 0


# ---------------------------------------------------------------------------
# Vectorized dominance masks over transposed row blocks
# ---------------------------------------------------------------------------
# All mask kernels work on *transposed* buffers -- ``Vt`` has one
# contiguous row per transformed dimension -- and fold column-wise 1-D
# comparisons against Python-float scalars.  At the few-hundred-row
# block sizes these scans see, a handful of contiguous 1-D ufunc calls
# is several times cheaper than the equivalent 2-D elementwise compare
# plus axis-1 reduction (whose fixed setup cost dominates).


def _m_le_both(Vt: np.ndarray, wvec) -> tuple[np.ndarray, np.ndarray]:
    """``(row <= w everywhere, row >= w everywhere)`` per column block."""
    w0 = wvec[0]
    col = Vt[0]
    le = col <= w0
    ge = col >= w0
    for k in range(1, len(wvec)):
        col = Vt[k]
        wk = wvec[k]
        le = le & (col <= wk)
        ge = ge & (col >= wk)
    return le, ge


def _native_masks_both(
    kernel: BatchDominanceKernel,
    Vt: np.ndarray,
    Pt: np.ndarray,
    wvec,
    wpix: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dom1, fail1, dom2, fail2)`` per row, both native directions.

    ``dom1``: does each row dominate the target ``w``?  ``dom2``: does
    the target dominate each row?  The ``fail`` masks flag rows whose
    comparison already failed on the totally-ordered prefix (those are
    charged as ``native_numeric``).  The two directions share all totals
    comparisons: ``any(T < wt)`` -- the strictness witness of ``dom1``
    -- is exactly ``~all(T >= wt)``, the failure mask of ``dom2``.
    """
    nt = kernel._num_total
    n = Vt.shape[1]
    if nt:
        w0 = wvec[0]
        col = Vt[0]
        le1 = col <= w0
        le2 = col >= w0
        for k in range(1, nt):
            col = Vt[k]
            wk = wvec[k]
            le1 = le1 & (col <= wk)
            le2 = le2 & (col >= wk)
        fail1 = ~le1
        fail2 = ~le2
        lt1 = fail2  # some coordinate strictly better in the row
        lt2 = fail1
    else:
        le1 = le2 = np.ones(n, dtype=bool)
        lt1 = lt2 = fail1 = fail2 = np.zeros(n, dtype=bool)
    rels = kernel.relations()
    if not rels:
        return le1 & lt1, fail1, le2 & lt2, fail2
    dom1 = le1
    dom2 = le2
    gt1_any = lt1
    gt2_any = lt2
    for k, rel in enumerate(rels):
        rows_pix = Pt[k]
        j = wpix[k]
        ge1, gt1 = rel.rows(rows_pix, j)
        ge2, gt2 = rel.cols(j, rows_pix)
        dom1 = dom1 & ge1
        dom2 = dom2 & ge2
        gt1_any = gt1_any | gt1
        gt2_any = gt2_any | gt2
    return dom1 & gt1_any, fail1, dom2 & gt2_any, fail2


# ---------------------------------------------------------------------------
# Skyline buffer
# ---------------------------------------------------------------------------
# Below this many rows a buffer scan runs the exact scalar loop of the
# Python backend (same kernel methods, same counters): numpy's fixed
# per-expression overhead (~1us each, ~10 expressions per scan) only
# amortizes once a scan covers a few dozen rows.
_SCALAR_ROWS = 24

# Scalar head of every key-bounded pruning scan: rows scanned as a plain
# Python loop (with its sub-microsecond early exit) before the vectorized
# blocks take over.  Pruning hits cluster at the front of a key-sorted
# buffer, so most probes never reach the numpy expressions.
_SCALAR_HEAD = 24


class SkylineBuffer:
    """A skyline buffer backed by contiguous numpy arrays.

    Rows mirror ``self.points`` (the ordered Python point list the
    algorithms emit from).  Storage is *transposed*: ``_Vt[k]`` is the
    contiguous ``k``-th transformed coordinate of every row (so the
    column-wise mask kernels stream contiguous memory), ``_keys`` the
    BBS priorities, ``_Pt[k]`` the node indices of the ``k``-th poset
    attribute, and ``_cing``/``_ced`` the per-row category bits that
    gate the native tail of ``CompareDominance``.  All operations charge
    the kernel's :class:`ComparisonStats` exactly like the
    Python-backend scans they replace (see the module docstring).
    """

    __slots__ = (
        "kernel", "stats", "points", "_Vt", "_keys", "_Pt",
        "_cing", "_ced", "_n",
    )

    def __init__(self, kernel: BatchDominanceKernel, capacity: int = 32) -> None:
        self.kernel = kernel
        self.stats = kernel.stats
        self.points: list[Point] = []
        dims = kernel.schema.transformed_dimensions
        nposets = len(kernel._posets)
        capacity = max(4, capacity)
        self._Vt = np.empty((dims, capacity), dtype=np.float64)
        # The unused key tail stays +inf so key-bound searches can
        # binary-search the whole array without slicing out a view.
        self._keys = np.full(capacity, np.inf, dtype=np.float64)
        self._Pt = np.empty((nposets, capacity), dtype=np.int64)
        self._cing = np.empty(capacity, dtype=bool)
        self._ced = np.empty(capacity, dtype=bool)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator["Point"]:
        return iter(self.points)

    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = self._Vt.shape[1]
        if need <= cap:
            return
        new = max(need, cap * 2)
        pad = new - cap
        self._Vt = np.concatenate(
            [self._Vt, np.empty((self._Vt.shape[0], pad), dtype=np.float64)],
            axis=1,
        )
        self._keys = np.concatenate(
            [self._keys, np.full(pad, np.inf, dtype=np.float64)]
        )
        self._Pt = np.concatenate(
            [self._Pt, np.empty((self._Pt.shape[0], pad), dtype=np.int64)],
            axis=1,
        )
        self._cing = np.concatenate([self._cing, np.empty(pad, dtype=bool)])
        self._ced = np.concatenate([self._ced, np.empty(pad, dtype=bool)])

    def append(self, point: "Point") -> None:
        """Add one point at the end (callers append in key order)."""
        n = self._n
        self._grow(n + 1)
        self._Vt[:, n] = self.kernel.point_array(point)
        self._keys[n] = point.key
        if self._Pt.shape[0]:
            self._Pt[:, n] = point.pix
        cat = point.category
        self._cing[n] = cat.completely_covering
        self._ced[n] = cat.completely_covered
        self.points.append(point)
        self._n = n + 1

    def _delete_rows(self, rows: list[int]) -> list["Point"]:
        """Remove rows (sorted ascending); returns the removed points."""
        if not rows:
            return []
        points = self.points
        victims = [points[i] for i in rows]
        n = self._n
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        keep_idx = np.nonzero(keep)[0]
        m = len(keep_idx)
        self._Vt[:, :m] = self._Vt[:, keep_idx]
        self._keys[:m] = self._keys[keep_idx]
        self._keys[m:n] = np.inf
        if self._Pt.shape[0]:
            self._Pt[:, :m] = self._Pt[:, keep_idx]
        self._cing[:m] = self._cing[keep_idx]
        self._ced[:m] = self._ced[keep_idx]
        self.points = [points[i] for i in keep_idx]
        self._n = m
        return victims

    # ------------------------------------------------------------------
    # Key-bounded m-dominance pruning (the BBS-family hot path)
    # ------------------------------------------------------------------
    def _m_prunes(self, wvec, bound: float, counter: str) -> bool:
        n = self._n
        if n == 0:
            return False
        prefix = int(self._keys.searchsorted(bound))
        if prefix == 0:
            return False
        stats = self.stats
        d = len(wvec)
        # Hybrid scan: most probes are resolved by a front-row dominator
        # (the buffer is key-sorted), so the first rows run as a plain
        # Python loop with sub-microsecond early exits; only scans that
        # survive it pay the fixed cost of the vectorized blocks.
        head = prefix if prefix <= _SCALAR_HEAD else _SCALAR_HEAD
        points = self.points
        if d == 4:  # the common shape: unrolled, short-circuits on dim 0
            w0, w1, w2, w3 = wvec
            for row in range(head):
                pv = points[row].vector
                if pv[0] <= w0 and pv[1] <= w1 and pv[2] <= w2 and pv[3] <= w3:
                    setattr(stats, counter, getattr(stats, counter) + row + 1)
                    return True
        else:
            for row in range(head):
                pv = points[row].vector
                le = True
                for k in range(d):
                    if pv[k] > wvec[k]:
                        le = False
                        break
                if le:
                    setattr(stats, counter, getattr(stats, counter) + row + 1)
                    return True
        if head == prefix:
            setattr(stats, counter, getattr(stats, counter) + prefix)
            return False
        # Within the ``key < bound`` prefix, a row that is <= the probe
        # everywhere must be strictly better somewhere -- an identical
        # vector would have an identical key -- so the fold needs no
        # strictness term.  Geometrically growing blocks: dominators
        # cluster at the front of a key-sorted buffer, so most probes
        # resolve within the first block.
        Vt = self._Vt
        w0 = wvec[0]
        start = head
        block = 64
        while start < prefix:
            end = min(prefix, start + block)
            dom = Vt[0][start:end] <= w0
            for k in range(1, d):
                dom = dom & (Vt[k][start:end] <= wvec[k])
            hits = dom.nonzero()[0]
            if hits.size:
                charged = start + int(hits[0]) + 1
                setattr(stats, counter, getattr(stats, counter) + charged)
                return True
            start = end
            block = prefix  # two-stage: first block, then the remainder
        setattr(stats, counter, getattr(stats, counter) + prefix)
        return False

    def prunes_point(self, point: "Point") -> bool:
        """Key-bounded scan: is ``point`` m-dominated by a buffer row?"""
        return self._m_prunes(point.vector, point.key, "m_dominance_point")

    def prunes_mins(self, mins: tuple[float, ...], bound: float) -> bool:
        """Key-bounded scan: is an MBR's best corner m-dominated?"""
        return self._m_prunes(mins, bound, "m_dominance_mbr")

    def filters(self, point: "Point") -> bool:
        """Unbounded scan (SFS window): any row m-dominating ``point``?"""
        n = self._n
        if n == 0:
            return False
        if n <= _SCALAR_ROWS:
            kernel = self.kernel
            for p in self.points:
                if kernel.m_dominates(p, point):
                    return True
            return False
        wvec = point.vector
        wkey = point.key
        stats = self.stats
        Vt = self._Vt
        keys = self._keys
        points = self.points
        d = len(wvec)
        w0 = wvec[0]
        start = 0
        block = 64
        while start < n:
            end = min(n, start + block)
            dom = Vt[0][start:end] <= w0
            for k in range(1, d):
                dom = dom & (Vt[k][start:end] <= wvec[k])
            for h in dom.nonzero()[0].tolist():
                row = start + h
                # ``le`` plus any difference (witnessed by the key or,
                # under float rounding, the vector itself) is strict
                # m-dominance; an identical vector is not.
                if keys[row] != wkey or points[row].vector != wvec:
                    stats.m_dominance_point += row + 1
                    return True
            start = end
            block = n  # two-stage: first block, then the remainder
        stats.m_dominance_point += n
        return False

    # ------------------------------------------------------------------
    # Native UpdateSkylines (BBS+ Fig. 3; SDC comparison ablation)
    # ------------------------------------------------------------------
    def update_native(
        self, point: "Point", count_calls: bool = False
    ) -> tuple[bool, list["Point"]]:
        """Scan rows in order with native dominance both ways.

        Stops at the first row dominating ``point`` (returned flag);
        rows before the stop that ``point`` dominates are deleted and
        returned.  With ``count_calls`` each examined row is also charged
        one ``compare_dominance_calls`` (the SDC ablation's accounting).
        """
        n = self._n
        if n == 0:
            return False, []
        kernel = self.kernel
        stats = self.stats
        if n <= _SCALAR_ROWS:
            # Exact Python-backend loop (deletion timing does not change
            # which original rows get examined, so collecting victim row
            # indices and compacting once at the end is equivalent).
            points = self.points
            stopped = False
            victims_rows: list[int] = []
            for j in range(n):
                if count_calls:
                    stats.compare_dominance_calls += 1
                if kernel.native_dominates(points[j], point):
                    stopped = True
                    break
                if kernel.native_dominates(point, points[j]):
                    victims_rows.append(j)
            return stopped, self._delete_rows(victims_rows)
        dom1, fail1, dom2, fail2 = _native_masks_both(
            kernel, self._Vt[:, :n], self._Pt[:, :n], point.vector, point.pix
        )
        hits1 = dom1.nonzero()[0]
        stopped = hits1.size > 0
        stop = int(hits1[0]) if stopped else n
        examined = stop + 1 if stopped else n
        upto = stop if stopped else n  # rows that also ran the reverse test
        if kernel._posets:
            fails = int(np.count_nonzero(fail1[:examined]))
            fails += int(np.count_nonzero(fail2[:upto]))
            expensive = examined + upto - fails
            stats.native_numeric += fails
            if kernel._closures is not None:
                stats.native_closure += expensive
            else:
                stats.native_set += expensive
        else:
            stats.native_numeric += examined + upto
        if count_calls:
            stats.compare_dominance_calls += examined
        victims = self._delete_rows(dom2[:upto].nonzero()[0].tolist())
        return stopped, victims

    # ------------------------------------------------------------------
    # CompareDominance scans (SDC buckets, SDC+ local/definite sets)
    # ------------------------------------------------------------------
    def _compare_scan(
        self, point: "Point", deletes: bool
    ) -> tuple[bool, list["Point"]]:
        n = self._n
        if n == 0:
            return False, []
        kernel = self.kernel
        stats = self.stats
        if n <= _SCALAR_ROWS or kernel.faithful_gate:
            # Exact Python-backend loop (also serves the faithful-gate
            # ablation, whose call pattern is not worth vectorizing).
            points = self.points
            stopped = False
            victims_rows: list[int] = []
            for j in range(n):
                ret = kernel.compare_dominance(point, points[j])
                if ret == 1:
                    stopped = True
                    break
                if ret == -1 and deletes:
                    victims_rows.append(j)
            if not deletes:
                return stopped, []
            return stopped, self._delete_rows(victims_rows)
        wvec = point.vector
        Vt = self._Vt[:, :n]
        row_le, row_ge = _m_le_both(Vt, wvec)
        row_m_dom = row_le & ~row_ge  # compare_dominance == 1 by m-dominance
        stop = int(row_m_dom.argmax()) if row_m_dom.any() else n
        # Native tail over the m-undecided rows, Fig. 6 gates evaluated
        # from the stored per-row category bits (the candidate side of
        # each gate is a scalar).
        U = (~(row_le | row_ge)).nonzero()[0]
        native_victims = None
        if U.size:
            x_cat = point.category
            g1 = None if x_cat.completely_covered else ~self._cing[U]
            g2 = None if x_cat.completely_covering else ~self._ced[U]
            if g1 is not None or g2 is not None:
                dom1, fail1, dom2, fail2 = _native_masks_both(
                    kernel, Vt[:, U], self._Pt[:, :n][:, U], wvec, point.pix
                )
                if g1 is not None:
                    sp = U[g1 & dom1]
                    if sp.size and int(sp[0]) < stop:
                        # Scan stops on this native verdict: its own
                        # call is charged, its reverse test is not.
                        stop = int(sp[0])
                        charged1 = (U <= stop) & g1
                    else:
                        charged1 = (U < stop) & g1
                    n1 = int(np.count_nonzero(charged1))
                    f1 = int(np.count_nonzero(charged1 & fail1))
                else:
                    n1 = f1 = 0
                if g2 is not None:
                    charged2 = (U < stop) & g2
                    n2 = int(np.count_nonzero(charged2))
                    f2 = int(np.count_nonzero(charged2 & fail2))
                    if deletes:
                        native_victims = U[charged2 & dom2]
                else:
                    n2 = f2 = 0
                calls = n1 + n2
                if calls:
                    if kernel._posets:
                        f = f1 + f2
                        stats.native_numeric += f
                        if kernel._closures is not None:
                            stats.native_closure += calls - f
                        else:
                            stats.native_set += calls - f
                    else:
                        stats.native_numeric += calls
        stopped = stop < n
        examined = stop + 1 if stopped else n
        stats.compare_dominance_calls += examined
        stats.m_dominance_point += 2 * examined
        if not deletes:
            return stopped, []
        upto = stop if stopped else n
        rows = (row_ge & ~row_le)[:upto].nonzero()[0].tolist()
        if native_victims is not None and native_victims.size:
            rows = sorted(rows + native_victims.tolist())
        return stopped, self._delete_rows(rows)

    def update_compare(self, point: "Point") -> tuple[bool, list["Point"]]:
        """``CompareDominance`` scan with deletions (SDC / SDC+ local
        sets): stops at the first row dominating ``point``; rows before
        the stop that ``point`` dominates are deleted and returned."""
        return self._compare_scan(point, deletes=True)

    def scan_compare(self, point: "Point") -> bool:
        """``CompareDominance`` scan without deletions (SDC+ definite
        sets): only asks whether some row dominates ``point``."""
        return self._compare_scan(point, deletes=False)[0]

    # ------------------------------------------------------------------
    def absorb(self, other: "SkylineBuffer") -> None:
        """Key-merge ``other`` into this buffer (SDC+ stratum end).

        Replicates the Python backend's stratum merge: a stable merge by
        key when the incoming keys interleave, a plain extension
        otherwise (ties keep existing rows first, like ``heapq.merge``).
        """
        n1, n2 = self._n, other._n
        if n2 == 0:
            return
        if n1 and other._keys[0] < self._keys[n1 - 1]:
            keys = np.concatenate([self._keys[:n1], other._keys[:n2]])
            order = np.argsort(keys, kind="stable")
            Vt = np.concatenate([self._Vt[:, :n1], other._Vt[:, :n2]], axis=1)
            Pt = np.concatenate([self._Pt[:, :n1], other._Pt[:, :n2]], axis=1)
            cing = np.concatenate([self._cing[:n1], other._cing[:n2]])
            ced = np.concatenate([self._ced[:n1], other._ced[:n2]])
            self._grow(n1 + n2)
            self._Vt[:, : n1 + n2] = Vt[:, order]
            self._keys[: n1 + n2] = keys[order]
            if self._Pt.shape[0]:
                self._Pt[:, : n1 + n2] = Pt[:, order]
            self._cing[: n1 + n2] = cing[order]
            self._ced[: n1 + n2] = ced[order]
            merged = self.points + other.points
            self.points = [merged[i] for i in order]
        else:
            self._grow(n1 + n2)
            self._Vt[:, n1 : n1 + n2] = other._Vt[:, :n2]
            self._keys[n1 : n1 + n2] = other._keys[:n2]
            if self._Pt.shape[0]:
                self._Pt[:, n1 : n1 + n2] = other._Pt[:, :n2]
            self._cing[n1 : n1 + n2] = other._cing[:n2]
            self._ced[n1 : n1 + n2] = other._ced[:n2]
            self.points = self.points + other.points
        self._n = n1 + n2

    def extend(self, points: list["Point"]) -> None:
        """Bulk-append ``points`` with one array fill per column family.

        Equivalent to ``for p in points: self.append(p)`` (same rows,
        same order, no comparisons charged either way) but promotes a
        whole batch -- a stratum buffer at an SDC+ stratum boundary, a
        shard-local skyline entering the cross-shard merge -- without a
        per-point Python loop over five array writes each.
        """
        m = len(points)
        if m == 0:
            return
        n = self._n
        self._grow(n + m)
        kernel = self.kernel
        block = np.empty((m, self._Vt.shape[0]), dtype=np.float64)
        for i, p in enumerate(points):
            block[i] = kernel.point_array(p)
        self._Vt[:, n : n + m] = block.T
        self._keys[n : n + m] = [p.key for p in points]
        if self._Pt.shape[0]:
            self._Pt[:, n : n + m] = np.array(
                [p.pix for p in points], dtype=np.int64
            ).T
        self._cing[n : n + m] = [p.category.completely_covering for p in points]
        self._ced[n : n + m] = [p.category.completely_covered for p in points]
        self.points.extend(points)
        self._n = n + m

    @classmethod
    def from_points(
        cls, kernel: BatchDominanceKernel, points: list["Point"]
    ) -> "SkylineBuffer":
        """A buffer seeded from ``points`` in one bulk fill."""
        buffer = cls(kernel, capacity=max(4, len(points)))
        buffer.extend(points)
        return buffer


# ---------------------------------------------------------------------------
# Batch block-nested-loops
# ---------------------------------------------------------------------------
# Candidates that share one block verdict, and the window rows (from the
# front) it covers.  Most candidates meet their first dominator within
# the first few hundred window rows, so one vectorized evaluation of the
# next _BLOCK candidates against _PREFIX rows settles most of them with
# a few list lookups each; only the rest pay a per-candidate evaluation
# of the rows beyond.
_BLOCK = 64
_PREFIX = 256


def batch_bnl_passes(
    points: list["Point"],
    kernel: BatchDominanceKernel,
    mode: str,
    window_size: int,
    stats: ComparisonStats,
    context=None,
) -> Iterator["Point"]:
    """Vectorized twin of :func:`repro.algorithms.bnl.bnl_passes`.

    ``mode`` is ``"m"`` (transformed-space m-dominance, the BNL+ first
    stage) or ``"native"`` (original-domain dominance).  Control flow,
    emission order, the one ``checkpoint()`` per candidate and every
    counter mirror the Python version exactly.  The window lives in
    positional matrices ``FVt``/``FPt`` that mirror the ``fresh`` list
    through every swap-pop.

    A window scan needs, per run of rows, only the first row that
    dominates the candidate and the first row it dominates: that fixes
    the outcome, the swap-pops and the exact charges of the sequential
    scan.  The kernel supplies both (see
    :meth:`BatchDominanceKernel.block_verdicts`).  A candidate's scan
    starts from a *block verdict*: one vectorized evaluation of the next
    ``_BLOCK`` candidates (gathered per block) against the window's
    first ``_PREFIX`` rows.  Verdicts depend only on the (candidate,
    row) pair, so a block stays valid while those rows are unchanged:
    appends and swap-pops beyond the prefix leave it alone; an eviction
    inside the prefix expires it, and the next candidate starts a new
    block.  So does a window that has outgrown a short prefix (grown to
    twice the rows the block covers): rebuilding on every append would
    cost a block per candidate while the window grows.  A candidate
    dominated before any eviction is charged and dropped from its block
    verdict alone.  One that evicts a row is charged up to that row, the
    row is swap-popped exactly as the Python loop does, and the scan
    resumes at that position; one that passes the prefix resumes after
    it.  A resumed scan is one candidate's
    :meth:`~BatchDominanceKernel.scan_verdict` over the rest of the live
    window (zero-copy views of the positional matrices).  Carried
    multi-pass entries are compared first, through the kernel's scalar
    methods, as before.
    """
    if window_size < 1:
        from repro.exceptions import AlgorithmError

        raise AlgorithmError("window_size must be positive")
    if context is None:
        from repro.resilience.context import NULL_CONTEXT

        context = NULL_CONTEXT
    checkpoint = context.checkpoint
    guard_window = context.guard_window
    native = mode != "m"
    scalar_dom = kernel.native_dominates if native else kernel.m_dominates
    block_verdicts = kernel.block_verdicts
    scan_verdict = kernel.scan_verdict
    point_array = kernel.point_array
    # m-dominance never reads poset node indices: keep no pix rows.
    nposets = len(kernel._posets) if native else 0
    closure = kernel._closures is not None
    dims = kernel.schema.transformed_dimensions
    cap = 256
    FVt = np.empty((dims, cap), dtype=np.float64)
    FPt = np.empty((nposets, cap), dtype=np.int64)
    current = list(points)
    carried: list[list | None] = []  # [point, debt] or None
    while current:
        temp: list[Point] = []
        fresh: list[list] = []  # [point, overflow-count-at-insert]
        release_at = 0
        live_carried = len(carried)
        stats.tuples_scanned += len(current)
        n_current = len(current)
        # current[block_lo:block_hi] hold block verdicts over the first
        # `span` window rows.
        block_lo = block_hi = span = 0
        first_dom = first_evict = fails = []
        for pos, r in enumerate(current):
            checkpoint()
            while release_at < len(carried):
                entry = carried[release_at]
                if entry is None:
                    release_at += 1
                elif entry[1] <= pos:
                    yield entry[0]
                    carried[release_at] = None
                    live_carried -= 1
                    release_at += 1
                else:
                    break
            dominated = False
            # Carried entries: plain scalar comparisons (multi-pass
            # overflow only; the Python backend pays the same calls).
            for i in range(release_at, len(carried)):
                entry = carried[i]
                if entry is None:
                    continue
                w = entry[0]
                if scalar_dom(w, r):
                    dominated = True
                    break
                if scalar_dom(r, w):
                    carried[i] = None
                    live_carried -= 1
            i = 0
            nf = len(fresh)
            if not dominated and nf:
                if pos >= block_hi or span < _PREFIX and nf >= 2 * span:
                    block_lo = pos
                    block_hi = min(n_current, pos + _BLOCK)
                    span = min(nf, _PREFIX)
                    first_dom, first_evict, fails = block_verdicts(
                        native,
                        current[pos:block_hi],
                        FVt[:, :span],
                        FPt[:, :span],
                    )
                b = pos - block_lo
                dom, ev, failed, end = first_dom[b], first_evict[b], fails[b], span
                while True:
                    # The scan of rows [i, end) meets its first dominator
                    # at i + dom and its first eviction at i + ev.
                    if dom < ev:
                        dominated = True
                        t1, t2 = dom + 1, dom
                    elif ev < end - i:
                        t1 = t2 = ev + 1
                    else:
                        t1 = t2 = end - i
                    if not native:
                        stats.m_dominance_point += t1 + t2
                    elif not nposets:
                        stats.native_numeric += t1 + t2
                    else:
                        stats.native_numeric += failed
                        if closure:
                            stats.native_closure += t1 + t2 - failed
                        else:
                            stats.native_set += t1 + t2 - failed
                    if dominated:
                        break
                    if ev < end - i:
                        # Swap-pop the evicted row, as the Python loop
                        # does, and rescan from its position.
                        i += ev
                        if i < span:
                            block_hi = pos + 1  # the prefix changed
                        last = len(fresh) - 1
                        fresh[i] = fresh[last]
                        fresh.pop()
                        FVt[:, i] = FVt[:, last]
                        if nposets:
                            FPt[:, i] = FPt[:, last]
                    else:
                        i = end
                    end = len(fresh)
                    if i >= end:
                        break
                    dom, ev, failed = scan_verdict(
                        native, r, FVt[:, i:end], FPt[:, i:end]
                    )
            if dominated:
                continue
            if len(fresh) + live_carried < window_size:
                guard_window(len(fresh) + live_carried + 1)
                fresh.append([r, len(temp)])
                nf = len(fresh)
                if nf > cap:
                    cap *= 2
                    FVt = np.concatenate([FVt, np.empty_like(FVt)], axis=1)
                    FPt = np.concatenate([FPt, np.empty_like(FPt)], axis=1)
                FVt[:, nf - 1] = point_array(r)
                if nposets:
                    FPt[:, nf - 1] = r.pix
                stats.window_inserts += 1
            else:
                temp.append(r)
        for i in range(release_at, len(carried)):
            entry = carried[i]
            if entry is not None:
                yield entry[0]
        carried = []
        for point, debt in fresh:
            if debt == 0:
                yield point
            else:
                carried.append([point, debt])
        current = temp
