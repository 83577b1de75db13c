"""Level-synchronous (breadth-first / depth-next) subtree training kernel.

The scalar builder in :mod:`repro.core.builder` grows one node per Python
iteration, fancy-indexing ``y`` and every candidate column per *node*.
For a subtree-task that is the CPU-bound tail of every backend: thousands
of small NumPy calls whose fixed per-call overhead dominates the actual
arithmetic.  This module processes the whole frontier of a subtree at
once instead (the breadth-first / depth-next hybrid of the RF-training
literature, see PAPERS.md):

* one gather of ``y`` and of each candidate column per *level*, with rows
  held node-contiguously (segment ids in heap-path frontier order);
* per-node label statistics for classification in a single ``bincount``
  over ``segment * n_classes + y``;
* presorted numeric columns (the presorted exact scan of Guillame-Bert &
  Teytaud, see PAPERS.md): each candidate numeric column is stable-sorted
  once per subtree call, and every later level derives its children's
  sorted orders from the parent's with an O(n) stable partition along the
  routing masks — no level sorts anything;
* the numeric best-split scan batched across all frontier nodes: global
  integer cumulative class counts minus segment offsets, held class-major
  ``(n_classes, n_boundaries)``, and one impurity pass over every
  candidate boundary of every node;
* the categorical subset scan for classification batched the same way
  (:func:`~repro.core.splits.categorical_classification_scan`): one
  ``bincount`` of per-node category class counts, and one subset-mask
  product and impurity pass per number of non-empty categories.

**Exactness.**  The kernel is bit-identical to the scalar builder — the
repo's ground-truth invariant — by construction:

* node ids are the same heap paths and all per-node RNG draws key off
  ``(seed, path)`` / ``(seed, path, column)``, so extra-trees reproduce
  the scalar draws regardless of traversal order;
* a child's rows keep their parent's relative order (the scalar builder
  takes ``ids[go_left]`` / ``ids[~go_left]`` too), so the scalar stable
  argsort at a node sorts by ``(value, position in the parent)``.  The
  parent's sorted order filtered to the child's rows is exactly that
  order, and the stable partition is that filter for both children at
  once.  Positions, not row ids, are what is ordered, so bootstrap
  duplicates keep their place; NaN rows are left out of the root sort and
  therefore of every descendant order, as the scalar scan drops them;
* integer statistics (class counts) are exact under "global cumsum minus
  segment offset" and under any grouping of a subset sum, so the batched
  classification scans reproduce the per-node counts digit for digit;
* impurity scores go through
  :func:`~repro.core.impurity.classification_impurity_columns`, the
  scorer the scalar scan uses too; its class sum adds the per-class terms
  in the order numpy's reduction over a short last axis uses, so every
  score, and hence every ``argmin`` winner, is the same float;
* floating-point accumulations whose result depends on summation order —
  regression cumulative sums, node means, per-category target sums — are
  *not* re-associated: regression cumsums restart per segment slice, and
  categorical regression columns call
  :func:`~repro.core.splits.best_categorical_regression_split` on the
  node-contiguous slices of the level gather, which see exactly the
  arrays the scalar path sees;
* cross-column tie-breaking keeps the scalar rule (strictly smaller
  ``(score, column)`` wins, i.e. ties go to the lower column index), and
  within a column the first boundary achieving the minimum score wins,
  matching ``np.argmin``.

The parity sweep in ``tests/test_builder.py`` pins all of this.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..data.schema import ColumnKind, ProblemKind
from ..data.table import DataTable
from .builder import (
    NodeStats,
    build_subtree,
    extra_tree_column_order,
    extra_tree_split_rng,
    parent_impurity_of,
    path_depth,
    sample_candidate_columns,
    should_stop,
    split_is_useful,
)
from .config import TREE_KERNELS, TreeConfig, TreeKind
from .histogram import bin_indices
from .impurity import (
    Impurity,
    classification_impurity_columns,
    variance_rows,
    weighted_children_impurity,
)
from .splits import (
    CandidateSplit,
    best_categorical_regression_split,
    categorical_classification_scan,
    random_split_for_column,
    route_training_rows,
)
from .tree import TreeNode

#: Environment override for the kernel choice — mirrors the runtime's
#: other env hooks (``REPRO_MP_KILL`` etc.) so CI legs can force a kernel
#: without touching configs.  Checked at dispatch time.
ENV_KERNEL = "REPRO_KERNEL"

#: Empty threshold set: a degenerate hist-mode column offers no candidates.
_NO_THRESHOLDS = np.empty(0)


@dataclass
class KernelCounters:
    """Per-worker training-kernel observability counters.

    ``build_s`` is total wall-clock inside subtree builds, ``gather_s``
    the slice of it spent fancy-indexing ``y``/column values out of the
    table (vectorized kernel only; the scalar builder's gathers are
    interleaved per node and not separable), ``nodes_built`` the tree
    nodes constructed, and ``kernel`` which implementation ran last.
    """

    kernel: str = ""
    build_s: float = 0.0
    gather_s: float = 0.0
    nodes_built: int = 0


def resolve_kernel(config: TreeConfig) -> str:
    """Effective kernel for a tree config (env override wins)."""
    env = os.environ.get(ENV_KERNEL, "").strip()
    if env:
        if env not in TREE_KERNELS:
            raise ValueError(
                f"{ENV_KERNEL}={env!r}: expected one of {TREE_KERNELS}"
            )
        return env
    return config.kernel


def build_subtree_auto(
    table: DataTable,
    config: TreeConfig,
    row_ids: np.ndarray,
    candidate_columns: tuple[int, ...] | None = None,
    root_path: int = 1,
    counters: KernelCounters | None = None,
    thresholds: dict[int, np.ndarray] | None = None,
) -> TreeNode:
    """Build a subtree with the kernel ``config.kernel`` selects.

    The single dispatch point for every subtree construction: the worker
    actors of all runtime backends, the serial :func:`~repro.core.
    builder.train_tree` path, and through it the deep-forest local
    backend.  ``counters``, when given, accumulates build/gather seconds.
    ``thresholds`` (hist mode) restricts numeric split search to the
    global equi-depth candidate cuts on both kernels.
    """
    kernel = resolve_kernel(config)
    start = time.perf_counter()
    if kernel == "vectorized":
        root = build_subtree_vectorized(
            table,
            config,
            row_ids,
            candidate_columns=candidate_columns,
            root_path=root_path,
            counters=counters,
            thresholds=thresholds,
        )
    else:
        root = build_subtree(
            table,
            config,
            row_ids,
            candidate_columns=candidate_columns,
            root_path=root_path,
            thresholds=thresholds,
        )
    if counters is not None:
        counters.kernel = kernel
        counters.build_s += time.perf_counter() - start
    return root


class _BatchedNumericEntry:
    """Batched best-split results of one numeric column over a level.

    Holds, for every active frontier segment, the winning boundary of
    the batched scan (or -1) plus the per-boundary arrays needed to
    materialize a :class:`CandidateSplit` for the segments that win the
    cross-column comparison — so only one split object is built per node
    instead of one per (node, column).
    """

    __slots__ = (
        "column",
        "seg_scores",
        "best_pos",
        "n_left",
        "n_right",
        "n_missing",
        "sv",
        "bidx",
        "scores",
    )

    def __init__(self, column: int, n_segments: int) -> None:
        self.column = column
        self.seg_scores = np.full(n_segments, np.inf)
        self.best_pos = np.full(n_segments, -1, dtype=np.int64)
        self.n_left: np.ndarray | None = None
        self.n_right: np.ndarray | None = None
        self.n_missing: np.ndarray | None = None
        self.sv: np.ndarray | None = None
        self.bidx: np.ndarray | None = None
        self.scores: np.ndarray | None = None

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.best_pos[segment] < 0:
            return None
        return (float(self.seg_scores[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        b = int(self.best_pos[segment])
        if b < 0:
            return None
        nl = int(self.n_left[b])
        nr = int(self.n_right[b])
        nm = int(self.n_missing[segment])
        # Identical construction to best_numeric_split: missing rows join
        # the larger child, threshold is the left boundary value.
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.NUMERIC,
            score=float(self.scores[b]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            threshold=float(self.sv[self.bidx[b]]),
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


class _ObjectEntry:
    """Per-segment split objects of one column (non-batched cases)."""

    __slots__ = ("column", "splits")

    def __init__(self, column: int, splits: list[CandidateSplit | None]):
        self.column = column
        self.splits = splits

    def key_for(self, segment: int) -> tuple[float, int] | None:
        split = self.splits[segment]
        return None if split is None else split.sort_key()

    def split_for(self, segment: int) -> CandidateSplit | None:
        return self.splits[segment]


def _first_per_group(groups: np.ndarray) -> np.ndarray:
    """Indices of the first element of each run in a sorted group array."""
    if groups.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.nonzero(np.concatenate(([True], groups[1:] != groups[:-1])))[0]


def _exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]`` — segment start offsets with the end."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _presort(values: np.ndarray) -> np.ndarray:
    """Positions of the non-NaN values in stable ascending value order.

    The one sort a numeric column gets per subtree call: the same stable
    argsort the scalar scan runs on the node's NaN-free values.
    """
    present = np.flatnonzero(~np.isnan(values))
    return present[np.argsort(values[present], kind="stable")]


def _partition_dest(
    seq_seg: np.ndarray, go_left: np.ndarray, n_segments: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable two-way partition of a segment-grouped sequence, in O(n).

    ``seq_seg`` is each entry's parent segment (non-decreasing) and
    ``go_left`` its side.  Returns ``(dest, n_left, n_total)``: moving
    entry ``i`` to ``dest[i]`` puts, inside each parent's block, its
    left-goers first and then its right-goers, each in sequence order —
    the children's blocks in next-level frontier order.  ``n_left`` and
    ``n_total`` are per parent segment.
    """
    n_total = np.bincount(seq_seg, minlength=n_segments)
    block = _exclusive_cumsum(n_total)
    left_before = _exclusive_cumsum(go_left)
    n_left = left_before[block[1:]] - left_before[block[:-1]]
    start = block[seq_seg]
    left_rank = left_before[:-1] - left_before[start]
    right_rank = np.arange(seq_seg.size) - start - left_rank
    dest = np.where(
        go_left, start + left_rank, start + n_left[seq_seg] + right_rank
    )
    return dest, n_left, n_total


def _select_winners(
    entry: _BatchedNumericEntry,
    scores: np.ndarray,
    bseg: np.ndarray,
) -> None:
    """First minimum per segment == the scalar ``np.argmin`` rule."""
    first_b = _first_per_group(bseg)
    counts_b = np.diff(np.append(first_b, bseg.size))
    seg_min = np.minimum.reduceat(scores, first_b)
    hit = np.nonzero(scores == np.repeat(seg_min, counts_b))[0]
    hseg = bseg[hit]
    hfirst = _first_per_group(hseg)
    winners = hit[hfirst]
    entry.best_pos[hseg[hfirst]] = winners
    entry.seg_scores[hseg[hfirst]] = scores[winners]
    entry.scores = scores


def _sorted_boundaries(
    entry: _BatchedNumericEntry,
    values: np.ndarray,
    order: np.ndarray,
    seg: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """Candidate boundaries of one presorted column over a frontier.

    ``order`` lists the level positions of the column's non-NaN rows,
    grouped by segment and stable-sorted by value within each.  Records
    the per-segment missing counts and sorted values on ``entry`` and
    returns ``(bidx, bseg, pres_starts, n_present)`` — ``None`` when no
    segment has two distinct present values.  A boundary needs two present
    rows of the same segment, so segments the scalar scan rejects
    (n < 2, or no distinct values) simply contribute no boundaries.
    """
    n_segments = sizes.size
    ss = seg[order]
    n_present = np.bincount(ss, minlength=n_segments)
    entry.n_missing = sizes - n_present
    sv = values[order]
    entry.sv = sv
    bidx = np.nonzero((sv[:-1] < sv[1:]) & (ss[:-1] == ss[1:]))[0]
    if bidx.size == 0:
        return None
    entry.bidx = bidx
    bseg = ss[bidx]
    pres_starts = _exclusive_cumsum(n_present)
    entry.n_left = bidx + 1 - pres_starts[bseg]
    entry.n_right = n_present[bseg] - entry.n_left
    return bidx, bseg, pres_starts, n_present


def _batched_numeric_classification(
    column: int,
    values: np.ndarray,
    order: np.ndarray,
    y_codes: np.ndarray,
    seg: np.ndarray,
    sizes: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> _BatchedNumericEntry:
    """Case 1 (ordinal attribute, classification) over a whole frontier.

    The batched twin of :func:`~repro.core.splits.best_numeric_split`:
    every intermediate quantity below reproduces the scalar scan's value
    for each segment exactly (see the module docstring for the argument),
    with one impurity pass for the entire level.  ``sizes`` is the
    per-segment row count, ``order`` the column's presorted positions.
    """
    entry = _BatchedNumericEntry(column, sizes.size)
    found = _sorted_boundaries(entry, values, order, seg, sizes)
    if found is None:
        return entry
    bidx, bseg, pres_starts, n_present = found
    n_left = entry.n_left
    syc = y_codes[order]

    # Per-class cumulative counts: integer global cumsum minus the count
    # at the segment start — exact, hence identical to per-node cumsums.
    # The same cumsum read at the segment ends gives each segment's
    # present class totals.  The last class is the exact integer
    # complement of the others, which saves one full cumsum pass — half
    # the passes for binary jobs.
    bstart = pres_starts[bseg]
    seg_lo, seg_hi = pres_starts[:-1], pres_starts[1:]
    left_counts = np.empty((n_classes, bidx.size), dtype=np.float64)
    total_counts = np.empty((n_classes, sizes.size), dtype=np.float64)
    cumz = np.zeros(syc.size + 1, dtype=np.int64)
    left_acc = np.zeros(bidx.size, dtype=np.int64)
    total_acc = np.zeros(sizes.size, dtype=np.int64)
    if n_classes == 2:
        counted = ((1, syc),)  # the cumsum of 0/1 codes counts class 1
        last = 0
    else:
        counted = ((cls, syc == cls) for cls in range(n_classes - 1))
        last = n_classes - 1
    for cls, hits in counted:
        np.cumsum(hits, out=cumz[1:])
        c = cumz[bidx + 1] - cumz[bstart]
        t = cumz[seg_hi] - cumz[seg_lo]
        left_counts[cls] = c
        total_counts[cls] = t
        left_acc += c
        total_acc += t
    left_counts[last] = n_left - left_acc
    total_counts[last] = n_present - total_acc
    right_counts = total_counts[:, bseg] - left_counts

    left_imp = classification_impurity_columns(left_counts, criterion)
    right_imp = classification_impurity_columns(right_counts, criterion)
    scores = weighted_children_impurity(
        left_imp, n_left, right_imp, entry.n_right
    )
    _select_winners(entry, scores, bseg)
    return entry


def _batched_numeric_regression(
    column: int,
    values: np.ndarray,
    order: np.ndarray,
    y: np.ndarray,
    seg: np.ndarray,
    sizes: np.ndarray,
) -> _BatchedNumericEntry:
    """Case 1 (ordinal attribute, regression) over a whole frontier.

    Floating-point cumulative sums are order-sensitive, so they are *not*
    globally accumulated: each segment's slice of the sorted level array
    gets its own ``np.cumsum``, which performs the exact same additions in
    the exact same order as the scalar per-node scan — the per-call
    overhead that remains (two cumsums per segment) is a fraction of the
    full scalar :func:`~repro.core.splits.best_numeric_split` chain, and
    boundary detection, variance scoring and argmin still run once for
    the entire level.
    """
    n_segments = sizes.size
    entry = _BatchedNumericEntry(column, n_segments)
    found = _sorted_boundaries(entry, values, order, seg, sizes)
    if found is None:
        return entry
    bidx, bseg, pres_starts, _ = found
    sy = y[order]

    # Per-segment cumulative sums — each slice cumsum adds the same
    # numbers in the same order as the scalar scan, hence identical
    # floats; only the boundary scoring below is batched.
    sy2 = sy * sy
    cum_y = np.empty_like(sy)
    cum_y2 = np.empty_like(sy)
    tot_y = np.zeros(n_segments)
    tot_y2 = np.zeros(n_segments)
    for s in range(n_segments):
        lo, hi = int(pres_starts[s]), int(pres_starts[s + 1])
        if hi > lo:
            np.cumsum(sy[lo:hi], out=cum_y[lo:hi])
            np.cumsum(sy2[lo:hi], out=cum_y2[lo:hi])
            tot_y[s] = cum_y[hi - 1]
            tot_y2[s] = cum_y2[hi - 1]
    l_sum, l_sq = cum_y[bidx], cum_y2[bidx]
    r_sum, r_sq = tot_y[bseg] - l_sum, tot_y2[bseg] - l_sq
    n_left, n_right = entry.n_left, entry.n_right
    left_imp = variance_rows(n_left.astype(float), l_sum, l_sq)
    right_imp = variance_rows(n_right.astype(float), r_sum, r_sq)
    scores = weighted_children_impurity(left_imp, n_left, right_imp, n_right)
    _select_winners(entry, scores, bseg)
    return entry


class _BinnedNumericEntry:
    """Batched histogram-mode results of one numeric column over a level.

    The hist-mode sibling of :class:`_BatchedNumericEntry`: instead of a
    winning sort boundary it records the winning prefix-cut index into the
    column's global equi-depth thresholds, plus the per-(segment, cut)
    child-count matrices needed to materialize a :class:`CandidateSplit`
    identical to the scalar :func:`~repro.core.histogram.score_histogram`.
    """

    __slots__ = (
        "column",
        "thresholds",
        "seg_scores",
        "best_cut",
        "n_left",
        "n_right",
        "n_missing",
    )

    def __init__(
        self, column: int, thresholds: np.ndarray, n_segments: int
    ) -> None:
        self.column = column
        self.thresholds = thresholds
        self.seg_scores = np.full(n_segments, np.inf)
        self.best_cut = np.full(n_segments, -1, dtype=np.int64)
        self.n_left: np.ndarray | None = None
        self.n_right: np.ndarray | None = None
        self.n_missing = np.zeros(n_segments, dtype=np.int64)

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.best_cut[segment] < 0:
            return None
        return (float(self.seg_scores[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        b = int(self.best_cut[segment])
        if b < 0:
            return None
        nl = int(self.n_left[segment, b])
        nr = int(self.n_right[segment, b])
        nm = int(self.n_missing[segment])
        # Identical construction to score_histogram: missing rows join the
        # larger child, threshold is the winning bin's upper edge.
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.NUMERIC,
            score=float(self.seg_scores[segment]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            threshold=float(self.thresholds[b]),
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


def _batched_binned_numeric(
    column: int,
    values: np.ndarray,
    y_or_codes: np.ndarray,
    seg: np.ndarray,
    n_segments: int,
    thresholds: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> _BinnedNumericEntry:
    """Histogram split search (ordinal attribute) over a whole frontier.

    The batched twin of :func:`~repro.core.histogram.score_histogram`:
    one composite ``bincount`` builds every segment's per-bin statistics
    (statistics stay node-local — each segment's bins count only its own
    rows, including its own missing-row total), then the axis-wise
    cumulative sums and impurity evaluations perform the same additions
    in the same order per segment lane as the scalar per-node scan, so
    every score and winning cut is bit-identical.  Segments with no valid
    cut (fewer than two present rows, constant within a bin span, or an
    empty threshold set) end with ``best_cut == -1``, exactly where the
    scalar path returns ``None``.
    """
    entry = _BinnedNumericEntry(column, thresholds, n_segments)
    if thresholds.size == 0:
        return entry
    codes = bin_indices(values, thresholds)
    present = codes >= 0
    if present.all():
        sp = seg
        yp = y_or_codes
    else:
        entry.n_missing = np.bincount(seg[~present], minlength=n_segments)
        codes = codes[present]
        sp = seg[present]
        yp = y_or_codes[present]
    n_bins = thresholds.size + 1
    cuts = n_bins - 1
    if criterion.is_classification:
        # Class-major (k, segments, bins) counts; every sum over them is
        # a sum of integers, so only the impurity scorer's order matters.
        stats = np.bincount(
            (yp * n_segments + sp) * n_bins + codes,
            minlength=n_classes * n_segments * n_bins,
        ).reshape(n_classes, n_segments, n_bins).astype(np.float64)
        cum = np.cumsum(stats, axis=2)[:, :, :-1]
        total = stats.sum(axis=2)
        n_left = cum.sum(axis=0)
        n_right = total.sum(axis=0)[:, None] - n_left
        left_imp = classification_impurity_columns(
            cum.reshape(n_classes, -1), criterion
        ).reshape(n_segments, cuts)
        right_imp = classification_impurity_columns(
            (total[:, :, None] - cum).reshape(n_classes, -1), criterion
        ).reshape(n_segments, cuts)
    else:
        flat = sp * n_bins + codes
        size = n_segments * n_bins
        bin_counts = (
            np.bincount(flat, minlength=size)
            .reshape(n_segments, n_bins)
            .astype(np.float64)
        )
        y_sum = np.bincount(flat, weights=yp, minlength=size).reshape(
            n_segments, n_bins
        )
        y_sq = np.bincount(flat, weights=yp * yp, minlength=size).reshape(
            n_segments, n_bins
        )
        c_cum = np.cumsum(bin_counts, axis=1)[:, :-1]
        s_cum = np.cumsum(y_sum, axis=1)[:, :-1]
        q_cum = np.cumsum(y_sq, axis=1)[:, :-1]
        n_left = c_cum
        n_right = bin_counts.sum(axis=1)[:, None] - c_cum
        left_imp = variance_rows(c_cum, s_cum, q_cum)
        right_imp = variance_rows(
            n_right,
            y_sum.sum(axis=1)[:, None] - s_cum,
            y_sq.sum(axis=1)[:, None] - q_cum,
        )
    valid = (n_left > 0) & (n_right > 0)
    scores = np.where(
        valid,
        weighted_children_impurity(left_imp, n_left, right_imp, n_right),
        np.inf,
    )
    best = np.argmin(scores, axis=1)  # first minimum == smallest threshold
    has = valid.any(axis=1)
    entry.best_cut[has] = best[has]
    entry.seg_scores[has] = scores[np.arange(n_segments), best][has]
    entry.n_left = n_left
    entry.n_right = n_right
    return entry


def _extra_tree_split(
    table: DataTable,
    config: TreeConfig,
    path: int,
    candidate_columns: tuple[int, ...],
    ids: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
) -> tuple[CandidateSplit | None, np.ndarray | None, float]:
    """One node's extra-trees split, as the scalar builder draws it.

    The draws are keyed by ``(seed, path, column)``, so the scalar helpers
    run per node on the level-gathered slices unchanged.  Returns the
    split, the split column's values for the node's rows, and the seconds
    spent gathering column values.
    """
    gather_s = 0.0
    for col in extra_tree_column_order(config.seed, path, candidate_columns):
        spec = table.column_spec(col)
        tick = time.perf_counter()
        vals = table.column(col)[ids]
        gather_s += time.perf_counter() - tick
        split = random_split_for_column(
            col,
            spec.kind,
            vals,
            y,
            criterion,
            table.n_classes,
            extra_tree_split_rng(config.seed, path, col),
            spec.n_categories,
        )
        if split is not None:
            return split, vals, gather_s
    return None, None, gather_s


def _next_order(
    order: np.ndarray,
    alive: np.ndarray | None,
    seg: np.ndarray,
    go_left: np.ndarray,
    new_pos: np.ndarray,
    n_segments: int,
) -> np.ndarray:
    """A presorted order for the children's level, from the parent's.

    Drops the rows of nodes that did not split (``alive`` False; ``None``
    when every node split), then stably partitions each node's block into
    its left and right child's blocks and maps positions to the next
    level.  Filtering a sorted sequence keeps it sorted, so each child's
    block is its parent's sorted order restricted to the child's rows.
    """
    if alive is not None:
        order = order[alive[order]]
    dest, _, _ = _partition_dest(seg[order], go_left[order], n_segments)
    out = np.empty_like(order)
    out[dest] = new_pos[order]
    return out


def build_subtree_vectorized(
    table: DataTable,
    config: TreeConfig,
    row_ids: np.ndarray,
    candidate_columns: tuple[int, ...] | None = None,
    root_path: int = 1,
    counters: KernelCounters | None = None,
    thresholds: dict[int, np.ndarray] | None = None,
) -> TreeNode:
    """Build ``Delta_x`` level-synchronously; bit-identical to the scalar
    :func:`~repro.core.builder.build_subtree`.

    Processes the whole frontier per iteration.  A level's rows are one
    node-contiguous array; the next level's rows and every presorted
    column order come from the current level's by a stable partition.
    """
    if candidate_columns is None:
        candidate_columns = sample_candidate_columns(config, table.n_columns)
    is_clf = table.problem is ProblemKind.CLASSIFICATION
    criterion = config.resolved_criterion(is_clf)
    n_classes = table.n_classes
    is_extra = config.tree_kind is TreeKind.EXTRA
    exact_numeric = not is_extra and thresholds is None
    target = table.target
    gather_s = 0.0

    root_holder: list[TreeNode] = []
    # The frontier of one level: node-contiguous rows, per-node row
    # counts, heap paths, and where each node attaches (parent, side).
    level_rows = np.asarray(row_ids, dtype=np.int64)
    sizes = np.array([level_rows.size], dtype=np.int64)
    paths: list[int] = [root_path]
    attaches: list = [None]
    # Presorted exact-scan orders, per numeric candidate column: level
    # positions of the non-NaN rows, grouped by node, and stable-sorted by
    # value within each node.  Sorted once, at the first active level.
    orders: dict[int, np.ndarray] = {}
    while paths:
        m = len(paths)
        starts = _exclusive_cumsum(sizes)
        seg_all = np.repeat(np.arange(m, dtype=np.int64), sizes)

        tick = time.perf_counter()
        y_lvl = target[level_rows]
        gather_s += time.perf_counter() - tick

        # -- per-node label statistics, one pass for the level ----------
        stats_list: list[NodeStats] = []
        if is_clf:
            counts = np.bincount(
                seg_all * n_classes + y_lvl.astype(np.int64),
                minlength=m * n_classes,
            ).reshape(m, n_classes)
            maxes = counts.max(axis=1)
            for i in range(m):
                n = int(sizes[i])
                row = counts[i]
                stats_list.append(
                    NodeStats(
                        n,
                        (row / max(n, 1)).astype(np.float64),
                        bool(n > 0 and maxes[i] == n),
                        counts=row,
                    )
                )
        else:
            for i in range(m):
                n = int(sizes[i])
                y_seg = y_lvl[starts[i] : starts[i + 1]]
                mean = float(y_seg.mean()) if n else 0.0
                pure = bool(n > 0 and np.all(y_seg == y_seg[0]))
                stats_list.append(NodeStats(n, mean, pure))

        nodes: list[TreeNode] = []
        stopped = np.zeros(m, dtype=bool)
        for i, (path, attach) in enumerate(zip(paths, attaches)):
            stats = stats_list[i]
            node = TreeNode(
                node_id=path,
                depth=path_depth(path),
                n_rows=stats.n_rows,
                prediction=stats.prediction,
            )
            if attach is None:
                root_holder.append(node)
            else:
                parent, side = attach
                setattr(parent, side, node)
            nodes.append(node)
            stopped[i] = should_stop(stats, node.depth, config)

        act_idx = np.nonzero(~stopped)[0]
        if act_idx.size == 0:
            break
        a = int(act_idx.size)
        act_sizes = sizes[act_idx]
        act_starts = _exclusive_cumsum(act_sizes)
        if a == m:
            act_rows, y_act, seg_act = level_rows, y_lvl, seg_all
        else:
            keep = ~stopped[seg_all]
            act_rows = level_rows[keep]
            y_act = y_lvl[keep]
            seg_act = np.repeat(np.arange(a, dtype=np.int64), act_sizes)
            # Dropping the stopped nodes' rows keeps every order grouped
            # and sorted; renumber the survivors to active positions.
            to_act = np.cumsum(keep) - 1
            orders = {c: to_act[o[keep[o]]] for c, o in orders.items()}

        # -- best split per active node ---------------------------------
        column_cache: dict[int, np.ndarray] = {}
        entries: list = []
        y_codes_act = (
            y_act.astype(np.int64) if criterion.is_classification else None
        )
        # Extra-trees draw one column per node in the routing loop below.
        for col in () if is_extra else candidate_columns:
            spec = table.column_spec(col)
            tick = time.perf_counter()
            v = table.column(col)[act_rows]
            gather_s += time.perf_counter() - tick
            column_cache[col] = v
            if spec.kind is ColumnKind.NUMERIC and not exact_numeric:
                entries.append(
                    _batched_binned_numeric(
                        col,
                        v,
                        y_codes_act if criterion.is_classification else y_act,
                        seg_act,
                        a,
                        thresholds.get(col, _NO_THRESHOLDS),
                        criterion,
                        n_classes,
                    )
                )
            elif spec.kind is ColumnKind.NUMERIC:
                order = orders.get(col)
                if order is None:
                    order = orders[col] = _presort(v)
                if criterion.is_classification:
                    entries.append(
                        _batched_numeric_classification(
                            col, v, order, y_codes_act, seg_act, act_sizes,
                            criterion, n_classes,
                        )
                    )
                else:
                    entries.append(
                        _batched_numeric_regression(
                            col, v, order, y_act, seg_act, act_sizes
                        )
                    )
            elif criterion.is_classification:
                entries.append(
                    categorical_classification_scan(
                        col, v, y_codes_act, seg_act, a, spec.n_categories,
                        criterion, n_classes,
                    )
                )
            else:
                # Breiman's mean ordering sums floats per category in row
                # order: run the per-node search on node-contiguous slices.
                splits = [
                    best_categorical_regression_split(
                        col,
                        v[act_starts[j] : act_starts[j + 1]],
                        y_act[act_starts[j] : act_starts[j + 1]],
                        spec.n_categories,
                    )
                    for j in range(a)
                ]
                entries.append(_ObjectEntry(col, splits))

        # -- route each splitting node's rows ---------------------------
        go_left = np.zeros(act_rows.size, dtype=bool)
        is_split = np.zeros(a, dtype=bool)
        next_paths: list[int] = []
        next_attaches: list = []
        for j in range(a):
            i = int(act_idx[j])
            path = paths[i]
            s0, s1 = int(act_starts[j]), int(act_starts[j + 1])
            if is_extra:
                split, values, spent = _extra_tree_split(
                    table,
                    config,
                    path,
                    candidate_columns,
                    act_rows[s0:s1],
                    y_act[s0:s1],
                    criterion,
                )
                gather_s += spent
                parent_imp = 0.0
            else:
                best_entry = None
                best_key = None
                for entry in entries:  # candidate_columns order
                    key = entry.key_for(j)
                    if key is None:
                        continue
                    if best_key is None or key < best_key:
                        best_key, best_entry = key, entry
                split = (
                    None if best_entry is None else best_entry.split_for(j)
                )
                values = (
                    None
                    if split is None
                    else column_cache[split.column][s0:s1]
                )
                parent_imp = parent_impurity_of(
                    y_act[s0:s1],
                    criterion,
                    n_classes,
                    counts=stats_list[i].counts,
                )
            if not split_is_useful(split, parent_imp, config):
                continue
            node = nodes[i]
            node.split = split
            go_left[s0:s1] = route_training_rows(values, split)
            is_split[j] = True
            next_paths += (2 * path, 2 * path + 1)
            next_attaches += ((node, "left"), (node, "right"))
        if not next_paths:
            break

        # -- next level: stable partition of rows and orders -------------
        alive = None if is_split.all() else is_split[seg_act]
        moving = (
            np.arange(act_rows.size) if alive is None else np.flatnonzero(alive)
        )
        dest, n_left, n_total = _partition_dest(
            seg_act[moving], go_left[moving], a
        )
        level_rows = np.empty(moving.size, dtype=np.int64)
        level_rows[dest] = act_rows[moving]
        new_pos = np.empty(act_rows.size, dtype=np.int64)
        new_pos[moving] = dest
        sizes = np.column_stack((n_left, n_total - n_left))[is_split].ravel()
        orders = {
            c: _next_order(o, alive, seg_act, go_left, new_pos, a)
            for c, o in orders.items()
        }
        paths, attaches = next_paths, next_attaches

    if counters is not None:
        counters.gather_s += gather_s
    return root_holder[0]
