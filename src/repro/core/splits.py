"""Exact best-split search per attribute — the paper's Appendix B.

TreeServer computes *exact* split conditions, unlike PLANET/MLlib (equi-depth
histograms) and XGBoost (weighted quantile sketches).  At each tree node the
best split of each candidate attribute is found independently — this module
implements the three cases the paper describes:

* **Case 1 — ordinal attribute** (classification or regression): sort the
  rows of ``D_x`` by the attribute and score every distinct-value boundary in
  one incremental pass.
* **Case 2 — categorical attribute, numeric target** (regression): Breiman's
  result — group rows by category, sort groups by mean ``Y``, and the optimal
  subset split is a prefix of that order, so one pass over groups suffices.
* **Case 3 — categorical attribute, categorical target** (classification):
  subsets must be enumerated; following the paper, when ``|S_i|`` is large we
  restrict ``|S_l| = 1`` so only ``O(|S_i|)`` splits are checked, and we
  enumerate all subsets exhaustively when ``|S_i|`` is small.

Missing values are excluded from split scoring; during training they are
routed to the larger child, and at prediction time a missing or unseen value
stops the descent at the current node (paper Appendix D).

All searches are deterministic: ties are broken toward the smaller threshold
or the earlier-enumerated category subset, and across columns the engine
breaks ties toward the lower column index.  Determinism is what makes the
distributed engine's output bit-identical to the serial builder's — a tested
invariant of this reproduction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..data.schema import ColumnKind
from ..data.table import MISSING_CODE
from .impurity import (
    Impurity,
    classification_impurity_columns,
    variance_rows,
    weighted_children_impurity,
)

#: Enumerate all category subsets exhaustively when the number of non-empty
#: categories at the node is at most this; otherwise restrict ``|S_l| = 1``.
EXHAUSTIVE_SUBSET_LIMIT = 8


@dataclass(frozen=True)
class CandidateSplit:
    """The best split condition found for one attribute at one node.

    ``score`` is the size-weighted impurity of the two children (lower is
    better).  For categorical splits, ``left_categories`` is the chosen
    ``S_l`` and ``right_categories`` the remaining categories *seen in D_x* —
    keeping both lets prediction detect values unseen during training.
    """

    column: int
    kind: ColumnKind
    score: float
    n_left: int
    n_right: int
    threshold: float | None = None
    left_categories: frozenset[int] | None = None
    right_categories: frozenset[int] | None = None
    n_missing: int = 0
    missing_to_left: bool = True

    def sort_key(self) -> tuple[float, int]:
        """Deterministic cross-column comparison key (score, column)."""
        return (self.score, self.column)

    def describe(self, column_name: str = "") -> str:
        """Human-readable split condition, e.g. ``A1 <= 40``."""
        name = column_name or f"A{self.column}"
        if self.kind is ColumnKind.NUMERIC:
            return f"{name} <= {self.threshold:g}"
        cats = sorted(self.left_categories or ())
        return f"{name} in {cats}"


def best_numeric_split(
    column: int,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Case 1: exact best threshold for an ordinal attribute.

    Sorts the node's rows by the attribute value and scores every boundary
    between distinct values.  The threshold is the left boundary value itself
    (the paper's ``A_i <= v`` uses data values for ``v``).
    """
    present = ~np.isnan(values)
    n_missing = int(values.size - present.sum())
    vals = values[present]
    ys = y[present]
    n = vals.size
    if n < 2:
        return None

    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    sy = ys[order]

    # Candidate boundaries: positions i where sv[i] < sv[i + 1].
    boundary = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundary.size == 0:
        return None
    n_left = boundary + 1
    n_right = n - n_left

    if criterion.is_classification:
        # Per-class cumulative counts along the sorted order, one
        # contiguous row per class.
        left_counts = np.empty((n_classes, boundary.size), dtype=np.float64)
        for cls in range(n_classes):
            cum = np.cumsum(sy == cls)
            left_counts[cls] = cum[boundary]
        total_counts = np.bincount(sy.astype(np.int64), minlength=n_classes)
        right_counts = total_counts[:, None] - left_counts
        left_imp = classification_impurity_columns(left_counts, criterion)
        right_imp = classification_impurity_columns(right_counts, criterion)
    else:
        cum_y = np.cumsum(sy)
        cum_y2 = np.cumsum(sy * sy)
        l_sum, l_sq = cum_y[boundary], cum_y2[boundary]
        r_sum, r_sq = cum_y[-1] - l_sum, cum_y2[-1] - l_sq
        left_imp = variance_rows(n_left.astype(float), l_sum, l_sq)
        right_imp = variance_rows(n_right.astype(float), r_sum, r_sq)

    scores = weighted_children_impurity(left_imp, n_left, right_imp, n_right)
    best = int(np.argmin(scores))  # first minimum == smallest threshold
    nl, nr = int(n_left[best]), int(n_right[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.NUMERIC,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        threshold=float(sv[boundary[best]]),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def best_categorical_regression_split(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    n_categories: int,
) -> CandidateSplit | None:
    """Case 2: Breiman's mean-ordering algorithm for regression.

    After sorting the category groups by mean ``Y``, the optimal subset split
    is a prefix cut of the sorted group list, so only ``|S_i| - 1`` cuts need
    scoring — no exponential enumeration.
    """
    present = codes != MISSING_CODE
    n_missing = int(codes.size - present.sum())
    cd = codes[present]
    ys = y[present]
    if cd.size < 2:
        return None

    counts = np.bincount(cd, minlength=n_categories).astype(np.float64)
    sums = np.bincount(cd, weights=ys, minlength=n_categories)
    sq_sums = np.bincount(cd, weights=ys * ys, minlength=n_categories)
    nonempty = np.nonzero(counts > 0)[0]
    if nonempty.size < 2:
        return None

    means = sums[nonempty] / counts[nonempty]
    # Stable order by (mean, code) keeps ties deterministic.
    order = nonempty[np.lexsort((nonempty, means))]
    c = counts[order]
    s = sums[order]
    q = sq_sums[order]

    cum_c = np.cumsum(c)[:-1]
    cum_s = np.cumsum(s)[:-1]
    cum_q = np.cumsum(q)[:-1]
    tot_c, tot_s, tot_q = c.sum(), s.sum(), q.sum()
    left_imp = variance_rows(cum_c, cum_s, cum_q)
    right_imp = variance_rows(tot_c - cum_c, tot_s - cum_s, tot_q - cum_q)
    scores = weighted_children_impurity(left_imp, cum_c, right_imp, tot_c - cum_c)
    best = int(np.argmin(scores))

    left = frozenset(int(code) for code in order[: best + 1])
    right = frozenset(int(code) for code in order[best + 1 :])
    nl, nr = int(cum_c[best]), int(tot_c - cum_c[best])
    return CandidateSplit(
        column=column,
        kind=ColumnKind.CATEGORICAL,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        left_categories=left,
        right_categories=right,
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


@functools.cache
def _enumerate_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Proper non-empty subsets of ``range(n)`` that contain element 0.

    Fixing element 0 on the left removes mirror-image duplicates, leaving
    ``2^(n-1) - 1`` distinct binary partitions.
    """
    subsets: list[tuple[int, ...]] = []
    for mask in range(1, 1 << (n - 1)):
        subset = tuple(
            i for i in range(n) if (i == 0) or (mask >> (i - 1)) & 1
        )
        if len(subset) < n:
            subsets.append(subset)
    # mask == 0 case: {0} alone.
    subsets.insert(0, (0,))
    return tuple(subsets)


@functools.cache
def _subset_masks(n: int) -> np.ndarray:
    """``(n, n_subsets)`` 0/1 membership of :func:`_enumerate_subsets`.

    ``live.T @ masks`` sums each subset's class counts in one product.
    The counts are integers held in float64, so every sum is exact and
    equals the per-subset ``live[list(subset)].sum(axis=0)``.
    """
    masks = np.zeros((n, len(_enumerate_subsets(n))), dtype=np.float64)
    for j, subset in enumerate(_enumerate_subsets(n)):
        masks[list(subset), j] = 1.0
    masks.flags.writeable = False
    return masks


#: Upper bound on the dense ``(segments, categories, classes)`` count cells
#: one block of a batched subset scan allocates; a level with more
#: segments is scanned in blocks of segments.
_SUBSET_SCAN_CELLS = 1 << 20


class SubsetScan:
    """Case-3 results for one categorical column over a run of segments.

    Per segment: which categories are non-empty (``live``, whose ascending
    codes are the local indices the subset enumeration refers to), the
    index of the winning candidate in the enumeration order (``-1``: no
    split), its score and child sizes.  ``key_for``/``split_for`` let the training
    kernel compare it with its other per-column results.
    """

    __slots__ = (
        "column",
        "live",
        "best",
        "scores",
        "n_left",
        "n_right",
        "n_missing",
    )

    def __init__(
        self, column: int, n_missing: np.ndarray, n_categories: int
    ) -> None:
        n_segments = n_missing.size
        self.column = column
        self.n_missing = n_missing
        self.live = np.zeros((n_segments, n_categories), dtype=bool)
        self.best = np.full(n_segments, -1, dtype=np.int64)
        self.scores = np.full(n_segments, np.inf)
        self.n_left = np.zeros(n_segments, dtype=np.int64)
        self.n_right = np.zeros(n_segments, dtype=np.int64)

    def key_for(self, segment: int) -> tuple[float, int] | None:
        if self.best[segment] < 0:
            return None
        return (float(self.scores[segment]), self.column)

    def split_for(self, segment: int) -> CandidateSplit | None:
        b = int(self.best[segment])
        if b < 0:
            return None
        codes = np.flatnonzero(self.live[segment])
        g = codes.size
        subset = (
            _enumerate_subsets(g)[b] if g <= EXHAUSTIVE_SUBSET_LIMIT else (b,)
        )
        nl, nr = int(self.n_left[segment]), int(self.n_right[segment])
        nm = int(self.n_missing[segment])
        return CandidateSplit(
            column=self.column,
            kind=ColumnKind.CATEGORICAL,
            score=float(self.scores[segment]),
            n_left=nl + (nm if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else nm),
            left_categories=frozenset(int(codes[i]) for i in subset),
            right_categories=frozenset(
                int(codes[i]) for i in range(g) if i not in subset
            ),
            n_missing=nm,
            missing_to_left=nl >= nr,
        )


def categorical_classification_scan(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    seg: np.ndarray,
    n_segments: int,
    n_categories: int,
    criterion: Impurity,
    n_classes: int,
) -> SubsetScan:
    """Case 3 for every segment of a node-contiguous row run at once.

    ``seg`` gives each row's segment (non-decreasing).  Each segment is
    scanned exactly as a node on its own: exhaustive subset enumeration
    when it sees at most :data:`EXHAUSTIVE_SUBSET_LIMIT` non-empty
    categories, otherwise the paper's ``|S_l| = 1`` restriction.  Segments
    with the same number of non-empty categories share one mask product
    and one impurity pass.  Class counts are integers held in float64, so
    every subset sum is exact and each segment's scores are the floats a
    one-segment scan gives.
    """
    present = codes != MISSING_CODE
    n_missing = np.zeros(n_segments, dtype=np.int64)
    if not present.all():
        n_missing = np.bincount(seg[~present], minlength=n_segments)
        seg, codes, y = seg[present], codes[present], y[present]
    scan = SubsetScan(column, n_missing, n_categories)
    cells = n_categories * n_classes
    block = max(1, _SUBSET_SCAN_CELLS // max(cells, 1))
    bounds = np.searchsorted(seg, np.arange(0, n_segments + block, block))
    for lo in range(0, n_segments, block):
        r0, r1 = bounds[lo // block], bounds[lo // block + 1]
        hi = min(lo + block, n_segments)
        flat = ((seg[r0:r1] - lo) * n_categories + codes[r0:r1]) * n_classes
        stats = np.bincount(
            flat + y[r0:r1].astype(np.int64), minlength=(hi - lo) * cells
        ).reshape(hi - lo, n_categories, n_classes)
        _scan_subsets(scan, stats, lo, criterion)
    return scan


def _scan_subsets(
    scan: SubsetScan, stats: np.ndarray, first: int, criterion: Impurity
) -> None:
    """Fill ``scan`` for segments ``first ...`` from their class counts.

    ``stats`` is ``(segments, categories, classes)``.  All segments with
    ``g`` non-empty categories go through one batched product with the
    subset masks of ``g`` and one class-major impurity pass.
    """
    n_classes = stats.shape[2]
    nonempty = stats.any(axis=2)
    scan.live[first : first + stats.shape[0]] = nonempty
    n_live = nonempty.sum(axis=1)
    # Non-empty codes first, each run ascending: the local indices 0..g-1
    # the subset enumeration refers to.
    live_codes = np.argsort(~nonempty, axis=1, kind="stable")
    segments_with = np.bincount(n_live)
    for g in range(2, segments_with.size):
        if not segments_with[g]:
            continue
        local = np.flatnonzero(n_live == g)
        live = stats[local[:, None], live_codes[local, :g]].astype(
            np.float64
        )  # (segments, g, classes)
        if g <= EXHAUSTIVE_SUBSET_LIMIT:
            left = live.transpose(0, 2, 1) @ _subset_masks(g)
        else:
            left = live.transpose(0, 2, 1)  # singletons: |S_l| = 1
        total = live.sum(axis=1)
        right = total[:, :, None] - left
        n_left = left.sum(axis=1)
        n_right = total.sum(axis=1)[:, None] - n_left
        shape = n_left.shape
        left_imp = classification_impurity_columns(
            left.transpose(1, 0, 2).reshape(n_classes, -1), criterion
        ).reshape(shape)
        right_imp = classification_impurity_columns(
            right.transpose(1, 0, 2).reshape(n_classes, -1), criterion
        ).reshape(shape)
        scores = weighted_children_impurity(
            left_imp, n_left, right_imp, n_right
        )
        valid = (n_left > 0) & (n_right > 0)
        scores = np.where(valid, scores, np.inf)
        best = np.argmin(scores, axis=1)  # first minimum per segment
        rows = np.arange(local.size)
        has = valid.any(axis=1)
        segs = first + local[has]
        scan.best[segs] = best[has]
        scan.scores[segs] = scores[rows, best][has]
        scan.n_left[segs] = n_left[rows, best][has]
        scan.n_right[segs] = n_right[rows, best][has]


def best_categorical_classification_split(
    column: int,
    codes: np.ndarray,
    y: np.ndarray,
    n_categories: int,
    criterion: Impurity,
    n_classes: int,
) -> CandidateSplit | None:
    """Case 3: categorical attribute, categorical target.

    Exhaustive subset enumeration when the node sees at most
    :data:`EXHAUSTIVE_SUBSET_LIMIT` categories; otherwise the paper's
    ``|S_l| = 1`` restriction (one-vs-rest per category).  A one-segment
    :func:`categorical_classification_scan`.
    """
    seg = np.zeros(codes.size, dtype=np.int64)
    return categorical_classification_scan(
        column, codes, y, seg, 1, n_categories, criterion, n_classes
    ).split_for(0)


def best_split_for_column(
    column: int,
    kind: ColumnKind,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
    n_categories: int = 0,
) -> CandidateSplit | None:
    """Dispatch to the right Appendix-B case for one attribute.

    This single entry point is shared by the serial builder, the column-task
    worker code in the distributed engine, and the subtree builder, which is
    what guarantees all of them pick identical splits.
    """
    if kind is ColumnKind.NUMERIC:
        return best_numeric_split(column, values, y, criterion, n_classes)
    if criterion.is_classification:
        return best_categorical_classification_split(
            column, values, y, n_categories, criterion, n_classes
        )
    return best_categorical_regression_split(column, values, y, n_categories)


def random_split_for_column(
    column: int,
    kind: ColumnKind,
    values: np.ndarray,
    y: np.ndarray,
    criterion: Impurity,
    n_classes: int,
    rng: np.random.Generator,
    n_categories: int = 0,
) -> CandidateSplit | None:
    """Completely-random split for extra-trees (paper Appendix F).

    Numeric: a threshold drawn uniformly from ``[min, max)`` of the node's
    values.  Categorical: a uniformly random seen category as ``S_l``.
    The returned score is the realized weighted child impurity so leaves and
    degenerate draws are still handled uniformly by the builder.
    """
    if kind is ColumnKind.NUMERIC:
        present = ~np.isnan(values)
        vals = values[present]
        if vals.size < 2:
            return None
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:
            return None
        threshold = float(rng.uniform(lo, hi))
        go_left = vals <= threshold
        nl = int(go_left.sum())
        nr = int(vals.size - nl)
        if nl == 0 or nr == 0:
            return None
        score = _realized_score(go_left, y[present], criterion, n_classes)
        n_missing = int(values.size - vals.size)
        return CandidateSplit(
            column=column,
            kind=ColumnKind.NUMERIC,
            score=score,
            n_left=nl + (n_missing if nl >= nr else 0),
            n_right=nr + (0 if nl >= nr else n_missing),
            threshold=threshold,
            n_missing=n_missing,
            missing_to_left=nl >= nr,
        )

    present = values != MISSING_CODE
    cd = values[present]
    if cd.size < 2:
        return None
    seen = np.unique(cd)
    if seen.size < 2:
        return None
    pick = int(seen[rng.integers(seen.size)])
    go_left = cd == pick
    nl = int(go_left.sum())
    nr = int(cd.size - nl)
    score = _realized_score(go_left, y[present], criterion, n_classes)
    n_missing = int(values.size - cd.size)
    return CandidateSplit(
        column=column,
        kind=ColumnKind.CATEGORICAL,
        score=score,
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        left_categories=frozenset({pick}),
        right_categories=frozenset(int(c) for c in seen if c != pick),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


def _realized_score(
    go_left: np.ndarray, y: np.ndarray, criterion: Impurity, n_classes: int
) -> float:
    """Weighted child impurity of an already-decided partition."""
    yl, yr = y[go_left], y[~go_left]
    if criterion.is_classification:
        lc = np.bincount(yl.astype(np.int64), minlength=n_classes).astype(float)
        rc = np.bincount(yr.astype(np.int64), minlength=n_classes).astype(float)
        li = classification_impurity_columns(lc[:, None], criterion)[0]
        ri = classification_impurity_columns(rc[:, None], criterion)[0]
    else:
        li = variance_rows(
            np.array([float(yl.size)]),
            np.array([yl.sum()]),
            np.array([(yl * yl).sum()]),
        )[0]
        ri = variance_rows(
            np.array([float(yr.size)]),
            np.array([yr.sum()]),
            np.array([(yr * yr).sum()]),
        )[0]
    return float(
        weighted_children_impurity(li, yl.size, ri, yr.size)
    )


def route_training_rows(values: np.ndarray, split: CandidateSplit) -> np.ndarray:
    """Boolean mask: which of the node's rows go to the *left* child.

    Missing values follow ``split.missing_to_left`` (the larger child), so
    every training row is routed and ``|I_xl| + |I_xr| = |I_x|`` always holds
    — the invariant the delegate-worker protocol relies on.
    """
    if split.kind is ColumnKind.NUMERIC:
        missing = np.isnan(values)
        go_left = values <= split.threshold
    else:
        missing = values == MISSING_CODE
        left = split.left_categories or frozenset()
        go_left = np.isin(values, np.fromiter(left, dtype=values.dtype, count=len(left)))
    go_left = np.where(missing, split.missing_to_left, go_left)
    return go_left.astype(bool)


def route_test_value(value: float | int, split: CandidateSplit) -> bool | None:
    """Route a single prediction-time value; ``None`` means stop here.

    ``None`` is returned for missing values and for categorical values never
    seen in the node's ``D_x`` during training — in both cases the paper's
    Appendix D stops the descent and reports the current node's prediction.
    """
    if split.kind is ColumnKind.NUMERIC:
        if np.isnan(value):
            return None
        return bool(value <= split.threshold)
    code = int(value)
    if code == MISSING_CODE:
        return None
    if split.left_categories and code in split.left_categories:
        return True
    if split.right_categories and code in split.right_categories:
        return False
    return None
