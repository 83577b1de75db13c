"""Impurity functions for node-split scoring.

The paper evaluates node splits with an impurity function: Gini index or
entropy of the ``Y`` labels for classification, and variance of the ``Y``
values for regression (Section II).  All functions here operate on
*sufficient statistics* — class-count vectors for classification and
``(count, sum, sum of squares)`` triples for regression — because that is
what the split-search scans accumulate incrementally, and what column-task
workers could ship in messages.

Vectorized variants accept 2-D stacks of statistics so a split scan can
score every candidate boundary of a sorted column in one NumPy pass.
Class counts are stacked column-major, ``(n_classes, n_candidates)``: one
contiguous row per class, so each arithmetic step runs over all
candidates at once.
"""

from __future__ import annotations

import enum

import numpy as np


class Impurity(enum.Enum):
    """User-selectable impurity criterion (a model hyperparameter, Fig. 2)."""

    GINI = "gini"
    ENTROPY = "entropy"
    VARIANCE = "variance"

    @property
    def is_classification(self) -> bool:
        """Whether this criterion scores class-count statistics."""
        return self is not Impurity.VARIANCE


def gini(counts: np.ndarray) -> float:
    """Gini index of one class-count vector: ``1 - sum_k p_k^2``."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of one class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def variance(count: float, total: float, total_sq: float) -> float:
    """Variance of ``Y`` values from ``(n, sum, sum of squares)``."""
    if count == 0:
        return 0.0
    mean = total / count
    return max(0.0, total_sq / count - mean * mean)


def classification_impurity(counts: np.ndarray, criterion: Impurity) -> float:
    """Dispatch Gini or entropy for one class-count vector."""
    if criterion is Impurity.GINI:
        return gini(counts)
    if criterion is Impurity.ENTROPY:
        return entropy(counts)
    raise ValueError(f"{criterion} is not a classification criterion")


def _sum_classes(terms: np.ndarray) -> np.ndarray:
    """Sum a ``(k, m)`` array over its class axis, lane by lane.

    The additions follow the order numpy's pairwise summation uses when it
    reduces a contiguous ``(m, k)`` array over its short last axis:
    sequential for ``k < 8``, eight interleaved accumulators combined as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` plus a
    sequential tail for ``k <= 128``, and recursive halving at a multiple
    of eight above that.  Every output therefore equals
    ``terms.T.sum(axis=1)`` bit for bit, while each addition runs over a
    contiguous ``m``-lane row instead of ``m`` short ``k``-element rows.

    Below eight classes both orders numpy may pick for ``sum(axis=0)`` —
    pairwise along the class axis when it is the contiguous one, one
    running sum per lane otherwise — are the same sequential sum, so one
    call does it.  numpy seeds its reductions with ``0.0``; the first term
    stands in for ``0.0 + term``, the same value for every term that is
    not ``-0.0`` (impurity terms never are).
    """
    k = terms.shape[0]
    if k < 8:
        return terms.sum(axis=0)
    if k <= 128:
        lanes = terms[:8].copy()
        tail = k - k % 8
        for i in range(8, tail, 8):
            lanes += terms[i : i + 8]
        acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for c in range(tail, k):
            acc += terms[c]
        return acc
    half = k // 2
    half -= half % 8
    return _sum_classes(terms[:half]) + _sum_classes(terms[half:])


def _class_shares(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column totals and class shares of a ``(k, m)`` count matrix."""
    totals = _sum_classes(counts)
    safe = np.where(totals == 0, 1.0, totals)
    return totals, counts / safe


def gini_columns(counts: np.ndarray) -> np.ndarray:
    """Gini per column of a ``(k, m)`` class-count matrix.

    Row ``c`` holds class ``c``'s count for each of ``m`` candidates.  The
    result equals the row-major ``1 - (p * p).sum(axis=1)`` over the
    transposed ``(m, k)`` matrix bit for bit (see :func:`_sum_classes`).
    """
    totals, p = _class_shares(counts)
    out = 1.0 - _sum_classes(p * p)
    out[totals == 0] = 0.0
    return out


def entropy_columns(counts: np.ndarray) -> np.ndarray:
    """Entropy (nats) per column of a ``(k, m)`` class-count matrix."""
    totals, p = _class_shares(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log(p), 0.0)
    out = -_sum_classes(p * logp)
    out[totals == 0] = 0.0
    return out


def classification_impurity_columns(
    counts: np.ndarray, criterion: Impurity
) -> np.ndarray:
    """Gini/entropy per column of a ``(k, m)`` class-count matrix.

    The one batched classification scorer: every exact and histogram split
    scan holds its candidates' class counts one contiguous row per class.
    """
    if criterion is Impurity.GINI:
        return gini_columns(counts)
    if criterion is Impurity.ENTROPY:
        return entropy_columns(counts)
    raise ValueError(f"{criterion} is not a classification criterion")


def variance_rows(
    counts: np.ndarray, sums: np.ndarray, sq_sums: np.ndarray
) -> np.ndarray:
    """Vectorized variance over parallel ``(n, sum, sum_sq)`` arrays."""
    safe = np.where(counts == 0, 1.0, counts)
    means = sums / safe
    out = sq_sums / safe - means * means
    out[counts == 0] = 0.0
    return np.maximum(out, 0.0)


def weighted_children_impurity(
    left_impurity: np.ndarray | float,
    left_weight: np.ndarray | float,
    right_impurity: np.ndarray | float,
    right_weight: np.ndarray | float,
) -> np.ndarray | float:
    """Size-weighted mean impurity of a candidate (left, right) split.

    This is the quantity the split search minimizes; the parent impurity is
    a constant per node, so minimizing the weighted child impurity maximizes
    the impurity decrease the paper describes.
    """
    total = left_weight + right_weight
    if np.isscalar(total):
        if total == 0:
            return 0.0
        return (
            left_weight * left_impurity + right_weight * right_impurity
        ) / total
    safe = np.where(total == 0, 1.0, total)
    out = (left_weight * left_impurity + right_weight * right_impurity) / safe
    return np.where(total == 0, 0.0, out)


def default_impurity(is_classification: bool) -> Impurity:
    """The paper's default criteria: Gini for classification, variance else."""
    return Impurity.GINI if is_classification else Impurity.VARIANCE
