"""Tests for exact split search — including brute-force cross-checks.

The brute-force comparisons are the key property tests: the one-pass /
grouped algorithms of Appendix B must agree with exhaustive enumeration of
every possible split on small random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.impurity import (
    Impurity,
    classification_impurity,
    variance,
    weighted_children_impurity,
)
from repro.core.splits import (
    EXHAUSTIVE_SUBSET_LIMIT,
    CandidateSplit,
    best_categorical_classification_split,
    best_categorical_regression_split,
    best_numeric_split,
    best_split_for_column,
    categorical_classification_scan,
    random_split_for_column,
    route_test_value,
    route_training_rows,
)
from repro.data.schema import ColumnKind


def brute_force_numeric(values, y, criterion, n_classes):
    """Score every distinct-value threshold exhaustively."""
    present = ~np.isnan(values)
    vals, ys = values[present], y[present]
    best = None
    for v in sorted(set(vals))[:-1]:
        left = vals <= v
        score = _score(ys[left], ys[~left], criterion, n_classes)
        if best is None or score < best - 1e-12:
            best = score
    return best


def _score(yl, yr, criterion, n_classes):
    if criterion.is_classification:
        li = classification_impurity(
            np.bincount(yl.astype(int), minlength=n_classes).astype(float),
            criterion,
        )
        ri = classification_impurity(
            np.bincount(yr.astype(int), minlength=n_classes).astype(float),
            criterion,
        )
    else:
        li = variance(len(yl), yl.sum(), (yl * yl).sum())
        ri = variance(len(yr), yr.sum(), (yr * yr).sum())
    return weighted_children_impurity(li, len(yl), ri, len(yr))


class TestNumericSplit:
    def test_perfect_separation(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        y = np.array([0, 0, 0, 1, 1, 1])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        assert split is not None
        assert split.threshold == pytest.approx(3.0)
        assert split.score == pytest.approx(0.0)
        assert split.n_left == 3 and split.n_right == 3

    def test_constant_column_returns_none(self):
        values = np.full(5, 2.0)
        y = np.array([0, 1, 0, 1, 0])
        assert best_numeric_split(0, values, y, Impurity.GINI, 2) is None

    def test_single_row_returns_none(self):
        assert (
            best_numeric_split(
                0, np.array([1.0]), np.array([0]), Impurity.GINI, 2
            )
            is None
        )

    def test_all_missing_returns_none(self):
        values = np.full(4, np.nan)
        y = np.array([0, 1, 0, 1])
        assert best_numeric_split(0, values, y, Impurity.GINI, 2) is None

    def test_missing_routed_to_larger_child(self):
        values = np.array([1.0, 2.0, np.nan, 10.0, 11.0, 12.0, np.nan])
        y = np.array([0, 0, 0, 1, 1, 1, 1])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        assert split is not None
        assert split.n_missing == 2
        # Right side has 3 present rows, left has 2 -> missing go right.
        assert not split.missing_to_left
        assert split.n_right == 5 and split.n_left == 2

    def test_regression_split(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        split = best_numeric_split(0, values, y, Impurity.VARIANCE, 0)
        assert split is not None
        assert split.threshold == pytest.approx(2.0)
        assert split.score == pytest.approx(0.0)

    def test_tie_breaks_to_smallest_threshold(self):
        # Both thresholds 1.0 and 2.0 give identical scores here.
        values = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0, 1, 0, 1])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        assert split is not None
        assert split.threshold == pytest.approx(1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=2,
            max_size=40,
        )
    )
    def test_matches_brute_force_classification(self, pairs):
        values = np.array([float(v) for v, _ in pairs])
        y = np.array([c for _, c in pairs])
        split = best_numeric_split(0, values, y, Impurity.GINI, 3)
        brute = brute_force_numeric(values, y, Impurity.GINI, 3)
        if brute is None:
            assert split is None
        else:
            assert split is not None
            assert split.score == pytest.approx(brute, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),
                st.floats(min_value=-5, max_value=5, allow_nan=False),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_matches_brute_force_regression(self, pairs):
        values = np.array([float(v) for v, _ in pairs])
        y = np.array([t for _, t in pairs])
        split = best_numeric_split(0, values, y, Impurity.VARIANCE, 0)
        brute = brute_force_numeric(values, y, Impurity.VARIANCE, 0)
        if brute is None:
            assert split is None
        else:
            assert split is not None
            assert split.score == pytest.approx(brute, abs=1e-9)


class TestCategoricalRegression:
    def test_breiman_matches_exhaustive(self):
        """Breiman's prefix-cut result vs all 2^(k-1)-1 subsets."""
        rng = np.random.default_rng(5)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(4, 40))
            codes = rng.integers(0, k, size=n).astype(np.int32)
            y = rng.normal(size=n)
            split = best_categorical_regression_split(0, codes, y, k)
            best = None
            seen = sorted(set(codes.tolist()))
            if len(seen) < 2:
                assert split is None
                continue
            for mask in range(1, 1 << (len(seen) - 1)):
                subset = {
                    seen[i]
                    for i in range(len(seen))
                    if (i == 0) or (mask >> (i - 1)) & 1
                } | {seen[0]}
                if len(subset) == len(seen):
                    continue
                left = np.isin(codes, list(subset))
                score = _score(y[left], y[~left], Impurity.VARIANCE, 0)
                if best is None or score < best:
                    best = score
            # Also the pure singleton-first subset {seen[0]}:
            left = codes == seen[0]
            singleton = _score(y[left], y[~left], Impurity.VARIANCE, 0)
            best = singleton if best is None else min(best, singleton)
            assert split is not None
            assert split.score == pytest.approx(best, abs=1e-9)

    def test_single_category_returns_none(self):
        codes = np.zeros(5, dtype=np.int32)
        y = np.arange(5, dtype=float)
        assert best_categorical_regression_split(0, codes, y, 3) is None

    def test_left_right_partition_categories(self):
        codes = np.array([0, 0, 1, 1, 2, 2], dtype=np.int32)
        y = np.array([0.0, 0.1, 5.0, 5.1, 0.05, 0.0])
        split = best_categorical_regression_split(0, codes, y, 3)
        assert split is not None
        assert split.left_categories is not None
        assert split.right_categories is not None
        assert split.left_categories | split.right_categories == {0, 1, 2}
        assert split.left_categories & split.right_categories == frozenset()
        # Category 1 (mean 5) should be separated from 0 and 2 (mean ~0).
        assert split.left_categories == {0, 2} or split.right_categories == {0, 2}


class TestCategoricalClassification:
    def test_exhaustive_small_cardinality(self):
        codes = np.array([0, 0, 1, 1, 2, 2], dtype=np.int32)
        y = np.array([0, 0, 1, 1, 0, 0], dtype=np.int64)
        split = best_categorical_classification_split(
            0, codes, y, 3, Impurity.GINI, 2
        )
        assert split is not None
        assert split.score == pytest.approx(0.0)
        assert split.left_categories in ({1}, {0, 2})

    def test_singleton_restriction_above_limit(self):
        k = EXHAUSTIVE_SUBSET_LIMIT + 4
        rng = np.random.default_rng(3)
        codes = rng.integers(0, k, size=200).astype(np.int32)
        y = (codes == 3).astype(np.int64)  # category 3 determines the class
        split = best_categorical_classification_split(
            0, codes, y, k, Impurity.GINI, 2
        )
        assert split is not None
        assert len(split.left_categories) == 1  # |S_l| = 1 restriction
        assert split.left_categories == {3}
        assert split.score == pytest.approx(0.0)

    def test_missing_counted(self):
        codes = np.array([0, 0, 1, 1, -1, -1], dtype=np.int32)
        y = np.array([0, 0, 1, 1, 0, 1], dtype=np.int64)
        split = best_categorical_classification_split(
            0, codes, y, 2, Impurity.GINI, 2
        )
        assert split is not None
        assert split.n_missing == 2
        assert split.n_left + split.n_right == 6

    def test_all_one_category_returns_none(self):
        codes = np.zeros(6, dtype=np.int32)
        y = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        assert (
            best_categorical_classification_split(
                0, codes, y, 4, Impurity.GINI, 2
            )
            is None
        )


def per_node_subset_reference(codes, y, n_categories, criterion, n_classes):
    """Case 3 one node at a time, with per-subset list-stack counts and
    row-major ``(candidates, classes)`` scoring: the formulation the
    batched scan replaced, kept as its oracle."""
    from repro.core.splits import _enumerate_subsets

    present = codes != -1
    n_missing = int(codes.size - present.sum())
    cd, ys = codes[present].astype(np.int64), y[present].astype(np.int64)
    stats = (
        np.bincount(cd * n_classes + ys, minlength=n_categories * n_classes)
        .reshape(n_categories, n_classes)
        .astype(np.float64)
    )
    nonempty = np.nonzero(stats.sum(axis=1) > 0)[0]
    if nonempty.size < 2:
        return None
    live = stats[nonempty]
    total = live.sum(axis=0)
    if nonempty.size <= EXHAUSTIVE_SUBSET_LIMIT:
        candidates = _enumerate_subsets(nonempty.size)
        left = np.stack([live[list(sub)].sum(axis=0) for sub in candidates])
    else:
        candidates = [(i,) for i in range(nonempty.size)]
        left = live
    right = total[None, :] - left
    n_left = left.sum(axis=1)
    n_right = float(total.sum()) - n_left

    def rows(counts):
        totals = counts.sum(axis=1)
        p = counts / np.where(totals == 0, 1.0, totals)[:, None]
        if criterion is Impurity.GINI:
            out = 1.0 - (p * p).sum(axis=1)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = -(p * np.where(p > 0, np.log(p), 0.0)).sum(axis=1)
        out[totals == 0] = 0.0
        return out

    scores = weighted_children_impurity(rows(left), n_left, rows(right), n_right)
    best = int(np.argmin(scores))
    chosen = set(candidates[best])
    nl, nr = int(n_left[best]), int(n_right[best])
    return CandidateSplit(
        column=0,
        kind=ColumnKind.CATEGORICAL,
        score=float(scores[best]),
        n_left=nl + (n_missing if nl >= nr else 0),
        n_right=nr + (0 if nl >= nr else n_missing),
        left_categories=frozenset(int(nonempty[i]) for i in chosen),
        right_categories=frozenset(
            int(nonempty[i]) for i in range(nonempty.size) if i not in chosen
        ),
        n_missing=n_missing,
        missing_to_left=nl >= nr,
    )


class TestBatchedSubsetScan:
    """A many-node subset scan equals the per-node scan, node by node."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 6, 8, 9, 12]),
        st.integers(min_value=2, max_value=5),
        st.sampled_from([Impurity.GINI, Impurity.ENTROPY]),
        st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_node_reference(
        self, n_categories, n_classes, criterion, sizes, seed
    ):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        codes = rng.integers(-1, n_categories, n).astype(np.int32)
        y = rng.integers(0, n_classes, n).astype(np.int64)
        seg = np.repeat(np.arange(len(sizes)), sizes)
        scan = categorical_classification_scan(
            0, codes, y, seg, len(sizes), n_categories, criterion, n_classes
        )
        starts = np.concatenate(([0], np.cumsum(sizes)))
        for s in range(len(sizes)):
            lo, hi = starts[s], starts[s + 1]
            expected = per_node_subset_reference(
                codes[lo:hi], y[lo:hi], n_categories, criterion, n_classes
            )
            assert scan.split_for(s) == expected
            key = scan.key_for(s)
            assert key == (None if expected is None else expected.sort_key())

    def test_blocks_of_segments_match_one_block(self, monkeypatch):
        """The memory bound on one block never changes a result."""
        import repro.core.splits as splits

        rng = np.random.default_rng(4)
        seg = np.sort(rng.integers(0, 30, 600))
        codes = rng.integers(-1, 7, 600).astype(np.int32)
        y = rng.integers(0, 3, 600)
        whole = categorical_classification_scan(
            0, codes, y, seg, 30, 7, Impurity.GINI, 3
        )
        monkeypatch.setattr(splits, "_SUBSET_SCAN_CELLS", 7 * 3 * 4)
        blocks = categorical_classification_scan(
            0, codes, y, seg, 30, 7, Impurity.GINI, 3
        )
        for s in range(30):
            assert whole.split_for(s) == blocks.split_for(s)


class TestDispatcher:
    def test_dispatch_numeric(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([0, 0, 1, 1])
        split = best_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2
        )
        assert split is not None and split.kind is ColumnKind.NUMERIC

    def test_dispatch_categorical_classification(self):
        codes = np.array([0, 0, 1, 1], dtype=np.int32)
        y = np.array([0, 0, 1, 1])
        split = best_split_for_column(
            0, ColumnKind.CATEGORICAL, codes, y, Impurity.GINI, 2, 2
        )
        assert split is not None and split.kind is ColumnKind.CATEGORICAL

    def test_dispatch_categorical_regression(self):
        codes = np.array([0, 0, 1, 1], dtype=np.int32)
        y = np.array([0.0, 0.0, 5.0, 5.0])
        split = best_split_for_column(
            0, ColumnKind.CATEGORICAL, codes, y, Impurity.VARIANCE, 0, 2
        )
        assert split is not None
        assert split.score == pytest.approx(0.0)


class TestRandomSplit:
    def test_numeric_draw_in_range(self):
        rng = np.random.default_rng(0)
        values = np.array([1.0, 5.0, 3.0, 2.0])
        y = np.array([0, 1, 0, 1])
        split = random_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2, rng
        )
        assert split is not None
        assert 1.0 <= split.threshold < 5.0
        assert split.n_left + split.n_right == 4

    def test_numeric_constant_returns_none(self):
        rng = np.random.default_rng(0)
        values = np.full(4, 3.0)
        y = np.array([0, 1, 0, 1])
        assert (
            random_split_for_column(
                0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2, rng
            )
            is None
        )

    def test_categorical_singleton(self):
        rng = np.random.default_rng(7)
        codes = np.array([0, 1, 2, 0, 1, 2], dtype=np.int32)
        y = np.array([0, 1, 0, 0, 1, 0])
        split = random_split_for_column(
            0, ColumnKind.CATEGORICAL, codes, y, Impurity.GINI, 2, rng, 3
        )
        assert split is not None
        assert len(split.left_categories) == 1

    def test_deterministic_given_rng(self):
        values = np.array([1.0, 5.0, 3.0, 2.0])
        y = np.array([0, 1, 0, 1])
        s1 = random_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2,
            np.random.default_rng(42),
        )
        s2 = random_split_for_column(
            0, ColumnKind.NUMERIC, values, y, Impurity.GINI, 2,
            np.random.default_rng(42),
        )
        assert s1.threshold == s2.threshold


class TestRouting:
    def test_training_rows_complete_partition(self):
        values = np.array([1.0, np.nan, 3.0, 4.0, np.nan])
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=3,
            n_right=2,
            threshold=2.0,
            n_missing=2,
            missing_to_left=True,
        )
        go_left = route_training_rows(values, split)
        assert go_left.tolist() == [True, True, False, False, True]

    def test_training_rows_categorical(self):
        values = np.array([0, 1, 2, -1], dtype=np.int32)
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.CATEGORICAL,
            score=0.0,
            n_left=2,
            n_right=2,
            left_categories=frozenset({0, 2}),
            right_categories=frozenset({1}),
            missing_to_left=False,
        )
        go_left = route_training_rows(values, split)
        assert go_left.tolist() == [True, False, True, False]

    def test_test_value_missing_stops(self):
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=1,
            n_right=1,
            threshold=2.0,
        )
        assert route_test_value(np.nan, split) is None
        assert route_test_value(1.0, split) is True
        assert route_test_value(3.0, split) is False

    def test_test_value_unseen_category_stops(self):
        split = CandidateSplit(
            column=0,
            kind=ColumnKind.CATEGORICAL,
            score=0.0,
            n_left=1,
            n_right=1,
            left_categories=frozenset({0}),
            right_categories=frozenset({1}),
        )
        assert route_test_value(0, split) is True
        assert route_test_value(1, split) is False
        assert route_test_value(2, split) is None  # unseen in D_x
        assert route_test_value(-1, split) is None  # missing

    def test_describe(self):
        split = CandidateSplit(
            column=1,
            kind=ColumnKind.NUMERIC,
            score=0.0,
            n_left=1,
            n_right=1,
            threshold=40.0,
        )
        assert "<= 40" in split.describe("Age")


class TestSplitCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_counts_sum_to_n(self, pairs):
        """|I_xl| + |I_xr| == |I_x| — the delegate protocol's invariant."""
        values = np.array(
            [np.nan if v is None else float(v) for v, _ in pairs]
        )
        y = np.array([c for _, c in pairs])
        split = best_numeric_split(0, values, y, Impurity.GINI, 2)
        if split is None:
            return
        assert split.n_left + split.n_right == len(pairs)
        go_left = route_training_rows(values, split)
        assert int(go_left.sum()) == split.n_left
