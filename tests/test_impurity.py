"""Tests for impurity functions, including property-based invariants."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.impurity import (
    Impurity,
    classification_impurity,
    classification_impurity_columns,
    default_impurity,
    entropy,
    entropy_columns,
    gini,
    gini_columns,
    variance,
    variance_rows,
    weighted_children_impurity,
)
from repro.core.splits import _enumerate_subsets, _subset_masks


# Row-major ``(m, k)`` scorers: the formulas the split scans used before
# class counts went class-major.  Kept here as the bit-for-bit oracle.
def gini_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1)
    safe = np.where(totals == 0, 1.0, totals)
    p = counts / safe[:, None]
    out = 1.0 - (p * p).sum(axis=1)
    out[totals == 0] = 0.0
    return out


def entropy_rows(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=1)
    safe = np.where(totals == 0, 1.0, totals)
    p = counts / safe[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(p > 0, np.log(p), 0.0)
    out = -(p * logp).sum(axis=1)
    out[totals == 0] = 0.0
    return out


counts_strategy = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=8
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestGini:
    def test_pure_is_zero(self):
        assert gini(np.array([10.0, 0.0])) == 0.0

    def test_uniform_binary_is_half(self):
        assert gini(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_empty_is_zero(self):
        assert gini(np.array([0.0, 0.0])) == 0.0

    @given(counts_strategy)
    def test_bounds(self, counts):
        value = gini(counts)
        k = len(counts)
        assert 0.0 <= value <= 1.0 - 1.0 / k + 1e-12

    @given(counts_strategy)
    def test_zero_iff_pure(self, counts):
        value = gini(counts)
        nonzero = int((counts > 0).sum())
        if nonzero <= 1:
            assert value == pytest.approx(0.0, abs=1e-12)
        else:
            assert value > 0

    @given(counts_strategy, st.integers(min_value=2, max_value=7))
    def test_scale_invariance(self, counts, factor):
        assert gini(counts * factor) == pytest.approx(gini(counts))


class TestEntropy:
    def test_pure_is_zero(self):
        assert entropy(np.array([7.0, 0.0, 0.0])) == 0.0

    def test_uniform_binary_is_log2(self):
        assert entropy(np.array([4.0, 4.0])) == pytest.approx(np.log(2))

    @given(counts_strategy)
    def test_nonnegative_and_bounded(self, counts):
        value = entropy(counts)
        assert value >= 0.0
        assert value <= np.log(len(counts)) + 1e-12


class TestVariance:
    def test_constant_values(self):
        y = np.full(5, 3.0)
        assert variance(5, y.sum(), (y * y).sum()) == pytest.approx(0.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=100)
        ours = variance(len(y), y.sum(), (y * y).sum())
        assert ours == pytest.approx(np.var(y), rel=1e-9)

    def test_empty_is_zero(self):
        assert variance(0, 0.0, 0.0) == 0.0

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_nonnegative(self, values):
        y = np.array(values)
        assert variance(len(y), float(y.sum()), float((y * y).sum())) >= 0.0


class TestVectorizedForms:
    @given(st.lists(counts_strategy, min_size=1, max_size=5))
    def test_gini_rows_matches_scalar(self, rows):
        k = max(len(r) for r in rows)
        matrix = np.zeros((len(rows), k))
        for i, r in enumerate(rows):
            matrix[i, : len(r)] = r
        vec = gini_columns(matrix.T)
        for i in range(len(rows)):
            assert vec[i] == pytest.approx(gini(matrix[i]))

    @given(st.lists(counts_strategy, min_size=1, max_size=5))
    def test_entropy_rows_matches_scalar(self, rows):
        k = max(len(r) for r in rows)
        matrix = np.zeros((len(rows), k))
        for i, r in enumerate(rows):
            matrix[i, : len(r)] = r
        vec = entropy_columns(matrix.T)
        for i in range(len(rows)):
            assert vec[i] == pytest.approx(entropy(matrix[i]))

    def test_variance_rows_matches_scalar(self):
        rng = np.random.default_rng(1)
        groups = [rng.normal(size=n) for n in (1, 5, 20)]
        counts = np.array([float(len(g)) for g in groups])
        sums = np.array([g.sum() for g in groups])
        sqs = np.array([(g * g).sum() for g in groups])
        vec = variance_rows(counts, sums, sqs)
        for i, g in enumerate(groups):
            assert vec[i] == pytest.approx(np.var(g), abs=1e-12)

    def test_zero_rows_are_zero(self):
        assert gini_columns(np.zeros((3, 2))).tolist() == [0.0, 0.0]
        assert entropy_columns(np.zeros((3, 2))).tolist() == [0.0, 0.0]


@st.composite
def class_count_matrices(draw):
    """``(m, k)`` integer class counts with zero-sum and pure rows mixed in."""
    k = draw(st.sampled_from([*range(2, 21), 129, 300]))
    m = draw(st.integers(min_value=1, max_value=12))
    cap = draw(st.sampled_from([1, 5, 1000, 10**7]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, cap + 1, size=(m, k)).astype(np.float64)
    kind = rng.integers(0, 3, size=m)
    counts[kind == 1] = 0.0  # sums to zero
    pure = np.flatnonzero(kind == 2)
    counts[pure] = 0.0
    counts[pure, rng.integers(0, k, size=pure.size)] = float(cap)
    return counts


class TestColumnMajorOracle:
    """Class-major scores equal the row-major formulas bit for bit.

    The split scans hold class counts ``(k, m)``; every score — and so
    every ``argmin`` winner — must be the float the ``(m, k)`` row-major
    formulas produce, including the sign of zero.
    """

    @given(class_count_matrices(), st.sampled_from(["C", "F"]))
    def test_matches_row_major_bit_for_bit(self, counts, layout):
        class_major = np.asarray(counts.T, order=layout)
        for criterion, oracle in (
            (Impurity.GINI, gini_rows),
            (Impurity.ENTROPY, entropy_rows),
        ):
            got = classification_impurity_columns(class_major, criterion)
            assert got.tobytes() == oracle(counts).tobytes()

    @pytest.mark.parametrize("g", range(2, 9))
    def test_subset_mask_product_matches_enumeration(self, g):
        rng = np.random.default_rng(g)
        live = rng.integers(0, 10**6, size=(g, 5)).astype(np.float64)
        stacked = np.stack(
            [live[list(subset)].sum(axis=0) for subset in _enumerate_subsets(g)]
        )
        product = live.T @ _subset_masks(g)
        assert product.tobytes() == np.ascontiguousarray(stacked.T).tobytes()


class TestWeightedChildren:
    def test_scalar_mix(self):
        assert weighted_children_impurity(0.5, 10, 0.0, 10) == pytest.approx(0.25)

    def test_zero_total(self):
        assert weighted_children_impurity(0.3, 0, 0.7, 0) == 0.0

    @given(
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=100),
    )
    def test_between_children(self, li, lw, ri, rw):
        value = weighted_children_impurity(li, lw, ri, rw)
        assert min(li, ri) - 1e-12 <= value <= max(li, ri) + 1e-12 or (
            lw + rw == 0 and value == 0.0
        )


class TestDispatch:
    def test_classification_dispatch(self):
        counts = np.array([3.0, 7.0])
        assert classification_impurity(counts, Impurity.GINI) == pytest.approx(
            gini(counts)
        )
        assert classification_impurity(
            counts, Impurity.ENTROPY
        ) == pytest.approx(entropy(counts))

    def test_variance_not_classification(self):
        with pytest.raises(ValueError):
            classification_impurity(np.array([1.0]), Impurity.VARIANCE)
        with pytest.raises(ValueError):
            classification_impurity_columns(
                np.ones((2, 1)), Impurity.VARIANCE
            )

    def test_defaults_match_paper(self):
        assert default_impurity(True) is Impurity.GINI
        assert default_impurity(False) is Impurity.VARIANCE

    def test_is_classification_flag(self):
        assert Impurity.GINI.is_classification
        assert Impurity.ENTROPY.is_classification
        assert not Impurity.VARIANCE.is_classification
