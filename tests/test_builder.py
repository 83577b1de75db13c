"""Tests for the serial exact builder: leaf rules, invariants, extra-trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import (
    bootstrap_row_ids,
    build_subtree,
    extra_tree_column_order,
    node_rng,
    path_depth,
    sample_candidate_columns,
    train_tree,
)
from repro.core.config import ColumnSampling, TreeConfig, TreeKind
from repro.core.impurity import Impurity
from repro.core.tree import trees_equal
from repro.data import ProblemKind
from repro.datasets import SyntheticSpec, generate


class TestPathHelpers:
    def test_path_depth(self):
        assert path_depth(1) == 0
        assert path_depth(2) == 1
        assert path_depth(3) == 1
        assert path_depth(4) == 2
        assert path_depth(7) == 2

    @given(st.integers(min_value=1, max_value=2**40))
    def test_children_one_deeper(self, path):
        assert path_depth(2 * path) == path_depth(path) + 1
        assert path_depth(2 * path + 1) == path_depth(path) + 1

    def test_node_rng_deterministic(self):
        a = node_rng(7, 13).random()
        b = node_rng(7, 13).random()
        c = node_rng(7, 14).random()
        assert a == b
        assert a != c


class TestCandidateColumns:
    def test_all_sampling(self):
        cfg = TreeConfig(column_sampling=ColumnSampling.ALL)
        assert sample_candidate_columns(cfg, 10) == tuple(range(10))

    def test_sqrt_sampling_size(self):
        cfg = TreeConfig(column_sampling=ColumnSampling.SQRT, seed=3)
        cols = sample_candidate_columns(cfg, 100)
        assert len(cols) == 10
        assert cols == tuple(sorted(cols))
        assert all(0 <= c < 100 for c in cols)

    def test_ratio_sampling_size(self):
        cfg = TreeConfig(
            column_sampling=ColumnSampling.RATIO, column_ratio=0.4, seed=1
        )
        assert len(sample_candidate_columns(cfg, 50)) == 20

    def test_different_seeds_differ(self):
        base = TreeConfig(column_sampling=ColumnSampling.SQRT)
        a = sample_candidate_columns(base.with_seed(1), 400)
        b = sample_candidate_columns(base.with_seed(2), 400)
        assert a != b

    def test_bootstrap_deterministic_and_sorted(self):
        a = bootstrap_row_ids(5, 100)
        b = bootstrap_row_ids(5, 100)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 100
        assert (np.diff(a) >= 0).all()


class TestLeafRules:
    def test_pure_node_is_leaf(self, small_mixed_classification):
        table = small_mixed_classification
        tree = train_tree(table, TreeConfig(max_depth=20))
        for node in tree.nodes():
            if not node.is_leaf:
                # Internal nodes must be impure (pure nodes stop splitting).
                assert float(np.max(node.prediction)) < 1.0

    def test_max_depth_respected(self, small_mixed_classification):
        for dmax in (1, 3, 5):
            tree = train_tree(small_mixed_classification, TreeConfig(max_depth=dmax))
            assert tree.depth <= dmax

    def test_tau_leaf_respected(self, small_mixed_classification):
        tree = train_tree(
            small_mixed_classification, TreeConfig(max_depth=30, tau_leaf=20)
        )
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.n_rows > 20

    def test_unbounded_depth(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=None))
        # With tau_leaf=1 every leaf is pure or unsplittable.
        for node in tree.nodes():
            if node.is_leaf and node.n_rows > 1:
                pass  # unsplittable leaves are allowed (no useful split)
        assert tree.n_nodes >= 3


class TestStructuralInvariants:
    def test_children_partition_rows(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=8))
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.left.n_rows + node.right.n_rows == node.n_rows
                assert node.left.n_rows > 0 and node.right.n_rows > 0

    def test_heap_path_ids(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        for node in tree.nodes():
            assert node.depth == path_depth(node.node_id)
            if not node.is_leaf:
                assert node.left.node_id == 2 * node.node_id
                assert node.right.node_id == 2 * node.node_id + 1

    def test_pmf_sums_to_one(self, small_mixed_classification):
        tree = train_tree(small_mixed_classification, TreeConfig(max_depth=6))
        for node in tree.nodes():
            assert float(np.sum(node.prediction)) == pytest.approx(1.0)

    def test_determinism(self, small_mixed_classification):
        t1 = train_tree(small_mixed_classification, TreeConfig(max_depth=7))
        t2 = train_tree(small_mixed_classification, TreeConfig(max_depth=7))
        assert trees_equal(t1, t2)

    def test_regression_tree_with_missing(self, small_regression):
        tree = train_tree(small_regression, TreeConfig(max_depth=6))
        assert tree.problem is ProblemKind.REGRESSION
        for node in tree.nodes():
            assert isinstance(node.prediction, float)

    def test_entropy_criterion(self, small_mixed_classification):
        tree = train_tree(
            small_mixed_classification,
            TreeConfig(max_depth=5, criterion=Impurity.ENTROPY),
        )
        assert tree.n_nodes >= 3

    def test_training_accuracy_high_on_separable(self):
        table = generate(
            SyntheticSpec(
                name="clean",
                n_rows=400,
                n_numeric=5,
                n_categorical=0,
                n_classes=2,
                planted_depth=3,
                noise=0.0,
                seed=11,
            )
        )
        tree = train_tree(table, TreeConfig(max_depth=10))
        acc = (tree.predict(table) == table.target).mean()
        assert acc >= 0.99


class TestSubtreeBuilding:
    def test_subtree_on_row_subset(self, small_mixed_classification):
        table = small_mixed_classification
        ids = np.arange(0, table.n_rows, 2, dtype=np.int64)
        root = build_subtree(table, TreeConfig(max_depth=4), ids, root_path=5)
        assert root.node_id == 5
        assert root.depth == path_depth(5)
        assert root.n_rows == len(ids)

    def test_subtree_respects_remaining_depth(self, small_mixed_classification):
        table = small_mixed_classification
        ids = np.arange(table.n_rows, dtype=np.int64)
        # Root at path 4 has depth 2; dmax 4 leaves two more levels.
        root = build_subtree(table, TreeConfig(max_depth=4), ids, root_path=4)
        assert root.subtree_depth() <= 4

    def test_candidate_columns_restrict_splits(self, small_mixed_classification):
        table = small_mixed_classification
        ids = np.arange(table.n_rows, dtype=np.int64)
        root = build_subtree(
            table, TreeConfig(max_depth=6), ids, candidate_columns=(0, 2)
        )
        for node in root.walk():
            if node.split is not None:
                assert node.split.column in (0, 2)


class TestExtraTrees:
    def test_extra_tree_builds(self, small_mixed_classification):
        cfg = TreeConfig(max_depth=8, tree_kind=TreeKind.EXTRA, seed=3)
        tree = train_tree(small_mixed_classification, cfg)
        assert tree.n_nodes >= 3

    def test_extra_tree_deterministic_in_seed(self, small_mixed_classification):
        cfg = TreeConfig(max_depth=6, tree_kind=TreeKind.EXTRA, seed=4)
        t1 = train_tree(small_mixed_classification, cfg)
        t2 = train_tree(small_mixed_classification, cfg)
        assert trees_equal(t1, t2)

    def test_extra_tree_seeds_differ(self, small_mixed_classification):
        cfg = TreeConfig(max_depth=6, tree_kind=TreeKind.EXTRA)
        t1 = train_tree(small_mixed_classification, cfg.with_seed(1))
        t2 = train_tree(small_mixed_classification, cfg.with_seed(2))
        assert not trees_equal(t1, t2)

    def test_column_order_deterministic(self):
        cols = tuple(range(8))
        assert extra_tree_column_order(1, 5, cols) == extra_tree_column_order(
            1, 5, cols
        )
        assert set(extra_tree_column_order(1, 5, cols)) == set(cols)

    def test_extra_tree_splits_without_gain_requirement(self):
        """Extra-trees split on any valid random condition, even zero-gain."""
        table = generate(
            SyntheticSpec(
                name="noise",
                n_rows=200,
                n_numeric=3,
                n_categorical=0,
                n_classes=2,
                planted_depth=1,
                noise=0.5,
                seed=12,
            )
        )
        cfg = TreeConfig(max_depth=6, tree_kind=TreeKind.EXTRA, seed=1)
        tree = train_tree(table, cfg)
        assert tree.depth >= 2


class TestBootstrapTraining:
    def test_bootstrap_changes_tree(self, small_mixed_classification):
        table = small_mixed_classification
        plain = train_tree(table, TreeConfig(max_depth=6))
        boot = train_tree(
            table,
            TreeConfig(max_depth=6),
            row_ids=bootstrap_row_ids(0, table.n_rows),
        )
        assert not trees_equal(plain, boot)
        assert boot.root.n_rows == table.n_rows  # bootstrap keeps n rows


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_any_seeded_dataset_trains(seed):
    """Training never crashes and invariants hold on random small tables."""
    spec = SyntheticSpec(
        name="prop",
        n_rows=60,
        n_numeric=2,
        n_categorical=1,
        n_classes=2,
        planted_depth=3,
        noise=0.2,
        missing_rate=0.1,
        seed=seed,
    )
    table = generate(spec)
    tree = train_tree(table, TreeConfig(max_depth=5))
    assert tree.depth <= 5
    for node in tree.nodes():
        if not node.is_leaf:
            assert node.left.n_rows + node.right.n_rows == node.n_rows
    labels = tree.predict(table)
    assert labels.shape == (60,)


# ----------------------------------------------------------------------
# scalar vs vectorized kernel parity (repro.core.kernel)
# ----------------------------------------------------------------------
def _parity_table(problem=ProblemKind.CLASSIFICATION, missing=0.1, seed=9):
    return generate(
        SyntheticSpec(
            name="kparity",
            problem=problem,
            n_rows=500,
            n_numeric=4,
            n_categorical=2,
            n_classes=3 if problem is ProblemKind.CLASSIFICATION else 2,
            planted_depth=4,
            noise=0.25,
            missing_rate=missing,
            seed=seed,
        )
    )


def _numeric_table(columns, y, problem=ProblemKind.CLASSIFICATION):
    from repro.data import ColumnKind, ColumnSpec, DataTable, TableSchema

    specs = tuple(ColumnSpec(name, ColumnKind.NUMERIC) for name in columns)
    if problem is ProblemKind.CLASSIFICATION:
        classes = tuple(str(c) for c in range(int(np.max(y)) + 1))
        target = ColumnSpec("y", ColumnKind.CATEGORICAL, classes)
        y = np.asarray(y, dtype=np.int32)
    else:
        target = ColumnSpec("y", ColumnKind.NUMERIC)
        y = np.asarray(y, dtype=np.float64)
    schema = TableSchema(columns=specs, target=target, problem=problem)
    return DataTable(
        schema, [np.asarray(v, dtype=np.float64) for v in columns.values()], y
    )


def _tie_table(problem=ProblemKind.CLASSIFICATION, n=500, seed=4):
    """Integer-valued columns with 3-6 distinct values: ties everywhere."""
    rng = np.random.default_rng(seed)
    cols = {f"x{j}": rng.integers(0, 3 + j, n).astype(float) for j in range(4)}
    y = (cols["x0"] + cols["x1"] + rng.integers(0, 3, n)) % 3
    if problem is ProblemKind.REGRESSION:
        # Inexact float targets: a tie run's sum depends on its row order.
        y = y + rng.random(n)
    return _numeric_table(cols, y, problem)


def assert_kernels_bit_identical(table, config, row_ids=None):
    """Scalar and vectorized builds must serialize to identical dicts."""
    from dataclasses import replace

    scalar = train_tree(table, replace(config, kernel="scalar"), row_ids=row_ids)
    vec = train_tree(table, replace(config, kernel="vectorized"), row_ids=row_ids)
    assert trees_equal(scalar, vec)
    assert scalar.to_dict() == vec.to_dict()
    return scalar


class TestKernelParity:
    """The vectorized kernel is bit-identical to the scalar builder.

    This is the exactness invariant extended to the kernel seam: the
    level-synchronous builder must reproduce heap paths, RNG draws, and
    every tie-break of the scalar path across the whole configuration
    matrix.
    """

    @pytest.mark.parametrize("criterion", [Impurity.GINI, Impurity.ENTROPY])
    @pytest.mark.parametrize("missing", [0.0, 0.15])
    def test_classification_decision(self, criterion, missing):
        table = _parity_table(missing=missing)
        assert_kernels_bit_identical(
            table, TreeConfig(max_depth=None, criterion=criterion, seed=3)
        )

    @pytest.mark.parametrize("missing", [0.0, 0.15])
    def test_regression_decision(self, missing):
        table = _parity_table(problem=ProblemKind.REGRESSION, missing=missing)
        assert_kernels_bit_identical(
            table,
            TreeConfig(max_depth=None, criterion=Impurity.VARIANCE, seed=4),
        )

    @pytest.mark.parametrize(
        "problem", [ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION]
    )
    def test_extra_trees(self, problem):
        table = _parity_table(problem=problem)
        assert_kernels_bit_identical(
            table,
            TreeConfig(max_depth=None, tree_kind=TreeKind.EXTRA, seed=7),
        )

    def test_bootstrap_rows(self):
        table = _parity_table()
        rows = bootstrap_row_ids(21, table.n_rows)
        assert_kernels_bit_identical(
            table, TreeConfig(max_depth=None, seed=21), row_ids=rows
        )

    @pytest.mark.parametrize(
        "config",
        [
            TreeConfig(max_depth=0),
            TreeConfig(max_depth=1),
            TreeConfig(max_depth=None, tau_leaf=50),
            TreeConfig(max_depth=None, min_impurity_decrease=0.5),
            TreeConfig(
                max_depth=6, column_sampling=ColumnSampling.SQRT, seed=2
            ),
        ],
        ids=["depth0", "depth1", "tau-leaf-50", "high-gain-bar", "sqrt-cols"],
    )
    def test_edge_configs(self, config):
        assert_kernels_bit_identical(_parity_table(), config)

    # -- presorted level orders: bootstrap, order, NaN, ties, depth --------
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize(
        "problem", [ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION]
    )
    def test_bootstrap_duplicates(self, problem, shuffle):
        """Repeated row ids are distinct positions with equal values."""
        table = _parity_table(problem=problem)
        rows = bootstrap_row_ids(13, table.n_rows)
        assert np.unique(rows).size < rows.size
        if shuffle:
            rows = np.random.default_rng(13).permutation(rows)
        assert_kernels_bit_identical(
            table, TreeConfig(max_depth=None, seed=13), row_ids=rows
        )

    @pytest.mark.parametrize("criterion", [Impurity.GINI, Impurity.ENTROPY])
    def test_shuffled_row_ids(self, criterion):
        """Ties sort by position in ``I_x``, whatever order it comes in."""
        table = _tie_table()
        rows = np.random.default_rng(5).permutation(table.n_rows)[:450]
        assert_kernels_bit_identical(
            table,
            TreeConfig(max_depth=None, criterion=criterion, seed=5),
            row_ids=rows,
        )

    def test_shuffled_subtree_task(self):
        """A subtree-task's unsorted ``I_x`` below a non-root heap path."""
        from repro.core.kernel import build_subtree_vectorized
        from repro.core.tree import node_to_dict

        table = _parity_table(missing=0.15)
        rows = np.random.default_rng(8).permutation(table.n_rows)[:300]
        cfg = TreeConfig(max_depth=9, seed=8)
        scalar = build_subtree(table, cfg, rows, (0, 2, 4), root_path=5)
        vec = build_subtree_vectorized(table, cfg, rows, (0, 2, 4), root_path=5)
        assert node_to_dict(scalar) == node_to_dict(vec)

    @pytest.mark.parametrize(
        "problem", [ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION]
    )
    def test_nan_heavy_columns(self, problem):
        table = _parity_table(problem=problem, missing=0.6)
        assert_kernels_bit_identical(table, TreeConfig(max_depth=None, seed=6))

    @pytest.mark.parametrize(
        "problem", [ProblemKind.CLASSIFICATION, ProblemKind.REGRESSION]
    )
    def test_column_all_nan_in_a_node(self, problem):
        """``a`` is NaN on the right of the root's ``b <= 0.5`` split."""
        rng = np.random.default_rng(11)
        n = 400
        b = rng.random(n)
        c = rng.random(n)
        a = np.where(b <= 0.5, rng.random(n), np.nan)
        y = (b > 0.5).astype(int) ^ (c > 0.7) ^ (rng.random(n) < 0.05)
        if problem is ProblemKind.REGRESSION:
            y = y + 0.1 * rng.random(n)
        table = _numeric_table({"a": a, "b": b, "c": c}, y, problem)
        tree = assert_kernels_bit_identical(
            table, TreeConfig(max_depth=None, seed=11)
        )
        assert tree.root.split.column == 1  # the premise: b splits first

    @pytest.mark.parametrize(
        "criterion", [Impurity.GINI, Impurity.ENTROPY, Impurity.VARIANCE]
    )
    def test_integer_columns_heavy_ties(self, criterion):
        problem = (
            ProblemKind.REGRESSION
            if criterion is Impurity.VARIANCE
            else ProblemKind.CLASSIFICATION
        )
        table = _tie_table(problem)
        assert_kernels_bit_identical(
            table, TreeConfig(max_depth=None, criterion=criterion, seed=2)
        )

    @pytest.mark.parametrize("n_classes", [2, 5])
    def test_unbounded_depth(self, n_classes):
        """Grown to single rows: both class-count paths, many levels."""
        table = generate(
            SyntheticSpec(
                name="kdeep",
                problem=ProblemKind.CLASSIFICATION,
                n_rows=1500,
                n_numeric=5,
                n_categorical=1,
                n_classes=n_classes,
                planted_depth=6,
                noise=0.4,
                missing_rate=0.05,
                seed=n_classes,
            )
        )
        tree = assert_kernels_bit_identical(
            table, TreeConfig(max_depth=None, seed=n_classes)
        )
        assert tree.depth > 10

    def test_env_override_wins(self, monkeypatch):
        from repro.core.kernel import KernelCounters, build_subtree_auto

        table = _parity_table()
        rows = np.arange(table.n_rows, dtype=np.int64)
        counters = KernelCounters()
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        build_subtree_auto(
            table, TreeConfig(max_depth=4), rows, counters=counters
        )
        assert counters.kernel == "scalar"
        assert counters.build_s > 0

    def test_env_override_validated(self, monkeypatch):
        from repro.core.kernel import resolve_kernel

        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            resolve_kernel(TreeConfig())

    def test_config_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            TreeConfig(kernel="turbo")

    def test_counters_accumulate(self):
        from repro.core.kernel import KernelCounters, build_subtree_auto

        table = _parity_table()
        rows = np.arange(table.n_rows, dtype=np.int64)
        counters = KernelCounters()
        build_subtree_auto(
            table, TreeConfig(max_depth=None), rows, counters=counters
        )
        assert counters.kernel == "vectorized"
        assert counters.build_s > 0
        assert 0 <= counters.gather_s <= counters.build_s
