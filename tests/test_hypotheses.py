import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import exhaustive_cart, grow_tree_copying, same_tree
from pcrisk.errors import DegeneratePartitionError, InvalidInputError
from pcrisk.features import FEATURE_NAMES, Dataset, to_matrix
from pcrisk import hypotheses
from pcrisk.hypotheses import (
    Condition,
    HypothesisPredicate,
    builtin_hypotheses,
    evaluate_hypothesis,
    extract_paths,
    golden_dataset,
    grow_tree,
    load_tree,
    predict_leaf,
    save_tree,
    train_cart,
    tree_to_dot,
    _best_split,
    _exact_argmin,
)


def _rows_from_xy(X, y):
    """A dataset whose first features are X's columns, the rest zero."""
    n = len(y)
    Xf = np.zeros((n, 120))
    Xf[:, :X.shape[1]] = X
    cells = np.column_stack([np.zeros(n, dtype=int), np.arange(n)])
    return Dataset(cells=cells, X=Xf, y=np.asarray(y, dtype=int))


class TestTrainCart:
    def test_separable_1d(self):
        X = np.array([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = grow_tree(X, y, max_depth=4, min_leaf=1)
        assert not tree.is_leaf
        assert tree.left.is_leaf and tree.right.is_leaf
        assert tree.left.n_class1 == 0 and tree.right.n_class1 == 3

    def test_constant_features_single_leaf(self):
        X = np.ones((8, 3))
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        tree = grow_tree(X, y, max_depth=4, min_leaf=1)
        assert tree.is_leaf and tree.n_samples == 8 and tree.n_class1 == 4

    def test_single_class_single_leaf(self):
        rows = _rows_from_xy(np.random.default_rng(0).random((6, 3)), np.zeros(6))
        tree = train_cart(rows)
        assert tree.is_leaf

    def test_20_row_hand_dataset_matches_oracle(self):
        rng = np.random.default_rng(7)
        X = np.round(rng.random((20, 3)), 2)
        y = (rng.random(20) < 0.4).astype(int)
        tree = grow_tree(X, y, max_depth=3, min_leaf=2)
        oracle = exhaustive_cart(X, y, max_depth=3, min_leaf=2)
        assert same_tree(tree, oracle)

    def test_exhaustive_oracle_25_random_datasets(self):
        rng = np.random.default_rng(123)
        for trial in range(25):
            n = int(rng.integers(5, 31))
            d = int(rng.integers(1, 6))
            # round to 1 decimal: plenty of duplicated values and tied splits
            X = np.round(rng.random((n, d)), 1)
            y = (rng.random(n) < 0.5).astype(int)
            depth = int(rng.integers(1, 4))
            min_leaf = int(rng.integers(1, 4))
            tree = grow_tree(X, y, max_depth=depth, min_leaf=min_leaf)
            oracle = exhaustive_cart(X, y, max_depth=depth, min_leaf=min_leaf)
            assert same_tree(tree, oracle), f"trial {trial} diverged from oracle"

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = np.round(rng.random((30, 4)), 2)
        y = (rng.random(30) < 0.5).astype(int)
        t1 = grow_tree(X, y, 4, 1)
        t2 = grow_tree(X, y, 4, 1)
        from pcrisk.hypotheses import tree_to_dict

        assert tree_to_dict(t1) == tree_to_dict(t2)

    def test_bad_params(self):
        X = np.arange(8.0)[:, None]
        y = (X[:, 0] > 3).astype(int)
        for max_depth, min_leaf in [(0, 1), (-1, 1), (4, 0)]:
            with pytest.raises(InvalidInputError):
                grow_tree(X, y, max_depth, min_leaf)
            with pytest.raises(InvalidInputError):
                train_cart(_rows_from_xy(X, y), max_depth, min_leaf)

    def test_sampled_features_split_matches_oracle(self):
        # the split search on a random-forest-style feature sample picks
        # what the exhaustive search picks on those columns alone
        rng = np.random.default_rng(314)
        for trial in range(40):
            n = int(rng.integers(4, 31))
            d = int(rng.integers(2, 8))
            X = np.round(rng.random((n, d)), 1)
            y = np.r_[0, 1, (rng.random(n - 2) < 0.5).astype(int)]
            fids = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            min_leaf = int(rng.integers(1, 3))
            got = _best_split(X[:, fids].T, y, min_leaf, fids)
            want = exhaustive_cart(X[:, fids], y, max_depth=1, min_leaf=min_leaf)
            if "feature" not in want:
                assert got is None, trial
            else:
                assert got == (int(fids[want["feature"]]), want["threshold"]), trial

    def test_exact_argmin_separates_float_ties(self):
        # 1/3 rounds to 6004799503160661 / 2**54, which is smaller exactly
        num = np.array([1, 6004799503160661], dtype=np.int64)
        den = np.array([3, 2 ** 54], dtype=np.int64)
        assert num[0] / den[0] == num[1] / den[1]
        assert _exact_argmin(num, den) == 1
        assert _exact_argmin(num[::-1].copy(), den[::-1].copy()) == 0
        # beyond 2**53 the int64 -> float64 conversion rounds, and the float
        # quotients can even reverse the exact order
        num = np.array([13305283907666136, 37637270992633564], dtype=np.int64)
        den = np.array([327, 925], dtype=np.int64)
        assert num[0] / den[0] < num[1] / den[1]
        assert 37637270992633564 * 327 < 13305283907666136 * 925
        assert _exact_argmin(num, den) == 1
        # an exact tie keeps the first index, i.e. the lower feature/threshold
        assert _exact_argmin(np.array([5, 2, 1]), np.array([6, 6, 3])) == 1

    def test_row_limit(self, monkeypatch):
        monkeypatch.setattr(hypotheses, "MAX_CART_ROWS", 8)
        X = np.arange(8.0)[:, None]
        with pytest.raises(InvalidInputError, match="fewer than 8 rows"):
            grow_tree(X, (X[:, 0] > 3).astype(int))


def _same_nodes(a, b) -> bool:
    """Equal trees: structure, counts, features and threshold bits."""
    if (a.n_samples, a.n_class1, a.feature) != (b.n_samples, b.n_class1, b.feature):
        return False
    if a.is_leaf:
        return True
    return (float.hex(a.threshold) == float.hex(b.threshold)
            and _same_nodes(a.left, b.left) and _same_nodes(a.right, b.right))


@st.composite
def _cart_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    # few distinct values: plenty of tied splits and constant columns
    X = np.array(draw(st.lists(st.integers(-2, 3), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d) / 2.0
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    params = dict(max_depth=draw(st.none() | st.integers(1, 6)),
                  min_leaf=draw(st.integers(1, 4)),
                  max_features=draw(st.none() | st.integers(1, d + 1)))
    return X, y, params, draw(st.integers(0, 2 ** 32 - 1))


class TestRowIndexCart:
    """grow_tree recursing on row indices against the earlier version that
    copied every node's rows (oracles.grow_tree_copying)."""

    @given(_cart_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_copying_cart(self, problem):
        X, y, params, seed = problem
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        tree = grow_tree(X, y, rng=rng, **params)
        oracle = grow_tree_copying(X, y, rng=rng_oracle, **params)
        assert _same_nodes(tree, oracle)
        assert rng.bit_generator.state == rng_oracle.bit_generator.state

    def test_forest_trees_match_copying_cart(self):
        # bootstrap rows repeat, as in a random forest
        rng = np.random.default_rng(8)
        X = np.round(rng.random((300, 30)), 2)
        y = (X[:, 3] + X[:, 17] + 0.5 * rng.random(300) > 1.2).astype(int)
        for seed in range(3):
            rows = np.random.default_rng(seed).integers(0, 300, size=300)
            rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            tree = grow_tree(X[rows], y[rows], 12, 1, rng=rng, max_features=5)
            oracle = grow_tree_copying(X[rows], y[rows], 12, 1, rng=rng_oracle, max_features=5)
            assert _same_nodes(tree, oracle)
            assert rng.bit_generator.state == rng_oracle.bit_generator.state

    def test_no_reference_to_x_outlives_grow_tree(self):
        rng = np.random.default_rng(3)
        X = np.round(rng.random((60, 8)), 1)
        y = (X[:, 0] + rng.random(60) > 1.0).astype(int)
        alive = weakref.ref(X)
        gc.disable()  # a reference cycle holding X would keep it alive
        try:
            tree = grow_tree(X, y, None, 1, rng=rng, max_features=3)
            del X
            assert alive() is None
        finally:
            gc.enable()
        assert not tree.is_leaf


class TestExtractPaths:
    def test_depth1_pure_tree_one_predicate(self):
        X = np.array([[0.0], [0.1], [0.8], [0.9]])
        y = np.array([0, 0, 1, 1])
        tree = grow_tree(X, y, 2, 1)
        preds = extract_paths(tree, min_support=2, min_purity=1.0)
        assert len(preds) == 1
        (cond,) = preds[0].conditions
        assert cond.feature == FEATURE_NAMES[0] and cond.op == ">"

    def test_min_purity_one_on_impure_tree(self):
        X = np.array([[0.0], [0.1], [0.8], [0.9]])
        y = np.array([0, 1, 1, 0])
        tree = grow_tree(X, y, 1, 1)
        assert extract_paths(tree, min_support=1, min_purity=1.0) == []

    def test_predicates_reproduce_leaf_counts(self):
        rng = np.random.default_rng(11)
        X = np.round(rng.random((60, 5)), 2)
        y = (X[:, 0] + 0.3 * rng.random(60) > 0.7).astype(int)
        rows = _rows_from_xy(X, y)
        tree = train_cart(rows, max_depth=3, min_leaf=2)
        Xm, ym = to_matrix(rows)
        for pred in extract_paths(tree, min_support=1, min_purity=0.0):
            member = np.array([pred.matches(Xm[i]) for i in range(len(rows))])
            assert np.array_equal(pred.matches(Xm), member)
            leaf = predict_leaf(tree, Xm[np.nonzero(member)[0][0]])
            assert member.sum() == leaf.n_samples
            assert ym[member].sum() == leaf.n_class1

    def test_same_feature_conditions_merged(self):
        n0 = __import__("pcrisk.hypotheses", fromlist=["TreeNode"]).TreeNode
        leaf_hot = n0(n_samples=6, n_class1=6)
        leaf_a = n0(n_samples=4, n_class1=0)
        leaf_b = n0(n_samples=10, n_class1=2)
        inner = n0(n_samples=10, n_class1=6, feature=115, threshold=9.5,
                   left=leaf_a, right=leaf_hot)
        root = n0(n_samples=20, n_class1=8, feature=115, threshold=5.5,
                  left=leaf_b, right=inner)
        preds = extract_paths(root, min_support=2, min_purity=0.9)
        assert len(preds) == 1
        assert preds[0].conditions == (Condition(FEATURE_NAMES[115], ">", 9.5),)

    def test_anti_monotone_in_purity(self):
        rng = np.random.default_rng(13)
        X = np.round(rng.random((50, 4)), 1)
        y = (rng.random(50) < 0.5).astype(int)
        tree = grow_tree(X, y, 3, 2)
        loose = {p.describe() for p in extract_paths(tree, 1, 0.5)}
        tight = {p.describe() for p in extract_paths(tree, 1, 0.8)}
        assert tight <= loose


class TestEvaluateHypothesis:
    def test_true_predicate_degenerate(self):
        rows = _rows_from_xy(np.ones((10, 2)), np.r_[np.ones(5), np.zeros(5)])
        pred = HypothesisPredicate((Condition(FEATURE_NAMES[0], ">", -1.0),))
        with pytest.raises(DegeneratePartitionError):
            evaluate_hypothesis(pred, rows)

    def test_unknown_feature_rejected(self):
        with pytest.raises(InvalidInputError):
            HypothesisPredicate((Condition("NOPE1", ">", 0.0),))

    def test_cameroon_benchmark_counts(self):
        bh = builtin_hypotheses()["Hyp3"]
        table, res = evaluate_hypothesis(bh.predicate, golden_dataset(bh))
        assert table == bh.table
        assert res.odds_ratio == pytest.approx(693.0, abs=0.01)
        assert res.p == pytest.approx(1.36e-13, rel=0.05)

    def test_drc_hyp9_counts(self):
        bh = builtin_hypotheses()["Hyp9"]
        table, res = evaluate_hypothesis(bh.predicate, golden_dataset(bh))
        assert (table.a, table.n_in) == (5, 6)
        assert res.odds_ratio == pytest.approx(95.0, abs=0.01)


class TestBuiltinHypotheses:
    def test_map_size_eight(self):
        assert len(builtin_hypotheses()) == 8
        assert set(builtin_hypotheses()) == {f"Hyp{i}" for i in range(3, 11)}

    def test_hyp7_conditions(self):
        conds = {(c.feature, c.op, c.threshold)
                 for c in builtin_hypotheses()["Hyp7"].predicate.conditions}
        assert conds == {("T2M_MIN8", ">", 0.376), ("SSW8", ">", 0.054),
                         ("NBRC1", ">", 15.5)}

    def test_hyp8_extends_hyp7(self):
        conds8 = {(c.feature, c.op, c.threshold)
                  for c in builtin_hypotheses()["Hyp8"].predicate.conditions}
        assert ("SSW10", ">", 0.038) in conds8
        assert ("NBRC1", "<=", 15.5) in conds8

    def test_all_golden_datasets_reproduce_tables(self):
        for name, bh in builtin_hypotheses().items():
            table, res = evaluate_hypothesis(bh.predicate, golden_dataset(bh))
            assert table == bh.table, name
            assert res.odds_ratio == pytest.approx(bh.odds_ratio, abs=0.01), name

    def test_golden_rows_keep_histogram_invariant(self):
        for bh in builtin_hypotheses().values():
            sums = golden_dataset(bh).X[:, :110].reshape(-1, 11, 10).sum(axis=2)
            assert np.abs(sums - 1.0).max() <= 1e-9


class TestTreeExport:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        X = np.round(rng.random((40, 4)), 2)
        y = (X[:, 1] > 0.5).astype(int)
        tree = grow_tree(X, y, 3, 1)
        p = tmp_path / "tree.json"
        save_tree(tree, p)
        from pcrisk.hypotheses import tree_to_dict

        assert tree_to_dict(load_tree(p)) == tree_to_dict(tree)

    def test_dot_export_mentions_features(self):
        X = np.array([[0.0], [1.0], [0.2], [0.9]])
        y = np.array([0, 1, 0, 1])
        dot = tree_to_dot(grow_tree(X, y, 1, 1))
        assert dot.startswith("digraph") and "LAI1" in dot
