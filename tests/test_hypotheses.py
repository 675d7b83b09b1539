import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    TreeNode,
    exact_argmin,
    exhaustive_cart,
    grow_tree_copying,
    grow_trees_copying,
    predict_leaf,
    same_tree,
)
from pcrisk.errors import DegeneratePartitionError, InsufficientDataError, InvalidInputError
from pcrisk.features import FEATURE_NAMES, Dataset, to_matrix
from pcrisk import hypotheses
from pcrisk.hypotheses import (
    MAX_TREE_DEPTH,
    Condition,
    HypothesisPredicate,
    builtin_hypotheses,
    evaluate_hypothesis,
    extract_paths,
    golden_dataset,
    grow_tree,
    load_tree,
    save_tree,
    train_cart,
    trees_to_dicts,
    tree_to_dot,
    _best_splits,
    encode_columns,
    grow_forest,
    midpoint,
)


def _rows_from_xy(X, y):
    """A dataset whose first features are X's columns, the rest zero."""
    n = len(y)
    Xf = np.zeros((n, 120))
    Xf[:, :X.shape[1]] = X
    cells = np.column_stack([np.zeros(n, dtype=int), np.arange(n)])
    return Dataset(cells=cells, X=Xf, y=np.asarray(y, dtype=int))


def _grow_one(X, y, max_depth=4, min_leaf=1, rng=None, max_features=None):
    """grow_tree with max_features columns sampled per split: grow_forest
    of one root holding every row."""
    return grow_forest(encode_columns(X), y, [np.arange(len(y))], max_depth, min_leaf, rng,
                       max_features)[0]


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

        assert trees_to_dicts([t1]) == trees_to_dicts([t2])

    def test_bad_params(self):
        X = np.arange(8.0)[:, None]
        y = (X[:, 0] > 3).astype(int)
        # a fractional max_depth once counted 2.5, 1.5, 0.5, -0.5, ... and
        # grew to full depth
        for max_depth, min_leaf in [(0, 1), (-1, 1), (4, 0), (2.5, 1), (np.float64(3.0), 1),
                                    (True, 1), ("4", 1), (4, 1.5), (4, True), (4, np.bool_(1))]:
            with pytest.raises(InvalidInputError):
                grow_tree(X, y, max_depth, min_leaf)
            with pytest.raises(InvalidInputError):
                train_cart(_rows_from_xy(X, y), max_depth, min_leaf)
        # a sample of no features once grew a single leaf
        for max_features in (0, 2.5, True):
            with pytest.raises(InvalidInputError, match="max_features"):
                _grow_one(X, y, rng=np.random.default_rng(0), max_features=max_features)
        # numpy integers are integers
        tree = _grow_one(X, y, np.int64(2), np.int32(1), rng=np.random.default_rng(0),
                         max_features=np.int64(1))
        assert (tree.feature, tree.threshold) == (0, 3.5)
        # sampling columns without a generator once raised AttributeError;
        # taking every column needs none
        X2 = np.column_stack([X, -X])
        with pytest.raises(InvalidInputError, match="rng"):
            _grow_one(X2, y, max_features=1)
        assert _same_nodes(_grow_one(X2, y, max_features=2), grow_tree(X2, y))

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
            got = _best_splits(encode_columns(X), y == 1, np.arange(n), np.array([n]),
                               np.array([int(y.sum())]), min_leaf, fids[None])
            want = exhaustive_cart(X[:, fids], y, max_depth=1, min_leaf=min_leaf)
            if "feature" not in want:
                assert len(got[0]) == 0, trial
            else:
                assert (got[1][0], got[3][0]) == (int(fids[want["feature"]]),
                                                  want["threshold"]), trial

    def test_exact_argmin_separates_float_ties(self):
        def argmin(num, den):  # _exact_argmins over one group
            return int(hypotheses._exact_argmins(np.asarray(num), np.asarray(den),
                                                 np.zeros(len(num), dtype=np.int64))[0])

        # 1/3 rounds to 6004799503160661 / 2**54, which is smaller exactly
        num = np.array([1, 6004799503160661], dtype=np.int64)
        den = np.array([3, 2 ** 54], dtype=np.int64)
        assert num[0] / den[0] == num[1] / den[1]
        assert argmin(num, den) == 1
        assert argmin(num[::-1].copy(), den[::-1].copy()) == 0
        # beyond 2**53 the int64 -> float64 conversion rounds, and the float
        # quotients can even reverse the exact order
        num = np.array([13305283907666136, 37637270992633564], dtype=np.int64)
        den = np.array([327, 925], dtype=np.int64)
        assert num[0] / den[0] < num[1] / den[1]
        assert 37637270992633564 * 327 < 13305283907666136 * 925
        assert argmin(num, den) == 1
        # an exact tie keeps the first index, i.e. the lower feature/threshold
        assert argmin(np.array([5, 2, 1]), np.array([6, 6, 3])) == 1

    @pytest.mark.parametrize("num, den, group, want", [
        # a float tie broken in int64, an exact tie and a run of one candidate
        ([2 ** 51 + 1, 2 ** 51, 2, 1, 3, 7], [3, 3, 6, 3, 9, 2], [0, 0, 1, 1, 1, 5], [1, 2, 5]),
        # products beyond int64, compared in Python ints, and an exact tie
        ([13305283907666136, 37637270992633564, 5, 2, 1], [327, 925, 6, 6, 3],
         [0, 0, 1, 1, 1], [1, 3]),
    ])
    def test_exact_argmins_per_run(self, num, den, group, want):
        # per run of a node's candidates, its first exact minimum
        num, den, group = (np.array(v, dtype=np.int64) for v in (num, den, group))
        assert num[0] / den[0] <= num[1] / den[1] * (1.0 + 2.0 ** -50)
        got = hypotheses._exact_argmins(num, den, group)
        assert got.tolist() == want
        for i in want:
            run = np.flatnonzero(group == group[i])
            assert run[exact_argmin(num[run], den[run])] == i
        assert len(hypotheses._exact_argmins(num[:0], den[:0], group[:0])) == 0

    def test_row_limit(self, monkeypatch):
        monkeypatch.setattr(hypotheses, "MAX_CART_ROWS", 8)
        X = np.arange(8.0)[:, None]
        with pytest.raises(InvalidInputError, match="fewer than 8 rows"):
            grow_tree(X, (X[:, 0] > 3).astype(int))

    def test_empty_dataset_is_insufficient_data(self):
        # as in ml.train, so learn-tree exits 4 like riskmap
        with pytest.raises(InsufficientDataError, match="empty dataset"):
            train_cart(_rows_from_xy(np.zeros((0, 3)), []))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_rejected_naming_column(self, bad):
        # an infinite value once became the threshold and left the right
        # child empty; a NaN has no place among a column's distinct values
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, bad], [3.0, 1.0]])
        with pytest.raises(InvalidInputError, match="column 1 is not"):
            grow_tree(X, np.array([0, 0, 1, 0]))
        with pytest.raises(InvalidInputError, match="column 1 is not"):
            train_cart(_rows_from_xy(X, [0, 0, 1, 0]))


A = float(np.nextafter(1.0, 2.0))
B = float(np.nextafter(A, 2.0))
DBL_MAX = float(np.finfo(float).max)


class TestThresholds:
    """A split threshold t between consecutive distinct values a < b must
    satisfy a <= t < b, or the split realises another partition than the
    one scored."""

    @pytest.mark.parametrize("a, b", [
        (A, B),              # (a + b) / 2 rounds up to b
        (1e308, 1.5e308),    # a + b overflows
        (-1.5e308, -1e308),
        (-5e-324, 0.0),      # (a + b) / 2 rounds to -0.0, and 0.0 <= -0.0
        (5e-324, 1e-323),    # a subnormal midpoint that rounds up to b
    ])
    def test_depth1_split_separates_the_classes(self, a, b):
        X = np.array([[a], [a], [b], [b]])
        tree = grow_tree(X, np.array([0, 0, 1, 1]), max_depth=1)
        assert a <= tree.threshold < b
        assert (tree.left.n_samples, tree.left.n_class1) == (2, 0)
        assert (tree.right.n_samples, tree.right.n_class1) == (2, 2)

    @pytest.mark.parametrize("a, b", [(0.1, 0.3), (-2.0, 7.5), (0.0, 5e-324), (-1.0, 1.0),
                                      (1e300, 1e301), (3.0, 3.0000000000000013)])
    def test_midpoint_is_the_plain_one_where_that_is_right(self, a, b):
        mid = (a + b) / 2.0
        assert a <= mid < b
        assert float(midpoint(np.array([a]), np.array([b]))[0]).hex() == mid.hex()

    @pytest.mark.parametrize("a, b", [
        (A, B),
        (1e308, 1.5e308), (-1.5e308, -1e308),
        (float(np.nextafter(DBL_MAX, 0.0)), DBL_MAX),
        (-DBL_MAX, float(np.nextafter(-DBL_MAX, 0.0))),
        (-5e-324, 0.0), (-5e-324, -0.0), (-0.0, 5e-324), (-1.0, -0.0), (0.0, 1.0),
        (0.1, 0.3),
    ])
    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_midpoint_on_scalars_is_the_array_one(self, a, b, scalar):
        want = float(midpoint(np.array([a]), np.array([b]))[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow on np.float64 would warn
            t = float(midpoint(scalar(a), scalar(b)))
        assert t.hex() == want.hex()
        assert a <= t < b

    def test_midpoint_on_arrays(self):
        a = np.array([0.1, A, 1e308, -5e-324])
        b = np.array([0.3, B, 1.5e308, 0.0])
        t = midpoint(a, b)
        assert ((a <= t) & (t < b)).all()
        assert t[0] == (0.1 + 0.3) / 2.0 and t[1] == A and np.isfinite(t[2])


def _same_nodes(a, b) -> bool:
    """Equal trees: structure, counts, features and threshold bits."""
    if (a.n_samples, a.n_class1, a.feature) != (b.n_samples, b.n_class1, b.feature):
        return False
    if a.is_leaf:
        return True
    return (float.hex(a.threshold) == float.hex(b.threshold)
            and _same_nodes(a.left, b.left) and _same_nodes(a.right, b.right))


#: column kinds: few distinct values (plenty of tied splits and constant
#: columns), many distinct values whose midpoints round, and signed zeros
_COLUMNS = {
    "few": st.integers(-2, 3).map(lambda k: k / 2.0),
    "many": st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 7.0),
    "zeros": st.sampled_from([-0.0, 0.0, -0.5, 0.5, 1.0]),
}


@st.composite
def _cart_problems(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=d, max_size=d))
    X = np.array([draw(st.lists(_COLUMNS[kind], min_size=n, max_size=n)) for kind in kinds],
                 dtype=float).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    params = dict(max_depth=draw(st.none() | st.integers(1, 6)),
                  min_leaf=draw(st.integers(1, 4)),
                  max_features=draw(st.none() | st.integers(1, d + 1)))
    # a bootstrap sample: row indices that may repeat, as a forest draws them
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return X, y, params, rows, draw(st.integers(0, 2 ** 32 - 1))


class TestRowIndexCart:
    """grow_tree counting each node's rows per distinct value against the
    earlier version that copied every node's rows and sorted every scored
    column (oracles.grow_tree_copying)."""

    @given(_cart_problems())
    @settings(max_examples=400, deadline=None)
    def test_matches_copying_cart(self, problem):
        X, y, params, rows, seed = problem
        rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        if rows is None:
            tree = _grow_one(X, y, rng=rng, **params)
            oracle = grow_tree_copying(X, y, rng=rng_oracle, **params)
        else:
            rows = np.array(rows, dtype=np.int64)
            tree = grow_forest(encode_columns(X), y, [rows], rng=rng, **params)[0]
            oracle = grow_tree_copying(X[rows], y[rows], rng=rng_oracle, **params)
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
            tree = _grow_one(X[rows], y[rows], 12, 1, rng=rng, max_features=5)
            oracle = grow_tree_copying(X[rows], y[rows], 12, 1, rng=rng_oracle, max_features=5)
            assert _same_nodes(tree, oracle)
            assert rng.bit_generator.state == rng_oracle.bit_generator.state

    def test_continuous_forest_levels_span_batches(self, monkeypatch):
        # 1,600 distinct values per column: a level's bins exceed what one
        # batch may count, so its nodes split in several batches, and each
        # tree still equals the copying CART on its bootstrap rows
        calls = []
        best_splits = hypotheses._best_splits

        def recording(codes, class1, rows, n, *args):
            calls.append(len(n))
            return best_splits(codes, class1, rows, n, *args)

        monkeypatch.setattr(hypotheses, "_best_splits", recording)
        rng = np.random.default_rng(11)
        X = rng.random((1600, 120))
        y = ((X[:, 0] + X[:, 7] + 0.3 * rng.random(1600)) > 1.1).astype(int)
        rng, rng_oracle = np.random.default_rng(4), np.random.default_rng(4)
        roots = [rng.integers(0, 1600, size=1600) for _ in range(4)]
        idx = [rng_oracle.integers(0, 1600, size=1600) for _ in range(4)]
        trees = grow_forest(encode_columns(X), y, roots, 12, 1, rng=rng, max_features=10)
        oracle = grow_trees_copying([(X[i], y[i]) for i in idx], 12, 1, rng=rng_oracle,
                                    max_features=10)
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        for tree, want in zip(trees, oracle, strict=True):
            assert _same_nodes(tree, want)
        # 12 levels at most, so at least one of them took several batches
        assert len(calls) > 12 and max(calls) > 1

    @pytest.mark.parametrize("max_depth", [1, 2, 3, None])
    def test_unsampled_forest_trees_equal_exhaustive_cart(self, max_depth):
        rng = np.random.default_rng(21)
        X = np.round(rng.random((24, 3)), 1)
        y = (X[:, 0] + 0.5 * rng.random(24) > 0.8).astype(int)
        roots = [np.arange(24)] + [rng.integers(0, 24, size=24) for _ in range(5)]
        for min_leaf in (1, 2):
            trees = grow_forest(encode_columns(X), y, roots, max_depth, min_leaf)
            for rows, tree in zip(roots, trees, strict=True):
                assert same_tree(tree, exhaustive_cart(X[rows], y[rows], max_depth, min_leaf))

    def test_no_reference_to_x_outlives_grow_tree(self):
        rng = np.random.default_rng(3)
        X = np.round(rng.random((60, 8)), 1)
        y = (X[:, 0] + rng.random(60) > 1.0).astype(int)
        alive = weakref.ref(X)
        gc.disable()  # a reference cycle holding X would keep it alive
        try:
            tree = _grow_one(X, y, None, 1, rng=rng, max_features=3)
            del X
            assert alive() is None
        finally:
            gc.enable()
        assert not tree.is_leaf


class TestDemoTable25km:
    """The bundled demo config at 25 km: 8,000 cells by 120 features."""

    def test_tree_matches_copying_cart(self, demo_table_25km):
        tree = train_cart(demo_table_25km, max_depth=4, min_leaf=1)
        oracle = grow_tree_copying(demo_table_25km.X, demo_table_25km.y, 4, 1)
        assert not tree.is_leaf and _same_nodes(tree, oracle)

    def test_train_cart_peak_memory(self, demo_table_25km):
        # sorting every scored column of every node peaked at 38.5 MB here;
        # the (8000, 120) int32 ranks and the root's int64 bins take 11.5 MB
        tracemalloc.start()
        try:
            train_cart(demo_table_25km, max_depth=4, min_leaf=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


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
        n0 = TreeNode
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

        assert trees_to_dicts([load_tree(p)]) == trees_to_dicts([tree])

    def test_dot_export_mentions_features(self):
        X = np.array([[0.0], [1.0], [0.2], [0.9]])
        y = np.array([0, 1, 0, 1])
        dot = tree_to_dot(grow_tree(X, y, 1, 1))
        assert dot.startswith("digraph") and "LAI1" in dot


def _depth(node) -> int:
    """The number of edges on the tree's longest root-to-leaf path."""
    depth, level = -1, [node]
    while level:
        depth += 1
        level = [kid for n in level if not n.is_leaf for kid in (n.left, n.right)]
    return depth


def _staircase(n: int):
    """One column rising over n rows, every third row class 1: each split
    peels off a row or two, so a CART grows about 2n/3 levels deep."""
    return (np.arange(n) / n)[:, None], (np.arange(n) % 3 == 0).astype(int)


class TestTreeDepthLimit:
    def test_a_tree_as_deep_as_the_limit_saves_reloads_and_walks(self, tmp_path):
        tree = grow_tree(*_staircase(900), MAX_TREE_DEPTH, 1)
        assert _depth(tree) == MAX_TREE_DEPTH
        save_tree(tree, tmp_path / "tree.json")
        back = load_tree(tmp_path / "tree.json")
        assert trees_to_dicts([back]) == trees_to_dicts([tree])
        assert tree_to_dot(back).count("->") == 2 * MAX_TREE_DEPTH
        assert len(extract_paths(back, 1, 0.0)) == MAX_TREE_DEPTH + 1

    def test_growing_past_the_limit_is_refused(self):
        with pytest.raises(InvalidInputError, match="max_depth"):
            grow_tree(*_staircase(900), None, 1)
