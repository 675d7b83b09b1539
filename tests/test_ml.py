import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import rankdata

from oracles import (
    batch_gd_every_trial,
    encode_ranks,
    exhaustive_stump,
    grow_forest_per_node,
    grow_trees_copying,
    mlp_loss_grad_full,
    predict_leaf,
    run_suite_sequential,
    scalar_best_stump,
    squared_hinge_loss_grad,
    squared_hinge_optimum,
)
from pcrisk.hypotheses import encode_columns, grow_forest
from test_hypotheses import _same_nodes
from pcrisk import cli, ml
from pcrisk.errors import (
    InsufficientDataError,
    InvalidInputError,
    NonConvergenceError,
    StratificationError,
)
from pcrisk.features import Dataset
from pcrisk.ml import (
    CLASSIFIER_KINDS,
    ClassifierSpec,
    best_row,
    default_suite,
    load_model,
    logistic_loss_grad,
    metrics,
    mlp_loss_grad,
    predict_proba,
    run_suite,
    save_model,
    split,
    split_rows,
    train,
    write_suite_csv,
    VALIDATION_FRACTION,
    _flatten_params,
    _sample_weights,
    _StumpSearch,
    _stump_predict,
    init_mlp_params,
)


def _rows(X, y):
    """A dataset whose first features are X's columns, the rest zero."""
    n = len(y)
    Xf = np.zeros((n, 120))
    Xf[:, :X.shape[1]] = X
    cells = np.column_stack([np.arange(n) // 100, np.arange(n) % 100])
    return Dataset(cells=cells, X=Xf, y=np.asarray(y, dtype=int))


def _standardised(X):
    """X z-scored by its own column means and stds, a constant column by 1:
    what a gradient model's fit trains on."""
    scale = X.std(axis=0)
    scale[np.ptp(X, axis=0) == 0] = 1.0
    return (X - X.mean(axis=0)) / scale


def _blobs(n=80, seed=0, gap=3.0, d=4):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(int)
    X = rng.normal(0, 1, size=(n, d)) * 0.08 + 0.5
    X[:, 0] += gap * 0.1 * (y - 0.5)
    return np.clip(X, 0.0, 1.0), y


class TestSplit:
    def test_stratification_counts(self):
        X, _ = _blobs(100)
        y = np.r_[np.ones(10), np.zeros(90)].astype(int)
        tr, te = split(_rows(X, y), 0.2, seed=3)
        assert te.y.sum() == 2 and len(te) == 20
        assert tr.y.sum() == 8

    def test_same_seed_identical(self):
        X, y = _blobs(60)
        r = _rows(X, y)
        tr1, te1 = split(r, 0.25, seed=9)
        tr2, te2 = split(r, 0.25, seed=9)
        assert np.array_equal(te1.cells, te2.cells)

    def test_half_split_of_four(self):
        X = np.random.default_rng(0).random((4, 2))
        y = np.array([0, 0, 1, 1])
        tr, te = split(_rows(X, y), 0.5, seed=1)
        assert te.y.sum() == 1 and tr.y.sum() == 1

    def test_class_too_small(self):
        X = np.random.default_rng(0).random((20, 2))
        y = np.r_[np.ones(1), np.zeros(19)].astype(int)
        with pytest.raises(StratificationError):
            split(_rows(X, y), 0.2, seed=0)


class TestMetrics:
    def test_cameroon_best_row_confusion(self):
        # TP=5, FP=1, FN=0 and a block of true negatives
        scores = np.r_[np.full(5, 0.9), [0.8], np.full(10, 0.1)]
        labels = np.r_[np.ones(5), [0], np.zeros(10)].astype(int)
        m = metrics(scores, labels)
        assert round(m.precision, 2) == 0.83
        assert round(m.recall, 2) == 1.0
        assert round(m.f1, 2) == 0.91

    def test_perfect_ordering_auc_one(self):
        m = metrics([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert m.auc == 1.0

    def test_all_equal_scores_auc_half(self):
        m = metrics([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert m.auc == 0.5

    def test_single_class_auc_none(self):
        m = metrics([0.9, 0.8], [1, 1])
        assert m.auc is None and m.recall == 1.0

    def test_nan_score_gives_nan_auc(self):
        # scipy.stats.rankdata propagates a NaN to every rank
        m = metrics([0.9, math.nan, 0.2, 0.1], [1, 1, 0, 0])
        assert math.isnan(m.auc)

    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0, -1.0, 5e-324, math.inf,
                                     -math.inf, 0.1 + 0.2, 0.3]), min_size=1, max_size=60)
           | st.lists(st.floats(allow_nan=False), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_average_ranks_equal_rankdata(self, values):
        a = np.array(values)
        assert ml._average_ranks(a).tobytes() == rankdata(a).tobytes()

    def test_average_ranks_nan_equal_rankdata(self):
        a = np.array([0.5, math.nan, 0.5, -0.0, 0.0])
        assert ml._average_ranks(a).tobytes() == rankdata(a).tobytes()

    @given(st.lists(st.tuples(st.integers(1, 99), st.integers(0, 1)),
                    min_size=4, max_size=40).filter(
        lambda v: len({lab for _, lab in v}) == 2))
    @settings(max_examples=60)
    def test_auc_invariant_under_monotone_transform(self, pairs):
        # scores on a 0.01 grid: the transform cannot collapse distinct
        # values into spurious ties
        scores = np.array([s / 100.0 for s, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        a1 = metrics(scores, labels).auc
        a2 = metrics(np.exp(3.0 * scores), labels).auc
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_f1_identity_exhaustive(self):
        # every confusion pattern with up to 20 samples
        for tp in range(0, 21):
            for fp in range(0, 21 - tp):
                for fn in range(0, 21 - tp - fp):
                    scores = np.r_[np.ones(tp), np.ones(fp), np.zeros(fn)]
                    labels = np.r_[np.ones(tp), np.zeros(fp), np.ones(fn)].astype(int)
                    if len(scores) == 0:
                        continue
                    m = metrics(scores, labels)
                    p = tp / (tp + fp) if tp + fp else 0.0
                    r = tp / (tp + fn) if tp + fn else 0.0
                    want = 2 * p * r / (p + r) if p + r else 0.0
                    assert m.f1 == pytest.approx(want, abs=1e-12)


class TestModels:
    def test_forest_fit_peak_memory(self):
        # trees grow from row indices, so a node gathers only its sampled
        # columns; copying each node's rows into its children peaked at
        # about 13 MB here
        rng = np.random.default_rng(0)
        X = rng.random((1600, 120))
        y = ((X[:, 0] + X[:, 7] + 0.3 * rng.random(1600)) > 1.1).astype(int)
        tracemalloc.start()
        try:
            model = ml.ForestModel(ClassifierSpec("RandomForest").hyperparams, 0).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.trees) == 30 and not model.trees[0].is_leaf
        assert peak < 6e6

    def test_adaboost_fit_peak_memory(self):
        # the stump search keeps the table's bin ids and bins each round's
        # signed weights: about 16 MB here, against 15.6 MB for the argsort
        # with two (features, rows) cumulative-weight buffers it replaced
        rng = np.random.default_rng(0)
        X = rng.random((1600, 120))
        y = ((X[:, 0] + X[:, 7] + 0.3 * rng.random(1600)) > 1.1).astype(int)
        tracemalloc.start()
        try:
            model = ml.AdaBoostModel(ClassifierSpec("AdaBoost").hyperparams, 0).fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.stumps) == 50
        assert peak < 20e6

    def test_forest_trees_grow_from_bootstrap_indices(self):
        # one encoding of X serves every tree; each tree must equal the CART
        # grown on a copy of its bootstrap rows, with the same rng draws:
        # every bootstrap first, then the level-order feature draws
        rng = np.random.default_rng(8)
        X = np.round(rng.random((300, 30)), 2)
        y = (X[:, 3] + X[:, 17] + 0.5 * rng.random(300) > 1.2).astype(int)
        hp = ClassifierSpec("RandomForest", {"n_estimators": 6}).hyperparams
        model = ml.ForestModel(hp, 5).fit(X, y)
        rng, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
        roots = [rng.integers(0, 300, size=300) for _ in range(6)]
        idx = [rng_oracle.integers(0, 300, size=300) for _ in range(6)]
        trees = grow_forest(encode_columns(X), y, roots, hp["max_depth"], hp["min_leaf"],
                            rng=rng, max_features=5)
        oracle = grow_trees_copying([(X[i], y[i]) for i in idx], hp["max_depth"],
                                    hp["min_leaf"], rng=rng_oracle, max_features=5)
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        for tree, model_tree, want in zip(trees, model.trees, oracle, strict=True):
            assert _same_nodes(tree, want) and _same_nodes(model_tree, want)

    @pytest.mark.parametrize("kind, n", [("DecisionTree", 200), ("RandomForest", 200),
                                         ("RandomForest", 40)],
                             ids=["DecisionTree", "RandomForest", "RandomForest_leaf_trees"])
    def test_tree_scores_equal_per_row_walks(self, kind, n):
        X, y = _blobs(n, seed=6, d=6)
        X = np.round(X, 2)  # rows on the thresholds' either side and ties
        if n == 40:  # one positive: the bootstraps that miss it grow single leaves
            y = (np.arange(n) == 3).astype(int)
        model = train(ClassifierSpec(kind, {"max_depth": 5}, seed=2), _rows(X, y))
        trees = [model.tree] if kind == "DecisionTree" else model.trees
        if n == 40:
            assert 0 < sum(t.is_leaf for t in trees) < len(trees)
        probe = np.vstack([_rows(X, y).X, np.random.default_rng(1).random((50, 120))])
        probe[-1, :] = np.nan  # a NaN fails every comparison and goes right
        walked = sum(np.array([predict_leaf(t, x).purity for x in probe]) for t in trees)
        got = model.predict_proba(probe)
        assert got.tobytes() == (walked / len(trees)).tobytes()

    @pytest.mark.parametrize("kind", ["DecisionTree", "RandomForest"])
    def test_tree_scores_of_no_rows(self, kind):
        X, y = _blobs(80, seed=6, d=6)
        model = train(ClassifierSpec(kind, seed=2), _rows(X, y))
        got = model.predict_proba(np.zeros((0, 120)))
        assert got.dtype == np.float64 and got.shape == (0,)

    @pytest.mark.parametrize("a, b", [(float(np.nextafter(1.0, 2.0)),
                                       float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))),
                                      (1e308, 1.5e308), (-5e-324, 0.0)])
    def test_stump_threshold_lies_between_the_values(self, a, b):
        X = np.array([[a], [a], [b], [b]])
        y = np.array([0, 0, 1, 1])
        f, thr, pol = _StumpSearch(X, y).best(np.full(4, 0.25))
        assert (f, pol) == (0, 1) and a <= thr < b
        assert list(_stump_predict(X, f, thr, pol)) == [0, 0, 1, 1]

    @pytest.mark.parametrize("km", [100.0, 75.0, 50.0])
    def test_demo_forests_match_per_node_grower(self, km):
        # the demo's train-suite forests, tree for tree and draw for draw
        train_ds, _ = split(_demo_table(km), 0.2, 7)
        hp = ClassifierSpec("RandomForest").hyperparams
        _assert_same_forests(train_ds.X, train_ds.y, hp, 7)

    def test_deep_min_leaf_2_forest_matches_per_node_grower(self, demo_100km):
        train_ds, _ = split(demo_100km, 0.5, 3)
        hp = ClassifierSpec("RandomForest", {"n_estimators": 10, "max_depth": None,
                                             "min_leaf": 2}).hyperparams
        _assert_same_forests(train_ds.X, train_ds.y, hp, 3)

    def test_forest_rejects_non_finite_input(self):
        X, y = _blobs(40)
        X[7, 2] = np.inf
        with pytest.raises(InvalidInputError, match="column 2 is not"):
            ml.ForestModel(ClassifierSpec("RandomForest").hyperparams, 0).fit(X, y)

    def test_logreg_separable_training_accuracy(self):
        X, y = _blobs(60, gap=8.0)
        rows = _rows(X, y)
        model = train(ClassifierSpec("LogisticRegression", seed=0), rows)
        pred = predict_proba(model, rows) >= 0.5
        assert (pred == y.astype(bool)).mean() == 1.0

    def test_gnb_matches_closed_form_posterior(self):
        X, y = _blobs(100, seed=4)
        rows = _rows(X, y)
        model = train(ClassifierSpec("GaussianNB", {"var_smoothing": 0.0}, seed=0), rows)
        # analytic Bayes rule from the fitted parameters on a 2-point grid,
        # accumulated feature-by-feature in log space
        for xval in (0.3, 0.7):
            x = np.zeros(120)
            x[:X.shape[1]] = xval
            logdens = []
            for cls in (0, 1):
                ld = float(model.log_prior[cls])
                for j in range(120):
                    var = float(model.var[cls][j])
                    mu = float(model.theta[cls][j])
                    ld += -0.5 * math.log(2 * math.pi * var) - 0.5 * (x[j] - mu) ** 2 / var
                logdens.append(ld)
            want = 1.0 / (1.0 + math.exp(logdens[0] - logdens[1]))
            got = model.predict_proba(x[None, :])[0]
            assert got == pytest.approx(want, rel=1e-9)

    def test_adaboost_round1_matches_exhaustive_stump(self):
        rng = np.random.default_rng(17)
        for trial in range(6):
            n = int(rng.integers(10, 25))
            X = np.round(rng.random((n, 3)), 1)
            y = (rng.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            rows = _rows(X, y)
            model = train(ClassifierSpec("AdaBoost", {"n_rounds": 1}, seed=0), rows)
            assert model.stumps[0] == exhaustive_stump(X, y), f"trial {trial}"

    def test_forest_single_tree_equals_cart(self):
        X, y = _blobs(50, seed=2)
        rows = _rows(X, y)
        forest = train(ClassifierSpec("RandomForest",
                                      {"n_estimators": 1, "bootstrap": False,
                                       "max_features": None, "max_depth": 4},
                                      seed=5), rows)
        tree = train(ClassifierSpec("DecisionTree", {"max_depth": 4}, seed=5), rows)
        assert np.array_equal(predict_proba(forest, rows), predict_proba(tree, rows))

    def test_scores_bounded_for_all_kinds(self, small_country):
        _, _, _, _, rows = small_country
        for kind in CLASSIFIER_KINDS:
            model = train(ClassifierSpec(kind, seed=1), rows)
            scores = predict_proba(model, rows)
            assert scores.min() >= 0.0 and scores.max() <= 1.0, kind

    def test_duplicate_rows_identical_scores(self, small_country):
        _, _, _, _, rows = small_country
        model = train(ClassifierSpec("MLP", seed=0), rows)
        doubled = rows.take(np.tile(np.arange(len(rows)), 2))
        s = predict_proba(model, doubled)
        assert np.array_equal(s[:len(rows)], s[len(rows):])

    def test_depth1_tree_step_scores(self):
        X = np.linspace(0, 1, 12)[:, None]
        y = (X[:, 0] > 0.5).astype(int)
        model = train(ClassifierSpec("DecisionTree", {"max_depth": 1}, seed=0),
                      _rows(X, y))
        scores = predict_proba(model, _rows(X, y))
        assert set(np.round(scores, 9)) == {0.0, 1.0}

    def test_monotone_training_loss(self, small_country):
        _, _, _, _, rows = small_country
        for kind in ("LogisticRegression", "MLP", "DeepNN"):
            model = train(ClassifierSpec(kind, seed=3), rows)
            hist = np.array(model.loss_history)
            assert (np.diff(hist) <= 1e-12).all(), kind

    @pytest.mark.parametrize("kind", CLASSIFIER_KINDS)
    def test_feature_count_checked(self, kind):
        X, y = _blobs(60, seed=1)
        model = train(ClassifierSpec(kind, seed=0), _rows(X, y))
        for width in (5, 240):
            with pytest.raises(InvalidInputError, match=f"expects 120 features, got {width}"):
                model.predict_proba(np.full((3, width), 0.5))

    @pytest.mark.parametrize("kind", ["DecisionTree", "RandomForest"])
    @pytest.mark.parametrize("hp", [{"max_depth": -1}, {"max_depth": 0}, {"min_leaf": 0}],
                             ids=["max_depth_-1", "max_depth_0", "min_leaf_0"])
    def test_bad_tree_hyperparams_rejected(self, kind, hp):
        X, y = _blobs(40)
        with pytest.raises(InvalidInputError):
            train(ClassifierSpec(kind, hp, seed=0), _rows(X, y))

    @pytest.mark.parametrize("kind, hp", [
        ("RandomForest", {"n_estimators": 0}),    # averaged 0 trees into NaN scores
        ("RandomForest", {"max_features": 0}),    # grew 30 single-leaf trees
        ("RandomForest", {"max_features": -1}),   # a raw "negative dimensions" ValueError
        ("RandomForest", {"max_features": 2.5}),  # was truncated to 2
        ("RandomForest", {"max_features": True}),
        ("AdaBoost", {"n_rounds": 0}),            # a NonConvergenceError on no stump
        ("RandomForest", {"max_depth": 2.5}),     # never reached depth 0: grew full trees
        ("DecisionTree", {"min_leaf": 1.5}),
    ], ids=["n_estimators_0", "max_features_0", "max_features_-1", "max_features_2.5",
            "max_features_true", "n_rounds_0", "max_depth_2.5", "min_leaf_1.5"])
    def test_bad_integer_hyperparams_rejected(self, kind, hp):
        (key, _), = hp.items()
        with pytest.raises(InvalidInputError, match=f"{kind} {key} must be a positive integer"):
            ClassifierSpec(kind, hp).hyperparams
        X, y = _blobs(40)
        with pytest.raises(InvalidInputError, match=key):
            train(ClassifierSpec(kind, hp, seed=0), _rows(X, y))

    @pytest.mark.parametrize("max_features", [None, "sqrt", 1, 200])
    def test_forest_max_features_accepted(self, max_features):
        hp = ClassifierSpec("RandomForest", {"max_features": max_features}).hyperparams
        assert hp["max_features"] == max_features

    def test_unknown_kind_and_hyperparam(self):
        with pytest.raises(InvalidInputError):
            ClassifierSpec("SVC").hyperparams
        with pytest.raises(InvalidInputError):
            ClassifierSpec("MLP", {"layers": 3}).hyperparams

    @pytest.mark.parametrize("kind, hp, key", [
        ("SVC", {}, "SVC"),
        ("MLP", {"layers": 3}, "layers"),
        ("RandomForest", {"n_estimators": 0}, "n_estimators"),
        ("MLP", {"class_weight": "foo"}, "class_weight"),
        ("MLP", {"epochs": 2.5}, "epochs"),        # a TypeError from range
        ("LinearSVM", {"epochs": 0}, "epochs"),    # fitted all-zero weights
        ("MLP", {"hidden": (0,)}, "hidden"),       # a ZeroDivisionError
        ("MLP", {"hidden": 32}, "hidden"),         # a TypeError
        ("DeepNN", {"hidden": (32.5,)}, "hidden"),  # a TypeError
        ("RandomForest", {"bootstrap": "no"}, "bootstrap"),  # read as true
        ("LogisticRegression", {"l2": -1.0}, "l2"),  # fitted with overflow warnings
        ("MLP", {"tol": None}, "tol"),             # a TypeError at fit
        ("MLP", {"lr": 0.0}, "lr"),                # one epoch that never moved
        ("GaussianNB", {"var_smoothing": -1.0}, "var_smoothing"),
        ("LinearSVM", {"l2": True}, "l2"),         # read as 1.0
        ("MLP", {"l2": math.nan}, "l2"),           # exit 4 as a non-convergence
    ], ids=["unknown_kind", "unknown_key", "n_estimators_0", "class_weight_foo", "epochs_2.5",
            "svm_epochs_0", "hidden_width_0", "hidden_int", "hidden_width_float",
            "bootstrap_string", "l2_negative", "tol_none", "lr_0", "var_smoothing_negative",
            "l2_bool", "l2_nan"])
    def test_bad_spec_rejected_when_made(self, kind, hp, key):
        with pytest.raises(InvalidInputError) as info:
            ClassifierSpec(kind, hp)
        assert kind in str(info.value) and key in str(info.value)

    def test_hyperparams_read_only(self):
        # a checked spec once took a later edit: "epochs" 0 trained 0 epochs
        spec = ClassifierSpec("MLP", {"patience": None})
        with pytest.raises(TypeError):
            spec.hyperparams["epochs"] = 0
        assert spec.hyperparams["epochs"] == 400

    def test_empty_hidden_is_a_spec(self):
        assert ClassifierSpec("MLP", {"hidden": []}).hyperparams["hidden"] == ()

    def test_numpy_count_stored_as_int_and_saved(self, tmp_path):
        spec = ClassifierSpec("RandomForest", {"n_estimators": np.int64(6)}, seed=1)
        assert type(spec.hyperparams["n_estimators"]) is int
        X, y = _blobs(40, seed=2)
        save_model(train(spec, _rows(X, y)), spec, tmp_path / "model.json")
        back, spec2 = load_model(tmp_path / "model.json")
        assert spec2 == ClassifierSpec("RandomForest", {"n_estimators": 6}, seed=1)
        save_model(back, spec2, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()

    def test_single_class_training_rejected(self):
        X = np.random.default_rng(0).random((10, 2))
        with pytest.raises(InsufficientDataError):
            train(ClassifierSpec("LogisticRegression"), _rows(X, np.zeros(10)))


class TestGradients:
    def _central_diff(self, fn, x0, eps=1e-6):
        g = np.zeros_like(x0)
        for i in range(len(x0)):
            e = np.zeros_like(x0)
            e[i] = eps
            g[i] = (fn(x0 + e) - fn(x0 - e)) / (2 * eps)
        return g

    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n, d = int(rng.integers(5, 15)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            w = rng.normal(size=d + 1)
            loss, grad = logistic_loss_grad(w, X, y, l2=0.01)
            fd = self._central_diff(lambda v: logistic_loss_grad(v, X, y, 0.01)[0], w)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel <= 1e-4

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n, d, h = int(rng.integers(4, 10)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            params = init_mlp_params([d, h, 1], rng)
            flat, shapes = _flatten_params(params)
            loss, grad = mlp_loss_grad(flat, shapes, X, y, l2=0.02)
            fd = self._central_diff(lambda v: mlp_loss_grad(v, shapes, X, y, 0.02)[0], flat)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel <= 1e-4


@st.composite
def _stump_problems(draw):
    """Small integer-valued features, so thresholds tie across features,
    with uniform or random weights."""
    n = draw(st.integers(2, 25))
    d = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(st.integers(0, 4), min_size=n * d, max_size=n * d)),
                 dtype=float).reshape(n, d)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        w = np.full(n, 1.0 / n)
    else:
        w = np.array(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)), dtype=float)
        w /= w.sum()
    return X, y, w


@st.composite
def _real_stump_problems(draw):
    """Real-valued tables up to 80 x 12 whose columns each take a few
    values, n continuous values or one constant, so a table may hold no
    threshold at all; uniform or random weights. The values are
    single-precision, so the plain midpoint of two distinct ones lies
    strictly between them, as hypotheses.midpoint's does."""
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 12))
    value = st.floats(-1e3, 1e3, width=32)
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(("few", "continuous", "constant")))
        if kind == "continuous":
            columns.append(draw(st.lists(value, min_size=n, max_size=n)))
        elif kind == "few":
            pool = draw(st.lists(value, min_size=2, max_size=4))
            columns.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        else:
            columns.append([draw(value)] * n)
    X = np.array(columns, dtype=float).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        w = np.full(n, 1.0 / n)
    else:
        w = np.array(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)), dtype=float)
        w /= w.sum()
    return X, y, w


class TestReferenceEquivalence:
    """The binned stump search and the forward-only line search against
    the earlier implementations kept in oracles.py: equal bit for bit."""

    @given(_stump_problems())
    @settings(max_examples=200, deadline=None)
    def test_stump_matches_scalar_search(self, problem):
        X, y, w = problem
        assert _StumpSearch(X, y).best(w) == scalar_best_stump(X, y, w)

    @given(_real_stump_problems())
    @example((np.full((6, 3), -2.5), np.array([0, 1, 1, 0, 1, 0]), np.full(6, 1 / 6)))
    @settings(max_examples=200, deadline=None)
    def test_stump_matches_scalar_search_on_real_tables(self, problem):
        X, y, w = problem
        got = _StumpSearch(X, y).best(w)
        assert got == scalar_best_stump(X, y, w)
        assert (got is None) == bool((X == X[0]).all())  # only a constant table has none

    def test_adaboost_rounds_match_scalar_search(self, monkeypatch):
        # reweighting leaves cumsum dust, so later rounds meet near-ties
        best = _StumpSearch.best
        rng = np.random.default_rng(41)
        for trial in range(8):
            n = int(rng.integers(20, 60))
            X = rng.integers(0, 6, size=(n, 5)).astype(float)
            y = (rng.random(n) < 0.4).astype(int)
            rounds = []

            def checked_best(search, w):
                got = best(search, w)
                assert got == scalar_best_stump(X, y, w), (trial, len(rounds))
                rounds.append(got)
                return got

            monkeypatch.setattr(_StumpSearch, "best", checked_best)
            model = ml.AdaBoostModel(ClassifierSpec("AdaBoost", {"n_rounds": 25}).hyperparams, 0)
            model.fit(X, y)
            assert rounds and rounds[:len(model.stumps)] == model.stumps

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    @pytest.mark.parametrize("kind", ["LogisticRegression", "MLP", "DeepNN", "LinearSVM"])
    def test_gd_matches_gradient_on_every_trial(self, kind, class_weight, small_country):
        hp = {"class_weight": class_weight}
        linear = kind in ("LogisticRegression", "LinearSVM")
        if linear:
            # on the standardised blobs no logistic trial is ever rejected;
            # the country's correlated features still make some fail
            ds = small_country[4]
        else:
            ds = _rows(*_blobs(60, seed=5, d=6))
            hp["patience"] = None  # the oracle runs a fixed epoch count
        spec = ClassifierSpec(kind, hp, seed=3)
        hp = spec.hyperparams
        model = train(spec, ds)
        Z = _standardised(ds.X)  # as fit hands it to the descent
        sw = _sample_weights(ds.y, class_weight)
        calls = []
        if linear:
            # the MLP with no hidden layer: the d weights, then the bias
            x0 = np.zeros(ds.X.shape[1] + 1)
            shapes = [((ds.X.shape[1], 1), (1,))]
        else:
            sizes = [ds.X.shape[1], *hp["hidden"], 1]
            x0, shapes = _flatten_params(init_mlp_params(sizes, np.random.default_rng(3)))

        def loss_grad(p):
            calls.append(1)
            if kind == "LinearSVM":
                return squared_hinge_loss_grad(p, Z, ds.y, hp["l2"], sw)
            return mlp_loss_grad_full(p, shapes, Z, ds.y, hp["l2"], sw)
        descent = ml.LINEAR_DESCENT if linear else hp
        x, history = batch_gd_every_trial(loss_grad, x0, descent["lr"], descent["epochs"],
                                          descent["tol"])
        assert len(calls) > len(history)  # some line-search trials were rejected
        assert model.loss_history == history
        got = model.w if linear else _flatten_params(model.layers)[0]
        assert got.tobytes() == x.tobytes()

    def test_deepnn_fit_at_suite_scale_matches_every_trial(self):
        # 1,600 x 120 rows, as a 50 km suite fits: the fit's reused buffers
        # give the bits of a pass that allocates every array anew
        X, y = _blobs(1600, seed=9, d=120)
        ds = _rows(X, y)
        spec = ClassifierSpec("DeepNN", {"epochs": 20, "patience": None}, seed=4)
        hp = spec.hyperparams
        model = train(spec, ds)
        sizes = [ds.X.shape[1], *hp["hidden"], 1]
        x0, shapes = _flatten_params(init_mlp_params(sizes, np.random.default_rng(4)))
        sw = _sample_weights(ds.y, None)
        Z = _standardised(ds.X)
        x, history = batch_gd_every_trial(
            lambda p: mlp_loss_grad_full(p, shapes, Z, ds.y, hp["l2"], sw),
            x0, hp["lr"], hp["epochs"], hp["tol"])
        assert len(history) > 2 and model.loss_history == history
        assert _flatten_params(model.layers)[0].tobytes() == x.tobytes()

    def test_stale_backward_raises(self):
        X, y = _blobs(30, seed=2, d=3)
        flat, shapes = _flatten_params(init_mlp_params([3, 4, 5, 1], np.random.default_rng(0)))
        forward = ml.mlp_forward_fn(shapes, X, y, 1e-4)
        _, first = forward(flat)
        _, latest = forward(0.5 * flat)
        with pytest.raises(RuntimeError, match="overwritten"):
            first()
        want = mlp_loss_grad_full(0.5 * flat, shapes, X, y, 1e-4, np.ones(len(y)))[1]
        assert latest().tobytes() == want.tobytes()


class TestSuite:
    def test_eight_specs_eight_rows(self, small_country):
        _, _, _, _, rows = small_country
        report = run_suite(rows, default_suite(seed=0), 0.25, seed=0)
        assert len(report) == 8
        assert [r.classifier for r in report] == list(CLASSIFIER_KINDS)

    def test_same_seed_identical_report(self, small_country):
        _, _, _, _, rows = small_country
        r1 = run_suite(rows, default_suite(seed=0), 0.25, seed=0)
        r2 = run_suite(rows, default_suite(seed=0), 0.25, seed=0)
        assert r1 == r2

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_default_suite_class_weight(self, class_weight):
        specs = default_suite(seed=4, class_weight=class_weight)
        assert [s.kind for s in specs] == list(CLASSIFIER_KINDS)
        weighted = {"LogisticRegression", "LinearSVM", "MLP", "DeepNN"}
        for s in specs:
            assert s.seed == 4
            hp = s.hyperparams
            assert hp == {**ClassifierSpec(s.kind).hyperparams,
                          **({"class_weight": class_weight} if s.kind in weighted else {})}

    def test_bad_class_weight_rejected_before_any_fit(self, small_country, monkeypatch):
        def no_fit(spec, ds):
            raise AssertionError(f"{spec.kind} trained")

        monkeypatch.setattr("pcrisk.ml.train", no_fit)
        with pytest.raises(InvalidInputError, match="class_weight"):
            run_suite(small_country[4], default_suite(seed=0, class_weight="foo"), 0.25)
        with pytest.raises(InvalidInputError, match="class_weight"):
            ClassifierSpec("MLP", {"class_weight": True}).hyperparams

    def test_best_row_max_f1_ties_by_auc(self):
        from pcrisk.ml import EvalRow

        rows = (EvalRow("A", 1, 1, 0.8, 0.7), EvalRow("B", 1, 1, 0.9, 0.6),
                EvalRow("C", 1, 1, 0.9, 0.95))
        assert best_row(rows).classifier == "C"

    def test_csv_shape(self, small_country, tmp_path):
        _, _, _, _, rows = small_country
        report = run_suite(rows, default_suite(seed=0), 0.25, seed=0)
        p = tmp_path / "suite.csv"
        write_suite_csv(report, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "Classifier,Precision,Recall,F1-Score,AUC"
        assert len(lines) == 9

    def test_planted_separable_country_best_f1(self):
        # strongly separable planted effect: the best classifier should be
        # nearly perfect
        import datetime as dt

        from conftest import square_grid
        from pcrisk.features import assemble_dataset
        from pcrisk.ingest import PlantedEffect, Window, synth_country

        g = square_grid(12, 12)
        planted = PlantedEffect(odds_ratio=600.0, base_rate=0.02, risk_fraction=0.35)
        series, events = synth_country(1, g, 24, planted)
        rows = assemble_dataset(g, series, events,
                                Window(dt.date(2015, 1, 1), dt.date(2016, 12, 31)))
        report = run_suite(rows, default_suite(seed=1), 0.25, seed=1)
        assert best_row(report).f1 >= 0.9


def _report_bits(report):
    return [(r.classifier, *(None if v is None else float.hex(v)
                             for v in (r.precision, r.recall, r.f1, r.auc)))
            for r in report]


def _assert_same_forests(X, y, hp: dict, seed: int) -> None:
    """ForestModel.fit, hypotheses.grow_forest and oracles.grow_forest_per_node
    on the same bootstrap rows grow equal trees: structure, child counts,
    features and threshold bits; both growers leave the rng in the same
    state."""
    k = ml.ForestModel(hp, seed)._n_split_features(X.shape[1])
    states, forests = [], []
    for encode, grow in ((encode_columns, grow_forest), (encode_ranks, grow_forest_per_node)):
        rng = np.random.default_rng(seed)
        roots = [rng.integers(0, len(y), size=len(y)) for _ in range(hp["n_estimators"])]
        forests.append(grow(encode(X), y, roots, hp["max_depth"], hp["min_leaf"], rng=rng,
                            max_features=k))
        states.append(rng.bit_generator.state)
    forests.append(ml.ForestModel(hp, seed).fit(X, y).trees)
    assert states[0] == states[1]
    assert sum(not t.is_leaf for t in forests[1]) == hp["n_estimators"]
    for i, (tree, per_node, model_tree) in enumerate(zip(*forests, strict=True)):
        assert _same_nodes(tree, per_node) and _same_nodes(model_tree, per_node), i


def _demo_table(km: float) -> Dataset:
    """The bundled demo config's dataset at km."""
    config = Path(__file__).resolve().parent.parent / "configs" / "synthetic_demo.json"
    cfg = cli.resolve_config(cli._parser().parse_args(["train-suite", "--config", str(config)]))
    return cli._build(cfg, km)[1]


@pytest.fixture(scope="module")
def demo_100km():
    """The bundled demo config's dataset at 100 km (500 cells)."""
    return _demo_table(100.0)


@pytest.fixture(scope="module")
def demo_50km():
    """The bundled demo config's dataset at 50 km (2,000 cells)."""
    return _demo_table(50.0)


def _use_cpus(monkeypatch, cpus: int) -> None:
    """Patch the usable CPUs to cpus, with BLAS pinned to one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def _record_fits(monkeypatch, started: list, fail=None) -> None:
    """Wrap every model's fit to append (kind, on the main thread) as the fit
    starts; a kind in fail raises fail[kind] instead of fitting. Each class
    that defines fit is patched once, so a subclass that inherits it records
    through its base."""
    for cls in {next(c for c in kind.__mro__ if "fit" in vars(c))
                for kind in ml._MODEL_CLASSES.values()}:
        def recording_fit(self, X, y, fit=cls.fit):
            started.append((self.kind, threading.current_thread() is threading.main_thread()))
            if fail and self.kind in fail:
                raise fail[self.kind]
            return fit(self, X, y)

        monkeypatch.setattr(cls, "fit", recording_fit)


class TestSuiteOnTwoThreads:
    """run_suite once fitted from both ends of the spec list on two threads
    when two CPUs were usable. It is a plain loop now: with one CPU or two it
    starts no thread, fits every spec on the calling thread in spec order, and
    equals the one-by-one loop of oracles.run_suite_sequential."""

    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_matches_sequential_suite(self, demo_100km, monkeypatch, class_weight):
        for seed in range(5):
            specs = default_suite(seed, class_weight)
            want = _report_bits(run_suite_sequential(demo_100km, specs, 0.2, seed))
            for cpus in (2, 1):
                _use_cpus(monkeypatch, cpus)
                assert _report_bits(run_suite(demo_100km, specs, 0.2, seed)) == want, \
                    (seed, cpus)

    def test_rows_keep_spec_order(self, small_country, monkeypatch):
        _use_cpus(monkeypatch, 2)
        for specs in (default_suite(seed=0), default_suite(seed=0)[::-1]):
            want = _report_bits(run_suite_sequential(small_country[4], specs, 0.25, seed=0))
            started = []
            _record_fits(monkeypatch, started)
            got = run_suite(small_country[4], specs, 0.25, seed=0)
            assert started == [(s.kind, True) for s in specs]
            assert [r.classifier for r in got] == [s.kind for s in specs]
            assert _report_bits(got) == want

    def test_each_index_runs_once_under_stress(self, small_country, monkeypatch):
        # 300 cheap specs on two usable CPUs: every spec fits once, in order,
        # on the calling thread, and its row keeps its place
        specs = [ClassifierSpec("RandomForest", {"n_estimators": 1, "max_depth": 3}, seed=i)
                 for i in range(300)]
        want = _report_bits(run_suite_sequential(small_country[4], specs, 0.25, seed=0))
        fitted = []
        fit = ml.ForestModel.fit

        def recording_fit(self, X, y):
            fitted.append((self.seed, threading.current_thread() is threading.main_thread()))
            return fit(self, X, y)

        monkeypatch.setattr(ml.ForestModel, "fit", recording_fit)
        _use_cpus(monkeypatch, 2)
        threads = threading.active_count()
        got = run_suite(small_country[4], specs, 0.25, seed=0)
        assert threading.active_count() == threads
        assert fitted == [(seed, True) for seed in range(300)]
        assert _report_bits(got) == want

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("failing", [("RandomForest", "DeepNN"), ("DeepNN",),
                                         ("DecisionTree", "AdaBoost", "MLP")])
    def test_failure_raises_what_the_loop_raises(self, small_country, monkeypatch,
                                                 cpus, failing):
        errors = {"DecisionTree": KeyError("front"), "RandomForest": ValueError("front"),
                  "AdaBoost": RuntimeError("middle"), "MLP": ArithmeticError("back"),
                  "DeepNN": NonConvergenceError("back", last_loss=None)}
        fail = {kind: errors[kind] for kind in failing}
        started = []
        _record_fits(monkeypatch, started, fail)
        with pytest.raises(Exception) as want:
            run_suite_sequential(small_country[4], default_suite(seed=0), 0.25, seed=0)
        assert want.value is errors[failing[0]]
        started.clear()
        _use_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        with pytest.raises(type(want.value)) as got:
            run_suite(small_country[4], default_suite(seed=0), 0.25, seed=0)
        assert got.value is want.value
        assert threading.active_count() == threads
        # nothing starts after the lowest failing spec, and all on this thread
        first_failing = CLASSIFIER_KINDS.index(failing[0])
        assert started == [(kind, True) for kind in CLASSIFIER_KINDS[:first_failing + 1]]


STANDARDISED_KINDS = ("LogisticRegression", "LinearSVM", "MLP", "DeepNN")


def _layer_bits(model) -> bytes:
    return _flatten_params(model.layers)[0].tobytes()


class TestStandardisedGradientModels:
    """LogisticRegression, LinearSVM, MLP and DeepNN z-score their inputs,
    and MLP and DeepNN stop at their best held-out loss."""

    def test_split_rows_are_the_rows_of_split(self, demo_100km):
        train_rows, test_rows = split_rows(demo_100km.y, 0.2, 7)
        train_ds, test_ds = split(demo_100km, 0.2, 7)
        assert np.array_equal(train_ds.cells, demo_100km.cells[train_rows])
        assert np.array_equal(test_ds.cells, demo_100km.cells[test_rows])
        assert np.array_equal(np.sort(np.r_[train_rows, test_rows]), np.arange(len(demo_100km)))

    def test_logistic_regression_predicts_conflict_on_the_50km_demo_split(self, demo_50km):
        # on raw inputs, where NBRC reaches 78 beside [0, 1] histograms, its
        # F1 was 0 at every granularity
        train_ds, test_ds = split(demo_50km, 0.2, 7)
        model = train(ClassifierSpec("LogisticRegression", seed=7), train_ds)
        assert metrics(predict_proba(model, test_ds), test_ds.y).f1 > 0

    @pytest.mark.parametrize("kind", STANDARDISED_KINDS)
    def test_fit_keeps_the_training_rows_scaler(self, kind):
        X, y = _blobs(60, seed=1)
        X[:, 1] *= 1000.0
        ds = _rows(X, y)
        hp = {"patience": None} if kind in ("MLP", "DeepNN") else {}
        model = train(ClassifierSpec(kind, hp, seed=0), ds)
        assert model.mean.tobytes() == ds.X.mean(axis=0).tobytes()
        want = ds.X.std(axis=0)
        want[4:] = 1.0  # the constant zero columns
        assert model.scale.tobytes() == want.tobytes()
        # a value never seen in a constant training column stays finite
        other = ds.X.copy()
        other[:, 100] = 3.0
        assert np.isfinite(model.predict_proba(other)).all()

    @pytest.mark.parametrize("kind", ["MLP", "DeepNN"])
    def test_early_stop_equals_a_capped_fit_at_the_best_epoch(self, demo_100km, kind):
        model = train(ClassifierSpec(kind, seed=7), demo_100km)
        assert model.stop == "patience"
        assert model.epochs == model.best_epoch + 20 == len(model.loss_history) - 1
        inner, _ = split_rows(demo_100km.y, VALIDATION_FRACTION, 7)
        capped = train(ClassifierSpec(kind, {"patience": None, "epochs": model.best_epoch},
                                      seed=7), demo_100km.take(inner))
        assert capped.stop == "cap" and capped.best_epoch is None
        assert _layer_bits(capped) == _layer_bits(model)
        assert capped.mean.tobytes() == model.mean.tobytes()
        assert capped.scale.tobytes() == model.scale.tobytes()
        assert capped.loss_history == model.loss_history[:model.best_epoch + 1]

    def test_patience_null_fits_every_row_to_the_cap(self, small_country):
        ds = small_country[4]
        model = train(ClassifierSpec("MLP", {"patience": None, "epochs": 30}, seed=1), ds)
        assert (model.epochs, model.best_epoch, model.stop) == (30, None, "cap")
        assert model.mean.tobytes() == ds.X.mean(axis=0).tobytes()

    @pytest.mark.parametrize("kind", ["MLP", "DeepNN"])
    def test_three_positive_rows_fit_to_the_cap_without_held_out_rows(self, kind):
        # a 10% split cannot put one of 3 positives on each side
        X, _ = _blobs(60, seed=3)
        y = np.zeros(60, dtype=int)
        y[[5, 20, 41]] = 1
        X[y == 1, 0] += 0.3
        ds = _rows(X, y)
        with pytest.raises(StratificationError):
            split_rows(ds.y, VALIDATION_FRACTION, 0)
        model = train(ClassifierSpec(kind, {"epochs": 40}, seed=0), ds)
        assert (model.epochs, model.best_epoch, model.stop) == (40, None, "cap")
        plain = train(ClassifierSpec(kind, {"epochs": 40, "patience": None}, seed=0), ds)
        assert _layer_bits(plain) == _layer_bits(model)

    @pytest.mark.parametrize("patience", [0, -3, 2.5, True, "20"])
    def test_bad_patience_rejected(self, patience):
        with pytest.raises(InvalidInputError, match="patience"):
            ClassifierSpec("DeepNN", {"patience": patience}).hyperparams

    def test_logistic_stop_reason(self, small_country, monkeypatch):
        ds = small_country[4]
        descent = ml.LINEAR_DESCENT
        monkeypatch.setattr(ml, "LINEAR_DESCENT", {**descent, "epochs": 5})
        capped = train(ClassifierSpec("LogisticRegression"), ds)
        assert (capped.epochs, capped.stop) == (5, "cap")
        monkeypatch.setattr(ml, "LINEAR_DESCENT", {**descent, "tol": 1.0})
        loose = train(ClassifierSpec("LogisticRegression"), ds)
        assert (loose.epochs, loose.stop) == (1, "tol")


@pytest.fixture(scope="module")
def demo_75km():
    """The bundled demo config's dataset at 75 km."""
    return _demo_table(75.0)


class TestLinearSvm:
    """LinearSVM is the L2-loss (squared hinge) SVM on the descent of the
    linear kinds: on the demo's seed-7 training splits it ends at the
    optimum where the descent converges, and no seed enters its fit."""

    @staticmethod
    def _fit(ds, seed=7):
        train_ds, _ = split(ds, 0.2, 7)
        return train(ClassifierSpec("LinearSVM", seed=seed), train_ds), train_ds

    @pytest.mark.parametrize("km", [75, 50])
    def test_objective_at_the_optimum(self, km, request):
        model, train_ds = self._fit(request.getfixturevalue(f"demo_{km}km"))
        opt = squared_hinge_optimum(_standardised(train_ds.X), train_ds.y,
                                    model.hyperparams["l2"], np.ones(len(train_ds)))
        assert model.stop == "tol"
        assert abs(model.loss_history[-1] - opt) <= 1e-5 * opt

    def test_100km_fit_stops_at_the_cap(self, demo_100km):
        model, _ = self._fit(demo_100km)
        assert model.stop == "cap" and model.epochs == ml.LINEAR_DESCENT["epochs"]
        assert model.loss_history[-1] < 1.0  # the objective of the zero vector
        assert (np.diff(model.loss_history) <= 0.0).all()

    def test_same_fit_at_two_spec_seeds(self, demo_100km):
        # a stochastic subgradient fit once drew its row order from the seed
        (a, _), (b, _) = self._fit(demo_100km, seed=7), self._fit(demo_100km, seed=8)
        assert a.state_dict() == b.state_dict()


def test_linear_riskmaps_equal_at_one_and_two_blas_threads(tmp_path):
    """riskmap's model.json and risk.csv for the two linear kinds at 50 km
    are the same bytes with one BLAS thread as with two."""
    root = Path(__file__).resolve().parent.parent
    cfg = json.loads((root / "configs" / "synthetic_demo.json").read_text(encoding="utf-8"))
    cfg["cell_km"] = 50
    files = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / threads
        for kind in ("LogisticRegression", "LinearSVM"):
            cfg["riskmap"] = {"model": kind}
            (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            for stage in ("build-dataset", "riskmap"):
                proc = subprocess.run([sys.executable, "-m", "pcrisk.cli", stage, "--config",
                                       str(tmp_path / "config.json"), "--out-dir", str(out)],
                                      env=env, capture_output=True, text=True, timeout=300)
                assert proc.returncode == 0, proc.stderr
            files[threads, kind] = [(out / name).read_bytes() for name in ("model.json",
                                                                           "risk.csv")]
    for kind in ("LogisticRegression", "LinearSVM"):
        assert files["1", kind] == files["2", kind], kind


class TestSerialization:
    def test_all_models_roundtrip(self, small_country, tmp_path):
        # bit for bit: same scores, same state, and a loaded model re-saves
        # to the bytes it was loaded from
        _, _, _, _, rows = small_country
        for kind in CLASSIFIER_KINDS:
            spec = ClassifierSpec(kind, seed=2)
            model = train(spec, rows)
            p = tmp_path / f"{kind}.json"
            save_model(model, spec, p)
            back, spec2 = load_model(p)
            assert spec2.kind == kind
            assert predict_proba(back, rows).tobytes() == predict_proba(model, rows).tobytes()
            assert back.state_dict() == model.state_dict()
            save_model(back, spec2, tmp_path / f"{kind}.again.json")
            assert (tmp_path / f"{kind}.again.json").read_bytes() == p.read_bytes()

    def test_loaded_forest_shares_one_record(self, small_country, tmp_path):
        # the loader lays the record out as the grower does, so a loaded
        # forest routes in one gather and scores the fitted forest's bytes
        rows = small_country[4]
        spec = ClassifierSpec("RandomForest", seed=2)
        model = train(spec, rows)
        save_model(model, spec, tmp_path / "model.json")
        back, _ = load_model(tmp_path / "model.json")
        assert all(t.nodes is back.trees[0].nodes for t in back.trees)
        assert [t.at for t in back.trees] == list(range(len(model.trees)))
        assert back.trees[0].nodes.tobytes() == model.trees[0].nodes.tobytes()
        assert predict_proba(back, rows).tobytes() == predict_proba(model, rows).tobytes()

    def test_state_is_the_annotated_attributes(self, small_country):
        rows = small_country[4]
        for kind in CLASSIFIER_KINDS:
            model = train(ClassifierSpec(kind, seed=2), rows)
            annotated = {name for cls in type(model).__mro__
                         for name, hint in vars(cls).get("__annotations__", {}).items()
                         if "ClassVar" not in str(hint)}
            assert set(model.state_dict()) == annotated, kind
            assert annotated <= set(vars(model)), kind

    @pytest.mark.parametrize("kind", STANDARDISED_KINDS)
    def test_standardised_models_roundtrip_bit_for_bit(self, small_country, tmp_path, kind):
        rows = small_country[4]
        spec = ClassifierSpec(kind, seed=2)
        model = train(spec, rows)
        save_model(model, spec, tmp_path / "model.json")
        back, _ = load_model(tmp_path / "model.json")
        assert predict_proba(back, rows).tobytes() == predict_proba(model, rows).tobytes()
        assert back.state_dict() == model.state_dict()
        if kind != "LinearSVM":
            assert back.stop in ("tol", "step", "cap", "patience")
            assert back.epochs == len(model.loss_history) - 1
        if kind in ("MLP", "DeepNN"):
            assert back.best_epoch == model.best_epoch is not None

    @pytest.mark.parametrize("text", ['{"kind": "DecisionTree"}', '[1, 2]',
                                      '{"kind": "GaussianNB", "hyperparams": {}, "seed": 0, '
                                      '"state": {"theta": "x"}}', '{"kind": ',
                                      '{"kind": "Perceptron", "hyperparams": {}, "seed": 0, '
                                      '"state": {}}',
                                      '{"kind": "DecisionTree", "hyperparams": {}, "seed": 0, '
                                      '"state": {"tree": {"n_samples": 1, "n_class1": 0}, '
                                      '"n_features": 120.5}}',
                                      '{"kind": "RandomForest", "hyperparams": {}, "seed": 0, '
                                      '"state": {"trees": [{"n_samples": 9223372036854775808, '
                                      '"n_class1": 0}], "n_features": 120}}'],
                             ids=["missing_key", "not_object", "bad_state", "truncated",
                                  "unknown_kind", "fractional_count", "count_past_int64"])
    def test_damaged_file_names_it(self, tmp_path, text):
        p = tmp_path / "model.json"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match="model .*model.json"):
            load_model(p)
