"""Classifier suite over the feature table: eight models, stratified splits,
and conflict-class evaluation metrics.

Models are trained from scratch on numpy so every run is deterministic for
a fixed seed. A model's model.json state is its annotated instance
attributes, encoded by one codec (_Model.state_dict, _Model.load_state):

* DecisionTree      - the CART from the hypotheses module
* RandomForest      - bagged CARTs with per-split feature subsampling, in
                      one node record that scores every tree in one pass
* AdaBoost          - SAMME over depth-1 stumps picked by weighted error
* LogisticRegression- L2 negative log-likelihood, batch gradient descent:
                      the MLP's descent with no hidden layer
* LinearSVM         - the same descent on the squared hinge (L2-loss SVM)
* GaussianNB        - per-class per-feature Gaussians with a variance floor
* MLP / DeepNN      - tanh hidden layers, logistic-loss backprop (1 vs >=2
                      hidden layers)

LogisticRegression, LinearSVM, MLP and DeepNN z-score their inputs with the
mean and std of the rows they train on; MLP and DeepNN stop at their best
loss on held-out training rows. Batch-gradient models use a
halve-on-increase step, so their recorded training loss is non-increasing
across epochs. A line-search trial costs one
forward pass; backpropagation runs only for the trial that is accepted.
MLP and DeepNN fits allocate their (rows, hidden units) activation, delta
and back-propagation arrays once per fit, and every step writes into them.
The AdaBoost stump search encodes its columns once per fit, as the CART
does, and each round bins the signed weights by distinct value.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import read_json, write_json, write_table
from .errors import (
    InsufficientDataError,
    InvalidInputError,
    NonConvergenceError,
    StratificationError,
)
from .features import Dataset, to_matrix
from .hypotheses import (
    Tree,
    check_count,
    encode_columns,
    grow_forest,
    grow_tree,
    leaf_purity,
    midpoint,
    trees_from_dicts,
    trees_to_dicts,
)

#: hyperparameters that take a positive integer, and the other values each allows
_COUNT_HYPERPARAMS = {"n_estimators": (), "n_rounds": (), "epochs": (), "patience": (None,),
                      "max_features": (None, "sqrt"), "max_depth": (None,), "min_leaf": ()}
#: real-valued hyperparameters, each a finite int or float, never a bool: True
#: if it must be > 0, False if >= 0
_REAL_HYPERPARAMS = {"l2": False, "tol": False, "var_smoothing": False, "lr": True}

#: the stratified share of an MLP's training rows it holds out to stop on
VALIDATION_FRACTION = 0.1


@dataclass(frozen=True)
class EvalRow:
    classifier: str
    precision: float
    recall: float
    f1: float
    auc: float | None  # None when the labels are single-class


# ---------------------------------------------------------------------------
# split and metrics


def split(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Stratified random split preserving the class ratio within one row;
    each side keeps the dataset's row order."""
    train_rows, test_rows = split_rows(ds.y, test_fraction, seed)
    return ds.take(train_rows), ds.take(test_rows)


def split_rows(labels, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, test) row indices of split, each ascending."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidInputError("test_fraction must be in (0, 1)")
    if labels.min(initial=1) == labels.max(initial=0):
        raise InsufficientDataError("split needs both classes present")
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        n_test = int(round(test_fraction * len(idx)))
        if n_test == 0 or n_test == len(idx):
            raise StratificationError(
                f"class {cls} has {len(idx)} rows; cannot place it on both sides "
                f"of a {test_fraction:.0%} split")
        perm = rng.permutation(len(idx))
        test_idx.append(idx[perm[:n_test]])
        train_idx.append(idx[perm[n_test:]])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def metrics(scores, labels) -> EvalRow:
    """Precision/recall/F1 for the conflict class at score 0.5, plus
    rank-statistic AUC (ties count 0.5), with an empty classifier name. AUC
    is None for single-class labels."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pred = scores >= 0.5
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n1 = int((labels == 1).sum())
    n0 = len(labels) - n1
    if n1 == 0 or n0 == 0:
        return EvalRow("", precision, recall, f1, None)
    ranks = _average_ranks(scores)
    auc = (float(ranks[labels == 1].sum()) - n1 * (n1 + 1) / 2.0) / (n0 * n1)
    return EvalRow("", precision, recall, f1, auc)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a, ties sharing their mean rank, as rankdata(a) of
    scipy's stats package gives them: every rank is NaN if a holds a NaN."""
    if np.isnan(a).any():
        return np.full(len(a), np.nan)
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


# ---------------------------------------------------------------------------
# models


class _Model:
    """A classifier of one kind with its resolved hyperparameters and seed;
    defaults holds each hyperparameter the kind takes, with its default.
    Its state is its annotated instance attributes, which fit sets:
    state_dict encodes them for model.json (_to_json) and load_state
    decodes each by its annotation (_from_json)."""

    kind: typing.ClassVar[str]
    defaults: typing.ClassVar[dict]

    def __init__(self, hyperparams: typing.Mapping, seed: int):
        self.hyperparams = hyperparams
        self.seed = seed

    @classmethod
    def _state_hints(cls) -> dict:
        """The annotation of each state attribute, by name."""
        return {name: hint for name, hint in typing.get_type_hints(cls).items()
                if typing.get_origin(hint) is not typing.ClassVar}

    def state_dict(self) -> dict:
        return {name: _to_json(getattr(self, name)) for name in self._state_hints()}

    def load_state(self, state: dict) -> None:
        for name, hint in self._state_hints().items():
            setattr(self, name, _from_json(hint, state[name]))


def _to_json(value):
    """A state value as JSON data: an array or a tuple becomes a list, and a
    Tree or a forest's list of them goes through trees_to_dicts."""
    if isinstance(value, Tree):
        return trees_to_dicts([value])[0]
    if isinstance(value, list) and value and isinstance(value[0], Tree):
        return trees_to_dicts(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value


def _from_json(hint, value):
    """The state value annotated hint that _to_json encoded as value: an
    np.ndarray is a float array, list[T] and tuple[...] are decoded item by
    item, T | None is None or a T, and any other T is T(value), which must
    equal value (so 2.5 is not an int, nor 5 a str); a list[Tree] is one
    record (trees_from_dicts)."""
    args = typing.get_args(hint)
    if hint is np.ndarray:
        return np.asarray(value, dtype=float)
    if hint is Tree:
        return trees_from_dicts([value])[0]
    if hint == list[Tree]:
        return trees_from_dicts(value)
    if typing.get_origin(hint) is list:
        return [_from_json(args[0], v) for v in value]
    if typing.get_origin(hint) is tuple:
        return tuple(_from_json(h, v) for h, v in zip(args, value, strict=True))
    if isinstance(hint, types.UnionType):  # T | None
        return None if value is None else _from_json(args[0], value)
    if hint(value) != value:
        raise ValueError(f"{value!r} is not a {hint.__name__}")
    return hint(value)


class TreeModel(_Model):
    kind = "DecisionTree"
    defaults = {"max_depth": 4, "min_leaf": 1}
    tree: Tree
    n_features: int

    def fit(self, X, y):
        self.n_features = X.shape[1]
        self.tree = grow_tree(X, y, self.hyperparams["max_depth"],
                              self.hyperparams["min_leaf"])
        return self

    def predict_proba(self, X):
        _check_dim(X, self.n_features)
        return leaf_purity([self.tree], X)[0]


class ForestModel(_Model):
    kind = "RandomForest"
    defaults = {"n_estimators": 30, "max_depth": 12, "min_leaf": 1, "max_features": "sqrt",
                "bootstrap": True}
    trees: list[Tree]
    n_features: int

    def _n_split_features(self, d: int) -> int | None:
        mf = self.hyperparams["max_features"]
        return max(1, int(math.sqrt(d))) if mf == "sqrt" else mf

    def fit(self, X, y):
        """X is encoded once for every tree. The trees' bootstrap rows are
        drawn first, in tree order, and the trees then grow together, one
        depth at a time (grow_forest), as indices into that encoding, so no
        tree copies X."""
        self.n_features = X.shape[1]
        rng = np.random.default_rng(self.seed)
        n = len(y)
        roots = [rng.integers(0, n, size=n) if self.hyperparams["bootstrap"] else np.arange(n)
                 for _ in range(self.hyperparams["n_estimators"])]
        self.trees = grow_forest(encode_columns(X), y, roots, self.hyperparams["max_depth"],
                                 self.hyperparams["min_leaf"], rng,
                                 self._n_split_features(X.shape[1]))
        return self

    def predict_proba(self, X):
        _check_dim(X, self.n_features)
        return leaf_purity(self.trees, X).sum(axis=0) / len(self.trees)


class AdaBoostModel(_Model):
    kind = "AdaBoost"
    defaults = {"n_rounds": 50}
    stumps: list[tuple[int, float, int]]
    alphas: list[float]
    n_features: int

    def fit(self, X, y):
        self.n_features = X.shape[1]
        n = len(y)
        w = np.full(n, 1.0 / n)
        search = _StumpSearch(X, y)
        self.stumps, self.alphas = [], []
        for _ in range(self.hyperparams["n_rounds"]):
            stump = search.best(w)
            if stump is None:
                break
            f, thr, pol = stump
            pred = _stump_predict(X, f, thr, pol)
            err = float(w[pred != y].sum())
            if err >= 0.5:
                break
            alpha = math.log((1.0 - err) / max(err, 1e-12))
            self.stumps.append(stump)
            self.alphas.append(alpha)
            if err <= 0.0:
                break
            w = w * np.exp(alpha * (pred != y))
            w /= w.sum()
        if not self.stumps:
            raise NonConvergenceError("no usable stump found", last_loss=None)
        return self

    def predict_proba(self, X):
        _check_dim(X, self.n_features)
        vote = np.zeros(len(X))
        total = sum(self.alphas)
        for (f, thr, pol), alpha in zip(self.stumps, self.alphas):
            vote += alpha * _stump_predict(X, f, thr, pol)
        return vote / total


def _stump_predict(X, f: int, thr: float, pol: int) -> np.ndarray:
    gt = X[:, f] > thr
    return (gt if pol == 1 else ~gt).astype(int)


class _StumpSearch:
    """Exhaustive weighted-error stump search over midpoint thresholds
    (hypotheses.midpoint), on the CART's column codes (encode_columns).

    Polarity +1 predicts class 1 on value > threshold, -1 on value <=
    threshold. Ties resolve to the lowest feature, lowest threshold,
    polarity +1 first. The codes and the candidates, one after every
    distinct value of a column but its last, do not depend on the weights,
    so they are made once per fit. Each search is then one bincount of the
    signed weights (+w for class 1, -w for class 0) over the bins, and one
    cumulative sum that restarts at every column: at each candidate it is
    the class-1 minus the class-0 weight at or below the threshold.
    """

    def __init__(self, X, y):
        codes = encode_columns(X)
        self.bins = codes.bins.astype(np.intp).ravel()  # bincount adds a bin's rows in order
        self.sign = np.where(y == 1, 1.0, -1.0)
        self.starts = codes.starts
        self.cand = np.delete(np.arange(len(codes.values)), self.starts[1:] - 1)
        self.feature = np.searchsorted(self.starts, self.cand, side="right") - 1
        self.threshold = midpoint(codes.values[self.cand], codes.values[self.cand + 1])

    def best(self, w) -> tuple[int, float, int] | None:
        """(feature, threshold, polarity) of least weighted error under w, or None."""
        if self.cand.size == 0:
            return None
        pos_total, neg_total = float(w[self.sign > 0].sum()), float(w[self.sign < 0].sum())
        hist = np.bincount(self.bins, np.repeat(w * self.sign, len(self.starts) - 1),
                           minlength=self.starts[-1])
        # every column's signed weights sum to pos_total - neg_total, so taking
        # that off each column's first bin restarts the sum there, up to dust
        hist[self.starts[1:-1]] -= pos_total - neg_total
        left = np.cumsum(hist)[self.cand]  # pos_left - neg_left
        err_gt = neg_total + left
        err_le = pos_total - left
        # round(err, 9) absorbs cumsum dust so genuinely tied errors fall
        # through to the (feature, threshold, polarity) tie rule; every error
        # that can round to the minimum's rounding lies within 1e-8 of it
        cut = min(float(err_gt.min()), float(err_le.min())) + 1e-8
        best = min((round(float(errs[k]), 9), int(self.feature[k]),
                    float(self.threshold[k]), pol_rank)
                   for pol_rank, errs in enumerate((err_gt, err_le))
                   for k in np.nonzero(errs <= cut)[0])
        return (best[1], best[2], 1 if best[3] == 0 else -1)


class _Standardising(_Model):
    """A model that z-scores its inputs: fit keeps the per-feature mean and
    std of the rows it trains on, and predict_proba applies the same map
    (LeCun et al., Efficient BackProp, 1998, section 4.3). A feature that is
    constant on those rows keeps scale 1."""

    mean: np.ndarray
    scale: np.ndarray

    def _fit_standardise(self, X, out=None) -> np.ndarray:
        self.mean = X.mean(axis=0)
        self.scale = X.std(axis=0)
        self.scale[np.ptp(X, axis=0) == 0.0] = 1.0
        return self._standardise(X, out)

    def _standardise(self, X, out=None) -> np.ndarray:
        """(X - mean) / scale in one array: out, or a new one."""
        Z = np.subtract(X, self.mean, out=out)
        Z /= self.scale
        return Z


class RowLoss(typing.NamedTuple):
    """A row's loss as a function of its logit z and label y (0 or 1), and its slope in z."""

    value: typing.Callable
    slope: typing.Callable


LOGISTIC = RowLoss(lambda z, y: np.logaddexp(0.0, z) - y * z, lambda z, y: _sigmoid(z) - y)
#: max(0, 1 - m)^2 of the margin m = (2y - 1) z: the L2-loss SVM's loss
SQUARED_HINGE = RowLoss(lambda z, y: np.square(np.maximum(0.0, 1.0 - (2 * y - 1) * z)),
                        lambda z, y: -2.0 * (2 * y - 1) * np.maximum(0.0, 1.0 - (2 * y - 1) * z))

#: the descent of the linear kinds, fixed: first step, epoch cap and least
#: improvement per epoch (see _batch_gd); fit reads it when it runs
LINEAR_DESCENT = {"lr": 0.5, "epochs": 400, "tol": 1e-9}


class _Linear(_Standardising):
    """A linear model of the z-scored inputs whose kind names its loss: the
    MLP's descent with no hidden layer, on one (d, 1) layer whose flat
    weights are the d feature weights, then the bias. It scores by the
    logistic link over the margin."""

    defaults = {"l2": 1e-3, "class_weight": None}
    loss: typing.ClassVar[RowLoss]
    w: np.ndarray  # last entry is the bias
    epochs: int
    stop: str  # see _batch_gd

    def fit(self, X, y):
        hp = self.hyperparams
        forward = mlp_forward_fn([((X.shape[1], 1), (1,))], self._fit_standardise(X), y,
                                 hp["l2"], _sample_weights(y, hp["class_weight"]), self.loss)
        self.w, self.loss_history, self.stop, _ = _batch_gd(
            forward, np.zeros(X.shape[1] + 1), **LINEAR_DESCENT)
        self.epochs = len(self.loss_history) - 1
        return self

    def predict_proba(self, X):
        _check_dim(X, len(self.w) - 1)
        return _sigmoid(self._standardise(X) @ self.w[:-1] + self.w[-1])


class LogisticModel(_Linear):
    kind = "LogisticRegression"
    loss = LOGISTIC


class SvmModel(_Linear):
    kind = "LinearSVM"
    loss = SQUARED_HINGE  # LIBLINEAR's default loss (Fan et al., JMLR 2008)


class NaiveBayesModel(_Model):
    kind = "GaussianNB"
    defaults = {"var_smoothing": 1e-9}
    theta: np.ndarray  # (2, d) class means
    var: np.ndarray  # (2, d) class variances
    log_prior: np.ndarray

    def fit(self, X, y):
        d = X.shape[1]
        theta = np.zeros((2, d))
        var = np.zeros((2, d))
        prior = np.zeros(2)
        for cls in (0, 1):
            Xc = X[y == cls]
            theta[cls] = Xc.mean(axis=0)
            var[cls] = Xc.var(axis=0)
            prior[cls] = len(Xc) / len(X)
        var += self.hyperparams["var_smoothing"] * float(X.var(axis=0).max())
        var = np.maximum(var, 1e-300)
        self.theta, self.var, self.log_prior = theta, var, np.log(prior)
        return self

    def _joint_log_likelihood(self, X):
        jll = np.zeros((len(X), 2))
        for cls in (0, 1):
            log_det = np.sum(np.log(2.0 * np.pi * self.var[cls]))
            sq = ((X - self.theta[cls]) ** 2 / self.var[cls]).sum(axis=1)
            jll[:, cls] = self.log_prior[cls] - 0.5 * (log_det + sq)
        return jll

    def predict_proba(self, X):
        _check_dim(X, self.theta.shape[1])
        jll = self._joint_log_likelihood(X)
        m = jll.max(axis=1, keepdims=True)
        e = np.exp(jll - m)
        return e[:, 1] / e.sum(axis=1)


class MlpModel(_Standardising):
    """One or more tanh hidden layers with a logistic output unit.

    With patience set, fit holds out a stratified VALIDATION_FRACTION of its
    rows, drawn by split_rows from the spec seed, and trains on the rest. It
    stops once patience epochs pass without a new best held-out loss and
    keeps the weights of the best epoch (Prechelt, "Early Stopping - But
    When?", 1998). When a class is too small to sit on both sides, or with
    patience null, it trains on every row, stopped only by tol, a failed
    step or the epoch cap."""

    kind = "MLP"
    defaults = {"hidden": (32,), "l2": 1e-4, "lr": 0.2, "epochs": 400, "tol": 1e-9,
                "class_weight": None, "patience": 20}
    layers: list[tuple[np.ndarray, np.ndarray]]  # (W, b) pairs
    epochs: int
    best_epoch: int | None  # None: no held-out rows
    stop: str  # see _batch_gd

    def _held_out_rows(self, y) -> tuple[np.ndarray, np.ndarray | None]:
        """(training rows, held-out rows or None)."""
        if self.hyperparams["patience"] is not None:
            try:
                return split_rows(y, VALIDATION_FRACTION, self.seed)
            except StratificationError:
                pass
        return np.arange(len(y)), None

    def fit(self, X, y):
        hp = self.hyperparams
        sizes = [X.shape[1], *hp["hidden"], 1]
        flat, shapes = _flatten_params(init_mlp_params(sizes, np.random.default_rng(self.seed)))
        rows, held_out = self._held_out_rows(y)
        Xt, yt = X[rows], y[rows]
        forward = mlp_forward_fn(shapes, self._fit_standardise(Xt, out=Xt), yt, hp["l2"],
                                 _sample_weights(yt, hp["class_weight"]))
        held_out_forward = None
        if held_out is not None:
            Xv, yv = X[held_out], y[held_out]
            held_out_forward = mlp_forward_fn(shapes, self._standardise(Xv, out=Xv), yv, 0.0,
                                              _sample_weights(yv, hp["class_weight"]))
        flat, self.loss_history, self.stop, self.best_epoch = _batch_gd(
            forward, flat, lr=hp["lr"], epochs=hp["epochs"], tol=hp["tol"],
            held_out_forward=held_out_forward, patience=hp["patience"])
        self.epochs = len(self.loss_history) - 1
        self.layers = _unflatten_params(flat, shapes)
        return self

    def predict_proba(self, X):
        _check_dim(X, self.layers[0][0].shape[0])
        return _sigmoid(_mlp_logits(self.layers, self._standardise(X)))


class DeepNnModel(MlpModel):
    """The MLP kind whose default hyperparameters give it two hidden layers."""

    kind = "DeepNN"
    defaults = {**MlpModel.defaults, "hidden": (64, 64)}


# ---------------------------------------------------------------------------
# shared numerical pieces


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_dim(X, expected: int):
    if X.shape[1] != expected:
        raise InvalidInputError(f"model expects {expected} features, got {X.shape[1]}")


def _sample_weights(y, class_weight) -> np.ndarray:
    """Uniform mean-1 weights, or inverse-frequency when 'balanced'."""
    n = len(y)
    if class_weight is None:
        return np.ones(n)
    n1 = int(np.sum(y == 1))
    w = np.where(y == 1, n / (2.0 * n1), n / (2.0 * (n - n1)))
    return w


def logistic_loss_grad(w, X, y, l2: float, sample_weight=None):
    """Mean weighted cross-entropy + (l2/2)||w||^2 (bias unregularized) and
    its gradient: the MLP's with no hidden layer, w's last entry the bias."""
    return mlp_loss_grad(w, [((X.shape[1], 1), (1,))], X, y, l2, sample_weight)


def init_mlp_params(sizes: list[int], rng: np.random.Generator):
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        params.append((rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out)),
                       np.zeros(fan_out)))
    return params


def _flatten_params(params):
    shapes = [(W.shape, b.shape) for W, b in params]
    flat = np.concatenate([np.concatenate([W.ravel(), b]) for W, b in params])
    return flat, shapes


def _unflatten_params(flat, shapes):
    """(W, b) views into flat, one pair per layer."""
    params = []
    k = 0
    for (ws, bs) in shapes:
        nw = ws[0] * ws[1]
        W = flat[k:k + nw].reshape(ws)
        k += nw
        params.append((W, flat[k:k + bs[0]]))
        k += bs[0]
    return params


def _mlp_logits(layers, X, acts=None):
    """The logits of the tanh MLP with (W, b) pairs layers at the rows of X;
    hidden layer i writes its activation into acts[i], or a new array."""
    h = X
    for i, (W, b) in enumerate(layers[:-1]):
        h = np.matmul(h, W, out=None if acts is None else acts[i])
        h += b
        np.tanh(h, out=h)
    W, b = layers[-1]
    return (h @ W + b).ravel()


def mlp_forward_fn(shapes, X, y, l2: float, sample_weight=None, loss: RowLoss = LOGISTIC):
    """forward(flat) over one fit's X and y: the loss of the tanh MLP whose
    rows score loss.value of their logits, and backward(), the flattened
    gradient (loss.slope) from the activations this pass cached. backward
    skips the gradient with respect to X, which no parameter needs.

    The (n, hidden units) activation, delta and back-propagation arrays of
    each hidden layer are allocated once, here; every forward pass and
    backward() writes into them. A forward pass overwrites the activations
    of the one before it: only the latest pass's backward() may run, and an
    earlier one raises RuntimeError.
    """
    n = len(y)
    sw = np.ones(n) if sample_weight is None else sample_weight
    hidden = [ws[1] for ws, _ in shapes[:-1]]
    acts = [np.empty((n, h)) for h in hidden]
    deltas = [np.empty((n, h)) for h in hidden]
    backs = [np.empty((n, h)) for h in hidden]
    generation = 0

    def forward(flat):
        nonlocal generation
        generation += 1
        own = generation
        layers = _unflatten_params(flat, shapes)
        z = _mlp_logits(layers, X, acts)
        value = float(np.mean(sw * loss.value(z, y)))
        value += 0.5 * l2 * sum(float((W * W).sum()) for W, _ in layers)

        def backward():
            if generation != own:
                raise RuntimeError("backward() of an MLP forward pass whose activations "
                                   "a later pass has overwritten")
            inputs = [X, *acts]  # the input of each layer
            grads = [None] * len(layers)
            d = (sw * loss.slope(z, y) / n)[:, None]  # (n, 1)
            W = layers[-1][0]
            grads[-1] = (inputs[-1].T @ d + l2 * W, d.sum(axis=0))
            for li in range(len(layers) - 2, -1, -1):
                back = np.matmul(d, W.T, out=backs[li])
                W = layers[li][0]
                d = np.square(inputs[li + 1], out=deltas[li])
                np.subtract(1.0, d, out=d)
                d *= back
                gW = inputs[li].T @ d
                gW += l2 * W
                grads[li] = (gW, d.sum(axis=0))
            return np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])

        return value, backward

    return forward


def mlp_loss_grad(flat, shapes, X, y, l2: float, sample_weight=None):
    """Loss and flattened gradient of the tanh MLP with logistic output."""
    loss, backward = mlp_forward_fn(shapes, X, y, l2, sample_weight)(flat)
    return loss, backward()


def _batch_gd(forward, x0, lr: float, epochs: int, tol: float, held_out_forward=None,
              patience=None):
    """Gradient descent with halve-on-increase steps: accepted loss never
    increases. forward(x) returns (loss, backward); only an accepted
    point's backward() runs, so a rejected line-search trial costs one
    forward pass. Raises NonConvergenceError on a non-finite loss.

    With held_out_forward, the forward of the held-out rows, it scores every
    accepted point's held-out loss, stops once patience epochs pass without
    a new best, and returns the best point instead of the last.

    Returns (x, training loss per epoch with the initial loss first, stop,
    best epoch or None without held-out rows). stop says what ended the descent:
    "tol" (an epoch improved the loss by less than tol), "step" (60 halvings
    found no step that does not raise it), "patience", or "cap" (it ran all
    epochs)."""
    x = x0
    loss, backward = forward(x)
    if not math.isfinite(loss):
        raise NonConvergenceError("initial loss is not finite", last_loss=loss)
    history = [loss]
    stop = "cap"
    if held_out_forward is not None:
        best_x, best_epoch, best_val = x, 0, held_out_forward(x)[0]
    for epoch in range(1, epochs + 1):
        grad = backward()
        step = lr
        for _ in range(60):
            trial = x - step * grad
            t_loss, t_backward = forward(trial)
            if math.isfinite(t_loss) and t_loss <= loss:
                break
            step *= 0.5
        else:
            history.append(loss)
            stop = "step"
            break
        improved = loss - t_loss
        x, loss, backward = trial, t_loss, t_backward
        lr = min(step * 1.25, 10.0)
        history.append(loss)
        if held_out_forward is not None:
            v = held_out_forward(x)[0]
            if v < best_val:
                best_x, best_epoch, best_val = x, epoch, v
            elif epoch - best_epoch >= patience:
                stop = "patience"
                break
        if improved < tol:
            stop = "tol"
            break
    if not math.isfinite(loss):
        raise NonConvergenceError("training diverged", last_loss=loss)
    if held_out_forward is None:
        return x, history, stop, None
    return best_x, history, stop, best_epoch


# ---------------------------------------------------------------------------
# training façade


_MODEL_CLASSES = {cls.kind: cls for cls in (TreeModel, ForestModel, AdaBoostModel, LogisticModel,
                                             SvmModel, NaiveBayesModel, MlpModel, DeepNnModel)}

CLASSIFIER_KINDS = tuple(_MODEL_CLASSES)


@dataclass(frozen=True)
class ClassifierSpec:
    """A classifier kind, its hyperparameters and its seed, resolved and
    checked when made: hyperparams becomes a read-only view of the kind's
    defaults with the given values over them, each count an int and hidden
    a tuple."""

    kind: str
    hyperparams: typing.Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _MODEL_CLASSES:
            raise InvalidInputError(f"unknown classifier kind {self.kind!r}")
        hp = dict(_MODEL_CLASSES[self.kind].defaults)
        for k, v in self.hyperparams.items():
            if k not in hp:
                raise InvalidInputError(f"{self.kind} has no hyperparameter {k!r}")
            hp[k] = v
        if hp.get("class_weight") not in (None, "balanced"):
            raise InvalidInputError(f"{self.kind} class_weight must be None or 'balanced', "
                                    f"not {hp['class_weight']!r}")
        for key, others in _COUNT_HYPERPARAMS.items():
            if key in hp:
                hp[key] = check_count(f"{self.kind} {key}", hp[key], *others)
        if "hidden" in hp:
            if not isinstance(hp["hidden"], (list, tuple)):
                raise InvalidInputError(f"{self.kind} hidden must be a list, not {hp['hidden']!r}")
            hp["hidden"] = tuple(check_count(f"{self.kind} hidden width", w) for w in hp["hidden"])
        if not isinstance(hp.get("bootstrap", True), bool):
            raise InvalidInputError(f"{self.kind} bootstrap {hp['bootstrap']!r} is not a bool")
        for key, positive in _REAL_HYPERPARAMS.items():
            v = hp.get(key, 1.0)  # a kind without the key passes
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not (0 < v if positive else 0 <= v) or not math.isfinite(v)):
                raise InvalidInputError(f"{self.kind} {key} must be a finite number "
                                        f"{'>' if positive else '>='} 0, not {v!r}")
        object.__setattr__(self, "hyperparams", types.MappingProxyType(hp))


def default_suite(seed: int = 0, class_weight=None,
                  kinds=CLASSIFIER_KINDS) -> list[ClassifierSpec]:
    """One spec per kind of kinds with default hyperparameters, except
    class_weight on every kind that has it; shared seed."""
    return [ClassifierSpec(k, {"class_weight": class_weight}
                           if "class_weight" in _MODEL_CLASSES[k].defaults else {}, seed)
            for k in kinds]


def train(spec: ClassifierSpec, ds: Dataset):
    """Fit one classifier on a dataset; both classes must be present."""
    if not len(ds):
        raise InsufficientDataError("cannot train on an empty dataset")
    X, y = to_matrix(ds)
    if not np.isfinite(X).all():
        raise InvalidInputError("non-finite feature values")
    if y.min(initial=1) == y.max(initial=0):
        raise InsufficientDataError("training needs both classes present")
    return _MODEL_CLASSES[spec.kind](spec.hyperparams, spec.seed).fit(X, y)


def predict_proba(model, ds: Dataset) -> np.ndarray:
    """Conflict-class score per row, in [0, 1]."""
    X, _ = to_matrix(ds)
    return model.predict_proba(X)


def save_model(model, spec: ClassifierSpec, path) -> None:
    doc = {"kind": spec.kind, "hyperparams": dict(spec.hyperparams),
           "seed": spec.seed, "state": model.state_dict()}
    write_json(path, doc)


def load_model(path):
    """(model, spec) saved by save_model; a damaged file raises
    InvalidInputError naming it."""
    def parse(doc):
        spec = ClassifierSpec(doc["kind"], doc["hyperparams"], doc["seed"])
        model = _MODEL_CLASSES[spec.kind](spec.hyperparams, spec.seed)
        model.load_state(doc["state"])
        return model, spec

    return read_json(path, "model", parse)


# ---------------------------------------------------------------------------
# suite runner


def run_suite(ds: Dataset, specs: list[ClassifierSpec],
              test_fraction: float = 0.2, seed: int = 0) -> tuple[EvalRow, ...]:
    """Train every spec, in order, on one stratified split and score the
    test side; a failing fit raises at once."""
    train_ds, test_ds = split(ds, test_fraction, seed)

    def score(spec: ClassifierSpec) -> EvalRow:
        model = train(spec, train_ds)
        m = metrics(predict_proba(model, test_ds), test_ds.y)
        return replace(m, classifier=spec.kind)

    return tuple(map(score, specs))


def best_row(rows: tuple[EvalRow, ...]) -> EvalRow:
    """Highest F1; ties broken by AUC."""
    return max(rows,
               key=lambda r: (r.f1, r.auc if r.auc is not None else -1.0))


def write_suite_csv(rows: tuple[EvalRow, ...], path) -> None:
    write_table(path, ["Classifier", "Precision", "Recall", "F1-Score", "AUC"],
                ([r.classifier, r.precision, r.recall, r.f1, r.auc] for r in rows))


def write_best_summary_csv(country: str, best: list[tuple[float, EvalRow]], path) -> None:
    """One row per (granularity in km, best suite row)."""
    write_table(path, ["Country", "Granularity km", "Best Classifier", "Precision",
                       "Recall", "F1-Score", "AUC"],
                ([country, f"{km:g}", b.classifier, b.precision, b.recall, b.f1, b.auc]
                 for km, b in best))
