"""Independent reference implementations used to freeze expected values.

Everything here is deliberately brute-force and kept separate from the
library code paths it checks: exact rational arithmetic for the
combinatorial tests, numeric quadrature for distribution tails, and
exhaustive search for trees and stumps. The scalar stump search, the
one-pass MLP loss and gradient, and the gradient-on-every-trial descent
are the earlier library versions of what ml now computes with fewer passes;
the library must match them bit for bit. So must the CART grown on row
indices, which counts each node's rows per distinct value, match the one
that copied every node's rows and sorted every column, and the suite fitted
from both ends of its spec list match the one-by-one loop. So must the
array dataset.csv writer and reader match the per-field ones here, the
array cell lookup, cell bounds and polygon mask match the scalar versions
here, and the series CSV parse match the row-by-row one here. So must the
per-value risk.geojson encoder match the document-and-json.dumps one here.
The squared-hinge objective, written out here, and its L-BFGS optimum from
scipy check the LinearSVM descent.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from pcrisk.artifacts import write_json
from pcrisk.errors import (
    DuplicateTimestampError,
    InvalidInputError,
    NonConvergenceError,
    OutOfBoundsError,
    SchemaError,
)
from pcrisk.features import FEATURE_NAMES, HIST_FEATURE_NAMES
from pcrisk.grid import Grid, cell_of
from pcrisk.hypotheses import MAX_CART_ROWS
from pcrisk.ingest import VARIABLES, VariableSeries, _open_csv
from pcrisk.ml import metrics, predict_proba, split, train
from pcrisk.riskmap import risk_color

TIE = Fraction(1, 10**7)  # relative tie tolerance mirrored by the library


@dataclass
class TreeNode:
    """The reference growers' tree node: an internal node (feature and
    threshold set) or a leaf (both None). It reads as the library's Tree
    views do."""

    n_samples: int
    n_class1: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def purity(self) -> float:
        return self.n_class1 / self.n_samples if self.n_samples else 0.0


def fisher_p_enumerate(a: int, b: int, c: int, d: int) -> Fraction:
    """Two-sided Fisher p as an exact rational, by enumerating every table
    with the observed margins."""
    r1, r2, c1 = a + b, c + d, a + c
    n = r1 + r2
    den = math.comb(n, c1)

    def pmf(x: int) -> Fraction:
        return Fraction(math.comb(r1, x) * math.comb(r2, c1 - x), den)

    lo, hi = max(0, c1 - r2), min(r1, c1)
    cut = pmf(a) * (1 + TIE)
    return sum((pmf(x) for x in range(lo, hi + 1) if pmf(x) <= cut), Fraction(0))


def t_tail_quad(t_abs: float, df: float) -> float:
    """P(T > t_abs) for Student's t with df dof, via quadrature of the pdf."""

    def pdf(x):
        lognorm = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
        return math.exp(lognorm - 0.5 * (df + 1) * math.log1p(x * x / df))

    val, _ = integrate.quad(pdf, t_abs, math.inf)
    return val


def welch_p_quad(x0, x1) -> float:
    """Two-sided Welch p computed from scratch with the quadrature tail."""
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    n0, n1 = len(x0), len(x1)
    v0, v1 = x0.var(ddof=1), x1.var(ddof=1)
    se2 = v0 / n0 + v1 / n1
    t = (x1.mean() - x0.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((v0 / n0) ** 2 / (n0 - 1) + (v1 / n1) ** 2 / (n1 - 1))
    if t == 0.0:
        return 1.0
    return min(1.0, 2.0 * t_tail_quad(abs(t), df))


def lattice_neighbors(n_rows: int, n_cols: int, r: int, c: int, j: int) -> set:
    """All (row, col) != (r, c) within Euclidean distance j on the lattice."""
    out = set()
    for rr in range(n_rows):
        for cc in range(n_cols):
            if (rr, cc) == (r, c):
                continue
            if math.hypot(rr - r, cc - c) <= j:
                out.add((rr, cc))
    return out


def histogram_bin(value: float, lo: float, hi: float, n_bins: int) -> int:
    """Bin of a value in [lo, hi] under half-open equal-width bins with the
    last bin closed: the last k whose exact rational left edge
    lo + k * (hi - lo) / n_bins is at or below the value."""
    lo_q, hi_q, v_q = Fraction(lo), Fraction(hi), Fraction(value)
    lefts = [lo_q + k * (hi_q - lo_q) / n_bins for k in range(n_bins)]
    return max(k for k, left in enumerate(lefts) if left <= v_q)


# ---------------------------------------------------------------------------
# exhaustive CART


def exhaustive_cart(X, y, max_depth, min_leaf):
    """Recursive exhaustive best-split tree with exact Fraction impurities.

    Returns nested dicts: leaves {'n': .., 'n1': ..}; internal nodes add
    'feature', 'threshold', 'left', 'right'. Tie rule: lowest weighted
    gini, then lowest feature index, then lowest threshold.
    """
    n = len(y)
    n1 = int(sum(y))
    node = {"n": n, "n1": n1}
    if n < 2 * min_leaf or n1 in (0, n) or max_depth == 0:
        return node
    best = None
    for f in range(X.shape[1]):
        vals = sorted(set(float(v) for v in X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            left = [i for i in range(n) if X[i, f] <= thr]
            right = [i for i in range(n) if X[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            g = _wgini(y, left) * Fraction(len(left), n) + \
                _wgini(y, right) * Fraction(len(right), n)
            cand = (g, f, thr)
            if best is None or cand < best:
                best = cand
    if best is None:
        return node
    _, f, thr = best
    left = [i for i in range(n) if X[i, f] <= thr]
    right = [i for i in range(n) if X[i, f] > thr]
    depth = None if max_depth is None else max_depth - 1
    node["feature"] = f
    node["threshold"] = thr
    node["left"] = exhaustive_cart(X[left], y[left], depth, min_leaf)
    node["right"] = exhaustive_cart(X[right], y[right], depth, min_leaf)
    return node


def _wgini(y, idx) -> Fraction:
    m = len(idx)
    ones = int(sum(int(y[i]) for i in idx))
    return 1 - Fraction(ones, m) ** 2 - Fraction(m - ones, m) ** 2


def same_tree(node, oracle) -> bool:
    """Structural equality between a library Tree and an oracle dict."""
    if node.n_samples != oracle["n"] or node.n_class1 != oracle["n1"]:
        return False
    if node.is_leaf != ("feature" not in oracle):
        return False
    if node.is_leaf:
        return True
    return (node.feature == oracle["feature"]
            and node.threshold == oracle["threshold"]
            and same_tree(node.left, oracle["left"])
            and same_tree(node.right, oracle["right"]))


# ---------------------------------------------------------------------------
# CART that copies each node's rows and sorts every scored column


def exact_argmin(num: np.ndarray, den: np.ndarray) -> int:
    """First index of the least num[i] / den[i], compared as exact fractions."""
    return min(range(len(num)), key=lambda i: Fraction(int(num[i]), int(den[i])))


def best_split_sorted(Xs: np.ndarray, y: np.ndarray, min_leaf: int,
                      feature_ids: np.ndarray) -> tuple[int, float] | None:
    """Split minimizing weighted gini impurity, or None.

    Xs holds the node's values of the features in feature_ids (ascending),
    one row per feature and one column per sample of y. Candidate
    thresholds are midpoints between consecutive distinct sorted values of
    each feature. A candidate's score
    is the rational N/D with integers N = (nL^2 - aL^2 - bL^2)*nR +
    (nR^2 - aR^2 - bR^2)*nL and D = nL*nR, where N <= n^3/8 fits int64 for
    n < MAX_CART_ROWS. The least score is found exactly (exact_argmin);
    ties go to the lowest feature index, then the lowest threshold.
    """
    n = len(y)
    order = np.argsort(Xs, axis=1, kind="stable")
    xs = np.take_along_axis(Xs, order, axis=1)
    cum1 = np.cumsum(y[order], axis=1)
    boundary = xs[:, :-1] < xs[:, 1:]
    if min_leaf > 1:
        sizes = np.arange(1, n)
        boundary &= (sizes >= min_leaf) & (n - sizes >= min_leaf)
    row, pos = np.nonzero(boundary)  # (feature, threshold) order
    if row.size == 0:
        return None
    nL = pos.astype(np.int64) + 1
    aL = cum1[row, pos].astype(np.int64)
    bL = nL - aL
    nR = n - nL
    aR = cum1[row, -1].astype(np.int64) - aL
    bR = nR - aR
    num = (nL * nL - aL * aL - bL * bL) * nR + (nR * nR - aR * aR - bR * bR) * nL
    k = exact_argmin(num, nL * nR)
    r, i = int(row[k]), int(pos[k])
    return int(feature_ids[r]), float((xs[r, i] + xs[r, i + 1]) / 2.0)


def _best_split(X, y, min_leaf, feature_ids):
    """The split search called with the node's rows (n, d), as it once was."""
    return best_split_sorted(X.T[feature_ids], y, min_leaf, feature_ids)


def predict_leaf(node, vector: np.ndarray):
    """The leaf one row reaches, walking from the root: left where
    vector[feature] <= threshold (a NaN goes right)."""
    while not node.is_leaf:
        node = node.left if vector[node.feature] <= node.threshold else node.right
    return node


def grow_tree_copying(X: np.ndarray, y: np.ndarray, max_depth: int | None = 4,
                      min_leaf: int = 1, rng: np.random.Generator | None = None,
                      max_features: int | None = None) -> TreeNode:
    """Greedy CART on a label array in {0, 1}: grow_trees_copying of one
    sample."""
    return grow_trees_copying([(X, y)], max_depth, min_leaf, rng, max_features)[0]


def grow_trees_copying(samples: list, max_depth: int | None = 4, min_leaf: int = 1,
                       rng: np.random.Generator | None = None,
                       max_features: int | None = None) -> list[TreeNode]:
    """Greedy CART on each (X, y) of samples, y a label array in {0, 1}.

    max_depth is None or at least 1, and min_leaf at least 1. The trees grow
    breadth first from one queue that starts with their roots, in order,
    and copies each node's rows into its children. max_features, when set,
    samples that many candidate feature indices per split (used by random
    forests): a node that attempts a split draws rng.random(d) and scores
    the max_features indices with the smallest keys (a stable argsort),
    ascending; the tie rule applies within the sample.
    """
    if max_depth is not None and max_depth < 1:
        raise InvalidInputError("max_depth must be >= 1 or None")
    if min_leaf < 1:
        raise InvalidInputError("min_leaf must be >= 1")
    trees, queue = [], deque()
    for X, y in samples:
        if len(y) >= MAX_CART_ROWS:
            raise InvalidInputError(f"CART takes fewer than {MAX_CART_ROWS} rows, got {len(y)}")
        trees.append(TreeNode(n_samples=len(y), n_class1=int(y.sum())))
        queue.append((trees[-1], X, y, max_depth))
    while queue:
        node, X, y, depth_left = queue.popleft()
        n, d = X.shape
        if n < 2 * min_leaf or node.n_class1 in (0, n) or depth_left == 0:
            continue
        if max_features is not None and max_features < d:
            feature_ids = np.sort(np.argsort(rng.random(d), kind="stable")[:max_features])
        else:
            feature_ids = np.arange(d)
        split = _best_split(X, y, min_leaf, feature_ids)
        if split is None:
            continue
        node.feature, node.threshold = split
        go_left = X[:, node.feature] <= node.threshold
        child_depth = None if depth_left is None else depth_left - 1
        for side, rows in (("left", go_left), ("right", ~go_left)):
            child = TreeNode(n_samples=int(rows.sum()), n_class1=int(y[rows].sum()))
            setattr(node, side, child)
            queue.append((child, X[rows], y[rows], child_depth))
    return trees


# ---------------------------------------------------------------------------
# CART grown from per-column ranks with per-node rank arithmetic
#
# the library's one-tree grower as it was before it kept global bin ids, a
# feature-major copy for sampled columns and each node's class-1 rows first,
# with its depth-first loop turned into a breadth-first queue over every
# tree's root; the library, which grows all trees one level at a time, must
# grow the same trees with the same rng draws.


def midpoint_where(a, b):
    """A threshold t with a <= t < b between finite a < b (floats or arrays).

    (a + b) / 2 where that is finite and below b, else a / 2 + b / 2 where
    that lies in [a, b), else a. The plain midpoint overflows for large a
    and b, and rounds up to b when they are adjacent doubles; either way a
    split at it would send b's rows to the left with a's.
    """
    with np.errstate(over="ignore"):
        mid = (a + b) / 2.0
    half = a / 2.0 + b / 2.0
    return np.where(np.isfinite(mid) & (mid < b), mid,
                    np.where((a <= half) & (half < b), half, a))


@dataclass(frozen=True)
class RankCodes:
    """A feature matrix encoded once per fit for the split search.

    values[starts[j]:starts[j + 1]] are column j's distinct values,
    ascending (-0.0 and 0.0 are one value), and ranks[i, j] is the index of
    X[i, j] among them. A node's row and class-1 counts per distinct value
    are then bincounts over its rows' ranks.
    """

    ranks: np.ndarray   # (n, d) int32
    values: np.ndarray  # (starts[-1],) float64
    starts: np.ndarray  # (d + 1,) int64


def encode_ranks(X: np.ndarray) -> RankCodes:
    """Rank every value of X among its column's distinct values.

    Raises InvalidInputError naming the first column that holds a
    non-finite value (a NaN has no place among the distinct values), or
    when X has MAX_CART_ROWS rows or more.
    """
    n, d = X.shape
    if n >= MAX_CART_ROWS:
        raise InvalidInputError(f"CART takes fewer than {MAX_CART_ROWS} rows, got {n}")
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise InvalidInputError(
            f"CART needs finite feature values: column {int(np.argmin(finite))} is not")
    ranks = np.empty((n, d), dtype=np.int32)
    distinct = []
    for j in range(d):
        column = X[:, j]
        ordered = np.sort(column)
        new = np.ones(n, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        distinct.append(ordered[new])
        ranks[:, j] = np.searchsorted(distinct[-1], column)
    starts = np.r_[0, np.cumsum([len(v) for v in distinct], dtype=np.int64)]
    values = np.concatenate(distinct) if distinct else np.zeros(0)
    return RankCodes(ranks=ranks, values=values, starts=starts)


def best_split_per_node(codes: RankCodes, y: np.ndarray, rows: np.ndarray, min_leaf: int,
                        feature_ids: np.ndarray) -> tuple[int, float, int] | None:
    """Split of the node holding rows minimizing weighted gini impurity, or
    None; as (feature, threshold, rank), where a row goes left when its
    rank in that feature's column is at most rank.

    rows index codes and y, and may repeat (a bootstrap sample counts a
    repeated row as often as it is drawn). feature_ids are the columns
    scored, ascending. Each column's distinct values get consecutive bins;
    two np.bincount calls over the node's bins give its row and class-1
    counts per value, and cumulative sums of the nonzero bins give every
    candidate's left-side counts. The work is O(len(rows) * k + B) for k
    columns holding B distinct values in all; no node sorts.

    Candidate thresholds are the midpoints between consecutive distinct
    values of each feature within the node, in (feature, threshold) order.
    A candidate's score is the rational N/D with integers N = (nL^2 - aL^2
    - bL^2)*nR + (nR^2 - aR^2 - bR^2)*nL and D = nL*nR, where N <= n^3/8
    fits int64 for n < MAX_CART_ROWS. The least score is found exactly
    (exact_argmin); ties go to the lowest feature index, then the lowest
    threshold.
    """
    n = len(rows)
    sizes = codes.starts[feature_ids + 1] - codes.starts[feature_ids]
    starts = np.cumsum(sizes) - sizes  # first bin of each scored column
    n_bins = int(sizes.sum())
    if len(feature_ids) == len(codes.starts) - 1:
        bins = codes.ranks[rows] + starts  # whole rows gather faster than columns by index
    else:
        bins = codes.ranks[np.ix_(rows, feature_ids)] + starts
    yn = y[rows]
    count = np.bincount(bins.ravel(), minlength=n_bins)
    ones = np.bincount(bins[yn == 1].ravel(), minlength=n_bins)
    present = np.flatnonzero(count)  # (feature, value) order
    col = np.searchsorted(starts, present, side="right") - 1
    n1 = int(yn.sum())
    # running sums over all present bins; every earlier column adds n rows
    # and n1 class-1 rows
    nL = np.cumsum(count[present]) - col * n
    aL = np.cumsum(ones[present]) - col * n1
    usable = nL < n  # a column's last present value has nothing to its right
    if min_leaf > 1:
        usable &= (nL >= min_leaf) & (n - nL >= min_leaf)
    cand = np.flatnonzero(usable)
    if cand.size == 0:
        return None
    nL, aL = nL[cand], aL[cand]
    bL = nL - aL
    nR = n - nL
    aR = n1 - aL
    bR = nR - aR
    num = (nL * nL - aL * aL - bL * bL) * nR + (nR * nR - aR * aR - bR * bR) * nL
    k = int(cand[exact_argmin(num, nL * nR)])
    c = int(col[k])
    feature = int(feature_ids[c])
    lo, hi = present[k] - starts[c], present[k + 1] - starts[c]
    base = codes.starts[feature]
    return feature, float(midpoint_where(codes.values[base + lo], codes.values[base + hi])), int(lo)


def grow_forest_per_node(codes: RankCodes, y: np.ndarray, roots: list,
                         max_depth: int | None = 4, min_leaf: int = 1,
                         rng: np.random.Generator | None = None,
                         max_features: int | None = None) -> list[TreeNode]:
    """One tree per array of rows in roots, grown on the rows of an encoded
    matrix; rows may repeat, and a repeated row counts once per occurrence,
    as if it were copied.

    Nodes are grown breadth first, one at a time, from one queue that
    starts with the roots in order, each from the indices of its rows into
    the codes. A node costs two bincounts over its rows' ranks in the
    columns it scores (see best_split_per_node); a node that samples
    columns draws rng.random(d) and scores the max_features columns with
    the smallest keys (a stable argsort), ascending.
    """
    d = len(codes.starts) - 1
    if max_depth is not None and max_depth < 1:
        raise InvalidInputError("max_depth must be >= 1 or None")
    if min_leaf < 1:
        raise InvalidInputError("min_leaf must be >= 1")
    sample = max_features is not None and max_features < d
    trees, queue = [], deque()
    for rows in roots:
        if len(rows) >= MAX_CART_ROWS:
            raise InvalidInputError(f"CART takes fewer than {MAX_CART_ROWS} rows, got {len(rows)}")
        trees.append(TreeNode(n_samples=len(rows), n_class1=int(y[rows].sum())))
        queue.append((trees[-1], rows, max_depth))
    while queue:
        node, rows, depth_left = queue.popleft()
        if node.n_samples < 2 * min_leaf or node.n_class1 in (0, node.n_samples) \
                or depth_left == 0:
            continue
        if sample:
            feature_ids = np.sort(np.argsort(rng.random(d), kind="stable")[:max_features])
        else:
            feature_ids = np.arange(d)
        split = best_split_per_node(codes, y, rows, min_leaf, feature_ids)
        if split is None:
            continue
        node.feature, node.threshold, rank = split
        go_left = codes.ranks[rows, node.feature] <= rank
        left, right = rows[go_left], rows[~go_left]
        node.left = TreeNode(n_samples=len(left), n_class1=int(y[left].sum()))
        node.right = TreeNode(n_samples=len(right), n_class1=int(y[right].sum()))
        child_depth = None if depth_left is None else depth_left - 1
        queue += [(node.left, left, child_depth), (node.right, right, child_depth)]
    return trees


# ---------------------------------------------------------------------------
# exhaustive decision stump (uniform weights)


def exhaustive_stump(X, y) -> tuple:
    """Best (feature, threshold, polarity) by exact misclassification count
    with uniform weights; ties to lowest feature, threshold, polarity +1."""
    n = len(y)
    best = None
    for f in range(X.shape[1]):
        vals = sorted(set(float(v) for v in X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            gt = [int(X[i, f] > thr) for i in range(n)]
            err_gt = Fraction(sum(int(g != yy) for g, yy in zip(gt, y)), n)
            err_le = 1 - err_gt
            for rank, err in ((0, err_gt), (1, err_le)):
                cand = (err, f, thr, rank)
                if best is None or cand < best:
                    best = cand
    return (best[1], best[2], 1 if best[3] == 0 else -1)


def scalar_best_stump(X, y, w) -> tuple | None:
    """Weighted-error stump search, one feature and one threshold at a time.

    Polarity +1 predicts class 1 on value > threshold, -1 on value <=
    threshold. Errors are rounded to 9 decimals, then ties go to the lowest
    feature, lowest threshold, polarity +1 first.
    """
    n, d = X.shape
    pos_total = float(w[y == 1].sum())
    best = None  # (err, f, thr, pol_rank)
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        wp = np.cumsum(np.where(y[order] == 1, w[order], 0.0))  # positive mass left
        wn = np.cumsum(np.where(y[order] == 0, w[order], 0.0))  # negative mass left
        neg_total = float(wn[-1])
        for i in np.nonzero(xs[:-1] < xs[1:])[0]:
            thr = float((xs[i] + xs[i + 1]) / 2.0)
            pos_left, neg_left = float(wp[i]), float(wn[i])
            err_gt = pos_left + (neg_total - neg_left)
            err_le = (pos_total - pos_left) + neg_left
            for pol_rank, err in enumerate((err_gt, err_le)):
                cand = (round(err, 9), f, thr, pol_rank)
                if best is None or cand < best:
                    best = cand
    if best is None:
        return None
    return (best[1], best[2], 1 if best[3] == 0 else -1)


def mlp_loss_grad_full(flat, shapes, X, y, l2: float, sample_weight):
    """Loss and flattened gradient of the tanh MLP with logistic output in
    one pass: weights copied out of flat, and the backward pass carried
    down to the input layer."""
    n = len(y)
    layers = []
    k = 0
    for ws, bs in shapes:
        nw = ws[0] * ws[1]
        layers.append((flat[k:k + nw].reshape(ws).copy(), flat[k + nw:k + nw + bs[0]].copy()))
        k += nw + bs[0]
    acts = [X]
    h = X
    for W, b in layers[:-1]:
        h = np.tanh(h @ W + b)
        acts.append(h)
    Wo, bo = layers[-1]
    z = (h @ Wo + bo).ravel()
    loss = float(np.mean(sample_weight * (np.logaddexp(0.0, z) - y * z)))
    loss += 0.5 * l2 * sum(float((W * W).sum()) for W, _ in layers)
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    grads = [None] * len(layers)
    delta = (sample_weight * (sig - y) / n)[:, None]
    grads[-1] = (acts[-1].T @ delta + l2 * Wo, delta.sum(axis=0))
    back = delta @ Wo.T
    for li in range(len(layers) - 2, -1, -1):
        W = layers[li][0]
        d = back * (1.0 - acts[li + 1] ** 2)
        grads[li] = (acts[li].T @ d + l2 * W, d.sum(axis=0))
        back = d @ W.T
    return loss, np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])


def squared_hinge_loss_grad(w, X, y, l2: float, sample_weight):
    """Mean weighted squared hinge max(0, 1 - s z)^2 of the linear logits
    z = X w[:-1] + w[-1] at signs s = +1 (y = 1) and -1 (y = 0), plus
    (l2/2)||w[:-1]||^2 with the bias unpenalised, and its gradient in w,
    the bias last: the L2-loss SVM's objective, written out in one pass."""
    n = len(y)
    W, b = w[:-1].reshape(-1, 1).copy(), w[-1:].copy()
    z = (X @ W + b).ravel()
    sign = np.where(y == 1, 1.0, -1.0)
    gap = np.maximum(0.0, 1.0 - sign * z)
    loss = float(np.mean(sample_weight * gap ** 2))
    loss += 0.5 * l2 * float((W * W).sum())
    delta = (sample_weight * (-2.0 * sign * gap) / n)[:, None]
    return loss, np.concatenate([(X.T @ delta + l2 * W).ravel(), delta.sum(axis=0)])


def squared_hinge_optimum(X, y, l2: float, sample_weight) -> float:
    """The least squared_hinge_loss_grad objective, by scipy's L-BFGS-B from
    the zero vector, run until it can make no more progress."""
    res = optimize.minimize(squared_hinge_loss_grad, np.zeros(X.shape[1] + 1),
                            args=(X, y, l2, sample_weight), jac=True, method="L-BFGS-B",
                            options={"maxiter": 100_000, "maxfun": 100_000, "ftol": 0.0,
                                     "gtol": 1e-12})
    return float(res.fun)


def batch_gd_every_trial(loss_grad, x0, lr: float, epochs: int, tol: float):
    """Halve-on-increase gradient descent that evaluates loss_grad(x) ->
    (loss, grad) in full on every line-search trial. Returns (x, history)."""
    x = x0
    loss, grad = loss_grad(x)
    if not math.isfinite(loss):
        raise NonConvergenceError("initial loss is not finite", last_loss=loss)
    history = [loss]
    for _ in range(epochs):
        step = lr
        for _ in range(60):
            trial = x - step * grad
            t_loss, t_grad = loss_grad(trial)
            if math.isfinite(t_loss) and t_loss <= loss:
                break
            step *= 0.5
        else:
            history.append(loss)
            break
        improved = loss - t_loss
        x, loss, grad = trial, t_loss, t_grad
        lr = min(step * 1.25, 10.0)
        history.append(loss)
        if improved < tol:
            break
    if not math.isfinite(loss):
        raise NonConvergenceError("training diverged", last_loss=loss)
    return x, history


# ---------------------------------------------------------------------------
# dataset.csv, one field at a time

N_HIST = len(HIST_FEATURE_NAMES)


def write_dataset_csv_per_field(ds, path) -> None:
    """dataset.csv through csv.writer: repr() of every histogram value and
    int() of every neighbor feature, one field at a time."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("row", "col", "label") + FEATURE_NAMES)
        for (r, c), label, x in zip(ds.cells.tolist(), ds.y.tolist(), ds.X.tolist()):
            w.writerow([r, c, label, *map(repr, x[:N_HIST]), *map(int, x[N_HIST:])])


def read_dataset_csv_per_field(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, X, y) of a dataset.csv with float() of every histogram field
    and int() of every other field."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    ints = np.array([[int(v) for v in r[:3] + r[3 + N_HIST:]] for r in rows],
                    dtype=np.int64).reshape(len(rows), -1)
    hist = np.array([[float(v) for v in r[3:3 + N_HIST]] for r in rows]).reshape(len(rows), -1)
    return ints[:, :2], np.hstack([hist, ints[:, 3:]]), ints[:, 2]


# ---------------------------------------------------------------------------
# grid cells, one point at a time
#
# The earlier library versions of cell_of, the cell bounds and center, and
# the polygon test. Cells were CellId(row, col) objects then; here they are
# (row, col) tuples, which is the only change.

EDGE_EPS = 1e-9  # mirrored by the library


def scalar_cell_of(grid, lat: float, lon: float) -> tuple[int, int]:
    """Cell containing a point; boundary points go to the higher-index cell.

    Total on the grid's bbox: the far north/east edges map into the last
    row/column.
    """
    fr = (lat - grid.origin_lat) / grid.deg_per_cell_lat + EDGE_EPS
    fc = (lon - grid.origin_lon) / grid.deg_per_cell_lon + EDGE_EPS
    if not (0 <= fr <= grid.n_rows + EDGE_EPS and 0 <= fc <= grid.n_cols + EDGE_EPS):
        raise OutOfBoundsError(f"point ({lat}, {lon}) outside grid bbox")
    row = min(int(fr), grid.n_rows - 1)
    col = min(int(fc), grid.n_cols - 1)
    return (row, col)


def scalar_cell_bounds(grid, row: int, col: int) -> tuple[float, float, float, float]:
    """(lat_south, lon_west, lat_north, lon_east) of a cell."""
    lat_s = grid.origin_lat + row * grid.deg_per_cell_lat
    lon_w = grid.origin_lon + col * grid.deg_per_cell_lon
    return (lat_s, lon_w, lat_s + grid.deg_per_cell_lat, lon_w + grid.deg_per_cell_lon)


def scalar_cell_center(grid, row: int, col: int) -> tuple[float, float]:
    lat_s, lon_w, lat_n, lon_e = scalar_cell_bounds(grid, row, col)
    return (0.5 * (lat_s + lat_n), 0.5 * (lon_w + lon_e))


def point_in_polygon(lat: float, lon: float, polygon) -> bool:
    """Ray-casting point-in-polygon test on (lat, lon) vertices."""
    inside = False
    n = len(polygon)
    for i in range(n):
        la1, lo1 = polygon[i]
        la2, lo2 = polygon[(i + 1) % n]
        if (lo1 > lon) != (lo2 > lon):
            t = (lon - lo1) / (lo2 - lo1)
            if lat < la1 + t * (la2 - la1):
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# series CSV, one row at a time
#
# The earlier library parse_series, which read every file through
# csv.reader; the C-parsed front end must give the same records, warning or
# error on every file.

log = logging.getLogger("pcrisk.ingest")

_CANONICAL_COLS = ("cell_row", "cell_col", "variable", "timestamp", "value")
_LATLON_COLS = ("lat", "lon", "variable", "timestamp", "value")


def parse_series_per_row(path, grid: Grid | None = None) -> list[VariableSeries]:
    """Parse a series CSV into one record per variable that has rows, in
    VARIABLES order, its samples sorted by cell and then timestamp.

    Accepts the cell-indexed layout or the lat/lon layout (the latter
    requires a grid to map coordinates through cell_of); both need a
    'variable' column. Rows of other variables are skipped and counted in
    a warning. A field that does not parse raises InvalidInputError naming
    the file and line; a timestamp repeated in one cell of a cell-indexed
    file or at one point of a lat/lon file, or a non-finite value, raises
    an error naming the cell or point and the variable; a lat/lon point
    outside the grid's bbox, one naming the file and the point. Distinct
    lat/lon points in one cell pool their samples, ordered by point within
    a timestamp.
    """
    path = Path(path)
    var_index = {var: vi for vi, var in enumerate(VARIABLES)}
    keys: list = []  # variable index, row and col (or lat and lon), day ordinal of each sample
    values: list[float] = []
    days: dict[str, int] = {}  # timestamp field -> day ordinal
    n_skipped = 0
    with _open_csv(path) as fh:
        reader = csv.reader(fh, strict=True)
        cols = next(reader, [])
        col = {name: i for i, name in enumerate(cols)}
        by_cell_layout = all(c in col for c in _CANONICAL_COLS)
        if not by_cell_layout and not all(c in col for c in _LATLON_COLS):
            raise SchemaError(
                f"series file {path} needs columns {_CANONICAL_COLS} or {_LATLON_COLS}")
        if not by_cell_layout and grid is None:
            raise SchemaError(f"series file {path} uses lat/lon layout; a grid is required")
        i_a, i_b, i_var, i_ts, i_val = (col[c] for c in (
            _CANONICAL_COLS if by_cell_layout else _LATLON_COLS))
        convert = int if by_cell_layout else float
        for rec in reader:
            if not rec:
                continue  # blank line
            try:
                vi = var_index.get(rec[i_var].strip())
                if vi is None:
                    n_skipped += 1
                    continue
                a, b = convert(rec[i_a]), convert(rec[i_b])
                stamp = rec[i_ts]
                day = days.get(stamp)
                if day is None:
                    day = days[stamp] = dt.date.fromisoformat(stamp.strip()).toordinal()
                values.append(float(rec[i_val]))
                keys += (vi, a, b, day)
            except IndexError:
                raise InvalidInputError(f"{path} line {reader.line_num}: expected "
                                        f"{len(cols)} fields, got {len(rec)}") from None
            except ValueError as exc:
                raise InvalidInputError(f"{path} line {reader.line_num}: {exc}") from None
    if n_skipped:
        log.warning("skipped %d row(s) of unknown variables in %s", n_skipped, path.name)
    try:
        keys = np.array(keys, dtype=np.int64 if by_cell_layout else np.float64).reshape(-1, 4)
    except OverflowError:
        raise InvalidInputError(f"{path}: cell index out of range") from None
    # the samples sorted by (variable, cell or point, timestamp); a repeat
    # is a row whose key equals the one before it
    order = np.lexsort(keys.T[::-1])
    keys, values = keys[order], np.array(values)[order]
    for bad, error, what in (((keys[1:] == keys[:-1]).all(axis=1), DuplicateTimestampError,
                              "timestamp repeated"),
                             (~np.isfinite(values), InvalidInputError, "non-finite value")):
        if bad.any():
            vi, a, b, day = keys[bad.argmax()].tolist()
            place = f"cell ({a},{b})" if by_cell_layout else f"point ({a}, {b})"
            raise error(f"{path}: {place} variable {VARIABLES[int(vi)]} at "
                        f"{dt.date.fromordinal(int(day))}: {what}")
    if not by_cell_layout:  # variable indices and day ordinals are exact in float64
        cells = cell_of(grid, keys[:, 1], keys[:, 2])
        for lat, lon in keys[cells[:, 0] < 0, 1:3].tolist()[:1]:
            raise OutOfBoundsError(f"{path}: point ({lat}, {lon}) outside grid bbox")
        # the points of one cell pool their samples; the stable sort keeps
        # them in point order within a timestamp
        keys = np.hstack([keys[:, :1], cells, keys[:, 3:]]).astype(np.int64)
        order = np.lexsort(keys.T[::-1])
        keys, values = keys[order], values[order]
    bounds = np.searchsorted(keys[:, 0], np.arange(len(VARIABLES) + 1))
    return [VariableSeries(var, keys[a:b, 1:3], values[a:b])
            for var, a, b in zip(VARIABLES, bounds[:-1], bounds[1:]) if b > a]


# ---------------------------------------------------------------------------
# classifier suite, one spec after another


def run_suite_sequential(ds, specs, test_fraction: float = 0.2, seed: int = 0):
    """Train every spec on one stratified split and score the test side."""
    train_ds, test_ds = split(ds, test_fraction, seed)
    out = []
    for spec in specs:
        model = train(spec, train_ds)
        m = metrics(predict_proba(model, test_ds), test_ds.y)
        out.append(replace(m, classifier=spec.kind))
    return tuple(out)


# ---------------------------------------------------------------------------
# risk.geojson as one document
#
# The earlier library version of riskmap.render_geojson: it builds the whole
# FeatureCollection as dicts and lists and encodes it with write_json.


def render_geojson_document(surface, path) -> None:
    """One polygon feature per masked cell with risk and color properties.

    Rings are counterclockwise (lon, lat), per RFC 7946. A model scores
    many cells alike, so each distinct risk is colored once.
    """
    g = surface.grid
    cells = np.argwhere(g.mask)
    bounds = (b.tolist() for b in g.cell_bounds(cells))
    risks = surface.values[g.mask].tolist()
    color = {risk: risk_color(risk) for risk in set(risks)}
    features = []
    for (row, col), risk, lat_s, lon_w, lat_n, lon_e in zip(cells.tolist(), risks, *bounds):
        ring = [[lon_w, lat_s], [lon_e, lat_s], [lon_e, lat_n],
                [lon_w, lat_n], [lon_w, lat_s]]
        features.append({
            "type": "Feature",
            "properties": {
                "row": row,
                "col": col,
                "risk": risk,
                "color": color[risk],
            },
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    doc = {
        "type": "FeatureCollection",
        "properties": {"model_id": surface.model_id, "cell_km": g.cell_km},
        "features": features,
    }
    write_json(path, doc)
