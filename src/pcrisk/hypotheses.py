"""Decision-tree learning and multivariate hypothesis extraction.

A greedy binary CART (gini criterion, midpoint thresholds, deterministic
tie rule: lowest feature index then lowest threshold) is grown on the
120-feature matrix. Root-to-leaf paths with enough support and class-1
purity become hypothesis predicates: conjunctions of (feature, <=/>,
threshold) conditions defining a cell set S, which are then scored with
Fisher's exact test, the odds ratio and its Woolf CI against the
complement set.

Split quality is compared through exact integer arithmetic, so the chosen
tree is identical to an exhaustive best-split search and reproducible
across platforms. A fit ranks each column's values among its distinct
values once. The trees of a forest then grow together, one depth at a
time: the split search of a level's nodes counts their rows per value
with np.bincount instead of sorting them. A forest is one flat node record,
as in scikit-learn's Tree; leaf_purity moves every (tree, row) pair down
it one level per step, and a Tree is a view of one of its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import read_json, write_json, write_table
from .errors import DegeneratePartitionError, InsufficientDataError, InvalidInputError
from .features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    HIST_FEATURE_NAMES,
    N_BINS,
    N_FEATURES,
    Dataset,
    to_matrix,
)
from .grid import MAX_CELLS
from .ingest import VARIABLES
from .stats import ContingencyTable, ExactTestResult, exact_test


#: one node of a tree record: a split's column and threshold (a row goes left
#: where x[feature] <= threshold) and its children's indices, all -1 at a
#: leaf, and the node's row and class-1 counts
_NODE = np.dtype([("feature", np.intp), ("threshold", np.float64), ("left", np.intp),
                  ("right", np.intp), ("n_samples", np.int64), ("n_class1", np.int64)])


@dataclass(frozen=True, eq=False)
class Tree:
    """A view of node `at` of a node record (_NODE), whose fields read as
    attributes: feature and threshold are None at a leaf, and left and right
    are views (None at a leaf). The trees of a forest share one record."""

    nodes: np.ndarray
    at: int

    def __getattr__(self, name):
        if name not in _NODE.names:
            raise AttributeError(name)
        value = self.nodes[name][self.at].item()
        if name in ("left", "right"):
            return None if value < 0 else Tree(self.nodes, value)
        return None if name in ("feature", "threshold") and self.is_leaf else value

    @property
    def is_leaf(self) -> bool:
        return bool(self.nodes["feature"][self.at] < 0)

    @property
    def purity(self) -> float:
        return self.n_class1 / self.n_samples if self.n_samples else 0.0


@dataclass(frozen=True)
class Condition:
    feature: str
    op: str  # ">" or "<="
    threshold: float

    def holds(self, value: float) -> bool:
        return value > self.threshold if self.op == ">" else value <= self.threshold

    def describe(self) -> str:
        return f"{self.feature} {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class HypothesisPredicate:
    """Conjunction of threshold conditions over the 120-feature dictionary."""

    conditions: tuple

    def __post_init__(self):
        if not self.conditions:
            raise InvalidInputError("predicate needs at least one condition")
        for c in self.conditions:
            if c.feature not in FEATURE_INDEX:
                raise InvalidInputError(f"unknown feature {c.feature!r}")
            if c.op not in (">", "<="):
                raise InvalidInputError(f"unknown comparator {c.op!r}")

    def matches(self, X: np.ndarray) -> np.ndarray | np.bool_:
        """Whether one feature vector, or each row of a matrix, satisfies
        every condition."""
        out = np.ones(np.shape(X)[:-1], dtype=bool)
        for c in self.conditions:
            out &= c.holds(X[..., FEATURE_INDEX[c.feature]])
        return out[()]

    def describe(self) -> str:
        return " and ".join(c.describe() for c in self.conditions)


# ---------------------------------------------------------------------------
# CART training

#: row limit below which every split score's integer numerator fits int64;
#: no grid holds as many cells
MAX_CART_ROWS = MAX_CELLS
#: depth limit of a tree. json, tree_to_dot and extract_paths walk a tree
#: this deep recursively (the record's encoder and loader do not) under
#: Python's default recursion limit of 1000; a 1,000-level chain does not,
#: and the margin leaves room for the callers' frames
MAX_TREE_DEPTH = 500


def midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A threshold t with a <= t < b between finite arrays a < b, elementwise.

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
class ColumnCodes:
    """A feature matrix encoded once per fit for the split search.

    values[starts[j]:starts[j + 1]] are column j's distinct values,
    ascending (-0.0 and 0.0 are one value), and bins[i, j] is the index in
    values of X[i, j]: starts[j] plus its rank in column j. A node's row
    and class-1 counts per distinct value are then bincounts over its rows'
    bins, and comparing a bin to another of its column compares the values.
    """

    bins: np.ndarray    # (n, d) int32, or int64 when n * d >= 2**31
    values: np.ndarray  # (starts[-1],) float64
    starts: np.ndarray  # (d + 1,) int64


def encode_columns(X: np.ndarray) -> ColumnCodes:
    """Give every value of X its bin among its column's distinct values.

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
    bins = np.empty((n, d), dtype=np.int32 if n * d < 2 ** 31 else np.int64)
    distinct = []
    starts = np.zeros(d + 1, dtype=np.int64)
    for j in range(d):
        column = X[:, j]
        ordered = np.sort(column)
        new = np.ones(n, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        distinct.append(ordered[new])
        bins[:, j] = np.searchsorted(distinct[-1], column) + starts[j]
        starts[j + 1] = starts[j] + len(distinct[-1])
    values = np.concatenate(distinct) if distinct else np.zeros(0)
    return ColumnCodes(bins=bins, values=values, starts=starts)


def check_count(name: str, value, *others):
    """value as an int if it is an integer >= 1 (an int or a numpy integer,
    not a bool), or value itself if it is one of others (None or strings);
    otherwise InvalidInputError naming name."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1:
        return int(value)
    if value is None and None in others or isinstance(value, str) and value in others:
        return value
    also = "".join(" or None" if o is None else f" or {o!r}" for o in others)
    raise InvalidInputError(f"{name} must be a positive integer{also}, not {value!r}")


def _best_splits(codes: ColumnCodes, class1: np.ndarray, rows: np.ndarray, n: np.ndarray,
                 n1: np.ndarray, min_leaf: int, fids: np.ndarray) -> tuple[np.ndarray, ...]:
    """The split of each of m nodes minimizing weighted gini impurity, as
    arrays over the nodes that split, ascending: (node, feature, lo,
    threshold, n_left, n_left_class1), a row going left when its bin in
    feature is at most lo.

    rows index codes and class1 (the rows whose label is 1), grouped by
    node; a row may repeat (a bootstrap sample counts a repeated row as
    often as it is drawn). n and n1 (int64) are the nodes' row and class-1
    counts. fids[j] are the k columns node j scores, ascending; a node that
    samples no columns scores a sample of all d, 0..d-1, and then the rows'
    bins are gathered whole rows at a time, which is faster than by index.

    Every (node, column) pair gets its own run of bins, one per distinct
    value of the column, so one gather of the rows' bins and two
    np.bincount calls, the second over the class-1 rows alone, count every
    node's rows and class-1 rows per value. A running count over the
    nonzero bins, less the rows of the pairs before, gives every
    candidate's left-side counts. The work is O(len(rows) * k + B) for B
    bins in all. Where B exceeds the len(rows) * k entries (nodes of few
    rows on columns of many values), the entries are sorted instead, and
    the running counts are the number of entries up to each value.

    Candidate thresholds are the midpoints between consecutive distinct
    values of each scored column within a node, in (feature, threshold)
    order. A candidate's score is the rational N/D with integers N = aL*bL*nR
    + aR*bR*nL and D = nL*nR (half the gini numerator), where N <= n^3/16
    fits int64 for n < MAX_CART_ROWS. Each node's least score is found
    exactly (_exact_argmins); ties go to the lowest feature index, then the
    lowest threshold.
    """
    (m, k), d = fids.shape, codes.bins.shape[1]
    node = np.repeat(np.arange(m), n)
    sizes = np.diff(codes.starts)[fids]
    first = sizes.cumsum().reshape(m, k) - sizes  # each pair's first bin
    n_bins = int(first[-1, -1] + sizes[-1, -1])
    dtype = codes.bins.dtype if n_bins < 2 ** 31 else np.int64
    shift = np.subtract(first, codes.starts[fids], dtype=dtype)  # bins less values' indices
    if k == d:
        keys = codes.bins[rows].astype(dtype, copy=False)
        keys += shift[node, :1]  # a node's columns then share one shift
    else:
        index = np.add(fids[node], (rows * d)[:, None], dtype=codes.bins.dtype)
        keys = np.take(codes.bins, index).astype(dtype, copy=False)
        keys += shift[node]
    of_class1 = keys[class1[rows]].ravel()
    if n_bins <= keys.size:
        count = np.bincount(keys.ravel(), minlength=n_bins)
        present = count.nonzero()[0]  # (node, feature, value) order
        nL = count[present].cumsum()
        aL = np.bincount(of_class1, minlength=n_bins)[present].cumsum()
    else:  # more bins than entries: sort the entries, and count the ones up to each
        ordered = np.sort(keys.ravel())
        present = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
        nL = np.searchsorted(ordered, present, side="right")
        aL = np.searchsorted(np.sort(of_class1), present, side="right")
    j = np.searchsorted(first[:, 0], present, side="right") - 1
    # each node's k columns hold its rows k times over: the running counts
    # less the nodes before give the column, and less its columns before,
    # the left side
    nj, n1j = n[j], n1[j]
    nL -= k * (n.cumsum() - n)[j]
    col = (nL - 1) // nj
    nL -= col * nj
    aL -= k * (n1.cumsum() - n1)[j] + col * n1j
    usable = nL <= nj - min_leaf  # a column's last present value has nothing to its right
    if min_leaf > 1:
        usable &= nL >= min_leaf
    cand = usable.nonzero()[0]
    j, nL, aL, nj, n1j = j[cand], nL[cand], aL[cand], nj[cand], n1j[cand]
    nR = nj - nL
    aR = n1j - aL
    win = _exact_argmins(aL * (nL - aL) * nR + aR * (nR - aR) * nL, nL * nR, j)
    at, j = cand[win], j[win]
    c = col[at]
    lo = present[at] - shift[j, c]
    threshold = midpoint(codes.values[lo], codes.values[present[at + 1] - shift[j, c]])
    return j, fids[j, c], lo, threshold, nL[win], aL[win]


def _exact_argmins(num: np.ndarray, den: np.ndarray, group: np.ndarray) -> np.ndarray:
    """For each run of equal values in group (ascending non-negative ints,
    the nodes of a batch), the index of its first least num[i] / den[i]
    (non-negative int64 arrays, den > 0), compared exactly.

    The float64 quotients only shortlist each group's minima: num and den
    round by at most half an ulp each when converted, and the division once
    more, so every exact minimum's quotient is below m * (1 + 2**-50), m the
    group's least quotient. Where a group shortlists more than one candidate
    (on the demo, always exact ties), the others are compared with its first
    by cross-multiplying in int64 when every product fits. A group where one
    of them is smaller exactly, or where the products may not fit, compares
    its shortlist by cross-multiplying in Python ints, so distinct rationals
    that round to one double (1/3 and 6004799503160661/2**54) are still told
    apart.
    """
    if len(num) == 0:
        return np.zeros(0, dtype=np.intp)
    score = num / den
    new = np.ones(len(group), dtype=bool)
    np.not_equal(group[1:], group[:-1], out=new[1:])
    starts = new.nonzero()[0]
    low = np.zeros(group[-1] + 1)
    low[group[starts]] = np.minimum.reduceat(score, starts) * (1.0 + 2.0 ** -50)
    near = (score <= low[group]).nonzero()[0]
    lead = np.ones(len(near), dtype=bool)
    np.not_equal(group[near[1:]], group[near[:-1]], out=lead[1:])
    best = near[lead]
    if len(best) < len(near):
        of = lead.cumsum() - 1  # each shortlisted candidate's run
        rest, doubt = near[~lead], of[~lead]
        head = best[doubt]
        if int(num[near].max()) * int(den[near].max()) < 2 ** 63:
            doubt = doubt[num[rest] * den[head] < num[head] * den[rest]]
        for g in np.unique(doubt).tolist():
            for i in near[of == g].tolist():
                if int(num[i]) * int(den[best[g]]) < int(num[best[g]]) * int(den[i]):
                    best[g] = i
    return best


def grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int | None = 4,
              min_leaf: int = 1) -> Tree:
    """Greedy CART on a finite feature matrix and a label array in {0, 1}.

    max_depth is None or an integer >= 1 and min_leaf an integer >= 1. A
    non-finite value in X raises InvalidInputError naming its column.

    X is encoded once (encode_columns) and the tree grown from the codes
    (grow_forest with one root), so no node sorts or copies X's rows.
    """
    return grow_forest(encode_columns(X), y, [np.arange(len(y))], max_depth, min_leaf)[0]


def grow_forest(codes: ColumnCodes, y: np.ndarray, roots: list[np.ndarray],
                max_depth: int | None = 4, min_leaf: int = 1,
                rng: np.random.Generator | None = None,
                max_features: int | None = None) -> list[Tree]:
    """One greedy CART per array of rows in roots, all grown together one
    depth at a time. Rows may repeat, and a repeated row counts once per
    occurrence, as if it were copied.

    max_features, None or an integer >= 1, is the number of candidate
    columns sampled per split (random forests); sampling draws from rng,
    which must then be given, and the tie rule applies within the sample.

    A level holds the nodes of every tree that attempt a split: those with
    at least 2 * min_leaf rows of both classes, above max_depth, ordered by
    tree, then left to right. When max_features samples columns, each such
    node takes the next d doubles of rng.random, in that order, and scores
    the max_features columns with the smallest (a stable argsort), in
    ascending order (k columns in all, k = d without sampling).

    The level's nodes are then split in batches of consecutive nodes
    (_best_splits), each as many as fit two bounds from the fit's own
    sizes, or one node where one alone does not: a batch gathers no more
    (row, column) entries than the n x d codes hold, as the unsampled root
    does, and holds no more distinct (node, column, value) triples than a
    root scoring k columns can, n x k, by gathering no more entries or
    counting no more bins than that. The rows of each node that splits go
    to its children with one comparison and a stable regrouping. A split
    whose children would lie deeper than MAX_TREE_DEPTH raises
    InvalidInputError. The trees share one record: the roots, then the two
    children of each split in the order made, split s's at len(roots) + 2s.
    """
    check_count("max_depth", max_depth, None)
    check_count("min_leaf", min_leaf)
    check_count("max_features", max_features, None)
    for rows in roots:
        if len(rows) >= MAX_CART_ROWS:
            raise InvalidInputError(f"CART takes fewer than {MAX_CART_ROWS} rows, got {len(rows)}")
    d = codes.bins.shape[1]
    k = d if max_features is None else min(int(max_features), d)
    if k < d and rng is None:
        raise InvalidInputError(
            f"max_features {max_features} samples from {d} columns and needs an rng, not None")
    budget, bin_budget = max(codes.bins.size, 1), max(codes.bins.shape[0] * k, 1)
    sizes = np.diff(codes.starts)
    class1 = np.asarray(y) == 1
    n = np.array([len(rows) for rows in roots], dtype=np.int64)
    n1 = np.array([np.count_nonzero(class1[rows]) for rows in roots], dtype=np.int64)
    # the record's chunks: the (node, feature, threshold) of each batch's
    # splits, and the (n, n1) of the roots, then of each split's children
    splits = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    counts = [np.column_stack([n, n1])]
    ids = np.arange(len(roots))  # the record index of each node of the level
    rows = np.concatenate([np.zeros(0, np.intp), *roots])  # grouped by node
    depth = 0  # of the level's nodes
    while True:
        grows = (n >= 2 * min_leaf) & (n1 > 0) & (n1 < n) & (d > 0) & (depth != max_depth)
        rows = rows[np.repeat(grows, n)]
        ids, n, n1 = ids[grows], n[grows], n1[grows]
        if not len(ids):
            break
        m = len(ids)
        if k < d:
            chunk = max(1, bin_budget // d)
            fids = np.concatenate([
                np.sort(np.argsort(rng.random((min(chunk, m - a), d)), axis=1,
                                   kind="stable")[:, :k], axis=1)
                for a in range(0, m, chunk)])
        else:
            fids = np.broadcast_to(np.arange(d), (m, d))
        node_bins = sizes[fids].sum(axis=1)
        entries_end, bins_end, rows_end = (n * k).cumsum(), node_bins.cumsum(), n.cumsum()
        level_chunk, level = len(counts), []
        a = 0
        while a < m:
            # the longest run of nodes from a within both bounds, at least one
            e_before, b_before = entries_end[a] - n[a] * k, bins_end[a] - node_bins[a]
            b = max(a + 1, min(
                np.searchsorted(entries_end, e_before + budget, side="right"),
                max(np.searchsorted(entries_end, e_before + bin_budget, side="right"),
                    np.searchsorted(bins_end, b_before + bin_budget, side="right"))))
            nb, nb1 = n[a:b], n1[a:b]
            batch = rows[rows_end[a] - nb[0]:rows_end[b - 1]]
            split, feature, lo, threshold, n_left, n_left1 = _best_splits(
                codes, class1, batch, nb, nb1, min_leaf, fids[a:b])
            if depth >= MAX_TREE_DEPTH and split.size:  # the children would lie deeper
                raise InvalidInputError(f"a tree would grow past depth {MAX_TREE_DEPTH}; "
                                        f"set max_depth to at most {MAX_TREE_DEPTH}")
            route_f = np.full(b - a, -1, dtype=np.intp)  # -1: the node does not split
            route_lo = np.zeros(b - a, dtype=codes.bins.dtype)
            route_f[split], route_lo[split] = feature, lo
            node = np.repeat(np.arange(b - a), nb)
            moved = route_f[node] >= 0
            # the rows of batch node j's left child, then its right child
            child = 2 * node + (codes.bins[batch, route_f[node]] > route_lo[node])
            level.append(batch[moved][np.argsort(child[moved], kind="stable")])
            splits.append((ids[a + split], feature, threshold))
            counts.append(np.column_stack([n_left, n_left1, nb[split] - n_left,
                                           nb1[split] - n_left1]).reshape(-1, 2))
            a = b
        kids = np.concatenate(counts[level_chunk:])  # they follow the chunks before
        ids = sum(map(len, counts)) - len(kids) + np.arange(len(kids))
        n, n1, rows = kids[:, 0], kids[:, 1], np.concatenate(level)
        depth += 1
    at, feature, threshold = map(np.concatenate, zip(*splits))
    nodes = np.zeros(sum(map(len, counts)), dtype=_NODE)
    nodes["feature"] = nodes["left"] = nodes["right"] = -1
    nodes["n_samples"], nodes["n_class1"] = np.concatenate(counts).T
    nodes["feature"][at], nodes["threshold"][at] = feature, threshold
    nodes["left"][at] = len(roots) + 2 * np.arange(len(at))
    nodes["right"][at] = nodes["left"][at] + 1
    return [Tree(nodes, i) for i in range(len(roots))]


def train_cart(ds: Dataset, max_depth: int | None = 4, min_leaf: int = 1) -> Tree:
    """CART over a dataset; single-class data yields a single leaf."""
    X, y = to_matrix(ds)
    if len(y) == 0:
        raise InsufficientDataError("cannot train on an empty dataset")
    return grow_tree(X, y, max_depth, min_leaf)


def leaf_purity(trees: list[Tree], X: np.ndarray) -> np.ndarray:
    """The purity of the leaf each row x of X reaches in each of trees, which
    share one record, as a (len(trees), len(X)) array. Each step moves every
    (tree, row) pair down one level in one gather, left where x[feature] <=
    threshold (so a NaN goes right); a leaf routes its pairs to itself."""
    nodes = trees[0].nodes
    if any(tree.nodes is not nodes for tree in trees):
        raise InvalidInputError("leaf_purity needs trees that share one record")
    leaf = nodes["feature"] < 0
    stay = np.arange(len(nodes))
    feature = np.where(leaf, 0, nodes["feature"])
    left, right = np.where(leaf, stay, nodes["left"]), np.where(leaf, stay, nodes["right"])
    at = np.repeat(np.array([tree.at for tree in trees], dtype=np.intp), len(X))
    row = np.tile(np.arange(len(X)), len(trees))
    while not leaf[at].all():
        at = np.where(X[row, feature[at]] <= nodes["threshold"][at], left[at], right[at])
    n = nodes["n_samples"][at]
    purity = np.divide(nodes["n_class1"][at], n, out=np.zeros(len(at)), where=n > 0)
    return purity.reshape(len(trees), len(X))


# ---------------------------------------------------------------------------
# path extraction and evaluation


def _merge_conditions(conds: list[Condition]) -> tuple:
    """Tighten repeated conditions on one feature to a single interval;
    keeps first-occurrence order."""
    tight: dict[tuple, Condition] = {}
    order = []
    for c in conds:
        key = (c.feature, c.op)
        if key not in tight:
            tight[key] = c
            order.append(key)
        else:
            prev = tight[key]
            if (c.op == ">" and c.threshold > prev.threshold) or \
               (c.op == "<=" and c.threshold < prev.threshold):
                tight[key] = c
    return tuple(tight[k] for k in order)


def extract_paths(tree: Tree, min_support: int = 5,
                  min_purity: float = 0.6) -> list[HypothesisPredicate]:
    """Root-to-leaf paths whose leaf has >= min_support rows and class-1
    purity >= min_purity, as predicates; left-to-right traversal order."""
    out = []

    def walk(node: Tree, conds: list[Condition]):
        if node.is_leaf:
            if conds and node.n_samples >= min_support and node.purity >= min_purity:
                out.append(HypothesisPredicate(conditions=_merge_conditions(conds)))
            return
        name = FEATURE_NAMES[node.feature]
        walk(node.left, conds + [Condition(name, "<=", node.threshold)])
        walk(node.right, conds + [Condition(name, ">", node.threshold)])

    walk(tree, [])
    return out


def evaluate_hypothesis(pred: HypothesisPredicate,
                        ds: Dataset) -> tuple[ContingencyTable, ExactTestResult]:
    """Score a predicate: membership in S against the conflict label."""
    X, y = to_matrix(ds)
    member = pred.matches(X)
    n_in, n = int(member.sum()), len(y)
    if n_in == 0 or n_in == n:
        raise DegeneratePartitionError(
            f"predicate [{pred.describe()}] selects {n_in} of {n} cells")
    a = int(y[member].sum())
    c = int(y[~member].sum())
    table = ContingencyTable(a=a, b=n_in - a, c=c, d=n - n_in - c)
    return table, exact_test(table)


# ---------------------------------------------------------------------------
# built-in benchmark hypotheses (Hyp3..Hyp10)


@dataclass(frozen=True)
class BuiltinHypothesis:
    """A curated predicate with its frozen reference statistics, used as a
    golden regression fixture."""

    name: str
    country: str
    predicate: HypothesisPredicate
    table: ContingencyTable
    odds_ratio: float
    ci_low: float
    ci_high: float
    p: float


def _pred(*conds) -> HypothesisPredicate:
    return HypothesisPredicate(conditions=tuple(Condition(f, op, t) for f, op, t in conds))


_BUILTINS = (
    BuiltinHypothesis(
        name="Hyp3", country="Cameroon",
        predicate=_pred(("NBRC1", ">", 9.5), ("SSW4", "<=", 0.09)),
        table=ContingencyTable(11, 1, 2, 126),
        odds_ratio=693.0, ci_low=58.13, ci_high=8261.12, p=1.36e-13),
    BuiltinHypothesis(
        name="Hyp4", country="CAR",
        predicate=_pred(("NBRC1", ">", 5.5), ("RH2M5", "<=", 0.059), ("SSW8", "<=", 0.274)),
        table=ContingencyTable(14, 2, 24, 136),
        odds_ratio=39.67, ci_low=8.471, ci_high=185.74, p=4.66e-9),
    BuiltinHypothesis(
        name="Hyp5", country="CAR",
        predicate=_pred(("NBRC1", ">", 5.5), ("RH2M5", ">", 0.059), ("NBRC1", ">", 31.5)),
        table=ContingencyTable(8, 3, 30, 135),
        odds_ratio=12.0, ci_low=3.005, ci_high=47.92, p=2.47e-4),
    BuiltinHypothesis(
        name="Hyp6", country="Chad",
        predicate=_pred(("T2M_MIN8", ">", 0.376), ("SSW8", "<=", 0.054)),
        table=ContingencyTable(5, 3, 22, 191),
        odds_ratio=14.47, ci_low=3.236, ci_high=64.71, p=8.25e-4),
    BuiltinHypothesis(
        name="Hyp7", country="Chad",
        predicate=_pred(("T2M_MIN8", ">", 0.376), ("SSW8", ">", 0.054), ("NBRC1", ">", 15.5)),
        table=ContingencyTable(10, 4, 17, 190),
        odds_ratio=27.94, ci_low=7.916, ci_high=98.63, p=9.98e-8),
    BuiltinHypothesis(
        name="Hyp8", country="Chad",
        predicate=_pred(("T2M_MIN8", ">", 0.376), ("SSW8", ">", 0.054),
                        ("NBRC1", "<=", 15.5), ("SSW10", ">", 0.038)),
        table=ContingencyTable(5, 2, 22, 192),
        odds_ratio=21.82, ci_low=3.993, ci_high=119.21, p=3.38e-4),
    BuiltinHypothesis(
        name="Hyp9", country="DRC",
        predicate=_pred(("NBRC1", ">", 4.5), ("WS10M_MIN3", "<=", 0.306), ("T2M_MIN9", ">", 0.027)),
        table=ContingencyTable(5, 1, 25, 475),
        odds_ratio=95.0, ci_low=10.69, ci_high=844.08, p=3.02e-6),
    BuiltinHypothesis(
        name="Hyp10", country="DRC",
        predicate=_pred(("NBRC1", ">", 4.5), ("WS10M_MIN3", ">", 0.306)),
        table=ContingencyTable(11, 3, 19, 473),
        odds_ratio=91.28, ci_low=23.51, ci_high=354.39, p=1.43e-12),
)


def builtin_hypotheses() -> dict[str, BuiltinHypothesis]:
    return {bh.name: bh for bh in _BUILTINS}


def golden_dataset(bh: BuiltinHypothesis) -> Dataset:
    """Reconstruct a dataset realizing a built-in hypothesis' table:
    (a+b) rows satisfying the predicate, a of them labelled 1, and (c+d)
    rows violating the first condition, c of them labelled 1; row i sits
    in cell (0, i)."""
    t = bh.table
    templates = np.stack([_template_vector(bh.predicate, satisfy=True),
                          _template_vector(bh.predicate, satisfy=False)])
    X = np.repeat(templates, [t.n_in, t.n_out], axis=0)
    y = np.r_[np.arange(t.n_in) < t.a, np.arange(t.n_out) < t.c].astype(int)
    cells = np.column_stack([np.zeros(t.total, dtype=int), np.arange(t.total)])
    return Dataset(cells=cells, X=X, y=y)


def _interval_value(lo: float | None, hi: float | None, integral: bool) -> float:
    """A value inside (lo, hi]; lo/hi None means unbounded on that side."""
    if integral:
        if lo is None:
            return 0.0  # count features are non-negative, 0 <= hi
        v = float(np.floor(lo) + 1.0)
        if hi is not None and v > hi:
            raise InvalidInputError(f"no integer satisfies ({lo}, {hi}]")
        return v
    if lo is not None and hi is not None:
        return 0.5 * (lo + hi)
    if lo is not None:
        return lo + 0.1
    return 0.5 * hi


def _template_vector(pred: HypothesisPredicate, satisfy: bool) -> np.ndarray:
    bounds: dict[str, list] = {}  # feature: [lo from '>', hi from '<='], in first-use order
    for c in _merge_conditions(pred.conditions):
        bounds.setdefault(c.feature, [None, None])[0 if c.op == ">" else 1] = c.threshold
    nh = len(HIST_FEATURE_NAMES)
    x = np.zeros(N_FEATURES)
    hist = x[:nh].reshape(len(VARIABLES), N_BINS)  # a view: variable x bin
    used_mass = np.zeros(len(VARIABLES))
    taken = np.zeros(hist.shape, dtype=bool)
    nbr_count = np.zeros(5, dtype=int)
    for k, (feat, (lo, hi)) in enumerate(bounds.items()):
        integral = feat.startswith("NBRC") or feat.startswith("NBRP")
        if satisfy or k > 0:
            v = _interval_value(lo, hi, integral)
        elif lo is not None:  # violate exactly the first condition
            v = 0.0
        else:
            v = float(np.ceil(hi) + 1.0) if integral else hi + 0.5 * (1.0 - hi)
        i = FEATURE_INDEX[feat]
        if i < nh:
            var, b = divmod(i, N_BINS)
            hist[var, b] = v
            used_mass[var] += v
            taken[var, b] = True
        elif feat.startswith("NBRC"):
            nbr_count[i - nh - 5] = int(v)
    # make each variable's histogram sum to 1 in its first bin no condition set
    for var in range(len(VARIABLES)):
        hist[var, np.flatnonzero(~taken[var])[0]] = 1.0 - used_mass[var]
    # counts are non-decreasing over nested neighborhoods
    nbr_count = np.maximum.accumulate(nbr_count)
    x[nh:nh + 5] = nbr_count > 0
    x[nh + 5:] = nbr_count
    return x


# ---------------------------------------------------------------------------
# tree export and hypothesis reports


def trees_to_dicts(trees: list[Tree]) -> list[dict]:
    """Each tree as nested dicts, without recursion. Each record's columns
    are read once (.tolist()): every node's dict takes its counts, and then
    each split's dict its feature, threshold and children's dicts."""
    docs, nodes, encoded = [], None, []
    for tree in trees:
        if tree.nodes is not nodes:
            nodes = tree.nodes
            feature, threshold, left, right, n, n1 = (nodes[f].tolist() for f in _NODE.names)
            encoded = [{"n_samples": a, "n_class1": b} for a, b in zip(n, n1)]
            for i in np.flatnonzero(nodes["feature"] >= 0).tolist():
                doc = encoded[i]
                doc["feature"], doc["threshold"] = FEATURE_NAMES[feature[i]], threshold[i]
                doc["left"], doc["right"] = encoded[left[i]], encoded[right[i]]
        docs.append(encoded[tree.at])
    return docs


def trees_from_dicts(docs: list) -> list[Tree]:
    """The trees that trees_to_dicts encoded as docs, in one record laid out
    as grow_forest lays out a forest: the roots, then the two children of
    each split in breadth-first order. No recursion."""
    queue, rows = list(docs), []
    for doc in queue:  # each split appends its children
        split = (-1, 0.0, -1, -1)  # a leaf's feature, threshold and children
        if "feature" in doc:
            split = (FEATURE_NAMES.index(doc["feature"]), float(doc["threshold"]),
                     len(queue), len(queue) + 1)
            queue += [doc["left"], doc["right"]]
        rows.append(split + (int(doc["n_samples"]), int(doc["n_class1"])))
    nodes = np.array(rows, dtype=_NODE)
    return [Tree(nodes, i) for i in range(len(docs))]


def tree_to_dot(node: Tree) -> str:
    """Graphviz digraph of the tree (left edge = condition holds)."""
    lines = ["digraph cart {", "  node [shape=box];"]
    counter = [0]

    def emit(n: Tree) -> int:
        nid = counter[0]
        counter[0] += 1
        if n.is_leaf:
            lines.append(f'  n{nid} [label="class1 {n.n_class1}/{n.n_samples}"];')
        else:
            lines.append(
                f'  n{nid} [label="{FEATURE_NAMES[n.feature]} <= {n.threshold:g}\\n'
                f'class1 {n.n_class1}/{n.n_samples}"];')
            lid = emit(n.left)
            rid = emit(n.right)
            lines.append(f'  n{nid} -> n{lid} [label="yes"];')
            lines.append(f'  n{nid} -> n{rid} [label="no"];')
        return nid

    emit(node)
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_tree(node: Tree, path) -> None:
    write_json(path, trees_to_dicts([node])[0], indent=2)


def load_tree(path) -> Tree:
    """Inverse of save_tree; a damaged file raises InvalidInputError naming it."""
    return read_json(path, "tree", lambda doc: trees_from_dicts([doc])[0])


def write_hypothesis_csv(results, path) -> None:
    """The exact-test report: one row per (country, name, table, result)."""
    write_table(path, ["Country", "Hypothesis", "Count S", "% S", "Count S̄", "% S̄",
                       "Odds Ratio", "95% CI lower", "95% CI upper", "P-value"],
                ([country, name, t.a, 100.0 * t.a / t.n_in, t.c, 100.0 * t.c / t.n_out,
                  r.odds_ratio, r.ci_low, r.ci_high, r.p] for country, name, t, r in results))
