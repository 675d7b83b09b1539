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
values once; a node's split search then counts its rows per value with
np.bincount instead of sorting them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import read_json, write_json, write_table
from .errors import DegeneratePartitionError, InvalidInputError
from .features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    HIST_FEATURE_NAMES,
    N_BINS,
    N_FEATURES,
    Dataset,
    to_matrix,
)
from .ingest import VARIABLES
from .stats import ContingencyTable, ExactTestResult, exact_test


@dataclass
class TreeNode:
    """Internal node (feature/threshold set) or leaf (both None)."""

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

#: row limit below which every split score's integer numerator fits int64
MAX_CART_ROWS = 2 ** 22


def midpoint(a, b):
    """A threshold t with a <= t < b between finite a < b (floats or arrays).

    (a + b) / 2 where that is finite and below b, else a / 2 + b / 2 where
    that lies in [a, b), else a. The plain midpoint overflows for large a
    and b, and rounds up to b when they are adjacent doubles; either way a
    split at it would send b's rows to the left with a's. Two scalars take
    the same steps on Python floats and give a Python float.
    """
    if isinstance(a, float) and isinstance(b, float):
        a, b = float(a), float(b)
        mid = (a + b) / 2.0
        if mid < b and math.isfinite(mid):
            return mid
        half = a / 2.0 + b / 2.0
        return half if a <= half < b else a
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
    sizes and ranks serve fits that sample columns, made once on first use.
    """

    bins: np.ndarray    # (n, d) int32, or int64 when n * d >= 2**31
    values: np.ndarray  # (starts[-1],) float64
    starts: np.ndarray  # (d + 1,) int64

    @cached_property
    def sizes(self) -> np.ndarray:
        """(d,) the number of distinct values of each column."""
        return np.diff(self.starts).astype(self.bins.dtype)

    @cached_property
    def ranks(self) -> np.ndarray:
        """(d, n): ranks[j, i] = bins[i, j] - starts[j], X[i, j]'s rank in
        column j, feature-major so that a node gathers the columns it
        scores with one index."""
        return np.subtract(self.bins.T, self.starts[:-1, None], dtype=self.bins.dtype, order="C")


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


def _best_split(codes: ColumnCodes, rows: np.ndarray, n1: int, min_leaf: int,
                feature_ids: np.ndarray) -> tuple[int, float, np.ndarray, int, int] | None:
    """Split of the node holding rows minimizing weighted gini impurity, or
    None; as (feature, threshold, go_left, n_left, n_left_class1), go_left
    marking the rows whose value is at most threshold.

    rows index codes, hold the node's n1 class-1 rows first, and may repeat
    (a bootstrap sample counts a repeated row as often as it is drawn).
    feature_ids are the columns scored, ascending; a sample of the columns
    is gathered from codes.ranks and shifted so that its values get
    consecutive bins. Two np.bincount calls over the node's bins, the second
    over its class-1 rows alone, and cumulative sums of the nonzero bins
    give every candidate's left-side counts; a column holds every row once,
    so running count c falls in scored column (c - 1) // len(rows). The
    work is O(len(rows) * k + B) for k columns holding B distinct values in
    all; no node sorts.

    Candidate thresholds are the midpoints between consecutive distinct
    values of each feature within the node, in (feature, threshold) order.
    A candidate's score is the rational N/D with integers N = aL*bL*nR +
    aR*bR*nL and D = nL*nR (half the gini numerator), where N <= n^3/16
    fits int64 for n < MAX_CART_ROWS. The least score is found exactly
    (_exact_argmin); ties go to the lowest feature index, then the lowest
    threshold.
    """
    n = len(rows)
    if len(feature_ids) == len(codes.starts) - 1:
        first, n_bins = codes.starts[:-1], len(codes.values)
        gathered = codes.bins[rows]  # whole rows gather faster than columns by index
        by_column, of_class1 = gathered.T, gathered[:n1]
    else:
        sizes = codes.sizes[feature_ids]
        first = sizes.cumsum(dtype=sizes.dtype)
        n_bins = int(first[-1])
        first -= sizes
        gathered = codes.ranks[feature_ids[:, None], rows]
        gathered += first[:, None]
        by_column, of_class1 = gathered, gathered[:, :n1]
    count = np.bincount(gathered.ravel(), minlength=n_bins)
    present = (count != 0).nonzero()[0]  # (feature, value) order
    nL = count[present].cumsum()
    col = (nL - 1) // n
    nL -= col * n
    aL = np.bincount(of_class1.ravel(), minlength=n_bins)[present].cumsum()
    aL -= col * n1
    usable = nL <= n - min_leaf  # a column's last present value has nothing to its right
    if min_leaf > 1:
        usable &= nL >= min_leaf
    cand = usable.nonzero()[0]
    if cand.size == 0:
        return None
    nL, aL = nL[cand], aL[cand]
    nR = n - nL
    aR = n1 - aL
    i = _exact_argmin(aL * (nL - aL) * nR + aR * (nR - aR) * nL, nL * nR)
    k, c = cand[i], int(col[cand[i]])
    lo, feature = present[k], int(feature_ids[c])
    base = codes.starts[feature] - first[c]
    return (feature, midpoint(codes.values[base + lo], codes.values[base + present[k + 1]]),
            by_column[c] <= lo, int(nL[i]), int(aL[i]))


def _exact_argmin(num: np.ndarray, den: np.ndarray) -> int:
    """First index of the least num[i] / den[i] (non-negative int64 arrays,
    den > 0), compared exactly.

    The float64 quotients only shortlist: num and den round by at most half
    an ulp each when converted, and the division once more, so every exact
    minimum's quotient is below m * (1 + 2**-50), m the least quotient.
    The shortlist is then compared by cross-multiplying in Python ints, so
    distinct rationals that round to one double (1/3 and
    6004799503160661/2**54) are still told apart.
    """
    if len(num) == 1:
        return 0
    score = num / den
    near = np.nonzero(score <= score.min() * (1.0 + 2.0 ** -50))[0]
    best = int(near[0])
    for i in near[1:]:
        if int(num[i]) * int(den[best]) < int(num[best]) * int(den[i]):
            best = int(i)
    return best


def grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int | None = 4,
              min_leaf: int = 1, rng: np.random.Generator | None = None,
              max_features: int | None = None) -> TreeNode:
    """Greedy CART on a finite feature matrix and a label array in {0, 1}.

    max_depth is None or at least 1, and min_leaf at least 1. max_features,
    None or at least 1, samples that many candidate feature indices per
    split (used by random forests); the tie rule applies within the sample.
    A non-finite value in X raises InvalidInputError naming its column.

    X is encoded once (encode_columns) and the tree grown from the codes
    (grow_from_codes), so no node sorts or copies X's rows.
    """
    return grow_from_codes(encode_columns(X), y, np.arange(len(y)), max_depth, min_leaf,
                           rng, max_features)


def grow_from_codes(codes: ColumnCodes, y: np.ndarray, rows: np.ndarray,
                    max_depth: int | None = 4, min_leaf: int = 1,
                    rng: np.random.Generator | None = None,
                    max_features: int | None = None) -> TreeNode:
    """grow_tree on the rows of an encoded matrix; rows may repeat, and a
    repeated row counts once per occurrence, as if it were copied.

    Nodes are grown depth first, left before right, each from the indices
    of its rows into the codes, class-1 rows first. A node costs one gather
    of its rows' bins in the columns it scores and two bincounts over them
    (see _best_split), and takes its children's counts from the winning
    candidate. The root of an n-row fit on all d columns holds an (n, d)
    int32 array of bins at most; a node that samples columns gathers them
    from codes.ranks.
    """
    n, d = len(rows), len(codes.starts) - 1
    if n >= MAX_CART_ROWS:
        raise InvalidInputError(f"CART takes fewer than {MAX_CART_ROWS} rows, got {n}")
    if max_depth is not None and max_depth < 1:
        raise InvalidInputError("max_depth must be >= 1 or None")
    if min_leaf < 1:
        raise InvalidInputError("min_leaf must be >= 1")
    if max_features is not None and max_features < 1:
        raise InvalidInputError("max_features must be >= 1 or None")
    sample = max_features is not None and max_features < d
    feature_ids = np.arange(d)
    class1 = y[rows] == 1
    rows = np.concatenate([rows[class1], rows[~class1]])  # children keep this order
    root = TreeNode(n_samples=n, n_class1=int(class1.sum()))
    todo = [(root, rows, max_depth)]
    while todo:
        node, rows, depth_left = todo.pop()
        n, n1 = node.n_samples, node.n_class1
        if n < 2 * min_leaf or n1 in (0, n) or depth_left == 0:
            continue
        if sample:
            feature_ids = rng.choice(d, size=max_features, replace=False)
            feature_ids.sort()
        split = _best_split(codes, rows, n1, min_leaf, feature_ids)
        if split is None:
            continue
        node.feature, node.threshold, go_left, n_left, a_left = split
        node.left = TreeNode(n_samples=n_left, n_class1=a_left)
        node.right = TreeNode(n_samples=n - n_left, n_class1=n1 - a_left)
        child_depth = None if depth_left is None else depth_left - 1
        todo += [(node.right, rows[~go_left], child_depth),
                 (node.left, rows[go_left], child_depth)]
    return root


def train_cart(ds: Dataset, max_depth: int | None = 4, min_leaf: int = 1) -> TreeNode:
    """CART over a dataset; single-class data yields a single leaf."""
    X, y = to_matrix(ds)
    if len(y) == 0:
        raise InvalidInputError("cannot train on an empty dataset")
    return grow_tree(X, y, max_depth, min_leaf)


def predict_leaf(node: TreeNode, vector: np.ndarray) -> TreeNode:
    while not node.is_leaf:
        node = node.left if vector[node.feature] <= node.threshold else node.right
    return node


def leaf_purity(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """predict_leaf(node, x).purity for every row x of X, found by routing
    arrays of row indices down the tree: one comparison per internal node
    that rows reach, not one walk per row."""
    out = np.empty(len(X))
    todo = [(node, np.arange(len(X)))]
    while todo:
        node, rows = todo.pop()
        if node.is_leaf:
            out[rows] = node.purity
        elif rows.size:
            go_left = X[rows, node.feature] <= node.threshold
            todo += [(node.left, rows[go_left]), (node.right, rows[~go_left])]
    return out


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


def extract_paths(tree: TreeNode, min_support: int = 5,
                  min_purity: float = 0.6) -> list[HypothesisPredicate]:
    """Root-to-leaf paths whose leaf has >= min_support rows and class-1
    purity >= min_purity, as predicates; left-to-right traversal order."""
    out = []

    def walk(node: TreeNode, conds: list[Condition]):
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
    bounds: dict[str, list] = {}
    order = []
    for c in pred.conditions:
        if c.feature not in bounds:
            bounds[c.feature] = [None, None]  # (lo from '>', hi from '<=')
            order.append(c.feature)
        if c.op == ">":
            lo = bounds[c.feature][0]
            bounds[c.feature][0] = c.threshold if lo is None else max(lo, c.threshold)
        else:
            hi = bounds[c.feature][1]
            bounds[c.feature][1] = c.threshold if hi is None else min(hi, c.threshold)

    values: dict[str, float] = {}
    for k, feat in enumerate(order):
        lo, hi = bounds[feat]
        integral = feat.startswith("NBRC") or feat.startswith("NBRP")
        if satisfy or k > 0:
            values[feat] = _interval_value(lo, hi, integral)
        else:
            # violate exactly the first condition
            if lo is not None:
                values[feat] = 0.0
            else:
                values[feat] = float(np.ceil(hi) + 1.0) if integral else hi + 0.5 * (1.0 - hi)

    x = np.zeros(N_FEATURES)
    used_mass: dict[str, float] = {}
    cond_bins: dict[str, set] = {}
    for feat, v in values.items():
        if feat in FEATURE_INDEX and not feat.startswith("NBR"):
            x[FEATURE_INDEX[feat]] = v
            var = feat.rstrip("0123456789")
            used_mass[var] = used_mass.get(var, 0.0) + v
            bin_no = int(feat[len(var):]) - 1
            cond_bins.setdefault(var, set()).add(bin_no)
    # make each touched variable's histogram sum to 1
    for vi, var in enumerate(VARIABLES):
        rest = 1.0 - used_mass.get(var, 0.0)
        taken = cond_bins.get(var, set())
        spare = next(b for b in range(N_BINS) if b not in taken)
        x[vi * N_BINS + spare] = rest

    nbr_count = np.zeros(5, dtype=int)
    for j in range(1, 6):
        feat = f"NBRC{j}"
        if feat in values:
            nbr_count[j - 1] = int(values[feat])
    # counts are non-decreasing over nested neighborhoods
    nbr_count = np.maximum.accumulate(nbr_count)
    nh = len(HIST_FEATURE_NAMES)
    x[nh:nh + 5] = nbr_count > 0
    x[nh + 5:] = nbr_count
    return x


# ---------------------------------------------------------------------------
# tree export and hypothesis reports


def tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"n_samples": node.n_samples, "n_class1": node.n_class1}
    return {
        "n_samples": node.n_samples,
        "n_class1": node.n_class1,
        "feature": FEATURE_NAMES[node.feature],
        "threshold": node.threshold,
        "left": tree_to_dict(node.left),
        "right": tree_to_dict(node.right),
    }


def tree_from_dict(d: dict) -> TreeNode:
    node = TreeNode(n_samples=int(d["n_samples"]), n_class1=int(d["n_class1"]))
    if "feature" in d:
        node.feature = FEATURE_NAMES.index(d["feature"])
        node.threshold = float(d["threshold"])
        node.left = tree_from_dict(d["left"])
        node.right = tree_from_dict(d["right"])
    return node


def tree_to_dot(node: TreeNode) -> str:
    """Graphviz digraph of the tree (left edge = condition holds)."""
    lines = ["digraph cart {", "  node [shape=box];"]
    counter = [0]

    def emit(n: TreeNode) -> int:
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


def save_tree(node: TreeNode, path) -> None:
    write_json(path, tree_to_dict(node), indent=2)


def load_tree(path) -> TreeNode:
    """Inverse of save_tree; a damaged file raises InvalidInputError naming it."""
    doc = read_json(path, "tree")
    try:
        return tree_from_dict(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidInputError(f"tree {path} is malformed ({type(exc).__name__}: {exc})") from None


def write_hypothesis_csv(results, path) -> None:
    """The exact-test report: one row per (country, name, table, result)."""
    write_table(path, ["Country", "Hypothesis", "Count S", "% S", "Count S̄", "% S̄",
                       "Odds Ratio", "95% CI lower", "95% CI upper", "P-value"],
                ([country, name, t.a, 100.0 * t.a / t.n_in, t.c, 100.0 * t.c / t.n_out,
                  r.odds_ratio, r.ci_low, r.ci_high, r.p] for country, name, t, r in results))
