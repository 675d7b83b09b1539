"""Univariate class-difference testing and 2x2 exact inference.

Mean differences between conflict (class 1) and non-conflict (class 0)
cells use a two-sided Welch t-test with a 95% CI and Bonferroni-corrected
p-values. Set-membership hypotheses use Fisher's exact test (two-sided,
minimum-likelihood summation, computed in log space), the sample odds
ratio with Haldane-Anscombe correction for zero cells, and Woolf (logit)
confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special  # not scipy's stats package, which takes about 1 s to import

from .artifacts import write_table
from .errors import InsufficientDataError, InvalidInputError, UndefinedTestError
from .features import HIST_FEATURE_NAMES, FEATURE_INDEX, Dataset, to_matrix

#: tie tolerance when summing hypergeometric point probabilities
FISHER_TIE_REL_TOL = 1e-7


@dataclass(frozen=True)
class MeanDiffResult:
    """Welch test outcome for one feature: mean(class 1) - mean(class 0)."""

    variable: str
    diff: float
    ci_low: float
    ci_high: float
    p_raw: float
    p_bonferroni: float
    df: float
    degenerate: bool = False  # both classes had zero variance


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 counts of attack status against membership in a cell set S.

    a: attacks in S, b: non-attacks in S, c: attacks outside S,
    d: non-attacks outside S.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise InvalidInputError(f"negative cell in contingency table {self}")
        if self.total == 0:
            raise InvalidInputError("empty contingency table")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def n_in(self) -> int:
        """|S|"""
        return self.a + self.b

    @property
    def n_out(self) -> int:
        """|S-complement|"""
        return self.c + self.d

    @property
    def has_zero_cell(self) -> bool:
        return min(self.a, self.b, self.c, self.d) == 0

    def cells(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class ExactTestResult:
    odds_ratio: float
    ci_low: float
    ci_high: float
    p: float
    corrected: bool = False  # Haldane-Anscombe 0.5 applied to a zero cell


# ---------------------------------------------------------------------------
# Welch t-test and Bonferroni correction


def welch_t_test(x0, x1, variable: str = "") -> MeanDiffResult:
    """Two-sided Welch t-test of mean(x1) - mean(x0) with 95% CI.

    When both classes have zero variance the test is degenerate: p is 1
    for equal means and 0 otherwise, and the result is flagged.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if len(x0) < 2 or len(x1) < 2:
        raise InsufficientDataError(
            f"welch_t_test needs >=2 samples per class, got {len(x0)} and {len(x1)}")
    if not (np.isfinite(x0).all() and np.isfinite(x1).all()):
        raise InvalidInputError("samples must be finite")
    m0, m1 = float(x0.mean()), float(x1.mean())
    v0, v1 = float(x0.var(ddof=1)), float(x1.var(ddof=1))
    n0, n1 = len(x0), len(x1)
    diff = m1 - m0
    if v0 == 0.0 and v1 == 0.0:
        p = 1.0 if diff == 0.0 else 0.0
        return MeanDiffResult(variable=variable, diff=diff, ci_low=diff, ci_high=diff,
                              p_raw=p, p_bonferroni=p, df=float(n0 + n1 - 2),
                              degenerate=True)
    s0, s1 = v0 / n0, v1 / n1
    se2 = s0 + s1
    try:
        df = se2 ** 2 / (s0 ** 2 / (n0 - 1) + s1 ** 2 / (n1 - 1))
    except (OverflowError, ZeroDivisionError):
        df = math.nan
    if not math.isfinite(df):
        # a square overflowed or both underflowed; df is unchanged when both
        # terms are divided by the larger one, which keeps every square <= 4
        m = max(s0, s1)
        a, b = s0 / m, s1 / m
        df = (a + b) ** 2 / (a ** 2 / (n0 - 1) + b ** 2 / (n1 - 1))
    se = math.sqrt(se2)
    t = diff / se
    p = 1.0 if t == 0.0 else float(2.0 * special.stdtr(df, -abs(t)))
    half = float(special.stdtrit(df, 0.975)) * se
    return MeanDiffResult(variable=variable, diff=diff,
                          ci_low=diff - half, ci_high=diff + half,
                          p_raw=p, p_bonferroni=p, df=df)


def bonferroni(p: float, m: int) -> float:
    """min(1, m * p)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidInputError(f"p must be in [0, 1], got {p}")
    if m < 1:
        raise InvalidInputError(f"family size must be >= 1, got {m}")
    return min(1.0, m * p)


def run_univariate(ds: Dataset, m: int | None = None) -> list[MeanDiffResult]:
    """Welch test for each of the 110 histogram features, class 1 vs class 0,
    in HIST_FEATURE_NAMES order; the Bonferroni family size defaults to 110.
    """
    X, y = to_matrix(ds)
    n1 = int(y.sum())
    if n1 == 0 or n1 == len(y):
        raise InsufficientDataError("univariate testing needs both classes present")
    if m is None:
        m = len(HIST_FEATURE_NAMES)
    out = []
    for name in HIST_FEATURE_NAMES:
        col = X[:, FEATURE_INDEX[name]]
        res = welch_t_test(col[y == 0], col[y == 1], variable=name)
        out.append(replace(res, p_bonferroni=bonferroni(res.p_raw, m)))
    return out


# ---------------------------------------------------------------------------
# exact 2x2 inference


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact(t: ContingencyTable) -> float:
    """Two-sided Fisher exact p: the sum of hypergeometric probabilities of
    all tables with the observed margins whose point probability does not
    exceed the observed one (relative tie tolerance 1e-7)."""
    r1, r2 = t.n_in, t.n_out
    c1, c2 = t.a + t.c, t.b + t.d
    if min(r1, r2, c1, c2) == 0:
        raise UndefinedTestError(f"zero margin in contingency table {t.cells()}")
    n = t.total
    log_den = _log_comb(n, c1)

    def logpmf(x: int) -> float:
        return _log_comb(r1, x) + _log_comb(r2, c1 - x) - log_den

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    cutoff = logpmf(t.a) + math.log1p(FISHER_TIE_REL_TOL)
    terms = [logpmf(x) for x in range(lo, hi + 1)]
    keep = [lp for lp in terms if lp <= cutoff]
    if len(keep) == len(terms):
        return 1.0  # every table in the support contributes
    m = max(keep)
    p = math.exp(m) * sum(math.exp(lp - m) for lp in keep)
    return min(p, 1.0)


def odds_ratio(t: ContingencyTable) -> float:
    """(a*d)/(b*c); tables with a zero cell get the Haldane-Anscombe +0.5
    applied to every cell."""
    a, b, c, d = _maybe_corrected_cells(t)
    return (a * d) / (b * c)


def woolf_ci(t: ContingencyTable, alpha: float = 0.05) -> tuple[float, float]:
    """Logit-scale normal-approximation CI for the odds ratio."""
    if not 0.0 < alpha < 1.0:
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    a, b, c, d = _maybe_corrected_cells(t)
    log_or = math.log((a * d) / (b * c))
    se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
    z = float(special.ndtri(1.0 - alpha / 2.0))
    return (math.exp(log_or - z * se), math.exp(log_or + z * se))


def exact_test(t: ContingencyTable, alpha: float = 0.05) -> ExactTestResult:
    """Fisher p, odds ratio and Woolf CI in one result."""
    lo, hi = woolf_ci(t, alpha)
    return ExactTestResult(odds_ratio=odds_ratio(t), ci_low=lo, ci_high=hi,
                           p=fisher_exact(t), corrected=t.has_zero_cell)


def _maybe_corrected_cells(t: ContingencyTable) -> tuple[float, float, float, float]:
    if t.has_zero_cell:
        return (t.a + 0.5, t.b + 0.5, t.c + 0.5, t.d + 0.5)
    return (float(t.a), float(t.b), float(t.c), float(t.d))


# ---------------------------------------------------------------------------
# report writing


def write_univariate_csv(results: list[MeanDiffResult], path) -> None:
    write_table(path, ["Variable", "Difference in mean", "95% CI lower", "95% CI upper",
                       "Bonferroni P-value"],
                ([r.variable, r.diff, r.ci_low, r.ci_high, r.p_bonferroni] for r in results))
