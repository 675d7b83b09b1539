import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from oracles import fisher_p_enumerate, welch_p_quad
from pcrisk.errors import InsufficientDataError, InvalidInputError, UndefinedTestError
from pcrisk.features import HIST_FEATURE_NAMES
from pcrisk import stats
from pcrisk.stats import (
    ContingencyTable,
    bonferroni,
    exact_test,
    fisher_exact,
    odds_ratio,
    run_univariate,
    welch_t_test,
    woolf_ci,
    write_univariate_csv,
)

# Table of frozen benchmark 2x2 tables with their reference statistics
BENCH = [
    # (a, b, c, d, OR, ci_low, ci_high, p)
    (11, 1, 2, 126, 693.0, 58.13, 8261.12, 1.36e-13),
    (14, 2, 24, 136, 39.67, 8.471, 185.74, 4.66e-9),
    (8, 3, 30, 135, 12.0, 3.005, 47.92, 2.47e-4),
    (5, 3, 22, 191, 14.47, 3.236, 64.71, 8.25e-4),
    (10, 4, 17, 190, 27.94, 7.916, 98.63, 9.98e-8),
    (5, 2, 22, 192, 21.82, 3.993, 119.21, 3.38e-4),
    (5, 1, 25, 475, 95.0, 10.69, 844.08, 3.02e-6),
    (11, 3, 19, 473, 91.28, 23.51, 354.39, 1.43e-12),
]


class TestWelch:
    def test_identical_samples(self):
        r = welch_t_test([1, 2, 3], [1, 2, 3])
        assert r.diff == 0.0
        assert r.p_raw == 1.0
        assert r.ci_low <= 0.0 <= r.ci_high

    def test_textbook_example(self):
        # oracle: numeric t-tail quadrature gives p = 0.0213116...
        r = welch_t_test([1, 2, 3], [4, 5, 6])
        assert r.diff == 3.0
        assert r.df == pytest.approx(4.0)
        assert r.p_raw == pytest.approx(0.021311641, abs=1e-8)
        assert r.p_raw == pytest.approx(welch_p_quad([1, 2, 3], [4, 5, 6]), abs=1e-9)

    def test_translation_invariance(self):
        r1 = welch_t_test([1.0, 2.0, 4.0], [3.0, 6.0, 7.0])
        r2 = welch_t_test([101.0, 102.0, 104.0], [103.0, 106.0, 107.0])
        assert r1.p_raw == pytest.approx(r2.p_raw, rel=1e-12)
        assert r1.df == pytest.approx(r2.df, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            welch_t_test([1.0], [1.0, 2.0])

    def test_degenerate_zero_variance_equal_means(self):
        r = welch_t_test([2.0, 2.0], [2.0, 2.0])
        assert r.degenerate and r.p_raw == 1.0 and r.diff == 0.0

    def test_degenerate_zero_variance_shifted_means(self):
        r = welch_t_test([2.0, 2.0], [3.0, 3.0])
        assert r.degenerate and r.p_raw == 0.0 and r.diff == 1.0

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_quadrature_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(0, 1, size=int(rng.integers(3, 12)))
        x1 = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=int(rng.integers(3, 12)))
        r = welch_t_test(x0, x1)
        assert r.p_raw == pytest.approx(welch_p_quad(x0, x1), abs=1e-6)

    def test_ci_brackets_diff(self):
        r = welch_t_test([0.0, 1.0, 2.0], [5.0, 6.0, 9.0])
        assert r.ci_low <= r.diff <= r.ci_high

    @pytest.mark.parametrize("seed", [8, 11, 13, 29, 30, 31, 36])
    def test_df_at_extreme_scales(self, seed):
        # each class scaled by its own 10**U(-100, 100); for these seeds the
        # squares in the plain df formula overflow
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=20) * 10.0 ** rng.uniform(-100, 100)
        x1 = rng.normal(size=25) * 10.0 ** rng.uniform(-100, 100)
        r = welch_t_test(x0, x1)
        s0 = Fraction(float(np.var(x0, ddof=1))) / 20
        s1 = Fraction(float(np.var(x1, ddof=1))) / 25
        want = (s0 + s1) ** 2 / (s0 ** 2 / 19 + s1 ** 2 / 24)
        assert r.df == pytest.approx(float(want), rel=1e-12)
        assert 0.0 <= r.p_raw <= 1.0

    def test_df_when_squares_underflow(self):
        # (v / n) ** 2 is 0 for both classes; the exact df is 39.2513816361200...
        rng = np.random.default_rng(0)
        r = welch_t_test(rng.normal(size=20) * 1e-100, rng.normal(size=25) * 1e-100)
        assert r.df == pytest.approx(39.25138163612008, rel=1e-12)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestScipyStatsOracle:
    """p-values and interval bounds equal, bit for bit, what the
    scipy.stats distribution objects give for the same t, df and alpha."""

    def _check_welch(self, x0, x1):
        r = welch_t_test(x0, x1)
        se = math.sqrt(np.var(x0, ddof=1) / len(x0) + np.var(x1, ddof=1) / len(x1))
        t = r.diff / se
        p = 1.0 if t == 0.0 else float(2.0 * sps.t.sf(abs(t), r.df))
        half = float(sps.t.ppf(0.975, r.df)) * se
        assert _bits(r.p_raw) == _bits(p)
        assert _bits(r.ci_low) == _bits(r.diff - half)
        assert _bits(r.ci_high) == _bits(r.diff + half)

    @pytest.mark.parametrize("seed", range(40))
    def test_welch_seeded(self, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-50, 50)
        x0 = rng.normal(0, 1, size=int(rng.integers(2, 400))) * scale
        x1 = (rng.normal(rng.uniform(-2, 2), rng.uniform(0.01, 5),
                         size=int(rng.integers(2, 400))) * scale)
        self._check_welch(x0, x1)

    @pytest.mark.parametrize("x0,x1", [
        ([0.0, 1.0], [5e-324, 1.0]),                 # t subnormal
        ([0.0, 1e-60], [1e60, 1e60]),                # t near 1e120, df 1
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),          # t 0
        (np.arange(50000.0), np.arange(50000.0) + 0.5),  # df near 1e5
    ])
    def test_welch_edges(self, x0, x1):
        self._check_welch(np.asarray(x0), np.asarray(x1))

    @pytest.mark.parametrize("df", [0.0, 5e-324, 0.5, 1.0, 7.3, 1e308, math.inf, math.nan])
    @pytest.mark.parametrize("t", [0.0, 5e-324, 1.96, 1e300, math.inf, math.nan])
    def test_t_ufuncs_at_edges(self, t, df):
        # the identities welch_t_test relies on, at df and t the samples
        # cannot produce
        with np.errstate(all="ignore"):
            assert (_bits(2.0 * stats.special.stdtr(df, -abs(t)))
                    == _bits(2.0 * sps.t.sf(abs(t), df)))
            assert _bits(stats.special.stdtrit(df, 0.975)) == _bits(sps.t.ppf(0.975, df))

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60), st.integers(0, 60),
           st.floats(1e-12, 1.0, exclude_max=True))
    @settings(max_examples=200)
    def test_woolf_bounds(self, a, b, c, d, alpha):
        if a + b + c + d == 0:
            return
        t = ContingencyTable(a, b, c, d)
        lo, hi = woolf_ci(t, alpha)
        ca, cb, cc, cd = (v + 0.5 for v in t.cells()) if t.has_zero_cell else t.cells()
        log_or = math.log((ca * cd) / (cb * cc))
        se = math.sqrt(1 / ca + 1 / cb + 1 / cc + 1 / cd)
        z = float(sps.norm.ppf(1.0 - alpha / 2.0))
        assert _bits(lo) == _bits(math.exp(log_or - z * se))
        assert _bits(hi) == _bits(math.exp(log_or + z * se))


class TestBonferroni:
    def test_basic(self):
        assert bonferroni(0.001, 120) == pytest.approx(0.12)

    def test_cap(self):
        assert bonferroni(0.5, 120) == 1.0

    def test_identity_family(self):
        assert bonferroni(0.037, 1) == 0.037

    @given(st.floats(0, 1), st.integers(1, 1000))
    def test_never_decreases(self, p, m):
        assert bonferroni(p, m) >= p

    @given(st.floats(0, 1), st.integers(1, 100), st.integers(1, 100))
    def test_monotone_in_family(self, p, m1, m2):
        lo, hi = sorted((m1, m2))
        assert bonferroni(p, lo) <= bonferroni(p, hi)


class TestRunUnivariate:
    def _rows(self, shift=0.0, n=40, seed=0):
        from pcrisk.features import Dataset

        rng = np.random.default_rng(seed)
        y = (np.arange(n) < n // 2).astype(int)
        X = np.zeros((n, 120))
        for i in range(n):
            X[i, :110] = rng.random(110)
        X[:, 0] += shift * y
        cells = np.column_stack([np.zeros(n, dtype=int), np.arange(n)])
        return Dataset(cells=cells, X=X, y=y)

    def test_constant_feature_p_one(self):
        ds = self._rows()
        ds.X[:, 3] = 0.5
        res = run_univariate(ds)
        by_name = {r.variable: r for r in res}
        assert by_name[HIST_FEATURE_NAMES[3]].diff == 0.0
        assert by_name[HIST_FEATURE_NAMES[3]].p_bonferroni == 1.0

    def test_planted_shift_detected(self):
        # class-1 mean shifted by ~3 pooled SDs at n=200/class: power ~ 1
        rows = self._rows(shift=3.0 * 0.29, n=400, seed=1)
        res = run_univariate(rows)
        by_name = {r.variable: r for r in res}
        assert by_name[HIST_FEATURE_NAMES[0]].p_bonferroni < 0.05

    def test_all_110_features_tested(self):
        res = run_univariate(self._rows())
        assert len(res) == 110
        assert [r.variable for r in res] == list(HIST_FEATURE_NAMES)

    def test_single_class_rejected(self):
        ds = self._rows()
        with pytest.raises(InsufficientDataError):
            run_univariate(ds.take(ds.y == 0))

    def test_csv_shape(self, tmp_path):
        res = run_univariate(self._rows())
        p = tmp_path / "uni.csv"
        write_univariate_csv(res, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "Variable,Difference in mean,95% CI lower,95% CI upper,Bonferroni P-value"
        assert len(lines) == 111


class TestFisher:
    def test_balanced_table_p_one(self):
        assert fisher_exact(ContingencyTable(5, 5, 5, 5)) == 1.0

    def test_small_table_enumerated(self):
        # margins (3,3,3,3): all four tables have pmf <= observed -> p = 1
        assert fisher_exact(ContingencyTable(2, 1, 1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_margin_raises(self):
        with pytest.raises(UndefinedTestError):
            fisher_exact(ContingencyTable(0, 0, 3, 4))

    @pytest.mark.parametrize("a,b,c,d,orr,lo,hi,p", BENCH)
    def test_benchmark_p_values(self, a, b, c, d, orr, lo, hi, p):
        got = fisher_exact(ContingencyTable(a, b, c, d))
        assert abs(math.log(got / p)) <= math.log(2.0)

    def test_enumeration_oracle_every_table_total_le_12(self):
        for n in range(1, 13):
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    for c in range(n + 1 - a - b):
                        d = n - a - b - c
                        t = ContingencyTable(a, b, c, d)
                        if min(a + b, c + d, a + c, b + d) == 0:
                            continue
                        want = float(fisher_p_enumerate(a, b, c, d))
                        assert fisher_exact(t) == pytest.approx(want, abs=1e-10)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=80)
    def test_row_and_column_swap_invariance(self, a, b, c, d):
        t = ContingencyTable(a, b, c, d)
        swapped = ContingencyTable(d, c, b, a)  # swap rows then columns
        transposed = ContingencyTable(a, c, b, d)
        assert fisher_exact(t) == pytest.approx(fisher_exact(swapped), rel=1e-10)
        assert fisher_exact(t) == pytest.approx(fisher_exact(transposed), rel=1e-10)


class TestOddsRatio:
    @pytest.mark.parametrize("a,b,c,d,orr,lo,hi,p", BENCH)
    def test_benchmark_or(self, a, b, c, d, orr, lo, hi, p):
        assert odds_ratio(ContingencyTable(a, b, c, d)) == pytest.approx(orr, abs=0.01)

    def test_null_table(self):
        assert odds_ratio(ContingencyTable(5, 5, 5, 5)) == 1.0

    def test_zero_cell_haldane(self):
        t = ContingencyTable(5, 0, 2, 10)
        assert odds_ratio(t) == pytest.approx((5.5 * 10.5) / (0.5 * 2.5))
        assert exact_test(t).corrected

    @given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 50), st.integers(1, 50))
    def test_row_swap_reciprocal(self, a, b, c, d):
        t = ContingencyTable(a, b, c, d)
        swapped = ContingencyTable(c, d, a, b)
        assert odds_ratio(t) * odds_ratio(swapped) == pytest.approx(1.0, rel=1e-12)


class TestWoolfCi:
    @pytest.mark.parametrize("a,b,c,d,orr,lo,hi,p", BENCH)
    def test_benchmark_ci(self, a, b, c, d, orr, lo, hi, p):
        got_lo, got_hi = woolf_ci(ContingencyTable(a, b, c, d))
        assert abs(got_lo - lo) / lo <= 0.015
        assert abs(got_hi - hi) / hi <= 0.015

    def test_null_table_contains_one(self):
        lo, hi = woolf_ci(ContingencyTable(5, 5, 5, 5))
        assert lo < 1.0 < hi

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
    def test_brackets_point_estimate(self, a, b, c, d):
        t = ContingencyTable(a, b, c, d)
        lo, hi = woolf_ci(t)
        assert lo <= odds_ratio(t) <= hi

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40),
           st.floats(0.01, 0.2), st.floats(0.01, 0.2))
    @settings(max_examples=60)
    def test_widening_alpha_shrinks_interval(self, a, b, c, d, a1, a2):
        t = ContingencyTable(a, b, c, d)
        lo_a, hi_a = sorted((a1, a2))
        wide = woolf_ci(t, lo_a)
        narrow = woolf_ci(t, hi_a)
        assert wide[0] <= narrow[0] and narrow[1] <= wide[1]

    def test_bad_alpha(self):
        with pytest.raises(InvalidInputError):
            woolf_ci(ContingencyTable(1, 1, 1, 1), alpha=1.5)
