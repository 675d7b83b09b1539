import dataclasses
import datetime as dt
import hashlib
import io
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import cell_center, count_parses, square_grid
from oracles import (
    histogram_bin,
    lattice_neighbors,
    read_dataset_csv_per_field,
    write_dataset_csv_per_field,
)
from pcrisk import features
from pcrisk.cli import main as cli_main
from pcrisk.errors import InvalidInputError, MissingVariableError
from pcrisk.ingest import VARIABLES, ConflictEvent, VariableSeries, Window, parse_series
from pcrisk.features import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    HIST_FEATURE_NAMES,
    N_FEATURES,
    BinEdges,
    Dataset,
    assemble_dataset,
    cache_path,
    cache_written_table,
    count_events_per_cell,
    fit_bin_edges,
    histogram_features,
    load_dataset,
    neighbor_counts,
    read_dataset_csv,
    write_dataset_csv,
)

WINDOW = Window(dt.date(2015, 1, 1), dt.date(2016, 12, 31))


def _series(values, variable="LAI", cell=(0, 0)):
    cells = np.tile(cell, (len(values), 1))
    return VariableSeries(variable=variable, cells=cells, samples=np.array(values, dtype=float))


def _hist(values, edges):
    """The histogram of one cell holding values."""
    rows = np.zeros(len(values), dtype=np.int64)
    return histogram_features(_series(values, edges.variable), edges, rows, 1)[0]


class TestBinEdges:
    def test_span_0_100(self):
        # the edges are 0, 10, ..., 100: each opens its bin, the value below
        # it is in the bin before, and 100 closes the last
        e = fit_bin_edges([_series([0.0, 37.0, 100.0])], variables=("LAI",))["LAI"]
        edges = np.arange(0.0, 101.0, 10.0)
        assert e.bins(edges)[0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9]
        assert e.bins(np.nextafter(edges[1:-1], -np.inf))[0].tolist() == list(range(9))

    def test_constant_variable_degenerate(self):
        e = fit_bin_edges([_series([7.0, 7.0])], variables=("LAI",))["LAI"]
        assert e.lo == e.hi == 7.0
        assert e.bins(np.array([6.0, 7.0, 8.0]))[0].tolist() == [0, 0, 0]
        h = _hist([7.0, 7.0], e)
        assert h[0] == 1.0 and h[1:].sum() == 0.0

    def test_negative_span(self):
        e = fit_bin_edges([_series([-5.0, 15.0])], variables=("LAI",))["LAI"]
        # the second edge is -3.0, the first -5.0 and the last 15.0
        got, n_clamped = e.bins(np.array([np.nextafter(-3.0, -np.inf), -3.0, -5.0, 15.0]))
        assert got.tolist() == [0, 1, 0, 9] and n_clamped == 0

    def test_min_max_across_cells(self):
        e = fit_bin_edges([_series([1.0, 2.0]), _series([9.0], cell=(0, 1))],
                          variables=("LAI",))["LAI"]
        assert (e.lo, e.hi) == (1.0, 9.0)

    def test_no_samples_raises(self):
        with pytest.raises(MissingVariableError):
            fit_bin_edges([_series([], variable="GRN")], variables=("GRN",))

    @pytest.mark.parametrize("lo, hi, values, bins", [
        # width (hi - lo) / 10 underflows to 0
        (0.0, 5e-324, [0.0, 5e-324], [0, 9]),
        # width rounds to a multiple of the subnormal step
        (0.0, 3e-323, [k * 5e-324 for k in range(7)], [0, 1, 3, 5, 6, 8, 9]),
        # hi - lo overflows to inf
        (-1.5e308, 1.5e308, [-1e308, 0.0, 1e308], [1, 5, 8]),
    ])
    def test_bin_of_extreme_spans(self, lo, hi, values, bins):
        got, n_clamped = BinEdges("LAI", lo, hi).bins(np.array(values))
        assert got.tolist() == bins and n_clamped == 0

    def test_edges_of_overflowing_span(self):
        # hi - lo overflows, but every edge rounds to a finite float, and
        # those floats and their neighbours go to their exact bins
        lo, hi = -1.5e308, 1.5e308
        edges = [float(Fraction(lo) + k * (Fraction(hi) - Fraction(lo)) / 10) for k in range(11)]
        assert (edges[0], edges[5], edges[10]) == (lo, 0.0, hi)
        values = np.concatenate([edges, np.nextafter(edges[1:], -np.inf),
                                 np.nextafter(edges[:-1], np.inf)])
        got, n_clamped = BinEdges("LAI", lo, hi).bins(values)
        assert n_clamped == 0
        assert got.tolist() == [histogram_bin(v, lo, hi, 10) for v in values.tolist()]
        assert got[[0, 5, 10]].tolist() == [0, 5, 9]

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False),
           st.integers(1, 12), st.integers(0, 12), st.integers(-2, 2))
    def test_bin_of_matches_exact_edges(self, a, b, n_bins, k, ulps):
        # values within two ulps of an exact rational edge lo + k*(hi-lo)/n
        lo, hi = min(a, b), max(a, b)
        assume(lo < hi)
        edge = Fraction(lo) + min(k, n_bins) * (Fraction(hi) - Fraction(lo)) / n_bins
        value = float(edge)
        for _ in range(abs(ulps)):
            value = math.nextafter(value, math.copysign(math.inf, ulps))
        assume(lo <= value <= hi)
        e = BinEdges("LAI", lo, hi, n_bins)
        got, n_clamped = e.bins(np.array([value]))
        assert (got.tolist(), n_clamped) == ([histogram_bin(value, lo, hi, n_bins)], 0)

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 12))
    @example(a=0.0, b=1.0, n_bins=10)  # 0.3 * 10 rounds up to 3.0; 0.3 is in bin 2
    @example(a=0.0, b=5e-324, n_bins=10)  # width underflows to 0
    @example(a=0.0, b=3e-323, n_bins=10)  # width rounds to a multiple of the subnormal step
    @example(a=-1.5e308, b=1.5e308, n_bins=10)  # hi - lo overflows
    @example(a=math.ldexp(-10, 1020), b=math.ldexp(9, 1020), n_bins=10)  # value - lo overflows too
    def test_bins_match_bin_of_and_oracle(self, a, b, n_bins):
        # every exact edge lo + k*(hi-lo)/n, the values within two ulps of
        # it, and the bin midpoints; those beyond lo or hi are clamped
        lo, hi = min(a, b), max(a, b)
        assume(lo < hi)
        lo_q, span = Fraction(lo), Fraction(hi) - Fraction(lo)
        values = [float(lo_q + j * span / (2 * n_bins)) for j in range(2 * n_bins + 1)]
        for k in range(0, 2 * n_bins + 1, 2):
            for direction in (-math.inf, math.inf):
                value = values[k]
                for _ in range(2):
                    value = math.nextafter(value, direction)
                    values.append(value)
        e = BinEdges("LAI", lo, hi, n_bins)
        got, n_clamped = e.bins(np.array(values))
        assert got.dtype == np.int64
        assert n_clamped == sum(v < lo or v > hi for v in values)
        assert got.tolist() == [0 if v < lo else n_bins - 1 if v > hi
                                else histogram_bin(v, lo, hi, n_bins) for v in values]


class TestHistogramFeatures:
    def test_three_values_three_bins(self):
        e = BinEdges("LAI", 0.0, 10.0)
        h = _hist([0.0, 5.0, 10.0], e)
        expect = np.zeros(10)
        expect[[0, 5, 9]] = 1 / 3
        assert np.allclose(h, expect)

    def test_single_bin_mass(self):
        e = BinEdges("LAI", 0.0, 10.0)
        h = _hist([1.1, 1.2, 1.9], e)
        assert h[1] == 1.0

    def test_empty_series_all_zero(self):
        e = BinEdges("LAI", 0.0, 10.0)
        assert _hist([], e).sum() == 0.0

    def test_out_of_range_clamped_with_warning(self, caplog):
        e = BinEdges("LAI", 0.0, 10.0)
        with caplog.at_level("WARNING"):
            h = _hist([-3.0, 12.0, 5.0], e)
        assert h[0] == pytest.approx(1 / 3) and h[9] == pytest.approx(1 / 3)
        assert any("clamped" in r.message for r in caplog.records)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40))
    def test_sums_to_one(self, values):
        e = BinEdges("LAI", -50.0, 50.0)
        h = _hist(values, e)
        assert abs(h.sum() - 1.0) <= 1e-9

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=30), st.randoms())
    def test_order_invariance(self, values, rnd):
        e = BinEdges("LAI", -50.0, 50.0)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        h1 = _hist(values, e)
        h2 = _hist(shuffled, e)
        assert np.array_equal(h1, h2)

    @given(st.lists(st.integers(-10, 10), min_size=2, max_size=25),
           st.integers(-1074, 1020), st.integers(1, 4), st.integers(-5, 5))
    @example(ks=[0, 1], e=-1074, scale=1, j=0)  # width underflows to 0
    @example(ks=[-10, 0, 10], e=1020, scale=1, j=0)  # span overflows
    @example(ks=[-10, 9, 10], e=1020, scale=1, j=0)  # value - lo overflows
    @settings(max_examples=60)
    def test_affine_invariance_with_refit(self, ks, e, scale, j):
        # values k * 2**e and the map scale * v + j * 2**e are exact in
        # float64 (small integers times a power of two), so the real-number
        # invariance holds for the stored floats: the refit bins must hold
        # exactly the same samples.
        values = [math.ldexp(k, e) for k in ks]
        shift = math.ldexp(j, e)
        mapped = [scale * v + shift for v in values]
        assume(all(math.isfinite(v) for v in mapped))
        base = fit_bin_edges([_series(values)], variables=("LAI",))["LAI"]
        h1 = _hist(values, base)
        refit = fit_bin_edges([_series(mapped)], variables=("LAI",))["LAI"]
        h2 = _hist(mapped, refit)
        assert np.array_equal(h1, h2)


class TestNeighborFeatures:
    def test_all_zero_counts(self):
        counts = np.zeros((5, 5), dtype=int)
        assert neighbor_counts(counts).sum() == 0

    def test_single_adjacent_conflict_nested(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[2, 3] = 1
        assert neighbor_counts(counts)[2, 2].tolist() == [1, 1, 1, 1, 1]

    def test_handbuilt_5x5_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 4, size=(5, 5))
        nbr = neighbor_counts(counts)
        for row in range(5):
            for col in range(5):
                for k, j in enumerate((1, 2, 3, 4, 5)):
                    want = sum(counts[r, c] for r, c in lattice_neighbors(5, 5, row, col, j))
                    assert nbr[row, col, k] == want

    def test_counts_monotone_in_j(self):
        rng = np.random.default_rng(1)
        counts = rng.integers(0, 3, size=(6, 6))
        assert (np.diff(neighbor_counts(counts), axis=2) >= 0).all()


def _event(lat, lon, day=dt.date(2015, 6, 15)):
    return ConflictEvent(date=day, lat=lat, lon=lon, country="X",
                         notes="herders")


class TestAssembleDataset:
    def _full_series(self, g, months=3):
        from pcrisk.ingest import synth_country

        series, _ = synth_country(0, g, months)
        return series

    def test_no_events_all_labels_zero(self):
        g = square_grid(3, 3)
        ds = assemble_dataset(g, self._full_series(g), [], WINDOW)
        assert not ds.y.any()

    def test_140_cells_13_conflict_cells(self):
        g = square_grid(10, 14)
        events = []
        for k in range(13):
            lat, lon = cell_center(g, k // 14, k % 14)
            events.append(_event(lat, lon))
            events.append(_event(lat, lon))  # several events in one cell still = 1 label
        ds = assemble_dataset(g, self._full_series(g), events, WINDOW)
        assert len(ds) == 140
        assert ds.y.sum() == 13

    def test_vector_length_is_120(self):
        g = square_grid(3, 3)
        ds = assemble_dataset(g, self._full_series(g), [], WINDOW)
        assert N_FEATURES == 120
        assert ds.X.shape == (9, 120)
        assert len(FEATURE_NAMES) == 120

    def test_event_outside_grid_skipped(self, caplog):
        g = square_grid(3, 3)
        with caplog.at_level("WARNING"):
            ds = assemble_dataset(g, self._full_series(g),
                                  [_event(-45.0, 100.0)], WINDOW)
        assert not ds.y.any()
        assert any("skipped" in r.message for r in caplog.records)

    def test_histograms_sum_to_one_per_variable(self):
        g = square_grid(4, 4)
        ds = assemble_dataset(g, self._full_series(g), [], WINDOW)
        sums = ds.X[:, :110].reshape(-1, 11, 10).sum(axis=2)
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_presence_is_count_derived(self):
        g = square_grid(4, 4)
        lat, lon = cell_center(g, 1, 1)
        ds = assemble_dataset(g, self._full_series(g), [_event(lat, lon)], WINDOW)
        assert ds.X[:, 115:].any()
        assert np.array_equal(ds.X[:, 110:115], ds.X[:, 115:] > 0)

    def test_missing_months_normalise_by_available_samples(self, tmp_path):
        # files source on a 2x2 grid: cell (0,1) has 20 of 24 SSW months and
        # no LAI rows; cell (5,5) is off the grid, so it gets no row, but its
        # samples still set the bin edges
        g = square_grid(2, 2)
        rng = np.random.default_rng(4)
        months = [f"{2015 + m // 12}-{m % 12 + 1:02d}-01" for m in range(24)]
        lines = ["cell_row,cell_col,variable,timestamp,value"]
        for var in VARIABLES:
            for cell in ((0, 0), (0, 1), (1, 0), (1, 1), (5, 5)):
                stamps = months
                if cell == (0, 1):
                    stamps = {"LAI": [], "SSW": months[:6] + months[10:]}.get(var, months)
                for ts in stamps:
                    value = 150.0 if cell == (5, 5) else rng.uniform(0.0, 100.0)
                    lines.append(f"{cell[0]},{cell[1]},{var},{ts},{value!r}")
        p = tmp_path / "series.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        series = parse_series(p, g)
        edges = fit_bin_edges(series)
        assert edges["SSW"].hi == edges["LAI"].hi == 150.0
        ds = assemble_dataset(g, series, [], WINDOW, edges)
        assert ds.cells.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
        ssw_col, lai_col = FEATURE_NAMES.index("SSW1"), FEATURE_NAMES.index("LAI1")
        ssw = next(s for s in series if s.variable == "SSW")
        values = ssw.samples[(ssw.cells == [0, 1]).all(axis=1)]
        assert len(values) == 20
        counts = np.bincount([histogram_bin(v, edges["SSW"].lo, 150.0, 10)
                              for v in values.tolist()], minlength=10)
        got = ds.X[1, ssw_col:ssw_col + 10]
        assert np.array_equal(got, counts / 20)
        assert abs(got.sum() - 1.0) <= 1e-12
        assert not ds.X[1, lai_col:lai_col + 10].any()
        assert np.allclose(ds.X[[0, 2, 3], lai_col:lai_col + 10].sum(axis=1), 1.0)

    def test_second_record_of_a_variable_rejected(self):
        g = square_grid(2, 2)
        series = self._full_series(g)
        with pytest.raises(InvalidInputError, match="duplicate series for variable LAI"):
            assemble_dataset(g, series + series[:1], [], WINDOW)

    def test_deterministic_row_order(self):
        g = square_grid(3, 4)
        s = self._full_series(g)
        d1 = assemble_dataset(g, s, [], WINDOW)
        d2 = assemble_dataset(g, s, [], WINDOW)
        assert np.array_equal(d1.cells, d2.cells)
        assert d1.cells.tolist() == sorted(d1.cells.tolist())


#: floats whose text is easy to get wrong, repeated so tables share values
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e-7)
_INT64 = (-2 ** 63, 2 ** 63 - 1, 0, 1, -1)


#: values a table can hold that the text does not give back: histogram
#: values the parse rejects, and neighbor features that are not int64 integers
#: or are -0.0, which is written as 0
_INEXACT_HIST = (math.nan, math.inf, -math.inf)
_INEXACT_COUNTS = (2.5, -0.0, 2.0 ** 63, -2.0 ** 63 - 2048, 1e300)


@st.composite
def _datasets(draw, inexact: bool = False):
    """Tables of 0 to 5 rows: edge-case and random finite histogram values,
    int64 extremes in row, col and label, and neighbor features that are
    integers in the int64 range. If inexact, a table may also hold a value
    of _INEXACT_HIST, a value of _INEXACT_COUNTS, or an array in another
    order or dtype than the parse's."""
    n = draw(st.integers(0, 5))
    hist = st.one_of(st.sampled_from(_EDGE_FLOATS),
                     st.floats(allow_nan=False, allow_infinity=False))
    counts = st.one_of(st.sampled_from((-2.0 ** 63, 2.0 ** 63 - 1024, 0.0, 1.0, 2.0 ** 53 + 2)),
                       st.integers(-2 ** 53, 2 ** 53).map(float))
    ints = st.one_of(st.sampled_from(_INT64), st.integers(-2 ** 63, 2 ** 63 - 1))
    n_hist = len(HIST_FEATURE_NAMES)
    X = np.hstack([draw(arrays(np.float64, (n, n_hist), elements=hist)),
                   draw(arrays(np.float64, (n, N_FEATURES - n_hist), elements=counts))])
    ds = Dataset(cells=draw(arrays(np.int64, (n, 2), elements=ints)), X=X,
                 y=draw(arrays(np.int64, (n,), elements=ints)))
    if not inexact:
        return ds
    for values, columns in ((_INEXACT_HIST, (0, n_hist - 1)),
                            (_INEXACT_COUNTS, (n_hist, N_FEATURES - 1))):
        if n and draw(st.booleans()):
            X[draw(st.integers(0, n - 1)), draw(st.integers(*columns))] = draw(
                st.sampled_from(values))
    layout = draw(st.sampled_from(("parse", "fortran_cells", "fortran_X", "int32_y")))
    if layout == "parse":
        return ds
    if layout == "int32_y":
        return dataclasses.replace(ds, y=ds.y.astype(np.int32))
    field = layout.removeprefix("fortran_")
    return dataclasses.replace(ds, **{field: np.asfortranarray(getattr(ds, field))})


class TestDatasetCsv:
    def test_roundtrip(self, tmp_path, small_country):
        _, _, _, _, ds = small_country
        p = tmp_path / "ds.csv"
        write_dataset_csv(ds, p)
        back = read_dataset_csv(p)
        assert np.array_equal(back.cells, ds.cells)
        assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

    @settings(max_examples=150, deadline=None)
    @given(ds=_datasets())
    def test_writes_per_field_bytes_and_reads_back_the_bits(self, ds):
        with tempfile.TemporaryDirectory() as d:
            ours, oracle = Path(d) / "ours.csv", Path(d) / "oracle.csv"
            write_dataset_csv(ds, ours)
            write_dataset_csv_per_field(ds, oracle)
            assert ours.read_bytes() == oracle.read_bytes()
            back = read_dataset_csv(ours)
        assert back.X.dtype == np.float64 and back.X.shape == ds.X.shape
        assert np.array_equal(back.X.view(np.int64), ds.X.view(np.int64))
        assert np.array_equal(back.cells, ds.cells) and np.array_equal(back.y, ds.y)

    @settings(max_examples=150, deadline=None)
    @given(ds=st.one_of(_datasets(), _datasets(inexact=True)))
    def test_written_table_is_cached_iff_the_parse_gives_it_back(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "dataset.csv"
            cache_path(path).write_bytes(b"the cache of an earlier table")
            digest = write_dataset_csv(ds, path)
            assert digest == hashlib.sha256(path.read_bytes()).digest()
            cache_written_table(path, digest, ds)
            try:
                parse = read_dataset_csv(path)
            except InvalidInputError:
                parse = None
            if parse is not None and _same_table(parse, ds):
                # the cache the first reader would have written, byte for byte
                assert cache_path(path).read_bytes() == _npy(
                    np.frombuffer(digest, dtype=np.uint8), parse.cells, parse.X, parse.y)
            else:
                assert not cache_path(path).exists()

    @pytest.mark.parametrize("name, value", [
        ("LAI1", math.nan), ("NBRC1", 2.5), ("NBRC1", -0.0), ("NBRC1", 2.0 ** 63)])
    def test_inexact_table_removes_the_cache(self, tmp_path, small_country, name, value):
        exact = small_country[4]
        X = exact.X.copy()
        X[3, FEATURE_INDEX[name]] = value
        ds = dataclasses.replace(exact, X=X)
        path = tmp_path / "dataset.csv"
        cache_written_table(path, write_dataset_csv(exact, path), exact)
        assert cache_path(path).exists()
        cache_written_table(path, write_dataset_csv(ds, path), ds)
        assert not cache_path(path).exists()
        if name == "LAI1" or value == 2.0 ** 63:
            with pytest.raises(InvalidInputError, match="line 5"):
                load_dataset(path)
        else:
            back, _ = load_dataset(path)
            assert _same_table(back, read_dataset_csv(path)) and not _same_table(back, ds)

    @pytest.mark.parametrize("config, cell_km", [
        ("demo", 100), ("demo", 75), ("demo", 50), ("demo", 25), ("c10", 100), ("c10", 75)])
    def test_built_tables_match_per_field_io(self, tmp_path, monkeypatch, config, cell_km):
        # every field of every row of the tables the CLI builds: the parsed
        # bits are float()'s and int()'s, and writing them again gives the
        # per-field writer's bytes, which are the file's
        if config == "demo":
            doc = json.loads((Path(__file__).resolve().parent.parent / "configs"
                              / "synthetic_demo.json").read_text(encoding="utf-8"))
        else:  # the determinism criterion's config
            doc = {"country": "Det", "bbox": [0.0, 10.0, 6.2, 17.4],
                   "window": {"start": "2015-01-01", "end": "2016-06-30"},
                   "source": {"kind": "synthetic", "months": 18,
                              "planted": {"odds_ratio": 30.0, "base_rate": 0.1}},
                   "seed": 13}
        doc["cell_km"] = cell_km
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["build-dataset", "--config", str(cfg), "--out-dir", str(out)]) == 0
        built = out / "dataset.csv"
        ds = read_dataset_csv(built)
        cells, X, y = read_dataset_csv_per_field(built)
        assert np.array_equal(ds.X.view(np.int64), X.view(np.int64))
        assert np.array_equal(ds.cells, cells) and np.array_equal(ds.y, y)
        write_dataset_csv(ds, tmp_path / "again.csv")
        write_dataset_csv_per_field(ds, tmp_path / "oracle.csv")
        assert ((tmp_path / "again.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
                == built.read_bytes())
        # build-dataset cached the parse, so a load parses nothing
        assert cache_path(built).exists()
        parses = count_parses(monkeypatch)
        assert _same_table(load_dataset(built)[0], ds) and parses == []

    def test_header_names(self, tmp_path, small_country):
        _, _, _, _, ds = small_country
        p = tmp_path / "ds.csv"
        write_dataset_csv(ds, p)
        header = p.read_text().splitlines()[0].split(",")
        assert header[:3] == ["row", "col", "label"]
        assert header[3] == "LAI1" and header[112] == "T2M_MIN10"
        assert header[-10:] == ["NBRP1", "NBRP2", "NBRP3", "NBRP4", "NBRP5",
                                "NBRC1", "NBRC2", "NBRC3", "NBRC4", "NBRC5"]


def _same_table(a: Dataset, b: Dataset) -> bool:
    """Whether a and b hold the same bits in C-contiguous arrays of the same
    dtypes and shapes."""
    return all(u.dtype == v.dtype and u.shape == v.shape and u.flags.c_contiguous
               and v.flags.c_contiguous and np.array_equal(u.view(np.int64), v.view(np.int64))
               for u, v in ((a.cells, b.cells), (a.X, b.X), (a.y, b.y)))


def _npy(*arrays) -> bytes:
    """The arrays as consecutive .npy records, object arrays pickled."""
    buf = io.BytesIO()
    for a in arrays:
        np.lib.format.write_array(buf, a, allow_pickle=a.dtype == object)
    return buf.getvalue()


def _cache_bytes(damage: str, digest: bytes, ds: Dataset) -> bytes:
    """A cache for the table ds with this digest, damaged as named."""
    key = np.frombuffer(digest, dtype=np.uint8)
    whole = _npy(key, ds.cells, ds.X, ds.y)
    if damage == "huge_header":  # cells claim 10**15 rows, within the header's padding
        shape = f"({len(ds)}, 2), }}".encode() + b" " * 16
        assert shape in whole
        return whole.replace(shape, f"({10 ** 15}, 2), }}".encode().ljust(len(shape)), 1)
    return {
        "zero_bytes": b"",
        "truncated": whole[:len(whole) // 2],
        "not_npy": b"\x93NUMPY garbage",
        "no_digest": _npy(ds.cells, ds.X, ds.y),
        "wrong_digest": _npy(np.frombuffer(hashlib.sha256(b"other").digest(), dtype=np.uint8),
                             ds.cells[1:], ds.X[1:], ds.y[1:]),
        "wrong_shape": _npy(key, ds.cells, ds.X[:, 1:], ds.y),
        "wrong_rows": _npy(key, ds.cells, ds.X[1:], ds.y),
        "wrong_dtype": _npy(key, ds.cells.astype(np.int32), ds.X, ds.y),
        "float32": _npy(key, ds.cells, ds.X.astype(np.float32), ds.y),
        "fortran_order": _npy(key, ds.cells, np.asfortranarray(ds.X), ds.y),
        "object_array": _npy(key, ds.cells.astype(object), ds.X, ds.y),
    }[damage]


class TestParseCache:
    @pytest.fixture()
    def table(self, tmp_path, small_country):
        path = tmp_path / "dataset.csv"
        write_dataset_csv(small_country[4], path)
        return path, read_dataset_csv(path)

    def test_rewritten_table_parsed_again_and_cache_replaced(self, table, monkeypatch):
        path, ds = table
        parses = count_parses(monkeypatch)
        assert _same_table(load_dataset(path)[0], ds) and len(parses) == 1
        other = ds.take(np.arange(len(ds))[::-1])
        write_dataset_csv(other, path)
        assert _same_table(load_dataset(path)[0], other) and len(parses) == 2
        assert _same_table(load_dataset(path)[0], other) and len(parses) == 2

    @pytest.mark.parametrize("damage", [
        "zero_bytes", "truncated", "not_npy", "no_digest", "wrong_digest", "wrong_shape",
        "wrong_rows", "wrong_dtype", "float32", "fortran_order", "object_array",
        "huge_header"])
    def test_damaged_cache_falls_back_to_the_parse(self, table, monkeypatch, damage):
        path, ds = table
        digest = hashlib.sha256(path.read_bytes()).digest()
        damaged = _cache_bytes(damage, digest, ds)
        assert damaged != _npy(np.frombuffer(digest, dtype=np.uint8), ds.cells, ds.X, ds.y)
        cache_path(path).write_bytes(damaged)
        parses = count_parses(monkeypatch)
        assert _same_table(load_dataset(path)[0], ds) and len(parses) == 1
        # the parse replaced the damaged cache
        assert _same_table(load_dataset(path)[0], ds) and len(parses) == 1

    def test_zero_d_label_falls_back_to_the_parse(self, tmp_path, small_country, monkeypatch):
        # a 0-d label record has no length: the cache is rejected, not read
        path = tmp_path / "dataset.csv"
        one = small_country[4].take(np.arange(1))
        digest = write_dataset_csv(one, path)
        cache_path(path).write_bytes(_npy(np.frombuffer(digest, dtype=np.uint8),
                                          one.cells, one.X, np.array(0)))
        parses = count_parses(monkeypatch)
        assert _same_table(load_dataset(path)[0], one) and len(parses) == 1
        assert cache_path(path).read_bytes() == _npy(np.frombuffer(digest, dtype=np.uint8),
                                                     one.cells, one.X, one.y)

    @staticmethod
    def _built(tmp_path, name: str) -> list[str]:
        """The --config and --out-dir arguments of a 30-cell table built in
        tmp_path / name."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"cell_km": 100, "seed": 7}), encoding="utf-8")
        args = ["--config", str(cfg), "--out-dir", str(tmp_path / name)]
        assert cli_main(["build-dataset", *args]) == 0
        return args

    def test_malformed_table_exits_3_beside_a_valid_cache(self, tmp_path, capsys):
        args = self._built(tmp_path, "out")
        assert cli_main(["test-univariate", *args]) == 0
        path = tmp_path / "out" / "dataset.csv"
        assert cache_path(path).exists()
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[10] = "abc"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["test-univariate", *args]) == 3
        err = capsys.readouterr().err
        assert "dataset.csv line 3: LAI8 'abc' is not a number" in err, err

    def test_failing_cache_write_changes_no_output(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(30, "Read-only file system")

        stages = (["test-univariate"], ["learn-tree"], ["eval-hypotheses", "--which", "tree"],
                  ["riskmap"])
        outputs = {}
        for name in ("writable", "failing"):
            if name == "failing":
                monkeypatch.setattr(features.os, "replace", refuse)
            args = self._built(tmp_path, name)
            for stage in stages:
                assert cli_main([*stage, *args]) == 0, stage
            outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                             if p.name != "manifest.json"}  # it names the out-dir
        assert "dataset.csv.cache" in outputs["writable"]
        del outputs["writable"]["dataset.csv.cache"]
        assert outputs["failing"] == outputs["writable"]  # no cache, no temporary file

    def test_cache_holds_the_digest_then_the_parse(self, table):
        path, ds = table
        _, digest = load_dataset(path)
        assert digest == hashlib.sha256(path.read_bytes()).digest()
        assert cache_path(path).read_bytes() == _npy(np.frombuffer(digest, dtype=np.uint8),
                                                     ds.cells, ds.X, ds.y)

    @pytest.mark.parametrize("record", [
        b"", b"\x93NUMPY garbage", _npy(np.frombuffer(b"\xff{}", dtype=np.uint8)),
        _npy(np.frombuffer(b"{", dtype=np.uint8)), _npy(np.frombuffer(b"[]", dtype=np.uint8)),
        _npy(np.array([123, 125], dtype=np.int64))],
        ids=["none", "not_npy", "not_utf8", "not_json", "not_object", "not_uint8"])
    def test_unusable_record_loads_the_table_without_one(self, table, monkeypatch, record):
        # caches that build-dataset once wrote end in a fifth array, a record of
        # the raw inputs; whatever follows the parse is not read
        path, ds = table
        digest = hashlib.sha256(path.read_bytes()).digest()
        cache_path(path).write_bytes(
            _npy(np.frombuffer(digest, dtype=np.uint8), ds.cells, ds.X, ds.y) + record)
        parses = count_parses(monkeypatch)
        back, back_digest = load_dataset(path)
        assert _same_table(back, ds) and back_digest == digest and parses == []


class TestEventCounts:
    def test_window_filters_events(self):
        g = square_grid(3, 3)
        lat, lon = cell_center(g, 0, 0)
        counts = count_events_per_cell(
            g, [_event(lat, lon, dt.date(2013, 1, 1)), _event(lat, lon)], WINDOW)
        assert counts[0, 0] == 1

    def test_events_off_the_grid_or_mask_skipped_with_warning(self, caplog):
        g = square_grid(3, 3)
        mask = g.mask.copy()
        mask[2, 2] = False
        g = dataclasses.replace(g, mask=mask)
        events = [_event(*cell_center(g, 1, 1)) for _ in range(3)] + [
            _event(*cell_center(g, 2, 2)), _event(-5.0, 20.0), _event(math.nan, 20.0)]
        counts = count_events_per_cell(g, events, WINDOW)
        assert counts[1, 1] == 3 and counts.sum() == 3
        assert "skipped 3 event(s) outside the grid or country mask" in caplog.text
