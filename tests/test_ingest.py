import csv
import datetime as dt
import json
import logging
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import cell_center, planted_risk_cells, square_grid, write_series_csv
from oracles import parse_series_per_row
from pcrisk import ingest
from pcrisk.errors import (
    DuplicateTimestampError,
    InvalidInputError,
    SchemaError,
)
from pcrisk.grid import BBox, build_grid, cell_of
from pcrisk.ingest import (
    VARIABLES,
    ConflictEvent,
    EventSchema,
    KeywordRules,
    PlantedEffect,
    Window,
    default_keyword_rules,
    filter_pastoral,
    parse_events,
    VariableSeries,
    parse_series,
    synth_country,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import write_files_inputs  # noqa: E402

WINDOW = Window(dt.date(2015, 1, 1), dt.date(2022, 9, 30))


def _events_csv(tmp_path, rows, header="event_date,latitude,longitude,country,notes"):
    p = tmp_path / "events.csv"
    p.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return p


class TestParseEvents:
    def test_well_formed(self, tmp_path):
        p = _events_csv(tmp_path, [
            "2016-01-02,5.1,12.3,Chad,herders attacked farmers",
            "2017-03-04,6.0,13.0,Chad,dispute over cattle",
            "2018-05-06,7.2,14.1,Chad,market bombing",
        ])
        events = parse_events(p)
        assert len(events) == 3
        assert events[0].date == dt.date(2016, 1, 2)
        assert events[0].lat == 5.1

    def test_malformed_row_skipped_and_reported(self, tmp_path, caplog):
        p = _events_csv(tmp_path, [
            "2016-01-02,abc,12.3,Chad,herders attacked farmers",
            "2017-03-04,6.0,13.0,Chad,xyz",
            "2018-05-06,7.2,14.1,Chad,abc",
        ])
        with caplog.at_level("WARNING"):
            events = parse_events(p)
        assert len(events) == 2
        assert any("skipping" in r.message for r in caplog.records)

    def _twenty_events(self, tmp_path, damage):
        rows = [f'2016-01-{d:02d},5.1,12.3,Chad,"herders attacked farmers {d}"'
                for d in range(1, 21)]
        rows[3] = damage(rows[3])  # file line 5
        return _events_csv(tmp_path, rows)

    def test_quote_before_country_exits_naming_line(self, tmp_path):
        # a lax csv reader runs the quoted field on to the end of the file
        p = self._twenty_events(tmp_path, lambda r: r.replace(",Chad", ',"Chad'))
        with pytest.raises(InvalidInputError, match="events.csv line 5"):
            parse_events(p)

    def test_unclosed_notes_quote_exits_naming_line(self, tmp_path):
        # a lax csv reader merges this event with the next one
        p = self._twenty_events(tmp_path, lambda r: r[:-1])
        with pytest.raises(InvalidInputError, match="events.csv line 5"):
            parse_events(p)

    def test_skip_names_file_line_after_multiline_notes(self, tmp_path, caplog):
        p = _events_csv(tmp_path, [
            '2016-01-02,5.1,12.3,Chad,"herders\nattacked\nfarmers"',
            "2017-03-04,abc,13.0,Chad,dispute over cattle",
        ])
        with caplog.at_level("WARNING"):
            events = parse_events(p)
        assert len(events) == 1 and events[0].notes == "herders\nattacked\nfarmers"
        assert any("events.csv line 5:" in r.message for r in caplog.records)

    def test_header_only(self, tmp_path, caplog):
        p = _events_csv(tmp_path, [])
        with caplog.at_level("WARNING"):
            assert parse_events(p) == []
        assert any("no rows" in r.message for r in caplog.records)

    def test_missing_column_raises_schema_error(self, tmp_path):
        p = _events_csv(tmp_path, ["2016-01-02,5.1,12.3,Chad"],
                        header="event_date,latitude,longitude,country")
        with pytest.raises(SchemaError, match="notes"):
            parse_events(p)

    def test_custom_schema(self, tmp_path):
        p = _events_csv(tmp_path, ["2016-01-02,5.1,12.3,Chad,herders"],
                        header="day,y,x,state,description")
        events = parse_events(p, EventSchema(date="day", lat="y", lon="x",
                                             country="state", notes="description"))
        assert len(events) == 1


def _ev(notes, day=dt.date(2016, 6, 1)):
    return ConflictEvent(date=day, lat=1.0, lon=1.0, country="Chad", notes=notes)


class TestFilterPastoral:
    def test_include_match_kept(self):
        ev = _ev("herders attacked farmers")
        kept = filter_pastoral([ev], WINDOW)
        assert len(kept) == 1 and kept[0] is ev

    def test_non_match_dropped(self):
        assert filter_pastoral([_ev("market bombing")], WINDOW) == []

    def test_date_before_window_dropped(self):
        assert filter_pastoral([_ev("herders", dt.date(2014, 12, 31))], WINDOW) == []

    def test_exclude_overrides_include(self):
        rules = KeywordRules(include=("cattle",), exclude=("cattle market",))
        assert filter_pastoral([_ev("cattle market price dispute")], WINDOW, rules) == []

    def test_rules_without_include_rejected(self):
        with pytest.raises(InvalidInputError, match="include"):
            KeywordRules(include=(), exclude=("market",))

    def test_rule_that_does_not_compile_rejected(self):
        with pytest.raises(InvalidInputError, match=r"'include' pattern 'herd\('"):
            KeywordRules(include=("herd(",))

    def test_inverted_window_rejected(self):
        with pytest.raises(InvalidInputError):
            filter_pastoral([], Window(dt.date(2020, 1, 1), dt.date(2015, 1, 1)))

    def test_idempotent(self):
        events = [_ev("herders attacked"), _ev("flood damage"), _ev("cattle raid")]
        once = filter_pastoral(events, WINDOW)
        assert filter_pastoral(once, WINDOW) == once

    def test_default_rules_load(self):
        rules = default_keyword_rules()
        assert rules.matches("Transhumant herders moved south")
        assert not rules.matches("electoral violence in the capital")


class TestParseSeries:
    def _series_csv(self, tmp_path, rows):
        p = tmp_path / "series.csv"
        header = "cell_row,cell_col,variable,timestamp,value"
        p.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        return p

    def test_two_cells_twelve_months(self, tmp_path):
        rows = [f"0,{c},LAI,2015-{m:02d}-01,{m + c}.5" for c in (0, 1) for m in range(1, 13)]
        p = self._series_csv(tmp_path, rows)
        got = parse_series(p)
        assert len(got) == 1
        assert got[0].cells.tolist() == [[0, 0]] * 12 + [[0, 1]] * 12
        assert len(got[0].samples) == 24

    def test_out_of_order_rows_sorted(self, tmp_path):
        rows = ["0,0,LAI,2015-03-01,3.0", "0,0,LAI,2015-01-01,1.0", "0,0,LAI,2015-02-01,2.0"]
        got = parse_series(self._series_csv(tmp_path, rows))
        assert got[0].samples.tolist() == [1.0, 2.0, 3.0]

    def test_duplicate_timestamp_raises(self, tmp_path):
        rows = ["0,0,LAI,2015-01-01,1.0", "0,0,LAI,2015-01-01,2.0"]
        with pytest.raises(DuplicateTimestampError, match=r"\(0,0\)"):
            parse_series(self._series_csv(tmp_path, rows))

    def test_variable_column_filters(self, tmp_path):
        # one pass groups the rows by variable (VARIABLES order), then by cell
        rows = ["1,0,LAI,2015-01-01,1.0", "0,0,GRN,2015-01-01,0.5", "0,0,LAI,2015-01-01,2.0",
                "0,0,GRN,2015-02-01,0.25"]
        got = parse_series(self._series_csv(tmp_path, rows))
        assert [(s.variable, s.cells.tolist()) for s in got] == [
            ("LAI", [[0, 0], [1, 0]]), ("GRN", [[0, 0], [0, 0]])]
        assert got[1].samples.tolist() == [0.5, 0.25]

    def test_unknown_variable_rows_skipped_and_counted(self, tmp_path, caplog):
        rows = ["0,0,LAI,2015-01-01,1.0", "0,0,NDVI,2015-01-01,0.5", "0,0,lai,2015-01-01,0.5"]
        with caplog.at_level("WARNING"):
            got = parse_series(self._series_csv(tmp_path, rows))
        assert [s.variable for s in got] == ["LAI"]
        assert any("skipped 2 row(s)" in r.message for r in caplog.records)

    def test_latlon_layout_maps_through_grid(self, tmp_path):
        g = square_grid(3, 3)
        lat, lon = cell_center(g, 1, 2)
        p = tmp_path / "series.csv"
        p.write_text("lat,lon,variable,timestamp,value\n"
                     f"{lat},{lon},LAI,2015-01-01,1.25\n", encoding="utf-8")
        got = parse_series(p, grid=g)
        assert got[0].cells.tolist() == [[1, 2]]

    @pytest.mark.parametrize("cell_km, cells", [(50, [[0, 0], [1, 1]]), (100, [[0, 0], [0, 0]])])
    def test_latlon_points_of_one_cell_pool_their_samples(self, tmp_path, cell_km, cells):
        # a gridded product has several points per coarse cell at one timestamp
        p = tmp_path / "series.csv"
        p.write_text("lat,lon,variable,timestamp,value\n0.5,10.5,LAI,2015-01-01,2.0\n"
                     "0.1,10.1,LAI,2015-01-01,1.0\n", encoding="utf-8")
        got = parse_series(p, grid=build_grid(BBox(0.0, 10.0, 4.5, 14.5), cell_km))
        assert got[0].cells.tolist() == cells
        assert got[0].samples.tolist() == [1.0, 2.0]

    def test_latlon_point_repeated_raises(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("lat,lon,variable,timestamp,value\n0.1,10.1,LAI,2015-01-01,1.0\n"
                     "0.1,10.1,LAI,2015-01-01,2.0\n", encoding="utf-8")
        with pytest.raises(DuplicateTimestampError, match=r"point \(0.1, 10.1\) variable LAI"):
            parse_series(p, grid=build_grid(BBox(0.0, 10.0, 4.5, 14.5), 100))

    def test_latlon_layout_without_grid_raises(self, tmp_path):
        p = tmp_path / "series.csv"
        p.write_text("lat,lon,variable,timestamp,value\n0.5,0.5,LAI,2015-01-01,1.0\n",
                     encoding="utf-8")
        with pytest.raises(SchemaError):
            parse_series(p)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cells = np.repeat([[0, c] for c in range(3)], 12, axis=0)
        series = [VariableSeries(var, cells, rng.normal(size=len(cells)))
                  for var in ("SSW", "RH2M")]
        p = tmp_path / "rt.csv"
        write_series_csv(series, p)
        back = parse_series(p)
        assert [s.variable for s in back] == [s.variable for s in series]
        for s, b in zip(series, back):
            assert np.array_equal(b.cells, s.cells)
            assert b.samples.tobytes() == s.samples.tobytes()


def _series_outcome(parse, path, grid) -> tuple:
    """What parse makes of a series file: its records, bit for bit and by
    dtype, with the warnings it logged; or its exception's type and text."""
    logged: list = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: logged.append(record.getMessage())
    logger = logging.getLogger("pcrisk.ingest")
    logger.addHandler(handler)
    try:
        records = parse(path, grid)
    except Exception as exc:
        return type(exc), str(exc)
    finally:
        logger.removeHandler(handler)
    return [(s.variable, s.cells.dtype.str, s.cells.shape, s.cells.tobytes(), s.samples.dtype.str,
             s.samples.shape, s.samples.tobytes()) for s in records], logged


_GRID = square_grid(3, 3)
_CELLS_HEADER = ("cell_row", "cell_col", "variable", "timestamp", "value")
_LATLON_HEADER = ("lat", "lon", "variable", "timestamp", "value")
#: field texts on which numpy's parsers and int(), float() or
#: date.fromisoformat() may part ways
_TRICKY_FIELDS = ("0_1", "1_0", "20150101", " 2015-01-01", "2015-01", "2015-01-01T00",
                  "+2015-01-01", "0000-01-01", "2015-02-29", "NaT", "+3", " 3", "3 ", "-0",
                  "3.0", "1e400", "nan", "inf", "-9223372036854775808", "9223372036854775808",
                  "99999999999999999999", "LAI\x1c", " LAI ", "\x1f1", "\t1", "0x10", "",
                  '"LAI"', "PRECTOTCORR", "PRECTOTCORR_LONGER", "NDVI", "LAI,GRN")


def _series_file(rows, header=_CELLS_HEADER, end="\n") -> bytes:
    return "".join(",".join(map(str, r)) + end for r in [header, *rows]).encode()


@st.composite
def _series_files(draw) -> bytes:
    """A canonical series file for _GRID in either layout, with at most one
    field, line, line end or column order perturbed."""
    latlon = draw(st.booleans())
    samples = draw(st.lists(st.tuples(st.sampled_from(VARIABLES[:3] + ("NDVI",)),
                                      st.integers(0, 2), st.integers(0, 2),
                                      st.sampled_from(["2015-01-01", "2015-02-01", "2016-02-29"])),
                            max_size=8, unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=len(samples), max_size=len(samples)))
    rows = []
    for (var, r, c, stamp), v in zip(samples, values):
        a, b = map(repr, cell_center(_GRID, r, c)) if latlon else (r, c)
        rows.append([a, b, var, stamp, repr(v)])
    lines = [list(_LATLON_HEADER if latlon else _CELLS_HEADER), *rows]
    end = "\n"
    kind = draw(st.sampled_from(["none", "field", "line", "crlf", "columns", "quote", "byte"]))
    if kind == "field":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i][draw(st.integers(0, 4))] = draw(st.one_of(
            st.sampled_from(_TRICKY_FIELDS), st.text(st.characters(max_codepoint=0x7f), max_size=5),
            st.text(max_size=3)))
    elif kind == "line":
        i = draw(st.integers(0, len(lines)))
        line = draw(st.one_of(st.sampled_from(["", " ", "\r", "0,0,LAI", "0,0,NDVI"]),
                              st.builds(list, st.sampled_from(rows or [["0"] * 5]))))
        if draw(st.booleans()) and i < len(lines):
            del lines[i]
        else:
            lines.insert(i, [line] if isinstance(line, str) else line)
    elif kind == "crlf":
        end = "\r\n"
    elif kind == "columns":
        order = draw(st.permutations(range(5)))
        extra = draw(st.booleans())
        lines = [[line[k] for k in order if k < len(line)] + ["x"] * extra for line in lines]
    elif kind == "quote":
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1)) if lines[i] else 0
        if lines[i]:
            lines[i][j] = f'"{lines[i][j]}"'
    data = "".join(",".join(map(str, line)) + end for line in lines).encode()
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x00", b"\x1c", b"\xc3\xa9", b"\xff", b'"',
                                                 b"\r", b"\n", b","])) + data[at:]
    if draw(st.booleans()):
        data = data.removesuffix(end.encode())  # no newline at the end
    return data


class TestParseSeriesOracle:
    """parse_series against the row-by-row parse it replaced: the same
    records, bit for bit and by dtype, and the same warnings, or the same
    error."""

    @settings(max_examples=400, deadline=None)
    @given(data=_series_files())
    @example(data=_series_file([["0_1", 0, "LAI", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", "1_0"]]))
    @example(data=_series_file([[0, 0, "LAI", "20150101", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", " 2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01T00", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "+2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "0000-01-01", 1.0]]))
    @example(data=_series_file([["+3", " 3", "LAI", "2015-01-01", 1.0]]))
    @example(data=_series_file([["\x1c3", 0, "LAI", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", "nan"]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", "1e400"]]))
    @example(data=_series_file([["99999999999999999999", 0, "LAI", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI\x1c", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", 1.0],
                                [0, 0, "LAI", "2015-02-01", 2.0]], end="\r\n"))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", 1.0], [],
                                [0, 0, "LAI", "2015-02-01", 2.0]]))
    @example(data=_series_file([]))
    @example(data=_series_file([["LAI", "2015-01-01", 0, 1.0, 0, "x"]],
                               header=("variable", "timestamp", "cell_col", "value",
                                       "cell_row", "extra")))
    @example(data=_series_file([[0, 0, '"LAI"', "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", 1.0, '"a,b"']]))
    @example(data=_series_file([[0, 0, "PRECTOTCORR_LONGER", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01 ", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI\x00", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI" + " " * 13 + "x", "2015-01-01", 1.0]]))
    @example(data=_series_file([[0, 0, "LAI", "2015-01-01", 1.0, "x" * (csv.field_size_limit() + 1)]]))
    def test_matches_the_row_oracle(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "series.csv"
            path.write_bytes(data)
            want = _series_outcome(parse_series_per_row, path, _GRID)
            assert _series_outcome(parse_series, path, _GRID) == want


class TestParseSeriesFrontEnds:
    @staticmethod
    def _benchmark_series(tmp_path) -> tuple[Path, object]:
        cfg = json.loads((ROOT / "configs" / "synthetic_demo.json").read_text(encoding="utf-8"))
        cfg["cell_km"] = 400
        path = tmp_path / "series.csv"
        write_files_inputs(7, cfg, tmp_path / "events.csv", path)
        return path, build_grid(BBox(*cfg["bbox"]), cfg["cell_km"])

    def test_plain_file_is_parsed_without_csv_reader(self, tmp_path, monkeypatch):
        path, g = self._benchmark_series(tmp_path)
        want = _series_outcome(parse_series_per_row, path, g)
        assert isinstance(want[0], list) and want[0]  # records, not an error

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called on a plain series file")

        monkeypatch.setattr(ingest.csv, "reader", refuse)
        assert _series_outcome(parse_series, path, g) == want

    @pytest.mark.parametrize("old, new", [(b",LAI,", b',"LAI",'), (b",GRN,", b",GRN\xc3\xa9,")],
                             ids=["quoted", "non_ascii"])
    def test_other_files_go_through_csv_reader(self, tmp_path, monkeypatch, old, new):
        path, g = self._benchmark_series(tmp_path)
        path.write_bytes(path.read_bytes().replace(old, new))
        want = _series_outcome(parse_series_per_row, path, g)
        calls = []
        reader = csv.reader

        def counted(*args, **kwargs):
            calls.append(1)
            return reader(*args, **kwargs)

        monkeypatch.setattr(ingest.csv, "reader", counted)
        assert _series_outcome(parse_series, path, g) == want
        assert calls


class TestSynthCountry:
    def test_same_seed_bit_identical(self):
        g = square_grid(6, 6)
        s1, e1 = synth_country(9, g, 12)
        s2, e2 = synth_country(9, g, 12)
        assert e1 == e2
        assert all(a.samples.tobytes() == b.samples.tobytes()
                   and np.array_equal(a.cells, b.cells) for a, b in zip(s1, s2))

    def test_different_seed_differs(self):
        g = square_grid(6, 6)
        _, e1 = synth_country(1, g, 12)
        _, e2 = synth_country(2, g, 12)
        assert e1 != e2

    def test_zero_base_rate_means_zero_events(self):
        g = square_grid(6, 6)
        _, events = synth_country(5, g, 12, PlantedEffect(base_rate=0.0))
        assert events == []

    @pytest.mark.parametrize("name, bad, edge", [
        ("regime_sd", -1.0, 0.0), ("regime_sd", float("inf"), 1e300),
        ("extra_events_rate", -1.0, 0.0), ("extra_events_rate", float("nan"), 0.0),
        ("odds_ratio", float("nan"), 1e300), ("low_mean", float("nan"), -1e300),
        ("high_mean", float("inf"), 1e300)])
    def test_unusable_planted_value_rejected(self, name, bad, edge):
        with pytest.raises(InvalidInputError, match=name):
            PlantedEffect(**{name: bad})
        with pytest.raises(InvalidInputError, match=name):
            synth_country(5, square_grid(4, 4), 6, PlantedEffect(**{name: bad}))
        PlantedEffect(**{name: edge})  # the closest usable value passes

    def test_all_variables_emitted_and_valid(self):
        g = square_grid(4, 4)
        series, _ = synth_country(5, g, 6)
        assert [s.variable for s in series] == list(VARIABLES)
        cells = np.repeat(np.argwhere(g.mask), 6, axis=0)
        for s in series:
            assert np.array_equal(s.cells, cells)
            assert s.samples.shape == (g.mask.size * 6,)
            assert np.isfinite(s.samples).all()

    def test_planted_or_recovered_on_500_cells(self):
        # Monte Carlo over 200 generator seeds puts the stratum-vs-label
        # odds ratio inside [10, 40] for the large majority of draws;
        # seed 11 is frozen as a conforming draw
        from pcrisk.stats import ContingencyTable, odds_ratio

        g = square_grid(20, 25)
        planted = PlantedEffect(odds_ratio=20.0, base_rate=0.05)
        series, events = synth_country(11, g, 24, planted)
        risk = planted_risk_cells(series, planted)
        hot_cells = set(map(tuple, cell_of(g, [ev.lat for ev in events],
                                           [ev.lon for ev in events]).tolist()))
        a = len(risk & hot_cells)
        b = len(risk - hot_cells)
        c = len(hot_cells - risk)
        d = g.mask.size - a - b - c
        got = odds_ratio(ContingencyTable(a, b, c, d))
        assert 10.0 <= got <= 40.0

    def test_events_fall_inside_their_grid(self):
        g = square_grid(8, 8)
        _, events = synth_country(3, g, 12)
        for ev in events:
            assert (cell_of(g, ev.lat, ev.lon) >= 0).all()
