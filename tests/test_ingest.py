import datetime as dt

import numpy as np
import pytest

from conftest import cell_center, planted_risk_cells, square_grid, write_series_csv
from pcrisk.errors import (
    DuplicateTimestampError,
    InvalidInputError,
    SchemaError,
)
from pcrisk.grid import cell_of
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

    def test_all_variables_emitted_and_valid(self):
        g = square_grid(4, 4)
        series, _ = synth_country(5, g, 6)
        assert [s.variable for s in series] == list(VARIABLES)
        cells = np.repeat(np.argwhere(g.mask), 6, axis=0)
        for s in series:
            assert np.array_equal(s.cells, cells)
            assert s.samples.shape == (g.n_cells * 6,)
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
        d = g.n_cells - a - b - c
        got = odds_ratio(ContingencyTable(a, b, c, d))
        assert 10.0 <= got <= 40.0

    def test_events_fall_inside_their_grid(self):
        g = square_grid(8, 8)
        _, events = synth_country(3, g, 12)
        for ev in events:
            assert (cell_of(g, ev.lat, ev.lon) >= 0).all()
