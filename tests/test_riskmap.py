import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import square_grid
from oracles import render_geojson_document
from pcrisk import riskmap
from pcrisk.errors import ValidationError
from pcrisk.grid import cell_of
from pcrisk.riskmap import (
    COLOR_STOPS,
    RiskSurface,
    render_csv,
    render_geojson,
    render_pgm,
    risk_color,
    surface_from_rows,
)


def _surface(values, grid=None):
    values = np.asarray(values, dtype=float)
    if grid is None:
        grid = square_grid(*values.shape)
    return RiskSurface(grid=grid, values=values)


@st.composite
def _surfaces(draw):
    """Grids of 1 to 4 x 1 to 5 cells at float or integer cell sizes and
    latitudes, under a random mask, a one-cell mask or none; risks tied,
    signed zeros, 1.0 and any float in [0, 1]; model ids of any text."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    g = square_grid(n_rows, n_cols, draw(st.sampled_from((100.0, 75.0, 25.0, 12.3))),
                    lat0=draw(st.sampled_from((0.0, -33.7, 51.25))))
    whole = st.just(np.ones((n_rows, n_cols), dtype=bool))
    one_cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)).map(
        lambda rc: np.arange(n_rows * n_cols).reshape(n_rows, n_cols) == rc[0] * n_cols + rc[1])
    mask = draw(st.one_of(whole, one_cell, arrays(bool, (n_rows, n_cols))))
    cell_km = draw(st.sampled_from((g.cell_km, int(g.cell_km))))
    g = dataclasses.replace(g, mask=mask, cell_km=cell_km)
    risk = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 0.5, 1 / 3)),
                     st.floats(0.0, 1.0))
    values = draw(arrays(np.float64, (n_rows, n_cols), elements=risk))
    model_id = draw(st.one_of(st.sampled_from(("", "DecisionTree", 'a"b\\c\u00e9')),
                              st.text()))
    return RiskSurface(grid=g, values=values, model_id=model_id)


class TestColors:
    def test_zero_risk_first_stop(self):
        assert risk_color(0.0) == COLOR_STOPS[0]

    def test_full_risk_last_stop(self):
        assert risk_color(1.0) == COLOR_STOPS[-1]

    def test_midpoints_hit_interior_stops(self):
        assert risk_color(0.25) == COLOR_STOPS[1]
        assert risk_color(0.5) == COLOR_STOPS[2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            risk_color(1.2)


class TestGeojson:
    def test_single_cell_zero_risk(self, tmp_path):
        p = tmp_path / "r.geojson"
        render_geojson(_surface([[0.0]]), p)
        doc = json.loads(p.read_text())
        assert len(doc["features"]) == 1
        props = doc["features"][0]["properties"]
        assert props["risk"] == 0.0 and props["color"] == COLOR_STOPS[0]

    def test_full_risk_last_color(self, tmp_path):
        p = tmp_path / "r.geojson"
        render_geojson(_surface([[1.0]]), p)
        doc = json.loads(p.read_text())
        assert doc["features"][0]["properties"]["color"] == COLOR_STOPS[-1]

    def test_four_cells_roundtrip_through_cell_of(self, tmp_path):
        g = square_grid(2, 2)
        p = tmp_path / "r.geojson"
        render_geojson(_surface([[0.1, 0.2], [0.3, 0.4]], g), p)
        doc = json.loads(p.read_text())
        assert len(doc["features"]) == 4
        for feat in doc["features"]:
            ring = feat["geometry"]["coordinates"][0]
            assert ring[0] == ring[-1] and len(ring) == 5
            lons = [pt[0] for pt in ring[:-1]]
            lats = [pt[1] for pt in ring[:-1]]
            center = cell_of(g, sum(lats) / 4.0, sum(lons) / 4.0)
            assert center.tolist() == [feat["properties"]["row"], feat["properties"]["col"]]

    def test_masked_cells_omitted(self, tmp_path):
        g = square_grid(2, 2)
        mask = g.mask.copy()
        mask[0, 0] = False
        from pcrisk.grid import Grid

        g2 = Grid(g.origin_lat, g.origin_lon, g.anchor_lat, g.cell_km,
                  g.n_rows, g.n_cols, mask)
        p = tmp_path / "r.geojson"
        render_geojson(_surface(np.full((2, 2), 0.5), g2), p)
        assert len(json.loads(p.read_text())["features"]) == 3

    def test_each_distinct_risk_colored_once(self, tmp_path, monkeypatch):
        values = np.array([[0.0, 0.25, 0.25, 1.0, 0.7],
                           [0.7, -0.0, 0.25, 0.7, 0.7]])
        calls = []
        monkeypatch.setattr(riskmap, "risk_color", lambda r: calls.append(r) or risk_color(r))
        p = tmp_path / "r.geojson"
        render_geojson(_surface(values), p)
        assert sorted(calls) == [0.0, 0.25, 0.7, 1.0]
        props = [f["properties"] for f in json.loads(p.read_text())["features"]]
        assert [q["risk"] for q in props] == values.ravel().tolist()
        assert [q["color"] for q in props] == [risk_color(r) for r in values.ravel()]

    def test_out_of_range_value_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            render_geojson(_surface([[1.7]]), tmp_path / "r.geojson")

    @settings(max_examples=150, deadline=None)
    @given(surface=_surfaces())
    @example(surface=RiskSurface(
        dataclasses.replace(square_grid(2, 3), cell_km=100),
        np.array([[0.0, -0.0, 1.0], [0.5, 0.5, 1 / 3]]), 'a"b\\c \u00e9\u2603%s'))
    def test_bytes_match_the_document_encoding(self, surface):
        with tempfile.TemporaryDirectory() as d:
            ours, oracle = Path(d) / "ours.geojson", Path(d) / "oracle.geojson"
            render_geojson(surface, ours)
            render_geojson_document(surface, oracle)
            assert ours.read_bytes() == oracle.read_bytes()


class TestPgm:
    def test_all_black(self, tmp_path):
        p = tmp_path / "r.pgm"
        render_pgm(_surface(np.zeros((3, 4))), p)
        data = p.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        assert data[len(b"P5\n4 3\n255\n"):] == bytes(12)

    def test_single_bright_pixel_northernmost_first(self, tmp_path):
        vals = np.zeros((3, 3))
        vals[0, 1] = 1.0  # grid row 0 = southern edge
        p = tmp_path / "r.pgm"
        render_pgm(_surface(vals), p)
        pixels = p.read_bytes()[len(b"P5\n3 3\n255\n"):]
        # southern row must be written last
        assert pixels[6 + 1] == 255 and sum(pixels) == 255

    def test_half_risk_pixel_128(self, tmp_path):
        p = tmp_path / "r.pgm"
        render_pgm(_surface([[0.5]]), p)
        assert p.read_bytes()[-1] == 128

    def test_pgm_agrees_with_geojson_after_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        g = square_grid(4, 5)
        vals = rng.random((4, 5))
        s = _surface(vals, g)
        render_pgm(s, tmp_path / "r.pgm")
        render_geojson(s, tmp_path / "r.geojson")
        pixels = (tmp_path / "r.pgm").read_bytes()[len(b"P5\n5 4\n255\n"):]
        doc = json.loads((tmp_path / "r.geojson").read_text())
        for feat in doc["features"]:
            r, c = feat["properties"]["row"], feat["properties"]["col"]
            pix = pixels[(g.n_rows - 1 - r) * g.n_cols + c]
            assert pix == int(np.rint(255.0 * feat["properties"]["risk"]))


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        rng = np.random.default_rng(7)
        s = _surface(rng.random((5, 5)))
        blobs = []
        for d in ("a", "b"):
            out = tmp_path / d
            out.mkdir()
            render_geojson(s, out / "r.geojson")
            render_pgm(s, out / "r.pgm")
            render_csv(s, out / "r.csv")
            blobs.append(tuple((out / n).read_bytes()
                               for n in ("r.geojson", "r.pgm", "r.csv")))
        assert blobs[0] == blobs[1]

    def test_surface_from_rows_scatter(self):
        g = square_grid(3, 3)
        s = surface_from_rows(g, np.array([[1, 2], [0, 0]]), [0.7, 0.2], "m")
        assert s.values[1, 2] == 0.7 and s.values[0, 0] == 0.2
        assert s.model_id == "m"
