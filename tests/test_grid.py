import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    lattice_neighbors,
    point_in_polygon,
    scalar_cell_bounds,
    scalar_cell_center,
    scalar_cell_of,
)
from conftest import square_grid
from pcrisk import grid, hypotheses
from pcrisk.errors import InvalidInputError, OutOfBoundsError
from pcrisk.features import NEIGHBOR_RADII, neighbor_counts
from pcrisk.grid import (
    KM_PER_DEG,
    BBox,
    Grid,
    build_grid,
    cell_of,
    load_grid,
    neighbor_offsets,
    save_grid,
)


class TestBuildGrid:
    def test_three_degree_bbox_at_100km_gives_4x4(self):
        # 3 degrees of latitude ~ 333.6 km -> ceil(333.6/100) = 4
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        assert (g.n_rows, g.n_cols) == (4, 4)

    def test_single_cell_bbox(self):
        dlat = 100.0 / KM_PER_DEG
        g = build_grid(BBox(0.0, 0.0, dlat, dlat), 100.0)
        assert (g.n_rows, g.n_cols) == (1, 1)

    def test_halving_cell_edge_doubles_counts(self):
        g100 = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        g50 = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 50.0)
        assert abs(g50.n_rows - 2 * g100.n_rows) <= 1
        assert abs(g50.n_cols - 2 * g100.n_cols) <= 1

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(InvalidInputError):
            build_grid(BBox(1.0, 0.0, 1.0, 3.0), 100.0)
        with pytest.raises(InvalidInputError):
            build_grid(BBox(2.0, 0.0, 1.0, 3.0), 100.0)

    def test_latitude_past_a_pole_rejected(self):
        # lat_max 90.5 once built a 12 x 1 grid running past the pole, and
        # 200 anchored the grid where a cell's width in longitude is negative
        for bbox in ((0.0, 10.0, 90.5, 14.5), (-90.5, 10.0, 0.0, 14.5), (0.0, 10.0, 200.0, 14.5)):
            with pytest.raises(InvalidInputError, match=r"latitudes must lie in \[-90, 90\]"):
                BBox(*bbox)
        assert build_grid(BBox(-90.0, 0.0, 90.0, 1.0), 1000.0).n_rows == 21

    def test_nonpositive_cell_rejected(self):
        with pytest.raises(InvalidInputError):
            build_grid(BBox(0.0, 0.0, 3.0, 3.0), 0.0)

    def test_grid_of_too_many_cells_rejected_before_allocation(self, monkeypatch):
        # 1 km on the demo country's bbox once built a 5 MB mask, for a
        # table too long for the CART; 1e-9 km raised from np.ones
        with pytest.raises(InvalidInputError,
                           match=r"cell_km 1 makes a grid of 1991 x 2483 = 4943653 cells"):
            build_grid(BBox(0.0, 10.0, 17.9, 32.6), 1.0)
        with pytest.raises(InvalidInputError, match="cell_km 1e-09"):
            build_grid(BBox(0.0, 10.0, 17.9, 32.6), 1e-9)
        assert grid.MAX_CELLS == hypotheses.MAX_CART_ROWS
        monkeypatch.setattr(grid, "MAX_CELLS", 17)
        assert build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0).mask.size == 16
        monkeypatch.setattr(grid, "MAX_CELLS", 16)
        with pytest.raises(InvalidInputError, match="4 x 4 = 16 cells; a grid takes fewer than 16"):
            build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)

    @pytest.mark.parametrize("cell_km", [1e-300, 1e-320, 5e-324])
    def test_subnormal_cell_rejected_naming_cell_km(self, cell_km):
        # the quotients of the bbox's spans by a subnormal cell_km are inf,
        # on which math.ceil raised OverflowError; at 1e-300 the message
        # held two 300-digit factors
        with pytest.raises(InvalidInputError,
                           match=rf"^cell_km {cell_km:g} makes a grid of at least 4194304 "
                                 r"cells; a grid takes fewer than 4194304$"):
            build_grid(BBox(0.0, 10.0, 17.9, 32.6), cell_km)

    def test_mask_polygon_limits_cells(self):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0,
                       mask_polygon=[(0.0, 0.0), (0.0, 3.0), (3.0, 3.0)])
        assert 0 < int(g.mask.sum()) < g.mask.size

    @pytest.mark.parametrize("polygon", [
        [[0, 1, 2]], [(0.0, 0.0), (1.0, 1.0)], [], "abc", 5, [[0, "x"], [1, 1], [2, 0]],
        [[0, 1], [2], [3, 4]], [[[0, 1]], [[2, 3]], [[4, 5]]],
        [(40.0, 50.0), (41.0, 50.0), (41.0, 51.0)], [(0.01, 0.01), (0.01, 0.1), (0.1, 0.01)]],
        ids=["triple", "two_vertices", "empty", "string", "number", "text_coordinate",
             "ragged", "nested", "beside_bbox", "between_centers"])
    def test_bad_mask_polygon_rejected(self, polygon):
        with pytest.raises(InvalidInputError, match="mask_polygon"):
            build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0, mask_polygon=polygon)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_vertex_rejected(self, value):
        # inf - inf in the ray casting used to warn, and a NaN vertex passed
        polygon = [(0.0, 0.0), (0.0, value), (3.0, 1.0)]
        with pytest.raises(InvalidInputError, match=r"mask_polygon vertex 1 is not finite"):
            build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0, mask_polygon=polygon)


class TestCellOf:
    def test_origin_corner(self):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        assert cell_of(g, 0.0, 0.0).tolist() == [0, 0]

    def test_boundary_point_goes_to_higher_index(self):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        lon_boundary = g.origin_lon + g.deg_per_cell_lon
        assert cell_of(g, 0.0, lon_boundary).tolist() == [0, 1]

    def test_bbox_center_of_4x4(self):
        g = square_grid(4, 4)
        lat = g.origin_lat + 2 * g.deg_per_cell_lat
        lon = g.origin_lon + 2 * g.deg_per_cell_lon
        assert cell_of(g, lat, lon).tolist() == [2, 2]

    def test_outside_bbox_is_no_cell(self):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        assert cell_of(g, -1.0, 1.0).tolist() == [-1, -1]

    @pytest.mark.parametrize("lat,lon", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_point_is_no_cell(self, lat, lon):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        assert cell_of(g, lat, lon).tolist() == [-1, -1]

    def test_every_cell_hit_by_its_center(self):
        g = square_grid(5, 7)
        cells = np.argwhere(g.mask)
        assert len(cells) == g.mask.size
        lat_s, lon_w, lat_n, lon_e = g.cell_bounds(cells)
        assert (cell_of(g, 0.5 * (lat_s + lat_n), 0.5 * (lon_w + lon_e)) == cells).all()

    def test_shape_follows_the_points(self):
        g = square_grid(5, 7)
        assert cell_of(g, 0.0, 20.0).shape == (2,)
        assert cell_of(g, np.zeros((3, 4)), np.full((3, 4), 20.0)).shape == (3, 4, 2)
        assert cell_of(g, [], []).shape == (0, 2)
        assert cell_of(g, [0.0], [20.0]).dtype == np.int64

    def test_far_edges_map_into_last_cells(self):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 100.0)
        lat_n = g.origin_lat + g.n_rows * g.deg_per_cell_lat
        assert cell_of(g, lat_n, g.origin_lon).tolist() == [g.n_rows - 1, 0]


@st.composite
def _grid_and_polygon(draw):
    """A random bbox cut into at most 50 x 50 cells, and a random polygon of
    3 to 8 vertices around it whose longitudes often repeat (edges of
    constant longitude) or equal a cell center's (rays through a vertex),
    and whose latitudes often equal a cell center's (centers on an edge)."""
    lat_min = draw(st.floats(-60.0, 55.0))
    lon_min = draw(st.floats(-170.0, 160.0))
    bbox = BBox(lat_min, lon_min, lat_min + draw(st.floats(0.01, 5.0)),
                lon_min + draw(st.floats(0.01, 5.0)))
    span_km = max(bbox.lat_max - bbox.lat_min, bbox.lon_max - bbox.lon_min) * KM_PER_DEG
    cell_km = span_km / draw(st.integers(1, 25)) * draw(st.floats(0.5, 1.5))
    g = build_grid(bbox, cell_km)
    center_lats = [scalar_cell_center(g, r, 0)[0] for r in range(g.n_rows)]
    center_lons = [scalar_cell_center(g, 0, c)[1] for c in range(g.n_cols)]
    lats = st.one_of(st.floats(bbox.lat_min - 1.0, bbox.lat_max + 1.0),
                     st.sampled_from(center_lats))
    shared_lons = draw(st.lists(st.floats(bbox.lon_min - 1.0, bbox.lon_max + 1.0),
                                min_size=1, max_size=3))
    lons = st.one_of(st.floats(bbox.lon_min - 1.0, bbox.lon_max + 1.0),
                     st.sampled_from(shared_lons), st.sampled_from(center_lons))
    polygon = draw(st.lists(st.tuples(lats, lons), min_size=3, max_size=8))
    return bbox, cell_km, polygon


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestScalarOracles:
    """The array cell lookup, bounds and mask against the scalar versions
    they replaced, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_grid_and_polygon(), st.lists(st.floats(-0.5, 1.5), max_size=8),
           st.lists(st.floats(-0.5, 1.5), max_size=8))
    # a near-vertical edge: a cell center off its longitude span overflowed
    # the ray-crossing division
    @example((BBox(0.0, 0.0, 1.0, 3.0), 166.7923899668381,
              [(0.0, 0.0), (0.0, 0.0), (0.75, 1.1125369292536007e-308)]), [], [])
    def test_array_versions_match_scalar_ones(self, case, lat_fracs, lon_fracs):
        bbox, cell_km, polygon = case
        g = build_grid(bbox, cell_km)
        want = [[point_in_polygon(*scalar_cell_center(g, r, c), polygon)
                 for c in range(g.n_cols)] for r in range(g.n_rows)]
        if any(map(any, want)):
            assert build_grid(bbox, cell_km, polygon).mask.tolist() == want
        else:
            with pytest.raises(InvalidInputError, match="selects no cell center"):
                build_grid(bbox, cell_km, polygon)

        cells = np.argwhere(np.ones(g.mask.shape, dtype=bool))
        got = np.stack(g.cell_bounds(cells), axis=-1)
        want = [scalar_cell_bounds(g, r, c) for r, c in cells.tolist()]
        assert (_bits(got) == _bits(want)).all()

        # every cell edge, the far edges, points off the bbox, NaN, and
        # points at random fractions of the bbox
        lats = [g.origin_lat + k * g.deg_per_cell_lat for k in range(g.n_rows + 1)]
        lons = [g.origin_lon + k * g.deg_per_cell_lon for k in range(g.n_cols + 1)]
        lats += [bbox.lat_min + f * (bbox.lat_max - bbox.lat_min) for f in lat_fracs]
        lons += [bbox.lon_min + f * (bbox.lon_max - bbox.lon_min) for f in lon_fracs]
        lats += [bbox.lat_min - 1e-7, bbox.lat_max, bbox.lat_max + 1e-7, math.nan]
        lons += [bbox.lon_min - 1e-7, bbox.lon_max, bbox.lon_max + 1e-7, math.nan]
        lat, lon = np.meshgrid(lats, lons, indexing="ij")
        got = cell_of(g, lat, lon)
        assert got.shape == lat.shape + (2,) and got.dtype == np.int64
        for i, la in enumerate(lats):
            for j, lo in enumerate(lons):
                try:
                    want = scalar_cell_of(g, la, lo)
                except OutOfBoundsError:
                    want = (-1, -1)
                assert tuple(got[i, j].tolist()) == want, (la, lo)


def _neighbors(n_rows: int, n_cols: int, r: int, c: int, j: int) -> set:
    """Cells whose radius-j conflict count sees a lone event at (r, c), read
    from neighbor_counts of a one-hot count grid. The offsets are symmetric
    (test_symmetry), so these are the radius-j neighbours of (r, c)."""
    counts = np.zeros((n_rows, n_cols), dtype=int)
    counts[r, c] = 1
    hit = neighbor_counts(counts)[:, :, NEIGHBOR_RADII.index(j)]
    assert set(np.unique(hit)) <= {0, 1}
    return {(row, col) for row, col in np.argwhere(hit).tolist()}


class TestNeighbors:
    def test_j1_interior_is_von_neumann(self):
        assert neighbor_offsets(1) == ((-1, 0), (0, -1), (0, 1), (1, 0))
        assert _neighbors(3, 3, 1, 1, 1) == {(0, 1), (2, 1), (1, 0), (1, 2)}

    def test_j1_corner_clipped(self):
        assert _neighbors(3, 3, 0, 0, 1) == {(0, 1), (1, 0)}

    def test_j2_interior_count_matches_enumeration(self):
        # frozen from the lattice enumeration oracle: 12 offsets with
        # 0 < d <= 2 (distance-sqrt(5) cells are outside radius 2)
        assert len(neighbor_offsets(2)) == 12
        got = _neighbors(20, 20, 5, 5, 2)
        assert got == lattice_neighbors(20, 20, 5, 5, 2)
        assert len(got) == 12

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 4))
    def test_nesting_monotone(self, r, c, j):
        assert set(neighbor_offsets(j)) <= set(neighbor_offsets(j + 1))
        assert _neighbors(8, 8, r, c, j) <= _neighbors(8, 8, r, c, j + 1)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(1, 5))
    def test_self_excluded(self, r, c, j):
        assert (0, 0) not in neighbor_offsets(j)
        assert (r, c) not in _neighbors(8, 8, r, c, j)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
           st.integers(1, 5))
    def test_symmetry(self, r1, c1, r2, c2, j):
        offs = neighbor_offsets(j)
        assert set(offs) == {(-dr, -dc) for dr, dc in offs}
        a, b = (r1, c1), (r2, c2)
        assert (a in _neighbors(8, 8, *b, j)) == (b in _neighbors(8, 8, *a, j))

    @given(st.integers(0, 11), st.integers(0, 11), st.integers(1, 5))
    def test_matches_bruteforce_on_12x12(self, r, c, j):
        assert _neighbors(12, 12, r, c, j) == lattice_neighbors(12, 12, r, c, j)


class TestSerialization:
    def test_grid_roundtrip(self, tmp_path):
        g = build_grid(BBox(0.0, 0.0, 3.0, 3.0), 75.0,
                       mask_polygon=[(0.0, 0.0), (0.0, 3.0), (3.0, 3.0)])
        p = tmp_path / "grid.json"
        save_grid(g, p)
        g2 = load_grid(p)
        assert (g2.n_rows, g2.n_cols, g2.cell_km) == (g.n_rows, g.n_cols, g.cell_km)
        assert (g2.mask == g.mask).all()
        assert g2.origin_lat == g.origin_lat and g2.anchor_lat == g.anchor_lat

    @pytest.mark.parametrize("doc", [{"n_rows": 2}, [], dict(
        origin_lat=0.0, origin_lon=0.0, anchor_lat=1.0, cell_km=50.0, n_rows=2, n_cols=2,
        mask=[1, 0, 1]), dict(
        origin_lat=0.0, origin_lon=0.0, anchor_lat=1.0, cell_km=float("nan"), n_rows=1,
        n_cols=1, mask=[1])], ids=["missing_key", "not_object", "short_mask", "cell_km_nan"])
    def test_damaged_file_names_it(self, tmp_path, doc):
        p = tmp_path / "grid.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(InvalidInputError, match="grid .*grid.json is malformed"):
            load_grid(p)

    def test_projection_inverse_consistency(self):
        g = square_grid(4, 5)
        for c in ((0, 0), (3, 4), (2, 1)):
            lat_s, lon_w, lat_n, lon_e = g.cell_bounds(c)
            assert math.isclose((lat_n - lat_s) * KM_PER_DEG, g.cell_km, rel_tol=1e-9)
            assert tuple(cell_of(g, lat_s, lon_w).tolist()) == c

    @pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (4, 0), (0, 5)])
    def test_bounds_of_a_cell_off_the_grid_raise(self, cell):
        g = square_grid(4, 5)
        with pytest.raises(OutOfBoundsError, match="outside grid"):
            g.cell_bounds(cell)
        with pytest.raises(OutOfBoundsError, match=re.escape(f"cell {cell} outside")):
            g.cell_bounds([(0, 0), cell])
