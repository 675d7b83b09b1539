"""Cell lattice construction and spatial neighborhoods.

A country bounding box is discretized into square cells of a chosen edge
length (50/75/100 km by default, any positive edge via config) using an
equirectangular projection anchored at the bbox center. Cells are addressed
by (row, col): row 0 sits on the southern edge and grows northward, col 0
on the western edge and grows eastward. Cells are half-open in both axes,
so a point on a shared boundary belongs to the higher-index cell. Cells are
int (row, col) pairs in the last axis of an array; (-1, -1) is no cell.

Grids are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .artifacts import read_json, write_json
from .errors import InvalidInputError, OutOfBoundsError

# arc length of one degree at the mean Earth radius (6371 km)
KM_PER_DEG = math.pi * 6371.0 / 180.0

# slack (in cells) absorbing float round-off at cell boundaries
_EDGE_EPS = 1e-9

#: cell limit of a grid, so that every table built on one stays below the
#: CART's row limit (hypotheses.MAX_CART_ROWS)
MAX_CELLS = 2 ** 22
#: cells x months limit of a synthetic country, whose samples take about 0.1 KB each
MAX_CELL_MONTHS = 2 ** 22


@dataclass(frozen=True)
class BBox:
    lat_min: float
    lon_min: float
    lat_max: float
    lon_max: float

    def __post_init__(self):
        vals = (self.lat_min, self.lon_min, self.lat_max, self.lon_max)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidInputError(f"bbox coordinates must be finite, got {self}")
        if self.lat_min >= self.lat_max or self.lon_min >= self.lon_max:
            raise InvalidInputError(f"degenerate bbox: {self}")
        if self.lat_min < -90.0 or self.lat_max > 90.0:
            raise InvalidInputError(f"bbox latitudes must lie in [-90, 90], got {self}")

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.lat_min + self.lat_max), 0.5 * (self.lon_min + self.lon_max))


@dataclass(frozen=True, eq=False)
class Grid:
    """Rectangular cell lattice over a bbox.

    origin_lat/origin_lon is the south-west corner; anchor_lat is the
    latitude used to scale km to degrees of longitude. mask marks the
    cells that belong to the modelled country (row-major).
    """

    origin_lat: float
    origin_lon: float
    anchor_lat: float
    cell_km: float
    n_rows: int
    n_cols: int
    mask: np.ndarray  # bool, shape (n_rows, n_cols), read-only

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise InvalidInputError("grid must have at least one row and one column")
        if not (math.isfinite(self.cell_km) and self.cell_km > 0):
            raise InvalidInputError(f"cell_km must be positive and finite, got {self.cell_km}")
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (self.n_rows, self.n_cols):
            raise InvalidInputError("mask shape does not match grid shape")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @property
    def deg_per_cell_lat(self) -> float:
        return self.cell_km / KM_PER_DEG

    @property
    def deg_per_cell_lon(self) -> float:
        return self.cell_km / (KM_PER_DEG * math.cos(math.radians(self.anchor_lat)))

    def cell_bounds(self, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lat_south, lon_west, lat_north, lon_east) arrays of (..., 2) cells."""
        row, col = np.moveaxis(np.asarray(cells), -1, 0)
        off = ~((0 <= row) & (row < self.n_rows) & (0 <= col) & (col < self.n_cols))
        if off.any():
            raise OutOfBoundsError(f"cell ({row[off][0]}, {col[off][0]}) outside grid")
        lat_s = self.origin_lat + row * self.deg_per_cell_lat
        lon_w = self.origin_lon + col * self.deg_per_cell_lon
        return (lat_s, lon_w, lat_s + self.deg_per_cell_lat, lon_w + self.deg_per_cell_lon)

    def to_dict(self) -> dict:
        return {
            "origin_lat": self.origin_lat,
            "origin_lon": self.origin_lon,
            "anchor_lat": self.anchor_lat,
            "cell_km": self.cell_km,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "mask": [int(v) for v in self.mask.ravel()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        mask = np.asarray(d["mask"], dtype=bool).reshape(d["n_rows"], d["n_cols"])
        return cls(
            origin_lat=float(d["origin_lat"]),
            origin_lon=float(d["origin_lon"]),
            anchor_lat=float(d["anchor_lat"]),
            cell_km=float(d["cell_km"]),
            n_rows=int(d["n_rows"]),
            n_cols=int(d["n_cols"]),
            mask=mask,
        )


def build_grid(bbox: BBox, cell_km: float, mask_polygon=None) -> Grid:
    """Cover a bbox with square cells of edge cell_km.

    Partial edge cells are kept, and a grid of MAX_CELLS cells or more
    raises InvalidInputError before it is allocated. Without mask_polygon
    every cell counts; with one (a list of (lat, lon) vertices) a cell is
    masked in iff its center falls inside the polygon, and a polygon with a
    non-finite vertex or that holds no cell center raises InvalidInputError.
    """
    if not (math.isfinite(cell_km) and cell_km > 0):
        raise InvalidInputError(f"cell_km must be positive and finite, got {cell_km}")
    anchor_lat = bbox.center[0]
    span_ns_km = (bbox.lat_max - bbox.lat_min) * KM_PER_DEG
    span_ew_km = (bbox.lon_max - bbox.lon_min) * KM_PER_DEG * math.cos(math.radians(anchor_lat))
    quotients = (span_ns_km / cell_km, span_ew_km / cell_km)  # inf for a subnormal cell_km
    if max(quotients) > MAX_CELLS:
        raise InvalidInputError(f"cell_km {cell_km:g} makes a grid of at least {MAX_CELLS} "
                                f"cells; a grid takes fewer than {MAX_CELLS}")
    n_rows, n_cols = (max(1, math.ceil(q - _EDGE_EPS)) for q in quotients)
    if n_rows * n_cols >= MAX_CELLS:
        raise InvalidInputError(f"cell_km {cell_km:g} makes a grid of {n_rows} x {n_cols} = "
                                f"{n_rows * n_cols} cells; a grid takes fewer than {MAX_CELLS}")
    grid = Grid(
        origin_lat=bbox.lat_min,
        origin_lon=bbox.lon_min,
        anchor_lat=anchor_lat,
        cell_km=float(cell_km),
        n_rows=n_rows,
        n_cols=n_cols,
        mask=np.ones((n_rows, n_cols), dtype=bool),
    )
    if mask_polygon is None:
        return grid
    try:
        polygon = np.asarray(mask_polygon, dtype=np.float64)
    except (TypeError, ValueError):
        polygon = np.empty(0)
    if polygon.shape[1:] != (2,) or len(polygon) < 3:
        raise InvalidInputError(f"mask_polygon needs 3 or more (lat, lon) pairs: {mask_polygon!r}")
    bad = np.flatnonzero(~np.isfinite(polygon).all(axis=1))
    if bad.size:
        k = int(bad[0])
        raise InvalidInputError(f"mask_polygon vertex {k} is not finite: "
                                f"{tuple(polygon[k].tolist())!r}")
    lat_s, lon_w, lat_n, lon_e = grid.cell_bounds(np.moveaxis(np.indices(grid.mask.shape), 0, -1))
    mask = _in_polygon(0.5 * (lat_s + lat_n), 0.5 * (lon_w + lon_e), polygon)
    if not mask.any():
        raise InvalidInputError(f"mask_polygon selects no cell center of the {n_rows} x {n_cols} "
                                f"grid of {cell_km} km cells: {mask_polygon!r}")
    return replace(grid, mask=mask)


def cell_of(grid: Grid, lat, lon) -> np.ndarray:
    """The (row, col) of the cell holding each point, as an int64 array of
    shape (..., 2); boundary points go to the higher-index cell.

    Total on the grid's bbox: the far north/east edges map into the last
    row/column. A point outside it, or with a NaN coordinate, gets (-1, -1).
    """
    fr = (np.asarray(lat, dtype=np.float64) - grid.origin_lat) / grid.deg_per_cell_lat + _EDGE_EPS
    fc = (np.asarray(lon, dtype=np.float64) - grid.origin_lon) / grid.deg_per_cell_lon + _EDGE_EPS
    inside = ((0 <= fr) & (fr <= grid.n_rows + _EDGE_EPS)
              & (0 <= fc) & (fc <= grid.n_cols + _EDGE_EPS))
    cells = np.stack([np.minimum(fr, grid.n_rows - 1), np.minimum(fc, grid.n_cols - 1)], axis=-1)
    return np.where(inside[..., None], cells, -1).astype(np.int64)  # floors, as fr, fc >= 0


@lru_cache(maxsize=None)
def neighbor_offsets(j: int) -> tuple[tuple[int, int], ...]:
    """Lattice offsets (dr, dc) with 0 < euclidean distance <= j, sorted."""
    if not 1 <= j <= 5:
        raise InvalidInputError(f"neighborhood radius must be in 1..5, got {j}")
    offs = [
        (dr, dc)
        for dr in range(-j, j + 1)
        for dc in range(-j, j + 1)
        if (dr, dc) != (0, 0) and dr * dr + dc * dc <= j * j
    ]
    return tuple(sorted(offs))


def _in_polygon(lat: np.ndarray, lon: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Ray-casting test of every (lat, lon) point against a (k, 2) polygon."""
    inside = np.zeros(np.shape(lat), dtype=bool)
    for (la1, lo1), (la2, lo2) in zip(polygon.tolist(), np.roll(polygon, -1, axis=0).tolist()):
        # t only where the edge spans the point's longitude, so |t| <= 1: off
        # the span a near-vertical edge would overflow the division
        spans = (lo1 > lon) != (lo2 > lon)
        t = (lon[spans] - lo1) / (lo2 - lo1)
        inside[spans] ^= lat[spans] < la1 + t * (la2 - la1)
    return inside


def save_grid(grid: Grid, path) -> None:
    write_json(path, grid.to_dict(), indent=2)


def load_grid(path) -> Grid:
    """Inverse of save_grid; a damaged file raises InvalidInputError naming it."""
    return read_json(path, "grid", Grid.from_dict)
