import datetime as dt
import math

import pytest

from pcrisk.grid import KM_PER_DEG, BBox, build_grid
from pcrisk.ingest import PlantedEffect, Window, synth_country
from pcrisk.features import assemble_dataset


def square_grid(n_rows: int, n_cols: int, cell_km: float = 100.0, lat0: float = 0.0):
    """A grid with exactly n_rows x n_cols cells (bbox spans half a cell less
    than the target, so edge rounding cannot flip the count)."""
    dlat = cell_km / KM_PER_DEG
    lat_max = lat0 + (n_rows - 0.5) * dlat
    anchor = 0.5 * (lat0 + lat_max)
    dlon = cell_km / (KM_PER_DEG * math.cos(math.radians(anchor)))
    bbox = BBox(lat0, 20.0, lat_max, 20.0 + (n_cols - 0.5) * dlon)
    g = build_grid(bbox, cell_km)
    assert (g.n_rows, g.n_cols) == (n_rows, n_cols)
    return g


@pytest.fixture(scope="session")
def small_country():
    """A 10x10 synthetic country with a strong planted effect; shared by
    tests that only need a plausible assembled dataset."""
    g = square_grid(10, 10)
    window = Window(dt.date(2015, 1, 1), dt.date(2016, 12, 31))
    series, events = synth_country(seed=42, grid=g, months=24,
                                   planted=PlantedEffect(base_rate=0.08))
    ds = assemble_dataset(g, series, events, window)
    return g, series, events, window, ds
