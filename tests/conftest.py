import csv
import datetime as dt
import json
import math
from pathlib import Path

import numpy as np
import pytest

from pcrisk.grid import KM_PER_DEG, BBox, build_grid
from pcrisk.ingest import PlantedEffect, VariableSeries, Window, synth_country
from pcrisk import cli, features
from pcrisk.features import assemble_dataset, read_dataset_csv

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synthetic_demo.json"


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


def cell_center(g, row: int, col: int) -> tuple[float, float]:
    """(lat, lon) of the center of cell (row, col)."""
    lat_s, lon_w, lat_n, lon_e = g.cell_bounds((row, col))
    return float(0.5 * (lat_s + lat_n)), float(0.5 * (lon_w + lon_e))


def write_series_csv(series: list[VariableSeries], path,
                     start: dt.date = dt.date(2015, 1, 1)) -> None:
    """Canonical cell-indexed series CSV of the records; a cell's k-th
    sample in a record is stamped k months after start. Floats round-trip
    bit-exactly."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["cell_row", "cell_col", "variable", "timestamp", "value"])
        for s in series:
            seen: dict[tuple, int] = {}
            for (r, c), v in zip(s.cells.tolist(), s.samples.tolist()):
                k = seen[r, c] = seen.get((r, c), -1) + 1
                y, m = divmod(start.month - 1 + k, 12)
                w.writerow([r, c, s.variable, dt.date(start.year + y, m + 1, 1).isoformat(),
                            repr(v)])


def planted_risk_cells(series: list[VariableSeries], planted: PlantedEffect) -> set[tuple]:
    """Recover the risk stratum from data: cells whose planted-variable mean
    falls below the regime cutpoint, midway between the two regime means, as
    (row, col) tuples."""
    cutpoint = 0.5 * (planted.low_mean + planted.high_mean)
    out = set()
    for s in series:
        if s.variable == planted.variable:
            cells, which = np.unique(s.cells, axis=0, return_inverse=True)
            which = which.ravel()
            out.update((r, c) for k, (r, c) in enumerate(cells.tolist())
                       if float(s.samples[which == k].mean()) < cutpoint)
    return out


def count_parses(monkeypatch) -> list:
    """The paths features.read_dataset_csv parses from now on, appended as
    it runs."""
    parses = []
    parse = features.read_dataset_csv

    def counted(path, *args, **kwargs):
        parses.append(path)
        return parse(path, *args, **kwargs)

    monkeypatch.setattr(features, "read_dataset_csv", counted)
    return parses


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


@pytest.fixture(scope="session")
def demo_table_25km(tmp_path_factory):
    """dataset.csv of the bundled demo config at 25 km (8,000 cells), as
    build-dataset writes it and learn-tree and riskmap read it."""
    work = tmp_path_factory.mktemp("demo25")
    cfg = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    cfg["cell_km"] = 25.0
    (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["build-dataset", "--config", str(work / "config.json"),
                     "--out-dir", str(work / "out")]) == 0
    return read_dataset_csv(work / "out" / "dataset.csv")
