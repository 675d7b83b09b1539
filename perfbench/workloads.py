"""The benchmark's workloads and the inputs it generates for them.

Every workload starts from the bundled demo config (``configs/synthetic_demo.json``)
and changes only what the workload is about: the cell size, the source of the
data, and which CLI stages run. Inputs are made from the workload seed before
any timed interval starts, so generation never counts as pipeline time.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEMO_CONFIG = Path("configs/synthetic_demo.json")

BUILD = ("build-dataset",)
ANALYSIS = (("test-univariate",), ("learn-tree",), ("eval-hypotheses", "--which", "tree"),
            ("riskmap",))
SUITE = ("train-suite",)

#: the smoke test shrinks every workload to this cell size and one granularity
TINY_CELL_KM = 200.0


@dataclass(frozen=True)
class Workload:
    name: str
    cell_km: float | None  # None keeps the demo config's cell size
    stages: tuple
    files: bool  # real-data path: events and series CSVs written by the benchmark


WORKLOADS = {
    w.name: w for w in (
        # README quick-start order; train-suite dominates, so classifier work shows here.
        Workload("demo", None, (BUILD, ANALYSIS[0], ANALYSIS[1], ANALYSIS[2], SUITE,
                                ANALYSIS[3]), files=False),
        # 8,000 cells and no train-suite: synthesis, binning, neighbour loops and CSV
        # I/O dominate, and CART and hypothesis scoring run at large n.
        Workload("synth-25km", 25.0, (BUILD, *ANALYSIS), files=False),
        # The only workload through parse_events, filter_pastoral, parse_series and
        # the manifest's input hashing; build-dataset dominates.
        Workload("files-50km", 50.0, (BUILD, *ANALYSIS), files=True),
    )
}


def prepare(workload: Workload, seed: int, work_dir: Path, tiny: bool) -> tuple[Path, dict]:
    """Write the workload's run config (and, for the files path, its input
    CSVs) under work_dir; returns the config path and the inputs' sha256s."""
    cfg = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    cfg["seed"] = seed
    if workload.cell_km is not None:
        cfg["cell_km"] = workload.cell_km
    if tiny:
        cfg["cell_km"] = TINY_CELL_KM
        cfg["granularities"] = [TINY_CELL_KM]
    digests = {}
    if workload.files:
        inputs = work_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        events_csv, series_csv = inputs / "events.csv", inputs / "series.csv"
        write_files_inputs(seed, cfg, events_csv, series_csv)
        cfg["source"] = {"kind": "files", "events_csv": str(events_csv),
                         "series_csv": str(series_csv)}
        digests = {p.name: sha256_file(p) for p in (events_csv, series_csv)}
    path = work_dir / "config.json"
    path.write_text(json.dumps(cfg, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path, digests


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# files-50km inputs

#: low surface soil wetness marks the risk stratum, as in the demo's planted effect
_RISK_FRACTION = 0.3
_SSW_MEANS = (22.0, 62.0)  # (risk stratum, background)
#: high enough that some CART leaves pass the demo's min_purity of 0.6
_CONFLICT_RATE = (0.8, 0.05)  # (risk stratum, background)

_PASTORAL_NOTES = (
    "Herders clashed with farmers over access to grazing land.",
    "Armed herdsmen attacked a farming village after cattle were seized.",
    "Pastoralists and cultivators fought over a blocked transhumance corridor.",
)
#: rejected by filter_pastoral: no include keyword, or the default exclude rule
_OTHER_NOTES = (
    "Protesters gathered in the market over fuel prices.",
    "Traders disputed a cattle market price increase; police dispersed them.",
)


def _month_starts(start: dt.date, months: int) -> list[str]:
    out = []
    y, m = start.year, start.month
    for _ in range(months):
        out.append(dt.date(y, m, 1).isoformat())
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def write_files_inputs(seed: int, cfg: dict, events_csv: Path, series_csv: Path) -> None:
    """Seeded events CSV (ACLED column names) and canonical series CSV
    (``cell_row,cell_col,variable,timestamp,value``) for the config's grid.

    Cells in a low-SSW stratum have 16 times the conflict rate of the rest.
    Some events carry non-pastoral notes and some fall outside the window,
    so filter_pastoral has work to reject.
    """
    from pcrisk.grid import BBox, build_grid
    from pcrisk.ingest import VARIABLES

    rng = np.random.default_rng(seed)
    g = build_grid(BBox(*cfg["bbox"]), cfg["cell_km"])
    n = g.n_rows * g.n_cols
    window_start = dt.date.fromisoformat(cfg["window"]["start"])
    window_end = dt.date.fromisoformat(cfg["window"]["end"])
    months = cfg["source"]["months"]
    dates = _month_starts(window_start, months)
    rows, cols = (a.tolist() for a in np.divmod(np.arange(n), g.n_cols))
    in_risk = rng.random(n) < _RISK_FRACTION
    t = np.arange(months, dtype=float)

    with series_csv.open("w", encoding="utf-8", newline="") as fh:
        fh.write("cell_row,cell_col,variable,timestamp,value\n")
        for var in VARIABLES:
            if var == "SSW":
                means = np.where(in_risk, rng.normal(_SSW_MEANS[0], 3.0, n),
                                 rng.normal(_SSW_MEANS[1], 3.0, n))
            else:
                means = rng.uniform(5.0, 80.0, n)
            phase = rng.uniform(0.0, 2.0 * math.pi, n)
            values = (means[:, None] + 4.0 * np.sin(2.0 * math.pi * t / 12.0 + phase[:, None])
                      + rng.normal(0.0, 2.0, (n, months)))
            values = np.maximum(values, 0.0).tolist()
            fh.writelines(
                f"{rows[i]},{cols[i]},{var},{dates[m]},{values[i][m]!r}\n"
                for i in range(n) for m in range(months))

    def point(i: int) -> tuple[float, float]:
        return (g.origin_lat + (rows[i] + rng.uniform(0.05, 0.95)) * g.deg_per_cell_lat,
                g.origin_lon + (cols[i] + rng.uniform(0.05, 0.95)) * g.deg_per_cell_lon)

    events = []
    for i in range(n):
        if rng.random() < _CONFLICT_RATE[0 if in_risk[i] else 1]:
            for _ in range(1 + rng.poisson(1.5)):
                day = dt.date.fromisoformat(dates[rng.integers(months)]).replace(day=15)
                note = _PASTORAL_NOTES[rng.integers(len(_PASTORAL_NOTES))]
                events.append((day, *point(i), note))
    for i in rng.choice(n, size=n // 5, replace=False):
        day = dt.date.fromisoformat(dates[rng.integers(months)]).replace(day=10)
        events.append((day, *point(i), _OTHER_NOTES[rng.integers(len(_OTHER_NOTES))]))
    for i in rng.choice(n, size=n // 10, replace=False):
        day = (window_start - dt.timedelta(days=int(rng.integers(1, 365))) if rng.random() < 0.5
               else window_end + dt.timedelta(days=int(rng.integers(1, 365))))
        events.append((day, *point(i), _PASTORAL_NOTES[0]))
    events.sort(key=lambda e: e[0])
    with events_csv.open("w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["event_date", "latitude", "longitude", "country", "notes"])
        for day, lat, lon, note in events:
            w.writerow([day.isoformat(), repr(lat), repr(lon), cfg["country"], note])
