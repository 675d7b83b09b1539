#!/usr/bin/env python3
"""Seed-sweep recovery experiment on synthetic countries.

For each seed, plant a feature-conflict association with a known odds
ratio, run build-dataset -> learn-tree -> eval-hypotheses, and check
whether some extracted predicate (a) mentions the planted variable and
(b) reaches the Fisher significance cutoff. Prints a per-seed table and
the recovery rate.

Usage:
    python scripts/recovery_experiment.py --seeds 10 --odds-ratio 20 --cells 500
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from pcrisk.cli import main as pcrisk_main
from pcrisk.grid import KM_PER_DEG

CELL_KM = 100.0


def run_one(seed: int, n_rows: int, n_cols: int, odds_ratio: float,
            base_rate: float, months: int, p_cut: float, workdir: Path) -> dict:
    lat_span = (n_rows - 0.5) * CELL_KM / KM_PER_DEG
    lon_span = (n_cols - 0.5) * CELL_KM / KM_PER_DEG / 0.98  # generous at low latitude
    cfg = {
        "country": "Recovery",
        "bbox": [0.0, 10.0, lat_span, 10.0 + lon_span],
        "cell_km": CELL_KM,
        "window": {"start": "2015-01-01", "end": "2016-12-31"},
        "source": {"kind": "synthetic", "months": months,
                   "planted": {"variable": "SSW", "odds_ratio": odds_ratio,
                               "base_rate": base_rate}},
        "seed": seed,
    }
    cfg_path = workdir / f"cfg{seed}.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = workdir / f"run{seed}"
    for stage in (["build-dataset"], ["learn-tree"], ["eval-hypotheses"]):
        code = pcrisk_main(stage + ["--config", str(cfg_path), "--out-dir", str(out)])
        if code != 0:
            return {"seed": seed, "error": code}
    doc = json.loads((out / "hypotheses.json").read_text())
    hits = [h for h in doc
            if h["p"] < p_cut
            and any(c["feature"].startswith("SSW") for c in h["conditions"])]
    return {
        "seed": seed,
        "n_predicates": len(doc),
        "recovered": bool(hits),
        "best_p": min((h["p"] for h in hits), default=None),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--odds-ratio", type=float, default=20.0)
    ap.add_argument("--base-rate", type=float, default=0.05)
    ap.add_argument("--cells", type=int, default=500, help="approximate cell count")
    ap.add_argument("--months", type=int, default=24)
    ap.add_argument("--p-cut", type=float, default=1e-3)
    args = ap.parse_args()

    n_rows = max(2, int(round(args.cells ** 0.5 * 0.9)))
    n_cols = max(2, int(round(args.cells / n_rows)))
    print(f"grid {n_rows}x{n_cols} (~{n_rows * n_cols} cells), planted OR "
          f"{args.odds_ratio}, base rate {args.base_rate}")
    recovered = 0
    with tempfile.TemporaryDirectory() as td:
        for seed in range(args.seeds):
            r = run_one(seed, n_rows, n_cols, args.odds_ratio, args.base_rate,
                        args.months, args.p_cut, Path(td))
            recovered += bool(r.get("recovered"))
            print(r)
    print(f"recovered the planted variable in {recovered}/{args.seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
