#!/usr/bin/env python3
"""riskmap's artifacts for every classifier kind, in a parent checkout and in
this one, compared file by file.

For each value of ``riskmap.model`` (each classifier kind) it runs
``build-dataset`` and then ``riskmap`` on the config in both checkouts, each
in a fresh out-dir and with one BLAS thread, since the bytes of some models
depend on the thread count. It prints one line per kind and artifact,
``<kind> <file> equal`` or ``<kind> <file> differs``; for a differing
``model.json`` it adds whether the two ``state`` records are equal. The
manifest names its out-dir, so it is not compared. Relative paths in the
config resolve from the directory the script runs in.

Usage, from anywhere:
    python3 scripts/riskmap_pairs.py --parent ../parent \\
        [--config configs/synthetic_demo.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pcrisk.ml import CLASSIFIER_KINDS  # noqa: E402

ARTIFACTS = ("model.json", "risk.csv", "risk.geojson", "risk.pgm")
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_riskmap(checkout: Path, config: Path, out_dir: Path) -> None:
    """build-dataset, then riskmap, with checkout's package on the config."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    for stage in ("build-dataset", "riskmap"):
        proc = subprocess.run([sys.executable, "-m", "pcrisk.cli", stage, "--config",
                               str(config), "--out-dir", str(out_dir)],
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: {stage} in {checkout} failed "
                             f"(exit {proc.returncode}):\n{proc.stderr}")


def compare(name: str, parent: Path, this: Path) -> str:
    """'equal' or 'differs', and for model.json whether state is equal."""
    a, b = parent.read_bytes(), this.read_bytes()
    if a == b:
        return "equal"
    if name == "model.json":
        same = json.loads(a)["state"] == json.loads(b)["state"]
        return f"differs (state {'equal' if same else 'differs'})"
    return "differs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    ap.add_argument("--config", type=Path, default=ROOT / "configs" / "synthetic_demo.json")
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "this": ROOT}
    cfg = json.loads(args.config.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for kind in CLASSIFIER_KINDS:
            config = tmp / f"{kind}.json"
            riskmap = {**cfg.get("riskmap", {}), "model": kind}
            config.write_text(json.dumps({**cfg, "riskmap": riskmap}), encoding="utf-8")
            for side, checkout in checkouts.items():
                run_riskmap(checkout, config, tmp / kind / side)
            for name in ARTIFACTS:
                print(f"{kind} {name} " + compare(name, tmp / kind / "parent" / name,
                                                  tmp / kind / "this" / name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
