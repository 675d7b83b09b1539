"""The scripts under scripts/ run end to end, at a small scale."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _script(cwd: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_synthetic_pipeline_on_the_demo_config(tmp_path):
    cfg = json.loads((ROOT / "configs" / "synthetic_demo.json").read_text(encoding="utf-8"))
    cfg.update(cell_km=200, granularities=[200])
    (tmp_path / "demo.json").write_text(json.dumps(cfg), encoding="utf-8")
    proc = _script(tmp_path, "run_synthetic_pipeline.py", "--config", "demo.json",
                   "--out-dir", "out")
    assert proc.returncode == 0, proc.stderr
    assert "all stages complete" in proc.stdout
    for name in ("dataset.csv", "univariate.csv", "tree.json", "hypotheses.csv",
                 "suite_200km.csv", "best_summary.csv", "risk.geojson"):
        assert (tmp_path / "out" / name).exists(), name


def test_recovery_experiment(tmp_path):
    proc = _script(tmp_path, "recovery_experiment.py", "--seeds", "1", "--cells", "40",
                   "--months", "12")
    assert proc.returncode == 0, proc.stderr
    assert "recovered the planted variable in" in proc.stdout
