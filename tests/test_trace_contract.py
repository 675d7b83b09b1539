"""The benchmark's layer tracer (perfbench/layertrace.py) wraps pcrisk
functions by name. This runs a traced pipeline at 200 km cells, so a rename
that breaks `perfbench/run.py --trace 1` fails here too."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = (["build-dataset"], ["test-univariate"], ["learn-tree"],
          ["eval-hypotheses", "--which", "tree"], ["riskmap"])


def test_traced_pipeline_runs(tmp_path):
    cfg = json.loads((ROOT / "configs" / "synthetic_demo.json").read_text(encoding="utf-8"))
    cfg.update(cell_km=200, granularities=[200])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    result = tmp_path / "result.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
            "--result", str(result), "--spans", str(tmp_path / "spans.json")]
    for stage in STAGES:
        argv += ["--stage", json.dumps(stage)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text(encoding="utf-8"))
    assert [s["command"] for s in doc["stages"]] == [s[0] for s in STAGES], proc.stderr
    assert all(s["rc"] == 0 for s in doc["stages"]), proc.stderr
    assert doc["layers"]["features.samples_binned"] > 0
