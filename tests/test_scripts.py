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


def test_bench_pairs_of_this_checkout_against_itself(tmp_path):
    out = tmp_path / "BENCH_self.json"
    proc = _script(tmp_path, "bench_pairs.py", "--parent", str(ROOT), "--workload", "demo",
                   "--workload", "synth-25km", "--pairs", "1", "--label", "self", "--tiny",
                   "--seconds", "0", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert (doc["label"], doc["tiny"]) == ("self", True)
    assert list(doc["workloads"]) == ["demo", "synth-25km"]
    assert doc["cpu_count"] >= 1 and set(doc["blas_threads"]) == {
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    assert doc["src_lines"]["parent"] == doc["src_lines"]["this"] > 0
    for entry in doc["workloads"].values():
        assert entry["pairs"] == 1
        assert entry["git_sha"]["parent"] == entry["git_sha"]["this"]
        # the same checkout writes the same artifacts
        assert entry["artifacts"]["parent"] == entry["artifacts"]["this"]
        assert entry["artifacts_equal"] is True
        assert any(line.startswith("artifacts sha256 ") for line in entry["artifacts"]["this"])
        for side in ("parent", "this"):
            pipeline = entry["metrics"][side]["pipeline_s"]
            assert pipeline["n"] == 1 and pipeline["q1"] == pipeline["median"] == pipeline["q3"] > 0
            assert set(entry["metrics"][side]) == {"setup_s", "pipeline_s", "build_s",
                                                   "analysis_s", "peak_rss_mb"}
        assert set(entry["pairs_this_lower"]) == set(entry["metrics"]["this"])
        # each side's unscaled stage-sum wall time, from perfbench's report.json
        raw = entry["raw_wall_s"]
        assert raw["pairs_this_lower"] in (0, 1)
        for side in ("parent", "this"):
            assert raw[side]["n"] == 1 and raw[side]["median"] > 0
    assert "demo raw_wall_s: parent " in proc.stdout


def test_riskmap_pairs_of_this_checkout_against_itself(tmp_path):
    cfg = json.loads((ROOT / "configs" / "synthetic_demo.json").read_text(encoding="utf-8"))
    cfg.update(cell_km=200, granularities=[200])
    (tmp_path / "demo.json").write_text(json.dumps(cfg), encoding="utf-8")
    proc = _script(tmp_path, "riskmap_pairs.py", "--parent", str(ROOT), "--config", "demo.json")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # one line per classifier kind and artifact, each equal
    assert len(lines) == 8 * 4
    assert all(line.endswith(" equal") for line in lines), proc.stdout
