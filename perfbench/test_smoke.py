"""Smoke test of the benchmark harness at a tiny scale (200 km cells).

Checks that every metric the harness prints is declared in BENCHMARK.json
with the same unit, and the other way round, and that the harness refuses to
run where there is no pcrisk source. Run from the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace,section", [
    ("demo", 0, "end_to_end"),
    ("demo", 1, "per_layer"),
    ("files-50km", 1, "per_layer"),
])
def test_printed_metrics_are_declared(workload, trace, section):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert printed == declared


def test_declared_workloads_exist():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "demo", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
