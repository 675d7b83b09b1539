#!/usr/bin/env python3
"""pcrisk pipeline benchmark.

Runs the documented CLI stages (``pcrisk.cli.main``) of one named workload.
Each repetition runs the whole stage sequence in a fresh interpreter with one
BLAS thread, in a fresh, empty out-dir at a fixed path; repetitions continue
while the next one is expected to end within ``--seconds`` (the first always
runs). Every artifact of every repetition is checked, and all repetitions
must hash alike. With ``--trace 0`` it prints the end-to-end metrics: times
scaled to a fixed host speed by the child's speed probe, and peak memory. With
``--trace 1`` it runs the workload once untraced and once traced, and prints
the per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted`` (stage
invocations), ``failed`` (failed stage invocations) and ``metrics``.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload demo --seed 7 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_out")

#: fewest fresh-interpreter imports behind setup_s; every repetition's child
#: counts, and import-only children make up the rest
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "build_s": "s", "analysis_s": "s",
              "peak_rss_mb": "MB"}

#: the speed probe's loop time at the reference host speed; every reported
#: time is scaled by this over the mean probe time seen during its interval
PROBE_REF_S = 3.5e-4

ARTIFACTS = {
    "build-dataset": ("dataset.csv", "grid.json", "bin_edges.json"),
    "test-univariate": ("univariate.csv",),
    "learn-tree": ("tree.json", "tree.dot"),
    "eval-hypotheses": ("hypotheses.csv", "hypotheses.json"),
    "train-suite": ("best_summary.csv",),
    "riskmap": ("risk.geojson", "risk.pgm", "risk.csv", "model.json"),
}


class Rep:
    """One repetition: the child's result and the commands whose run or
    artifacts failed a check."""

    def __init__(self, result: dict | None):
        self.result = result
        self.failed: set[str] = set()
        self.digests: dict[str, str] = {}

    def at_ref_speed(self, commands=None) -> float:
        """Wall time of the given stages (default: all), scaled to the
        reference host speed."""
        return at_ref_speed([s for s in self.result["stages"]
                             if commands is None or s["command"] in commands])


def at_ref_speed(intervals) -> float:
    """Summed wall time of intervals (dicts with s, probe_sum, probe_n)
    scaled to the reference host speed; unscaled if no probe fell in them."""
    wall = sum(i["s"] for i in intervals)
    n = sum(i["probe_n"] for i in intervals)
    return wall * PROBE_REF_S * n / sum(i["probe_sum"] for i in intervals) if n else wall


def run_child(cfg: Path, out_dir: Path, stages, result: Path, spans: Path | None = None):
    """Run stages in a fresh interpreter and a fresh, empty out_dir; returns
    the child's result dict, or None if it crashed or timed out."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    result.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(cfg),
           "--out-dir", str(out_dir), "--result", str(result)]
    for stage in stages:
        cmd += ["--stage", json.dumps(list(stage))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: stage run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"error: stage run exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text(encoding="utf-8"))


def check_outputs(wl: workloads.Workload, cfg: dict, out_dir: Path, rep: Rep,
                  reference: Rep | None) -> None:
    """Mark each stage that exited nonzero or left an expected artifact
    missing, wrong, or different from the reference repetition's."""
    commands = [s[0] for s in wl.stages]
    ran = {s["command"]: s["rc"] for s in (rep.result or {}).get("stages", [])}
    rep.failed = {c for c in commands if ran.get(c) != 0}
    if rep.result is None:
        return
    owner = {name: c for c in commands for name in ARTIFACTS[c]}
    if "train-suite" in commands:
        for km in cfg["granularities"]:
            owner[f"suite_{km:g}km.csv"] = "train-suite"
    owner["manifest.json"] = commands[-1]
    for name, command in owner.items():
        path = out_dir / name
        if not path.is_file():
            print(f"check: {name} missing", file=sys.stderr)
            rep.failed.add(command)
            continue
        rep.digests[name] = workloads.sha256_file(path)
        if reference is not None and reference.digests.get(name) != rep.digests[name]:
            print(f"check: {name} differs between repetitions", file=sys.stderr)
            rep.failed.add(command)
    problems = []
    if "grid.json" in rep.digests:
        n_cells = sum(json.loads((out_dir / "grid.json").read_text(encoding="utf-8"))["mask"])
    if "dataset.csv" in rep.digests and "grid.json" in rep.digests:
        with (out_dir / "dataset.csv").open(encoding="utf-8") as fh:
            if sum(1 for _ in fh) - 1 != n_cells:
                problems.append(("build-dataset", f"dataset.csv rows != {n_cells} masked cells"))
    for name in rep.digests:
        if name.startswith("suite_"):
            with (out_dir / name).open(encoding="utf-8") as fh:
                kinds = [line.split(",", 1)[0] for line in fh.read().splitlines()[1:]]
            if sorted(kinds) != sorted(layertrace.CLASSIFIER_KINDS):
                problems.append(("train-suite", f"{name} rows are {kinds}"))
    if "hypotheses.json" in rep.digests and "grid.json" in rep.digests:
        scored = json.loads((out_dir / "hypotheses.json").read_text(encoding="utf-8"))
        if any(sum(h["table"]) != n_cells for h in scored):
            problems.append(("eval-hypotheses", f"a contingency table does not sum to {n_cells}"))
        if wl.files and not scored:  # its inputs plant an association for CART to find
            problems.append(("eval-hypotheses", "learn-tree yielded no scored hypothesis"))
    for command, why in problems:
        print(f"check: {why}", file=sys.stderr)
        rep.failed.add(command)


class Runner:
    """Runs and checks repetitions of one workload under a work directory."""

    def __init__(self, wl: workloads.Workload, cfg_path: Path, work: Path):
        self.wl = wl
        self.cfg_path = cfg_path
        self.cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        self.work = work
        self.out_dir = work / "out"
        self.reps: list[Rep] = []

    def run(self, spans: Path | None = None) -> Rep:
        rep = Rep(run_child(self.cfg_path, self.out_dir, self.wl.stages,
                            self.work / "rep.json", spans))
        check_outputs(self.wl, self.cfg, self.out_dir, rep, self.reps[0] if self.reps else None)
        self.reps.append(rep)
        return rep

    def import_sample(self) -> float:
        res = run_child(self.cfg_path, self.out_dir, (), self.work / "probe.json")
        if res is None:
            raise SystemExit(2)
        return at_ref_speed([res["setup"]])


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    """Repetitions for about `seconds`; the end-to-end metrics."""
    started = time.perf_counter()
    while True:
        t = time.perf_counter()
        if runner.run().failed:
            return {}
        now = time.perf_counter()
        if now - started + (now - t) > seconds:
            break
    setup = [at_ref_speed([r.result["setup"]]) for r in runner.reps]
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.import_sample())
    analysis = [s[0] for s in workloads.ANALYSIS]
    return {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(r.at_ref_speed() for r in runner.reps),
        "build_s": statistics.median(r.at_ref_speed(["build-dataset"]) for r in runner.reps),
        "analysis_s": statistics.median(r.at_ref_speed(analysis) for r in runner.reps),
        "peak_rss_mb": max(r.result["peak_rss_mb"] for r in runner.reps),
    }


def traced_run(runner: Runner) -> dict[str, float]:
    """One untraced and one traced repetition; the per-layer metrics, or {}
    if either failed."""
    base = runner.run()
    if base.failed:
        return {}
    traced = runner.run(spans=runner.work / "spans.json")
    if traced.failed:
        return {}
    layers = dict(traced.result["layers"])
    layers["trace.overhead_s"] = traced.at_ref_speed() - base.at_ref_speed()
    return layers


def git_sha() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=7, help="workload seed (default: the demo's)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="repeat the stage sequence for about this long (at least once)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to 200 km cells (harness smoke test)")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    if not (Path("src/pcrisk/cli.py").is_file() and workloads.DEMO_CONFIG.is_file()):
        print("error: no pcrisk source here (src/pcrisk, configs/); run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / wl.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cfg_path, input_digests = workloads.prepare(wl, args.seed, work, args.tiny)
    runner = Runner(wl, cfg_path, work)

    if args.trace:
        values, units = traced_run(runner), layertrace.LAYER_METRICS
    else:
        values, units = measure(runner, args.seconds), END_TO_END
    attempted = len(runner.reps) * len(wl.stages)
    failed = sum(len(r.failed) for r in runner.reps)
    correct = failed == 0
    metrics = {name: (values[name], unit) for name, unit in units.items()} if correct else {}

    first = runner.reps[0]
    env = dict(first.result["env"]) if first.result else {}
    env.update(git_sha=git_sha(), workload=wl.name, seed=args.seed, tiny=args.tiny,
               repetitions=len(runner.reps))
    stage_s = {}
    for rep in runner.reps:
        for s in (rep.result or {}).get("stages", []):
            stage_s.setdefault(s["command"], []).append(s["s"])
    report = {"env": env, "inputs": input_digests, "artifacts": first.digests,
              "reps": [r.result for r in runner.reps], "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    for name, digest in sorted(input_digests.items()):
        print(f"input {name} sha256 {digest}")
    for name, digest in sorted(first.digests.items()):
        print(f"artifact {name} sha256 {digest}")
    combined = hashlib.sha256("".join(
        f"{n} {d}\n" for n, d in sorted(first.digests.items())).encode()).hexdigest()
    print(f"artifacts sha256 {combined}")
    for command, times in stage_s.items():
        print(f"stage {command} wall median {statistics.median(times):.4f} s over {len(times)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
