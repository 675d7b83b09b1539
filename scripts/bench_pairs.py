#!/usr/bin/env python3
"""Alternating benchmark pairs of a parent checkout against this one.

Runs ``perfbench/run.py --trace 0`` on each given workload in turn, in the
parent checkout and in this one by turns, for a number of pairs: pair i
runs the parent first when i is even and this checkout first when it is
odd, so a drift of the host's speed weighs on both sides alike. It then
writes one ``BENCH_<label>.json``. At its top it holds the run-wide
settings: the seed, the seconds per run, the run order, the CPU count and
BLAS thread setting the runs saw, and each side's line count of
``src/pcrisk/*.py``. Under ``workloads`` it holds, per workload:

- the pair count and both git shas;
- each side's artifact sha256 lines, whether every run of that side
  printed the same ones, and whether both sides' first runs did;
- per side and per end-to-end metric, the median, the quartiles, the run
  count and every run's value;
- per metric, the number of pairs in which this checkout did better;
- under ``raw_wall_s``, per side, the same summary of each run's median
  unscaled stage-sum wall time (from the run's ``report.json``), with the
  pairs this checkout won. The end-to-end times are scaled by a speed
  probe that runs beside the stages, so a change that only moves the
  probe shows in them and not here.

Usage, from anywhere:
    python3 scripts/bench_pairs.py --parent ../parent --workload demo \\
        --workload synth-25km --pairs 10 --label pr19 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "this")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One perfbench run in checkout: its env, artifact lines and metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"error: benchmark run in {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"env": env,
            "artifacts": [line for line in lines if line.startswith("artifact")],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "units": {name: m["unit"] for name, m in result["metrics"].items()},
            "raw_wall_s": raw_wall_s(checkout / ".perfbench_out" / workload / "report.json")}


def raw_wall_s(report: Path) -> float:
    """The median over a perfbench run's repetitions of the unscaled
    wall time of all its stages."""
    reps = json.loads(report.read_text(encoding="utf-8"))["reps"]
    return statistics.median(sum(s["s"] for s in rep["stages"]) for rep in reps)


def src_lines(checkout: Path) -> int:
    """The line count of checkout's src/pcrisk/*.py, as wc -l gives it."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "pcrisk").glob("*.py"))


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "runs": values}


def workload_entry(runs: dict[str, list[dict]]) -> dict:
    """One workload's record: shas, artifact lines, metric summaries and
    the pairs this checkout won."""
    units = runs["this"][0]["units"]
    return {
        "pairs": len(runs["this"]),
        "git_sha": {side: runs[side][0]["env"].get("git_sha") for side in SIDES},
        "artifacts": {side: runs[side][0]["artifacts"] for side in SIDES},
        "artifacts_stable": {side: all(r["artifacts"] == runs[side][0]["artifacts"]
                                       for r in runs[side]) for side in SIDES},
        "artifacts_equal": runs["parent"][0]["artifacts"] == runs["this"][0]["artifacts"],
        "metrics": {side: {name: {"unit": unit,
                                  **summary([r["metrics"][name] for r in runs[side]])}
                           for name, unit in units.items()} for side in SIDES},
        # every end-to-end metric of perfbench is better when lower
        "pairs_this_lower": {name: sum(t["metrics"][name] < p["metrics"][name]
                                       for p, t in zip(runs["parent"], runs["this"]))
                             for name in units},
        "raw_wall_s": {**{side: summary([r["raw_wall_s"] for r in runs[side]]) for side in SIDES},
                       "pairs_this_lower": sum(t["raw_wall_s"] < p["raw_wall_s"] for p, t
                                               in zip(runs["parent"], runs["this"]))},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the parent checkout")
    ap.add_argument("--workload", required=True, action="append", dest="workloads",
                    help="a perfbench workload; give it once per workload")
    ap.add_argument("--pairs", type=int, required=True, help="per workload")
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0, help="per run (perfbench --seconds)")
    ap.add_argument("--tiny", action="store_true", help="perfbench --tiny")
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default: BENCH_<label>.json in this checkout)")
    args = ap.parse_args(argv)
    if len(set(args.workloads)) < len(args.workloads):
        ap.error("each --workload may be given once")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "this": ROOT}

    entries = {}
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], workload, args.seed,
                                           args.seconds, args.tiny))
                run = runs[side][-1]
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in run["metrics"].items())
                    + f" raw_wall_s={run['raw_wall_s']:.4g}", flush=True)
        entries[workload] = workload_entry(runs)
        env = runs["this"][0]["env"]

    doc = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "order": "alternating; the parent runs first in even pairs (0-based)",
        "cpu_count": env.get("cpu_count"),
        "cpus_usable": env.get("cpus_usable"),
        "blas_threads": env.get("blas_threads"),
        "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
        "workloads": entries,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in entries.items():
        rows, metrics, raw = [], entry["metrics"], entry["raw_wall_s"]
        for name, won in entry["pairs_this_lower"].items():
            rows.append((name, metrics["parent"][name], metrics["this"][name], won))
            if name == "pipeline_s":
                rows.append(("raw_wall_s", raw["parent"], raw["this"], raw["pairs_this_lower"]))
        for name, p, t, won in rows:
            print(f"{workload} {name}: parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
                  f"this {t['median']:.4g} [{t['q1']:.4g}, {t['q3']:.4g}]  "
                  f"this lower in {won}/{args.pairs}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
