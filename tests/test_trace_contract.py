"""The benchmark's layer tracer (perfbench/layertrace.py) wraps pcrisk
functions by name. These run a traced pipeline at 200 km cells from the
synthetic source and from the benchmark's generated input files, and a traced
train-suite at 100 km, so a rename that breaks `perfbench/run.py --trace 1`
fails here too."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from layertrace import CLASSIFIER_KINDS  # noqa: E402
from pcrisk import cli, ml  # noqa: E402
from pcrisk.grid import BBox, build_grid  # noqa: E402
from pcrisk.ingest import VARIABLES  # noqa: E402
from workloads import write_files_inputs  # noqa: E402

STAGES = (["build-dataset"], ["test-univariate"], ["learn-tree"],
          ["eval-hypotheses", "--which", "tree"], ["riskmap"])


def _demo_config() -> dict:
    cfg = json.loads((ROOT / "configs" / "synthetic_demo.json").read_text(encoding="utf-8"))
    cfg.update(cell_km=200, granularities=[200])
    return cfg


def _traced_run(tmp_path, cfg: dict, stages=STAGES) -> dict:
    """Run stages under perfbench/child.py --spans; returns its result."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    result = tmp_path / "result.json"
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
            "--result", str(result), "--spans", str(tmp_path / "spans.json")]
    for stage in stages:
        argv += ["--stage", json.dumps(stage)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text(encoding="utf-8"))
    assert [s["command"] for s in doc["stages"]] == [s[0] for s in stages], proc.stderr
    assert all(s["rc"] == 0 for s in doc["stages"]), proc.stderr
    return doc


def test_traced_pipeline_runs(tmp_path):
    cfg = _demo_config()
    doc = _traced_run(tmp_path, cfg)
    # build-dataset bins every month of every variable in every masked cell once
    g = build_grid(BBox(*cfg["bbox"]), cfg["cell_km"], cfg.get("mask_polygon"))
    n_samples = len(VARIABLES) * int(g.mask.sum()) * cfg["source"]["months"]
    assert doc["layers"]["features.samples_binned"] == n_samples
    # the tracer walks train_cart's tree through its views; learn-tree saved it
    tree = json.loads((tmp_path / "out" / "tree.json").read_text(encoding="utf-8"))
    assert doc["layers"]["hypotheses.tree_nodes"] == _json_nodes(tree) > 1


def _json_nodes(node: dict) -> int:
    """The number of nodes of a tree saved as tree.json."""
    return 1 + sum(_json_nodes(node[side]) for side in ("left", "right") if side in node)


def test_traced_files_pipeline_reads_series_once(tmp_path):
    cfg = _demo_config()
    events_csv, series_csv = tmp_path / "events.csv", tmp_path / "series.csv"
    write_files_inputs(7, cfg, events_csv, series_csv)
    cfg["source"] = {"kind": "files", "events_csv": str(events_csv),
                     "series_csv": str(series_csv)}
    layers = _traced_run(tmp_path, cfg)["layers"]
    assert layers["ingest.parse_series.calls"] == 1
    # one sample per data row of the series CSV
    n_rows = len(series_csv.read_text(encoding="utf-8").splitlines()) - 1
    assert layers["features.samples_binned"] == n_rows


def test_traced_train_suite(tmp_path):
    cfg = _demo_config()
    cfg.update(cell_km=100, granularities=[100])
    layers = _traced_run(tmp_path, cfg, stages=[["train-suite"]])["layers"]
    for kind in CLASSIFIER_KINDS:
        assert layers[f"ml.train.{kind}.s"] > 0, kind
    # the epochs of the suite's DeepNN, fitted here on the same split
    run = cli.resolve_config(cli._parser().parse_args(
        ["train-suite", "--config", str(tmp_path / "config.json")]))
    train_ds, _ = ml.split(cli._build(run, 100)[1], run.ml["test_fraction"], run.seed)
    spec = next(s for s in ml.default_suite(run.seed, run.ml["class_weight"])
                if s.kind == "DeepNN")
    assert layers["ml.epochs.DeepNN"] == ml.train(spec, train_ds).epochs


def test_traced_suite_fits_in_one_lane():
    # the tracer keeps one open-span stack for all threads, so a traced suite
    # must fit every spec on the calling thread, even with two usable CPUs and
    # BLAS pinned to one thread
    code = ("import os, threading\n"
            "import layertrace\n"
            "from pcrisk import cli, ml\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "layertrace.install(layertrace.Tracer('lanes'))\n"
            "traced, seen = ml.train, []\n"
            "def train(spec, ds):\n"
            "    seen.append(threading.current_thread() is threading.main_thread())\n"
            "    return traced(spec, ds)\n"
            "ml.train = train\n"
            "cfg = cli.resolve_config(cli._parser().parse_args(\n"
            "    ['train-suite', '--config', 'configs/synthetic_demo.json']))\n"
            "threads = threading.active_count()\n"
            "ml.run_suite(cli._build(cfg, 200.0)[1], ml.default_suite(cfg.seed), 0.2, cfg.seed)\n"
            "print(len(seen), all(seen), threading.active_count() - threads)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(len(CLASSIFIER_KINDS)), "True", "0"]
