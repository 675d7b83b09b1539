"""Metamorphic relations: a change to the inputs whose effect on the outputs
is known in advance, checked on the demo country.

- Shuffling the data rows of the events and series CSVs changes no byte of
  what build-dataset writes, and only the input digests of its manifest entry.
- Scaling each feature by its own power of two, which is exact in floating
  point, leaves the scores of DecisionTree, RandomForest and AdaBoost bit for
  bit. GaussianNB is left out: its variance floor is var_smoothing times the
  largest variance over all features, so its scores depend on every
  column's units (README.md says so).
- Swapping the labels negates Welch's mean difference and mirrors its CI,
  maps AUC to 1 - AUC, and inverts Fisher's odds ratio with an equal p.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from pcrisk import cli, hypotheses, ml, stats
from pcrisk.features import Dataset

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import write_files_inputs  # noqa: E402

DEMO_CONFIG = ROOT / "configs" / "synthetic_demo.json"
#: the files that build-dataset writes
BUILT = ("dataset.csv", "grid.json", "bin_edges.json")
#: Fisher's p sums the same hypergeometric terms in another order when the
#: labels swap; measured on the demo's 50 km tree paths, the two agreed to
#: about 1e-12 relative (3.0885627659760444e-32 against 3.088562765979226e-32)
FISHER_P_RTOL = 1e-9
#: the odds ratio of the swapped table is the reciprocal to within 1 ulp
ODDS_RATIO_RTOL = 1e-12


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def demo_50km() -> Dataset:
    """The demo config's table at 50 km."""
    args = cli._parser().parse_args(["build-dataset", "--config", str(DEMO_CONFIG)])
    return cli._build(cli.resolve_config(args), 50.0)[1]


def _swapped(ds: Dataset) -> Dataset:
    return Dataset(cells=ds.cells, X=ds.X, y=1 - ds.y)


def _shuffle_rows(path: Path, seed: int) -> None:
    """Shuffle the lines of a CSV after its header."""
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")


def test_shuffled_input_rows_build_the_same_table(tmp_path):
    demo = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    demo["cell_km"] = 100
    outs = {}
    for side in ("sorted", "shuffled"):
        inputs = tmp_path / side
        inputs.mkdir()
        events, series = inputs / "events.csv", inputs / "series.csv"
        write_files_inputs(7, demo, events, series)
        if side == "shuffled":
            for path in (events, series):
                _shuffle_rows(path, 1)
        doc = dict(demo, source={"kind": "files", "events_csv": str(events),
                                 "series_csv": str(series)})
        cfg = inputs / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = outs[side] = tmp_path / f"out_{side}"
        assert cli.main(["build-dataset", "--config", str(cfg), "--out-dir", str(out)]) == 0
    for name in BUILT:
        assert (outs["sorted"] / name).read_bytes() == (outs["shuffled"] / name).read_bytes()
    entries = {side: json.loads((out / "manifest.json").read_text(encoding="utf-8"))
               ["build-dataset"] for side, out in outs.items()}
    for side, entry in entries.items():
        assert entry["inputs"] == {
            key: {"path": str(tmp_path / side / name), "sha256": _sha256(tmp_path / side / name)}
            for key, name in (("events_csv", "events.csv"), ("series_csv", "series.csv"))}
    sha = {side: {key: v["sha256"] for key, v in entry["inputs"].items()}
           for side, entry in entries.items()}
    assert all(sha["sorted"][key] != sha["shuffled"][key] for key in sha["sorted"])
    assert entries["sorted"]["outputs"] == entries["shuffled"]["outputs"]


@pytest.mark.parametrize("kind", ["DecisionTree", "RandomForest", "AdaBoost"])
def test_power_of_two_scaling_keeps_the_scores(demo_50km, kind):
    train, test = ml.split(demo_50km, 0.2, 7)
    scale = 2.0 ** np.random.default_rng(0).integers(-6, 7, demo_50km.X.shape[1])
    [spec] = ml.default_suite(7, kinds=[kind])
    scores = ml.predict_proba(ml.train(spec, train), test)
    scaled = ml.predict_proba(ml.train(spec, Dataset(train.cells, train.X * scale, train.y)),
                              Dataset(test.cells, test.X * scale, test.y))
    assert np.array_equal(scores.view(np.int64), scaled.view(np.int64))


def test_label_swap_mirrors_welch(demo_50km):
    results = stats.run_univariate(demo_50km)
    swapped = stats.run_univariate(_swapped(demo_50km))
    for r, s in zip(results, swapped, strict=True):
        assert (s.p_raw, s.p_bonferroni, s.df) == (r.p_raw, r.p_bonferroni, r.df), r.variable
        assert (s.diff, s.ci_low, s.ci_high) == (-r.diff, -r.ci_high, -r.ci_low), r.variable


@pytest.mark.parametrize("kind, ulps", [
    ("DecisionTree", 0), ("GaussianNB", 1), ("LogisticRegression", 1)])
def test_label_swap_maps_auc_to_its_complement(demo_50km, kind, ulps):
    # AUC is U / (n0 * n1), with the rank sum U exact. Swapped, it is
    # (n0 * n1 - U) / (n0 * n1), which rounds apart from 1 - U / (n0 * n1) by
    # up to one ulp; on the tree's scores the two are equal
    train, test = ml.split(demo_50km, 0.2, 7)
    [spec] = ml.default_suite(7, kinds=[kind])
    scores = ml.predict_proba(ml.train(spec, train), test)
    auc = ml.metrics(scores, test.y).auc
    assert abs(ml.metrics(scores, 1 - test.y).auc - (1.0 - auc)) <= ulps * np.spacing(1.0 - auc)


def test_label_swap_inverts_the_tree_paths_odds_ratios(demo_50km):
    tree = hypotheses.train_cart(demo_50km, 4, 1)
    paths = hypotheses.extract_paths(tree, 5, 0.6)
    assert len(paths) == 3
    for pred in paths:
        table, res = hypotheses.evaluate_hypothesis(pred, demo_50km)
        table_s, res_s = hypotheses.evaluate_hypothesis(pred, _swapped(demo_50km))
        assert table_s.cells() == (table.b, table.a, table.d, table.c)
        assert res_s.p == pytest.approx(res.p, rel=FISHER_P_RTOL, abs=0.0)
        assert res_s.odds_ratio == pytest.approx(1.0 / res.odds_ratio, rel=ODDS_RATIO_RTOL)
