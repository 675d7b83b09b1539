"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import square_grid
from oracles import (
    exhaustive_cart,
    fisher_p_enumerate,
    lattice_neighbors,
    predict_leaf,
    same_tree,
    welch_p_quad,
)
from pcrisk.cli import main as cli_main
from pcrisk.features import neighbor_counts
from pcrisk.ml import (
    _flatten_params,
    init_mlp_params,
    logistic_loss_grad,
    metrics,
    mlp_loss_grad,
)
from pcrisk.stats import ContingencyTable, fisher_exact, odds_ratio, welch_t_test, woolf_ci

# the eight benchmark contingency tables and their frozen statistics
TABLES = {
    "Hyp3": ((11, 1, 2, 126), 693.0, (58.13, 8261.12), 1.36e-13),
    "Hyp4": ((14, 2, 24, 136), 39.67, (8.471, 185.74), 4.66e-9),
    "Hyp5": ((8, 3, 30, 135), 12.0, (3.005, 47.92), 2.47e-4),
    "Hyp6": ((5, 3, 22, 191), 14.47, (3.236, 64.71), 8.25e-4),
    "Hyp7": ((10, 4, 17, 190), 27.94, (7.916, 98.63), 9.98e-8),
    "Hyp8": ((5, 2, 22, 192), 21.82, (3.993, 119.21), 3.38e-4),
    "Hyp9": ((5, 1, 25, 475), 95.0, (10.69, 844.08), 3.02e-6),
    "Hyp10": ((11, 3, 19, 473), 91.28, (23.51, 354.39), 1.43e-12),
}


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc}")


def test_c01_odds_ratio_golden_suite():
    with criterion(1, "benchmark odds ratios reproduced to +-0.01"):
        t0 = time.time()
        for name, (cells, orr, _, _) in TABLES.items():
            got = odds_ratio(ContingencyTable(*cells))
            assert abs(got - orr) <= 0.01, f"{name}: {got} vs {orr}"
        assert time.time() - t0 < 1.0


def test_c02_woolf_ci_golden_suite():
    with criterion(2, "benchmark Woolf CIs within 1.5% relative"):
        for name, (cells, _, (lo, hi), _) in TABLES.items():
            got_lo, got_hi = woolf_ci(ContingencyTable(*cells))
            assert abs(got_lo - lo) / lo <= 0.015, f"{name} lower: {got_lo} vs {lo}"
            assert abs(got_hi - hi) / hi <= 0.015, f"{name} upper: {got_hi} vs {hi}"


def test_c03_fisher_p_golden_and_enumeration():
    with criterion(3, "benchmark Fisher p within 2x in log space; "
                      "exact vs enumeration for totals <= 12"):
        for name, (cells, _, _, p_ref) in TABLES.items():
            got = fisher_exact(ContingencyTable(*cells))
            assert abs(math.log(got / p_ref)) <= math.log(2.0), f"{name}: {got} vs {p_ref}"
        for n in range(1, 13):
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    for c in range(n + 1 - a - b):
                        d = n - a - b - c
                        if min(a + b, c + d, a + c, b + d) == 0:
                            continue
                        want = float(fisher_p_enumerate(a, b, c, d))
                        got = fisher_exact(ContingencyTable(a, b, c, d))
                        assert abs(got - want) <= 1e-10, (a, b, c, d)


def test_c04_best_row_metric_check():
    with criterion(4, "TP=5 FP=1 FN=0 gives precision 0.83, recall 1.00, F1 0.91"):
        scores = np.r_[np.full(5, 0.9), [0.7], np.full(12, 0.1)]
        labels = np.r_[np.ones(5), [0], np.zeros(12)].astype(int)
        m = metrics(scores, labels)
        assert round(m.precision, 2) == 0.83
        assert round(m.recall, 2) == 1.00
        assert round(m.f1, 2) == 0.91


def test_c05_welch_quadrature_oracle():
    with criterion(5, "Welch p matches the t-tail quadrature oracle on 100 "
                      "random samples (1e-6); identical samples give p = 1"):
        assert welch_t_test([1, 2, 3], [1, 2, 3]).p_raw == 1.0
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n0, n1 = int(rng.integers(3, 15)), int(rng.integers(3, 15))
            x0 = rng.normal(0.0, rng.uniform(0.5, 2.0), n0)
            x1 = rng.normal(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0), n1)
            got = welch_t_test(x0, x1).p_raw
            assert abs(got - welch_p_quad(x0, x1)) <= 1e-6


def test_c06_feature_invariants():
    with criterion(6, "histograms sum to 1 +- 1e-9, vectors are 120-long, "
                      "neighbor counts match brute force up to 20x20"):
        import datetime as dt

        from pcrisk.features import assemble_dataset
        from pcrisk.ingest import Window, synth_country

        g = square_grid(9, 9)
        series, events = synth_country(31, g, 18)
        ds = assemble_dataset(g, series, events,
                              Window(dt.date(2015, 1, 1), dt.date(2016, 6, 30)))
        for x in ds.X:
            assert len(x) == 120
            sums = x[:110].reshape(11, 10).sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-9
        rng = np.random.default_rng(5)
        for n_rows, n_cols in ((4, 6), (11, 9), (20, 20)):
            counts = rng.integers(0, 3, size=(n_rows, n_cols))
            probe = [(0, 0), (n_rows - 1, n_cols - 1), (n_rows // 2, n_cols // 2)]
            for row, col in probe:
                nbr = neighbor_counts(counts)[row, col]
                for k, j in enumerate((1, 2, 3, 4, 5)):
                    want = sum(counts[r, c] for r, c in
                               lattice_neighbors(n_rows, n_cols, row, col, j))
                    assert nbr[k] == want


def test_c07_cart_exhaustive_oracle():
    with criterion(7, "CART equals exhaustive best-split search on 25 random "
                      "datasets; extracted predicates reproduce leaf counts"):
        from pcrisk.features import to_matrix
        from pcrisk.hypotheses import extract_paths, grow_tree

        rng = np.random.default_rng(99)
        for trial in range(25):
            n = int(rng.integers(6, 31))
            d = int(rng.integers(1, 6))
            X = np.round(rng.random((n, d)), 1)
            y = (rng.random(n) < 0.5).astype(int)
            depth = int(rng.integers(1, 4))
            min_leaf = int(rng.integers(1, 3))
            tree = grow_tree(X, y, max_depth=depth, min_leaf=min_leaf)
            assert same_tree(tree, exhaustive_cart(X, y, depth, min_leaf)), trial

        # leaf-count reproduction on feature rows
        import test_hypotheses as th

        Xf = np.round(np.random.default_rng(1).random((80, 6)), 2)
        yf = (Xf[:, 0] > 0.55).astype(int)
        rows = th._rows_from_xy(Xf, yf)
        Xm, ym = to_matrix(rows)
        tree = grow_tree(Xm, ym, max_depth=3, min_leaf=2)
        preds = extract_paths(tree, min_support=1, min_purity=0.0)
        assert preds
        for pred in preds:
            member = np.array([pred.matches(Xm[i]) for i in range(len(rows))])
            leaf = predict_leaf(tree, Xm[np.nonzero(member)[0][0]])
            assert int(member.sum()) == leaf.n_samples
            assert int(ym[member].sum()) == leaf.n_class1


def test_c08_gradient_checks():
    with criterion(8, "logistic and MLP analytic gradients match central "
                      "differences (rel err <= 1e-4) on 20 instances"):
        rng = np.random.default_rng(77)

        def central(fn, x0, eps=1e-6):
            g = np.zeros_like(x0)
            for i in range(len(x0)):
                e = np.zeros_like(x0)
                e[i] = eps
                g[i] = (fn(x0 + e) - fn(x0 - e)) / (2 * eps)
            return g

        for trial in range(20):
            n, d = int(rng.integers(4, 12)), int(rng.integers(2, 6))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            if trial % 2 == 0:
                w = rng.normal(size=d + 1)
                _, grad = logistic_loss_grad(w, X, y, l2=0.05)
                fd = central(lambda v: logistic_loss_grad(v, X, y, 0.05)[0], w)
            else:
                h = int(rng.integers(2, 6))
                flat, shapes = _flatten_params(init_mlp_params([d, h, 1], rng))
                _, grad = mlp_loss_grad(flat, shapes, X, y, l2=0.05)
                fd = central(lambda v: mlp_loss_grad(v, shapes, X, y, 0.05)[0], flat)
                w = flat
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
            assert rel <= 1e-4, f"trial {trial}: rel err {rel}"


def _e2e_config(tmp_path: Path, seed: int) -> str:
    cfg = {
        "country": "E2E",
        "bbox": [0.0, 10.0, 17.9, 32.6],  # 20 x 25 cells of 100 km -> 500 cells
        "cell_km": 100,
        "window": {"start": "2015-01-01", "end": "2016-12-31"},
        "source": {"kind": "synthetic", "months": 24,
                   "planted": {"variable": "SSW", "odds_ratio": 20.0,
                               "base_rate": 0.05}},
        "seed": seed,
    }
    p = tmp_path / f"cfg{seed}.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def test_c09_end_to_end_recovery(tmp_path):
    with criterion(9, "pipeline recovers a planted-feature predicate with "
                      "Fisher p < 1e-3 in >= 9 of 10 seeds, under 60 s"):
        t0 = time.time()
        hits = 0
        for seed in range(10):
            cfg = _e2e_config(tmp_path, seed)
            out = tmp_path / f"run{seed}"
            assert cli_main(["build-dataset", "--config", cfg, "--out-dir", str(out)]) == 0
            assert cli_main(["learn-tree", "--config", cfg, "--out-dir", str(out)]) == 0
            assert cli_main(["eval-hypotheses", "--config", cfg, "--out-dir", str(out)]) == 0
            doc = json.loads((out / "hypotheses.json").read_text())
            n_cells = len((out / "dataset.csv").read_text().splitlines()) - 1
            assert n_cells == 500
            hits += any(
                h["p"] < 1e-3
                and any(c["feature"].startswith("SSW") for c in h["conditions"])
                for h in doc)
        elapsed = time.time() - t0
        assert hits >= 9, f"recovered in only {hits} of 10 seeds"
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"


def test_c10_cli_determinism(tmp_path):
    with criterion(10, "every CLI command is byte-identical when rerun with "
                       "the same config and seed"):
        cfg = {
            "country": "Det",
            "bbox": [0.0, 10.0, 6.2, 17.4],
            "cell_km": 100,
            "granularities": [100, 75],
            "window": {"start": "2015-01-01", "end": "2016-06-30"},
            "source": {"kind": "synthetic", "months": 18,
                       "planted": {"odds_ratio": 30.0, "base_rate": 0.1}},
            "seed": 13,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        commands = [
            ["build-dataset"],
            ["test-univariate"],
            ["learn-tree"],
            ["eval-hypotheses", "--which", "tree"],
            ["eval-hypotheses", "--which", "builtin", "--golden"],
            ["train-suite"],
            ["riskmap"],
        ]

        def run_all():
            snap = {}
            for cmd in commands:
                code = cli_main(cmd + ["--config", str(cfg_path), "--out-dir", str(out)])
                assert code == 0, cmd
                # the manifest holds every command's entry; this command's is its own
                key = "eval-hypotheses --golden" if "--golden" in cmd else cmd[0]
                entry = json.loads((out / "manifest.json").read_text())[key]
                snap[tuple(cmd)] = {"manifest entry": entry, **{
                    name: (out / name).read_bytes() for name in entry["outputs"]}}
            snap["manifest.json"] = (out / "manifest.json").read_bytes()
            return snap

        first = run_all()
        second = run_all()
        for cmd in first:
            assert first[cmd] == second[cmd], f"outputs changed on rerun of {cmd}"
