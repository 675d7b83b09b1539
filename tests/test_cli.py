import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import count_parses
from pcrisk import cli, errors, features, hypotheses, ml, riskmap
from pcrisk.cli import main
from pcrisk.grid import BBox, build_grid
from pcrisk.ingest import VARIABLES, PlantedEffect, synth_country


def _cfg(tmp_path, **overrides) -> str:
    cfg = {
        "country": "Testland",
        "bbox": [0.0, 10.0, 4.5, 14.5],
        "cell_km": 100,
        "granularities": [100, 75, 50],
        "window": {"start": "2015-01-01", "end": "2016-06-30"},
        "source": {"kind": "synthetic", "months": 18,
                   "planted": {"odds_ratio": 40.0, "base_rate": 0.1}},
        "seed": 7,
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def _run(*argv) -> int:
    return main(list(argv))


class TestBuildDataset:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = _cfg(tmp_path)
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
        for name in ("dataset.csv", "grid.json", "bin_edges.json", "manifest.json"):
            assert (out / name).exists()
        text = capsys.readouterr().out
        assert "30 cells" in text  # 6x5 grid at 100 km

    def test_byte_identical_rerun(self, tmp_path):
        cfg = _cfg(tmp_path)
        out = tmp_path / "out"
        _run("build-dataset", "--config", cfg, "--out-dir", str(out))
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        _run("build-dataset", "--config", cfg, "--out-dir", str(out))
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_finer_cells_quadruple_count(self, tmp_path):
        cfg = _cfg(tmp_path)
        out100, out50 = tmp_path / "o100", tmp_path / "o50"
        _run("build-dataset", "--config", cfg, "--out-dir", str(out100))
        _run("build-dataset", "--config", cfg, "--cell-km", "50", "--out-dir", str(out50))
        n100 = len((out100 / "dataset.csv").read_text().splitlines()) - 1
        n50 = len((out50 / "dataset.csv").read_text().splitlines()) - 1
        assert 3.0 <= n50 / n100 <= 5.0

    def test_missing_seed_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}", encoding="utf-8")
        assert _run("build-dataset", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "x")) == 3

    def test_empty_events_file_all_labels_zero(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text("event_date,latitude,longitude,country,notes\n", encoding="utf-8")
        series = tmp_path / "series.csv"
        lines = ["cell_row,cell_col,variable,timestamp,value"]
        for var in VARIABLES:
            for m in (1, 2):
                lines.append(f"0,0,{var},2015-0{m}-01,{m}.0")
        series.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = _cfg(tmp_path, source={"kind": "files", "events_csv": str(events),
                                     "series_csv": str(series)})
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
        rows = (out / "dataset.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "0" for r in rows)

    @pytest.mark.parametrize("fault, key", [
        ({"window": {"start": "2015-13-01", "end": "2016-06-30"}}, "window.start"),
        ({"bbox": [0.0, 10.0, 4.5]}, "bbox"),
        ("{\"seed\": 7,", "not valid JSON"),
        ({"cell_km": "abc"}, "cell_km"),
        # int() and float() take a bool as 0 or 1
        ({"tree": {"max_depth": True}}, "tree.max_depth"),
        ({"source": {"kind": "synthetic", "months": True}}, "source.months"),
        # out of range: once refused by a later stage without the file or the
        # key, or not at all
        ({"source": {"kind": "synthetic", "months": 0}}, "source.months"),
        ({"tree": {"max_depth": 0}}, "tree.max_depth"),
        ({"tree": {"min_leaf": 0}}, "tree.min_leaf"),
        ({"stats": {"bonferroni_m": 0}}, "stats.bonferroni_m"),
        ({"ml": {"test_fraction": 1.5}}, "ml.test_fraction"),
        ({"bbox": [4.5, 10.0, 0.0, 14.5]}, "bbox"),
        ({"bbox": [0.0, 10.0, 200.0, 14.5]}, "bbox"),
        ({"window": {"start": "2016-06-30", "end": "2015-01-01"}}, "window"),
        ({"source": {"kind": "synthetic", "planted": {"base_rate": 1.5}}}, "source.planted"),
        ({"tree": {"min_purity": 1.5}}, "tree.min_purity"),
        ({"tree": {"min_support": -3}}, "tree.min_support"),
    ], ids=["window_month_13", "bbox_three_numbers", "malformed_json", "cell_km_text",
            "max_depth_true", "months_true", "months_zero", "max_depth_zero", "min_leaf_zero",
            "bonferroni_m_zero", "test_fraction_above_1", "bbox_degenerate",
            "bbox_latitude_past_pole", "window_inverted",
            "planted_base_rate_above_1", "min_purity_above_1", "min_support_negative"])
    def test_config_fault_exits_3(self, tmp_path, capsys, fault, key):
        if isinstance(fault, str):
            cfg = tmp_path / "config.json"
            cfg.write_text(fault, encoding="utf-8")
        else:
            cfg = _cfg(tmp_path, **fault)
        assert _run("build-dataset", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "config.json" in err and key in err

    @pytest.mark.parametrize("command", ["build-dataset", "train-suite"])
    def test_grid_too_fine_exits_3(self, tmp_path, capsys, command):
        # np.ones once raised "array is too big" for the grid's mask (exit 1),
        # and math.ceil an OverflowError on a subnormal cell_km's quotients
        for cell_km in (1e-9, 1e-320):
            cfg = _cfg(tmp_path, cell_km=cell_km, granularities=[cell_km])
            assert _run(command, "--config", cfg, "--out-dir", str(tmp_path / "o")) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"error: cell_km {cell_km:g} makes a grid of"), err
            assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    def test_mask_polygon_without_cells_exits_3(self, tmp_path, capsys):
        # a triangle beside the bbox used to fail later, naming a variable
        cfg = _cfg(tmp_path, mask_polygon=[[40, 50], [41, 50], [41, 51]])
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: mask_polygon selects no cell center"), err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_mask_polygon_non_finite_vertex_exits_3(self, tmp_path, capsys):
        # json reads Infinity; the ray casting used to warn on inf - inf
        cfg = _cfg(tmp_path, mask_polygon=[[0, 10], [0, float("inf")], [4, 12]])
        assert "Infinity" in Path(cfg).read_text(encoding="utf-8")
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: mask_polygon vertex 1 is not finite: (0.0, inf)"), err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    def test_demo_artifacts_pinned(self, tmp_path):
        # the bundled demo at 100 km, pinned so that a drift in the
        # generator's draw order or in binning shows; reruns alone cannot
        cfg = Path(__file__).resolve().parent.parent / "configs" / "synthetic_demo.json"
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", str(cfg), "--cell-km", "100",
                    "--out-dir", str(out)) == 0

        def digest(name):
            return hashlib.sha256((out / name).read_bytes()).hexdigest()

        assert digest("dataset.csv") == \
            "17b3687d3228e5383ce3dc3bc2d5e7f5c81cb8c574335b6e58e0f27c234eb5d5"
        assert digest("bin_edges.json") == \
            "2aefc5a632e6b7099de8c74c8002680b8b2985fa516ee29dfea99852b018cc8e"

    def test_missing_input_path_errors(self, tmp_path):
        cfg = _cfg(tmp_path, source={"kind": "files", "events_csv": "/nope.csv",
                                     "series_csv": "/nope2.csv"})
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 3


def _series_table() -> list[list[str]]:
    """Header, then two months of every variable in cells (0,0) and (1,2)."""
    return [["cell_row", "cell_col", "variable", "timestamp", "value"],
            *([str(r), str(c), var, f"2015-0{m}-01", f"{m + r}.5"]
              for var in VARIABLES for r, c in ((0, 0), (1, 2)) for m in (1, 2))]


def _events_table() -> list[list[str]]:
    return [["event_date", "latitude", "longitude", "country", "notes"],
            ["2015-03-15", "0.5", "10.5", "Testland", "herders attacked farmers"],
            ["2015-04-15", "2.1", "12.0", "Testland", "cattle raid by herders"],
            ["2015-05-15", "1.0", "11.0", "Testland", "market protest"]]


def _write_csv(path: Path, table: list[list[str]]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        # "\r\n" line ends, so a field holding "\r" or "\n" gets quoted
        csv.writer(fh).writerows(table)
    return path


def _files_cfg(tmp_path, series=None, events=None) -> str:
    series_csv = _write_csv(tmp_path / "series.csv", series or _series_table())
    events_csv = _write_csv(tmp_path / "events.csv", events or _events_table())
    return _cfg(tmp_path, source={"kind": "files", "events_csv": str(events_csv),
                                  "series_csv": str(series_csv)})


def _latlon(table):
    """The same samples in the lat/lon layout, each at a point inside its cell."""
    return [["lat", "lon", "variable", "timestamp", "value"],
            *([f"{0.3 + 0.9 * int(r)}", f"{10.3 + 0.9 * int(c)}", var, ts, v]
              for r, c, var, ts, v in table[1:])]


def _series_fault(fault: str) -> list[list[str]]:
    """The series table with one input fault; a fault in one row is on file
    line 7."""
    t = _series_table()
    if fault == "non_numeric_value":
        t[6][4] = "abc"
    elif fault == "impossible_date":
        t[6][3] = "2015-02-30"
    elif fault == "non_integer_cell_row":
        t[6][0] = "0.5"
    elif fault == "short_row":
        t[6] = t[6][:3]
    elif fault == "duplicate_timestamp":
        t.append(list(t[6]))
    elif fault == "missing_variable":
        t = [r for r in t if r[2] != "SSW"]
    elif fault == "latlon_duplicate_timestamp":
        t = _latlon(t)
        t.append(list(t[6]))
    elif fault == "latlon_outside_bbox":
        t = _latlon(t)
        t[6][0] = "-3.0"
    elif fault == "no_variable_column":
        t = [r[:2] + r[3:] for r in t]
    return t


class TestFilesSource:
    def test_both_layouts_build_the_same_dataset(self, tmp_path):
        # the unfaulted tables the fault tests start from are valid input
        for name, table in (("cells", _series_table()), ("latlon", _latlon(_series_table()))):
            (tmp_path / name).mkdir()
            cfg = _files_cfg(tmp_path / name, table)
            assert _run("build-dataset", "--config", cfg,
                        "--out-dir", str(tmp_path / name / "out")) == 0
        assert ((tmp_path / "cells" / "out" / "dataset.csv").read_bytes()
                == (tmp_path / "latlon" / "out" / "dataset.csv").read_bytes())

    @pytest.mark.parametrize("fault", [
        "non_numeric_value", "impossible_date", "non_integer_cell_row", "short_row",
        "duplicate_timestamp", "latlon_duplicate_timestamp", "missing_variable",
        "latlon_outside_bbox", "no_variable_column"])
    def test_series_fault_exits_3(self, tmp_path, capsys, fault):
        cfg = _files_cfg(tmp_path, _series_fault(fault))
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if fault in ("non_numeric_value", "impossible_date", "non_integer_cell_row",
                     "short_row"):
            assert "series.csv line 7" in err
        assert not (tmp_path / "o" / "dataset.csv").exists()

    @settings(max_examples=60, deadline=None)
    @given(which=st.sampled_from(["series", "events"]), line=st.integers(0, 200),
           field=st.integers(0, 4), text=st.text(max_size=12))
    @example(which="events", line=1, field=1, text="nan")
    @example(which="series", line=1, field=4, text="nan")
    @example(which="series", line=1, field=2, text="NDVI")
    def test_fuzzed_field_exits_0_3_or_4(self, which, line, field, text):
        tables = {"series": _series_table(), "events": _events_table()}
        t = tables[which]
        t[line % len(t)][field] = text
        with tempfile.TemporaryDirectory() as d:
            cfg = _files_cfg(Path(d), tables["series"], tables["events"])
            assert _run("build-dataset", "--config", cfg, "--out-dir", f"{d}/o") in (0, 3, 4)

    @settings(max_examples=60, deadline=None)
    @given(which=st.sampled_from(["series", "events", "dataset"]), line=st.integers(0, 200),
           offset=st.integers(0, 2000), byte=st.sampled_from([b'"', b"\xff", b"\r", b"\n"]))
    @example(which="series", line=6, offset=0, byte=b"\xff")
    @example(which="events", line=2, offset=3, byte=b"\xff")
    @example(which="events", line=1, offset=20, byte=b'"')  # country quoted to the end
    @example(which="dataset", line=2, offset=0, byte=b"\n")  # an empty line
    @example(which="dataset", line=2, offset=0, byte=b'"')
    def test_fuzzed_byte_exits_0_3_or_4(self, which, line, offset, byte):
        # the byte goes before one byte of one line, never between a line
        # and its newline, so a damaged dataset.csv never just gains a CR LF
        with tempfile.TemporaryDirectory() as d:
            cfg = _files_cfg(Path(d))
            out = Path(d) / "o"
            if which == "dataset":
                assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
            path = out / "dataset.csv" if which == "dataset" else Path(d) / f"{which}.csv"
            lines = path.read_bytes().split(b"\n")
            k = line % (len(lines) - 1)  # the file ends in a newline
            at = offset % len(lines[k])
            lines[k] = lines[k][:at] + byte + lines[k][at:]
            path.write_bytes(b"\n".join(lines))
            if which != "dataset":
                assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) in (0, 3, 4)
                return
            for command in ("test-univariate", "learn-tree", "eval-hypotheses", "riskmap"):
                assert _run(command, "--config", cfg, "--out-dir", str(out)) == 3, command


class TestKeywordRulesFile:
    @pytest.mark.parametrize("text,key", [
        ('{"include": ["herd"', "not valid JSON"),
        ("null", "JSON object"),
        ('{"include": "herd"}', "'include'"),
        ('{"include": ["herd", 3]}', "'include'"),
        ('{"include": ["herd"], "exclude": "market"}', "'exclude'"),
        ('{"include": ["herd("]}', "'include'"),
        ('{"include": ["herd"], "exclude": ["[market"]}', "'exclude'"),
        ('{"include": []}', "'include'"),
    ], ids=["bad_json", "not_object", "include_string", "include_non_string",
            "exclude_string", "include_bad_regex", "exclude_bad_regex", "include_empty"])
    def test_fault_exits_3_naming_file_and_key(self, tmp_path, capsys, text, key):
        rules = tmp_path / "rules.json"
        rules.write_text(text, encoding="utf-8")
        cfg = json.loads(Path(_files_cfg(tmp_path)).read_text(encoding="utf-8"))
        cfg["source"]["keyword_rules"] = str(rules)
        (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
        assert _run("build-dataset", "--config", str(tmp_path / "config.json"),
                    "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rules.json" in err and key in err
        assert not (tmp_path / "o" / "dataset.csv").exists()


def _files_source(tmp_path, **extra) -> dict:
    """A files source over the valid event and series tables, plus extra keys."""
    return {"kind": "files",
            "events_csv": str(_write_csv(tmp_path / "events.csv", _events_table())),
            "series_csv": str(_write_csv(tmp_path / "series.csv", _series_table())), **extra}


def _directory(tmp_path, name) -> str:
    (tmp_path / name).mkdir()
    return str(tmp_path / name)


class TestConfigSections:
    @pytest.mark.parametrize("command, fault, key", [
        ("learn-tree", {"tree": {"max_depth": "four"}}, "tree.max_depth"),
        ("learn-tree", {"tree": {"min_support": "five"}}, "tree.min_support"),
        ("learn-tree", {"tree": {"max_depth": 2.5}}, "tree.max_depth"),
        ("build-dataset", {"seed": 7.5}, "seed"),
        ("learn-tree", {"tree": [1, 2]}, "tree must be a JSON object"),
        ("train-suite", {"ml": {"test_fraction": "a fifth"}}, "ml.test_fraction"),
        ("test-univariate", {"stats": {"bonferroni_m": "three"}}, "stats.bonferroni_m"),
        ("build-dataset", {"source": {"kind": "synthetic", "months": "two years"}},
         "source.months"),
        ("build-dataset", {"source": {"kind": "synthetic", "planted": {"odds": 2.0}}},
         "unknown key source.planted.odds"),
        ("build-dataset", lambda tmp: {"source": _files_source(
            tmp, event_schema={"day": "event_date"})}, "unknown key source.event_schema.day"),
        ("build-dataset", lambda tmp: {"source": _files_source(
            tmp, keyword_rules=_directory(tmp, "rules_dir"))}, "keyword rules"),
        ("build-dataset", None, "config file"),
    ], ids=["tree_max_depth_text", "tree_min_support_text", "tree_max_depth_fraction",
            "seed_fraction", "tree_not_object",
            "ml_test_fraction_text", "stats_bonferroni_m_text", "source_months_text",
            "planted_unknown_key", "event_schema_unknown_key", "keyword_rules_directory",
            "config_directory"])
    def test_fault_exits_3_naming_file_and_key(self, tmp_path, capsys, command, fault, key):
        out = tmp_path / "out"  # a dataset for the analysis stages to read
        assert _run("build-dataset", "--config", _cfg(tmp_path), "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        if fault is None:
            cfg, named = _directory(tmp_path, "config_dir"), "config_dir"
        else:
            overrides = fault(tmp_path) if callable(fault) else fault
            cfg = _cfg(tmp_path, granularities=[100], **overrides)
            named = "rules_dir" if "keyword_rules" in overrides.get("source", {}) else "config.json"
        assert _run(command, "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and key in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_numeric_strings_and_valid_nulls(self, tmp_path):
        trees = []
        for k, tree in enumerate(({"max_depth": 2}, {"max_depth": "2", "min_leaf": "1"},
                                  {"max_depth": None})):
            cfg = _cfg(tmp_path, tree=tree, stats={"bonferroni_m": None},
                       ml={"class_weight": None},
                       source={"kind": "synthetic", "months": None, "planted": None})
            out = tmp_path / f"out{k}"
            for command in ("build-dataset", "test-univariate", "learn-tree"):
                assert _run(command, "--config", cfg, "--out-dir", str(out)) == 0, command
            trees.append((out / "tree.json").read_bytes())
        assert trees[0] == trees[1] != trees[2]


class TestBadNumbers:
    @pytest.mark.parametrize("command, overrides, flags, key", [
        ("build-dataset", {}, ["--seed", "-1"], "seed"),
        ("build-dataset", {"seed": -1}, [], "seed"),
        ("build-dataset", {"cell_km": float("nan")}, [], "cell_km"),
        ("build-dataset", {"cell_km": float("inf")}, [], "cell_km"),
        ("train-suite", {"granularities": [float("nan")]}, [], "cell_km"),
        ("build-dataset", {"source": {"kind": "synthetic", "planted": {"regime_sd": -1}}}, [],
         "regime_sd"),
        ("build-dataset", {"source": {"kind": "synthetic",
                                      "planted": {"extra_events_rate": -1}}}, [],
         "extra_events_rate"),
        ("build-dataset", {"source": {"kind": "synthetic",
                                      "planted": {"odds_ratio": float("nan")}}}, [],
         "odds_ratio"),
        ("build-dataset", {"source": {"kind": "synthetic",
                                      "planted": {"low_mean": float("nan")}}}, [], "low_mean"),
        # 0 once fell back to the window's month count and exited 0
        ("build-dataset", {"source": {"kind": "synthetic", "months": 0}}, [], "months"),
        ("build-dataset", {"source": {"kind": "synthetic", "months": -1}}, [], "months"),
    ], ids=["seed_flag_negative", "seed_negative", "cell_km_nan", "cell_km_infinity",
            "granularity_nan", "regime_sd_negative", "extra_events_rate_negative",
            "odds_ratio_nan", "low_mean_nan", "months_zero", "months_negative"])
    def test_exits_3_writing_nothing(self, tmp_path, capsys, command, overrides, flags, key):
        # json.loads reads NaN and Infinity, so a config file can hold them
        out = tmp_path / "out"
        assert _run(command, "--config", _cfg(tmp_path, **overrides), "--out-dir", str(out),
                    *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, err
        assert not out.exists() or not any(out.iterdir())


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 1 s of import time in every command
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, pcrisk.cli; assert 'scipy.stats' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_error_class_maps_to_3_or_4():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    data_faults = {errors.InsufficientDataError, errors.UndefinedTestError,
                   errors.DegeneratePartitionError, errors.StratificationError,
                   errors.NonConvergenceError}
    found = {errors.PCRiskError, *subclasses(errors.PCRiskError)}
    assert data_faults < found
    for cls in found:
        assert cls.exit_code == (4 if cls in data_faults else 3), cls.__name__


_ANALYSIS_STAGES = (["test-univariate"], ["learn-tree"], ["eval-hypotheses", "--which", "tree"],
                    ["riskmap"])


class TestPipelineCommands:
    @pytest.fixture()
    def built(self, tmp_path):
        cfg = _cfg(tmp_path)
        out = tmp_path / "out"
        _run("build-dataset", "--config", cfg, "--out-dir", str(out))
        return cfg, out

    def test_univariate(self, built):
        cfg, out = built
        assert _run("test-univariate", "--config", cfg, "--out-dir", str(out)) == 0
        lines = (out / "univariate.csv").read_text().splitlines()
        assert len(lines) == 111

    def test_learn_tree_then_eval(self, built):
        cfg, out = built
        assert _run("learn-tree", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out / "tree.json").exists() and (out / "tree.dot").exists()
        assert _run("eval-hypotheses", "--config", cfg, "--out-dir", str(out)) == 0
        doc = json.loads((out / "hypotheses.json").read_text())
        assert isinstance(doc, list)

    def test_learn_tree_refuses_a_tree_past_the_depth_limit(self, built, capsys):
        # one rising column with every third row class 1 grows a CART about
        # 2,666 levels deep; saving it once crashed with a RecursionError
        cfg, out = built
        n = 4000
        X = np.zeros((n, len(features.FEATURE_NAMES)))
        X[:, features.FEATURE_NAMES.index("LAI1")] = np.arange(n) / n
        cells = np.column_stack([np.arange(n) // 100, np.arange(n) % 100])
        features.write_dataset_csv(
            features.Dataset(cells, X, (np.arange(n) % 3 == 0).astype(np.int64)),
            out / "dataset.csv")
        cfg = _cfg(out.parent, tree={"max_depth": None})
        capsys.readouterr()
        assert _run("learn-tree", "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "max_depth" in err
        assert not (out / "tree.json").exists()

    def test_eval_refuses_a_tree_nested_too_deep(self, built, capsys):
        cfg, out = built
        leaf = '{"n_samples": 1, "n_class1": 0}'
        node = ('{"n_samples": 2, "n_class1": 1, "feature": "LAI1", "threshold": 0.5, '
                f'"left": {leaf}, "right": ')
        (out / "tree.json").write_text(node * 3000 + leaf + "}" * 3000, encoding="utf-8")
        capsys.readouterr()
        assert _run("eval-hypotheses", "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tree.json" in err

    def test_eval_requires_tree(self, built):
        cfg, out = built
        assert not (out / "tree.json").exists()
        assert _run("eval-hypotheses", "--config", cfg, "--out-dir", str(out)) == 3

    def test_only_riskmap_reads_grid(self, built, capsys):
        cfg, out = built
        path = out / "grid.json"
        path.write_bytes(path.read_bytes()[:40])
        for command in ("test-univariate", "learn-tree", "eval-hypotheses"):
            assert _run(command, "--config", cfg, "--out-dir", str(out)) == 0, command
        capsys.readouterr()
        assert _run("riskmap", "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert "grid.json is not valid JSON" in err, err
        path.unlink()
        assert _run("riskmap", "--config", cfg, "--out-dir", str(out)) == 3
        assert "grid.json not found" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"n_samples": 3}',
        json.dumps({"n_samples": 4, "n_class1": 2, "feature": "XX", "threshold": 0.5,
                    "left": {"n_samples": 2, "n_class1": 0},
                    "right": {"n_samples": 2, "n_class1": 2}}),
        "not json",
        json.dumps({"n_samples": 2 ** 63, "n_class1": 0}),
    ], ids=["missing_key", "unknown_feature", "not_json", "count_past_int64"])
    def test_damaged_tree_exits_3(self, built, capsys, text):
        cfg, out = built
        (out / "tree.json").write_text(text, encoding="utf-8")
        assert _run("eval-hypotheses", "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: tree ") and "tree.json" in err, err

    def test_golden_mode_passes_without_dataset(self, tmp_path):
        cfg = _cfg(tmp_path)
        out = tmp_path / "golden"
        assert _run("eval-hypotheses", "--golden", "--config", cfg,
                    "--out-dir", str(out)) == 0
        lines = (out / "hypotheses_golden.csv").read_text().splitlines()
        assert len(lines) == 9

    def test_golden_mismatch_exits_5_after_recording_its_report(self, tmp_path, capsys,
                                                                monkeypatch):
        first, *rest = hypotheses._BUILTINS
        wrong = dataclasses.replace(first, p=first.p * 10)
        monkeypatch.setattr(hypotheses, "_BUILTINS", (wrong, *rest))
        out = tmp_path / "golden"
        assert _run("eval-hypotheses", "--golden", "--config", _cfg(tmp_path),
                    "--out-dir", str(out)) == 5
        assert len((out / "hypotheses_golden.csv").read_text().splitlines()) == 9
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["eval-hypotheses --golden"]
        assert list(manifest["eval-hypotheses --golden"]["outputs"]) == ["hypotheses_golden.csv"]
        captured = capsys.readouterr()
        assert captured.err == "1 golden hypothesis mismatch(es)\n"
        assert f"{first.name} ({first.country})" in captured.out and "-> MISMATCH" in captured.out
        assert captured.out.endswith(f"wrote {out / 'hypotheses_golden.csv'}\n")

    def test_golden_mode_keeps_the_scored_paths_entry(self, built):
        # the golden check once replaced the entry naming hypotheses.csv and .json
        cfg, out = built
        for argv in (["learn-tree"], ["eval-hypotheses", "--which", "tree"],
                     ["eval-hypotheses", "--golden"]):
            assert _run(*argv, "--config", cfg, "--out-dir", str(out)) == 0, argv
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"build-dataset", "learn-tree", "eval-hypotheses",
                                 "eval-hypotheses --golden"}
        scored = manifest["eval-hypotheses"]
        assert list(scored["outputs"]) == ["hypotheses.csv", "hypotheses.json"]
        assert scored["inputs"]["tree.json"]["sha256"] == manifest["learn-tree"]["outputs"][
            "tree.json"]
        assert list(manifest["eval-hypotheses --golden"]["outputs"]) == ["hypotheses_golden.csv"]

    def test_golden_mode_refuses_a_degenerate_bbox(self, tmp_path, capsys):
        # --golden builds no grid, so it once ran on such a config and exited 0
        cfg = _cfg(tmp_path, bbox=[0.0, 14.5, 4.5, 10.0])
        out = tmp_path / "golden"
        assert _run("eval-hypotheses", "--golden", "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert "config.json" in err and "bbox" in err, err
        assert not out.exists()

    def test_unknown_hypothesis_usage_error(self, tmp_path):
        cfg = _cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run("eval-hypotheses", "--which", "builtin", "--hypothesis", "Hyp99",
                 "--config", cfg, "--out-dir", str(tmp_path / "x"))
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [[], ["--which", "tree"], ["--golden"],
                                       ["--which", "builtin", "--golden"]],
                             ids=["default", "tree", "golden", "builtin_golden"])
    def test_hypothesis_outside_builtin_mode_usage_error(self, built, capsys, flags):
        # a built-in name was once ignored here: the tree paths (or the golden
        # check) were scored and the run exited 0
        cfg, out = built
        assert _run("learn-tree", "--config", cfg, "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(SystemExit) as exc:
            _run("eval-hypotheses", *flags, "--hypothesis", "Hyp3",
                 "--config", cfg, "--out-dir", str(out))
        assert exc.value.code == 2
        assert "--hypothesis" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("fault", ["short_row", "non_numeric", "non_integer",
                                       "out_of_range", "blank_line", "comment_line",
                                       "unmatched_quote", "bad_utf8"])
    def test_malformed_dataset_usage_error(self, built, capsys, fault):
        cfg, out = built
        path = out / "dataset.csv"
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        if fault == "short_row":
            fields = fields[:-3]
        elif fault == "non_numeric":
            fields[10] = "abc"
        elif fault == "non_integer":
            fields[-1] = "2.5"  # NBRC5 is a count
        elif fault == "out_of_range":
            fields[-1] = str(2 ** 64)
        elif fault == "unmatched_quote":
            fields[10] = '"' + fields[10]
        elif fault == "bad_utf8":
            fields[10] += "\udcff"  # written as the byte 0xff
        lines[2] = ",".join(fields)
        if fault == "blank_line":
            lines.insert(2, "")
        elif fault == "comment_line":
            lines.insert(2, "# " + lines[2])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        assert _run("test-univariate", "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert "dataset.csv line 3" in err, err

    def test_empty_table_exits_4_in_every_analysis_stage(self, built, capsys):
        # learn-tree once exited 3 here, as for a fault in the input
        cfg, out = built
        path = out / "dataset.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        for command in ("test-univariate", "learn-tree", "riskmap"):
            assert _run(command, "--config", cfg, "--out-dir", str(out)) == 4, command
            capsys.readouterr()
        assert not (out / "tree.json").exists()

    def test_non_finite_dataset_field_exits_3(self, built, capsys):
        cfg, out = built
        path = out / "dataset.csv"
        lines = path.read_text().splitlines()
        for text in ("nan", "inf", "-inf"):
            fields = lines[2].split(",")
            fields[10] = text  # LAI8
            path.write_text("\n".join([*lines[:2], ",".join(fields), *lines[3:]]) + "\n")
            for command in ("test-univariate", "learn-tree", "eval-hypotheses", "riskmap"):
                assert _run(command, "--config", cfg, "--out-dir", str(out)) == 3, command
                err = capsys.readouterr().err
                assert "dataset.csv line 3" in err and "LAI8" in err, err
        assert not (out / "tree.json").exists()

    def test_analysis_stages_parse_the_table_once(self, built, monkeypatch):
        # build-dataset cached the parse, so no analysis stage parses
        cfg, out = built
        parses = count_parses(monkeypatch)
        for stage in _ANALYSIS_STAGES:
            assert _run(*stage, "--config", cfg, "--out-dir", str(out)) == 0, stage
        assert parses == []

    def test_benchmark_stage_lists_parse_nothing(self, tmp_path, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        monkeypatch.chdir(root)  # the workloads name the demo config from here
        import workloads

        parses = count_parses(monkeypatch)
        for name, workload in workloads.WORKLOADS.items():
            work = tmp_path / name
            work.mkdir()
            cfg, _ = workloads.prepare(workload, 7, work, tiny=True)
            args = ["--config", str(cfg), "--out-dir", str(work / "out")]
            for stage in workload.stages:
                if stage != workloads.SUITE:
                    assert _run(*stage, *args) == 0, (name, stage)
        assert parses == []

    def test_rebuilt_table_is_parsed_again(self, built, tmp_path, monkeypatch):
        # a rebuild leaves the cache of the new table, so nothing is parsed
        cfg, out = built
        parses = count_parses(monkeypatch)
        assert _run("test-univariate", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out / "dataset.csv.cache").exists()
        assert _run("build-dataset", "--seed", "8", "--config", cfg, "--out-dir", str(out)) == 0
        with (out / "dataset.csv.cache").open("rb") as fh:
            key = np.lib.format.read_array(fh)
        assert key.tobytes() == hashlib.sha256((out / "dataset.csv").read_bytes()).digest()
        assert _run("test-univariate", "--config", cfg, "--out-dir", str(out)) == 0
        assert parses == []
        fresh = tmp_path / "fresh"
        for command in ("build-dataset", "test-univariate"):
            assert _run(command, "--seed", "8", "--config", cfg, "--out-dir", str(fresh)) == 0
        assert (out / "univariate.csv").read_bytes() == (fresh / "univariate.csv").read_bytes()

    def test_full_rerun_same_cache_and_artifacts(self, built):
        cfg, out = built
        runs = []
        for _ in range(2):
            for stage in (["build-dataset"], *_ANALYSIS_STAGES):
                assert _run(*stage, "--config", cfg, "--out-dir", str(out)) == 0, stage
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "dataset.csv.cache" in runs[0] and runs[0] == runs[1]

    @pytest.mark.parametrize("stage", [["build-dataset"], *_ANALYSIS_STAGES,
                                       ["eval-hypotheses", "--which", "builtin"],
                                       ["eval-hypotheses", "--golden"], ["train-suite"]],
                             ids=lambda stage: "_".join(a.lstrip("-") for a in stage))
    def test_manifest_lists_what_the_command_created(self, tmp_path, stage):
        # main records a command's outputs once the command has written them
        cfg = _cfg(tmp_path, granularities=[100])
        handoff = tmp_path / "handoff"
        for command in ("build-dataset", "learn-tree"):
            assert _run(command, "--config", cfg, "--out-dir", str(handoff)) == 0
        out = tmp_path / "out"
        out.mkdir()
        names = [] if stage == ["build-dataset"] else ["dataset.csv", "grid.json"]
        if "tree" in stage:  # the tree paths are read from learn-tree's tree.json
            names.append("tree.json")
        for name in names:
            shutil.copy(handoff / name, out / name)
        before = {p.name for p in out.iterdir()}
        assert _run(*stage, "--config", cfg, "--out-dir", str(out)) == 0
        created = {p.name for p in out.iterdir()} - before - {"manifest.json",
                                                               "dataset.csv.cache"}
        manifest = json.loads((out / "manifest.json").read_text())
        entry = "eval-hypotheses --golden" if "--golden" in stage else stage[0]
        assert list(manifest) == [entry]
        assert created and manifest[entry]["outputs"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in created}

    def test_riskmap_outputs(self, built):
        cfg, out = built
        assert _run("riskmap", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out / "risk.geojson").exists()
        assert (out / "risk.pgm").read_bytes().startswith(b"P5\n")
        assert (out / "risk.csv").exists() and (out / "model.json").exists()


def _count_hashes(monkeypatch) -> list[str]:
    """The names of the files cli._sha256 hashes from now on, appended as it
    runs."""
    hashed = []
    sha256 = cli._sha256

    def counted(path):
        hashed.append(Path(path).name)
        return sha256(path)

    monkeypatch.setattr(cli, "_sha256", counted)
    return hashed


def _records(cache: Path) -> list[np.ndarray]:
    """Every .npy record of a cache file, in order."""
    records = []
    with cache.open("rb") as fh:
        while fh.peek(1):
            records.append(np.lib.format.read_array(fh))
    return records


def _npy(*arrays) -> bytes:
    buf = io.BytesIO()
    for a in arrays:
        np.lib.format.write_array(buf, a)
    return buf.getvalue()


def _json_record(doc) -> np.ndarray:
    return np.frombuffer(json.dumps(doc).encode(), dtype=np.uint8)


_RAW_NAMES = {"events.csv", "series.csv", "rules.json"}


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCarriedInputDigests:
    """build-dataset hashes each raw input once and records it in its own
    manifest entry, which manifest.json carries while the analysis stages
    run; their entries record the digest of the dataset.csv they read, which
    is the one build-dataset wrote, and no raw input."""

    @pytest.fixture()
    def files_run(self, tmp_path):
        """(config, out-dir) of a files source with keyword rules, built."""
        rules = tmp_path / "rules.json"
        rules.write_text('{"include": ["herd"]}', encoding="utf-8")
        cfg = _cfg(tmp_path, source=_files_source(tmp_path, keyword_rules=str(rules)))
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
        return cfg, out

    @staticmethod
    def _stage_entries(cfg, out) -> dict[str, dict]:
        """The manifest entry each analysis stage writes, run in order."""
        entries = {}
        for stage in _ANALYSIS_STAGES:
            assert _run(*stage, "--config", cfg, "--out-dir", str(out)) == 0, stage
            entries[stage[0]] = _manifest(out)[stage[0]]
        return entries

    @staticmethod
    def _assert_read_the_built_table(entries: dict, out: Path) -> None:
        """Each entry records the dataset.csv digest build-dataset's entry wrote."""
        built = {"path": str(out / "dataset.csv"),
                 "sha256": _manifest(out)["build-dataset"]["outputs"]["dataset.csv"]}
        for stage, entry in entries.items():
            assert entry["inputs"]["dataset.csv"] == built, stage

    def test_each_input_hashed_once_per_run(self, files_run, tmp_path, monkeypatch):
        cfg, out = files_run
        hashed = _count_hashes(monkeypatch)
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
        # dataset.csv's digest is the one its writer computed
        assert sorted(hashed) == ["bin_edges.json", "events.csv", "grid.json", "rules.json",
                                  "series.csv"]
        build = _manifest(out)["build-dataset"]
        assert build["inputs"] == {key: {"path": str(tmp_path / name),
                                         "sha256": _digest(tmp_path / name)}
                                   for key, name in (("events_csv", "events.csv"),
                                                     ("series_csv", "series.csv"),
                                                     ("keyword_rules", "rules.json"))}
        assert build["outputs"] == {name: _digest(out / name)
                                    for name in ("bin_edges.json", "dataset.csv", "grid.json")}
        hashed.clear()
        entries = self._stage_entries(cfg, out)
        self._assert_read_the_built_table(entries, out)
        assert _manifest(out)["build-dataset"] == build
        # the analysis stages hashed no raw input, and dataset.csv only as they loaded it
        assert not set(hashed) & (_RAW_NAMES | {"dataset.csv"}), hashed

    @pytest.mark.parametrize("case", [
        "deleted_cache", "four_array_cache", "reader_cache", "truncated_record",
        "not_npy_record", "non_json_record", "non_object_record", "int64_record",
        "bad_digest_record", "missing_key_record"])
    def test_cache_without_a_usable_record_hashes_the_inputs(self, files_run, monkeypatch, case):
        # whatever the cache holds, each stage records the digest of the
        # dataset.csv bytes it read. The record cases end the parse with a
        # fifth array, as build-dataset's caches once did, whole or damaged.
        cfg, out = files_run
        carried = self._stage_entries(cfg, out)
        cache = out / "dataset.csv.cache"
        key, cells, X, y = _records(cache)
        inputs = _manifest(out)["build-dataset"]["inputs"]
        record = _json_record(inputs)
        if case == "deleted_cache":
            cache.unlink()
        elif case == "reader_cache":
            cache.unlink()
            features.load_dataset(out / "dataset.csv")
            assert len(_records(cache)) == 4
        else:
            fifth = {
                "four_array_cache": b"",
                "truncated_record": _npy(record)[:-5],
                "not_npy_record": b"\x93NUMPY garbage",
                "non_json_record": _npy(np.frombuffer(b"{not json", dtype=np.uint8)),
                "non_object_record": _npy(_json_record([inputs])),
                "int64_record": _npy(record.astype(np.int64)),
                "bad_digest_record": _npy(_json_record(
                    {k: {**v, "sha256": v["sha256"].upper()} for k, v in inputs.items()})),
                "missing_key_record": _npy(_json_record(
                    {k: v for k, v in inputs.items() if k != "keyword_rules"})),
            }[case]
            cache.write_bytes(_npy(key, cells, X, y) + fifth)
        parses = count_parses(monkeypatch)
        hashed = _count_hashes(monkeypatch)
        entries = self._stage_entries(cfg, out)
        assert entries == carried
        assert entries["test-univariate"]["inputs"]["dataset.csv"]["sha256"] == _digest(
            out / "dataset.csv")
        assert not set(hashed) & _RAW_NAMES, hashed
        # a table cached with or without a trailing record loads without a parse
        assert len(parses) == (1 if case == "deleted_cache" else 0)

    def test_rewritten_input_keeps_the_build_digest(self, files_run, tmp_path, monkeypatch):
        cfg, out = files_run
        build = _manifest(out)["build-dataset"]
        series = tmp_path / "series.csv"
        series.write_bytes(series.read_bytes() + b"0,0,LAI,2015-03-01,9.5\r\n")
        hashed = _count_hashes(monkeypatch)
        entries = self._stage_entries(cfg, out)
        self._assert_read_the_built_table(entries, out)
        assert _manifest(out)["build-dataset"] == build
        assert not set(hashed) & _RAW_NAMES, hashed
        assert build["inputs"]["series_csv"]["sha256"] != _digest(series)

    @pytest.mark.parametrize("change", ["moved_series", "added_rules", "synthetic"])
    def test_other_configured_inputs_are_hashed(self, files_run, tmp_path, monkeypatch, change):
        # by build-dataset, which reads them; an analysis stage run on the
        # other config records that config and the table it read
        cfg, out = files_run
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        source = doc["source"]
        if change == "moved_series":
            moved = tmp_path / "moved"
            moved.mkdir()
            source["series_csv"] = str(moved / "series.csv")
            (moved / "series.csv").write_bytes((tmp_path / "series.csv").read_bytes()
                                               + b"0,0,LAI,2015-03-01,9.5\r\n")
        elif change == "added_rules":
            del source["keyword_rules"]
        else:
            doc["source"] = {"kind": "synthetic"}
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc), encoding="utf-8")
        hashed = _count_hashes(monkeypatch)
        assert _run("test-univariate", "--config", str(other), "--out-dir", str(out)) == 0
        entry = _manifest(out)["test-univariate"]
        assert entry["config"]["source"]["kind"] == doc["source"]["kind"]
        assert list(entry["inputs"]) == ["dataset.csv"] and hashed == ["univariate.csv"]
        assert _run("build-dataset", "--config", str(other), "--out-dir", str(out)) == 0
        expected = {key: {"path": doc["source"][key], "sha256": _digest(Path(doc["source"][key]))}
                    for key in ("events_csv", "series_csv", "keyword_rules")
                    if key in doc["source"]}
        assert _manifest(out)["build-dataset"]["inputs"] == expected
        assert len([name for name in hashed if name in _RAW_NAMES]) == len(expected)

    def test_rerun_gives_the_same_bytes_cache_included(self, files_run):
        cfg, out = files_run
        runs = []
        for _ in range(2):
            for stage in (["build-dataset"], *_ANALYSIS_STAGES):
                assert _run(*stage, "--config", cfg, "--out-dir", str(out)) == 0, stage
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(_records(out / "dataset.csv.cache")) == 4 and runs[0] == runs[1]

    def test_changed_input_and_lost_cache_keep_the_lineage(self, files_run, tmp_path):
        # an analysis stage once recorded the digest of the events table as it
        # was after the build when the parse cache was gone, though its
        # results came from the table built before the change
        cfg, out = files_run
        build = _manifest(out)["build-dataset"]
        events = tmp_path / "events.csv"
        before = _digest(events)
        events.write_bytes(events.read_bytes()
                           + b"2015-06-15,1.5,11.5,Testland,herders clashed\r\n")
        (out / "dataset.csv.cache").unlink()
        assert _run("test-univariate", "--config", cfg, "--out-dir", str(out)) == 0
        manifest = _manifest(out)
        assert manifest["build-dataset"] == build
        assert build["inputs"]["events_csv"]["sha256"] == before != _digest(events)
        assert manifest["test-univariate"]["inputs"] == {"dataset.csv": {
            "path": str(out / "dataset.csv"), "sha256": build["outputs"]["dataset.csv"]}}

    def test_full_run_names_the_built_table_in_every_entry(self, files_run):
        cfg, out = files_run
        for stage in (*_ANALYSIS_STAGES, ["eval-hypotheses", "--which", "builtin"]):
            assert _run(*stage, "--config", cfg, "--out-dir", str(out)) == 0, stage
        manifest = _manifest(out)
        assert sorted(manifest) == ["build-dataset", "eval-hypotheses", "learn-tree", "riskmap",
                                    "test-univariate"]
        del manifest["build-dataset"]
        self._assert_read_the_built_table(manifest, out)
        assert manifest["eval-hypotheses"]["inputs"].keys() == {"dataset.csv"}  # the rerun's
        assert manifest["learn-tree"]["outputs"]["tree.json"] == _digest(out / "tree.json")
        assert manifest["riskmap"]["inputs"]["grid.json"] == {
            "path": str(out / "grid.json"), "sha256": _digest(out / "grid.json")}
        for entry in manifest.values():
            assert entry["outputs"] == {name: _digest(out / name) for name in entry["outputs"]}

    @pytest.mark.parametrize("text", [
        "", "{not json", "[]", '{"build-dataset": []}',
        '{"command": "build-dataset", "config": {}, "inputs": {}, "outputs": ["dataset.csv"]}',
        '{"build-dataset": {"config": {}, "inputs": {}}}'],
        ids=["empty", "not_json", "list", "entry_not_object", "one_entry_format",
             "entry_missing_key"])
    def test_unusable_manifest_is_replaced_with_a_warning(self, tmp_path, caplog, text):
        cfg = _cfg(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text, encoding="utf-8")
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
        assert list(_manifest(out)) == ["build-dataset"]
        [warning] = [r for r in caplog.records if r.name == "pcrisk.cli"]
        assert warning.levelname == "WARNING" and "manifest.json" in warning.getMessage()
        caplog.clear()
        assert _run("learn-tree", "--config", cfg, "--out-dir", str(out)) == 0
        assert list(_manifest(out)) == ["build-dataset", "learn-tree"]
        assert not caplog.records


class TestInputFiles:
    @pytest.mark.parametrize("key, command", [
        ("events_csv", "build-dataset"), ("series_csv", "build-dataset"),
        ("keyword_rules", "build-dataset"), ("keyword_rules", "test-univariate")])
    def test_directory_exits_3_naming_it(self, tmp_path, capsys, key, command):
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", _cfg(tmp_path), "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        source = _files_source(tmp_path)
        source[key] = _directory(tmp_path, "inputs_dir")
        cfg = _cfg(tmp_path, source=source)
        capsys.readouterr()
        assert _run(command, "--config", cfg, "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "inputs_dir is not a file" in err, err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_unreadable_input_is_an_input_fault(self, tmp_path):
        with pytest.raises(errors.InvalidInputError, match="rules_dir cannot be read"):
            cli._sha256(Path(_directory(tmp_path, "rules_dir")))


class TestTrainSuite:
    def test_three_granularities_24_rows(self, tmp_path):
        cfg = _cfg(tmp_path)
        out = tmp_path / "suite"
        assert _run("train-suite", "--config", cfg, "--out-dir", str(out)) == 0
        total = 0
        for km in (100, 75, 50):
            lines = (out / f"suite_{km}km.csv").read_text().splitlines()
            assert lines[0] == "Classifier,Precision,Recall,F1-Score,AUC"
            total += len(lines) - 1
        assert total == 24
        best = (out / "best_summary.csv").read_text().splitlines()
        assert len(best) == 4  # header + one per granularity

    def test_unknown_class_weight_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_fit(spec, ds):
            raise AssertionError(f"{spec.kind} trained")

        monkeypatch.setattr("pcrisk.ml.train", no_fit)
        cfg = _cfg(tmp_path, granularities=[100], ml={"class_weight": "foo"})
        out = tmp_path / "suite"
        assert _run("train-suite", "--config", cfg, "--out-dir", str(out)) == 3
        assert "class_weight 'foo'" in capsys.readouterr().err
        assert not list(out.glob("suite_*.csv"))

    def test_cell_indexed_series_only_at_cell_km(self, tmp_path, capsys):
        # cell_row,cell_col number the cells of cell_km; at 75 km they were
        # once read as the 75 km grid's cells, while the labels came from the
        # events' coordinates. The centres of the 100 km cells inside the
        # bbox, 100 km apart, fall in distinct cells at every granularity.
        g = build_grid(BBox(0.0, 10.0, 4.5, 14.5), 100.0)
        series, events = synth_country(7, g, 18, PlantedEffect(odds_ratio=40.0, base_rate=0.1))
        lat_s, lon_w, lat_n, lon_e = g.cell_bounds(series[0].cells)
        lat, lon = (lat_s + lat_n) / 2, (lon_w + lon_e) / 2
        inside = ((lat < 4.5) & (lon < 14.5)).tolist()
        stamps = [f"{2015 + m // 12}-{m % 12 + 1:02d}-01" for m in range(18)]
        events_csv = _write_csv(tmp_path / "events.csv", _events_table()[:1] + [
            [ev.date.isoformat(), repr(ev.lat), repr(ev.lon), ev.country, ev.notes]
            for ev in events])
        layouts = {"cells": (["cell_row", "cell_col"], series[0].cells.tolist()),
                   "latlon": (["lat", "lon"], np.column_stack([lat, lon]).tolist())}
        for layout, (head, where) in layouts.items():
            rows = [[*head, "variable", "timestamp", "value"]]
            for s in series:
                rows += [[*at, s.variable, stamps[i % 18], repr(v)] for i, (at, v, keep)
                         in enumerate(zip(where, s.samples.tolist(), inside)) if keep]
            (tmp_path / layout).mkdir()
            series_csv = _write_csv(tmp_path / layout / "series.csv", rows)
            layouts[layout] = _cfg(tmp_path / layout, granularities=[100, 75, 50], source={
                "kind": "files", "events_csv": str(events_csv), "series_csv": str(series_csv)})
        capsys.readouterr()
        out = tmp_path / "suite"
        assert _run("train-suite", "--config", layouts["cells"], "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert "source.series_csv" in err and "cell-indexed" in err and "75 km" in err, err
        assert _run("train-suite", "--config", layouts["latlon"], "--out-dir", str(out)) == 0
        assert [p.name for p in sorted(out.glob("suite_*.csv"))] == [
            "suite_100km.csv", "suite_50km.csv", "suite_75km.csv"]

    def test_identical_rerun(self, tmp_path):
        cfg = _cfg(tmp_path, granularities=[100])
        out = tmp_path / "suite"
        _run("train-suite", "--config", cfg, "--out-dir", str(out))
        first = (out / "suite_100km.csv").read_bytes()
        _run("train-suite", "--config", cfg, "--out-dir", str(out))
        assert (out / "suite_100km.csv").read_bytes() == first

    def test_failing_granularity_leaves_the_out_dir_as_it_was(self, tmp_path, capsys):
        # a strip 0.25 degrees tall holds a row of 50 km cell centers and no
        # 100 km one; suite_50km.csv was once written before 100 km failed
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", _cfg(tmp_path), "--out-dir", str(out)) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        strip = [[0.1, 10.0], [0.1, 14.5], [0.35, 14.5], [0.35, 10.0]]
        cfg = _cfg(tmp_path, granularities=[50, 100], mask_polygon=strip)
        capsys.readouterr()
        assert _run("train-suite", "--config", cfg, "--out-dir", str(out)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mask_polygon selects no cell center of the 6 x 5")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestRiskmapClassWeight:
    def test_balanced_weight_is_recorded(self, tmp_path):
        # riskmap once ignored ml.class_weight
        out = tmp_path / "out"
        for weight in ("balanced", None):
            cfg = _cfg(tmp_path, ml={"class_weight": weight},
                       riskmap={"model": "LogisticRegression"})
            for command in ("build-dataset", "riskmap"):
                assert _run(command, "--config", cfg, "--out-dir", str(out)) == 0
            model = json.loads((out / "model.json").read_text(encoding="utf-8"))
            assert model["hyperparams"]["class_weight"] == weight

    def test_null_weight_saves_the_unweighted_model(self, tmp_path):
        out = tmp_path / "out"
        assert _run("build-dataset", "--config", _cfg(tmp_path), "--out-dir", str(out)) == 0
        ds, _ = features.load_dataset(out / "dataset.csv")
        for kind in ml.CLASSIFIER_KINDS:
            cfg = _cfg(tmp_path, ml={"class_weight": None}, riskmap={"model": kind})
            assert _run("riskmap", "--config", cfg, "--out-dir", str(out)) == 0, kind
            spec = ml.ClassifierSpec(kind, seed=7)
            ml.save_model(ml.train(spec, ds), spec, tmp_path / "model.json")
            assert ((out / "model.json").read_bytes()
                    == (tmp_path / "model.json").read_bytes()), kind


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_quietly_after_the_manifest(tmp_path, unbuffered):
    # `| head -0`: a report print once raised BrokenPipeError before the
    # manifest was written (exit 1), or the final flush failed (exit 120)
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(root / "src"), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read, write = os.pipe()
    os.close(read)  # no reader: every write to stdout fails with EPIPE
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "pcrisk.cli", "build-dataset", "--config", _cfg(tmp_path),
         "--out-dir", str(out)], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert list(json.loads((out / "manifest.json").read_text())["build-dataset"]["outputs"]) == [
        "bin_edges.json", "dataset.csv", "grid.json"]


def _entries(out: Path) -> dict:
    """Each entry of out by name: a file's bytes, or None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in out.iterdir()}


class TestAllOrNothing:
    """A command's outputs and its manifest entry land together or not at all."""

    @pytest.fixture()
    def mapped(self, tmp_path):
        """The config and out-dir of build-dataset, learn-tree and riskmap."""
        cfg, out = _cfg(tmp_path), tmp_path / "out"
        for command in ("build-dataset", "learn-tree", "riskmap"):
            assert _run(command, "--config", cfg, "--out-dir", str(out)) == 0, command
        return cfg, out

    @staticmethod
    def _refused(capsys, argv, out: Path, before: dict, *words) -> None:
        """argv exits 3 with one error line naming words, leaving out as before."""
        capsys.readouterr()
        assert _run(*argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(word in err for word in words), err
        assert _entries(out) == before

    def test_failing_writer_changes_no_file(self, mapped, capsys, monkeypatch):
        cfg, out = mapped

        def full_disk(surface, path):
            Path(path).write_bytes(b"P5\n")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(riskmap, "render_pgm", full_disk)
        before = _entries(out)
        self._refused(capsys, ["riskmap", "--config", cfg, "--out-dir", str(out)], out, before,
                      str(out), os.strerror(errno.ENOSPC))
        assert not list(out.glob(".pcrisk-*"))

    @pytest.mark.parametrize("argv", [["build-dataset"], ["eval-hypotheses", "--golden"]],
                             ids=["build_dataset", "golden"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_a_file"])
    def test_out_dir_at_a_file_exits_3(self, tmp_path, capsys, argv, under):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"not a directory\n")
        out = blocker / "sub" if under else blocker
        self._refused(capsys, [*argv, "--config", _cfg(tmp_path), "--out-dir", str(out)],
                      tmp_path, _entries(tmp_path), str(out))

    @pytest.mark.parametrize("command, name", [("riskmap", "risk.pgm"),
                                               ("test-univariate", "manifest.json")])
    def test_directory_at_an_output_name_exits_3(self, tmp_path, capsys, command, name):
        cfg, out = _cfg(tmp_path), tmp_path / "out"
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(out)) == 0
        if name == "manifest.json":
            (out / name).unlink()
        (out / name).mkdir()
        (out / name / "kept").write_bytes(b"")
        self._refused(capsys, [command, "--config", cfg, "--out-dir", str(out)], out,
                      _entries(out), str(out / name))
        assert (out / name / "kept").is_file()

    @pytest.mark.parametrize("argv", [["test-univariate"], ["learn-tree"], ["riskmap"],
                                      ["eval-hypotheses", "--which", "tree"]],
                             ids=lambda argv: argv[0])
    def test_unreadable_table_exits_3_naming_it(self, mapped, capsys, argv):
        cfg, out = mapped
        (out / "dataset.csv").unlink()
        (out / "dataset.csv").mkdir()
        self._refused(capsys, [*argv, "--config", cfg, "--out-dir", str(out)], out,
                      _entries(out), str(out / "dataset.csv"), "cannot be read")

    @pytest.mark.parametrize("case", ["finer_table", "coarser_table", "row_deleted"])
    def test_riskmap_refuses_a_table_and_grid_of_different_builds(self, mapped, capsys, case):
        cfg, out = mapped
        other = out.parent / "other"
        km = "50" if case == "finer_table" else "100"
        assert _run("build-dataset", "--config", cfg, "--cell-km", km,
                    "--out-dir", str(other)) == 0
        if case == "coarser_table":
            assert _run("build-dataset", "--config", cfg, "--cell-km", "50",
                        "--out-dir", str(out)) == 0
            shutil.copyfile(other / "dataset.csv", out / "dataset.csv")
        elif case == "finer_table":
            shutil.copyfile(other / "dataset.csv", out / "dataset.csv")
        else:
            lines = (out / "dataset.csv").read_text(encoding="utf-8").splitlines()
            (out / "dataset.csv").write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        features.load_dataset(out / "dataset.csv")  # caches its parse, which riskmap would
        self._refused(capsys, ["riskmap", "--config", cfg, "--out-dir", str(out)], out,
                      _entries(out), str(out / "dataset.csv"), str(out / "grid.json"))
