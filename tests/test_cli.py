import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pcrisk import errors
from pcrisk.cli import main
from pcrisk.ingest import VARIABLES


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
    ], ids=["window_month_13", "bbox_three_numbers", "malformed_json", "cell_km_text"])
    def test_config_fault_exits_3(self, tmp_path, capsys, fault, key):
        if isinstance(fault, str):
            cfg = tmp_path / "config.json"
            cfg.write_text(fault, encoding="utf-8")
        else:
            cfg = _cfg(tmp_path, **fault)
        assert _run("build-dataset", "--config", str(cfg), "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert "config.json" in err and key in err

    def test_mask_polygon_without_cells_exits_3(self, tmp_path, capsys):
        # a triangle beside the bbox used to fail later, naming a variable
        cfg = _cfg(tmp_path, mask_polygon=[[40, 50], [41, 50], [41, 51]])
        assert _run("build-dataset", "--config", cfg, "--out-dir", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: mask_polygon selects no cell center"), err
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
        "duplicate_timestamp", "missing_variable", "latlon_outside_bbox", "no_variable_column"])
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
    ], ids=["bad_json", "not_object", "include_string", "include_non_string",
            "exclude_string", "include_bad_regex", "exclude_bad_regex"])
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
    ], ids=["missing_key", "unknown_feature", "not_json"])
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

    def test_unknown_hypothesis_usage_error(self, tmp_path):
        cfg = _cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            _run("eval-hypotheses", "--which", "builtin", "--hypothesis", "Hyp99",
                 "--config", cfg, "--out-dir", str(tmp_path / "x"))
        assert exc.value.code == 2

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

    def test_riskmap_outputs(self, built):
        cfg, out = built
        assert _run("riskmap", "--config", cfg, "--out-dir", str(out)) == 0
        assert (out / "risk.geojson").exists()
        assert (out / "risk.pgm").read_bytes().startswith(b"P5\n")
        assert (out / "risk.csv").exists() and (out / "model.json").exists()


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

    def test_identical_rerun(self, tmp_path):
        cfg = _cfg(tmp_path, granularities=[100])
        out = tmp_path / "suite"
        _run("train-suite", "--config", cfg, "--out-dir", str(out))
        first = (out / "suite_100km.csv").read_bytes()
        _run("train-suite", "--config", cfg, "--out-dir", str(out))
        assert (out / "suite_100km.csv").read_bytes() == first
