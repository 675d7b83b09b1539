"""The run config: one table (cli._CONFIG) gives every key's default and
rule. Faults are drawn from that table and run through cli.main in-process
on a 30-cell grid; README.md's config table lists the same keys."""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pcrisk import cli
from pcrisk.grid import MAX_CELL_MONTHS

README = Path(__file__).resolve().parent.parent / "README.md"

BASE = {
    "country": "Testland",
    "bbox": [0.0, 10.0, 4.5, 14.5],
    "cell_km": 100,
    "granularities": [100],
    "window": {"start": "2015-01-01", "end": "2016-06-30"},
    "source": {"kind": "synthetic", "months": 18,
               "planted": {"odds_ratio": 40.0, "base_rate": 0.1}},
    "seed": 7,
}


def _keys(rule: cli._Object, prefix: tuple = ()):
    """The path of every key of the config table, an object's keys after it."""
    for key, (_, convert) in rule.keys.items():
        yield prefix + (key,)
        if isinstance(convert, cli._Object):
            yield from _keys(convert, prefix + (key,))


def _rule(path: tuple):
    """The rule of the key at path: a converter or a cli._Object."""
    rule = cli._CONFIG
    for key in path:
        rule = rule.keys[key][1]
    return rule


KEYS = list(_keys(cli._CONFIG))
OBJECTS = [()] + [path for path in KEYS if isinstance(_rule(path), cli._Object)]
#: values to set a key to, which break most keys' rules: a wrong type, a
#: boolean, the non-finite floats, zero, a negative, a subnormal, huge
#: numbers and an empty list
BAD_VALUES = ["text", {"nested": 1}, True, False, float("nan"), float("inf"), -float("inf"),
              0, -1, 5e-324, 1e308, 10 ** 30, []]


def _mutated(path: tuple, value) -> dict:
    """BASE with the key at path set to value, the objects on the way made."""
    doc = json.loads(json.dumps(BASE))
    parent = doc
    for key in path[:-1]:
        if not isinstance(parent.get(key), dict):
            parent[key] = {}
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _with_unknown_key(path: tuple) -> dict:
    """BASE with the key bogus in the object at path."""
    return _mutated((*path, "bogus"), 1)


def _snapshot(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None


def _run(argv: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of cli.main(argv); stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _check(command: list[str], doc: dict, work: Path, prebuilt: Path) -> tuple[int, str]:
    """Run command on a copy of the prebuilt out-dir with config doc; a
    failing run must exit 3 or 4 with one error line, leaving the out-dir as
    it was."""
    cfg = work / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = work / "out"
    shutil.copytree(prebuilt, out)
    before = _snapshot(out)
    code, err = _run([*command, "--config", str(cfg), "--out-dir", str(out)])
    assert code in (0, 3, 4), (code, err)
    if code:
        assert [line for line in err.splitlines() if line.startswith("error:")] == \
            [err.splitlines()[-1]], err
        assert _snapshot(out) == before
    return code, err


@pytest.fixture(scope="module")
def prebuilt(tmp_path_factory) -> Path:
    """The out-dir of build-dataset and learn-tree on BASE."""
    work = tmp_path_factory.mktemp("prebuilt")
    (work / "config.json").write_text(json.dumps(BASE), encoding="utf-8")
    for command in ("build-dataset", "learn-tree"):
        assert _run([command, "--config", str(work / "config.json"),
                     "--out-dir", str(work / "out")])[0] == 0
    return work / "out"


#: a config with one fault drawn from the table: a bad value for one key, or
#: an unknown key in one object
FAULTY_CONFIGS = st.one_of(
    st.builds(_mutated, st.sampled_from(KEYS), st.sampled_from(BAD_VALUES)),
    st.builds(_with_unknown_key, st.sampled_from(OBJECTS)))


class TestFaultsFromTheTable:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(doc=FAULTY_CONFIGS,
           stage=st.sampled_from([["test-univariate"], ["learn-tree"], ["riskmap"],
                                  ["eval-hypotheses", "--which", "tree"]]))
    def test_exits_0_3_or_4_leaving_a_failed_out_dir_as_it_was(self, prebuilt, doc, stage):
        for command in (["build-dataset"], stage):
            with tempfile.TemporaryDirectory() as d:
                _check(command, doc, Path(d), prebuilt)

    @pytest.mark.parametrize("path", OBJECTS, ids=lambda p: ".".join(p) or "top_level")
    def test_unknown_key_at_every_level_exits_3(self, prebuilt, tmp_path, path):
        code, err = _check(["build-dataset"], _with_unknown_key(path), tmp_path, prebuilt)
        assert code == 3 and f"unknown key {'.'.join([*path, 'bogus'])}" in err, err


@pytest.mark.parametrize("command, path, value, key", [
    # read as 1 or 0, and exit 0
    ("build-dataset", ("cell_km",), True, "cell_km"),
    ("train-suite", ("granularities",), [True], "granularities"),
    ("build-dataset", ("bbox",), [False, 10, 4.5, 14.5], "bbox"),
    ("build-dataset", ("source", "planted", "odds_ratio"), True, "source.planted.odds_ratio"),
    ("build-dataset", ("mask_polygon",), [[0, 10], [True, 14], [4, 12]], "mask_polygon"),
    # a header-only best_summary.csv
    ("train-suite", ("granularities",), [], "granularities"),
    # suite_100km.csv written, then exit 3
    ("train-suite", ("granularities",), [100, 0], "granularities"),
    # two suites fitted, suite_100km.csv written twice and listed twice
    ("train-suite", ("granularities",), [100, 100], "granularities"),
    ("train-suite", ("granularities",), [100, 100.0000001], "granularities"),
    # checked only by the stage that uses them, or not at all, and recorded
    # in the manifest of every other stage
    ("build-dataset", ("ml", "class_weight"), "foo", "ml.class_weight"),
    ("build-dataset", ("riskmap", "model"), "Nope", "riskmap.model"),
    ("test-univariate", ("source", "kind"), "nope", "source.kind"),
    ("build-dataset", ("country",), 5, "country"),
    ("build-dataset", ("bogus",), 1, "unknown key bogus"),
    ("build-dataset", ("tree", "bogus"), 1, "unknown key tree.bogus"),
], ids=["cell_km_true", "granularity_true", "bbox_false", "odds_ratio_true",
        "polygon_vertex_true", "granularities_empty", "granularity_zero_after_valid",
        "granularities_repeated", "granularities_named_alike",
        "class_weight_foo", "riskmap_model_nope", "source_kind_nope", "country_number",
        "unknown_top_level_key", "unknown_tree_key"])
def test_table_fault_exits_3(prebuilt, tmp_path, command, path, value, key):
    code, err = _check([command], _mutated(path, value), tmp_path, prebuilt)
    assert code == 3 and "config.json" in err and key in err, err


def test_null_object_takes_its_defaults(tmp_path, prebuilt):
    # null stands for {} in every object, as it did in source.planted
    doc = dict(BASE, tree=None, ml=None, stats=None, riskmap=None)
    assert _check(["learn-tree"], doc, tmp_path, prebuilt)[0] == 0
    assert (json.loads((tmp_path / "out" / "manifest.json").read_text())["learn-tree"]["config"]
            ["tree"] is None)
    tree = (tmp_path / "out" / "tree.json").read_bytes()
    assert tree == (prebuilt / "tree.json").read_bytes()


def test_too_many_cell_months_exit_3_before_allocating(tmp_path, prebuilt):
    # 10,000,000 months of 30 cells once asked numpy for 4.47 GiB
    assert 8000 * 93 <= MAX_CELL_MONTHS  # the 25 km demo over Jan 2015 to Sep 2022
    doc = _mutated(("source", "months"), 10_000_000)
    code, err = _check(["build-dataset"], doc, tmp_path, prebuilt)
    assert code == 3 and "source.months" in err and str(MAX_CELL_MONTHS) in err, err


def _readme_keys() -> list[str]:
    """The first column of README.md's config table, one key a row."""
    text = README.read_text(encoding="utf-8")
    table = text.split("<!-- config table -->", 2)[1]
    return re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)


def test_readme_lists_every_key_of_the_table():
    leaves = [".".join(path) for path in KEYS if not isinstance(_rule(path), cli._Object)]
    listed = _readme_keys()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(leaves)

