import ast
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pcrisk import cli
from pcrisk.artifacts import read_json, write_json, write_table
from pcrisk.errors import InvalidInputError
from pcrisk.features import write_dataset_csv
from pcrisk.riskmap import RiskSurface, render_pgm

SRC = Path(__file__).resolve().parent.parent / "src" / "pcrisk"


def _per_field_bytes(header, rows) -> bytes:
    """What the report writers wrote before they shared write_table: one
    csv.writer, repr() of each Python float, NA for a missing value."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["NA" if v is None else repr(v) if isinstance(v, float) else v
                    for v in row])
    return buf.getvalue().encode("utf-8")


def test_write_table_matches_per_field_bytes(tmp_path):
    header = ["Country", "a", "b", "c", "d", "e"]
    rows = [['Chad, "north"', np.float64(0.1), np.float64(-0.0), 5e-324, None, np.int64(7)],
            ["Sahel", 1.0 / 3.0, -0.0, np.float64(5e-324), np.float64(2.0), 3]]
    p = tmp_path / "t.csv"
    write_table(p, header, rows)
    plain = [[float(v) if isinstance(v, np.floating) else
              int(v) if isinstance(v, np.integer) else v for v in row] for row in rows]
    assert p.read_bytes() == _per_field_bytes(header, plain)
    assert p.read_bytes().splitlines()[1] == b'"Chad, ""north""",0.1,-0.0,5e-324,NA,7'


def test_write_json_layouts(tmp_path):
    p = tmp_path / "d.json"
    write_json(p, {"b": [1, 2.5], "a": None})
    assert p.read_bytes() == b'{"a": null, "b": [1, 2.5]}\n'
    write_json(p, {"b": 1, "a": np.float64(0.1)}, indent=2)
    assert p.read_bytes() == b'{\n  "a": 0.1,\n  "b": 1\n}\n'
    assert read_json(p, "doc") == {"a": 0.1, "b": 1}


@pytest.mark.parametrize("data", [b'{"a": "\xff"}', b'{"a": [1, 2'],
                         ids=["bad_utf8", "truncated"])
def test_read_json_fault_names_file(tmp_path, data):
    p = tmp_path / "thing.json"
    p.write_bytes(data)
    with pytest.raises(InvalidInputError, match="tree .*thing.json is not valid JSON"):
        read_json(p, "tree")


def test_only_artifacts_encodes_json_and_csv():
    # one encoding keeps reruns byte-identical; a second writer could drift
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in (("json", "dumps"), ("csv", "writer"))):
                found.append((path.name, f"{node.value.id}.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module in ("json", "csv"):
                found.extend((path.name, f"{node.module}.{a.name}") for a in node.names
                             if a.name in ("dumps", "writer"))
    assert {name for name, _ in found} == {"artifacts.py"}, found


def test_writers_replace_an_existing_file(tmp_path, small_country):
    # a new file, not the old one truncated: a hard link keeps the old bytes
    g, ds = small_country[0], small_country[4]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"cell_km": 100, "seed": 7}), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["build-dataset", "--config", str(cfg), "--out-dir", str(out)]) == 0
    surface = RiskSurface(g, np.full((g.n_rows, g.n_cols), 0.5))
    for write, p in ((lambda p: write_json(p, {"a": 2}), tmp_path / "d.json"),
                     (lambda p: write_table(p, ["a"], [[2]]), tmp_path / "t.csv"),
                     (lambda p: write_dataset_csv(ds, p), tmp_path / "dataset.csv"),
                     (lambda p: render_pgm(surface, p), tmp_path / "r.pgm"),
                     (lambda p: cli.main(["learn-tree", "--config", str(cfg),
                                          "--out-dir", str(out)]), out / "tree.dot")):
        p.write_text("old\n", encoding="utf-8")
        (tmp_path / "link").hardlink_to(p)
        write(p)
        assert (tmp_path / "link").read_bytes() == b"old\n"
        assert p.read_bytes() != b"old\n"
        (tmp_path / "link").unlink()
