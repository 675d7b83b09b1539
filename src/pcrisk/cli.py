"""Pipeline command line: build-dataset, test-univariate, learn-tree,
eval-hypotheses, train-suite, riskmap.

Every command reads a JSON run config (CLI flags override a few common
fields), writes its artifacts plus a manifest.json capturing the resolved
config and the sha256 digests of the source's raw input files, and is
byte-identical when rerun with the same config and seed. build-dataset
hashes each raw input once and keeps that record with the parse of
dataset.csv; the analysis stages, which read dataset.csv and not the raw
files, record it from there. They hash the files only when the record is
missing or names other files than the config does.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features, grid as gridmod, hypotheses, ingest, ml, riskmap, stats
from .artifacts import create, read_json, write_json
from .errors import (DegeneratePartitionError, InvalidInputError, PCRiskError, SchemaError,
                     UndefinedTestError)

_DEFAULTS = {
    "country": "Synthia",
    "bbox": [0.0, 10.0, 4.5, 14.5],  # lat_min, lon_min, lat_max, lon_max
    "mask_polygon": None,
    "cell_km": 100.0,
    "granularities": [100.0, 75.0, 50.0],
    "window": {"start": "2015-01-01", "end": "2022-09-30"},
    "source": {"kind": "synthetic", "months": None, "planted": {}},
    "seed": None,
    "tree": {"max_depth": 4, "min_leaf": 1, "min_support": 5, "min_purity": 0.6},
    "ml": {"test_fraction": 0.2, "class_weight": None},
    "stats": {"bonferroni_m": None},
    "riskmap": {"model": "DecisionTree"},
}


@dataclass
class RunConfig:
    country: str
    bbox: gridmod.BBox
    mask_polygon: list | None
    cell_km: float
    granularities: tuple
    window: ingest.Window
    seed: int
    source: dict
    tree: dict
    ml: dict
    stats: dict
    riskmap: dict
    out_dir: Path
    raw: dict  # resolved JSON-serializable view, recorded in manifests


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def _convert(where: str, key: str, value, convert):
    """convert(value), with a bad value, or a record that refuses it, reported
    as an input fault naming where the config came from and the key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError, InvalidInputError) as exc:
        raise InvalidInputError(f"{where}: bad {key} {value!r} ({exc})") from None


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _count(least: int):
    """The converter of integers >= least. A bool is refused, though int()
    takes it as 0 or 1."""
    def convert(value) -> int:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError("not an integer")
        if int(value) < least:
            raise ValueError(f"must be >= {least}")
        return int(value)
    return convert


def _fraction(closed: bool):
    """The converter of numbers in [0, 1] if closed, else in (0, 1)."""
    def convert(value) -> float:
        if isinstance(value, bool):
            raise TypeError("not a number")
        x = float(value)
        if not (0.0 <= x <= 1.0 if closed else 0.0 < x < 1.0):
            raise ValueError("must lie in [0, 1]" if closed else "must lie in (0, 1)")
        return x
    return convert


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


#: converters of the values in each config section; a key not listed here
#: passes through as it is, except in the source's sub-objects
_SECTIONS = {
    "source": {"kind": _text, "months": _optional(_count(1)), "events_csv": _text,
               "series_csv": _text, "keyword_rules": _text},
    "tree": {"max_depth": _optional(_count(1)), "min_leaf": _count(1),
             "min_support": _count(0), "min_purity": _fraction(closed=True)},
    "ml": {"test_fraction": _fraction(closed=False)},
    "stats": {"bonferroni_m": _optional(_count(1))},
    "riskmap": {"model": _text},
}
#: the raw input files a files source may name, and what each holds
_INPUT_FILES = {"events_csv": "events table", "series_csv": "series table",
                "keyword_rules": "keyword rules"}
#: the records the source's sub-objects become, and the converters of their
#: keys: the records' fields, all with a str or float default; no other key
#: is allowed
_SOURCE_RECORDS = {key: (record, {f.name: _text if isinstance(f.default, str) else float
                                  for f in dataclasses.fields(record)})
                   for key, record in (("planted", ingest.PlantedEffect),
                                       ("event_schema", ingest.EventSchema))}


def _section(where: str, key: str, doc, converters: dict, strict: bool = False) -> dict:
    """A copy of the config object doc found at key, its values converted;
    strict rejects keys that converters does not name."""
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where}: {key} must be a JSON object, got {doc!r}")
    out = dict(doc)
    for name, value in doc.items():
        if name in converters:
            out[name] = _convert(where, f"{key}.{name}", value, converters[name])
        elif strict:
            raise InvalidInputError(f"{where}: unknown key {key}.{name}")
    return out


def resolve_config(args) -> RunConfig:
    raw = dict(_DEFAULTS)
    where = "built-in config"
    if args.config:
        cfg_path = Path(args.config)
        where = f"config file {cfg_path}"
        if not cfg_path.exists():
            raise InvalidInputError(f"{where} does not exist")
        doc = read_json(cfg_path, "config file")
        if not isinstance(doc, dict):
            raise InvalidInputError(f"{where} must hold a JSON object")
        raw = _merge(raw, doc)
    if args.seed is not None:
        raw["seed"] = args.seed
    if getattr(args, "cell_km", None) is not None:
        raw["cell_km"] = float(args.cell_km)
    if raw["seed"] is None:
        raise InvalidInputError("a seed is required: set it in the config or pass --seed")
    sections = {key: _section(where, key, raw[key], conv) for key, conv in _SECTIONS.items()}
    src = sections["source"]
    for key, (record, converters) in _SOURCE_RECORDS.items():
        doc = {} if src.get(key) is None else src[key]
        doc = _section(where, f"source.{key}", doc, converters, strict=True)
        src[key] = _convert(where, f"source.{key}", doc, lambda fields: record(**fields))
    if src.get("kind") == "files":
        for key in ("events_csv", "series_csv"):
            if key not in src:
                raise InvalidInputError(f"file source needs {key!r}")
        for key, what in _INPUT_FILES.items():
            if key in src and not Path(src[key]).is_file():
                fault = "is not a file" if Path(src[key]).exists() else "does not exist"
                raise InvalidInputError(f"{what} {src[key]} {fault}")
    window_doc = raw["window"] if isinstance(raw["window"], dict) else {}
    start, end = (_convert(where, f"window.{k}", window_doc.get(k), dt.date.fromisoformat)
                  for k in ("start", "end"))
    window = _convert(where, "window", raw["window"], lambda _: ingest.Window(start, end))
    bbox = _convert(where, "bbox", raw["bbox"],
                    lambda b: gridmod.BBox(*[float(v) for v in b]))
    out_dir = Path(args.out_dir)
    raw["out_dir"] = str(out_dir)
    return RunConfig(
        country=raw["country"], bbox=bbox, mask_polygon=raw["mask_polygon"],
        cell_km=_convert(where, "cell_km", raw["cell_km"], float),
        granularities=_convert(where, "granularities", raw["granularities"],
                               lambda gs: tuple(float(g) for g in gs)),
        window=window, seed=_convert(where, "seed", raw["seed"], _count(0)), source=src,
        tree=sections["tree"], ml=sections["ml"], stats=sections["stats"],
        riskmap=sections["riskmap"], out_dir=out_dir, raw=raw)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    try:
        with path.open("rb") as fh:
            while block := fh.read(1 << 20):
                h.update(block)
    except OSError as exc:
        raise InvalidInputError(f"input path {path} cannot be read "
                                f"({exc.strerror or exc})") from None
    return h.hexdigest()


def _input_digests(cfg: RunConfig, carried: dict | None = None) -> dict:
    """The manifest's record of the raw inputs: the path and sha256 of each
    file the source names, by key. carried is the record build-dataset kept
    with the table (features.Dataset.inputs). When it names the same keys
    and paths, its digests, those of the files the table was built from,
    are recorded and no file is read; otherwise the files are hashed."""
    paths = {}
    if cfg.source.get("kind") == "files":
        paths = {key: str(Path(cfg.source[key])) for key in _INPUT_FILES if key in cfg.source}
    if carried is not None and carried.keys() == paths.keys() and all(
            isinstance(entry := carried[key], dict) and entry.get("path") == path
            and isinstance(entry.get("sha256"), str)
            and re.fullmatch("[0-9a-f]{64}", entry["sha256"])
            for key, path in paths.items()):
        return {key: {"path": path, "sha256": carried[key]["sha256"]}
                for key, path in paths.items()}
    return {key: {"path": path, "sha256": _sha256(Path(path))} for key, path in paths.items()}


def _write_manifest(cfg: RunConfig, command: str, outputs: list[Path],
                    carried: dict | None = None) -> None:
    """manifest.json for command's outputs; carried as in _input_digests."""
    doc = {
        "command": command,
        "config": cfg.raw,
        "inputs": _input_digests(cfg, carried),
        "outputs": sorted(p.name for p in outputs),
    }
    write_json(cfg.out_dir / "manifest.json", doc, indent=2)


# ---------------------------------------------------------------------------
# dataset construction shared by several commands


def _build(cfg: RunConfig, cell_km: float):
    """(grid, dataset, edges) for one granularity from the configured source."""
    g = gridmod.build_grid(cfg.bbox, cell_km, cfg.mask_polygon)
    src = cfg.source
    if src.get("kind", "synthetic") == "synthetic":
        months = cfg.window.months if src.get("months") is None else src["months"]
        series, events = ingest.synth_country(
            cfg.seed, g, months, src["planted"], start=cfg.window.start, country=cfg.country)
    elif src["kind"] == "files":
        events = ingest.parse_events(src["events_csv"], src["event_schema"])
        rules = (ingest.load_keyword_rules(src["keyword_rules"])
                 if "keyword_rules" in src else ingest.default_keyword_rules())
        events = ingest.filter_pastoral(events, cfg.window, rules)
        try:
            series = ingest.parse_series(src["series_csv"], g, cell_km=cfg.cell_km)
        except SchemaError as exc:
            raise SchemaError(f"source.series_csv: {exc}") from None
    else:
        raise InvalidInputError(f"unknown source kind {src.get('kind')!r}")
    edges = features.fit_bin_edges(series)
    ds = features.assemble_dataset(g, series, events, cfg.window, edges)
    return g, ds, edges


def _stage_output(cfg: RunConfig, name: str, stage: str) -> Path:
    """The path of the artifact name that command stage writes, which must exist."""
    path = cfg.out_dir / name
    if not path.exists():
        raise InvalidInputError(f"{path} not found; run {stage} first")
    return path


def _load_dataset(cfg: RunConfig) -> features.Dataset:
    return features.load_dataset(_stage_output(cfg, "dataset.csv", "build-dataset"))


# ---------------------------------------------------------------------------
# commands: each returns what it wrote, which main records and lists


@dataclass(frozen=True)
class Written:
    """A command's artifacts, the record of the raw inputs they were built from
    (carried, as in _input_digests), and the exit code once main records them."""

    outputs: list[Path]
    carried: dict | None = None
    exit_code: int = 0


def cmd_build_dataset(cfg: RunConfig) -> Written:
    g, ds, edges = _build(cfg, cfg.cell_km)
    inputs = _input_digests(cfg)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_ds = cfg.out_dir / "dataset.csv"
    out_grid = cfg.out_dir / "grid.json"
    out_edges = cfg.out_dir / "bin_edges.json"
    digest = features.write_dataset_csv(ds, out_ds)
    features.cache_written_table(out_ds, digest, ds, inputs)
    gridmod.save_grid(g, out_grid)
    features.write_bin_edges_json(edges, out_edges)
    n1 = int(ds.y.sum())
    print(f"dataset: {len(ds)} cells ({g.n_rows}x{g.n_cols} grid at "
          f"{cfg.cell_km:g} km), {n1} with conflicts, {len(ds) - n1} without")
    return Written([out_ds, out_grid, out_edges], inputs)


def cmd_test_univariate(cfg: RunConfig) -> Written:
    ds = _load_dataset(cfg)
    m = cfg.stats.get("bonferroni_m")
    results = stats.run_univariate(ds, m=m)
    out = cfg.out_dir / "univariate.csv"
    stats.write_univariate_csv(results, out)
    n_sig = sum(r.p_bonferroni < 0.05 for r in results)
    print(f"tested {len(results)} features; {n_sig} significant at 0.05 after Bonferroni")
    return Written([out], ds.inputs)


def cmd_learn_tree(cfg: RunConfig) -> Written:
    ds = _load_dataset(cfg)
    tree = hypotheses.train_cart(ds, cfg.tree["max_depth"], cfg.tree["min_leaf"])
    out_json = cfg.out_dir / "tree.json"
    out_dot = cfg.out_dir / "tree.dot"
    hypotheses.save_tree(tree, out_json)
    with create(out_dot) as fh:
        fh.write(hypotheses.tree_to_dot(tree))
    paths = hypotheses.extract_paths(tree, cfg.tree["min_support"], cfg.tree["min_purity"])
    print(f"tree trained on {len(ds)} rows; {len(paths)} candidate hypothesis paths")
    return Written([out_json, out_dot], ds.inputs)


def cmd_golden(cfg: RunConfig) -> Written:
    """Evaluate the built-in hypotheses on datasets reconstructed from their
    frozen contingency tables; exit code 5 if a statistic misses its
    frozen value."""
    results = []
    n_bad = 0
    for name, bh in hypotheses.builtin_hypotheses().items():
        table, res = hypotheses.evaluate_hypothesis(bh.predicate, hypotheses.golden_dataset(bh))
        ok = (table == bh.table
              and abs(res.odds_ratio - bh.odds_ratio) <= 0.01
              and abs(res.ci_low - bh.ci_low) / bh.ci_low <= 0.015
              and abs(res.ci_high - bh.ci_high) / bh.ci_high <= 0.015
              and abs(np.log(res.p / bh.p)) <= np.log(2.0))
        n_bad += not ok
        status = "ok" if ok else "MISMATCH"
        print(f"{name} ({bh.country}): OR {res.odds_ratio:.2f} vs {bh.odds_ratio:.2f}, "
              f"p {res.p:.3g} vs {bh.p:.3g} -> {status}")
        results.append((bh.country, name, table, res))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / "hypotheses_golden.csv"
    hypotheses.write_hypothesis_csv(results, out)
    if n_bad:
        print(f"{n_bad} golden hypothesis mismatch(es)", file=sys.stderr)
    return Written([out], exit_code=5 if n_bad else 0)


def cmd_eval_hypotheses(cfg: RunConfig, which: str, only: str | None) -> Written:
    ds = _load_dataset(cfg)
    if which == "builtin":
        named = [(name, bh.predicate) for name, bh in hypotheses.builtin_hypotheses().items()
                 if only is None or name == only]
    else:
        tree = hypotheses.load_tree(_stage_output(cfg, "tree.json", "learn-tree"))
        preds = hypotheses.extract_paths(tree, cfg.tree["min_support"], cfg.tree["min_purity"])
        named = [(f"Path{i + 1}", p) for i, p in enumerate(preds)]
    results = []
    doc = []
    for name, pred in named:
        try:
            table, res = hypotheses.evaluate_hypothesis(pred, ds)
        except (DegeneratePartitionError, UndefinedTestError) as exc:
            print(f"{name}: skipped ({exc})")
            continue
        results.append((cfg.country, name, table, res))
        doc.append({
            "name": name,
            "conditions": [{"feature": c.feature, "op": c.op, "threshold": c.threshold}
                           for c in pred.conditions],
            "table": table.cells(),
            "odds_ratio": res.odds_ratio,
            "ci": [res.ci_low, res.ci_high],
            "p": res.p,
        })
        print(f"{name}: [{pred.describe()}] OR={res.odds_ratio:.3g} p={res.p:.3g}")
    out_csv = cfg.out_dir / "hypotheses.csv"
    out_json = cfg.out_dir / "hypotheses.json"
    hypotheses.write_hypothesis_csv(results, out_csv)
    write_json(out_json, doc, indent=2)
    return Written([out_csv, out_json], ds.inputs)


def cmd_train_suite(cfg: RunConfig) -> Written:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    best_lines = []
    specs = ml.default_suite(cfg.seed, cfg.ml.get("class_weight"))
    for km in cfg.granularities:
        _, ds, _ = _build(cfg, km)
        report = ml.run_suite(ds, specs, cfg.ml["test_fraction"], cfg.seed)
        out = cfg.out_dir / f"suite_{km:g}km.csv"
        ml.write_suite_csv(report, out)
        outputs.append(out)
        best = ml.best_row(report)
        best_lines.append((km, best))
        print(f"{km:g} km: best {best.classifier} F1={best.f1:.2f} "
              f"AUC={'NA' if best.auc is None else f'{best.auc:.2f}'}")
    out_best = cfg.out_dir / "best_summary.csv"
    ml.write_best_summary_csv(cfg.country, best_lines, out_best)
    outputs.append(out_best)
    return Written(outputs)


def cmd_riskmap(cfg: RunConfig) -> Written:
    ds = _load_dataset(cfg)
    g = gridmod.load_grid(_stage_output(cfg, "grid.json", "build-dataset"))
    spec = ml.ClassifierSpec(kind=cfg.riskmap["model"], seed=cfg.seed)
    model = ml.train(spec, ds)
    scores = ml.predict_proba(model, ds)
    surface = riskmap.surface_from_rows(g, ds.cells, scores, model_id=spec.kind)
    out_geo = cfg.out_dir / "risk.geojson"
    out_pgm = cfg.out_dir / "risk.pgm"
    out_csv = cfg.out_dir / "risk.csv"
    out_model = cfg.out_dir / "model.json"
    riskmap.render_geojson(surface, out_geo)
    riskmap.render_pgm(surface, out_pgm)
    riskmap.render_csv(surface, out_csv)
    ml.save_model(model, spec, out_model)
    print(f"risk surface from {spec.kind}: mean {scores.mean():.3f}, max {scores.max():.3f}")
    return Written([out_geo, out_pgm, out_csv, out_model], ds.inputs)


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pcrisk",
                                 description="Grid-based pastoral-conflict risk pipeline")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--cell-km", type=float, default=None,
                       choices=(50.0, 75.0, 100.0),
                       help="override cell edge length (other values via config)")
        p.add_argument("--out-dir", default="out", help="artifact directory")

    common(sub.add_parser("build-dataset", help="grid + features + labels to CSV"))
    common(sub.add_parser("test-univariate", help="class-difference tests per feature"))
    common(sub.add_parser("learn-tree", help="train the CART and export it"))
    p_eval = sub.add_parser("eval-hypotheses", help="score hypothesis predicates")
    common(p_eval)
    p_eval.add_argument("--which", choices=("builtin", "tree"), default="tree")
    p_eval.add_argument("--golden", action="store_true",
                        help="check built-ins against their frozen statistics")
    p_eval.add_argument("--hypothesis", default=None,
                        help="evaluate a single built-in hypothesis by name "
                             "(with --which builtin)")
    common(sub.add_parser("train-suite", help="run the 8-classifier benchmark"))
    common(sub.add_parser("riskmap", help="render per-cell risk surfaces"))
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "eval-hypotheses":
            only = args.hypothesis
            if only is not None:
                if args.which != "builtin" or args.golden:
                    _parser().error("--hypothesis names a built-in: it needs --which builtin "
                                    "and no --golden")
                if only not in hypotheses.builtin_hypotheses():
                    _parser().error(f"unknown hypothesis name {only!r}")
            written = (cmd_golden(cfg) if args.golden
                       else cmd_eval_hypotheses(cfg, args.which, only))
        else:
            written = {
                "build-dataset": cmd_build_dataset,
                "test-univariate": cmd_test_univariate,
                "learn-tree": cmd_learn_tree,
                "train-suite": cmd_train_suite,
                "riskmap": cmd_riskmap,
            }[args.command](cfg)
        _write_manifest(cfg, args.command, written.outputs, written.carried)
        for p in written.outputs:
            print(f"wrote {p}")
        return written.exit_code
    except PCRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
