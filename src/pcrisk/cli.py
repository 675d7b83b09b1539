"""Pipeline command line: build-dataset, test-univariate, learn-tree,
eval-hypotheses, train-suite, riskmap.

Every command reads a JSON run config (CLI flags override a few common
fields) and writes its artifacts. It then records under its own name in
manifest.json the resolved config and the sha256 of every file it read and
wrote; a rerun replaces that command's entry and keeps the others.
build-dataset and train-suite read the source's raw input files. The
analysis stages read the files build-dataset and learn-tree hand on
(dataset.csv, grid.json, tree.json), so the raw inputs behind a result are
those of the build-dataset entry that wrote the dataset.csv digest the
result's entry read. A command is byte-identical when rerun with the same
config and seed at the same BLAS thread count (riskmap's DeepNN model.json
at 50 km differs between 1 and 2 threads).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import hashlib
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features, grid as gridmod, hypotheses, ingest, ml, riskmap, stats
from .artifacts import create, read_json, write_json
from .errors import (DegeneratePartitionError, InvalidInputError, PCRiskError, SchemaError,
                     UndefinedTestError)

log = logging.getLogger(__name__)

#: the default of a key that only the config file may give
_UNSET = object()


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


def _number(test=lambda x: True, rule: str = ""):
    """The converter of numbers that pass test, which rule names. A bool is
    refused, though float() takes it as 0 or 1."""
    def convert(value) -> float:
        if isinstance(value, bool):
            raise TypeError("not a number")
        x = float(value)
        if not test(x):
            raise ValueError(rule)
        return x
    return convert


def _granularities(value) -> tuple:
    if not isinstance(value, list) or not value:
        raise TypeError("not a non-empty list")
    kms = tuple(_cell_km(km) for km in value)
    if len({f"{km:g}" for km in kms}) < len(kms):
        raise ValueError("two cell sizes would share one suite_<km>km.csv")
    return kms


def _text(*allowed):
    """The converter of strings, which must be among allowed if it names any."""
    def convert(value) -> str:
        if not isinstance(value, str):
            raise TypeError("not a string")
        if allowed and value not in allowed:
            raise ValueError(f"must be one of {', '.join(map(repr, allowed))}")
        return value
    return convert


@dataclass(frozen=True)
class _Object:
    """The rule of a config object: the (default, rule) of each key it may hold, a rule
    being a converter or an _Object, and what the converted values make; null stands for {}."""

    keys: dict
    make: object = dict


def _record(record) -> _Object:
    """The rule of an object that becomes record: its keys are the record's
    fields, whose str or float defaults stand for the keys left out."""
    return _Object({f.name: (_UNSET, _text() if isinstance(f.default, str) else _number())
                    for f in dataclasses.fields(record)}, record)


#: the raw input files a files source may name, and what each holds
_INPUT_FILES = {"events_csv": "events table", "series_csv": "series table",
                "keyword_rules": "keyword rules"}
_cell_km = _number(lambda km: 0.0 < km < np.inf, "a cell_km must be positive and finite")
#: every config key, its default and its rule; README.md's config table
#: lists the same keys
_CONFIG = _Object({
    "country": ("Synthia", _text()),
    "bbox": ([0.0, 10.0, 4.5, 14.5],  # lat_min, lon_min, lat_max, lon_max
             lambda bbox: gridmod.BBox(*map(_number(), bbox))),
    # [lat, lon] vertices, which grid.build_grid checks against each grid
    "mask_polygon": (None, _optional(lambda polygon: [list(map(_number(), v)) for v in polygon])),
    "cell_km": (100.0, _cell_km),
    "granularities": ([100.0, 75.0, 50.0], _granularities),
    "window": ({}, _Object({"start": ("2015-01-01", dt.date.fromisoformat),
                            "end": ("2022-09-30", dt.date.fromisoformat)}, ingest.Window)),
    "source": ({}, _Object({
        "kind": ("synthetic", _text("synthetic", "files")),
        "months": (None, _optional(_count(1))),
        "planted": ({}, _record(ingest.PlantedEffect)),
        "event_schema": (_UNSET, _record(ingest.EventSchema)),
        **{key: (_UNSET, _text()) for key in _INPUT_FILES}})),
    "seed": (None, _count(0)),
    "tree": ({}, _Object({
        "max_depth": (4, _optional(_count(1))), "min_leaf": (1, _count(1)),
        "min_support": (5, _count(0)),
        "min_purity": (0.6, _number(lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]"))})),
    "ml": ({}, _Object({
        "test_fraction": (0.2, _number(lambda x: 0.0 < x < 1.0, "must lie in (0, 1)")),
        "class_weight": (None, _optional(_text("balanced")))})),
    "stats": ({}, _Object({"bonferroni_m": (None, _optional(_count(1)))})),
    "riskmap": ({}, _Object({"model": ("DecisionTree", _text(*ml.CLASSIFIER_KINDS))})),
})
#: a run's config: each top-level key's value, out_dir, and raw, the view of a manifest
RunConfig = dataclasses.make_dataclass("RunConfig", [*_CONFIG.keys, "out_dir", "raw"])


def _resolve(where: str, path: str, rule: _Object, doc) -> tuple:
    """(value, view) of the config object doc found at path, a key prefix: value is what
    rule makes of doc's values, converted, the defaults standing for the keys doc leaves
    out, and view is doc with those defaults. A key that rule does not name is refused."""
    if doc is None or doc is _UNSET:
        return _resolve(where, path, rule, {})[0], doc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{where}: {path[:-1]} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in rule.keys:
            raise InvalidInputError(f"{where}: unknown key {path}{key}")
    values, view = {}, {}
    for key, (default, convert) in rule.keys.items():
        value = doc.get(key, default)
        if isinstance(convert, _Object):
            values[key], value = _resolve(where, f"{path}{key}.", convert, value)
        elif value is not _UNSET:
            values[key] = _convert(where, path + key, value, convert)
        if value is not _UNSET:
            view[key] = value
    return _convert(where, path[:-1], view, lambda _: rule.make(**values)), view


def resolve_config(args) -> RunConfig:
    doc, where = {}, "built-in config"
    if args.config:
        cfg_path = Path(args.config)
        where = f"config file {cfg_path}"
        if not cfg_path.exists():
            raise InvalidInputError(f"{where} does not exist")
        doc = read_json(cfg_path, "config file")
        if not isinstance(doc, dict):
            raise InvalidInputError(f"{where} must hold a JSON object")
    for key in ("seed", "cell_km"):  # the flags that override the config file
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    if doc.get("seed") is None:
        raise InvalidInputError("a seed is required: set it in the config or pass --seed")
    values, raw = _resolve(where, "", _CONFIG, doc)
    src = values["source"]
    if src["kind"] == "files":
        for key in ("events_csv", "series_csv"):
            if key not in src:
                raise InvalidInputError(f"file source needs {key!r}")
        for key, what in _INPUT_FILES.items():
            if key in src and not Path(src[key]).is_file():
                fault = "is not a file" if Path(src[key]).exists() else "does not exist"
                raise InvalidInputError(f"{what} {src[key]} {fault}")
    out_dir = Path(args.out_dir)
    raw["out_dir"] = str(out_dir)
    return RunConfig(**values, out_dir=out_dir, raw=raw)


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


def _input(path: Path, sha256: str | None = None) -> dict:
    """The manifest's record of a file read: its path and sha256, computed unless given."""
    return {"path": str(path), "sha256": sha256 or _sha256(path)}


def _raw_inputs(cfg: RunConfig) -> dict:
    """The record of the raw input files the source names, by config key."""
    src = cfg.source
    return {key: _input(Path(src[key])) for key in _INPUT_FILES
            if src["kind"] == "files" and key in src}


def _entries(doc) -> dict:
    """doc, if it holds one manifest entry per command."""
    if isinstance(doc, dict) and all(isinstance(entry, dict) and entry.keys() == {
            "config", "inputs", "outputs"} for entry in doc.values()):
        return doc
    raise ValueError("it holds no command entries")


def _write_manifest(cfg: RunConfig, command: str, written: Written) -> None:
    """command's entry in manifest.json: the config, the record of the files it read, and
    the sha256 of each file it wrote, by name. A manifest that is not valid JSON or holds
    no entries, an earlier format's say, is replaced with a warning."""
    path = cfg.out_dir / "manifest.json"
    entries = {}
    if path.exists():
        try:
            entries = read_json(path, "manifest", _entries)
        except InvalidInputError as exc:
            log.warning("%s; replacing it", exc)
    outputs = {p.name: written.hashed.get(p) or _sha256(p) for p in written.outputs}
    entries[command] = {"config": cfg.raw, "inputs": written.read, "outputs": outputs}
    write_json(path, entries, indent=2)


# ---------------------------------------------------------------------------
# dataset construction shared by several commands


def _build(cfg: RunConfig, cell_km: float):
    """(grid, dataset, edges) for one granularity from the configured source."""
    g = gridmod.build_grid(cfg.bbox, cell_km, cfg.mask_polygon)
    src = cfg.source
    if src["kind"] == "synthetic":
        months = cfg.window.months if src["months"] is None else src["months"]
        n = int(g.mask.sum())  # checked before the samples are allocated
        if n * months > gridmod.MAX_CELL_MONTHS:
            raise InvalidInputError(f"source.months: {months} months of {n} cells exceed "
                                    f"{gridmod.MAX_CELL_MONTHS} cell-months")
        series, events = ingest.synth_country(
            cfg.seed, g, months, src["planted"], start=cfg.window.start, country=cfg.country)
    else:
        events = ingest.parse_events(src["events_csv"], src["event_schema"])
        rules = (ingest.load_keyword_rules(src["keyword_rules"])
                 if "keyword_rules" in src else ingest.default_keyword_rules())
        events = ingest.filter_pastoral(events, cfg.window, rules)
        try:
            series = ingest.parse_series(src["series_csv"], g, cell_km=cfg.cell_km)
        except SchemaError as exc:
            raise SchemaError(f"source.series_csv: {exc}") from None
    edges = features.fit_bin_edges(series)
    ds = features.assemble_dataset(g, series, events, cfg.window, edges)
    return g, ds, edges


def _stage_output(cfg: RunConfig, name: str, stage: str) -> Path:
    """The path of the artifact name that command stage writes, which must exist."""
    path = cfg.out_dir / name
    if not path.exists():
        raise InvalidInputError(f"{path} not found; run {stage} first")
    return path


def _load_dataset(cfg: RunConfig) -> tuple[features.Dataset, dict]:
    """build-dataset's table, and the record of the file read, by name, for Written.read."""
    path = _stage_output(cfg, "dataset.csv", "build-dataset")
    ds, digest = features.load_dataset(path)
    return ds, {path.name: _input(path, digest.hex())}


# ---------------------------------------------------------------------------
# commands: each returns what it read and wrote and its report, for main to record and print


@dataclass(frozen=True)
class Written:
    """A command's record of the files it read (_input's, by config key for a raw input and
    by name for a hand-off file), the artifacts it wrote and the sha256 it has of any, its
    report lines for stdout, alerts for stderr and exit code."""

    read: dict
    outputs: list[Path]
    report: list[str]
    hashed: dict[Path, str] = dataclasses.field(default_factory=dict)
    exit_code: int = 0
    alerts: tuple = ()


def cmd_build_dataset(cfg: RunConfig) -> Written:
    g, ds, edges = _build(cfg, cfg.cell_km)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_ds = cfg.out_dir / "dataset.csv"
    out_grid = cfg.out_dir / "grid.json"
    out_edges = cfg.out_dir / "bin_edges.json"
    digest = features.write_dataset_csv(ds, out_ds)
    features.cache_written_table(out_ds, digest, ds)
    gridmod.save_grid(g, out_grid)
    features.write_bin_edges_json(edges, out_edges)
    n1 = int(ds.y.sum())
    report = [f"dataset: {len(ds)} cells ({g.n_rows}x{g.n_cols} grid at "
              f"{cfg.cell_km:g} km), {n1} with conflicts, {len(ds) - n1} without"]
    return Written(_raw_inputs(cfg), [out_ds, out_grid, out_edges], report,
                   {out_ds: digest.hex()})


def cmd_test_univariate(cfg: RunConfig) -> Written:
    ds, read = _load_dataset(cfg)
    results = stats.run_univariate(ds, m=cfg.stats["bonferroni_m"])
    out = cfg.out_dir / "univariate.csv"
    stats.write_univariate_csv(results, out)
    n_sig = sum(r.p_bonferroni < 0.05 for r in results)
    report = [f"tested {len(results)} features; {n_sig} significant at 0.05 after Bonferroni"]
    return Written(read, [out], report)


def cmd_learn_tree(cfg: RunConfig) -> Written:
    ds, read = _load_dataset(cfg)
    tree = hypotheses.train_cart(ds, cfg.tree["max_depth"], cfg.tree["min_leaf"])
    out_json = cfg.out_dir / "tree.json"
    out_dot = cfg.out_dir / "tree.dot"
    hypotheses.save_tree(tree, out_json)
    with create(out_dot) as fh:
        fh.write(hypotheses.tree_to_dot(tree))
    paths = hypotheses.extract_paths(tree, cfg.tree["min_support"], cfg.tree["min_purity"])
    report = [f"tree trained on {len(ds)} rows; {len(paths)} candidate hypothesis paths"]
    return Written(read, [out_json, out_dot], report)


def cmd_golden(cfg: RunConfig) -> Written:
    """Evaluate the built-in hypotheses on datasets reconstructed from their
    frozen contingency tables; exit code 5 if a statistic misses its
    frozen value."""
    results, report = [], []
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
        report.append(f"{name} ({bh.country}): OR {res.odds_ratio:.2f} vs {bh.odds_ratio:.2f}, "
                      f"p {res.p:.3g} vs {bh.p:.3g} -> {status}")
        results.append((bh.country, name, table, res))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.out_dir / "hypotheses_golden.csv"
    hypotheses.write_hypothesis_csv(results, out)
    return Written({}, [out], report, exit_code=5 if n_bad else 0,
                   alerts=[f"{n_bad} golden hypothesis mismatch(es)"] if n_bad else [])


def cmd_eval_hypotheses(cfg: RunConfig, which: str, only: str | None) -> Written:
    ds, read = _load_dataset(cfg)
    if which == "builtin":
        named = [(name, bh.predicate) for name, bh in hypotheses.builtin_hypotheses().items()
                 if only is None or name == only]
    else:
        path = _stage_output(cfg, "tree.json", "learn-tree")
        tree = hypotheses.load_tree(path)
        read[path.name] = _input(path)
        preds = hypotheses.extract_paths(tree, cfg.tree["min_support"], cfg.tree["min_purity"])
        named = [(f"Path{i + 1}", p) for i, p in enumerate(preds)]
    results, doc, report = [], [], []
    for name, pred in named:
        try:
            table, res = hypotheses.evaluate_hypothesis(pred, ds)
        except (DegeneratePartitionError, UndefinedTestError) as exc:
            report.append(f"{name}: skipped ({exc})")
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
        report.append(f"{name}: [{pred.describe()}] OR={res.odds_ratio:.3g} p={res.p:.3g}")
    out_csv = cfg.out_dir / "hypotheses.csv"
    out_json = cfg.out_dir / "hypotheses.json"
    hypotheses.write_hypothesis_csv(results, out_csv)
    write_json(out_json, doc, indent=2)
    return Written(read, [out_csv, out_json], report)


def cmd_train_suite(cfg: RunConfig) -> Written:
    """Every granularity's suite, written once all have fitted."""
    specs = ml.default_suite(cfg.seed, cfg.ml["class_weight"])
    suites = []
    for km in cfg.granularities:
        _, ds, _ = _build(cfg, km)
        suites.append(ml.run_suite(ds, specs, cfg.ml["test_fraction"], cfg.seed))
    best_lines = [(km, ml.best_row(rows)) for km, rows in zip(cfg.granularities, suites)]
    report = [f"{km:g} km: best {best.classifier} F1={best.f1:.2f} "
              f"AUC={'NA' if best.auc is None else f'{best.auc:.2f}'}" for km, best in best_lines]
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [cfg.out_dir / f"suite_{km:g}km.csv" for km in cfg.granularities]
    for rows, out in zip(suites, outputs):
        ml.write_suite_csv(rows, out)
    outputs.append(cfg.out_dir / "best_summary.csv")
    ml.write_best_summary_csv(cfg.country, best_lines, outputs[-1])
    return Written(_raw_inputs(cfg), outputs, report)


def cmd_riskmap(cfg: RunConfig) -> Written:
    ds, read = _load_dataset(cfg)
    path = _stage_output(cfg, "grid.json", "build-dataset")
    g = gridmod.load_grid(path)
    read[path.name] = _input(path)
    [spec] = ml.default_suite(cfg.seed, cfg.ml["class_weight"], [cfg.riskmap["model"]])
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
    report = [f"risk surface from {spec.kind}: mean {scores.mean():.3f}, max {scores.max():.3f}"]
    return Written(read, [out_geo, out_pgm, out_csv, out_model], report)


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
        entry = args.command  # its manifest entry's key
        if args.command == "eval-hypotheses":
            only = args.hypothesis
            if only is not None:
                if args.which != "builtin" or args.golden:
                    _parser().error("--hypothesis names a built-in: it needs --which builtin "
                                    "and no --golden")
                if only not in hypotheses.builtin_hypotheses():
                    _parser().error(f"unknown hypothesis name {only!r}")
            if args.golden:  # an entry of its own, so the scored paths keep theirs
                entry, written = "eval-hypotheses --golden", cmd_golden(cfg)
            else:
                written = cmd_eval_hypotheses(cfg, args.which, only)
        else:
            written = {
                "build-dataset": cmd_build_dataset,
                "test-univariate": cmd_test_univariate,
                "learn-tree": cmd_learn_tree,
                "train-suite": cmd_train_suite,
                "riskmap": cmd_riskmap,
            }[args.command](cfg)
        _write_manifest(cfg, entry, written)
        try:
            sys.stdout.writelines(f"{line}\n" for line in written.report)
            sys.stderr.writelines(f"{line}\n" for line in written.alerts)
            sys.stdout.writelines(f"wrote {p}\n" for p in written.outputs)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left early, as `| head` does
            try:
                sys.stdout.close()  # drops the lines left, which the exit would flush again
            except BrokenPipeError:
                pass
        return written.exit_code
    except PCRiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
