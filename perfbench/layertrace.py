"""Layer tracing from outside the program.

``install`` replaces pcrisk's public functions, at the names their callers
bind, with wrappers that record a span (name, start, end, parent, run id) or
bump a counter. Spans stay in memory until the run ends; ``layer_metrics``
then derives each layer's self time: its span's duration minus the part its
child spans cover.
"""

from __future__ import annotations

import os
import time
from collections import Counter

COMMANDS = ("build-dataset", "test-univariate", "learn-tree", "eval-hypotheses",
            "train-suite", "riskmap")
CLASSIFIER_KINDS = ("DecisionTree", "RandomForest", "AdaBoost", "LogisticRegression",
                    "LinearSVM", "GaussianNB", "MLP", "DeepNN")
#: classifiers trained by gradient descent with a backtracking line search
GD_KINDS = ("LogisticRegression", "MLP", "DeepNN")

#: every per-layer metric the traced run reports, with its unit
LAYER_METRICS = {
    **{f"cli.{c}.s": "s" for c in COMMANDS},
    "cli.self.s": "s",
    "ingest.synth_country.s": "s",
    "ingest.parse_series.s": "s",
    "ingest.parse_series.calls": "count",
    "ingest.series_bytes_read": "bytes",
    "ingest.parse_events.s": "s",
    "ingest.filter_pastoral.s": "s",
    "ingest.events_kept_ratio": "ratio",
    "grid.build_grid.s": "s",
    "features.fit_bin_edges.s": "s",
    "features.assemble_dataset.s": "s",
    "features.samples_binned": "count",
    "features.write_dataset_csv.s": "s",
    "features.read_dataset_csv.s": "s",
    "features.read_dataset_csv.calls": "count",
    "features.to_matrix.s": "s",
    "features.to_matrix.calls": "count",
    "stats.run_univariate.s": "s",
    "stats.exact_test.s": "s",
    "stats.exact_test.calls": "count",
    "hypotheses.train_cart.s": "s",
    "hypotheses.tree_nodes": "count",
    "hypotheses.evaluate_hypothesis.s": "s",
    "hypotheses.evaluate_hypothesis.calls": "count",
    "hypotheses.paths_scored_ratio": "ratio",
    **{f"ml.train.{k}.s": "s" for k in CLASSIFIER_KINDS},
    "ml.predict_proba.s": "s",
    **{f"ml.loss_grad.calls.{k}": "count" for k in GD_KINDS},
    **{f"ml.epochs.{k}": "count" for k in GD_KINDS},
    **{f"ml.line_search_accept_ratio.{k}": "ratio" for k in GD_KINDS},
    "riskmap.render.s": "s",
    "riskmap.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one pipeline run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.stage: str | None = None  # CLI command being run
        self.kind: str | None = None  # classifier kind of the enclosing ml.train span

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                for n, s, e, p in self.spans]


def _wrap(tracer: Tracer, module, attr: str, label, after=None, span: bool = True) -> None:
    """Replace module.attr by a wrapper that spans the call under label (a
    name, or a function of the call's arguments) and then runs after(args,
    result) on success."""
    fn = getattr(module, attr)

    def wrapper(*args, **kwargs):
        name = label if isinstance(label, str) else label(args)
        tracer.counts[name + ".calls"] += 1
        if not span:
            out = fn(*args, **kwargs)
        else:
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
        if after is not None:
            after(args, out)
        return out

    setattr(module, attr, wrapper)


def _tree_nodes(node) -> int:
    return 1 if node.is_leaf else 1 + _tree_nodes(node.left) + _tree_nodes(node.right)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions at the names the pipeline calls."""
    from pcrisk import features, grid, hypotheses, ingest, ml, riskmap, stats

    c = tracer.counts

    def bytes_read(args, out):
        c["ingest.series_bytes_read"] += os.path.getsize(args[0])

    def events_parsed(args, out):
        c["ingest.events_parsed"] += len(out)

    def events_kept(args, out):
        c["ingest.events_kept"] += len(out)

    def samples_binned(args, out):
        c["features.samples_binned"] += sum(len(s.samples) for s in args[1])

    def tree_nodes(args, out):
        c["hypotheses.tree_nodes"] += _tree_nodes(out)

    def paths_extracted(args, out):
        if tracer.stage == "eval-hypotheses":
            c["hypotheses.paths_extracted"] += len(out)

    def path_scored(args, out):
        if tracer.stage == "eval-hypotheses":
            c["hypotheses.paths_scored"] += 1

    def bytes_written(args, out):
        c["riskmap.bytes_written"] += os.path.getsize(args[1])

    def loss_grad_call(args, out):
        c[f"ml.loss_grad.calls.{tracer.kind}"] += 1

    _wrap(tracer, grid, "build_grid", "grid.build_grid")
    _wrap(tracer, ingest, "synth_country", "ingest.synth_country")
    _wrap(tracer, ingest, "parse_series", "ingest.parse_series", bytes_read)
    _wrap(tracer, ingest, "parse_events", "ingest.parse_events", events_parsed)
    _wrap(tracer, ingest, "filter_pastoral", "ingest.filter_pastoral", events_kept)
    _wrap(tracer, features, "fit_bin_edges", "features.fit_bin_edges")
    _wrap(tracer, features, "assemble_dataset", "features.assemble_dataset", samples_binned)
    _wrap(tracer, features, "write_dataset_csv", "features.write_dataset_csv")
    _wrap(tracer, features, "read_dataset_csv", "features.read_dataset_csv")
    for module in (stats, hypotheses, ml):
        _wrap(tracer, module, "to_matrix", "features.to_matrix")
    _wrap(tracer, stats, "run_univariate", "stats.run_univariate")
    _wrap(tracer, hypotheses, "exact_test", "stats.exact_test")
    _wrap(tracer, hypotheses, "train_cart", "hypotheses.train_cart", tree_nodes)
    _wrap(tracer, hypotheses, "extract_paths", "hypotheses.extract_paths", paths_extracted,
          span=False)
    _wrap(tracer, hypotheses, "evaluate_hypothesis", "hypotheses.evaluate_hypothesis",
          path_scored)
    for fn in ("logistic_loss_grad", "mlp_loss_grad"):
        _wrap(tracer, ml, fn, "ml.loss_grad", loss_grad_call, span=False)
    _wrap(tracer, ml, "predict_proba", "ml.predict_proba")
    for fn in ("render_geojson", "render_pgm", "render_csv"):
        _wrap(tracer, riskmap, fn, "riskmap.render", bytes_written)

    train = ml.train

    def train_by_kind(spec, rows):
        outer, tracer.kind = tracer.kind, spec.kind
        try:
            model = train(spec, rows)
        finally:
            tracer.kind = outer
        if spec.kind in GD_KINDS:
            c[f"ml.epochs.{spec.kind}"] += len(model.loss_history) - 1
        return model

    ml.train = train_by_kind
    _wrap(tracer, ml, "train", lambda args: f"ml.train.{args[0].kind}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, every name in LAYER_METRICS except
    trace.overhead_s. A layer the workload never calls reads 0."""
    n = len(tracer.spans)
    covered = [0.0] * n
    for name, start, end, parent in tracer.spans:
        if parent is not None:
            covered[parent] += end - start
    out = {name: 0.0 if unit == "s" else 0 for name, unit in LAYER_METRICS.items()
           if name != "trace.overhead_s"}
    for i, (name, start, end, _) in enumerate(tracer.spans):
        self_s = end - start - covered[i]
        if name.startswith("cli."):
            out[f"{name}.s"] += end - start
            out["cli.self.s"] += self_s
        else:
            out[f"{name}.s"] += self_s
    c = tracer.counts
    for name, unit in LAYER_METRICS.items():
        if unit != "s" and name in c:
            out[name] = c[name]
    for kind in GD_KINDS:
        calls = c[f"ml.loss_grad.calls.{kind}"]
        out[f"ml.line_search_accept_ratio.{kind}"] = (
            c[f"ml.epochs.{kind}"] / calls if calls else 0.0)
    out["ingest.events_kept_ratio"] = (
        c["ingest.events_kept"] / c["ingest.events_parsed"] if c["ingest.events_parsed"] else 0.0)
    out["hypotheses.paths_scored_ratio"] = (
        c["hypotheses.paths_scored"] / c["hypotheses.paths_extracted"]
        if c["hypotheses.paths_extracted"] else 0.0)
    return out
