"""Spans around calls into each sentistock module, recorded from outside.

The benchmark replaces module attributes with timing wrappers for the length
of one traced call, then puts the originals back. ``harness`` imports most
stage functions by name, so those are patched where ``harness`` holds them;
``dataset``, ``neuralnet`` and ``evalmetrics`` are reached through module
attributes, so patching ``neuralnet.loss_and_gradients`` and
``neuralnet.predict`` also catches the calls made inside ``neuralnet.train``.
The tweet loader is bound as a default argument of ``run_grid``, so the
traced loader is passed in explicitly.

Spans stay in memory, each with its parent, and are written out once at exit.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager

from sentistock import dataset, evalmetrics, harness, ingest, neuralnet

# Spans that only orchestrate other layers; their self time is harness glue.
ORCHESTRATION = ("harness.run_grid", "harness.run_master", "harness.build_master")
LAYERS = ("ingest", "sentiment", "mapping", "dataset", "neuralnet", "evalmetrics", "harness")
CORPUS_LAYERS = ("ingest", "sentiment", "mapping")


class Tracer:
    """In-memory span recorder. A span is (id, parent id, call index, name, start, end, counts)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.call = 0

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "call": self.call, "name": name, "start": time.perf_counter(), "end": None,
                  "counts": {}}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(result, args, kwargs) returns counts for the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record["counts"] = count(result, args, kwargs)
                return result
        return traced


def forward_gflop(batch: int, lookback: int, n_features: int, hidden: int) -> float:
    """GEMM flops of one forward pass, computed from shapes.

    Per direction and layer: input projection 2*B*w*in*4H plus recurrence
    2*B*w*H*4H; layer 1 reads F features, layer 2 reads 2H; two directions;
    plus the 2H -> 1 head.
    """
    per_direction = 8 * batch * lookback * hidden * ((n_features + hidden) + (3 * hidden))
    return (2 * per_direction + 4 * batch * hidden) / 1e9


def _model_gflop(model, X, passes: int) -> dict:
    lookback, n_features = model.config.input_shape
    return {"gflop": passes * forward_gflop(len(X), lookback, n_features, model.config.hidden_units)}


def _loss_grad_count(result, args, kwargs):
    # Forward plus BPTT: the backward pass does two GEMMs for each forward one.
    return _model_gflop(args[0], args[1], passes=3)


def _predict_count(result, args, kwargs):
    windows = args[1]
    X = windows.X if hasattr(windows, "X") else windows
    return _model_gflop(args[0], X, passes=1)


def _files_count(result, args, kwargs):
    return {"files": len(result), "bytes": sum(os.path.getsize(p) for p in result)}


def targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, wrapper) for every traced function."""
    w = tracer.wrap
    return [
        (harness, "load_stock_csv", w("ingest.load_stock", harness.load_stock_csv)),
        (harness, "score_corpus", w("sentiment.score", harness.score_corpus,
                                    lambda r, a, k: {"pairs": len(a[1]) * len(a[2])})),
        (harness, "daily_aggregate", w("mapping.aggregate", harness.daily_aggregate)),
        (harness, "memory_weighted_map", w("mapping.map", harness.memory_weighted_map)),
        (harness, "join_with_stock", w("mapping.join", harness.join_with_stock)),
        (harness, "run_grid", w("harness.run_grid", harness.run_grid)),
        (harness, "build_master", w("harness.build_master", harness.build_master)),
        (harness, "run_master", w("harness.run_master", harness.run_master)),
        (harness, "fingerprint", w("harness.fingerprint", harness.fingerprint)),
        (harness, "emit_report", w("harness.report", harness.emit_report, _files_count)),
        (harness, "write_record_artifacts",
         w("harness.report", harness.write_record_artifacts, _files_count)),
        (dataset, "fit_scalers", w("dataset.scale", dataset.fit_scalers)),
        (dataset, "transform", w("dataset.scale", dataset.transform)),
        (dataset, "inverse_transform", w("dataset.scale", dataset.inverse_transform)),
        (dataset, "chronological_split", w("dataset.window", dataset.chronological_split)),
        (dataset, "make_windows", w("dataset.window", dataset.make_windows,
                                    lambda r, a, k: {"bytes": r.X.nbytes})),
        (neuralnet, "init_model", w("neuralnet.init", neuralnet.init_model)),
        (neuralnet, "train", w("neuralnet.train", neuralnet.train,
                               lambda r, a, k: {"epochs": r.n_epochs})),
        (neuralnet, "loss_and_gradients",
         w("neuralnet.loss_grad", neuralnet.loss_and_gradients, _loss_grad_count)),
        (neuralnet, "predict", w("neuralnet.predict", neuralnet.predict, _predict_count)),
        (evalmetrics, "compute_metrics", w("evalmetrics.eval", evalmetrics.compute_metrics)),
        (evalmetrics, "best_time_offset", w("evalmetrics.eval", evalmetrics.best_time_offset)),
        (evalmetrics, "validation_score", w("evalmetrics.eval", evalmetrics.validation_score)),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers; yields the traced tweet loader."""
    installed = [(module, name, getattr(module, name), wrapper)
                 for module, name, wrapper in targets(tracer)]
    for module, name, _, wrapper in installed:
        setattr(module, name, wrapper)
    try:
        yield tracer.wrap("ingest.load_tweets", ingest.load_tweets,
                          lambda r, a, k: {"tweets": len(r)})
    finally:
        for module, name, original, _ in reversed(installed):
            setattr(module, name, original)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def call_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced call, from its spans.

    The entry-point span is the call's root. A layer span is top-level when
    every span above it only orchestrates (see ORCHESTRATION); top-level spans
    do not overlap, so their durations add up to the covered share of the
    call. ``harness.self_s`` is the rest: orchestration's own time.
    """
    by_id = {s["id"]: s for s in spans}
    root = next(s for s in spans if s["parent"] is None)
    wall = _duration(root)

    def total(name, where=lambda s: True):
        return sum(_duration(s) for s in spans if s["name"] == name and where(s))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def top_level(span):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] not in ORCHESTRATION:
                return False
            parent = by_id[parent]["parent"]
        return True

    layer_time = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s["name"] not in ORCHESTRATION and top_level(s):
            layer_time[s["name"].split(".")[0]] += _duration(s)
    covered = sum(layer_time.values())

    def in_train(span):
        return span["parent"] is not None and by_id[span["parent"]]["name"] == "neuralnet.train"

    train_s = total("neuralnet.train")
    loss_grad_s = total("neuralnet.loss_grad")
    val_predict_s = total("neuralnet.predict", in_train)
    predict_s = total("neuralnet.predict", lambda s: not in_train(s))
    epochs = count("neuralnet.train", "epochs")
    gflop = count("neuralnet.loss_grad", "gflop") + count("neuralnet.predict", "gflop")
    nn_busy = train_s + predict_s
    return {
        "ingest.load_tweets_s": total("ingest.load_tweets"),
        "ingest.load_stock_s": total("ingest.load_stock"),
        "ingest.tweets_loaded": count("ingest.load_tweets", "tweets"),
        "sentiment.score_s": total("sentiment.score"),
        "sentiment.scored_pairs": count("sentiment.score", "pairs"),
        "mapping.aggregate_s": total("mapping.aggregate"),
        "mapping.map_s": total("mapping.map"),
        "mapping.join_s": total("mapping.join"),
        "dataset.scale_s": total("dataset.scale"),
        "dataset.window_s": total("dataset.window"),
        "dataset.window_mb": count("dataset.window", "bytes") / 1e6,
        "neuralnet.train_s": train_s,
        "neuralnet.loss_grad_s": loss_grad_s,
        "neuralnet.loss_grad_calls": sum(s["name"] == "neuralnet.loss_grad" for s in spans),
        "neuralnet.val_predict_s": val_predict_s,
        "neuralnet.train_self_s": train_s - loss_grad_s - val_predict_s,
        "neuralnet.predict_s": predict_s,
        "neuralnet.epoch_s": train_s / epochs if epochs else 0.0,
        "neuralnet.gflop": gflop,
        "neuralnet.gflops_per_s": gflop / nn_busy if nn_busy else 0.0,
        "harness.build_master_s": total("harness.build_master"),
        "harness.run_master_s": total("harness.run_master"),
        "harness.fingerprint_s": total("harness.fingerprint"),
        "harness.report_s": total("harness.report"),
        "harness.files_written": count("harness.report", "files"),
        "harness.bytes_written": count("harness.report", "bytes"),
        "harness.self_s": wall - covered,
        "evalmetrics.s": total("evalmetrics.eval"),
        "trace.coverage_frac": covered / wall,
        "share.neuralnet": layer_time["neuralnet"] / wall,
        "share.corpus": sum(layer_time[m] for m in CORPUS_LAYERS) / wall,
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median_low(m[key] for m in per_call) for key in per_call[0]}
