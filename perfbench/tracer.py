"""Traced pass: run ``bdml.cli.main`` in-process with its layers wrapped.

Usage: ``python tracer.py SPANS_JSON PASS_ID -- <bdml cli arguments>``.

Each public function is wrapped under the name its caller looks it up by
(``harness.select``, ``cli.score_pairs``, ``kernels.nn1_indices``, ...),
so no file of the program changes.  A span records name, parent, start
and end in nanoseconds, plus a few counts read from the arguments or the
result.  Spans stay in memory and are written as JSON when the pass ends.
A wrapped name the program no longer has is listed as absent.

:func:`layer_metrics` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter_ns


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nbytes(*arrays) -> int:
    return sum(a.size * a.itemsize for a in arrays)


# Computed compulsory traffic: read every argument once, write the result once.
def _pair_sq_proj_cost(args, kwargs, result):
    proj, ii, jj = args[:3]
    m, k = ii.shape[0], proj.shape[1]
    return [2 * m * k, _nbytes(proj, ii, jj) + m * (k + 1) * 8]


def _nn1_indices_cost(args, kwargs, result):
    train, queries = args[:2]
    nt, k = train.shape
    nq = queries.shape[0]
    return [3 * nq * nt * k, _nbytes(train, queries) + nq * 8]


def _weighted_outer_sum_cost(args, kwargs, result):
    rows, coef = args[:2]
    m, k = rows.shape
    return [2 * m * k * k + m * k, _nbytes(rows, coef) + k * k * 8]


def _row_quad_forms_cost(args, kwargs, result):
    rows, mat = args[:2]
    m, k = rows.shape
    return [2 * m * k * k + 2 * m * k, _nbytes(rows, mat) + m * 8]


def _rows(args, kwargs, result):
    return [result.n]


def _length(args, kwargs, result):
    return [len(result)]


def _vb_fit(args, kwargs, result):
    constraints = _arg(args, kwargs, 0, "constraints")
    return [result.iterations, int(bool(result.converged)), len(constraints)]


def _mle_fit(args, kwargs, result):
    return [result.iterations, int(bool(result.converged))]


def _knn(args, kwargs, result):
    train = _arg(args, kwargs, 1, "train")
    queries = _arg(args, kwargs, 2, "queries")
    return [queries.n, train.n]


def _pool_size(args, kwargs, result):
    return [len(args[0].candidates)]


# (module, attribute path, span name, counter)
SITES = (
    ("bdml.cli", "load_csv", "cli.load_csv", _rows),
    ("bdml.cli", "eigen_basis", "cli.eigen_basis", None),
    ("bdml.cli", "score_pairs", "cli.score_pairs", _length),
    ("bdml.harness", "run_active_loop", "harness.run_active_loop", None),
    ("bdml.harness", "load_csv", "harness.load_csv", _rows),
    ("bdml.harness", "synth_data", "harness.synth_data", None),
    ("bdml.harness", "eigen_basis", "harness.eigen_basis", None),
    ("bdml.harness", "build_pool", "harness.build_pool", None),
    ("bdml.harness", "select", "harness.select", _length),
    ("bdml.active", "score_pairs", "active.score_pairs", _length),
    ("bdml.active", "feature_matrix", "active.feature_matrix", _length),
    ("bdml.active", "PairPool.__init__", "PairPool.__init__", _pool_size),
    ("bdml.active", "PairPool.with_labels", "PairPool.with_labels", None),
    ("bdml.vb", "fit", "vb.fit", _vb_fit),
    ("bdml.vb", "feature_matrix", "vb.feature_matrix", _length),
    ("bdml.mle", "mle_fit", "mle.mle_fit", _mle_fit),
    ("bdml.mle", "feature_matrix", "mle.feature_matrix", _length),
    ("bdml.metric", "knn_classify", "metric.knn_classify", _knn),
    ("bdml.metric", "euclidean_knn", "metric.euclidean_knn", None),
    ("bdml.kernels", "pair_sq_proj", "kernels.pair_sq_proj", _pair_sq_proj_cost),
    ("bdml.kernels", "nn1_indices", "kernels.nn1_indices", _nn1_indices_cost),
    ("bdml.kernels", "weighted_outer_sum", "kernels.weighted_outer_sum",
     _weighted_outer_sum_cost),
    ("bdml.kernels", "row_quad_forms", "kernels.row_quad_forms", _row_quad_forms_cost),
)

# Span name -> layer function whose metrics it feeds.
FUNCTION_OF = {
    "cli.main": "cli.main",
    "cli.load_csv": "spectral.load_csv",
    "harness.load_csv": "spectral.load_csv",
    "cli.eigen_basis": "spectral.eigen_basis",
    "harness.eigen_basis": "spectral.eigen_basis",
    "active.feature_matrix": "spectral.feature_matrix",
    "vb.feature_matrix": "spectral.feature_matrix",
    "mle.feature_matrix": "spectral.feature_matrix",
    "cli.score_pairs": "active.score_pairs",
    "active.score_pairs": "active.score_pairs",
    "harness.select": "active.select",
    "PairPool.__init__": "active.PairPool",
    "PairPool.with_labels": "active.PairPool",
}


class Tracer:
    """In-memory span recorder; ``wrap`` returns a recording stand-in."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter_ns()
            if count is not None:
                try:
                    span[4] = count(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    span[4] = None
            return result

        return traced

    def install(self) -> list:
        """Wrap every site that exists; return the names of those that do not."""
        absent = []
        for module_name, path, name, count in SITES:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                absent.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                absent.append(name)
                continue
            setattr(owner, attr, self.wrap(name, fn, count))
        return absent


def main(argv) -> int:
    spans_path, pass_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON PASS_ID -- <bdml arguments>")
    tracer = Tracer()
    absent = tracer.install()
    import bdml.cli

    run = tracer.wrap("cli.main", bdml.cli.main)
    try:
        return run(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"pass": int(pass_id), "absent": absent,
                       "fields": ["name", "parent", "start_ns", "end_ns", "counts"],
                       "spans": tracer.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass

KERNELS = ("pair_sq_proj", "nn1_indices", "weighted_outer_sum", "row_quad_forms")
UNITS = {"self_ms": "ms", "total_ms": "ms", "flops": "flop", "bytes": "B",
         "converged_ratio": "ratio", "picked_ratio": "ratio"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    return UNITS.get(metric.rsplit(".", 1)[-1], "count")


def layer_metrics(doc: dict) -> dict:
    """Per-layer metric values of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children.  Counts sum over spans; a counter that could not be read
    (the program changed shape) contributes nothing.
    """
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns, total_ns, counts = {}, {}, {}, {}
    picked = scored = 0
    for idx, (name, parent, start, end, count) in enumerate(spans):
        fn = FUNCTION_OF.get(name, name)
        calls[fn] = calls.get(fn, 0) + 1
        self_ns[fn] = self_ns.get(fn, 0) + (end - start - child_ns[idx])
        total_ns[fn] = total_ns.get(fn, 0) + (end - start)
        if count:
            acc = counts.setdefault(fn, [0] * len(count))
            for c, v in enumerate(count):
                acc[c] += v
        if name == "active.score_pairs" and count and parent >= 0 \
                and spans[parent][0] == "harness.select" and spans[parent][4]:
            picked += spans[parent][4][0]
            scored += count[0]

    def count(fn, c=0):
        return counts.get(fn, [0] * (c + 1))[c]

    def ms(table, fn):
        return table.get(fn, 0) / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "spectral.eigen_basis.calls": calls.get("spectral.eigen_basis", 0),
        "spectral.eigen_basis.self_ms": ms(self_ns, "spectral.eigen_basis"),
        "spectral.feature_matrix.rows": count("spectral.feature_matrix"),
        "spectral.feature_matrix.self_ms": ms(self_ns, "spectral.feature_matrix"),
        "spectral.load_csv.rows": count("spectral.load_csv"),
        "spectral.load_csv.self_ms": ms(self_ns, "spectral.load_csv"),
        "vb.fit.calls": calls.get("vb.fit", 0),
        "vb.fit.self_ms": ms(self_ns, "vb.fit"),
        "vb.fit.iterations": count("vb.fit", 0),
        "vb.fit.constraints": count("vb.fit", 2),
        "vb.fit.converged_ratio": ratio(count("vb.fit", 1), calls.get("vb.fit", 0)),
        "mle.mle_fit.calls": calls.get("mle.mle_fit", 0),
        "mle.mle_fit.self_ms": ms(self_ns, "mle.mle_fit"),
        "mle.mle_fit.iterations": count("mle.mle_fit", 0),
        "mle.mle_fit.converged_ratio": ratio(count("mle.mle_fit", 1),
                                             calls.get("mle.mle_fit", 0)),
        "active.score_pairs.calls": calls.get("active.score_pairs", 0),
        "active.score_pairs.pairs": count("active.score_pairs"),
        "active.score_pairs.self_ms": ms(self_ns, "active.score_pairs"),
        "active.select.calls": calls.get("active.select", 0),
        "active.select.self_ms": ms(self_ns, "active.select"),
        "active.select.picked_ratio": ratio(picked, scored),
        "active.PairPool.builds": sum(1 for s in spans if s[0] == "PairPool.__init__"),
        "active.PairPool.pairs": count("active.PairPool"),
        "active.PairPool.self_ms": ms(self_ns, "active.PairPool"),
        "metric.knn_classify.calls": calls.get("metric.knn_classify", 0),
        "metric.knn_classify.queries": count("metric.knn_classify", 0),
        "metric.knn_classify.train_rows": count("metric.knn_classify", 1),
        "metric.knn_classify.self_ms": ms(self_ns, "metric.knn_classify"),
        "metric.euclidean_knn.calls": calls.get("metric.euclidean_knn", 0),
        "metric.euclidean_knn.self_ms": ms(self_ns, "metric.euclidean_knn"),
    }
    for k in KERNELS:
        fn = f"kernels.{k}"
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_ms"] = ms(self_ns, fn)
        m[f"{fn}.flops"] = count(fn, 0)
        m[f"{fn}.bytes"] = count(fn, 1)
    m["harness.run_active_loop.total_ms"] = ms(total_ns, "harness.run_active_loop")
    m["harness.build_pool.self_ms"] = ms(self_ns, "harness.build_pool")
    m["harness.synth_data.self_ms"] = ms(self_ns, "harness.synth_data")
    m["harness.self_ms"] = ms(self_ns, "harness.run_active_loop")
    m["cli.main.total_ms"] = ms(total_ns, "cli.main")
    m["cli.self_ms"] = ms(self_ns, "cli.main")
    return m


LAYER_METRICS = tuple(layer_metrics({"spans": []}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
