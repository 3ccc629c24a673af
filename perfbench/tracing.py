"""Outside-in tracing for the benchmark's traced run.

Timing wrappers are installed from here, on the module and class
attributes the program's callers actually look up at call time (for
example ``diagram.model.masked_sq_error``, which the training loop calls,
not the ``diagram.nn`` original), and removed again afterwards. Nothing in
``src/`` knows about them. A wrapper only reads the clock and the shapes
of arguments and results, so the traced run draws from no RNG and its
embeddings stay byte-identical to an untraced run.

Each wrapped call is a span. Only per-name totals, self times and call
counts are kept, not the spans themselves: a span's self time is its
duration minus the time covered by its child spans, which needs only the
stack of open spans. A hook whose target a later change renamed or
removed is reported as absent, and its metrics read 0.
"""

from __future__ import annotations

import math
import os
import time
import tracemalloc
import weakref
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("content_head", "directed_head", "enc_trunk.0", "embed",
          "dec_trunk.0", "dec_trunk.1", "content_recon", "directed_recon")
IO_FUNCTIONS = ("save_model", "load_model", "export_embeddings", "import_embeddings")


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {}
    for kind in ("fwd", "bwd"):
        for layer in LAYERS:
            names[f"nn.linear.{kind}_s.{layer}"] = "s"
        names[f"nn.linear.{kind}_calls"] = "count"
    names.update({
        "nn.linear.gflop": "GFLOP",
        "nn.linear.gflops": "GFLOP/s",
        "nn.adam.step_s": "s",
        "nn.adam.calls": "count",
        "nn.adam.ns_per_param": "ns",
        "nn.masked_sq_error_s": "s",
        "nn.masked_sq_error.calls": "count",
        "nn.dropout_mask_s": "s",
        "nn.dropout_mask.calls": "count",
        "model.penalty_weights_s": "s",
        "model.penalty_weights.calls": "count",
        "model.batch_assembly_s": "s",
        "model.batch_assembly.calls": "count",
        "model.batch_assembly.dense_mb": "MB",
        "model.zero_grad_s": "s",
        "model.zero_grad.calls": "count",
        "model.compute_embeddings_s": "s",
        "model.compute_embeddings.calls": "count",
    })
    for kind in ("node", "edge"):
        names[f"model.{kind}_step_ms.p50"] = "ms"
        names[f"model.{kind}_step_ms.tail"] = "ms"
        names[f"model.{kind}_step.count"] = "count"
        names[f"model.train_coverage.{kind}"] = "ratio"
        names[f"model.train_self_s.{kind}"] = "s"
    for fn in IO_FUNCTIONS:
        names[f"model.io_s.{fn}"] = "s"
    names.update({
        "model.io.written_mb": "MB",
        "model.io.read_mb": "MB",
        "data.load_citation_dataset_s": "s",
        "data.parse_s": "s",
        "data.tokens_per_s": "1/s",
        "data.build_undirected_union_s": "s",
        "data.build_undirected_union.calls": "count",
        "data.dataset_fingerprint_s": "s",
        "data.dataset_fingerprint.calls": "count",
        "evaluation.network_reconstruction_s": "s",
        "evaluation.network_reconstruction.peak_alloc_mb": "MB",
        "evaluation.ns_per_pair": "ns",
        "evaluation.sample_link_prediction_s": "s",
        "evaluation.bfs_calls": "count",
        "evaluation.bfs_useful_ratio": "ratio",
        "evaluation.link_prediction_eval_s": "s",
        "evaluation.node_classification_eval_s": "s",
        "evaluation.logistic_regression_fit_s": "s",
        "evaluation.logistic_regression_fit.calls": "count",
        "evaluation.auc_score_s": "s",
        "evaluation.edge_feature_matrix_s": "s",
        "trace.overhead": "ratio",
        "trace.spans": "count",
        "trace.absent_hooks": "count",
    })
    return names


def _tail(samples: list[float]) -> float:
    """The highest whole percentile with at least ten samples beyond it.

    With n samples that is percentile floor(100 (n - 10) / n); with fewer
    than 11 samples there is none, and the result is 0.
    """
    n = len(samples)
    if n < 11:
        return 0.0
    return float(np.percentile(samples, math.floor(100.0 * (n - 10) / n)))


class Tracer:
    """Installs timing wrappers, sums their spans, and reduces the sums to metrics."""

    def __init__(self):
        self._stack: list[list] = []  # [start, child time] of each open span
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.count: dict[str, float] = defaultdict(float)
        self.coverage: dict[str, list[float]] = defaultdict(list)
        self.steps: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self._undo: list[tuple] = []
        self._layer_names: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._train_kind: str | None = None
        self._step_start: float | None = None

    # -- spans -----------------------------------------------------------

    def _enter(self) -> float:
        start = time.perf_counter()
        self._stack.append([start, 0.0])
        return start

    def _exit(self, name: str) -> float:
        end = time.perf_counter()
        start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.total[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if name.startswith("model.train_"):
            self.coverage[name].append(child / duration if duration > 0 else 1.0)
        return end

    # -- installing --------------------------------------------------------

    def _install(self, owner, attr: str, make):
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, after=None):
        """Time ``owner.attr``; ``after(args, kwargs, result)`` adds counts."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                tracer._enter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(name)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper

        self._install(owner, attr, make)

    def install(self, diagram) -> None:
        """Hook every layer boundary of the ``diagram`` package."""
        data, model, nn, evaluation = (diagram.data, diagram.model, diagram.nn,
                                       diagram.evaluation)
        self.wrap(data, "load_citation_dataset", "data.load_citation_dataset")
        self.wrap(data, "_parse_content", "data.parse")
        self.wrap(data, "_parse_cites", "data.parse")
        self.wrap(model, "build_undirected_union", "data.build_undirected_union")
        self.wrap(model, "dataset_fingerprint", "data.dataset_fingerprint")

        self._install_model_hooks(model, nn)
        self._install_linear_hooks(nn)
        self.wrap(model, "masked_sq_error", "nn.masked_sq_error")
        self.wrap(model, "dropout_mask", "nn.dropout_mask")

        for fn in IO_FUNCTIONS:
            self.wrap(model, fn, f"model.io.{fn}", after=self._io_bytes(fn))

        self._install_reconstruction_hook(evaluation)
        self.wrap(evaluation, "sample_link_prediction", "evaluation.sample_link_prediction")
        self.wrap(evaluation, "_bfs_connected", "evaluation.bfs",
                  after=lambda a, k, r: self._add("evaluation.bfs_connected", bool(r)))
        for fn in ("link_prediction_eval", "node_classification_eval",
                   "logistic_regression_fit", "auc_score", "edge_feature_matrix"):
            self.wrap(evaluation, fn, f"evaluation.{fn}")

    def register(self, model) -> None:
        """Name the ``Linear`` layers of a model built before the hooks went in."""
        for name, layer in model.named_layers():
            self._layer_names[layer] = name

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _add(self, key: str, value: float) -> None:
        self.count[key] += value

    def _io_bytes(self, fn: str):
        key = "model.io.read" if fn.startswith(("load", "import")) else "model.io.written"

        def after(args, kwargs, result):
            path = args[1] if fn == "export_embeddings" else args[0]
            self._add(key, os.path.getsize(path))
        return after

    def _install_model_hooks(self, model, nn) -> None:
        tracer = self

        def register_names(original):
            def __init__(self, *args, **kwargs):
                original(self, *args, **kwargs)
                tracer.register(self)
            return __init__

        self._install(model.DiagramModel, "__init__", register_names)

        for kind in ("node", "edge"):
            def make(original, kind=kind):
                def wrapper(*args, **kwargs):
                    tracer._train_kind = kind
                    tracer._enter()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        tracer._exit(f"model.train_{kind}_model")
                        tracer._train_kind = None
                return wrapper
            self._install(model, f"train_{kind}_model", make)

        self.wrap(model, "compute_embeddings", "model.compute_embeddings")
        dense_bytes = lambda a, k, batches: self._add(  # noqa: E731
            "model.batch_assembly.dense_bytes", _batch_bytes(batches))
        self.wrap(model, "_node_batches", "model.batch_assembly", after=dense_bytes)
        self.wrap(model, "_edge_batches", "model.batch_assembly", after=dense_bytes)
        self.wrap(model, "penalty_weights", "model.penalty_weights")

        def zero_grad(original):
            def wrapper(*args, **kwargs):
                tracer._step_start = tracer._enter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit("model.zero_grad")
            return wrapper

        self._install(model.DiagramModel, "zero_grad", zero_grad)

        def adam_step(original):
            def wrapper(self, params, grads):
                tracer._enter()
                try:
                    return original(self, params, grads)
                finally:
                    end = tracer._exit("nn.adam.step")
                    tracer._add("nn.adam.params", sum(p.size for p in params.values()))
                    if tracer._step_start is not None and tracer._train_kind:
                        tracer.steps[tracer._train_kind].append(end - tracer._step_start)
                    tracer._step_start = None
            return wrapper

        self._install(nn.Adam, "step", adam_step)

    def _install_linear_hooks(self, nn) -> None:
        tracer = self
        names = self._layer_names

        def forward(original):
            def wrapper(self, x):
                tracer._enter()
                try:
                    return original(self, x)
                finally:
                    tracer._exit(f"nn.linear.fwd.{names.get(self, 'unnamed')}")
                    tracer._add("nn.linear.flop", 2.0 * len(x) * self.in_dim * self.out_dim)
            return wrapper

        def backward(original):
            def wrapper(self, cache, dout):
                tracer._enter()
                try:
                    return original(self, cache, dout)
                finally:
                    tracer._exit(f"nn.linear.bwd.{names.get(self, 'unnamed')}")
                    tracer._add("nn.linear.flop", 4.0 * len(dout) * self.in_dim * self.out_dim)
            return wrapper

        self._install(nn.Linear, "forward", forward)
        self._install(nn.Linear, "backward", backward)

    def _install_reconstruction_hook(self, evaluation) -> None:
        tracer = self

        def make(original):
            def wrapper(emb, graph, *args, **kwargs):
                tracemalloc.start()
                tracer._enter()
                try:
                    return original(emb, graph, *args, **kwargs)
                finally:
                    tracer._exit("evaluation.network_reconstruction")
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.count["evaluation.recon_peak_bytes"] = max(
                        tracer.count["evaluation.recon_peak_bytes"], peak)
                    tracer._add("evaluation.recon_pairs", emb.n * (emb.n - 1))
            return wrapper

        self._install(evaluation, "network_reconstruction", make)

    # -- reducing ----------------------------------------------------------

    def metrics(self, tokens: int, overhead: float) -> dict[str, float]:
        """Per-layer metrics; ``tokens`` is the number of tokens parsed."""
        t, c, n = self.total, self.calls, self.count
        out: dict[str, float] = {}
        for kind in ("fwd", "bwd"):
            for layer in LAYERS:
                out[f"nn.linear.{kind}_s.{layer}"] = t[f"nn.linear.{kind}.{layer}"]
            out[f"nn.linear.{kind}_calls"] = sum(
                v for k, v in c.items() if k.startswith(f"nn.linear.{kind}."))
        linear_s = sum(v for k, v in t.items() if k.startswith("nn.linear."))
        out["nn.linear.gflop"] = n["nn.linear.flop"] / 1e9
        out["nn.linear.gflops"] = out["nn.linear.gflop"] / linear_s if linear_s else 0.0
        out["nn.adam.step_s"] = t["nn.adam.step"]
        out["nn.adam.calls"] = c["nn.adam.step"]
        params = n["nn.adam.params"]
        out["nn.adam.ns_per_param"] = 1e9 * t["nn.adam.step"] / params if params else 0.0
        for name in ("nn.masked_sq_error", "nn.dropout_mask", "model.penalty_weights",
                     "model.batch_assembly", "model.zero_grad", "model.compute_embeddings",
                     "data.build_undirected_union", "data.dataset_fingerprint",
                     "evaluation.logistic_regression_fit"):
            out[f"{name}_s"] = t[name]
            out[f"{name}.calls"] = c[name]
        out["model.batch_assembly.dense_mb"] = n["model.batch_assembly.dense_bytes"] / 2**20
        for kind in ("node", "edge"):
            steps = [1e3 * s for s in self.steps[kind]]
            tail = _tail(steps)
            out[f"model.{kind}_step_ms.p50"] = float(np.median(steps)) if steps else 0.0
            out[f"model.{kind}_step_ms.tail"] = tail
            out[f"model.{kind}_step.count"] = len(steps)
            span = f"model.train_{kind}_model"
            out[f"model.train_coverage.{kind}"] = min(self.coverage[span], default=0.0)
            out[f"model.train_self_s.{kind}"] = self.self_time[span]
        for fn in IO_FUNCTIONS:
            out[f"model.io_s.{fn}"] = t[f"model.io.{fn}"]
        out["model.io.written_mb"] = n["model.io.written"] / 2**20
        out["model.io.read_mb"] = n["model.io.read"] / 2**20
        out["data.load_citation_dataset_s"] = t["data.load_citation_dataset"]
        out["data.parse_s"] = t["data.parse"]
        out["data.tokens_per_s"] = tokens / t["data.parse"] if t["data.parse"] else 0.0
        recon_s = t["evaluation.network_reconstruction"]
        pairs = n["evaluation.recon_pairs"]
        out["evaluation.network_reconstruction_s"] = recon_s
        out["evaluation.network_reconstruction.peak_alloc_mb"] = (
            n["evaluation.recon_peak_bytes"] / 2**20)
        out["evaluation.ns_per_pair"] = 1e9 * recon_s / pairs if pairs else 0.0
        out["evaluation.sample_link_prediction_s"] = t["evaluation.sample_link_prediction"]
        bfs = c["evaluation.bfs"]
        out["evaluation.bfs_calls"] = bfs
        out["evaluation.bfs_useful_ratio"] = n["evaluation.bfs_connected"] / bfs if bfs else 0.0
        for fn in ("link_prediction_eval", "node_classification_eval", "auc_score",
                   "edge_feature_matrix"):
            out[f"evaluation.{fn}_s"] = t[f"evaluation.{fn}"]
        out["trace.overhead"] = overhead
        out["trace.spans"] = sum(c.values())
        out["trace.absent_hooks"] = len(self.absent)
        return out


def _batch_bytes(batches) -> int:
    """Bytes of the distinct dense arrays a batch-assembly call returned."""
    seen: dict[int, int] = {}
    for batch in batches.values() if isinstance(batches, dict) else ():
        for value in getattr(batch, "__dict__", {}).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    seen[id(arr)] = arr.nbytes
    return sum(seen.values())
