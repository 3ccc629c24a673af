#!/usr/bin/env python3
"""The repository benchmark: three workloads on seeded synthetic citation graphs.

Run from the repository root::

    python3 perfbench/run.py --workload cora-train --seed 1 --seconds 10 --trace 0

A run generates its inputs from ``--seed`` and writes them as
``.content`` / ``.cites`` files, then makes as many passes over the
workload as fit in ``--seconds`` at the pass's nominal length (at least
one), and reports medians over the passes. A pass is a
closed loop with one caller: each call into ``diagram.data``,
``diagram.model`` or ``diagram.evaluation`` starts after the previous one
returns. Every call is one operation; its output is checked outside the
timed region, and it fails if it raises or fails its check.

With ``--trace 0`` the last line of output reports the end-to-end
metrics. With ``--trace 1`` the run makes one pass with timing wrappers
on every layer boundary (see ``tracing.py``), then one untraced pass, and
reports the per-layer metrics. Earlier lines describe the machine, the
realised inputs, the time of every protocol call, and the embedding
digest. README.md says what each workload and metric is for.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before numpy is first imported, to the same
# count for every commit measured on one machine.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402
from scipy.special import expit  # noqa: E402

import gen  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-ups per untraced run. Half of them run before the passes and half
# after, so that the median samples two moments of the run, not one.
SETUP_REPEATS = 20
# Least share of non-reciprocal edges (u, v) that a trained edge model must
# score above their reversal.
DIRECTION_FLOOR = 0.6
LINK_PERCENT = 10.0
TRAIN_RATIOS = (10, 30, 50)


@dataclasses.dataclass(frozen=True)
class TrainWorkload:
    """Load, one node epoch, one transfer edge epoch, then artifact I/O if asked."""

    shape: str
    pass_seconds: float  # nominal length of one pass, on a 2-core Xeon at 2 GHz
    batch_size: int
    dropout: float
    artifact_io: bool
    protocol = ("node_train_s", "edge_train_s")


@dataclasses.dataclass(frozen=True)
class EvalWorkload:
    """Load, embeddings of a seeded model, then the three protocols."""

    shape: str
    pass_seconds: float
    k_list: tuple[int, ...]
    protocol = ("recon_s", "linkpred_s", "classify_s")


WORKLOADS = {
    "cora-train": TrainWorkload("cora", 45.0, batch_size=64, dropout=0.2, artifact_io=True),
    "citeseer-eval": EvalWorkload("citeseer", 12.0, k_list=(2500, 5000, 7500, 10000)),
    "dense-train": TrainWorkload("dense", 25.0, batch_size=256, dropout=0.1,
                                 artifact_io=False),
}

# Every workload reports every end-to-end metric, so they are the ones all
# workloads share: set-up, the time of all timed calls in a pass, the part
# of it spent in the workload's own protocol calls, and peak memory. The
# time of each call group is printed on the "stages" line but not gated,
# because each group exists in only some workloads.
END_TO_END = {"setup_s": "s", "total_s": "s", "protocol_s": "s", "peak_rss_mb": "MB"}


# -- operations and checks ------------------------------------------------------


class CheckFailed(Exception):
    """An operation returned a wrong result."""


class PassAborted(Exception):
    """An operation raised, so the rest of the pass has no input."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Ops:
    """Times operations one after another and counts the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.seconds: dict[str, float] = defaultdict(float)

    def run(self, metric: str, fn, *args, check=None, **kwargs):
        """Time ``fn(*args, **kwargs)`` under ``metric``; check the result untimed."""
        self.attempted += 1
        gc.collect()  # leave no earlier garbage for this call's collector to find
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise PassAborted(metric) from exc
        self.seconds[metric] += time.perf_counter() - start
        if check is not None:
            try:
                check(result)
            except CheckFailed as exc:
                self.failed += 1
                print(f"check failed in {metric}: {exc}", file=sys.stderr)
        return result


def digest(emb) -> str:
    h = hashlib.sha256()
    for mat in (emb.z, emb.o, emb.i):
        h.update(np.ascontiguousarray(mat).tobytes())
    return h.hexdigest()


def same_embeddings(a, b) -> bool:
    return (all(np.array_equal(x, y) for x, y in ((a.z, b.z), (a.o, b.o), (a.i, b.i)))
            and a.node_ids == b.node_ids and a.variant == b.variant
            and a.fingerprint == b.fingerprint)


def check_finite_embeddings(emb) -> None:
    require(all(np.all(np.isfinite(m)) for m in (emb.z, emb.o, emb.i)),
            "non-finite embedding")


def check_trained(result) -> None:
    require(result.loss_trace and np.all(np.isfinite(result.loss_trace)), "non-finite loss")
    check_finite_embeddings(result.embeddings)


def direction_share(emb, edges: np.ndarray) -> float:
    """Share of non-reciprocal edges with sigmoid(o_u.i_v) > sigmoid(o_v.i_u)."""
    pairs = set(map(tuple, edges.tolist()))
    one_way = np.array([(u, v) for u, v in pairs if (v, u) not in pairs and u != v])
    u, v = one_way[:, 0], one_way[:, 1]
    forward = expit(np.einsum("ij,ij->i", emb.o[u], emb.i[v]))
    backward = expit(np.einsum("ij,ij->i", emb.o[v], emb.i[u]))
    return float(np.mean(forward > backward))


def precision_oracle(o: np.ndarray, i: np.ndarray, edges: np.ndarray, k_max: int) -> np.ndarray:
    """Hits among the top ``k_max`` ordered pairs, cumulated, by a second method.

    Instead of sorting every pair, scan 256 source nodes at a time and
    keep a running top ``k_max`` in (score descending, flat index) order;
    the flat index u * n + v is (u, v) order. Later blocks hold larger flat
    indices, so a pair tied with the current k_max-th score cannot enter.
    Memory stays near 256 * n scores, far below the program's peak.
    """
    n, rows = o.shape[0], 256
    best_score, best_key = np.empty(0), np.empty(0, dtype=np.int64)
    for r0 in range(0, n, rows):
        block = expit(o[r0:r0 + rows] @ i.T)
        r = np.arange(block.shape[0])
        block[r, r0 + r] = -np.inf
        flat = block.ravel()
        keep = (np.flatnonzero(flat > best_score[-1]) if best_score.size == k_max
                else np.arange(flat.size))
        if keep.size > k_max:
            kept = flat[keep]
            keep = keep[kept >= np.partition(kept, kept.size - k_max)[kept.size - k_max]]
        score = np.concatenate([best_score, flat[keep]])
        key = np.concatenate([best_key, r0 * n + keep])
        order = np.lexsort((key, -score))[:k_max]
        best_score, best_key = score[order], key[order]
    return np.cumsum(np.isin(best_key, edges[:, 0] * n + edges[:, 1]))


def check_unit_interval(report) -> None:
    for row in report.table:
        for key, value in row.items():
            if key in report.columns[1:]:
                require(0.0 <= value <= 1.0, f"{report.kind} {key}={value} outside [0, 1]")


def weak_components(n: int, edges: np.ndarray) -> int:
    adj = sp.csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    return connected_components(adj, directed=True, connection="weak")[0]


# -- inputs -----------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    seed: int
    ds: gen.Dataset
    content: Path
    cites: Path
    work: Path
    seeded_model: object = None
    planted: object = None
    oracle: np.ndarray | None = None

    @property
    def tokens(self) -> int:
        """Whitespace-separated fields in the two files."""
        n, d = self.ds.features.shape
        return n * (d + 2) + 2 * len(self.ds.edges)


def set_up(workload, seed: int, work: Path, diagram) -> Inputs:
    """Generate and write the inputs, and build what the workload plants."""
    ds = gen.generate(workload.shape, seed)
    content, cites = gen.write(ds, work / workload.shape)
    inputs = Inputs(seed, ds, content, cites, work)
    if isinstance(workload, EvalWorkload):
        inputs.seeded_model = diagram.model.DiagramModel(
            ds.n, ds.features.shape[1], rng=np.random.default_rng(seed))
        z, o, i = gen.plant(ds, seed)
        inputs.planted = diagram.model.EmbeddingSet(z, o, i, list(ds.node_ids), "edge")
    return inputs


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


# -- passes -------------------------------------------------------------------------


def load(ops: Ops, diagram, inp: Inputs):
    ds = inp.ds

    def check(loaded):
        graph, features, labels = loaded
        require(graph.node_ids == ds.node_ids, "node ids differ from the files")
        got = graph.edge_list[np.lexsort(graph.edge_list.T[::-1])]
        want = ds.edges[np.lexsort(ds.edges.T[::-1])]
        require(np.array_equal(got, want), "edges differ from the files")
        names = np.array(labels.class_names)[labels.labels]
        require(np.array_equal(names, np.array(ds.class_names)[ds.labels]), "labels differ")
        require(features.mode == "binary" and (features.values != ds.features).nnz == 0,
                "features differ from the files")

    return ops.run("load_s", diagram.data.load_citation_dataset, inp.content, inp.cites,
                   check=check)


def written(path: Path) -> None:
    """Check a file a timed call wrote, and flush it to disk untimed, so that
    its write-back does not land in the next timed call."""
    require(path.stat().st_size > 0, f"{path.name} is empty")
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())


def artifact_io(ops: Ops, diagram, net, emb, work: Path) -> None:
    model = diagram.model
    ckpt = work / "model.ckpt"
    ops.run("artifact_io_s", model.save_model, ckpt, net,
            {"dataset_fingerprint": emb.fingerprint}, check=lambda _: written(ckpt))

    def check_model(loaded):
        params = loaded[0].parameters()
        require(all(np.array_equal(params[k], v) for k, v in net.parameters().items()),
                "checkpoint does not round-trip")

    ops.run("artifact_io_s", model.load_model, ckpt, check=check_model)
    for fmt in ("text", "binary"):
        path = work / f"embeddings.{fmt}"
        ops.run("artifact_io_s", model.export_embeddings, emb, path, fmt,
                check=lambda _, p=path: written(p))
        ops.run("artifact_io_s", model.import_embeddings, path,
                check=lambda e: require(same_embeddings(e, emb),
                                        f"{fmt} embeddings do not round-trip"))


def train_pass(w: TrainWorkload, ops: Ops, diagram, inp: Inputs, notes: dict):
    model = diagram.model
    graph, features, _ = load(ops, diagram, inp)
    cfg = model.TrainConfig(epochs=1, batch_size=w.batch_size, dropout=w.dropout,
                            seed=inp.seed)
    node = ops.run("node_train_s", model.train_node_model, graph, features, cfg,
                   check=check_trained)

    def check_edge(result):
        check_trained(result)
        share = direction_share(result.embeddings, inp.ds.edges)
        notes["direction_share"] = share
        require(share >= DIRECTION_FLOOR,
                f"only {share:.3f} of one-way edges outrank their reversal")

    edge = ops.run("edge_train_s", model.train_edge_model, graph, features,
                   dataclasses.replace(cfg, transfer_from=node.model), check=check_edge)
    if w.artifact_io:
        artifact_io(ops, diagram, edge.model, edge.embeddings, inp.work)
    return edge.embeddings


def eval_pass(w: EvalWorkload, ops: Ops, diagram, inp: Inputs, notes: dict):
    model, evaluation = diagram.model, diagram.evaluation
    ds, planted = inp.ds, inp.planted
    graph, features, labels = load(ops, diagram, inp)
    emb = ops.run("embed_s", model.compute_embeddings, inp.seeded_model, graph, features,
                  "node", check=check_finite_embeddings)

    def check_recon(report):
        if inp.oracle is None:
            inp.oracle = precision_oracle(planted.o, planted.i, ds.edges, max(w.k_list))
        require([row["K"] for row in report.table] == sorted(w.k_list), "wrong K list")
        for row in report.table:
            want = inp.oracle[row["K"] - 1] / row["K"]
            require(row["precision"] == want,
                    f"P@{row['K']}={row['precision']} but the oracle says {want}")
        notes["precision"] = {row["K"]: row["precision"] for row in report.table}

    ops.run("recon_s", evaluation.network_reconstruction, planted, graph, w.k_list,
            "directed", check=check_recon)

    def check_sample(sample):
        m, n = len(ds.edges), ds.n
        quota = math.ceil(LINK_PERCENT * m / 100.0)
        require(sample.labels.sum() == quota and sample.labels.size == 2 * quota,
                "link sample is not balanced")
        edge_keys = ds.edges[:, 0] * n + ds.edges[:, 1]
        true_keys = sample.true_pairs[:, 0] * n + sample.true_pairs[:, 1]
        false_keys = sample.false_pairs[:, 0] * n + sample.false_pairs[:, 1]
        require(np.all(np.isin(true_keys, edge_keys)), "a true sample is not an edge")
        require(not np.any(np.isin(false_keys, edge_keys)), "a false sample is an edge")
        require(np.unique(false_keys).size == quota, "repeated false samples")
        require(np.all(sample.false_pairs[:, 0] != sample.false_pairs[:, 1]),
                "a false sample is a self-pair")
        residual = sample.residual_graph.edge_list
        require(len(residual) == m - quota, "residual graph has the wrong edge count")
        require(weak_components(n, residual) == weak_components(n, ds.edges),
                "sampling changed the weak components")

    sample = ops.run("linkpred_s", evaluation.sample_link_prediction, graph, LINK_PERCENT,
                     inp.seed, check=check_sample)
    for mode in ("directed", "symmetric"):
        ops.run("linkpred_s", evaluation.link_prediction_eval, planted, sample,
                mode=mode, seed=inp.seed, check=check_unit_interval)

    majority = np.bincount(ds.labels).max() / ds.n

    def check_classify(report):
        check_unit_interval(report)
        for row in report.table:
            require(row["micro_f1_mean"] > majority,
                    f"micro-F1 {row['micro_f1_mean']:.3f} at ratio {row['train_ratio']} "
                    f"is no better than the majority class ({majority:.3f})")

    ops.run("classify_s", evaluation.node_classification_eval, planted, labels,
            TRAIN_RATIOS, seed=inp.seed, check=check_classify)
    return emb


def one_pass(workload, ops: Ops, diagram, inp: Inputs, notes: dict):
    """Run one pass; returns (seconds per metric, embedding digest or None)."""
    ops.seconds = defaultdict(float)
    body = train_pass if isinstance(workload, TrainWorkload) else eval_pass
    try:
        emb = body(workload, ops, diagram, inp, notes)
    except PassAborted:
        return dict(ops.seconds), None
    seconds = dict(ops.seconds)
    seconds["protocol_s"] = sum(seconds[k] for k in workload.protocol)
    seconds["total_s"] = sum(ops.seconds.values())
    return seconds, digest(emb)


# -- the run ------------------------------------------------------------------------


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "cpu": "unknown",
        "cache": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip().lower()
            if kind != "instruction":
                info["cache"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def emit(name: str, payload) -> None:
    print(json.dumps({name: payload}, sort_keys=True), flush=True)


def set_up_repeatedly(workload, seed: int, repeats: int, work: Path, diagram,
                      file_digests: set):
    """Set up ``repeats`` times; returns the last inputs and every set-up time.

    ``file_digests`` collects the digest of every set of files written,
    across calls, and must hold one digest only.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        inp = set_up(workload, seed, work, diagram)
        times.append(time.perf_counter() - start)
        file_digests.add(file_digest(inp.content, inp.cites))
    for path in (inp.content, inp.cites):
        written(path)
    if len(file_digests) != 1:
        raise SystemExit("benchmark: the generator wrote different files for one seed")
    return inp, times


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, diagram) -> dict:
    """Run the workload and return the result object the last line prints."""
    ops = Ops()
    file_digests: set = set()
    inp, setup_times = set_up_repeatedly(workload, seed, 1 if trace else SETUP_REPEATS // 2,
                                         work, diagram, file_digests)
    emit("inputs", gen.stats(inp.ds))
    notes: dict = {}
    passes, digests = [], []
    if trace:
        # The traced pass goes first, like the single cold pass of an
        # untraced run, so the two can be compared directly. The in-run
        # overhead against the warm untraced pass after it is therefore an
        # upper bound.
        tracer = tracing.Tracer()
        tracer.install(diagram)
        if inp.seeded_model is not None:
            tracer.register(inp.seeded_model)
        try:
            traced, traced_digest = one_pass(workload, ops, diagram, inp, notes)
        finally:
            tracer.uninstall()
        untraced, untraced_digest = one_pass(workload, ops, diagram, inp, notes)
        passes, digests = [traced, untraced], [traced_digest, untraced_digest]
        base = untraced.get("protocol_s")
        overhead = traced.get("protocol_s", 0.0) / base - 1.0 if base else 0.0
        if tracer.absent:
            emit("absent_hooks", tracer.absent)
        units = tracing.per_layer_names()
        values = tracer.metrics(inp.tokens, overhead)
    else:
        # The pass count follows from --seconds and the nominal pass length,
        # never from measured speed: otherwise a slow run would measure only
        # the cold first pass and a fast run warm ones as well.
        for _ in range(max(1, math.floor(seconds / workload.pass_seconds))):
            by_metric, pass_digest = one_pass(workload, ops, diagram, inp, notes)
            passes.append(by_metric)
            digests.append(pass_digest)
            if pass_digest is None:
                break
        units = END_TO_END
        values = {name: statistics.median(p[name] for p in passes)
                  for name in ("total_s", "protocol_s") if all(name in p for p in passes)}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _, later = set_up_repeatedly(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2,
                                     work, diagram, file_digests)
        values["setup_s"] = statistics.median(setup_times + later)

    if None not in digests and len(set(digests)) != 1:
        ops.failed += 1
        print(f"embedding digests differ between passes: {digests}", file=sys.stderr)
    emit("stages", {name: {"value": statistics.median(p[name] for p in passes), "unit": "s"}
                    for name in passes[0] if all(name in p for p in passes)})
    emit("passes", passes)
    emit("digest", digests[-1])
    emit("notes", notes)
    return {
        "correct": ops.failed == 0 and None not in digests,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def import_program():
    """The ``diagram`` package of this checkout, and nothing installed elsewhere."""
    src = ROOT / "src"
    if not (src / "diagram" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source under {src}")
    sys.path.insert(0, str(src))
    import diagram
    import diagram.evaluation  # noqa: F401

    if not Path(diagram.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"benchmark: imported diagram from {diagram.__file__}, not {src}")
    return diagram


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    diagram = import_program()
    emit("machine", machine())
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work, diagram)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
