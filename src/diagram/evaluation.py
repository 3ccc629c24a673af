"""Evaluation protocols: network reconstruction, link prediction, classification.

All three protocols consume an :class:`~diagram.model.EmbeddingSet` and a
graph. Directed scoring uses sigmoid(dot(o_u, i_v)); direction-oblivious
scoring uses sigmoid(dot(z_u, z_v)). The binary/multiclass classifiers and
the AUC / F1 metrics are implemented here so results do not depend on an
external ML stack.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import expit

from .data import DirectedGraph, FeatureMatrix
from .exceptions import EvaluationError, SamplingError
from .model import EmbeddingSet, TrainConfig, train_edge_model, train_node_model
from .nn import atomic_write

EDGE_CONSTRUCTORS = ("average", "hadamard", "w-l1", "w-l2")
SCORER_MODES = ("directed", "symmetric")
# Scores per block of source rows in network_reconstruction (8 MB of float64).
RECON_BLOCK_SCORES = 1 << 20
# The classifiers' ridge weight, Newton step cap and gradient-norm stop.
L2 = 1.0
MAX_ITER = 200
TOL = 1e-6
# Cross-validation folds in link_prediction_eval.
N_FOLDS = 3


# -- network reconstruction ---------------------------------------------------


def network_reconstruction(emb: EmbeddingSet, graph: DirectedGraph, k_list,
                           mode: str = "directed") -> "EvalReport":
    """Precision-at-K over all ordered node pairs (u, v), u != v.

    Pairs are ranked by proximity descending with lexicographic (u, v)
    tie-breaking, and P@K counts how many of the top K are ground-truth
    directed edges. Self-pairs are never candidates.
    """
    if mode not in SCORER_MODES:
        raise ValueError(f"scorer mode must be one of {SCORER_MODES}")
    n = emb.n
    if graph.node_count != n:
        raise EvaluationError("embedding and graph disagree on node count")
    k_list = [int(k) for k in k_list]
    if not k_list:
        raise EvaluationError("K list is empty")
    max_pairs = n * n - n
    for k in k_list:
        if k <= 0:
            raise EvaluationError(f"K must be positive, got {k}")
        if k > max_pairs:
            raise EvaluationError(f"K={k} exceeds candidate pair count {max_pairs}")

    a, b = (emb.o, emb.i) if mode == "directed" else (emb.z, emb.z)
    k_max = max(k_list)
    # Score a block of source rows at a time and keep a running top K, so
    # memory is O(RECON_BLOCK_SCORES + n + K), not n^2.
    rows = max(1, RECON_BLOCK_SCORES // n)
    best, top = np.empty(0), np.empty(0, dtype=np.int64)  # (-score, u*n+v) order
    for r0 in range(0, n, rows):
        # Rank on expit, not on the dots: it rounds to exactly 1.0 above
        # dot≈37, and those saturated ties must resolve by (u, v) like any
        # other tie.
        neg = a[r0:r0 + rows] @ b.T
        expit(neg, out=neg)
        np.negative(neg, out=neg)
        r = np.arange(neg.shape[0])
        neg[r, r0 + r] = np.nan  # self-pairs are never candidates, like NaN scores
        neg = neg.ravel()
        if best.size == k_max:
            # This block's flat indices all follow the kept ones, so a pair
            # tied with the K-th kept score loses the (u, v) tie-break.
            neg[neg >= best[-1]] = np.nan
        j = min(k_max, neg.size) - 1
        kth = np.partition(neg, j)[j]  # NaNs sort last
        cand = np.flatnonzero(~np.isnan(neg) if np.isnan(kth) else neg <= kth)
        score = np.concatenate([best, neg[cand]])
        key = np.concatenate([top, r0 * n + cand])
        order = np.lexsort((key, score))[:k_max]
        best, top = score[order], key[order]
    if best.size < k_max:  # K reached past the real scores: only NaNs stop short
        raise EvaluationError(f"K={k_max} reaches pairs whose score is NaN")
    hits = np.cumsum(graph.out_adjacency[np.divmod(top, n)].A1 != 0)
    table = [{"K": k, "precision": float(hits[k - 1] / k)} for k in sorted(k_list)]
    report = EvalReport(
        kind="network_reconstruction",
        columns=["K", "precision"],
        table=table,
        details={"mode": mode, "edge_count": int(graph.edge_count)},
        config={"k_list": sorted(k_list), "mode": mode,
                "variant": emb.variant},
        fingerprint=emb.fingerprint,
    )
    report.validate()
    return report


# -- link-prediction sampling -------------------------------------------------


@dataclass
class LinkSample:
    """Balanced true/false ordered pairs plus the residual training graph."""

    pairs: np.ndarray  # (2q, 2) true samples first
    labels: np.ndarray  # (2q,) 1 then 0
    residual_graph: DirectedGraph
    seed: int
    percent: float

    @property
    def true_pairs(self) -> np.ndarray:
        q = int(self.labels.sum())
        return self.pairs[:q]

    @property
    def false_pairs(self) -> np.ndarray:
        q = int(self.labels.sum())
        return self.pairs[q:]


def _bfs_connected(adj, src, dst) -> bool:
    if src == dst:
        return True
    seen = {src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in adj[cur]:
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def sample_link_prediction(graph: DirectedGraph, percent: float, seed: int) -> LinkSample:
    """Remove ceil(percent * m / 100) edges without breaking weak connectivity.

    Candidate edges are visited in a seeded shuffled order; an edge is
    removed only if its endpoints stay weakly connected in the residual
    (so the weak-component structure of the graph is preserved exactly).
    Equally many uniform ordered non-edges are drawn as false samples.
    """
    m = graph.edge_count
    n = graph.node_count
    if not math.isfinite(percent):
        raise SamplingError(f"percent={percent} is not a finite number")
    quota = math.ceil(percent * m / 100.0)
    if quota <= 0:
        raise SamplingError(f"percent={percent} requests zero edges from m={m}")
    if n * n - n - m < quota:
        raise SamplingError("not enough non-edges for balanced false samples")

    edges = graph.edge_list
    adj: list[set] = [set() for _ in range(n)]
    pair_count: dict[tuple[int, int], int] = {}
    for u, v in edges:
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        c = pair_count.get(key, 0)
        if c == 0:
            adj[u].add(v)
            adj[v].add(u)
        pair_count[key] = c + 1

    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    removed: list[int] = []
    for ei in order:
        if len(removed) == quota:
            break
        u, v = int(edges[ei, 0]), int(edges[ei, 1])
        if u == v:
            removed.append(ei)  # self-loop removal cannot disconnect anything
            continue
        key = (u, v) if u < v else (v, u)
        if pair_count[key] == 2:
            pair_count[key] = 1  # reciprocal partner keeps the pair connected
            removed.append(ei)
            continue
        adj[u].discard(v)
        adj[v].discard(u)
        if _bfs_connected(adj, u, v):
            pair_count[key] = 0
            removed.append(ei)
        else:
            adj[u].add(v)
            adj[v].add(u)
    if len(removed) < quota:
        raise SamplingError(
            f"requested {quota} removable edges but only achieved {len(removed)}"
        )

    existing = {(int(u), int(v)) for u, v in edges}
    false_pairs: list[tuple[int, int]] = []
    chosen: set[tuple[int, int]] = set()
    while len(false_pairs) < quota:
        draw = rng.integers(0, n, size=(max(4 * (quota - len(false_pairs)), 16), 2))
        for u, v in draw:
            u, v = int(u), int(v)
            if u == v or (u, v) in existing or (u, v) in chosen:
                continue
            chosen.add((u, v))
            false_pairs.append((u, v))
            if len(false_pairs) == quota:
                break

    removed_set = set(int(i) for i in removed)
    kept = np.array([i for i in range(m) if i not in removed_set], dtype=np.int64)
    meta = dict(graph.metadata)
    meta.update({"link_prediction_removed": quota, "link_prediction_seed": int(seed),
                 "link_prediction_percent": float(percent)})
    residual = DirectedGraph(graph.node_ids, edges[kept], meta)

    true_pairs = edges[np.array(sorted(removed_set), dtype=np.int64)]
    pairs = np.vstack([true_pairs, np.array(false_pairs, dtype=np.int64)])
    labels = np.concatenate([np.ones(quota, dtype=np.int64),
                             np.zeros(quota, dtype=np.int64)])
    return LinkSample(pairs, labels, residual, int(seed), float(percent))


# -- edge features ------------------------------------------------------------


def _endpoint_vectors(emb: EmbeddingSet, pairs: np.ndarray, mode: str):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if mode == "directed":
        return emb.o[pairs[:, 0]], emb.i[pairs[:, 1]]
    if mode == "symmetric":
        return emb.z[pairs[:, 0]], emb.z[pairs[:, 1]]
    raise ValueError(f"scorer mode must be one of {SCORER_MODES}")


def edge_feature_matrix(emb: EmbeddingSet, pairs, constructor: str,
                        mode: str = "directed") -> np.ndarray:
    """Stack per-pair edge features; rows follow ``pairs`` order."""
    a, b = _endpoint_vectors(emb, pairs, mode)
    c = constructor.lower()
    if c == "average":
        return (a + b) / 2.0
    if c == "hadamard":
        return a * b
    if c == "w-l1":
        return np.abs(a - b)
    if c == "w-l2":
        return (a - b) ** 2
    raise ValueError(f"unknown edge-feature constructor {constructor!r}")


# -- built-in classifier and metrics ------------------------------------------


def logistic_regression_fit(X, y) -> np.ndarray:
    """L2-regularized logistic regression via damped Newton iterations.

    Returns weights of length d+1 with the (unpenalized) intercept first.
    The ridge weight is ``L2``. Deterministic: full-batch updates from a
    zero start, at most ``MAX_ITER`` of them, stopping when the gradient
    norm drops below ``TOL``. A 2-D ``y`` of shape (n, k) fits k
    independent models to its columns and returns them as a (k, d+1) array;
    they share the design matrix, its checks and the first Newton Hessian,
    which does not depend on ``y``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    targets = np.ascontiguousarray(y.T) if y.ndim == 2 else y.reshape(1, -1)
    if X.ndim != 2 or targets.shape[1] != X.shape[0]:
        raise ValueError(f"bad shapes X{X.shape}, y{y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in classifier input")
    nb = np.hstack([np.ones((X.shape[0], 1)), X])
    pen = np.ones(nb.shape[1])
    pen[0] = 0.0
    ridge = L2 * pen
    diag = np.diag_indices(nb.shape[1])

    def objective(s, yt, wv):
        return float(np.sum(np.logaddexp(0.0, s) - yt * s) + 0.5 * L2 * np.sum(pen * wv * wv))

    def hessian(prob):
        r = prob * (1.0 - prob)
        h = (nb * r[:, None]).T @ nb
        h[diag] += ridge + 1e-10
        return h

    h0 = hessian(expit(np.zeros(nb.shape[0])))  # every start has prob 0.5
    weights = np.empty((targets.shape[0], nb.shape[1]))
    for t, yt in enumerate(targets):
        w = np.zeros(nb.shape[1])
        s = nb @ w
        obj = objective(s, yt, w)
        for it in range(MAX_ITER):
            prob = expit(s)
            g = nb.T @ (prob - yt) + ridge * w
            if np.linalg.norm(g) < TOL:
                break
            h = h0 if it == 0 else hessian(prob)
            # numpy.linalg, not scipy.linalg: scipy links its own OpenBLAS,
            # whose thread pool contends with numpy's right after the GEMM
            # above (on 2 cores, cho_solve took 2.9 ms here, solve 0.4 ms).
            try:
                step = np.linalg.solve(h, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(h, g, rcond=None)[0]
            # Backtrack if the full Newton step overshoots (near-separable data).
            for _ in range(30):
                cand = w - step
                cand_s = nb @ cand
                cand_obj = objective(cand_s, yt, cand)
                if cand_obj <= obj + 1e-12:
                    w, s, obj = cand, cand_s, cand_obj
                    break
                step = step / 2.0
            else:
                break
        weights[t] = w
    return weights if y.ndim == 2 else weights[0]


def logistic_predict_proba(weights: np.ndarray, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return expit(weights[0] + X @ weights[1:])


def auc_score(labels, scores) -> float:
    """Mann-Whitney AUC with half credit for tied scores."""
    labels = np.asarray(labels).astype(np.int64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if labels.size == 0 or labels.size != scores.size:
        raise EvaluationError("AUC needs matching nonempty labels and scores")
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        raise EvaluationError("AUC undefined with a single class")
    # Tied scores share the mean of their 1-based positions in sorted order.
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def _class_counts(true, pred, n_classes: int):
    """Per-class (tp, fp, fn) counts for classes 0 .. n_classes-1."""
    true = np.asarray(true).astype(np.int64).ravel()
    pred = np.asarray(pred).astype(np.int64).ravel()
    if np.any(true < 0) or np.any(pred < 0):
        raise EvaluationError("class labels must be nonnegative")
    tp = np.bincount(true[true == pred], minlength=n_classes)[:n_classes]
    fp = np.bincount(pred, minlength=n_classes)[:n_classes] - tp
    fn = np.bincount(true, minlength=n_classes)[:n_classes] - tp
    return tp, fp, fn


def _f1(tp, fp, fn) -> np.ndarray:
    """2tp / (2tp + fp + fn), and 0 where that denominator is 0."""
    denom = 2 * tp + fp + fn
    return np.divide(2.0 * tp, denom, out=np.zeros(np.shape(denom)), where=denom != 0)


def binary_f1(labels, preds) -> float:
    """F1 of the positive class; 0 when precision+recall degenerate."""
    return float(_f1(*_class_counts(labels, preds, 2))[1])


def micro_macro_f1(true, pred, n_classes: int) -> tuple[float, float]:
    """Micro-F1 from pooled counts; macro-F1 as the unweighted class mean.

    A class with neither true nor predicted samples contributes F1 = 0.
    """
    if np.size(true) == 0 or np.size(true) != np.size(pred):
        raise EvaluationError("micro/macro F1 needs matching nonempty arrays")
    tp, fp, fn = _class_counts(true, pred, n_classes)
    micro = float(_f1(tp.sum(), fp.sum(), fn.sum()))
    macro = float(_f1(tp, fp, fn).mean()) if n_classes else 0.0
    return micro, macro


# -- cross-validation helpers --------------------------------------------------


def stratified_fold_indices(y, n_folds: int, rng: np.random.Generator):
    """Deal each class's shuffled indices round-robin into ``n_folds`` test sets."""
    y = np.asarray(y).astype(np.int64).ravel()
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        idx = rng.permutation(idx)
        for pos, i in enumerate(idx):
            folds[pos % n_folds].append(int(i))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def stratified_split(y, train_fraction: float, rng: np.random.Generator):
    """Per-class random split with at least one training sample per class."""
    y = np.asarray(y).astype(np.int64).ravel()
    train: list[int] = []
    test: list[int] = []
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        n_train = max(1, int(round(train_fraction * idx.size)))
        n_train = min(n_train, idx.size)
        train.extend(int(i) for i in idx[:n_train])
        test.extend(int(i) for i in idx[n_train:])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)


# -- protocol: link prediction --------------------------------------------------


def link_prediction_eval(emb: EmbeddingSet, sample: LinkSample,
                         constructors=EDGE_CONSTRUCTORS, mode: str = "directed",
                         seed: int = 0) -> "EvalReport":
    """Stratified ``N_FOLDS``-fold CV of a binary classifier on edge features.

    Reports the mean and standard deviation over folds of both AUC and the
    positive-class F1, per feature constructor.
    """
    y = sample.labels
    if int(y.sum()) * 2 != y.size:
        raise EvaluationError("link sample must be balanced")
    folds = stratified_fold_indices(y, N_FOLDS, np.random.default_rng(seed))
    all_idx = np.arange(y.size)
    groups = []
    for ctor in constructors:
        feats = edge_feature_matrix(emb, sample.pairs, ctor, mode)
        aucs, f1s = [], []
        for test_idx in folds:
            train_mask = np.ones(y.size, dtype=bool)
            train_mask[test_idx] = False
            train_idx = all_idx[train_mask]
            if len(np.unique(y[train_idx])) < 2 or len(np.unique(y[test_idx])) < 2:
                raise EvaluationError("degenerate single-class fold")
            w = logistic_regression_fit(feats[train_idx], y[train_idx])
            proba = logistic_predict_proba(w, feats[test_idx])
            aucs.append(auc_score(y[test_idx], proba))
            f1s.append(binary_f1(y[test_idx], (proba >= 0.5).astype(int)))
        groups.append((ctor, ctor, {"auc": aucs, "f1": f1s}))
    return _summary_report(
        "link_prediction", "constructor", ("auc", "f1"), groups, emb,
        {"mode": mode, "seed": seed, "n_folds": N_FOLDS, "l2": L2,
         "percent": sample.percent, "sample_seed": sample.seed})


def run_link_prediction_protocol(graph: DirectedGraph, features: FeatureMatrix,
                                 percent: float, seed: int, variant: str = "edge",
                                 cfg: TrainConfig | None = None,
                                 constructors=EDGE_CONSTRUCTORS,
                                 modes=("directed",)):
    """Full protocol: sample edges, train on the residual graph, evaluate.

    Returns (reports keyed by scorer mode, sample, train result).
    """
    unknown = [c for c in constructors if c.lower() not in EDGE_CONSTRUCTORS]
    if unknown:
        raise EvaluationError(f"unknown edge-feature constructor(s) {', '.join(unknown)} "
                              f"(accepted: {' '.join(EDGE_CONSTRUCTORS)})")
    sample = sample_link_prediction(graph, percent, seed)
    cfg = cfg or TrainConfig(seed=seed)
    if variant == "node":
        result = train_node_model(sample.residual_graph, features, cfg)
    elif variant == "edge":
        # from a node model fitted on the residual graph, never one that saw the removed edges
        result = train_edge_model(sample.residual_graph, features,
                                  replace(cfg, transfer_from=None))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    reports = {
        mode: link_prediction_eval(result.embeddings, sample, constructors,
                                   mode=mode, seed=seed)
        for mode in modes
    }
    for report in reports.values():
        report.config["train"] = dict(result.config)
    return reports, sample, result


# -- protocol: node classification ----------------------------------------------


def _ovr_predict(X_train, y_train, X_test, classes):
    one_hot = (y_train[:, None] == classes).astype(np.float64)
    weights = logistic_regression_fit(X_train, one_hot)
    scores = np.empty((X_test.shape[0], len(classes)))
    for ci, w in enumerate(weights):
        scores[:, ci] = logistic_predict_proba(w, X_test)
    return classes[np.argmax(scores, axis=1)]


def node_classification_eval(emb: EmbeddingSet, labels, train_ratios=(10, 30, 50),
                             repetitions: int = 10, features: str = "z",
                             seed: int = 0) -> "EvalReport":
    """One-vs-rest logistic regression over repeated stratified holdouts.

    ``train_ratios`` are percentages of each class's nodes to train on,
    at least one node per class; each ratio gets ``repetitions`` seeded
    splits and the report carries the mean and std of micro- and macro-F1.
    """
    y = labels.labels if hasattr(labels, "labels") else np.asarray(labels, dtype=np.int64)
    if y.size != emb.n:
        raise EvaluationError("labels must cover every embedded node")
    if features == "z":
        X = emb.z
    elif features == "zoi":
        X = np.hstack([emb.z, emb.o, emb.i])
    else:
        raise ValueError(f"unknown feature selection {features!r}")
    if repetitions < 1:
        raise EvaluationError(f"repetitions must be >= 1, got {repetitions}")
    classes = np.unique(y)
    rng = np.random.default_rng(seed)
    groups = []
    for ratio in train_ratios:
        if not 0 < ratio < 100:
            raise EvaluationError(f"train ratio {ratio} is not a percentage in (0, 100)")
        micros, macros = [], []
        for _ in range(repetitions):
            train_idx, test_idx = stratified_split(y, float(ratio) / 100.0, rng)
            if test_idx.size == 0:
                raise EvaluationError(f"train ratio {ratio} leaves no test data")
            pred = _ovr_predict(X[train_idx], y[train_idx], X[test_idx], classes)
            micro, macro = micro_macro_f1(y[test_idx], pred, int(classes.max()) + 1)
            micros.append(micro)
            macros.append(macro)
        groups.append((str(ratio), float(ratio), {"micro_f1": micros, "macro_f1": macros}))
    return _summary_report(
        "node_classification", "train_ratio", ("micro_f1", "macro_f1"), groups, emb,
        {"features": features, "repetitions": repetitions, "seed": seed, "l2": L2})


# -- report container ------------------------------------------------------------


def _summary_report(kind: str, label_column: str, metrics, groups, emb: EmbeddingSet,
                    config: dict) -> "EvalReport":
    """Validated report of (details key, row label, {metric: per-split values}) groups.

    A group's row holds its label and each metric's ``_mean`` and ``_std``.
    """
    columns = [label_column] + [f"{m}_{s}" for m in metrics for s in ("mean", "std")]
    table, details = [], {}
    for key, label, values in groups:
        if key in details:
            raise EvaluationError(f"two {label_column} groups share the details key {key!r}")
        details[key] = values
        row = {label_column: label}
        for m in metrics:
            row[f"{m}_mean"] = float(np.mean(values[m]))
            row[f"{m}_std"] = float(np.std(values[m]))
        table.append(row)
    report = EvalReport(kind=kind, columns=columns, table=table, details=details,
                        config={**config, "variant": emb.variant},
                        fingerprint=emb.fingerprint)
    report.validate()
    return report


@dataclass
class EvalReport:
    """Structured metric results with JSON and CSV writers."""

    kind: str
    columns: list[str]
    table: list[dict]
    details: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    fingerprint: str = ""

    def validate(self) -> None:
        for row in self.table:
            for key, val in row.items():
                if isinstance(val, float) and ("precision" in key or "auc" in key
                                               or "f1" in key):
                    if not (-1e-12 <= val <= 1.0 + 1e-12):
                        raise EvaluationError(f"metric {key}={val} outside [0, 1]")

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path) -> None:
        write_json(path, self.as_dict())

    def to_csv(self, path) -> None:
        write_csv(path, self.columns, ([row[c] for c in self.columns] for row in self.table))

    def to_plot_csv(self, path) -> None:
        """Plot-ready (label, mean, std) rows of the AUC."""
        label_col = self.columns[0]
        write_csv(path, [label_col, "mean", "std"],
                  ([row[label_col], row.get("auc_mean", ""), row.get("auc_std", "")]
                   for row in self.table))


def write_json(path, payload: dict) -> None:
    """Atomically write ``payload`` as indented JSON with sorted keys."""
    atomic_write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def write_csv(path, header, rows) -> None:
    """Atomically write ``header`` and ``rows`` as CSV lines ending in a bare newline."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    atomic_write(path, buf.getvalue().encode("utf-8"))
