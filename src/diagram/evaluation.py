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
from dataclasses import asdict, dataclass, field, replace

import numpy as np
from scipy.special import expit

from .data import DirectedGraph, FeatureMatrix
from .exceptions import EvaluationError, SamplingError
from .model import (VARIANTS, EmbeddingSet, TrainConfig, _integer, _real, train_edge_model,
                    train_node_model)
from .nn import atomic_write

# Each evaluation choice by name; a and b are the pairs' source and target rows.
EDGE_CONSTRUCTORS = {
    "average": lambda a, b: (a + b) / 2.0,
    "hadamard": lambda a, b: a * b,
    "w-l1": lambda a, b: np.abs(a - b),
    "w-l2": lambda a, b: (a - b) ** 2,
}
SCORER_MODES = {"directed": ("o", "i"), "symmetric": ("z", "z")}
CLASSIFIER_FEATURES = {"z": ("z",), "zoi": ("z", "o", "i")}
# Scores per block of source rows in network_reconstruction (8 MB of float64).
RECON_BLOCK_SCORES = 1 << 20
# The classifiers' ridge weight, Newton step cap and gradient-norm stop.
L2 = 1.0
MAX_ITER = 200
TOL = 1e-6
# Cross-validation folds in link_prediction_eval.
N_FOLDS = 3


def _choice(table, what: str, name):
    """``table[name]``, refusing a name that is not one of its keys before any work."""
    if not (isinstance(name, str) and name in table):
        raise EvaluationError(f"unknown {what} {name!r} (accepted: {' '.join(table)})")
    return table[name]


def _choices(table, what: str, label_column: str, names) -> list:
    """``names`` as a list, refusing an unknown or repeated name before any work."""
    names = list(names)
    for name in names:
        _choice(table, what, name)
    _reject_repeats(label_column, names)
    return names


# -- network reconstruction ---------------------------------------------------


def network_reconstruction(emb: EmbeddingSet, graph: DirectedGraph, k_list,
                           mode: str = "directed") -> "EvalReport":
    """Precision-at-K over all ordered node pairs (u, v), u != v.

    Pairs are ranked by proximity descending with lexicographic (u, v)
    tie-breaking, and P@K counts how many of the top K are ground-truth
    directed edges. Self-pairs are never candidates.
    """
    a, b = (getattr(emb, name) for name in _choice(SCORER_MODES, "scorer mode", mode))
    n = emb.n
    if graph.node_count != n:
        raise EvaluationError("embedding and graph disagree on node count")
    k_list = [_integer("K", k, 1, EvaluationError) for k in k_list]
    if not k_list:
        raise EvaluationError("K list is empty")
    max_pairs = n * n - n
    for j, k in enumerate(k_list):
        if k in k_list[:j]:
            raise EvaluationError(f"K={k} appears twice in the K list")
        if k > max_pairs:
            raise EvaluationError(f"K={k} exceeds candidate pair count {max_pairs}")

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
    """Whether ``src`` and ``dst`` are connected in the adjacency ``adj``.

    ``adj[u]`` iterates u's neighbours, whether it is a set or a dict.
    Searches from both ends, a level at a time, growing the smaller
    frontier: True once the two searches meet, False once either runs out,
    since that side has then seen its whole component.
    """
    if src == dst:
        return True
    near, far = {src}, {dst}  # seen from each end
    front, other = [src], [dst]
    while front and other:
        if len(front) > len(other):
            near, far, front, other = far, near, other, front
        grown = []
        for cur in front:
            for nxt in adj[cur]:
                if nxt in far:
                    return True
                if nxt not in near:
                    near.add(nxt)
                    grown.append(nxt)
        front = grown
    return False


def _link(adj: list[dict], u: int, v: int, step: int) -> None:
    """Add (``step`` 1) or take away (-1) one edge between u and v in a counted adjacency.

    ``adj[u][v]`` counts the edges joining u and v in either direction, a
    self-loop twice; a link goes once its count reaches 0.
    """
    for a, b in ((u, v), (v, u)):
        count = adj[a].get(b, 0) + step
        if count:
            adj[a][b] = count
        else:
            del adj[a][b]


def sample_link_prediction(graph: DirectedGraph, percent: float, seed: int) -> LinkSample:
    """Remove ceil(percent * m / 100) edges without breaking weak connectivity.

    Candidate edges are visited in a seeded shuffled order; an edge is
    removed only if its endpoints stay weakly connected in the residual
    (so the weak-component structure of the graph is preserved exactly).
    A self-loop, and an edge whose reverse is still there, always pass.
    Equally many distinct uniform ordered non-edges are drawn as false samples.
    """
    m = graph.edge_count
    n = graph.node_count
    seed = _integer("seed", seed, 0, SamplingError)
    if not (_real(percent) and math.isfinite(percent)):
        raise SamplingError(f"percent={percent!r} is not a finite number")
    if not 0.0 < percent <= 100.0:
        raise SamplingError(f"percent={percent} is not in (0, 100]")
    quota = math.ceil(percent * m / 100.0)
    if quota <= 0:
        raise SamplingError(f"percent={percent} requests zero edges from m={m}")
    edges = graph.edge_list
    # self-loops are not among the n*n - n candidate pairs
    if n * n - n - np.count_nonzero(edges[:, 0] != edges[:, 1]) < quota:
        raise SamplingError("not enough non-edges for balanced false samples")

    adj: list[dict] = [{} for _ in range(n)]
    for u, v in edges:
        _link(adj, int(u), int(v), 1)
    rng = np.random.default_rng(seed)
    removed = np.zeros(m, dtype=bool)
    taken = 0
    for ei in rng.permutation(m):
        if taken == quota:
            break
        u, v = edges[ei].tolist()
        _link(adj, u, v, -1)
        if _bfs_connected(adj, u, v):
            removed[ei] = True
            taken += 1
        else:
            _link(adj, u, v, 1)
    if taken < quota:
        raise SamplingError(f"requested {quota} removable edges but only achieved {taken}")

    seen = set(map(int, edges[:, 0] * n + edges[:, 1]))  # edges, then the pairs drawn
    drawn: list[int] = []
    while len(drawn) < quota:
        draw = rng.integers(0, n, size=(max(4 * (quota - len(drawn)), 16), 2))
        draw = draw[draw[:, 0] != draw[:, 1]]
        for key in (draw[:, 0] * n + draw[:, 1]).tolist():
            if key not in seen:
                seen.add(key)
                drawn.append(key)
                if len(drawn) == quota:
                    break

    residual = DirectedGraph(graph.node_ids, edges[~removed], graph.metadata)
    false_pairs = np.column_stack(np.divmod(np.array(drawn, dtype=np.int64), n))
    pairs = np.vstack([edges[removed], false_pairs])
    labels = np.repeat(np.array([1, 0], dtype=np.int64), quota)
    return LinkSample(pairs, labels, residual, seed, float(percent))


# -- edge features ------------------------------------------------------------


def edge_feature_matrix(emb: EmbeddingSet, pairs, constructor: str,
                        mode: str = "directed") -> np.ndarray:
    """Stack per-pair edge features; rows follow ``pairs`` order."""
    src, dst = _choice(SCORER_MODES, "scorer mode", mode)
    build = _choice(EDGE_CONSTRUCTORS, "edge-feature constructor", constructor)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return build(getattr(emb, src)[pairs[:, 0]], getattr(emb, dst)[pairs[:, 1]])


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

    nbT = np.ascontiguousarray(nb.T)
    scaled = np.empty_like(nbT)

    def hessian(prob):
        # (nb * r).T @ nb as S @ S.T with S = nb.T * sqrt(r): numpy hands a
        # product of an array with its own transpose to BLAS syrk, which
        # computes one triangle, half the flops of the general product.
        np.multiply(nbT, np.sqrt(prob * (1.0 - prob)), out=scaled)
        h = scaled @ scaled.T
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
    fold = np.empty(y.size, dtype=np.int64)
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        fold[idx] = np.arange(idx.size) % n_folds
    return [np.flatnonzero(fold == f) for f in range(n_folds)]


def _train_count(train_fraction: float, class_size: int) -> int:
    """A class's training nodes in :func:`stratified_split`: at least one, at most all."""
    return min(max(1, int(round(train_fraction * class_size))), class_size)


def stratified_split(y, train_fraction: float, rng: np.random.Generator):
    """Per-class random split with at least one training sample per class."""
    y = np.asarray(y).astype(np.int64).ravel()
    train = np.zeros(y.size, dtype=bool)
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        train[idx[:_train_count(train_fraction, idx.size)]] = True
    return np.flatnonzero(train), np.flatnonzero(~train)


# -- protocol: link prediction --------------------------------------------------


def _fold_splits(y, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(train, test) indices of ``N_FOLDS`` stratified folds; a single-class side is refused."""
    splits = []
    for test_idx in stratified_fold_indices(y, N_FOLDS, np.random.default_rng(seed)):
        train = np.ones(y.size, dtype=bool)
        train[test_idx] = False
        train_idx = np.flatnonzero(train)
        if len(np.unique(y[train_idx])) < 2 or len(np.unique(y[test_idx])) < 2:
            raise EvaluationError("degenerate single-class fold")
        splits.append((train_idx, test_idx))
    return splits


def link_prediction_eval(emb: EmbeddingSet, sample: LinkSample,
                         constructors=EDGE_CONSTRUCTORS, mode: str = "directed",
                         seed: int = 0) -> "EvalReport":
    """Stratified ``N_FOLDS``-fold CV of a binary classifier on edge features.

    Reports the mean and standard deviation over folds of both AUC and the
    positive-class F1, per feature constructor, keyed by its name; a name
    that is not an ``EDGE_CONSTRUCTORS`` key, case included, is refused.
    """
    if sample.residual_graph.node_count != emb.n:
        raise EvaluationError("embedding and link sample disagree on node count")
    seed = _integer("seed", seed, 0, EvaluationError)
    y = sample.labels
    if int(y.sum()) * 2 != y.size:
        raise EvaluationError("link sample must be balanced")
    ctors = _choices(EDGE_CONSTRUCTORS, "edge-feature constructor", "constructor", constructors)
    splits = _fold_splits(y, seed)
    groups = []
    for ctor in ctors:
        feats = edge_feature_matrix(emb, sample.pairs, ctor, mode)
        aucs, f1s = [], []
        for train_idx, test_idx in splits:
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
    _choices(SCORER_MODES, "scorer mode", "mode", modes)
    _choices(EDGE_CONSTRUCTORS, "edge-feature constructor", "constructor", constructors)
    _choice(dict.fromkeys(VARIANTS), "variant", variant)
    sample = sample_link_prediction(graph, percent, seed)
    _fold_splits(sample.labels, seed)  # refuse a degenerate fold before training
    # from a model fitted on the residual graph, never one that saw the removed edges
    cfg = replace(cfg or TrainConfig(seed=seed), transfer_from=None)
    train = train_node_model if variant == "node" else train_edge_model
    result = train(sample.residual_graph, features, cfg)
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
    Macro-F1 averages over the label values present in ``labels``.
    """
    y = labels.labels if hasattr(labels, "labels") else np.asarray(labels, dtype=np.int64)
    if y.size != emb.n:
        raise EvaluationError("labels must cover every embedded node")
    X = np.hstack([getattr(emb, name)
                   for name in _choice(CLASSIFIER_FEATURES, "classifier features", features)])
    repetitions = _integer("repetitions", repetitions, 1, EvaluationError)
    seed = _integer("seed", seed, 0, EvaluationError)
    _reject_repeats("train_ratio", [str(ratio) for ratio in train_ratios])
    _, y, sizes = np.unique(y, return_inverse=True, return_counts=True)  # y as 0..k-1
    for ratio in train_ratios:
        if not (_real(ratio) and 0 < ratio < 100):
            raise EvaluationError(f"train ratio {ratio!r} is not a percentage in (0, 100)")
        if all(_train_count(float(ratio) / 100.0, size) == size for size in sizes):
            raise EvaluationError(f"train ratio {ratio} leaves no test data")
    rng = np.random.default_rng(seed)
    groups = []
    for ratio in train_ratios:
        micros, macros = [], []
        for _ in range(repetitions):
            train_idx, test_idx = stratified_split(y, float(ratio) / 100.0, rng)
            pred = _ovr_predict(X[train_idx], y[train_idx], X[test_idx], np.arange(sizes.size))
            micro, macro = micro_macro_f1(y[test_idx], pred, sizes.size)
            micros.append(micro)
            macros.append(macro)
        groups.append((str(ratio), float(ratio), {"micro_f1": micros, "macro_f1": macros}))
    return _summary_report(
        "node_classification", "train_ratio", ("micro_f1", "macro_f1"), groups, emb,
        {"features": features, "repetitions": repetitions, "seed": seed, "l2": L2})


# -- report container ------------------------------------------------------------


def _reject_repeats(label_column: str, keys) -> None:
    """Refuse an empty group list or a details key two groups would share, before any fit."""
    if not keys:
        raise EvaluationError(f"no {label_column} groups")
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise EvaluationError(f"two {label_column} groups share the details key {key!r}")


def _summary_report(kind: str, label_column: str, metrics, groups, emb: EmbeddingSet,
                    config: dict) -> "EvalReport":
    """Validated report of (details key, row label, {metric: per-split values}) groups.

    A group's row holds its label and each metric's ``_mean`` and ``_std``.
    """
    columns = [label_column] + [f"{m}_{s}" for m in metrics for s in ("mean", "std")]
    table, details = [], {}
    for key, label, values in groups:
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
