"""Acceptance suite.

Each test prints one ``ACCEPTANCE <n> ...: PASS/FAIL/SKIP`` line (run with
``pytest -s`` to see them as they happen). Criteria 3-7 exercise the real
citation datasets and skip, with the reason printed, when the files are
not present; point DIAGRAM_DATA_DIR at a directory containing
``cora/cora.content`` etc. to enable them.
"""

import math
import time

import numpy as np
import pytest

from diagram.data import load_citation_dataset
from diagram.evaluation import (
    auc_score,
    link_prediction_eval,
    micro_macro_f1,
    network_reconstruction,
    sample_link_prediction,
)
from diagram.model import (
    DiagramModel,
    EmbeddingSet,
    TrainConfig,
    _graph_tensors,
    _node_batches,
    _run_batches,
    train_edge_model,
    train_node_model,
)
from diagram.nn import finite_diff_check

from conftest import edge_features, find_dataset, random_digraph, random_features
from oracles import batch_loss, brute_force_p_at_k, components_union_find, mean_edge_loss

SEEDS = (0, 1, 2)


def report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def skip(criterion, name, reason):
    print(f"\nACCEPTANCE {criterion} ({name}): SKIP ({reason})")
    pytest.skip(reason)


def need_dataset(criterion, name, dataset):
    paths = find_dataset(dataset)
    if paths is None:
        skip(criterion, name,
             f"{dataset} dataset files not available; set DIAGRAM_DATA_DIR")
    return paths


# one training run per (dataset, seed, variant), shared across criteria
_cache: dict = {}


def load_real(dataset):
    key = ("data", dataset)
    if key not in _cache:
        content, cites = find_dataset(dataset)
        _cache[key] = load_citation_dataset(content, cites)
    return _cache[key]


def paper_config(dataset, seed, **overrides):
    dropout = 0.1 if dataset == "citeseer" else 0.2
    base = dict(epochs=None, batch_size=64, learning_rate=1e-4, dropout=dropout,
                mu=10.0, seed=seed, embedding_dim=128, trunk_dims=(512, 256))
    base.update(overrides)
    return TrainConfig(**base)


def trained_models(dataset, seed):
    key = ("trained", dataset, seed)
    if key not in _cache:
        graph, features, labels = load_real(dataset)
        node_res = train_node_model(graph, features, paper_config(dataset, seed))
        edge_res = train_edge_model(
            graph, features,
            paper_config(dataset, seed, transfer_from=node_res.model))
        _cache[key] = (node_res, edge_res)
    return _cache[key]


# -- criterion 1: gradient correctness ----------------------------------------


def test_criterion_1_gradient_correctness():
    start = time.time()
    graph = random_digraph(8, 14, seed=21, ensure_connected=True)
    features = random_features(8, 5, seed=22)
    model = DiagramModel(8, 5, trunk_dims=(8, 4), embedding_dim=3,
                         rng=np.random.default_rng(0))
    batches = _node_batches(range(8), _graph_tensors(graph, features))

    model.zero_grad()
    _run_batches(model, batches, 10.0, 0.0, None)  # dropout off
    params = list(model.parameters().values())
    grads = [g.copy() for g in model.gradients().values()]

    def loss_fn():
        return batch_loss(model, batches, mu=10.0)

    err = finite_diff_check(loss_fn, params, grads)  # every coordinate
    elapsed = time.time() - start
    report(1, "gradient correctness",
           err < 1e-4 and elapsed < 10.0,
           f"max rel err {err:.3e} over {sum(p.size for p in params)} coords "
           f"in {elapsed:.1f}s")


# -- criterion 2: oracle equivalence -------------------------------------------


def test_criterion_2_oracle_equivalence():
    start = time.time()
    ks = [5, 20, 50]
    mismatches = 0
    for trial in range(25):
        graph = random_digraph(15, 32, seed=trial)
        rng = np.random.default_rng(1000 + trial)
        emb = EmbeddingSet(rng.normal(size=(15, 6)), rng.normal(size=(15, 6)),
                           rng.normal(size=(15, 6)),
                           [f"n{i}" for i in range(15)], "edge")
        got = {row["K"]: row["precision"]
               for row in network_reconstruction(emb, graph, ks).table}
        expected = brute_force_p_at_k(emb, graph, ks)
        if any(got[k] != expected[k] for k in ks):
            mismatches += 1

    # AUC vs exhaustive pair counting (with ties)
    rng = np.random.default_rng(7)
    y = rng.integers(0, 2, size=60)
    y[:2] = [0, 1]
    s = np.round(rng.random(60), 1)
    pos, neg = s[y == 1], s[y == 0]
    wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
               for p in pos for q in neg)
    auc_err = abs(auc_score(y, s) - wins / (len(pos) * len(neg)))

    # micro/macro F1 vs scalar confusion-matrix computation
    true = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 4, size=50)
    micro, macro = micro_macro_f1(true, pred, 4)
    tp_all = fp_all = fn_all = 0
    f1s = []
    for c in range(4):
        tp = int(np.sum((true == c) & (pred == c)))
        fp = int(np.sum((true != c) & (pred == c)))
        fn = int(np.sum((true == c) & (pred != c)))
        tp_all += tp
        fp_all += fp
        fn_all += fn
        p_ = tp / (tp + fp) if tp + fp else 0.0
        r_ = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * p_ * r_ / (p_ + r_) if p_ + r_ else 0.0)
    f1_err = max(abs(micro - 2 * tp_all / (2 * tp_all + fp_all + fn_all)),
                 abs(macro - sum(f1s) / 4))

    # edge-feature constructors vs scalar arithmetic
    emb = EmbeddingSet(*(np.random.default_rng(11).normal(size=(6, 16))
                         for _ in range(3)),
                       [f"n{i}" for i in range(6)], "edge")
    feat_err = 0.0
    for ctor in ("average", "hadamard", "w-l1", "w-l2"):
        got = edge_features(emb, (2, 4), ctor)
        a, b = emb.o[2], emb.i[4]
        for j in range(16):
            exp = {"average": (a[j] + b[j]) / 2, "hadamard": a[j] * b[j],
                   "w-l1": abs(a[j] - b[j]), "w-l2": (a[j] - b[j]) ** 2}[ctor]
            feat_err = max(feat_err, abs(got[j] - exp))

    elapsed = time.time() - start
    ok = (mismatches == 0 and auc_err < 1e-12 and f1_err < 1e-12
          and feat_err < 1e-12 and elapsed < 30.0)
    report(2, "oracle equivalence", ok,
           f"P@K mismatches {mismatches}/25, auc err {auc_err:.1e}, "
           f"f1 err {f1_err:.1e}, feature err {feat_err:.1e} in {elapsed:.1f}s")


# -- criterion 3: network reconstruction --------------------------------------


def _p_at_2500(emb, graph):
    rep = network_reconstruction(emb, graph, [2500])
    return rep.table[0]["precision"]


@pytest.mark.parametrize("dataset,floor", [("cora", 0.49), ("citeseer", None)])
def test_criterion_3_network_reconstruction(dataset, floor):
    name = f"network reconstruction {dataset}"
    need_dataset(3, name, dataset)
    graph, features, labels = load_real(dataset)
    edge_scores, node_scores = [], []
    for seed in SEEDS:
        node_res, edge_res = trained_models(dataset, seed)
        node_scores.append(_p_at_2500(node_res.embeddings, graph))
        edge_scores.append(_p_at_2500(edge_res.embeddings, graph))
    edge_mean = float(np.mean(edge_scores))
    node_mean = float(np.mean(node_scores))
    ok = edge_mean > node_mean and (floor is None or edge_mean >= floor)
    report(3, name, ok,
           f"edge P@2500 {edge_mean:.3f} vs node {node_mean:.3f}"
           + (f" (floor {floor})" if floor else ""))


# -- criterion 4: link prediction ----------------------------------------------


def test_criterion_4_link_prediction():
    name = "link prediction cora"
    need_dataset(4, name, "cora")
    graph, features, labels = load_real("cora")
    directed_aucs, symmetric_aucs = [], []
    for seed in SEEDS:
        sample = sample_link_prediction(graph, 10.0, seed=seed)
        node_res = train_node_model(sample.residual_graph, features,
                                    paper_config("cora", seed))
        edge_res = train_edge_model(
            sample.residual_graph, features,
            paper_config("cora", seed, transfer_from=node_res.model))
        for mode, sink in (("directed", directed_aucs),
                           ("symmetric", symmetric_aucs)):
            rep = link_prediction_eval(edge_res.embeddings, sample,
                                       constructors=("hadamard",), mode=mode,
                                       seed=seed)
            sink.append(rep.table[0]["auc_mean"])
    dmean, smean = float(np.mean(directed_aucs)), float(np.mean(symmetric_aucs))
    ok = dmean >= 0.75 and dmean > smean
    report(4, name, ok, f"hadamard AUC directed {dmean:.3f} vs symmetric {smean:.3f}")


# -- criterion 5: node classification -------------------------------------------


@pytest.mark.parametrize("dataset,floor", [("cora", 0.75), ("citeseer", 0.62)])
def test_criterion_5_node_classification(dataset, floor):
    from diagram.evaluation import node_classification_eval

    name = f"node classification {dataset}"
    need_dataset(5, name, dataset)
    graph, features, labels = load_real(dataset)
    _, edge_res = trained_models(dataset, 0)
    rep = node_classification_eval(edge_res.embeddings, labels,
                                   train_ratios=(50,), repetitions=10, seed=0)
    micro = rep.table[0]["micro_f1_mean"]
    report(5, name, micro >= floor, f"micro-F1 {micro:.3f} (floor {floor})")


# -- criterion 6: transfer learning ---------------------------------------------


def test_criterion_6_transfer_learning():
    name = "transfer learning cora"
    need_dataset(6, name, "cora")
    graph, features, labels = load_real("cora")
    node_res, _ = trained_models("cora", 0)
    losses = {}
    for epochs in (2, 10):
        cfg = paper_config("cora", 0, transfer_from=node_res.model, epochs=epochs)
        res = train_edge_model(graph, features, cfg)
        losses[epochs] = mean_edge_loss(res.model, graph, features)
    gap = abs(losses[2] - losses[10]) / losses[10]
    report(6, name, gap <= 0.05,
           f"mean per-edge loss after 2 epochs {losses[2]:.4f}, "
           f"after 10 epochs {losses[10]:.4f} (gap {gap:.2%})")


# -- criterion 7: protocol invariants --------------------------------------------


def test_criterion_7_protocol_invariants(tmp_path):
    name = "protocol invariants cora"
    need_dataset(7, name, "cora")
    graph, features, labels = load_real("cora")
    n = graph.node_count
    before = components_union_find(n, graph.edge_list)
    edge_set = {(int(u), int(v)) for u, v in graph.edge_list}
    quota = math.ceil(10.0 * graph.edge_count / 100.0)
    bad = []
    for seed in range(20):
        sample = sample_link_prediction(graph, 10.0, seed=seed)
        after = components_union_find(n, sample.residual_graph.edge_list)
        true_set = {(int(u), int(v)) for u, v in sample.true_pairs}
        false_set = {(int(u), int(v)) for u, v in sample.false_pairs}
        if not (after == before
                and len(true_set) == quota and len(false_set) == quota
                and true_set <= edge_set and not (false_set & edge_set)
                and not (true_set & false_set)):
            bad.append(seed)

    # full-pipeline determinism: identical seeds, identical artifact bytes
    cfg = paper_config("cora", 0, epochs=2)
    emb_a = train_node_model(graph, features, cfg).embeddings
    emb_b = train_node_model(graph, features, cfg).embeddings
    from diagram.model import export_embeddings
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_embeddings(emb_a, pa)
    export_embeddings(emb_b, pb)
    same_train = pa.read_bytes() == pb.read_bytes()

    sample = sample_link_prediction(graph, 10.0, seed=0)
    r1 = link_prediction_eval(emb_a, sample, constructors=("hadamard",), seed=0)
    r2 = link_prediction_eval(emb_a, sample, constructors=("hadamard",), seed=0)
    ja, jb = tmp_path / "r1.json", tmp_path / "r2.json"
    r1.to_json(ja)
    r2.to_json(jb)
    same_eval = ja.read_bytes() == jb.read_bytes()

    ok = not bad and same_train and same_eval
    report(7, name, ok,
           f"20 seeds component-preserving (failures: {bad}), "
           f"train determinism {same_train}, eval determinism {same_eval}")
