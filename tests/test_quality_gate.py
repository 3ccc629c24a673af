"""Quality gate: the paper's relative claims on a planted directed graph.

Criteria 3–7 of the acceptance suite need the real Cora and Citeseer
files. This gate checks the same kind of claims offline, on a seeded
graph from ``perfbench/gen.py`` (the ``gate`` shape: 400 nodes, out-degree
2, 200 words, 4 classes), with the paper's learning rate and schedule
(30 node epochs, then 2 edge epochs by transfer) on a smaller network
(trunk (128, 64), k=32, batch 16, dropout 0.1). It asserts that

* the edge model reconstructs the graph at least as well as the node
  model (P@K at K = n/4, n/2 and n);
* on the held-out edges of the link-prediction protocol, the directed
  Hadamard feature beats the symmetric one on every seed, and by a margin
  on average;
* held-out one-way edges score ``o_u·i_v > o_v·i_u`` for a clear
  majority;
* node classification on ``z`` beats the majority class by a margin.

Direction and link prediction are scored on held-out edges only: a
model trained at too high a learning rate ranks training edges above
their reversals almost perfectly while its held-out AUC falls to chance.
The margins were set from the measured metrics of seeds 1–8 before the
input heads went sparse; they must not be loosened.

Two negative controls show that the P@K check can fail: it rejects the
model with either of its load-bearing mechanisms (see the ``diagram.model``
docstring) taken out. On seeds 1–3, at 1 and 2 BLAS threads alike,
separate directed heads lost to the node model at K = 400 on every seed,
and an edge model without the adjusted term lost at K = 100 on every
seed. Each control runs the one seed with the widest loss.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diagram.data import load_citation_dataset
from diagram.evaluation import (network_reconstruction, node_classification_eval,
                                run_link_prediction_protocol)
import diagram.model as gm
from diagram.model import TrainConfig, train_edge_model, train_node_model
from diagram.nn import Linear

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

GATE_SHAPE = gen.Shape(400, 2.0, 200, 10.0, 4, 0.2, 0.02, 0.02)
SEEDS = (1, 2, 3)
K_LIST = (100, 200, 400)  # n/4, n/2, n
LINK_PERCENT = 10.0

# Margins. Before the input heads went sparse, seeds 1–8 measured: P@K gap
# (edge minus node) 0.04 at least; held-out AUC gap (directed minus
# symmetric Hadamard) 0.011–0.182 per seed, 0.088 mean over seeds 1–3 and
# 0.034 at least over any three consecutive seeds; held-out direction share
# 0.67–0.91; z micro-F1 minus majority share 0.26–0.55.
MEAN_AUC_GAP = 0.03          # mean over SEEDS; every seed must also be above 0
DIRECTION_SHARE_FLOOR = 0.6  # held-out one-way edges with o_u·i_v > o_v·i_u
MAJORITY_MARGIN = 0.2        # z micro-F1 minus the majority-class share


def gate_config(seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, trunk_dims=(128, 64), embedding_dim=32, batch_size=16,
                       dropout=0.1, learning_rate=1e-4)


def gate_dataset(seed: int, work: Path):
    """The planted graph of one seed: (graph, features, labels)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(gen.SHAPES, "gate", GATE_SHAPE)
        ds = gen.generate("gate", seed)
    return load_citation_dataset(*gen.write(ds, work / f"gate{seed}"))


def reconstruction_chain(graph, features, cfg: TrainConfig):
    """The node model, the edge model trained from it, and each one's directed P@K."""
    node = train_node_model(graph, features, replace(cfg, epochs=30))
    edge = train_edge_model(graph, features, replace(cfg, epochs=2, transfer_from=node.model))
    precision = {}
    for name, result in (("node", node), ("edge", edge)):
        report = network_reconstruction(result.embeddings, graph, K_LIST, "directed")
        precision[name] = [row["precision"] for row in report.table]
    return edge, precision


def p_at_k_losses(precision_node, precision_edge) -> list[int]:
    """The K at which the edge model reconstructs worse than the node model."""
    return [k for k, p_node, p_edge in zip(K_LIST, precision_node, precision_edge)
            if p_edge < p_node]


def gate_metrics(seed: int, work: Path) -> dict:
    """Every metric the gate asserts on, for one seed."""
    graph, features, labels = gate_dataset(seed, work)
    cfg = gate_config(seed)
    edge, precision = reconstruction_chain(graph, features, cfg)

    reports, sample, held = run_link_prediction_protocol(
        graph, features, LINK_PERCENT, seed, "edge", replace(cfg, epochs=2),
        constructors=("hadamard",), modes=("directed", "symmetric"))
    auc = {mode: reports[mode].table[0]["auc_mean"] for mode in reports}

    n = graph.node_count
    keys = set((graph.edge_list[:, 0] * n + graph.edge_list[:, 1]).tolist())
    u, v = sample.true_pairs.T
    one_way = np.array([int(b) * n + int(a) not in keys for a, b in zip(u, v)])
    u, v = u[one_way], v[one_way]
    emb = held.embeddings
    forward = np.einsum("ij,ij->i", emb.o[u], emb.i[v])
    backward = np.einsum("ij,ij->i", emb.o[v], emb.i[u])

    classify = node_classification_eval(edge.embeddings, labels, (50,), features="z",
                                        seed=seed)
    return {
        "precision_node": precision["node"],
        "precision_edge": precision["edge"],
        "auc_directed": auc["directed"],
        "auc_symmetric": auc["symmetric"],
        "direction_share": float(np.mean(forward > backward)),
        "one_way_held_out": int(u.size),
        "micro_f1": classify.table[0]["micro_f1_mean"],
        "majority": float(np.bincount(labels.labels).max() / n),
    }


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    return {seed: gate_metrics(seed, tmp_path_factory.mktemp(f"gate{seed}")) for seed in SEEDS}


def test_edge_model_reconstructs_at_least_as_well_as_node_model(gate):
    for seed, m in gate.items():
        assert p_at_k_losses(m["precision_node"], m["precision_edge"]) == [], (seed, m)


def test_directed_link_features_beat_symmetric_on_held_out_edges(gate):
    gaps = [m["auc_directed"] - m["auc_symmetric"] for m in gate.values()]
    assert min(gaps) > 0.0, gate
    assert np.mean(gaps) >= MEAN_AUC_GAP, gate


def test_held_out_one_way_edges_outrank_their_reversal(gate):
    for seed, m in gate.items():
        assert m["one_way_held_out"] >= 50, (seed, m)
        assert m["direction_share"] >= DIRECTION_SHARE_FLOOR, (seed, m)


def test_z_classification_beats_majority_class(gate):
    for seed, m in gate.items():
        assert m["micro_f1"] - m["majority"] >= MAJORITY_MARGIN, (seed, m)


# -- negative controls -----------------------------------------------------------


class SeparateDirectedHeads(gm.DiagramModel):
    """Ablation: the in channel gets its own input and reconstruction heads,
    built after the shared ones (so the rng stream differs from there on)."""

    def __init__(self, node_count, feature_dim, trunk_dims, embedding_dim, rng=None):
        super().__init__(node_count, feature_dim, trunk_dims, embedding_dim, rng)
        width = self.trunk_dims[0]
        self.layers["in_head"] = Linear(node_count, width, rng, sparse_input=True)
        self.layers["in_recon"] = Linear(width, node_count, rng)


def ablated_chain(seed: int, work: Path):
    """The reconstruction chain on one gate seed; returns the edge model and the
    K at which the gate's P@K check fails."""
    graph, features, _ = gate_dataset(seed, work)
    edge, precision = reconstruction_chain(graph, features, gate_config(seed))
    return edge, p_at_k_losses(precision["node"], precision["edge"])


def test_gate_rejects_separate_directed_heads(tmp_path, monkeypatch):
    monkeypatch.setattr(gm, "DiagramModel", SeparateDirectedHeads)
    monkeypatch.setitem(gm.HEAD, "in", "in")
    # measured: edge P@K 0.02/0.035/0.0475 against the node model's 0.08/0.065/0.055
    edge, losses = ablated_chain(3, tmp_path)
    assert "in_head" in edge.model.layers
    assert losses, "the P@K check passed a model with separate directed heads"


def test_gate_rejects_edge_model_without_adjusted_term(tmp_path, monkeypatch):
    calls = []
    edge_batches = gm._edge_batches

    def without_adjusted_term(*args):
        batches = edge_batches(*args)
        calls.append(batches["out"].extra is not None)
        batches["out"].extra = None
        return batches

    monkeypatch.setattr(gm, "_edge_batches", without_adjusted_term)
    # measured: edge P@K 0.33/0.245/0.1925 against the node model's 0.34/0.25/0.2225
    _, losses = ablated_chain(1, tmp_path)
    assert calls and all(calls)  # every edge batch had its adjusted term taken out
    assert losses, "the P@K check passed an edge model without the adjusted term"
