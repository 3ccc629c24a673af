"""Refusals of the Python API that no command-line path reaches."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from diagram.data import FeatureMatrix, LabelVector
from diagram.evaluation import (
    auc_score,
    edge_feature_matrix,
    link_prediction_eval,
    logistic_regression_fit,
    micro_macro_f1,
    network_reconstruction,
    node_classification_eval,
    run_link_prediction_protocol,
    sample_link_prediction,
)
from diagram.exceptions import DatasetError, EvaluationError, SamplingError, TrainingError
from diagram.model import DiagramModel, EmbeddingSet, TrainConfig
from diagram.nn import Adam, Linear

from conftest import random_digraph, random_features


def _embeddings(n: int = 4) -> EmbeddingSet:
    z = np.eye(n)
    return EmbeddingSet(z, z, z, [f"n{j}" for j in range(n)], "node")


def _link_sample():
    return sample_link_prediction(random_digraph(20, 60, seed=10), 10.0, seed=1)


def _backward_with_wrong_gradient():
    layer = Linear(2, 3, np.random.default_rng(0))
    _, cache = layer.forward(np.zeros((1, 2)))
    layer.backward(cache, np.zeros((1, 2)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: FeatureMatrix(sp.csr_matrix((2, 2)), mode="raw"),
     DatasetError, "unknown feature mode 'raw'"),
    (lambda: LabelVector(np.array([0, 2]), ["x", "y"]),
     DatasetError, "label index outside class range"),
    (lambda: edge_feature_matrix(_embeddings(), [[0, 1]], "average", mode="x"),
     EvaluationError, r"unknown scorer mode 'x' \(accepted: directed symmetric\)"),
    (lambda: logistic_regression_fit(np.zeros((3, 2)), np.zeros(2)),
     ValueError, r"bad shapes X\(3, 2\), y\(2,\)"),
    (lambda: auc_score([], []), EvaluationError, "matching nonempty labels and scores"),
    (lambda: micro_macro_f1([], [], 2), EvaluationError, "matching nonempty arrays"),
    (lambda: node_classification_eval(_embeddings(), [0, 0, 1, 1], features="x"),
     EvaluationError, r"unknown classifier features 'x' \(accepted: z zoi\)"),
    (lambda: DiagramModel(0, 1), ValueError, "^node_count must be >= 1, got 0$"),
    (lambda: DiagramModel(2, 1, trunk_dims=()), ValueError, "^trunk_dims must not be empty$"),
    (lambda: DiagramModel(2, 1, embedding_dim=0), ValueError,
     "^embedding_dim must be >= 1, got 0$"),
    # 10**18 rows fail in numpy before any allocation, never one the OS might grant
    (lambda: DiagramModel(2, 1, trunk_dims=(10**18,)), TrainingError,
     r"^cannot build a model with n=2, d=1, trunk=1000000000000000000, k=128: array is too big"),
    (lambda: Linear(0, 1), ValueError, "layer dimensions must be positive"),
    (_backward_with_wrong_gradient, ValueError,
     r"gradient shape \(1, 2\) incompatible with output \(1, 3\)"),
    (lambda: Adam().step({"w": np.zeros(2)}, {"w": np.zeros(3)}),
     ValueError, "gradient shape mismatch for w"),
    (lambda: sample_link_prediction(random_digraph(20, 60, seed=10), 10.0, seed=-1),
     SamplingError, "^seed must be >= 0, got -1$"),
    (lambda: link_prediction_eval(_embeddings(20), _link_sample(), seed=-1),
     EvaluationError, "^seed must be >= 0, got -1$"),
    # K, seeds and repetitions are integers: no truncation, no numpy TypeError
    (lambda: network_reconstruction(_embeddings(), random_digraph(4, 6, seed=0), [2.5]),
     EvaluationError, r"^K must be an integer, got 2\.5$"),
    (lambda: network_reconstruction(_embeddings(), random_digraph(4, 6, seed=0), ["3"]),
     EvaluationError, "^K must be an integer, got '3'$"),
    (lambda: sample_link_prediction(random_digraph(20, 60, seed=10), 20, 1.5),
     SamplingError, r"^seed must be an integer, got 1\.5$"),
    (lambda: sample_link_prediction(random_digraph(20, 60, seed=10), 20, "1"),
     SamplingError, "^seed must be an integer, got '1'$"),
    (lambda: link_prediction_eval(_embeddings(20), _link_sample(), seed=1.5),
     EvaluationError, r"^seed must be an integer, got 1\.5$"),
    (lambda: node_classification_eval(_embeddings(), [0, 0, 1, 1], seed="1"),
     EvaluationError, "^seed must be an integer, got '1'$"),
    (lambda: node_classification_eval(_embeddings(), [0, 0, 1, 1], repetitions=2.0),
     EvaluationError, r"^repetitions must be an integer, got 2\.0$"),
    (lambda: TrainConfig(epochs=1.5), ValueError, r"^epochs must be an integer, got 1\.5$"),
    (lambda: TrainConfig(batch_size=2.5), ValueError,
     r"^batch_size must be an integer, got 2\.5$"),
    (lambda: TrainConfig(seed=1.5), ValueError, r"^seed must be an integer, got 1\.5$"),
    (lambda: TrainConfig(embedding_dim=2.5), ValueError,
     r"^embedding_dim must be an integer, got 2\.5$"),
    (lambda: TrainConfig(trunk_dims=(4.7,)), ValueError,
     r"^trunk_dims entry must be an integer, got 4\.7$"),
    # a model's sizes are never truncated, and a bool is not an integer
    (lambda: DiagramModel(6, 3, (4.9,), 2), ValueError,
     r"^trunk_dims entry must be an integer, got 4\.9$"),
    (lambda: DiagramModel(6, 3, (4,), 2.7), ValueError,
     r"^embedding_dim must be an integer, got 2\.7$"),
    (lambda: DiagramModel(6, 3, ("4",), 2), ValueError,
     "^trunk_dims entry must be an integer, got '4'$"),
    (lambda: TrainConfig(batch_size=True), ValueError,
     "^batch_size must be an integer, got True$"),
    (lambda: network_reconstruction(_embeddings(), random_digraph(4, 6, seed=0), [True]),
     EvaluationError, "^K must be an integer, got True$"),
    # a real-number setting that is not a number gets its entry point's error
    (lambda: sample_link_prediction(random_digraph(20, 60, seed=10), "10", 1),
     SamplingError, "^percent='10' is not a finite number$"),
    (lambda: node_classification_eval(_embeddings(), [0, 0, 1, 1], ("50",)),
     EvaluationError, r"^train ratio '50' is not a percentage in \(0, 100\)$"),
    (lambda: TrainConfig(learning_rate="0.1"), ValueError,
     "^learning_rate must be positive and finite$"),
    (lambda: TrainConfig(learning_rate=None), ValueError,
     "^learning_rate must be positive and finite$"),
    (lambda: TrainConfig(dropout="0.1"), ValueError, r"^dropout must be in \[0, 1\)$"),
    (lambda: TrainConfig(mu=None), ValueError, "^mu must be > 1 and finite$"),
], ids=["feature-mode", "label-range", "scorer-mode", "fit-shapes", "auc-empty",
        "f1-empty", "clf-features", "model-no-nodes", "model-no-trunk", "model-zero-k",
        "model-huge-trunk", "linear-dims",
        "linear-backward-shape", "adam-shape", "link-sample-seed", "link-eval-seed",
        "float-k", "str-k", "float-link-sample-seed", "str-link-sample-seed",
        "float-link-eval-seed", "str-classify-seed", "float-repetitions",
        "float-epochs", "float-batch-size", "float-seed", "float-embedding-dim",
        "float-trunk-entry", "model-float-trunk-entry", "model-float-k", "model-str-trunk-entry",
        "bool-batch-size", "bool-k", "str-percent", "str-ratio", "str-lr", "none-lr",
        "str-dropout", "none-mu"])
def test_bad_argument_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_numpy_integers_are_accepted(tmp_path):
    g = random_digraph(20, 60, seed=10)
    sample = sample_link_prediction(g, 10.0, seed=np.int64(1))
    assert sample.seed == 1 and type(sample.seed) is int
    assert (sample.pairs == _link_sample().pairs).all()
    report = network_reconstruction(_embeddings(20), g, [np.int32(3)])
    assert report.config["k_list"] == [3] and type(report.config["k_list"][0]) is int
    report = node_classification_eval(_embeddings(), [0, 0, 1, 1], (50,),
                                      repetitions=np.int64(1), seed=np.uint8(2))
    assert report.config["repetitions"] == 1 and report.config["seed"] == 2
    # a config keeps them as plain ints, so a report that carries it writes as JSON
    cfg = TrainConfig(epochs=np.int64(1), batch_size=np.int32(4), seed=np.int64(1),
                      embedding_dim=np.int64(2), trunk_dims=(np.int64(4),))
    for value in (cfg.epochs, cfg.batch_size, cfg.seed, cfg.embedding_dim, *cfg.trunk_dims):
        assert type(value) is int
    reports, _, _ = run_link_prediction_protocol(
        random_digraph(20, 60, seed=10, ensure_connected=True), random_features(20, 6, seed=11),
        10.0, 1, cfg=cfg)
    reports["directed"].to_json(tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text())["config"]["train"]["seed"] == 1
