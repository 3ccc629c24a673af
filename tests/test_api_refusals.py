"""Refusals of the Python API that no command-line path reaches."""

import numpy as np
import pytest
import scipy.sparse as sp

from diagram.data import FeatureMatrix, LabelVector
from diagram.evaluation import (
    auc_score,
    edge_feature_matrix,
    logistic_regression_fit,
    micro_macro_f1,
    node_classification_eval,
)
from diagram.exceptions import DatasetError, EvaluationError
from diagram.model import DiagramModel, EmbeddingSet
from diagram.nn import Adam, Linear


def _embeddings() -> EmbeddingSet:
    z = np.eye(4)
    return EmbeddingSet(z, z, z, ["a", "b", "c", "d"], "node")


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
     ValueError, "scorer mode must be one of"),
    (lambda: logistic_regression_fit(np.zeros((3, 2)), np.zeros(2)),
     ValueError, r"bad shapes X\(3, 2\), y\(2,\)"),
    (lambda: auc_score([], []), EvaluationError, "matching nonempty labels and scores"),
    (lambda: micro_macro_f1([], [], 2), EvaluationError, "matching nonempty arrays"),
    (lambda: node_classification_eval(_embeddings(), [0, 0, 1, 1], features="x"),
     ValueError, "unknown feature selection 'x'"),
    (lambda: DiagramModel(0, 1), ValueError, "need at least one node"),
    (lambda: DiagramModel(2, 1, trunk_dims=()), ValueError, "trunk_dims must not be empty"),
    (lambda: Linear(0, 1), ValueError, "layer dimensions must be positive"),
    (_backward_with_wrong_gradient, ValueError,
     r"gradient shape \(1, 2\) incompatible with output \(1, 3\)"),
    (lambda: Adam().step({"w": np.zeros(2)}, {"w": np.zeros(3)}),
     ValueError, "gradient shape mismatch for w"),
], ids=["feature-mode", "label-range", "scorer-mode", "fit-shapes", "auc-empty",
        "f1-empty", "clf-features", "model-no-nodes", "model-no-trunk", "linear-dims",
        "linear-backward-shape", "adam-shape"])
def test_bad_argument_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
