"""Reference implementations that tests compare the program against.

``ReferenceLinear``, ``dense_penalty_weights``/``dense_masked_sq_error``
and ``full_forward_embeddings`` are the earlier, plainer forms of
``nn.Linear``, the penalised loss and ``model.compute_embeddings``: the
layer takes dense rows, zeroes its gradients eagerly and allocates every
temporary, the loss builds a dense mu/1 weight array, and the embeddings
come from the full forward pass with the decoder output dropped. The
program's dense layers, loss and embeddings must match them bit for bit;
its sparse-input heads match ``ReferenceLinear`` on the same rows made
dense to 1e-12 relative, since a CSR product sums in another order.

``node_loss``, ``edge_loss`` and ``mean_edge_loss`` evaluate the training
objective outside the training loop. ``edge_loss`` builds the adjusted
term from node batches, independently of ``model._edge_batches``.

``TextbookAdam`` is the earlier Adam step in Kingma & Ba's textbook form,
with unscaled moments and the bias corrections applied per element;
``nn.Adam`` agrees with it to rounding. ``ReferenceAdam`` is the unblocked
form of ``nn.Adam``'s rescaled step, which must match it bit for bit.

``reference_f1`` is the earlier F1: one pass over the labels per class,
counting tp, fp and fn with boolean masks. ``evaluation.micro_macro_f1`` and
``evaluation.binary_f1`` must match it bit for bit.

``reference_logistic_regression_fit`` and ``reference_ovr_predict`` are the
earlier classifier: one target per call, its design matrix and first
Hessian built afresh each time, and one-vs-rest as a loop of such calls.
The program's classifier and both evaluation protocols must match them bit
for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

import diagram.model as gm
from diagram.exceptions import TrainingError
from diagram.nn import Linear, glorot_uniform


class TextbookAdam:
    """The unblocked dict-based Adam step in the textbook form."""

    def __init__(self, lr: float = 1e-4, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params, grads) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            mhat = m / b1t
            vhat = v / b2t
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


class ReferenceAdam(TextbookAdam):
    """The unblocked dict-based form of ``nn.Adam``'s rescaled step."""

    def step(self, params, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c = np.sqrt(1.0 - b2 ** self.t) / np.sqrt(1.0 - b2)
        alpha = self.lr * (1.0 - b1) / (1.0 - b1 ** self.t) * c
        eps = self.eps * c
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            m = self._m.setdefault(name, np.zeros_like(p))  # m / (1 - b1)
            v = self._v.setdefault(name, np.zeros_like(p))  # v / (1 - b2)
            m *= b1
            m += g
            v *= b2
            v += g * g
            p -= alpha * (m / (np.sqrt(v) + eps))


class ReferenceLinear:
    """``nn.Linear`` with eager gradient zeroing and no reused buffers."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        if rng is None:
            self.W = np.zeros((out_dim, in_dim))
        else:
            self.W = glorot_uniform(rng, out_dim, in_dim)
        self.b = np.zeros(out_dim)
        self.grad_W = np.zeros_like(self.W)
        self.grad_b = np.zeros_like(self.b)

    def forward(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"input shape {x.shape} incompatible with layer "
                f"({self.out_dim}, {self.in_dim})"
            )
        z = x @ self.W.T + self.b
        y = np.tanh(z)
        return y, (x, y)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray:
        x, y = cache
        if dout.shape != y.shape:
            raise ValueError(
                f"gradient shape {dout.shape} incompatible with output {y.shape}"
            )
        dz = dout * (1.0 - y * y)
        self.grad_W += dz.T @ x
        self.grad_b += dz.sum(axis=0)
        return dz @ self.W

    def zero_grad(self) -> None:
        self.grad_W[...] = 0.0
        self.grad_b[...] = 0.0


def reference_layer(in_dim: int, out_dim: int, rng: np.random.Generator | None = None,
                    sparse_input: bool = False):
    """``ReferenceLinear`` for every dense layer; sparse-input heads stay ``nn.Linear``."""
    if sparse_input:
        return Linear(in_dim, out_dim, rng, sparse_input=True)
    return ReferenceLinear(in_dim, out_dim, rng)


def dense_penalty_weights(target: np.ndarray, mu: float) -> np.ndarray:
    """Per-coordinate weights: mu on the target's support, 1 elsewhere."""
    return np.where(target > 0, float(mu), 1.0)


def dense_masked_sq_error(pred: np.ndarray, target: np.ndarray, weight: np.ndarray):
    """Weighted squared error ``sum(((pred - target) * weight) ** 2)`` and its gradient."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if pred.shape != target.shape or pred.shape != weight.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape}, target {target.shape}, "
            f"weight {weight.shape}"
        )
    resid = (pred - target) * weight
    loss = float(np.sum(resid * resid))
    grad = 2.0 * (pred - target) * weight * weight
    return loss, grad


def dense_loss_term(pred, target, support, mu):
    """The dense-weight loss behind the signature of ``nn.masked_sq_error``.

    ``support`` is ignored: the weights are rebuilt from ``target``, which
    is what the support was computed from.
    """
    return dense_masked_sq_error(pred, target, dense_penalty_weights(target, mu))


def full_forward_embeddings(model, graph, features, variant: str) -> gm.EmbeddingSet:
    """``compute_embeddings`` through the full forward pass, decoder included."""
    M, MT, AD = gm._graph_tensors(graph, features)
    n, k = graph.node_count, model.embedding_dim
    z = np.empty((n, k))
    o = np.empty((n, k))
    i = np.empty((n, k))
    for start in range(0, n, gm.EMBED_CHUNK):
        idx = np.arange(start, min(start + gm.EMBED_CHUNK, n))
        batches = gm._node_batches(idx, M, MT, AD)
        z[idx] = model._forward("content", batches["content"].x)[0]
        o[idx] = model._forward("out", batches["out"].x)[0]
        i[idx] = model._forward("in", batches["in"].x)[0]
    return gm.EmbeddingSet(z, o, i, list(graph.node_ids), variant,
                           gm.dataset_fingerprint(graph, features))


def node_loss(model, nodes, M, A, D, mu: float = 10.0) -> float:
    """Sum of the three per-channel reconstruction losses over a node batch."""
    MT, AD = M.T.tocsr(), sp.hstack([A, D], format="csr")
    return gm._run_batches(model, gm._node_batches(nodes, M, MT, AD), mu)


def edge_loss(model, edge, M, A, D, mu: float = 10.0, adjusted: bool = True) -> float:
    """Edge-model loss for one directed edge (u, v).

    Both endpoints contribute their full node losses, except that with
    ``adjusted=True`` (the edge model proper) u's incoming-reconstruction
    term is replaced by comparing u's out-channel reconstruction against
    v's actual incoming neighborhood. With ``adjusted=False`` this is
    exactly node_loss(u) + node_loss(v).
    """
    u, v = int(edge[0]), int(edge[1])
    if M[u, v] == 0:
        raise TrainingError(f"edge ({u}, {v}) not present in graph")
    MT, AD = M.T.tocsr(), sp.hstack([A, D], format="csr")
    u_batches = gm._node_batches([u], M, MT, AD)
    if adjusted:
        in_v = MT[[v]].toarray()
        u_batches["out"].extra = (slice(0, 1), in_v)
        del u_batches["in"]
    loss_u = gm._run_batches(model, u_batches, mu)
    loss_v = gm._run_batches(model, gm._node_batches([v], M, MT, AD), mu)
    return loss_u + loss_v


def mean_edge_loss(model, graph, features, mu: float = 10.0,
                   batch_size: int = 256) -> float:
    """Inference-mode edge-model loss averaged over all directed edges."""
    M, MT, AD = gm._graph_tensors(graph, features)
    edges = graph.edge_list
    total = 0.0
    for start in range(0, edges.shape[0], batch_size):
        rows = edges[start:start + batch_size]
        batches = gm._edge_batches(rows[:, 0], rows[:, 1], M, MT, AD)
        total += gm._run_batches(model, batches, mu)
    return total / edges.shape[0]


def reference_logistic_regression_fit(X, y, l2: float = 1.0, max_iter: int = 200,
                                      tol: float = 1e-6, halvings=None) -> np.ndarray:
    """One L2-regularized logistic regression by damped Newton steps.

    ``halvings``, if a list, gets one entry per Newton step: how many times
    the line search halved it."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError(f"bad shapes X{X.shape}, y{y.shape}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in classifier input")
    nb = np.hstack([np.ones((X.shape[0], 1)), X])
    w = np.zeros(nb.shape[1])
    pen = np.ones_like(w)
    pen[0] = 0.0

    def objective(wv):
        s = nb @ wv
        return float(np.sum(np.logaddexp(0.0, s) - y * s) + 0.5 * l2 * np.sum(pen * wv * wv))

    obj = objective(w)
    for _ in range(max_iter):
        s = nb @ w
        prob = expit(s)
        g = nb.T @ (prob - y) + l2 * pen * w
        if np.linalg.norm(g) < tol:
            break
        r = prob * (1.0 - prob)
        h = (nb * r[:, None]).T @ nb
        h[np.diag_indices_from(h)] += l2 * pen + 1e-10
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(h, g, rcond=None)[0]
        for halved in range(30):
            cand = w - step
            cand_obj = objective(cand)
            if cand_obj <= obj + 1e-12:
                w, obj = cand, cand_obj
                break
            step = step / 2.0
        else:
            halved = 30
        if halvings is not None:
            halvings.append(halved)
        if halved == 30:
            break
    return w


def reference_ovr_predict(X_train, y_train, X_test, classes, l2, max_iter,
                          halvings=None):
    """One-vs-rest prediction with one ``reference_logistic_regression_fit``
    per class; ties go to the first class."""
    scores = np.empty((X_test.shape[0], len(classes)))
    for ci, c in enumerate(classes):
        w = reference_logistic_regression_fit(X_train, (y_train == c).astype(np.float64),
                                              l2, max_iter, halvings=halvings)
        scores[:, ci] = expit(w[0] + np.asarray(X_test, dtype=np.float64) @ w[1:])
    return classes[np.argmax(scores, axis=1)]


def reference_f1(true, pred, n_classes: int):
    """(per-class F1 list, micro-F1, macro-F1) for classes 0 .. n_classes-1."""
    true = np.asarray(true).astype(np.int64).ravel()
    pred = np.asarray(pred).astype(np.int64).ravel()
    tp_sum = fp_sum = fn_sum = 0
    per_class = []
    for c in range(n_classes):
        tp = int(np.sum((true == c) & (pred == c)))
        fp = int(np.sum((true != c) & (pred == c)))
        fn = int(np.sum((true == c) & (pred != c)))
        tp_sum += tp
        fp_sum += fp
        fn_sum += fn
        denom = 2 * tp + fp + fn
        per_class.append(2.0 * tp / denom if denom else 0.0)
    micro_denom = 2 * tp_sum + fp_sum + fn_sum
    micro = 2.0 * tp_sum / micro_denom if micro_denom else 0.0
    macro = float(np.mean(per_class)) if per_class else 0.0
    return per_class, micro, macro
