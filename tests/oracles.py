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

``batch_loss`` is the training objective of a batch without the step:
each channel the batch holds runs ``model._forward`` alone and is scored
with ``dense_loss_term``; the loss ``model._run_batches`` returns with
dropout 0 must match it bit for bit. ``node_loss``, ``edge_loss`` and
``mean_edge_loss`` evaluate it outside the training loop. ``edge_loss``
builds the adjusted term from node batches, independently of
``model._edge_batches``.

``TextbookAdam`` is the earlier Adam step in Kingma & Ba's textbook form,
with unscaled moments and the bias corrections applied per element;
``nn.Adam`` agrees with it to rounding. ``ReferenceAdam`` is the unblocked
form of ``nn.Adam``'s rescaled step, which must match it bit for bit. It
takes a packed ``(rows, values)`` gradient as zeros with those rows set,
so a step on the input heads' packed gradients is checked against the
dense math.

``reference_f1`` is the earlier F1: one pass over the labels per class,
counting tp, fp and fn with boolean masks. ``evaluation.micro_macro_f1`` and
``evaluation.binary_f1`` must match it bit for bit.

``reference_logistic_regression_fit`` and ``reference_ovr_predict`` are the
earlier classifier: one target per call, its design matrix and first
Hessian built afresh each time, and one-vs-rest as a loop of such calls.
With the program's Hessian expression, ``symmetric_hessian``, the program's
classifier and both evaluation protocols must match them bit for bit. With
``textbook_hessian``, the earlier general product, the weights agree to a
measured bound.

``brute_force_p_at_k`` is network reconstruction by exhaustive sorting:
every ordered pair u != v scored with a scalar ``sigmoid`` of its dot
product (o_u·i_v directed, z_u·z_v symmetric), sorted on (-score, u, v).
``components_union_find`` counts weak components by union-find, a
different algorithm from the sampler's breadth-first search.

``one_ended_connected`` is the earlier connectivity search of the link
sampler, a plain BFS from the source; ``reference_link_sample`` is the
sampler built on it, whose sample ``evaluation.sample_link_prediction``
must equal exactly. ``reference_stratified_split`` and
``reference_stratified_fold_indices`` are the earlier per-index loops of the
stratification helpers, which must draw the same and return the same
indices.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

import diagram.model as gm
from diagram.data import DirectedGraph
from diagram.evaluation import LinkSample
from diagram.exceptions import SamplingError, TrainingError
from diagram.nn import CSRRows, Linear, glorot_uniform


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
            if isinstance(g, tuple):  # packed: zero outside its rows
                rows, g = g[0], np.zeros_like(p)
                g[rows] = grads[name][1]
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
        self.release_grad()

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

    @property
    def step_grad_W(self) -> np.ndarray:
        """The weight gradient ``model._fit`` hands Adam: the dense one itself."""
        return self.grad_W

    def zero_grad(self) -> None:
        self.grad_W[...] = 0.0
        self.grad_b[...] = 0.0

    def release_grad(self) -> None:
        """Back to the state a new layer is in: fresh zero gradients."""
        self.grad_W = np.zeros_like(self.W)
        self.grad_b = np.zeros_like(self.b)


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


def dense_loss_term(pred, target, penalised, mu):
    """The dense-weight loss behind the signature of ``nn.masked_sq_error``.

    The CSR ``target`` rows are made dense. ``penalised`` is ignored: the
    weights are rebuilt from ``target``, which is what the flags were
    computed from.
    """
    target = target.toarray()
    return dense_masked_sq_error(pred, target, dense_penalty_weights(target, mu))


def full_forward_embeddings(model, graph, features, variant: str) -> gm.EmbeddingSet:
    """``compute_embeddings`` through the full forward pass, decoder included,
    in chunks of 256 nodes."""
    inputs = gm._graph_tensors(graph, features)
    n, k = graph.node_count, model.embedding_dim
    z = np.empty((n, k))
    o = np.empty((n, k))
    i = np.empty((n, k))
    for start in range(0, n, 256):
        idx = np.arange(start, min(start + 256, n))
        batches = gm._node_batches(idx, inputs)
        z[idx] = model._forward("content", CSRRows(batches["content"].rows))[0]
        o[idx] = model._forward("out", CSRRows(batches["out"].rows))[0]
        i[idx] = model._forward("in", CSRRows(batches["in"].rows))[0]
    return gm.EmbeddingSet(z, o, i, list(graph.node_ids), variant,
                           gm.dataset_fingerprint(graph, features))


def batch_loss(model, batches, mu: float = 10.0) -> float:
    """Summed reconstruction loss of the channels ``batches`` holds, with no dropout.

    A channel's loss is its rows' term plus, if it has one, the extra
    term of its first rows, added in the order ``model._run_batches`` adds them.
    """
    total = 0.0
    for channel in gm.CHANNELS:
        cb = batches.get(channel)
        if cb is None:
            continue
        recon = model._forward(channel, CSRRows(cb.rows))[1]
        loss = dense_loss_term(recon, cb.rows, None, mu)[0]
        if cb.extra is not None:
            loss += dense_loss_term(recon[:cb.extra.shape[0]], cb.extra, None, mu)[0]
        total += loss
    return total


def _channel_inputs(M, A, D) -> dict:
    """The channel inputs of ``model._graph_tensors``, built here from M, A and D."""
    return {"content": sp.hstack([A, D], format="csr"), "out": M, "in": M.T.tocsr()}


def node_loss(model, nodes, M, A, D, mu: float = 10.0) -> float:
    """Sum of the three per-channel reconstruction losses over a node batch."""
    return batch_loss(model, gm._node_batches(nodes, _channel_inputs(M, A, D)), mu)


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
    inputs = _channel_inputs(M, A, D)
    u_batches = gm._node_batches([u], inputs)
    if adjusted:
        u_batches["out"].extra = inputs["in"][[v]]
        del u_batches["in"]
    return batch_loss(model, u_batches, mu) + batch_loss(model, gm._node_batches([v], inputs), mu)


def mean_edge_loss(model, graph, features, mu: float = 10.0,
                   batch_size: int = 256) -> float:
    """Inference-mode edge-model loss averaged over all directed edges."""
    inputs = gm._graph_tensors(graph, features)
    edges = graph.edge_list
    total = 0.0
    for start in range(0, edges.shape[0], batch_size):
        rows = edges[start:start + batch_size]
        total += batch_loss(model, gm._edge_batches(rows[:, 0], rows[:, 1], inputs), mu)
    return total / edges.shape[0]


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def brute_force_p_at_k(emb, graph, ks, mode="directed"):
    """Precision at each K in ``ks`` of the exhaustively sorted pair scores."""
    n = emb.n
    scored = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            if mode == "directed":
                d = float(np.dot(emb.o[u], emb.i[v]))
            else:
                d = float(np.dot(emb.z[u], emb.z[v]))
            scored.append((-sigmoid(d), u, v))
    scored.sort()
    edge_set = {(int(u), int(v)) for u, v in graph.edge_list}
    return {k: sum(1 for (_, u, v) in scored[:k] if (u, v) in edge_set) / k
            for k in ks}


def components_union_find(n, edges):
    """The number of weak components of ``n`` nodes joined by ``edges``."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(int(u)), find(int(v))
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(n)})


def one_ended_connected(adj, src, dst) -> bool:
    """Whether ``src`` reaches ``dst`` in the set adjacency ``adj``, by BFS from ``src``."""
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


def reference_link_sample(graph: DirectedGraph, percent: float, seed: int) -> LinkSample:
    """The link sampler with a one-ended BFS per candidate edge.

    Visits the edges in a seeded shuffled order and removes one when it is a
    self-loop, when its reciprocal partner is still there, or when its
    endpoints stay connected without it; then draws as many distinct
    uniform non-edges from the same generator.
    """
    m, n = graph.edge_count, graph.node_count
    if not math.isfinite(percent):
        raise SamplingError(f"percent={percent} is not a finite number")
    quota = math.ceil(percent * m / 100.0)
    if quota <= 0:
        raise SamplingError(f"percent={percent} requests zero edges from m={m}")
    edges = graph.edge_list
    if n * n - n - sum(u != v for u, v in edges.tolist()) < quota:
        raise SamplingError("not enough non-edges for balanced false samples")
    adj: list[set] = [set() for _ in range(n)]
    pair_count: dict[tuple[int, int], int] = {}
    for u, v in edges.tolist():
        if u != v:
            key = (min(u, v), max(u, v))
            adj[u].add(v)
            adj[v].add(u)
            pair_count[key] = pair_count.get(key, 0) + 1
    rng = np.random.default_rng(seed)
    removed: list[int] = []
    for ei in rng.permutation(m):
        if len(removed) == quota:
            break
        u, v = int(edges[ei, 0]), int(edges[ei, 1])
        key = (min(u, v), max(u, v))
        if u == v:
            removed.append(ei)
        elif pair_count[key] == 2:
            pair_count[key] = 1
            removed.append(ei)
        else:
            adj[u].discard(v)
            adj[v].discard(u)
            if one_ended_connected(adj, u, v):
                pair_count[key] = 0
                removed.append(ei)
            else:
                adj[u].add(v)
                adj[v].add(u)
    if len(removed) < quota:
        raise SamplingError(
            f"requested {quota} removable edges but only achieved {len(removed)}")
    existing = {(int(u), int(v)) for u, v in edges}
    false_pairs: list[tuple[int, int]] = []
    while len(false_pairs) < quota:
        draw = rng.integers(0, n, size=(max(4 * (quota - len(false_pairs)), 16), 2))
        for u, v in draw:
            pair = (int(u), int(v))
            if pair[0] == pair[1] or pair in existing:
                continue
            existing.add(pair)
            false_pairs.append(pair)
            if len(false_pairs) == quota:
                break
    gone = np.zeros(m, dtype=bool)
    gone[removed] = True
    residual = DirectedGraph(graph.node_ids, edges[~gone], graph.metadata)
    pairs = np.vstack([edges[gone], np.array(false_pairs, dtype=np.int64)])
    labels = np.repeat(np.array([1, 0], dtype=np.int64), quota)
    return LinkSample(pairs, labels, residual, int(seed), float(percent))


def symmetric_hessian(nb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``nb.T @ diag(r) @ nb`` as the program forms it: S @ S.T with S = nb.T * sqrt(r)."""
    scaled = np.ascontiguousarray(nb.T) * np.sqrt(r)
    return scaled @ scaled.T


def textbook_hessian(nb: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``nb.T @ diag(r) @ nb`` as the general product of the row-scaled matrix and ``nb``."""
    return (nb * r[:, None]).T @ nb


def reference_logistic_regression_fit(X, y, l2: float = 1.0, max_iter: int = 200,
                                      tol: float = 1e-6, halvings=None,
                                      hessian=symmetric_hessian) -> np.ndarray:
    """One L2-regularized logistic regression by damped Newton steps.

    ``halvings``, if a list, gets one entry per Newton step: how many times
    the line search halved it. ``hessian(nb, r)`` forms the Newton Hessian
    of the design matrix ``nb`` and the weights ``r = p(1 - p)``."""
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
        h = hessian(nb, prob * (1.0 - prob))
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


def reference_stratified_fold_indices(y, n_folds: int, rng: np.random.Generator):
    """Each class's shuffled indices dealt one at a time, round-robin, into the folds."""
    y = np.asarray(y).astype(np.int64).ravel()
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        for pos, i in enumerate(idx):
            folds[pos % n_folds].append(int(i))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def reference_stratified_split(y, train_fraction: float, rng: np.random.Generator):
    """Each class's shuffled indices collected one at a time into train and test lists."""
    y = np.asarray(y).astype(np.int64).ravel()
    train: list[int] = []
    test: list[int] = []
    for c in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == c))
        n_train = min(max(1, int(round(train_fraction * idx.size))), idx.size)
        train.extend(int(i) for i in idx[:n_train])
        test.extend(int(i) for i in idx[n_train:])
    return np.array(sorted(train), dtype=np.int64), np.array(sorted(test), dtype=np.int64)
