"""Three-channel shared autoencoder over directed attributed graphs.

Each node u gets three k-dim embeddings:

* ``z`` (content channel): reconstructs the concatenation of u's
  undirected neighborhood row A_u and its feature row D_u,
* ``o`` (out channel): reconstructs the outgoing adjacency row M_u,
* ``i`` (in channel): reconstructs the incoming row (M^T)_u.

All channels share one encoder trunk, one embedding layer, and one
decoder trunk. The content channel owns its input and reconstruction
heads (its width n+d differs); the two directed channels share a single
input head and a single reconstruction head of width n. That sharing is
load-bearing: the edge trainer swaps u's incoming-reconstruction target
for v's actual incoming neighborhood, and only a common directed readout
turns that loss into pressure that moves o_u toward i_v (with separate
heads the decoder can serve the two channels from disjoint latent
subspaces and the learned proximity dot(o_u, i_v) stays at chance).
Gradients from all channels accumulate into every shared layer.

The two input heads take each batch's rows of [A | D], M and M^T as CSR
matrices (``nn.CSRRows``) and keep W as (in, out) in memory; checkpoints
store every W as (out, in). The reconstruction targets are the same rows
made dense.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import nn
from .data import DirectedGraph, FeatureMatrix, build_undirected_union, dataset_fingerprint
from .exceptions import EmbeddingFormatError, TrainingError
from .nn import Adam, CSRRows, Linear, atomic_write, dropout_mask, masked_sq_error

CHANNELS = ("content", "out", "in")

DEFAULT_TRUNK = (512, 256)
DEFAULT_EMBEDDING_DIM = 128
DEFAULT_NODE_EPOCHS = 30
DEFAULT_EDGE_EPOCHS = 2
# Nodes per encoder call in compute_embeddings.
EMBED_CHUNK = 256


@dataclass
class TrainConfig:
    """Training hyperparameters; ``epochs=None`` picks the variant default.

    ``transfer_from`` is None or the node model an edge model starts from.
    """

    epochs: int | None = None
    batch_size: int = 64
    learning_rate: float = 1e-4
    dropout: float = 0.2
    mu: float = 10.0
    seed: int = 0
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    trunk_dims: tuple[int, ...] = DEFAULT_TRUNK
    transfer_from: DiagramModel | None = None

    def __post_init__(self):
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 1.0 < self.mu < np.inf:
            raise ValueError("mu must be > 1 and finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.embedding_dim <= 0 or not self.trunk_dims or min(self.trunk_dims) <= 0:
            raise ValueError("layer dimensions must be positive, with a nonempty trunk")
        if not (self.transfer_from is None or isinstance(self.transfer_from, DiagramModel)):
            raise ValueError("transfer_from must be None or a DiagramModel, "
                             f"not {type(self.transfer_from).__name__}")

    def as_dict(self) -> dict:
        return {**self.__dict__, "trunk_dims": list(self.trunk_dims),
                "transfer_from": self.transfer_from is not None}


class DiagramModel:
    """The shared autoencoder: per-channel heads around a common trunk."""

    def __init__(self, node_count: int, feature_dim: int,
                 trunk_dims: tuple[int, ...] = DEFAULT_TRUNK,
                 embedding_dim: int = DEFAULT_EMBEDDING_DIM,
                 rng: np.random.Generator | None = None):
        if node_count <= 0 or feature_dim < 0:
            raise ValueError("need at least one node and a nonnegative feature dim")
        self.node_count = node_count
        self.feature_dim = feature_dim
        self.trunk_dims = tuple(int(t) for t in trunk_dims)
        self.embedding_dim = int(embedding_dim)
        if not self.trunk_dims:
            raise ValueError("trunk_dims must not be empty")

        n, d, k = node_count, feature_dim, self.embedding_dim
        t = self.trunk_dims

        # Layer creation order is fixed: it defines the rng draw order and
        # therefore the reproducibility of seeded initialization.
        self.heads = {
            "content": Linear(n + d, t[0], rng, sparse_input=True),
            "directed": Linear(n, t[0], rng, sparse_input=True),
        }
        self.encoder_trunk = [Linear(t[i], t[i + 1], rng) for i in range(len(t) - 1)]
        self.embed = Linear(t[-1], k, rng)
        dec_dims = tuple(reversed(t))
        dims = (k,) + dec_dims
        self.decoder_trunk = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dec_dims))]
        self.recon_heads = {
            "content": Linear(t[0], n + d, rng),
            "directed": Linear(t[0], n, rng),
        }

    @staticmethod
    def _head_key(channel: str) -> str:
        return "content" if channel == "content" else "directed"

    def head_for(self, channel: str) -> Linear:
        return self.heads[self._head_key(channel)]

    def recon_for(self, channel: str) -> Linear:
        return self.recon_heads[self._head_key(channel)]

    def named_layers(self):
        for key in ("content", "directed"):
            yield f"{key}_head", self.heads[key]
        for i, layer in enumerate(self.encoder_trunk):
            yield f"enc_trunk.{i}", layer
        yield "embed", self.embed
        for i, layer in enumerate(self.decoder_trunk):
            yield f"dec_trunk.{i}", layer
        for key in ("content", "directed"):
            yield f"{key}_recon", self.recon_heads[key]

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self.named_layers():
            out[f"{name}.W"] = layer.W
            out[f"{name}.b"] = layer.b
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self.named_layers():
            out[f"{name}.W"] = layer.grad_W
            out[f"{name}.b"] = layer.grad_b
        return out

    def zero_grad(self) -> None:
        for _, layer in self.named_layers():
            layer.zero_grad()

    def copy(self) -> "DiagramModel":
        clone = DiagramModel(self.node_count, self.feature_dim, self.trunk_dims,
                             self.embedding_dim)
        src, dst = self.parameters(), clone.parameters()
        for name, arr in src.items():
            dst[name][...] = arr
        return clone

    # -- forward / backward ------------------------------------------------

    def _encode(self, channel: str, x: CSRRows, steps: list, dropout: float = 0.0,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Head, encoder trunk and embed layer of one channel; returns the embedding.

        ``x`` holds the channel's input rows. Appends each layer's (layer,
        cache, dropout mask) to ``steps`` for the backward pass. Dropout at
        rate ``dropout`` is applied to every encoder activation (head output
        and each encoder-trunk output), never to inputs or the embedding.
        """
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        h = _run(self.head_for(channel), x, steps, dropout, rng)
        for layer in self.encoder_trunk:
            h = _run(layer, h, steps, dropout, rng)
        return _run(self.embed, h, steps)

    def _forward(self, channel: str, x: CSRRows, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        """Run one channel; returns (embedding, reconstruction, backward ctx).

        The decoder side (decoder trunk and reconstruction head) takes no
        dropout.
        """
        steps = []
        emb = self._encode(channel, x, steps, dropout, rng)
        h = emb
        for layer in self.decoder_trunk:
            h = _run(layer, h, steps)
        recon = _run(self.recon_for(channel), h, steps)
        return emb, recon, steps

    def _backward(self, steps, d_recon: np.ndarray) -> None:
        d = d_recon
        for layer, cache, mask in reversed(steps):
            if mask is not None:
                d = d * mask
            d = layer.backward(cache, d)


def _run(layer: Linear, h: np.ndarray, steps: list, dropout: float = 0.0,
         rng: np.random.Generator | None = None) -> np.ndarray:
    """One layer's forward, then dropout at rate ``dropout`` if it is positive."""
    out, cache = layer.forward(h)
    mask = None
    if dropout > 0.0:
        mask = dropout_mask(out.shape, dropout, rng)
        out = out * mask
    steps.append((layer, cache, mask))
    return out


@dataclass
class EmbeddingSet:
    """Per-node embedding triple (z, o, i), each of shape (n, k)."""

    z: np.ndarray
    o: np.ndarray
    i: np.ndarray
    node_ids: list[str]
    variant: str = "node"
    fingerprint: str = ""

    def __post_init__(self):
        shapes = {self.z.shape, self.o.shape, self.i.shape}
        if len(shapes) != 1 or self.z.shape[0] != len(self.node_ids):
            raise ValueError("embedding matrices must share shape (n, k)")

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def k(self) -> int:
        return self.z.shape[1]


# -- loss assembly ----------------------------------------------------------


def penalty_weights(target: np.ndarray) -> np.ndarray:
    """Flat indices of the target's support, where the loss weighs errors by mu."""
    return np.flatnonzero(target > 0)


@dataclass
class _ChannelBatch:
    x: CSRRows  # the input rows
    target: np.ndarray  # the same rows made dense: the reconstruction target
    # Optional second loss term on a row slice of the same reconstruction:
    # (row slice, target). Used by the edge model's adjusted term.
    extra: tuple | None = None


def _batch(rows: sp.csr_matrix, extra: tuple | None = None) -> _ChannelBatch:
    return _ChannelBatch(CSRRows(rows), rows.toarray(), extra)


def _node_batches(idx, M, MT, AD) -> dict[str, _ChannelBatch]:
    idx = np.asarray(idx, dtype=np.int64)
    return {"content": _batch(AD[idx]), "out": _batch(M[idx]), "in": _batch(MT[idx])}


def _edge_batches(u_idx, v_idx, M, MT, AD) -> dict[str, _ChannelBatch]:
    """Batched edge-model targets for edges (u, v).

    Content and out channels run on [u; v]; the in channel runs on v only.
    The u rows of the out channel carry the adjusted extra term against
    v's incoming neighborhood (M^T)_v.
    """
    u_idx = np.asarray(u_idx, dtype=np.int64)
    v_idx = np.asarray(v_idx, dtype=np.int64)
    both = np.concatenate([u_idx, v_idx])
    in_v = _batch(MT[v_idx])
    return {
        "content": _batch(AD[both]),
        "out": _batch(M[both], extra=(slice(0, len(u_idx)), in_v.target)),
        "in": in_v,
    }


def _run_batches(model: DiagramModel, batches: dict[str, _ChannelBatch], mu: float,
                 dropout: float = 0.0, rng: np.random.Generator | None = None,
                 with_grad: bool = False) -> float:
    total = 0.0
    for channel in CHANNELS:  # fixed order keeps rng consumption reproducible
        cb = batches.get(channel)
        if cb is None:
            continue
        emb, recon, steps = model._forward(channel, cb.x, dropout, rng)
        loss, grad = masked_sq_error(recon, cb.target, penalty_weights(cb.target), mu)
        if cb.extra is not None:
            rows, target2 = cb.extra
            extra_loss, extra_grad = masked_sq_error(recon[rows], target2,
                                                     penalty_weights(target2), mu)
            loss += extra_loss
            if with_grad:
                grad[rows] += extra_grad
        total += loss
        if with_grad:
            model._backward(steps, grad)
    return total


# -- training ---------------------------------------------------------------


@dataclass
class TrainResult:
    model: DiagramModel
    embeddings: EmbeddingSet
    loss_trace: list[float]
    variant: str
    config: dict = field(default_factory=dict)


def _graph_tensors(graph: DirectedGraph, features: FeatureMatrix):
    """The channel inputs as CSR matrices: M, M^T and [A | D]."""
    if features.node_count != graph.node_count:
        raise TrainingError(
            f"feature rows ({features.node_count}) != nodes ({graph.node_count})"
        )
    AD = sp.hstack([build_undirected_union(graph), features.values], format="csr",
                   dtype=np.float64)
    return graph.out_adjacency, graph.in_adjacency, AD


def compute_embeddings(model: DiagramModel, graph: DirectedGraph,
                       features: FeatureMatrix, variant: str) -> EmbeddingSet:
    """Inference-mode embeddings for every node: the encoder alone, no dropout.

    Each chunk of ``EMBED_CHUNK`` nodes feeds its CSR row slices to the
    input heads; no dense row is built.
    """
    M, MT, AD = _graph_tensors(graph, features)
    inputs = {"content": AD, "out": M, "in": MT}
    n, k = graph.node_count, model.embedding_dim
    z = np.empty((n, k))
    o = np.empty((n, k))
    i = np.empty((n, k))
    for start in range(0, n, EMBED_CHUNK):
        rows = slice(start, min(start + EMBED_CHUNK, n))
        for channel, out in zip(CHANNELS, (z, o, i)):
            out[rows] = model._encode(channel, CSRRows(inputs[channel][rows]), [])
    return EmbeddingSet(z, o, i, list(graph.node_ids), variant,
                        dataset_fingerprint(graph, features))


def _fit(model: DiagramModel, items: np.ndarray, assemble, epochs: int,
         cfg: TrainConfig, rng: np.random.Generator) -> list[float]:
    """The mini-batch loop both trainers share; returns the loss trace.

    Each epoch visits ``items`` in one fresh ``rng`` permutation, in slices
    of ``cfg.batch_size``; ``assemble(slice)`` builds the channel batches.
    The trainers' assemblers look up ``_node_batches``/``_edge_batches``
    when called, so wrappers set on those module attributes see every
    batch. A trace entry is the epoch's summed loss divided by ``len(items)``.
    """
    opt = Adam(cfg.learning_rate)
    count = len(items)
    trace = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(count)
        total = 0.0
        for b, start in enumerate(range(0, count, cfg.batch_size)):
            chunk = items[order[start:start + cfg.batch_size]]
            model.zero_grad()
            batches = assemble(chunk)
            loss = _run_batches(model, batches, cfg.mu, dropout=cfg.dropout, rng=rng,
                                with_grad=True)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {b}")
            opt.step(model.parameters(), model.gradients())
            total += loss
        trace.append(total / count)
    return trace


def _fit_node_model(M, MT, AD, feature_dim: int,
                    cfg: TrainConfig) -> tuple[DiagramModel, list[float]]:
    """A fresh node model fitted on the channel inputs; returns it and its loss trace."""
    n = M.shape[0]
    rng = np.random.default_rng(cfg.seed)
    model = DiagramModel(n, feature_dim, cfg.trunk_dims, cfg.embedding_dim, rng)
    epochs = DEFAULT_NODE_EPOCHS if cfg.epochs is None else cfg.epochs
    trace = _fit(model, np.arange(n), lambda idx: _node_batches(idx, M, MT, AD),
                 epochs, cfg, rng)
    return model, trace


def train_node_model(graph: DirectedGraph, features: FeatureMatrix,
                     cfg: TrainConfig) -> TrainResult:
    """Mini-batch training over nodes; returns model, embeddings, loss trace."""
    model, trace = _fit_node_model(*_graph_tensors(graph, features), features.dim, cfg)
    emb = compute_embeddings(model, graph, features, "node")
    return TrainResult(model, emb, trace, "node", cfg.as_dict())


def train_edge_model(graph: DirectedGraph, features: FeatureMatrix, cfg: TrainConfig,
                     node_epochs: int | None = None) -> TrainResult:
    """Edge-iteration training with the adjusted incoming-target trick.

    The edge model always starts from a node model. With ``cfg.transfer_from``
    set it starts from a copy of that model; otherwise a node model is first
    fitted here for ``node_epochs`` epochs (None: ``DEFAULT_NODE_EPOCHS``) and
    trained on in place, with no node embeddings computed. The edge stage
    runs ``cfg.epochs`` epochs (None: ``DEFAULT_EDGE_EPOCHS``); the loss
    trace is the edge stage's.
    """
    if graph.edge_count == 0:
        raise TrainingError("edge model needs at least one edge")
    M, MT, AD = _graph_tensors(graph, features)
    if cfg.transfer_from is None:
        model = _fit_node_model(M, MT, AD, features.dim, replace(cfg, epochs=node_epochs))[0]
    else:
        model = cfg.transfer_from.copy()
        expected = (graph.node_count, features.dim, tuple(cfg.trunk_dims), cfg.embedding_dim)
        got = (model.node_count, model.feature_dim, model.trunk_dims, model.embedding_dim)
        if expected != got:
            raise TrainingError(
                f"transfer model architecture {got} does not match requested {expected}")
    rng = np.random.default_rng(cfg.seed)
    epochs = DEFAULT_EDGE_EPOCHS if cfg.epochs is None else cfg.epochs
    trace = _fit(model, graph.edge_list,
                 lambda rows: _edge_batches(rows[:, 0], rows[:, 1], M, MT, AD),
                 epochs, cfg, rng)
    emb = compute_embeddings(model, graph, features, "edge")
    return TrainResult(model, emb, trace, "edge", {**cfg.as_dict(), "transfer_from": True})


# -- model checkpoints -------------------------------------------------------


def _transposed(model: DiagramModel) -> set[str]:
    """Weights held (in, out) in memory; checkpoints store every W as (out, in)."""
    return {f"{name}.W" for name, layer in model.named_layers() if layer.sparse_input}


def save_model(path, model: DiagramModel, meta: dict | None = None) -> None:
    """Write the parameters and architecture, every W as (out, in), atomically."""
    header = {
        "kind": "diagram-model",
        "node_count": model.node_count,
        "feature_dim": model.feature_dim,
        "trunk_dims": list(model.trunk_dims),
        "embedding_dim": model.embedding_dim,
    }
    header.update(meta or {})
    flip = _transposed(model)
    tensors = {name: np.ascontiguousarray(arr.T) if name in flip else arr
               for name, arr in model.parameters().items()}
    nn.save_checkpoint(path, tensors, header)


def load_model(path):
    """Inverse of :func:`save_model`; returns (model, meta)."""
    tensors, meta = nn.load_checkpoint(path)
    if meta.get("kind") != "diagram-model":
        raise EmbeddingFormatError(f"{path} is not a model checkpoint")
    try:
        model = DiagramModel(meta["node_count"], meta["feature_dim"],
                             tuple(meta["trunk_dims"]), meta["embedding_dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise EmbeddingFormatError(f"{path}: bad model header: {exc!r}") from exc
    params, flip = model.parameters(), _transposed(model)
    if set(params) != set(tensors):
        raise EmbeddingFormatError(f"{path}: tensor names do not match architecture")
    for name, arr in tensors.items():
        dst = params[name].T if name in flip else params[name]
        if dst.shape != arr.shape:
            raise EmbeddingFormatError(f"{path}: shape mismatch for {name}")
        dst[...] = arr
    return model, meta


# -- embedding files ---------------------------------------------------------

_TEXT_MAGIC = "DIAGRAM v1"
_BIN_MAGIC = b"DGRMEMB1"


def export_embeddings(emb: EmbeddingSet, path, fmt: str = "text") -> None:
    """Write an embedding set; ``fmt`` is "text" or "binary".

    Text: header ``DIAGRAM v1 <n> <k> <variant> <fingerprint>`` followed by
    one ``<id> <z..> <o..> <i..>`` line per node (full float64 precision).
    Binary: magic + length-prefixed JSON header + raw little-endian
    float64 blocks for z, o, i (bit-exact round-trip).
    """
    if fmt == "text":
        fp = emb.fingerprint or "-"
        row = " ".join(["%.17g"] * (3 * emb.k)) + "\n"

        def write_rows(fh):
            fh.write(f"{_TEXT_MAGIC} {emb.n} {emb.k} {emb.variant} {fp}\n".encode("utf-8"))
            for nid, vals in zip(emb.node_ids, np.hstack([emb.z, emb.o, emb.i])):
                fh.write((nid + " " + row % tuple(vals.tolist())).encode("utf-8"))
        atomic_write(path, write_rows)
    elif fmt == "binary":
        header = json.dumps({
            "n": emb.n, "k": emb.k, "variant": emb.variant,
            "fingerprint": emb.fingerprint, "node_ids": emb.node_ids,
        }, sort_keys=True).encode("utf-8")
        blocks = [struct.pack("<Q", len(header)), header]
        for mat in (emb.z, emb.o, emb.i):
            raw = np.ascontiguousarray(mat, dtype="<f8").tobytes()
            blocks.append(struct.pack("<Q", len(raw)))
            blocks.append(raw)
        atomic_write(path, _BIN_MAGIC + b"".join(blocks))
    else:
        raise ValueError(f"unknown embedding format {fmt!r}")


def _import_text(raw: bytes, path) -> EmbeddingSet:
    """Split lines at LF, CR or CRLF and fields at ASCII whitespace, as the
    dataset loader does, so every id it accepts comes back whole."""
    lines = raw.splitlines()
    if not lines:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    head = lines[0].split()
    if len(head) < 6 or b" ".join(head[:2]) != _TEXT_MAGIC.encode():
        raise EmbeddingFormatError(f"{path}: bad header {lines[0]!r}")
    try:
        n, k = int(head[2]), int(head[3])
        variant, fingerprint = head[4].decode("utf-8"), head[5].decode("utf-8")
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise EmbeddingFormatError(f"{path}: bad header {lines[0]!r}: {exc}") from exc
    if n < 0 or k < 0:
        raise EmbeddingFormatError(f"{path}: negative n or k in header {lines[0]!r}")
    if fingerprint == "-":
        fingerprint = ""
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != n:
        raise EmbeddingFormatError(f"{path}: expected {n} rows, found {len(body)}")
    if 3 * n * k > len(raw):  # each value takes a byte: bounds the allocation
        raise EmbeddingFormatError(f"{path}: header n={n}, k={k} exceeds the file size")
    ids = []
    z = np.empty((n, k))
    o = np.empty((n, k))
    i = np.empty((n, k))
    for r, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 1 + 3 * k:
            raise EmbeddingFormatError(
                f"{path}: row {r} has {len(parts) - 1} values, header says k={k}"
            )
        try:
            ids.append(parts[0].decode("utf-8"))
            vals = np.array([float(tok) for tok in parts[1:]])
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}: row {r}: {exc}") from exc
        z[r], o[r], i[r] = vals[:k], vals[k:2 * k], vals[2 * k:]
    return EmbeddingSet(z, o, i, ids, variant, fingerprint)


def _import_binary(raw: bytes, path) -> EmbeddingSet:
    def take(buf, off, size):
        if off + size > len(buf):
            raise EmbeddingFormatError(f"{path}: truncated embedding file")
        return buf[off:off + size], off + size

    off = len(_BIN_MAGIC)
    chunk, off = take(raw, off, 8)
    hlen = struct.unpack("<Q", chunk)[0]
    chunk, off = take(raw, off, hlen)
    try:
        header = json.loads(chunk.decode("utf-8"))
        n, k = header["n"], header["k"]
        node_ids, variant = list(header["node_ids"]), header["variant"]
    except (ValueError, KeyError, TypeError) as exc:
        raise EmbeddingFormatError(f"{path}: bad binary header: {exc!r}") from exc
    if not (isinstance(n, int) and isinstance(k, int) and n >= 0 and k >= 0):
        raise EmbeddingFormatError(f"{path}: bad n={n!r} or k={k!r} in binary header")
    mats = []
    for _ in range(3):
        chunk, off = take(raw, off, 8)
        blen = struct.unpack("<Q", chunk)[0]
        if blen != n * k * 8:
            raise EmbeddingFormatError(
                f"{path}: block length {blen} inconsistent with n={n}, k={k}"
            )
        chunk, off = take(raw, off, blen)
        mats.append(np.frombuffer(chunk, dtype="<f8").reshape(n, k).copy())
    try:
        return EmbeddingSet(mats[0], mats[1], mats[2], node_ids, variant,
                            header.get("fingerprint", ""))
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: {exc}") from exc


def import_embeddings(path) -> EmbeddingSet:
    """Read an embedding set written by :func:`export_embeddings`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(_BIN_MAGIC):
        return _import_binary(raw, path)
    return _import_text(raw, path)
