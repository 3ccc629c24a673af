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
store every W as (out, in). The same CSR rows are the reconstruction
targets, so a training step makes no dense copy of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .data import DirectedGraph, FeatureMatrix, build_undirected_union, dataset_fingerprint
from .exceptions import EmbeddingFormatError, TrainingError
from .nn import Adam, CSRRows, Linear, atomic_write, dropout_mask, masked_sq_error

CHANNELS = ("content", "out", "in")
# The input and reconstruction heads each channel runs: "<head>_head" and
# "<head>_recon". The two directed channels share theirs.
HEAD = {"content": "content", "out": "directed", "in": "directed"}

# Names only: a caller looks its trainer up as a module attribute when it runs.
VARIANTS = ("node", "edge")
DEFAULT_TRUNK = (512, 256)
DEFAULT_EMBEDDING_DIM = 128
DEFAULT_NODE_EPOCHS = 30
DEFAULT_EDGE_EPOCHS = 2
# Version of the npz container that checkpoints and binary embeddings share.
ARCHIVE_VERSION = 1


def _integer(what: str, value, least: int, error=ValueError) -> int:
    """``value`` as a plain int. Anything but an int or numpy integer of at
    least ``least`` is refused, a bool too, before any work: nothing is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{what} must be >= {least}, got {value}")
    return int(value)


def _real(value) -> bool:
    """Whether ``value`` is an int, float or numpy real number; a bool is not."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _trunk(trunk_dims) -> tuple[int, ...]:
    """``trunk_dims`` as a nonempty tuple of plain ints, each at least 1.
    A str or bytes is refused, not read character by character."""
    try:
        entries = None if isinstance(trunk_dims, (str, bytes)) else tuple(trunk_dims)
    except TypeError:
        entries = None
    if entries is None:
        raise ValueError(f"trunk_dims must be an iterable of integers, got {trunk_dims!r}")
    trunk = tuple(_integer("trunk_dims entry", t, 1) for t in entries)
    if not trunk:
        raise ValueError("trunk_dims must not be empty")
    return trunk


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
        if self.epochs is not None:
            self.epochs = _integer("epochs", self.epochs, 0)
        self.batch_size = _integer("batch_size", self.batch_size, 1)
        self.seed = _integer("seed", self.seed, 0)
        self.embedding_dim = _integer("embedding_dim", self.embedding_dim, 1)
        self.trunk_dims = _trunk(self.trunk_dims)
        if not (_real(self.learning_rate) and 0.0 < self.learning_rate < np.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (_real(self.dropout) and 0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if not (_real(self.mu) and 1.0 < self.mu < np.inf):
            raise ValueError("mu must be > 1 and finite")
        if not (self.transfer_from is None or isinstance(self.transfer_from, DiagramModel)):
            raise ValueError("transfer_from must be None or a DiagramModel, "
                             f"not {type(self.transfer_from).__name__}")

    def as_dict(self) -> dict:
        return {**self.__dict__, "trunk_dims": list(self.trunk_dims),
                "transfer_from": self.transfer_from is not None}


class DiagramModel:
    """The shared autoencoder: per-channel heads around a common trunk.

    ``layers`` maps each layer's name to its ``Linear``; the trunk lists hold
    the same objects in the order they run.
    """

    def __init__(self, node_count: int, feature_dim: int,
                 trunk_dims: tuple[int, ...] = DEFAULT_TRUNK,
                 embedding_dim: int = DEFAULT_EMBEDDING_DIM,
                 rng: np.random.Generator | None = None):
        self.node_count = _integer("node_count", node_count, 1)
        self.feature_dim = _integer("feature_dim", feature_dim, 0)
        self.trunk_dims = _trunk(trunk_dims)
        self.embedding_dim = _integer("embedding_dim", embedding_dim, 1)

        n, d, t, k = self.node_count, self.feature_dim, self.trunk_dims, self.embedding_dim

        # One table of every layer, in creation order: that order fixes the rng
        # draws of a seeded initialization and the order of parameters(),
        # Adam's sweep and the checkpoint's entries. A size too large for a
        # float, for numpy or for memory fails here, as one TrainingError.
        dec = (k,) + tuple(reversed(t))
        try:
            self.layers = {
                "content_head": Linear(n + d, t[0], rng, sparse_input=True),
                "directed_head": Linear(n, t[0], rng, sparse_input=True),
                **{f"enc_trunk.{i}": Linear(t[i], t[i + 1], rng) for i in range(len(t) - 1)},
                "embed": Linear(t[-1], k, rng),
                **{f"dec_trunk.{i}": Linear(dec[i], dec[i + 1], rng) for i in range(len(t))},
                "content_recon": Linear(t[0], n + d, rng),
                "directed_recon": Linear(t[0], n, rng),
            }
        except (OverflowError, MemoryError, ValueError) as exc:
            raise TrainingError(f"cannot build a model with n={n}, d={d}, "
                                f"trunk={','.join(map(str, t))}, k={k}: {exc}") from exc
        self.encoder_trunk = [self.layers[f"enc_trunk.{i}"] for i in range(len(t) - 1)]
        self.decoder_trunk = [self.layers[f"dec_trunk.{i}"] for i in range(len(t))]

    def named_layers(self):
        return self.layers.items()

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"{name}.{p}": getattr(layer, p)
                for name, layer in self.layers.items() for p in ("W", "b")}

    def gradients(self) -> dict[str, np.ndarray]:
        """Every gradient as a dense array; the input heads build theirs on read."""
        return {f"{name}.{p}": getattr(layer, f"grad_{p}")
                for name, layer in self.layers.items() for p in ("W", "b")}

    def _step_gradients(self) -> dict:
        """The gradients as ``Adam.step`` takes them, built by no copy: each
        input head's weight gradient is its packed (rows, values) pair."""
        return {f"{name}.{p}": getattr(layer, "step_grad_W" if p == "W" else "grad_b")
                for name, layer in self.layers.items() for p in ("W", "b")}

    def zero_grad(self) -> None:
        for layer in self.layers.values():
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
        cache, dropout record) to ``steps`` for the backward pass. Dropout at
        rate ``dropout`` is applied to every encoder activation (head output
        and each encoder-trunk output), never to inputs or the embedding.
        """
        h = _run(self.layers[f"{HEAD[channel]}_head"], x, steps, dropout, rng)
        for layer in self.encoder_trunk:
            h = _run(layer, h, steps, dropout, rng)
        return _run(self.layers["embed"], h, steps)

    def _forward(self, channel: str, x: CSRRows, dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        """Run one channel; returns (embedding, reconstruction, backward ctx).

        The decoder side (decoder trunk and reconstruction head) takes no
        dropout. The embedding and reconstruction are cached layer outputs,
        which ``_backward`` overwrites.
        """
        steps = []
        emb = self._encode(channel, x, steps, dropout, rng)
        h = emb
        for layer in self.decoder_trunk:
            h = _run(layer, h, steps)
        recon = _run(self.layers[f"{HEAD[channel]}_recon"], h, steps)
        return emb, recon, steps

    def _backward(self, steps, d: np.ndarray) -> None:
        """Backward through ``steps`` from ``d``, the loss gradient w.r.t. the reconstruction.

        Pops each layer's step as its backward runs, so ``steps`` ends empty
        and a spent cache is freed once nothing else holds it. Dropout is
        undone in place, in the gradient the layer above returned, since
        the reconstruction layer that ``d`` enters takes none.
        """
        while steps:
            layer, cache, dropped = steps.pop()
            if dropped is not None:
                keep, scale = dropped
                d *= keep  # exact, so d rounds once, as the forward's output does
                d *= scale
            d = layer.backward(cache, d)


def _run(layer: Linear, h: np.ndarray, steps: list, dropout: float = 0.0,
         rng: np.random.Generator | None = None) -> np.ndarray:
    """One layer's forward, then dropout at rate ``dropout`` if it is positive.

    The step records its draw, the kept entries, and the scale
    ``1/(1-dropout)``; ``out * keep`` is exact, so an entry rounds once.
    """
    out, cache = layer.forward(h)
    dropped = None
    if dropout > 0.0:
        keep, scale = dropout_mask(out.shape, dropout, rng), 1.0 / (1.0 - dropout)
        out = out * keep
        out *= scale
        dropped = keep, scale
    steps.append((layer, cache, dropped))
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


def penalty_weights(target: sp.csr_matrix) -> np.ndarray:
    """Which stored entries of ``target`` are > 0: there the loss weighs errors by mu."""
    return target.data > 0


@dataclass
class _ChannelBatch:
    rows: sp.csr_matrix  # the input rows, which are also the reconstruction target
    # Optional second target for the first extra.shape[0] rows of the same
    # reconstruction: the edge model's adjusted term.
    extra: sp.csr_matrix | None = None


def _node_batches(idx, inputs: dict[str, sp.csr_matrix]) -> dict[str, _ChannelBatch]:
    idx = np.asarray(idx, dtype=np.int64)
    return {c: _ChannelBatch(rows[idx]) for c, rows in inputs.items()}


def _edge_batches(u_idx, v_idx, inputs: dict[str, sp.csr_matrix]) -> dict[str, _ChannelBatch]:
    """Batched edge-model targets for edges (u, v).

    Content and out channels run on [u; v]; the in channel runs on v only.
    The u rows of the out channel carry the adjusted extra term against
    v's incoming neighborhood (M^T)_v, the in channel's own rows.
    """
    both = np.concatenate([u_idx, v_idx])
    in_v = inputs["in"][v_idx]
    return {
        "content": _ChannelBatch(inputs["content"][both]),
        "out": _ChannelBatch(inputs["out"][both], extra=in_v),
        "in": _ChannelBatch(in_v),
    }


def _channel_loss(recon: np.ndarray, cb: _ChannelBatch, mu: float) -> tuple[float, np.ndarray]:
    """One channel's loss and its gradient w.r.t. the reconstruction ``recon``."""
    loss, grad = masked_sq_error(recon, cb.rows, penalty_weights(cb.rows), mu)
    if cb.extra is not None:
        extra_loss, extra_grad = masked_sq_error(recon[:cb.extra.shape[0]], cb.extra,
                                                 penalty_weights(cb.extra), mu)
        loss += extra_loss
        grad[:cb.extra.shape[0]] += extra_grad
    return loss, grad


def _run_batches(model: DiagramModel, batches: dict[str, _ChannelBatch], mu: float,
                 dropout: float, rng: np.random.Generator | None) -> float:
    """Forward, loss and backward of every channel of one step; returns the summed loss.

    A channel's reconstruction, loss gradient and caches are dropped once
    its backward has run, so the next channel's forward runs without them.
    """
    total = 0.0
    for channel in CHANNELS:  # fixed order keeps rng consumption reproducible
        cb = batches[channel]
        recon, steps = model._forward(channel, CSRRows(cb.rows), dropout, rng)[1:]
        loss, grad = _channel_loss(recon, cb, mu)
        total += loss
        model._backward(steps, grad)  # empties steps
        del recon, grad
    return total


# -- training ---------------------------------------------------------------


@dataclass
class TrainResult:
    model: DiagramModel
    embeddings: EmbeddingSet
    loss_trace: list[float]
    config: dict = field(default_factory=dict)


def _graph_tensors(graph: DirectedGraph, features: FeatureMatrix) -> dict[str, sp.csr_matrix]:
    """The channel inputs as CSR matrices, in ``CHANNELS`` order: [A | D], M and M^T."""
    if features.node_count != graph.node_count:
        raise TrainingError(
            f"feature rows ({features.node_count}) != nodes ({graph.node_count})"
        )
    AD = sp.hstack([build_undirected_union(graph), features.values], format="csr",
                   dtype=np.float64)
    return dict(zip(CHANNELS, (AD, graph.out_adjacency, graph.in_adjacency)))


def compute_embeddings(model: DiagramModel, graph: DirectedGraph,
                       features: FeatureMatrix, variant: str) -> EmbeddingSet:
    """Inference-mode embeddings for every node: the encoder alone, no dropout.

    Each channel's encoder runs once over that channel's whole CSR input;
    no dense row is built.
    """
    z, o, i = (model._encode(channel, CSRRows(rows), [])
               for channel, rows in _graph_tensors(graph, features).items())
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
    The gradient buffers and Adam's moments live only while the fit runs:
    before it returns, every layer releases its gradients, so the fitted
    model holds its parameters alone, as a loaded one does.
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
            loss = _run_batches(model, assemble(chunk), cfg.mu, cfg.dropout, rng)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {b}")
            opt.step(model.parameters(), model._step_gradients())
            total += loss
        trace.append(total / count)
    for layer in model.layers.values():
        layer.release_grad()
    return trace


def train_node_model(graph: DirectedGraph, features: FeatureMatrix,
                     cfg: TrainConfig) -> TrainResult:
    """Mini-batch training over nodes; returns model, embeddings, loss trace.

    A set ``cfg.transfer_from`` is refused: it applies to the edge model only."""
    if cfg.transfer_from is not None:
        raise TrainingError("transfer_from applies to the edge model only")
    inputs = _graph_tensors(graph, features)
    n = graph.node_count
    rng = np.random.default_rng(cfg.seed)
    model = DiagramModel(n, features.dim, cfg.trunk_dims, cfg.embedding_dim, rng)
    epochs = DEFAULT_NODE_EPOCHS if cfg.epochs is None else cfg.epochs
    trace = _fit(model, np.arange(n), lambda idx: _node_batches(idx, inputs),
                 epochs, cfg, rng)
    emb = compute_embeddings(model, graph, features, "node")
    return TrainResult(model, emb, trace, cfg.as_dict())


def train_edge_model(graph: DirectedGraph, features: FeatureMatrix,
                     cfg: TrainConfig) -> TrainResult:
    """Edge-iteration training with the adjusted incoming-target trick.

    The edge model always starts from a node model. With ``cfg.transfer_from``
    set it starts from a copy of that model; otherwise ``train_node_model``
    first fits one for ``DEFAULT_NODE_EPOCHS`` epochs, which is trained on
    in place. For another node-stage length, train the node model first and
    pass it as ``transfer_from``. The edge stage runs ``cfg.epochs`` epochs
    (None: ``DEFAULT_EDGE_EPOCHS``); the loss trace is the edge stage's.
    """
    if graph.edge_count == 0:
        raise TrainingError("edge model needs at least one edge")
    inputs = _graph_tensors(graph, features)
    if cfg.transfer_from is None:
        model = train_node_model(graph, features, replace(cfg, epochs=None)).model
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
                 lambda rows: _edge_batches(rows[:, 0], rows[:, 1], inputs),
                 epochs, cfg, rng)
    emb = compute_embeddings(model, graph, features, "edge")
    return TrainResult(model, emb, trace, {**cfg.as_dict(), "transfer_from": True})


# -- npz archives: model checkpoints and binary embeddings ---------------------


def _write_archive(path, kind: str, arrays: dict, meta: dict) -> None:
    """Write ``arrays`` atomically to an npz archive with a JSON ``__meta__``
    header: version and ``kind``, then ``meta``, whose keys override those."""
    header = {"version": ARCHIVE_VERSION, "kind": kind, **meta}
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = {**arrays, "__meta__": np.frombuffer(raw, dtype=np.uint8)}
    # np.savez gets the open file: it appends ".npz" to a path that lacks it
    atomic_write(path, lambda fh: np.savez(fh, **payload))


def _read_archive(path, kind: str, what: str) -> tuple[dict, dict]:
    """(arrays, header) of a :func:`_write_archive` file; ``what`` names it in errors."""
    # zipfile and numpy fail on a corrupt file in many ways, MemoryError included
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            arrays = {k: npz[k] for k in npz.files}
    except Exception as exc:
        raise EmbeddingFormatError(f"cannot read {what} {path}: {exc}") from exc
    for name, arr in arrays.items():  # np.load gives a member that is not .npy as bytes
        if not isinstance(arr, np.ndarray):
            raise EmbeddingFormatError(f"{what} {path}: entry {name!r} is not a .npy array")
    raw = arrays.pop("__meta__", None)
    if raw is None:
        raise EmbeddingFormatError(f"{what} {path} has no meta block")
    try:
        meta = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise EmbeddingFormatError(f"{what} {path} has a bad meta block: {exc}") from exc
    if not isinstance(meta, dict):
        raise EmbeddingFormatError(f"{what} {path} meta block is not an object")
    if meta.get("version") != ARCHIVE_VERSION:
        raise EmbeddingFormatError(
            f"{what} {path} has version {meta.get('version')}, expected {ARCHIVE_VERSION}")
    if meta.get("kind") != kind:
        raise EmbeddingFormatError(f"{path} is not a {what}")
    return arrays, meta


def _transposed(model: DiagramModel) -> set[str]:
    """Weights held (in, out) in memory; checkpoints store every W as (out, in)."""
    return {f"{name}.W" for name, layer in model.named_layers() if layer.sparse_input}


def save_model(path, model: DiagramModel, meta: dict | None = None) -> None:
    """Write the parameters, every W as (out, in), atomically to an npz archive.

    Its header holds version, kind and architecture, then ``meta``, whose
    keys override those.
    """
    flip = _transposed(model)
    _write_archive(path, "diagram-model",
                   {name: np.ascontiguousarray(arr.T) if name in flip else arr
                    for name, arr in model.parameters().items()},
                   {"node_count": model.node_count, "feature_dim": model.feature_dim,
                    "trunk_dims": list(model.trunk_dims),
                    "embedding_dim": model.embedding_dim, **(meta or {})})


def load_model(path):
    """Inverse of :func:`save_model`; returns (model, meta)."""
    tensors, meta = _read_archive(path, "diagram-model", "checkpoint")
    try:
        model = DiagramModel(meta["node_count"], meta["feature_dim"],
                             meta["trunk_dims"], meta["embedding_dim"])
    except Exception as exc:
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


def export_embeddings(emb: EmbeddingSet, path, fmt: str = "text") -> None:
    """Write an embedding set; ``fmt`` is "text" or "binary".

    Text: header ``DIAGRAM v1 <n> <k> <variant> <fingerprint>`` followed by
    one ``<id> <z..> <o..> <i..>`` line per node (full float64 precision).
    A ValueError refuses, before writing, what its reader cannot give back:
    an empty id or variant, a fingerprint ``-``, or ASCII whitespace in any.
    Binary: an npz archive, readable by ``np.load``, with float64 entries
    ``z``, ``o`` and ``i`` and a JSON ``__meta__`` header holding version,
    kind, variant, fingerprint and node ids (bit-exact round-trip).
    """
    if fmt == "text":
        if emb.fingerprint == "-":
            raise ValueError("text export cannot write fingerprint '-': it reads back as none")
        fp = emb.fingerprint or "-"
        for what, value in [("variant", emb.variant), ("fingerprint", fp),
                            *(("node id", nid) for nid in emb.node_ids)]:
            raw = value.encode("utf-8")
            if raw.split() != [raw]:  # empty, or more than one field
                raise ValueError(f"text export cannot write {what} {value!r}: "
                                 "it is empty or holds ASCII whitespace")
        row = " ".join(["%.17g"] * (3 * emb.k)) + "\n"

        def write_rows(fh):
            fh.write(f"{_TEXT_MAGIC} {emb.n} {emb.k} {emb.variant} {fp}\n".encode("utf-8"))
            for nid, vals in zip(emb.node_ids, np.hstack([emb.z, emb.o, emb.i])):
                fh.write((nid + " " + row % tuple(vals.tolist())).encode("utf-8"))
        atomic_write(path, write_rows)
    elif fmt == "binary":
        _write_archive(path, "diagram-embeddings",
                       {c: np.asarray(getattr(emb, c), dtype=np.float64) for c in "zoi"},
                       {"variant": emb.variant, "fingerprint": emb.fingerprint,
                        "node_ids": emb.node_ids})
    else:
        raise ValueError(f"unknown embedding format {fmt!r}")


def _import_text(raw: bytes, path) -> EmbeddingSet:
    """Split lines at LF, CR or CRLF and fields at ASCII whitespace, as the
    dataset loader does, so every id it accepts comes back whole."""
    lines = raw.splitlines()
    if not lines:
        raise EmbeddingFormatError(f"{path}: empty embedding file")
    head = lines[0].split()
    if len(head) != 6 or b" ".join(head[:2]) != _TEXT_MAGIC.encode():
        raise EmbeddingFormatError(f"{path}: bad header {lines[0][:80]!r}")
    try:
        n, k = int(head[2]), int(head[3])
        variant, fingerprint = head[4].decode("utf-8"), head[5].decode("utf-8")
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise EmbeddingFormatError(f"{path}: bad header {lines[0]!r}: {exc}") from exc
    if n < 0 or k < 0:
        raise EmbeddingFormatError(f"{path}: negative n or k in header {lines[0]!r}")
    if fingerprint == "-":
        fingerprint = ""
    body = [(no, ln) for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != n:
        raise EmbeddingFormatError(f"{path}: expected {n} rows, found {len(body)}")
    if 3 * n * k > len(raw):  # each value takes a byte: bounds the allocation
        raise EmbeddingFormatError(f"{path}: header n={n}, k={k} exceeds the file size")
    ids = []
    try:  # with n = 0 the bound above holds for any k, and numpy caps k
        z, o, i = (np.empty((n, k)) for _ in range(3))
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: header n={n}, k={k}: {exc}") from exc
    for r, (no, ln) in enumerate(body):
        parts = ln.split()
        if len(parts) != 1 + 3 * k:
            raise EmbeddingFormatError(
                f"{path}:{no}: {len(parts) - 1} values, header says k={k}")
        try:
            ids.append(parts[0].decode("utf-8"))
            vals = np.array([float(tok) for tok in parts[1:]])
        except ValueError as exc:
            raise EmbeddingFormatError(f"{path}:{no}: {exc}") from exc
        z[r], o[r], i[r] = vals[:k], vals[k:2 * k], vals[2 * k:]
    return EmbeddingSet(z, o, i, ids, variant, fingerprint)


def import_embeddings(path) -> EmbeddingSet:
    """Read a set written by :func:`export_embeddings`, refusing NaN and infinite entries."""
    with open(path, "rb") as fh:
        raw = fh.read(2)
        text = raw + fh.read() if raw != b"PK" else None  # an npz archive starts with "PK"
    emb = _import_binary(path) if text is None else _import_text(text, path)
    finite = np.logical_and.reduce([np.isfinite(m).all(axis=1) for m in (emb.z, emb.o, emb.i)])
    if not finite.all():
        raise EmbeddingFormatError(f"{path}: non-finite value for node "
                                   f"{emb.node_ids[int(np.argmin(finite))]!r}")
    return emb


def _import_binary(path) -> EmbeddingSet:
    arrays, meta = _read_archive(path, "diagram-embeddings", "binary embedding file")
    if sorted(arrays) != ["i", "o", "z"] or any(a.ndim != 2 or a.dtype != np.float64
                                                 for a in arrays.values()):
        raise EmbeddingFormatError(f"{path}: needs entries z, o and i only, each 2-D float64")
    ids, variant, fingerprint = (meta.get(key) for key in ("node_ids", "variant", "fingerprint"))
    if not (isinstance(ids, list) and all(isinstance(nid, str) for nid in ids)
            and isinstance(variant, str) and isinstance(fingerprint, str)):
        raise EmbeddingFormatError(f"{path}: bad binary header: needs node_ids, a list "
                                   "of strings, and variant and fingerprint strings")
    try:
        return EmbeddingSet(arrays["z"], arrays["o"], arrays["i"], ids, variant, fingerprint)
    except ValueError as exc:
        raise EmbeddingFormatError(f"{path}: bad binary header: {exc!r}") from exc
