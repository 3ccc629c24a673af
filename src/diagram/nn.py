"""Minimal NN core with hand-written reverse-mode gradients.

Everything runs in float64: the datasets are small enough that memory is
a non-issue and the gradient checks need the precision. The architecture
is fixed upstream, so layers expose an explicit (cache in, gradient out)
backward instead of a general autodiff graph. Layers fed data rows take
them as scipy CSR matrices (``CSRRows``); every other tensor is dense.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import scipy.sparse as sp

from .exceptions import TrainingError

ROW_BLOCK = 256  # rows of grad_W that one blocked gradient product covers


def glorot_uniform(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


class CSRRows:
    """A batch of input rows held as a scipy CSR matrix; ``len()`` is the row count."""

    __slots__ = ("csr",)

    def __init__(self, csr: sp.csr_matrix):
        self.csr = csr

    def __len__(self) -> int:
        return self.csr.shape[0]


class Linear:
    """Layer ``y = tanh(x @ W.T + b)`` over dense rows, with W stored (out, in).

    ``forward`` returns the output plus an opaque cache; ``backward``
    consumes the cache, accumulates into ``grad_W`` / ``grad_b`` and
    returns the gradient w.r.t. the input. Accumulation (rather than
    assignment) is what lets several channels share one trunk layer.
    A cache serves one ``backward``: it writes the pre-activation gradient
    over the cached output, which is the array ``forward`` returned, so
    that output must not be read once its backward has run.

    A layer built with ``sparse_input=True`` takes ``CSRRows`` and stores
    W as (in, out), so ``y = tanh(rows @ W + b)`` is one CSR-times-dense
    product. Its weight gradient ``rowsᵀ @ dz`` is nonzero only in the rows
    of W that the batch's columns touch; ``backward`` computes just those
    rows and writes them into ``grad_W``, and returns ``None``, since the
    rows are data and need no gradient. The layer remembers which rows of
    ``grad_W`` it wrote, and zeroing clears only those.

    ``zero_grad`` makes the gradient buffers if the layer holds none, and
    otherwise only marks the gradients stale. The first ``backward`` after
    it writes its products into the gradient buffers in place of adding
    them to zeros, and reading a stale gradient zeroes it first, so a
    layer no pass touched reads zero. The only difference from
    zero-then-add is that an entry can read -0.0 where it read +0.0.
    A fit calls ``zero_grad`` before each step, so its buffers are laid
    out before the first step's activations; a layer that only runs
    forward holds none. ``release_grad`` drops them and puts the layer
    back in that never-run state; a finished fit calls it, so a trained
    layer holds only its parameters.

    A later ``backward`` in the same step adds its weight gradient in
    blocks of ``ROW_BLOCK`` rows of ``grad_W``, so no weight-sized
    product exists at once. Each entry is the same dot product over the
    batch as in one unblocked product, and is added to the gradient once.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None,
                 sparse_input: bool = False):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.sparse_input = sparse_input
        if rng is None:
            self.W = np.zeros((in_dim, out_dim) if sparse_input else (out_dim, in_dim))
        elif sparse_input:
            self.W = np.ascontiguousarray(glorot_uniform(rng, out_dim, in_dim).T)
        else:
            self.W = glorot_uniform(rng, out_dim, in_dim)
        self.b = np.zeros(out_dim)
        self.release_grad()

    @property
    def grad_W(self) -> np.ndarray:
        self._settle()
        return self._grad_W

    @property
    def grad_b(self) -> np.ndarray:
        self._settle()
        return self._grad_b

    def _buffers(self) -> None:
        if self._grad_W is None:
            self._grad_W = np.zeros(self.W.shape)  # calloc'd: unwritten pages until written
            self._grad_b = np.zeros_like(self.b)

    def _settle(self) -> None:
        self._buffers()
        if self._stale:
            if self.sparse_input:
                self._grad_W[self._touched] = 0.0
                self._touched = self._touched[:0]
            else:
                self._grad_W[...] = 0.0
            self._grad_b[...] = 0.0
            self._stale = False

    def forward(self, x):
        if self.sparse_input:
            if not isinstance(x, CSRRows) or x.csr.shape[1] != self.in_dim:
                raise ValueError(f"layer ({self.in_dim} -> {self.out_dim}) takes CSRRows "
                                 f"of width {self.in_dim}")
            y = x.csr @ self.W
        else:
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2 or x.shape[1] != self.in_dim:
                raise ValueError(
                    f"input shape {x.shape} incompatible with layer "
                    f"({self.out_dim}, {self.in_dim})"
                )
            y = x @ self.W.T
        y += self.b
        np.tanh(y, out=y)
        return y, (x, y)

    def backward(self, cache, dout: np.ndarray) -> np.ndarray | None:
        x, y = cache
        if dout.shape != y.shape:
            raise ValueError(
                f"gradient shape {dout.shape} incompatible with output {y.shape}"
            )
        dz = np.multiply(y, y, out=y)  # the cache's output is spent: dz takes its buffer
        np.subtract(1.0, dz, out=dz)
        dz *= dout
        if self.sparse_input:
            self._sparse_grad(x.csr, dz)
            return None
        self._buffers()
        if self._stale:
            np.matmul(dz.T, x, out=self._grad_W)
            np.sum(dz, axis=0, out=self._grad_b)
            self._stale = False
        else:
            for lo in range(0, self.out_dim, ROW_BLOCK):
                self._grad_W[lo:lo + ROW_BLOCK] += dz[:, lo:lo + ROW_BLOCK].T @ x
            self._grad_b += dz.sum(axis=0)
        return dz @ self.W

    def _sparse_grad(self, rows: sp.csr_matrix, dz: np.ndarray) -> None:
        """Add ``rowsᵀ @ dz`` into the rows of ``grad_W`` that ``rows`` touches.

        The product is made ``ROW_BLOCK`` touched rows at a time, so no
        (touched × width) array exists at once. CSR and CSC products both
        sum each row over the batch rows in ascending order, so the blocks
        hold the same bits as one CSC product.
        """
        cols, pos = np.unique(rows.indices, return_inverse=True)
        # rowsᵀ restricted to the touched columns, renumbered 0..len(cols)-1
        touched = sp.csc_matrix((rows.data, pos.reshape(-1), rows.indptr),
                                shape=(cols.size, rows.shape[0])).tocsr()
        stale = self._stale
        self._settle()
        for lo in range(0, cols.size, ROW_BLOCK):
            block = cols[lo:lo + ROW_BLOCK]
            g = touched[lo:lo + ROW_BLOCK] @ dz
            if stale:
                self._grad_W[block] = g
            else:
                self._grad_W[block] += g
        if stale:
            np.sum(dz, axis=0, out=self._grad_b)
            self._touched = cols
        else:
            self._grad_b += dz.sum(axis=0)
            self._touched = np.union1d(self._touched, cols)

    def zero_grad(self) -> None:
        self._buffers()
        self._stale = True

    def release_grad(self) -> None:
        self._grad_W = self._grad_b = None  # made by zero_grad, or the first backward or read
        self._stale = False
        self._touched = np.empty(0, dtype=np.intp)  # sparse input: rows grad_W may hold


def masked_sq_error(pred: np.ndarray, target: sp.csr_matrix, penalised: np.ndarray,
                    mu: float):
    """Penalised squared error ``sum(((pred - target) * w) ** 2)`` and its gradient.

    ``target`` is CSR rows with no entry stored twice; ``pred`` less its
    stored entries is ``pred - target.toarray()`` bit for bit. ``w`` is
    ``mu`` at the stored entries flagged in ``penalised`` (one boolean per
    entry of ``target.data``) and 1 elsewhere. The gradient w.r.t. pred is
    ``2 * (pred - target) * w * w``, rounded as written. Besides ``pred``,
    it allocates one array of its shape and a few of the target's entry count.
    """
    buf = np.array(pred, dtype=np.float64)  # a copy: pred is the head's cached output
    if buf.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {buf.shape}, target {target.shape}")
    if np.shape(penalised) != target.data.shape:
        raise ValueError(f"penalised has shape {np.shape(penalised)}, not {target.data.shape}")
    flat = buf.reshape(-1)  # a view: buf is fresh
    starts = np.repeat(np.arange(target.shape[0]) * target.shape[1], np.diff(target.indptr))
    stored = starts + target.indices
    residual = flat[stored] - (target.data + 0.0)  # -0.0 reads +0.0, as in toarray()
    w = np.where(penalised, mu, 1.0)
    flat[stored] = residual * w
    buf *= buf
    loss = float(np.sum(buf))
    np.multiply(pred, 2.0, out=buf, dtype=np.float64)
    flat[stored] = 2.0 * residual * w * w
    return loss, buf


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout's kept entries: True with probability ``1 - rate``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return rng.random(shape) >= rate


class Adam:
    """Bias-corrected adaptive-moment optimizer, updating params in place.

    The moments are held rescaled, ``m̃ = m/(1-b1)`` and ``ṽ = v/(1-b2)``,
    so they update as ``m̃ = b1*m̃ + g`` and ``ṽ = b2*ṽ + g*g``, and both
    bias corrections fold into two scalars (Kingma & Ba 2015, section 2):
    ``p -= alpha * m̃ / (sqrt(ṽ) + eps_t)``, where ``c = sqrt(1-b2**t) /
    sqrt(1-b2)``, ``alpha = lr*(1-b1)/(1-b1**t)*c`` and ``eps_t = eps*c``.
    That is the textbook ``lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t))+eps)``
    with numerator and denominator multiplied by ``c``, so the two agree in
    exact arithmetic and differ only in rounding. A huge finite gradient
    overflows ``ṽ`` to inf and so freezes its coordinate, where the
    textbook's ``g*g - v`` is inf - inf, NaN, on the next step. The moments
    are never checkpointed.

    ``step`` sweeps each tensor in blocks of ``BLOCK`` values through two
    preallocated block-sized scratch buffers, so a step allocates nothing
    and its temporaries stay in cache. A block takes ten passes, with one
    divide and one square root, in the same correctly rounded operations
    and order as the unblocked form, so parameters and moments are
    bit-identical to it. Moments stay per-name tensors: one flat buffer
    for all parameters measured no faster.

    A step is atomic: every gradient's shape is checked, and every entry
    must be finite and at most ``GRAD_LIMIT`` in magnitude, before ``t``, a
    moment or a parameter changes. ``|m̃|`` is at most ``max|g|/(1-b1)``, so
    the limit keeps it finite.

    ``b1``, ``b2`` and ``eps`` are Kingma & Ba's defaults, held as the
    class constants ``BETA1``, ``BETA2`` and ``EPS``.
    """

    BLOCK = 1 << 15
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8
    GRAD_LIMIT = 1e306

    def __init__(self, lr: float = 1e-4):
        if not 0.0 < lr < np.inf:
            raise ValueError(f"Adam lr must be in (0, inf), got {lr!r}")
        self.lr = lr
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._buf = np.empty((2, self.BLOCK))

    def _check(self, name: str, p: np.ndarray, g: np.ndarray) -> None:
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not p.flags.c_contiguous:  # the sweep updates p through a flat view
            raise ValueError(f"parameter {name} is not C-contiguous")
        flat = g.reshape(-1)
        # A finite sum of squares means every entry is finite and below
        # about 1e154, so the entries are compared only when it is not. NaN
        # fails the comparison too.
        with np.errstate(over="ignore"):
            if np.isfinite(np.dot(flat, flat)):
                return
        if not (np.abs(flat) <= self.GRAD_LIMIT).all():
            raise TrainingError(f"gradient for parameter {name!r} is non-finite "
                                f"or above {self.GRAD_LIMIT:g} in magnitude")

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            self._check(name, p, grads[name])
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c = np.sqrt(1.0 - b2 ** self.t) / np.sqrt(1.0 - b2)
        alpha = self.lr * (1.0 - b1) / (1.0 - b1 ** self.t) * c
        eps = self.EPS * c
        for name, p in params.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            pf = p.reshape(-1)
            gf = grads[name].reshape(-1)
            mf = self._m[name].reshape(-1)
            vf = self._v[name].reshape(-1)
            for lo in range(0, pf.size, self.BLOCK):
                hi = lo + self.BLOCK
                g, m, v, q = gf[lo:hi], mf[lo:hi], vf[lo:hi], pf[lo:hi]
                a, b = self._buf[0, :g.size], self._buf[1, :g.size]
                m *= b1
                m += g
                np.multiply(g, g, out=a)
                v *= b2
                v += a
                np.sqrt(v, out=b)
                b += eps
                np.divide(m, b, out=a)
                a *= alpha
                q -= a


def finite_diff_check(loss_fn, params, grads, eps: float = 1e-5,
                      max_coords: int | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Central-difference check of analytic gradients.

    ``loss_fn`` is a zero-argument closure re-evaluating the loss from the
    current (temporarily perturbed) parameter arrays; it must be
    deterministic, so dropout has to be off. Returns the max over checked
    coordinates of ``|g_a - g_n| / max(1, |g_a|, |g_n|)``.
    """
    params = list(params)
    grads = list(grads)
    coords = [(ai, i) for ai, arr in enumerate(params) for i in range(arr.size)]
    if max_coords is not None and len(coords) > max_coords:
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in picks]
    worst = 0.0
    for ai, i in coords:
        arr = params[ai]
        orig = arr.flat[i]
        arr.flat[i] = orig + eps
        lp = loss_fn()
        arr.flat[i] = orig - eps
        lm = loss_fn()
        arr.flat[i] = orig
        g_num = (lp - lm) / (2.0 * eps)
        g_ana = grads[ai].flat[i]
        rel = abs(g_ana - g_num) / max(1.0, abs(g_ana), abs(g_num))
        worst = max(worst, rel)
    return worst


def atomic_write(path, payload) -> None:
    """Replace ``path`` by way of a temp file in its directory and a rename.

    ``payload`` is bytes, or a callable that writes to the open binary
    file. On any error the old target is left as it was and the temp file
    is removed.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            if callable(payload):
                payload(fh)
            else:
                fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
