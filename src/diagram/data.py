"""Citation-network ingestion: directed graphs, node features, labels.

Datasets follow the common two-file layout: a ``.content`` file with one
row per node (``<id> <f_1 .. f_d> <label>``) and a ``.cites`` file with
one row per citation (``<cited_id> <citing_id>``). Citation rows are
normalized to citing->cited edges; the convention is recorded in the
graph metadata so downstream direction-sensitive results are unambiguous.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .exceptions import DatasetError, FingerprintMismatchError

EDGE_DIRECTION = "citing->cited"


def _lines(path: Path):
    """Yield ``(line number, bytes)`` for each line of a file.

    Lines end at LF, CRLF or a bare CR, as in text mode. Both parsers split
    fields on ASCII whitespace only, and ids are opaque strings."""
    with open(path, "rb") as fh:
        lineno = 0
        for chunk in fh:
            for line in chunk.splitlines():
                lineno += 1
                yield lineno, line


def _text(path: Path, lineno: int, field: bytes) -> str:
    try:
        return field.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}:{lineno}: field {field!r} is not UTF-8") from exc


class DirectedGraph:
    """A directed graph with a sparse out-adjacency matrix and its transpose.

    Parameters
    ----------
    node_ids : list of str
        External id for each dense node index.
    edges : array-like of shape (m, 2)
        Directed edges as (source, target) dense-index pairs in ``0..n-1``,
        already deduplicated.
    metadata : dict, optional
        Provenance notes (edge direction convention, drop counts, ...).
    """

    def __init__(self, node_ids, edges, metadata=None):
        self.node_ids = list(node_ids)
        n = len(self.node_ids)
        if n == 0:
            raise DatasetError("graph has no nodes")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.edge_list = edges
        m = edges.shape[0]
        if m and (edges.min() < 0 or edges.max() >= n):
            raise DatasetError(f"edge endpoint outside 0..{n - 1}")
        data = np.ones(m, dtype=np.float64)
        self.out_adjacency = sp.csr_matrix(
            (data, (edges[:, 0], edges[:, 1])), shape=(n, n)
        )
        if self.out_adjacency.nnz != m:
            raise DatasetError("duplicate directed edges in edge list")
        self.in_adjacency = self.out_adjacency.T.tocsr()
        if len(set(self.node_ids)) != n:
            raise DatasetError("duplicate node ids")
        self.metadata = dict(metadata or {})

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return self.edge_list.shape[0]


@dataclass
class FeatureMatrix:
    """Node-content matrix (n x d), binary 0/1, raw counts, or TF-IDF."""

    values: sp.csr_matrix
    mode: str  # "binary" | "count" | "tfidf"

    def __post_init__(self):
        self.values = v = self.values.tocsr(copy=True)  # the caller's matrix stays as it was
        v.eliminate_zeros()
        if self.mode not in ("binary", "count", "tfidf"):
            raise DatasetError(f"unknown feature mode {self.mode!r}")
        if v.nnz:
            if not np.isfinite(v.data).all():
                raise DatasetError("non-finite feature values")
            if v.data.min() < 0:
                raise DatasetError("negative feature values")
            # Not sum_duplicates(): it would reorder entries that later bytes depend on.
            rows = np.repeat(np.arange(v.shape[0], dtype=np.int64), np.diff(v.indptr))
            flat = np.sort(rows * v.shape[1] + v.indices)
            if (flat[1:] == flat[:-1]).any():
                raise DatasetError("feature matrix stores an entry more than once")
            if self.mode == "binary" and not np.all(v.data == 1.0):
                raise DatasetError("binary feature matrix has non-unit entries")

    @property
    def node_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class LabelVector:
    """One class label per node, encoded as ints over ordered class names."""

    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        k = len(self.class_names)
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= k):
            raise DatasetError("label index outside class range")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def _token_bounds(line: bytes):
    """The line as uint8 codes and the start and end offsets of its tokens.

    Tokens are what ``bytes.split()`` gives: runs of bytes other than 9-13
    and 32. End offsets are exclusive."""
    b = np.frombuffer(line, dtype=np.uint8)
    padded = np.zeros(b.size + 2, dtype=bool)  # so every run has two edges
    padded[1:-1] = (b != 32) & ((b < 9) | (b > 13))
    edges = (padded[1:] != padded[:-1]).nonzero()[0]
    return b, edges[0::2], edges[1::2]


def _parse_content(content_path: Path):
    ids: list[str] = []
    label_strs: list[str] = []
    indptr, indices, vals = [0], [], []
    width = None
    seen: dict[str, int] = {}
    for lineno, line in _lines(content_path):
        b, starts, ends = _token_bounds(line)
        if starts.size == 0:
            continue
        if starts.size < 2:
            raise DatasetError(
                f"{content_path}:{lineno}: expected '<id> <features..> <label>', "
                f"got {starts.size} fields"
            )
        nid = _text(content_path, lineno, line[starts[0]:ends[0]])
        if width is None:
            width = starts.size - 2
        elif starts.size - 2 != width:
            raise DatasetError(
                f"{content_path}:{lineno}: inconsistent feature width "
                f"(expected {width}, got {starts.size - 2})"
            )
        if nid in seen:
            raise DatasetError(
                f"{content_path}:{lineno}: duplicate node id {nid!r} "
                f"(first seen at line {seen[nid]})"
            )
        seen[nid] = lineno
        at, end = starts[1:-1], ends[1:-1]
        cells = ((b[at] != 48) | (end - at != 1)).nonzero()[0]  # all but a lone b"0"
        at, end = at[cells], end[cells]
        v = b[at] - 48.0
        # A lone byte 1-9 is its digit's value; every other cell, in column
        # order, gets float()'s value or is refused.
        for k in ((end - at != 1) | (v < 1.0) | (v > 9.0)).nonzero()[0]:
            tok = _text(content_path, lineno, line[at[k]:end[k]])
            try:
                v[k] = float(tok)
            except ValueError as exc:
                raise DatasetError(
                    f"{content_path}:{lineno}: non-numeric feature {tok!r}"
                ) from exc
            if not np.isfinite(v[k]):
                raise DatasetError(f"{content_path}:{lineno}: non-finite feature {tok!r}")
            if v[k] < 0.0:
                raise DatasetError(f"{content_path}:{lineno}: negative feature {tok!r}")
        keep = v != 0.0
        indices.append(cells[keep])
        vals.append(v[keep])
        indptr.append(indptr[-1] + vals[-1].size)
        ids.append(nid)
        label_strs.append(_text(content_path, lineno, line[starts[-1]:ends[-1]]))
    if not ids:
        raise DatasetError(f"{content_path}: empty dataset")
    mat = sp.csr_matrix((np.concatenate(vals), np.concatenate(indices), indptr),
                        shape=(len(ids), width))
    return ids, mat, label_strs


def _parse_cites(cites_path: Path, id_to_index: dict[str, int]):
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    dropped = dup = 0
    for lineno, line in _lines(cites_path):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2:
            raise DatasetError(
                f"{cites_path}:{lineno}: expected '<cited_id> <citing_id>', "
                f"got {len(fields)} fields"
            )
        cited, citing = (_text(cites_path, lineno, f) for f in fields)
        if cited not in id_to_index or citing not in id_to_index:
            dropped += 1
            continue
        u, v = id_to_index[citing], id_to_index[cited]
        if (u, v) in seen:
            dup += 1
            continue
        seen.add((u, v))
        edges.append((u, v))
    return edges, dropped, dup


def load_citation_dataset(content_path, cites_path):
    """Load a ``.content``/``.cites`` dataset.

    Returns
    -------
    (DirectedGraph, FeatureMatrix, LabelVector)
        Edges are oriented citing->cited. Citation rows referencing ids
        absent from the content file are dropped (counted in metadata),
        as are duplicate directed edges. Self-citations are preserved.
    """
    content_path = Path(content_path)
    cites_path = Path(cites_path)
    ids, mat, label_strs = _parse_content(content_path)
    id_to_index = {nid: i for i, nid in enumerate(ids)}
    edges, dropped, dup = _parse_cites(cites_path, id_to_index)
    metadata = {
        "edge_direction": EDGE_DIRECTION,
        "dropped_unknown_id_edges": dropped,
        "deduplicated_edges": dup,
    }
    graph = DirectedGraph(ids, np.asarray(edges, dtype=np.int64).reshape(-1, 2), metadata)

    binary = mat.nnz == 0 or bool(np.all(mat.data == 1.0))
    features = FeatureMatrix(mat, mode="binary" if binary else "count")

    class_names = sorted(set(label_strs))
    name_to_idx = {c: i for i, c in enumerate(class_names)}
    labels = LabelVector(
        np.array([name_to_idx[s] for s in label_strs], dtype=np.int64), class_names
    )
    return graph, features, labels


def build_undirected_union(graph: DirectedGraph) -> sp.csr_matrix:
    """Symmetric binary union A of the adjacency pattern of M and M^T.

    A[u, v] = 1 wherever M[u, v] or M[v, u] is nonzero; entries are
    binarized even if M carries weights.
    """
    u = (graph.out_adjacency + graph.in_adjacency).tocsr()
    u.eliminate_zeros()
    u.data = np.ones_like(u.data)
    return u


def compute_tfidf(raw_counts: FeatureMatrix) -> FeatureMatrix:
    """TF-IDF weighting of a binary or count feature matrix.

    tf is the raw count, idf(w) = ln((1 + n) / (1 + df_w)) + 1 (smoothed),
    and every nonempty row is L2-normalized. An all-zero input comes back
    all-zero.
    """
    counts = raw_counts.values  # CSR, nonnegative, no stored zeros
    n = counts.shape[0]
    df = np.bincount(counts.indices, minlength=counts.shape[1])
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    out = counts.copy()
    out.data = out.data * idf[out.indices]
    row_norms = np.sqrt(out.multiply(out).sum(axis=1)).A.ravel()
    scale = np.divide(1.0, row_norms, out=np.zeros_like(row_norms), where=row_norms > 0)
    out = sp.diags(scale).dot(out).tocsr()
    return FeatureMatrix(out, mode="tfidf")


def dataset_fingerprint(graph: DirectedGraph, features: FeatureMatrix) -> str:
    """Stable hash of the graph structure and features.

    Used to tie checkpoints / embedding files / reports back to the exact
    dataset they were produced from.
    """
    h = hashlib.sha256()
    h.update(f"n={graph.node_count};m={graph.edge_count};".encode())
    h.update(np.ascontiguousarray(graph.edge_list).tobytes())
    for nid in graph.node_ids:
        h.update(nid.encode("utf-8"))
        h.update(b"\x00")
    v = features.values
    h.update(f"d={features.dim};mode={features.mode};".encode())
    h.update(v.indptr.astype(np.int64).tobytes())
    h.update(v.indices.astype(np.int64).tobytes())
    h.update(v.data.astype(np.float64).tobytes())
    return h.hexdigest()


def check_same_dataset(stored: str | None, graph: DirectedGraph,
                       features: FeatureMatrix, what: str) -> None:
    """Refuse an artifact whose stored dataset fingerprint is not this dataset's.

    ``what`` names the artifact in the message. An artifact that stored no
    fingerprint is accepted.
    """
    if not stored:
        return
    current = dataset_fingerprint(graph, features)
    if stored != current:
        raise FingerprintMismatchError(
            f"{what} was made from a different dataset (fingerprint "
            f"{str(stored)[:12]}… vs {current[:12]}…)"
        )
