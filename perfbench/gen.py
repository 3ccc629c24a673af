"""Seeded citation-like graphs written in the Cora/Citeseer two-file layout.

Nodes arrive in time order and mostly cite earlier nodes of their own
class, preferring nodes that are already well cited, in the spirit of the
directed LFR benchmark (Lancichinetti & Fortunato 2009). Each node's words
come mostly from a topic of its class. The program under test only ever
sees the written ``.content`` / ``.cites`` files; the arrays returned here
are the benchmark's own ground truth for checking what it loads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


@dataclass(frozen=True)
class Shape:
    n: int
    out_degree: float   # citations per node, before reciprocal edges
    d: int
    words: float        # mean distinct words per node
    classes: int
    mixing: float       # share of citations that leave the citing node's class
    reciprocity: float  # share of citations answered by a reverse edge
    silent: float       # share of nodes that cite nothing
    topic_share: float = 0.7  # share of a node's words drawn from its class topic


SHAPES = {
    # Cora: n=2708, m=5429, d=1433, density 1.27%, 7 classes.
    "cora": Shape(2708, 1.985, 1433, 18.2, 7, 0.2, 0.01, 0.01),
    # Citeseer: n=3312, m=4732, d=3703, density 0.86%, 6 classes.
    "citeseer": Shape(3312, 1.4146, 3703, 31.7, 6, 0.25, 0.01, 0.12),
    # Smaller and denser: out-degree 5.2 once reciprocal edges are added,
    # and about 9% of the words set in every row.
    "dense": Shape(2000, 4.52, 300, 31.0, 5, 0.2, 0.15, 0.02),
    # For the benchmark's smoke test.
    "tiny": Shape(80, 2.0, 40, 5.0, 3, 0.2, 0.1, 0.05),
}


@dataclass
class Dataset:
    """Ground truth in file order: row r of ``.content`` is node r."""

    node_ids: list[str]
    edges: np.ndarray        # (m, 2) citing -> cited, file-order indices
    labels: np.ndarray       # (n,) class index
    class_names: list[str]
    features: sp.csr_matrix  # (n, d) binary

    @property
    def n(self) -> int:
        return len(self.node_ids)


def _cite(shape: Shape, label: np.ndarray, rng: np.random.Generator) -> list[tuple[int, int]]:
    n = shape.n
    citations = round(shape.out_degree * n)
    # Citing nodes make at least one citation, so the silent share sets how
    # many weak components the graph breaks into. Degrees are drawn with a
    # surplus and cut back to an exact count, so that every seed gives the
    # same number of edges and only the structure varies.
    cites_some = rng.random(n) >= shape.silent
    mean = 1.1 * shape.out_degree / (1.0 - shape.silent)
    degree = np.where(cites_some, rng.geometric(1.0 / mean, size=n), 0)
    # One ticket per node plus one per citation it has received, so a
    # uniform ticket draw is preferential attachment.
    class_tickets: list[list[int]] = [[] for _ in range(shape.classes)]
    all_tickets: list[int] = []
    edges: list[tuple[int, int]] = []
    for u in range(n):
        want = min(int(degree[u]), u)
        own = class_tickets[label[u]]
        targets: set[int] = set()
        for _ in range(4 * want):
            if len(targets) == want:
                break
            pool = own if own and rng.random() >= shape.mixing else all_tickets
            targets.add(pool[int(rng.integers(len(pool)))])
        for v in sorted(targets):
            edges.append((u, v))
            class_tickets[label[v]].append(v)
            all_tickets.append(v)
        own.append(u)
        all_tickets.append(u)
    if len(edges) < citations:
        raise ValueError(f"drew {len(edges)} citations, fewer than the {citations} wanted")
    kept = np.sort(rng.choice(len(edges), size=citations, replace=False))
    edges = [edges[k] for k in kept]
    # Every edge cites an earlier node, so no reverse edge exists yet.
    answered = rng.choice(citations, size=round(shape.reciprocity * citations), replace=False)
    return edges + [edges[k][::-1] for k in np.sort(answered)]


def _words(shape: Shape, label: np.ndarray, rng: np.random.Generator) -> sp.csr_matrix:
    n, d = shape.n, shape.d
    topic_size = max(4, d // shape.classes)
    topics = np.stack([rng.choice(d, size=topic_size, replace=False)
                       for _ in range(shape.classes)])
    counts = 1 + rng.poisson(shape.words - 1.0, size=n)
    rows = np.repeat(np.arange(n), counts)
    from_topic = rng.random(rows.size) < shape.topic_share
    cols = np.where(from_topic,
                    topics[label[rows], rng.integers(topic_size, size=rows.size)],
                    rng.integers(d, size=rows.size))
    mat = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, d))
    mat.data[:] = 1.0  # repeated draws of one word collapse to a single 1
    return mat


def generate(name: str, seed: int) -> Dataset:
    """The dataset of shape ``name`` for workload seed ``seed``."""
    shape = SHAPES[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    share = rng.dirichlet(np.full(shape.classes, 4.0))
    label = rng.choice(shape.classes, size=shape.n, p=share)
    edges = np.asarray(_cite(shape, label, rng), dtype=np.int64).reshape(-1, 2)
    words = _words(shape, label, rng)

    # Shuffle the rows so that file order says nothing about arrival time.
    order = rng.permutation(shape.n)
    position = np.empty(shape.n, dtype=np.int64)
    position[order] = np.arange(shape.n)
    ids = rng.choice(10 * shape.n + 1000, size=shape.n, replace=False)
    return Dataset(
        node_ids=[str(int(i)) for i in ids],
        edges=position[edges],
        labels=label[order],
        class_names=[f"class_{c}" for c in range(shape.classes)],
        features=words[order],
    )


def write(ds: Dataset, prefix: Path) -> tuple[Path, Path]:
    """Write ``<prefix>.content`` and ``<prefix>.cites``; returns both paths."""
    content, cites = Path(f"{prefix}.content"), Path(f"{prefix}.cites")
    n, d = ds.features.shape
    cells = np.full((n, 2 * d), ord("\t"), dtype=np.uint8)
    cells[:, 1::2] = ds.features.toarray().astype(np.uint8) + ord("0")
    with open(content, "wb") as fh:
        for r in range(n):
            fh.write(ds.node_ids[r].encode())
            fh.write(cells[r].tobytes())
            fh.write(f"\t{ds.class_names[ds.labels[r]]}\n".encode())
    ids = ds.node_ids
    with open(cites, "w", encoding="utf-8") as fh:
        fh.writelines(f"{ids[v]}\t{ids[u]}\n" for u, v in ds.edges)
    return content, cites


def stats(ds: Dataset) -> dict:
    """Realised shape, so that drift in the generator shows in every run."""
    n, d = ds.features.shape
    m = ds.edges.shape[0]
    adj = sp.csr_matrix((np.ones(m), (ds.edges[:, 0], ds.edges[:, 1])), shape=(n, n))
    reciprocal = adj.multiply(adj.T).nnz
    components, _ = connected_components(adj, directed=True, connection="weak")
    return {
        "n": n,
        "m": m,
        "d": d,
        "classes": len(ds.class_names),
        "mean_out_degree": round(m / n, 4),
        "feature_density": round(ds.features.nnz / (n * d), 6),
        "reciprocity": round(reciprocal / m, 6) if m else 0.0,
        "weak_components": int(components),
    }


def plant(ds: Dataset, seed: int, k: int = 128) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embeddings (z, o, i) with known structure for the evaluation protocols.

    ``o_u . i_v`` is about 6 on every true edge and near 0 elsewhere. A few
    hub sources score against a block of targets along coordinate 0, far
    enough out that ``expit`` rounds each such pair to exactly 1.0; the
    block is larger than the smallest K, so the (u, v) tie-break decides
    P@K there. ``z`` is a class centroid plus noise.
    """
    rng = np.random.default_rng([seed, zlib.crc32(b"plant")])
    n = ds.n
    src, dst = ds.edges[:, 0], ds.edges[:, 1]
    r = rng.standard_normal((n, k))
    r[:, 0] = 0.0
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    i = 3.0 * r
    o = np.zeros((n, k))
    np.add.at(o, src, 2.0 * r[dst])
    o[:, 1:] += 0.3 * rng.standard_normal((n, k - 1)) / np.sqrt(k)

    hubs = rng.choice(n, size=max(2, n // 150), replace=False)
    block = np.union1d(rng.choice(n, size=max(4, n // 25), replace=False),
                       dst[np.isin(src, hubs)])
    o[hubs, 0] = 60.0
    i[block, 0] = 1.0

    centroids = rng.standard_normal((len(ds.class_names), k))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    z = centroids[ds.labels] + 0.35 * rng.standard_normal((n, k))
    return z, o, i
