import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np
import pytest

from diagram.data import DirectedGraph, FeatureMatrix
from diagram.evaluation import edge_feature_matrix

DATA_DIR_ENV = "DIAGRAM_DATA_DIR"


def find_dataset(name: str):
    """Locate <name>.content/.cites under $DIAGRAM_DATA_DIR or ./data."""
    roots = []
    if os.environ.get(DATA_DIR_ENV):
        roots.append(Path(os.environ[DATA_DIR_ENV]))
    roots.append(Path(__file__).resolve().parents[1] / "data")
    for root in roots:
        for prefix in (root / name / name, root / name):
            content = Path(str(prefix) + ".content")
            cites = Path(str(prefix) + ".cites")
            if content.exists() and cites.exists():
                return content, cites
    return None


def require_dataset(name: str):
    paths = find_dataset(name)
    if paths is None:
        pytest.skip(f"{name} dataset files not available "
                    f"(set {DATA_DIR_ENV} to a directory holding "
                    f"{name}/{name}.content and {name}/{name}.cites)")
    return paths


def random_digraph(n: int, m: int, seed: int, ensure_connected: bool = False) -> DirectedGraph:
    """Random simple digraph with m distinct non-self edges."""
    rng = np.random.default_rng(seed)
    edges = set()
    if ensure_connected:
        # random spanning path first, random direction per hop
        order = rng.permutation(n)
        for a, b in zip(order[:-1], order[1:]):
            u, v = (int(a), int(b)) if rng.random() < 0.5 else (int(b), int(a))
            edges.add((u, v))
    while len(edges) < m:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    edge_arr = np.array(sorted(edges), dtype=np.int64)
    return DirectedGraph([f"n{i}" for i in range(n)], edge_arr,
                         {"edge_direction": "citing->cited"})


def random_features(n: int, d: int, seed: int, density: float = 0.4) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, d)) < density).astype(float)
    import scipy.sparse as sp
    return FeatureMatrix(sp.csr_matrix(dense), mode="binary")


def edge_features(emb, pair, constructor: str, mode: str = "directed") -> np.ndarray:
    """Feature vector of length k for one (u, v) pair."""
    return edge_feature_matrix(emb, [pair], constructor, mode)[0]


def write_npz(path, arrays: dict, meta) -> None:
    """A checkpoint or binary embedding file written by hand: ``arrays`` as npz
    entries, then ``meta`` as the JSON ``__meta__`` block (pass bytes to write
    them as they are). The open file keeps np.savez from adding ".npz"."""
    raw = meta if isinstance(meta, bytes) else json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, __meta__=np.frombuffer(raw, dtype=np.uint8))


# A shape whose float64 bytes (16 PB) exceed a 47-bit user address space, so
# allocating it fails at once and reserves nothing.
HUGE_SHAPE = (10**15, 2)


def claim_huge_shape(path, entry: str) -> None:
    """Rewrite the ``.npy`` header of npz entry ``entry`` to claim
    :data:`HUGE_SHAPE`, leaving its data and every other entry as they are."""
    with zipfile.ZipFile(path) as zf:
        members = {name: zf.read(name) for name in zf.namelist()}
    raw = io.BytesIO(members[f"{entry}.npy"])
    np.lib.format.read_magic(raw)
    _, fortran_order, dtype = np.lib.format.read_array_header_1_0(raw)
    fixed = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        fixed, {"shape": HUGE_SHAPE, "fortran_order": fortran_order, "descr": dtype.str})
    members[f"{entry}.npy"] = fixed.getvalue() + raw.read()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)


@pytest.fixture
def toy_graph():
    """6-node weakly connected digraph with one reciprocal pair."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 0), (2, 5)]
    return DirectedGraph([f"n{i}" for i in range(6)],
                         np.array(edges, dtype=np.int64),
                         {"edge_direction": "citing->cited"})


@pytest.fixture
def toy_features():
    return random_features(6, 4, seed=7)


CONTENT_LINES = """\
p0 1 0 0 1 0 1 theory
p1 0 1 0 1 0 0 theory
p2 1 1 0 0 0 0 systems
p3 0 0 1 0 1 0 systems
p4 1 0 0 0 0 1 systems
p5 0 1 1 0 0 0 ml
p6 0 0 0 1 1 0 ml
p7 1 0 1 0 0 0 ml
p8 0 1 0 0 1 1 theory
p9 1 1 1 0 0 0 ml
p10 0 0 0 1 0 1 systems
p11 1 0 0 0 1 0 theory
"""

# Ring over all 12 papers plus chords and one reciprocal pair; citing
# column is second per the cites convention "<cited> <citing>".
CITES_LINES = """\
p1 p0
p2 p1
p3 p2
p4 p3
p5 p4
p6 p5
p7 p6
p8 p7
p9 p8
p10 p9
p11 p10
p0 p11
p0 p1
p4 p0
p6 p2
p9 p3
p11 p5
p2 p8
p5 p10
p7 p11
"""


@pytest.fixture
def fixture_dataset(tmp_path):
    """A small on-disk .content/.cites dataset (12 nodes, 20 edges, 3 classes)."""
    content = tmp_path / "toy.content"
    cites = tmp_path / "toy.cites"
    content.write_text(CONTENT_LINES)
    cites.write_text(CITES_LINES)
    return content, cites
