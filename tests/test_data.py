import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from diagram import data
from diagram.data import (
    DirectedGraph,
    FeatureMatrix,
    build_undirected_union,
    compute_tfidf,
    dataset_fingerprint,
    load_citation_dataset,
)
from diagram.exceptions import DatasetError

from conftest import random_digraph, require_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


class TestLoadCitationDataset:
    def test_fixture_counts(self, fixture_dataset):
        graph, features, labels = load_citation_dataset(*fixture_dataset)
        assert graph.node_count == 12
        assert graph.edge_count == 20
        assert features.dim == 6
        assert features.mode == "binary"
        assert labels.n_classes == 3
        assert labels.class_names == ["ml", "systems", "theory"]
        assert graph.metadata["dropped_unknown_id_edges"] == 0
        assert graph.metadata["deduplicated_edges"] == 0

    def test_direction_is_citing_to_cited(self, fixture_dataset):
        graph, _, _ = load_citation_dataset(*fixture_dataset)
        # cites row "p1 p0": p0 cites p1, so the stored edge is p0 -> p1
        u = graph.node_ids.index("p0")
        v = graph.node_ids.index("p1")
        assert graph.out_adjacency[u, v] == 1
        assert graph.metadata["edge_direction"] == "citing->cited"

    def test_single_zero_feature_node(self, tmp_path):
        content = tmp_path / "one.content"
        cites = tmp_path / "one.cites"
        content.write_text("solo 0 0 0 lonely\n")
        cites.write_text("")
        graph, features, labels = load_citation_dataset(content, cites)
        assert graph.node_count == 1
        assert graph.edge_count == 0
        assert features.dim == 3
        assert features.values.nnz == 0
        assert labels.n_classes == 1

    def test_duplicate_and_unknown_citations(self, tmp_path):
        content = tmp_path / "d.content"
        cites = tmp_path / "d.cites"
        content.write_text("a 1 x\nb 0 y\n")
        cites.write_text("a b\na b\na ghost\n")
        graph, _, _ = load_citation_dataset(content, cites)
        assert graph.edge_count == 1
        assert graph.metadata["deduplicated_edges"] == 1
        assert graph.metadata["dropped_unknown_id_edges"] == 1

    def test_self_loops_preserved_and_counted(self, tmp_path):
        content = tmp_path / "s.content"
        cites = tmp_path / "s.cites"
        content.write_text("a 1 x\nb 0 y\n")
        cites.write_text("a a\nb a\n")
        graph, _, _ = load_citation_dataset(content, cites)
        assert graph.edge_count == 2
        assert (graph.edge_list[:, 0] == graph.edge_list[:, 1]).sum() == 1
        assert graph.out_adjacency[0, 0] == 1

    @pytest.mark.parametrize("content_text,fragment", [
        ("onlyid\n", ":1:"),
        ("a 1 0 x\nb 1 y\n", "inconsistent feature width"),
        ("a 1 x\na 0 y\n", "duplicate node id"),
        ("a one x\n", "non-numeric"),
    ])
    def test_content_errors_carry_line_info(self, tmp_path, content_text, fragment):
        content = tmp_path / "bad.content"
        cites = tmp_path / "bad.cites"
        content.write_text(content_text)
        cites.write_text("")
        with pytest.raises(DatasetError, match=fragment):
            load_citation_dataset(content, cites)

    # The bad cell is on line 4, after a blank line, and behind good cells.
    @pytest.mark.parametrize("cell, message", [
        ("nan", "non-finite feature 'nan'"),
        ("inf", "non-finite feature 'inf'"),
        ("-inf", "non-finite feature '-inf'"),
        ("-1", "negative feature '-1'"),
    ], ids=["nan", "inf", "-inf", "-1"])
    def test_bad_value_names_its_path_and_line(self, tmp_path, cell, message):
        content = tmp_path / "v.content"
        cites = tmp_path / "v.cites"
        content.write_text(f"a 1 0 x\n\nb 0 1 y\nc 1 {cell} x\nd 0 0 y\n")
        cites.write_text("b a\nc b\n")
        with pytest.raises(DatasetError) as info:
            load_citation_dataset(content, cites)
        assert str(info.value) == f"{content}:4: {message}"

    @pytest.mark.parametrize("text, message", [
        ("a 1 -1 x\nb 0 1 y\n\nc zz 1 x\n", "1: negative feature '-1'"),
        ("a 1 0 x\nb -1 zz y\n", "2: negative feature '-1'"),
    ], ids=["first-line-in-file", "first-cell-in-row"])
    def test_first_bad_cell_in_file_order_is_named(self, tmp_path, text, message):
        content = tmp_path / "neg.content"
        cites = tmp_path / "neg.cites"
        content.write_text(text)
        cites.write_text("")
        with pytest.raises(DatasetError) as info:
            load_citation_dataset(content, cites)
        assert str(info.value) == f"{content}:{message}"

    def test_empty_dataset_rejected(self, tmp_path):
        content = tmp_path / "e.content"
        cites = tmp_path / "e.cites"
        content.write_text("\n")
        cites.write_text("")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_citation_dataset(content, cites)

    def test_malformed_cites_row(self, tmp_path):
        content = tmp_path / "c.content"
        cites = tmp_path / "c.cites"
        content.write_text("a 1 x\nb 0 y\n")
        cites.write_text("a b extra\n")
        with pytest.raises(DatasetError, match=":1:"):
            load_citation_dataset(content, cites)

    def test_transpose_agrees_with_adjacency(self, fixture_dataset):
        graph, _, _ = load_citation_dataset(*fixture_dataset)
        diff = graph.out_adjacency.T - graph.in_adjacency
        assert abs(diff).nnz == 0


class TestDirectedGraphRefusals:
    @pytest.mark.parametrize("ids, edges, message", [
        ([], np.empty((0, 2), dtype=np.int64), "graph has no nodes"),
        (["a", "b"], np.array([[0, 1], [1, 0], [0, 1]]), "duplicate directed edges"),
        (["a", "b", "a"], np.array([[0, 1]]), "duplicate node ids"),
        (["a", "b", "c"], np.array([[0, 1], [2, 5]]), r"edge endpoint outside 0\.\.2"),
        (["a", "b", "c"], np.array([[-1, 1]]), r"edge endpoint outside 0\.\.2"),
    ], ids=["no-nodes", "repeated-edge", "repeated-id", "endpoint-too-large",
            "negative-endpoint"])
    def test_refused_with_its_reason(self, ids, edges, message):
        with pytest.raises(DatasetError, match=message):
            DirectedGraph(ids, edges)


class TestUndirectedUnion:
    def test_single_edge_symmetry(self):
        g = DirectedGraph(["a", "b"], np.array([[0, 1]]))
        a = build_undirected_union(g)
        assert a[0, 1] == 1 and a[1, 0] == 1
        assert a.nnz == 2

    def test_reciprocal_pair_idempotent(self):
        g1 = DirectedGraph(["a", "b"], np.array([[0, 1]]))
        g2 = DirectedGraph(["a", "b"], np.array([[0, 1], [1, 0]]))
        a1 = build_undirected_union(g1).toarray()
        a2 = build_undirected_union(g2).toarray()
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_brute_force(self, seed):
        g = random_digraph(10, 18, seed)
        a = build_undirected_union(g).toarray()
        m = g.out_adjacency.toarray()
        expected = ((m + m.T) > 0).astype(float)
        assert np.array_equal(a, expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_union_invariant_under_transpose(self, seed):
        g = random_digraph(9, 14, seed)
        a1 = build_undirected_union(g).toarray()
        reversed_graph = DirectedGraph(g.node_ids, g.edge_list[:, ::-1])
        a2 = build_undirected_union(reversed_graph).toarray()
        assert np.array_equal(a1, a2)


def counts_matrix(counts) -> FeatureMatrix:
    return FeatureMatrix(sp.csr_matrix(counts), "count")


class TestTfidf:
    def test_single_entry_row_normalizes_to_one(self):
        out = compute_tfidf(counts_matrix(np.array([[1.0]])))
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert out.mode == "tfidf"

    def test_word_in_every_document_has_unit_idf(self):
        # word 0 in all docs (idf = ln(1) + 1 = 1), word 1 only in doc 0
        n = 4
        counts = np.zeros((n, 2))
        counts[:, 0] = 1
        counts[0, 1] = 1
        out = compute_tfidf(counts_matrix(counts)).values.toarray()
        idf_rare = math.log((1 + n) / 2) + 1
        # ratio of the two weights in doc 0 exposes the idf ratio
        assert out[0, 1] / out[0, 0] == pytest.approx(idf_rare / 1.0, rel=1e-12)

    def test_matches_scalar_oracle(self):
        counts = np.array([
            [2, 0, 1, 0],
            [0, 1, 0, 0],
            [1, 1, 0, 3],
        ], dtype=float)
        n, d = counts.shape
        # independent scalar-loop recomputation
        df = [sum(1 for u in range(n) if counts[u, w] > 0) for w in range(d)]
        expected = np.zeros((n, d))
        for u in range(n):
            for w in range(d):
                idf = math.log((1 + n) / (1 + df[w])) + 1
                expected[u, w] = counts[u, w] * idf
            norm = math.sqrt(sum(expected[u, w] ** 2 for w in range(d)))
            if norm > 0:
                for w in range(d):
                    expected[u, w] /= norm
        got = compute_tfidf(counts_matrix(counts)).values.toarray()
        assert np.allclose(got, expected, atol=1e-12, rtol=0)

    def test_all_zero_matrix_flagged(self):
        out = compute_tfidf(counts_matrix(np.zeros((3, 4))))
        assert out.values.nnz == 0
        assert out.values.shape == (3, 4) and out.mode == "tfidf"

    def test_unique_words_give_equal_row_weights(self):
        # every word appears in exactly one document
        counts = np.array([
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
        ], dtype=float)
        out = compute_tfidf(counts_matrix(counts)).values.toarray()
        assert np.allclose(out[0, :2], 1 / math.sqrt(2), atol=1e-12)
        assert np.allclose(out[1, 2:], 1 / math.sqrt(3), atol=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(DatasetError, match="negative"):
            compute_tfidf(counts_matrix(np.array([[-1.0]])))


class TestSummaryAndExport:
    def test_fingerprint_sensitive_to_edges(self, fixture_dataset):
        graph, features, _ = load_citation_dataset(*fixture_dataset)
        fp1 = dataset_fingerprint(graph, features)
        other = DirectedGraph(graph.node_ids, graph.edge_list[:-1],
                              graph.metadata)
        assert fp1 != dataset_fingerprint(other, features)
        assert fp1 == dataset_fingerprint(graph, features)


class TestFeatureMatrixInvariants:
    def test_binary_mode_rejects_other_values(self):
        with pytest.raises(DatasetError):
            FeatureMatrix(sp.csr_matrix(np.array([[2.0]])), mode="binary")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["binary", "count", "tfidf"])
    def test_non_finite_values_rejected(self, value, mode):
        with pytest.raises(DatasetError, match="non-finite feature values"):
            FeatureMatrix(sp.csr_matrix(np.array([[1.0, value]])), mode=mode)

    def test_count_mode_accepted(self):
        f = FeatureMatrix(sp.csr_matrix(np.array([[2.0, 0.0]])), mode="count")
        assert f.mode == "count"

    def test_callers_matrix_is_left_alone(self):
        # a stored 0.0, which the feature matrix drops
        m = sp.csr_matrix((np.array([1.0, 0.0, 2.0]), np.array([0, 1, 2]), np.array([0, 2, 3])),
                          shape=(2, 3))
        before = [m.data.copy(), m.indices.copy(), m.indptr.copy()]
        f = FeatureMatrix(m, "count")
        assert f.values is not m and f.values.nnz == 2 and m.nnz == 3
        for got, want in zip((m.data, m.indices, m.indptr), before):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_loaded_datasets_keep_their_fingerprints(self, fixture_dataset):
        graph, features, _ = load_citation_dataset(*fixture_dataset)
        assert dataset_fingerprint(graph, features) == (
            "fca198a83159ec2a15799dc9d88af96554231426ed30a6f101f89307bdc2a122")
        assert dataset_fingerprint(graph, compute_tfidf(features)) == (
            "dea1f3dcc00fd13793fbd00c78d648911469cff9624a381552ad8514fb8c0e63")

    @pytest.mark.parametrize("mode", ["binary", "count", "tfidf"])
    def test_repeated_stored_entry_rejected(self, mode):
        # column 3 of row 1 stored twice: made dense it would read 2.0
        repeated = sp.csr_matrix((np.ones(4), np.array([0, 1, 3, 3]), np.array([0, 1, 4])),
                                 shape=(2, 5))
        with pytest.raises(DatasetError, match="more than once"):
            FeatureMatrix(repeated, mode=mode)

    def test_tfidf_keeps_its_indices_order(self):
        counts = (np.random.default_rng(0).random((30, 40)) < 0.3).astype(float)
        tfidf = compute_tfidf(counts_matrix(counts)).values
        rows = np.split(tfidf.indices, tfidf.indptr[1:-1])
        assert any(np.any(np.diff(r) < 0) for r in rows)  # the product leaves them unsorted
        again = FeatureMatrix(tfidf.copy(), mode="tfidf").values
        assert again.indices.tobytes() == tfidf.indices.tobytes()
        assert again.data.tobytes() == tfidf.data.tobytes()


class TestRealDatasets:
    def test_cora_table_counts(self):
        content, cites = require_dataset("cora")
        graph, features, labels = load_citation_dataset(content, cites)
        assert graph.node_count == 2708
        assert labels.n_classes == 7
        assert 5000 <= graph.edge_count <= 5500

    def test_citeseer_table_counts(self):
        content, cites = require_dataset("citeseer")
        graph, features, labels = load_citation_dataset(content, cites)
        assert graph.node_count == 3312
        assert labels.n_classes == 6
        assert 4400 <= graph.edge_count <= 4800


# -- the text-mode parser the byte parser replaced, kept as an oracle --------

_WS = re.compile(r"[ \t\r\n\x0b\x0c]+")


def _split(line: str) -> list[str]:
    return [tok for tok in _WS.split(line) if tok]


def reference_parse_content(content_path: Path):
    ids: list[str] = []
    label_strs: list[str] = []
    rows, cols, vals = [], [], []
    width = None
    seen: dict[str, int] = {}
    with open(content_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = _split(raw)
            if not fields:
                continue
            if len(fields) < 2:
                raise DatasetError(
                    f"{content_path}:{lineno}: expected '<id> <features..> <label>', "
                    f"got {len(fields)} fields"
                )
            nid, feats, label = fields[0], fields[1:-1], fields[-1]
            if width is None:
                width = len(feats)
            elif len(feats) != width:
                raise DatasetError(
                    f"{content_path}:{lineno}: inconsistent feature width "
                    f"(expected {width}, got {len(feats)})"
                )
            if nid in seen:
                raise DatasetError(
                    f"{content_path}:{lineno}: duplicate node id {nid!r} "
                    f"(first seen at line {seen[nid]})"
                )
            seen[nid] = lineno
            row = len(ids)
            for j, tok in enumerate(feats):
                try:
                    v = float(tok)
                except ValueError as exc:
                    raise DatasetError(
                        f"{content_path}:{lineno}: non-numeric feature {tok!r}"
                    ) from exc
                if not math.isfinite(v):
                    raise DatasetError(f"{content_path}:{lineno}: non-finite feature {tok!r}")
                if v < 0.0:
                    raise DatasetError(f"{content_path}:{lineno}: negative feature {tok!r}")
                if v != 0.0:
                    rows.append(row)
                    cols.append(j)
                    vals.append(v)
            ids.append(nid)
            label_strs.append(label)
    if not ids:
        raise DatasetError(f"{content_path}: empty dataset")
    d = width or 0
    mat = sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=(len(ids), d)
    )
    return ids, mat, label_strs


def reference_parse_cites(cites_path: Path, id_to_index: dict[str, int]):
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    dropped = dup = self_loops = 0
    with open(cites_path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = _split(raw)
            if not fields:
                continue
            if len(fields) != 2:
                raise DatasetError(
                    f"{cites_path}:{lineno}: expected '<cited_id> <citing_id>', "
                    f"got {len(fields)} fields"
                )
            cited, citing = fields
            if cited not in id_to_index or citing not in id_to_index:
                dropped += 1
                continue
            u, v = id_to_index[citing], id_to_index[cited]
            if (u, v) in seen:
                dup += 1
                continue
            seen.add((u, v))
            edges.append((u, v))
            if u == v:
                self_loops += 1
    return edges, dropped, dup, self_loops


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_same_cites(got, want):
    """The parser's ``(edges, dropped, dup)`` are the oracle's first three
    fields, and the oracle's self-loop count is the edges' ``u == v`` count."""
    assert got == want[:3]
    assert want[3] == sum(u == v for u, v in got[0])


def outcome(parse, *args):
    """``("ok", result)``, or ``("error", message)`` for a DatasetError; any
    other exception propagates."""
    try:
        return "ok", parse(*args)
    except DatasetError as exc:
        return "error", str(exc)


def assert_parsers_agree(content: Path, cites: Path):
    """The byte parser gives what the text-mode oracle gives, wherever the
    oracle returns or raises a DatasetError. Where the oracle fails to decode
    UTF-8, the byte parser raises a DatasetError instead."""
    try:
        want = outcome(reference_parse_content, content)
    except UnicodeDecodeError:
        want = ("error", None)
    got = outcome(data._parse_content, content)
    assert got[0] == want[0]
    if want[0] == "error":
        assert want[1] is None or got[1] == want[1]
        return
    assert got[1][0] == want[1][0] and got[1][2] == want[1][2]
    assert_same_csr(got[1][1], want[1][1])
    id_to_index = {nid: i for i, nid in enumerate(got[1][0])}
    try:
        want = outcome(reference_parse_cites, cites, id_to_index)
    except UnicodeDecodeError:
        want = ("error", None)
    got = outcome(data._parse_cites, cites, id_to_index)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert_same_cites(got[1], want[1])
    else:
        assert want[1] is None or got[1] == want[1]


# Line 1 ends in CRLF, line 2 in a bare CR and line 3 in LF. Fields are split by
# tabs, \x0b and \x0c; the \xa0 inside "n\xa0b" and "1\xa0" is not a separator.
# The last line has no line end, a full-width digit and a non-ASCII label.
MIXED_CONTENT = (
    "n1 1 0 1 a\r\n"
    "n\xa0b\t0\x0b1\x0c0 b\r"
    "n3 -0 0.0 00 a\n"
    "\r\n"
    "n4 1e0 2 1_0 b\n"
    "n5 ２ 1\xa0 0 \xe7"
)
MIXED_CITES = "n1 n\xa0b\r\nn3\tn1\rghost n1\nn1 n\xa0b\n"

# Cells at the edges of the parser's cell rule: a lone "0" is zero and a lone
# 1-9 is its digit without float(), and everything else, including cells that
# start like those ("00", "01", "007"), goes through float().
SCAN_CONTENT = (
    "p1 01 +0 000 0e5 9 2\x0b0 00 a\n"
    "p2\t3 4 5 6 7 8\x0c+1 -0 b\n"
    "p3 1 0.5 10 0 00 007 1e1 +5 a\n"
    "p4 0 0 0 0 0 0 0 0\tb\n"
)
# One bad cell each, behind good ones: "/" and ":" are the bytes either side
# of the digits, and \xff is not UTF-8.
SCAN_BAD_CELLS = [b"/", b":", b"-", b"+", b".", b"\x01", b"\xff", b"0\xff", b"00x", b"-2"]


class TestByteParserMatchesTextOracle:
    def _write(self, tmp_path, content: str | bytes, cites: str | bytes = ""):
        paths = tmp_path / "m.content", tmp_path / "m.cites"
        for path, text in zip(paths, (content, cites)):
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        return paths

    def test_generated_tiny_graph(self, tmp_path):
        ds = gen.generate("tiny", 0)
        content, cites = gen.write(ds, tmp_path / "tiny")
        ids, mat, label_strs = data._parse_content(content)
        want_ids, want_mat, want_labels = reference_parse_content(content)
        assert ids == want_ids and label_strs == want_labels
        assert_same_csr(mat, want_mat)
        index = {nid: i for i, nid in enumerate(ids)}
        assert_same_cites(data._parse_cites(cites, index), reference_parse_cites(cites, index))
        graph, features, labels = load_citation_dataset(content, cites)
        assert graph.metadata["dropped_unknown_id_edges"] == 0
        assert (features.values != ds.features).nnz == 0

    def test_mixed_line_ends_separators_and_numbers(self, tmp_path):
        content, cites = self._write(tmp_path, MIXED_CONTENT, MIXED_CITES)
        assert_parsers_agree(content, cites)
        ids, mat, labels = data._parse_content(content)
        assert ids == ["n1", "n\xa0b", "n3", "n4", "n5"]
        assert labels == ["a", "b", "a", "b", "\xe7"]
        assert mat.toarray().tolist() == [[1, 0, 1], [0, 1, 0], [0, 0, 0],
                                          [1, 2, 10], [2, 1, 0]]
        graph, _, _ = load_citation_dataset(content, cites)
        assert graph.edge_count == 2
        assert graph.metadata["dropped_unknown_id_edges"] == 1
        assert graph.metadata["deduplicated_edges"] == 1

    def test_scan_shortcut_edges(self, tmp_path):
        content, cites = self._write(tmp_path, SCAN_CONTENT)
        assert_parsers_agree(content, cites)
        _, mat, _ = data._parse_content(content)
        assert mat.toarray().tolist() == [[1, 0, 0, 0, 9, 2, 0, 0],
                                          [3, 4, 5, 6, 7, 8, 1, 0],
                                          [1, 0.5, 10, 0, 0, 7, 10, 5],
                                          [0] * 8]

    @pytest.mark.parametrize("cell", SCAN_BAD_CELLS)
    def test_scan_bad_cell_is_reported_in_column_order(self, tmp_path, cell):
        row = b"q2 1 00 " + cell + b" x1 b\n"  # x1 is bad too, but later
        content, cites = self._write(tmp_path, b"q1 0 9 1 3 a\n" + row)
        assert_parsers_agree(content, cites)
        with pytest.raises(DatasetError, match=r"m\.content:2: ") as info:
            data._parse_content(content)
        assert "x1" not in str(info.value)

    def test_wide_generated_rows_match_oracle(self, tmp_path):
        rng = np.random.default_rng(7)
        cells = np.array(["0", "0", "0", "0", "00", "1", "2", "5", "9", "01",
                          "0.0", "-0", "+0", "0e5", "3.5", "1e1", "+7", "-0.0"])
        seps = np.array([" ", "  ", "\t", "\x0b", "\x0c", " \t"])
        lines = []
        for r in range(12):
            row = rng.choice(cells, size=1200, p=[0.6] + [0.4 / 17] * 17)
            gaps = rng.choice(seps, size=1201)
            lines.append(f"w{r}" + "".join(g + c for g, c in zip(gaps, row))
                         + gaps[-1] + "ab"[r % 2])
        content, cites = self._write(tmp_path, "\n".join(lines) + "\n")
        assert_parsers_agree(content, cites)
        _, mat, _ = data._parse_content(content)
        assert mat.shape == (12, 1200) and mat.nnz > 12 * 100

    @pytest.mark.parametrize("ending", ["\r\n", "\r", "\n"])
    def test_error_line_number_follows_universal_newlines(self, tmp_path, ending):
        text = ending.join(["a 1 x", "", "b 0 y", "c one z"]) + ending
        content, cites = self._write(tmp_path, text)
        with pytest.raises(DatasetError, match=r"m\.content:4: non-numeric feature 'one'"):
            data._parse_content(content)
        assert_parsers_agree(content, cites)

    def test_fuzzed_files_match_oracle(self, tmp_path):
        rng = np.random.default_rng(20261018)
        raw_content = MIXED_CONTENT.encode("utf-8")
        raw_cites = MIXED_CITES.encode("utf-8")
        alphabet = list(b" \t\r\n\x0b\x0c0123456789.-+eax_") + [0xA0, 0xC2, 0xFF, 0xEF]
        for trial in range(400):
            content, cites = bytearray(raw_content), bytearray(raw_cites)
            target = content if trial % 2 == 0 else cites
            if rng.random() < 0.3:
                del target[rng.integers(0, len(target) + 1):]
            for _ in range(rng.integers(1, 4)):
                if target:
                    target[rng.integers(0, len(target))] = rng.choice(alphabet)
            paths = self._write(tmp_path, bytes(content), bytes(cites))
            assert_parsers_agree(*paths)
