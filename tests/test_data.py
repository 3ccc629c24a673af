import math

import numpy as np
import pytest
import scipy.sparse as sp

from diagram.data import (
    DirectedGraph,
    FeatureMatrix,
    build_undirected_union,
    compute_tfidf,
    dataset_fingerprint,
    dataset_summary,
    load_citation_dataset,
)
from diagram.exceptions import DatasetError

from conftest import random_digraph, require_dataset


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
        u = graph.id_to_index["p0"]
        v = graph.id_to_index["p1"]
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
        assert graph.metadata["self_loops"] == 1
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
        graph.validate()


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


class TestTfidf:
    def test_single_entry_row_normalizes_to_one(self):
        out = compute_tfidf(sp.csr_matrix(np.array([[1.0]])))
        assert out.values[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert out.mode == "tfidf"

    def test_word_in_every_document_has_unit_idf(self):
        # word 0 in all docs (idf = ln(1) + 1 = 1), word 1 only in doc 0
        n = 4
        counts = np.zeros((n, 2))
        counts[:, 0] = 1
        counts[0, 1] = 1
        out = compute_tfidf(sp.csr_matrix(counts)).values.toarray()
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
        got = compute_tfidf(sp.csr_matrix(counts)).values.toarray()
        assert np.allclose(got, expected, atol=1e-12, rtol=0)

    def test_all_zero_matrix_flagged(self):
        out = compute_tfidf(sp.csr_matrix((3, 4)))
        assert out.all_zero
        assert out.values.nnz == 0

    def test_unique_words_give_equal_row_weights(self):
        # every word appears in exactly one document
        counts = np.array([
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1],
        ], dtype=float)
        out = compute_tfidf(sp.csr_matrix(counts)).values.toarray()
        assert np.allclose(out[0, :2], 1 / math.sqrt(2), atol=1e-12)
        assert np.allclose(out[1, 2:], 1 / math.sqrt(3), atol=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(DatasetError):
            compute_tfidf(sp.csr_matrix(np.array([[-1.0]])))


class TestSummaryAndExport:
    def test_summary_matches_hand_tally(self, fixture_dataset):
        graph, features, labels = load_citation_dataset(*fixture_dataset)
        s = dataset_summary(graph, features, labels)
        assert s.node_count == 12
        assert s.edge_count == 20
        assert s.feature_dim == 6
        assert s.n_classes == 3
        assert s.mean_out_degree == pytest.approx(20 / 12)

    def test_empty_feature_graph_reports_d_zero(self, tmp_path):
        content = tmp_path / "nf.content"
        cites = tmp_path / "nf.cites"
        content.write_text("a x\nb y\n")
        cites.write_text("a b\n")
        graph, features, labels = load_citation_dataset(content, cites)
        assert features.dim == 0
        s = dataset_summary(graph, features, labels)
        assert s.feature_dim == 0

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

    def test_count_mode_accepted(self):
        f = FeatureMatrix(sp.csr_matrix(np.array([[2.0, 0.0]])), mode="count")
        assert f.mode == "count"


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
