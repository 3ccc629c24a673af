import functools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from scipy.special import expit

import diagram.evaluation as evaluation
from diagram.data import DirectedGraph
from diagram.evaluation import (
    EDGE_CONSTRUCTORS,
    EvalReport,
    auc_score,
    binary_f1,
    link_prediction_eval,
    logistic_predict_proba,
    logistic_regression_fit,
    micro_macro_f1,
    network_reconstruction,
    node_classification_eval,
    run_link_prediction_protocol,
    sample_link_prediction,
    stratified_fold_indices,
    stratified_split,
)
from diagram.exceptions import EvaluationError, SamplingError
from diagram.model import EmbeddingSet, TrainConfig, train_node_model

from conftest import edge_features, random_digraph, random_features
from oracles import (
    brute_force_p_at_k,
    components_union_find,
    one_ended_connected,
    reference_f1,
    reference_link_sample,
    reference_logistic_regression_fit,
    reference_ovr_predict,
    reference_stratified_fold_indices,
    reference_stratified_split,
    textbook_hessian,
)


def make_embeddings(n, k, seed, variant="edge"):
    rng = np.random.default_rng(seed)
    return EmbeddingSet(rng.normal(size=(n, k)), rng.normal(size=(n, k)),
                        rng.normal(size=(n, k)), [f"n{i}" for i in range(n)],
                        variant)


def count_fits(monkeypatch) -> list:
    """Replace the classifier with a stub; the returned list records its calls."""
    calls = []
    monkeypatch.setattr(evaluation, "logistic_regression_fit", lambda *a: calls.append(a))
    return calls


class TestNetworkReconstruction:
    def test_perfect_embeddings_hit_every_edge(self):
        g = random_digraph(12, 25, seed=0)
        n, m = 12, g.edge_count
        # o = adjacency rows, i = identity: dot(o_u, i_v) = M[u, v]
        emb = EmbeddingSet(np.zeros((n, n)), g.out_adjacency.toarray(),
                           np.eye(n), [f"n{i}" for i in range(n)], "edge")
        report = network_reconstruction(emb, g, [5, m])
        for row in report.table:
            assert row["precision"] == 1.0

    def test_ground_truth_scorer_matches_upper_bound(self):
        g = random_digraph(12, 20, seed=1)
        n, m = 12, g.edge_count
        emb = EmbeddingSet(np.zeros((n, n)), g.out_adjacency.toarray(),
                           np.eye(n), [f"n{i}" for i in range(n)], "edge")
        big_k = 50
        report = network_reconstruction(emb, g, [big_k])
        assert report.table[0]["precision"] == pytest.approx(min(1.0, m / big_k))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle(self, seed):
        g = random_digraph(15, 30, seed=seed)
        emb = make_embeddings(15, 6, seed=seed + 100)
        report = network_reconstruction(emb, g, [5, 20, 50])
        expected = brute_force_p_at_k(emb, g, [5, 20, 50])
        for row in report.table:
            assert row["precision"] == expected[row["K"]]

    def test_symmetric_mode_matches_oracle(self):
        g = random_digraph(10, 18, seed=7)
        emb = make_embeddings(10, 5, seed=8)
        report = network_reconstruction(emb, g, [10], mode="symmetric")
        expected = brute_force_p_at_k(emb, g, [10], mode="symmetric")
        assert report.table[0]["precision"] == expected[10]

    @pytest.mark.parametrize("mode", ["directed", "symmetric"])
    def test_saturated_tie_run_straddling_k_matches_oracle(self, mode):
        # Nodes 0-4 score exactly expit == 1.0 among themselves: a run of 20
        # tied pairs that only the (u, v) tie-break can order. The edges sit
        # early in that order, so another order would change P@7.
        n = 12
        emb = make_embeddings(n, 3, seed=21)
        for mat in (emb.z, emb.o, emb.i):
            mat *= 0.3
            mat[:5, 0] = 10.0
        a, b = (emb.o, emb.i) if mode == "directed" else (emb.z, emb.z)
        saturated = expit(a @ b.T) == 1.0
        np.fill_diagonal(saturated, False)
        assert saturated.sum() == 20
        edges = [(0, 1), (0, 2), (1, 0), (4, 3), (5, 6), (7, 2), (9, 8), (11, 0)]
        g = DirectedGraph([f"n{i}" for i in range(n)], np.array(edges))
        ks = [3, 7, 20, 25, n * n - n]
        report = network_reconstruction(emb, g, ks, mode=mode)
        expected = brute_force_p_at_k(emb, g, ks, mode=mode)
        assert {row["K"]: row["precision"] for row in report.table} == expected
        assert expected[7] == 3 / 7

    def test_all_pairs_tied_matches_oracle_up_to_every_pair(self):
        g = random_digraph(9, 20, seed=3)
        emb = make_embeddings(9, 4, seed=4)
        for mat in (emb.z, emb.o, emb.i):
            mat[:] = 0.0  # every score is expit(0) = 0.5
        ks = [1, 9, 40, 72]
        report = network_reconstruction(emb, g, ks)
        expected = brute_force_p_at_k(emb, g, ks)
        assert {row["K"]: row["precision"] for row in report.table} == expected
        assert expected[72] == g.edge_count / 72

    def test_peak_memory_stays_near_two_score_matrices(self):
        n = 600
        g = random_digraph(n, 3000, seed=5)
        emb = make_embeddings(n, 16, seed=6)
        tracemalloc.start()
        try:
            network_reconstruction(emb, g, [100, 1000, 5000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * n * n

    @pytest.mark.parametrize("block", [1, 7, 12, 40, 97])
    def test_row_blocks_match_oracle(self, monkeypatch, block):
        # Blocks of 1 row (12 scores) up to 8 rows, so the running top K
        # takes several merges, and K passes a block's size.
        monkeypatch.setattr(evaluation, "RECON_BLOCK_SCORES", block)
        n = 12
        g = random_digraph(n, 30, seed=block)
        ks = [1, 5, 13, 50, n * n - n]
        emb = make_embeddings(n, 4, seed=block + 1)
        for mode in ("directed", "symmetric"):
            report = network_reconstruction(emb, g, ks, mode=mode)
            expected = brute_force_p_at_k(emb, g, ks, mode=mode)
            assert {row["K"]: row["precision"] for row in report.table} == expected
        # Saturated and fully tied scores: runs of ties cross block borders.
        for mat in (emb.z, emb.o, emb.i):
            mat *= 0.3
            mat[:5, 0] = 10.0
        tied = make_embeddings(n, 4, seed=0)
        for mat in (tied.z, tied.o, tied.i):
            mat[:] = 0.0
        for e in (emb, tied):
            report = network_reconstruction(e, g, ks)
            assert ({row["K"]: row["precision"] for row in report.table}
                    == brute_force_p_at_k(e, g, ks))

    @pytest.mark.parametrize("block", [1, 5, 30])
    def test_row_blocks_reject_k_reaching_nan_scores(self, monkeypatch, block):
        monkeypatch.setattr(evaluation, "RECON_BLOCK_SCORES", block)
        g = random_digraph(6, 8, seed=0)
        emb = make_embeddings(6, 3, seed=0)
        emb.o[1] = np.nan  # 25 of the 30 pairs keep a score
        assert network_reconstruction(emb, g, [25]).table[0]["K"] == 25
        with pytest.raises(EvaluationError, match="NaN"):
            network_reconstruction(emb, g, [26])

    def test_peak_memory_follows_the_block_not_n_squared(self, monkeypatch):
        n, k_max = 600, 5000
        block = 64 * n
        monkeypatch.setattr(evaluation, "RECON_BLOCK_SCORES", block)
        g = random_digraph(n, 3000, seed=5)
        emb = make_embeddings(n, 16, seed=6)
        tracemalloc.start()
        try:
            network_reconstruction(emb, g, [100, 1000, k_max])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A block and its partitioned copy, plus the running top K and its
        # merge; n^2 scores would be 2.9 MB.
        assert peak <= 2.5 * 8 * block + 100 * k_max

    def test_k_reaching_nan_scores_rejected(self):
        g = random_digraph(6, 8, seed=0)
        emb = make_embeddings(6, 3, seed=0)
        emb.o[3:] = np.nan
        assert network_reconstruction(emb, g, [10]).table[0]["K"] == 10
        with pytest.raises(EvaluationError, match="NaN"):
            network_reconstruction(emb, g, [20])

    def test_unknown_mode_rejected(self):
        g = random_digraph(5, 6, seed=0)
        emb = make_embeddings(5, 3, seed=0)
        with pytest.raises(EvaluationError, match=r"unknown scorer mode 'undirected' "
                                                  r"\(accepted: directed symmetric\)"):
            network_reconstruction(emb, g, [1], mode="undirected")

    def test_invalid_k_rejected(self):
        g = random_digraph(5, 6, seed=0)
        emb = make_embeddings(5, 3, seed=0)
        with pytest.raises(EvaluationError):
            network_reconstruction(emb, g, [0])
        with pytest.raises(EvaluationError):
            network_reconstruction(emb, g, [21])  # only 20 ordered pairs
        with pytest.raises(EvaluationError, match="empty"):
            network_reconstruction(emb, g, [])

    def test_graph_with_another_node_count_rejected(self):
        emb = make_embeddings(5, 3, seed=0)
        with pytest.raises(EvaluationError, match="disagree on node count"):
            network_reconstruction(emb, random_digraph(6, 6, seed=0), [1])

    def test_repeated_k_rejected_before_scoring(self, monkeypatch):
        g = random_digraph(5, 6, seed=0)
        emb = make_embeddings(5, 3, seed=0)
        scored = []
        monkeypatch.setattr(evaluation, "expit", lambda *a, **k: scored.append(1))
        with pytest.raises(EvaluationError, match="K=2 appears twice"):
            network_reconstruction(emb, g, [2, 5, 2])
        assert scored == []


class TestLinkSampling:
    def test_path_graph_has_no_removable_edge(self):
        g = DirectedGraph(["a", "b", "c"], np.array([(0, 1), (1, 2)]))
        with pytest.raises(SamplingError, match="achieved 0"):
            sample_link_prediction(g, 50.0, seed=0)

    def test_cycle_graph_keeps_connectivity(self):
        # exactly one edge of a 3-cycle can go before it becomes a path
        g = DirectedGraph(["a", "b", "c"], np.array([(0, 1), (1, 2), (2, 0)]))
        sample = sample_link_prediction(g, 30.0, seed=0)  # quota 1 of 3
        assert int(sample.labels.sum()) == 1
        res = sample.residual_graph
        assert connected_components(res.out_adjacency, connection="weak")[0] == 1

    def test_quota_beyond_removable_edges_reports_achieved(self):
        g = DirectedGraph(["a", "b", "c"], np.array([(0, 1), (1, 2), (2, 0)]))
        with pytest.raises(SamplingError, match="achieved 1"):
            sample_link_prediction(g, 67.0, seed=0)  # wants 2, only 1 removable

    def test_reciprocal_pair_counts_as_two_edges(self):
        edges = np.array([(0, 1), (1, 0), (1, 2), (2, 0)])
        g = DirectedGraph(["a", "b", "c"], edges)
        sample = sample_link_prediction(g, 25.0, seed=3)  # quota 1
        assert sample.residual_graph.edge_count == 3
        assert components_union_find(3, sample.residual_graph.edge_list) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_residual_component_structure(self, seed):
        g = random_digraph(30, 70, seed=seed, ensure_connected=True)
        before = components_union_find(30, g.edge_list)
        sample = sample_link_prediction(g, 10.0, seed=seed)
        after = components_union_find(30, sample.residual_graph.edge_list)
        assert after == before

        quota = math.ceil(10.0 * g.edge_count / 100.0)
        assert int(sample.labels.sum()) == quota
        assert len(sample.labels) == 2 * quota

        edge_set = {(int(u), int(v)) for u, v in g.edge_list}
        true_set = {(int(u), int(v)) for u, v in sample.true_pairs}
        false_set = {(int(u), int(v)) for u, v in sample.false_pairs}
        assert true_set <= edge_set
        assert not (false_set & edge_set)
        assert not (true_set & false_set)
        assert len(false_set) == quota  # distinct non-edges
        # removed edges really left the residual
        residual_set = {(int(u), int(v)) for u, v in sample.residual_graph.edge_list}
        assert residual_set == edge_set - true_set

    def test_same_seed_same_sample(self):
        g = random_digraph(25, 60, seed=4, ensure_connected=True)
        s1 = sample_link_prediction(g, 10.0, seed=9)
        s2 = sample_link_prediction(g, 10.0, seed=9)
        assert np.array_equal(s1.pairs, s2.pairs)
        assert np.array_equal(s1.labels, s2.labels)

    def test_self_loops_do_not_use_up_non_edges(self):
        # two of the three edges are self-loops, which are not candidate pairs,
        # so the pair (1, 0) is free to be the one false sample
        g = DirectedGraph(["a", "b"], np.array([(0, 0), (1, 1), (0, 1)]))
        sample = sample_link_prediction(g, 33.0, seed=0)  # quota 1
        assert sample.pairs.tolist() == [[0, 0], [1, 0]]
        assert sample.pairs.tolist() == reference_link_sample(g, 33.0, seed=0).pairs.tolist()

    def test_zero_quota_rejected(self):
        g = random_digraph(10, 15, seed=0)
        with pytest.raises(SamplingError):
            sample_link_prediction(g, 0.0, seed=0)

    @pytest.mark.parametrize("percent", [math.nan, math.inf, -math.inf])
    def test_non_finite_percent_rejected(self, percent):
        g = random_digraph(10, 15, seed=0)
        with pytest.raises(SamplingError, match="not a finite number"):
            sample_link_prediction(g, percent, seed=0)

    @pytest.mark.parametrize("percent", [1e308, -1e308, 100.5, 0.0])
    def test_percent_outside_0_100_rejected(self, percent):
        g = random_digraph(10, 15, seed=0)
        with pytest.raises(SamplingError) as info:
            sample_link_prediction(g, percent, seed=0)
        assert str(info.value) == f"percent={percent} is not in (0, 100]"


def messy_digraph(n, m, seed):
    """Random digraph with self-loops, reciprocal pairs, isolated nodes and,
    when sparse, several weak components; edges in insertion order."""
    rng = np.random.default_rng(seed)
    edges = {}
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v and rng.random() < 0.8:
            continue
        edges[(u, v)] = None
        if u != v and rng.random() < 0.3 and len(edges) < m:
            edges[(v, u)] = None
    return DirectedGraph([f"n{i}" for i in range(n)], np.array(list(edges), dtype=np.int64))


class TestTwoEndedSearch:
    """The sampler's connectivity search answers as a one-ended BFS does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_one_ended_bfs_on_every_pair(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        adj: list[set] = [set() for _ in range(n)]
        # the last five nodes stay isolated
        for u, v in rng.integers(0, n - 5, size=(int(rng.integers(10, 60)), 2)).tolist():
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        before = [set(a) for a in adj]
        pairs = [(src, dst) for src in range(n) for dst in range(n)]  # src == dst too
        got = [evaluation._bfs_connected(adj, src, dst) for src, dst in pairs]
        assert got == [one_ended_connected(adj, src, dst) for src, dst in pairs]
        assert adj == before
        assert True in got and False in got

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_one_ended_bfs_on_the_counted_adjacency(self, seed):
        # the sampler's own adjacency: neighbour -> edges joining the two,
        # with self-loops, reciprocal pairs and five isolated nodes
        rng = np.random.default_rng(seed)
        n = 40
        edges = {(u, v) for u, v in rng.integers(0, n - 5, size=(30, 2)).tolist()}
        edges |= {(v, u) for u, v in list(edges)[:8]} | {(u, u) for u in range(0, n - 5, 7)}
        adj: list[dict] = [{} for _ in range(n)]
        for u, v in sorted(edges):
            evaluation._link(adj, u, v, 1)
        counts = [(u, v, c) for u, a in enumerate(adj) for v, c in a.items()]
        assert (0, 0, 2) in counts and any(c == 2 and u != v for u, v, c in counts)
        before = [dict(a) for a in adj]
        pairs = [(src, dst) for src in range(n) for dst in range(n)]
        got = [evaluation._bfs_connected(adj, src, dst) for src, dst in pairs]
        assert got == [one_ended_connected(adj, src, dst) for src, dst in pairs]
        assert adj == before
        assert True in got and False in got


class TestCountedAdjacency:
    def test_link_counts_edges_either_way_and_drops_at_zero(self):
        adj: list[dict] = [{}, {}, {}]
        for u, v in [(0, 1), (1, 0), (2, 2)]:
            evaluation._link(adj, u, v, 1)
        assert adj == [{1: 2}, {0: 2}, {2: 2}]  # a reciprocal pair, a self-loop twice
        evaluation._link(adj, 1, 0, -1)
        assert adj == [{1: 1}, {0: 1}, {2: 2}]
        evaluation._link(adj, 0, 1, -1)
        evaluation._link(adj, 2, 2, -1)
        assert adj == [{}, {}, {}]


class TestSamplerMatchesOneEndedOracle:
    """The link sampler draws what the one-ended BFS sampler draws, and fails alike."""

    def test_samples_and_errors_equal_oracle(self):
        complete = DirectedGraph(["a", "b", "c"],
                                 [(u, v) for u in range(3) for v in range(3)])
        sizes = np.random.default_rng(7).integers(8, 60, 30)
        graphs = [complete] + [messy_digraph(int(n), int(n * degree), seed) for seed, (n, degree)
                               in enumerate(zip(sizes, np.tile([0.8, 1.5, 3.0], 10)))]
        outcomes = {"sample": 0, "error": 0, "loop": 0, "reciprocal": 0}
        for seed, g in enumerate(graphs):
            for percent in (5.0, 20.0, 50.0):
                try:
                    want = reference_link_sample(g, percent, seed)
                except SamplingError as exc:
                    with pytest.raises(SamplingError) as got:
                        sample_link_prediction(g, percent, seed)
                    assert str(got.value) == str(exc)
                    outcomes["error"] += 1
                    continue
                got = sample_link_prediction(g, percent, seed)
                assert got.pairs.tobytes() == want.pairs.tobytes()
                assert got.labels.tobytes() == want.labels.tobytes()
                res, want_res = got.residual_graph, want.residual_graph
                assert res.edge_list.tobytes() == want_res.edge_list.tobytes()
                assert (res.node_ids, res.metadata) == (want_res.node_ids, want_res.metadata)
                assert (got.seed, got.percent) == (want.seed, want.percent)
                outcomes["sample"] += 1
                true = {tuple(p) for p in got.true_pairs.tolist()}
                outcomes["loop"] += any(u == v for u, v in true)
                outcomes["reciprocal"] += any((v, u) in true and u != v for u, v in true)
        assert min(outcomes.values()) > 0, outcomes


class TestEdgeFeatures:
    def test_closed_form_values(self):
        emb = make_embeddings(2, 2, seed=0)
        emb.o[0] = [1.0, 2.0]
        emb.i[1] = [3.0, 4.0]
        pair = (0, 1)
        assert np.array_equal(edge_features(emb, pair, "average"), [2.0, 3.0])
        assert np.array_equal(edge_features(emb, pair, "hadamard"), [3.0, 8.0])
        assert np.array_equal(edge_features(emb, pair, "w-l1"), [2.0, 2.0])
        assert np.array_equal(edge_features(emb, pair, "w-l2"), [4.0, 4.0])

    def test_equal_endpoints_zero_differences(self):
        emb = make_embeddings(2, 3, seed=1)
        emb.o[0] = emb.i[1] = np.array([0.5, -1.0, 2.0])
        assert not edge_features(emb, (0, 1), "w-l1").any()
        assert not edge_features(emb, (0, 1), "w-l2").any()

    def test_symmetric_mode_uses_z(self):
        emb = make_embeddings(3, 2, seed=2)
        got = edge_features(emb, (0, 2), "average", mode="symmetric")
        assert np.array_equal(got, (emb.z[0] + emb.z[2]) / 2)

    @pytest.mark.parametrize("ctor", EDGE_CONSTRUCTORS)
    def test_matches_scalar_oracle_k128(self, ctor):
        emb = make_embeddings(4, 128, seed=3)
        u, v = 1, 2
        a, b = emb.o[u], emb.i[v]
        got = edge_features(emb, (u, v), ctor)
        for j in range(128):
            if ctor == "average":
                exp = (a[j] + b[j]) / 2
            elif ctor == "hadamard":
                exp = a[j] * b[j]
            elif ctor == "w-l1":
                exp = abs(a[j] - b[j])
            else:
                exp = (a[j] - b[j]) ** 2
            assert abs(got[j] - exp) < 1e-15

    def test_unknown_constructor_rejected(self):
        emb = make_embeddings(2, 2, seed=0)
        with pytest.raises(EvaluationError, match="unknown edge-feature constructor 'concat' "
                                                  r"\(accepted: average hadamard w-l1 w-l2\)"):
            edge_features(emb, (0, 1), "concat")

    @pytest.mark.parametrize("name", ["Hadamard", None], ids=["capitalised", "none"])
    def test_only_the_exact_table_name_is_accepted(self, name):
        emb = make_embeddings(2, 2, seed=0)
        with pytest.raises(EvaluationError) as info:
            edge_features(emb, (0, 1), name)
        assert str(info.value) == (f"unknown edge-feature constructor {name!r} "
                                   "(accepted: average hadamard w-l1 w-l2)")


class TestLogisticRegression:
    def test_monotone_probabilities_on_separated_data(self, monkeypatch):
        monkeypatch.setattr(evaluation, "L2", 0.5)
        x = np.linspace(-2, 2, 20).reshape(-1, 1)
        y = (x.ravel() > 0).astype(float)
        w = logistic_regression_fit(x, y)
        proba = logistic_predict_proba(w, x)
        assert np.all(np.diff(proba) > 0)
        assert np.all(proba[y == 1] > 0.5)
        assert np.all(proba[y == 0] < 0.5)

    def test_zero_variance_feature_gets_zero_weight(self):
        x = np.full((20, 1), 3.0)
        y = np.array([0.0, 1.0] * 10)
        w = logistic_regression_fit(x, y)
        assert abs(w[1]) < 1e-8
        assert abs(w[0]) < 1e-6  # balanced classes: near-pure intercept at 0

    def test_loss_matches_independent_gradient_descent(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 3))
        y = (x @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.normal(size=20) > 0).astype(float)
        l2 = evaluation.L2
        w = logistic_regression_fit(x, y)

        xb = np.hstack([np.ones((20, 1)), x])
        pen = np.array([0.0, 1.0, 1.0, 1.0])

        def objective(wv):
            s = xb @ wv
            return float(np.sum(np.logaddexp(0.0, s) - y * s)
                         + 0.5 * l2 * np.sum(pen * wv * wv))

        # plain gradient descent as the independent oracle
        w_gd = np.zeros(4)
        lr = 0.02
        for _ in range(60000):
            s = xb @ w_gd
            g = xb.T @ (1 / (1 + np.exp(-s)) - y) + l2 * pen * w_gd
            w_gd -= lr * g
        assert abs(objective(w) - objective(w_gd)) < 1e-6

    def test_non_finite_input_rejected(self):
        x = np.array([[1.0], [np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            logistic_regression_fit(x, np.array([0.0, 1.0]))

    def test_singular_newton_system_falls_back_to_least_squares(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 4))
        y = (x @ np.array([1.0, -1.0, 0.5, 0.0]) + rng.normal(size=60) > 0).astype(float)
        want = logistic_regression_fit(x, y)

        def singular(h, g):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert np.max(np.abs(logistic_regression_fit(x, y) - want)) < 1e-12


class TestAuc:
    def test_scores_equal_labels(self):
        y = np.array([0, 1, 1, 0, 1])
        assert auc_score(y, y.astype(float)) == 1.0

    def test_tied_fixture_matches_pair_counting_oracle(self):
        y = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 0])
        s = np.array([0.9, 0.9, 0.8, 0.5, 0.5, 0.5, 0.3, 0.3, 0.1, 0.0])
        got = auc_score(y, s)
        pos = s[y == 1]
        neg = s[y == 0]
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        assert got == wins / (len(pos) * len(neg))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_fixture_matches_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=40)
        y[0], y[1] = 0, 1
        s = np.round(rng.random(40), 1)  # coarse grid forces ties
        pos, neg = s[y == 1], s[y == 0]
        wins = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                   for p in pos for q in neg)
        assert abs(auc_score(y, s) - wins / (len(pos) * len(neg))) < 1e-12

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=30)
        y[:2] = [0, 1]
        s = rng.normal(size=30)
        base = auc_score(y, s)
        assert auc_score(y, 2 * s + 1) == base
        assert auc_score(y, 1 / (1 + np.exp(-s))) == base

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            auc_score(np.ones(5), np.arange(5.0))


class TestF1:
    def test_all_correct_is_one(self):
        y = np.array([0, 1, 2, 1, 0])
        micro, macro = micro_macro_f1(y, y, 3)
        assert micro == 1.0 and macro == 1.0

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 3, size=30)
        pred = rng.integers(0, 3, size=30)
        micro, macro = micro_macro_f1(true, pred, 3)

        f1s = []
        tp_all = fp_all = fn_all = 0
        for c in range(3):
            tp = int(np.sum((true == c) & (pred == c)))
            fp = int(np.sum((true != c) & (pred == c)))
            fn = int(np.sum((true == c) & (pred != c)))
            tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert macro == pytest.approx(np.mean(f1s), abs=1e-12)
        assert micro == pytest.approx(2 * tp_all / (2 * tp_all + fp_all + fn_all),
                                      abs=1e-12)

    def test_absent_class_contributes_zero_to_macro(self):
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 1])
        micro, macro = micro_macro_f1(true, pred, 3)
        assert micro == 1.0
        assert macro == pytest.approx(2.0 / 3.0)

    def test_binary_f1_counts(self):
        y = np.array([1, 1, 0, 0, 1])
        p = np.array([1, 0, 1, 0, 1])
        # tp=2 fp=1 fn=1 -> f1 = 4/6
        assert binary_f1(y, p) == pytest.approx(2 / 3)

    # labels 0..2, with class 1 emptied in some cases; n_classes 0, below,
    # at and above the largest label
    @pytest.mark.parametrize("n_classes", [0, 1, 3, 5])
    @pytest.mark.parametrize("seed, empty_class", [(0, None), (1, None), (2, 1), (3, 1)])
    def test_micro_macro_match_per_class_loop_bit_for_bit(self, seed, empty_class, n_classes):
        rng = np.random.default_rng(seed)
        true, pred = rng.integers(0, 3, size=(2, 29))
        if empty_class is not None:
            true[true == empty_class] = 2
            pred[pred == empty_class] = 0
        _, micro, macro = reference_f1(true, pred, n_classes)
        assert micro_macro_f1(true, pred, n_classes) == (micro, macro)

    @pytest.mark.parametrize("seed", range(4))
    def test_binary_f1_matches_per_class_loop_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        y, p = rng.integers(0, 2, size=(2, 17))
        assert binary_f1(y, p) == reference_f1(y, p, 2)[0][1]
        zeros = np.zeros(5, dtype=int)  # no positive anywhere: F1 is 0
        assert binary_f1(zeros, zeros) == reference_f1(zeros, zeros, 2)[0][1] == 0.0

    def test_negative_labels_rejected(self):
        with pytest.raises(EvaluationError, match="nonnegative"):
            micro_macro_f1([0, -1, 1], [0, 1, 1], 2)
        with pytest.raises(EvaluationError, match="nonnegative"):
            binary_f1([0, 1], [-1, 1])


class TestStratification:
    def test_folds_partition_and_balance(self):
        y = np.array([0] * 9 + [1] * 9)
        folds = stratified_fold_indices(y, 3, np.random.default_rng(0))
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(18))
        for f in folds:
            assert int(y[f].sum()) == 3  # 3 of each class per fold

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_loop_forms_and_draws(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, int(rng.integers(1, 8)), size=int(rng.integers(1, 400)))
        y = y * 3 + 2  # labels need not be 0..c-1
        for n_folds in (2, 3, 5):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stratified_fold_indices(y, n_folds, got_rng)
            want = reference_stratified_fold_indices(y, n_folds, want_rng)
            assert [f.dtype for f in got] == [f.dtype for f in want]
            assert [f.tolist() for f in got] == [f.tolist() for f in want]
            assert got_rng.random() == want_rng.random()
        for fraction in (0.01, 0.1, 0.5, 0.99):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = stratified_split(y, fraction, got_rng)
            want = reference_stratified_split(y, fraction, want_rng)
            assert [a.dtype for a in got] == [a.dtype for a in want]
            assert [a.tolist() for a in got] == [a.tolist() for a in want]
            assert got_rng.random() == want_rng.random()

    def test_split_covers_every_class(self):
        y = np.array([0] * 10 + [1] * 5 + [2] * 2)
        train, test = stratified_split(y, 0.3, np.random.default_rng(1))
        assert set(np.unique(y[train])) == {0, 1, 2}
        assert len(train) + len(test) == 17
        assert not set(train.tolist()) & set(test.tolist())


class TestLinkPredictionEval:
    def _label_revealing_setup(self, q=9):
        # node-disjoint pairs whose hadamard feature equals the label
        n = 4 * q
        k = 1
        z = np.zeros((n, k))
        o = np.ones((n, k))
        i = np.zeros((n, k))
        true_pairs = [(j, q + j) for j in range(q)]
        false_pairs = [(2 * q + j, 3 * q + j) for j in range(q)]
        for _, v in true_pairs:
            i[v] = 1.0
        emb = EmbeddingSet(z, o, i, [f"n{j}" for j in range(n)], "edge")
        g = DirectedGraph([f"n{j}" for j in range(n)],
                          np.array(true_pairs, dtype=np.int64))

        from diagram.evaluation import LinkSample
        pairs = np.array(true_pairs + false_pairs, dtype=np.int64)
        labels = np.concatenate([np.ones(q, dtype=np.int64),
                                 np.zeros(q, dtype=np.int64)])
        return emb, LinkSample(pairs, labels, g, seed=0, percent=10.0)

    def test_perfectly_separable_features(self):
        emb, sample = self._label_revealing_setup()
        report = link_prediction_eval(emb, sample, constructors=("hadamard",))
        row = report.table[0]
        assert row["auc_mean"] == 1.0
        assert row["f1_mean"] == 1.0

    def test_constant_features_score_chance(self):
        emb, sample = self._label_revealing_setup()
        emb.i[:] = 1.0  # every hadamard feature identical
        report = link_prediction_eval(emb, sample, constructors=("hadamard",))
        assert abs(report.table[0]["auc_mean"] - 0.5) < 0.05

    def test_sample_from_another_graph_is_refused(self):
        sample = sample_link_prediction(random_digraph(40, 120, seed=0, ensure_connected=True),
                                        20.0, seed=0)
        with pytest.raises(EvaluationError,
                           match="embedding and link sample disagree on node count"):
            link_prediction_eval(make_embeddings(100, 4, seed=0), sample)

    def test_report_has_all_constructors(self):
        g = random_digraph(24, 80, seed=5, ensure_connected=True)
        sample = sample_link_prediction(g, 15.0, seed=5)
        emb = make_embeddings(24, 4, seed=6)
        report = link_prediction_eval(emb, sample, seed=1)
        assert [r["constructor"] for r in report.table] == list(EDGE_CONSTRUCTORS)
        assert (report.config["n_folds"], report.config["l2"]) == (3, 1.0)
        for ctor in EDGE_CONSTRUCTORS:
            assert len(report.details[ctor]["auc"]) == 3

    def test_row_permutation_with_mapped_folds_is_invariant(self, monkeypatch):
        emb, sample = self._label_revealing_setup(q=6)
        rng = np.random.default_rng(2)
        folds = stratified_fold_indices(sample.labels, 3, rng)
        monkeypatch.setattr(evaluation, "stratified_fold_indices", lambda *a: folds)
        base = link_prediction_eval(emb, sample, constructors=("average",))

        perm = np.random.default_rng(3).permutation(len(sample.labels))
        from diagram.evaluation import LinkSample
        permuted = LinkSample(sample.pairs[perm], sample.labels[perm],
                              sample.residual_graph, sample.seed, sample.percent)
        inv = np.argsort(perm)
        mapped_folds = [np.sort(inv[f]) for f in folds]
        monkeypatch.setattr(evaluation, "stratified_fold_indices", lambda *a: mapped_folds)
        again = link_prediction_eval(emb, permuted, constructors=("average",))
        assert again.table[0]["auc_mean"] == base.table[0]["auc_mean"]
        assert again.table[0]["f1_mean"] == base.table[0]["f1_mean"]

    def test_unbalanced_sample_rejected(self):
        emb, sample = self._label_revealing_setup()
        sample.labels[0] = 0
        with pytest.raises(EvaluationError, match="balanced"):
            link_prediction_eval(emb, sample)

    def test_repeated_constructor_rejected(self, monkeypatch):
        emb, sample = self._label_revealing_setup()
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match="share the details key 'hadamard'"):
            link_prediction_eval(emb, sample, constructors=("hadamard", "average", "hadamard"))
        assert fits == []

    def test_constructors_keyed_by_lower_case_name(self, monkeypatch):
        emb, sample = self._label_revealing_setup()
        report = link_prediction_eval(emb, sample, constructors=("hadamard", "w-l1"))
        assert [row["constructor"] for row in report.table] == ["hadamard", "w-l1"]
        assert list(report.details) == ["hadamard", "w-l1"]
        fits = count_fits(monkeypatch)
        for constructors, name in [(("Hadamard", "W-L1"), "Hadamard"),
                                   (("hadamard", "HADAMARD"), "HADAMARD")]:
            with pytest.raises(EvaluationError,
                               match=f"unknown edge-feature constructor '{name}'"):
                link_prediction_eval(emb, sample, constructors=constructors)
        assert fits == []

    def test_unknown_constructor_rejected_before_any_fit(self, monkeypatch):
        emb, sample = self._label_revealing_setup()
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match="unknown edge-feature constructor 'foo' "
                                                  r"\(accepted: average hadamard w-l1 w-l2\)"):
            link_prediction_eval(emb, sample, constructors=("hadamard", "foo"))
        assert fits == []

    def test_unknown_mode_rejected_before_any_fit(self, monkeypatch):
        emb, sample = self._label_revealing_setup()
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match=r"unknown scorer mode 'undirected' "
                                                  r"\(accepted: directed symmetric\)"):
            link_prediction_eval(emb, sample, mode="undirected")
        assert fits == []

    def test_degenerate_fold_rejected_before_any_fit(self, monkeypatch):
        # quota 2 of 5 edges: with 3 folds, one test fold holds no pair
        sample = sample_link_prediction(five_edge_graph(), 40.0, seed=0)
        assert int(sample.labels.sum()) == 2
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match="degenerate single-class fold"):
            link_prediction_eval(make_embeddings(4, 3, seed=1), sample)
        assert fits == []


class TestNodeClassification:
    def test_one_hot_embeddings_classify_perfectly(self):
        labels = np.array([0, 1, 2] * 10)
        z = np.eye(3)[labels]
        emb = EmbeddingSet(z, z, z, [f"n{j}" for j in range(30)], "node")
        report = node_classification_eval(emb, labels, train_ratios=(50,),
                                          repetitions=3, seed=0)
        row = report.table[0]
        assert row["micro_f1_mean"] == 1.0
        assert row["macro_f1_mean"] == 1.0

    def test_macro_f1_averages_over_the_classes_present(self):
        # label value 1 never occurs, so it is not a class that scores F1 = 0
        labels = np.array([0, 2] * 10)
        z = np.eye(3)[labels]
        emb = EmbeddingSet(z, z, z, [f"n{j}" for j in range(20)], "node")
        row = node_classification_eval(emb, labels, train_ratios=(50,),
                                       repetitions=2, seed=0).table[0]
        assert (row["micro_f1_mean"], row["macro_f1_mean"]) == (1.0, 1.0)

    def test_ratios_and_repetitions_shape(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [0, 1, 2]
        emb = make_embeddings(40, 5, seed=1)
        report = node_classification_eval(emb, labels, train_ratios=(10, 30, 50),
                                          repetitions=4, seed=0)
        assert [r["train_ratio"] for r in report.table] == [10.0, 30.0, 50.0]
        for key, det in report.details.items():
            assert len(det["micro_f1"]) == 4
        for row in report.table:
            assert 0.0 <= row["micro_f1_mean"] <= 1.0
            assert 0.0 <= row["macro_f1_mean"] <= 1.0

    def test_deterministic_given_seed(self):
        labels = np.array([0, 1] * 15)
        emb = make_embeddings(30, 4, seed=2)
        r1 = node_classification_eval(emb, labels, train_ratios=(30,),
                                      repetitions=3, seed=7)
        r2 = node_classification_eval(emb, labels, train_ratios=(30,),
                                      repetitions=3, seed=7)
        assert r1.as_dict() == r2.as_dict()

    def test_concat_features_supported(self):
        labels = np.array([0, 1] * 10)
        emb = make_embeddings(20, 3, seed=3)
        report = node_classification_eval(emb, labels, train_ratios=(50,),
                                          repetitions=2, features="zoi", seed=0)
        assert report.config["features"] == "zoi"

    def test_ratio_1_trains_on_one_percent_of_each_class(self, monkeypatch):
        labels = np.repeat([0, 1, 2], [300, 100, 50])
        emb = make_embeddings(labels.size, 4, seed=6)
        counts = []
        ovr = evaluation._ovr_predict

        def counting_ovr(X_train, y_train, X_test, classes):
            counts.append(np.bincount(y_train).tolist())
            return ovr(X_train, y_train, X_test, classes)

        monkeypatch.setattr(evaluation, "_ovr_predict", counting_ovr)
        report = node_classification_eval(emb, labels, train_ratios=(1,),
                                          repetitions=2, seed=0)
        assert counts == [[3, 1, 1]] * 2  # 1%, and at least one node per class
        assert report.table[0]["train_ratio"] == 1.0
        assert report.config["l2"] == 1.0

    @pytest.mark.parametrize("ratio", [0, -5, 100])
    def test_ratio_outside_0_100_rejected(self, ratio, monkeypatch):
        labels = np.array([0, 1] * 10)
        emb = make_embeddings(20, 3, seed=3)
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match="not a percentage"):
            node_classification_eval(emb, labels, train_ratios=(ratio,))
        with pytest.raises(EvaluationError, match="not a percentage"):
            node_classification_eval(emb, labels, train_ratios=(10, 30, ratio))
        assert fits == []

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_repetitions_below_1_rejected(self, repetitions):
        emb = make_embeddings(20, 3, seed=3)
        with pytest.raises(EvaluationError, match="repetitions must be >= 1"):
            node_classification_eval(emb, np.array([0, 1] * 10), repetitions=repetitions)

    def test_repeated_ratio_rejected(self, monkeypatch):
        emb = make_embeddings(20, 3, seed=3)
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match="share the details key '30'"):
            node_classification_eval(emb, np.array([0, 1] * 10), train_ratios=(10, 30, 30, 50),
                                     repetitions=1)
        assert fits == []

    def test_ratio_that_leaves_no_test_data_fails_before_any_fit(self, monkeypatch):
        # 99% of a 20-node class rounds to all 20
        emb = make_embeddings(40, 3, seed=3)
        fits = count_fits(monkeypatch)
        with pytest.raises(EvaluationError, match="train ratio 99 leaves no test data"):
            node_classification_eval(emb, np.array([0, 1] * 20), train_ratios=(10, 99))
        assert fits == []

    def test_labels_must_cover_nodes(self):
        emb = make_embeddings(10, 3, seed=4)
        with pytest.raises(EvaluationError):
            node_classification_eval(emb, np.zeros(7, dtype=int))


def near_separable(n=40, seed=5):
    """Four classes cut by two thresholds, with three far-out points on which
    full Newton steps overshoot, so the line search has to halve some."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, 2))
    z[:3] *= 30.0
    labels = (z[:, 0] > 0).astype(np.int64) + 2 * (z[:, 1] > 1.5)
    return EmbeddingSet(z, z, z, [f"n{j}" for j in range(n)], "node"), labels


class TestOneVsRestMatchesPerClassOracle:
    """One fit of all classes' columns gives the per-class fits' bits."""

    @pytest.mark.parametrize("l2", [1e-3, 1e-2, 0.1])
    def test_weights_equal_per_class_fits(self, l2, monkeypatch):
        monkeypatch.setattr(evaluation, "L2", l2)
        emb, labels = near_separable()
        one_hot = (labels[:, None] == np.unique(labels)).astype(np.float64)
        weights = logistic_regression_fit(emb.z, one_hot)
        assert weights.shape == (4, 3)
        halvings = []
        for column, w in zip(one_hot.T, weights):
            want = reference_logistic_regression_fit(emb.z, column, l2=l2,
                                                     halvings=halvings)
            assert w.tobytes() == want.tobytes()
        assert max(halvings) > 0  # the line search halved a step

    def test_weights_near_textbook_hessian_fits(self, monkeypatch):
        # The program forms the Newton Hessian as a symmetric rank-k product;
        # the general product (nb * r).T @ nb rounds differently. Over these
        # 98 fits the largest difference measured 1.2e-15 of the largest
        # weight; the bound leaves a factor of about 100.
        cases = [(near_separable(seed=seed), l2) for seed in range(5)
                 for l2 in (1e-3, 1e-2, 0.1, 1.0)]
        noise = np.random.default_rng(3).integers(0, 6, size=1000)
        cases += [((make_embeddings(n, k, seed=n), noise[:n]), 1.0)
                  for n, k in ((60, 4), (300, 16), (1000, 32))]
        worst = 0.0
        for (emb, labels), l2 in cases:
            monkeypatch.setattr(evaluation, "L2", l2)
            one_hot = (labels[:, None] == np.unique(labels)).astype(np.float64)
            for column, w in zip(one_hot.T, logistic_regression_fit(emb.z, one_hot)):
                want = reference_logistic_regression_fit(emb.z, column, l2=l2,
                                                         hessian=textbook_hessian)
                worst = max(worst, np.abs(w - want).max() / np.abs(want).max())
        assert worst <= 1e-13

    def test_one_column_equals_one_dimensional_target(self, monkeypatch):
        monkeypatch.setattr(evaluation, "L2", 0.1)
        emb, labels = near_separable()
        y = (labels == 1).astype(np.float64)
        w = logistic_regression_fit(emb.z, y)
        assert w.shape == (3,)
        assert logistic_regression_fit(emb.z, y[:, None])[0].tobytes() == w.tobytes()

    def test_node_classification_reports_equal_oracle(self, monkeypatch):
        cases = [(near_separable(), 0.01, seed) for seed in (0, 4, 5)]
        noise = np.random.default_rng(3).integers(0, 6, size=1000)
        cases += [((make_embeddings(n, k, seed=seed), noise[:n]), 1.0, seed)
                  for n, k, seed in ((300, 16, 1), (1000, 32, 2))]
        halvings = []
        for (emb, labels), l2, seed in cases:
            args = (emb, labels, (10, 30, 50))
            kwargs = {"repetitions": 3, "seed": seed}
            with monkeypatch.context() as m:
                m.setattr(evaluation, "L2", l2)
                got = node_classification_eval(*args, **kwargs).as_dict()
                m.setattr(evaluation, "_ovr_predict",
                          functools.partial(reference_ovr_predict, l2=l2,
                                            max_iter=evaluation.MAX_ITER,
                                            halvings=halvings))
                want = node_classification_eval(*args, **kwargs).as_dict()
            assert got == want, (l2, seed)
        assert max(halvings) > 0

    def test_link_prediction_reports_equal_oracle(self, monkeypatch):
        g = random_digraph(40, 160, seed=12, ensure_connected=True)
        sample = sample_link_prediction(g, 20.0, seed=3)
        emb = make_embeddings(40, 6, seed=13)
        got = link_prediction_eval(emb, sample, seed=3).as_dict()
        monkeypatch.setattr(evaluation, "logistic_regression_fit",
                            reference_logistic_regression_fit)
        assert link_prediction_eval(emb, sample, seed=3).as_dict() == got


def five_edge_graph() -> DirectedGraph:
    """A triangle with one reciprocal side and a pendant edge: two edges can go."""
    return DirectedGraph(["a", "b", "c", "d"], np.array([(0, 1), (1, 0), (1, 2), (2, 0), (2, 3)]))


class TestFullProtocol:
    def test_protocol_trains_on_residual_and_reports(self, tmp_path):
        g = random_digraph(20, 60, seed=10, ensure_connected=True)
        feats = random_features(20, 6, seed=11)
        cfg = TrainConfig(epochs=2, batch_size=16, dropout=0.0, seed=0,
                          trunk_dims=(8, 4), embedding_dim=3)
        reports, sample, result = run_link_prediction_protocol(
            g, feats, percent=10.0, seed=1, variant="edge", cfg=cfg,
            modes=("directed", "symmetric"))
        assert set(reports) == {"directed", "symmetric"}
        assert result.embeddings.variant == "edge"
        assert sample.residual_graph.edge_count == g.edge_count - int(sample.labels.sum())
        for report in reports.values():
            assert len(report.table) == len(EDGE_CONSTRUCTORS)

        # determinism of the full pipeline, file-level
        reports2, _, _ = run_link_prediction_protocol(
            g, feats, percent=10.0, seed=1, variant="edge", cfg=cfg,
            modes=("directed", "symmetric"))
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        reports["directed"].to_json(p1)
        reports2["directed"].to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_edge_variant_ignores_a_given_transfer_model(self):
        # the edge model must start from a node model fitted on the residual
        # graph, never from one that saw the removed edges
        g = random_digraph(20, 60, seed=10, ensure_connected=True)
        feats = random_features(20, 6, seed=11)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0, trunk_dims=(8, 4), embedding_dim=3)
        full = train_node_model(g, feats, replace(cfg, epochs=2)).model
        for variant in ("edge", "node"):
            _, _, want = run_link_prediction_protocol(g, feats, 10.0, 1, variant, cfg)
            _, _, got = run_link_prediction_protocol(g, feats, 10.0, 1, variant,
                                                     replace(cfg, transfer_from=full))
            for name, arr in want.model.parameters().items():
                assert got.model.parameters()[name].tobytes() == arr.tobytes(), (variant, name)

    def test_unknown_variant_rejected_before_sampling(self, monkeypatch):
        calls = []
        sample = evaluation.sample_link_prediction
        monkeypatch.setattr(evaluation, "sample_link_prediction",
                            lambda *a, **k: calls.append(1) or sample(*a, **k))
        with pytest.raises(EvaluationError,
                           match=r"unknown variant 'bogus' \(accepted: node edge\)"):
            run_link_prediction_protocol(random_digraph(20, 60, seed=10),
                                         random_features(20, 6, seed=11), 10.0, 1,
                                         variant="bogus")
        assert calls == []

    def test_unknown_constructor_rejected_before_sampling(self, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled before the constructors were checked")

        monkeypatch.setattr(evaluation, "sample_link_prediction", sample)
        for name in ("foo", "Hadamard"):
            with pytest.raises(EvaluationError,
                               match=f"unknown edge-feature constructor '{name}'"):
                run_link_prediction_protocol(random_digraph(20, 60, seed=10),
                                             random_features(20, 6, seed=11), 10.0, 1,
                                             constructors=("hadamard", name))

    def test_degenerate_fold_rejected_before_training(self, monkeypatch):
        trainings = []
        for fn in ("train_node_model", "train_edge_model"):
            monkeypatch.setattr(evaluation, fn, lambda *a, fn=fn, **k: trainings.append(fn))
        fits = count_fits(monkeypatch)
        for variant in ("node", "edge"):
            with pytest.raises(EvaluationError, match="degenerate single-class fold"):
                run_link_prediction_protocol(five_edge_graph(), random_features(4, 3, seed=2),
                                             40.0, 1, variant=variant)
        assert trainings == [] and fits == []

    def test_repeated_constructor_rejected_before_sampling(self, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled before the constructors were checked")

        monkeypatch.setattr(evaluation, "sample_link_prediction", sample)
        with pytest.raises(EvaluationError, match="share the details key 'hadamard'"):
            run_link_prediction_protocol(random_digraph(20, 60, seed=10),
                                         random_features(20, 6, seed=11), 10.0, 1,
                                         constructors=("hadamard", "hadamard"))

    @pytest.mark.parametrize("modes, error, message", [
        (("bogus",), EvaluationError,
         r"unknown scorer mode 'bogus' \(accepted: directed symmetric\)"),
        (("directed", "bogus"), EvaluationError,
         r"unknown scorer mode 'bogus' \(accepted: directed symmetric\)"),
        ((), EvaluationError, "no mode groups"),
        (("directed", "directed"), EvaluationError, "share the details key 'directed'"),
    ], ids=["unknown", "one-unknown", "empty", "repeated"])
    def test_bad_modes_rejected_before_any_work(self, monkeypatch, modes, error, message):
        calls = []
        for fn in ("sample_link_prediction", "train_node_model", "train_edge_model"):
            monkeypatch.setattr(evaluation, fn, lambda *a, fn=fn, **k: calls.append(fn))
        with pytest.raises(error, match=message):
            run_link_prediction_protocol(random_digraph(20, 60, seed=10),
                                         random_features(20, 6, seed=11), 10.0, 1,
                                         modes=modes)
        assert calls == []

    def test_empty_constructor_and_ratio_lists_are_refused(self):
        emb = make_embeddings(20, 4, seed=1)
        sample = sample_link_prediction(random_digraph(20, 60, seed=10), 10.0, seed=1)
        with pytest.raises(EvaluationError, match="no constructor groups"):
            link_prediction_eval(emb, sample, constructors=())
        with pytest.raises(EvaluationError, match="no train_ratio groups"):
            node_classification_eval(emb, np.arange(20) % 2, train_ratios=())


class TestEvalReport:
    def test_json_and_csv_are_deterministic(self, tmp_path):
        report = EvalReport(
            kind="network_reconstruction",
            columns=["K", "precision"],
            table=[{"K": 5, "precision": 0.4}, {"K": 10, "precision": 0.3}],
            details={"mode": "directed"},
            config={"seed": 0},
            fingerprint="abc",
        )
        j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
        c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        report.to_json(j1)
        report.to_json(j2)
        report.to_csv(c1)
        report.to_csv(c2)
        assert j1.read_bytes() == j2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()
        loaded = json.loads(j1.read_text())
        assert loaded["kind"] == "network_reconstruction"
        assert c1.read_text().splitlines()[0] == "K,precision"

    def test_out_of_range_metric_rejected(self):
        report = EvalReport(kind="x", columns=["K", "precision"],
                            table=[{"K": 1, "precision": 1.5}])
        with pytest.raises(EvaluationError):
            report.validate()

