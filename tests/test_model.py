import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import diagram.model as gm
from diagram.data import DirectedGraph, build_undirected_union
from diagram.exceptions import DiagramError, EmbeddingFormatError, TrainingError
from diagram.model import (
    CHANNELS,
    DiagramModel,
    EmbeddingSet,
    TrainConfig,
    _edge_batches,
    _graph_tensors,
    _node_batches,
    _run_batches,
    compute_embeddings,
    export_embeddings,
    import_embeddings,
    load_model,
    penalty_weights,
    save_model,
    train_edge_model,
    train_node_model,
)
from diagram.nn import (CSRRows, finite_diff_check, load_checkpoint, masked_sq_error,
                        save_checkpoint)

from conftest import random_features
from oracles import edge_loss, full_forward_embeddings, mean_edge_loss, node_loss

SMALL = dict(trunk_dims=(8, 4), embedding_dim=3)


def rows(x) -> CSRRows:
    """Dense input rows as the CSR batch the input heads take."""
    return CSRRows(sp.csr_matrix(np.atleast_2d(x)))


def small_model(graph, features, seed=0):
    return DiagramModel(graph.node_count, features.dim, rng=np.random.default_rng(seed),
                        **SMALL)


# -- independent scalar pipeline (test oracle) --------------------------------


def _affine_tanh(W, b, vec):
    out = []
    for o in range(W.shape[0]):
        acc = b[o]
        for c in range(W.shape[1]):
            acc += W[o, c] * vec[c]
        out.append(math.tanh(acc))
    return out


def scalar_channel_forward(model, channel, x_row):
    head = model.head_for(channel)
    h = _affine_tanh(head.W.T, head.b, x_row)  # input heads hold W as (in, out)
    for layer in model.encoder_trunk:
        h = _affine_tanh(layer.W, layer.b, h)
    emb = _affine_tanh(model.embed.W, model.embed.b, h)
    h = emb
    for layer in model.decoder_trunk:
        h = _affine_tanh(layer.W, layer.b, h)
    recon = model.recon_for(channel)
    recon = _affine_tanh(recon.W, recon.b, h)
    return emb, recon


def scalar_masked(pred, target, mu):
    total = 0.0
    for p, t in zip(pred, target):
        w = mu if t > 0 else 1.0
        total += ((p - t) * w) ** 2
    return total


def node_targets(graph, features, u):
    A = build_undirected_union(graph).toarray()
    M = graph.out_adjacency.toarray()
    D = features.values.toarray()
    return {
        "content": np.concatenate([A[u], D[u]]),
        "out": M[u],
        "in": M[:, u],
    }


class TestChannelForward:
    def test_zero_params_give_zero_outputs(self, toy_graph, toy_features):
        model = DiagramModel(6, 4, **SMALL)  # no rng: zero-initialized
        emb, recon, _ = model._forward("content", rows(np.ones((3, 10))))
        assert np.array_equal(emb, np.zeros((3, 3)))
        assert np.array_equal(recon, np.zeros((3, 10)))

    def test_default_embedding_width_is_128(self):
        model = DiagramModel(10, 5, rng=np.random.default_rng(0))
        emb, recon, _ = model._forward("out", rows(np.zeros((2, 10))))
        assert emb.shape == (2, 128)
        assert recon.shape == (2, 10)

    def test_channel_specific_dims(self):
        model = DiagramModel(7, 3, rng=np.random.default_rng(0), **SMALL)
        emb, recon, _ = model._forward("content", rows(np.zeros((1, 10))))
        assert recon.shape == (1, 10)
        emb, recon, _ = model._forward("in", rows(np.zeros((1, 7))))
        assert recon.shape == (1, 7)
        with pytest.raises(ValueError):
            model._forward("content", rows(np.zeros((1, 7))))

    @pytest.mark.parametrize("channel", CHANNELS)
    def test_matches_scalar_oracle(self, toy_graph, toy_features, channel):
        model = small_model(toy_graph, toy_features, seed=5)
        targets = node_targets(toy_graph, toy_features, u=2)
        x = targets[channel]
        emb, recon, _ = model._forward(channel, rows(x))
        ref_emb, ref_recon = scalar_channel_forward(model, channel, x)
        assert np.allclose(emb[0], ref_emb, atol=1e-10, rtol=0)
        assert np.allclose(recon[0], ref_recon, atol=1e-10, rtol=0)

    def test_trunk_is_shared_across_channels(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=1)
        inputs = {c: rows(node_targets(toy_graph, toy_features, 0)[c]) for c in CHANNELS}
        before = {c: model._forward(c, inputs[c])[0] for c in CHANNELS}
        model.encoder_trunk[0].W += 0.25  # mutate the trunk through one handle
        after = {c: model._forward(c, inputs[c])[0] for c in CHANNELS}
        for c in CHANNELS:
            assert not np.allclose(before[c], after[c])
        params = model.parameters()
        assert params["enc_trunk.0.W"] is model.encoder_trunk[0].W

    def test_directed_channels_share_their_heads(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=1)
        assert model.head_for("out") is model.head_for("in")
        assert model.recon_for("out") is model.recon_for("in")
        assert model.head_for("content") is not model.head_for("out")

    def test_dropout_only_active_in_training(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=2)
        x = rows(np.ones((4, 10)))
        a = model._forward("content", x)[1]
        b = model._forward("content", x, dropout=0.0, rng=np.random.default_rng(0))[1]
        assert np.array_equal(a, b)
        c = model._forward("content", x, dropout=0.5, rng=np.random.default_rng(0))[1]
        assert not np.array_equal(a, c)


class TestPenaltyWeights:
    def test_mu_exactly_on_support(self):
        rng = np.random.default_rng(0)
        target = ((rng.random((5, 9)) < 0.3) * rng.integers(-1, 3, (5, 9))).astype(float)
        _, grad = masked_sq_error(target + 1.0, target, penalty_weights(target), 10.0)
        assert set(np.unique(grad)) <= {2.0, 200.0}
        assert np.array_equal(grad == 200.0, target > 0)


class TestNodeLoss:
    def test_zero_for_empty_single_node_graph(self):
        g = DirectedGraph(["solo"], np.zeros((0, 2), dtype=np.int64))
        feats = random_features(1, 3, seed=0, density=0.0)
        model = DiagramModel(1, 3, **SMALL)  # zero params, zero targets
        A = build_undirected_union(g)
        loss = node_loss(model, [0], g.out_adjacency, A, feats.values)
        assert loss == 0.0

    def test_perfect_reconstruction_scores_zero(self, toy_graph, toy_features):
        # injecting each target as its own prediction zeroes every term
        mu = 10.0
        for u in range(toy_graph.node_count):
            for channel, target in node_targets(toy_graph, toy_features, u).items():
                loss, grad = masked_sq_error(target, target, penalty_weights(target), mu)
                assert loss == 0.0 and not grad.any()

    def test_matches_scalar_oracle(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=3)
        mu = 10.0
        A = build_undirected_union(toy_graph)
        got = node_loss(model, range(6), toy_graph.out_adjacency, A,
                        toy_features.values, mu)
        expected = 0.0
        for u in range(6):
            targets = node_targets(toy_graph, toy_features, u)
            for channel in CHANNELS:
                t = targets[channel]
                _, recon = scalar_channel_forward(model, channel, t)
                expected += scalar_masked(recon, t, mu)
        assert got == pytest.approx(expected, abs=1e-10)


class TestGradients:
    def test_full_three_channel_gradcheck(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=4)
        mu = 10.0
        batches = _node_batches(range(6), *_graph_tensors(toy_graph, toy_features))
        model.zero_grad()
        _run_batches(model, batches, mu, with_grad=True)
        params = list(model.parameters().values())
        grads = [g.copy() for g in model.gradients().values()]

        def loss_fn():
            return _run_batches(model, batches, mu)

        err = finite_diff_check(loss_fn, params, grads, max_coords=160,
                                rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_layers_a_pass_skips_read_zero_gradients(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=5)
        fresh = model.copy()
        batches = _node_batches(range(6), *_graph_tensors(toy_graph, toy_features))
        model.zero_grad()
        _run_batches(model, batches, 10.0, with_grad=True)  # every layer gets a gradient
        content_only = {"content": batches["content"]}
        model.zero_grad()
        _run_batches(model, content_only, 10.0, with_grad=True)
        _run_batches(fresh, content_only, 10.0, with_grad=True)
        got, want = model.gradients(), fresh.gradients()
        for name in ("directed_head.W", "directed_head.b",
                     "directed_recon.W", "directed_recon.b"):
            assert not got[name].any(), name
        for name in got:  # equal up to the sign of zero
            assert np.array_equal(got[name], want[name]), name

    def test_edge_batch_gradcheck(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=6)
        mu = 10.0
        e = toy_graph.edge_list[:4]
        batches = _edge_batches(e[:, 0], e[:, 1], *_graph_tensors(toy_graph, toy_features))
        model.zero_grad()
        _run_batches(model, batches, mu, with_grad=True)
        params = list(model.parameters().values())
        grads = [g.copy() for g in model.gradients().values()]

        def loss_fn():
            return _run_batches(model, batches, mu)

        err = finite_diff_check(loss_fn, params, grads, max_coords=120,
                                rng=np.random.default_rng(1))
        assert err < 1e-4


class TestEdgeLoss:
    def test_requires_existing_edge(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features)
        A = build_undirected_union(toy_graph)
        with pytest.raises(TrainingError, match="not present"):
            edge_loss(model, (0, 3), toy_graph.out_adjacency, A,
                      toy_features.values)

    def test_unadjusted_equals_sum_of_node_losses(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=8)
        A = build_undirected_union(toy_graph)
        M = toy_graph.out_adjacency
        D = toy_features.values
        for u, v in toy_graph.edge_list[:3]:
            combined = edge_loss(model, (u, v), M, A, D, adjusted=False)
            separate = node_loss(model, [u], M, A, D) + node_loss(model, [v], M, A, D)
            assert combined == separate

    def test_adjusted_term_zero_when_prediction_injected(self):
        # reciprocal pair on 2 nodes: inject the adjusted target as the
        # prediction and the term vanishes regardless of the graph
        g = DirectedGraph(["a", "b"], np.array([[0, 1], [1, 0]]))
        in_v = g.in_adjacency[[1]].toarray()[0]
        loss, _ = masked_sq_error(in_v, in_v, penalty_weights(in_v), 10.0)
        assert loss == 0.0

    def test_matches_scalar_oracle(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=9)
        mu = 10.0
        A = build_undirected_union(toy_graph)
        M = toy_graph.out_adjacency
        D = toy_features.values
        u, v = 2, 3  # unreciprocated edge of the toy graph
        got = edge_loss(model, (u, v), M, A, D, mu)

        tu = node_targets(toy_graph, toy_features, u)
        tv = node_targets(toy_graph, toy_features, v)
        expected = 0.0
        _, recon = scalar_channel_forward(model, "content", tu["content"])
        expected += scalar_masked(recon, tu["content"], mu)
        _, recon_out_u = scalar_channel_forward(model, "out", tu["out"])
        expected += scalar_masked(recon_out_u, tu["out"], mu)
        expected += scalar_masked(recon_out_u, tv["in"], mu)  # adjusted term
        for channel in CHANNELS:
            _, recon = scalar_channel_forward(model, channel, tv[channel])
            expected += scalar_masked(recon, tv[channel], mu)
        assert got == pytest.approx(expected, abs=1e-10)


class TestNodeTraining:
    def test_tiny_instance_converges(self):
        g = DirectedGraph(["a", "b"], np.array([[0, 1]]))
        feats = random_features(2, 2, seed=1, density=0.5)
        cfg = TrainConfig(epochs=200, batch_size=2, learning_rate=0.01,
                          dropout=0.0, seed=0, **SMALL)
        result = train_node_model(g, feats, cfg)
        assert result.loss_trace[-1] < 0.1 * result.loss_trace[0]

    def test_seeded_runs_are_bitwise_identical(self, toy_graph, toy_features):
        cfg = TrainConfig(epochs=3, batch_size=4, dropout=0.2, seed=11, **SMALL)
        r1 = train_node_model(toy_graph, toy_features, cfg)
        r2 = train_node_model(toy_graph, toy_features, cfg)
        assert np.array_equal(r1.embeddings.z, r2.embeddings.z)
        assert np.array_equal(r1.embeddings.o, r2.embeddings.o)
        assert np.array_equal(r1.embeddings.i, r2.embeddings.i)
        for (n1, a1), (n2, a2) in zip(sorted(r1.model.parameters().items()),
                                      sorted(r2.model.parameters().items())):
            assert n1 == n2 and np.array_equal(a1, a2)

    def test_embeddings_strictly_inside_unit_cube(self, toy_graph, toy_features):
        cfg = TrainConfig(epochs=5, seed=0, dropout=0.0, **SMALL)
        result = train_node_model(toy_graph, toy_features, cfg)
        for mat in (result.embeddings.z, result.embeddings.o, result.embeddings.i):
            assert np.all(mat > -1.0) and np.all(mat < 1.0)
            assert np.all(np.isfinite(mat))

    def test_non_finite_loss_aborts_with_location(self, toy_graph, toy_features,
                                                  monkeypatch):
        monkeypatch.setattr(gm, "_run_batches",
                            lambda *a, **k: float("nan"))
        cfg = TrainConfig(epochs=1, seed=0, **SMALL)
        with pytest.raises(TrainingError, match="epoch 1, batch 0"):
            train_node_model(toy_graph, toy_features, cfg)

    def test_loss_trace_length_and_type(self, toy_graph, toy_features):
        cfg = TrainConfig(epochs=4, seed=0, **SMALL)
        result = train_node_model(toy_graph, toy_features, cfg)
        assert len(result.loss_trace) == 4
        assert all(isinstance(v, float) and np.isfinite(v)
                   for v in result.loss_trace)


class TestEdgeTraining:
    def test_zero_epoch_transfer_is_noop(self, toy_graph, toy_features):
        node_cfg = TrainConfig(epochs=3, seed=0, dropout=0.0, **SMALL)
        node_res = train_node_model(toy_graph, toy_features, node_cfg)
        edge_cfg = TrainConfig(epochs=0, seed=0, dropout=0.0,
                               transfer_from=node_res.model, **SMALL)
        edge_res = train_edge_model(toy_graph, toy_features, edge_cfg)
        assert np.array_equal(edge_res.embeddings.z, node_res.embeddings.z)
        assert np.array_equal(edge_res.embeddings.o, node_res.embeddings.o)
        assert np.array_equal(edge_res.embeddings.i, node_res.embeddings.i)

    def test_transfer_does_not_mutate_source_model(self, toy_graph, toy_features):
        node_cfg = TrainConfig(epochs=2, seed=0, **SMALL)
        node_res = train_node_model(toy_graph, toy_features, node_cfg)
        before = {k: v.copy() for k, v in node_res.model.parameters().items()}
        edge_cfg = TrainConfig(epochs=2, seed=0, transfer_from=node_res.model, **SMALL)
        train_edge_model(toy_graph, toy_features, edge_cfg)
        for k, v in node_res.model.parameters().items():
            assert np.array_equal(v, before[k])

    def test_fine_tuning_reduces_edge_loss(self, toy_graph, toy_features):
        node_cfg = TrainConfig(epochs=60, seed=0, dropout=0.0,
                               learning_rate=0.01, batch_size=4, **SMALL)
        node_res = train_node_model(toy_graph, toy_features, node_cfg)
        start = mean_edge_loss(node_res.model, toy_graph, toy_features)
        edge_cfg = TrainConfig(epochs=2, seed=0, dropout=0.0, learning_rate=0.01,
                               batch_size=4, transfer_from=node_res.model, **SMALL)
        edge_res = train_edge_model(toy_graph, toy_features, edge_cfg)
        end = mean_edge_loss(edge_res.model, toy_graph, toy_features)
        assert end <= start

    def test_architecture_mismatch_rejected(self, toy_graph, toy_features):
        other = DiagramModel(6, 4, trunk_dims=(6, 4), embedding_dim=3)
        cfg = TrainConfig(epochs=1, seed=0, transfer_from=other, **SMALL)
        with pytest.raises(TrainingError, match="architecture"):
            train_edge_model(toy_graph, toy_features, cfg)

    def test_edgeless_graph_fails_before_the_node_stage(self, monkeypatch):
        steps = []
        monkeypatch.setattr(DiagramModel, "zero_grad", lambda self: steps.append(self))
        g = DirectedGraph([f"n{i}" for i in range(50)], np.empty((0, 2), dtype=np.int64))
        with pytest.raises(TrainingError, match="needs at least one edge"):
            train_edge_model(g, random_features(50, 4, seed=1), TrainConfig(seed=0, **SMALL))
        assert steps == []

    def test_isolated_nodes_are_skipped_but_embedded(self, toy_features):
        edges = np.array([(0, 1), (1, 2), (2, 0)])
        g = DirectedGraph([f"n{i}" for i in range(6)], edges)
        cfg = TrainConfig(epochs=2, seed=0, **SMALL)
        res = train_edge_model(g, random_features(6, 4, seed=2), cfg)
        assert res.embeddings.n == 6

    def test_directional_proximity_after_training(self, toy_graph, toy_features):
        # (2, 3) is an unreciprocated edge: the trained edge model should
        # score 2->3 above the reverse direction
        node_cfg = TrainConfig(epochs=150, seed=0, dropout=0.0,
                               learning_rate=0.01, batch_size=4, **SMALL)
        node_res = train_node_model(toy_graph, toy_features, node_cfg)
        edge_cfg = TrainConfig(epochs=60, seed=0, dropout=0.0, learning_rate=0.01,
                               batch_size=4, transfer_from=node_res.model, **SMALL)
        res = train_edge_model(toy_graph, toy_features, edge_cfg)
        e = res.embeddings
        fwd = float(np.dot(e.o[2], e.i[3]))
        rev = float(np.dot(e.o[3], e.i[2]))
        assert fwd > rev


class TestEdgeChain:
    CFG = dict(seed=4, dropout=0.1, batch_size=4, **SMALL)

    def test_chain_matches_node_then_transfer(self, toy_graph, toy_features, monkeypatch):
        calls = []
        original = gm.compute_embeddings
        monkeypatch.setattr(gm, "compute_embeddings",
                            lambda *a, **k: calls.append(a[3]) or original(*a, **k))
        copies = []
        monkeypatch.setattr(DiagramModel, "copy", lambda self: copies.append(self))
        edge = train_edge_model(toy_graph, toy_features, TrainConfig(epochs=2, **self.CFG),
                                node_epochs=3)
        assert calls == ["edge"]  # one embedding pass per chain, for the edge model
        assert copies == []  # the fitted node model is trained on in place
        monkeypatch.undo()

        node = train_node_model(toy_graph, toy_features, TrainConfig(epochs=3, **self.CFG))
        want = train_edge_model(toy_graph, toy_features,
                                TrainConfig(epochs=2, transfer_from=node.model, **self.CFG))
        assert edge.loss_trace == want.loss_trace and edge.config == want.config
        for name, arr in want.model.parameters().items():
            assert edge.model.parameters()[name].tobytes() == arr.tobytes()
        for ch in ("z", "o", "i"):
            assert getattr(edge.embeddings, ch).tobytes() == getattr(want.embeddings, ch).tobytes()


class TestCheckpointIO:
    def test_model_round_trip_is_bit_exact(self, toy_graph, toy_features, tmp_path):
        model = small_model(toy_graph, toy_features, seed=12)
        path = tmp_path / "model.npz"
        save_model(path, model, {"variant": "node", "seed": 12})
        loaded, meta = load_model(path)
        assert meta["variant"] == "node" and meta["seed"] == 12
        for name, arr in model.parameters().items():
            assert np.array_equal(arr, loaded.parameters()[name])

    HEADS = ("content_head.W", "directed_head.W")

    def test_save_model_stores_every_weight_out_in(self, toy_graph, toy_features,
                                                   tmp_path):
        model = small_model(toy_graph, toy_features, seed=13)
        path = tmp_path / "model.npz"
        save_model(path, model)
        with np.load(path) as npz:
            for name, layer in model.named_layers():
                stored = npz[f"{name}.W"]
                assert stored.shape == (layer.out_dim, layer.in_dim), name
                assert stored.flags.c_contiguous, name
                want = layer.W.T if f"{name}.W" in self.HEADS else layer.W
                assert np.array_equal(stored, want), name

    def test_out_in_checkpoint_loads_to_the_same_parameters(self, toy_graph,
                                                            toy_features, tmp_path):
        # the layout every checkpoint has had on disk, written without save_model
        model = small_model(toy_graph, toy_features, seed=14)
        tensors = {name: np.ascontiguousarray(arr.T) if name in self.HEADS else arr
                   for name, arr in model.parameters().items()}
        path = tmp_path / "old.npz"
        save_checkpoint(path, tensors, {"kind": "diagram-model", "node_count": 6,
                                        "feature_dim": 4, "trunk_dims": [8, 4],
                                        "embedding_dim": 3})
        loaded, _ = load_model(path)
        for name, arr in model.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes(), name
        assert loaded.heads["content"].W.shape == (10, 8)

    @pytest.mark.parametrize("name", ["content_head.W", "directed_head.W", "embed.W"])
    def test_weight_in_the_wrong_layout_is_typed_error(self, toy_graph, toy_features,
                                                       tmp_path, name):
        model = small_model(toy_graph, toy_features, seed=15)
        path = tmp_path / "model.npz"
        save_model(path, model)
        tensors, meta = load_checkpoint(path)
        tensors[name] = np.ascontiguousarray(tensors[name].T)
        save_checkpoint(path, tensors, meta)
        with pytest.raises(EmbeddingFormatError, match=f"shape mismatch for {name}"):
            load_model(path)

    @pytest.mark.parametrize("as_type", [str, Path])
    def test_checkpoint_path_as_transfer_from_is_rejected(self, tmp_path, as_type):
        # a checkpoint is loaded, and its provenance checked, by the caller
        with pytest.raises(ValueError, match="transfer_from must be None or a DiagramModel"):
            TrainConfig(epochs=1, transfer_from=as_type(tmp_path / "node.npz"), **SMALL)


class TestEmbeddingIO:
    def _random_set(self, n=1000, k=4, seed=0):
        rng = np.random.default_rng(seed)
        return EmbeddingSet(rng.normal(size=(n, k)), rng.normal(size=(n, k)),
                            rng.normal(size=(n, k)),
                            [f"id{i}" for i in range(n)], "edge", "f" * 16)

    def test_binary_round_trip_exact(self, tmp_path):
        emb = self._random_set()
        path = tmp_path / "emb.bin"
        export_embeddings(emb, path, "binary")
        back = import_embeddings(path)
        assert np.array_equal(back.z, emb.z)
        assert np.array_equal(back.o, emb.o)
        assert np.array_equal(back.i, emb.i)
        assert back.node_ids == emb.node_ids
        assert back.variant == "edge" and back.fingerprint == emb.fingerprint

    def test_non_utf8_id_is_typed_error(self, tmp_path):
        path = tmp_path / "emb.tsv"
        export_embeddings(self._random_set(n=3, k=2), path, "text")
        path.write_bytes(path.read_bytes().replace(b"id1 ", b"id\xff1 "))
        with pytest.raises(EmbeddingFormatError, match="emb.tsv: row 1"):
            import_embeddings(path)

    def test_text_round_trip_exact(self, tmp_path):
        emb = self._random_set(n=50)
        # the dataset loader splits only on ASCII whitespace and LF/CR, so
        # Unicode spaces and line separators stay inside an id
        emb.node_ids[:6] = ["paper\xa03", "x\u20285", "w\u30007", "nel\x85", "fs\x1c",
                            "\u2029p\xe9"]
        path = tmp_path / "emb.tsv"
        export_embeddings(emb, path, "text")
        back = import_embeddings(path)
        # %.17g round-trips float64 exactly
        assert np.array_equal(back.z, emb.z)
        assert np.array_equal(back.i, emb.i)
        assert back.node_ids == emb.node_ids

    @pytest.mark.parametrize("k", [0, 3])
    def test_text_export_bytes_match_one_string_rendering(self, tmp_path, k):
        special = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072009e-308,
                   1.0 / 3.0, -1e300, 0.0]
        rng = np.random.default_rng(k)
        z, o, i = (rng.choice(special, size=(4, k)) for _ in range(3))
        emb = EmbeddingSet(z, o, i, ["a", "b\xe9", "c", "d"], "edge", "f" * 16)
        path = tmp_path / "emb.tsv"
        export_embeddings(emb, path, "text")
        lines = [f"DIAGRAM v1 4 {k} edge {'f' * 16}"]
        for r, nid in enumerate(emb.node_ids):
            vals = [*z[r], *o[r], *i[r]]
            lines.append(nid + " " + " ".join("%.17g" % v for v in vals))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_wrong_k_in_header_is_typed_error(self, tmp_path):
        emb = self._random_set(n=3, k=2)
        path = tmp_path / "emb.tsv"
        export_embeddings(emb, path, "text")
        text = path.read_text().splitlines()
        parts = text[0].split()
        parts[3] = "5"  # lie about k
        path.write_text("\n".join([" ".join(parts)] + text[1:]) + "\n")
        with pytest.raises(EmbeddingFormatError, match="k=5"):
            import_embeddings(path)

    def test_truncated_binary_is_typed_error(self, tmp_path):
        emb = self._random_set(n=5, k=3)
        path = tmp_path / "emb.bin"
        export_embeddings(emb, path, "binary")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(EmbeddingFormatError, match="truncated"):
            import_embeddings(path)

    @staticmethod
    def _rewrite_header(path, index, value):
        lines = path.read_text().splitlines()
        parts = lines[0].split()
        parts[index] = value
        path.write_text("\n".join([" ".join(parts)] + lines[1:]) + "\n")

    @pytest.mark.parametrize("index,value", [(2, "three"), (3, "2.5"), (3, "-2"),
                                             (3, "10" * 10)])
    def test_bad_n_or_k_in_text_header_is_typed_error(self, tmp_path, index, value):
        path = tmp_path / "emb.tsv"
        export_embeddings(self._random_set(n=3, k=2), path, "text")
        self._rewrite_header(path, index, value)
        with pytest.raises(EmbeddingFormatError, match="emb.tsv"):
            import_embeddings(path)

    def test_bad_float_in_text_row_is_typed_error(self, tmp_path):
        path = tmp_path / "emb.tsv"
        export_embeddings(self._random_set(n=3, k=2), path, "text")
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0] + " 0.5x"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EmbeddingFormatError, match="emb.tsv: row 1"):
            import_embeddings(path)

    @staticmethod
    def _binary_with_header(path, header: bytes):
        raw = path.read_bytes()
        magic = gm._BIN_MAGIC
        hlen = int.from_bytes(raw[len(magic):len(magic) + 8], "little")
        rest = raw[len(magic) + 8 + hlen:]
        path.write_bytes(magic + len(header).to_bytes(8, "little") + header + rest)

    @pytest.mark.parametrize("header", [
        b"{not json",                                    # JSONDecodeError
        b'{"n": 3, "k": 2, "variant": "edge"}',          # missing node_ids
        b'["n", "k"]',                                   # not an object
        b'{"n": 3.0, "k": 2, "variant": "e", "node_ids": ["a", "b", "c"]}',
        b'{"n": 3, "k": 2, "variant": "e", "node_ids": ["a"]}',
    ])
    def test_bad_binary_header_is_typed_error(self, tmp_path, header):
        path = tmp_path / "emb.bin"
        export_embeddings(self._random_set(n=3, k=2), path, "binary")
        self._binary_with_header(path, header)
        with pytest.raises(EmbeddingFormatError, match="emb.bin"):
            import_embeddings(path)

    def test_checkpoint_missing_header_key_is_typed_error(self, tmp_path, toy_graph,
                                                          toy_features):
        path = tmp_path / "m.npz"
        model = small_model(toy_graph, toy_features)
        save_checkpoint(path, model.parameters(), {"kind": "diagram-model", "node_count": 6})
        with pytest.raises(EmbeddingFormatError, match="m.npz"):
            load_model(path)

    def test_fuzzed_artifacts_raise_only_diagram_errors(self, tmp_path, toy_graph,
                                                        toy_features):
        # truncations and byte flips at a deterministic stride
        model = small_model(toy_graph, toy_features)
        emb = self._random_set(n=4, k=2)
        artifacts = {"emb.tsv": lambda p: export_embeddings(emb, p, "text"),
                     "emb.bin": lambda p: export_embeddings(emb, p, "binary"),
                     "model.npz": lambda p: save_model(p, model, {"variant": "node"})}
        loaders = {"emb.tsv": import_embeddings, "emb.bin": import_embeddings,
                   "model.npz": load_model}
        for name, write in artifacts.items():
            path = tmp_path / name
            write(path)
            raw = path.read_bytes()
            stride = max(1, len(raw) // 150)
            variants = [raw[:cut] for cut in range(0, len(raw), stride)]
            for pos in range(0, len(raw), stride):
                for mask in (0x01, 0x20, 0xFF):
                    flipped = bytearray(raw)
                    flipped[pos] ^= mask
                    variants.append(bytes(flipped))
            bad = tmp_path / f"bad-{name}"
            for data in variants:
                bad.write_bytes(data)
                try:
                    loaders[name](bad)
                except DiagramError:
                    pass

    def test_compute_embeddings_runs_the_encoder_alone(self, toy_graph, toy_features):
        model = small_model(toy_graph, toy_features, seed=14)
        called = []
        for name, layer in model.named_layers():
            def forward(x, name=name, original=layer.forward):
                called.append(name)
                return original(x)
            layer.forward = forward
        got = compute_embeddings(model, toy_graph, toy_features, "node")
        assert set(called) == {"content_head", "directed_head", "enc_trunk.0", "embed"}
        want = full_forward_embeddings(model, toy_graph, toy_features, "node")
        for ch in ("z", "o", "i"):
            assert getattr(got, ch).tobytes() == getattr(want, ch).tobytes()

    def test_a_new_model_holds_its_parameters_and_no_gradients(self):
        tracemalloc.start()
        try:
            model = gm.DiagramModel(300, 400, rng=np.random.default_rng(0))
            held = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        params = sum(a.nbytes for a in model.parameters().values())
        assert held <= 1.05 * params  # gradient buffers would double it
        grads = model.gradients()  # made on first read, as zeros
        assert all(grads[k].shape == p.shape and not grads[k].any()
                   for k, p in model.parameters().items())

    def test_compute_embeddings_chunking_consistent(self, toy_graph, toy_features,
                                                    monkeypatch):
        model = small_model(toy_graph, toy_features, seed=13)
        monkeypatch.setattr(gm, "EMBED_CHUNK", 2)
        a = compute_embeddings(model, toy_graph, toy_features, "node")
        monkeypatch.setattr(gm, "EMBED_CHUNK", 64)
        b = compute_embeddings(model, toy_graph, toy_features, "node")
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.o, b.o)
        assert np.array_equal(a.i, b.i)
