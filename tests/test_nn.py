import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import diagram.model as gm
from diagram.exceptions import EmbeddingFormatError, TrainingError
from diagram.model import (DiagramModel, TrainConfig, load_model, save_model,
                           train_edge_model, train_node_model)
from diagram.nn import (
    ROW_BLOCK,
    Adam,
    CSRRows,
    Linear,
    atomic_write,
    dropout_mask,
    finite_diff_check,
    masked_sq_error,
)

from conftest import random_digraph, random_features, write_npz
from oracles import (
    ReferenceAdam,
    ReferenceLinear,
    TextbookAdam,
    dense_loss_term,
    dense_masked_sq_error,
    dense_penalty_weights,
    full_forward_embeddings,
    reference_layer,
)


def no_penalty(target: sp.csr_matrix) -> np.ndarray:
    """No stored entry of ``target`` penalised: weight 1 on every coordinate."""
    return np.zeros(target.data.shape, dtype=bool)


def assert_bytes_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


class TestLinearForward:
    def test_zero_layer_gives_zero_output(self):
        layer = Linear(3, 2)
        x = np.random.default_rng(0).normal(size=(4, 3))
        y = layer.forward(x)[0]
        assert np.array_equal(y, np.zeros((4, 2)))

    def test_scalar_tanh_value(self):
        layer = Linear(1, 1)
        layer.W[0, 0] = 1.0
        y = layer.forward(np.array([[0.5]]))[0]
        assert y[0, 0] == pytest.approx(0.46211715726000974, abs=1e-11)

    def test_matches_scalar_triple_loop(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        y = layer.forward(x)[0]
        for r in range(2):
            for o in range(3):
                acc = layer.b[o]
                for c in range(4):
                    acc += x[r, c] * layer.W[o, c]
                assert abs(y[r, o] - math.tanh(acc)) < 1e-12

    def test_tanh_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        layer = Linear(6, 5, rng=rng)
        y = layer.forward(rng.normal(size=(20, 6)) * 2)[0]
        assert np.all(y > -1.0) and np.all(y < 1.0)

    def test_shape_mismatch_names_both_shapes(self):
        layer = Linear(4, 3)
        with pytest.raises(ValueError, match=r"\(2, 5\).*\(3, 4\)"):
            layer.forward(np.zeros((2, 5)))


class TestLinearBackward:
    # Every layer is tanh; the name selects the reference forward below.
    @pytest.mark.parametrize("activation", ["tanh"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_match_central_differences(self, activation, seed):
        rng = np.random.default_rng(seed)
        layer = Linear(5, 4, rng=rng)
        x = rng.normal(size=(3, 5))
        assert np.array_equal(layer.forward(x)[0],
                              getattr(np, activation)(x @ layer.W.T + layer.b))
        target = sp.csr_matrix(rng.normal(size=(3, 4)) * 0.5)

        def loss_fn():
            y, _ = layer.forward(x)
            return masked_sq_error(y, target, no_penalty(target), 10.0)[0]

        layer.zero_grad()
        y, cache = layer.forward(x)
        _, grad = masked_sq_error(y, target, no_penalty(target), 10.0)
        layer.backward(cache, grad)
        err = finite_diff_check(loss_fn, [layer.W, layer.b],
                                [layer.grad_W, layer.grad_b])
        assert err < 1e-7

    def test_gradients_accumulate_across_calls(self):
        rng = np.random.default_rng(9)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        y, cache = layer.forward(x)
        dout = np.ones_like(y)
        layer.zero_grad()
        layer.backward(cache, dout)
        once = layer.grad_W.copy()
        y, cache = layer.forward(x)  # a cache serves one backward
        layer.backward(cache, dout)
        assert np.allclose(layer.grad_W, 2 * once, atol=0)

    def test_stale_gradients_read_zero(self):
        rng = np.random.default_rng(10)
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(2, 3))
        y, cache = layer.forward(x)
        layer.zero_grad()
        layer.backward(cache, np.ones_like(y))
        once = (layer.grad_W.copy(), layer.grad_b.copy())
        assert once[0].any() and once[1].any()
        layer.zero_grad()  # no backward follows
        assert not layer.grad_W.any() and not layer.grad_b.any()
        layer.zero_grad()
        y, cache = layer.forward(x)  # a cache serves one backward
        layer.backward(cache, np.ones_like(y))  # overwrites, not adds to, the old sums
        assert layer.grad_W.tobytes() == once[0].tobytes()
        assert layer.grad_b.tobytes() == once[1].tobytes()


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """Equal to 1e-12 relative, with entries near zero measured against the largest."""
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def binary_rows(rng):
    return (rng.random((12, 300)) < 0.05).astype(float)


def count_rows(rng):
    return rng.poisson(0.2, size=(12, 300)).astype(float)


def rows_with_zero_rows(rng):
    x = binary_rows(rng)
    x[[0, 5, 11]] = 0.0
    return x


def rows_touching_few_columns(rng):
    x = np.zeros((12, 300))
    x[:, [3, 150, 299]] = rng.integers(0, 3, size=(12, 3))
    return x


class TestSparseInputHead:
    """A sparse-input layer against ``ReferenceLinear`` on the same rows made dense."""

    IN, OUT = 300, 16
    ROWS = {"binary": binary_rows, "counts": count_rows, "zero_rows": rows_with_zero_rows,
            "few_columns": rows_touching_few_columns}

    def pair(self, seed):
        layer = Linear(self.IN, self.OUT, np.random.default_rng(seed), sparse_input=True)
        ref = ReferenceLinear(self.IN, self.OUT, np.random.default_rng(seed))
        bias = np.random.default_rng(seed + 1).normal(scale=0.1, size=self.OUT)
        layer.b[...] = bias
        ref.b[...] = bias
        return layer, ref

    @pytest.mark.parametrize("out_dim", [1, 63, 64, 65, 130])
    def test_init_is_the_dense_draw_transposed(self, out_dim):
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        layer = Linear(37, out_dim, rng, sparse_input=True)
        ref = ReferenceLinear(37, out_dim, ref_rng)
        assert layer.W.shape == (37, out_dim) and layer.W.flags.c_contiguous
        assert layer.W.tobytes() == np.ascontiguousarray(ref.W.T).tobytes()
        assert rng.random() == ref_rng.random()  # the same rng stream consumed
        assert Linear(37, out_dim, sparse_input=True).W.shape == (37, out_dim)

    @pytest.mark.parametrize("kind", list(ROWS))
    def test_matches_dense_reference(self, kind):
        rng = np.random.default_rng(20)
        x = self.ROWS[kind](rng)
        layer, ref = self.pair(21)
        rows = CSRRows(sp.csr_matrix(x))
        assert len(rows) == 12
        y, cache = layer.forward(rows)
        y_ref, cache_ref = ref.forward(x)
        assert_close(y, y_ref)
        dout = rng.normal(size=y.shape)
        layer.zero_grad()
        ref.zero_grad()
        assert layer.backward(cache, dout) is None
        ref.backward(cache_ref, dout)
        assert_close(layer.grad_W, ref.grad_W.T)
        assert_close(layer.grad_b, ref.grad_b)
        untouched = ~x.any(axis=0)
        assert not layer.grad_W[untouched].any()

    def test_two_backward_calls_accumulate(self):
        # the directed head gets one backward per directed channel each step
        rng = np.random.default_rng(22)
        layer, ref = self.pair(23)
        layer.zero_grad()
        ref.zero_grad()
        for x in (binary_rows(rng), count_rows(rng)):
            y, cache = layer.forward(CSRRows(sp.csr_matrix(x)))
            y_ref, cache_ref = ref.forward(x)
            dout = rng.normal(size=y.shape)
            layer.backward(cache, dout)
            ref.backward(cache_ref, dout)
        assert_close(layer.grad_W, ref.grad_W.T)
        assert_close(layer.grad_b, ref.grad_b)

    def test_rows_an_earlier_step_touched_read_zero(self):
        # step one has two backward calls, step two touches three columns
        rng = np.random.default_rng(24)
        layer, ref = self.pair(25)
        for step in ((binary_rows(rng), count_rows(rng)), (rows_touching_few_columns(rng),)):
            layer.zero_grad()
            ref.zero_grad()
            for x in step:
                y, cache = layer.forward(CSRRows(sp.csr_matrix(x)))
                y_ref, cache_ref = ref.forward(x)
                dout = rng.normal(size=y.shape)
                layer.backward(cache, dout)
                ref.backward(cache_ref, dout)
        assert_close(layer.grad_W, ref.grad_W.T)
        assert np.count_nonzero(layer.grad_W.any(axis=1)) == 3

    def test_rejects_dense_or_misshapen_rows(self):
        layer, _ = self.pair(26)
        with pytest.raises(ValueError, match="CSRRows"):
            layer.forward(np.zeros((2, self.IN)))
        with pytest.raises(ValueError, match="CSRRows"):
            layer.forward(CSRRows(sp.csr_matrix((2, self.IN + 1))))


def dz_of(y: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """The pre-activation gradient ``backward`` computes, rounded as it rounds."""
    return (1.0 - y * y) * dout


class TestBlockedGradients:
    """Gradients summed ``ROW_BLOCK`` rows at a time equal one whole product, bit for bit."""

    def test_sparse_head_blocks_equal_one_product(self):
        # width 512 and a batch touching about 1040 of 1433 columns: five blocks
        rng = np.random.default_rng(40)
        layer = Linear(1433, 512, rng, sparse_input=True)
        want = np.zeros(layer.W.shape)
        layer.zero_grad()
        for call in range(2):  # the second call adds into the rows the first wrote
            rows = sp.csr_matrix((rng.random((64, 1433)) < 0.02).astype(float))
            y, cache = layer.forward(CSRRows(rows))
            dout = rng.normal(size=y.shape)
            dz = dz_of(y, dout)
            layer.backward(cache, dout)
            cols, pos = np.unique(rows.indices, return_inverse=True)
            assert cols.size > 2 * ROW_BLOCK
            g = sp.csc_matrix((rows.data, pos.reshape(-1), rows.indptr),
                              shape=(cols.size, 64)) @ dz
            if call == 0:
                want[cols] = g
            else:
                want[cols] += g
        assert layer.grad_W.tobytes() == want.tobytes()

    # the second call's columns against the first call's even ones: odd ones,
    # so every held row moves a little; a shared stretch; every third held
    # one; and a run covering them all
    @pytest.mark.parametrize("second", ["new", "overlapping", "subset", "superset"])
    def test_second_backward_merges_packed_rows(self, second):
        rng = np.random.default_rng(42)
        n, batch = 1433, 16
        first = np.arange(0, 1200, 2)
        cols = {"first": first, "new": first + 1, "overlapping": np.arange(700, 1400),
                "subset": first[::3], "superset": np.arange(1300)}
        layer = Linear(n, 24, rng, sparse_input=True)
        want = np.zeros(layer.W.shape)
        layer.zero_grad()
        for call, which in enumerate(("first", second)):
            x = np.zeros((batch, n))
            x[:, cols[which]] = rng.integers(0, 3, size=(batch, cols[which].size))
            x[0, cols[which]] = 1.0  # every listed column is touched
            rows = sp.csr_matrix(x)
            y, cache = layer.forward(CSRRows(rows))
            dout = rng.normal(size=y.shape)
            dz = dz_of(y, dout)
            layer.backward(cache, dout)
            used, pos = np.unique(rows.indices, return_inverse=True)
            g = sp.csc_matrix((rows.data, pos.reshape(-1), rows.indptr),
                              shape=(used.size, batch)) @ dz
            if call == 0:
                want[used] = g
            else:
                want[used] += g  # rows new to this call start at +0.0
        held, values = layer.step_grad_W
        assert held.tolist() == np.union1d(first, cols[second]).tolist()
        assert values.tobytes() == want[held].tobytes()
        assert layer.grad_W.tobytes() == want.tobytes()
        assert held.size > ROW_BLOCK  # the held rows move in several blocks

    # directed_recon at the Cora and the dense benchmark shapes
    @pytest.mark.parametrize("n, batch", [(2708, 64), (2000, 256)])
    def test_accumulating_backward_equals_one_product(self, n, batch):
        rng = np.random.default_rng(41)
        layer = Linear(512, n, rng)
        layer.zero_grad()
        want_W = want_b = None
        for _ in range(2):  # out channel, then in channel
            x = rng.uniform(-1.0, 1.0, size=(batch, 512))
            y, cache = layer.forward(x)
            dout = rng.normal(size=y.shape)
            dz = dz_of(y, dout)
            layer.backward(cache, dout)
            if want_W is None:
                want_W, want_b = dz.T @ x, dz.sum(axis=0)
            else:
                want_W += dz.T @ x
                want_b += dz.sum(axis=0)
        assert layer.grad_W.tobytes() == want_W.tobytes()
        assert layer.grad_b.tobytes() == want_b.tobytes()


class TestMaskedSqError:
    def test_zero_when_equal(self):
        x = np.random.default_rng(0).normal(size=(3, 3))
        loss, grad = masked_sq_error(x, sp.csr_matrix(x), np.ones(x.size, dtype=bool), 5.0)
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros_like(x))

    def test_closed_form_example(self):
        loss, grad = masked_sq_error(np.array([[3.0, 0.0]]),
                                     sp.csr_matrix(np.array([[2.0, 0.0]])),
                                     np.array([True]), 10.0)
        assert loss == 100.0
        assert np.array_equal(grad, np.array([[200.0, 0.0]]))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        pred = rng.normal(size=(5, 7))
        target = rng.normal(size=(5, 7))
        on = rng.random((5, 7)) < 0.4
        weight = np.where(on, 3.7, 1.0)
        rows = sp.csr_matrix(target)
        assert rows.nnz == target.size  # every coordinate stored, in row-major order
        loss, grad = masked_sq_error(pred, rows, on.ravel(), 3.7)
        exp_loss = 0.0
        for r in range(5):
            for c in range(7):
                resid = (pred[r, c] - target[r, c]) * weight[r, c]
                exp_loss += resid * resid
                expected_g = 2 * (pred[r, c] - target[r, c]) * weight[r, c] ** 2
                assert abs(grad[r, c] - expected_g) < 1e-12
        assert abs(loss - exp_loss) < 1e-12

    def test_zero_iff_agreement_everywhere(self):
        pred = np.array([[1.0, 0.0]])
        target = sp.csr_matrix(pred)  # stores the 1.0 alone
        penalised = np.array([True])
        assert masked_sq_error(pred, target, penalised, 3.0)[0] == 0.0
        # every coordinate weighs at least 1, so any disagreement counts
        assert masked_sq_error(np.array([[1.0, 2.0]]), target, penalised, 3.0)[0] == 4.0
        assert masked_sq_error(np.array([[3.0, 0.0]]), target, penalised, 3.0)[0] == 36.0

    @pytest.mark.parametrize("mu", [10.0, 3.7])
    def test_equals_dense_weight_formula(self, mu):
        rng = np.random.default_rng(12)
        pred = rng.normal(size=(6, 9))
        # zero, negative and positive targets, and exact agreement in places
        target = rng.choice([0.0, -0.0, 0.0, 1.0, 0.25, -1.0, -3.5], size=(6, 9))
        pred[0] = target[0]
        rows = sp.csr_matrix(target)
        target = rows.toarray()  # the dense form of the rows: -0.0 is not stored
        loss, grad = masked_sq_error(pred, rows, rows.data > 0, mu)
        want_loss, want_grad = dense_masked_sq_error(pred, target,
                                                     dense_penalty_weights(target, mu))
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("mu", [10.0, 3.7])
    def test_csr_rows_match_dense_oracle_bit_for_bit(self, mu):
        # negative entries, stored +0.0 and -0.0, an empty row, unsorted indices
        data = np.array([0.5, -2.0, 0.0, 1.0, -0.0, 3.25, -1.5, 2.0])
        indices = np.array([6, 0, 3, 2, 5, 1, 4, 0])
        indptr = np.array([0, 4, 4, 5, 8])
        target = sp.csr_matrix((data, indices, indptr), shape=(4, 7))
        assert not target.has_sorted_indices
        pred = np.random.default_rng(13).normal(size=(4, 7))
        pred[0, 6], pred[0, 3], pred[2, 5], pred[3, 2], pred[1, 1] = 0.5, -0.0, -0.0, 0.0, -0.0
        before = pred.tobytes()
        loss, grad = masked_sq_error(pred, target, gm.penalty_weights(target), mu)
        dense = target.toarray()
        want_loss, want_grad = dense_masked_sq_error(pred, dense, dense_penalty_weights(dense, mu))
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()
        assert pred.tobytes() == before  # the head's cached output is left as it was

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            masked_sq_error(np.zeros((2, 2)), sp.csr_matrix((2, 3)), np.zeros(0, dtype=bool), 10.0)

    def test_penalised_of_the_wrong_length_raises(self):
        # one flag for two stored entries would broadcast without the check
        target = sp.csr_matrix(np.array([[1.0, 0.0, 2.0]]))
        with pytest.raises(ValueError, match=r"penalised has shape \(1,\), not \(2,\)"):
            masked_sq_error(np.zeros((1, 3)), target, np.array([True]), 10.0)

    def test_traced_peak_is_one_pred_sized_array_plus_nnz(self):
        # Besides pred, one array of its shape and a few of the target's nnz;
        # a second pred-sized array (a residual apart from the gradient) fails.
        rng = np.random.default_rng(14)
        pred = rng.normal(size=(256, 600))
        target = sp.random(256, 600, density=0.01, format="csr", random_state=15,
                           data_rvs=rng.standard_normal)
        penalised = gm.penalty_weights(target)
        tracemalloc.start()
        try:
            masked_sq_error(pred, target, penalised, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pred.nbytes + 8 * 8 * target.nnz, (peak, pred.nbytes, target.nnz)


class TestDropout:
    def test_rate_zero_is_exact_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 4))
        out = x * dropout_mask(x.shape, 0.0, np.random.default_rng(1))
        assert np.array_equal(out, x)

    def test_inference_is_exact_identity(self):
        model = gm.DiagramModel(5, 3, trunk_dims=(4,), embedding_dim=2,
                                rng=np.random.default_rng(0))
        x = CSRRows(sp.csr_matrix(np.random.default_rng(2).random((3, 8))))
        rng = np.random.default_rng(1)
        got = model._forward("content", x, dropout=0.0, rng=rng)
        want = model._forward("content", x)
        assert all(np.array_equal(a, b) for a, b in zip(got[:2], want[:2]))
        assert rng.random() == np.random.default_rng(1).random()  # no mask was drawn

    def test_boolean_record_equals_float_mask(self, monkeypatch):
        """The step's (kept, scale) record gives the float mask's forward and backward."""
        def float_mask_run(layer, h, steps, dropout=0.0, rng=None):
            out, cache = layer.forward(h)
            mask = None
            if dropout > 0.0:
                mask = dropout_mask(out.shape, dropout, rng) / (1.0 - dropout)
                out = out * mask
            steps.append((layer, cache, mask))
            return out

        def float_mask_backward(self, steps, d):
            while steps:
                layer, cache, mask = steps.pop()
                if mask is not None:
                    d = d * mask
                d = layer.backward(cache, d)

        model = gm.DiagramModel(40, 30, trunk_dims=(16, 8), embedding_dim=4,
                                rng=np.random.default_rng(0))
        ref = model.copy()
        draw = np.random.default_rng(2)
        xs = {channel: sp.csr_matrix((draw.random((6, width)) < 0.3).astype(float))
              for channel, width in (("content", 70), ("out", 40), ("in", 40))}
        got, want = [], []
        for net, out in ((model, got), (ref, want)):
            if net is ref:
                monkeypatch.setattr(gm, "_run", float_mask_run)
                monkeypatch.setattr(gm.DiagramModel, "_backward", float_mask_backward)
            rng = np.random.default_rng(3)
            net.zero_grad()
            for channel, x in xs.items():
                emb, recon, steps = net._forward(channel, CSRRows(x), 0.3, rng)
                out += [emb.copy(), recon.copy()]
                net._backward(steps, np.random.default_rng(4).normal(size=recon.shape))
            out += list(net.gradients().values())
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_empirical_zero_fraction(self):
        keep = dropout_mask((1000, 1000), 0.2, np.random.default_rng(123))
        assert keep.dtype == bool
        assert abs(np.mean(~keep) - 0.2) < 0.003

    def test_invalid_rate_rejected(self):
        for rate in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                dropout_mask((2, 2), rate, np.random.default_rng(0))

    def test_mask_values(self):
        # the kept entries are the draw itself: uniforms at or above the rate
        keep = dropout_mask((100, 100), 0.5, np.random.default_rng(0))
        assert np.array_equal(keep, np.random.default_rng(0).random((100, 100)) >= 0.5)
        assert set(np.unique(keep)) == {False, True}


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = {"w": np.array([1.0, -2.0])}
        opt = Adam()
        opt.step(p, {"w": np.zeros(2)})
        assert np.array_equal(p["w"], np.array([1.0, -2.0]))

    def test_first_step_magnitude_is_lr(self):
        # start at 0 so the measured step is free of cancellation error
        lr = 1e-4
        p = {"w": np.array([0.0])}
        opt = Adam(lr=lr)
        opt.step(p, {"w": np.array([1.0])})
        delta = -p["w"][0]
        assert delta == pytest.approx(lr / (1.0 + 1e-8), abs=1e-18)

    def test_five_step_trace_matches_hand_stepped_oracle(self):
        # independent scalar implementation, stepped on f(x) = x^2
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        x_ref, m, v = 0.7, 0.0, 0.0
        ref_trace = []
        for t in range(1, 6):
            g = 2.0 * x_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            x_ref -= lr * mhat / (math.sqrt(vhat) + eps)
            ref_trace.append(x_ref)

        p = {"x": np.array([0.7])}
        opt = Adam(lr=lr)
        got_trace = []
        for _ in range(5):
            opt.step(p, {"x": 2.0 * p["x"]})
            got_trace.append(p["x"][0])
        assert np.allclose(got_trace, ref_trace, atol=1e-12, rtol=0)

    def test_non_finite_gradient_names_parameter(self):
        opt = Adam()
        with pytest.raises(TrainingError, match="'w_bad'"):
            opt.step({"w_bad": np.zeros(2)}, {"w_bad": np.array([1.0, np.nan])})

    def test_non_finite_last_tensor_leaves_state_unchanged(self):
        rng = np.random.default_rng(3)
        p = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=Adam.BLOCK + 5),
             "c": rng.normal(size=2)}
        opt = Adam(lr=1e-3)
        opt.step(p, {k: rng.normal(size=v.shape) for k, v in p.items()})
        before = ({k: v.copy() for k, v in p.items()},
                  {k: v.copy() for k, v in opt._m.items()},
                  {k: v.copy() for k, v in opt._v.items()}, opt.t)
        grads = {k: rng.normal(size=v.shape) for k, v in p.items()}
        grads["c"][1] = np.inf
        with pytest.raises(TrainingError, match="'c'"):
            opt.step(p, grads)
        assert opt.t == before[3]
        assert_bytes_equal(p, before[0])
        assert_bytes_equal(opt._m, before[1])
        assert_bytes_equal(opt._v, before[2])

    def test_non_finite_first_step_creates_no_moments(self):
        opt = Adam()
        p = {"a": np.ones(3), "b": np.ones(2)}
        with pytest.raises(TrainingError, match="'b'"):
            opt.step(p, {"a": np.ones(3), "b": np.array([np.nan, 0.0])})
        assert opt.t == 0 and opt._m == {} and opt._v == {}
        assert np.array_equal(p["a"], np.ones(3))

    def test_huge_finite_gradient_passes_bit_identical_to_reference(self):
        # the sum of squares overflows, so the check compares every entry
        rng = np.random.default_rng(4)
        p_new = {"a": rng.normal(size=3 * Adam.BLOCK + 5), "b": rng.normal(size=4)}
        p_ref = {k: v.copy() for k, v in p_new.items()}
        grads = {k: rng.normal(size=v.shape) for k, v in p_new.items()}
        grads["a"][[0, Adam.BLOCK + 1, -1]] = [1e200, -1e200, 1e200]
        opt, ref = Adam(lr=1e-3), ReferenceAdam(lr=1e-3)
        with np.errstate(over="ignore"):  # g * g overflows in both steps
            assert not np.isfinite(np.dot(grads["a"], grads["a"]))
            opt.step(p_new, grads)
            ref.step(p_ref, grads)
        assert opt.t == 1
        assert_bytes_equal(p_new, p_ref)
        assert_bytes_equal(opt._m, ref._m)
        assert_bytes_equal(opt._v, ref._v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    # block starts and ends, and the same offsets inside a block
    @pytest.mark.parametrize("where", [
        0, Adam.BLOCK // 2 - 1, Adam.BLOCK // 2, 3 * Adam.BLOCK // 2 + 4,
        Adam.BLOCK - 1, Adam.BLOCK, 3 * Adam.BLOCK + 4,
    ])
    @pytest.mark.parametrize("huge", [False, True])
    def test_non_finite_anywhere_raises_before_any_change(self, bad, where, huge):
        rng = np.random.default_rng(5)
        p = {"a": rng.normal(size=2), "big": rng.normal(size=3 * Adam.BLOCK + 5),
             "c": rng.normal(size=3)}
        opt = Adam(lr=1e-3)
        opt.step(p, {k: rng.normal(size=v.shape) for k, v in p.items()})
        before = ({k: v.copy() for k, v in p.items()},
                  {k: v.copy() for k, v in opt._m.items()},
                  {k: v.copy() for k, v in opt._v.items()})
        grads = {k: rng.normal(size=v.shape) for k, v in p.items()}
        if huge:  # finite entries that overflow the sum of squares on their own
            grads["big"][[1, -2]] = 1e200
        grads["big"][where] = bad
        with pytest.raises(TrainingError, match="'big'"):
            opt.step(p, grads)
        assert opt.t == 1
        assert_bytes_equal(p, before[0])
        assert_bytes_equal(opt._m, before[1])
        assert_bytes_equal(opt._v, before[2])

    @pytest.mark.parametrize("huge", [1.7e308, -1.7e308, 2 * Adam.GRAD_LIMIT])
    def test_gradient_above_limit_raises_before_any_change(self, huge):
        # m̃ can reach |g| / (1 - b1): a second step at 1.7e308 overflows it
        # and turns the parameter NaN
        p = {"a": np.zeros(3), "w": np.zeros(3)}
        opt = Adam(lr=1e-3)
        opt.step(p, {"a": np.ones(3), "w": np.ones(3)})
        before = ({k: v.copy() for k, v in p.items()},
                  {k: v.copy() for k, v in opt._m.items()},
                  {k: v.copy() for k, v in opt._v.items()})
        for _ in range(2):
            with pytest.raises(TrainingError, match="'w'"):
                opt.step(p, {"a": np.ones(3), "w": np.array([1.0, huge, 1.0])})
        assert opt.t == 1
        assert_bytes_equal(p, before[0])
        assert_bytes_equal(opt._m, before[1])
        assert_bytes_equal(opt._v, before[2])

    def test_gradient_at_limit_keeps_moments_and_parameters_finite(self):
        p = {"w": np.zeros(2)}
        opt = Adam(lr=1e-3)
        with np.errstate(over="ignore"):  # g * g overflows
            for _ in range(100):
                opt.step(p, {"w": np.array([Adam.GRAD_LIMIT, -Adam.GRAD_LIMIT])})
        assert np.isfinite(opt._m["w"]).all() and np.isfinite(p["w"]).all()

    def test_non_contiguous_parameter_rejected_before_update(self):
        opt = Adam()
        p = {"a": np.ones(3), "b": np.ones((4, 3)).T}
        with pytest.raises(ValueError, match="b is not C-contiguous"):
            opt.step(p, {"a": np.ones(3), "b": np.ones((3, 4))})
        assert opt.t == 0 and np.array_equal(p["a"], np.ones(3))

    @pytest.mark.parametrize("shape", [
        (1,), (Adam.BLOCK,), (3 * Adam.BLOCK + 777,), (16, 4141),
    ])
    def test_bit_identical_to_reference(self, shape):
        rng = np.random.default_rng(11)
        p_new = {"w": rng.normal(size=shape), "b": rng.normal(size=shape[-1])}
        p_ref = {k: v.copy() for k, v in p_new.items()}
        opt, ref = Adam(lr=1e-3), ReferenceAdam(lr=1e-3)
        for _ in range(20):
            # heavy-tailed gradients with exact zeros exercise every rounding path
            grads = {k: rng.standard_cauchy(size=v.shape) * (rng.random(v.shape) < 0.7)
                     for k, v in p_new.items()}
            opt.step(p_new, grads)
            ref.step(p_ref, grads)
        assert opt.t == ref.t
        assert_bytes_equal(p_new, p_ref)
        assert_bytes_equal(opt._m, ref._m)
        assert_bytes_equal(opt._v, ref._v)

    def test_training_chain_bit_identical_to_reference(self, toy_graph, toy_features,
                                                        monkeypatch):
        # default trunk, so the trunk tensors span several blocks; the
        # reference side keeps the sparse-input heads but zeroes the other
        # layers' gradients eagerly, allocates every layer temporary, weighs
        # the loss densely and embeds through the decoder
        def chain():
            cfg = TrainConfig(epochs=3, batch_size=4, seed=5)
            node = train_node_model(toy_graph, toy_features, cfg)
            edge_cfg = TrainConfig(epochs=2, batch_size=4, seed=6,
                                   transfer_from=node.model)
            return node, train_edge_model(toy_graph, toy_features, edge_cfg)

        got = chain()
        monkeypatch.setattr(gm, "Adam", ReferenceAdam)
        monkeypatch.setattr(gm, "Linear", reference_layer)
        monkeypatch.setattr(gm, "masked_sq_error", dense_loss_term)
        monkeypatch.setattr(gm, "compute_embeddings", full_forward_embeddings)
        want = chain()
        assert isinstance(want[0].model.layers["embed"], ReferenceLinear)
        assert isinstance(want[0].model.layers["content_head"], Linear)
        for res_got, res_want in zip(got, want):
            assert_bytes_equal(res_got.model.parameters(), res_want.model.parameters())
            for channel in ("z", "o", "i"):
                assert (getattr(res_got.embeddings, channel).tobytes()
                        == getattr(res_want.embeddings, channel).tobytes())
            assert res_got.loss_trace == res_want.loss_trace

    def test_tracks_textbook_adam_to_rounding(self):
        # The rescaled moments and folded scalars equal the textbook step in
        # exact arithmetic. Past t = 350, 1 - b1**t rounds to exactly 1.0.
        # Parameters start at zero, so their bits hold the summed updates.
        # Over 10 seeds the largest gap was 9.7e-17; leaving eps unscaled
        # makes it 1.3e-8.
        rng = np.random.default_rng(12)
        p_new = {"w": np.zeros((40, 300)), "b": np.zeros(300)}
        p_text = {k: v.copy() for k, v in p_new.items()}
        opt, text = Adam(lr=1e-3), TextbookAdam(lr=1e-3)
        huge = np.zeros(p_new["w"].shape, dtype=bool)
        frozen = {}
        for t in range(420):
            grads = {k: rng.standard_cauchy(size=v.shape) * (rng.random(v.shape) < 0.7)
                     for k, v in p_new.items()}
            if t % 100 == 50:
                flat = rng.choice(huge.size, 5, replace=False)
                grads["w"].flat[flat] = 1e200 * rng.choice([-1.0, 1.0], size=5)
                huge.flat[flat] = True
                frozen.update((i, p_new["w"].flat[i]) for i in flat)
            with np.errstate(over="ignore", invalid="ignore"):  # g * g overflows
                opt.step(p_new, grads)
                text.step(p_text, grads)
        # An overflowed v turns the textbook step NaN on the next step
        # (inf - g*g); the rescaled one holds the coordinate where it was.
        assert all(np.isfinite(v).all() for v in p_new.values())
        assert np.isnan(p_text["w"][huge]).all()
        assert all(p_new["w"].flat[i] == v for i, v in frozen.items())
        assert np.abs(p_new["w"] - p_text["w"])[~huge].max() <= 1e-15
        assert np.abs(p_new["b"] - p_text["b"]).max() <= 1e-15

    @pytest.mark.parametrize("name,value", [
        ("lr", 0.0), ("lr", -1.0), ("lr", np.inf), ("lr", np.nan),
        ("beta1", -0.1), ("beta1", 1.0), ("beta1", np.nan),
        ("beta2", -0.1), ("beta2", 1.0), ("beta2", np.nan),
        ("eps", 0.0), ("eps", -1e-8), ("eps", np.inf), ("eps", np.nan),
    ])
    def test_rejects_hyperparameter_out_of_range(self, name, value):
        # b1, b2 and eps are the constants BETA1, BETA2 and EPS, so no value
        # of them is accepted as an argument
        error, match = ((ValueError, "Adam lr must be in") if name == "lr"
                        else (TypeError, f"unexpected keyword argument '{name}'"))
        with pytest.raises(error, match=match):
            Adam(**{name: value})

    def test_zero_betas_step_by_the_gradient_sign(self, monkeypatch):
        # with no averaging, every step is lr * g / (|g| + eps) exactly
        monkeypatch.setattr(Adam, "BETA1", 0.0)
        monkeypatch.setattr(Adam, "BETA2", 0.0)
        rng = np.random.default_rng(13)
        p = {"w": np.zeros(50)}
        want = np.zeros(50)
        opt = Adam(lr=1e-3)
        for _ in range(5):
            g = rng.standard_cauchy(size=50)
            opt.step(p, {"w": g})
            want -= g / (np.abs(g) + 1e-8) * 1e-3
        assert p["w"].tobytes() == want.tobytes()

    def test_bit_reproducible_trajectories(self):
        def run():
            rng = np.random.default_rng(42)
            p = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=3)}
            opt = Adam(lr=1e-3)
            for _ in range(20):
                grads = {k: 0.1 * v + 1.0 for k, v in p.items()}
                opt.step(p, grads)
            return p

        p1, p2 = run(), run()
        assert np.array_equal(p1["a"], p2["a"])
        assert np.array_equal(p1["b"], p2["b"])


def pick_rows(kind: str, rng: np.random.Generator, count: int) -> np.ndarray:
    """Sorted rows of a ``count``-row parameter: ``edges`` lists each 64-row
    block's first and last row."""
    if kind == "edges":
        return np.unique(np.r_[np.arange(0, count, 64), np.arange(63, count, 64), count - 1])
    if kind == "none":
        return np.empty(0, dtype=np.intp)
    if kind == "all":
        return np.arange(count)
    return np.flatnonzero(rng.random(count) < 0.4)


class TestPackedAdam:
    """``Adam.step`` on a packed ``(rows, values)`` weight gradient."""

    # width 512 sweeps 64 rows a block, so 200 rows end in an 8-row block;
    # width 300 sweeps 109 rows a block; a row wider than BLOCK is one block
    @pytest.mark.parametrize("shape, kind", [
        ((200, 512), "edges"), ((200, 512), "none"), ((200, 512), "all"),
        ((200, 512), "random"), ((250, 300), "random"), ((3, Adam.BLOCK + 5), "random"),
    ])
    def test_equals_the_dense_step_on_rows_scattered_into_zeros(self, shape, kind):
        rng = np.random.default_rng(50)
        p_packed = {"w": rng.normal(size=shape), "b": rng.normal(size=shape[1])}
        p_dense = {k: v.copy() for k, v in p_packed.items()}
        packed, dense = Adam(lr=1e-3), Adam(lr=1e-3)
        for _ in range(6):
            rows = pick_rows(kind, rng, shape[0])
            # heavy tails, exact zeros of both signs
            values = (rng.standard_cauchy(size=(rows.size, shape[1]))
                      * (rng.random((rows.size, shape[1])) < 0.7)
                      * rng.choice([-1.0, 1.0], size=(rows.size, shape[1])))
            scattered = np.zeros(shape)
            scattered[rows] = values
            grad_b = rng.normal(size=shape[1])
            packed.step(p_packed, {"w": (rows, values), "b": grad_b})
            dense.step(p_dense, {"w": scattered, "b": grad_b})
        assert packed.t == dense.t == 6
        assert_bytes_equal(p_packed, p_dense)
        assert_bytes_equal(packed._m, dense._m)
        assert_bytes_equal(packed._v, dense._v)

    def _stepped(self):
        """Parameters, an Adam after one step on them, and a packed gradient."""
        rng = np.random.default_rng(51)
        p = {"a": rng.normal(size=3), "w": rng.normal(size=(100, 512))}
        rows = np.array([0, 5, 63, 64, 99])
        opt = Adam(lr=1e-3)
        opt.step(p, {"a": rng.normal(size=3), "w": (rows, rng.normal(size=(5, 512)))})
        return p, opt, rows, rng.normal(size=(5, 512))

    @staticmethod
    def _assert_unchanged(p, opt, before):
        assert opt.t == 1
        assert_bytes_equal(p, before[0])
        assert_bytes_equal(opt._m, before[1])
        assert_bytes_equal(opt._v, before[2])

    @staticmethod
    def _state(p, opt):
        return tuple({k: v.copy() for k, v in d.items()} for d in (p, opt._m, opt._v))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2 * Adam.GRAD_LIMIT])
    def test_bad_packed_value_is_refused_before_any_change(self, bad):
        p, opt, rows, values = self._stepped()
        before = self._state(p, opt)
        values[3, 511] = bad
        with pytest.raises(TrainingError, match="'w'"):
            opt.step(p, {"a": np.ones(3), "w": (rows, values)})
        self._assert_unchanged(p, opt, before)

    @pytest.mark.parametrize("rows, width, match", [
        ([0, 5, 63, 64], 512, "gradient shape mismatch for w"),  # one row short
        ([0, 5, 63, 64, 99], 511, "gradient shape mismatch for w"),
        ([[0, 5, 63, 64, 99]], 512, "gradient shape mismatch for w"),
        ([0.0, 5.0, 63.0, 64.0, 99.0], 512, "gradient shape mismatch for w"),
        ([0, 5, 64, 63, 99], 512, "must increase strictly"),
        ([0, 5, 63, 63, 99], 512, "must increase strictly"),
        ([-1, 5, 63, 64, 99], 512, r"within \[0, 100\)"),
        ([0, 5, 63, 64, 100], 512, r"within \[0, 100\)"),
    ], ids=["length", "width", "2-d-rows", "float-rows", "decreasing", "repeated",
            "negative", "past-the-end"])
    def test_misshapen_pair_is_refused_before_any_change(self, rows, width, match):
        p, opt, _, _ = self._stepped()
        before = self._state(p, opt)
        with pytest.raises(ValueError, match=match):
            opt.step(p, {"a": np.ones(3), "w": (np.array(rows), np.ones((5, width)))})
        self._assert_unchanged(p, opt, before)

    def test_pair_for_a_one_dimensional_parameter_is_refused(self):
        opt = Adam()
        with pytest.raises(ValueError, match="gradient shape mismatch for b"):
            opt.step({"b": np.zeros(4)}, {"b": (np.array([1]), np.ones((1, 4)))})
        assert opt.t == 0 and opt._m == {}

    def test_rows_past_the_packed_ones_are_never_written(self):
        # NaN written over a head's whole gradient buffer after zero_grad
        # stays past its packed rows and never reaches the step
        n, d = 60, 30
        graph = random_digraph(n, 150, seed=2)
        inputs = gm._graph_tensors(graph, random_features(n, d, seed=3, density=0.1))
        models = [DiagramModel(n, d, (16, 8), 4, np.random.default_rng(0)) for _ in range(2)]
        opts = [Adam(lr=1e-3), Adam(lr=1e-3)]
        heads = ("content_head", "directed_head")
        edges = graph.edge_list
        for lo in (0, 4, 8):
            batches = gm._edge_batches(edges[lo:lo + 4, 0], edges[lo:lo + 4, 1], inputs)
            for poisoned, (model, opt) in enumerate(zip(models, opts)):
                model.zero_grad()
                if poisoned:
                    for name in heads:
                        model.layers[name]._grad_W[...] = np.nan
                gm._run_batches(model, batches, 10.0, 0.0, None)
                opt.step(model.parameters(), model._step_gradients())
            for name in heads:
                layer = models[1].layers[name]
                k = layer._touched.size
                assert 0 < k < layer.in_dim, name
                assert np.isnan(layer._grad_W[k:]).all(), name
            assert_bytes_equal(models[0].parameters(), models[1].parameters())


class TestFiniteDiffCheck:
    def test_quadratic_loss_is_exact(self):
        w = np.array([0.3, -0.7, 1.1])
        x = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 2.0]])
        y = np.array([1.0, -2.0])

        def loss_fn():
            r = x @ w - y
            return float(r @ r)

        grad = 2.0 * x.T @ (x @ w - y)
        assert finite_diff_check(loss_fn, [w], [grad]) < 1e-9

    def test_two_layer_tanh_net(self):
        rng = np.random.default_rng(7)
        l1 = Linear(6, 4, rng=rng)
        l2 = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 6))
        target = sp.csr_matrix(rng.uniform(-0.5, 0.5, size=(5, 3)))
        penalised = target.data > 0

        def loss_fn():
            h, _ = l1.forward(x)
            y, _ = l2.forward(h)
            return masked_sq_error(y, target, penalised, 10.0)[0]

        l1.zero_grad()
        l2.zero_grad()
        h, c1 = l1.forward(x)
        y, c2 = l2.forward(h)
        _, dy = masked_sq_error(y, target, penalised, 10.0)
        dh = l2.backward(c2, dy)
        l1.backward(c1, dh)
        params = [l1.W, l1.b, l2.W, l2.b]
        grads = [l1.grad_W, l1.grad_b, l2.grad_W, l2.grad_b]
        err = finite_diff_check(loss_fn, params, grads, max_coords=50,
                                rng=np.random.default_rng(0))
        assert err < 1e-4

    def test_detects_corrupted_gradient(self):
        w = np.array([1.0, 2.0])

        def loss_fn():
            return float(w @ w)

        grad = 2.0 * w
        grad[1] *= 2.0  # deliberate corruption
        assert finite_diff_check(loss_fn, [w], [grad]) > 0.3


class TestCheckpoint:
    """``load_model``'s checks of the checkpoint container and its meta block."""

    @pytest.fixture
    def saved(self, toy_graph, toy_features, tmp_path):
        """A model checkpoint's tensors, and a path to write variants of it to."""
        path = tmp_path / "ckpt.npz"
        model = DiagramModel(toy_graph.node_count, toy_features.dim, trunk_dims=(8, 4),
                             embedding_dim=3, rng=np.random.default_rng(0))
        save_model(path, model)
        with np.load(path) as npz:
            tensors = {k: npz[k] for k in npz.files if k != "__meta__"}
        return tensors, path

    def test_bit_exact_round_trip(self, saved, tmp_path):
        tensors, path = saved
        model, _ = load_model(path)
        save_model(path, model, {"seed": 17, "note": "unit"})
        loaded, meta = load_model(path)
        assert meta["seed"] == 17 and meta["note"] == "unit" and meta["version"] == 1
        for name, arr in model.parameters().items():
            assert loaded.parameters()[name].tobytes() == arr.tobytes(), name
        # the container's tensors come back as they were written
        with np.load(path) as npz:
            assert sorted(f for f in npz.files if f != "__meta__") == sorted(tensors)
            for name, arr in tensors.items():
                assert npz[name].dtype == arr.dtype and npz[name].tobytes() == arr.tobytes()

    def test_rejects_wrong_version(self, saved):
        tensors, path = saved
        write_npz(path, tensors, {"version": 99, "kind": "diagram-model",
                                  "node_count": 6, "feature_dim": 4,
                                  "trunk_dims": [8, 4], "embedding_dim": 3})
        with pytest.raises(EmbeddingFormatError, match="ckpt.npz has version 99, expected 1"):
            load_model(path)

    @pytest.mark.parametrize("meta", [b"{not json", b"\xff\xfe", b"[1, 2]"])
    def test_unreadable_meta_is_typed_error(self, saved, meta):
        tensors, path = saved
        write_npz(path, tensors, meta)
        with pytest.raises(EmbeddingFormatError, match="ckpt.npz"):
            load_model(path)

    def test_missing_meta_block_is_typed_error(self, saved):
        tensors, path = saved
        np.savez(path, **tensors)
        with pytest.raises(EmbeddingFormatError, match="ckpt.npz has no meta block"):
            load_model(path)


class TestAtomicWrite:
    def test_failed_write_keeps_old_target_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "target.bin"
        path.write_bytes(b"old contents")

        def fail_midway(fh):
            fh.write(b"partial")
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            atomic_write(path, fail_midway)
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["target.bin"]

    def test_bytes_and_callable_forms_write_identical_files(self, tmp_path):
        payload = bytes(range(256)) * 100
        atomic_write(tmp_path / "a", payload)
        atomic_write(tmp_path / "b", lambda fh: fh.write(payload))
        assert (tmp_path / "a").read_bytes() == payload
        assert (tmp_path / "b").read_bytes() == payload
