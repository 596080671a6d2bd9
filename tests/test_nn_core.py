import warnings

import numpy as np
import pytest

from aucap.errors import GraphStateError, ShapeError
from aucap.nn import tensor as T
from gradcheck import max_relative_error
from aucap.nn.layers import (
    BatchNorm,
    BiGRU,
    Dense,
    GRUCellParams,
    gru_cell_step,
    gru_sequence,
    orthogonal,
)
from aucap.nn.optim import CHUNK, AdamState, adam_step, zero_grads
from aucap.nn.tensor import Parameter, Tensor


def sum_all(x):
    """Sum of all entries as a scalar node; the gradient is g everywhere."""
    x = T._as_tensor(x)
    return Tensor(x.data.sum(), x.requires_grad, (x,),
                  lambda g: T._accumulate(x, np.full_like(x.data, float(g))))


def zero_cell(input_dim, hidden):
    cell = GRUCellParams.create(input_dim, hidden, np.random.RandomState(0))
    for p in cell.parameters():
        p.data[...] = 0.0
    return cell


class TestGRUAnalytic:
    def test_zero_weights_zero_state(self):
        cell = zero_cell(4, 3)
        x = Tensor(np.random.RandomState(1).standard_normal((1, 4)))
        h = Tensor(np.zeros((1, 3)))
        out = gru_cell_step(x, h, cell)
        assert np.array_equal(out.data, np.zeros((1, 3)))

    def test_zero_weights_halve_state(self):
        # z = r = 0.5, h_hat = 0 => h_t = 0.5 * h_prev, exactly
        cell = zero_cell(4, 3)
        v = np.array([[0.8, -0.2, 0.35]])
        out = gru_cell_step(Tensor(np.ones((1, 4))), Tensor(v), cell)
        assert np.array_equal(out.data, 0.5 * v)

    def test_output_bounded(self):
        rng = np.random.RandomState(2)
        cell = GRUCellParams.create(3, 3, rng)
        for _ in range(50):
            x = Tensor(rng.standard_normal((1, 3)) * 3)
            h = Tensor(rng.uniform(-1, 1, (1, 3)))
            out = gru_cell_step(x, h, cell)
            assert np.all(np.abs(out.data) < 1.0)

    def test_shape_mismatch(self):
        cell = zero_cell(4, 3)
        with pytest.raises(ShapeError):
            gru_cell_step(Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 3))), cell)


def reference_run(xs, cell, masks=None, h0=None, reverse=False, return_sequence=False):
    """A GRU run as a chain of per-step autodiff ops; the fused kernel must
    reproduce it bit for bit."""
    steps, batch, _ = xs.shape
    h = Tensor(h0 if h0 is not None else np.zeros((batch, cell.hidden)))
    states = [None] * steps
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        x_t = Tensor(xs[t])
        hx = T.concat([h, x_t], axis=1)
        z = T.sigmoid(T.linear(hx, cell.W_z, cell.b_z))
        r = T.sigmoid(T.linear(hx, cell.W_r, cell.b_r))
        rhx = T.concat([T.mul(r, h), x_t], axis=1)
        h_hat = T.tanh(T.linear(rhx, cell.W, cell.b))
        h_new = T.add(T.mul(T.sub(1.0, z), h), T.mul(z, h_hat))
        if masks is not None:
            m = masks[t].reshape(batch, 1)
            h_new = T.add(T.mul(Tensor(m), h_new), T.mul(Tensor(1.0 - m), h))
        h = states[t] = h_new
    return np.stack([s.data for s in states]) if return_sequence else h.data


class TestGRUForward:
    def test_t1_equals_single_step(self):
        rng = np.random.RandomState(3)
        cell = GRUCellParams.create(4, 3, rng)
        seq = Tensor(rng.standard_normal((1, 1, 4)))
        via_forward = gru_sequence(seq, cell)
        via_step = gru_cell_step(Tensor(seq.data[0]), Tensor(np.zeros((1, 3))), cell)
        assert np.array_equal(via_forward.data, via_step.data)

    def test_zero_weights_zero_final(self):
        cell = zero_cell(4, 3)
        seq = Tensor(np.random.RandomState(4).standard_normal((6, 1, 4)))
        assert np.array_equal(gru_sequence(seq, cell).data, np.zeros((1, 3)))

    def test_sequence_last_row_matches_final(self):
        rng = np.random.RandomState(5)
        cell = GRUCellParams.create(4, 3, rng)
        seq = Tensor(rng.standard_normal((5, 1, 4)))
        states = gru_sequence(seq, cell, return_sequence=True)
        final = gru_sequence(seq, cell)
        assert states.data.shape == (5, 1, 3)
        assert np.allclose(states.data[-1], final.data)

    def test_empty_sequence(self):
        cell = zero_cell(4, 3)
        with pytest.raises(ShapeError):
            gru_sequence(Tensor(np.zeros((0, 1, 4))), cell)

    @pytest.mark.parametrize("random_bias", [True, False])  # False: the zero start biases
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_kernel_equals_per_step_ops(self, random_bias, reverse, masked):
        rng = np.random.RandomState(20)
        cell = GRUCellParams.create(5, 4, rng)
        if random_bias:
            for b in (cell.b_z, cell.b_r, cell.b):
                b.data = rng.standard_normal(4)
        xs = rng.standard_normal((6, 3, 5)) * 2.0
        masks = (rng.random_sample((6, 3)) > 0.3).astype(float) if masked else None
        h0 = rng.uniform(-0.9, 0.9, (3, 4))
        for options in ({}, {"h0": h0}, {"return_sequence": True},
                        {"h0": h0, "return_sequence": True}):
            out = gru_sequence(Tensor(xs), cell, masks=masks, reverse=reverse, **options)
            ref = reference_run(xs, cell, masks=masks, reverse=reverse, **options)
            assert np.array_equal(out.data, ref)

    def test_masks_and_h0_shapes_checked(self):
        cell = zero_cell(4, 3)
        xs = Tensor(np.zeros((5, 2, 4)))
        with pytest.raises(ShapeError):
            gru_sequence(xs, cell, masks=np.ones((2, 5)))
        with pytest.raises(ShapeError):
            gru_sequence(xs, cell, h0=Tensor(np.zeros((3, 3))))
        with pytest.raises(ShapeError):
            gru_sequence(Tensor(np.zeros((5, 2, 3))), cell)

    def test_saturated_gates_emit_no_warning(self):
        cell = GRUCellParams.create(4, 3, np.random.RandomState(21))
        xs = Tensor(np.tile([[1e4], [-1e4]], (2, 1, 4)))  # (T=2, B=2, 4): both signs saturate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gru_sequence(xs, cell, return_sequence=True)
        assert np.all(np.isfinite(out.data))


class TestBiGRU:
    def test_palindrome_symmetry(self):
        rng = np.random.RandomState(6)
        layer = BiGRU(4, 3, rng)
        layer.bwd = layer.fwd
        half = rng.standard_normal((3, 1, 4))
        seq = Tensor(np.concatenate([half, half[::-1]]))  # palindromic in time
        out = layer.run(seq, return_sequence=True).data
        fwd, bwd = out[:, :, :3], out[:, :, 3:]
        assert np.allclose(fwd, bwd[::-1])

    def test_t1_halves_equal_cells(self):
        rng = np.random.RandomState(7)
        layer = BiGRU(4, 3, rng)
        seq = Tensor(rng.standard_normal((1, 1, 4)))
        out = layer.run(seq, return_sequence=True).data[0]
        h0 = Tensor(np.zeros((1, 3)))
        assert np.allclose(out[:, :3], gru_cell_step(Tensor(seq.data[0]), h0, layer.fwd).data)
        assert np.allclose(out[:, 3:], gru_cell_step(Tensor(seq.data[0]), h0, layer.bwd).data)

    def test_output_width(self):
        rng = np.random.RandomState(8)
        layer = BiGRU(4, 6, rng)
        seq = Tensor(rng.standard_normal((5, 2, 4)))
        assert layer.run(seq, return_sequence=True).data.shape == (5, 2, 12)
        assert layer.run(seq).data.shape == (2, 12)

    @pytest.mark.parametrize("steps, batch", [(1, 1), (1, 4), (6, 1), (6, 4)])
    @pytest.mark.parametrize("return_sequence", [False, True])
    def test_one_node_equal_to_two_joined_runs(self, steps, batch, return_sequence):
        rng = np.random.RandomState(9)
        layer = BiGRU(5, 3, rng)
        for p in layer.parameters():
            p.data = p.data + 0.3 * rng.standard_normal(p.data.shape)  # biases off zero too
        x = rng.standard_normal((steps, batch, 5))
        weights = Tensor(rng.standard_normal((steps, batch, 6) if return_sequence else (batch, 6)))

        def run(build):
            xs = Parameter(x, "xs")
            zero_grads(layer.parameters())
            out = build(xs)
            T.backward(T.mean_all(T.mul(out, weights)))
            return xs, out, [xs.grad, *(p.grad.copy() for p in layer.parameters())]

        xs, fused, fused_grads = run(lambda xs: layer.run(xs, return_sequence=return_sequence))
        assert fused._parents == (xs, *layer.parameters())  # one node, no concat behind it
        _, joined, joined_grads = run(lambda xs: T.concat(
            [gru_sequence(xs, layer.fwd, return_sequence=return_sequence),
             gru_sequence(xs, layer.bwd, reverse=True, return_sequence=return_sequence)],
            axis=2 if return_sequence else 1))
        assert np.array_equal(fused.data, joined.data)
        for a, b in zip(fused_grads, joined_grads):
            assert np.array_equal(a, b)


class TestActivations:
    def test_relu_sigmoid_tanh(self):
        x = Tensor(np.array([[-1.0, 0.0, 2.0]]))
        assert np.allclose(T.relu(x).data, [[0.0, 0.0, 2.0]])
        assert np.allclose(T.sigmoid(Tensor(np.zeros((1, 1)))).data, 0.5)
        assert np.allclose(T.tanh(Tensor(np.zeros((1, 1)))).data, 0.0)

    def test_sigmoid_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_softmax_symmetry(self):
        assert np.allclose(T.softmax(Tensor(np.zeros((1, 2)))).data, [[0.5, 0.5]])

    def test_softmax_stable_for_huge_logits(self):
        out = T.softmax(Tensor(np.array([[1000.0, 1000.0]])))
        assert np.allclose(out.data, [[0.5, 0.5]])
        assert np.all(np.isfinite(out.data))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.RandomState(9)
        out = T.softmax(Tensor(rng.standard_normal((20, 30)) * 10))
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((out.data > 0) & (out.data < 1))


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.RandomState(10)
        bn = BatchNorm(5)
        x = Tensor(rng.standard_normal((64, 5)) * 4 + 3)
        out = bn(x, mode="train").data  # gamma=1, beta=0 at init
        assert np.all(np.abs(out.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-4)

    def test_constant_column_zeros(self):
        bn = BatchNorm(3)
        x = Tensor(np.full((8, 3), 2.5))
        assert np.allclose(bn(x, mode="train").data, 0.0, atol=1e-6)

    def test_infer_deterministic(self):
        rng = np.random.RandomState(11)
        bn = BatchNorm(4)
        bn(Tensor(rng.standard_normal((32, 4))), mode="train")
        x = Tensor(rng.standard_normal((5, 4)))
        a = bn(x, mode="infer").data
        b = bn(x, mode="infer").data
        assert np.array_equal(a, b)

    def test_batch_of_one_rejected(self):
        bn = BatchNorm(3)
        with pytest.raises(ShapeError):
            bn(Tensor(np.zeros((1, 3))), mode="train")

    def test_running_stats_update(self):
        bn = BatchNorm(2, momentum=0.5)
        x = Tensor(np.array([[0.0, 10.0], [2.0, 14.0]]))
        bn(x, mode="train")
        assert np.allclose(bn.running_mean, [0.5, 6.0])  # 0.5*0 + 0.5*batch_mean

    def test_infer_matches_train_after_updates(self):
        # the running statistics' start values (mean 0, var 1) must not leak into infer mode
        rng = np.random.RandomState(12)
        bn = BatchNorm(4)
        x = Tensor(rng.standard_normal((16, 4)) * 3 + 2)
        for _ in range(5):
            train_out = bn(x, mode="train").data
        assert np.allclose(bn(x, mode="infer").data, train_out, atol=1e-8)

    def test_infer_constant_batch_gives_beta(self):
        bn = BatchNorm(3)
        bn.beta.data = np.array([0.5, -1.0, 2.0])
        x = Tensor(np.tile([1.0, -3.0, 7.5], (8, 1)))
        for _ in range(3):
            bn(x, mode="train")
        assert np.allclose(bn(x, mode="infer").data, bn.beta.data, atol=1e-8)


class TestDropout:
    def test_infer_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 0.5, "infer", np.random.RandomState(0)) is x

    def test_rate_zero_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 0.0, "train", np.random.RandomState(0)) is x

    def test_expectation_preserved(self):
        rng = np.random.RandomState(12)
        x = Tensor(np.ones((100, 100)))
        total = 0.0
        for _ in range(10):
            total += T.dropout(x, 0.5, "train", rng).data.mean()
        assert abs(total / 10 - 1.0) < 0.02  # 1e5 Bernoulli draws, 2% band


class TestCrossEntropy:
    def test_one_hot_correct(self):
        probs = Tensor(np.array([[1e-9, 1.0 - 2e-9, 1e-9]]))
        loss = T.cross_entropy(probs, np.array([1]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-8)

    def test_uniform_analytic(self):
        probs = Tensor(np.full((3, 4), 0.25))
        loss = T.cross_entropy(probs, np.array([0, 1, 3]))
        assert float(loss.data) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_zero_probability_floored(self):
        probs = Tensor(np.array([[0.0, 1.0]]))
        loss = T.cross_entropy(probs, np.array([0]))
        assert float(loss.data) == pytest.approx(-np.log(1e-12))

    def test_invalid_target(self):
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.full((1, 2), 0.5)), np.array([5]))


class TestGradients:
    def test_dense_strict(self):
        rng = np.random.RandomState(13)
        layer = Dense(6, 4, rng)
        x = Tensor(rng.standard_normal((5, 6)))
        err = max_relative_error(
            lambda: T.mean_all(T.mul(layer(x), layer(x))), layer.parameters(),
            delta=1e-6, tiny=1e-8,
        )
        assert err < 1e-5

    def test_gru_cell_strict(self):
        rng = np.random.RandomState(14)
        cell = GRUCellParams.create(3, 3, rng)
        x = Tensor(rng.standard_normal((2, 3)))
        h = Tensor(rng.uniform(-0.8, 0.8, (2, 3)))
        err = max_relative_error(
            lambda: T.mean_all(T.mul(gru_cell_step(x, h, cell), gru_cell_step(x, h, cell))),
            cell.parameters(), delta=1e-6, tiny=1e-8,
        )
        assert err < 1e-5

    def test_input_gradients_flow(self):
        rng = np.random.RandomState(15)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Parameter(rng.standard_normal((2, 4)), "w")
        loss = T.mean_all(T.linear(x, w))
        T.backward(loss)
        assert x.grad is not None and x.grad.shape == (3, 4)

    def test_linear_backward_with_constant_input(self):
        rng = np.random.RandomState(16)
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal(2)
        grads = []
        for x_t in (Tensor(x), Tensor(x, requires_grad=True)):
            params = [Parameter(w, "w"), Parameter(b, "b")]
            T.backward(T.mean_all(T.mul(T.linear(x_t, *params), T.linear(x_t, *params))))
            grads.append([p.grad for p in params])
            if not x_t.requires_grad:
                assert x_t.grad is None
        for a, b_ in zip(*grads):
            assert np.array_equal(a, b_)

    def test_concat_and_slice_backward(self):
        a = Parameter(np.ones((2, 3)), "a")
        b = Parameter(np.ones((2, 2)), "b")
        out = T.concat([a, b], axis=1)
        sliced = T.row_slice(out, 0, 1)
        T.backward(sum_all(sliced))
        assert np.array_equal(a.grad, [[1, 1, 1], [0, 0, 0]])
        assert np.array_equal(b.grad, [[1, 1], [0, 0]])

    def test_grad_accumulates_across_uses(self):
        w = Parameter(np.array([[2.0]]), "w")
        x = Tensor(np.array([[3.0]]))
        y = T.add(T.mul(w, x), T.mul(w, x))  # dL/dw = 2x
        T.backward(sum_all(y))
        assert w.grad[0, 0] == pytest.approx(6.0)

    def test_backward_requires_scalar(self):
        w = Parameter(np.ones((2, 2)), "w")
        with pytest.raises(GraphStateError):
            T.backward(T.mul(w, w))


class TestAdam:
    def test_quadratic_convergence(self):
        w = Parameter(np.array([5.0]), "w")
        state = AdamState(learning_rate=1e-2)
        for _ in range(2000):
            loss = T.mean_all(T.mul(w, w))
            T.backward(loss)
            adam_step([w], state)
        assert abs(w.data[0]) < 0.1

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~lr regardless of gradient scale
        for scale in (1e-3, 1.0, 1e3):
            w = Parameter(np.array([scale]), "w")
            state = AdamState(learning_rate=0.1)
            T.backward(sum_all(T.mul(w, Tensor(np.array([1.0])))))
            before = w.data.copy()
            adam_step([w], state)
            assert abs(abs(before[0] - w.data[0]) - 0.1) < 1e-3

    def test_step_before_backward_rejected(self):
        w = Parameter(np.ones(3), "w")
        with pytest.raises(GraphStateError):
            adam_step([w], AdamState())

    def test_grads_cleared_after_step(self):
        w = Parameter(np.array([1.0]), "w")
        state = AdamState()
        T.backward(sum_all(T.mul(w, w)))
        adam_step([w], state)
        assert np.all(w.grad == 0.0) and not w.grad_ready


def adam_reference(data, grads, steps, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
    """Unblocked Adam with full-size temporaries, op for op as adam_step."""
    data = data.copy()
    m, v = np.zeros_like(data), np.zeros_like(data)
    for t in range(1, steps + 1):
        g = grads[t - 1]
        scale = lr * np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        data -= scale * m / (np.sqrt(v) + eps)
    return data


class TestAdamBlocked:
    def test_matches_unblocked_formula(self):
        rng = np.random.RandomState(22)
        shapes = {"big": (3, CHUNK // 2 + 7), "small": (7,)}  # 1.5 chunks and a partial one
        params = [Parameter(rng.standard_normal(s), name) for name, s in shapes.items()]
        start = [p.data.copy() for p in params]
        grads = [[rng.standard_normal(s) * 10.0 ** rng.randint(-3, 3) for _ in range(3)]
                 for s in shapes.values()]
        state = AdamState(learning_rate=1e-2)
        for step in range(3):
            for p, g in zip(params, grads):
                p.grad[...] = g[step]
                p.grad_ready = True
            adam_step(params, state)
        for p, p0, g in zip(params, start, grads):
            assert np.array_equal(p.data, adam_reference(p0, g, 3))


class TestInits:
    def test_orthogonal(self):
        q = orthogonal(np.random.RandomState(16), 8)
        assert np.allclose(q @ q.T, np.eye(8), atol=1e-10)

    def test_deterministic(self):
        a = orthogonal(np.random.RandomState(5), 6)
        b = orthogonal(np.random.RandomState(5), 6)
        assert np.array_equal(a, b)


class TestMaskedRun:
    def test_masked_steps_keep_state(self):
        rng = np.random.RandomState(17)
        layer = BiGRU(3, 2, rng)
        cell = GRUCellParams.create(3, 4, rng)
        xs = Tensor(rng.standard_normal((4, 2, 3)))
        masks = np.ones((4, 2))
        masks[2:, 1] = 0.0  # row 1 stops after step 1
        full = gru_sequence(xs, cell, masks=masks)
        short = gru_sequence(Tensor(xs.data[:2]), cell)
        assert np.allclose(full.data[1], short.data[1])
        assert layer.hidden == 2
