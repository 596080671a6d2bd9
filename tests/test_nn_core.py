import inspect
import math
import warnings

import numpy as np
import pytest

from aucap.errors import GraphStateError, ShapeError
from aucap.nn import tensor as T
from gradcheck import (add, at_float64, cast, dense_grad, max_relative_error, mean_all, sub,
                       zero_grads)
from memory import peak_bytes
from aucap.captioner import Captioner, CaptionerConfig
from aucap.mlp import DEFAULT_HIDDEN, MLP, MLPConfig
from aucap.nn.layers import (
    BN_MOMENTUM,
    DRAW_BLOCK,
    GRU,
    BatchNorm,
    BiGRU,
    Dense,
    Embedding,
    GRUCellParams,
    GRUStep,
    glorot_uniform,
    gru_cell_step,
    gru_sequence,
    orthogonal,
    uniform_fill,
)
from aucap.nn.checkpoint import load_parameters
from aucap.nn.optim import CHUNK, MIN_ROWS, AdamState, adam_step, fit, row_blocks
from aucap.nn.tensor import Parameter, Tensor


def sum_all(x):
    """Sum of all entries as a scalar node; the gradient is g everywhere."""
    x = T._as_tensor(x)
    return T._node(x.data.sum(), (x,), lambda g: T._accumulate(x, np.full_like(x.data, float(g))))


def make_cell(input_dim, hidden, rng, name="gru"):
    return GRUCellParams.stacked(input_dim, hidden, rng, (name,))[0]


def zero_cell(input_dim, hidden):
    cell = make_cell(input_dim, hidden, np.random.RandomState(0))
    for p in cell.parameters():
        p.data[...] = 0.0
    return cell


class TestGRUAnalytic:
    def test_zero_weights_zero_state(self):
        cell = zero_cell(4, 3)
        x = Tensor(np.random.RandomState(1).standard_normal((1, 4)))
        out = gru_cell_step(x, cell)
        assert np.array_equal(out.data, np.zeros((1, 3)))

    def test_zero_weights_halve_the_distance_to_the_candidate(self):
        # z = r = 0.5, h_hat = tanh(b) => h_t = (h_prev + tanh(b)) / 2: from zero,
        # h_t = (1 - 2**-t) * tanh(b), whatever the input
        cell = zero_cell(4, 3)
        cell.b.data[...] = [0.8, -0.2, 0.35]
        xs = Tensor(np.random.RandomState(1).standard_normal((4, 1, 4)))
        out = gru_sequence(xs, cell, return_sequence=True)
        target = np.tanh(cell.b.data.astype(np.float64))
        want = (1.0 - 0.5 ** np.arange(1, 5))[:, None, None] * target
        np.testing.assert_allclose(out.data, want, rtol=1e-6)

    def test_output_bounded(self):
        rng = np.random.RandomState(2)
        cell = make_cell(3, 3, rng)
        xs = Tensor(rng.standard_normal((50, 4, 3)) * 3)
        out = gru_sequence(xs, cell, return_sequence=True)
        assert np.all(np.abs(out.data) < 1.0)

    def test_shape_mismatch(self):
        cell = zero_cell(4, 3)
        with pytest.raises(ShapeError):
            gru_cell_step(Tensor(np.zeros((1, 5))), cell)


def reference_states(xs, cell, reverse=False):
    """A GRU run as a chain of per-step autodiff ops over the per-step input
    tensors ``xs`` from a zero state; its states in input order."""
    h = Tensor(np.zeros((xs[0].data.shape[0], cell.hidden), xs[0].data.dtype))
    states = [None] * len(xs)
    for t in (range(len(xs) - 1, -1, -1) if reverse else range(len(xs))):
        hx = T.concat([h, xs[t]], axis=1)
        z = T.sigmoid(T.linear(hx, cell.W_z, cell.b_z))
        r = T.sigmoid(T.linear(hx, cell.W_r, cell.b_r))
        rhx = T.concat([T.mul(r, h), xs[t]], axis=1)
        h_hat = T.tanh(T.linear(rhx, cell.W, cell.b))
        h = states[t] = add(T.mul(sub(1.0, z), h), T.mul(z, h_hat))
    return states


def reference_run(xs, cell, reverse=False, return_sequence=False):
    """``reference_states`` on arrays; the fused kernel must reproduce it bit for bit."""
    states = reference_states([Tensor(x) for x in xs], cell, reverse)
    if return_sequence:
        return np.stack([s.data for s in states])
    return states[0 if reverse else -1].data


class TestGRUForward:
    def test_t1_equals_single_step(self):
        rng = np.random.RandomState(3)
        cell = make_cell(4, 3, rng)
        seq = Tensor(rng.standard_normal((1, 1, 4)))
        via_forward = gru_sequence(seq, cell)
        via_step = gru_cell_step(Tensor(seq.data[0]), cell)
        assert np.array_equal(via_forward.data, via_step.data)

    def test_zero_weights_zero_final(self):
        cell = zero_cell(4, 3)
        seq = Tensor(np.random.RandomState(4).standard_normal((6, 1, 4)))
        assert np.array_equal(gru_sequence(seq, cell).data, np.zeros((1, 3)))

    def test_sequence_last_row_matches_final(self):
        rng = np.random.RandomState(5)
        cell = make_cell(4, 3, rng)
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
    def test_kernel_equals_per_step_ops(self, random_bias, reverse):
        rng = np.random.RandomState(20)
        cell = make_cell(5, 4, rng)
        if random_bias:
            for b in (cell.b_z, cell.b_r, cell.b):
                b.data[...] = rng.standard_normal(4)  # in place, as a view of its stack
        xs = rng.standard_normal((6, 3, 5)) * 2.0
        for return_sequence in (False, True):
            out = gru_sequence(Tensor(xs), cell, reverse=reverse, return_sequence=return_sequence)
            ref = reference_run(xs, cell, reverse=reverse, return_sequence=return_sequence)
            assert np.array_equal(out.data, ref)

    def test_input_shape_checked(self):
        cell = zero_cell(4, 3)
        with pytest.raises(ShapeError):
            gru_sequence(Tensor(np.zeros((5, 2, 3))), cell)

    def test_saturated_gates_emit_no_warning(self):
        cell = make_cell(4, 3, np.random.RandomState(21))
        xs = Tensor(np.tile([[1e4], [-1e4]], (2, 1, 4)))  # (T=2, B=2, 4): both signs saturate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gru_sequence(xs, cell, return_sequence=True)
        assert np.all(np.isfinite(out.data))


class TestSubnormalFlush:
    """A gradient on the final state alone decays through BPTT; ``gru_sequence``
    flushes its subnormals to zero and stops once nothing is left."""

    TINY = np.finfo(np.float32).tiny

    def test_gradients_match_unflushed_per_step_ops(self):
        rng = np.random.RandomState(50)
        cell = make_cell(4, 3, rng)
        for w in (cell.W_z, cell.W_r, cell.W):
            w.data *= 0.2
        cell.b_z.data[:] = 2.5  # z ~ 0.92: each step keeps ~1/6 of the state gradient
        x = rng.standard_normal((64, 2, 4)).astype(np.float32)

        steps = [Parameter(x_t, "x_t") for x_t in x]
        T.backward(sum_all(reference_states(steps, cell)[-1]))  # gradient 1 on the final state
        unflushed = [np.stack([s.grad for s in steps]), *map(dense_grad, cell.parameters())]
        zero_grads(cell.parameters())
        xs = Parameter(x.copy(), "xs")
        T.backward(sum_all(gru_sequence(xs, cell)))
        flushed = [xs.grad, *map(dense_grad, cell.parameters())]

        def subnormals(a):
            return int(((a != 0) & (np.abs(a) < self.TINY)).sum())

        assert subnormals(unflushed[0]) > 40  # the case occurs
        assert subnormals(xs.grad) < subnormals(unflushed[0]) / 2
        assert unflushed[0][:8].any() and not xs.grad[:8].any()  # the earliest steps were skipped
        for a, b in zip(flushed, unflushed, strict=True):
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-37)


class TestBiGRU:
    def test_palindrome_symmetry(self):
        rng = np.random.RandomState(6)
        layer = BiGRU(4, 3, rng)
        for p, q in zip(layer.bwd.parameters(), layer.fwd.parameters()):
            p.data[...] = q.data  # the backward cell a copy of the forward one
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
        assert np.allclose(out[:, :3], gru_cell_step(Tensor(seq.data[0]), layer.fwd).data)
        assert np.allclose(out[:, 3:], gru_cell_step(Tensor(seq.data[0]), layer.bwd).data)

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
            p.data += 0.3 * rng.standard_normal(p.data.shape)  # biases off zero too, in place
        x = rng.standard_normal((steps, batch, 5))
        weights = Tensor(rng.standard_normal((steps, batch, 6) if return_sequence else (batch, 6)))

        def run(build):
            xs = Parameter(x, "xs")
            zero_grads(layer.parameters())
            out = build(xs)
            T.backward(mean_all(T.mul(out, weights)))
            return xs, out, [xs.grad, *(dense_grad(p).copy() for p in layer.parameters())]

        xs, fused, fused_grads = run(lambda xs: layer.run(xs, return_sequence=return_sequence))
        assert fused._parents == (xs, *layer.parameters())  # one node, no concat behind it
        _, joined, joined_grads = run(lambda xs: T.concat(
            [gru_sequence(xs, layer.fwd, return_sequence=return_sequence),
             gru_sequence(xs, layer.bwd, reverse=True, return_sequence=return_sequence)],
            axis=2 if return_sequence else 1))
        assert np.array_equal(fused.data, joined.data)
        for a, b in zip(fused_grads, joined_grads):
            assert np.array_equal(a, b)


def layer_cells(layer):
    return (layer.fwd, layer.bwd) if isinstance(layer, BiGRU) else (layer.cell,)


def stacks_of(cell):
    """A cell's gate and bias stacks, found as the ``.base`` of its views."""
    return cell.W_z.data.base, cell.b_z.data.base


def views_its_stacks(cells, dtype=np.float32):
    """Whether a ``GRUStep`` of ``cells`` reads their stacks in place."""
    gates, biases = stacks_of(cells[0])
    step = GRUStep(cells, 1, dtype)
    return (np.shares_memory(step.stack, gates) and np.shares_memory(step.b_zr, biases)
            and np.shares_memory(step.b, biases))


class TestGateStack:
    """A layer's cells are fixed views of one gate stack and one bias stack,
    which each GRU step reads in place."""

    def test_layer_cells_are_views_of_its_stacks(self):
        layer = BiGRU(5, 3, np.random.RandomState(41))
        gates, biases = stacks_of(layer.fwd)
        assert gates.shape == (3, 2, 3, 8) and gates.dtype == np.float32
        assert biases.shape == (3, 2, 3) and biases.dtype == np.float32 and not biases.any()
        assert stacks_of(layer.bwd) == (gates, biases)
        assert (layer.fwd.slot, layer.bwd.slot) == (0, 1)
        for d, c in enumerate(layer_cells(layer)):
            for k, w in enumerate((c.W_z, c.W_r, c.W)):
                assert w.data.base is gates and np.shares_memory(w.data, gates[k, d])
            for k, b in enumerate((c.b_z, c.b_r, c.b)):
                assert b.data.base is biases and np.shares_memory(b.data, biases[k, d])
        for cells in (layer_cells(layer), (layer.fwd,), (layer.bwd,)):  # slot 1 alone too
            assert views_its_stacks(cells)

    def test_draws_fill_the_stack_in_cell_order(self):
        """Each cell draws W_z, W_r, then W, forward cell first, each cast as stored."""
        layer = BiGRU(5, 3, np.random.RandomState(42))
        rng, limit = np.random.RandomState(42), np.sqrt(6.0 / (3 + 5))
        for c in layer_cells(layer):
            for w in (c.W_z, c.W_r, c.W):
                assert np.array_equal(w.data[:, :3], orthogonal(rng, 3).astype(np.float32))
                assert np.array_equal(w.data[:, 3:],
                                      rng.uniform(-limit, limit, (3, 5)).astype(np.float32))

    def test_stacks_hold_the_parameters_after_adam_and_load(self):
        rng = np.random.RandomState(44)
        layer = BiGRU(5, 3, rng)
        cells, (gates, biases) = layer_cells(layer), stacks_of(layer.fwd)

        def stacks_hold_parameters():
            return views_its_stacks(cells) and all(
                np.array_equal(stack[k, d], p.data) and p.data.base is stack
                for d, c in enumerate(cells) for i, p in enumerate(c.parameters())
                for stack, k in ((gates, i) if i < 3 else (biases, i - 3),))

        before = gates.copy(), biases.copy()
        T.backward(sum_all(layer.run(Tensor(rng.standard_normal((3, 2, 5))))))
        adam_step(layer.parameters(), AdamState(learning_rate=0.1))
        assert stacks_hold_parameters()
        assert not np.array_equal(gates, before[0]) and not np.array_equal(biases, before[1])
        state = {p.name: rng.standard_normal(p.data.shape) for p in layer.parameters()}
        load_parameters(layer.parameters(), state)
        assert stacks_hold_parameters()
        assert np.array_equal(gates[2, 1], state["bigru.bwd.W"].astype(np.float32))
        assert np.array_equal(biases[0, 1], state["bigru.bwd.b_z"].astype(np.float32))

    def test_cast_keeps_the_cells_views(self):
        """The tests' ``cast`` casts each stack once and rebinds every view into it."""
        layer = BiGRU(5, 3, np.random.RandomState(45))
        values = [p.data.copy() for p in layer.parameters()]
        cast(layer.parameters(), np.float64)
        gates, biases = stacks_of(layer.fwd)
        assert gates.dtype == biases.dtype == np.float64 and views_its_stacks(layer_cells(layer))
        for p, value in zip(layer.parameters(), values, strict=True):
            assert p.data.base is (gates if p.data.ndim == 2 else biases)
            assert np.array_equal(p.data, value)

    def test_a_step_copies_no_weights(self):
        """One T = 1 run at the width of a panns clip and its SVE allocates less
        than the layer's gate weights: no step copies them."""
        layer = BiGRU(2148, 32, np.random.RandomState(45))
        weights = stacks_of(layer.fwd)[0].nbytes
        assert weights > 1.6e6
        x = Tensor(np.random.RandomState(46).standard_normal((1, 1, 2148)).astype(np.float32))
        layer.run(x)  # warm up numpy's caches
        _, peak, _ = peak_bytes(lambda: layer.run(x))
        assert peak < weights


class TestCellRefusal:
    """A step takes consecutive cells of one layer, each parameter still its
    view; ``gru_sequence`` and ``GRUStep`` refuse any other cell by name."""

    X = Tensor(np.zeros((2, 1, 4), np.float32))

    def refused(self, cells, name, **options):
        with pytest.raises(ShapeError, match=rf"GRU cell {name} is not slot"):
            gru_sequence(self.X, cells, **options)
        with pytest.raises(ShapeError, match=rf"GRU cell {name} is not slot"):
            GRUStep(cells, 1, np.float32)

    @pytest.mark.parametrize("label", ["W_z", "W_r", "W", "b_z", "b_r", "b"])
    def test_rebound_parameter(self, label):
        a, b = GRUCellParams.stacked(4, 3, np.random.RandomState(47), ("a", "b"))
        p = getattr(b, label)
        p.data = p.data.copy()
        self.refused((a, b), "b", reverse=(False, True))
        self.refused((b,), "b")

    def test_hand_built_cell(self):
        cell = make_cell(4, 3, np.random.RandomState(48), name="c")
        copy = GRUCellParams(*(Parameter(p.data.copy(), p.name) for p in cell.parameters()))
        self.refused((copy,), "c")

    def test_cells_out_of_order(self):
        layer = BiGRU(4, 3, np.random.RandomState(43), name="bi")
        self.refused((layer.bwd, layer.fwd), "bi.fwd", reverse=(True, False))
        self.refused((layer.fwd, layer.fwd), "bi.fwd")

    def test_cells_of_two_layers(self):
        a, b = BiGRU(4, 3, np.random.RandomState(49), name="a"), BiGRU(4, 3, None, name="b")
        self.refused((a.fwd, b.bwd), "b.bwd")

    def test_cell_of_another_width(self):
        a, b = GRUCellParams.stacked(4, 3, np.random.RandomState(49), ("a", "b"))
        cast(b.parameters(), np.float64)  # b now views a float64 copy of the stacks
        self.refused((a, b), "b")

    def test_one_reverse_flag_per_cell(self):
        layer = BiGRU(4, 3, np.random.RandomState(50))
        with pytest.raises(ShapeError, match="2 cells and 1 flags"):
            gru_sequence(self.X, layer_cells(layer), reverse=(True,))
        with pytest.raises(ShapeError, match="0 cells"):
            gru_sequence(self.X, ())


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
        bn = BatchNorm(2)
        x = Tensor(np.array([[0.0, 10.0], [2.0, 14.0]]))
        bn(x, mode="train")
        # m*0 + (1 - m)*batch_mean from the start mean 0
        assert np.allclose(bn.running_mean, (1.0 - BN_MOMENTUM) * np.array([1.0, 12.0]))

    def test_infer_matches_train_after_updates(self):
        # the running statistics' start values (mean 0, var 1) must not leak into infer mode
        rng = np.random.RandomState(12)
        bn = BatchNorm(4)
        x = Tensor(rng.standard_normal((16, 4)) * 3 + 2)
        for _ in range(5):
            train_out = bn(x, mode="train").data
        assert np.allclose(bn(x, mode="infer").data, train_out, atol=1e-8)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_counts_equal_repeated_rows(self, dtype):
        """Row i weighted counts[i] gives the statistics and output of the rows
        repeated, and each row's gradient is the sum over its copies."""
        rng = np.random.RandomState(13)
        counts = np.array([3, 1, 0, 2, 1])
        x = Tensor(rng.standard_normal((5, 4)).astype(dtype) * 2 + 1, requires_grad=True)
        weighted, repeated = BatchNorm(4), BatchNorm(4)
        gamma, beta = rng.uniform(0.5, 1.5, 4), rng.standard_normal(4)
        for bn in (weighted, repeated):
            bn.gamma.data, bn.beta.data = gamma, beta
            cast(bn.parameters(), dtype)
        rows = np.repeat(np.arange(5), counts)
        g = rng.standard_normal((rows.size, 4)).astype(dtype)
        x_rep = Tensor(x.data, requires_grad=True)
        out = T.embedding_lookup(weighted(x, "train", counts=counts), rows)
        out_rep = repeated(T.embedding_lookup(x_rep, rows), "train")
        T.backward(sum_all(T.mul(out, Tensor(g))))
        T.backward(sum_all(T.mul(out_rep, Tensor(g))))
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert out.data.dtype == dtype
        assert np.allclose(out.data, out_rep.data, rtol=tol, atol=tol)
        assert np.allclose(weighted.running_mean, repeated.running_mean, rtol=tol, atol=tol)
        assert np.allclose(weighted.running_var, repeated.running_var, rtol=tol, atol=tol)
        for a, b in ((x.grad, x_rep.grad),
                     *((dense_grad(p), dense_grad(q)) for p, q in (
                         (weighted.gamma, repeated.gamma), (weighted.beta, repeated.beta)))):
            assert a.dtype == dtype
            assert np.allclose(a, b, rtol=tol, atol=tol)
        assert np.all(x.grad[2] == 0.0)  # weight 0: in no statistic and gathered nowhere

    def test_one_weighted_row_gives_exactly_zero_input_gradient(self):
        x = Tensor(np.random.RandomState(14).standard_normal((1, 6)).astype(np.float32),
                   requires_grad=True)
        bn = BatchNorm(6)
        out = bn(x, "train", counts=np.array([7]))
        assert np.array_equal(out.data, np.broadcast_to(bn.beta.data, (1, 6)))
        T.backward(sum_all(T.mul(out, Tensor(np.arange(6, dtype=np.float32) + 0.5))))
        assert np.all(x.grad == 0.0) and np.all(dense_grad(bn.gamma) == 0.0)

    @pytest.mark.parametrize("counts", [[1], [1, 2, 3], [0, 1], [3, -1]])
    def test_bad_counts_rejected(self, counts):
        bn = BatchNorm(3)
        with pytest.raises(ShapeError):
            bn(Tensor(np.zeros((2, 3))), mode="train", counts=np.array(counts))

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

    def test_no_rng_needed_where_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert T.dropout(x, 0.5, "infer") is x and T.dropout(x, 0.0, "train") is x

    def test_train_mode_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            T.dropout(Tensor(np.ones((4, 4))), 0.5, "train", None)

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


class TestSoftmaxCrossEntropy:
    def test_matches_minus_log_softmax(self):
        rng = np.random.RandomState(5)
        z = rng.standard_normal((40, 30)) * 8.0
        t = rng.randint(0, 30, size=40)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        picked = p[np.arange(40), t]
        live = picked > 1e-12
        assert 0 < live.sum() < 40  # both kinds of row occur
        loss = T.softmax_cross_entropy(Tensor(z[live]), t[live])
        assert loss.data.dtype == np.float64
        assert float(loss.data) == pytest.approx(-np.log(picked[live]).mean(), rel=1e-12)
        for i in np.flatnonzero(live):
            loss = T.softmax_cross_entropy(Tensor(z[i : i + 1]), t[i : i + 1])
            assert float(loss.data) == pytest.approx(-np.log(picked[i]), rel=1e-12)

    def test_gradient_is_softmax_minus_one_hot(self):
        rng = np.random.RandomState(6)
        z = Tensor(rng.standard_normal((5, 7)) * 3.0, requires_grad=True)
        t = np.array([0, 6, 3, 3, 1])
        T.backward(T.softmax_cross_entropy(z, t))
        expected = T.softmax(Tensor(z.data)).data
        expected[np.arange(5), t] -= 1.0
        assert np.allclose(z.grad, expected / 5, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_huge_logits_are_finite(self, dtype):
        z = Tensor(np.array([[1000.0, -1000.0, 0.0], [-1000.0, -1000.0, 1000.0],
                             [1000.0, 1000.0, -1000.0]], dtype=dtype), requires_grad=True)
        t = np.array([1, 2, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = T.softmax_cross_entropy(z, t)
            T.backward(loss)
        assert float(loss.data) == pytest.approx((2000.0 + 0.0 + math.log(2.0)) / 3, rel=1e-12)
        assert z.grad.dtype == dtype and np.all(np.isfinite(z.grad))
        expected = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-0.5, 0.5, 0.0]]) / 3
        assert np.allclose(z.grad, expected, rtol=1e-6, atol=0.0)

    def test_shape_and_target_checked(self):
        with pytest.raises(ShapeError):
            T.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))
        with pytest.raises(ShapeError, match="out of range"):
            T.softmax_cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))


class TestSigmoidBinaryCrossEntropy:
    def test_matches_the_probability_form(self):
        rng = np.random.RandomState(4)
        z = rng.standard_normal((5, 3)) * 4.0
        y = (rng.random_sample((5, 3)) > 0.5).astype(float)
        p = 1.0 / (1.0 + np.exp(-z))
        reference = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean()
        loss = T.sigmoid_binary_cross_entropy(Tensor(z), y)
        assert float(loss.data) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tails_are_exact_and_finite(self, dtype):
        """At |z| = 1000, exp(|z|) overflows either width and 1 - sigmoid(z) is 0."""
        logits = Tensor(np.array([[-1000.0, -50.0, 50.0, 1000.0]] * 2, dtype=dtype),
                        requires_grad=True)
        y = np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = T.sigmoid_binary_cross_entropy(logits, y)
            T.backward(loss)
        assert float(loss.data) == pytest.approx((1000.0 + 50.0 + 50.0 + 1000.0) / 8, rel=1e-6)
        assert loss.data.dtype == np.float64  # the per-label terms are summed in float64
        assert logits.grad.dtype == dtype
        sigmoid = np.array([[0.0, math.exp(-50.0), 1.0 - math.exp(-50.0), 1.0]] * 2)
        assert np.allclose(logits.grad, (sigmoid - y) / 8, rtol=1e-6, atol=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.sigmoid_binary_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3))


class TestGradients:
    def test_dense_strict(self):
        rng = np.random.RandomState(13)
        layer = Dense(6, 4, rng)
        x = Tensor(rng.standard_normal((5, 6)))
        err = max_relative_error(
            lambda: mean_all(T.mul(layer(x), layer(x))), at_float64(layer.parameters()),
            delta=1e-6, tiny=1e-8,
        )
        assert err < 1e-5

    def test_gru_cell_strict(self):
        rng = np.random.RandomState(14)
        cell = make_cell(3, 3, rng)
        x = Tensor(rng.standard_normal((2, 3)))
        err = max_relative_error(
            lambda: mean_all(T.mul(gru_cell_step(x, cell), gru_cell_step(x, cell))),
            at_float64(cell.parameters()), delta=1e-6, tiny=1e-8,
        )
        assert err < 1e-5

    def test_input_gradients_flow(self):
        rng = np.random.RandomState(15)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Parameter(rng.standard_normal((2, 4)), "w")
        loss = mean_all(T.linear(x, w))
        T.backward(loss)
        assert x.grad is not None and x.grad.shape == (3, 4)

    def test_linear_backward_with_constant_input(self):
        rng = np.random.RandomState(16)
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal(2)
        grads = []
        for x_t in (Tensor(x), Tensor(x, requires_grad=True)):
            params = [Parameter(w, "w"), Parameter(b, "b")]
            T.backward(mean_all(T.mul(T.linear(x_t, *params), T.linear(x_t, *params))))
            grads.append([dense_grad(p) for p in params])
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
        assert np.array_equal(dense_grad(a), [[1, 1, 1], [0, 0, 0]])
        assert np.array_equal(dense_grad(b), [[1, 1], [0, 0]])

    def test_row_slice_past_the_last_row_rejected(self):
        # a gather, not a numpy slice: a bound past the rows raises instead of clipping
        with pytest.raises(ShapeError, match="out of range"):
            T.row_slice(Tensor(np.ones((2, 3))), 1, 3)

    def test_grad_accumulates_across_uses(self):
        w = Parameter(np.array([[2.0]]), "w")
        x = Tensor(np.array([[3.0]]))
        y = add(T.mul(w, x), T.mul(w, x))  # dL/dw = 2x
        T.backward(sum_all(y))
        assert dense_grad(w)[0, 0] == pytest.approx(6.0)

    def test_first_gradient_is_a_copy_of_a_shared_array(self):
        """``add`` hands one array to both parents as their first gradient; a
        second contribution to ``a`` must leave ``b``'s gradient as it was."""
        a = Parameter(np.ones((2, 2)), "a")
        b = Parameter(np.ones((2, 2)), "b")
        T.backward(mean_all(add(add(a, b), a)))  # the outer add writes a first, then a + b
        assert np.array_equal(dense_grad(a), np.full((2, 2), 0.5))
        assert np.array_equal(dense_grad(b), np.full((2, 2), 0.25))

    def test_backward_requires_scalar(self):
        w = Parameter(np.ones((2, 2)), "w")
        with pytest.raises(GraphStateError):
            T.backward(T.mul(w, w))


class TestAdam:
    def test_quadratic_convergence(self):
        w = Parameter(np.array([5.0]), "w")
        state = AdamState(learning_rate=1e-2)
        for _ in range(2000):
            loss = mean_all(T.mul(w, w))
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

    def test_second_step_without_backward_rejected(self):
        w = Parameter(np.ones(3), "w")
        T.backward(sum_all(T.mul(w, w)))
        adam_step([w], AdamState())
        with pytest.raises(GraphStateError, match="adam_step before backward for: w"):
            adam_step([w], AdamState())

    @pytest.mark.parametrize("strided", ["data", "grad"])
    def test_strided_parameter_rejected_unchanged(self, strided):
        """A step never rebinds a parameter's data (a GRU cell's would leave its
        stack): one whose data or gradient is not C-contiguous is refused
        before any parameter moves."""
        v, w = Parameter(np.ones(3), "v"), Parameter(np.ones((4, 6))[:, ::2], "w")
        if strided == "grad":
            w = Parameter(np.ones((4, 3)), "w")
        T.backward(sum_all(add(T.mul(v, v), mean_all(T.mul(w, w)))))
        if strided == "grad":
            w.grad = np.ones((4, 6))[:, ::2]
        data, state = w.data, AdamState()
        with pytest.raises(GraphStateError, match="C-contiguous data and gradients, not for: w$"):
            adam_step([v, w], state)
        assert w.data is data and np.array_equal(v.data, np.ones(3)) and state.step == 0

    def test_grads_cleared_after_step(self):
        w = Parameter(np.array([1.0]), "w")
        state = AdamState()
        T.backward(sum_all(T.mul(w, w)))
        adam_step([w], state)
        assert w.grad is None and w.grad_rows is None


class TestParameterLifecycle:
    """A parameter holds its values and no gradient until a backward pass writes one."""

    def test_new_parameter_holds_no_gradient(self):
        w = Parameter(np.ones(3, np.float32), "w")
        assert w.grad is None and w.grad_rows is None
        zero_grads([w])  # a missing gradient stays missing
        assert w.grad is None

    @pytest.mark.parametrize("build", [
        lambda rng: MLP(MLPConfig(input_dim=6, output_dim=3, hidden_widths=(5, 4)), rng),
        lambda rng: Captioner(12, CaptionerConfig(variant="logmel", audio_dim=3, bigru1=2,
                                                  bigru2=2, text_gru=4, decoder_gru=4,
                                                  embed_dim=4), rng),
    ], ids=["mlp", "captioner"])
    def test_fresh_model_holds_float32_parameters_and_no_gradient(self, build):
        params = build(np.random.RandomState(0)).parameters()
        assert all(p.data.dtype == np.float32 for p in params)
        assert all(p.grad is None for p in params)

    @staticmethod
    def through(op, rng, x):
        """A float32 layer and its output on ``x`` through ``op``."""
        if op == "linear":
            layer = Dense(3, 2, rng)
            return layer, layer(x)
        if op == "batch_norm":
            layer = BatchNorm(3)
            return layer, layer(x, "train")
        if op == "gru_sequence":
            layer = GRU(3, 2, rng)
            return layer, layer.run(T.reshape(x, (2, 2, 3)))
        layer = Embedding(5, 3, rng)
        return layer, layer(np.array([1, 4, 1]))

    @pytest.mark.parametrize("op", ["linear", "batch_norm", "gru_sequence", "embedding_lookup"])
    def test_first_backward_allocates_the_gradient(self, op):
        rng = np.random.RandomState(40)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        layer, out = self.through(op, rng, Tensor(x))
        params = layer.parameters()
        assert all(p.grad is None for p in params)
        T.backward(sum_all(out))
        for p in params:
            assert p.grad is not None and dense_grad(p).shape == p.data.shape
            assert dense_grad(p).dtype == p.data.dtype == np.float32
        if op == "linear":  # the weight keeps its factors, the input itself: g.T @ x exactly
            assert isinstance(layer.weights.grad, T.Factors) and layer.weights.grad.x is x
            assert np.array_equal(dense_grad(layer.weights), np.ones((4, 2), np.float32).T @ x)


class StateForbidden:
    """A model whose state must be neither snapshot nor restored."""

    def parameters(self):
        return []

    def state(self):
        raise AssertionError("state snapshot without a validation loss")

    def load_state(self, state):
        raise AssertionError("state restored without a validation loss")


class TestFit:
    @pytest.mark.parametrize("epoch_losses", [[3.0, 2.0, 1.0], [1.0, 2.0, 3.0], [2.0, 1.0, 3.0]])
    def test_without_validation_keeps_the_last_epoch(self, epoch_losses):
        w = Parameter(np.array([1.0]), "w")  # update() leaves it at 1: each loss is its coefficient
        epochs = iter([[c] for c in epoch_losses])
        history = fit(StateForbidden(), len(epoch_losses), batches=lambda: next(epochs),
                      batch_loss=lambda c: (sum_all(T.mul(w, Tensor(np.array([c])))), 1),
                      update=lambda: zero_grads([w]))
        assert history.train_losses == epoch_losses
        assert history.val_losses == []
        assert history.best_epoch == len(epoch_losses) - 1


def adam_reference(data, grads, steps, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
    """Unblocked Adam with full-size temporaries, op for op as adam_step, at
    the width of ``data`` (every scalar is a Python float); returns the data,
    m and v after ``steps`` steps."""
    data = data.copy()
    m, v = np.zeros_like(data), np.zeros_like(data)
    for t in range(1, steps + 1):
        g = grads[t - 1]
        scale = lr * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g**2
        data -= scale * m / (np.sqrt(v) + eps)
    return data, m, v


def same_bits(a, b):
    """``a`` and ``b`` have one dtype and one shape and every entry's bits
    equal: unlike ``np.array_equal``, -0.0 is not 0.0 and a NaN equals itself."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}")))


class TestAdamFirstStep:
    """A first step writes m and v from the gradient alone: its data, m and v
    are byte for byte those of an update from m = v = 0."""

    def gradient(self, rng, size, dtype):
        """Normal values over many scales, with -0.0, 0.0 and subnormals of both signs."""
        g = (rng.standard_normal(size) * 10.0 ** rng.randint(-4, 4, size)).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array([-0.0, 0.0, tiny, -tiny, 7 * tiny, -3 * tiny], dtype)
        k = min(size, 60)
        g[rng.choice(size, k, replace=False)] = np.resize(specials, k)
        return g

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_zero_start_bitwise(self, dtype):
        """Over sizes below, at and past one ``CHUNK``; the moments are
        allocated NaN-filled here, so a first step that read them would show."""
        rng = np.random.RandomState(23)
        sizes = {"one": 1, "partial": 999, "chunk": CHUNK, "past": 2 * CHUNK + 5}
        params = [Parameter(rng.standard_normal(n).astype(dtype), name)
                  for name, n in sizes.items()]
        start = [p.data.copy() for p in params]
        grads = [self.gradient(rng, n, dtype) for n in sizes.values()]
        for p, g in zip(params, grads):
            T._accumulate(p, g)
        state = AdamState(learning_rate=1e-2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "empty_like", lambda a: np.full_like(a, np.nan))
            adam_step(params, state)
        for p, p0, g in zip(params, start, grads):
            data, m, v = adam_reference(p0, [g], 1)
            assert same_bits(p.data, data), p.name
            assert same_bits(state.m[p.name], m) and same_bits(state.v[p.name], v), p.name
        assert not np.signbit(state.m["past"][grads[-1] == 0]).any()  # -0.0 gives m = 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_later_steps_read_the_first_moments(self, dtype):
        rng = np.random.RandomState(24)
        p = Parameter(rng.standard_normal(CHUNK + 3).astype(dtype), "w")
        start = p.data.copy()
        grads = [self.gradient(rng, p.data.size, dtype) for _ in range(3)]
        state = AdamState(learning_rate=1e-2)
        for g in grads:
            T._accumulate(p, g)
            adam_step([p], state)
        data, m, v = adam_reference(start, grads, 3)
        assert same_bits(p.data, data)
        assert same_bits(state.m["w"], m) and same_bits(state.v["w"], v)


class TestUniformFill:
    """The row-block draw is one whole draw cast to float32, bit for bit, and
    leaves the RNG where that draw does."""

    @pytest.mark.parametrize("shape", [
        (3 * (DRAW_BLOCK // 1000) + 5, 1000),  # rows the block does not divide
        (1, 300),                              # one row
        (3, DRAW_BLOCK + 7),                   # rows wider than a block
        (2, DRAW_BLOCK),                       # one row per block exactly
        (7, 0),                                # no values
    ], ids=["partial-block", "one-row", "wide-rows", "exact-rows", "empty"])
    def test_equals_one_whole_draw(self, shape):
        got, want = np.random.RandomState(25), np.random.RandomState(25)
        out = uniform_fill(got, 0.3, np.empty(shape, np.float32))
        assert out.dtype == np.float32
        assert same_bits(out, want.uniform(-0.3, 0.3, shape).astype(np.float32))
        assert same_bits(got.random_sample(5), want.random_sample(5))

    def test_fills_a_strided_view(self):
        """As it fills a GRU gate's input columns in its layer's stack."""
        rng, want = np.random.RandomState(26), np.random.RandomState(26)
        stack = np.zeros((200, 40 + 900), np.float32)
        glorot_uniform(rng, stack[:, 40:])
        limit = np.sqrt(6.0 / (200 + 900))
        assert same_bits(stack[:, 40:], want.uniform(-limit, limit, (200, 900)).astype(np.float32))
        assert not stack[:, :40].any()
        assert same_bits(rng.random_sample(5), want.random_sample(5))

    def test_dense_and_embedding_draw_as_one_whole_draw(self):
        rng, want = np.random.RandomState(27), np.random.RandomState(27)
        dense, table = Dense(300, 256, rng).weights.data, Embedding(500, 70, rng).table.data
        limit = np.sqrt(6.0 / (300 + 256))
        assert dense.size > DRAW_BLOCK and table.size > DRAW_BLOCK
        assert same_bits(dense, want.uniform(-limit, limit, (256, 300)).astype(np.float32))
        assert same_bits(table, want.uniform(-0.05, 0.05, (500, 70)).astype(np.float32))
        assert same_bits(rng.random_sample(5), want.random_sample(5))


class TestAdamBlocked:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_unblocked_formula(self, dtype):
        """At float32 every op must run at float32: one computed at float64 and
        rounded back (a numpy float64 scalar does that) changes bits."""
        rng = np.random.RandomState(22)
        shapes = {"big": (3, CHUNK // 2 + 7), "small": (7,)}  # 1.5 chunks and a partial one
        params = [Parameter(rng.standard_normal(s).astype(dtype), name)
                  for name, s in shapes.items()]
        start = [p.data.copy() for p in params]
        grads = [[(rng.standard_normal(s) * 10.0 ** rng.randint(-3, 3)).astype(dtype)
                  for _ in range(3)] for s in shapes.values()]
        state = AdamState(learning_rate=1e-2)
        for step in range(3):
            for p, g in zip(params, grads):  # as a backward pass writes them
                T._accumulate(p, g[step])
            adam_step(params, state)
        for p, p0, g in zip(params, start, grads):
            data, m, v = adam_reference(p0, g, 3)
            assert p.data.dtype == dtype and p.grad is None
            assert state.m[p.name].dtype == state.v[p.name].dtype == dtype
            assert np.array_equal(p.data, data)
            assert np.array_equal(state.m[p.name], m) and np.array_equal(state.v[p.name], v)


class TestRowSparseAdam:
    """A table fed by lookups is updated over its live rows only; every step must
    equal dense Adam bit for bit."""

    ROWS, DIM, STEPS = 40, 3, 24

    def train(self, lookups, dense_steps=(), dense_first=False, dtype=np.float64):
        """Train an Embedding table at ``dtype`` for STEPS steps. Step s looks up
        each index vector in ``lookups(s)`` and, on ``dense_steps``, also feeds the
        whole table to ``T.linear`` (before the lookups when ``dense_first``).
        Checks data, m and v, and their width, against adam_reference after every
        step; returns the start table, the table after every step and whether
        each step ran row-sparse."""
        rng = np.random.RandomState(31)
        table = Embedding(self.ROWS, self.DIM, rng).table
        cast([table], dtype)
        start = table.data.copy()
        state = AdamState(learning_rate=1e-2)
        grads, history, sparse = [], [], []
        for step in range(self.STEPS):
            terms = [T.mul(T.embedding_lookup(table, idx),
                           Tensor(rng.standard_normal((len(idx), self.DIM)).astype(dtype)))
                     for idx in lookups(step)]
            if step in dense_steps:
                dense = T.linear(Tensor(rng.standard_normal((2, self.DIM)).astype(dtype)), table)
                terms = [dense, *terms] if dense_first else [*terms, dense]
            loss = sum_all(terms[0])
            for term in terms[1:]:
                loss = add(loss, sum_all(term))
            T.backward(loss)
            grads.append(dense_grad(table))
            with pytest.MonkeyPatch.context() as patch:  # a moment left unwritten shows as NaN
                patch.setattr(np, "empty_like", lambda a: np.full_like(a, np.nan))
                adam_step([table], state)
            sparse.append(table.name in state.live)
            data, m, v = adam_reference(start, grads, step + 1)
            assert table.data.dtype == state.m[table.name].dtype == state.v[table.name].dtype
            assert table.data.dtype == grads[-1].dtype == dtype
            assert same_bits(table.data, data), step
            assert same_bits(state.m[table.name], m), step
            assert same_bits(state.v[table.name], v), step
            assert table.grad is None and table.grad_rows is None
            history.append(table.data.copy())
        return start, history, sparse

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_repeated_indices_idle_and_untouched_rows(self, dtype):
        def lookups(step):
            first = [np.array([5])] if step == 0 else []  # row 5 once, then idle
            return [np.array([2, 2, 2, 9, 2]), np.array([(step % 7) + 10, 9])] + first

        start, history, sparse = self.train(lookups, dtype=dtype)
        assert all(sparse)
        touched = [2, 5, 9, *range(10, 17)]
        untouched = np.setdiff1d(np.arange(self.ROWS), touched)
        assert np.array_equal(history[-1][untouched], start[untouched])
        for before, after in zip(history[1:], history[2:]):  # idle row 5 keeps moving
            assert not np.array_equal(before[5], after[5])

    def test_first_step_over_half_the_table_is_dense(self):
        start, history, sparse = self.train(lambda step: [np.arange(self.ROWS // 2 + 1)])
        assert not any(sparse)
        assert same_bits(history[-1][self.ROWS // 2 + 1:], start[self.ROWS // 2 + 1:])

    def test_live_count_crossing_half_the_table(self):
        start, history, sparse = self.train(lambda step: [np.arange(step, step + 3)])
        crossed = sparse.index(False)  # step s leaves s + 3 rows live
        assert crossed == self.ROWS // 2 - 2 and not any(sparse[crossed:])
        assert np.array_equal(history[-1][self.STEPS + 2:], start[self.STEPS + 2:])

    @pytest.mark.parametrize("dense_first", [False, True])
    def test_lookup_and_dense_op_in_one_step(self, dense_first):
        _, _, sparse = self.train(lambda step: [np.array([1, 3, 3])], dense_steps={6},
                                  dense_first=dense_first)
        assert all(sparse[:6]) and not any(sparse[6:])

    def test_zero_grad_clears_recorded_rows(self):
        table = Embedding(6, 2, np.random.RandomState(0)).table
        T.backward(sum_all(T.embedding_lookup(table, np.array([1, 4]))))
        assert [list(r) for r in table.grad_rows] == [[1, 4]] and table.grad is not None
        zero_grads([table])
        assert table.grad is None and table.grad_rows is None


def mlp_layer_shapes(input_dim, labels=200):
    """The (out, in) weight shapes of the default MLP from ``input_dim`` inputs."""
    widths = [input_dim, *DEFAULT_HIDDEN, labels]
    return list(zip(widths[1:], widths[:-1]))


# (out, in, examples) of factored gradients whose row blocks must be the full
# product's rows bit for bit: every default-MLP layer at 2,048 (PANNs) and 6,336
# (log-Mel) inputs, a slab of 39,936 columns (log-Mel at 30 s clips), the
# captioner's ``dec.out`` and a tail shorter than MIN_ROWS joined to its block.
FACTORED_SHAPES = sorted({*((out, cols, n) for n in (16, 64)
                            for out, cols in mlp_layer_shapes(2048) + mlp_layer_shapes(6336)),
                          (48, 39936, 16), (48, 39936, 64), (4504, 128, 128), (1030, 2048, 16)})


class TestFactoredGradient:
    """A weight's first gradient from ``T.linear`` is kept as its two factors
    and formed by ``row_blocks`` in ``adam_step``; every step must equal dense
    Adam on the full product bit for bit."""

    @staticmethod
    def backward_through_linear(w, x, g):
        """A backward pass whose output gradient at ``T.linear(x, w)`` is ``g``."""
        T.backward(sum_all(T.mul(T.linear(Tensor(x), w), Tensor(g))))

    @pytest.mark.parametrize("rows, cols, batch", FACTORED_SHAPES,
                             ids=[f"{r}x{c}@{n}" for r, c, n in FACTORED_SHAPES])
    def test_blocks_adam_step_forms_are_the_product_rows(self, rows, cols, batch, monkeypatch):
        rng = np.random.RandomState(42)
        x = rng.standard_normal((batch, cols)).astype(np.float32)
        g = rng.standard_normal((batch, rows)).astype(np.float32)
        w = Parameter(np.zeros((rows, cols), np.float32), "w")
        self.backward_through_linear(w, x, g)
        assert isinstance(w.grad, T.Factors)
        want = g.T @ x
        formed = []
        rows_of = T.Factors.rows

        def recording(factors, lo=0, hi=None, out=None):
            block = rows_of(factors, lo, hi, out)
            formed.append((lo, hi, same_bits(block, want[lo:hi])))
            return block

        monkeypatch.setattr(T.Factors, "rows", recording)
        adam_step([w], AdamState())
        assert [(lo, hi) for lo, hi, _ in formed] == row_blocks(rows, cols)
        assert all(same for _, _, same in formed)

    @pytest.mark.parametrize("cols", [0, 1, 127, 128, 4096, 4097, 6336, 39936, 1 << 20])
    def test_no_block_under_16_rows(self, cols):
        """Blocks partition the rows, start at multiples of 16 and hold at
        least 16 rows (all of them when fewer), about CHUNK values: a 1-row
        product of a wide weight takes another BLAS kernel than the full
        product's rows."""
        assert MIN_ROWS == 16
        for rows in [*range(0, 50), 1000, 1023, 4504]:
            blocks = row_blocks(rows, cols)
            bounds = [lo for lo, _ in blocks] + [rows]
            assert [hi for _, hi in blocks] == bounds[1:] and bounds[0] == 0
            assert all(lo % 16 == 0 for lo, _ in blocks)
            assert all(hi - lo >= min(16, rows) for lo, hi in blocks), rows
            assert all((hi - lo) * cols < max(CHUNK, 16 * cols) + 16 * cols
                       for lo, hi in blocks), rows

    @pytest.mark.parametrize("rows, cols", [(4504, 128), (1030, 2048), (3, 5)])
    def test_steps_equal_dense_adam_on_the_product(self, rows, cols):
        """Data, m and v after a first step and two more, each from new factors;
        the moments are allocated NaN-filled, so a first step that read them
        would show."""
        rng = np.random.RandomState(43)
        w = Parameter(rng.standard_normal((rows, cols)).astype(np.float32), "w")
        start = w.data.copy()
        state = AdamState(learning_rate=1e-2)
        grads = []
        for step in range(3):
            x = rng.standard_normal((32, cols)).astype(np.float32)
            g = rng.standard_normal((32, rows)).astype(np.float32)
            self.backward_through_linear(w, x, g)
            grads.append(g.T @ x)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np, "empty_like", lambda a: np.full_like(a, np.nan))
                adam_step([w], state)
            data, m, v = adam_reference(start, grads, step + 1)
            assert same_bits(w.data, data), step
            assert same_bits(state.m["w"], m) and same_bits(state.v["w"], v), step
            assert w.grad is None

    def test_weight_used_by_two_linears_in_one_graph(self):
        """The second use turns the factors into the product before adding its
        own: the gradient is the parent's sum of the two products."""
        rng = np.random.RandomState(41)
        w = Parameter(rng.standard_normal((48, 2100)).astype(np.float32), "w")
        start = w.data.copy()
        state = AdamState(learning_rate=1e-2)
        grads = []
        for step in range(3):
            x1, x2 = (rng.standard_normal((n, 2100)).astype(np.float32) for n in (16, 64))
            c1, c2 = (rng.standard_normal((n, 48)).astype(np.float32) for n in (16, 64))
            T.backward(add(sum_all(T.mul(T.linear(Tensor(x1), w), Tensor(c1))),
                           sum_all(T.mul(T.linear(Tensor(x2), w), Tensor(c2)))))
            want = c1.T @ x1
            want += c2.T @ x2  # a + b is b + a bit for bit: either order of the backward
            assert same_bits(dense_grad(w), want), step
            grads.append(want)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np, "empty_like", lambda a: np.full_like(a, np.nan))
                adam_step([w], state)
            data, m, v = adam_reference(start, grads, step + 1)
            assert same_bits(w.data, data), step
            assert same_bits(state.m["w"], m) and same_bits(state.v["w"], v), step
            assert w.grad is None


class TestInits:
    def test_orthogonal(self):
        q = orthogonal(np.random.RandomState(16), 8)
        assert np.allclose(q @ q.T, np.eye(8), atol=1e-10)

    def test_deterministic(self):
        a = orthogonal(np.random.RandomState(5), 6)
        b = orthogonal(np.random.RandomState(5), 6)
        assert np.array_equal(a, b)


ZERO_ONE = np.array([[0.0, 1.0, 1.0, 0.0]] * 3)

# Every op of the autodiff core: (op on float32 inputs, the shapes of those inputs).
WIDTH_CASES = {
    "add": (add, [(3, 4), (4,)]),  # a test helper, as are sub and mean_all
    "sub": (sub, [(3, 4), (3, 4)]),
    "mul": (T.mul, [(3, 4), (1, 4)]),
    "linear": (T.linear, [(3, 4), (5, 4), (5,)]),
    "concat": (lambda a, b: T.concat([a, b]), [(3, 4), (3, 2)]),
    "row_slice": (lambda x: T.row_slice(x, 1, 3), [(4, 3)]),
    "reshape": (lambda x: T.reshape(x, (6, 2)), [(3, 4)]),
    "mean_all": (mean_all, [(3, 4)]),
    "sigmoid": (T.sigmoid, [(3, 4)]),
    "tanh": (T.tanh, [(3, 4)]),
    "relu": (T.relu, [(3, 4)]),
    "softmax": (T.softmax, [(3, 4)]),
    "dropout": (lambda x: T.dropout(x, 0.3, "train", np.random.RandomState(0)), [(3, 4)]),
    "embedding_lookup": (lambda table: T.embedding_lookup(table, np.array([0, 2, 2])), [(5, 4)]),
    "cross_entropy": (lambda x: T.cross_entropy(T.softmax(x), np.array([0, 3, 1])), [(3, 4)]),
    "softmax_cross_entropy": (lambda z: T.softmax_cross_entropy(z, np.array([0, 3, 1])),
                              [(3, 4)]),
    "sigmoid_binary_cross_entropy": (lambda z: T.sigmoid_binary_cross_entropy(z, ZERO_ONE),
                                     [(3, 4)]),
    "batch_norm_train": (lambda x, g, b: T.batch_norm_train(x, g, b)[0], [(3, 4), (4,), (4,)]),
    "batch_norm_infer": (lambda x, g, b: T.batch_norm_infer(
        x, g, b, np.full(4, 0.1, np.float32), np.full(4, 0.9, np.float32)), [(3, 4), (4,), (4,)]),
}


class TestWidths:
    """float32 in, float32 out: no op may compute in float64 and round back."""

    def test_every_op_is_covered(self):
        ops = {name for name, fn in vars(T).items()
               if inspect.isfunction(fn) and fn.__module__ == T.__name__
               and not name.startswith("_") and name != "backward"}
        assert ops == set(WIDTH_CASES) - {"add", "sub", "mean_all"}

    @pytest.mark.parametrize("name", WIDTH_CASES)
    def test_float32_data_and_gradients_stay_float32(self, name, monkeypatch):
        """Every gradient an op hands on is checked as it is accumulated,
        before ``+=`` into a float32 buffer could round a float64 one back."""
        widths = []
        accumulate = T._accumulate

        def recording(t, g):
            widths.append(np.asarray(g).dtype)
            accumulate(t, g)

        monkeypatch.setattr(T, "_accumulate", recording)
        op, shapes = WIDTH_CASES[name]
        rng = np.random.RandomState(7)
        inputs = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                  for s in shapes]
        out = op(*inputs)
        # the float64 results: the fused losses sum their float32 terms in float64
        assert out.data.dtype == (np.float64 if name.endswith("_cross_entropy")
                                  and name != "cross_entropy" else np.float32)
        T.backward(out if out.data.ndim == 0 else mean_all(T.mul(out, out)))
        assert set(widths) == {np.dtype(np.float32)}
        assert all(dense_grad(x).dtype == np.float32 for x in inputs)

    def test_other_inputs_become_float64(self):
        for data in (np.arange(3), [1, 2], 2.5, np.ones(2, np.float16), np.array([True])):
            assert Tensor(data).data.dtype == np.float64


class TestNodes:
    @pytest.mark.parametrize("name", WIDTH_CASES)
    def test_output_is_a_node_only_when_an_input_needs_a_gradient(self, name):
        op, shapes = WIDTH_CASES[name]
        rng = np.random.RandomState(7)
        for needs in (False, True):
            out = op(*[Tensor(rng.standard_normal(s), requires_grad=needs) for s in shapes])
            assert out.requires_grad == needs
            assert bool(out._parents) == needs and (out._backward_fn is not None) == needs
