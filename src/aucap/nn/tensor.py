"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

A tensor keeps the width of its data: float32 and float64 stay as they are,
and anything else becomes float64. Every op computes at its inputs' width, so
a graph of float32 data and parameters runs and back-propagates at float32
throughout. Two kinds of reduction run in float64 and hand back their
inputs' width: the fused losses sum their per-example terms in float64 (the
loss scalar is float64), and train-mode batch norm computes its statistics,
its normalized values and its backward in float64.

Every op returns through ``_node``: a node holding its parents and a closure
that routes the incoming gradient to them, or a plain tensor when no parent
needs a gradient. ``backward`` walks the graph once in reverse topological
order. The graph is a DAG by construction (parents exist before children),
and traversal is iterative, so sequence models with thousands of chained
steps do not hit recursion limits. The forwards of ``linear``, ``sigmoid`` and
``batch_norm_infer`` are in-place kernels that greedy decoding calls as well.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphStateError, ShapeError

LOG_EPS = 1e-12  # floor inside the logs of ``cross_entropy``, kept for the benchmark tracer
# The data widths a Tensor keeps; float64 first, since `in` tries identity
# before ==, and a float64 array then costs one identity check per node.
WIDTHS = (np.dtype(np.float64), np.dtype(np.float32))
BN_EPS = 1e-5  # added to the batch-norm variance before its square root


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        data = np.asarray(data)
        self.data = data if data.dtype in WIDTHS else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_fn = backward_fn

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named leaf tensor. Its gradient exists from the backward pass that
    first writes it to the ``adam_step`` that applies it, and is None
    otherwise.

    ``grad_rows`` lists the index arrays of the ``embedding_lookup`` backward
    passes that wrote the gradient, when those are its only writers. It is
    None for a dense gradient (any other writer) and while there is no gradient.
    """

    __slots__ = ("name", "grad_rows")

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad_rows = None

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents: tuple, back) -> Tensor:
    """An op's output: a node with ``back`` if any of ``parents`` needs a gradient, else plain."""
    if any(p.requires_grad for p in parents):
        return Tensor(data, True, parents, back)
    return Tensor(data)


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:  # a copy: ``g`` may be handed to another parent as well
        t.grad = g.astype(t.data.dtype, order="C")
    else:
        t.grad += g
    if isinstance(t, Parameter):
        t.grad_rows = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    state: dict[int, int] = {}  # id -> 0 visiting, 1 done
    stack = [root]
    while stack:
        node = stack[-1]
        nid = id(node)
        st = state.get(nid)
        if st is None:
            state[nid] = 0
            for parent in node._parents:
                if parent.requires_grad and state.get(id(parent)) is None:
                    stack.append(parent)
        elif st == 0:
            state[nid] = 1
            order.append(node)
            stack.pop()
        else:
            stack.pop()
    return order


def backward(loss: Tensor):
    """Propagate gradients from a scalar loss into every reachable Parameter."""
    if loss.data.size != 1:
        raise GraphStateError(f"backward needs a scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphStateError("loss does not depend on any parameter")
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# arithmetic and structural ops
# ---------------------------------------------------------------------------


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def back(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), back)


def linear(x, weights, bias=None) -> Tensor:
    """y = x @ W.T + b with W of shape (out, in); the dense-layer primitive."""
    x, weights = _as_tensor(x), _as_tensor(weights)
    if x.data.ndim != 2 or weights.data.ndim != 2 or x.data.shape[1] != weights.data.shape[1]:
        raise ShapeError(f"linear shapes x={x.data.shape} W={weights.data.shape}")
    parents = (x, weights)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (weights.data.shape[0],):
            raise ShapeError(f"bias shape {bias.data.shape} vs out dim {weights.data.shape[0]}")
        parents += (bias,)
    y = _linear(x.data, weights.data.T, None if bias is None else bias.data)

    def back(g):
        if x.requires_grad:  # e.g. the MLP's input features: no product to drop
            _accumulate(x, g @ weights.data)
        if weights.requires_grad and weights.grad is None:  # the new product is the gradient
            weights.grad = (g.T @ x.data).astype(weights.data.dtype, copy=False)
        else:
            _accumulate(weights, g.T @ x.data)
        if bias is not None:
            _accumulate(bias, g.sum(axis=0))

    return _node(y, parents, back)


def _linear(x, w_t, b, out=None) -> np.ndarray:
    """x @ ``w_t`` (the weights' transposed view) + ``b`` (or None) in ``out`` (new when None)."""
    out = np.matmul(x, w_t, out=out)
    if b is not None:
        out += b
    return out


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = tuple(_as_tensor(t) for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0, *sizes])

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, back)


def row_slice(x, start: int, stop: int) -> Tensor:
    """Rows ``start:stop``. No model calls it; it is kept because the benchmark
    tracer wraps it by name (ROADMAP items 6 and 11)."""
    x = _as_tensor(x)

    def back(g):
        full = np.zeros_like(x.data)
        full[start:stop] = g
        _accumulate(x, full)

    return _node(x.data[start:stop], (x,), back)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)

    def back(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _node(x.data.reshape(shape), (x,), back)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    with np.errstate(over="ignore"):  # exp(-x) = inf for x < -709 gives y = 0, as it should
        y = _sigmoid(x.data)

    def back(g):
        _accumulate(x, g * y * (1.0 - y))

    return _node(y, (x,), back)


def _sigmoid(a, out=None) -> np.ndarray:
    """1 / (1 + exp(-a)) in ``out`` (new when None); the caller ignores exp overflow."""
    out = np.negative(a, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.data)

    def back(g):
        _accumulate(x, g * (1.0 - y * y))

    return _node(y, (x,), back)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0

    def back(g):
        _accumulate(x, g * mask)

    return _node(x.data * mask, (x,), back)


def softmax(x) -> Tensor:
    """Row softmax with max-subtraction; rows sum to 1 even for huge logits.

    No model calls it: the captioner trains through ``softmax_cross_entropy``
    and decodes from logits. It is kept because the benchmark tracer wraps it
    by name (ROADMAP items 6 and 11).
    """
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"softmax expects (batch, classes), got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def back(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        _accumulate(x, y * (g - inner))

    return _node(y, (x,), back)


def dropout(x, rate: float, mode: str, rng: np.random.RandomState | None = None) -> Tensor:
    """Inverted dropout: zero units with probability ``rate`` in train mode.

    Infer mode (or rate 0) is the identity and consumes no randomness, so
    ``rng`` may then be None; train mode at a rate above 0 needs it.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"mode must be train or infer, got {mode!r}")
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if mode == "infer" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = np.divide(rng.random_sample(x.data.shape) >= rate, 1.0 - rate, dtype=x.data.dtype)

    def back(g):
        _accumulate(x, g * keep)

    return _node(x.data * keep, (x,), back)


# ---------------------------------------------------------------------------
# losses and lookups
# ---------------------------------------------------------------------------


def embedding_lookup(table, indices) -> Tensor:
    """Gather rows of a (V, D) table by an integer index vector.

    The backward of a Parameter table also records the indices in its ``grad_rows``.
    """
    table = _as_tensor(table)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError(f"indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(f"index out of range for table of {table.data.shape[0]} rows")

    def back(g):
        if table.grad is None:  # the first write: a Parameter records its rows from here
            table.grad = np.zeros_like(table.data)
            if isinstance(table, Parameter):
                table.grad_rows = []
        np.add.at(table.grad, idx, g)
        if isinstance(table, Parameter) and table.grad_rows is not None:
            table.grad_rows.append(idx)

    return _node(table.data[idx], (table,), back)


def cross_entropy(probs, targets) -> Tensor:
    """Mean over the batch of -ln p(target); logs floored at 1e-12.

    ``probs`` rows must already be a distribution (softmax output). No model
    calls it (see ``softmax_cross_entropy``); it is kept because the benchmark
    tracer wraps it by name (ROADMAP items 6 and 11).
    """
    probs = _as_tensor(probs)
    t = np.asarray(targets)
    _check_targets(probs.data, t, "cross_entropy")
    batch = probs.data.shape[0]
    picked = probs.data[np.arange(batch), t]
    loss = -np.log(np.maximum(picked, LOG_EPS)).mean()

    def back(g):
        dp = np.zeros_like(probs.data)
        live = picked > LOG_EPS
        dp[np.arange(batch), t] = np.where(live, -1.0 / np.maximum(picked, LOG_EPS), 0.0)
        _accumulate(probs, dp * (float(g) / batch))

    return _node(loss, (probs,), back)


def _check_targets(scores: np.ndarray, t: np.ndarray, op: str) -> None:
    if scores.ndim != 2 or t.ndim != 1 or t.shape[0] != scores.shape[0]:
        raise ShapeError(f"{op} shapes {scores.shape} vs targets {t.shape}")
    if t.size and (t.min() < 0 or t.max() >= scores.shape[1]):
        raise ShapeError(f"target index out of range for {scores.shape[1]} classes")


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean over the batch of -ln softmax(``logits``)[target], from the logits.

    Per row, log-sum-exp minus the target logit, both taken after subtracting
    the row's largest logit, so nothing overflows and no log floor is needed
    (a 1e-12 floor means little in float32). The exponentials keep the
    logits' width; the row sums, the logs and the mean run in float64, and so
    the loss is a float64 scalar. The gradient, (softmax(z) - one-hot) / B, is
    at the logits' width.
    """
    logits = _as_tensor(logits)
    z = logits.data
    t = np.asarray(targets)
    _check_targets(z, t, "softmax_cross_entropy")
    batch = z.shape[0]
    rows = np.arange(batch)
    e = z - z.max(axis=1, keepdims=True)
    picked = e[rows, t].astype(np.float64)
    np.exp(e, out=e)
    sums = e.sum(axis=1, dtype=np.float64)
    loss = (np.log(sums) - picked).mean()

    def back(g):
        grad = e / sums.astype(z.dtype)[:, None]
        grad[rows, t] -= 1.0
        grad *= float(g) / batch
        _accumulate(logits, grad)

    return _node(loss, (logits,), back)


def sigmoid_binary_cross_entropy(logits, targets) -> Tensor:
    """Mean per-label BCE of sigmoid(``logits``) against binary ``targets``.

    Computed from the logits as max(z, 0) - z*y + log1p(exp(-|z|)), which
    neither overflows nor takes the log of 0 at any z, so no floor is needed
    (a 1e-12 floor next to 1 rounds to 1 in float32). The per-label terms keep
    the logits' width and are summed in float64; the gradient is
    (sigmoid(z) - y) / N.
    """
    logits = _as_tensor(logits)
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype)
    if z.shape != y.shape:
        raise ShapeError(f"bce shapes logits={z.shape} targets={y.shape}")
    e = np.exp(-np.abs(z))
    loss = (np.maximum(z, 0.0) - z * y + np.log1p(e)).mean(dtype=np.float64)

    def back(g):
        p = np.where(z >= 0, 1.0, e) / (1.0 + e)  # sigmoid(z) from exp(-|z|), overflow-free
        _accumulate(logits, (p - y) * (float(g) / y.size))

    return _node(loss, (logits,), back)


def batch_norm_train(x, gamma, beta, counts=None):
    """Normalize by batch statistics; returns (y, batch_mean, batch_var).

    Biased variance, matching the running-statistics update. Gradient flows
    through the statistics (the full batch-norm backward). ``counts`` weighs
    row i as ``counts[i]`` copies of itself: the statistics, outputs and
    summed input gradients equal those of batch norm over the rows repeated
    that often (the gradient of a row is the sum over its copies), without
    the rounding residue that summing identical rows' gradients leaves.

    The statistics, the normalized values and the backward run in float64;
    ``y`` and every gradient come back at ``x``'s width, and the statistics
    stay float64.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if x.data.ndim != 2:
        raise ShapeError(f"batch_norm expects (batch, features), got {x.data.shape}")
    xs = x.data.astype(np.float64)
    if counts is None:
        w, n = None, xs.shape[0]
    else:
        w = np.asarray(counts, dtype=np.float64)
        if w.shape != xs.shape[:1] or (w < 0).any():
            raise ShapeError(f"batch_norm counts {w.shape} must be >= 0, one per row of "
                             f"{xs.shape}")
        n = w.sum()
    if n < 2:
        raise ShapeError("train-mode batch norm needs a batch of at least 2")
    if w is None:
        mean = xs.mean(axis=0)
        var = xs.var(axis=0)
    else:
        mean = (w @ xs) / n
        var = (w @ np.square(xs - mean)) / n
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (xs - mean) * inv_std
    width = x.data.dtype
    y = (gamma.data * xhat + beta.data).astype(width)

    def back(g):
        g = g.astype(np.float64)
        _accumulate(gamma, (g * xhat).sum(axis=0).astype(width))
        _accumulate(beta, g.sum(axis=0).astype(width))
        if x.requires_grad:
            gxh = g * gamma.data
            spread = gxh.sum(axis=0) + xhat * (gxh * xhat).sum(axis=0)
            if w is not None:
                spread *= w[:, None]
            _accumulate(x, ((inv_std / n) * (n * gxh - spread)).astype(width))

    return _node(y, (x, gamma, beta), back), mean, var


def batch_norm_infer(x, gamma, beta, mean, inv_std) -> Tensor:
    """Normalize by frozen statistics (deterministic): gamma * (x - mean) *
    inv_std + beta, with ``mean`` and ``inv_std`` = 1 / sqrt(var + BN_EPS)
    given at ``x``'s width (``BatchNorm.infer_statistics``)."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    y = _batch_norm_infer(x.data, gamma.data, beta.data, mean, inv_std)

    def back(g):
        xhat = (x.data - mean) * inv_std
        _accumulate(gamma, (g * xhat).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
        _accumulate(x, g * gamma.data * inv_std)

    return _node(y, (x, gamma, beta), back)


def _batch_norm_infer(x, gamma, beta, mean, inv_std, out=None) -> np.ndarray:
    """``batch_norm_infer``'s forward, in place in ``out`` (new when None) and returned."""
    out = np.subtract(x, mean, out=out)
    out *= gamma
    out *= inv_std
    out += beta
    return out
