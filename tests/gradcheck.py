"""Central finite-difference gradient checking for the tests, and the
autodiff ops that only tests build losses with."""

import numpy as np

from aucap.nn import tensor as T
from aucap.nn.tensor import Parameter, Tensor


def add(a, b) -> Tensor:
    a, b = T._as_tensor(a), T._as_tensor(b)

    def back(g):
        T._accumulate(a, T._unbroadcast(g, a.data.shape))
        T._accumulate(b, T._unbroadcast(g, b.data.shape))

    return T._node(a.data + b.data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = T._as_tensor(a), T._as_tensor(b)

    def back(g):
        T._accumulate(a, T._unbroadcast(g, a.data.shape))
        T._accumulate(b, T._unbroadcast(-g, b.data.shape))

    return T._node(a.data - b.data, (a, b), back)


def mean_all(x) -> Tensor:
    x = T._as_tensor(x)
    n = x.data.size

    def back(g):
        T._accumulate(x, np.full_like(x.data, float(g) / n))

    return T._node(x.data.mean(), (x,), back)


def cast(params: list[Parameter], dtype) -> list[Parameter]:
    """Keep the values of ``params`` at ``dtype`` (float32 or float64), each
    without a gradient, and return them. Models build their parameters at
    float32; only tests run them at another width."""
    for p in params:
        p.data = p.data.astype(dtype)
        p.grad, p.grad_rows = None, None
    return params


def at_float64(params: list[Parameter]) -> list[Parameter]:
    """Cast ``params`` to float64 in place and return them.

    The autodiff core computes at its data's width, so a float32 model fed
    float64 inputs then runs at float64, where central differences resolve
    its gradients; at float32 they would be roundoff.
    """
    return cast(params, np.float64)


def zero_grads(params: list[Parameter]) -> None:
    """Drop the gradients of ``params``, as ``adam_step`` does."""
    for p in params:
        p.grad, p.grad_rows = None, None


def max_relative_error(loss_fn, params: list[Parameter], delta: float = 1e-5,
                       max_coords: int = 24, rng: np.random.RandomState | None = None,
                       tiny: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the forward pass deterministically on each call.
    Coordinates are subsampled to ``max_coords`` per parameter. The
    denominator is floored at ``tiny``: below that magnitude the difference
    quotient is float64 roundoff, not signal.
    """
    rng = rng or np.random.RandomState(0)
    zero_grads(params)
    loss = loss_fn()
    T.backward(loss)
    analytic = {p.name: p.grad for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + delta
            hi = float(loss_fn().data)
            flat[c] = keep - delta
            lo = float(loss_fn().data)
            flat[c] = keep
            numeric = (hi - lo) / (2.0 * delta)
            a = analytic[p.name].reshape(-1)[c]
            denom = max(abs(a), abs(numeric), tiny)
            worst = max(worst, abs(a - numeric) / denom)
    zero_grads(params)
    return worst
