"""Central finite-difference gradient checking for the tests."""

import numpy as np

from aucap.nn import tensor as T
from aucap.nn.optim import zero_grads
from aucap.nn.tensor import Parameter


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
    analytic = {p.name: p.grad.copy() for p in params}
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
