"""Adam optimizer with bias-corrected moments."""

from __future__ import annotations

import numpy as np

from ..errors import HideError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float):
    """One standard Adam update; returns (theta, m, v) for step index t >= 1."""
    if lr <= 0:
        raise HideError("adam_step requires lr > 0")
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return theta, m, v


class Adam:
    """Optimizer over a model's named parameters, updated in sorted-name order.

    step() updates parameters and moments in place with the arithmetic of
    adam_step, operation for operation, so both give identical bits; its
    temporaries live in one scratch buffer per dtype, sized for the
    largest parameter.
    """

    def __init__(self, named_params, lr: float):
        self.lr = lr
        self.t = 0
        self._params = {}
        for name, p in named_params:
            if name in self._params:
                raise HideError(f"parameter {name!r} appears twice in optimizer state")
            self._params[name] = p
        self._state = {
            name: (np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in self._params.items()
        }
        sizes = {}
        for p in self._params.values():
            sizes[p.data.dtype] = max(sizes.get(p.data.dtype, 0), p.data.size)
        self._scratch = {dtype: np.empty((2, size), dtype=dtype) for dtype, size in sizes.items()}

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def step(self) -> None:
        if self.lr <= 0:
            raise HideError("Adam requires lr > 0")
        self.t += 1
        bias1 = 1.0 - BETA1 ** self.t
        bias2 = 1.0 - BETA2 ** self.t
        for name in sorted(self._params):
            p = self._params[name]
            if p.grad is None:
                continue
            m, v = self._state[name]
            scratch = self._scratch[p.data.dtype]
            a = scratch[0, :p.data.size].reshape(p.data.shape)
            b = scratch[1, :p.data.size].reshape(p.data.shape)
            # m = BETA1 * m + (1 - BETA1) * grad
            np.multiply(BETA1, m, out=m)
            np.multiply(1.0 - BETA1, p.grad, out=a)
            np.add(m, a, out=m)
            # v = BETA2 * v + (1 - BETA2) * grad * grad
            np.multiply(BETA2, v, out=v)
            np.multiply(1.0 - BETA2, p.grad, out=a)
            np.multiply(a, p.grad, out=a)
            np.add(v, a, out=v)
            # theta = theta - lr * (m / bias1) / (sqrt(v / bias2) + EPS)
            np.divide(m, bias1, out=a)
            np.multiply(self.lr, a, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)
            np.divide(a, b, out=a)
            np.subtract(p.data, a, out=p.data)
