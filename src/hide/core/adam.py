"""Adam optimizer with bias-corrected moments."""

from __future__ import annotations

import numpy as np

from ..errors import HideError


def adam_step(theta: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One standard Adam update; returns (theta, m, v) for step index t >= 1."""
    if lr <= 0:
        raise HideError("adam_step requires lr > 0")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


class Adam:
    """Optimizer over a model's named parameters, updated in sorted-name order."""

    def __init__(self, named_params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for name in sorted(self._params):
            p = self._params[name]
            if p.grad is None:
                continue
            m, v = self._state[name]
            p.data, m, v = adam_step(p.data, p.grad, m, v, self.t, self.lr,
                                     self.beta1, self.beta2, self.eps)
            self._state[name] = (m, v)
