"""Adam optimizer with bias-corrected moments.

Adam.step makes 14 ufunc passes per parameter.  It runs them on blocks
of BLOCK elements of the flattened parameter, its gradient and its two
moments, with temporaries in two block-sized scratch rows per dtype.
Each block stays in cache across its 14 passes, so every array is read
from memory once per step rather than once per pass.  The passes are
elementwise, so the blocks give the bits of whole-array passes.
"""

from __future__ import annotations

import numpy as np

from ..errors import HideError

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
BLOCK = 1 << 15   # elements per block of Adam.step


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
    adam_step, operation for operation, so both give identical bits; it
    works in blocks of BLOCK elements (see the module docstring).
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
        self._scratch = {p.data.dtype: np.empty((2, BLOCK), dtype=p.data.dtype)
                         for p in self._params.values()}

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
            m, v = (s.reshape(-1, copy=False) for s in self._state[name])
            theta = p.data.reshape(-1, copy=False)
            grad = p.grad.reshape(-1)
            scratch = self._scratch[p.data.dtype]
            for lo in range(0, theta.size, BLOCK):
                t, g, mb, vb = (arr[lo:lo + BLOCK] for arr in (theta, grad, m, v))
                a, b = scratch[:, :t.size]
                # m = BETA1 * m + (1 - BETA1) * grad
                np.multiply(BETA1, mb, out=mb)
                np.multiply(1.0 - BETA1, g, out=a)
                np.add(mb, a, out=mb)
                # v = BETA2 * v + (1 - BETA2) * grad * grad
                np.multiply(BETA2, vb, out=vb)
                np.multiply(1.0 - BETA2, g, out=a)
                np.multiply(a, g, out=a)
                np.add(vb, a, out=vb)
                # theta = theta - lr * (m / bias1) / (sqrt(v / bias2) + EPS)
                np.divide(mb, bias1, out=a)
                np.multiply(self.lr, a, out=a)
                np.divide(vb, bias2, out=b)
                np.sqrt(b, out=b)
                np.add(b, EPS, out=b)
                np.divide(a, b, out=a)
                np.subtract(t, a, out=t)
