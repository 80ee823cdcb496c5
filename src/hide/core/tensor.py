"""Minimal deterministic tensor engine with reverse-mode autodiff.

Values live in numpy arrays.  Every differentiable operation appends a
node to a single global tape; ``backward`` walks the tape in reverse
execution order exactly once and then clears it.  All reductions use
numpy's fixed sequential order, so identical inputs give bit-identical
outputs across runs.

There is no global precision mode.  An operation's result takes the
dtype of its first operand, and a tensor built without an explicit
dtype is float64.  A model's dtype is its parameters' dtype (float64
for gradient and oracle tests, float32 for training throughput); its
forward pass follows the dtype of its input.

``erf`` is the one operation whose method depends on the dtype: float64
calls ``scipy.special.erf``, so gradient checks and oracles keep its
half-ulp accuracy; float32 evaluates a rational approximation in
cache-sized blocks, within 4.4e-7 of float64 erf and about 3x faster
than scipy's float32 loop, which computes in double.
"""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence

import numpy as np
from scipy.special import erf as _erf_np, expit as _sigmoid_np

from ..errors import HideError, ShapeError

_tape: list = []
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording (codec and evaluation paths)."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


def tape_size() -> int:
    return len(_tape)


def clear_tape() -> None:
    _tape.clear()


class Tensor:
    """N-dimensional real array, optionally participating in the tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else np.float64)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._nonscalar()

    def _nonscalar(self):
        raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")

    def numpy(self) -> np.ndarray:
        return self.data

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # 0.0 + g in one pass, so -0.0 still becomes +0.0
            self.grad = np.add(0.0, g, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, idx):
        return take(self, idx)

    # -- shape ops -----------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    # -- reductions -----------------------------------------------------
    def sum(self, axis=None, keepdims=False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), requires_grad=False, dtype=dtype)


def _record(out: Tensor, fn) -> None:
    _tape.append((out, fn))


def _should_record(*inputs: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in inputs)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over dimensions introduced by numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _wrap(a, np.float64)
    b = _wrap(b, a.dtype)
    out = Tensor(a.data + b.data, requires_grad=_should_record(a, b), dtype=a.dtype)
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))
        _record(out, backward)
    return out


def sub(a, b) -> Tensor:
    a = _wrap(a, np.float64)
    b = _wrap(b, a.dtype)
    out = Tensor(a.data - b.data, requires_grad=_should_record(a, b), dtype=a.dtype)
    if out.requires_grad:
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.shape))
        _record(out, backward)
    return out


def mul(a, b) -> Tensor:
    a = _wrap(a, np.float64)
    b = _wrap(b, a.dtype)
    out = Tensor(a.data * b.data, requires_grad=_should_record(a, b), dtype=a.dtype)
    if out.requires_grad:
        ad, bd = a.data, b.data
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * bd, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * ad, b.shape))
        _record(out, backward)
    return out


def div(a, b) -> Tensor:
    a = _wrap(a, np.float64)
    b = _wrap(b, a.dtype)
    out = Tensor(a.data / b.data, requires_grad=_should_record(a, b), dtype=a.dtype)
    if out.requires_grad:
        ad, bd = a.data, b.data
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / bd, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * ad / (bd * bd), b.shape))
        _record(out, backward)
    return out


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    out = Tensor(a.data ** exponent, requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        ad = a.data
        def backward(g):
            a._accumulate(g * exponent * ad ** (exponent - 1.0))
        _record(out, backward)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=_should_record(a, b), dtype=a.dtype)
    if out.requires_grad:
        ad, bd = a.data, b.data
        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ np.swapaxes(bd, -1, -2), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.swapaxes(ad, -1, -2) @ g, b.shape))
        _record(out, backward)
    return out


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        od = out.data
        def backward(g):
            a._accumulate(g * od)
        _record(out, backward)
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        ad = a.data
        def backward(g):
            a._accumulate(g / ad)
        _record(out, backward)
    return out


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        od = out.data
        def backward(g):
            a._accumulate(g * (1.0 - od * od))
        _record(out, backward)
    return out


# float32 erf(x) = x * P(x^2) / Q(x^2) on x clipped to [-4, 4]; coefficients
# highest degree first, in the form of Cody's rational approximations
# (Math. Comp. 23, 1969).  Largest error against float64 erf: 4.4e-7.
_ERF_P = np.array([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                   -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                   -1.60960333262415e-02], dtype=np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], dtype=np.float32)
# elements per block: the scratch buffers stay in cache, which is the
# whole gain (the same formula on whole arrays is no faster than scipy)
_ERF_BLOCK = 1 << 15


def _horner(coefs: np.ndarray, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(z, coefs[0], out=out)
    np.add(out, coefs[1], out=out)
    for c in coefs[2:]:
        np.multiply(out, z, out=out)
        np.add(out, c, out=out)
    return out


def _erf_float32(x: np.ndarray) -> np.ndarray:
    # np.empty, not empty_like: empty_like keeps a non-contiguous layout,
    # and then out.reshape(-1) would be a copy that is written and dropped
    out = np.empty(x.shape, np.float32)
    src, dst = x.reshape(-1), out.reshape(-1)
    n = min(src.size, _ERF_BLOCK)
    xs, z, q = (np.empty(n, np.float32) for _ in range(3))
    for start in range(0, src.size, _ERF_BLOCK):
        p = dst[start:start + _ERF_BLOCK]
        m = p.size
        xb, zb = xs[:m], z[:m]
        np.clip(src[start:start + m], -4.0, 4.0, out=xb)
        np.multiply(xb, xb, out=zb)
        np.multiply(_horner(_ERF_P, zb, p), xb, out=p)
        np.divide(p, _horner(_ERF_Q, zb, q[:m]), out=p)
        np.clip(p, -1.0, 1.0, out=p)
    return out


def erf(a: Tensor) -> Tensor:
    """Error function: blocked rational approximation in float32, scipy in float64."""
    fn = _erf_float32 if a.dtype == np.float32 else _erf_np
    out = Tensor(fn(a.data), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        ad = a.data
        coef = 2.0 / np.sqrt(np.pi)
        def backward(g):
            a._accumulate(g * coef * np.exp(-ad * ad))
        _record(out, backward)
    return out


def softplus(a: Tensor) -> Tensor:
    out = Tensor(np.logaddexp(0.0, a.data), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        ad = a.data
        def backward(g):
            a._accumulate(g * _sigmoid_np(ad))
        _record(out, backward)
    return out


def round_ste(a: Tensor, lo=None, hi=None) -> Tensor:
    """Round to the nearest integer; gradients pass through unchanged."""
    data = np.rint(a.data)
    if lo is not None or hi is not None:
        data = np.clip(data, lo, hi)
    out = Tensor(data, requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        def backward(g):
            a._accumulate(g)
        _record(out, backward)
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        in_shape = a.shape
        def backward(g):
            if axis is None:
                a._accumulate(np.broadcast_to(g, in_shape).copy() if np.ndim(g) else np.full(in_shape, g, dtype=a.dtype))
            else:
                gg = g
                if not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    for ax in sorted(ax % len(in_shape) for ax in axes):
                        gg = np.expand_dims(gg, ax)
                a._accumulate(np.broadcast_to(gg, in_shape).copy())
        _record(out, backward)
    return out


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for ax in axes:
            count *= a.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        in_shape = a.shape
        def backward(g):
            a._accumulate(g.reshape(in_shape))
        _record(out, backward)
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        inverse = tuple(np.argsort(axes))
        def backward(g):
            a._accumulate(g.transpose(inverse))
        _record(out, backward)
    return out


def take(a: Tensor, idx) -> Tensor:
    """Basic (slice/int) indexing; fancy indexing is not supported."""
    out = Tensor(a.data[idx], requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        in_shape = a.shape
        def backward(g):
            buf = np.zeros(in_shape, dtype=a.dtype)
            buf[idx] += g
            a._accumulate(buf)
        _record(out, backward)
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(out_data, requires_grad=_should_record(*tensors), dtype=tensors[0].dtype)
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        def backward(g):
            start = 0
            for t, n in zip(tensors, sizes):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(start, start + n)
                    t._accumulate(g[tuple(sl)])
                start += n
        _record(out, backward)
    return out


def maximum(a: Tensor, floor: float) -> Tensor:
    """Elementwise max with a constant; gradient flows where a >= floor."""
    out = Tensor(np.maximum(a.data, floor), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        ad = a.data
        def backward(g):
            a._accumulate(g * (ad >= floor))
        _record(out, backward)
    return out


def minimum(a: Tensor, ceil: float) -> Tensor:
    out = Tensor(np.minimum(a.data, ceil), requires_grad=_should_record(a), dtype=a.dtype)
    if out.requires_grad:
        ad = a.data
        def backward(g):
            a._accumulate(g * (ad <= ceil))
        _record(out, backward)
    return out


def backward(loss: Tensor) -> None:
    """Populate gradients of everything reachable from ``loss``.

    The tape is consumed: a second call without a fresh forward pass
    raises.  Traversal is strict reverse execution order.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not _tape:
        raise HideError("backward called with an empty tape (already consumed or nothing recorded)")
    loss._accumulate(np.ones_like(loss.data))
    try:
        for out, fn in reversed(_tape):
            if out.grad is not None:
                fn(out.grad)
    finally:
        _tape.clear()
