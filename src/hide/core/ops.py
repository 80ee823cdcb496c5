"""Neural operations built on the tensor engine.

Convolutions run as im2col/col2im matrix products so the heavy lifting
stays inside BLAS while gradients remain exact.  Layer entry points
validate shapes and reject non-finite values.

Patches are laid out channel-major: _im2col turns a padded [B,C,Hp,Wp]
map into a contiguous [C, k, k, B, H', W'] array, used as the matrix
cols of shape [C*k*k, B*H'*W'].  Every GEMM keeps the weight on the
left: conv2d computes W @ cols forward, W.T @ g for the input gradient
and g @ cols.T for the kernel gradient; conv_transpose2d computes
K.T @ x forward with K of shape [Cin, Cout*k*k].  _col2im adds the
contiguous plane cols[:, i, j] back for each of the k*k offsets.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import NonFiniteError, ShapeError
from . import tensor as T
from .tensor import Tensor


def check_finite(t: Tensor, label: str) -> None:
    if not np.isfinite(t.data).all():
        raise NonFiniteError(f"non-finite values in {label}")


def _im2col(x_pad: np.ndarray, k: int, stride: int) -> np.ndarray:
    """[B,C,Hp,Wp] -> [C, k, k, B, H', W'] patch array (contiguous)."""
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    return np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))


def _col2im(cols: np.ndarray, pad_shape, k: int, stride: int) -> np.ndarray:
    """Scatter-add [C, k, k, B, H', W'] patches back into a padded
    [B,C,Hp,Wp] map (returned as a view of a [C,B,Hp,Wp] buffer)."""
    b, c, hp, wp = pad_shape
    buf = np.zeros((c, b, hp, wp), dtype=cols.dtype)
    h_out, w_out = cols.shape[4], cols.shape[5]
    for i in range(k):
        for j in range(k):
            buf[:, :, i:i + stride * (h_out - 1) + 1:stride,
                j:j + stride * (w_out - 1) + 1:stride] += cols[:, i, j]
    return buf.transpose(1, 0, 2, 3)


def conv2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation over [B,Cin,H,W] with kernel [Cout,Cin,k,k]."""
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-d [B,Cin,H,W], got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"conv2d kernel must be [Cout,Cin,k,k], got {kernel.shape}")
    c_out, c_in, k, _ = kernel.shape
    if k % 2 != 1:
        raise ShapeError(f"conv2d kernel size must be odd, got k={k}")
    if x.shape[1] != c_in:
        raise ShapeError(
            f"conv2d channel mismatch: input has {x.shape[1]} channels, kernel expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias must be [{c_out}], got {bias.shape}")
    check_finite(x, "conv2d input")

    b, _, h, w = x.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape}, k={k}, "
                         f"stride={stride}, padding={padding}")

    x_pad = x.data
    if padding:
        x_pad = np.pad(x_pad, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(x_pad, k, stride).reshape(c_in * k * k, b * h_out * w_out)
    w_mat = kernel.data.reshape(c_out, c_in * k * k)
    out_mat = w_mat @ cols
    if bias is not None:
        out_mat += bias.data[:, None]
    out_data = out_mat.reshape(c_out, b, h_out, w_out).transpose(1, 0, 2, 3)

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    out = Tensor(out_data, requires_grad=T._should_record(*inputs), dtype=x.dtype)
    if out.requires_grad:
        pad_shape = x_pad.shape

        def backward(g):
            g_mat = g.transpose(1, 0, 2, 3).reshape(c_out, b * h_out * w_out)
            if kernel.requires_grad:
                kernel._accumulate((g_mat @ cols.T).reshape(kernel.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(g_mat.sum(axis=1))
            if x.requires_grad:
                d_cols = (w_mat.T @ g_mat).reshape(c_in, k, k, b, h_out, w_out)
                buf = _col2im(d_cols, pad_shape, k, stride)
                if padding:
                    buf = buf[:, :, padding:padding + h, padding:padding + w]
                x._accumulate(buf)
        T._record(out, backward)
    return out


def conv_transpose2d(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None,
                     stride: int = 1, padding: int = 0) -> Tensor:
    """Transposed convolution; kernel layout [Cin,Cout,k,k].

    Output side length is stride*(H-1) + k - 2*padding + op where the
    output padding op = clip(stride - k + 2*padding, 0, stride-1) is
    chosen automatically, so the common same-kernel configurations
    (k = 2*padding + 1, and k = stride with padding 0) upsample H to
    exactly stride*H.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv_transpose2d input must be 4-d, got {x.shape}")
    if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"conv_transpose2d kernel must be [Cin,Cout,k,k], got {kernel.shape}")
    if stride not in (1, 2):
        raise ShapeError(f"conv_transpose2d stride must be 1 or 2, got {stride}")
    c_in, c_out, k, _ = kernel.shape
    if x.shape[1] != c_in:
        raise ShapeError(
            f"conv_transpose2d channel mismatch: input has {x.shape[1]} channels, "
            f"kernel expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv_transpose2d bias must be [{c_out}], got {bias.shape}")
    check_finite(x, "conv_transpose2d input")

    b, _, h, w = x.shape
    out_pad = min(max(stride - k + 2 * padding, 0), stride - 1)
    h_out = stride * (h - 1) + k - 2 * padding + out_pad
    w_out = stride * (w - 1) + k - 2 * padding + out_pad
    buf_h = max(stride * (h - 1) + k, padding + h_out)
    buf_w = max(stride * (w - 1) + k, padding + w_out)

    x_mat = x.data.transpose(1, 0, 2, 3).reshape(c_in, b * h * w)
    k_mat = kernel.data.reshape(c_in, c_out * k * k)
    patches = (k_mat.T @ x_mat).reshape(c_out, k, k, b, h, w)
    buf = _col2im(patches, (b, c_out, buf_h, buf_w), k, stride)
    out_data = buf[:, :, padding:padding + h_out, padding:padding + w_out]
    if bias is not None:
        out_data = out_data + bias.data[None, :, None, None]

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    out = Tensor(out_data, requires_grad=T._should_record(*inputs), dtype=x.dtype)
    if out.requires_grad:
        def backward(g):
            g_buf = np.zeros((b, c_out, buf_h, buf_w), dtype=g.dtype)
            g_buf[:, :, padding:padding + h_out, padding:padding + w_out] = g
            g_cols = _im2col(g_buf, k, stride).reshape(c_out * k * k, b * h * w)
            if kernel.requires_grad:
                kernel._accumulate((x_mat @ g_cols.T).reshape(kernel.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(g.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                d_x_mat = k_mat @ g_cols
                x._accumulate(d_x_mat.reshape(c_in, b, h, w).transpose(1, 0, 2, 3))
        T._record(out, backward)
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Batched x @ weight (+ bias) over the trailing dimension."""
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-d [Din,Dout], got {weight.shape}")
    d_in, d_out = weight.shape
    if x.shape[-1] != d_in:
        raise ShapeError(
            f"linear dimension mismatch: input trailing dim {x.shape[-1]}, weight expects {d_in}")
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(f"linear bias must be [{d_out}], got {bias.shape}")
    check_finite(x, "linear input")
    lead = x.shape[:-1]
    flat = T.reshape(x, (-1, d_in)) if x.ndim != 2 else x
    out = T.matmul(flat, weight)
    if bias is not None:
        out = T.add(out, bias)
    if x.ndim != 2:
        out = T.reshape(out, lead + (d_out,))
    return out


LAYERNORM_EPS = 1e-5


def layernorm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Normalize the trailing dimension to zero mean / unit variance, then affine."""
    c = x.shape[-1]
    if gain.shape != (c,) or shift.shape != (c,):
        raise ShapeError(f"layernorm affine params must be [{c}], got {gain.shape}/{shift.shape}")
    check_finite(x, "layernorm input")
    mu = T.tmean(x, axis=-1, keepdims=True)
    centered = T.sub(x, mu)
    var = T.tmean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.power(T.add(var, LAYERNORM_EPS), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gain), shift)


_SQRT2 = math.sqrt(2.0)


def gaussian_cdf(x: Tensor) -> Tensor:
    """Standard normal CDF, (1 + erf(x / sqrt 2)) / 2.

    float64 uses scipy's erf; float32 uses the engine's rational
    approximation, within 4.4e-7 of float64 erf (see ``tensor.erf``).
    """
    return T.mul(T.add(T.erf(T.mul(x, 1.0 / _SQRT2)), 1.0), 0.5)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with Phi from ``gaussian_cdf`` (erf form, no tanh approximation)."""
    return T.mul(x, gaussian_cdf(x))


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis with mandatory max-subtraction."""
    shift = np.max(x.data, axis=-1, keepdims=True)
    e = T.exp(T.sub(x, Tensor(shift, dtype=x.dtype)))
    total = T.tsum(e, axis=-1, keepdims=True)
    return T.div(e, total)
