"""Neural operations built on the tensor engine.

Convolutions run as im2col/col2im matrix products so the heavy lifting
stays inside BLAS while gradients remain exact.  Layer entry points
validate shapes and reject non-finite values.

Patches are laid out channel-major: _im2col turns a padded [B,C,Hp,Wp]
map into a contiguous [C, k, k, B, H', W'] array, used as the matrix
cols of shape [C*k*k, B*H'*W'].  Every GEMM keeps the weight on the
left: conv2d computes W @ cols forward, W.T @ g for the input gradient
and g @ cols.T for the kernel gradient; conv_transpose2d computes
K.T @ x forward with K of shape [Cin, Cout*k*k].

_col2im scatters the patches back with one add per kernel offset (i, j),
in that order, into a zeroed buffer, so every element is +0 plus its
taps in the same order in either of its two layouts.  It adds the
contiguous plane cols[:, i, j] into a [C, B, Hp, Wp] buffer, whose rows
are only W' values long.  A stride-1 scatter at most _NARROW_COLS
output columns wide, such as the estimator branches on 4x4 training
latents, first copies the patches to [k, k, H', W', C, B] and adds each
tap into a [Hp, Wp, C, B] buffer, so each add runs over rows of C*B
values.  On a 2-core SkylakeX host (numpy 2.4.6) that scatter, with
the copy of its result, took about half the time at 4 columns, 10-25%
less at 8, the same at 12 and 1.5-2x more at 16.  Stride 2 keeps the
first layout.  Either buffer is returned as a [B, C, Hp, Wp] view.

A conv2d that records no tape node (every codec path runs under
no_grad) works in bands of output rows, counted over the B*H' rows of
the batch.  Each band copies its patches into one buffer of about
_CONV_BAND_BYTES, which stays in cache, and runs one GEMM into its
columns of the [C_out, B*H'*W'] output.  One patch matrix instead makes
a map such as 24 channels at 256x384 write and read 85 MB through DRAM.
A map whose patch matrix fits the budget runs as one band.

The bands give the same bits as one GEMM.  Each output element is the
same sum over the same K terms, and OpenBLAS keeps its order whatever N
is, as long as both products run the same kernel on the same threads.
That held for every band of at least _BAND_MIN_COLS columns and more
than _BAND_MIN_MACS multiply-adds, with every band but the last a
multiple of _BAND_ALIGN columns, on float32 and float64 at 1 and 2
threads.  Outside those limits sums can differ in the last bit:
products of 100**3 multiply-adds or fewer take a small-matrix kernel,
a product a few columns wide runs on one thread, whose K blocking
differs from the threaded driver's, and float64 runs a column count
that is not a multiple of 8 through an edge kernel.  numpy computes a
one-row product (C_out = 1) with gemv.  A conv outside the limits runs
as one band.

A conv that records a tape node keeps its single patch matrix, since
the kernel gradient g @ cols.T reads all of it again in backward, so
training computes what it computed before.
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


def _patches(x_pad: np.ndarray, k: int, stride: int) -> np.ndarray:
    """[B,C,Hp,Wp] -> [C, k, k, B, H', W'] strided view of the patches."""
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, (k, k), axis=(2, 3))
    return windows[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)


def _im2col(x_pad: np.ndarray, k: int, stride: int) -> np.ndarray:
    """[B,C,Hp,Wp] -> [C, k, k, B, H', W'] patch array (contiguous)."""
    return np.ascontiguousarray(_patches(x_pad, k, stride))


_NARROW_COLS = 8   # the widest output a stride-1 scatter runs channels-last


def _col2im(cols: np.ndarray, pad_shape, k: int, stride: int) -> np.ndarray:
    """Scatter-add [C, k, k, B, H', W'] patches back into a padded
    [B,C,Hp,Wp] map, returned as a view of a [C,B,Hp,Wp] buffer, or of a
    [Hp,Wp,C,B] one for a stride-1 scatter at most _NARROW_COLS wide."""
    b, c, hp, wp = pad_shape
    h_out, w_out = cols.shape[4], cols.shape[5]
    if stride == 1 and w_out <= _NARROW_COLS:
        taps = np.ascontiguousarray(cols.transpose(1, 2, 4, 5, 0, 3))
        buf = np.zeros((hp, wp, c, b), dtype=cols.dtype)
        for i in range(k):
            for j in range(k):
                buf[i:i + h_out, j:j + w_out] += taps[i, j]
        return buf.transpose(3, 2, 0, 1)
    buf = np.zeros((c, b, hp, wp), dtype=cols.dtype)
    for i in range(k):
        for j in range(k):
            buf[:, :, i:i + stride * (h_out - 1) + 1:stride,
                j:j + stride * (w_out - 1) + 1:stride] += cols[:, i, j]
    return buf.transpose(1, 0, 2, 3)


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """[B,C,H,W] -> [B,C,H+2p,W+2p] with zero borders; the bits of np.pad."""
    b, c, h, w = x.shape
    out = np.empty((b, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    out[:, :, :p] = 0
    out[:, :, h + p:] = 0
    out[:, :, p:h + p, :p] = 0
    out[:, :, p:h + p, w + p:] = 0
    out[:, :, p:h + p, p:w + p] = x
    return out


_CONV_BAND_BYTES = 4 << 20   # patch bytes per band: about one core's L2 cache
_BAND_ALIGN = 16             # every band but the last spans a multiple of this many columns
_BAND_MIN_COLS = 256         # no band GEMM is narrower than this
_BAND_MIN_MACS = 100 ** 3    # nor does it take this many multiply-adds or fewer


def _band_rows(c_out: int, n_k: int, rows: int, w_out: int, itemsize: int) -> int:
    """Output rows per band of a no-grad conv whose patch matrix is
    [n_k, rows*w_out], or 0 for one patch matrix (see the module
    docstring for the limits)."""
    step = _BAND_ALIGN // math.gcd(w_out, _BAND_ALIGN)
    band = max(_CONV_BAND_BYTES // (n_k * w_out * itemsize), -(-_BAND_MIN_COLS // w_out))
    band = -(-band // step) * step   # rounded up to whole steps
    narrowest = (rows % band or band) * w_out
    if (band >= rows or c_out < 2 or rows * w_out % _BAND_ALIGN or narrowest < _BAND_MIN_COLS
            or c_out * n_k * narrowest <= _BAND_MIN_MACS):
        return 0
    return band


def _conv_bands(x_pad: np.ndarray, w_mat: np.ndarray, k: int, stride: int,
                h_out: int, w_out: int, band: int) -> np.ndarray:
    """W @ cols as one GEMM per band of `band` output rows, counted over
    the B*H' rows of the batch.  Each band's patches are copied into one
    reused buffer, and its GEMM writes its columns of the [C_out, B*H'*W']
    product."""
    b, c_in = x_pad.shape[:2]
    n_k = w_mat.shape[1]
    windows = _patches(x_pad, k, stride)
    buf = np.empty(n_k * band * w_out, dtype=x_pad.dtype)
    out = np.empty((w_mat.shape[0], b * h_out * w_out), dtype=x_pad.dtype)
    for r0 in range(0, b * h_out, band):
        r1 = min(r0 + band, b * h_out)
        cols = buf[:n_k * (r1 - r0) * w_out].reshape(c_in, k, k, r1 - r0, w_out)
        for i in range(r0 // h_out, (r1 - 1) // h_out + 1):
            lo, hi = max(r0, i * h_out), min(r1, (i + 1) * h_out)
            cols[:, :, :, lo - r0:hi - r0] = windows[:, :, :, i, lo - i * h_out:hi - i * h_out]
        np.matmul(w_mat, cols.reshape(n_k, -1), out=out[:, r0 * w_out:r1 * w_out])
    return out


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
        x_pad = _pad(x_pad, padding)
    w_mat = kernel.data.reshape(c_out, c_in * k * k)
    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    record = T.recording(*inputs)
    band = 0 if record else _band_rows(c_out, c_in * k * k, b * h_out, w_out, x_pad.itemsize)
    if band:
        out_mat = _conv_bands(x_pad, w_mat, k, stride, h_out, w_out, band)
    else:
        cols = _im2col(x_pad, k, stride).reshape(c_in * k * k, b * h_out * w_out)
        out_mat = w_mat @ cols
    if bias is not None:
        out_mat += bias.data[:, None]
    out_data = out_mat.reshape(c_out, b, h_out, w_out).transpose(1, 0, 2, 3)

    def backward(g):
        g_mat = g.transpose(1, 0, 2, 3).reshape(c_out, b * h_out * w_out)
        if kernel.requires_grad:
            kernel._accumulate((g_mat @ cols.T).reshape(kernel.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g_mat.sum(axis=1))
        if x.requires_grad:
            d_cols = (w_mat.T @ g_mat).reshape(c_in, k, k, b, h_out, w_out)
            buf = _col2im(d_cols, (b, c_in, h + 2 * padding, w + 2 * padding), k, stride)
            if padding:
                buf = buf[:, :, padding:padding + h, padding:padding + w]
            x._accumulate(buf)
    return T.node(out_data, inputs, backward)


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
    return T.node(out_data, (x, kernel) if bias is None else (x, kernel, bias), backward)


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
