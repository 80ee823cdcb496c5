"""Tensor engine: forward values against loop oracles, gradients against
central finite differences, and the tape/optimizer contracts."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

import hide.core as C
from hide import codec
from hide.config import ModelConfig
from hide.core import Tensor, backward, ops, tensor
from hide.core.tensor import _ERF_BLOCK
from hide.errors import HideError, NonFiniteError, ShapeError
from hide.model import CompressionModel

from conftest import check_gradients

# sha256 of the tiny model's parameter gradients after one float64 step;
# pins the summation order of the backward walk
LEAF_GRADIENT_DIGEST = "e8899612e7a4ac5ee661a64c2f59ffce6a04e30a7501c0e4af03263413be8726"


# -----------------------------------------------------------------
# oracles
# -----------------------------------------------------------------

def conv2d_loop(x, w, b, stride, padding):
    """Nested-loop convolution oracle, O(B Cout Cin H W k^2)."""
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - k) // stride + 1
    wo = (wd + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for n in range(bsz):
        for co in range(cout):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                acc += xp[n, ci, oy * stride + i, ox * stride + j] * w[co, ci, i, j]
                    out[n, co, oy, ox] = acc + (b[co] if b is not None else 0.0)
    return out


def conv_transpose2d_scatter(x, w, b, stride, padding, out_hw):
    """Scatter-add oracle for the transposed convolution."""
    bsz, cin, h, wd = x.shape
    _, cout, k, _ = w.shape
    ho, wo = out_hw
    buf = np.zeros((bsz, cout, stride * (h - 1) + k, stride * (wd - 1) + k))
    for n in range(bsz):
        for ci in range(cin):
            for y in range(h):
                for xx in range(wd):
                    for co in range(cout):
                        for i in range(k):
                            for j in range(k):
                                buf[n, co, y * stride + i, xx * stride + j] += \
                                    x[n, ci, y, xx] * w[ci, co, i, j]
    out = np.zeros((bsz, cout, ho, wo))
    avail = buf[:, :, padding:padding + ho, padding:padding + wo]
    out[:, :, :avail.shape[2], :avail.shape[3]] = avail
    if b is not None:
        out += b[None, :, None, None]
    return out


def col2im_loop(cols, pad_shape, k, stride):
    """The [C,B,Hp,Wp] scatter: one strided add per kernel offset."""
    b, c, hp, wp = pad_shape
    buf = np.zeros((c, b, hp, wp), dtype=cols.dtype)
    h_out, w_out = cols.shape[4], cols.shape[5]
    for i in range(k):
        for j in range(k):
            buf[:, :, i:i + stride * (h_out - 1) + 1:stride,
                j:j + stride * (w_out - 1) + 1:stride] += cols[:, i, j]
    return buf.transpose(1, 0, 2, 3)


def matmul_loop(a, w):
    m, k = a.shape
    k2, n = w.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * w[p, j]
    return out


# -----------------------------------------------------------------
# conv2d
# -----------------------------------------------------------------

class TestConv2d:
    def test_scaling_identity(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.array([[[[2.0]]]]))
        b = Tensor(np.zeros(1))
        out = C.conv2d(x, w, b, stride=1, padding=0)
        np.testing.assert_array_equal(out.numpy(), np.full((1, 1, 3, 3), 2.0))

    def test_identity_kernel(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 5, 5)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = C.conv2d(x, Tensor(w), None, stride=1, padding=1)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_against_loop_oracle(self, rng):
        x = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((3, 4, 5, 5))
        b = rng.standard_normal(3)
        out = C.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=2)
        expect = conv2d_loop(x, w, b, stride=1, padding=2)
        assert np.max(np.abs(out.numpy() - expect)) <= 1e-12

    def test_strided_against_loop_oracle(self, rng):
        x = rng.standard_normal((1, 3, 9, 9))
        w = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        out = C.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
        expect = conv2d_loop(x, w, b, stride=2, padding=1)
        assert np.max(np.abs(out.numpy() - expect)) <= 1e-12

    def test_output_size(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 10, 10)))
        w = Tensor(rng.standard_normal((4, 2, 3, 3)))
        out = C.conv2d(x, w, None, stride=2, padding=1)
        assert out.shape == (1, 4, 5, 5)

    def test_channel_mismatch_names_dimension(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            C.conv2d(x, w, None)

    def test_even_kernel_rejected(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)))
        w = Tensor(rng.standard_normal((1, 1, 2, 2)))
        with pytest.raises(ShapeError, match="odd"):
            C.conv2d(x, w, None)

    def test_wide_kernel_batch_against_loop_oracle(self, rng):
        x = rng.standard_normal((3, 2, 7, 6))
        w = rng.standard_normal((3, 2, 7, 7))
        b = rng.standard_normal(3)
        out = C.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, padding=3)
        expect = conv2d_loop(x, w, b, stride=1, padding=3)
        assert np.max(np.abs(out.numpy() - expect)) <= 1e-12

    def test_gradients(self, rng):
        # (x shape, w shape, stride, padding); the last is the estimator's 7x7 branch
        cases = [((2, 2, 5, 5), (3, 2, 3, 3), 2, 1),
                 ((2, 2, 4, 5), (2, 2, 7, 7), 1, 3)]
        for x_shape, w_shape, stride, padding in cases:
            x = rng.standard_normal(x_shape)
            w = rng.standard_normal(w_shape)
            b = rng.standard_normal(w_shape[0])
            check_gradients(
                lambda ts: (C.conv2d(ts[0], ts[1], ts[2], stride=stride,
                                     padding=padding) ** 2).sum(),
                [x, w, b])

    def test_rejects_nonfinite(self):
        x = np.ones((1, 1, 3, 3))
        x[0, 0, 1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            C.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), None)


def _spy_bands(monkeypatch):
    calls = []
    real = ops._conv_bands

    def spy(*args):
        calls.append(args[-1])
        return real(*args)
    monkeypatch.setattr(ops, "_conv_bands", spy)
    return calls


class TestConv2dBands:
    """A no_grad conv2d runs in bands of output rows and must give the
    bits of the recorded conv, which keeps one patch matrix."""

    C_IN, C_OUT, W_OUT, BAND = 32, 64, 64, 12
    ROWS = 3 * BAND + 8     # output rows over the batch: 3 full bands and a short one

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_bands_equal_one_patch_matrix(self, rng, monkeypatch, dtype, stride, batch, k,
                                          with_bias):
        n_k = self.C_IN * k * k
        itemsize = np.dtype(dtype).itemsize
        monkeypatch.setattr(ops, "_CONV_BAND_BYTES", self.BAND * n_k * self.W_OUT * itemsize)
        assert ops._band_rows(self.C_OUT, n_k, self.ROWS, self.W_OUT, itemsize) == self.BAND
        h_out = self.ROWS // batch
        x = Tensor(rng.standard_normal((batch, self.C_IN, h_out * stride, self.W_OUT * stride)),
                   requires_grad=True, dtype=dtype)
        w = Tensor(rng.standard_normal((self.C_OUT, self.C_IN, k, k)), requires_grad=True,
                   dtype=dtype)
        b = Tensor(rng.standard_normal(self.C_OUT), requires_grad=True,
                   dtype=dtype) if with_bias else None
        calls = _spy_bands(monkeypatch)
        with C.no_grad():
            banded = C.conv2d(x, w, b, stride=stride, padding=k // 2).numpy()
        assert calls == [self.BAND]
        recorded = C.conv2d(x, w, b, stride=stride, padding=k // 2)
        assert calls == [self.BAND] and recorded.requires_grad
        assert banded.dtype == dtype and banded.shape == (batch, self.C_OUT, h_out, self.W_OUT)
        assert np.array_equal(banded, recorded.numpy())

    @pytest.mark.parametrize("c_out, h, w", [(1, 48, 64), (8, 47, 63)])
    def test_outside_the_limits_runs_one_patch_matrix(self, rng, monkeypatch, c_out, h, w):
        # one output channel (numpy's gemv) and 47x63 output columns
        # (not a multiple of _BAND_ALIGN) both keep one patch matrix
        monkeypatch.setattr(ops, "_CONV_BAND_BYTES", 1 << 12)
        x = Tensor(rng.standard_normal((1, 32, h, w)))
        kernel = Tensor(rng.standard_normal((c_out, 32, 3, 3)))
        calls = _spy_bands(monkeypatch)
        with C.no_grad():
            C.conv2d(x, kernel, None, padding=1)
        assert calls == []


class TestCol2im:
    """Both scatter layouts give the bits of the [C,B,Hp,Wp] loop."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("w_out", [ops._NARROW_COLS - 4, ops._NARROW_COLS,
                                       ops._NARROW_COLS + 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_equals_loop_bitwise(self, rng, dtype, k, batch, w_out, stride):
        c, h_out = 6, w_out + 1
        cols = rng.standard_normal((c, k, k, batch, h_out, w_out)).astype(dtype)
        pad_shape = (batch, c, stride * (h_out - 1) + k, stride * (w_out - 1) + k)
        out = ops._col2im(cols, pad_shape, k, stride)
        expect = col2im_loop(cols, pad_shape, k, stride)
        assert out.shape == pad_shape and out.dtype == dtype
        assert np.ascontiguousarray(out).tobytes() == np.ascontiguousarray(expect).tobytes()
        channels_last = stride == 1 and w_out <= ops._NARROW_COLS
        assert out.base.shape == ((pad_shape[2], pad_shape[3], c, batch) if channels_last
                                  else (c, batch, pad_shape[2], pad_shape[3]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [1, 3])
def test_pad_equals_np_pad_bitwise(rng, dtype, padding):
    x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
    x[0, 0, 0] = -0.0
    expect = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = ops._pad(x, padding)
    assert out.dtype == dtype and out.tobytes() == expect.tobytes()


class TestConvTranspose2d:
    def test_stride1_identity(self):
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = C.conv_transpose2d(x, w, None, stride=1, padding=0)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_stride2_scatter_oracle(self, rng):
        x = np.ones((1, 1, 2, 2))
        w = np.ones((1, 1, 2, 2))
        out = C.conv_transpose2d(Tensor(x), Tensor(w), None, stride=2, padding=0)
        assert out.shape == (1, 1, 4, 4)
        expect = conv_transpose2d_scatter(x, w, None, 2, 0, (4, 4))
        np.testing.assert_array_equal(out.numpy(), expect)

    def test_upsample_doubles_spatial(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        w = rng.standard_normal((3, 5, 3, 3))
        b = rng.standard_normal(5)
        out = C.conv_transpose2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1)
        assert out.shape == (2, 5, 8, 8)
        expect = conv_transpose2d_scatter(x, w, b, 2, 1, (8, 8))
        assert np.max(np.abs(out.numpy() - expect)) <= 1e-12

    def test_gradients(self, rng):
        # (x shape, w shape, stride, padding)
        cases = [((1, 2, 3, 3), (2, 3, 3, 3), 2, 1),
                 ((2, 2, 3, 4), (2, 3, 5, 5), 2, 2),
                 ((2, 3, 3, 3), (3, 2, 3, 3), 1, 1)]
        for x_shape, w_shape, stride, padding in cases:
            x = rng.standard_normal(x_shape)
            w = rng.standard_normal(w_shape)
            b = rng.standard_normal(w_shape[1])
            check_gradients(
                lambda ts: (C.conv_transpose2d(ts[0], ts[1], ts[2], stride=stride,
                                               padding=padding) ** 2).sum(),
                [x, w, b])


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.standard_normal((3, 4))
        out = C.linear(Tensor(x), Tensor(np.eye(4)), None)
        np.testing.assert_array_equal(out.numpy(), x)

    def test_direct_arithmetic(self):
        out = C.linear(Tensor(np.array([[1.0, 2.0]])),
                       Tensor(np.array([[1.0, 0.0], [0.0, 1.0]])),
                       Tensor(np.array([3.0, 4.0])))
        np.testing.assert_array_equal(out.numpy(), np.array([[4.0, 6.0]]))

    def test_against_loop_oracle(self, rng):
        a = rng.standard_normal((7, 5))
        w = rng.standard_normal((5, 6))
        out = C.linear(Tensor(a), Tensor(w), None)
        assert np.max(np.abs(out.numpy() - matmul_loop(a, w))) <= 1e-12

    def test_batched_leading_dims(self, rng):
        a = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        out = C.linear(Tensor(a), Tensor(w), Tensor(b))
        assert out.shape == (2, 3, 4)
        np.testing.assert_allclose(out.numpy(), a @ w + b, atol=1e-12)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ShapeError, match="mismatch"):
            C.linear(Tensor(rng.standard_normal((2, 3))),
                     Tensor(rng.standard_normal((4, 5))), None)

    def test_gradients(self, rng):
        a = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        check_gradients(lambda ts: (C.linear(ts[0], ts[1], ts[2]) ** 2).sum(), [a, w, b])


class TestLayerNorm:
    def test_constant_input_is_zero(self):
        x = Tensor(np.full((2, 5), 3.7))
        out = C.layernorm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-12)

    def test_two_point_closed_form(self):
        # mean 2, variance 1: output is +-1/sqrt(1 + eps)
        out = C.layernorm(Tensor(np.array([[1.0, 3.0]])),
                          Tensor(np.ones(2)), Tensor(np.zeros(2)))
        expect = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.numpy(), [[-expect, expect]], atol=1e-12)
        assert abs(expect - 0.9999950000374997) < 1e-15

    def test_gradients(self, rng):
        x = rng.standard_normal((3, 6))
        g = rng.standard_normal(6)
        s = rng.standard_normal(6)
        check_gradients(lambda ts: (C.layernorm(ts[0], ts[1], ts[2]) ** 2).sum(), [x, g, s])


class TestGelu:
    def test_zero(self):
        assert C.gelu(Tensor(np.array(0.0))).item() == 0.0

    def test_known_value(self):
        # 3 * Phi(3) with Phi from the erf oracle
        phi3 = 0.5 * (1.0 + math.erf(3.0 / math.sqrt(2.0)))
        out = C.gelu(Tensor(np.array(3.0))).item()
        assert abs(out - 3.0 * phi3) < 1e-14
        assert abs(out - 2.9959503059) < 1e-6

    def test_gradients(self, rng):
        x = rng.standard_normal((4, 4))
        check_gradients(lambda ts: C.gelu(ts[0]).sum(), [x])


class TestErf:
    """float32 erf is a blocked rational approximation; float64 is scipy's."""

    @staticmethod
    def erf32(x):
        return C.erf(Tensor(x, dtype=np.float32)).numpy()

    def test_float32_error_bound_on_dense_grid(self):
        x = np.linspace(-8.0, 8.0, 2_000_001, dtype=np.float32)
        out = self.erf32(x)
        assert out.dtype == np.float32
        err = np.abs(out.astype(np.float64) - scipy_erf(x.astype(np.float64)))
        assert err.max() <= 5e-7
        assert np.array_equal(self.erf32(-x), -out)
        assert np.abs(out).max() <= 1.0

    def test_float32_infinities_and_nan(self):
        out = self.erf32([np.inf, -np.inf, np.nan])
        assert out[0] == 1.0 and out[1] == -1.0 and np.isnan(out[2])

    def test_float32_strided_input_equals_contiguous(self, rng):
        x = rng.standard_normal((6, 40, 50)).astype(np.float32) * 3
        view = x.transpose(2, 0, 1)[::3, :, 1::2]
        assert not view.flags.c_contiguous
        assert np.array_equal(self.erf32(view), self.erf32(np.ascontiguousarray(view)))

    @pytest.mark.parametrize("n", [0, 1, _ERF_BLOCK - 1, _ERF_BLOCK, _ERF_BLOCK + 1])
    def test_float32_sizes_around_the_block(self, rng, n):
        x = rng.uniform(-5, 5, n).astype(np.float32)
        out = self.erf32(x)
        assert out.shape == (n,)
        np.testing.assert_allclose(out, scipy_erf(x.astype(np.float64)), rtol=0, atol=5e-7)

    def test_float32_scalar(self):
        out = self.erf32(np.float32(0.5))
        assert out.shape == () and abs(float(out) - math.erf(0.5)) <= 5e-7

    def test_float64_is_scipy_bit_for_bit(self, rng):
        x = np.concatenate([rng.standard_normal(10_000) * 4, [0.0, -0.0, np.inf, -np.inf]])
        assert np.array_equal(C.erf(Tensor(x)).numpy(), scipy_erf(x))


class TestSoftmax:
    def test_uniform(self):
        out = C.softmax(Tensor(np.full((1, 4), 2.5)))
        np.testing.assert_allclose(out.numpy(), 0.25, atol=1e-15)

    def test_closed_form(self):
        out = C.softmax(Tensor(np.array([[0.0, math.log(3.0)]])))
        np.testing.assert_allclose(out.numpy(), [[0.25, 0.75]], atol=1e-12)

    def test_large_logit_stays_finite(self):
        out = C.softmax(Tensor(np.array([[0.0, 1e4, 3.0]])))
        assert np.isfinite(out.numpy()).all()
        np.testing.assert_allclose(out.numpy().sum(), 1.0, atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((5, 7, 11)) * 10
        out = C.softmax(Tensor(x)).numpy()
        np.testing.assert_allclose(out.sum(-1), 1.0, atol=1e-6)
        assert (out >= 0).all() and (out <= 1).all()

    def test_gradients(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))
        check_gradients(lambda ts: (C.softmax(ts[0]) * w).sum(), [x])


class TestBackward:
    def test_linear_grad_equals_input(self, rng):
        x = rng.standard_normal(6)
        w = Tensor(rng.standard_normal(6), requires_grad=True)
        loss = (w * Tensor(x)).sum()
        backward(loss)
        np.testing.assert_allclose(w.grad, x, atol=1e-15)

    def test_chain_conv_gelu_linear(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        lw = rng.standard_normal((3, 2))

        def loss_fn(ts):
            h = C.gelu(C.conv2d(ts[0], ts[1], ts[2], stride=1, padding=1))
            h = h.transpose(0, 2, 3, 1).reshape(-1, 3)
            return (C.linear(h, ts[3], None) ** 2).sum()

        check_gradients(loss_fn, [x, w, b, lw])

    def test_first_gradient_write_is_zero_plus_g(self):
        # a first write of -0.0 stores +0.0, as 0.0 + g does
        w = Tensor(np.ones(2), requires_grad=True)
        backward((w * Tensor(np.array([-0.0, 2.0]))).sum())
        assert np.array_equal(w.grad, [0.0, 2.0])
        assert not np.signbit(w.grad).any()

    def test_double_backward_errors(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        loss = (w * w).sum()
        backward(loss)
        with pytest.raises(HideError, match="tape"):
            backward(loss)

    def test_non_scalar_loss_rejected(self, rng):
        w = Tensor(rng.standard_normal(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(w * 2.0)

    def test_broadcast_gradients(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal(3)
        check_gradients(lambda ts: ((ts[0] + ts[1]) * (ts[0] - ts[1])).sum(), [a, b])

    def test_only_leaves_keep_gradients(self, monkeypatch):
        # the walk releases every node's gradient; the leaf gradients are
        # the bytes the walk gave before it released anything
        recorded = []
        real_node = tensor.node

        def recording_node(data, inputs, backward_fn):
            out = real_node(data, inputs, backward_fn)
            if out.requires_grad:
                recorded.append(out)
            return out

        monkeypatch.setattr(tensor, "node", recording_node)
        model = _tiny_model()
        x = np.random.default_rng(1).uniform(0, 1, (2, 3, 64, 64))
        loss, _, _ = model.train_loss(x, np.random.default_rng(2))
        backward(loss)
        assert recorded and all(out.grad is None for out in recorded)
        digest = hashlib.sha256()
        for name, p in model.named_parameters():
            digest.update(name.encode() + (b"-" if p.grad is None else p.grad.tobytes()))
        assert digest.hexdigest() == LEAF_GRADIENT_DIGEST

    def test_peak_stays_near_the_forward_tape(self):
        # 20 recorded ops over a 1 MB array: each node and its gradient go
        # as soon as the walk has passed them, so backward adds a few
        # arrays to the live forward, not one gradient per node
        x = Tensor(np.random.default_rng(0).standard_normal(1 << 17), requires_grad=True)
        tracemalloc.start()
        try:
            h = x
            for _ in range(20):
                h = tensor.tanh(h)
            loss = h.sum()
            forward_bytes, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and h.grad is None
        assert peak < forward_bytes + 6 * x.data.nbytes

    def test_raising_closure_leaves_an_empty_tape(self):
        w = Tensor(np.ones(3), requires_grad=True)

        def fail(g):
            raise RuntimeError("closure failed")

        outs = [tensor.node(w.data * 2.0, (w,), fail)]
        for _ in range(3):
            outs.append(tensor.tanh(outs[-1]))
        loss = outs[-1].sum()
        with pytest.raises(RuntimeError, match="closure failed"):
            backward(loss)
        assert C.tape_size() == 0
        assert w.grad is None and all(o.grad is None for o in outs + [loss])
        backward((w * w).sum())
        assert np.array_equal(w.grad, [2.0, 2.0, 2.0])


def _tiny_model():
    return CompressionModel(ModelConfig(variant="hide", seed=0, M=8, s=2, hyper_channels=4,
                                        C_d=16, N_G=4, N_D=4, heads=2, C_ctx=8))


def _every_op(requires_grad):
    """One call of each op that can record, on inputs of the given kind."""
    rng = np.random.default_rng(0)
    a, b, c = (Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=requires_grad)
               for shape in ((2, 3), (2, 3), (3, 2)))
    x = Tensor(rng.standard_normal((1, 2, 5, 5)), requires_grad=requires_grad)
    w = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=requires_grad)
    bias = Tensor(rng.standard_normal(2), requires_grad=requires_grad)
    return [a + b, a - b, a * b, a / b, a ** 2.0, tensor.matmul(a, c), tensor.exp(a),
            tensor.log(a), tensor.tanh(a), C.erf(a), C.softplus(a), C.round_ste(a), a.sum(),
            a.reshape(3, 2), a.transpose(1, 0), a[0], C.concat([a, b], axis=0),
            C.maximum(a, 1.0), C.minimum(a, 1.0), ops.conv2d(x, w, bias, padding=1),
            ops.conv_transpose2d(x, w, bias, stride=2, padding=1)]


class TestTape:
    def test_every_entry_comes_from_node(self, monkeypatch):
        recorded = []
        real_node = tensor.node

        def counting_node(data, inputs, backward_fn):
            out = real_node(data, inputs, backward_fn)
            if out.requires_grad:
                recorded.append(out)
            return out

        monkeypatch.setattr(tensor, "node", counting_node)
        x = np.random.default_rng(1).uniform(0, 1, (2, 3, 64, 64))
        loss, _, _ = _tiny_model().train_loss(x, np.random.default_rng(2))
        assert C.tape_size() == len(recorded) > 0
        backward(loss)
        assert C.tape_size() == 0

    def test_ops_without_gradients_record_nothing(self):
        outs = _every_op(requires_grad=False)
        assert C.tape_size() == 0 and not any(o.requires_grad for o in outs)
        with C.no_grad():
            outs = _every_op(requires_grad=True)
        assert C.tape_size() == 0 and not any(o.requires_grad for o in outs)
        assert all(o.requires_grad for o in _every_op(requires_grad=True))
        assert C.tape_size() == len(outs)

    def test_codec_records_nothing(self):
        model = _tiny_model()
        image = np.random.default_rng(3).uniform(0, 1, (3, 40, 24))
        encoded = codec.encode_image(model, image)
        assert C.tape_size() == 0
        codec.decode_image(model, encoded.data)
        assert C.tape_size() == 0


class TestDeterminism:
    def test_bit_identical_repeat(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        with C.no_grad():
            a = C.softmax(C.conv2d(Tensor(x), Tensor(w), None, padding=1)
                          .reshape(2, -1)).numpy().copy()
            b = C.softmax(C.conv2d(Tensor(x), Tensor(w), None, padding=1)
                          .reshape(2, -1)).numpy().copy()
        assert np.array_equal(a, b)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        theta = np.array([1.0, -2.0])
        out, m, v = C.adam_step(theta, np.zeros(2), np.zeros(2), np.zeros(2), 1, lr=0.1)
        np.testing.assert_array_equal(out, theta)

    def test_single_step_unit_gradient(self):
        # bias correction makes m_hat/sqrt(v_hat) = 1 at t=1
        theta, _, _ = C.adam_step(np.array([0.5]), np.array([1.0]),
                                  np.zeros(1), np.zeros(1), 1, lr=0.1)
        assert abs((0.5 - theta[0]) - 0.1) < 1e-7

    def test_converges_on_quadratic(self):
        theta = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for t in range(1, 101):
            grad = 2.0 * theta
            theta, m, v = C.adam_step(theta, grad, m, v, t, lr=0.1)
        assert abs(theta[0]) < 0.05

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_matches_adam_step_bitwise(self, rng, dtype):
        shapes = {"a": (3, 4, 5), "b": (7,), "c": ()}
        params = {n: Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype)
                  for n, s in shapes.items()}
        ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for n, p in params.items()}
        opt = C.Adam(list(params.items()), lr=3e-3)
        for t in range(1, 6):
            if t == 4:
                opt.lr = 3e-4
            for n, p in params.items():
                if n == "b" and t == 2:
                    p.grad = None                    # skipped this step
                    continue
                p.grad = (rng.standard_normal(shapes[n]) * 10.0 ** rng.integers(-6, 3)
                          ).astype(dtype)
            opt.step()
            for n, p in params.items():
                if p.grad is None:
                    continue
                ref[n] = C.adam_step(*ref[n][:1], p.grad, *ref[n][1:], t, opt.lr)
                assert p.data.dtype == dtype
                assert np.array_equal(p.data, ref[n][0])
                assert np.array_equal(opt._state[n][0], ref[n][1])
                assert np.array_equal(opt._state[n][1], ref[n][2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_match_adam_step_bitwise(self, rng, dtype):
        from hide.core.adam import BLOCK
        sizes = {"a": 1, "b": BLOCK - 1, "c": BLOCK, "d": BLOCK + 1, "e": 3 * BLOCK}
        params = {n: Tensor(rng.standard_normal(s), requires_grad=True, dtype=dtype)
                  for n, s in sizes.items()}
        ref = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for n, p in params.items()}
        opt = C.Adam(list(params.items()), lr=1e-3)
        for t in range(1, 4):
            for n, p in params.items():
                skip = n == "d" and t == 2
                p.grad = None if skip else rng.standard_normal(sizes[n]).astype(dtype)
            opt.step()
            for n, p in params.items():
                if p.grad is not None:
                    ref[n] = C.adam_step(*ref[n][:1], p.grad, *ref[n][1:], t, opt.lr)
                assert p.data.dtype == dtype
                assert p.data.tobytes() == ref[n][0].tobytes()
                assert opt._state[n][0].tobytes() == ref[n][1].tobytes()
                assert opt._state[n][1].tobytes() == ref[n][2].tobytes()

    def test_duplicate_parameter_name_rejected(self):
        from hide.core.nn import Parameter
        with pytest.raises(HideError, match="twice"):
            C.Adam([("a", Parameter(np.zeros(1))), ("a", Parameter(np.ones(1)))], lr=1e-3)

    def test_optimizer_class_drives_model(self, rng):
        from hide.core.nn import Module, Parameter

        class Toy(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.array([3.0]))

        model = Toy()
        opt = C.Adam(model.named_parameters(), lr=0.05)
        for _ in range(200):
            opt.zero_grad()
            loss = (model.w * model.w).sum()
            backward(loss)
            opt.step()
        assert abs(model.w.numpy()[0]) < 0.05
