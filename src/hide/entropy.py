"""Slice-wise conditional-Gaussian entropy model.

The latent map is split into channel slices coded autoregressively:
slice i sees the hyper context plus the refined reconstructions of all
earlier slices, never later ones.  Per slice the pipeline is

    aggregate -> dictionary retrieval -> estimate (mu, sigma)
    -> quantize -> likelihood/rate -> residual refinement

Training uses additive uniform noise for the rate term and hard
rounding with straight-through gradients for the distortion path; the
codec path is fully deterministic so the decoder can recompute every
entropy parameter bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from . import coder
from .attention import HierarchicalDictContext, SingleDictContext
from .constants import P_MIN, SYMBOL_MAX, SYMBOL_MIN
from .core import nn, ops
from .core import tensor as T
from .core.tensor import Tensor
from .errors import ShapeError
from .estimator import (
    ContextAwareEstimator,
    ContextAwareResidual,
    ShallowEstimator,
    ShallowResidual,
    scale_map,
)

_LN2 = float(np.log(2.0))


def channel_split(total: int, slices: int) -> List[int]:
    base, rem = divmod(total, slices)
    return [base + (1 if i < rem else 0) for i in range(slices)]


def quantize(y: Tensor, mu: Tensor):
    """Round a latent slice about its mean: (y_hat, symbols) with
    m = clamp(round(y - mu), SYMBOL_MIN, SYMBOL_MAX) and y_hat = m + mu,
    with straight-through gradients through the rounding."""
    if y.shape != mu.shape:
        raise ShapeError(f"quantize shape mismatch: {y.shape} vs {mu.shape}")
    centered = T.sub(y, mu)
    m = T.round_ste(centered, SYMBOL_MIN, SYMBOL_MAX)
    y_hat = T.add(m, mu)
    return y_hat, m.numpy().astype(np.int64)


def add_noise(y: Tensor, rng: np.random.Generator) -> Tensor:
    """y + u with u ~ U(-0.5, 0.5): the training stand-in for rounding."""
    u = rng.uniform(-0.5, 0.5, size=y.shape).astype(y.dtype)
    return T.add(y, Tensor(u, dtype=y.dtype))


def likelihood(value: Tensor, mu: Tensor, sigma: Tensor) -> Tensor:
    """Discretized Gaussian mass of the unit bin around value, floored at P_MIN."""
    centered = T.sub(value, mu)
    upper = ops.gaussian_cdf(T.div(T.add(centered, 0.5), sigma))
    lower = ops.gaussian_cdf(T.div(T.sub(centered, 0.5), sigma))
    return T.maximum(T.sub(upper, lower), P_MIN)


def snap_scale(sigma: Tensor):
    """(index, snapped sigma): the coder's scale-table row of each sigma,
    and that table value in sigma's own dtype."""
    index = coder.scale_index(sigma.numpy())
    return index, Tensor(coder.SCALE_TABLE[index], dtype=sigma.dtype)


def rate_bits(p: Tensor) -> Tensor:
    """Total information content sum(-log2 p); differentiable."""
    return T.mul(T.tsum(T.log(p)), -1.0 / _LN2)


def mse_255(x: Tensor, x_hat: Tensor) -> Tensor:
    """MSE in 255-scaled units over pixels given in [0, 1]."""
    diff = T.mul(T.sub(x, x_hat), 255.0)
    return T.tmean(T.mul(diff, diff))


def rd_loss(bpp: Tensor, mse: Tensor, lam: float) -> Tensor:
    """L = bits-per-pixel + lambda * distortion."""
    if lam <= 0:
        raise ShapeError("lambda must be positive")
    return T.add(bpp, T.mul(mse, lam))


class ChannelPrior(nn.Module):
    """Per-channel discretized Gaussian with learned constants for the
    hyper latent, and the one owner of how that latent is coded: means
    are free-floating, so coding absorbs each mean's integer offset into
    the symbol and keeps its fraction in the channel's cdf row."""

    def __init__(self, channels: int):
        super().__init__()
        self.mean = nn.Parameter(np.zeros(channels))
        # softplus(0.55) + SIGMA_MIN ~= 1.0
        self.scale_raw = nn.Parameter(np.full(channels, 0.55))

    def sigma(self) -> Tensor:
        return scale_map(self.scale_raw)

    def _offsets(self) -> np.ndarray:
        """Each mean's integer part, shaped [1, C, 1, 1] to broadcast over z."""
        return np.floor(self.mean.numpy()).astype(np.int64).reshape(1, -1, 1, 1)

    def quantize(self, z: Tensor):
        """(symbols, z_hat): symbols = clamp(round(z) - offset), z_hat = symbols + offset."""
        symbols = np.clip(np.rint(z.numpy()) - self._offsets(), SYMBOL_MIN, SYMBOL_MAX)
        symbols = symbols.astype(np.int64)
        return symbols, self.dequantize(symbols, z.dtype)

    def dequantize(self, symbols: np.ndarray, dtype) -> Tensor:
        """The z_hat that decoded symbols stand for, in dtype."""
        return Tensor((symbols + self._offsets()).astype(dtype), dtype=dtype)

    def rate(self, z: Tensor) -> Tensor:
        """Information content of z in bits under the prior; differentiable."""
        mu = self.mean.reshape(1, -1, 1, 1)
        sigma = self.sigma().reshape(1, -1, 1, 1)
        return rate_bits(likelihood(z, mu, sigma))

    def cdf_rows(self) -> np.ndarray:
        """One coder cdf row per channel, from its mean's fraction and sigma."""
        mu = self.mean.numpy().astype(np.float64)
        with T.no_grad():   # sigma() is differentiable; recorded, its nodes stay on the tape
            sigma = self.sigma().numpy().astype(np.float64)
        return coder.build_cdf_batch(mu - np.floor(mu), sigma)


@dataclass
class SliceRecord:
    """Per-slice codec internals, kept for consistency checks and analysis."""
    mu: np.ndarray
    sigma: np.ndarray
    scale_index: np.ndarray     # coder.SCALE_CDFS row of each symbol
    symbols: np.ndarray
    y_hat: np.ndarray
    likelihood: np.ndarray      # bin mass of each y_hat, the rate's one source
    bits: float
    attn_global: Optional[np.ndarray] = None
    attn_detail: Optional[np.ndarray] = None


@dataclass
class LatentBundle:
    slices: List[SliceRecord] = field(default_factory=list)
    y_bar: Optional[Tensor] = None
    total_bits: float = 0.0


# What each variant builds: (dictionary context, estimator, residual head).
VARIANT_MODULES = {
    "baseline": (SingleDictContext, ShallowEstimator, ShallowResidual),
    "hd": (HierarchicalDictContext, ShallowEstimator, ShallowResidual),
    "cape": (SingleDictContext, ContextAwareEstimator, ContextAwareResidual),
    "hide": (HierarchicalDictContext, ContextAwareEstimator, ContextAwareResidual),
}


class SliceEntropyModel(nn.Module):
    """Context aggregation, retrieval, and estimation for all slices;
    VARIANT_MODULES[variant] names the retrieval and estimation modules.
    The build order (per slice: aggregator, estimator, residual head; then
    the dictionary context) fixes the rng draws of a seeded model."""

    def __init__(self, latent_channels: int, num_slices: int, ctx_channels: int,
                 hyper_ctx_channels: int, rng: np.random.Generator, *, variant: str,
                 dict_dim: int, n_global: int, n_detail: int, heads: int):
        super().__init__()
        dict_context, estimator, residual = VARIANT_MODULES[variant]
        self.split = channel_split(latent_channels, num_slices)

        agg = []
        estimators = []
        residuals = []
        for i in range(num_slices):
            decoded_c = sum(self.split[:i])
            c_in = hyper_ctx_channels + decoded_c
            agg.append(_Aggregator(c_in, ctx_channels, rng))
            est_in = hyper_ctx_channels + decoded_c + ctx_channels
            lrp_in = est_in + self.split[i]
            estimators.append(estimator(est_in, self.split[i], rng))
            residuals.append(residual(lrp_in, self.split[i], rng))
        self.agg = nn.ModuleList(agg)
        self.estimators = nn.ModuleList(estimators)
        self.residuals = nn.ModuleList(residuals)
        self.dict_ctx = dict_context(
            num_slices, ctx_channels, dict_dim, n_global, n_detail, heads, rng)

    # -- shared per-slice computation (identical on both codec sides) ----
    def _slices(self, y: Tensor) -> List[Tensor]:
        """y cut along channels into the split's slices."""
        ends = np.cumsum(self.split).tolist()
        return [y[:, end - c:end] for c, end in zip(self.split, ends)]

    def slice_params(self, i: int, hyper_ctx: Tensor, decoded: List[Tensor],
                     keep_attention: bool = False):
        parts = [hyper_ctx] + decoded
        x_i = self.agg[i](T.concat(parts, axis=1) if len(parts) > 1 else hyper_ctx)
        retrieved = self.dict_ctx.forward_slice(i, x_i, keep_attention=keep_attention)
        s = T.concat(parts + [retrieved.fused], axis=1)
        mu, sigma = self.estimators[i](s)
        return mu, sigma, s, retrieved

    def slice_residual(self, i: int, s: Tensor, y_hat: Tensor) -> Tensor:
        return self.residuals[i](T.concat([s, y_hat], axis=1))

    # -- passes ----------------------------------------------------------
    def codec_pass(self, hyper_ctx: Tensor, y: Optional[Tensor] = None,
                   symbol_source=None, keep_attention: bool = False) -> LatentBundle:
        """Deterministic round-mode pass shared by encoder and decoder.

        When encoding, ``y`` supplies the latents to quantize.  When
        decoding, ``symbol_source(i, index)`` returns the slice's integer
        symbols, shaped like ``index``, decoded from the bitstream under
        the scale-table rows ``index``.  Every sigma is snapped to the
        coder's scale table first, so the rate estimate, the records and
        the coded rows all use the same scale.
        """
        if (y is None) == (symbol_source is None):
            raise ShapeError("codec_pass needs exactly one of y or symbol_source")
        bundle = LatentBundle()
        decoded: List[Tensor] = []
        y_slices = None if y is None else self._slices(y)
        for i in range(len(self.split)):
            mu, sigma, s, retrieved = self.slice_params(
                i, hyper_ctx, decoded, keep_attention=keep_attention)
            index, sigma = snap_scale(sigma)
            if y_slices is not None:
                _, m = quantize(y_slices[i], mu)
            else:
                m = symbol_source(i, index)
            y_hat = T.add(Tensor(m.astype(mu.dtype), dtype=mu.dtype), mu)
            r = self.slice_residual(i, s, y_hat)
            y_bar = T.add(y_hat, r)
            p = likelihood(y_hat, mu, sigma)
            bits = float(rate_bits(p).numpy())
            bundle.slices.append(SliceRecord(
                mu=mu.numpy(), sigma=sigma.numpy(), scale_index=index, symbols=m,
                y_hat=y_hat.numpy(), likelihood=p.numpy(), bits=bits,
                attn_global=retrieved.attn_global, attn_detail=retrieved.attn_detail))
            bundle.total_bits += bits
            decoded.append(y_bar)
        bundle.y_bar = T.concat(decoded, axis=1)
        return bundle

    def training_pass(self, y: Tensor, hyper_ctx: Tensor,
                      rng: np.random.Generator, recon_mode: str = "ste"):
        """Differentiable pass: noisy rate term plus a reconstruction path.

        recon_mode "ste" rounds with straight-through gradients (training
        default, matches the codec); "noise" keeps the reconstruction path
        on the noisy relaxation too, which makes the whole loss smooth for
        finite-difference gradient checks.
        """
        rate_total = None
        decoded: List[Tensor] = []
        for i, y_i in enumerate(self._slices(y)):
            mu, sigma, s, _ = self.slice_params(i, hyper_ctx, decoded)
            noisy = add_noise(y_i, rng)
            p = likelihood(noisy, mu, sigma)
            r_bits = rate_bits(p)
            rate_total = r_bits if rate_total is None else T.add(rate_total, r_bits)
            if recon_mode == "ste":
                y_hat, _ = quantize(y_i, mu)
            else:
                y_hat = noisy
            r = self.slice_residual(i, s, y_hat)
            decoded.append(T.add(y_hat, r))
        return T.concat(decoded, axis=1), rate_total


class _Aggregator(nn.Module):
    """Slice context aggregation: 1x1 conv, GELU, 3x3 conv to ctx channels."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        super().__init__()
        self.pre = nn.Conv2d(c_in, c_out, 1, rng)
        self.post = nn.Conv2d(c_out, c_out, 3, rng, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        return self.post(ops.gelu(self.pre(x)))
