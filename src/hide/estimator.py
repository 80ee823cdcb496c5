"""Entropy parameter estimation heads.

The context-aware estimator projects the aggregated context to a lower
dimension, runs three parallel conv branches with 3/5/7 kernels, fuses
them with a 1x1 conv, and feeds task-specific stacked-3x3 heads for the
mean, the scale, and the quantization-residual estimate.  The shallow
estimator (two stacked 1x1 convs) is the fixed-receptive-field baseline
it is compared against.

Scale outputs are mapped to [SIGMA_MIN, SIGMA_MAX] via softplus plus
clamp; residual outputs are bounded to [-0.5, 0.5] through 0.5*tanh,
matching the worst case of rounding error.
"""

from __future__ import annotations

import numpy as np

from .constants import SIGMA_MAX, SIGMA_MIN
from .core import nn, ops
from .core import tensor as T
from .core.tensor import Tensor

HEAD_WIDTH = 32


def scale_map(raw: Tensor) -> Tensor:
    """sigma = SIGMA_MIN + softplus(raw), clamped to SIGMA_MAX."""
    return T.minimum(T.add(T.softplus(raw), SIGMA_MIN), SIGMA_MAX)


def residual_map(raw: Tensor) -> Tensor:
    """Bounded quantization-error estimate, |r| <= 0.5 elementwise."""
    return T.mul(T.tanh(raw), 0.5)


class ContextExtractor(nn.Module):
    """1x1 projection, parallel 3/5/7 branches, 1x1 fusion."""

    def __init__(self, c_in: int, rng: np.random.Generator):
        super().__init__()
        self.c_mid = max(c_in // 2, 1)
        self.proj = nn.Conv2d(c_in, self.c_mid, 1, rng)
        self.branch3 = nn.Conv2d(self.c_mid, self.c_mid, 3, rng, padding=1)
        self.branch5 = nn.Conv2d(self.c_mid, self.c_mid, 5, rng, padding=2)
        self.branch7 = nn.Conv2d(self.c_mid, self.c_mid, 7, rng, padding=3)
        self.fuse = nn.Conv2d(3 * self.c_mid, self.c_mid, 1, rng)

    def __call__(self, s: Tensor) -> Tensor:
        proj = self.proj(s)
        branches = [ops.gelu(self.branch3(proj)),
                    ops.gelu(self.branch5(proj)),
                    ops.gelu(self.branch7(proj))]
        return self.fuse(T.concat(branches, axis=1))


class ConvHead(nn.Module):
    """Two stacked 3x3 convolutions with a GELU between."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator):
        super().__init__()
        self.first = nn.Conv2d(c_in, HEAD_WIDTH, 3, rng, padding=1)
        self.second = nn.Conv2d(HEAD_WIDTH, c_out, 3, rng, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        return self.second(ops.gelu(self.first(x)))


class ContextAwareEstimator(nn.Module):
    """Predicts (mean, scale) for one slice from the aggregated context."""

    def __init__(self, c_in: int, c_slice: int, rng: np.random.Generator):
        super().__init__()
        self.extractor = ContextExtractor(c_in, rng)
        self.head_mean = ConvHead(self.extractor.c_mid, c_slice, rng)
        self.head_scale = ConvHead(self.extractor.c_mid, c_slice, rng)

    def __call__(self, s: Tensor):
        ctx = self.extractor(s)
        return self.head_mean(ctx), scale_map(self.head_scale(ctx))


class ContextAwareResidual(nn.Module):
    """Predicts the bounded quantization residual; own extractor, extra input."""

    def __init__(self, c_in: int, c_slice: int, rng: np.random.Generator):
        super().__init__()
        self.extractor = ContextExtractor(c_in, rng)
        self.head = ConvHead(self.extractor.c_mid, c_slice, rng)

    def __call__(self, s: Tensor) -> Tensor:
        return residual_map(self.head(self.extractor(s)))


class ShallowEstimator(nn.Module):
    """Two stacked 1x1 convs with GELU; the fixed-receptive-field baseline."""

    def __init__(self, c_in: int, c_slice: int, rng: np.random.Generator):
        super().__init__()
        self.c_slice = c_slice
        c_mid = max(c_in // 2, 1)
        self.first = nn.Conv2d(c_in, c_mid, 1, rng)
        self.second = nn.Conv2d(c_mid, 2 * c_slice, 1, rng)

    def __call__(self, s: Tensor):
        out = self.second(ops.gelu(self.first(s)))
        mean = out[:, :self.c_slice]
        return mean, scale_map(out[:, self.c_slice:])


class ShallowResidual(nn.Module):
    def __init__(self, c_in: int, c_slice: int, rng: np.random.Generator):
        super().__init__()
        c_mid = max(c_in // 2, 1)
        self.first = nn.Conv2d(c_in, c_mid, 1, rng)
        self.second = nn.Conv2d(c_mid, c_slice, 1, rng)

    def __call__(self, s: Tensor) -> Tensor:
        return residual_map(self.second(ops.gelu(self.first(s))))
