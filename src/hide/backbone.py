"""Toy analysis/synthesis transforms and hyper transforms.

A small stand-in backbone suited to desk-scale experiments: four
stride-2 stages with GELU and one residual block each on the analysis
side, mirrored transposed convolutions on the synthesis side, and a
two-stage hyper path.  Input spatial dims must be divisible by 64
(4 + 2 stride-2 stages); the codec pads and crops around this.
"""

from __future__ import annotations

import numpy as np

from .core import nn, ops
from .core import tensor as T
from .core.tensor import Tensor

WIDTHS = (24, 32, 48)
SPATIAL_FACTOR = 64  # 4 analysis stages * 2 hyper stages, stride 2 each


class ResidualBlock(nn.Module):
    def __init__(self, c: int, rng: np.random.Generator):
        super().__init__()
        self.first = nn.Conv2d(c, c, 3, rng, padding=1)
        self.second = nn.Conv2d(c, c, 3, rng, padding=1)

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(self.second(ops.gelu(self.first(x))), x)


class AnalysisTransform(nn.Module):
    """Image [B,3,H,W] -> latents [B,M,H/16,W/16]."""

    def __init__(self, latent_channels: int, rng: np.random.Generator):
        super().__init__()
        chans = (3,) + WIDTHS + (latent_channels,)
        downs, blocks = [], []
        for c_in, c_out in zip(chans[:-1], chans[1:]):
            downs.append(nn.Conv2d(c_in, c_out, 3, rng, stride=2, padding=1))
            blocks.append(ResidualBlock(c_out, rng))
        self.downs = nn.ModuleList(downs)
        self.blocks = nn.ModuleList(blocks)

    def __call__(self, x: Tensor) -> Tensor:
        for down, block in zip(self.downs, self.blocks):
            x = block(ops.gelu(down(x)))
        return x


class SynthesisTransform(nn.Module):
    """Refined latents [B,M,h,w] -> image [B,3,16h,16w]."""

    def __init__(self, latent_channels: int, rng: np.random.Generator):
        super().__init__()
        chans = (latent_channels,) + WIDTHS[::-1] + (3,)
        ups, blocks = [], []
        for c_in, c_out in zip(chans[:-2], chans[1:-1]):
            ups.append(nn.ConvTranspose2d(c_in, c_out, 3, rng, stride=2, padding=1))
            blocks.append(ResidualBlock(c_out, rng))
        ups.append(nn.ConvTranspose2d(chans[-2], chans[-1], 3, rng, stride=2, padding=1))
        self.ups = nn.ModuleList(ups)
        self.blocks = nn.ModuleList(blocks)

    def __call__(self, y_bar: Tensor) -> Tensor:
        x = y_bar
        for up, block in zip(self.ups, self.blocks):
            x = block(ops.gelu(up(x)))
        return self.ups[-1](x)


class HyperAnalysis(nn.Module):
    """Latents -> hyper latents, two stride-2 stages."""

    def __init__(self, latent_channels: int, hyper_channels: int, rng: np.random.Generator):
        super().__init__()
        self.first = nn.Conv2d(latent_channels, WIDTHS[0], 3, rng, stride=2, padding=1)
        self.second = nn.Conv2d(WIDTHS[0], hyper_channels, 3, rng, stride=2, padding=1)

    def __call__(self, y: Tensor) -> Tensor:
        return self.second(ops.gelu(self.first(y)))


class HyperSynthesis(nn.Module):
    """Decoded hyper latents -> hyper context at latent resolution."""

    def __init__(self, hyper_channels: int, ctx_channels: int, rng: np.random.Generator):
        super().__init__()
        self.first = nn.ConvTranspose2d(hyper_channels, WIDTHS[1], 3, rng,
                                        stride=2, padding=1)
        self.second = nn.ConvTranspose2d(WIDTHS[1], 2 * ctx_channels, 3, rng,
                                         stride=2, padding=1)

    def __call__(self, z_hat: Tensor) -> Tensor:
        return self.second(ops.gelu(self.first(z_hat)))
