"""Full compression model: transforms, priors, entropy model, losses."""

from __future__ import annotations

import numpy as np

from .backbone import AnalysisTransform, HyperAnalysis, HyperSynthesis, SynthesisTransform
from .config import ModelConfig, parse_config_text
from .core import checkpoint as ckpt
from .core import nn
from .core import tensor as T
from .core.tensor import Tensor
from .entropy import ChannelPrior, SliceEntropyModel, add_noise, mse_255, rd_loss
from .errors import ConfigError, HideError


class CompressionModel(nn.Module):
    """Variant-configurable codec model; deterministic given (config, seed)."""

    def __init__(self, config: ModelConfig):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.analysis = AnalysisTransform(config.M, rng)
        self.synthesis = SynthesisTransform(config.M, rng)
        self.hyper_analysis = HyperAnalysis(config.M, config.hyper_channels, rng)
        self.hyper_synthesis = HyperSynthesis(config.hyper_channels, config.C_ctx, rng)
        self.hyper_prior = ChannelPrior(config.hyper_channels)
        self.entropy = SliceEntropyModel(
            config.M, config.s, config.C_ctx, 2 * config.C_ctx, rng,
            variant=config.variant, dict_dim=config.C_d, n_global=config.N_G,
            n_detail=config.N_D, heads=config.heads)
        # layers build float64 parameters; cast each once to the model's
        # dtype, which the forward pass then follows from its input
        for p in self.parameters():
            p.data = p.data.astype(self.dtype, copy=False)

    # -- helpers ---------------------------------------------------------
    @property
    def dtype(self):
        return np.dtype(self.config.dtype)

    def as_input(self, x: np.ndarray) -> Tensor:
        arr = np.asarray(x, dtype=self.dtype)
        if arr.ndim == 3:
            arr = arr[None]
        return Tensor(arr, dtype=self.dtype)

    # -- training --------------------------------------------------------
    def train_loss(self, x: np.ndarray, rng: np.random.Generator,
                   recon_mode: str = "ste"):
        """RD loss over a batch of [B,3,H,W] images in [0, 1].

        Returns (loss, bpp_estimate, mse) tensors; loss is built from
        the returned bpp and mse nodes.  recon_mode "ste" rounds the
        reconstruction path with straight-through gradients; "noise"
        keeps every path smooth for finite-difference checks.
        """
        if recon_mode not in ("ste", "noise"):
            raise HideError(f"recon_mode must be 'ste' or 'noise', got {recon_mode!r}")
        xt = self.as_input(x)
        batch, _, height, width = xt.shape
        num_pixels = batch * height * width

        y = self.analysis(xt)
        z = self.hyper_analysis(y)

        z_noisy = add_noise(z, rng)
        z_hat = T.round_ste(z) if recon_mode == "ste" else z_noisy
        rate_z = self.hyper_prior.rate(z_noisy)

        hyper_ctx = self.hyper_synthesis(z_hat)
        y_bar, rate_y = self.entropy.training_pass(y, hyper_ctx, rng,
                                                   recon_mode=recon_mode)
        x_hat = self.synthesis(y_bar)
        bpp = T.mul(T.add(rate_y, rate_z), 1.0 / num_pixels)
        mse = mse_255(xt, x_hat)
        return rd_loss(bpp, mse, self.config.lam), bpp, mse

    # -- deterministic codec-side forward ---------------------------------
    def encode_forward(self, x: np.ndarray, keep_attention: bool = False):
        """Round-mode forward for the encoder; returns all codec internals."""
        with T.no_grad():
            xt = self.as_input(x)
            y = self.analysis(xt)
            z_sym, z_hat = self.hyper_prior.quantize(self.hyper_analysis(y))
            hyper_ctx = self.hyper_synthesis(z_hat)
            bundle = self.entropy.codec_pass(hyper_ctx, y=y,
                                             keep_attention=keep_attention)
            x_hat = self.synthesis(bundle.y_bar)
            z_bits = float(self.hyper_prior.rate(z_hat).numpy())
        return {
            "y": y.numpy(), "z_symbols": z_sym, "z_hat": z_hat.numpy(),
            "z_bits": z_bits, "bundle": bundle, "x_hat": x_hat.numpy(),
        }

    def decode_forward(self, z_symbols: np.ndarray, symbol_source):
        """Round-mode forward for the decoder, given decoded hyper symbols
        and a per-slice symbol source."""
        with T.no_grad():
            z_hat = self.hyper_prior.dequantize(z_symbols, self.dtype)
            hyper_ctx = self.hyper_synthesis(z_hat)
            bundle = self.entropy.codec_pass(hyper_ctx, symbol_source=symbol_source)
            x_hat = self.synthesis(bundle.y_bar)
        return {"bundle": bundle, "x_hat": x_hat.numpy()}

    # -- component accounting ---------------------------------------------
    def component_counts(self) -> dict:
        counts = {
            "analysis": self.analysis.parameter_count(),
            "synthesis": self.synthesis.parameter_count(),
            "hyper_analysis": self.hyper_analysis.parameter_count(),
            "hyper_synthesis": self.hyper_synthesis.parameter_count(),
            "hyper_prior": self.hyper_prior.parameter_count(),
            "aggregation": self.entropy.agg.parameter_count(),
            "dictionary_context": self.entropy.dict_ctx.parameter_count(),
            "estimator": (self.entropy.estimators.parameter_count()
                          + self.entropy.residuals.parameter_count()),
        }
        counts["total"] = sum(v for k, v in counts.items())
        return counts

    # -- persistence --------------------------------------------------------
    def save(self, path: str) -> None:
        ckpt.save_checkpoint(path, self.state_arrays(), self.config.to_text())


def load_model(path: str) -> CompressionModel:
    arrays, config_text = ckpt.load_checkpoint(path)
    if not config_text:
        raise ConfigError(f"checkpoint {path} carries no configuration record")
    config = parse_config_text(config_text)
    model = CompressionModel(config)
    model.load_state_arrays(arrays)
    return model
