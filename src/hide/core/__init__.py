"""Deterministic tensor engine, layers, optimizer, checkpoint format."""

from .tensor import (
    Tensor,
    backward,
    clear_tape,
    concat,
    erf,
    maximum,
    minimum,
    no_grad,
    round_ste,
    softplus,
    tape_size,
)
from .ops import (
    conv2d,
    conv_transpose2d,
    gaussian_cdf,
    gelu,
    layernorm,
    linear,
    softmax,
)
from .nn import Conv2d, ConvTranspose2d, LayerNorm, Linear, Module, ModuleList, Parameter
from .adam import Adam, adam_step
from .checkpoint import load_checkpoint, save_checkpoint

__all__ = [
    "Tensor", "backward", "clear_tape", "concat", "erf", "maximum", "minimum",
    "no_grad", "round_ste", "softplus", "tape_size",
    "conv2d", "conv_transpose2d", "gaussian_cdf", "gelu", "layernorm", "linear",
    "softmax",
    "Conv2d", "ConvTranspose2d", "LayerNorm", "Linear", "Module", "ModuleList",
    "Parameter",
    "Adam", "adam_step", "load_checkpoint", "save_checkpoint",
]
