"""Module/Parameter containers and standard layers.

Parameters are registered by attribute assignment.  ``named_parameters``
names each one by the dotted path of attribute keys that leads to it;
checkpoints and optimizer state use those names.  Layers build float64
parameters; a model casts them to its own dtype once, after building.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..errors import HideError, ShapeError
from . import ops
from .tensor import Tensor


class Parameter(Tensor):
    """Trainable tensor, registered by assignment to a Module attribute."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Tree of submodules and parameters with dotted-name traversal."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for key, p in self._params.items():
            yield (f"{prefix}{key}", p)
        for key, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_arrays(self) -> dict:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state_arrays(self, arrays: dict) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(arrays):
            missing = sorted(set(own) - set(arrays))
            extra = sorted(set(arrays) - set(own))
            raise HideError(f"state mismatch; missing={missing[:4]} extra={extra[:4]}")
        for name, p in own.items():
            arr = arrays[name]
            if tuple(arr.shape) != tuple(p.shape):
                raise ShapeError(f"parameter {name!r}: stored shape {arr.shape} != model {p.shape}")
            p.data = np.asarray(arr, dtype=p.dtype)


class ModuleList(Module):
    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for m in modules:
            self.append(m)

    def append(self, module: Module):
        idx = len(self._items)
        self._items.append(module)
        self._modules[str(idx)] = module
        return module

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    """Bias-free linear map x @ weight."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        super().__init__()
        self.weight = Parameter(kaiming_uniform(rng, (d_in, d_out), d_in))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight)


class Conv2d(Module):
    def __init__(self, c_in: int, c_out: int, k: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(kaiming_uniform(rng, (c_out, c_in, k, k), c_in * k * k))
        self.bias = Parameter(np.zeros(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    def __init__(self, c_in: int, c_out: int, k: int, rng: np.random.Generator,
                 stride: int = 1, padding: int = 0):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(kaiming_uniform(rng, (c_in, c_out, k, k), c_in * k * k))
        self.bias = Parameter(np.zeros(c_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv_transpose2d(x, self.weight, self.bias,
                                    stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    def __init__(self, c: int):
        super().__init__()
        self.gain = Parameter(np.ones(c))
        self.shift = Parameter(np.zeros(c))

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layernorm(x, self.gain, self.shift)
