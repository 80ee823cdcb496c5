"""Model configuration: flat key=value text files, canonical hashing.

Config keys use the architecture's own names (M, s, C_d, ...), each on
at most one line.  The "lambda" key maps to the ``lam`` attribute
because of the Python keyword; ``lam`` itself is not a key.  The
variant selects which modules a model instantiates: baseline, hd (the
hierarchical dictionaries), cape (the context-aware estimator) or hide
(both).  ``entropy.VARIANT_MODULES`` is the table of what each builds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .backbone import SPATIAL_FACTOR
from .errors import ConfigError

VARIANTS = ("baseline", "hd", "cape", "hide")

_VARIANT_ALIASES = {
    "baseline": "baseline",
    "hd": "hd", "+hd": "hd",
    "cape": "cape", "+cape": "cape",
    "hide": "hide", "hd+cape": "hide",
}

_ATTR_TO_KEY = {"lam": "lambda"}
# integer keys that count something and must be at least 1
_SIZE_KEYS = ("M", "s", "hyper_channels", "C_d", "N_G", "N_D", "heads", "C_ctx",
              "steps", "batch_size")


def normalize_variant(name: str) -> str:
    v = _VARIANT_ALIASES.get(name.strip().lower())
    if v is None:
        raise ConfigError(f"unknown variant {name!r}; expected one of {VARIANTS}")
    return v


@dataclass
class ModelConfig:
    variant: str = "hide"
    seed: int = 0
    M: int = 32                 # latent channels
    s: int = 4                  # channel slices
    hyper_channels: int = 16
    C_d: int = 128              # dictionary entry dimension
    N_G: int = 64               # global dictionary entries
    N_D: int = 64               # detail dictionary entries
    heads: int = 4
    C_ctx: int = 64             # slice context channels
    lam: float = 0.0035
    dtype: str = "float64"
    steps: int = 500
    batch_size: int = 4
    lr: float = 1e-4
    lr_drop_frac: float = 0.8   # lr decays x0.1 at this fraction of steps
    patch_size: int = 64

    def __post_init__(self):
        self.variant = normalize_variant(self.variant)
        for key in _SIZE_KEYS:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        for attr in ("lam", "lr"):
            value = getattr(self, attr)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{_ATTR_TO_KEY.get(attr, attr)} must be positive "
                                  f"and finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")
        if not 0 < self.lr_drop_frac <= 1:
            raise ConfigError(f"lr_drop_frac must lie in (0, 1], got {self.lr_drop_frac}")
        if self.patch_size < 1 or self.patch_size % SPATIAL_FACTOR:
            raise ConfigError(f"patch_size must be a positive multiple of {SPATIAL_FACTOR}, "
                              f"got {self.patch_size}")
        if self.M < self.s:
            raise ConfigError(f"need 1 <= s <= M, got s={self.s}, M={self.M}")
        if self.C_d % self.heads != 0:
            raise ConfigError(f"C_d={self.C_d} must be divisible by heads={self.heads}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")

    def to_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: _ATTR_TO_KEY.get(f.name, f.name)):
            key = _ATTR_TO_KEY.get(f.name, f.name)
            lines.append(f"{key}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> bytes:
        return hashlib.sha256(self.to_text().encode("utf-8")).digest()[:8]


def parse_config_text(text: str) -> ModelConfig:
    """The default ModelConfig with the file's key=value lines applied."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"config lines {values[key][1]} and {lineno} both set {key}")
        values[key] = (value, lineno)
    defaults = ModelConfig()
    kwargs = {}
    for f in fields(ModelConfig):
        key = _ATTR_TO_KEY.get(f.name, f.name)
        if key not in values:
            continue
        raw, lineno = values.pop(key)
        current = getattr(defaults, f.name)
        kind = int if isinstance(current, int) else float if isinstance(current, float) else str
        try:
            kwargs[f.name] = kind(raw)
        except ValueError:
            raise ConfigError(f"config line {lineno}: {key} must be {kind.__name__}, "
                              f"got {raw!r}") from None
    if values:
        raise ConfigError(f"unknown config keys: {sorted(values)}")
    return replace(defaults, **kwargs)


def load_config(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
