"""Rate-distortion training loop.

Single-threaded reference implementation: batches, noise draws, and the
order of optimizer updates are pure functions of the config seed, so a
training run reproduces the same checkpoint bytes on the same platform.
The learning rate drops by 10x at the configured fraction of steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .config import ModelConfig
from .core import backward
from .core.adam import Adam
from .data import make_corpus
from .errors import ConfigError, NonFiniteError, TrainingDiverged
from .model import CompressionModel

CORPUS_SEED = 7777
CORPUS_SIZE = 200


@dataclass
class StepRecord:
    step: int
    loss: float
    bpp: float
    mse: float
    lr: float

    def line(self) -> str:
        return (f"step={self.step} loss={self.loss:.6f} bpp={self.bpp:.6f} "
                f"mse={self.mse:.6f} lr={self.lr:.2e}")


def default_corpus(config: ModelConfig) -> np.ndarray:
    return make_corpus(CORPUS_SIZE, config.patch_size, CORPUS_SEED)


def train_model(config: ModelConfig, corpus: Optional[np.ndarray] = None,
                out_path: Optional[str] = None, log_path: Optional[str] = None,
                init_from: Optional[str] = None,
                progress: bool = False):
    """Train a model from scratch (or fine-tune from a checkpoint).

    Returns (model, history).  NaN/Inf anywhere in the loss path aborts
    with a diagnostic naming the tensor that went non-finite first.
    """
    model = CompressionModel(config)
    if init_from is not None:
        from .core.checkpoint import load_checkpoint
        arrays, _ = load_checkpoint(init_from)
        model.load_state_arrays(arrays)

    if corpus is None:
        corpus = default_corpus(config)
    corpus = np.asarray(corpus, dtype=model.dtype)
    if config.batch_size > len(corpus):
        raise ConfigError(f"batch_size={config.batch_size} exceeds the "
                          f"{len(corpus)}-patch training corpus")

    rng = np.random.default_rng(config.seed + 1)
    opt = Adam(model.named_parameters(), lr=config.lr)
    drop_step = max(1, int(config.steps * config.lr_drop_frac))
    history: List[StepRecord] = []
    log_fh = open(log_path, "a") if log_path else None
    started = time.monotonic()
    try:
        for step in range(1, config.steps + 1):
            if step == drop_step + 1:
                opt.lr = config.lr * 0.1
            idx = rng.choice(len(corpus), size=config.batch_size, replace=False)
            batch = corpus[idx]
            opt.zero_grad()
            try:
                loss, bpp, mse = model.train_loss(batch, rng)
            except NonFiniteError as e:
                raise TrainingDiverged(f"step {step}: {e}") from e
            loss_val = float(loss.numpy())
            if not np.isfinite(loss_val):
                raise TrainingDiverged(f"step {step}: non-finite values first "
                                       f"appeared in the scalar loss")
            backward(loss)
            opt.step()
            rec = StepRecord(step, loss_val, float(bpp.numpy()),
                             float(mse.numpy()), opt.lr)
            history.append(rec)
            if log_fh:
                log_fh.write(rec.line() + "\n")
            if progress and (step % 50 == 0 or step == 1):
                elapsed = time.monotonic() - started
                print(f"  {rec.line()} elapsed={elapsed:.1f}s", flush=True)
    finally:
        if log_fh:
            log_fh.close()

    if out_path is not None:
        model.save(out_path)
    return model, history


def smoothed(values: List[float], window: int = 50) -> float:
    tail = values[-window:] if len(values) >= window else values
    return float(np.mean(tail))


def initial_level(values: List[float], window: int = 50) -> float:
    head = values[:window] if len(values) >= window else values
    return float(np.mean(head))
