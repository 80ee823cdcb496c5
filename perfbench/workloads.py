"""The workloads: inputs from the seed, set-up, and the timed loop.

Every workload runs the default ``hide`` variant at float32 in one
process with one client (a closed loop), at the BLAS thread count the
machine gives by default.  Both touch every layer with the same set-up:
build a model, train it 20 steps, save it and load it back; then images
are coded with that checkpoint and training steps are taken.  What
differs is which operation the timed loop repeats:

    codec-large  encode+decode 768x512 images
    train-step   training steps from a fresh init, after coding two
                 768x512 images with the set-up checkpoint
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

import numpy as np

from hide import codec, core, data, training
from hide.config import ModelConfig
from hide.core.adam import Adam
from hide.metrics import psnr
from hide.model import CompressionModel, load_model

import tracing

SETUP_REPEATS = 2
# The model, its corpus (the program's default training corpus) and the
# set-up's batch order do not depend on the workload seed: trained from
# seeded inits, 30-step checkpoints differed by 2x in bpp and 6 dB in PSNR
# from seed to seed.  The workload seed makes the images and the batch
# order of the train-step loop.
MODEL_SEED = 0
IMAGE_STREAM, BATCH_STREAM = 1, 2


@dataclass(frozen=True)
class Plan:
    image_hw: Tuple[int, int]   # coded images, height x width
    tile: int                   # images are mosaics of procedural tiles of this edge
    setup_steps: int            # training steps in each set-up
    train_loop: bool            # the timed loop takes training steps, not images


# Mosaic tiles average image content, so bpp and PSNR over the images
# every run codes stay close from seed to seed.  64x64 images were a
# workload too, but their latencies swung by 20-25% between runs.
WORKLOADS = {
    "codec-large": Plan((512, 768), 128, 20, False),
    "train-step": Plan((512, 768), 128, 20, True),
}
MIN_IMAGES = 2      # images every run codes; bpp and PSNR average over these
MODEL = {"dtype": "float32", "lr": 1e-3}    # ModelConfig overrides of the default hide model
# --smoke: the same code paths on a tiny model and tiny inputs, for tests.
SMOKE_MODEL = dict(MODEL, M=8, hyper_channels=4, C_d=16, N_G=4, N_D=4, heads=2, C_ctx=8)


def plan_for(workload: str, smoke: bool) -> Plan:
    plan = WORKLOADS[workload]
    if not smoke:
        return plan
    return replace(plan, image_hw=(128, 192), tile=64, setup_steps=min(plan.setup_steps, 2))


def make_image(seed: int, index: int, plan: Plan) -> np.ndarray:
    """uint8 [3,H,W] image `index` of the run: a mosaic of corpus-style tiles."""
    rng = np.random.default_rng((seed, IMAGE_STREAM, index))
    h, w = plan.image_hw
    rows = [np.concatenate([data.make_image(rng, plan.tile) for _ in range(w // plan.tile)],
                           axis=2)
            for _ in range(h // plan.tile)]
    return np.round(np.concatenate(rows, axis=1) * 255.0).astype(np.uint8)


def draw_batch(corpus: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    return corpus[rng.choice(len(corpus), size=size, replace=False)]


def train_step(model: CompressionModel, opt: Adam, corpus: np.ndarray,
               rng: np.random.Generator) -> float:
    """One step as ``training.train_model`` takes it: forward, backward, Adam."""
    batch = draw_batch(corpus, rng, model.config.batch_size)
    opt.zero_grad()
    loss, _, _ = model.train_loss(batch, rng)
    value = float(loss.numpy())
    if not math.isfinite(value):
        core.clear_tape()
        raise ArithmeticError(f"non-finite loss {value}")
    core.backward(loss)
    opt.step()
    return value


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Run:
    """What one run measured and checked.  Timings are (seconds, traced)."""
    workload: str
    times: Dict[str, List[Tuple[float, bool]]] = field(default_factory=lambda: {
        "setup_s": [], "train_step_s": [], "encode_s": [], "decode_s": []})
    bpp: Dict[int, float] = field(default_factory=dict)
    psnr_db: Dict[int, float] = field(default_factory=dict)
    checkpoints: List[str] = field(default_factory=list)
    bitstreams: Dict[int, str] = field(default_factory=dict)
    attempted: int = 0
    failures: Dict[str, List[str]] = field(default_factory=dict)   # operation -> problems
    wrong: set = field(default_factory=set)     # operations whose output failed a check
    params: int = 0
    itemsize: int = 0

    def fail(self, operation: str, problem: str, wrong: bool = True) -> None:
        """Count `operation` as failed; `wrong` marks a failed correctness check."""
        self.failures.setdefault(operation, []).append(problem)
        if wrong:
            self.wrong.add(operation)


class Runner:
    """Runs one workload.  With ``trace``, every other set-up, step and
    image is traced, starting with the second; the rest run untraced."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, scratch_dir: str):
        self.plan = plan_for(workload, smoke)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch_dir = scratch_dir
        self.tracer = tracing.Tracer(
            [(sys.modules[__name__], "draw_batch", "training.batch", None, None)])
        self.config = ModelConfig(seed=MODEL_SEED, **(SMOKE_MODEL if smoke else MODEL))
        self.run = Run(workload)

    def _item(self, kind: str, ident, index: int):
        traced = self.trace and index % 2 == 1
        return traced, (self.tracer.item(kind, ident) if traced else contextlib.nullcontext())

    def execute(self) -> Run:
        corpus = training.default_corpus(self.config).astype(self.config.dtype)
        model = self.set_up(corpus)
        if self.plan.train_loop:
            self.code_images(model, deadline=0.0)
            del model
            model = CompressionModel(self.config)   # the timed loop starts from a fresh init
            opt = Adam(model.named_parameters(), lr=self.config.lr)
            rng = np.random.default_rng((self.seed, BATCH_STREAM))
            self.train(model, opt, corpus, rng, "", 2, time.perf_counter() + self.seconds)
        else:
            self.code_images(model, deadline=time.perf_counter() + self.seconds)
        return self.run

    def set_up(self, corpus: np.ndarray) -> CompressionModel:
        """Build, train, save and reload the model SETUP_REPEATS times.
        Every repetition must write the same checkpoint bytes."""
        path = os.path.join(self.scratch_dir, f"{self.run.workload}-setup.hide")
        for rep in range(SETUP_REPEATS):
            self.run.attempted += 1
            start = time.perf_counter()
            traced, ctx = self._item("setup", rep, rep)
            with ctx:
                model = CompressionModel(self.config)
                opt = Adam(model.named_parameters(), lr=self.config.lr)
            rng = np.random.default_rng(self.config.seed + 1)   # as train_model seeds it
            self.train(model, opt, corpus, rng, f"{rep}.", self.plan.setup_steps, 0.0)
            _, ctx = self._item("setup", rep, rep)
            with ctx:
                model.save(path)
                model = load_model(path)
            self.run.times["setup_s"].append((time.perf_counter() - start, traced))
            self.run.checkpoints.append(file_sha256(path))
            os.remove(path)
        if len(set(self.run.checkpoints)) > 1:
            self.run.fail(f"set-up {SETUP_REPEATS - 1}",
                          f"checkpoint sha256 differs between set-ups {self.run.checkpoints}")
        self.run.params = model.parameter_count()
        self.run.itemsize = model.dtype.itemsize
        return model

    def train(self, model: CompressionModel, opt: Adam, corpus: np.ndarray,
              rng: np.random.Generator, prefix: str, steps: int, deadline: float) -> None:
        """Take at least `steps` steps, and keep stepping until `deadline`."""
        j = 0
        while j < steps or time.perf_counter() < deadline:
            self.run.attempted += 1
            traced, ctx = self._item("step", f"{prefix}{j}", j)
            try:
                start = time.perf_counter()
                with ctx:
                    train_step(model, opt, corpus, rng)
                self.run.times["train_step_s"].append((time.perf_counter() - start, traced))
            except Exception as err:  # a failed step is counted and the run goes on
                self.run.fail(f"step {prefix}{j}", repr(err))
            j += 1

    def code_images(self, model: CompressionModel, deadline: float) -> None:
        """Code images until MIN_IMAGES have coded and `deadline` has
        passed, or until 4 * MIN_IMAGES have failed.  Each decode must
        equal the encoder's reconstruction bit for bit."""
        i = coded = 0
        while ((coded < MIN_IMAGES or time.perf_counter() < deadline)
               and i - coded < 4 * MIN_IMAGES):
            img = make_image(self.seed, i, self.plan)
            self.run.attempted += 1
            # parity of the images coded so far, so that failed images
            # cannot leave only traced or only untraced ones
            traced, ctx = self._item("image", i, coded)
            stage = "encode"
            try:
                with ctx:
                    t0 = time.perf_counter()
                    enc = codec.encode_image(model, img)
                    t1 = time.perf_counter()
                    stage = "decode"
                    dec = codec.decode_image(model, enc.data)
                    t2 = time.perf_counter()
            except Exception as err:  # a failed image is counted and the run goes on
                # The codec may refuse an input, but must decode what it encoded.
                self.run.fail(f"image {i}", f"{stage}: {err!r}", wrong=stage == "decode")
                i += 1
                continue
            self.run.times["encode_s"].append((t1 - t0, traced))
            self.run.times["decode_s"].append((t2 - t1, traced))
            self.run.bitstreams[i] = hashlib.sha256(enc.data).hexdigest()
            if not (dec.recon_padded.dtype == enc.recon_padded.dtype
                    and np.array_equal(dec.recon_padded, enc.recon_padded)):
                self.run.fail(f"image {i}", "decode differs from the encoder's recon_padded")
            if coded < MIN_IMAGES:
                self.run.bpp[i] = enc.bpp
                recon = np.round(np.clip(dec.image, 0.0, 1.0) * 255.0)
                self.run.psnr_db[i] = psnr(img, recon)
            coded += 1
            i += 1
