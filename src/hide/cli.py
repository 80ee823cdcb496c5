"""Command-line interface.

Subcommands: train, encode, decode, analyze, bdrate, sweep.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

import numpy as np

from . import analysis, codec, ppm
from .config import ModelConfig, load_config, normalize_variant
from .constants import LAMBDA_SET
from .data import make_eval_images
from .errors import ConfigError, HideError
from .metrics import (
    RDRecord,
    bd_rate_records,
    psnr,
    read_rd_csv,
    write_rd_csv,
)
from .model import load_model
from .training import train_model

EVAL_SEED = 4242
EVAL_COUNT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="hide", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a checkpoint")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--out", required=True, help="checkpoint output path")
    p_train.add_argument("--variant", help="override the config variant")
    p_train.add_argument("--seed", type=int, help="override the config seed")
    p_train.add_argument("--steps", type=int, help="override the step count")
    p_train.add_argument("--init-from", dest="init_from",
                         help="fine-tune from an existing checkpoint")
    p_train.add_argument("--log", help="training log file (line per step)")

    p_enc = sub.add_parser("encode", help="compress a PPM image")
    p_enc.add_argument("image", help="input .ppm (P6)")
    p_enc.add_argument("--checkpoint", required=True)
    p_enc.add_argument("--out", required=True, help="compressed output path")

    p_dec = sub.add_parser("decode", help="decompress to a PPM image")
    p_dec.add_argument("payload", help="compressed input file")
    p_dec.add_argument("--checkpoint", required=True)
    p_dec.add_argument("--out", required=True, help="output .ppm path")

    p_an = sub.add_parser("analyze", help="dictionary utilization and entropy maps")
    p_an.add_argument("images", nargs="+", help="input .ppm files")
    p_an.add_argument("--checkpoint", required=True)
    p_an.add_argument("--out", required=True, help="output directory")

    p_bd = sub.add_parser("bdrate", help="delta-rate between two RD CSV files")
    p_bd.add_argument("anchor", help="anchor RD csv")
    p_bd.add_argument("test", help="test RD csv")

    p_sw = sub.add_parser("sweep", help="train/evaluate variants across lambdas")
    p_sw.add_argument("--config", help="base config file")
    p_sw.add_argument("--variants", default="baseline,hide",
                      help="comma-separated variant list")
    p_sw.add_argument("--lambdas", help="comma-separated lambda values "
                      f"(default: all of {LAMBDA_SET})")
    p_sw.add_argument("--seed", type=int, help="override the base seed")
    p_sw.add_argument("--steps", type=int, help="override steps per run")
    p_sw.add_argument("--out", required=True, help="output directory")
    return parser


def _load_base_config(path: Optional[str]) -> ModelConfig:
    return load_config(path) if path else ModelConfig()


def _cmd_train(args) -> int:
    config = _load_base_config(args.config)
    overrides = {}
    if args.variant:
        overrides["variant"] = args.variant
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.steps is not None:
        overrides["steps"] = args.steps
    if overrides:
        config = dataclasses.replace(config, **overrides)
    log_path = args.log or (args.out + ".log")
    train_model(config, out_path=args.out, log_path=log_path,
                init_from=args.init_from, progress=True)
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_encode(args) -> int:
    model = load_model(args.checkpoint)
    img = ppm.read_ppm(args.image)
    result = codec.encode_image(model, img)
    with open(args.out, "wb") as fh:
        fh.write(result.data)
    quality = psnr(img.astype(np.float64),
                   ppm.to_uint8(result.recon).astype(np.float64))
    print(f"bpp={result.bpp:.6f} psnr={quality:.4f} "
          f"payload_bits={result.payload_bits} estimated_bits={result.estimated_bits:.1f}")
    return 0


def _cmd_decode(args) -> int:
    model = load_model(args.checkpoint)
    with open(args.payload, "rb") as fh:
        data = fh.read()
    result = codec.decode_image(model, data)
    ppm.write_ppm(args.out, ppm.to_uint8(result.image))
    print(f"decoded {args.payload} -> {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    model = load_model(args.checkpoint)
    images = [ppm.read_ppm(p) for p in args.images]
    lines = analysis.write_analysis_outputs(model, images, args.out)
    for line in lines:
        print(line)
    return 0


def _cmd_bdrate(args) -> int:
    anchor = read_rd_csv(args.anchor)
    test = read_rd_csv(args.test)
    value = bd_rate_records(anchor, test)
    print(f"{value:.2f}")
    return 0


def sweep(config: ModelConfig, variants: List[str], lambdas: List[float],
          out_dir: str, progress: bool = False) -> dict:
    """Train and evaluate each (variant, lambda); one RD CSV per variant.

    Runs sequentially in deterministic order; per-run seeds derive from
    the base seed plus the lambda index.
    """
    os.makedirs(out_dir, exist_ok=True)
    eval_images = make_eval_images(EVAL_COUNT, config.patch_size, EVAL_SEED)
    csv_paths = {}
    for variant in variants:
        records = []
        for lam_idx, lam in enumerate(lambdas):
            run_cfg = dataclasses.replace(
                config, variant=variant, lam=lam, seed=config.seed + lam_idx)
            if progress:
                print(f"[sweep] variant={variant} lambda={lam} "
                      f"steps={run_cfg.steps}", flush=True)
            model, _ = train_model(run_cfg)
            for img_idx, img in enumerate(eval_images):
                enc = codec.encode_image(model, img)
                ref = ppm.to_uint8(img).astype(np.float64)
                rec = ppm.to_uint8(enc.recon).astype(np.float64)
                records.append(RDRecord(f"eval{img_idx}", lam, enc.bpp,
                                        psnr(ref, rec)))
        path = os.path.join(out_dir, f"rd_{variant}.csv")
        write_rd_csv(path, records)
        csv_paths[variant] = path
    return csv_paths


def _parse_lambdas(text: str, config: ModelConfig) -> List[float]:
    """The --lambdas values, each checked as the config checks lambda, so
    that a bad value fails before the sweep trains anything."""
    lambdas = []
    for value in text.split(","):
        try:
            lambdas.append(dataclasses.replace(config, lam=float(value)).lam)
        except (ValueError, ConfigError):
            raise ConfigError(f"--lambdas: {value!r} is not a positive finite number") from None
    return lambdas


def _cmd_sweep(args) -> int:
    config = _load_base_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.steps is not None:
        config = dataclasses.replace(config, steps=args.steps)
    variants = [normalize_variant(v) for v in args.variants.split(",")]
    lambdas = _parse_lambdas(args.lambdas, config) if args.lambdas else list(LAMBDA_SET)
    csv_paths = sweep(config, variants, lambdas, args.out, progress=True)
    for variant, path in csv_paths.items():
        print(f"{variant}: {path}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "analyze": _cmd_analyze,
    "bdrate": _cmd_bdrate,
    "sweep": _cmd_sweep,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except HideError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
