"""Directional behavior of briefly-trained models (pinned seeds)."""

from pathlib import Path

import numpy as np
import pytest

import hide.analysis as an
from hide import codec
from hide.cli import main
from hide.config import ModelConfig
from hide.data import make_corpus
from hide.training import train_model


@pytest.fixture(scope="module")
def low_rate_model():
    cfg = ModelConfig(variant="hide", seed=9, M=8, s=2, hyper_channels=4, C_d=16,
                      N_G=8, N_D=8, heads=2, C_ctx=8, dtype="float64",
                      steps=150, batch_size=4, lam=0.0018)
    model, history = train_model(cfg, corpus=make_corpus(40, 64, 7777))
    return model, history


class TestLowRateBehavior:
    def test_constant_image_compresses_small(self, low_rate_model):
        model, _ = low_rate_model
        enc = codec.encode_image(model, np.full((3, 64, 64), 0.5))
        assert enc.bpp < 0.25

    def test_constant_image_entropy_map_low_variance(self, low_rate_model):
        model, _ = low_rate_model
        emap = an.entropy_map(an.slice_records(model, np.full((3, 64, 64), 0.5)))
        spread = emap.bits_map.max() - emap.bits_map.min()
        assert spread < 2.0 * emap.bits_map.mean()

    def test_loss_decreased_during_training(self, low_rate_model):
        _, history = low_rate_model
        assert history[-1].loss < history[0].loss


class TestDefaultSweepStructure:
    def test_six_lambda_rows_per_variant(self, tmp_path):
        # default lambda set: six rate points per variant csv
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("variant=hide\nseed=6\nM=8\ns=2\nhyper_channels=4\n"
                       "C_d=16\nN_G=4\nN_D=4\nheads=2\nC_ctx=8\n"
                       "dtype=float64\nsteps=1\nbatch_size=2\n")
        out_dir = str(tmp_path / "sweep")
        assert main(["sweep", "--config", str(cfg),
                     "--variants", "baseline,hide", "--out", out_dir]) == 0
        for variant in ("baseline", "hide"):
            lines = Path(out_dir, f"rd_{variant}.csv").read_text().splitlines()
            lams = {ln.split(",")[1] for ln in lines[1:]}
            assert len(lines) == 1 + 6 * 4
            assert len(lams) == 6
