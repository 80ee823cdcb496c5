"""Training loop: determinism, schedule, divergence diagnostics."""

from pathlib import Path

import numpy as np
import pytest

from hide.config import ModelConfig
from hide.data import make_corpus, make_eval_images
from hide.model import CompressionModel
from hide.training import train_model


def quick_config(**kw):
    base = dict(variant="hide", seed=2, M=8, s=2, hyper_channels=4, C_d=16,
                N_G=4, N_D=4, heads=2, C_ctx=8, dtype="float64",
                steps=8, batch_size=2, lr=1e-4, lr_drop_frac=0.5)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(12, 64, 7777)


class TestCorpus:
    def test_deterministic(self):
        a = make_corpus(3, 64, 11)
        b = make_corpus(3, 64, 11)
        assert np.array_equal(a, b)
        c = make_corpus(3, 64, 12)
        assert not np.array_equal(a, c)

    def test_range_and_shape(self):
        imgs = make_corpus(4, 64, 0)
        assert imgs.shape == (4, 3, 64, 64)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_eval_disjoint_from_train(self):
        train = make_corpus(2, 64, 5)
        evals = make_eval_images(2, 64, 5)
        assert not np.array_equal(train, evals)


class TestTrainLoop:
    def test_loss_logged_per_step(self, tmp_path, corpus):
        log = str(tmp_path / "train.log")
        _, history = train_model(quick_config(), corpus=corpus, log_path=log)
        assert len(history) == 8
        lines = Path(log).read_text().strip().splitlines()
        assert len(lines) == 8
        assert lines[0].startswith("step=1 loss=")

    def test_lr_drop_at_boundary(self, corpus):
        _, history = train_model(quick_config(steps=8, lr_drop_frac=0.5),
                                 corpus=corpus)
        assert history[3].lr == pytest.approx(1e-4)
        assert history[4].lr == pytest.approx(1e-5)

    def test_identical_seed_identical_checkpoint(self, tmp_path, corpus):
        p1 = str(tmp_path / "a.hide")
        p2 = str(tmp_path / "b.hide")
        train_model(quick_config(), corpus=corpus, out_path=p1)
        train_model(quick_config(), corpus=corpus, out_path=p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_different_seed_differs(self, tmp_path, corpus):
        p1 = str(tmp_path / "a.hide")
        p2 = str(tmp_path / "b.hide")
        train_model(quick_config(seed=2), corpus=corpus, out_path=p1)
        train_model(quick_config(seed=3), corpus=corpus, out_path=p2)
        assert Path(p1).read_bytes() != Path(p2).read_bytes()

    def test_nan_aborts_with_diagnostic(self, corpus):
        cfg = quick_config()

        class Poisoned(CompressionModel):
            pass

        import hide.training as training

        def poisoned_train(config, **kw):
            model = CompressionModel(config)
            model.analysis.downs[0].weight.data[0, 0, 0, 0] = np.nan
            return model

        model = poisoned_train(cfg)
        rng = np.random.default_rng(0)
        with pytest.raises(Exception, match="non-finite"):
            model.train_loss(corpus[:2], rng)

    def test_fine_tune_from_checkpoint(self, tmp_path, corpus):
        base = str(tmp_path / "base.hide")
        train_model(quick_config(), corpus=corpus, out_path=base)
        tuned, history = train_model(quick_config(steps=3, lam=0.013),
                                     corpus=corpus, init_from=base)
        assert len(history) == 3
        assert tuned.config.lam == 0.013
