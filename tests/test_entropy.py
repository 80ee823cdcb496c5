"""Entropy model: quantization, likelihood, rates, slice causality."""

import math

import numpy as np
import pytest

import hide.entropy as ent
from hide import coder
import hide.model as model_module
from hide.config import VARIANTS, ModelConfig
from hide.constants import P_MIN, SIGMA_MAX
from hide.core import Tensor, backward, no_grad
from hide.core import tensor as T
from hide.errors import HideError, ShapeError
from hide.model import CompressionModel

from conftest import check_gradients


def tiny_config(**kw):
    base = dict(variant="hide", seed=0, M=8, s=2, hyper_channels=4, C_d=16,
                N_G=4, N_D=4, heads=2, C_ctx=8, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


class TestQuantize:
    def test_value_at_mean(self):
        y = Tensor(np.array([[0.7]]))
        mu = Tensor(np.array([[0.7]]))
        y_hat, m = ent.quantize(y, mu)
        assert m[0, 0] == 0
        assert y_hat.numpy()[0, 0] == 0.7

    def test_direct_arithmetic(self):
        y_hat, m = ent.quantize(Tensor(np.array([2.3])), Tensor(np.array([0.1])))
        assert m[0] == 2
        np.testing.assert_allclose(y_hat.numpy(), [2.1], atol=1e-15)

    def test_rounding_bound(self, rng):
        y = Tensor(rng.uniform(-63.0, 63.0, size=1000))
        mu = Tensor(np.zeros(1000))
        y_hat, _ = ent.quantize(y, mu)
        assert np.max(np.abs(y.numpy() - y_hat.numpy())) <= 0.5

    def test_noise_mode_within_half(self, rng):
        y = Tensor(rng.standard_normal(500))
        noisy = ent.add_noise(y, rng)
        assert np.max(np.abs(noisy.numpy() - y.numpy())) <= 0.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ent.quantize(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestLikelihood:
    def test_unit_gaussian_center(self):
        p = ent.likelihood(Tensor(np.array(0.0)), Tensor(np.array(0.0)),
                           Tensor(np.array(1.0)))
        expect = math.erf(0.5 / math.sqrt(2.0))
        assert abs(p.item() - expect) < 1e-12
        assert abs(expect - 0.3829249225480263) < 1e-15

    def test_max_sigma_against_erf_oracle(self):
        p = ent.likelihood(Tensor(np.array(0.0)), Tensor(np.array(0.0)),
                           Tensor(np.array(SIGMA_MAX)))
        expect = math.erf(0.5 / (SIGMA_MAX * math.sqrt(2.0)))
        assert abs(p.item() - expect) < 1e-12

    def test_floor_applied(self):
        p = ent.likelihood(Tensor(np.array(60.0)), Tensor(np.array(0.0)),
                           Tensor(np.array(0.1)))
        assert p.item() == P_MIN

    def test_gradient(self, rng):
        from hide.estimator import scale_map
        v = rng.standard_normal((2, 3))
        mu = rng.standard_normal((2, 3)) * 0.1
        raw = rng.standard_normal((2, 3))

        def build(ts):
            return ent.rate_bits(ent.likelihood(ts[0], ts[1], scale_map(ts[2])))

        check_gradients(build, [v, mu, raw])


class TestRateBits:
    def test_half_probability(self):
        p = Tensor(np.full(8, 0.5))
        assert abs(ent.rate_bits(p).item() - 8.0) < 1e-12

    def test_certain_symbols_cost_nothing(self):
        p = Tensor(np.ones(16))
        assert abs(ent.rate_bits(p).item()) < 1e-12

    def test_against_longdouble_oracle(self, rng):
        p = rng.uniform(1e-6, 1.0, size=4096)
        got = ent.rate_bits(Tensor(p)).item()
        expect = float(np.sum(-np.log2(p.astype(np.longdouble))))
        assert abs(got - expect) / expect < 1e-9


class TestRdLoss:
    def test_identical_images_rate_only(self, rng):
        x = Tensor(rng.uniform(0, 1, size=(1, 3, 4, 4)))
        bpp = T.mul(T.add(Tensor(np.array(8.0)), Tensor(np.array(8.0))), 1.0 / 16)
        loss = ent.rd_loss(bpp, ent.mse_255(x, x), lam=0.0035)
        assert abs(loss.item() - 1.0) < 1e-12

    def test_textbook_arithmetic(self):
        # bpp 0.5 with distortion 100 at lambda 0.0035 -> 0.85
        x = Tensor(np.zeros((1, 1, 2, 2)))
        x_hat = Tensor(np.full((1, 1, 2, 2), 10.0 / 255.0))
        bpp = T.mul(T.add(Tensor(np.array(1.0)), Tensor(np.array(1.0))), 1.0 / 4)
        loss = ent.rd_loss(bpp, ent.mse_255(x, x_hat), lam=0.0035)
        assert abs(loss.item() - 0.85) < 1e-12

    def test_lambda_must_be_positive(self):
        with pytest.raises(ShapeError, match="lambda must be positive"):
            ent.rd_loss(Tensor(np.array(1.0)), Tensor(np.array(1.0)), lam=0.0)

    def test_train_loss_adds_the_terms_it_returns(self, rng, monkeypatch):
        # one mse_255 call per step, wherever it is looked up from, and the
        # loss is the returned bpp plus lambda times the returned mse
        calls = []
        mse_255 = ent.mse_255

        def counted(x, x_hat):
            calls.append(1)
            return mse_255(x, x_hat)

        monkeypatch.setattr(ent, "mse_255", counted)
        monkeypatch.setattr(model_module, "mse_255", counted)
        cfg = tiny_config()
        loss, bpp, mse = CompressionModel(cfg).train_loss(
            rng.uniform(0, 1, size=(1, 3, 64, 64)), np.random.default_rng(0))
        assert len(calls) == 1
        expect = bpp.numpy() + mse.numpy() * np.asarray(cfg.lam, dtype=mse.dtype)
        assert loss.numpy().tobytes() == expect.tobytes()

    @pytest.mark.parametrize("mode", ["STE", "Noise", "round", ""])
    def test_unknown_recon_mode_is_refused(self, rng, mode):
        # a misspelling must not train on the noise relaxation
        model = CompressionModel(tiny_config())
        with pytest.raises(HideError, match="'ste' or 'noise'"):
            model.train_loss(rng.uniform(0, 1, size=(1, 3, 64, 64)),
                             np.random.default_rng(0), recon_mode=mode)

    def test_gradients_finite_and_nonzero_at_init(self, rng):
        model = CompressionModel(tiny_config())
        x = rng.uniform(0, 1, size=(1, 3, 64, 64))
        loss, _, _ = model.train_loss(x, np.random.default_rng(0))
        backward(loss)
        norms = [np.linalg.norm(p.grad) for p in model.parameters() if p.grad is not None]
        assert all(np.isfinite(n) for n in norms)
        assert sum(1 for n in norms if n > 0) > len(norms) * 0.5


class TestChannelPrior:
    def test_sigma_within_bounds(self):
        prior = ent.ChannelPrior(8)
        sig = prior.sigma().numpy()
        assert (sig > 0.04).all() and (sig <= 64.0).all()

    def test_offsets_go_into_symbols_fractions_into_rows(self):
        prior = ent.ChannelPrior(3)
        prior.mean.data = np.array([1.75, -0.25, 0.0])
        symbols, z_hat = prior.quantize(Tensor(np.array([2.2, -1.4, 0.6]).reshape(1, 3, 1, 1)))
        np.testing.assert_array_equal(symbols.reshape(-1), [1, 0, 1])
        np.testing.assert_array_equal(z_hat.numpy().reshape(-1), [2.0, -1.0, 1.0])
        np.testing.assert_array_equal(prior.dequantize(symbols, np.float64).numpy(),
                                      z_hat.numpy())
        expect = coder.build_cdf_batch(np.array([0.75, 0.75, 0.0]), prior.sigma().numpy())
        np.testing.assert_array_equal(prior.cdf_rows(), expect)


class TestSliceModel:
    def make_model(self, **kw):
        return CompressionModel(tiny_config(**kw))

    def test_single_slice_degenerate(self, rng):
        model = self.make_model(s=1)
        x = rng.uniform(0, 1, size=(1, 3, 64, 64))
        out = model.encode_forward(x)
        assert len(out["bundle"].slices) == 1
        total = sum(s.bits for s in out["bundle"].slices)
        assert abs(total - out["bundle"].total_bits) < 1e-9

    def test_causality_under_perturbation(self, rng):
        model = self.make_model()
        x = rng.uniform(0, 1, size=(1, 3, 64, 64))
        out = model.encode_forward(x)
        y = out["y"].copy()
        split = model.entropy.split

        # perturb only the last slice's latents; earlier params must not move
        y2 = y.copy()
        y2[:, split[0]:] += 7.7
        with no_grad():
            hyper_ctx = model.hyper_synthesis(Tensor(out["z_hat"], dtype=model.dtype))
            b1 = model.entropy.codec_pass(hyper_ctx, y=Tensor(y, dtype=model.dtype))
            b2 = model.entropy.codec_pass(hyper_ctx, y=Tensor(y2, dtype=model.dtype))
        assert np.array_equal(b1.slices[0].mu, b2.slices[0].mu)
        assert np.array_equal(b1.slices[0].sigma, b2.slices[0].sigma)
        assert not np.array_equal(b1.slices[1].symbols, b2.slices[1].symbols)

    def test_total_rate_matches_per_slice_recompute(self, rng):
        model = self.make_model()
        x = rng.uniform(0, 1, size=(1, 3, 64, 64))
        out = model.encode_forward(x)
        bundle = out["bundle"]
        recomputed = 0.0
        for rec in bundle.slices:
            p = ent.likelihood(Tensor(rec.y_hat, dtype=model.dtype),
                               Tensor(rec.mu, dtype=model.dtype),
                               Tensor(rec.sigma, dtype=model.dtype))
            recomputed += float(ent.rate_bits(p).numpy())
        assert abs(recomputed - bundle.total_bits) < 1e-9

    def test_refined_latents_stay_close_to_quantized(self, rng):
        model = self.make_model()
        x = rng.uniform(0, 1, size=(1, 3, 64, 64))
        out = model.encode_forward(x)
        bundle = out["bundle"]
        y_hat = np.concatenate([rec.y_hat for rec in bundle.slices], axis=1)
        assert np.max(np.abs(bundle.y_bar.numpy() - y_hat)) <= 0.5

    def test_variant_table_says_what_each_variant_builds(self):
        assert tuple(ent.VARIANT_MODULES) == VARIANTS
        for variant, (context, estimator, residual) in ent.VARIANT_MODULES.items():
            entropy = self.make_model(variant=variant).entropy
            assert type(entropy.dict_ctx) is context
            assert all(type(e) is estimator for e in entropy.estimators)
            assert all(type(r) is residual for r in entropy.residuals)

    def test_channel_split(self):
        assert ent.channel_split(32, 4) == [8, 8, 8, 8]
        assert ent.channel_split(10, 3) == [4, 3, 3]


class TestAggregator:
    def test_slice_zero_sees_only_hyper_context(self, rng):
        model = CompressionModel(tiny_config())
        agg = model.entropy.agg[0]
        assert agg.pre.weight.shape[1] == 2 * model.config.C_ctx

    def test_zero_weights_give_bias_constant(self, rng):
        from hide.entropy import _Aggregator
        agg = _Aggregator(4, 3, np.random.default_rng(0))
        for p in agg.parameters():
            p.data[:] = 0.0
        agg.post.bias.data[:] = np.array([1.0, -2.0, 0.5])
        with no_grad():
            out = agg(Tensor(rng.standard_normal((1, 4, 5, 5)))).numpy()
        for c, v in enumerate([1.0, -2.0, 0.5]):
            np.testing.assert_allclose(out[0, c], v, atol=1e-12)

    def test_against_composed_oracle(self, rng):
        from hide.core import conv2d, gelu
        from hide.entropy import _Aggregator
        agg = _Aggregator(4, 3, np.random.default_rng(1))
        x = Tensor(rng.standard_normal((1, 4, 5, 5)))
        with no_grad():
            got = agg(x).numpy()
            expect = conv2d(gelu(conv2d(x, agg.pre.weight, agg.pre.bias)),
                            agg.post.weight, agg.post.bias, padding=1).numpy()
        assert np.max(np.abs(got - expect)) <= 1e-12
