"""Acceptance suite.

One test per criterion, each printing a PASS line (visible with -s) and
enforcing its stated tolerance and runtime budget.  Expensive fixtures
(trained models, the ablation sweep) are session-scoped so criteria
share them.
"""

import math
import time

import numpy as np
import pytest

import hide.analysis as an
import hide.attention as At
import hide.estimator as Est
from hide import codec, coder, entropy
from hide.config import ModelConfig
from hide.constants import ALPHABET_SIZE, PROB_TOTAL, SYMBOL_MIN
from hide.core import Tensor, backward, clear_tape, no_grad
from hide.data import make_corpus, make_eval_images
from hide.metrics import bd_rate, read_rd_csv, bd_rate_records
from hide.model import CompressionModel, load_model
from hide.training import initial_level, smoothed, train_model

from conftest import check_gradients


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num} ({name}): PASS {detail}")


def micro_config(**kw):
    base = dict(variant="hide", seed=0, M=8, s=2, hyper_channels=4, C_d=16,
                N_G=4, N_D=4, heads=2, C_ctx=8, dtype="float64",
                steps=30, batch_size=2)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """Four briefly-trained models (one per variant), one reloaded from disk."""
    corpus = make_corpus(24, 64, 7777)
    models = []
    for variant, seed in (("hide", 201), ("cape", 202), ("hd", 203), ("baseline", 204)):
        model, _ = train_model(micro_config(variant=variant, seed=seed), corpus=corpus)
        models.append(model)
    path = str(tmp_path_factory.mktemp("ckpt") / "reload.hide")
    models[0].save(path)
    reloaded = load_model(path)
    return models, reloaded


@pytest.fixture(scope="module")
def encode_pairs(trained_models):
    """100 (model, image, encode-result) triples shared by criteria 2 and 3."""
    models, _ = trained_models
    rng = np.random.default_rng(555)
    eval_imgs = make_eval_images(20, 64, 99)
    pairs = []
    for model in models:
        images = [eval_imgs[i] for i in rng.choice(20, size=20, replace=False)]
        images += [rng.uniform(0, 1, size=(3, 64, 64)) for _ in range(5)]
        for img in images:
            pairs.append((model, img, codec.encode_image(model, img)))
    assert len(pairs) == 100
    return pairs


class TestCriterion1:
    def test_criterion_01_lossless_coding(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            n = int(rng.integers(1, 17))
            mu = rng.uniform(0, 1, size=n)
            sig = np.exp(rng.uniform(np.log(0.04), np.log(64.0), size=n))
            cdfs = coder.build_cdf_batch(mu, sig)
            syms = rng.integers(SYMBOL_MIN, SYMBOL_MIN + ALPHABET_SIZE, size=n)
            data = coder.encode_symbols(syms, cdfs)
            assert np.array_equal(coder.decode_symbols(data, cdfs), syms)

        counts = np.ones(ALPHABET_SIZE, dtype=np.int64)
        counts[:4] = [20000, 30000, 10000, PROB_TOTAL - 60000 - ALPHABET_SIZE + 4]
        cdf = np.zeros(ALPHABET_SIZE + 1, dtype=np.int64)
        cdf[1:] = np.cumsum(counts)
        letters = [SYMBOL_MIN + i for i in range(4)]
        n_seqs = 0
        for length in range(4):
            for idx in range(4 ** length):
                seq = []
                v = idx
                for _ in range(length):
                    seq.append(letters[v % 4])
                    v //= 4
                rows = np.broadcast_to(cdf, (len(seq), cdf.size))
                data = coder.encode_symbols(seq, rows)
                assert np.array_equal(coder.decode_symbols(data, rows), seq)
                n_seqs += 1
        assert n_seqs == 85
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        report(1, "lossless coding", f"[10^4 fuzz + {n_seqs} exhaustive, {elapsed:.1f}s]")


class TestCriterion2:
    def test_criterion_02_rate_tightness(self, encode_pairs):
        t0 = time.monotonic()
        worst = -math.inf
        for model, _, enc in encode_pairs:
            slack = 64 * (model.config.s + 1) + 2.0 ** -10 * enc.num_symbols
            delta = enc.payload_bits - enc.estimated_bits
            assert 0 <= delta <= slack, f"delta {delta:.2f} outside [0, {slack:.2f}]"
            worst = max(worst, delta / slack)
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        report(2, "rate tightness", f"[100 encodes, worst slack use {worst:.2f}]")


class TestCriterion3:
    def test_criterion_03_no_drift(self, trained_models, encode_pairs):
        models, reloaded = trained_models
        for idx, (model, img, enc) in enumerate(encode_pairs):
            # decode the first model's payloads with the checkpoint reloaded
            # from disk; everything must still match bit for bit
            decoder_model = reloaded if model is models[0] else model
            dec = codec.decode_image(decoder_model, enc.data)
            assert np.array_equal(enc.z_symbols, dec.z_symbols)
            for a, b in zip(enc.slice_records, dec.slice_records):
                assert np.array_equal(a.symbols, b.symbols)
                assert np.array_equal(a.mu, b.mu)
                assert np.array_equal(a.sigma, b.sigma)
            assert np.array_equal(enc.recon_padded, dec.recon_padded)
        report(3, "no-drift consistency", "[100 encode/decode pairs, exact]")


class TestCriterion4:
    def _sampled_param_check(self, model, x, params, n_samples, rng):
        """Finite differences on a random subset of parameter elements."""
        def loss_value():
            with no_grad():
                loss, _, _ = model.train_loss(x, np.random.default_rng(7),
                                              recon_mode="noise")
            return float(loss.numpy())

        clear_tape()
        loss, _, _ = model.train_loss(x, np.random.default_rng(7), recon_mode="noise")
        backward(loss)
        h = 1e-5
        for p in params:
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(n_samples, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                hi = loss_value()
                flat[i] = orig - h
                lo = loss_value()
                flat[i] = orig
                numeric = (hi - lo) / (2 * h)
                scale = max(abs(numeric), 1.0)
                assert abs(gflat[i] - numeric) / scale < 1e-4

    def test_criterion_04_gradient_suite(self, rng):
        t0 = time.monotonic()
        from hide.core import conv2d, conv_transpose2d, gelu, layernorm, linear, softmax

        shapes3 = [(1, 2, 5, 5), (2, 3, 4, 4), (1, 1, 6, 6)]
        for idx, shape in enumerate(shapes3):
            cin = shape[1]
            x = rng.standard_normal(shape)
            w = rng.standard_normal((2, cin, 3, 3))
            b = rng.standard_normal(2)
            check_gradients(
                lambda ts: (conv2d(ts[0], ts[1], ts[2], stride=1 + idx % 2,
                                   padding=1) ** 2).sum(), [x, w, b])
            wt = rng.standard_normal((cin, 2, 3, 3))
            check_gradients(
                lambda ts: (conv_transpose2d(ts[0], ts[1], ts[2], stride=2,
                                             padding=1) ** 2).sum(), [x, wt, b])

        for rows, din, dout in ((3, 4, 2), (5, 2, 6), (2, 7, 3)):
            a = rng.standard_normal((rows, din))
            w = rng.standard_normal((din, dout))
            b = rng.standard_normal(dout)
            check_gradients(lambda ts: (linear(ts[0], ts[1], ts[2]) ** 2).sum(),
                            [a, w, b])

        for rows, c in ((2, 5), (4, 3), (1, 8)):
            x = rng.standard_normal((rows, c))
            g = rng.standard_normal(c)
            s = rng.standard_normal(c)
            check_gradients(lambda ts: (layernorm(ts[0], ts[1], ts[2]) ** 2).sum(),
                            [x, g, s])

        for shape in ((3, 4), (2, 2, 3), (6,)):
            x = rng.standard_normal(shape)
            check_gradients(lambda ts: (gelu(ts[0]) ** 2).sum(), [x])

        for shape in ((2, 4), (3, 5), (1, 7)):
            x = rng.standard_normal(shape) * 3
            mix = rng.standard_normal(shape)
            check_gradients(lambda ts: (softmax(ts[0]) * mix).sum(), [x])

        # attention: query tokens + dictionary entries + temperature
        for tokens, n_entries in ((3, 4), (5, 2), (2, 6)):
            q = rng.standard_normal((tokens, 8))
            d = rng.standard_normal((n_entries, 8))
            kw = rng.standard_normal((8, 8))
            lt = np.array(0.3)

            class Stub:
                pass

            def build(ts):
                stub = Stub()
                stub.entries = ts[1]
                stub.dim = 8
                ctx, _ = At.dictionary_attend(ts[0], stub, ts[2], ts[3], heads=2)
                return (ctx ** 2).sum()

            check_gradients(build, [q, d, kw, lt])

        # likelihood with the scale mapping in the path
        for shape in ((2, 3), (4,), (1, 5)):
            v = rng.standard_normal(shape)
            mu = rng.standard_normal(shape) * 0.3
            raw = rng.standard_normal(shape)
            check_gradients(
                lambda ts: entropy.rate_bits(
                    entropy.likelihood(ts[0], ts[1], Est.scale_map(ts[2]))),
                [v, mu, raw])

        # full hierarchical retrieval
        for seed, (hh, ww) in ((11, (2, 2)), (12, (1, 3)), (13, (3, 1))):
            mod = At.HierarchicalDictContext(1, 6, 8, 4, 5, 2,
                                             np.random.default_rng(seed))
            x = rng.standard_normal((1, 6, hh, ww))

            class DictStub:
                def __init__(self, entries):
                    self.entries = entries
                    self.n_entries, self.dim = entries.shape

            def build(ts):
                out = At.hierarchical_forward(ts[0], DictStub(ts[1]), DictStub(ts[2]),
                                              mod.slices[0])
                return (out.fused ** 2).sum()

            check_gradients(build, [x, mod.dict_global.entries.numpy().copy(),
                                    mod.dict_detail.entries.numpy().copy()])

        # full context-aware estimator
        for seed, cin in ((21, 2), (22, 4), (23, 3)):
            est = Est.ContextAwareEstimator(cin, 1, np.random.default_rng(seed))
            s = rng.standard_normal((1, cin, 3, 3))

            def build(ts):
                mean, sigma = est(ts[0])
                return (mean * mean + sigma).sum()

            check_gradients(build, [s])

        # full RD loss: input gradient plus sampled parameter gradients, on
        # three model/input seeds; the noise path keeps the loss smooth
        prng = np.random.default_rng(31)
        for seed in (41, 42, 43):
            model = CompressionModel(micro_config(seed=seed))
            x = np.random.default_rng(seed).uniform(0.2, 0.8, size=(1, 3, 64, 64))
            named = dict(model.named_parameters())
            picks = [named["entropy.dict_ctx.dict_global.entries"],
                     named["analysis.downs.0.weight"],
                     named["entropy.estimators.0.extractor.branch5.weight"],
                     named["entropy.dict_ctx.slices.1.log_temp_global"],
                     named["hyper_prior.scale_raw"]]
            self._sampled_param_check(model, x, picks, n_samples=4, rng=prng)

        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        report(4, "gradient suite", f"[{elapsed:.1f}s]")


class TestCriterion5:
    def test_criterion_05_structural_invariants(self, rng):
        # attention rows sum to 1 +- 1e-6
        mod = At.HierarchicalDictContext(1, 6, 8, 5, 7, 2, np.random.default_rng(1))
        x = Tensor(rng.standard_normal((1, 6, 3, 3)) * 4)
        with no_grad():
            out = mod.forward_slice(0, x, keep_attention=True)
        assert np.max(np.abs(out.attn_global.sum(-1) - 1.0)) <= 1e-6
        assert np.max(np.abs(out.attn_detail.sum(-1) - 1.0)) <= 1e-6

        # residual head bound and scale bounds under extreme inputs
        res = Est.ContextAwareResidual(4, 2, np.random.default_rng(2))
        est = Est.ContextAwareEstimator(4, 2, np.random.default_rng(3))
        for magnitude in (1.0, 1e3):
            s = Tensor(rng.standard_normal((1, 4, 3, 3)) * magnitude)
            with no_grad():
                r = res(s).numpy()
                _, sigma = est(s)
            assert (np.abs(r) <= 0.5).all()
            assert (sigma.numpy() >= 0.04).all() and (sigma.numpy() <= 64.0).all()

        # quantized cdfs: total exactly 65536, minimum count 1
        mu = rng.uniform(0, 1, size=300)
        sig = np.exp(rng.uniform(np.log(0.04), np.log(64.0), size=300))
        cdfs = coder.build_cdf_batch(mu, sig)
        assert (cdfs[:, -1] == PROB_TOTAL).all()
        assert (np.diff(cdfs, axis=1) >= 1).all()

        # residual fusion identity when the output projection is zeroed
        mod.slices[0].fuse_out.weight.data[:] = 0.0
        with no_grad():
            out = mod.forward_slice(0, x)
        assert np.array_equal(out.fused.numpy(), x.numpy())

        # slice causality under perturbation of later slices
        model = CompressionModel(micro_config(seed=77))
        img = np.random.default_rng(7).uniform(0, 1, size=(3, 64, 64))
        fwd = model.encode_forward(img)
        y = fwd["y"]
        y2 = y.copy()
        y2[:, model.entropy.split[0]:] += 5.0
        with no_grad():
            hyper_ctx = model.hyper_synthesis(Tensor(fwd["z_hat"], dtype=model.dtype))
            b1 = model.entropy.codec_pass(hyper_ctx, y=Tensor(y, dtype=model.dtype))
            b2 = model.entropy.codec_pass(hyper_ctx, y=Tensor(y2, dtype=model.dtype))
        assert np.array_equal(b1.slices[0].mu, b2.slices[0].mu)
        assert np.array_equal(b1.slices[0].sigma, b2.slices[0].sigma)
        report(5, "structural invariants")


class TestCriterion6:
    def test_criterion_06_discretized_gaussian(self):
        p = entropy.likelihood(Tensor(np.array(0.0)), Tensor(np.array(0.0)),
                               Tensor(np.array(1.0))).item()
        oracle = 0.5 * (math.erf(0.5 / math.sqrt(2)) - math.erf(-0.5 / math.sqrt(2)))
        assert abs(p - 0.382925) <= 1e-6
        assert abs(p - oracle) <= 1e-12

        rng = np.random.default_rng(3)
        mu = np.concatenate([[0.0, 0.5, 0.999], rng.uniform(0, 1, 60)])
        sig = np.concatenate([[0.04, 1.0, 64.0], np.exp(rng.uniform(np.log(0.04),
                                                                    np.log(64.0), 60))])
        cdfs = coder.build_cdf_batch(mu, sig)
        counts = np.diff(cdfs, axis=1)
        assert (counts.sum(axis=1) == PROB_TOTAL).all()
        report(6, "discretized Gaussian correctness")


class TestCriterion7:
    def test_criterion_07_bd_rate_oracle(self):
        q = np.array([30.0, 32.0, 34.0, 36.0, 38.0])
        r = np.array([0.25, 0.40, 0.62, 0.95, 1.40])
        assert bd_rate(r, q, r, q) == 0.0
        assert abs(bd_rate(r, q, 0.9 * r, q) - (-10.0)) <= 1e-3

        qq = np.linspace(30.0, 40.0, 25)
        base = -4.0 + 0.09 * qq + 1e-4 * (qq - 35) ** 2 + 2e-5 * (qq - 35) ** 3
        delta = 0.02 - 0.003 * (qq - 35) + 5e-5 * (qq - 35) ** 2
        got = bd_rate(10.0 ** base, qq, 10.0 ** (base + delta), qq)
        integral = 0.02 * 10.0 + 5e-5 * (2 * 5.0 ** 3 / 3)
        expect = (10.0 ** (integral / 10.0) - 1.0) * 100.0
        assert abs(got - expect) <= 0.01
        report(7, "delta-rate oracle")


@pytest.mark.slow
class TestCriterion8:
    def test_criterion_08_training_sanity(self):
        t0 = time.monotonic()
        config = ModelConfig()      # desk-scale defaults: 500 steps at 0.0035
        assert config.steps == 500 and config.lam == 0.0035
        _, history = train_model(config)
        elapsed = time.monotonic() - t0
        losses = [h.loss for h in history]
        start = initial_level(losses, window=50)
        end = smoothed(losses, window=50)
        assert end < 0.9 * start, f"smoothed loss {end:.3f} vs initial {start:.3f}"
        assert elapsed < 1800.0, f"training took {elapsed:.0f}s"
        report(8, "training sanity",
               f"[loss {start:.2f} -> {end:.2f}, {elapsed:.0f}s]")


@pytest.mark.slow
class TestCriterion9:
    def test_criterion_09_directional_ablation(self, tmp_path):
        from hide.cli import sweep
        t0 = time.monotonic()
        config = ModelConfig(variant="hide", seed=100, M=16, s=2, hyper_channels=8,
                             C_d=64, N_G=32, N_D=32, heads=4, C_ctx=32,
                             dtype="float32", steps=400, batch_size=4)
        out_dir = str(tmp_path / "sweep")
        paths = sweep(config, ["baseline", "cape", "hide"],
                      [0.0035, 0.013, 0.05], out_dir)
        anchor = read_rd_csv(paths["baseline"])
        cape_vs_base = bd_rate_records(anchor, read_rd_csv(paths["cape"]))
        hide_vs_base = bd_rate_records(anchor, read_rd_csv(paths["hide"]))
        elapsed = time.monotonic() - t0
        assert cape_vs_base < 0.0, f"cape delta-rate {cape_vs_base:+.2f}%"
        assert hide_vs_base < 0.0, f"hide delta-rate {hide_vs_base:+.2f}%"
        assert elapsed < 7200.0
        report(9, "directional ablation",
               f"[cape {cape_vs_base:+.2f}%, hide {hide_vs_base:+.2f}%, {elapsed:.0f}s]")


class TestCriterion10:
    def test_criterion_10_utilization_diagnostics(self, trained_models):
        models, _ = trained_models
        eval_imgs = make_eval_images(2, 64, 77)
        for model in models:
            rep = an.utilization_report(model, eval_imgs)
            for name, dist in rep.distribution.items():
                n = len(dist)
                assert abs(dist.sum() - 1.0) <= 1e-9
                assert 0.0 <= rep.entropy_bits[name] <= math.log2(n)

        # forced uniform: zeroed query projections make the logits all equal
        uniform_model = CompressionModel(micro_config(seed=301))
        for w in uniform_model.entropy.dict_ctx.slices:
            w.global_query.weight.data[:] = 0.0
            w.detail_query.weight.data[:] = 0.0
            w.enhance_proj.weight.data[:] = 0.0
        rep = an.utilization_report(uniform_model, eval_imgs[:1])
        assert rep.entropy_bits["global"] == math.log2(uniform_model.config.N_G)
        assert rep.entropy_bits["detail"] == math.log2(uniform_model.config.N_D)

        # forced one-hot attention collapses the usage entropy to exactly 0
        one_hot = np.zeros((2, 9, 8))
        one_hot[:, :, 0] = 1.0
        usage = an.usage_from_attention([one_hot])
        dist = usage / usage.sum()
        assert an.distribution_entropy(dist) == 0.0
        np.testing.assert_array_equal(dist, np.eye(8)[0])
        report(10, "utilization diagnostics")
