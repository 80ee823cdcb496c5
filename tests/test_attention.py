"""Dictionary retrieval: attention contracts, fusion residual, gradients."""

import numpy as np

import hide.attention as A
from hide.core import Tensor, backward, no_grad

from conftest import check_gradients


def make_weights(ctx_c=6, dict_dim=8, heads=2, seed=0):
    rng = np.random.default_rng(seed)
    w = A.SliceRetrievalWeights(ctx_c, dict_dim, heads, rng)
    return w, rng


def dense_attention_oracle(q, k, v, temp, heads):
    """Straight softmax-matmul in long double precision."""
    t, c = q.shape
    dh = c // heads
    out = np.zeros((t, c), dtype=np.longdouble)
    for h in range(heads):
        qh = q[:, h * dh:(h + 1) * dh].astype(np.longdouble)
        kh = k[:, h * dh:(h + 1) * dh].astype(np.longdouble)
        vh = v[:, h * dh:(h + 1) * dh].astype(np.longdouble)
        logits = qh @ kh.T / np.longdouble(temp)
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        attn = e / e.sum(axis=1, keepdims=True)
        out[:, h * dh:(h + 1) * dh] = attn @ vh
    return out.astype(np.float64)


class TestGlobalRetrieve:
    def test_single_entry_dictionary(self, rng):
        w, wrng = make_weights()
        d = A.PriorDictionary(1, 8, wrng)
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        with no_grad():
            ctx, attn = A.global_retrieve(x, d, w)
        # softmax over one key is exactly 1: every token gets the entry
        np.testing.assert_allclose(ctx.numpy(), np.tile(d.entries.numpy(), (4, 1)), atol=1e-12)
        np.testing.assert_allclose(attn.numpy(), 1.0, atol=0)

    def test_zero_query_gives_uniform_attention(self, rng):
        w, wrng = make_weights()
        d = A.PriorDictionary(8, 8, wrng)
        w.global_query.weight.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        with no_grad():
            ctx, attn = A.global_retrieve(x, d, w)
        np.testing.assert_allclose(attn.numpy(), 1.0 / 8, atol=1e-12)
        np.testing.assert_allclose(ctx.numpy(), np.tile(d.entries.numpy().mean(0), (4, 1)),
                                   atol=1e-12)

    def test_against_dense_oracle(self, rng):
        w, wrng = make_weights()
        d = A.PriorDictionary(8, 8, wrng)
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))    # 4 tokens
        with no_grad():
            ctx, _ = A.global_retrieve(x, d, w)
            q = A.to_tokens(x).numpy() @ w.global_query.weight.numpy()
        k = d.entries.numpy() @ w.global_key.weight.numpy()
        temp = np.exp(w.log_temp_global.numpy())
        expect = dense_attention_oracle(q, k, d.entries.numpy(), temp, heads=2)
        assert np.max(np.abs(ctx.numpy() - expect)) <= 1e-10

    def test_attention_rows_sum_to_one(self, rng):
        w, wrng = make_weights()
        d = A.PriorDictionary(16, 8, wrng)
        x = Tensor(rng.standard_normal((2, 6, 3, 3)) * 5)
        with no_grad():
            _, attn = A.global_retrieve(x, d, w)
        np.testing.assert_allclose(attn.numpy().sum(-1), 1.0, atol=1e-6)


class TestEnhanceQuery:
    def test_projection_mask_reduces_to_layernorm(self, rng):
        w, wrng = make_weights(ctx_c=8, dict_dim=8)
        # select only the raw-context half of the concatenation
        proj = np.zeros((16, 8))
        proj[:8, :8] = np.eye(8)
        w.enhance_proj.weight.data = proj
        x = Tensor(rng.standard_normal((1, 8, 2, 2)))
        zeros = Tensor(np.zeros((4, 8)))
        with no_grad():
            out = A.enhance_query(x, zeros, w)
            tokens = A.to_tokens(x)
            from hide.core import layernorm
            expect = layernorm(tokens, w.enhance_norm.gain, w.enhance_norm.shift)
        np.testing.assert_allclose(out.numpy(), expect.numpy(), atol=1e-12)

    def test_constant_input_zero_before_affine(self):
        # the selecting projection keeps the constant row constant, so the
        # normalized output collapses to zero (variance handled by eps)
        w, _ = make_weights(ctx_c=8, dict_dim=8)
        proj = np.zeros((16, 8))
        proj[:8, :8] = np.eye(8)
        w.enhance_proj.weight.data = proj
        w.enhance_norm.shift.data[:] = 0.0
        x = Tensor(np.full((1, 8, 2, 2), 2.0))
        ctx = Tensor(np.full((4, 8), -1.0))
        with no_grad():
            out = A.enhance_query(x, ctx, w)
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-9)

    def test_against_composed_oracle(self, rng):
        w, _ = make_weights()
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        ctx = Tensor(rng.standard_normal((4, 8)))
        with no_grad():
            out = A.enhance_query(x, ctx, w)
            from hide.core import layernorm, linear
            joined = np.concatenate([A.to_tokens(x).numpy(), ctx.numpy()], axis=-1)
            expect = layernorm(linear(Tensor(joined), w.enhance_proj.weight),
                               w.enhance_norm.gain, w.enhance_norm.shift)
        np.testing.assert_allclose(out.numpy(), expect.numpy(), atol=1e-12)


class TestDetailRetrieve:
    def test_single_entry(self, rng):
        w, wrng = make_weights()
        d = A.PriorDictionary(1, 8, wrng)
        enhanced = Tensor(rng.standard_normal((4, 8)))
        with no_grad():
            ctx, _ = A.detail_retrieve(enhanced, d, w)
        np.testing.assert_allclose(ctx.numpy(), np.tile(d.entries.numpy(), (4, 1)), atol=1e-12)

    def test_low_temperature_saturates_to_argmax(self, rng):
        w, wrng = make_weights(dict_dim=8, heads=1)
        d = A.PriorDictionary(8, 8, wrng)
        d.entries.data = np.eye(8)                # orthonormal rows
        w.detail_key.weight.data = np.eye(8)
        w.detail_query.weight.data = np.eye(8)
        w.log_temp_detail.data = np.array(np.log(1e-3))
        enhanced = Tensor(np.eye(8)[3][None, :] * 50.0)
        with no_grad():
            ctx, attn = A.detail_retrieve(enhanced, d, w)
        np.testing.assert_allclose(ctx.numpy(), d.entries.numpy()[3][None, :], atol=1e-12)
        assert attn.numpy()[0, 0, 3] > 1.0 - 1e-12

    def test_against_dense_oracle(self, rng):
        w, wrng = make_weights()
        d = A.PriorDictionary(12, 8, wrng)
        enhanced = Tensor(rng.standard_normal((4, 8)))
        with no_grad():
            ctx, _ = A.detail_retrieve(enhanced, d, w)
        q = enhanced.numpy() @ w.detail_query.weight.numpy()
        k = d.entries.numpy() @ w.detail_key.weight.numpy()
        temp = np.exp(w.log_temp_detail.numpy())
        expect = dense_attention_oracle(q, k, d.entries.numpy(), temp, heads=2)
        assert np.max(np.abs(ctx.numpy() - expect)) <= 1e-10


class TestFuse:
    def test_zero_output_projection_is_identity(self, rng):
        w, _ = make_weights()
        w.fuse_out.weight.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        cg = Tensor(rng.standard_normal((4, 8)))
        cd = Tensor(rng.standard_normal((4, 8)))
        with no_grad():
            out = A.fuse(x, cg, cd, w)
        assert np.array_equal(out.numpy(), x.numpy())

    def test_zero_contexts_bias_free_identity(self, rng):
        w, _ = make_weights()
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        z = Tensor(np.zeros((4, 8)))
        with no_grad():
            out = A.fuse(x, z, z, w)
        # gelu(0) @ W2 contributes exactly zero
        assert np.array_equal(out.numpy(), x.numpy())

    def test_against_composed_oracle(self, rng):
        w, _ = make_weights()
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        cg = Tensor(rng.standard_normal((4, 8)))
        cd = Tensor(rng.standard_normal((4, 8)))
        with no_grad():
            out = A.fuse(x, cg, cd, w)
            from hide.core import gelu, linear
            joined = Tensor(np.concatenate([cg.numpy(), cd.numpy()], axis=-1))
            branch = linear(gelu(linear(joined, w.fuse_in.weight)), w.fuse_out.weight)
            expect = branch.numpy() + A.to_tokens(x).numpy()
        assert np.max(np.abs(A.to_tokens(out).numpy() - expect)) <= 1e-12


class TestHierarchicalForward:
    def make_module(self, seed=0, n_g=5, n_d=7):
        rng = np.random.default_rng(seed)
        return A.HierarchicalDictContext(
            num_slices=2, ctx_channels=6, dict_dim=8, n_global=n_g, n_detail=n_d,
            heads=2, rng=rng)

    def test_residual_only_path(self, rng):
        mod = self.make_module()
        mod.slices[0].fuse_out.weight.data[:] = 0.0
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        with no_grad():
            out = mod.forward_slice(0, x)
        assert np.array_equal(out.fused.numpy(), x.numpy())

    def test_attention_rows_sum(self, rng):
        mod = self.make_module()
        x = Tensor(rng.standard_normal((1, 6, 3, 3)))
        with no_grad():
            out = mod.forward_slice(1, x, keep_attention=True)
        np.testing.assert_allclose(out.attn_global.sum(-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.attn_detail.sum(-1), 1.0, atol=1e-6)

    def test_full_gradient(self, rng):
        mod = self.make_module()
        x0 = rng.standard_normal((1, 6, 2, 2))
        dg0 = mod.dict_global.entries.numpy().copy()
        dd0 = mod.dict_detail.entries.numpy().copy()

        class DictStub:
            def __init__(self, entries):
                self.entries = entries
                self.n_entries, self.dim = entries.shape

        def build(ts):
            out = A.hierarchical_forward(ts[0], DictStub(ts[1]), DictStub(ts[2]),
                                         mod.slices[0])
            return (out.fused ** 2).sum()

        check_gradients(build, [x0, dg0, dd0])

    def test_gradients_reach_both_dictionaries(self, rng):
        mod = self.make_module()
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        out = mod.forward_slice(0, x)
        backward((out.fused ** 2).sum())
        g = mod.dict_global.entries.grad
        d = mod.dict_detail.entries.grad
        assert g is not None and np.linalg.norm(g) > 0
        assert d is not None and np.linalg.norm(d) > 0

    def test_permutation_invariance(self, rng):
        mod = self.make_module()
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        with no_grad():
            base = mod.forward_slice(0, x).fused.numpy().copy()
            perm_g = rng.permutation(mod.dict_global.entries.shape[0])
            perm_d = rng.permutation(mod.dict_detail.entries.shape[0])
            mod.dict_global.entries.data = mod.dict_global.entries.data[perm_g]
            mod.dict_detail.entries.data = mod.dict_detail.entries.data[perm_d]
            permuted = mod.forward_slice(0, x).fused.numpy()
        assert np.max(np.abs(base - permuted)) <= 1e-12

    def test_temperature_monotonicity(self, rng):
        w, wrng = make_weights(dict_dim=8, heads=1)
        d = A.PriorDictionary(6, 8, wrng)
        enhanced = Tensor(rng.standard_normal((1, 8)))
        peaks = []
        for log_t in (1.5, 0.5, -0.5, -1.5):
            w.log_temp_detail.data = np.array(log_t)
            with no_grad():
                _, attn = A.detail_retrieve(enhanced, d, w)
            peaks.append(attn.numpy().max())
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_single_stage_module(self, rng):
        srng = np.random.default_rng(3)
        mod = A.SingleDictContext(num_slices=1, ctx_channels=6, dict_dim=8,
                                  n_global=4, n_detail=6, heads=2, rng=srng)
        assert mod.dictionary.entries.shape == (10, 8)
        x = Tensor(rng.standard_normal((1, 6, 2, 2)))
        with no_grad():
            out = mod.forward_slice(0, x, keep_attention=True)
        assert out.fused.shape == x.shape
        np.testing.assert_allclose(out.attn_global.sum(-1), 1.0, atol=1e-6)
        mod.slices[0].fuse_out.weight.data[:] = 0.0
        with no_grad():
            out2 = mod.forward_slice(0, x)
        assert np.array_equal(out2.fused.numpy(), x.numpy())
