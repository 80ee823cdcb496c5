"""Dictionary cross-attention context modules.

Two learnable dictionaries act as external priors shared by the encoder
and decoder paths.  Retrieval is per spatial position: the slice context
map is flattened to tokens once, and every stage works on those tokens.
Each token queries the dictionary entries through multi-head attention
with a learnable temperature, and `fuse` adds the retrieved context back
to the tokens through a residual bottleneck and restores the map shape.

The hierarchical module retrieves twice (coarse structure first, then
detail conditioned on the enhanced query) and fuses both contexts side
by side; the single-stage module is the flat ablation baseline and
fuses its one context the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import nn, ops
from .core import tensor as T
from .core.tensor import Tensor
from .errors import ShapeError


class PriorDictionary(nn.Module):
    """Learnable entry matrix [N, C_d]; entries drawn from N(0, 1/sqrt(C_d))."""

    def __init__(self, n_entries: int, dim: int, rng: np.random.Generator):
        super().__init__()
        if n_entries < 1:
            raise ShapeError("dictionary needs at least one entry")
        self.dim = dim
        scale = dim ** -0.5
        self.entries = nn.Parameter(
            rng.standard_normal((n_entries, dim)) * scale)


@dataclass
class RetrievedContext:
    """Outputs of one slice-level retrieval pass."""
    fused: Tensor                       # same shape as the input context map
    attn_global: Optional[np.ndarray]   # [heads, B*H*W, N_G] when retained
    attn_detail: Optional[np.ndarray]


def to_tokens(x: Tensor) -> Tensor:
    """[B,C,H,W] -> [B*H*W, C] row-major over (batch, row, col)."""
    b, c, h, w = x.shape
    return x.transpose(0, 2, 3, 1).reshape(b * h * w, c)


def from_tokens(tokens: Tensor, like_shape) -> Tensor:
    b, c, h, w = like_shape
    return tokens.reshape(b, h, w, tokens.shape[-1]).transpose(0, 3, 1, 2)


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """[T, C] -> [heads, T, C/heads]."""
    t, c = x.shape
    return x.reshape(t, heads, c // heads).transpose(1, 0, 2)


def _merge_heads(x: Tensor) -> Tensor:
    h, t, d = x.shape
    return x.transpose(1, 0, 2).reshape(t, h * d)


def dictionary_attend(queries: Tensor, dictionary: PriorDictionary,
                      key_weight: Tensor, log_temp: Tensor, heads: int):
    """Multi-head retrieval: softmax(Q K^T / temp) over the raw entries.

    Keys are projected entries; values are the entries themselves.
    Returns ([T, C_d] context, [heads, T, N] attention).
    """
    c_d = dictionary.dim
    if queries.shape[-1] != c_d:
        raise ShapeError(f"query dim {queries.shape[-1]} does not match dictionary dim {c_d}")
    if c_d % heads != 0:
        raise ShapeError(f"dictionary dim {c_d} not divisible by {heads} heads")
    keys = ops.linear(dictionary.entries, key_weight)
    q = _split_heads(queries, heads)                  # [h, T, dh]
    k = _split_heads(keys, heads)                     # [h, N, dh]
    v = _split_heads(dictionary.entries, heads)       # [h, N, dh]
    temp = T.exp(log_temp)
    logits = T.div(T.matmul(q, k.transpose(0, 2, 1)), temp)
    attn = ops.softmax(logits)                        # [h, T, N]
    ctx = _merge_heads(T.matmul(attn, v))             # [T, C_d]
    return ctx, attn


class SliceRetrievalWeights(nn.Module):
    """Per-slice projections and temperatures for the two-stage retrieval."""

    def __init__(self, ctx_channels: int, dict_dim: int, heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.heads = heads
        self.global_query = nn.Linear(ctx_channels, dict_dim, rng)
        self.global_key = nn.Linear(dict_dim, dict_dim, rng)
        self.enhance_proj = nn.Linear(ctx_channels + dict_dim, dict_dim, rng)
        self.enhance_norm = nn.LayerNorm(dict_dim)
        self.detail_query = nn.Linear(dict_dim, dict_dim, rng)
        self.detail_key = nn.Linear(dict_dim, dict_dim, rng)
        self.fuse_in = nn.Linear(2 * dict_dim, dict_dim, rng)
        self.fuse_out = nn.Linear(dict_dim, ctx_channels, rng)
        # init recovers scaled dot-product attention: temp = sqrt(C_d / heads)
        init_log_temp = 0.5 * np.log(dict_dim / heads)
        self.log_temp_global = nn.Parameter(init_log_temp)
        self.log_temp_detail = nn.Parameter(init_log_temp)


def global_retrieve(tokens: Tensor, dictionary: PriorDictionary,
                    weights: SliceRetrievalWeights):
    """First stage: query the structural dictionary from the context tokens."""
    queries = weights.global_query(tokens)
    return dictionary_attend(queries, dictionary, weights.global_key.weight,
                             weights.log_temp_global, weights.heads)


def enhance_query(tokens: Tensor, global_ctx: Tensor,
                  weights: SliceRetrievalWeights) -> Tensor:
    """Fuse the context tokens with the retrieved structure (project + norm)."""
    joined = T.concat([tokens, global_ctx], axis=-1)
    return weights.enhance_norm(weights.enhance_proj(joined))


def detail_retrieve(enhanced: Tensor, dictionary: PriorDictionary,
                    weights: SliceRetrievalWeights):
    """Second stage: query the texture dictionary with the enhanced tokens."""
    queries = weights.detail_query(enhanced)
    return dictionary_attend(queries, dictionary, weights.detail_key.weight,
                             weights.log_temp_detail, weights.heads)


def fuse(tokens: Tensor, ctx: Tensor, weights: nn.Module, shape) -> Tensor:
    """Residual fusion, gelu(ctx @ W1) @ W2 + tokens, back in the map
    ``shape`` the tokens came from; ``weights`` has fuse_in and fuse_out."""
    branch = weights.fuse_out(ops.gelu(weights.fuse_in(ctx)))
    if branch.shape != tokens.shape:
        raise ShapeError(f"fusion output {branch.shape} does not match context {tokens.shape}")
    return from_tokens(T.add(branch, tokens), shape)


def hierarchical_forward(x: Tensor, dict_global: PriorDictionary,
                         dict_detail: PriorDictionary, weights: SliceRetrievalWeights,
                         keep_attention: bool = False) -> RetrievedContext:
    """Full two-stage pipeline: retrieve, enhance, retrieve, fuse."""
    tokens = to_tokens(x)
    global_ctx, attn_g = global_retrieve(tokens, dict_global, weights)
    enhanced = enhance_query(tokens, global_ctx, weights)
    detail_ctx, attn_d = detail_retrieve(enhanced, dict_detail, weights)
    fused = fuse(tokens, T.concat([global_ctx, detail_ctx], axis=-1), weights, x.shape)
    return RetrievedContext(
        fused=fused,
        attn_global=attn_g.numpy() if keep_attention else None,
        attn_detail=attn_d.numpy() if keep_attention else None,
    )


class HierarchicalDictContext(nn.Module):
    """Shared global/detail dictionaries plus per-slice retrieval weights."""

    def __init__(self, num_slices: int, ctx_channels: int, dict_dim: int,
                 n_global: int, n_detail: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.dict_global = PriorDictionary(n_global, dict_dim, rng)
        self.dict_detail = PriorDictionary(n_detail, dict_dim, rng)
        self.slices = nn.ModuleList(
            SliceRetrievalWeights(ctx_channels, dict_dim, heads, rng)
            for _ in range(num_slices))

    def forward_slice(self, i: int, x: Tensor, keep_attention: bool = False) -> RetrievedContext:
        return hierarchical_forward(x, self.dict_global, self.dict_detail,
                                    self.slices[i], keep_attention=keep_attention)


class SingleStageWeights(nn.Module):
    def __init__(self, ctx_channels: int, dict_dim: int, heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.heads = heads
        self.query = nn.Linear(ctx_channels, dict_dim, rng)
        self.key = nn.Linear(dict_dim, dict_dim, rng)
        self.fuse_in = nn.Linear(dict_dim, dict_dim, rng)
        self.fuse_out = nn.Linear(dict_dim, ctx_channels, rng)
        self.log_temp = nn.Parameter(0.5 * np.log(dict_dim / heads))


class SingleDictContext(nn.Module):
    """Flat single-dictionary ablation: one retrieval stage, no enhancement.
    Its one dictionary holds n_global + n_detail entries, as many as the
    hierarchical module's two together."""

    def __init__(self, num_slices: int, ctx_channels: int, dict_dim: int,
                 n_global: int, n_detail: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.dictionary = PriorDictionary(n_global + n_detail, dict_dim, rng)
        self.slices = nn.ModuleList(
            SingleStageWeights(ctx_channels, dict_dim, heads, rng)
            for _ in range(num_slices))

    def forward_slice(self, i: int, x: Tensor, keep_attention: bool = False) -> RetrievedContext:
        w = self.slices[i]
        tokens = to_tokens(x)
        ctx, attn = dictionary_attend(w.query(tokens), self.dictionary,
                                      w.key.weight, w.log_temp, w.heads)
        return RetrievedContext(
            fused=fuse(tokens, ctx, w, x.shape),
            attn_global=attn.numpy() if keep_attention else None,
            attn_detail=None)
