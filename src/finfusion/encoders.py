"""Per-modality encoders: price windows, token sequences, macro vectors, and
financial graphs, each mapped to a fixed-width embedding.

All encoders are pure functions of (input, params). Params live in a flat
dict of named leaf tensors so training stages can select subsets by prefix.
The transformer layer here is shared by the fusion layer and the micro
decoder, and the graph-attention layer by the systemic-risk head.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .datapipe import MACRO_SLOTS
from .errors import (
    DegenerateInputError,
    DimensionError,
    ImputationRequiredError,
    VocabularyError,
)

# the macro encoder's groups, each -> its indices into datapipe.MACRO_SLOTS
MACRO_GROUPS = {"growth": (0, 2), "inflation": (1, 3), "credit": (4, 5),
                "market_stress": (6, 7)}


# ---------------------------------------------------------------------------
# parameter initialization

def xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    size = shape if shape is not None else (fan_in, fan_out)
    return Tensor(rng.uniform(-limit, limit, size=size), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def init_transformer_layer(params: dict, prefix: str, d: int, d_ff: int,
                           rng: np.random.Generator) -> None:
    for name in ("wq", "wk", "wv", "wo"):
        params[f"{prefix}.{name}"] = xavier(rng, d, d)
    for name in ("bq", "bk", "bv", "bo"):
        params[f"{prefix}.{name}"] = _zeros(d)
    params[f"{prefix}.ln1.g"] = _ones(d)
    params[f"{prefix}.ln1.b"] = _zeros(d)
    params[f"{prefix}.ln2.g"] = _ones(d)
    params[f"{prefix}.ln2.b"] = _zeros(d)
    params[f"{prefix}.ff.w1"] = xavier(rng, d, d_ff)
    params[f"{prefix}.ff.b1"] = _zeros(d_ff)
    params[f"{prefix}.ff.w2"] = xavier(rng, d_ff, d)
    params[f"{prefix}.ff.b2"] = _zeros(d)


def init_price_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    p["price.in.w"] = xavier(rng, cfg.price_features, cfg.d_model)
    p["price.in.b"] = _zeros(cfg.d_model)
    for i in range(cfg.n_layers):
        init_transformer_layer(p, f"price.layer{i}", cfg.d_model, cfg.d_ff, rng)
    return p


def init_text_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    p["text.embed"] = Tensor(
        rng.normal(scale=0.02, size=(cfg.vocab_size, cfg.d_model)), requires_grad=True)
    for i in range(cfg.n_layers):
        init_transformer_layer(p, f"text.layer{i}", cfg.d_model, cfg.d_ff, rng)
    return p


def init_macro_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    g = len(MACRO_GROUPS)
    p["macro.gate.w"] = xavier(rng, len(MACRO_SLOTS), g)
    p["macro.gate.b"] = _zeros(g)
    for gi, idx in enumerate(MACRO_GROUPS.values()):
        p[f"macro.group{gi}.w"] = xavier(rng, len(idx), cfg.macro_group_dim)
        p[f"macro.group{gi}.b"] = _zeros(cfg.macro_group_dim)
    flat = g * cfg.macro_group_dim
    p["macro.mlp.w1"] = xavier(rng, flat, cfg.macro_hidden)
    p["macro.mlp.b1"] = _zeros(cfg.macro_hidden)
    p["macro.mlp.w2"] = xavier(rng, cfg.macro_hidden, cfg.d_model)
    p["macro.mlp.b2"] = _zeros(cfg.d_model)
    return p


def init_graph_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    dims = [cfg.graph_features] + [cfg.d_model] * cfg.graph_layers
    for i in range(cfg.graph_layers):
        p[f"graph.layer{i}.w"] = xavier(rng, dims[i], dims[i + 1])
        p[f"graph.layer{i}.a_src"] = xavier(rng, dims[i + 1], 1, shape=(dims[i + 1],))
        p[f"graph.layer{i}.a_dst"] = xavier(rng, dims[i + 1], 1, shape=(dims[i + 1],))
    return p


# ---------------------------------------------------------------------------
# transformer building blocks

@functools.lru_cache(maxsize=64)
def sinusoidal_positions(t: int, d: int) -> np.ndarray:
    """Classic sin/cos position table, shape (t, d). Built once per (t, d)
    and shared by every caller, so it is returned read-only."""
    pos = np.arange(t)[:, None]
    half = (d + 1) // 2
    freq = np.exp(-np.log(10000.0) * (2 * np.arange(half)) / d)
    angles = pos * freq[None, :]
    pe = np.zeros((t, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)[:, : d // 2]
    pe.flags.writeable = False
    return pe


def multi_head_attention(x: Tensor, params: dict, prefix: str, n_heads: int,
                         keep: np.ndarray | None = None) -> Tensor:
    """Self-attention over axis -2 of x: (B, T, d) -> (B, T, d). ``keep``
    marks the keys each query may attend to, as in ``autodiff.attention``."""
    q, k, v = (ad.linear(x, params[f"{prefix}.w{n}"], params[f"{prefix}.b{n}"])
               for n in "qkv")
    out = ad.attention(q, k, v, n_heads, keep)
    return ad.linear(out, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def transformer_layer(x: Tensor, params: dict, prefix: str, n_heads: int,
                      keep: np.ndarray | None = None) -> Tensor:
    """Pre-norm block: attention then position-wise feed-forward, residual
    both. ``keep`` is the attention mask of ``multi_head_attention``: a key
    padding mask, the presence of fused modalities, or a causal mask."""
    normed = ad.layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    x = x + multi_head_attention(normed, params, prefix, n_heads, keep)
    normed = ad.layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    return x + ad.feed_forward(normed, *(params[f"{prefix}.ff.{n}"]
                                         for n in ("w1", "b1", "w2", "b2")))


def graph_keep(adjacency: np.ndarray) -> np.ndarray:
    """(B, N, N) attention mask of a graph-attention layer: the edges with
    positive weight plus a self-loop on every node."""
    adj = np.asarray(adjacency)
    if adj.ndim != 3 or adj.shape[1] != adj.shape[2]:
        raise DimensionError(f"expected (B, N, N) adjacency, got {adj.shape}")
    return (adj > 0) | np.eye(adj.shape[1], dtype=bool)


def require_graph_keep(keep: np.ndarray, b: int, n: int) -> np.ndarray:
    """``keep`` as a boolean array, checked to mask ``b`` graphs of ``n``
    nodes; a raw adjacency is rejected, since it lacks the self-loops."""
    keep = np.asarray(keep)
    if keep.dtype != bool:
        raise DimensionError("graph mask must be boolean; build it with graph_keep")
    if keep.shape != (b, n, n):
        raise DimensionError(f"graph mask {keep.shape} does not match {b} graphs of {n} nodes")
    return keep


def gat_layer(x: Tensor, keep: np.ndarray, params: dict, prefix: str) -> Tensor:
    """Graph attention over (B, N, F) node states with a (B, N, N)
    ``graph_keep`` mask.

    Edges are scored additively (leaky-ReLU of source + destination
    projections), normalized per node over self plus neighbors, aggregated,
    then passed through an ELU.
    """
    b, n, _ = x.shape
    h = ad.matmul(x, params[f"{prefix}.w"])  # (B, N, d)
    src = ad.matmul(h, params[f"{prefix}.a_src"])  # (B, N)
    dst = ad.matmul(h, params[f"{prefix}.a_dst"])
    scores = ad.leaky_relu(
        ad.reshape(src, (b, n, 1)) + ad.reshape(dst, (b, 1, n)), alpha=0.2)
    scores = ad.masked_fill_logits(scores, keep)
    alpha = ad.softmax(scores, axis=-1)  # (B, N, N), rows sum to 1
    return ad.elu(ad.matmul(alpha, h))


def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over axis -2 restricted to mask-true rows."""
    m = np.asarray(mask, dtype=np.float64)[..., None]
    total = ad.reduce_sum(x * Tensor(m), axis=-2)
    counts = m.sum(axis=-2)
    if np.any(counts == 0):
        raise DegenerateInputError("pooling mask keeps no rows")
    return total * Tensor(1.0 / counts)


# ---------------------------------------------------------------------------
# batched encoders

def encode_price_batch(features: np.ndarray, params: dict, cfg) -> Tensor:
    """(B, T, F) price+indicator windows -> (B, d_model)."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3:
        raise DimensionError(f"expected (B, T, F), got {feats.shape}")
    b, t, f = feats.shape
    if t < 1:
        raise DegenerateInputError("empty price window")
    if f != cfg.price_features:
        raise DimensionError(f"price feature width {f} != configured {cfg.price_features}")
    x = ad.linear(Tensor(feats), params["price.in.w"], params["price.in.b"])
    x = x + Tensor(sinusoidal_positions(t, cfg.d_model)[None])
    for i in range(cfg.n_layers):
        x = transformer_layer(x, params, f"price.layer{i}", cfg.n_heads)
    return ad.reduce_mean(x, axis=-2)


def encode_text_batch(token_ids: np.ndarray, lengths: np.ndarray, params: dict,
                      cfg) -> Tensor:
    """(B, L) right-padded token ids with (B,) true lengths -> (B, d_model)."""
    ids = np.asarray(token_ids, dtype=np.int64)
    lens = np.asarray(lengths, dtype=np.int64)
    if ids.ndim != 2:
        raise DimensionError(f"expected (B, L) ids, got {ids.shape}")
    if np.any(lens < 1):
        raise DegenerateInputError("empty token sequence in batch")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise VocabularyError("token id outside vocabulary")
    b, l = ids.shape
    mask = np.arange(l)[None, :] < lens[:, None]
    x = ad.take_rows(params["text.embed"], ids)
    x = x + Tensor(sinusoidal_positions(l, cfg.d_model)[None])
    for i in range(cfg.n_layers):
        x = transformer_layer(x, params, f"text.layer{i}", cfg.n_heads,
                              keep=mask[:, None, None, :])
    return masked_mean_pool(x, mask)


def encode_macro_batch(values: np.ndarray, params: dict, cfg) -> Tensor:
    """(B, M) macro snapshots -> (B, d_model) via a softmax gate over groups."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[1] != len(MACRO_SLOTS):
        raise DimensionError(f"expected (B, {len(MACRO_SLOTS)}) macro values")
    if np.any(np.isnan(vals)):
        raise ImputationRequiredError("macro vector contains missing values")
    x = Tensor(vals)
    gate_logits = ad.linear(x, params["macro.gate.w"], params["macro.gate.b"])
    weights = ad.softmax(gate_logits, axis=-1)  # (B, G)
    pieces = []
    for gi, idx in enumerate(MACRO_GROUPS.values()):
        sub = Tensor(vals[:, list(idx)])
        emb = ad.linear(sub, params[f"macro.group{gi}.w"], params[f"macro.group{gi}.b"])
        w = ad.slice_axis(weights, 1, gi, gi + 1)  # (B, 1)
        pieces.append(emb * w)
    h = ad.concat(pieces, axis=-1)
    pre = ad.linear(h, params["macro.mlp.w1"], params["macro.mlp.b1"])
    return ad.linear(ad.tanh(pre), params["macro.mlp.w2"], params["macro.mlp.b2"])


def encode_graph_batch(features: np.ndarray, keep: np.ndarray, params: dict,
                       cfg) -> Tensor:
    """(B, N, F) node features and their (B, N, N) ``graph_keep`` mask ->
    (B, d_model), the node states of ``cfg.graph_layers`` graph-attention
    layers averaged over the nodes."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 3:
        raise DimensionError(f"expected (B, N, F) features, got {feats.shape}")
    b, n, f = feats.shape
    keep = require_graph_keep(keep, b, n)
    if f != cfg.graph_features:
        raise DimensionError(f"graph feature width {f} != configured {cfg.graph_features}")
    x = Tensor(feats)
    for i in range(cfg.graph_layers):
        x = gat_layer(x, keep, params, f"graph.layer{i}")
    return ad.reduce_mean(x, axis=-2)
