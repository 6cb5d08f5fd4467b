"""Cross-modal fusion backbone and the contrastive alignment loss.

Modality embeddings become a 4-token sequence with learned type embeddings,
one full-attention transformer layer mixes them, and a learned query pools
the present tokens into the unified representation z. Absent modalities are
masked with a logit penalty large enough that their softmax weight underflows
to exactly zero, so masking and physical removal agree to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .autodiff import Tensor
from .errors import ContractError, DegenerateInputError, DimensionError, check_number

MODALITIES = ("price", "text", "macro", "graph")


@dataclass
class AlignConfig:
    """Contrastive alignment settings."""

    temperature: float = 0.1
    pairs: tuple = (("price", "text"),)

    def __post_init__(self):
        check_number("temperature", self.temperature, 0, strict=True)
        if not isinstance(self.pairs, (list, tuple)):
            raise ContractError(f"pairs must be a list of modality pairs, got {self.pairs!r}")
        for pair in self.pairs:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and pair[0] != pair[1] and all(k in MODALITIES for k in pair)):
                raise ContractError(f"pairs must be pairs of two different modalities "
                                    f"of {MODALITIES}, got {pair!r}")


def init_fusion_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    p["fusion.type"] = Tensor(
        rng.normal(scale=0.02, size=(4, cfg.d_model)), requires_grad=True)
    enc.init_transformer_layer(p, "fusion.layer0", cfg.d_model, cfg.d_ff, rng)
    p["fusion.pool.q"] = enc.xavier(rng, cfg.d_model, 1, shape=(cfg.d_model,))
    return p


def fuse_batch(embeddings: dict, params: dict, cfg) -> tuple[Tensor, np.ndarray]:
    """Mix per-modality embeddings into z.

    ``embeddings`` maps modality name to a (B, d_model) tensor; a modality it
    omits is absent from every row, and its slot is masked out of the mixing
    layer's keys and of the pooling. Returns z (B, d_model) and the pooling
    weights (B, 4) with exact zeros at absent slots.
    """
    if not embeddings:
        raise DegenerateInputError("no modalities to fuse")
    present = np.array([kind in embeddings for kind in MODALITIES])
    b = next(iter(embeddings.values())).shape[0]
    zero = Tensor(np.zeros((b, cfg.d_model)))
    x = ad.stack([embeddings.get(kind, zero) for kind in MODALITIES], axis=1)  # (B, 4, d)
    x = x + ad.reshape(params["fusion.type"], (1, 4, cfg.d_model))
    x = enc.transformer_layer(x, params, "fusion.layer0", cfg.n_heads, keep=present)
    # learned-query attention pooling over present tokens
    scores = ad.matmul(x, params["fusion.pool.q"]) * (1.0 / np.sqrt(cfg.d_model))
    scores = ad.masked_fill_logits(scores, present)
    weights = ad.softmax(scores, axis=-1)  # (B, 4)
    z = ad.matmul(ad.reshape(weights, (b, 1, 4)), x)  # (B, 1, d)
    z = ad.reshape(z, (b, cfg.d_model))
    return z, weights.data.copy()


def similarity(a, b) -> float:
    """Cosine similarity of two vectors; rejects zero vectors."""
    av = a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64)
    bv = b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine similarity of a zero vector")
    return float(np.dot(av.ravel(), bv.ravel()) / (na * nb))


def _unit_rows(x: Tensor) -> Tensor:
    if not np.all(np.linalg.norm(x.data, axis=-1) > 0):
        raise DegenerateInputError("zero row in embedding batch")
    sq = ad.reduce_sum(x * x, axis=-1, keepdims=True)
    return x * ad.pow_const(sq, -0.5)


def align_loss(z_a: Tensor, z_b: Tensor, cfg: AlignConfig) -> Tensor:
    """Symmetric InfoNCE over a batch of paired embeddings.

    Row i of each side is a positive pair; all other rows are negatives.
    Cosine similarities are scaled by 1/temperature. Averaged over both
    matching directions; zero when the batch has a single pair.
    """
    if z_a.ndim != 2 or z_a.shape != z_b.shape:
        raise DimensionError(f"paired batches must match: {z_a.shape} vs {z_b.shape}")
    n = z_a.shape[0]
    if n == 0:
        raise DegenerateInputError("empty alignment batch")
    za = _unit_rows(z_a)
    zb = _unit_rows(z_b)
    sims = ad.matmul(za, ad.transpose(zb)) * (1.0 / cfg.temperature)  # (N, N)
    labels = np.arange(n)
    forward = ad.cross_entropy(sims, labels)
    backward_ce = ad.cross_entropy(ad.transpose(sims), labels)
    return (forward + backward_ce) * 0.5
