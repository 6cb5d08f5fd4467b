"""Model-wide configuration, parameter initialization, and the one forward
pass that training, evaluation, queries and the RL environment share."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from . import fusion as fus
from . import heads as task_heads
from .autodiff import Tensor
from .datapipe import GRAPH_FEATURE_NAMES, MACRO_SLOTS, build_vocab
from .errors import ConfigError, DegenerateInputError, check_number

# rows per chunk of a read-only backbone pass (evaluation, the RL env's state
# table); fixed chunks bound the pass's peak memory and fix its rounding: a
# row's last bits depend on where its chunk ends (at the default dims, chunks
# of a multiple of 4 rows round alike, others do not), so a one-row
# ``forecast`` can differ in the last bit from ``eval``'s value for that row
EVAL_BATCH = 64

# integer fields of ModelConfig: those that must be positive (the graph
# encoder's first layer maps node features to d_model, so it needs one), and
# counts that may be 0 (d_ff 0 means 4 * d_model)
_POSITIVE_DIMS = ("d_model", "n_heads", "vocab_size", "price_features",
                  "macro_group_dim", "macro_hidden", "graph_features",
                  "graph_layers", "mdn_components")
_COUNTS = ("n_layers", "d_ff", "micro_layers", "risk_gat_layers")
# retired keys of older model configs -> the last default each held: the
# policy width moved to rl.actions, the direction band to datapipe.FLAT_BAND,
# and the macro layout to datapipe.MACRO_SLOTS and encoders.MACRO_GROUPS
_RETIRED = {"n_actions": 3, "flat_band": 5e-4, "macro_slots": MACRO_SLOTS,
            "macro_groups": enc.MACRO_GROUPS}


@dataclass
class ModelConfig:
    """Dimensions and knobs shared by every module; the input widths and the
    vocabulary default to the data's."""

    d_model: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 0  # 0 means 4 * d_model
    vocab_size: int = len(build_vocab())
    price_features: int = 12
    macro_group_dim: int = 16
    macro_hidden: int = 64
    graph_features: int = len(GRAPH_FEATURE_NAMES)
    graph_layers: int = 2
    mdn_components: int = 3
    micro_layers: int = 1
    risk_gat_layers: int = 2
    warning_threshold: float = 0.5

    def __post_init__(self):
        for name in _POSITIVE_DIMS + _COUNTS:
            check_number(name, getattr(self, name), int(name in _POSITIVE_DIMS),
                         integral=True)
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        if self.d_model % self.n_heads != 0:
            raise ConfigError("d_model must be divisible by n_heads")
        if self.d_model % 2 != 0:
            raise ConfigError("d_model must be even for the position table")
        if not 0 < self.vocab_size <= 512:
            raise ConfigError("vocab_size must be in (0, 512]")
        check_number("warning_threshold", self.warning_threshold, 0, 1, strict=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """A retired key is dropped at its last default, so older configs
        load; any other value would now be ignored, so it is rejected."""
        d = dict(d)
        for key in sorted(_RETIRED.keys() & d.keys()):
            value = json.dumps(d.pop(key), sort_keys=True)  # a list equals a tuple
            if value != json.dumps(_RETIRED[key], sort_keys=True):
                raise ConfigError(f"{key}: retired; only its last default is accepted")
        return cls(**d)


def init_model_params(cfg: ModelConfig, rng: np.random.Generator) -> dict:
    """All learnable leaves in one flat dict, keyed by dotted names.

    Prefixes (price., text., macro., graph., fusion., micro., risk.) let
    training stages select subsets; ``rl.init_policy_params`` adds policy.
    """
    params: dict = {}
    params.update(enc.init_price_params(cfg, rng))
    params.update(enc.init_text_params(cfg, rng))
    params.update(enc.init_macro_params(cfg, rng))
    params.update(enc.init_graph_params(cfg, rng))
    params.update(fus.init_fusion_params(cfg, rng))
    params.update(task_heads.init_micro_params(cfg, rng))
    params.update(task_heads.init_risk_params(cfg, rng))
    return params


def param_subset(params: dict, prefixes) -> dict:
    """Filter the flat parameter dict by dotted-name prefix."""
    chosen = {}
    for name, tensor in params.items():
        if any(name.startswith(p) for p in prefixes):
            chosen[name] = tensor
    return chosen


def embed_batch(batch: dict, params: dict, cfg, kinds, keep: np.ndarray) -> dict:
    """Run the encoders named in ``kinds`` over one assembled batch whose
    graph has the ``encoders.graph_keep`` mask ``keep``."""
    embs = {}
    if "price" in kinds:
        embs["price"] = enc.encode_price_batch(batch["price"], params, cfg)
    if "text" in kinds:
        embs["text"] = enc.encode_text_batch(batch["tokens"], batch["tok_len"],
                                             params, cfg)
    if "macro" in kinds:
        embs["macro"] = enc.encode_macro_batch(batch["macro"], params, cfg)
    if "graph" in kinds:
        embs["graph"] = enc.encode_graph_batch(batch["graph_feats"], keep, params, cfg)
    return embs


def forward_batch(batch: dict, params: dict, cfg: ModelConfig,
                  kinds=fus.MODALITIES, heads=("micro", "risk"), horizon: int = 1,
                  risk_rows=None) -> dict:
    """Run the encoders named in ``kinds``, fusion, and the task heads named in
    ``heads`` on one fully aligned batch; modalities outside ``kinds`` are
    fused as absent from every row. This is the only way into the micro
    head: its mixture is for the return ``horizon`` steps past each row's
    date, rolled by ``heads.micro_head_batch`` from the fused state. The
    risk head scores the rows indexed by ``risk_rows``, one per date (see
    ``date_first_rows``), or every row if it is None.

    ``batch`` carries numpy arrays: price (B, T, F), tokens (B, L) with
    tok_len (B,), macro (B, M), graph node features (B, N, Fg) and adjacency
    (B, N, N). Returns tensors keyed by stage for the loss functions: ``z``,
    ``embs`` (kind -> embedding of each encoded modality) and
    ``fuse_weights`` always; the z-scored (B, K) mixture ``mdn_weights``,
    ``mdn_means`` and ``mdn_sigmas`` with the micro head; ``risk_score`` and
    ``contributions``, one row per scored row, with the risk head.

    The ops inside do not check finiteness; the returned tensors are checked
    once here, so every caller gets finite outputs or a NumericalError.
    """
    b = batch["price"].shape[0]
    keep = enc.graph_keep(batch["graph_adj"])
    embs = embed_batch(batch, params, cfg, kinds, keep)
    z, fuse_weights = fus.fuse_batch(embs, params, cfg)
    out = {"z": z, "embs": embs, "fuse_weights": fuse_weights}
    if "micro" in heads:
        mixture = task_heads.micro_head_batch(
            ad.reshape(z, (b, 1, cfg.d_model)), params, cfg, k=horizon)
        out.update(zip(("mdn_weights", "mdn_means", "mdn_sigmas"), mixture))
    if "risk" in heads:
        feats = batch["graph_feats"]
        if risk_rows is not None:
            z, feats, keep = ad.take_rows(z, risk_rows), feats[risk_rows], keep[risk_rows]
        out["risk_score"], out["contributions"] = task_heads.macro_risk_batch(
            z, feats, keep, params, cfg)
    for name, t in list(embs.items()) + list(out.items()):
        if isinstance(t, Tensor):
            ad.require_finite(t.data, f"forward output {name}")
    return out


def date_first_rows(pairs) -> np.ndarray:
    """Indices of the first (asset, date) pair of each date in ``pairs``, in
    order: the rows the risk head scores. Each date's rows share its graph
    and every caller numbers asset 0's row first, so this is asset 0's."""
    dates = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)[:, 1]
    return np.sort(np.unique(dates, return_index=True)[1])


def forward_chunks(dataset, pairs, params: dict, cfg: ModelConfig,
                   kinds=fus.MODALITIES, heads=("micro", "risk"), labels=()) -> dict:
    """One read-only ``forward_batch`` pass over the (asset, date) ``pairs``
    of ``dataset`` in chunks of ``EVAL_BATCH`` rows. Returns the values of
    every output tensor and the ``batch_arrays`` entries named in ``labels``,
    each concatenated over the chunks. The risk outputs hold one row per
    date, from ``date_first_rows``; the others one per pair. A chunk whose
    every row starts its date scores them all, as its one plain
    ``forward_batch`` call does; any other scores its date-start rows,
    which may be none. DegenerateInputError if ``pairs`` is empty."""
    if not len(pairs):
        raise DegenerateInputError("forward_chunks got an empty batch of (asset, date) pairs")
    first = np.zeros(len(pairs), dtype=bool)
    first[date_first_rows(pairs)] = True
    parts: dict = {}
    for i in range(0, len(pairs), EVAL_BATCH):
        batch = dataset.batch_arrays(pairs[i:i + EVAL_BATCH])
        starts = first[i:i + EVAL_BATCH]
        out = forward_batch(batch, params, cfg, kinds=kinds, heads=heads,
                            risk_rows=None if starts.all() else np.flatnonzero(starts))
        for name, t in out.items():
            if isinstance(t, Tensor):
                parts.setdefault(name, []).append(t.data)
        for name in labels:
            parts.setdefault(name, []).append(batch[name])
    return {name: np.concatenate(arrs) for name, arrs in parts.items()}
