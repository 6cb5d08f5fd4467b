"""Loss composition, AdamW over a flat parameter buffer, the warmup-cosine
schedule, staged training, and bit-exact checkpoints.

The training procedure runs four stages in a fixed order: single-modality
pretraining, contrastive alignment, joint multitask training, and RL
fine-tuning of the policy head. Each stage gets a fresh optimizer and its
own RNG stream so a seeded run is reproducible bit for bit.
"""

import contextlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from . import container
from . import encoders as enc
from . import fusion as fus
from . import heads
from . import model as model_mod
from . import rl as rl_mod
from .autodiff import Tensor
from .errors import (ContractError, DimensionError, NumericalError, ScheduleError,
                     SchemaError, check_number, check_numbers)

STAGES = ("unimodal-pretrain", "multimodal-align", "joint-multitask", "rl-finetune")

# split of the headline 80 epochs across the stages
DEFAULT_STAGE_EPOCHS = {
    "unimodal-pretrain": 20,
    "multimodal-align": 10,
    "joint-multitask": 40,
    "rl-finetune": 10,
}

_KIND_PREFIX = {"price": "price.", "text": "text.", "macro": "macro.", "graph": "graph."}
# the head each task's step trains, with fusion; align trains the encoders alone
_TASK_HEAD = {"forecast": "micro", "risk": "risk", "align": None}
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# elements per AdamW block: a block's slices of the parameters, gradients
# and two moments, with the two scratch vectors, take 768 KiB, so each of
# the update's passes reads them from a 2 MiB per-core L2
_ADAM_BLOCK = 16384
_BCE_EPS = 1e-12


@dataclass
class LossWeights:
    """Multipliers for the four loss terms: forecast, risk, align, RL."""

    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 0.5
    lambda4: float = 0.1

    def __post_init__(self):
        vals = (self.lambda1, self.lambda2, self.lambda3, self.lambda4)
        for i, v in enumerate(vals, start=1):
            check_number(f"lambda{i}", v, 0)
        if all(v == 0 for v in vals):
            raise ContractError("at least one loss weight must be positive")


@dataclass
class ForecastLossConfig:
    quantile_levels: tuple = (0.1, 0.5, 0.9)
    mse_weight: float = 1.0

    def __post_init__(self):
        check_numbers("quantile_levels", self.quantile_levels, 0, 1, strict=True)
        self.quantile_levels = tuple(float(t) for t in self.quantile_levels)
        check_number("mse_weight", self.mse_weight, 0)


@dataclass
class TrainingConfig:
    micro_batch_size: int = 32
    macro_batch_size: int = 16
    peak_lr: float = 1e-3
    warmup_steps: int = 20
    weight_decay: float = 0.01
    seeds: tuple = (0, 1, 2, 3, 4)
    rl_lr: float = 0.05
    episodes_per_epoch: int = 8

    def __post_init__(self):
        for name, least in (("micro_batch_size", 1), ("macro_batch_size", 1),
                            ("warmup_steps", 0), ("episodes_per_epoch", 1)):
            check_number(name, getattr(self, name), least, integral=True)
        for name, strict in (("peak_lr", True), ("rl_lr", True),
                             ("weight_decay", False)):
            check_number(name, getattr(self, name), 0, strict=strict)
        check_numbers("seeds", self.seeds, 0, integral=True)
        if not self.seeds:
            raise ContractError("seeds must be a nonempty list")
        self.seeds = tuple(int(s) for s in self.seeds)


@dataclass
class StageSchedule:
    epochs: dict = field(default_factory=lambda: dict(DEFAULT_STAGE_EPOCHS))

    def __post_init__(self):
        if set(self.epochs) != set(STAGES):
            raise ContractError(f"schedule must cover exactly the stages {STAGES}")
        for s in STAGES:
            check_number(s, self.epochs[s], 0, integral=True)
            self.epochs[s] = int(self.epochs[s])


@dataclass
class StageReport:
    stage: str
    epochs: int
    losses: dict  # term -> per-epoch mean, always includes "total"
    n_steps: int = 0


# ---------------------------------------------------------------------------
# losses

def quantile_loss(y: float, yhat: float, tau: float) -> float:
    """Pinball loss: tau * e for overshoot, (tau - 1) * e for undershoot."""
    if not 0.0 < tau < 1.0:
        raise ContractError("tau must lie strictly inside (0, 1)")
    e = y - yhat
    return tau * e if e >= 0 else (tau - 1.0) * e


def _pinball_mean(y: Tensor, q: Tensor, tau: float) -> Tensor:
    e = y - q
    return ad.reduce_mean(ad.relu(e) * tau + ad.relu(e * -1.0) * (1.0 - tau))


def forecast_loss(y, weights: Tensor, means: Tensor, sigmas: Tensor,
                  cfg: ForecastLossConfig) -> Tensor:
    """MSE of the mixture mean plus summed pinball losses of the mixture
    quantiles at the configured levels."""
    yv = np.asarray(y, dtype=np.float64).reshape(-1)
    if yv.size == 0:
        raise ContractError("forecast_loss needs a nonempty batch")
    if weights.shape[0] != yv.size:
        raise DimensionError(f"{yv.size} targets for {weights.shape[0]} forecasts")
    yt = Tensor(yv)
    point = ad.reduce_sum(weights * means, axis=-1)
    diff = point - yt
    loss = ad.reduce_mean(diff * diff) * cfg.mse_weight
    qs = heads.mixture_quantile(weights, means, sigmas, cfg.quantile_levels)
    for j, tau in enumerate(cfg.quantile_levels):
        q = ad.reshape(ad.slice_axis(qs, 1, j, j + 1), (yv.size,))
        loss = loss + _pinball_mean(yt, q, tau)
    return loss


def _clamp_low(x: Tensor, floor: float) -> Tensor:
    return ad.relu(x - floor) + floor


def risk_loss(scores, crisis_flags, stress_targets) -> Tensor:
    """Binary cross-entropy of the risk score against the crisis flag plus
    MSE against the continuous stress target, summed.

    The same score serves both labels: it is read as a crisis probability
    and as a stress estimate.
    """
    s = scores if isinstance(scores, Tensor) else Tensor(np.asarray(scores, dtype=np.float64))
    flags = np.asarray(crisis_flags, dtype=np.float64).reshape(-1)
    stress = np.asarray(stress_targets, dtype=np.float64).reshape(-1)
    if s.shape != flags.shape or s.shape != stress.shape:
        raise DimensionError("scores, flags, and stress targets must share a length")
    if flags.size == 0:
        raise ContractError("risk_loss needs a nonempty batch")
    if not np.all((flags == 0.0) | (flags == 1.0)):
        raise ContractError("crisis flags must be binary")
    if np.any(s.data < 0) or np.any(s.data > 1):
        raise ContractError("scores must lie in [0, 1]")
    f = Tensor(flags)
    bce_terms = f * ad.log(_clamp_low(s, _BCE_EPS)) \
        + Tensor(1.0 - flags) * ad.log(_clamp_low(s * -1.0 + 1.0, _BCE_EPS))
    bce = ad.reduce_mean(bce_terms) * -1.0
    err = s - Tensor(stress)
    return bce + ad.reduce_mean(err * err)


def total_loss(components, w: LossWeights):
    """lambda1 * forecast + lambda2 * risk + lambda3 * align + lambda4 * rl.

    ``components`` is a mapping from term name to scalar (tensor or float);
    missing terms contribute nothing.
    """
    unknown = set(components) - {"forecast", "risk", "align", "rl"}
    if unknown:
        raise ContractError(f"unknown loss terms {sorted(unknown)}")
    for name, c in components.items():
        v = c.data if isinstance(c, Tensor) else np.asarray(c)
        if not np.all(np.isfinite(v)):
            raise ContractError(f"loss component {name} is not finite")
    lams = {"forecast": w.lambda1, "risk": w.lambda2,
            "align": w.lambda3, "rl": w.lambda4}
    out = 0.0
    for name, lam in lams.items():
        if name in components:
            out = components[name] * lam + out
    return out


# ---------------------------------------------------------------------------
# optimizer and schedule

def lr_schedule(step: int, peak: float, warmup_steps: int, total_steps: int) -> float:
    """Linear ramp 0 -> peak over the warmup, then cosine decay to peak/100."""
    if step < 0:
        raise ContractError("step must be >= 0")
    if not 0 <= warmup_steps < total_steps:
        raise ContractError("need 0 <= warmup_steps < total_steps")
    floor = peak / 100.0
    if warmup_steps > 0 and step < warmup_steps:
        return peak * step / warmup_steps
    if step >= total_steps:
        return floor
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


class ParamBuffer:
    """A parameter dict's leaves packed, in sorted-name order, into one
    float64 vector, with a gradient vector in the same layout.

    Packing rebinds each leaf's ``data`` and ``grad`` to views into the two
    vectors, so ops, ``backward`` and in-place edits of a leaf all read and
    write the buffer. Sorted order keeps every dotted prefix (``price.``,
    ``fusion.`` ...) one contiguous run.
    """

    def __init__(self, params: dict):
        self.spans: dict = {}
        offset = 0
        for name in sorted(params):
            self.spans[name] = (offset, offset + params[name].size)
            offset += params[name].size
        self.data = np.empty(offset)
        self.grad = np.zeros(offset)
        for name, (lo, hi) in self.spans.items():
            leaf = params[name]
            self.data[lo:hi] = leaf.data.ravel()
            leaf.data = self.data[lo:hi].reshape(leaf.shape)
            leaf.grad = self.grad[lo:hi].reshape(leaf.shape)


@dataclass
class AdamWState:
    """First/second moments as vectors in a ``ParamBuffer``'s layout
    (allocated on the first step), and per-leaf step counts keyed by name."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: dict = field(default_factory=dict)


def adamw_step(buf: ParamBuffer, names, state: AdamWState, lr: float,
               weight_decay: float = 0.01) -> None:
    """One decoupled-weight-decay adaptive-moment update of the leaves
    ``names`` from the gradients in ``buf.grad``, in place.

    Only the named leaves move; weight decay is applied to exactly those,
    keeping untouched pathways untouched. The named leaves are walked as
    spans: each run of adjacent leaves that share a step count is updated
    with a few vector ops. A leaf's bias correction follows its own step
    count, so a leaf that joins late starts fresh. Each span is walked in
    blocks of ``_ADAM_BLOCK`` elements, every element getting the same ops
    in the same order. NumericalError, before any leaf, moment or step
    count moves, unless every named gradient is finite.
    """
    if state.m is None:
        state.m, state.v = np.zeros_like(buf.data), np.zeros_like(buf.data)
    elif state.m.shape != buf.data.shape:
        raise DimensionError(
            f"optimizer state holds {state.m.size} values, the buffer {buf.data.size}")
    counts = {name: state.t.get(name, 0) + 1 for name in sorted(names)}
    spans = []  # [lo, hi, t]
    for name, t in counts.items():
        lo, hi = buf.spans[name]
        if spans and spans[-1][1] == lo and spans[-1][2] == t:
            spans[-1][1] = hi
        else:
            spans.append([lo, hi, t])
    for lo, hi, _ in spans:
        ad.require_finite(buf.grad[lo:hi], "gradients")
    state.t.update(counts)
    width = min(_ADAM_BLOCK, max((hi - lo for lo, hi, _ in spans), default=0))
    step_buf, denom_buf = np.empty(width), np.empty(width)
    for lo, hi, t in spans:
        for a in range(lo, hi, _ADAM_BLOCK):
            b = min(a + _ADAM_BLOCK, hi)
            p, g = buf.data[a:b], buf.grad[a:b]
            m, v = state.m[a:b], state.v[a:b]
            step, denom = step_buf[:b - a], denom_buf[:b - a]
            m *= _ADAM_BETA1
            m += np.multiply(g, 1.0 - _ADAM_BETA1, out=step)
            v *= _ADAM_BETA2
            np.multiply(g, 1.0 - _ADAM_BETA2, out=step)
            v += np.multiply(step, g, out=step)
            # p -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * p)
            np.divide(m, 1.0 - _ADAM_BETA1 ** t, out=step)
            np.divide(v, 1.0 - _ADAM_BETA2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += _ADAM_EPS
            step /= denom
            step += np.multiply(p, weight_decay, out=denom)
            step *= lr
            p -= step


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"FFCP"


class _Leaves(dict):
    """A checkpoint's parameters by name, read from ``path``."""

    def __missing__(self, name):
        raise SchemaError(f"{self.path}: checkpoint has no parameter {name}")


def save_checkpoint(path: str, params: dict, meta: dict | None = None) -> None:
    """The parameters as float64 arrays in sorted-name order, plus ``meta``,
    in the shared binary container; byte-exact."""
    container.write(path, CHECKPOINT_MAGIC,
                    [(n, params[n].data) for n in sorted(params)], meta or {})


def load_checkpoint(path: str):
    """Returns (params dict of gradient-carrying tensors, meta).

    SchemaError, naming the file, unless it is exactly the version-2
    container its header describes, its header and arrays match their hash,
    and every array is float64; reading a leaf the file lacks is one too.
    """
    arrays, meta = container.read(path, CHECKPOINT_MAGIC)
    for name, arr in arrays.items():
        if arr.dtype != np.float64:
            raise SchemaError(f"{path}: parameter {name} is {arr.dtype}, not float64")
    if arrays:
        # all float64, so every array is a view of the container's one
        # buffer of float64 words, and the check reads that buffer in place
        ad.require_finite(next(iter(arrays.values())).base, f"{path}: parameters")
    # the container's arrays are apart from the file, so the leaves can own
    # them; their gradients are views into one zeroed vector
    grads, offset = np.zeros(sum(a.size for a in arrays.values())), 0
    params = _Leaves()
    params.path = path
    for name, arr in arrays.items():
        params[name] = Tensor.leaf(arr, grads[offset:offset + arr.size].reshape(arr.shape))
        offset += arr.size
    return params, meta


# ---------------------------------------------------------------------------
# staged training

def _chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


@contextlib.contextmanager
def _divergence(stage: str, step: int, caught=(NumericalError, ContractError)):
    """Report a failure of the ``caught`` kinds inside a step as divergence.

    Inputs were validated up front, so a mid-step violation of a loss's
    contract means the numbers blew up.
    """
    try:
        yield
    except caught as e:
        raise NumericalError(
            f"training diverged at stage {stage}, step {step}: {e}") from e


class TrainingRun:
    """One seeded end-to-end training: owns the parameters, the stage
    bookkeeping, and the per-stage RNG streams."""

    def __init__(self, dataset, model_cfg, cfg: TrainingConfig,
                 schedule: StageSchedule | None = None,
                 loss_weights: LossWeights | None = None,
                 forecast_cfg: ForecastLossConfig | None = None,
                 align_cfg: fus.AlignConfig | None = None,
                 rl_cfg: rl_mod.RLConfig | None = None,
                 seed: int = 0, modalities=None):
        self.dataset = dataset
        self.model_cfg = model_cfg
        self.cfg = cfg
        self.schedule = schedule or StageSchedule()
        self.weights = loss_weights or LossWeights()
        self.forecast_cfg = forecast_cfg or ForecastLossConfig()
        self.align_cfg = align_cfg or fus.AlignConfig()
        self.rl_cfg = rl_cfg or rl_mod.RLConfig()
        # restricting the modality set turns the run into an ablation
        self.modalities = tuple(modalities) if modalities else tuple(fus.MODALITIES)
        bad = set(self.modalities) - set(fus.MODALITIES)
        if bad:
            raise ContractError(f"unknown modalities {sorted(bad)}")
        self.seed = int(seed)
        ss = np.random.SeedSequence(self.seed)
        children = ss.spawn(len(STAGES) + 1)
        rng = np.random.default_rng(children[0])
        self.params = model_mod.init_model_params(model_cfg, rng)
        self.params.update(rl_mod.init_policy_params(
            model_cfg.d_model, len(self.rl_cfg.actions), rng))
        self.buffer = ParamBuffer(self.params)
        self._stage_seed = dict(zip(STAGES, children[1:]))
        self.completed: list = []
        self.reports: list = []
        self._subsets: dict = {}

    # ------------------------------------------------------------------
    # single optimization steps

    def _subset(self, kinds, extra):
        """Sorted names of the leaves a step moves, worked out once per run
        for each ``(kinds, extra)``: the leaf names never change."""
        names = self._subsets.get((kinds, extra))
        if names is None:
            prefixes = tuple(_KIND_PREFIX[k] for k in kinds) + extra
            names = tuple(sorted(model_mod.param_subset(self.params, prefixes)))
            self._subsets[kinds, extra] = names
        return names

    def _align_term(self, embs):
        """Mean alignment loss over the configured pairs present in ``embs``;
        None when no pair is."""
        terms = [fus.align_loss(embs[a], embs[b], self.align_cfg)
                 for a, b in self.align_cfg.pairs if a in embs and b in embs]
        return sum(terms[1:], terms[0]) * (1.0 / len(terms)) if terms else None

    def _step(self, task, kinds, with_align, pairs, opt, lr):
        """One optimizer step of ``task`` ("forecast", "risk" or "align") on
        the rows ``pairs``, fusing the modalities ``kinds``; ``with_align``
        adds the alignment term. Returns each loss term and the total.

        The loss and the stepped gradients are the only finiteness checks a
        step makes beyond those of ``exp``, ``log`` and ``sqrt``.
        """
        batch = self.dataset.batch_arrays(pairs)
        head = _TASK_HEAD[task]
        names = self._subset(kinds, ("fusion.", f"{head}.") if head else ())
        with ad.Tape() as tape:
            comps = {}
            if head is None:
                embs = model_mod.embed_batch(batch, self.params, self.model_cfg,
                                             kinds, enc.graph_keep(batch["graph_adj"]))
            else:
                out = model_mod.forward_batch(batch, self.params, self.model_cfg,
                                              kinds, heads=(head,))
                embs = out["embs"]
                if task == "forecast":
                    comps["forecast"] = forecast_loss(
                        batch["y"], out["mdn_weights"], out["mdn_means"],
                        out["mdn_sigmas"], self.forecast_cfg)
                else:
                    comps["risk"] = risk_loss(out["risk_score"], batch["crisis_next"],
                                              batch["stress_next"])
            if with_align:
                at = self._align_term(embs)
                if at is not None:
                    comps["align"] = at
            if not comps:
                raise ContractError("alignment stage has no usable modality pairs")
            loss = total_loss(comps, self.weights)
            ad.require_finite(loss.data, "loss")
            self.buffer.grad.fill(0.0)
            ad.backward(loss, tape)
            adamw_step(self.buffer, names, opt, lr, self.cfg.weight_decay)
        return {k: float(v.data) for k, v in comps.items()} | {"total": float(loss.data)}

    # ------------------------------------------------------------------
    # stages

    def _stage_steps(self, stage, rng):
        """Deterministic per-epoch step list: (task, kinds, with_align, batch).

        The loss terms each stage optimizes:
        - unimodal-pretrain: forecast on the price or text encoder alone, risk
          on the macro or graph encoder alone, alternating between the two
          encoders of each task;
        - multimodal-align: align, over the configured modality pairs, moving
          the encoders only;
        - joint-multitask: forecast + align on micro batches and risk on macro
          batches, all modalities fused;
        - rl-finetune: the policy-gradient return (see ``rl.policy_epoch``);
          it has no gradient steps here.
        """
        micro_pairs = self.dataset.sample_pairs("train")
        macro_pairs = [(0, t) for t in self.dataset.splits["train"]]
        order_m = rng.permutation(len(micro_pairs))
        order_g = rng.permutation(len(macro_pairs))
        micro = _chunks([micro_pairs[i] for i in order_m], self.cfg.micro_batch_size)
        macro = _chunks([macro_pairs[i] for i in order_g], self.cfg.macro_batch_size)
        allowed = self.modalities
        steps = []
        if stage == "unimodal-pretrain":
            uni_micro = tuple(k for k in ("price", "text") if k in allowed)
            uni_macro = tuple(k for k in ("macro", "graph") if k in allowed)
            if uni_micro:
                for i, b in enumerate(micro):
                    steps.append(("forecast", (uni_micro[i % len(uni_micro)],),
                                  False, b))
            if uni_macro:
                for i, b in enumerate(macro):
                    steps.append(("risk", (uni_macro[i % len(uni_macro)],),
                                  False, b))
        elif stage == "multimodal-align":
            usable = [p for p in self.align_cfg.pairs
                      if p[0] in allowed and p[1] in allowed]
            kinds = tuple(sorted({k for p in usable for k in p}))
            if usable:
                for b in micro:
                    steps.append(("align", kinds, True, b))
        elif stage == "joint-multitask":
            for b in micro:
                steps.append(("forecast", allowed, True, b))
            for b in macro:
                steps.append(("risk", allowed, False, b))
        else:
            raise ScheduleError(f"no gradient steps defined for stage {stage}")
        order = rng.permutation(len(steps))
        return [steps[i] for i in order]

    def run_stage(self, stage: str) -> StageReport:
        if stage not in STAGES:
            raise ScheduleError(f"unknown stage {stage!r}")
        idx = STAGES.index(stage)
        if self.completed != list(STAGES[:idx]):
            raise ScheduleError(
                f"stage {stage!r} requires completed {STAGES[:idx]}, "
                f"have {tuple(self.completed)}")
        n_epochs = self.schedule.epochs[stage]
        rng = np.random.default_rng(self._stage_seed[stage])
        if n_epochs == 0:
            report = StageReport(stage, 0, {"total": []})
        elif stage == "rl-finetune":
            with _divergence(stage, 0, NumericalError):
                # only policy.* moves in this stage, so one snapshot serves it all
                env = rl_mod.DatasetEnv(self.dataset, self.params, self.model_cfg,
                                        self.rl_cfg, split="train",
                                        kinds=self.modalities)
            returns = []
            for step in range(n_epochs):
                with _divergence(stage, step, NumericalError):
                    returns.append(rl_mod.policy_epoch(
                        env, self.params, self.rl_cfg, rng,
                        self.cfg.episodes_per_epoch, self.cfg.rl_lr)[1])
            totals = [-self.weights.lambda4 * r for r in returns]
            report = StageReport(stage, n_epochs,
                                 {"total": totals, "return": returns}, n_epochs)
        else:
            epoch = self._stage_steps(stage, rng)
            steps_per_epoch = len(epoch)
            if steps_per_epoch == 0:
                raise ScheduleError(
                    f"stage {stage} has no steps for modalities {self.modalities}")
            total_steps = n_epochs * steps_per_epoch
            if self.cfg.warmup_steps >= total_steps:
                raise ContractError(
                    f"warmup_steps {self.cfg.warmup_steps} must be below the "
                    f"stage's {total_steps} total steps")
            opt = AdamWState()
            losses: dict = {}
            step = 0
            for e in range(n_epochs):
                if e:
                    epoch = self._stage_steps(stage, rng)
                epoch_terms: dict = {}
                for task, kinds, with_align, batch in epoch:
                    lr = lr_schedule(step, self.cfg.peak_lr,
                                     self.cfg.warmup_steps, total_steps)
                    with _divergence(stage, step):
                        terms = self._step(task, kinds, with_align, batch, opt, lr)
                    for k, v in terms.items():
                        epoch_terms.setdefault(k, []).append(v)
                    step += 1
                for k, vals in epoch_terms.items():
                    losses.setdefault(k, []).append(float(np.mean(vals)))
            report = StageReport(stage, n_epochs, losses, step)

        self.completed.append(stage)
        self.reports.append(report)
        return report

    def run_all(self) -> list:
        return [self.run_stage(s) for s in STAGES]

    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        meta = {
            "model_config": asdict(self.model_cfg),
            "seed": self.seed,
            "completed": list(self.completed),
            "stage_epochs": dict(self.schedule.epochs),
            "modalities": list(self.modalities),
        }
        save_checkpoint(path, self.params, meta=meta)

    def resume_from(self, path: str) -> None:
        """Adopt a checkpoint saved by an identically configured run.

        Stage optimizers and RNG streams are fresh per stage, so resuming at
        a stage boundary reproduces the uninterrupted run bit for bit.
        SchemaError, naming the file, unless the checkpoint's seed, model
        config, ``stage_epochs``, modalities and parameter shapes are the
        run's and its ``completed`` is a list of the first stages in order.
        """
        params, mcfg, meta = load_params(path)

        def reject(problem: str) -> SchemaError:
            return SchemaError(f"{path}: {problem}")

        for key in ("completed", "stage_epochs"):
            if key not in meta:
                raise reject(f"checkpoint meta has no {key}")
        if meta["seed"] != self.seed:
            raise reject(f"checkpoint seed {meta['seed']} != run seed {self.seed}")
        if mcfg != self.model_cfg:
            raise reject("checkpoint model config does not match the run")
        if meta["stage_epochs"] != dict(self.schedule.epochs):
            raise reject("checkpoint stage schedule does not match the run")
        if meta["modalities"] != self.modalities:
            raise reject("checkpoint modality set does not match the run")
        completed = meta["completed"]
        if not isinstance(completed, list) or completed != list(STAGES[:len(completed)]):
            raise reject(f"checkpoint stage history {completed!r} is invalid")
        if set(params) != set(self.params):
            raise reject("checkpoint parameter names do not match the model")
        for n, t in params.items():
            if t.shape != self.params[n].shape:
                raise reject(f"checkpoint shape mismatch at {n}")
            self.params[n].data[...] = t.data
        self.completed = completed


def load_params(path: str):
    """Checkpoint -> (params, ModelConfig, meta).

    SchemaError, naming the file, unless the meta holds a usable
    ``model_config``, ``modalities`` as a nonempty list of distinct names
    from ``fusion.MODALITIES`` and ``seed`` as an integer >= 0; the returned
    meta holds the modalities as a tuple.
    """
    params, meta = load_checkpoint(path)
    try:
        mcfg = model_mod.ModelConfig.from_dict(meta["model_config"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(
            f"{path}: checkpoint meta has no usable model_config ({type(e).__name__}: {e})"
        ) from e
    kinds = meta.get("modalities")
    if not (isinstance(kinds, list) and kinds
            and all(k in fus.MODALITIES for k in kinds) and len(set(kinds)) == len(kinds)):
        raise SchemaError(f"{path}: checkpoint meta modalities must be a nonempty list of "
                          f"distinct names from {list(fus.MODALITIES)}, got {kinds!r}")
    try:
        check_number("seed", meta.get("seed"), 0, integral=True)
    except ContractError as e:
        raise SchemaError(f"{path}: checkpoint meta {e}") from e
    return params, mcfg, dict(meta, modalities=tuple(kinds))
