"""Task heads over the fused representation: mixture-density return
forecasting, graph-conditioned systemic-risk scoring, and templated
plain-text bulletins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .autodiff import Tensor
from .datapipe import FLAT_BAND
from .errors import ContractError, DegenerateInputError, DimensionError

_LOG_2PI = float(np.log(2.0 * np.pi))
_SQRT_HALF = math.sqrt(0.5)


def _ndtr(x) -> np.ndarray:
    """The standard normal CDF, elementwise: 0.5 * erfc(-x / sqrt 2), with
    ``math.erfc`` mapped over the values. Within 4.5e-16 of scipy's
    ``ndtr``; +-inf give 1 and 0, NaN gives NaN."""
    x = np.asarray(x, dtype=np.float64)
    args = (x * -_SQRT_HALF).ravel().tolist()
    return 0.5 * np.fromiter(map(math.erfc, args), np.float64, x.size).reshape(x.shape)


# ---------------------------------------------------------------------------
# domain types

@dataclass
class PolicyBulletin:
    """Deterministic templated report; ``text`` is the rendered artifact."""

    text: str
    band: str
    score: float
    top_nodes: tuple
    n_up: int
    n_down: int


# ---------------------------------------------------------------------------
# parameters

def init_micro_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    d, k = cfg.d_model, cfg.mdn_components
    for i in range(cfg.micro_layers):
        enc.init_transformer_layer(p, f"micro.layer{i}", d, cfg.d_ff, rng)
    for name in ("w", "mu", "sig"):
        p[f"micro.out_{name}.w"] = enc.xavier(rng, d, k)
        p[f"micro.out_{name}.b"] = Tensor(np.zeros(k), requires_grad=True)
    # feeds a predicted return back in as a pseudo-representation for rolling
    p["micro.feedback.w"] = enc.xavier(rng, 1, d)
    p["micro.feedback.b"] = Tensor(np.zeros(d), requires_grad=True)
    return p


def init_risk_params(cfg, rng: np.random.Generator) -> dict:
    p: dict = {}
    d = cfg.d_model
    p["risk.in.w"] = enc.xavier(rng, cfg.graph_features, d)
    p["risk.in.b"] = Tensor(np.zeros(d), requires_grad=True)
    for i in range(cfg.risk_gat_layers):
        p[f"risk.gat{i}.w"] = enc.xavier(rng, d, d)
        p[f"risk.gat{i}.a_src"] = enc.xavier(rng, d, 1, shape=(d,))
        p[f"risk.gat{i}.a_dst"] = enc.xavier(rng, d, 1, shape=(d,))
    p["risk.node.w"] = enc.xavier(rng, d, 1, shape=(d,))
    p["risk.node.b"] = Tensor(np.zeros(1), requires_grad=True)
    p["risk.cal.slope_raw"] = Tensor(np.zeros(1), requires_grad=True)
    p["risk.cal.bias"] = Tensor(np.zeros(1), requires_grad=True)
    return p


# ---------------------------------------------------------------------------
# micro forecasting head

def micro_head_batch(z_seq: Tensor, params: dict, cfg,
                     k: int) -> tuple[Tensor, Tensor, Tensor]:
    """(B, T, d) fused histories -> the mixture (weights, means, sigmas), each
    (B, K), for the return k steps past each history.

    A causally masked decoder runs over the history; its last position
    parameterizes the next step's mixture. Before each of steps 2..k, a
    learned embedding of every row's point forecast is appended to its
    history.
    """
    if k < 1:
        raise ContractError("horizon k must be >= 1")
    if z_seq.ndim != 3:
        raise DimensionError(f"expected (B, T, d) history, got {z_seq.shape}")
    b, t, d = z_seq.shape
    if t < 1:
        raise DegenerateInputError("empty fused history")
    x = z_seq
    weights, means, sigmas = _micro_step(x, params, cfg)
    for _ in range(k - 1):
        point = ad.reduce_sum(weights * means, axis=-1)  # (B,)
        nxt = ad.linear(ad.reshape(point, (b, 1)), params["micro.feedback.w"],
                        params["micro.feedback.b"])
        x = ad.concat([x, ad.reshape(nxt, (b, 1, d))], axis=1)
        weights, means, sigmas = _micro_step(x, params, cfg)
    return weights, means, sigmas


def _micro_step(x: Tensor, params: dict, cfg) -> tuple[Tensor, Tensor, Tensor]:
    """One decoder pass: the mixture for the step after each history."""
    b, t, d = x.shape
    causal = np.tril(np.ones((t, t), dtype=bool))
    for i in range(cfg.micro_layers):
        x = enc.transformer_layer(x, params, f"micro.layer{i}", cfg.n_heads, causal)
    last = ad.reshape(ad.slice_axis(x, 1, t - 1, t), (b, d))
    logit_w, means, raw = (ad.linear(last, params[f"micro.out_{n}.w"],
                                     params[f"micro.out_{n}.b"]) for n in ("w", "mu", "sig"))
    weights = ad.softmax(logit_w, axis=-1)
    sigmas = ad.exp(raw)  # positivity by construction
    return weights, means, sigmas


def mixture_direction_probs(weights: np.ndarray, means: np.ndarray,
                            sigmas: np.ndarray, band: float) -> np.ndarray:
    """(..., 3) (down, flat, up) probabilities of (..., K) mixtures, from
    each mixture's CDF at the +-band boundaries."""
    w, m, s = (np.asarray(a, dtype=np.float64)[..., None, :]
               for a in (weights, means, sigmas))
    edges = np.array([[-band], [band]])
    cdf = np.sum(w * _ndtr((edges - m) / s), axis=-1)
    lo, hi = cdf[..., 0], cdf[..., 1]
    return np.stack([lo, hi - lo, 1.0 - hi], axis=-1)


def micro_forecast(weights: np.ndarray, means: np.ndarray, sigmas: np.ndarray,
                   norm: dict) -> dict:
    """The (B, K) z-scored mixtures ``weights``, ``means`` and ``sigmas``
    (the values of ``model.forward_batch``'s ``mdn_*``) in raw return units.

    ``norm`` holds the label statistics ``y_mean`` and ``y_std``; the affine
    map back to raw returns keeps the mixture's structure. Returns ``point``
    (B,), ``direction_probs`` (B, 3) (down, flat, up) against the labels'
    band ``FLAT_BAND``, and the raw-unit ``weights``, ``means`` and
    ``sigmas`` (B, K).
    """
    y_std, y_mean = norm["y_std"], norm["y_mean"]
    raw_means, raw_sigmas = means * y_std + y_mean, sigmas * y_std
    return {
        "point": np.sum(weights * means, axis=-1) * y_std + y_mean,
        "direction_probs": mixture_direction_probs(weights, raw_means, raw_sigmas,
                                                   FLAT_BAND),
        "weights": weights,
        "means": raw_means,
        "sigmas": raw_sigmas,
    }


# ---------------------------------------------------------------------------
# mixture-density negative log likelihood

def mdn_nll_values(weights, means, sigmas, y) -> float:
    """-log sum_k w_k Normal(y; mu_k, sigma_k)."""
    w = np.asarray(weights, dtype=np.float64)
    m = np.asarray(means, dtype=np.float64)
    s = np.asarray(sigmas, dtype=np.float64)
    if np.any(s <= 0):
        raise ContractError("mixture stdevs must be positive")
    z = (float(y) - m) / s
    log_comp = np.log(w) - np.log(s) - 0.5 * z * z - 0.5 * _LOG_2PI
    top = log_comp.max()
    return float(-(top + np.log(np.exp(log_comp - top).sum())))


def mdn_nll_batch(weights: Tensor, means: Tensor, sigmas: Tensor, y: np.ndarray) -> Tensor:
    """Differentiable mean NLL over a batch: all mixture tensors (B, K)."""
    if np.any(sigmas.data <= 0):
        raise ContractError("mixture stdevs must be positive")
    yv = Tensor(np.asarray(y, dtype=np.float64).reshape(-1, 1))
    z = (yv - means) * ad.pow_const(sigmas, -1.0)
    log_comp = ad.log(weights) - ad.log(sigmas) - z * z * 0.5 - 0.5 * _LOG_2PI
    return ad.reduce_mean(ad.logsumexp(log_comp, axis=-1)) * -1.0


# ---------------------------------------------------------------------------
# mixture quantiles (safeguarded-Newton forward, implicit-function backward)

def _mixture_cdf_pdf(q, w, m, s):
    """The mixture CDF and density at each q (N,) against its components (N, K)."""
    u = (q[:, None] - m) / s
    cdf = np.sum(w * _ndtr(u), axis=-1)
    pdf = np.sum(w * np.exp(-0.5 * u * u) / s, axis=-1) / math.sqrt(2.0 * math.pi)
    return cdf, pdf


def mixture_quantile(weights: Tensor, means: Tensor, sigmas: Tensor,
                     tau, tol: float = 1e-8) -> Tensor:
    """Per-row quantiles of a Gaussian mixture, differentiable in all
    mixture parameters: (B,) for one level ``tau``, (B, Q) for a sequence of
    Q levels.

    Forward solves F(q) = tau by safeguarded Newton (Numerical Recipes'
    ``rtsafe``), every row and level at once. The bracket runs from the
    least to the greatest component quantile mu_k + sigma_k z_tau, which
    holds the root. A Newton step is taken when it lands inside the bracket
    and shrinks fast enough, a bisection step otherwise. Each (row, level)
    leaves the loop once its step is under ``tol``, so each column equals
    the one-level call bit for bit. Backward applies the implicit-function
    theorem, dq/dtheta = -(dF/dtheta) / pdf(q), summed over the levels.
    """
    taus = np.asarray(tau, dtype=np.float64)
    levels = taus.reshape(-1)
    if taus.ndim > 1 or not np.all((levels > 0.0) & (levels < 1.0)):
        raise ContractError("tau must lie strictly inside (0, 1)")
    # (B, 1, K): one row of components against every level
    w, m, s = (t.data[:, None, :] for t in (weights, means, sigmas))
    if np.any(s <= 0):
        raise ContractError("mixture stdevs must be positive")
    z = np.array([NormalDist().inv_cdf(float(t)) for t in levels])[:, None]  # (Q, 1)
    component_q = m + s * z  # (B, Q, K)
    # one flat element per (row, level); each leaves the loop when it converges
    shape = component_q.shape[:2]
    lo, hi = component_q.min(axis=-1).ravel(), component_q.max(axis=-1).ravel()
    wf, mf, sf = (np.broadcast_to(a, component_q.shape).reshape(-1, component_q.shape[-1])
                  for a in (w, m, s))
    target = np.broadcast_to(levels, shape).ravel()
    at = np.arange(lo.size)
    q = np.empty(lo.size)
    x = 0.5 * (lo + hi)
    step = step_old = hi - lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(200):
            if not at.size:
                break
            cdf, pdf = _mixture_cdf_pdf(x, wf, mf, sf)
            f = cdf - target
            lo, hi = np.where(f < 0.0, x, lo), np.where(f > 0.0, x, hi)
            newton_step = f / pdf
            guess = x - newton_step
            # Newton when it lands in the bracket and at most halves the step
            # before last; F(x) = tau gives a zero Newton step
            newton = ((guess >= lo) & (guess <= hi)
                      & (2.0 * np.abs(newton_step) <= np.abs(step_old)))
            step_old, step = step, np.where(newton, newton_step, 0.5 * (hi - lo))
            x = np.where(newton, guess, lo + step)
            done = np.abs(step) < tol
            if done.any():
                q[at[done]] = x[done]
                keep = ~done
                at, x, lo, hi, step, step_old, wf, mf, sf, target = (
                    a[keep] for a in (at, x, lo, hi, step, step_old, wf, mf, sf, target))
    q[at] = x
    q = q.reshape(shape)

    def bwd(g):
        qc = q[..., None]
        u = (qc - m) / s
        phi = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
        pdf = np.sum(w * phi / s, axis=-1, keepdims=True)  # (B, Q, 1) > 0
        gq = g.reshape(q.shape)[..., None]
        gw = gq * -_ndtr(u) / pdf
        gm = gq * (w * phi / s) / pdf
        gs = gq * (w * phi * u / s) / pdf
        return gw.sum(axis=1), gm.sum(axis=1), gs.sum(axis=1)

    out = q if taus.ndim else q[:, 0]
    return ad.custom_op(out, (weights, means, sigmas), bwd)


# ---------------------------------------------------------------------------
# systemic risk head

def macro_risk_batch(z: Tensor, node_features: np.ndarray, keep: np.ndarray,
                     params: dict, cfg) -> tuple[Tensor, Tensor]:
    """Score systemic stress from the fused state and the institution graph,
    given as its (B, N, N) ``encoders.graph_keep`` mask.

    Returns (score (B,), contributions (B, N)). Node features conditioned on
    z pass through graph-attention layers; per-node sigmoids are averaged and
    recalibrated with a positive slope so the score is monotone in every
    contribution.
    """
    feats = np.asarray(node_features, dtype=np.float64)
    if feats.ndim != 3:
        raise DimensionError(f"expected (B, N, F) node features, got {feats.shape}")
    b, n, f = feats.shape
    if n < 1:
        raise ContractError("empty graph")
    keep = enc.require_graph_keep(keep, b, n)
    if z.shape != (b, cfg.d_model):
        raise DimensionError(f"fused state must be (B, d_model), got {z.shape}")
    h = ad.linear(Tensor(feats), params["risk.in.w"], params["risk.in.b"])
    h = h + ad.reshape(z, (b, 1, cfg.d_model))
    for i in range(cfg.risk_gat_layers):
        h = enc.gat_layer(h, keep, params, f"risk.gat{i}")
    node_logits = ad.linear(h, params["risk.node.w"], params["risk.node.b"])
    contributions = ad.sigmoid(node_logits)  # (B, N)
    pooled = ad.reduce_mean(contributions, axis=-1)  # (B,)
    slope = ad.exp(params["risk.cal.slope_raw"])  # > 0 keeps monotonicity
    score = ad.sigmoid(pooled * slope + params["risk.cal.bias"])
    return score, contributions


# ---------------------------------------------------------------------------
# bulletin generation

RISK_BANDS = ("LOW", "ELEVATED", "HIGH")


def risk_band(score: float) -> str:
    if score < 1.0 / 3.0:
        return RISK_BANDS[0]
    if score < 2.0 / 3.0:
        return RISK_BANDS[1]
    return RISK_BANDS[2]


def generate_bulletin(score: float, warning: bool, contributions: np.ndarray,
                      forecasts: dict, node_names) -> PolicyBulletin:
    """Render the fixed-template early-warning bulletin from the market-wide
    risk ``score``, its ``warning`` flag, the (N,) per-node
    ``contributions`` and the ``point`` (B,) and ``direction_probs`` (B, 3)
    arrays of ``micro_forecast`` for B assets (B may be 0).

    Every number in the text is formatted from the model outputs with no
    rounding beyond the printed precision, so claims can be checked against
    the sources exactly.
    """
    names = list(node_names)
    contributions = np.asarray(contributions, dtype=np.float64)
    if not names:
        raise ContractError("node name list is empty")
    if len(names) != contributions.size:
        raise DimensionError("node names do not match contribution vector")
    band = risk_band(score)
    order = sorted(range(len(names)), key=lambda i: (-contributions[i], names[i]))
    top = tuple((names[i], float(contributions[i])) for i in order[:3])
    dirs = np.argmax(forecasts["direction_probs"], axis=-1)
    n_up, n_down = int(np.sum(dirs == 2)), int(np.sum(dirs == 0))
    lines = [
        f"SYSTEMIC RISK BULLETIN - {band}",
        f"risk score: {score:.6f} (warning={'yes' if warning else 'no'})",
        "top contributing institutions:",
    ]
    for rank, (name, c) in enumerate(top, start=1):
        lines.append(f"  {rank}. {name}: {c:.6f}")
    lines.append(f"micro outlook: {n_up} up / {n_down} down of {len(dirs)} assets")
    if len(dirs):
        lines.append(f"mean expected return: {float(np.mean(forecasts['point'])):.6f}")
    return PolicyBulletin(
        text="\n".join(lines) + "\n",
        band=band,
        score=float(score),
        top_nodes=top,
        n_up=n_up,
        n_down=n_down,
    )
