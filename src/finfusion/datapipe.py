"""Synthetic multimodal market data with a planted cross-modal signal, plus
the preprocessing pipeline: multi-frequency alignment, rolling Kalman
imputation, technical indicators, leak-free normalization, and tail-risk
label oracles.

The synthetic world: a two-regime (calm/stress) Markov chain drives a market
factor, per-asset returns, macro indicator levels, and stress propagation on
a random interbank graph. Event tokens reveal the next step's return
direction with configurable probability; at strength zero they carry no
information, which is the ablation the evaluation leans on.

Trading calendar: 21 days per month, 63 per quarter.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import container
from .errors import (
    ContractError,
    DegenerateInputError,
    InsufficientTailDataError,
    SchemaError,
    check_number,
)

MONTH_DAYS = 21
QUARTER_DAYS = 63
FREQ_SPACING = {"daily": 1, "monthly": MONTH_DAYS, "quarterly": QUARTER_DAYS}

SCHEMA_VERSION = 3

INDICATOR_NAMES = ("sma10", "sma20", "rsi14", "macd", "macd_signal",
                   "ret_std20", "turnover")
INDICATOR_WARMUP = 33  # last indicator to stabilize: 9-EMA over the 26-EMA diff

MACRO_SLOTS = (
    "gdp_growth", "cpi_inflation", "m2_growth", "ppi_inflation",
    "credit_spread", "interbank_rate", "vix_proxy", "fx_volatility",
)

# per slot: (frequency, base level, stress coefficient, AR(1) innovation sd)
_MACRO_SPEC = {
    "gdp_growth": ("quarterly", 0.025, -0.060, 0.004),
    "cpi_inflation": ("monthly", 0.020, 0.010, 0.003),
    "m2_growth": ("monthly", 0.060, 0.020, 0.005),
    "ppi_inflation": ("monthly", 0.015, 0.015, 0.004),
    "credit_spread": ("monthly", 0.010, 0.040, 0.002),
    "interbank_rate": ("monthly", 0.020, 0.030, 0.002),
    "vix_proxy": ("monthly", 0.150, 0.450, 0.020),
    "fx_volatility": ("monthly", 0.080, 0.120, 0.010),
}

GRAPH_FEATURE_NAMES = ("stress", "equity_return", "in_strength",
                       "out_strength", "in_degree", "out_degree")

# regime-dependent return process
_MU = (0.0004, -0.0020)       # market drift calm/stress
_SIGMA_MKT = (0.008, 0.025)   # market vol
_SIGMA_IDIO = (0.010, 0.020)  # per-asset idiosyncratic vol

NODE_DISTRESS_THRESHOLD = 0.6
FLAT_BAND = 5e-4  # |return| below this counts as flat for direction labels
TOKEN_LEN = 5  # event token ids per asset and date

# time-ordered splits over the usable dates; test takes what train and val leave
TRAIN_FRAC = 0.7
VAL_FRAC = 0.15
MIN_USABLE_DATES = 10


def build_vocab(n_assets: int = 16) -> list[str]:
    """Fixed event vocabulary; token ids are positions in this list."""
    vocab = ["<pad>"]
    vocab += ["EARN_BEAT", "GUIDE_UP", "UPGRADE"]          # bullish class
    vocab += ["EARN_MISS", "GUIDE_DOWN", "DOWNGRADE"]      # bearish class
    vocab += ["POLICY_HOLD", "SECTOR_NOTE", "MKT_SUMMARY", "FLOW_REPORT"]
    vocab += [f"ASSET_{i}" for i in range(max(16, n_assets))]
    vocab += [f"MAG_{i}" for i in range(5)]
    vocab += [f"NOISE_{i}" for i in range(100)]
    return vocab


BULL_IDS = (1, 2, 3)
BEAR_IDS = (4, 5, 6)
_ASSET_ID0 = 11
_MAG_ID0 = 11 + 16
_NOISE_ID0 = _MAG_ID0 + 5
_MAG_EDGES = (0.002, 0.005, 0.010, 0.020)  # |return| bucket boundaries


@dataclass
class RawSeries:
    """A named time series on the integer day grid, possibly with gaps
    (missing timestamps)."""

    name: str
    frequency: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.frequency not in FREQ_SPACING:
            raise ContractError(f"unknown frequency {self.frequency!r}")
        if self.timestamps.shape != self.values.shape or self.timestamps.ndim != 1:
            raise ContractError("timestamps and values must be equal-length 1-d")
        if self.timestamps.size == 0:
            raise ContractError(f"series {self.name!r} is empty")
        if np.any(np.diff(self.timestamps) <= 0):
            raise ContractError(f"series {self.name!r} timestamps not strictly increasing")
        base = FREQ_SPACING[self.frequency]
        if np.any(np.diff(self.timestamps) % base != 0):
            raise ContractError(
                f"series {self.name!r} spacing inconsistent with {self.frequency}")


@dataclass
class SyntheticConfig:
    """Knobs of the synthetic world. Everything is derived from the seed."""

    n_assets: int = 4
    n_steps: int = 1500
    crisis_rate: float = 0.15
    stress_persistence: float = 0.94
    signal_strength: float = 0.8
    n_institutions: int = 8
    edge_density: float = 0.3
    macro_gap_rate: float = 0.05
    window: int = 30
    seed: int = 0

    def __post_init__(self):
        for name in ("stress_persistence", "signal_strength", "edge_density",
                     "macro_gap_rate"):
            check_number(name, getattr(self, name), 0, 1)
        check_number("crisis_rate", self.crisis_rate, 0, 1, strict=True)
        for name in ("n_steps", "n_institutions"):
            check_number(name, getattr(self, name), 1, integral=True)
        check_number("window", self.window, 1, self.n_steps, integral=True)
        check_number("n_assets", self.n_assets, 1, 16, integral=True)  # fixed vocabulary
        check_number("seed", self.seed, 0, integral=True)

    def to_dict(self) -> dict:
        return asdict(self)


def _regime_chain(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    """Two-state Markov chain started at stationarity.

    Stationary stress probability equals crisis_rate: with exit probability
    p10 = 1 - persistence, the entry probability is solved from the
    stationarity condition pi = p01 / (p01 + p10).
    """
    pi = cfg.crisis_rate
    p10 = 1.0 - cfg.stress_persistence
    p01 = pi * p10 / (1.0 - pi)
    if p01 > 1.0:
        raise ContractError("crisis_rate incompatible with stress_persistence")
    g = np.zeros(cfg.n_steps, dtype=np.int64)
    g[0] = int(rng.uniform() < pi)
    u = rng.uniform(size=cfg.n_steps - 1)
    for t in range(1, cfg.n_steps):
        if g[t - 1] == 0:
            g[t] = int(u[t - 1] < p01)
        else:
            g[t] = int(u[t - 1] >= p10)
    return g


def generate_synthetic(cfg: SyntheticConfig) -> tuple[dict, dict]:
    """Draw the whole synthetic world from the config seed.

    Returns (series, raw): ``series`` maps macro slot names to RawSeries
    (with gaps); ``raw`` holds the dense arrays — regime, per-asset OHLCV and
    tokens, graph structure and stress paths — consumed by build_dataset.
    """
    root = np.random.SeedSequence(cfg.seed)
    keys = ("regime", "market", "assets", "tokens", "macro", "graph")
    streams = dict(zip(keys, (np.random.default_rng(s) for s in root.spawn(len(keys)))))

    t_all = cfg.n_steps
    regime = _regime_chain(cfg, streams["regime"])

    # market factor and per-asset returns
    rng_m = streams["market"]
    mu = np.take(_MU, regime)
    sig_m = np.take(_SIGMA_MKT, regime)
    market_ret = mu + sig_m * rng_m.standard_normal(t_all)
    market_ret[0] = 0.0

    rng_a = streams["assets"]
    a = cfg.n_assets
    beta = rng_a.uniform(0.7, 1.3, size=a)
    sig_i = np.take(_SIGMA_IDIO, regime)
    idio = sig_i[None, :] * rng_a.standard_normal((a, t_all))
    returns = beta[:, None] * market_ret[None, :] + idio
    returns[:, 0] = 0.0

    close0 = 100.0 * np.exp(rng_a.uniform(-0.1, 0.1, size=a))
    log_close = np.log(close0)[:, None] + np.cumsum(returns, axis=1)
    close = np.exp(log_close)
    gap = 0.2 * sig_m[None, :] * rng_a.standard_normal((a, t_all))
    open_ = np.empty_like(close)
    open_[:, 0] = close[:, 0]
    open_[:, 1:] = close[:, :-1] * np.exp(gap[:, 1:])
    hi_span = np.abs(rng_a.standard_normal((a, t_all))) * 0.3 * sig_m[None, :]
    lo_span = np.abs(rng_a.standard_normal((a, t_all))) * 0.3 * sig_m[None, :]
    high = np.maximum(open_, close) * np.exp(hi_span)
    low = np.minimum(open_, close) * np.exp(-lo_span)
    base_vol = np.exp(rng_a.normal(12.0, 0.3, size=a))
    volume = base_vol[:, None] * np.exp(
        0.5 * regime[None, :] + 0.3 * rng_a.standard_normal((a, t_all)))
    ohlcv = np.stack([open_, high, low, close, volume], axis=-1)  # (A, T, 5)

    # event tokens revealing next-step direction with probability = strength
    rng_t = streams["tokens"]
    tokens = np.zeros((a, t_all, TOKEN_LEN), dtype=np.int64)
    tok_len = np.full((a, t_all), TOKEN_LEN, dtype=np.int64)
    reveal = rng_t.uniform(size=(a, t_all)) < cfg.signal_strength
    coin = rng_t.integers(0, 2, size=(a, t_all))
    event_pick = rng_t.integers(0, 3, size=(a, t_all))
    noise_pick = rng_t.integers(0, 100, size=(a, t_all, 2))
    next_up = np.zeros((a, t_all), dtype=bool)
    next_up[:, :-1] = returns[:, 1:] > 0
    direction = np.where(reveal, next_up, coin.astype(bool))
    event_ids = np.where(direction,
                         np.take(BULL_IDS, event_pick),
                         np.take(BEAR_IDS, event_pick))
    mag_bucket = np.digitize(np.abs(returns), _MAG_EDGES)
    tokens[:, :, 0] = _ASSET_ID0 + np.arange(a)[:, None]
    tokens[:, :, 1] = event_ids
    tokens[:, :, 2] = _MAG_ID0 + mag_bucket
    tokens[:, :, 3] = _NOISE_ID0 + noise_pick[:, :, 0]
    tokens[:, :, 4] = _NOISE_ID0 + noise_pick[:, :, 1]

    # macro series at monthly/quarterly frequency, gap-poked
    rng_mac = streams["macro"]
    series: dict = {}
    n_months = t_all // MONTH_DAYS
    n_quarters = t_all // QUARTER_DAYS
    for slot in MACRO_SLOTS:
        freq, base, coeff, inn_sd = _MACRO_SPEC[slot]
        span = MONTH_DAYS if freq == "monthly" else QUARTER_DAYS
        n_obs = n_months if freq == "monthly" else n_quarters
        if n_obs < 1:
            raise ContractError("n_steps too short for macro observations")
        stamps = span * (np.arange(n_obs) + 1) - 1
        frac = np.array([regime[k * span:(k + 1) * span].mean() for k in range(n_obs)])
        ar = np.zeros(n_obs)
        innov = rng_mac.normal(scale=inn_sd, size=n_obs)
        for k in range(1, n_obs):
            ar[k] = 0.7 * ar[k - 1] + innov[k]
        vals = base + coeff * frac + ar
        keep = np.ones(n_obs, dtype=bool)
        if freq == "monthly" and cfg.macro_gap_rate > 0:
            keep = rng_mac.uniform(size=n_obs) >= cfg.macro_gap_rate
            keep[0] = True  # anchor so imputation never extrapolates backward
        series[slot] = RawSeries(slot, freq, stamps[keep], vals[keep])

    # interbank graph with stress propagation
    rng_g = streams["graph"]
    n = cfg.n_institutions
    adj = (rng_g.uniform(size=(n, n)) < cfg.edge_density).astype(np.float64)
    np.fill_diagonal(adj, 0.0)
    adj *= np.exp(rng_g.normal(0.0, 0.5, size=(n, n)))
    row = adj.sum(axis=1, keepdims=True)
    norm_adj = np.divide(adj, row, out=np.zeros_like(adj), where=row > 0)
    stress = np.zeros((t_all, n))
    stress[0] = cfg.crisis_rate
    shocks = rng_g.uniform(size=(t_all, n))
    for t in range(1, t_all):
        propagated = 0.55 * (norm_adj @ stress[t - 1])
        stress[t] = np.clip(propagated + 0.35 * regime[t] + 0.10 * shocks[t], 0.0, 1.0)
    node_ret = -0.04 * (stress - 0.2) + 0.01 * rng_g.standard_normal((t_all, n))

    raw = {
        "regime": regime,
        "market_return": market_ret,
        "returns": returns,
        "ohlcv": ohlcv,
        "tokens": tokens,
        "tok_len": tok_len,
        "adjacency": adj,
        "stress": stress,
        "node_returns": node_ret,
    }
    return series, raw


# ---------------------------------------------------------------------------
# temporal alignment

def align_temporal(series: dict, n_steps: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Forward-fill a set of RawSeries onto the daily grid.

    Returns (values (n_steps, S), present (n_steps, S), names). A day carries
    the latest observation at or before it; days before a series' first
    observation are flagged missing, never backfilled.
    """
    names = list(series)
    if not names:
        raise ContractError("empty series set")
    out = np.full((n_steps, len(names)), np.nan)
    present = np.zeros((n_steps, len(names)), dtype=bool)
    for j, name in enumerate(names):
        s = series[name]
        idx = np.searchsorted(s.timestamps, np.arange(n_steps), side="right") - 1
        valid = idx >= 0
        out[valid, j] = s.values[idx[valid]]
        present[:, j] = valid
    return out, present, names


# ---------------------------------------------------------------------------
# Kalman imputation

def kalman_impute(series, window: int = 60):
    """Fill gaps with a rolling local-level (plus drift) Kalman filter.

    Accepts either a RawSeries with missing timestamps (returns a gap-free
    RawSeries on its regular grid) or a 1-d array with NaN gaps (returns a
    filled array). Drift and the process/observation variances are
    re-estimated at every step by method-of-moments on first differences of
    observed adjacent pairs inside the trailing window. Gaps take the
    one-step prediction; observed values are never modified. Only data at or
    before each step is consulted.
    """
    if isinstance(series, RawSeries):
        span = FREQ_SPACING[series.frequency]
        t0, t1 = series.timestamps[0], series.timestamps[-1]
        grid = np.arange(t0, t1 + 1, span)
        vals = np.full(grid.size, np.nan)
        pos = (series.timestamps - t0) // span
        vals[pos] = series.values
        return RawSeries(series.name, series.frequency, grid,
                         _kalman_fill(vals, window))
    return _kalman_fill(np.asarray(series, dtype=np.float64), window)


def _kalman_fill(values: np.ndarray, window: int) -> np.ndarray:
    y = values.copy()
    n = y.size
    obs = ~np.isnan(y)
    if obs.sum() < 2:
        raise ContractError("need at least 2 observed points")
    if not obs[0]:
        raise DegenerateInputError("leading gap: no observation to filter from")
    out = y.copy()
    level = y[0]
    var = 0.0
    for t in range(1, n):
        lo = max(0, t - window)
        d, q, r = _window_moments(out[lo:t], obs[lo:t])
        pred = level + d
        pred_var = var + q
        if obs[t]:
            gain = pred_var / (pred_var + r) if pred_var + r > 0 else 1.0
            level = pred + gain * (y[t] - pred)
            var = (1.0 - gain) * pred_var
        else:
            level = pred
            var = pred_var
            out[t] = level
    return out


def _window_moments(seg: np.ndarray, seg_obs: np.ndarray) -> tuple[float, float, float]:
    """Drift and variance components from adjacent observed pairs."""
    pair = seg_obs[:-1] & seg_obs[1:] if seg.size > 1 else np.zeros(0, dtype=bool)
    diffs = (seg[1:] - seg[:-1])[pair] if seg.size > 1 else np.zeros(0)
    if diffs.size == 0:
        return 0.0, 1e-12, 1e-12
    d = float(diffs.mean())
    v = float(diffs.var())
    if diffs.size >= 3:
        centered = diffs - d
        cov1 = float(np.mean(centered[:-1] * centered[1:]))
    else:
        cov1 = 0.0
    floor = max(1e-12, 1e-6 * v)
    r = max(-cov1, floor)
    q = max(v - 2.0 * r, floor)
    return d, q, r


# ---------------------------------------------------------------------------
# technical indicators

def _ema(x: np.ndarray, span: int) -> np.ndarray:
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, x.size):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def _rolling_mean(x: np.ndarray, w: int) -> np.ndarray:
    out = np.full(x.size, np.nan)
    if x.size >= w:
        c = np.cumsum(np.insert(x, 0, 0.0))
        out[w - 1:] = (c[w:] - c[:-w]) / w
    return out


def compute_indicators(ohlcv) -> tuple[np.ndarray, np.ndarray]:
    """Derive the indicator matrix from (T, 5) OHLCV rows.

    Returns (indicators (T, 7), valid (T,)): sma10, sma20, rsi14 (Wilder),
    macd, macd signal, rolling 20-step return stdev, turnover vs 20-day
    volume. Warmup rows hold NaN and are flagged invalid rather than failing.
    """
    arr = np.asarray(ohlcv, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ContractError(f"expected (T, 5) OHLCV, got {arr.shape}")
    t = arr.shape[0]
    close = arr[:, 3]
    vol = arr[:, 4]
    ind = np.full((t, len(INDICATOR_NAMES)), np.nan)

    ind[:, 0] = _rolling_mean(close, 10)
    ind[:, 1] = _rolling_mean(close, 20)

    # Wilder RSI-14: SMA seed, then exponential (a=1/14) smoothing
    period = 14
    if t > period:
        delta = np.diff(close)
        gains = np.maximum(delta, 0.0)
        losses = np.maximum(-delta, 0.0)
        avg_g = gains[:period].mean()
        avg_l = losses[:period].mean()
        ind[period, 2] = _rsi_from_avgs(avg_g, avg_l)
        for i in range(period, delta.size):
            avg_g = (avg_g * (period - 1) + gains[i]) / period
            avg_l = (avg_l * (period - 1) + losses[i]) / period
            ind[i + 1, 2] = _rsi_from_avgs(avg_g, avg_l)

    ema12 = _ema(close, 12)
    ema26 = _ema(close, 26)
    macd = ema12 - ema26
    signal = _ema(macd, 9)
    if t > 25:
        ind[25:, 3] = macd[25:]
    if t > INDICATOR_WARMUP:
        ind[INDICATOR_WARMUP:, 4] = signal[INDICATOR_WARMUP:]

    if t > 20:
        rets = np.diff(close) / close[:-1]
        for i in range(20, rets.size + 1):
            ind[i, 5] = rets[i - 20:i].std()

    volma = _rolling_mean(vol, 20)
    with np.errstate(invalid="ignore"):
        ind[:, 6] = vol / volma

    valid = ~np.isnan(ind).any(axis=1)
    return ind, valid


def _rsi_from_avgs(avg_gain: float, avg_loss: float) -> float:
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    rs = avg_gain / avg_loss
    return 100.0 - 100.0 / (1.0 + rs)


# ---------------------------------------------------------------------------
# normalization

@dataclass
class NormStats:
    """Per-column affine statistics fitted on the training range only."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


def normalize_fit(columns: np.ndarray, fit_rows) -> NormStats:
    """Population mean/std per column over ``fit_rows``; zero-variance
    columns are flagged constant and given unit std so they map to 0."""
    x = np.asarray(columns, dtype=np.float64)
    fit = x[fit_rows]
    if fit.size == 0:
        raise ContractError("empty fit range")
    mean = fit.mean(axis=0)
    std = fit.std(axis=0)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return NormStats(mean=mean, std=std, constant=constant)


def normalize(columns: np.ndarray, fit_rows) -> tuple[np.ndarray, NormStats]:
    stats = normalize_fit(columns, fit_rows)
    return stats.apply(np.asarray(columns, dtype=np.float64)), stats


# ---------------------------------------------------------------------------
# tail-risk oracles

def _quantile(x: np.ndarray, q: float) -> float:
    """Inverted-CDF sample quantile: smallest value with F(v) >= q."""
    xs = np.sort(np.asarray(x, dtype=np.float64))
    n = xs.size
    k = int(np.ceil(q * n)) - 1
    return float(xs[max(k, 0)])


def empirical_covar(system: np.ndarray, institution: np.ndarray, q: float) -> float:
    """CoVaR: q-quantile of system returns on days the institution sits at or
    below its own q-quantile."""
    sys_r = np.asarray(system, dtype=np.float64)
    inst_r = np.asarray(institution, dtype=np.float64)
    if sys_r.shape != inst_r.shape or sys_r.ndim != 1:
        raise ContractError("system and institution series must match 1-d")
    if not 0.0 < q < 1.0:
        raise ContractError("q must lie in (0, 1)")
    if sys_r.size < int(np.ceil(1.0 / q)):
        raise ContractError(f"need at least {int(np.ceil(1.0 / q))} samples for q={q}")
    var_inst = _quantile(inst_r, q)
    tail = sys_r[inst_r <= var_inst]
    if tail.size == 0:
        raise InsufficientTailDataError("no observations in the institution tail")
    return _quantile(tail, q)


def systemic_expected_shortfall(system: np.ndarray, crisis_mask: np.ndarray) -> float:
    """Mean system return over crisis-flagged steps."""
    sys_r = np.asarray(system, dtype=np.float64)
    mask = np.asarray(crisis_mask, dtype=bool)
    if sys_r.shape != mask.shape:
        raise ContractError("mask must match the return series")
    if not mask.any():
        raise ContractError("crisis mask flags no steps")
    return float(sys_r[mask].mean())


# ---------------------------------------------------------------------------
# aligned dataset

@dataclass
class AlignedDataset:
    """Everything the model consumes, on one shared daily axis.

    The constructor takes the arrays, which span the full timeline;
    ``finalize`` derives the rest from them and the config: ``usable`` marks
    dates where indicator warmup has passed, macro history exists, a full
    window fits and the one-step-ahead label is defined, the splits index
    into the usable dates, and the normalised tables feed ``batch_arrays``.
    """

    config: SyntheticConfig
    vocab: list
    ohlcv: np.ndarray           # (A, T, 5)
    indicators: np.ndarray      # (A, T, J)
    tokens: np.ndarray          # (A, T, L)
    tok_len: np.ndarray         # (A, T)
    macro: np.ndarray           # (T, M) aligned + imputed
    macro_present: np.ndarray   # (T, M) pre-imputation availability
    adjacency: np.ndarray       # (N, N)
    node_stress: np.ndarray     # (T, N)
    node_returns: np.ndarray    # (T, N)
    market_return: np.ndarray   # (T,)
    regime: np.ndarray          # (T,)
    returns: np.ndarray         # (A, T) realized log returns
    # derived by finalize
    usable: np.ndarray = field(init=False)      # (T,) bool
    splits: dict = field(init=False)            # split name -> usable dates
    norm: dict = field(init=False)              # fitted on the train dates
    price_z: np.ndarray = field(init=False)     # (A, T, 12) normalised
    macro_z: np.ndarray = field(init=False)     # (T, M) normalised
    graph_z: np.ndarray = field(init=False)     # (T, N, 6) normalised
    y_z: np.ndarray = field(init=False)         # (A, T) normalised returns

    @property
    def n_assets(self) -> int:
        return self.ohlcv.shape[0]

    @property
    def n_steps(self) -> int:
        return self.ohlcv.shape[1]

    @property
    def n_institutions(self) -> int:
        return self.adjacency.shape[0]

    def check_date(self, date: int) -> None:
        if not 0 <= date < self.n_steps or not self.usable[date]:
            raise ContractError(f"date: {date} is not a usable dataset date")

    # labels -----------------------------------------------------------
    def y_next(self, asset: int, t: int) -> float:
        return float(self.returns[asset, t + 1])

    # features -----------------------------------------------------------
    def price_feature_matrix(self) -> np.ndarray:
        """(A, T, 12) transformed price columns before z-scoring: log OHLC,
        log volume, log SMAs, RSI/100, MACD pair, return stdev, turnover."""
        o, ind = self.ohlcv, self.indicators
        with np.errstate(invalid="ignore"):
            return np.concatenate([np.log(o), np.log(ind[..., :2]), ind[..., 2:3] / 100.0,
                                   ind[..., 3:7]], axis=-1)

    def graph_feature_matrix(self) -> np.ndarray:
        """(T, N, 6) per-institution columns (see GRAPH_FEATURE_NAMES)."""
        t, n = self.node_stress.shape
        in_s = self.adjacency.sum(axis=0)
        out_s = self.adjacency.sum(axis=1)
        in_d = (self.adjacency > 0).sum(axis=0).astype(np.float64)
        out_d = (self.adjacency > 0).sum(axis=1).astype(np.float64)
        static = np.broadcast_to(
            np.stack([in_s, out_s, in_d, out_d], axis=-1), (t, n, 4))
        return np.concatenate(
            [self.node_stress[..., None], self.node_returns[..., None], static], axis=-1)

    def finalize(self) -> None:
        """Derive the model-ready state from the arrays and the config: the
        usable dates, time-ordered splits over them, normalisation statistics
        fitted on the train dates only, and the normalised feature tables.
        Building and loading a dataset both end here, so a loaded dataset
        never takes this state from its file."""
        self.usable = usable_dates(self.indicators, self.macro, self.config.window)
        dates = np.flatnonzero(self.usable)
        n = dates.size
        if n < MIN_USABLE_DATES:
            raise ContractError(
                f"only {n} usable dates, at least {MIN_USABLE_DATES} are needed")
        n_train = int(round(n * TRAIN_FRAC))
        n_val = int(round(n * VAL_FRAC))
        self.splits = {
            "train": dates[:n_train].tolist(),
            "val": dates[n_train:n_train + n_val].tolist(),
            "test": dates[n_train + n_val:].tolist(),
        }
        train = dates[:n_train]
        y_pool = self.returns[:, train + 1].ravel()
        y_std = float(y_pool.std())
        if y_std == 0.0:
            raise DegenerateInputError("constant training returns")
        price = self.price_feature_matrix()
        graph = self.graph_feature_matrix()
        # price stats pool all assets over the train dates
        self.norm = {
            "price": normalize_fit(price[:, train].reshape(-1, price.shape[-1]),
                                   slice(None)),
            "macro": normalize_fit(self.macro, train),
            "graph": normalize_fit(graph[train].reshape(-1, graph.shape[-1]),
                                   slice(None)),
            "y_mean": float(y_pool.mean()),
            "y_std": y_std,
        }
        self.price_z = self.norm["price"].apply(price)
        self.macro_z = self.norm["macro"].apply(self.macro)
        self.graph_z = self.norm["graph"].apply(graph)
        self.y_z = (self.returns - self.norm["y_mean"]) / y_std

    # model-ready sampling ----------------------------------------------
    def sample_pairs(self, split: str) -> list:
        dates = self.splits[split]
        return [(a, t) for t in dates for a in range(self.n_assets)]

    def batch_arrays(self, pairs) -> dict:
        """Normalised model inputs and next-date labels for (asset, date)
        pairs on usable dates, indexed from the tables ``finalize`` built.
        DegenerateInputError if ``pairs`` is empty."""
        a, t = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        if not t.size:
            raise DegenerateInputError("batch_arrays got an empty batch of (asset, date) pairs")
        if np.any((t < 0) | (t >= self.n_steps)) or not self.usable[t].all():
            raise ContractError("batch_arrays takes usable dates only")
        window = t[:, None] + np.arange(1 - self.config.window, 1)
        nxt = t + 1
        y_raw = self.returns[a, nxt]
        return {
            "price": self.price_z[a[:, None], window],
            "tokens": self.tokens[a, t],
            "tok_len": self.tok_len[a, t],
            "macro": self.macro_z[t],
            "graph_feats": self.graph_z[t],
            # one static graph: a read-only view repeats it for every row
            "graph_adj": np.broadcast_to(
                self.adjacency, (t.size,) + self.adjacency.shape),
            "y": self.y_z[a, nxt],
            "y_raw": y_raw,
            "direction": np.where(y_raw < -FLAT_BAND, 0, np.where(y_raw > FLAT_BAND, 2, 1)),
            "crisis_next": self.regime[nxt].astype(np.int64),
            "stress_next": self.node_stress[nxt].mean(axis=1),
            "node_distress": (self.node_stress[nxt] > NODE_DISTRESS_THRESHOLD).astype(np.int64),
            "pairs": list(pairs),
        }


def usable_dates(indicators: np.ndarray, macro: np.ndarray, window: int) -> np.ndarray:
    """(T,) bool: dates whose trailing ``window`` dates have every asset's
    indicators past warmup, whose macro row is observed, and whose next date
    (the one-step-ahead label) exists."""
    valid = ~np.isnan(indicators).any(axis=(0, 2))
    # a date is usable when all ``window`` dates ending at it are valid
    usable = np.convolve(valid, np.ones(window))[:valid.size] == window
    usable &= ~np.isnan(macro).any(axis=1)
    usable[-1] = False
    return usable


def build_dataset(cfg: SyntheticConfig) -> AlignedDataset:
    """Generate, impute observation gaps, align to daily, derive indicators,
    and fit normalization."""
    series, raw = generate_synthetic(cfg)
    return build_dataset_from_raw(cfg, series, raw)


def build_dataset_from_raw(cfg: SyntheticConfig, series: dict, raw: dict) -> AlignedDataset:
    """Processing stage alone; series/raw normally come from generate_synthetic."""
    t_all = cfg.n_steps
    gap_free = {name: kalman_impute(s, window=24) for name, s in series.items()}
    macro, _, names = align_temporal(gap_free, t_all)
    # availability of the original (gappy) observations, for provenance
    _, raw_present, _ = align_temporal(series, t_all)
    if names != list(MACRO_SLOTS):
        raise ContractError("macro series out of order")

    indicators = np.stack([compute_indicators(o)[0] for o in raw["ohlcv"]])

    ds = AlignedDataset(
        config=cfg,
        vocab=build_vocab(cfg.n_assets),
        ohlcv=raw["ohlcv"],
        indicators=indicators,
        tokens=raw["tokens"],
        tok_len=raw["tok_len"],
        macro=macro,
        macro_present=raw_present,
        adjacency=raw["adjacency"],
        node_stress=raw["stress"],
        node_returns=raw["node_returns"],
        market_return=raw["market_return"],
        regime=raw["regime"],
        returns=raw["returns"],
    )
    ds.finalize()
    return ds


# ---------------------------------------------------------------------------
# JSON-lines serialization and its binary sidecar

# the per-date arrays the records hold, in the sidecar's order
RECORD_ARRAYS = ("ohlcv", "indicators", "tokens", "tok_len", "macro",
                 "macro_present", "node_stress", "node_returns",
                 "market_return", "regime", "returns")
_PER_ASSET = ("ohlcv", "indicators", "tokens", "tok_len", "returns")
_FLOATS = ("market_return", "node_stress", "node_returns", "macro", "ohlcv",
           "indicators", "returns")
_DATED = ("regime", "macro_present") + _FLOATS  # one JSON field each
SIDECAR_MAGIC = b"FFDS"
HASH_CHUNK = 1 << 16  # bytes of the JSONL that ``load_dataset`` hashes per read


def sidecar_path(path: str) -> str:
    """The binary sidecar that ``save_dataset`` writes next to ``path``."""
    return os.path.splitext(path)[0] + ".bin"


def save_dataset(ds: AlignedDataset, path: str) -> None:
    """One meta header, then one record per date in date order. The header's
    usable dates and splits are what ``finalize`` derives, for readers of the
    file; the loader derives them again and requires them to match.

    The JSONL is the artifact of record. Its sidecar (``sidecar_path``)
    holds the same record arrays in the binary container, with the sha256
    of the JSONL bytes, so that ``load_dataset`` can skip the parse."""
    if sidecar_path(path) == path:
        raise ContractError(f"{path}: the sidecar would overwrite the dataset")
    meta = {
        "type": "meta",
        "schema_version": SCHEMA_VERSION,
        "config": ds.config.to_dict(),
        "vocab": ds.vocab,
        "seq_len": int(ds.tokens.shape[2]),
        "macro_slots": list(MACRO_SLOTS),
        "splits": ds.splits,
        "usable": np.flatnonzero(ds.usable).tolist(),
        "adjacency": ds.adjacency.tolist(),
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for t in range(ds.n_steps):
        rec = {
            "date": t,
            "regime": int(ds.regime[t]),
            "market_return": float(ds.market_return[t]),
            "node_stress": ds.node_stress[t].tolist(),
            "node_returns": ds.node_returns[t].tolist(),
            "macro": _nan_to_none(ds.macro[t]),
            "macro_present": ds.macro_present[t].astype(int).tolist(),
            "ohlcv": ds.ohlcv[:, t].tolist(),
            "indicators": [_nan_to_none(row) for row in ds.indicators[:, t]],
            "tokens": [ds.tokens[a, t, :ds.tok_len[a, t]].tolist()
                       for a in range(ds.n_assets)],
            "returns": ds.returns[:, t].tolist(),
        }
        lines.append(json.dumps(rec, sort_keys=True))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(text)
    arrays = {name: getattr(ds, name) for name in RECORD_ARRAYS}
    # the records hold each asset's first tok_len ids, so parsing pads with 0
    arrays["tokens"] = np.where(
        np.arange(ds.tokens.shape[2]) < ds.tok_len[..., None], ds.tokens, 0)
    container.write(sidecar_path(path), SIDECAR_MAGIC, arrays.items(),
                    {"source_sha256": hashlib.sha256(text).hexdigest()})


def _nan_to_none(row: np.ndarray) -> list:
    return [None if np.isnan(v) else float(v) for v in row]


def _field(rec: dict, key: str, shape: tuple) -> np.ndarray:
    """``rec[key]`` as a float array (``null`` reads as NaN) of exactly
    ``shape``: numpy would broadcast a short list silently."""
    try:
        x = np.asarray(rec[key], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{key} is not a {shape} array of numbers") from e
    if x.shape != shape:
        raise SchemaError(f"{key} has shape {x.shape}, expected {shape}")
    return x


# what a malformed line raises while it is parsed or used
_MALFORMED = (ValueError, KeyError, IndexError, TypeError, AttributeError,
              OverflowError)


def _at_line(path: str, lineno: int, e: Exception) -> SchemaError:
    if isinstance(e, SchemaError):
        return SchemaError(f"{path}, line {lineno}: {e}")
    return SchemaError(f"{path}, line {lineno}: malformed record "
                       f"({type(e).__name__}: {e})")


def load_dataset(path: str) -> AlignedDataset:
    """Read a dataset written by ``save_dataset`` and ``finalize`` it.

    The meta header comes from line 1. The record arrays come from the
    sidecar when it was written from exactly these bytes and holds exactly
    the arrays the header implies; otherwise the records are parsed, once
    the file is known to hold as many as the header declares. No array is
    sized from a header number before the file is known to hold its values.
    Either way, SchemaError names the line and the field unless record k
    holds date k, each field has its shape and finite values (``null`` only
    in indicators and macro), flags are 0/1, each asset has 1..TOKEN_LEN
    token ids from the vocabulary, price bars are well formed, ``finalize``
    accepts the data, and the header's usable dates and splits are the ones
    it derives.

    Only the header line is held whole at first: the rest of the file is
    fed to the sidecar's sha256 check in ``HASH_CHUNK``-byte pieces, and is
    read whole only when the sidecar is missing or rejected and the records
    must be parsed."""
    with open(path, "rb") as fh:
        head = fh.readline()
        try:
            meta = json.loads(head.removesuffix(b"\n"))
            cfg, vocab, adjacency = _read_meta(meta)
            header_dates = {"usable dates": np.asarray(meta["usable"], dtype=np.int64)}
            for name in ("train", "val", "test"):
                header_dates[f"split {name!r} dates"] = np.asarray(
                    meta["splits"][name], dtype=np.int64)
        except _MALFORMED as e:
            raise _at_line(path, 1, e) from e
        layout = _record_layout(cfg)
        digest = hashlib.sha256(head)
        for chunk in iter(lambda: fh.read(HASH_CHUNK), b""):
            digest.update(chunk)
        arrays = _read_sidecar(path, digest.hexdigest(), layout)
        if arrays is None:
            fh.seek(len(head))
            arrays = _parse_records(path, fh.read(), layout)
    problem = _check_records(arrays, len(vocab))
    if problem is not None:
        raise SchemaError(f"{path}, line {problem[0] + 2}: {problem[1]}")
    ds = AlignedDataset(config=cfg, vocab=vocab, adjacency=adjacency,
                        **{name: arrays[name].astype(dtype, copy=False)
                           for name, (dtype, _) in layout.items()})
    try:
        ds.finalize()
    except ContractError as e:  # too few usable dates, constant training returns
        raise SchemaError(f"{path}: {e}") from e
    derived = {"usable dates": np.flatnonzero(ds.usable),
               **{f"split {name!r} dates": v for name, v in ds.splits.items()}}
    for what, dates in header_dates.items():
        if not np.array_equal(dates, derived[what]):
            stray = np.setxor1d(dates, derived[what])
            at = f" at date {stray[0]}" if stray.size else ""
            raise SchemaError(f"{path}, line 1: {what} disagree with the data{at}")
    return ds


def _parse_records(path: str, body: bytes, layout: dict) -> dict:
    """The record arrays of ``_record_layout`` shapes from the JSONL lines
    after the header, checked only as far as parsing needs: the record
    count (before anything is allocated), date order, list lengths and
    integer token ids. The flags stay float, as written, for
    ``_check_records`` to judge."""
    lines = body.splitlines()
    n_assets, n_steps, _ = layout["ohlcv"][1]
    if len(lines) != n_steps:
        raise SchemaError(f"{path}: {len(lines)} date records, the header "
                          f"declares n_steps {n_steps}")
    arrays = {name: np.zeros(shape, np.float64 if name in ("regime", "macro_present")
                             else dtype)
              for name, (dtype, shape) in layout.items()}
    by_date = {key: arrays[key].swapaxes(0, 1) if key in _PER_ASSET else arrays[key]
               for key in _DATED}
    tokens, tok_len = arrays["tokens"], arrays["tok_len"]
    lineno = 1
    try:
        for lineno, line in enumerate(lines, start=2):
            t = lineno - 2
            rec = json.loads(line)
            if rec["date"] != t:
                raise SchemaError(f"date {rec['date']} where date {t} belongs")
            for key, values in by_date.items():
                values[t] = _field(rec, key, values.shape[1:])
            if len(rec["tokens"]) != n_assets:
                raise SchemaError(f"tokens has {len(rec['tokens'])} lists, not {n_assets}")
            for a, ids in enumerate(rec["tokens"]):
                if not all(type(i) is int for i in ids):
                    raise SchemaError(f"tokens[{a}] holds an id that is not an integer")
                # a list longer than TOKEN_LEN keeps its length for the check
                tokens[a, t, :len(ids)] = ids[:TOKEN_LEN]
                tok_len[a, t] = len(ids)
    except _MALFORMED as e:
        raise _at_line(path, lineno, e) from e
    return arrays


def _read_sidecar(path: str, source_sha256: str, layout: dict):
    """The record arrays from ``path``'s sidecar, or None unless it is an
    intact container written from the JSONL bytes whose sha256 hex digest,
    streamed by ``load_dataset``, is ``source_sha256``, and its arrays are
    ``RECORD_ARRAYS`` with the dtypes and shapes of ``layout``."""
    try:
        arrays, meta = container.read(sidecar_path(path), SIDECAR_MAGIC)
    except (OSError, SchemaError):
        return None
    found = [(name, a.dtype, a.shape) for name, a in arrays.items()]
    if (meta.get("source_sha256") != source_sha256
            or found != [(name, dtype, shape) for name, (dtype, shape) in layout.items()]):
        return None
    return arrays


def _first(bad: np.ndarray):
    """Index of the first True entry in date order (date axis first)."""
    if not bad.any():
        return None
    return np.argwhere(bad)[0]


def _check_records(arrays: dict, n_vocab: int):
    """(date, problem) for the first value rule the record arrays break, or
    None. Flags are 0/1; values are finite, except NaN (``null``) in
    indicators and macro; each asset has 1..TOKEN_LEN ids from the vocabulary
    and zero padding after them; price bars are well formed. The same check
    serves parsed records and the sidecar."""
    by_date = {key: a.swapaxes(0, 1) if key in _PER_ASSET else a
               for key, a in arrays.items()}
    regime = by_date["regime"]
    hit = _first((regime != 0) & (regime != 1))
    if hit is not None:
        return hit[0], f"regime {regime[hit[0]]:g} is not 0 or 1"
    present = by_date["macro_present"]
    if present.dtype == bool:  # a byte other than 0 or 1 reads as True
        present = present.view(np.uint8)
    hit = _first((present != 0) & (present != 1))
    if hit is not None:
        return hit[0], "macro_present holds a flag other than 0 or 1"
    for key in _FLOATS:
        values = by_date[key]
        hit = _first(np.isinf(values) if key in ("indicators", "macro")
                     else ~np.isfinite(values))
        if hit is not None:
            return hit[0], f"{key} holds a non-finite value"
    tokens, tok_len = by_date["tokens"], by_date["tok_len"]
    listed = np.arange(tokens.shape[-1]) < tok_len[..., None]
    bad = (tok_len < 1) | (tok_len > TOKEN_LEN) | np.where(
        listed, (tokens < 0) | (tokens >= n_vocab), tokens != 0).any(axis=-1)
    hit = _first(bad)
    if hit is not None:
        return hit[0], f"tokens[{hit[1]}] is not 1..{TOKEN_LEN} ids from 0..{n_vocab - 1}"
    o, h, l, c, v = np.moveaxis(by_date["ohlcv"], -1, 0)
    for bad, what in ((h < np.maximum(o, c), "high is below max(open, close)"),
                      (l > np.minimum(o, c), "low is above min(open, close)"),
                      (v < 0, "volume is negative")):
        hit = _first(bad)
        if hit is not None:
            return hit[0], f"date {hit[0]}, asset {hit[1]}: {what}"
    return None


def _read_meta(meta: dict) -> tuple:
    """(config, vocab, adjacency) of the meta header. Its ``seq_len`` must
    be ``TOKEN_LEN`` and its ``macro_slots`` ``MACRO_SLOTS``: the model
    reads that layout."""
    if meta.get("type") != "meta":
        raise SchemaError("first record must be the meta header")
    if meta.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version {meta.get('schema_version')} != {SCHEMA_VERSION}")
    if meta.get("macro_slots") != list(MACRO_SLOTS):
        raise SchemaError(
            f"macro_slots {meta.get('macro_slots')} != {list(MACRO_SLOTS)}")
    if meta.get("seq_len") != TOKEN_LEN:
        raise SchemaError(f"seq_len {meta.get('seq_len')} != {TOKEN_LEN}")
    cfg = SyntheticConfig(**meta["config"])
    n = cfg.n_institutions
    adjacency = np.asarray(meta["adjacency"], dtype=np.float64)
    if adjacency.shape != (n, n):
        raise SchemaError(f"adjacency is {adjacency.shape}, expected ({n}, {n})")
    if np.any(adjacency < 0):
        i, j = np.argwhere(adjacency < 0)[0]
        raise SchemaError(f"adjacency weight [{i}, {j}] is negative")
    return cfg, meta["vocab"], adjacency


def _record_layout(cfg: SyntheticConfig) -> dict:
    """name -> (dtype, shape) of each of ``RECORD_ARRAYS``, in order, for a
    dataset of ``cfg``. Nothing is allocated."""
    a, t, n, m = cfg.n_assets, cfg.n_steps, cfg.n_institutions, len(MACRO_SLOTS)
    f8, i8 = np.dtype(np.float64), np.dtype(np.int64)
    spec = {
        "ohlcv": (f8, (a, t, 5)),
        "indicators": (f8, (a, t, len(INDICATOR_NAMES))),
        "tokens": (i8, (a, t, TOKEN_LEN)),
        "tok_len": (i8, (a, t)),
        "macro": (f8, (t, m)),
        "macro_present": (np.dtype(bool), (t, m)),
        "node_stress": (f8, (t, n)),
        "node_returns": (f8, (t, n)),
        "market_return": (f8, (t,)),
        "regime": (i8, (t,)),
        "returns": (f8, (a, t)),
    }
    return {name: spec[name] for name in RECORD_ARRAYS}
