"""Task heads: mixture forecasting, systemic risk scoring, bulletins."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import optimize, special, stats
from scipy.special import ndtri

from finfusion import autodiff as ad
from finfusion import datapipe as dp
from finfusion import encoders as enc
from finfusion import evaluate as ev
from finfusion import heads
from finfusion.autodiff import Tape, Tensor, backward, grad_check, reduce_sum
from finfusion.errors import ContractError, DegenerateInputError, DimensionError
from finfusion.model import ModelConfig, init_model_params
from tests.test_encoders import tiny_cfg


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_cfg()
    params = init_model_params(cfg, np.random.default_rng(99))
    return cfg, params


# ---------------------------------------------------------------------------
# micro forecast head

# z-scored labels read as raw returns: the forecast keeps the head's units
UNIT_NORM = {"y_mean": 0.0, "y_std": 1.0}


def _forecast(hist, k, params, cfg, norm) -> dict:
    """``micro_forecast`` of the decoder's k-step mixture for the (B, T, d)
    histories ``hist``."""
    w, m, s = heads.micro_head_batch(Tensor(hist), params, cfg, k)
    return heads.micro_forecast(w.data, m.data, s.data, norm)


def test_single_component_point_equals_mean():
    cfg = tiny_cfg(mdn_components=1)
    params = init_model_params(cfg, np.random.default_rng(0))
    hist = np.random.default_rng(1).normal(size=(1, 2, cfg.d_model))
    f = _forecast(hist, 1, params, cfg, UNIT_NORM)
    assert f["weights"].shape == (1, 1)
    assert f["point"][0] == pytest.approx(f["means"][0, 0], abs=1e-12)


def test_direction_probs_sum_to_one(setup):
    cfg, params = setup
    hist = np.random.default_rng(2).normal(size=(1, 3, cfg.d_model))
    f = _forecast(hist, 1, params, cfg, UNIT_NORM)
    assert f["direction_probs"].shape == (1, 3)
    assert f["direction_probs"][0].sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(f["direction_probs"] >= 0)


def test_direction_probs_of_a_batch_equal_each_row():
    # (..., K) mixtures in one call give each mixture's own (K,) call bit for
    # bit, and the mixture CDF at +-flat_band matches scipy's
    rng = np.random.default_rng(4)
    raw = rng.uniform(0.1, 1.0, size=(2, 3, 4))
    w = raw / raw.sum(axis=-1, keepdims=True)
    m = rng.normal(scale=0.01, size=w.shape)
    s = rng.uniform(0.005, 0.02, size=w.shape)
    band = 5e-4
    probs = heads.mixture_direction_probs(w, m, s, band)
    assert probs.shape == (2, 3, 3)
    for i in np.ndindex(2, 3):
        row = heads.mixture_direction_probs(w[i], m[i], s[i], band)
        assert row.tobytes() == probs[i].tobytes()
        lo, hi = (np.sum(w[i] * stats.norm.cdf(x, loc=m[i], scale=s[i]))
                  for x in (-band, band))
        np.testing.assert_allclose(row, [lo, hi - lo, 1.0 - hi], rtol=1e-12, atol=1e-15)


def test_two_step_roll_equals_manual_feedback(setup):
    cfg, params = setup
    rng = np.random.default_rng(3)
    hist = rng.normal(size=(1, 2, cfg.d_model))
    f2 = _forecast(hist, 2, params, cfg, UNIT_NORM)
    # manual roll: forecast once, embed the point value, append, forecast again
    f1 = _forecast(hist, 1, params, cfg, UNIT_NORM)
    fb_w = params["micro.feedback.w"].data
    fb_b = params["micro.feedback.b"].data
    pseudo = f1["point"] @ fb_w + fb_b
    extended = np.concatenate([hist, pseudo[None, None, :]], axis=1)
    f2_manual = _forecast(extended, 1, params, cfg, UNIT_NORM)
    assert f2["point"][0] == pytest.approx(f2_manual["point"][0], abs=1e-12)
    assert np.allclose(f2["means"], f2_manual["means"], atol=1e-12)


def test_horizon_validation(setup):
    cfg, params = setup
    hist = np.zeros((1, 1, cfg.d_model))
    with pytest.raises(ContractError):
        _forecast(hist, 0, params, cfg, UNIT_NORM)
    with pytest.raises(DegenerateInputError):
        _forecast(np.zeros((1, 0, cfg.d_model)), 1, params, cfg, UNIT_NORM)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_batched_forecast_equals_one_row_calls(setup, k):
    cfg, params = setup
    hist = np.random.default_rng(10 + k).normal(size=(4, 3, cfg.d_model))
    norm = {"y_mean": 0.002, "y_std": 0.013}
    batched = _forecast(hist, k, params, cfg, norm)
    assert batched["point"].shape == (len(hist),)
    for i, row in enumerate(hist):
        fr = _forecast(row[None], k, params, cfg, norm)
        for name in ("point", "direction_probs", "weights", "means", "sigmas"):
            np.testing.assert_allclose(batched[name][i], fr[name][0],
                                       rtol=1e-12, atol=1e-15)


def test_forecast_is_in_raw_return_units(setup):
    # the affine map from z-scored to raw returns, applied to the head's
    # mixture: it keeps the weights and recomputes direction probabilities
    # against the raw-unit flat band
    cfg, params = setup
    hist = np.random.default_rng(6).normal(size=(2, 2, cfg.d_model))
    norm = {"y_mean": 0.002, "y_std": 0.013}
    unit = _forecast(hist, 3, params, cfg, UNIT_NORM)
    raw = _forecast(hist, 3, params, cfg, norm)
    means = unit["means"] * norm["y_std"] + norm["y_mean"]
    sigmas = unit["sigmas"] * norm["y_std"]
    assert raw["point"].tobytes() == (unit["point"] * norm["y_std"]
                                      + norm["y_mean"]).tobytes()
    assert raw["weights"].tobytes() == unit["weights"].tobytes()
    assert raw["means"].tobytes() == means.tobytes()
    assert raw["sigmas"].tobytes() == sigmas.tobytes()
    expected = heads.mixture_direction_probs(unit["weights"], means, sigmas,
                                             dp.FLAT_BAND)
    assert raw["direction_probs"].tobytes() == expected.tobytes()


def test_micro_head_batch_gradients(setup):
    cfg, _ = setup
    params = init_model_params(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    z = rng.normal(size=(2, 3, cfg.d_model))
    y = rng.normal(size=2)

    def loss(k):
        def f(_):
            w, m, s = heads.micro_head_batch(Tensor(z), params, cfg, k)
            return heads.mdn_nll_batch(w, m, s, y)
        return f

    for target in ("micro.out_mu.w", "micro.out_sig.w", "micro.out_w.w",
                   "micro.layer0.wv"):
        assert grad_check(loss(1), params[target], eps=1e-5) < 1e-4, target
    # a rollout reaches the feedback embedding and the causal attention
    for target in ("micro.feedback.w", "micro.layer0.wq", "micro.out_mu.w"):
        assert grad_check(loss(3), params[target], eps=1e-5) < 1e-4, target


def _causal_transformer_layer(x, params, prefix, n_heads, keep):
    """The micro decoder's former private layer, kept as the unfused
    reference: it adds each residual branch as (x + m) + b, the shared layer
    as x + (m + b)."""
    b, t, d = x.shape
    dh = d // n_heads
    normed = ad.layer_norm(x, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])

    def proj(name):
        w, bias = params[f"{prefix}.w{name}"], params[f"{prefix}.b{name}"]
        out = ad.matmul(normed, w) + bias
        return ad.transpose(ad.reshape(out, (b, t, n_heads, dh)), (0, 2, 1, 3))

    q, k, v = proj("q"), proj("k"), proj("v")
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    scores = ad.masked_fill_logits(scores, np.broadcast_to(keep, scores.shape))
    attn = ad.softmax(scores, axis=-1)
    out = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (b, t, d))
    x = x + ad.matmul(out, params[f"{prefix}.wo"]) + params[f"{prefix}.bo"]
    normed = ad.layer_norm(x, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    h = ad.relu(ad.matmul(normed, params[f"{prefix}.ff.w1"]) + params[f"{prefix}.ff.b1"])
    return x + ad.matmul(h, params[f"{prefix}.ff.w2"]) + params[f"{prefix}.ff.b2"]


@pytest.mark.parametrize("t", [1, 2, 5])
def test_shared_layer_under_a_causal_mask_matches_the_reference(t):
    cfg = tiny_cfg()
    params = init_model_params(cfg, np.random.default_rng(7))
    # nonzero biases, so the order of the residual additions is exercised
    rng = np.random.default_rng(8)
    for name in ("bq", "bk", "bv", "bo", "ff.b1", "ff.b2"):
        leaf = params[f"micro.layer0.{name}"]
        leaf.data[...] = rng.normal(scale=0.5, size=leaf.shape)
    x = Tensor(rng.normal(size=(3, t, cfg.d_model)))
    causal = np.tril(np.ones((t, t), dtype=bool))
    got = enc.transformer_layer(x, params, "micro.layer0", cfg.n_heads, causal)
    want = _causal_transformer_layer(x, params, "micro.layer0", cfg.n_heads, causal)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12, atol=1e-12)
    # the causal mask hides the future: changing the last step moves only it
    later = x.data.copy()
    later[:, -1] += 1.0
    moved = enc.transformer_layer(Tensor(later), params, "micro.layer0", cfg.n_heads,
                                  causal)
    assert moved.data[:, :-1].tobytes() == got.data[:, :-1].tobytes()


# ---------------------------------------------------------------------------
# mdn_nll

def test_mdn_nll_standard_normal_at_zero():
    out = heads.mdn_nll_values([1.0], [0.0], [1.0], y=0.0)
    assert out == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-6)
    assert out == pytest.approx(0.9189, abs=1e-4)


def test_mdn_nll_duplicate_component_invariance():
    base = heads.mdn_nll_values([1.0], [0.3], [0.8], y=0.1)
    split = heads.mdn_nll_values([0.5, 0.5], [0.3, 0.3], [0.8, 0.8], y=0.1)
    assert split == pytest.approx(base, abs=1e-12)


def test_mdn_nll_component_permutation_invariance():
    w, m, s = [0.2, 0.5, 0.3], [-1.0, 0.0, 1.0], [0.5, 1.0, 2.0]
    base = heads.mdn_nll_values(w, m, s, y=0.4)
    perm = heads.mdn_nll_values(w[::-1], m[::-1], s[::-1], y=0.4)
    assert perm == pytest.approx(base, abs=1e-12)


def test_mdn_nll_matches_scipy():
    w = np.array([0.3, 0.7])
    m = np.array([-0.5, 1.0])
    s = np.array([0.4, 1.5])
    y = 0.25
    density = np.sum(w * stats.norm.pdf(y, loc=m, scale=s))
    assert heads.mdn_nll_values(w, m, s, y) == pytest.approx(-np.log(density), abs=1e-10)


def test_mdn_nll_rejects_nonpositive_sigma():
    with pytest.raises(ContractError):
        heads.mdn_nll_values([1.0], [0.0], [0.0], y=0.0)


def test_mdn_nll_batch_gradient():
    rng = np.random.default_rng(6)
    k = 3
    w = Tensor(np.full((2, k), 1.0 / k), requires_grad=True)
    m = Tensor(rng.normal(size=(2, k)), requires_grad=True)
    s = Tensor(rng.uniform(0.5, 1.5, size=(2, k)), requires_grad=True)
    y = rng.normal(size=2)
    assert grad_check(lambda t: heads.mdn_nll_batch(t, m, s, y), w) < 1e-6
    assert grad_check(lambda t: heads.mdn_nll_batch(w, t, s, y), m) < 1e-6
    assert grad_check(lambda t: heads.mdn_nll_batch(w, m, t, y), s) < 1e-6


# ---------------------------------------------------------------------------
# mixture_quantile

def test_mixture_quantile_single_gaussian_closed_form():
    w = Tensor(np.array([[1.0]]))
    m = Tensor(np.array([[0.7]]))
    s = Tensor(np.array([[1.3]]))
    for tau in (0.1, 0.5, 0.9):
        q = heads.mixture_quantile(w, m, s, tau).data[0]
        assert q == pytest.approx(0.7 + 1.3 * ndtri(tau), abs=1e-7)


def test_mixture_quantile_cdf_roundtrip():
    rng = np.random.default_rng(7)
    k = 3
    raw = rng.uniform(0.1, 1.0, size=(4, k))
    w = raw / raw.sum(axis=1, keepdims=True)
    m = rng.normal(size=(4, k))
    s = rng.uniform(0.3, 2.0, size=(4, k))
    q = heads.mixture_quantile(Tensor(w), Tensor(m), Tensor(s), 0.25).data
    for i in range(4):
        cdf = np.sum(w[i] * stats.norm.cdf(q[i], loc=m[i], scale=s[i]))
        assert cdf == pytest.approx(0.25, abs=1e-6)


def test_mixture_quantile_gradients():
    rng = np.random.default_rng(8)
    k = 2
    raw = rng.uniform(0.2, 1.0, size=(3, k))
    wv = raw / raw.sum(axis=1, keepdims=True)
    w = Tensor(wv, requires_grad=True)
    m = Tensor(rng.normal(size=(3, k)), requires_grad=True)
    s = Tensor(rng.uniform(0.5, 1.5, size=(3, k)), requires_grad=True)

    # tol far below fd eps so bisection noise cannot pollute the oracle
    def loss_w(t):
        return reduce_sum(heads.mixture_quantile(t, m, s, 0.8, tol=1e-12))

    def loss_m(t):
        return reduce_sum(heads.mixture_quantile(w, t, s, 0.8, tol=1e-12))

    def loss_s(t):
        return reduce_sum(heads.mixture_quantile(w, m, t, 0.8, tol=1e-12))

    assert grad_check(loss_w, w, eps=1e-5) < 1e-5
    assert grad_check(loss_m, m, eps=1e-5) < 1e-5
    assert grad_check(loss_s, s, eps=1e-5) < 1e-5


def test_mixture_quantile_tau_validation():
    w = Tensor(np.array([[1.0]]))
    with pytest.raises(ContractError):
        heads.mixture_quantile(w, w, w, 0.0)
    with pytest.raises(ContractError):
        heads.mixture_quantile(w, w, w, 1.0)
    with pytest.raises(ContractError):
        heads.mixture_quantile(w, w, w, (0.5, 1.0))
    with pytest.raises(ContractError):
        heads.mixture_quantile(w, w, w, [[0.5]])


def test_ndtr_matches_scipy():
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), [0.0, -0.0, 1e-300, -1e-300]])
    got = heads._ndtr(x.reshape(5, -1))
    assert got.shape == (5, x.size // 5)
    assert np.max(np.abs(got.ravel() - special.ndtr(x))) <= 4.5e-16
    assert np.array_equal(heads._ndtr(np.array([np.inf, -np.inf])), [1.0, 0.0])
    assert np.isnan(heads._ndtr(np.array([np.nan]))).all()
    assert heads._ndtr(np.array(0.25)).shape == ()


_QUANTILE_TAUS = (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6)
# each case: (weights, means, sigmas), one row per mixture
_QUANTILE_CASES = {
    "dominant": ([[0.998, 0.001, 0.001]], [[0.3, -2.0, 4.0]], [[0.8, 0.5, 2.5]]),
    "identical": ([[0.25, 0.25, 0.5]], [[-0.4, -0.4, -0.4]], [[1.7, 1.7, 1.7]]),
    "separated": ([[0.3, 0.4, 0.3]], [[-30.0, 0.0, 45.0]], [[0.5, 1.0, 0.2]]),
    "wide and narrow": ([[0.5, 0.5]], [[0.0, 0.0]], [[0.01, 40.0]]),
    "one": ([[1.0]], [[2.5]], [[0.05]]),
}


def _count_solver_evaluations(monkeypatch):
    calls = []
    evaluate = heads._mixture_cdf_pdf

    def counted(*args):
        calls.append(1)
        return evaluate(*args)

    monkeypatch.setattr(heads, "_mixture_cdf_pdf", counted)
    return calls


@pytest.mark.parametrize("case", sorted(_QUANTILE_CASES))
def test_mixture_quantile_matches_brentq(case, monkeypatch):
    w, m, s = (np.array(v) for v in _QUANTILE_CASES[case])
    calls = _count_solver_evaluations(monkeypatch)
    for tau in _QUANTILE_TAUS:
        calls.clear()
        q = heads.mixture_quantile(Tensor(w), Tensor(m), Tensor(s), tau).data[0]
        assert len(calls) <= 25

        def excess(x):
            return float(np.sum(w[0] * stats.norm.cdf(x, m[0], s[0]))) - tau

        lo, hi = np.min(m - 60.0 * s), np.max(m + 60.0 * s)
        assert q == pytest.approx(optimize.brentq(excess, lo, hi, xtol=1e-14, rtol=1e-15),
                                  abs=1e-8)


def test_mixture_quantile_takes_newton_steps(monkeypatch):
    # a bracket of width >= 1 takes bisection at least 27 halvings to 1e-8
    rng = np.random.default_rng(21)
    calls = _count_solver_evaluations(monkeypatch)
    counts = []
    for _ in range(200):
        w, m, s = _random_mixture(rng, 32, 3)
        m.data[:] = m.data * 3.0 + np.array([-2.0, 0.0, 2.0])
        for tau in _QUANTILE_TAUS:
            calls.clear()
            heads.mixture_quantile(w, m, s, tau)
            counts.append(len(calls))
    assert max(counts) <= 25
    assert np.median(counts) <= 14


def _random_mixture(rng, b, k):
    raw = rng.uniform(0.05, 1.0, size=(b, k))
    return (Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True),
            Tensor(rng.normal(size=(b, k)) * rng.uniform(0.1, 3.0), requires_grad=True),
            Tensor(rng.uniform(0.05, 2.0, size=(b, k)), requires_grad=True))


def test_joint_quantiles_equal_per_level_calls_bit_for_bit():
    rng = np.random.default_rng(12)
    levels = (0.1, 0.5, 0.9)
    for _ in range(100):
        w, m, s = _random_mixture(rng, int(rng.integers(1, 64)), int(rng.integers(1, 6)))
        joint = heads.mixture_quantile(w, m, s, levels).data
        assert joint.shape == (w.shape[0], len(levels))
        for j, tau in enumerate(levels):
            assert np.array_equal(joint[:, j], heads.mixture_quantile(w, m, s, tau).data)


def test_joint_quantiles_keep_each_levels_iteration_count():
    # a width of 24 sigma = 2**30 * tol: rounding makes two of these levels
    # converge one bisection step before the other two
    one = Tensor(np.ones((1, 1)))
    sigma = Tensor(np.array([[0.4473924266665772]]))
    levels = (0.1, 0.5, 0.9, 0.3)
    joint = heads.mixture_quantile(one, Tensor(np.zeros((1, 1))), sigma, levels).data
    for j, tau in enumerate(levels):
        single = heads.mixture_quantile(one, Tensor(np.zeros((1, 1))), sigma, tau).data
        assert np.array_equal(joint[:, j], single)


def test_joint_quantile_gradients_sum_the_per_level_gradients():
    rng = np.random.default_rng(13)
    levels = (0.1, 0.5, 0.9)
    w, m, s = _random_mixture(rng, 5, 3)
    coeffs = rng.normal(size=(5, len(levels)))
    with Tape() as tape:
        loss = reduce_sum(heads.mixture_quantile(w, m, s, levels) * coeffs)
    backward(loss, tape)
    joint = [t.grad.copy() for t in (w, m, s)]
    for t in (w, m, s):
        t.zero_grad()
    with Tape() as tape:
        terms = [reduce_sum(heads.mixture_quantile(w, m, s, tau) * coeffs[:, j])
                 for j, tau in enumerate(levels)]
        loss = terms[0] + terms[1] + terms[2]
    backward(loss, tape)
    for got, t in zip(joint, (w, m, s)):
        assert np.max(np.abs(got - t.grad)) <= 1e-12 * np.max(np.abs(t.grad))


# ---------------------------------------------------------------------------
# macro risk head

def test_risk_score_range_and_warning(setup):
    cfg, params = setup
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = Tensor(rng.normal(size=(1, cfg.d_model)) * 3)
        feats = rng.normal(size=(1, 4, cfg.graph_features))
        adj = (rng.uniform(size=(1, 4, 4)) > 0.5).astype(float)
        score, contrib = heads.macro_risk_batch(z, feats, enc.graph_keep(adj), params, cfg)
        s = float(score.data[0])
        assert 0.0 <= s <= 1.0
        assert np.all((contrib.data >= 0) & (contrib.data <= 1))


def test_risk_warning_thresholding():
    ds = dp.build_dataset(dp.SyntheticConfig(
        n_steps=170, n_assets=1, n_institutions=3, seed=5))
    cfg = tiny_cfg(price_features=12, graph_features=len(dp.GRAPH_FEATURE_NAMES),
                   vocab_size=len(ds.vocab))
    params = init_model_params(cfg, np.random.default_rng(6))
    # a threshold at the median score puts dates on both sides of it
    median = float(np.median(ev.predict_risk(ds, params, cfg, "test")["score"]))
    cfg = dataclasses.replace(cfg, warning_threshold=median)
    risk = ev.predict_risk(ds, params, cfg, "test")
    assert np.array_equal(risk["warning"], risk["score"] >= median)
    assert 0 < risk["warning"].sum() < risk["warning"].size


def test_risk_zero_edges_equals_self_loop_only_reference(setup):
    cfg, params = setup
    rng = np.random.default_rng(10)
    z = Tensor(rng.normal(size=(1, cfg.d_model)))
    feats = rng.normal(size=(1, 3, cfg.graph_features))
    zero_adj = np.zeros((1, 3, 3))
    score, contrib = heads.macro_risk_batch(z, feats, enc.graph_keep(zero_adj),
                                            params, cfg)
    # reference: identity attention, so each node aggregates only itself
    h = ad.matmul(Tensor(feats), params["risk.in.w"]) + params["risk.in.b"]
    h = h + ad.reshape(z, (1, 1, cfg.d_model))
    for i in range(cfg.risk_gat_layers):
        hw = ad.matmul(h, params[f"risk.gat{i}.w"])
        h = ad.elu(hw)
    logits = ad.matmul(h, params["risk.node.w"]) + params["risk.node.b"]
    ref_contrib = ad.sigmoid(logits)
    assert np.allclose(contrib.data, ref_contrib.data, atol=1e-12)


def test_risk_score_monotone_in_contribution(setup):
    cfg, params = setup
    slope = float(np.exp(params["risk.cal.slope_raw"].data[0]))
    bias = float(params["risk.cal.bias"].data[0])
    contribs = np.array([0.2, 0.4, 0.6])
    base = 1.0 / (1.0 + np.exp(-(contribs.mean() * slope + bias)))
    bumped = contribs.copy()
    bumped[1] += 0.3
    higher = 1.0 / (1.0 + np.exp(-(bumped.mean() * slope + bias)))
    assert higher >= base


def test_risk_empty_graph_rejected(setup):
    cfg, params = setup
    z = Tensor(np.zeros((1, cfg.d_model)))
    with pytest.raises(ContractError):
        heads.macro_risk_batch(z, np.zeros((1, 0, cfg.graph_features)),
                               enc.graph_keep(np.zeros((1, 0, 0))), params, cfg)


def test_risk_gradients(setup):
    cfg, _ = setup
    params = init_model_params(cfg, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    z = Tensor(rng.normal(size=(2, cfg.d_model)))
    feats = rng.normal(size=(2, 3, cfg.graph_features))
    adj = (rng.uniform(size=(2, 3, 3)) > 0.4).astype(float)

    def f(_):
        score, _c = heads.macro_risk_batch(z, feats, enc.graph_keep(adj), params, cfg)
        return reduce_sum(score)

    for target in ("risk.in.w", "risk.gat0.w", "risk.node.w", "risk.cal.slope_raw"):
        assert grad_check(f, params[target], eps=1e-5) < 1e-4, target


# ---------------------------------------------------------------------------
# bulletins

def _forecasts(*rows) -> dict:
    """``micro_forecast``-shaped arrays with one asset per (point, up) row."""
    probs = [[0.1, 0.2, 0.7] if up else [0.7, 0.2, 0.1] for _, up in rows]
    return {"point": np.array([point for point, _ in rows], dtype=np.float64),
            "direction_probs": np.array(probs, dtype=np.float64).reshape(-1, 3)}


def test_bulletin_high_band():
    b = heads.generate_bulletin(0.9, True, np.array([0.5, 0.6]),
                                _forecasts((0.01, True)), ["bank_a", "bank_b"])
    assert "HIGH" in b.text.splitlines()[0]
    assert b.band == "HIGH"


def test_bulletin_band_terciles():
    assert heads.risk_band(0.1) == "LOW"
    assert heads.risk_band(0.5) == "ELEVATED"
    assert heads.risk_band(0.9) == "HIGH"


def test_bulletin_deterministic():
    contribs = np.array([0.1, 0.9, 0.5])
    fs = _forecasts((0.01, True), (-0.02, False))
    names = ["a", "b", "c"]
    t1 = heads.generate_bulletin(0.42, False, contribs, fs, names).text
    t2 = heads.generate_bulletin(0.42, False, contribs, fs, names).text
    assert t1 == t2


def test_bulletin_top3_descending():
    rng = np.random.default_rng(13)
    contribs = rng.uniform(size=6)
    names = [f"inst_{i}" for i in range(6)]
    b = heads.generate_bulletin(0.5, False, contribs, _forecasts(), names)
    expect = sorted(zip(names, contribs), key=lambda p: -p[1])[:3]
    assert [n for n, _ in b.top_nodes] == [n for n, _ in expect]
    vals = [v for _, v in b.top_nodes]
    assert vals == sorted(vals, reverse=True)


def test_bulletin_numbers_roundtrip():
    b = heads.generate_bulletin(0.654321, True, np.array([0.25, 0.75]),
                                _forecasts((0.0123, True)), ["x", "y"])
    assert f"{0.654321:.6f}" in b.text
    assert f"{0.75:.6f}" in b.text
    assert f"{0.0123:.6f}" in b.text


def test_bulletin_outlook_counts():
    fs = _forecasts((0.01, True), (0.02, True), (-0.01, False))
    b = heads.generate_bulletin(0.2, False, np.array([0.5]), fs, ["n"])
    assert b.n_up == 2
    assert b.n_down == 1
    assert "2 up / 1 down of 3 assets" in b.text


def test_bulletin_empty_nodes_rejected():
    with pytest.raises(ContractError):
        heads.generate_bulletin(0.2, False, np.array([]), _forecasts(), [])
