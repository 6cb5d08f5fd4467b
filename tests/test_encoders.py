"""Per-modality encoder behavior: attention structure, gating, gradients."""

import numpy as np
import pytest

from finfusion import autodiff as ad
from finfusion import encoders as enc
from finfusion.autodiff import Tensor, grad_check, reduce_sum
from finfusion.datapipe import MACRO_SLOTS
from finfusion.errors import (
    DegenerateInputError,
    DimensionError,
    ImputationRequiredError,
    VocabularyError,
)
from finfusion.model import ModelConfig, init_model_params


def tiny_cfg(**over):
    base = dict(
        d_model=8, n_heads=2, n_layers=1, d_ff=16, vocab_size=16,
        price_features=3, macro_group_dim=4, macro_hidden=8,
        graph_features=3, graph_layers=1, mdn_components=2,
        micro_layers=1, risk_gat_layers=1,
    )
    base.update(over)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_cfg()
    params = init_model_params(cfg, np.random.default_rng(123))
    return cfg, params


# ---------------------------------------------------------------------------
# degenerate inputs

def test_price_window_rejects_empty(setup):
    cfg, params = setup
    with pytest.raises(DegenerateInputError):
        enc.encode_price_batch(np.zeros((1, 0, 3)), params, cfg)


def test_token_sequence_rejects_empty(setup):
    cfg, params = setup
    with pytest.raises(DegenerateInputError):
        enc.encode_text_batch(np.array([[1, 2], [0, 0]]), np.array([2, 0]),
                              params, cfg)


def test_graph_rejects_mismatched_adjacency(setup):
    cfg, params = setup
    with pytest.raises(DimensionError):
        enc.encode_graph_batch(np.zeros((1, 3, 3)), enc.graph_keep(np.zeros((1, 2, 2))),
                               params, cfg)


# ---------------------------------------------------------------------------
# price encoder

def test_price_singleton_attention_weight_is_one(setup, spy):
    cfg, params = setup
    feats = np.random.default_rng(0).normal(size=(1, 1, 3))
    calls = spy(ad, "attention")
    enc.encode_price_batch(feats, params, cfg)
    assert len(calls) == cfg.n_layers
    for call in calls:
        # a lone key gets weight exactly 1, so the output is its value
        v = call.args[2]
        assert call.result.data.tobytes() == v.data.tobytes()


def test_price_deterministic(setup):
    cfg, params = setup
    feats = np.random.default_rng(1).normal(size=(2, 5, 3))
    a = enc.encode_price_batch(feats, params, cfg).data
    b = enc.encode_price_batch(feats, params, cfg).data
    assert np.array_equal(a, b)


def test_price_position_encoding_breaks_permutation_symmetry(setup):
    cfg, params = setup
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(1, 6, 3))
    base = enc.encode_price_batch(feats, params, cfg).data
    perm = feats[:, ::-1, :].copy()
    flipped = enc.encode_price_batch(perm, params, cfg).data
    assert not np.allclose(base, flipped)


@pytest.mark.parametrize("t,d", [(1, 4), (6, 8), (30, 16), (5, 7)])
def test_sinusoidal_positions_is_the_formula_and_read_only(t, d):
    pe = enc.sinusoidal_positions(t, d)
    pos, col = np.arange(t)[:, None], np.arange(d)[None, :]
    angle = pos / 10000.0 ** (2 * (col // 2) / d)
    want = np.where(col % 2 == 0, np.sin(angle), np.cos(angle))
    assert pe.shape == (t, d)
    assert np.allclose(pe, want, rtol=0.0, atol=1e-12)
    # one table per (t, d), shared by every caller, so none may write it
    assert enc.sinusoidal_positions(t, d) is pe
    with pytest.raises(ValueError):
        pe[0, 0] = 1.0


def test_price_width_and_errors(setup):
    cfg, params = setup
    out = enc.encode_price_batch(np.zeros((2, 4, 3)), params, cfg)
    assert out.shape == (2, cfg.d_model)
    with pytest.raises(DimensionError):
        enc.encode_price_batch(np.zeros((2, 4, 5)), params, cfg)
    with pytest.raises(DegenerateInputError):
        enc.encode_price_batch(np.zeros((2, 0, 3)), params, cfg)


# ---------------------------------------------------------------------------
# text encoder

def test_text_singleton_pooling_equals_hidden(setup, spy):
    cfg, params = setup
    calls = spy(enc, "masked_mean_pool")
    out = enc.encode_text_batch(np.array([[3]]), np.array([1]), params, cfg)
    [pool] = calls
    assert pool.result is out
    hidden = pool.args[0]
    assert np.allclose(out.data[0], hidden.data[0, 0], atol=1e-12)


def test_text_deterministic(setup):
    cfg, params = setup
    ids = np.array([[1, 2, 3], [4, 5, 0]])
    lens = np.array([3, 2])
    a = enc.encode_text_batch(ids, lens, params, cfg).data
    b = enc.encode_text_batch(ids, lens, params, cfg).data
    assert np.array_equal(a, b)


def test_text_unknown_token_rejected(setup):
    cfg, params = setup
    with pytest.raises(VocabularyError):
        enc.encode_text_batch(np.array([[cfg.vocab_size]]), np.array([1]), params, cfg)


def test_text_padding_is_inert(setup):
    cfg, params = setup
    short = enc.encode_text_batch(np.array([[1, 2]]), np.array([2]), params, cfg).data
    padded = enc.encode_text_batch(np.array([[1, 2, 7, 9]]), np.array([2]), params, cfg).data
    assert np.allclose(short, padded, atol=1e-12)


def test_text_gradient_matches_fd(setup):
    cfg, params = setup
    ids = np.array([[1, 2, 3]])
    lens = np.array([3])
    target = params["text.embed"]

    def f(t):
        return reduce_sum(enc.encode_text_batch(ids, lens, params, cfg))

    assert grad_check(f, target, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# macro encoder

def _gate_weights(spy, vals, params, cfg):
    """The (B, G) group weights of the macro encoder's softmax gate."""
    calls = spy(ad, "softmax")
    enc.encode_macro_batch(vals, params, cfg)
    [gate] = calls
    assert gate.result.shape == (len(vals), len(enc.MACRO_GROUPS))
    return gate.result.data


def test_macro_equal_gate_logits_give_uniform_weights(setup, spy):
    cfg, _ = setup
    params = init_model_params(cfg, np.random.default_rng(5))
    params["macro.gate.w"].data[...] = 0.0
    params["macro.gate.b"].data[...] = 0.0
    vals = np.random.default_rng(6).normal(size=(3, len(MACRO_SLOTS)))
    assert np.allclose(_gate_weights(spy, vals, params, cfg), 0.25)


def test_macro_zero_input_zero_preactivation(setup, spy):
    cfg, params = setup
    calls = spy(ad, "tanh")
    enc.encode_macro_batch(np.zeros((2, len(MACRO_SLOTS))), params, cfg)
    [act] = calls
    pre = act.args[0]
    assert pre.shape == (2, cfg.macro_hidden)
    assert np.allclose(pre.data, 0.0)


def test_macro_weights_sum_to_one_over_draws(setup, spy):
    cfg, params = setup
    rng = np.random.default_rng(7)
    vals = rng.normal(size=(100, len(MACRO_SLOTS))) * 3
    weights = _gate_weights(spy, vals, params, cfg)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)


def test_macro_nan_requires_imputation(setup):
    cfg, params = setup
    vals = np.zeros((1, len(MACRO_SLOTS)))
    vals[0, 3] = np.nan
    with pytest.raises(ImputationRequiredError):
        enc.encode_macro_batch(vals, params, cfg)


# ---------------------------------------------------------------------------
# graph encoder

def _graph_coefficients(spy, feats, adj, params, cfg):
    """The (B, N, N) attention coefficients of each graph-encoder layer."""
    calls = spy(ad, "softmax")
    enc.encode_graph_batch(feats, enc.graph_keep(adj), params, cfg)
    assert len(calls) == cfg.graph_layers
    return [call.result.data for call in calls]


def test_graph_isolated_node_self_coefficient(setup, spy):
    cfg, params = setup
    feats = np.random.default_rng(8).normal(size=(1, 3, 3))
    adj = np.zeros((1, 3, 3))
    [coeffs] = _graph_coefficients(spy, feats, adj, params, cfg)
    assert np.allclose(coeffs[0], np.eye(3))


def test_graph_coefficients_sum_to_one(setup, spy):
    cfg, params = setup
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(2, 4, 3))
    adj = (rng.uniform(size=(2, 4, 4)) > 0.5).astype(float)
    [coeffs] = _graph_coefficients(spy, feats, adj, params, cfg)
    assert coeffs.shape == (2, 4, 4)
    assert np.allclose(coeffs.sum(axis=-1), 1.0, atol=1e-6)


def test_graph_symmetric_pair_identical_embeddings(setup, spy):
    cfg, params = setup
    f = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    layers = spy(enc, "gat_layer")
    enc.encode_graph_batch(f[None], enc.graph_keep(adj[None]), params, cfg)
    nodes = layers[-1].result
    assert nodes.shape == (1, 2, cfg.d_model)
    assert np.allclose(nodes.data[0, 0], nodes.data[0, 1], atol=1e-12)


def test_graph_encoder_takes_a_mask_not_an_adjacency(setup):
    cfg, params = setup
    adj = np.ones((1, 3, 3))
    with pytest.raises(DimensionError):
        enc.encode_graph_batch(np.zeros((1, 3, 3)), adj, params, cfg)
    with pytest.raises(DimensionError):
        enc.graph_keep(np.ones((3, 3)))


def test_graph_feature_width_mismatch(setup):
    cfg, params = setup
    with pytest.raises(DimensionError):
        enc.encode_graph_batch(np.zeros((1, 2, 5)), enc.graph_keep(np.zeros((1, 2, 2))),
                               params, cfg)


# ---------------------------------------------------------------------------
# cross-encoder properties

def test_all_encoders_same_width(setup):
    cfg, params = setup
    rng = np.random.default_rng(10)
    p = enc.encode_price_batch(rng.normal(size=(1, 4, 3)), params, cfg)
    t = enc.encode_text_batch(np.array([[1, 2]]), np.array([2]), params, cfg)
    m = enc.encode_macro_batch(rng.normal(size=(1, len(MACRO_SLOTS))), params, cfg)
    g = enc.encode_graph_batch(rng.normal(size=(1, 3, 3)),
                               enc.graph_keep(np.ones((1, 3, 3))), params, cfg)
    stacked = ad.concat([p, t, m, g], axis=0)
    assert stacked.shape == (4, cfg.d_model)


@pytest.mark.parametrize("target", [
    "price.in.w", "price.layer0.wq", "text.layer0.ff.w1",
    "macro.gate.w", "macro.group0.w", "graph.layer0.w", "graph.layer0.a_src",
])
def test_encoder_end_to_end_gradients(setup, target):
    cfg, _ = setup
    params = init_model_params(cfg, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    price = rng.normal(size=(2, 3, 3))
    ids = np.array([[1, 2], [3, 4]])
    lens = np.array([2, 2])
    macro = rng.normal(size=(2, len(MACRO_SLOTS)))
    gf = rng.normal(size=(2, 3, 3))
    adj = (rng.uniform(size=(2, 3, 3)) > 0.4).astype(float)
    weights = rng.normal(size=(2, cfg.d_model))

    def f(_):
        if target.startswith("price"):
            out = enc.encode_price_batch(price, params, cfg)
        elif target.startswith("text"):
            out = enc.encode_text_batch(ids, lens, params, cfg)
        elif target.startswith("macro"):
            out = enc.encode_macro_batch(macro, params, cfg)
        else:
            out = enc.encode_graph_batch(gf, enc.graph_keep(adj), params, cfg)
        return reduce_sum(out * Tensor(weights))

    err = grad_check(f, params[target], eps=1e-5)
    assert err < 1e-3, f"{target}: {err}"
