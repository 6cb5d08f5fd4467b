"""Losses, schedule, optimizer, checkpoints, and the staged training loop."""

import json
import math
import os

import numpy as np
import pytest
from scipy import optimize, stats

import finfusion.autodiff as ad
import finfusion.cli as cli
import finfusion.datapipe as dp
import finfusion.fusion as fus
import finfusion.model as fm
import finfusion.rl as frl
import finfusion.training as tr
from finfusion.autodiff import Tensor
from finfusion.config import RunConfig
from finfusion.errors import (ContractError, DimensionError, NumericalError, ScheduleError,
                              SchemaError)

from tests.test_encoders import tiny_cfg


# ---------------------------------------------------------------------------
# quantile / pinball loss

def test_quantile_loss_overshoot_and_undershoot():
    assert tr.quantile_loss(2.0, 0.0, 0.9) == pytest.approx(1.8)
    assert tr.quantile_loss(-2.0, 0.0, 0.9) == pytest.approx(0.2)


def test_quantile_loss_zero_iff_exact():
    assert tr.quantile_loss(1.5, 1.5, 0.3) == 0.0
    for e in (-2.0, -1e-9, 1e-9, 3.0):
        assert tr.quantile_loss(1.5 + e, 1.5, 0.3) > 0.0


def test_quantile_loss_convex_in_error():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tau = rng.uniform(0.05, 0.95)
        a, b = rng.normal(size=2) * 3
        mid = tr.quantile_loss((a + b) / 2, 0.0, tau)
        assert mid <= (tr.quantile_loss(a, 0.0, tau)
                       + tr.quantile_loss(b, 0.0, tau)) / 2 + 1e-12


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
def test_quantile_loss_rejects_bad_tau(tau):
    with pytest.raises(ContractError):
        tr.quantile_loss(1.0, 0.0, tau)


# ---------------------------------------------------------------------------
# forecast loss

def _mixture(weights, means, sigmas):
    return (Tensor(np.asarray(weights, dtype=np.float64), requires_grad=True),
            Tensor(np.asarray(means, dtype=np.float64), requires_grad=True),
            Tensor(np.asarray(sigmas, dtype=np.float64), requires_grad=True))


def _mix_quantile_oracle(w, m, s, tau):
    cdf = lambda x: float(np.sum(w * stats.norm.cdf((x - m) / s))) - tau
    lo = float(np.min(m - 15 * s))
    hi = float(np.max(m + 15 * s))
    return optimize.brentq(cdf, lo, hi, xtol=1e-13)


def test_forecast_loss_pure_mse_when_no_quantiles():
    w, m, s = _mixture([[0.25, 0.75], [0.5, 0.5]],
                       [[1.0, 3.0], [-1.0, 1.0]],
                       [[0.5, 0.5], [1.0, 2.0]])
    y = np.array([2.0, 1.0])
    cfg = tr.ForecastLossConfig(quantile_levels=(), mse_weight=1.0)
    got = tr.forecast_loss(y, w, m, s, cfg)
    point = np.array([0.25 * 1 + 0.75 * 3, 0.0])
    assert float(got.data) == pytest.approx(np.mean((point - y) ** 2), rel=1e-12)


def test_forecast_loss_matches_direct_formula_on_two_rows():
    wv = np.array([[0.3, 0.7], [0.6, 0.4]])
    mv = np.array([[0.0, 2.0], [-1.0, 1.5]])
    sv = np.array([[0.8, 1.2], [0.5, 0.9]])
    y = np.array([1.0, -0.5])
    levels = (0.1, 0.5, 0.9)
    cfg = tr.ForecastLossConfig(quantile_levels=levels)
    w, m, s = _mixture(wv, mv, sv)
    got = float(tr.forecast_loss(y, w, m, s, cfg).data)

    point = (wv * mv).sum(axis=1)
    expect = np.mean((point - y) ** 2)
    for tau in levels:
        pin = []
        for i in range(2):
            q = _mix_quantile_oracle(wv[i], mv[i], sv[i], tau)
            pin.append(tr.quantile_loss(y[i], q, tau))
        expect += np.mean(pin)
    assert got == pytest.approx(expect, abs=1e-6)


def test_forecast_loss_near_zero_for_sharp_correct_mixture():
    y = np.array([0.4, -1.2, 2.0])
    w, m, s = _mixture(np.ones((3, 1)), y.reshape(3, 1),
                       np.full((3, 1), 1e-9))
    got = float(tr.forecast_loss(y, w, m, s, tr.ForecastLossConfig()).data)
    assert 0.0 <= got < 1e-6


def test_forecast_loss_rejects_empty_batch():
    w, m, s = _mixture(np.ones((0, 2)), np.zeros((0, 2)), np.ones((0, 2)))
    with pytest.raises(ContractError):
        tr.forecast_loss(np.array([]), w, m, s, tr.ForecastLossConfig())


def test_forecast_loss_rejects_length_mismatch():
    w, m, s = _mixture(np.ones((2, 1)), np.zeros((2, 1)), np.ones((2, 1)))
    with pytest.raises(DimensionError):
        tr.forecast_loss(np.array([1.0]), w, m, s, tr.ForecastLossConfig())


def test_forecast_loss_backward_reaches_all_mixture_params():
    w, m, s = _mixture([[0.5, 0.5]], [[0.0, 1.0]], [[1.0, 1.0]])
    with ad.Tape() as tape:
        loss = tr.forecast_loss(np.array([0.7]), w, m, s, tr.ForecastLossConfig())
        ad.backward(loss, tape)
    for t in (w, m, s):
        assert np.all(np.isfinite(t.grad))
    assert np.any(m.grad != 0)


def test_forecast_config_rejects_boundary_levels():
    for bad in ((0.0,), (1.0,), (0.5, 1.2)):
        with pytest.raises(ContractError):
            tr.ForecastLossConfig(quantile_levels=bad)


# ---------------------------------------------------------------------------
# risk loss

def test_risk_loss_half_score_gives_log2():
    s = Tensor(np.array([0.5, 0.5]), requires_grad=True)
    got = tr.risk_loss(s, np.array([0, 1]), np.array([0.5, 0.5]))
    assert float(got.data) == pytest.approx(math.log(2.0), abs=1e-12)


def test_risk_loss_perfect_predictions_exactly_zero():
    s = Tensor(np.array([0.0, 1.0, 1.0, 0.0]))
    got = tr.risk_loss(s, np.array([0, 1, 1, 0]), np.array([0.0, 1.0, 1.0, 0.0]))
    assert float(got.data) == 0.0


def test_risk_loss_hand_value():
    # single row: -ln(0.8) + (0.8 - 0.5)^2
    got = tr.risk_loss(Tensor(np.array([0.8])), np.array([1]), np.array([0.5]))
    assert float(got.data) == pytest.approx(-math.log(0.8) + 0.09, rel=1e-12)


def test_risk_loss_gradient_matches_analytic():
    s = Tensor(np.array([0.8]), requires_grad=True)
    with ad.Tape() as tape:
        loss = tr.risk_loss(s, np.array([1]), np.array([0.5]))
        ad.backward(loss, tape)
    # d/ds [-ln s + (s - t)^2] = -1/s + 2 (s - t)
    assert s.grad[0] == pytest.approx(-1 / 0.8 + 2 * 0.3, rel=1e-9)


def test_risk_loss_rejects_nonbinary_flags():
    s = Tensor(np.array([0.5]))
    for bad in (2, -1, 0.5):
        with pytest.raises(ContractError):
            tr.risk_loss(s, np.array([bad]), np.array([0.5]))


def test_risk_loss_rejects_out_of_range_scores():
    with pytest.raises(ContractError):
        tr.risk_loss(Tensor(np.array([1.2])), np.array([1]), np.array([0.5]))


def test_risk_loss_rejects_mismatched_lengths():
    with pytest.raises(DimensionError):
        tr.risk_loss(Tensor(np.array([0.5, 0.5])), np.array([1]), np.array([0.5]))


def test_risk_loss_rejects_empty():
    with pytest.raises(ContractError):
        tr.risk_loss(Tensor(np.array([])), np.array([]), np.array([]))


# ---------------------------------------------------------------------------
# total loss

def test_total_loss_weighted_sum():
    w = tr.LossWeights(1.0, 2.0, 3.0, 4.0)
    got = tr.total_loss({"forecast": 1.0, "risk": 1.0, "align": 1.0, "rl": 1.0}, w)
    assert got == pytest.approx(10.0)


def test_total_loss_linear_in_each_weight():
    comps = {"forecast": 0.7, "risk": 1.3, "align": 0.2, "rl": 0.5}
    base = tr.total_loss(comps, tr.LossWeights(1, 1, 1, 1))
    only = {"forecast": "lambda1", "risk": "lambda2",
            "align": "lambda3", "rl": "lambda4"}
    for term, lam in only.items():
        kw = {"lambda1": 0.0, "lambda2": 0.0, "lambda3": 0.0, "lambda4": 0.0}
        kw[lam] = 2.0
        got = tr.total_loss(comps, tr.LossWeights(**kw))
        assert got == pytest.approx(2.0 * comps[term], rel=1e-12)
    assert base == pytest.approx(sum(comps.values()), rel=1e-12)


def test_total_loss_missing_terms_contribute_nothing():
    w = tr.LossWeights(1.0, 5.0, 5.0, 5.0)
    assert tr.total_loss({"forecast": 2.0}, w) == pytest.approx(2.0)


def test_total_loss_preserves_gradient_graph():
    f = Tensor(np.array(1.5), requires_grad=True)
    with ad.Tape() as tape:
        out = tr.total_loss({"forecast": f}, tr.LossWeights(lambda1=3.0))
        ad.backward(out, tape)
    assert f.grad == pytest.approx(3.0)


def test_total_loss_rejects_unknown_and_nonfinite():
    w = tr.LossWeights()
    with pytest.raises(ContractError):
        tr.total_loss({"bogus": 1.0}, w)
    with pytest.raises(ContractError):
        tr.total_loss({"forecast": float("nan")}, w)


def test_loss_weights_validation():
    with pytest.raises(ContractError):
        tr.LossWeights(lambda1=-0.1)
    with pytest.raises(ContractError):
        tr.LossWeights(0.0, 0.0, 0.0, 0.0)
    w = tr.LossWeights()
    assert (w.lambda1, w.lambda2, w.lambda3, w.lambda4) == (1.0, 1.0, 0.5, 0.1)


# ---------------------------------------------------------------------------
# learning-rate schedule

def test_lr_schedule_anchors():
    peak, warm, total = 0.02, 10, 110
    floor = peak / 100
    assert tr.lr_schedule(0, peak, warm, total) == 0.0
    assert tr.lr_schedule(warm, peak, warm, total) == pytest.approx(peak)
    mid = warm + (total - warm) // 2
    assert tr.lr_schedule(mid, peak, warm, total) == pytest.approx(
        (peak + floor) / 2, rel=1e-12)
    assert tr.lr_schedule(total, peak, warm, total) == pytest.approx(floor)
    assert tr.lr_schedule(total + 500, peak, warm, total) == pytest.approx(floor)


def test_lr_schedule_continuous_at_warmup_junction():
    peak, warm, total = 1.0, 50, 500
    left = tr.lr_schedule(warm - 1, peak, warm, total)
    right = tr.lr_schedule(warm, peak, warm, total)
    assert right == pytest.approx(peak)
    assert abs(right - left) <= peak / warm + 1e-12


def test_lr_schedule_nonnegative_and_decaying():
    peak, warm, total = 0.5, 7, 80
    vals = [tr.lr_schedule(s, peak, warm, total) for s in range(total + 10)]
    assert all(v >= 0 for v in vals)
    post = vals[warm:]
    assert all(a >= b - 1e-15 for a, b in zip(post, post[1:]))


def test_lr_schedule_zero_warmup_starts_at_peak():
    assert tr.lr_schedule(0, 0.1, 0, 50) == pytest.approx(0.1)


def test_lr_schedule_validation():
    with pytest.raises(ContractError):
        tr.lr_schedule(-1, 0.1, 5, 50)
    with pytest.raises(ContractError):
        tr.lr_schedule(0, 0.1, 50, 50)


# ---------------------------------------------------------------------------
# optimizer

def _leaf(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def _step(params, grads, state, lr, weight_decay=0.01):
    """One adamw_step of the leaves named in ``grads`` over a buffer packed
    from ``params``."""
    buf = tr.ParamBuffer(params)
    for name, g in grads.items():
        params[name].grad[...] = g
    tr.adamw_step(buf, list(grads), state, lr, weight_decay=weight_decay)


def test_adamw_pure_decay_with_zero_gradient():
    p = _leaf([1.0, -2.0, 0.5, 8.0])
    before = p.data.copy()
    state = tr.AdamWState()
    lr, wd = 0.5, 0.5  # lr * wd = 0.25, exactly representable
    _step({"p": p}, {"p": np.zeros(4)}, state, lr, weight_decay=wd)
    assert np.array_equal(p.data, before * (1 - lr * wd))


def test_adamw_first_step_is_signed():
    p = _leaf(np.zeros(3))
    g = np.array([0.7, -1.3, 2.0])
    state = tr.AdamWState()
    _step({"p": p}, {"p": g}, state, lr=0.01, weight_decay=0.0)
    assert np.allclose(p.data, -0.01 * np.sign(g), atol=1e-7)


def test_adamw_two_steps_match_hand_recursion():
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr, wd = 0.1, 0.04
    p = 2.0
    m = v = 0.0
    pt = _leaf([2.0])
    buf = tr.ParamBuffer({"p": pt})
    state = tr.AdamWState()
    for t, g in enumerate([0.5, -0.25], start=1):
        pt.grad[...] = g
        tr.adamw_step(buf, ["p"], state, lr, weight_decay=wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh, vh = m / (1 - b1 ** t), v / (1 - b2 ** t)
        p -= lr * (mh / (math.sqrt(vh) + eps) + wd * p)
        assert pt.data[0] == pytest.approx(p, rel=1e-12)


def test_adamw_late_joiner_gets_fresh_bias_correction():
    a, b = _leaf(np.zeros(2)), _leaf(np.zeros(2))
    buf = tr.ParamBuffer({"a": a, "b": b})
    state = tr.AdamWState()
    g = np.array([1.0, -1.0])
    a.grad[...] = g
    tr.adamw_step(buf, ["a"], state, lr=0.01, weight_decay=0.0)
    b.grad[...] = g
    tr.adamw_step(buf, ["a", "b"], state, lr=0.01, weight_decay=0.0)
    assert state.t == {"a": 2, "b": 1}
    # b's first update has full bias correction, i.e. roughly -lr * sign(g)
    assert np.allclose(b.data, -0.01 * np.sign(g), atol=1e-7)


def test_adamw_blocks_give_the_single_block_bits(monkeypatch):
    # a 7-element block splits every span, one of them several times over
    def three_steps():
        rng = np.random.default_rng(6)
        params = {n: _leaf(rng.normal(size=s))
                  for n, s in (("a.w", (5, 6)), ("b.w", (3,)), ("c.w", (4, 4)))}
        buf = tr.ParamBuffer(params)
        state = tr.AdamWState()
        for names in (["a.w", "b.w"], ["a.w", "b.w", "c.w"], ["c.w"]):
            buf.grad[:] = rng.normal(size=buf.grad.size)
            tr.adamw_step(buf, names, state, lr=0.01)
        return buf.data.tobytes(), state.m.tobytes(), state.v.tobytes()

    single = three_steps()
    monkeypatch.setattr(tr, "_ADAM_BLOCK", 7)
    assert three_steps() == single


def test_adamw_rejects_shape_mismatch():
    state = tr.AdamWState()
    _step({"p": _leaf(np.zeros((2, 3)))}, {"p": np.zeros((2, 3))}, state, 0.01)
    with pytest.raises(DimensionError):
        _step({"p": _leaf(np.zeros(5))}, {"p": np.zeros(5)}, state, 0.01)


def test_adamw_rejects_a_non_finite_gradient_before_moving_anything():
    rng = np.random.default_rng(5)
    params = {n: _leaf(rng.normal(size=(2, 3))) for n in ("a.w", "b.w", "c.w")}
    buf = tr.ParamBuffer(params)
    state = tr.AdamWState()
    buf.grad[:] = rng.normal(size=buf.grad.size)
    tr.adamw_step(buf, ["a.w", "b.w"], state, lr=0.01)
    before = (buf.data.copy(), state.m.copy(), state.v.copy(), dict(state.t))
    buf.grad[:] = rng.normal(size=buf.grad.size)
    params["c.w"].grad[1, 2] = np.inf  # in the last span, after one that passes
    with pytest.raises(NumericalError, match="non-finite values in gradients"):
        tr.adamw_step(buf, ["a.w", "b.w", "c.w"], state, lr=0.01)
    assert buf.data.tobytes() == before[0].tobytes()
    assert state.m.tobytes() == before[1].tobytes()
    assert state.v.tobytes() == before[2].tobytes()
    assert state.t == before[3] == {"a.w": 1, "b.w": 1}


def test_param_buffer_packs_leaves_as_views_in_sorted_order():
    rng = np.random.default_rng(3)
    params = {"b.w": _leaf(rng.normal(size=(2, 3))), "a.b": _leaf(rng.normal(size=(3,))),
              "b.s": _leaf(rng.normal(size=()))}
    before = {n: t.data.copy() for n, t in params.items()}
    buf = tr.ParamBuffer(params)
    assert buf.spans == {"a.b": (0, 3), "b.s": (3, 4), "b.w": (4, 10)}
    assert buf.data.tobytes() == b"".join(before[n].tobytes() for n in sorted(params))
    for n, t in params.items():
        assert t.data.shape == before[n].shape and t.grad.shape == before[n].shape
        assert np.shares_memory(t.data, buf.data) and np.shares_memory(t.grad, buf.grad)
    params["b.w"].data[1, 2] = 7.0
    assert buf.data[9] == 7.0


def _adamw_reference(params, grads, state, lr, weight_decay):
    """The per-leaf AdamW loop that the flat-buffer update replaced."""
    for name in sorted(grads):
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        t = state["t"].get(name, 0) + 1
        state["t"][name] = t
        m = state["m"].get(name, np.zeros_like(g))
        v = state["v"].get(name, np.zeros_like(g))
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        state["m"][name], state["v"][name] = m, v
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        p.data -= lr * (mhat / (np.sqrt(vhat) + 1e-8) + weight_decay * p.data)


# ---------------------------------------------------------------------------
# checkpoints

def _random_params(rng, spec):
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in spec.items()}


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    params = _random_params(rng, {"a.w": (3, 4), "a.b": (4,), "z.scalar": ()})
    meta = {"seed": 5, "note": "round trip"}
    path = str(tmp_path / "ck.bin")
    tr.save_checkpoint(path, params, meta=meta)
    loaded, got_meta = tr.load_checkpoint(path)
    assert got_meta == meta
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].data.tobytes() == params[name].data.tobytes()
        assert loaded[name].shape == params[name].shape
        assert loaded[name].requires_grad


def test_version_1_checkpoint_is_schema_error(tmp_path, world, capsys):
    # the version-1 layout, written by hand: a header without dtypes or a
    # hash, each array tagged with its kind
    rng = np.random.default_rng(3)
    params = _random_params(rng, {"a.w": (2, 3), "b": (3,), "s": ()})
    names = sorted(params)
    header = json.dumps({
        "arrays": [{"kind": "param", "name": n, "shape": list(params[n].shape)}
                   for n in names],
        "meta": {"seed": 1},
    }, sort_keys=True).encode("utf-8")
    path = tmp_path / "v1.bin"
    path.write_bytes(b"FFCP" + (1).to_bytes(4, "little")
                     + len(header).to_bytes(8, "little") + header
                     + b"".join(params[n].data.astype("<f8").tobytes() for n in names))
    with pytest.raises(SchemaError, match="unsupported container version 1"):
        tr.load_checkpoint(str(path))
    ds, _ = world
    data = str(tmp_path / "dataset.jsonl")
    dp.save_dataset(ds, data)
    date = str(ds.splits["test"][0])
    common = ["--checkpoint", str(path), "--data", data]
    for argv in (["forecast", *common, "--asset", "0", "--date", date],
                 ["report", *common, "--date", date],
                 ["eval", *common]):
        assert cli.main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: unsupported container version 1\n"


def test_loaded_leaves_own_the_container_arrays(tmp_path, monkeypatch):
    params = _random_params(np.random.default_rng(6), {"a.w": (3, 4), "b": (4,)})
    path = str(tmp_path / "ck.bin")
    tr.save_checkpoint(path, params)
    arrays = {}
    read = tr.container.read

    def kept(*args):
        out = read(*args)
        arrays.update(out[0])
        return out

    checks = []
    require_finite = ad.require_finite

    def counted(arr, context):
        checks.append(context)
        require_finite(arr, context)

    monkeypatch.setattr(tr.container, "read", kept)
    monkeypatch.setattr(ad, "require_finite", counted)
    loaded, _ = tr.load_checkpoint(path)
    # one finiteness check for the file, and no second copy of any array
    assert checks == [f"{path}: parameters"]
    for name, leaf in loaded.items():
        assert leaf.data is arrays[name] and leaf.data.flags.writeable
        assert leaf.requires_grad and leaf.grad.shape == leaf.shape and not leaf.grad.any()


def test_loaded_gradients_are_views_into_one_vector(tmp_path):
    params = _random_params(np.random.default_rng(9),
                            {"a.w": (3, 4), "b": (4,), "c": (), "d": (0, 2)})
    path = str(tmp_path / "ck.bin")
    tr.save_checkpoint(path, params)
    loaded, _ = tr.load_checkpoint(path)
    grads = [leaf.grad for leaf in loaded.values()]
    base = grads[0].base
    assert base is not None and base.size == 3 * 4 + 4 + 1
    assert all(g.base is base and g.flags.writeable and not g.any() for g in grads)
    # the views do not overlap: each leaf accumulates into its own span
    for i, leaf in enumerate(loaded.values()):
        leaf.grad[...] = i + 1
    assert sorted(base.tolist()) == [1.0] * 12 + [2.0] * 4 + [3.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_checkpoint_parameter_is_numerical_error(tmp_path, bad):
    params = _random_params(np.random.default_rng(7), {"a.w": (3, 4), "b": (4,)})
    params["b"].data[2] = bad
    path = str(tmp_path / "ck.bin")
    tr.save_checkpoint(path, params)
    with pytest.raises(NumericalError, match=f"non-finite values in {path}: parameters"):
        tr.load_checkpoint(path)


def test_checkpoint_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    params = _random_params(rng, {"w": (5, 2), "b": (2,)})
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    tr.save_checkpoint(p1, params, meta={"k": 1})
    tr.save_checkpoint(p2, params, meta={"k": 1})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 32)
    with pytest.raises(SchemaError):
        tr.load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    params = _random_params(np.random.default_rng(0), {"w": (2,)})
    path = str(tmp_path / "v.bin")
    tr.save_checkpoint(path, params)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = (99).to_bytes(4, "little")
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(SchemaError):
        tr.load_checkpoint(path)


# ---------------------------------------------------------------------------
# schedule and config validation

def test_stage_schedule_defaults_sum_to_headline_epochs():
    sched = tr.StageSchedule()
    assert sum(sched.epochs.values()) == 80
    assert sched.epochs["joint-multitask"] == 40


def test_stage_schedule_rejects_missing_stage():
    with pytest.raises(ContractError):
        tr.StageSchedule(epochs={"unimodal-pretrain": 5})


def test_training_config_validation():
    with pytest.raises(ContractError):
        tr.TrainingConfig(micro_batch_size=0)
    with pytest.raises(ContractError):
        tr.TrainingConfig(peak_lr=0.0)
    with pytest.raises(ContractError):
        tr.TrainingConfig(seeds=())
    for field, value in (("episodes_per_epoch", 0), ("rl_lr", 0.0),
                         ("rl_lr", -1.0), ("weight_decay", -0.5)):
        with pytest.raises(ContractError, match=field):
            tr.TrainingConfig(**{field: value})
    cfg = tr.TrainingConfig()
    assert cfg.seeds == (0, 1, 2, 3, 4)


@pytest.mark.parametrize("field,value", [
    ("micro_batch_size", 2.5), ("macro_batch_size", 16.0), ("warmup_steps", True),
    ("episodes_per_epoch", 1.5), ("seeds", (0.7,)), ("seeds", (True,)), ("seeds", (-1,)),
    ("seeds", 3), ("peak_lr", True), ("rl_lr", False), ("weight_decay", True),
    ("peak_lr", "0.1")])
def test_training_config_rejects_non_integer_counts_and_bools(field, value):
    with pytest.raises(ContractError, match=f"^{field} must be "):
        tr.TrainingConfig(**{field: value})


@pytest.mark.parametrize("value", [1.5, 2.0, True, -1, "3"])
def test_stage_schedule_rejects_non_integer_epochs(value):
    epochs = dict(tr.DEFAULT_STAGE_EPOCHS, **{"joint-multitask": value})
    with pytest.raises(ContractError, match="^joint-multitask must be an integer >= 0"):
        tr.StageSchedule(epochs=epochs)


def test_stage_schedule_takes_only_epochs():
    with pytest.raises(TypeError):
        tr.StageSchedule(active={s: ("forecast",) for s in tr.STAGES})


# ---------------------------------------------------------------------------
# staged training on a tiny dataset

def _schedule(e1=0, e2=0, e3=0, e4=0):
    return tr.StageSchedule(epochs={
        "unimodal-pretrain": e1, "multimodal-align": e2,
        "joint-multitask": e3, "rl-finetune": e4})


def _snapshot(params):
    return {n: t.data.copy() for n, t in params.items()}


def _changed(before, params):
    return {n for n in before if not np.array_equal(before[n], params[n].data)}


@pytest.fixture(scope="module")
def world():
    ds = dp.build_dataset(dp.SyntheticConfig(
        n_steps=160, n_assets=1, n_institutions=4, signal_strength=0.9, seed=33))
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(ds.vocab))
    return ds, mcfg


def _run(world, schedule, seed=0, align_cfg=None, **cfg_over):
    ds, mcfg = world
    base = dict(micro_batch_size=32, macro_batch_size=16, peak_lr=2e-3,
                warmup_steps=2, episodes_per_epoch=2)
    base.update(cfg_over)
    cfg = tr.TrainingConfig(**base)
    rlc = frl.RLConfig(episode_length=8, r_sys_source="model")
    return tr.TrainingRun(ds, mcfg, cfg, schedule=schedule, align_cfg=align_cfg,
                          rl_cfg=rlc, seed=seed)


# the leaves no loss reaches: at h = 1 the micro decoder attends over one
# key, so its query and key projections cannot matter, and only a k-step
# rollout reads the feedback embedding
DEAD_LEAVES = {"micro.feedback.w", "micro.feedback.b", "micro.layer0.wq",
               "micro.layer0.wk", "micro.layer0.bq", "micro.layer0.bk"}


def test_every_leaf_but_the_known_dead_gets_a_gradient(world, spy):
    def graded(buf, names, *_):
        return {n for n in names if np.any(buf.grad[slice(*buf.spans[n])])}

    steps = spy(tr, "adamw_step", snapshot=graded)
    updates = spy(frl, "reinforce_update")
    run = _run(world, _schedule(1, 1, 1, 1))
    run.run_all()
    assert steps and updates
    reached = set().union(*(call.snapshot for call in steps))
    reached |= {n for call in updates for n, g in call.result.items() if np.any(g)}
    assert set(run.params) - reached == DEAD_LEAVES


def test_the_subset_memo_names_the_uncached_leaves_at_every_step(world, monkeypatch, spy):
    subset, asked = tr.TrainingRun._subset, []

    def checked(self, kinds, extra):
        names = subset(self, kinds, extra)
        prefixes = tuple(f"{k}." for k in kinds) + tuple(extra)
        assert list(names) == sorted(fm.param_subset(self.params, prefixes))
        assert subset(self, kinds, extra) is names
        asked.append((kinds, extra))
        return names

    monkeypatch.setattr(tr.TrainingRun, "_subset", checked)
    steps = spy(tr, "adamw_step")
    _run(world, _schedule(2, 2, 2, 1)).run_all()
    assert len(asked) == len(steps) > len(set(asked))


def test_stage_order_enforced(world):
    run = _run(world, _schedule(1, 1, 1, 1))
    with pytest.raises(ScheduleError):
        run.run_stage("multimodal-align")
    with pytest.raises(ScheduleError):
        run.run_stage("nonsense")
    run.run_stage("unimodal-pretrain")
    with pytest.raises(ScheduleError):
        run.run_stage("rl-finetune")
    with pytest.raises(ScheduleError):
        run.run_stage("unimodal-pretrain")  # cannot repeat


def test_zero_epoch_stage_leaves_params_untouched(world):
    run = _run(world, _schedule(0, 0, 0, 0))
    before = _snapshot(run.params)
    reports = run.run_all()
    assert _changed(before, run.params) == set()
    assert [r.epochs for r in reports] == [0, 0, 0, 0]


def test_stage_reports_per_epoch_losses(world):
    run = _run(world, _schedule(2, 2, 0, 0))
    rep1 = run.run_stage("unimodal-pretrain")
    assert len(rep1.losses["total"]) == 2
    assert {"forecast", "risk"} <= set(rep1.losses)
    assert all(math.isfinite(v) for v in rep1.losses["total"])
    rep2 = run.run_stage("multimodal-align")
    assert len(rep2.losses["align"]) == 2
    assert rep2.n_steps > 0


def test_each_epoch_builds_its_step_list_once(world, monkeypatch):
    built, ran = [], []
    stage_steps, step = tr.TrainingRun._stage_steps, tr.TrainingRun._step

    def counted(self, stage, rng):
        steps = stage_steps(self, stage, rng)
        built.append((stage, steps))
        return steps

    def recorded(self, task, kinds, with_align, pairs, opt, lr):
        ran.append((task, kinds, with_align, pairs))
        return step(self, task, kinds, with_align, pairs, opt, lr)

    monkeypatch.setattr(tr.TrainingRun, "_stage_steps", counted)
    monkeypatch.setattr(tr.TrainingRun, "_step", recorded)
    run = _run(world, _schedule(2, 1, 2, 0))
    reports = [run.run_stage(s) for s in tr.STAGES[:3]]
    assert [stage for stage, _ in built] == [
        "unimodal-pretrain", "unimodal-pretrain", "multimodal-align",
        "joint-multitask", "joint-multitask"]
    # every list built is run, in order, and the stage counts exactly those steps
    assert ran == [s for _, steps in built for s in steps]
    for rep in reports:
        assert rep.n_steps == sum(len(steps) for stage, steps in built if stage == rep.stage)


def test_unimodal_stage_does_not_touch_heads_it_never_uses(world):
    run = _run(world, _schedule(1, 0, 0, 0))
    before = _snapshot(run.params)
    run.run_stage("unimodal-pretrain")
    changed = _changed(before, run.params)
    assert not any(n.startswith("policy.") for n in changed)
    assert any(n.startswith("micro.") for n in changed)
    assert any(n.startswith("risk.") for n in changed)


def test_align_stage_moves_encoders_only(world):
    run = _run(world, _schedule(0, 1, 0, 0))
    run.run_stage("unimodal-pretrain")
    before = _snapshot(run.params)
    run.run_stage("multimodal-align")
    changed = _changed(before, run.params)
    assert changed
    head_prefixes = ("micro.", "risk.", "policy.", "fusion.")
    assert not any(n.startswith(head_prefixes) for n in changed)


def test_rl_stage_updates_policy_only(world):
    run = _run(world, _schedule(0, 0, 0, 3))
    for s in ("unimodal-pretrain", "multimodal-align", "joint-multitask"):
        run.run_stage(s)
    before = _snapshot(run.params)
    rep = run.run_stage("rl-finetune")
    changed = _changed(before, run.params)
    assert changed <= {"policy.w", "policy.b"}
    assert changed
    assert len(rep.losses["return"]) == 3
    assert len(rep.losses["total"]) == 3


def test_joint_stage_keeps_policy_frozen_by_default(world):
    run = _run(world, _schedule(0, 0, 1, 0))
    run.run_stage("unimodal-pretrain")
    run.run_stage("multimodal-align")
    before = _snapshot(run.params)
    run.run_stage("joint-multitask")
    changed = _changed(before, run.params)
    assert not any(n.startswith("policy.") for n in changed)
    assert any(n.startswith("fusion.") for n in changed)


def _count_env_forward_calls(monkeypatch):
    """Rows of each forward_batch call made while a DatasetEnv is built;
    training steps make their own calls, which are not counted."""
    calls, building = [], []
    original_forward = fm.forward_batch
    original_init = frl.DatasetEnv.__init__

    def counted(batch, *args, **kwargs):
        if building:
            calls.append(batch["price"].shape[0])
        return original_forward(batch, *args, **kwargs)

    def init(self, *args, **kwargs):
        building.append(self)
        try:
            original_init(self, *args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(fm, "forward_batch", counted)
    monkeypatch.setattr(frl.DatasetEnv, "__init__", init)
    return calls


def test_rl_stage_builds_one_chunked_state_table(world, monkeypatch):
    run = _run(world, _schedule(0, 0, 0, 3))
    for s in ("unimodal-pretrain", "multimodal-align", "joint-multitask"):
        run.run_stage(s)
    calls = _count_env_forward_calls(monkeypatch)
    run.run_stage("rl-finetune")
    n_dates = len(world[0].splits["train"])
    assert len(calls) == math.ceil(n_dates / fm.EVAL_BATCH)
    assert sum(calls) == n_dates


def test_same_seed_runs_are_bit_identical(world):
    sched = _schedule(1, 1, 1, 1)
    a = _run(world, sched, seed=9)
    b = _run(world, sched, seed=9)
    a.run_all()
    b.run_all()
    assert set(a.params) == set(b.params)
    for n in a.params:
        assert np.array_equal(a.params[n].data, b.params[n].data), n


def test_different_seeds_diverge(world):
    sched = _schedule(1, 0, 0, 0)
    a = _run(world, sched, seed=1)
    b = _run(world, sched, seed=2)
    assert any(not np.array_equal(a.params[n].data, b.params[n].data)
               for n in a.params)


def test_joint_stage_loss_decreases_on_tiny_overfit(world):
    run = _run(world, _schedule(0, 0, 8, 0), peak_lr=5e-3, warmup_steps=4)
    run.run_stage("unimodal-pretrain")
    run.run_stage("multimodal-align")
    rep = run.run_stage("joint-multitask")
    totals = rep.losses["total"]
    assert totals[-1] < totals[0]
    assert min(totals) > 0


def test_training_run_save_and_load_round_trip(world, tmp_path):
    run = _run(world, _schedule(1, 0, 0, 0))
    run.run_stage("unimodal-pretrain")
    path = str(tmp_path / "run.bin")
    run.save(path)
    params, mcfg, meta = tr.load_params(path)
    assert meta["completed"] == ["unimodal-pretrain"]
    assert mcfg.d_model == run.model_cfg.d_model
    for n in run.params:
        assert np.array_equal(params[n].data, run.params[n].data)


def test_warmup_longer_than_stage_rejected(world):
    run = _run(world, _schedule(1, 0, 0, 0), warmup_steps=10_000)
    with pytest.raises(ContractError):
        run.run_stage("unimodal-pretrain")


def test_price_only_ablation_never_touches_other_encoders(world):
    ds, mcfg = world
    cfg = tr.TrainingConfig(micro_batch_size=32, macro_batch_size=16,
                            peak_lr=2e-3, warmup_steps=1)
    run = tr.TrainingRun(ds, mcfg, cfg, schedule=_schedule(1, 0, 1, 0),
                         modalities=("price",), seed=3)
    before = _snapshot(run.params)
    for s in ("unimodal-pretrain", "multimodal-align", "joint-multitask"):
        run.run_stage(s)
    changed = _changed(before, run.params)
    assert not any(n.startswith(("text.", "macro.", "graph.")) for n in changed)
    assert any(n.startswith("price.") for n in changed)
    assert any(n.startswith("risk.") for n in changed)


def test_ablation_align_stage_with_epochs_raises(world):
    ds, mcfg = world
    cfg = tr.TrainingConfig(warmup_steps=0)
    run = tr.TrainingRun(ds, mcfg, cfg, schedule=_schedule(0, 1, 0, 0),
                         modalities=("price",), seed=3)
    run.run_stage("unimodal-pretrain")
    with pytest.raises(ScheduleError):
        run.run_stage("multimodal-align")


def test_unknown_modality_rejected(world):
    ds, mcfg = world
    with pytest.raises(ContractError):
        tr.TrainingRun(ds, mcfg, tr.TrainingConfig(), modalities=("prices",))


def test_a_run_without_an_align_config_uses_the_config_default(world):
    ds, mcfg = world
    run = tr.TrainingRun(ds, mcfg, tr.TrainingConfig())
    assert run.align_cfg == fus.AlignConfig() == RunConfig().align


def test_resume_at_stage_boundary_is_bit_exact(world, tmp_path):
    sched = _schedule(1, 1, 1, 1)
    full = _run(world, sched, seed=17)
    full.run_all()

    first = _run(world, sched, seed=17)
    first.run_stage("unimodal-pretrain")
    first.run_stage("multimodal-align")
    path = str(tmp_path / "mid.bin")
    first.save(path)

    second = _run(world, sched, seed=17)
    second.resume_from(path)
    assert second.completed == ["unimodal-pretrain", "multimodal-align"]
    second.run_stage("joint-multitask")
    second.run_stage("rl-finetune")
    for n in full.params:
        assert np.array_equal(full.params[n].data, second.params[n].data), n


def test_resume_rejects_mismatched_run(world, tmp_path):
    run = _run(world, _schedule(1, 0, 0, 0), seed=5)
    path = str(tmp_path / "ck.bin")
    run.save(path)
    # each rejection is a SchemaError that names the file
    other_seed = _run(world, _schedule(1, 0, 0, 0), seed=6)
    with pytest.raises(SchemaError, match="checkpoint seed 5 != run seed 6") as seed_err:
        other_seed.resume_from(path)
    other_sched = _run(world, _schedule(2, 0, 0, 0), seed=5)
    with pytest.raises(SchemaError, match="stage schedule") as sched_err:
        other_sched.resume_from(path)
    for err in (seed_err, sched_err):
        assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("stage, prefix", [
    ("unimodal-pretrain", "price."),
    ("joint-multitask", "risk."),
    ("rl-finetune", "policy."),
], ids=["unimodal-pretrain", "joint-multitask", "rl-finetune"])
def test_divergence_reports_stage_and_step(world, stage, prefix):
    from finfusion.errors import NumericalError
    epochs = [1 if s == stage else 0 for s in tr.STAGES]
    run = _run(world, _schedule(*epochs))
    for earlier in tr.STAGES[:tr.STAGES.index(stage)]:
        run.run_stage(earlier)
    # poison one leaf the stage trains, so its numbers go non-finite
    name = next(n for n in run.params if n.startswith(prefix))
    run.params[name].data[...] = np.nan
    with pytest.raises(NumericalError,
                       match=rf"diverged at stage {stage}, step \d+"):
        run.run_stage(stage)


def test_adamw_matches_the_per_leaf_reference_bit_for_bit(world, monkeypatch):
    sched = _schedule(2, 0, 2, 0)
    stages = ("unimodal-pretrain", "multimodal-align", "joint-multitask")
    flat = _run(world, sched, seed=4)
    for s in stages:
        flat.run_stage(s)

    ref = _run(world, sched, seed=4)
    states, late = {}, []

    def reference_step(buf, names, state, lr, weight_decay=0.01):
        # keyed by the stage's fresh AdamWState, which the entry keeps alive
        _, st = states.setdefault(id(state), (state, {"m": {}, "v": {}, "t": {}}))
        counts = {st["t"].get(n, 0) for n in names}
        late.append(len(counts) > 1)
        grads = {n: ref.params[n].grad.copy() for n in names}
        _adamw_reference(ref.params, grads, st, lr, weight_decay)

    monkeypatch.setattr(tr, "adamw_step", reference_step)
    for s in stages:
        ref.run_stage(s)
    # some steps moved leaves whose step counts differed
    assert any(late) and not all(late)
    for n in flat.params:
        assert flat.params[n].data.tobytes() == ref.params[n].data.tobytes(), n


def test_joint_step_tape_op_budget(world, monkeypatch):
    """The tape ops one joint-stage step records, so that a layer built from
    unfused ops fails here instead of slowing every step. The two counts are
    a forecast step with the alignment term over all three price-anchored
    pairs and a risk step; before ``ad.linear`` and ``ad.attention`` they
    were 289 and 196, and before ``ad.feed_forward`` 203 and 130."""
    counts = []
    backward = ad.backward

    def counting(loss, tape):
        counts.append(len(tape))
        backward(loss, tape)

    monkeypatch.setattr(ad, "backward", counting)
    pairs = (("price", "text"), ("price", "macro"), ("price", "graph"))
    run = _run(world, _schedule(0, 0, 1, 0), align_cfg=fus.AlignConfig(pairs=pairs))
    run.run_stage("unimodal-pretrain")
    run.run_stage("multimodal-align")
    run.run_stage("joint-multitask")
    assert sorted(set(counts)) == [124, 195]
