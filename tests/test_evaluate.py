"""Prediction assembly, metric tables, seed protocol, and bulletins."""

import json

import numpy as np
import pytest

import finfusion.datapipe as dp
import finfusion.evaluate as ev
import finfusion.fusion as fus
import finfusion.heads as heads
import finfusion.model as fm
import finfusion.training as tr
from finfusion.errors import ContractError

from tests.test_encoders import tiny_cfg

EXPECTED_KEYS = {
    "micro.directional_accuracy", "micro.mape", "micro.hit_ratio",
    "distress.accuracy", "distress.f1", "distress.roc_auc", "distress.pr_auc",
    "warning.accuracy", "warning.f1", "warning.roc_auc",
}


@pytest.fixture(scope="module")
def world():
    ds = dp.build_dataset(dp.SyntheticConfig(
        n_steps=170, n_assets=2, n_institutions=4, seed=44))
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(ds.vocab))
    params = fm.init_model_params(mcfg, np.random.default_rng(8))
    return ds, mcfg, params


def test_predict_micro_covers_every_pair(world):
    ds, mcfg, params = world
    got = ev.predict_micro(ds, params, mcfg, "val")
    n = len(ds.sample_pairs("val"))
    assert got["pred"].shape == (n,)
    assert got["true"].shape == (n,)
    assert np.all(np.isfinite(got["pred"]))


def test_predict_micro_batching_is_transparent(world):
    # chunked forward equals a per-pair forward
    ds, mcfg, params = world
    pairs = ds.sample_pairs("val")[:3]
    full = ev.predict_micro(ds, params, mcfg, "val")
    for i, pair in enumerate(pairs):
        out = fm.forward_batch(ds.batch_arrays([pair]), params, mcfg,
                               heads=("micro",))
        point = (out["mdn_weights"].data * out["mdn_means"].data).sum(axis=-1)[0]
        raw = point * ds.norm["y_std"] + ds.norm["y_mean"]
        assert full["pred"][i] == pytest.approx(raw, rel=1e-9)


def test_predict_risk_aligns_labels(world):
    ds, mcfg, params = world
    got = ev.predict_risk(ds, params, mcfg, "test")
    dates = ds.splits["test"]
    assert got["score"].shape == (len(dates),)
    assert got["contributions"].shape == (len(dates), ds.n_institutions)
    assert np.all((got["score"] >= 0) & (got["score"] <= 1))
    assert np.array_equal(got["warning"], (got["score"] >= 0.5).astype(int))
    for i, t in enumerate(dates[:5]):
        assert got["crisis"][i] == ds.regime[t + 1]
        assert got["stress"][i] == pytest.approx(ds.node_stress[t + 1].mean())


def test_evaluate_split_key_set_and_ranges(world):
    ds, mcfg, params = world
    out = ev.evaluate_split(ds, params, mcfg, "test")
    assert set(out) == EXPECTED_KEYS
    for key, val in out.items():
        if val is None:
            continue
        if key.endswith("mape"):
            assert val >= 0
        else:
            assert 0.0 <= val <= 1.0


def test_evaluate_split_hit_ratio_keeps_steps_the_model_calls(world, monkeypatch):
    # actionable means |pred| >= band: step 1's realised move is large, but
    # the model called it flat, so only step 0 counts
    ds, mcfg, params = world
    band = dp.FLAT_BAND
    micro = {"pred": np.array([10 * band, 0.1 * band]),
             "true": np.array([10 * band, -10 * band])}
    monkeypatch.setattr(ev, "predict_micro", lambda *a, **k: micro)
    out = ev.evaluate_split(ds, params, mcfg, "test")
    assert out["micro.hit_ratio"] == 1.0
    assert out["micro.directional_accuracy"] == 0.5


@pytest.fixture(scope="module")
def world3():
    ds = dp.build_dataset(dp.SyntheticConfig(
        n_steps=150, n_assets=3, n_institutions=4, seed=45))
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(ds.vocab))
    params = fm.init_model_params(mcfg, np.random.default_rng(9))
    return ds, mcfg, params


@pytest.mark.parametrize("split", ["train", "val", "test"])
@pytest.mark.parametrize("kinds", [fus.MODALITIES, ("price",)])
@pytest.mark.parametrize("which", ["world", "world3"])
def test_evaluate_split_one_pass_gives_the_standalone_arrays(which, kinds, split,
                                                             request, spy):
    # the one pass over every (asset, date) row serves both tables, and
    # asset 0's rows carry the same risk bits as predict_risk's own pass
    ds, mcfg, params = request.getfixturevalue(which)
    passes = spy(fm, "forward_chunks")
    micro_calls, risk_calls = spy(ev, "predict_micro"), spy(ev, "predict_risk")
    ev.evaluate_split(ds, params, mcfg, split, kinds=kinds)
    assert len(passes) == 1
    assert len(micro_calls) == len(risk_calls) == 1
    for got, alone in ((micro_calls[0].result,
                        ev.predict_micro(ds, params, mcfg, split, kinds)),
                       (risk_calls[0].result,
                        ev.predict_risk(ds, params, mcfg, split, kinds))):
        assert got.keys() == alone.keys()
        for key in got:
            assert got[key].dtype == alone[key].dtype, key
            assert got[key].shape == alone[key].shape, key
            assert got[key].tobytes() == alone[key].tobytes(), key


@pytest.fixture(scope="module")
def world4():
    ds = dp.build_dataset(dp.SyntheticConfig(
        n_steps=150, n_assets=4, n_institutions=4, seed=46))
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(ds.vocab))
    params = fm.init_model_params(mcfg, np.random.default_rng(10))
    return ds, mcfg, params


def _every_row_risk(ds, params, mcfg, pairs):
    """The risk head on every row of ``pairs``, in the read-only pass's
    chunks: the reference whose asset-0 rows a pass that scores one row per
    date must reproduce."""
    parts = {"risk_score": [], "contributions": []}
    for i in range(0, len(pairs), fm.EVAL_BATCH):
        out = fm.forward_batch(ds.batch_arrays(pairs[i:i + fm.EVAL_BATCH]),
                               params, mcfg, heads=("risk",))
        for name, arrs in parts.items():
            arrs.append(out[name].data)
    return {name: np.concatenate(arrs) for name, arrs in parts.items()}


@pytest.mark.parametrize("split", ["train", "val", "test"])
def test_the_risk_head_scores_one_row_per_date(split, world4, spy):
    ds, mcfg, params = world4
    dates = ds.splits[split]
    scored = spy(heads, "macro_risk_batch")
    risk_calls = spy(ev, "predict_risk")
    ev.evaluate_split(ds, params, mcfg, split)
    assert sum(call.args[0].shape[0] for call in scored) == len(dates)
    got = risk_calls[0].result
    want = _every_row_risk(ds, params, mcfg, ds.sample_pairs(split))
    for key, name in (("score", "risk_score"), ("contributions", "contributions")):
        asset0 = want[name][::ds.n_assets]
        assert got[key].shape == asset0.shape and got[key].tobytes() == asset0.tobytes()

    date = dates[len(dates) // 2]
    scored.clear()
    bulletin = ev.bulletin_for_date(ds, params, mcfg, date)
    assert [call.args[0].shape[0] for call in scored] == [1]
    want = _every_row_risk(ds, params, mcfg, [(a, date) for a in range(ds.n_assets)])
    assert bulletin.score == float(want["risk_score"][0])


def test_evaluate_split_rejects_an_empty_split(world, monkeypatch):
    ds, mcfg, params = world
    monkeypatch.setitem(ds.splits, "val", [])
    with pytest.raises(ContractError, match="'val'"):
        ev.evaluate_split(ds, params, mcfg, "val")


def test_evaluate_split_price_only_runs(world):
    ds, mcfg, params = world
    out = ev.evaluate_split(ds, params, mcfg, "test", kinds=("price",))
    assert set(out) == EXPECTED_KEYS


def test_evaluate_split_differs_across_kinds(world):
    ds, mcfg, params = world
    full = ev.evaluate_split(ds, params, mcfg, "test")
    ablated = ev.evaluate_split(ds, params, mcfg, "test", kinds=("price",))
    assert any(full[k] != ablated[k] for k in EXPECTED_KEYS
               if full[k] is not None and ablated[k] is not None)


def test_empty_kind_set_rejected(world):
    from finfusion.errors import DegenerateInputError
    ds, mcfg, params = world
    with pytest.raises(DegenerateInputError):
        ev.predict_micro(ds, params, mcfg, "val", kinds=())


def test_seed_protocol_aggregates_two_seeds():
    scfg = dp.SyntheticConfig(n_steps=150, n_assets=1, n_institutions=4)
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(dp.build_vocab(scfg.n_assets)))
    tcfg = tr.TrainingConfig(micro_batch_size=32, macro_batch_size=16,
                             warmup_steps=1, seeds=(0, 1))
    sched = tr.StageSchedule(epochs={
        "unimodal-pretrain": 1, "multimodal-align": 0,
        "joint-multitask": 1, "rl-finetune": 0})
    report, runs = ev.seed_protocol(scfg, mcfg, tcfg, schedule=sched)
    assert report.n_seeds == 2
    assert len(runs) == 2
    assert len(report.per_seed["micro.directional_accuracy"]) == 2
    assert EXPECTED_KEYS <= set(report.metrics)


def test_vocab_is_seed_invariant():
    # seed_protocol sizes one model for datasets built from many seeds
    a = dp.build_dataset(dp.SyntheticConfig(n_steps=150, n_assets=1,
                                            n_institutions=4, seed=0))
    b = dp.build_dataset(dp.SyntheticConfig(n_steps=150, n_assets=1,
                                            n_institutions=4, seed=9))
    assert a.vocab == b.vocab
    assert len(a.vocab) == len(dp.build_vocab(1))


def test_seed_protocol_deterministic():
    scfg = dp.SyntheticConfig(n_steps=150, n_assets=1, n_institutions=4)
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(dp.build_vocab(scfg.n_assets)))
    tcfg = tr.TrainingConfig(warmup_steps=1, seeds=(3,))
    sched = tr.StageSchedule(epochs={
        "unimodal-pretrain": 1, "multimodal-align": 0,
        "joint-multitask": 0, "rl-finetune": 0})
    r1, _ = ev.seed_protocol(scfg, mcfg, tcfg, schedule=sched)
    r2, _ = ev.seed_protocol(scfg, mcfg, tcfg, schedule=sched)
    assert r1.to_json() == r2.to_json()


def test_bulletin_deterministic_and_consistent_with_risk_scores(world):
    ds, mcfg, params = world
    date = ds.splits["test"][0]
    b1 = ev.bulletin_for_date(ds, params, mcfg, date)
    b2 = ev.bulletin_for_date(ds, params, mcfg, date)
    assert b1.text == b2.text

    risk = ev.predict_risk(ds, params, mcfg, "test")
    assert b1.score == pytest.approx(risk["score"][0], abs=1e-9)
    assert f"{b1.score:.6f}" in b1.text


def test_bulletin_rejects_out_of_range_date(world):
    ds, mcfg, params = world
    with pytest.raises(ContractError):
        ev.bulletin_for_date(ds, params, mcfg, ds.n_steps + 5)
    with pytest.raises(ContractError):
        ev.bulletin_for_date(ds, params, mcfg, 0)  # warmup, not usable


def test_node_names_are_stable():
    assert ev.node_names(3) == ["inst_00", "inst_01", "inst_02"]
