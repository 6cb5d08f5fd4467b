"""Synthetic generation, alignment, imputation, indicators, normalization,
and tail-risk oracle tests."""

import copy
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest

from finfusion import container
from finfusion import datapipe as dp
from finfusion.errors import (
    ContractError,
    DegenerateInputError,
    InsufficientTailDataError,
    SchemaError,
)


@pytest.fixture(scope="module")
def small_ds():
    return dp.build_dataset(dp.SyntheticConfig(n_steps=400, seed=7))


# ---------------------------------------------------------------------------
# generation

def test_same_seed_byte_identical(tmp_path):
    cfg = dp.SyntheticConfig(n_steps=200, seed=11)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    dp.save_dataset(dp.build_dataset(cfg), str(p1))
    dp.save_dataset(dp.build_dataset(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_differs(tmp_path):
    a = dp.build_dataset(dp.SyntheticConfig(n_steps=200, seed=1))
    b = dp.build_dataset(dp.SyntheticConfig(n_steps=200, seed=2))
    assert not np.array_equal(a.ohlcv, b.ohlcv)


def _event_mi(tokens, returns):
    """Empirical mutual information (nats) between the event-token class
    and the realized next-step direction."""
    bull = np.isin(tokens[:, :-1, 1], dp.BULL_IDS).ravel()
    up = (returns[:, 1:] > 0).ravel()
    n = bull.size
    mi = 0.0
    for b in (False, True):
        for u in (False, True):
            p_joint = np.mean((bull == b) & (up == u))
            p_b = np.mean(bull == b)
            p_u = np.mean(up == u)
            if p_joint > 0:
                mi += p_joint * math.log(p_joint / (p_b * p_u))
    return mi


def test_zero_strength_tokens_carry_no_information():
    cfg = dp.SyntheticConfig(n_assets=1, n_steps=100_000, signal_strength=0.0,
                             n_institutions=2, seed=3)
    _, raw = dp.generate_synthetic(cfg)
    mi = _event_mi(raw["tokens"], raw["returns"])
    assert mi < 1e-3


def test_full_strength_tokens_carry_information():
    cfg = dp.SyntheticConfig(n_assets=1, n_steps=20_000, signal_strength=0.8,
                             n_institutions=2, seed=3)
    _, raw = dp.generate_synthetic(cfg)
    mi = _event_mi(raw["tokens"], raw["returns"])
    assert mi > 0.05


def test_crisis_rate_matches_configured():
    cfg = dp.SyntheticConfig(n_assets=1, n_steps=100_000, n_institutions=2,
                             crisis_rate=0.15, seed=3)
    _, raw = dp.generate_synthetic(cfg)
    freq = raw["regime"].mean()
    assert abs(freq - 0.15) < 0.02


def test_ohlcv_consistent_by_construction():
    _, raw = dp.generate_synthetic(dp.SyntheticConfig(n_steps=300, seed=5))
    o, h, l, c, v = (raw["ohlcv"][..., i] for i in range(5))
    assert np.all(h >= np.maximum(o, c) - 1e-12)
    assert np.all(l <= np.minimum(o, c) + 1e-12)
    assert np.all(v >= 0)


def test_config_validation():
    with pytest.raises(ContractError):
        dp.SyntheticConfig(crisis_rate=1.5)
    with pytest.raises(ContractError, match="window"):
        dp.SyntheticConfig(n_steps=50, window=51)
    with pytest.raises(ContractError):
        dp.SyntheticConfig(n_assets=0)
    with pytest.raises(ContractError):
        dp.SyntheticConfig(signal_strength=-0.1)


# ---------------------------------------------------------------------------
# align_temporal

def test_quarterly_forward_fill():
    s = dp.RawSeries("gdp", "quarterly", [62, 125], [1.5, 2.5])
    vals, present, _ = dp.align_temporal({"gdp": s}, 130)
    assert np.all(~present[:62])
    assert np.all(vals[62:125, 0] == 1.5)
    assert np.all(vals[125:130, 0] == 2.5)


def test_daily_series_identity():
    s = dp.RawSeries("x", "daily", np.arange(10), np.arange(10.0))
    vals, present, _ = dp.align_temporal({"x": s}, 10)
    assert np.array_equal(vals[:, 0], np.arange(10.0))
    assert present.all()


def test_alignment_never_uses_future():
    # exhaustive scan: perturbing any observation after day t leaves day t alone
    stamps = np.array([0, 21, 42, 63])
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    base, _, _ = dp.align_temporal(
        {"m": dp.RawSeries("m", "monthly", stamps, vals)}, 80)
    for k in range(len(stamps)):
        mutated = vals.copy()
        mutated[k] += 100.0
        out, _, _ = dp.align_temporal(
            {"m": dp.RawSeries("m", "monthly", stamps, mutated)}, 80)
        t_cut = stamps[k]
        assert np.array_equal(out[:t_cut, 0], base[:t_cut, 0])


def test_align_empty_set_rejected():
    with pytest.raises(ContractError):
        dp.align_temporal({}, 10)


def test_raw_series_validation():
    with pytest.raises(ContractError):
        dp.RawSeries("x", "weekly", [0], [1.0])
    with pytest.raises(ContractError):
        dp.RawSeries("x", "daily", [3, 2], [1.0, 2.0])
    with pytest.raises(ContractError):
        dp.RawSeries("x", "monthly", [0, 25], [1.0, 2.0])  # off-grid spacing


# ---------------------------------------------------------------------------
# kalman_impute

def test_kalman_constant_series():
    out = dp.kalman_impute(np.array([5.0, 5.0, np.nan, 5.0]))
    assert out[2] == pytest.approx(5.0, abs=1e-9)


def test_kalman_linear_ramp_within_5pct():
    y = np.arange(20.0)
    y[12] = np.nan
    out = dp.kalman_impute(y)
    assert abs(out[12] - 12.0) <= 0.05 * 12.0


def test_kalman_observed_points_untouched():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    gaps = [7, 19, 33]
    y[gaps] = np.nan
    out = dp.kalman_impute(y)
    obs = ~np.isnan(y)
    assert np.array_equal(out[obs], y[obs])
    assert not np.isnan(out).any()


def test_kalman_needs_two_points():
    with pytest.raises(ContractError):
        dp.kalman_impute(np.array([1.0, np.nan, np.nan]))


def test_kalman_leading_gap_rejected():
    with pytest.raises(DegenerateInputError):
        dp.kalman_impute(np.array([np.nan, 1.0, 2.0]))


def test_kalman_series_wrapper_fills_missing_stamps():
    s = dp.RawSeries("m", "monthly", [20, 41, 83], [1.0, 2.0, 4.0])
    filled = dp.kalman_impute(s, window=24)
    assert np.array_equal(filled.timestamps, [20, 41, 62, 83])
    # observed pass through exactly
    assert filled.values[0] == 1.0 and filled.values[1] == 2.0 and filled.values[3] == 4.0
    # the gap at 62 is filled from the trailing trend (slope 1 per month)
    assert filled.values[2] == pytest.approx(3.0, abs=0.5)


def test_kalman_causality_scan():
    rng = np.random.default_rng(1)
    y = np.cumsum(rng.normal(size=30))
    y[[5, 14, 22]] = np.nan
    base = dp.kalman_impute(y, window=10)
    for k in range(10, 30):
        if np.isnan(y[k]):
            continue
        mutated = y.copy()
        mutated[k] += 50.0
        out = dp.kalman_impute(mutated, window=10)
        assert np.array_equal(out[:k], base[:k]), f"future point {k} leaked backward"


# ---------------------------------------------------------------------------
# indicators

def _ohlcv_from_close(close, volume=None):
    close = np.asarray(close, dtype=np.float64)
    v = np.full(close.size, 1000.0) if volume is None else np.asarray(volume)
    return np.stack([close, close, close, close, v], axis=1)


def test_rsi_all_gains_is_100():
    close = 100 + np.arange(40.0)
    ind, _ = dp.compute_indicators(_ohlcv_from_close(close))
    rsi = ind[:, 2]
    defined = ~np.isnan(rsi)
    assert np.all(rsi[defined] == 100.0)


def test_rsi_alternating_equal_moves_is_50():
    # +1/-1 alternation: the seed average gain equals the seed average loss
    close = 100 + 0.5 * (np.arange(40) % 2)
    ind, _ = dp.compute_indicators(_ohlcv_from_close(close))
    first_defined = int(np.flatnonzero(~np.isnan(ind[:, 2]))[0])
    assert first_defined == 14
    assert ind[14, 2] == pytest.approx(50.0, abs=1e-9)


def test_constant_price_macd_and_vol_zero():
    ind, _ = dp.compute_indicators(_ohlcv_from_close(np.full(60, 42.0)))
    defined = ~np.isnan(ind[:, 3])
    assert np.all(ind[defined, 3] == 0.0)
    defined_sig = ~np.isnan(ind[:, 4])
    assert np.all(ind[defined_sig, 4] == 0.0)
    defined_vol = ~np.isnan(ind[:, 5])
    assert np.all(ind[defined_vol, 5] == 0.0)


def test_indicator_warmup_flags():
    close = 100 + np.random.default_rng(2).normal(size=100).cumsum()
    ohlcv = _ohlcv_from_close(np.maximum(close, 1.0))
    ind, valid = dp.compute_indicators(ohlcv)
    assert not valid[: dp.INDICATOR_WARMUP].any()
    assert valid[dp.INDICATOR_WARMUP:].all()


def test_short_series_all_warmup_no_failure():
    ind, valid = dp.compute_indicators(_ohlcv_from_close(np.full(5, 10.0)))
    assert not valid.any()


def test_volume_rescale_invariance():
    rng = np.random.default_rng(3)
    close = np.maximum(100 + rng.normal(size=80).cumsum(), 1.0)
    vol = rng.uniform(1e5, 2e5, size=80)
    a, _ = dp.compute_indicators(_ohlcv_from_close(close, vol))
    b, _ = dp.compute_indicators(_ohlcv_from_close(close, vol * 10.0))
    mask = ~np.isnan(a)
    assert np.allclose(a[mask], b[mask], rtol=1e-12)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_hand_case():
    z, stats = dp.normalize(np.array([[1.0], [2.0], [3.0]]), slice(None))
    assert np.allclose(z[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-6)
    assert stats.mean[0] == 2.0
    assert stats.std[0] == pytest.approx(math.sqrt(2.0 / 3.0))


def test_normalize_idempotent_on_fit_range():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(200, 3))
    z1, _ = dp.normalize(x, slice(None))
    z2, _ = dp.normalize(z1, slice(None))
    assert np.allclose(z1, z2, atol=1e-12)


def test_normalize_test_range_reuses_train_stats():
    x = np.concatenate([np.zeros(50), np.full(50, 10.0)])[:, None]
    z, stats = dp.normalize(x, slice(0, 50))
    assert stats.mean[0] == 0.0
    assert stats.constant[0]
    # test range is scored with train statistics, not its own
    assert np.all(z[50:, 0] == 10.0)


def test_normalize_constant_column_flagged():
    x = np.column_stack([np.ones(10), np.arange(10.0)])
    z, stats = dp.normalize(x, slice(None))
    assert stats.constant.tolist() == [True, False]
    assert np.all(z[:, 0] == 0.0)


# ---------------------------------------------------------------------------
# tail-risk oracles

def test_covar_institution_equals_system():
    rng = np.random.default_rng(5)
    x = rng.normal(size=500)
    q = 0.1
    got = dp.empirical_covar(x, x, q)
    var = dp._quantile(x, q)
    tail = x[x <= var]
    assert got == dp._quantile(tail, q)


def test_covar_independent_series():
    rng = np.random.default_rng(6)
    sys_r = rng.normal(size=40_000)
    inst_r = rng.normal(size=40_000)
    q = 0.05
    got = dp.empirical_covar(sys_r, inst_r, q)
    unconditional = dp._quantile(sys_r, q)
    assert abs(got - unconditional) < 0.12


def test_covar_five_point_hand_case():
    sys_r = np.array([-3.0, -1.0, 0.0, 2.0, 4.0])
    inst_r = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    # q=0.2: institution VaR is -2 (1st of 5); tail = {-3}; quantile = -3
    assert dp.empirical_covar(sys_r, inst_r, 0.2) == -3.0
    # q=0.4: institution VaR is -1; tail = {-3, -1}; 0.4-quantile = -3
    assert dp.empirical_covar(sys_r, inst_r, 0.4) == -3.0


def test_covar_validation():
    with pytest.raises(ContractError):
        dp.empirical_covar(np.zeros(3), np.zeros(3), 0.1)  # too few samples
    with pytest.raises(ContractError):
        dp.empirical_covar(np.zeros(10), np.zeros(10), 0.0)


def test_ses_singleton():
    assert dp.systemic_expected_shortfall(
        np.array([0.01, -0.03, 0.02]), np.array([False, True, False])) == -0.03


def test_ses_all_flagged_is_plain_mean():
    x = np.array([0.01, -0.02, 0.005])
    assert dp.systemic_expected_shortfall(x, np.ones(3, dtype=bool)) == pytest.approx(x.mean())


def test_ses_six_step_hand_case():
    x = np.array([0.02, -0.05, -0.01, 0.03, -0.04, 0.01])
    m = np.array([False, True, True, False, True, False])
    assert dp.systemic_expected_shortfall(x, m) == pytest.approx((-0.05 - 0.01 - 0.04) / 3)


def test_ses_empty_mask_rejected():
    with pytest.raises(ContractError):
        dp.systemic_expected_shortfall(np.zeros(3), np.zeros(3, dtype=bool))


# ---------------------------------------------------------------------------
# dataset assembly

def test_dataset_usable_and_splits(small_ds):
    ds = small_ds
    dates = np.flatnonzero(ds.usable)
    assert dates[0] >= ds.config.window - 1
    tr, va, te = ds.splits["train"], ds.splits["val"], ds.splits["test"]
    assert tr[-1] < va[0] < te[0]
    assert len(tr) + len(va) + len(te) == dates.size
    assert abs(len(tr) / dates.size - 0.7) < 0.02


def test_batch_arrays_shapes_and_finiteness(small_ds):
    ds = small_ds
    pairs = ds.sample_pairs("train")[:16]
    b = ds.batch_arrays(pairs)
    w = ds.config.window
    assert b["price"].shape == (16, w, 12)
    assert b["tokens"].shape[0] == 16
    assert b["macro"].shape == (16, len(dp.MACRO_SLOTS))
    assert b["graph_feats"].shape == (16, ds.n_institutions, len(dp.GRAPH_FEATURE_NAMES))
    assert b["graph_adj"].shape == (16, ds.n_institutions, ds.n_institutions)
    for key in ("price", "macro", "graph_feats", "y", "stress_next"):
        assert np.all(np.isfinite(b[key])), key
    assert set(np.unique(b["direction"])) <= {0, 1, 2}
    assert set(np.unique(b["crisis_next"])) <= {0, 1}


def test_labels_are_next_step(small_ds):
    ds = small_ds
    t = ds.splits["train"][5]
    b = ds.batch_arrays([(0, t)])
    assert ds.y_next(0, t) == b["y_raw"][0] == ds.returns[0, t + 1]
    assert b["crisis_next"][0] == ds.regime[t + 1]
    assert b["stress_next"][0] == ds.node_stress[t + 1].mean()
    assert np.array_equal(b["node_distress"][0],
                          ds.node_stress[t + 1] > dp.NODE_DISTRESS_THRESHOLD)


def _batch_reference(ds, pairs):
    """batch_arrays as a per-row loop over the unnormalised features."""
    w = ds.config.window
    pstats, mstats, gstats = ds.norm["price"], ds.norm["macro"], ds.norm["graph"]
    price = np.empty((len(pairs), w, 12))
    feats = ds.graph_feature_matrix()
    tok = []
    tlen = np.empty(len(pairs), dtype=np.int64)
    macro = np.empty((len(pairs), ds.macro.shape[1]))
    gf = np.empty((len(pairs), ds.n_institutions, len(dp.GRAPH_FEATURE_NAMES)))
    y = np.empty(len(pairs))
    y_raw = np.empty(len(pairs))
    direction = np.empty(len(pairs), dtype=np.int64)
    crisis = np.empty(len(pairs), dtype=np.int64)
    stress = np.empty(len(pairs))
    node_distress = np.empty((len(pairs), ds.n_institutions), dtype=np.int64)
    every = ds.price_feature_matrix()
    for i, (a, t) in enumerate(pairs):
        price[i] = pstats.apply(every[a, t - w + 1:t + 1])
        tok.append(ds.tokens[a, t])
        tlen[i] = ds.tok_len[a, t]
        macro[i] = mstats.apply(ds.macro[t])
        gf[i] = gstats.apply(feats[t])
        raw = ds.y_next(a, t)
        y_raw[i] = raw
        y[i] = (raw - ds.norm["y_mean"]) / ds.norm["y_std"]
        direction[i] = 0 if raw < -dp.FLAT_BAND else (2 if raw > dp.FLAT_BAND else 1)
        crisis[i] = int(ds.regime[t + 1])
        stress[i] = ds.node_stress[t + 1].mean()
        node_distress[i] = ds.node_stress[t + 1] > dp.NODE_DISTRESS_THRESHOLD
    adj = np.broadcast_to(ds.adjacency, (len(pairs),) + ds.adjacency.shape).copy()
    return {
        "price": price,
        "tokens": np.asarray(tok, dtype=np.int64),
        "tok_len": tlen,
        "macro": macro,
        "graph_feats": gf,
        "graph_adj": adj,
        "y": y,
        "y_raw": y_raw,
        "direction": direction,
        "crisis_next": crisis,
        "stress_next": stress,
        "node_distress": node_distress,
        "pairs": list(pairs),
    }


@pytest.mark.parametrize("which", ["train", "val", "test", "single-pair",
                                   "all-assets-one-date", "one-asset"])
def test_batch_arrays_matches_the_per_row_reference(small_ds, which):
    ds = small_ds
    t = ds.splits["test"][3]
    pairs = {
        "single-pair": [(1, t)],
        # the batch bulletin_for_date builds
        "all-assets-one-date": [(a, t) for a in range(ds.n_assets)],
        "one-asset": [(2, u) for u in ds.splits["val"]],
    }.get(which) or ds.sample_pairs(which)
    got, want = ds.batch_arrays(pairs), _batch_reference(ds, pairs)
    assert set(got) == set(want)
    assert got.pop("pairs") == want.pop("pairs")
    for key, w in want.items():
        assert got[key].dtype == w.dtype, key
        assert got[key].shape == w.shape, key
        assert got[key].tobytes() == w.tobytes(), key


@pytest.mark.parametrize("date", ["first", "warmup", "last", "negative"])
def test_batch_arrays_rejects_dates_that_are_not_usable(small_ds, date):
    ds = small_ds
    t = {"first": 0, "warmup": ds.splits["train"][0] - 1,
         "last": ds.n_steps - 1, "negative": -1}[date]
    with pytest.raises(ContractError):
        ds.batch_arrays([(0, ds.splits["train"][0]), (0, t)])


def test_batch_arrays_rejects_an_empty_batch(small_ds):
    with pytest.raises(DegenerateInputError, match="batch_arrays got an empty batch"):
        small_ds.batch_arrays([])


def test_no_test_range_leakage_into_train_batches(small_ds):
    ds = small_ds
    cfg = ds.config
    series, raw = dp.generate_synthetic(cfg)
    test_start = ds.splits["test"][0]
    mutated = copy.deepcopy(raw)
    mutated["ohlcv"][:, test_start + 1:, :] *= 1.37
    mutated["returns"][:, test_start + 1:] += 0.5
    mutated["stress"][test_start + 1:, :] = 0.99
    ds2 = dp.build_dataset_from_raw(cfg, series, mutated)
    pairs = [(a, t) for t in ds.splits["train"][:10] + ds.splits["val"][:10]
             for a in range(ds.n_assets)]
    b1 = ds.batch_arrays(pairs)
    b2 = ds2.batch_arrays(pairs)
    for key in ("price", "tokens", "macro", "graph_feats", "y", "y_raw",
                "direction", "crisis_next", "stress_next"):
        assert np.array_equal(b1[key], b2[key]), f"{key} leaked future data"


def test_save_load_roundtrip(tmp_path, small_ds):
    ds = small_ds
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(ds, str(path))
    sidecar = (tmp_path / "ds.bin").read_bytes()
    back = dp.load_dataset(str(path))
    (tmp_path / "ds.bin").unlink()
    parsed = dp.load_dataset(str(path))
    # every array comes back with its dtype and bits, NaN pattern included,
    # from the sidecar and from the parsed records alike
    for f in dataclasses.fields(dp.AlignedDataset):
        want = getattr(ds, f.name)
        if isinstance(want, np.ndarray):
            for got in (getattr(back, f.name), getattr(parsed, f.name)):
                assert got.dtype == want.dtype, f.name
                assert got.shape == want.shape, f.name
                assert got.tobytes() == want.tobytes(), f.name
    assert back.config == ds.config
    assert back.vocab == ds.vocab
    assert back.splits == ds.splits
    for key in ("price", "macro", "graph"):
        for attr in ("mean", "std", "constant"):
            want = getattr(ds.norm[key], attr)
            assert np.array_equal(getattr(back.norm[key], attr), want)
    assert back.norm["y_mean"] == ds.norm["y_mean"]
    assert back.norm["y_std"] == ds.norm["y_std"]
    # the loader derives the normalised tables again, bit for bit
    for key in ("price_z", "macro_z", "graph_z", "y_z"):
        want, got = getattr(ds, key), getattr(back, key)
        assert got.dtype == want.dtype, key
        assert np.array_equal(got, want, equal_nan=True), key
    header = json.loads(path.read_text().splitlines()[0])
    assert "norm" not in header
    assert header["usable"] == np.flatnonzero(ds.usable).tolist()
    assert header["splits"] == ds.splits
    # batches built from the reloaded dataset match exactly
    pairs = ds.sample_pairs("val")[:8]
    b1, b2 = ds.batch_arrays(pairs), back.batch_arrays(pairs)
    assert np.array_equal(b1["price"], b2["price"])
    assert np.array_equal(b1["direction"], b2["direction"])
    # and saving either again writes the same bytes
    for i, loaded in enumerate((back, parsed)):
        again = tmp_path / f"again{i}.jsonl"
        dp.save_dataset(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()
        assert (tmp_path / f"again{i}.bin").read_bytes() == sidecar


def test_a_fresh_sidecar_spares_the_parse(tmp_path, small_ds, monkeypatch):
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(small_ds, str(path))

    def forbidden(*args, **kwargs):
        raise AssertionError("the JSONL records were parsed")

    monkeypatch.setattr(dp, "_parse_records", forbidden)
    back = dp.load_dataset(str(path))
    assert back.returns.tobytes() == small_ds.returns.tobytes()
    (tmp_path / "ds.bin").unlink()
    with pytest.raises(AssertionError, match="parsed"):
        dp.load_dataset(str(path))


def test_save_refuses_a_path_its_sidecar_would_overwrite(tmp_path, small_ds):
    with pytest.raises(ContractError, match="overwrite"):
        dp.save_dataset(small_ds, str(tmp_path / "ds.bin"))
    assert not (tmp_path / "ds.bin").exists()


@pytest.mark.parametrize("stale", ["edited-jsonl", "truncated", "other-dataset"])
def test_a_stale_sidecar_is_not_used(tmp_path, small_ds, stale):
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(small_ds, str(path))
    want = small_ds.returns.copy()
    if stale == "edited-jsonl":
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[101])
        rec["returns"][0] = want[0, 100] = 0.0123
        lines[101] = json.dumps(rec, sort_keys=True) + "\n"
        path.write_text("".join(lines))
    elif stale == "truncated":
        raw = (tmp_path / "ds.bin").read_bytes()
        (tmp_path / "ds.bin").write_bytes(raw[:-8])
    else:
        other = dp.build_dataset(dp.SyntheticConfig(n_steps=400, seed=8))
        dp.save_dataset(other, str(tmp_path / "other.jsonl"))
        (tmp_path / "other.bin").replace(tmp_path / "ds.bin")
    assert dp.load_dataset(str(path)).returns.tobytes() == want.tobytes()


def test_the_sidecar_check_streams_the_jsonl(tmp_path, small_ds, monkeypatch):
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(small_ds, str(path))
    peaks = []
    read_sidecar = dp._read_sidecar

    def traced(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return read_sidecar(*args)

    monkeypatch.setattr(dp, "_read_sidecar", traced)
    tracemalloc.start()
    try:
        back = dp.load_dataset(str(path))
    finally:
        tracemalloc.stop()
    # the hash that accepts the sidecar never held the JSONL whole
    assert len(peaks) == 1 and peaks[0] < path.stat().st_size // 2
    assert back.returns.tobytes() == small_ds.returns.tobytes()


@pytest.mark.parametrize("sidecar", ["stale", "missing"])
def test_a_record_defect_without_a_usable_sidecar_names_its_line(tmp_path, small_ds,
                                                                  sidecar):
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(small_ds, str(path))
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[101])
    rec["regime"] = 7
    lines[101] = json.dumps(rec, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    if sidecar == "missing":
        (tmp_path / "ds.bin").unlink()
    with pytest.raises(SchemaError, match="line 102: regime 7 is not 0 or 1"):
        dp.load_dataset(str(path))


def _edit_sidecar(arrays, defect):
    """Break asset 0 of date 100 in the sidecar's arrays."""
    if defect == "regime-7":
        arrays["regime"][100] = 7
    elif defect == "macro_present-byte-2":
        arrays["macro_present"].view(np.uint8)[100, 0] = 2
    elif defect == "nan-close":
        arrays["ohlcv"][0, 100, 3] = np.nan
    elif defect == "inf-indicator":
        arrays["indicators"][0, 100, 2] = np.inf
    elif defect == "nan-market_return":
        arrays["market_return"][100] = np.nan
    elif defect == "token-999":
        arrays["tokens"][0, 100, 0] = 999
    elif defect == "empty-token-list":
        arrays["tok_len"][0, 100] = 0
    elif defect == "nonzero-padding":
        arrays["tok_len"][0, 100] = 3
    elif defect == "high-below-open-close":
        o, _, _, c, _ = arrays["ohlcv"][0, 100]
        arrays["ohlcv"][0, 100, 1] = 0.99 * max(o, c)


# defect: what the error must name
_SIDECAR_DEFECTS = {
    "regime-7": "line 102: regime 7 is not 0 or 1",
    "macro_present-byte-2": "line 102: macro_present",
    "nan-close": "line 102: ohlcv holds a non-finite value",
    "inf-indicator": "line 102: indicators holds a non-finite value",
    "nan-market_return": "line 102: market_return holds a non-finite value",
    "token-999": "line 102: tokens[0]",
    "empty-token-list": "line 102: tokens[0]",
    "nonzero-padding": "line 102: tokens[0]",
    "high-below-open-close": "line 102: date 100, asset 0: high",
}


@pytest.mark.parametrize("defect", list(_SIDECAR_DEFECTS))
def test_sidecar_arrays_pass_the_same_value_checks(tmp_path, small_ds, defect):
    # an intact sidecar whose values break a rule: its hashes match, so only
    # the value check stands between it and the model
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(small_ds, str(path))
    arrays, meta = container.read(str(tmp_path / "ds.bin"), dp.SIDECAR_MAGIC)
    _edit_sidecar(arrays, defect)
    container.write(str(tmp_path / "ds.bin"), dp.SIDECAR_MAGIC, arrays.items(), meta)
    with pytest.raises(SchemaError) as e:
        dp.load_dataset(str(path))
    assert _SIDECAR_DEFECTS[defect] in str(e.value)


def test_container_arrays_are_aligned_writable_and_apart_from_the_file(tmp_path):
    # a bool array puts the float array after it off its 8-byte alignment
    arrays = [("f", np.arange(3.0)), ("b", np.array([True, False, True])),
              ("g", np.arange(4.0).reshape(2, 2)), ("i", np.arange(2, dtype=np.int64))]
    path = str(tmp_path / "c.bin")
    container.write(path, b"TEST", arrays, {"k": 1})
    back, meta = container.read(path, b"TEST")
    assert meta == {"k": 1} and list(back) == ["f", "b", "g", "i"]
    for name, want in arrays:
        got = back[name]
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.aligned and got.flags.writeable
    back["f"][0] = 7.0
    assert container.read(path, b"TEST")[0]["f"][0] == 0.0


@pytest.mark.parametrize("n_bools", [3, 8])
def test_container_arrays_are_views_of_one_buffer(tmp_path, n_bools):
    # three bools put "g" off its 8-byte alignment; eight keep it aligned
    arrays = [("f", np.arange(3.0)), ("i", np.arange(2, dtype=np.int64)),
              ("b", np.arange(n_bools) % 2 == 0), ("g", np.arange(4.0).reshape(2, 2)),
              ("e", np.zeros((0, 2)))]
    path = str(tmp_path / "c.bin")
    container.write(path, b"TEST", arrays, {})
    back, _ = container.read(path, b"TEST")
    base = back["f"].base
    assert isinstance(base, np.ndarray) and base.nbytes >= 5 * 8 + n_bools + 4 * 8
    views = {name for name, arr in back.items() if arr.base is base}
    # numpy counts an empty array as aligned wherever it starts
    copied = {"g"} if n_bools == 3 else set()
    assert views == set(back) - copied
    assert all(back[name].base is None for name in copied)
    for name, want in arrays:
        assert back[name].tobytes() == want.tobytes() and back[name].flags.aligned


def _container_file(path, hlen: int, header: bytes) -> str:
    """A 128-byte container file: preamble, then ``header`` padded with
    spaces, which JSON allows."""
    raw = b"TEST" + struct.pack("<IQ", container.VERSION, hlen) + header.ljust(112)
    assert len(raw) == 128
    path.write_bytes(raw)
    return str(path)


@pytest.mark.parametrize("declared", ["hlen", "shape", "shapes"])
def test_container_checks_declared_sizes_before_allocating(tmp_path, declared):
    # a 128-byte file whose header declares far more than it holds
    if declared == "hlen":
        path = _container_file(tmp_path / "c.bin", 1 << 62, b"")
        want = "128 bytes, header alone needs"
    else:
        shape = [1 << 40] if declared == "shape" else [1 << 20, 1 << 20, 1 << 20]
        header = json.dumps({"arrays": [{"dtype": "<f8", "name": "a", "shape": shape}],
                             "meta": {}, "sha256": ""}).encode()
        path = _container_file(tmp_path / "c.bin", 112, header)
        want = "128 bytes, its header describes"
    tracemalloc.start()
    try:
        with pytest.raises(SchemaError, match=want):
            container.read(path, b"TEST")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_container_trailing_bytes_are_a_schema_error(tmp_path):
    path = tmp_path / "c.bin"
    container.write(str(path), b"TEST", [("f", np.arange(3.0))], {})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\0" * 5)
    with pytest.raises(SchemaError, match=f"{size + 5} bytes, its header describes {size}"):
        container.read(str(path), b"TEST")


def test_container_write_hashes_and_writes_the_arrays_own_bytes(tmp_path):
    big = np.arange(1 << 17, dtype=np.float64)  # 1 MiB
    arrays = [("big", big), ("b", np.array([True, False])),
              ("t", np.arange(6.0).reshape(2, 3).T)]  # not contiguous: written in C order
    path = tmp_path / "c.bin"
    tracemalloc.start()
    try:
        container.write(str(path), b"TEST", arrays, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < big.nbytes // 4
    assert path.read_bytes().endswith(b"".join(a.tobytes() for _, a in arrays))
    back, _ = container.read(str(path), b"TEST")
    assert all(np.array_equal(back[name], a) for name, a in arrays)


def test_usable_dates_matches_the_per_date_rule(small_ds):
    ds = small_ds
    w = ds.config.window
    valid = ~np.isnan(ds.indicators).any(axis=2)
    macro_ready = ~np.isnan(ds.macro).any(axis=1)
    want = np.zeros(ds.n_steps, dtype=bool)
    for t in range(w - 1, ds.n_steps - 1):
        want[t] = valid[:, t - w + 1:t + 1].all() and macro_ready[t]
    assert np.array_equal(ds.usable, want)
    assert np.array_equal(dp.usable_dates(ds.indicators, ds.macro, w), want)


def test_schema_version_guard(tmp_path, small_ds):
    path = tmp_path / "ds.jsonl"
    dp.save_dataset(small_ds, str(path))
    lines = path.read_text().splitlines()
    import json as _json
    meta = _json.loads(lines[0])
    meta["schema_version"] = 99
    path.write_text("\n".join([_json.dumps(meta)] + lines[1:]) + "\n")
    from finfusion.errors import SchemaError
    with pytest.raises(SchemaError):
        dp.load_dataset(str(path))
