"""Flat dotted-key config: parsing, overrides, validation, echo, hashing."""

import json

import pytest

import finfusion.config as cf
from finfusion.errors import ConfigError


def test_defaults_match_documented_values():
    cfg = cf.RunConfig.load(None)
    assert sum(cfg.schedule.epochs.values()) == 80
    assert cfg.training.micro_batch_size == 32
    assert cfg.training.macro_batch_size == 16
    assert cfg.training.seeds == (0, 1, 2, 3, 4)
    assert (cfg.loss.lambda1, cfg.loss.lambda2,
            cfg.loss.lambda3, cfg.loss.lambda4) == (1.0, 1.0, 0.5, 0.1)
    assert cfg.schedule.epochs["joint-multitask"] == 40
    assert cfg.rl.r_sys_source == "model"
    assert cfg.out_dir == "runs"


def test_load_file_and_overrides(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "synthetic.n_steps": 200,
        "model.d_model": 16,
        "training.peak_lr": 0.002,
        "stages.joint_multitask": 5,
    }))
    cfg = cf.RunConfig.load(str(path), overrides=[
        "training.peak_lr=0.004",
        "training.seeds=[7, 8]",
        "rl.r_sys_source=truth",
        "out_dir=elsewhere",
    ])
    assert cfg.synthetic.n_steps == 200
    assert cfg.model.d_model == 16
    assert cfg.training.peak_lr == 0.004  # override wins over the file
    assert cfg.training.seeds == (7, 8)
    assert cfg.rl.r_sys_source == "truth"
    assert cfg.schedule.epochs["joint-multitask"] == 5
    assert cfg.out_dir == "elsewhere"


def test_unquoted_string_override():
    assert cf.parse_override("truth") == "truth"
    assert cf.parse_override("0.5") == 0.5
    assert cf.parse_override("[1, 2]") == [1, 2]
    assert cf.parse_override("true") is True


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="bogus.key"):
        cf.RunConfig.from_flat({"bogus.key": 1})
    with pytest.raises(ConfigError, match="synthetic.n_stepz"):
        cf.RunConfig.from_flat({"synthetic.n_stepz": 10})
    with pytest.raises(ConfigError, match="stages.warmup"):
        cf.RunConfig.from_flat({"stages.warmup": 10})


def test_invalid_value_names_the_field():
    with pytest.raises(ConfigError, match="crisis_rate"):
        cf.RunConfig.from_flat({"synthetic.crisis_rate": 1.5})
    with pytest.raises(ConfigError, match="training"):
        cf.RunConfig.from_flat({"training.peak_lr": 0.0})


def test_align_pairs_round_trip():
    cfg = cf.RunConfig.from_flat(
        {"align.pairs": [["price", "text"], ["price", "graph"]]})
    assert cfg.align.pairs == (("price", "text"), ("price", "graph"))


def test_echo_is_canonical_and_reloadable():
    cfg = cf.RunConfig.from_flat({"model.d_model": 16, "training.warmup_steps": 4})
    flat = json.loads(cfg.echo())
    again = cf.RunConfig.from_flat(flat)
    assert again.echo() == cfg.echo()
    assert flat["model.d_model"] == 16
    assert flat["stages.unimodal_pretrain"] == 20


def test_hash_tracks_content():
    a = cf.RunConfig.from_flat({"model.d_model": 16})
    b = cf.RunConfig.from_flat({"model.d_model": 16})
    c = cf.RunConfig.from_flat({"model.d_model": 32})
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


def test_malformed_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cf.RunConfig.load(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        cf.RunConfig.load(str(arr))


def test_bad_override_format_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        cf.RunConfig.load(None, overrides=["training.peak_lr"])


def test_bad_out_dir_rejected():
    with pytest.raises(ConfigError, match="out_dir"):
        cf.RunConfig.from_flat({"out_dir": ""})


def test_retired_model_keys_at_their_last_default_are_dropped():
    old = {"model.d_model": 16, "model.n_actions": 3, "model.flat_band": 5e-4,
           "model.macro_slots": ["gdp_growth", "cpi_inflation", "m2_growth",
                                 "ppi_inflation", "credit_spread", "interbank_rate",
                                 "vix_proxy", "fx_volatility"],
           "model.macro_groups": {"market_stress": [6, 7], "growth": [0, 2],
                                  "inflation": [1, 3], "credit": [4, 5]}}
    cfg = cf.RunConfig.from_flat(old)
    assert cfg.echo() == cf.RunConfig.from_flat({"model.d_model": 16}).echo()
    assert not any(k in cfg.to_flat() for k in old if k != "model.d_model")
    with pytest.raises(ConfigError, match="model: flat_band: retired"):
        cf.RunConfig.from_flat(dict(old, **{"model.flat_band": 1e-3}))


@pytest.mark.parametrize("key,value", [
    ("training.epochs", 80), ("training.rl_in_joint", True)])
def test_removed_training_keys_rejected(tmp_path, key, value):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=rf"{key}: no such field"):
        cf.RunConfig.load(str(path))


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999",
                                  "[0, NaN]"])
def test_non_finite_value_names_the_key(tmp_path, text):
    with pytest.raises(ConfigError, match="training.peak_lr: must be finite"):
        cf.RunConfig.load(None, overrides=[f"training.peak_lr={text}"])
    path = tmp_path / "c.json"
    path.write_text('{"rl.beta": %s}' % text)
    with pytest.raises(ConfigError, match="rl.beta: must be finite"):
        cf.RunConfig.load(str(path))
