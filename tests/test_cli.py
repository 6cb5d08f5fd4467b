"""Command-line surface: exit codes, artifacts, and reproducibility.

Every command runs in-process through cli.main so exit codes and stdout
are observable without subprocesses; only the import guards and the page
reuse check start a fresh interpreter. A single tiny dataset and trained
checkpoint are shared across the module.
"""

import ctypes
import dataclasses
import json
import math
import numbers
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import finfusion.cli as cli
import finfusion.config as config
import finfusion.datapipe as dp
import finfusion.heads as heads
import finfusion.metrics as mx
import finfusion.model as fm
import finfusion.training as tr

TINY = {
    "synthetic.n_steps": 170,
    "synthetic.n_assets": 2,
    "synthetic.n_institutions": 4,
    "model.d_model": 8,
    "model.n_heads": 2,
    "model.n_layers": 1,
    "model.d_ff": 16,
    "model.vocab_size": 132,
    "model.macro_group_dim": 4,
    "model.macro_hidden": 8,
    "model.graph_layers": 1,
    "model.mdn_components": 2,
    "model.risk_gat_layers": 1,
    "training.seeds": [0],
    "training.warmup_steps": 2,
    "training.episodes_per_epoch": 2,
    "rl.episode_length": 8,
    "stages.unimodal_pretrain": 1,
    "stages.multimodal_align": 1,
    "stages.joint_multitask": 1,
    "stages.rl_finetune": 1,
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    data_dir = root / "data"
    assert cli.main(["generate", "--config", str(cfg),
                     "--out", str(data_dir)]) == 0
    data = data_dir / "dataset.jsonl"
    run_dir = root / "run"
    assert cli.main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(run_dir)]) == 0
    return {
        "root": root,
        "cfg": str(cfg),
        "data": str(data),
        "data_dir": data_dir,
        "run": run_dir,
        "ckpt": str(run_dir / "seed_0" / "checkpoint.bin"),
    }


# ---------------------------------------------------------------------------
# generate

def test_generate_artifacts_and_manifest(work):
    manifest = json.loads((work["data_dir"] / "manifest.json").read_text())
    assert manifest["n_assets"] == 2
    assert manifest["n_steps"] == 170
    assert "n_step_records" not in manifest and "n_graph_records" not in manifest
    assert len(manifest["config_hash"]) == 64
    echoed = json.loads((work["data_dir"] / "config.json").read_text())
    assert echoed["synthetic.n_steps"] == 170
    # one meta header, then one record per date in date order
    records = [json.loads(line) for line in
               (work["data_dir"] / "dataset.jsonl").read_text().splitlines()]
    assert len(records) == 1 + 170
    assert records[0]["type"] == "meta"
    assert [rec["date"] for rec in records[1:]] == list(range(170))
    assert not any("type" in rec or "edges" in rec for rec in records[1:])


def test_generate_is_byte_reproducible(work, tmp_path):
    out2 = tmp_path / "data2"
    assert cli.main(["generate", "--config", work["cfg"],
                     "--out", str(out2)]) == 0
    for name in ("dataset.jsonl", "dataset.bin"):
        a = (work["data_dir"] / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b, name
    m1 = json.loads((work["data_dir"] / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]


def test_generate_rejects_bad_config(tmp_path, capsys):
    rc = cli.main(["generate", "--config", "/nonexistent.json",
                   "--out", str(tmp_path / "x")])
    assert rc == 3
    rc = cli.main(["generate", "--set", "synthetic.crisis_rate=1.5",
                   "--out", str(tmp_path / "y")])
    assert rc == 2
    assert "crisis_rate" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train

def test_train_artifacts(work):
    seed_dir = work["run"] / "seed_0"
    assert (seed_dir / "checkpoint.bin").exists()
    for i, stage in enumerate(
            ("unimodal-pretrain", "multimodal-align",
             "joint-multitask", "rl-finetune")):
        assert (seed_dir / f"stage_{i}_{stage}.bin").exists()
    reports = json.loads((seed_dir / "reports.json").read_text())
    assert [r["stage"] for r in reports] == [
        "unimodal-pretrain", "multimodal-align",
        "joint-multitask", "rl-finetune"]
    assert all(r["epochs"] == 1 for r in reports)


def test_train_missing_dataset_is_io_error(work, tmp_path, capsys):
    rc = cli.main(["train", "--config", work["cfg"],
                   "--data", str(tmp_path / "missing.jsonl"),
                   "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_train_vocab_too_small_is_config_error(work, tmp_path, capsys):
    rc = cli.main(["train", "--config", work["cfg"],
                   "--set", "model.vocab_size=8",
                   "--data", work["data"], "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "vocab_size" in capsys.readouterr().err


def test_train_is_reproducible(work, tmp_path):
    out2 = tmp_path / "run2"
    assert cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                     "--out", str(out2)]) == 0
    a = (work["run"] / "seed_0" / "checkpoint.bin").read_bytes()
    b = (out2 / "seed_0" / "checkpoint.bin").read_bytes()
    assert a == b
    ra = (work["run"] / "seed_0" / "reports.json").read_bytes()
    rb = (out2 / "seed_0" / "reports.json").read_bytes()
    assert ra == rb


def test_train_resume_matches_uninterrupted(work, tmp_path, capsys):
    out2 = tmp_path / "resumed"
    seed_dir = out2 / "seed_0"
    os.makedirs(seed_dir)
    # plant the first two stage checkpoints from the reference run, as if
    # the job had died before joint-multitask
    for i, stage in enumerate(("unimodal-pretrain", "multimodal-align")):
        name = f"stage_{i}_{stage}.bin"
        (seed_dir / name).write_bytes(
            (work["run"] / "seed_0" / name).read_bytes())
    rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                   "--out", str(out2), "--resume"])
    assert rc == 0
    assert "resumed after multimodal-align" in capsys.readouterr().out
    a = (work["run"] / "seed_0" / "checkpoint.bin").read_bytes()
    b = (seed_dir / "checkpoint.bin").read_bytes()
    assert a == b


# a macro partition other than the one the data now fixes: the leaves keep
# their shapes, so only the retired key tells the checkpoint apart
_CUSTOM_PARTITION = {"growth": [0, 1], "inflation": [2, 3], "credit": [4, 5],
                     "market_stress": [6, 7]}


@pytest.mark.parametrize("command", ["eval", "forecast", "report", "rl-run", "train"])
def test_a_checkpoint_with_another_macro_partition_exits_5(work, tmp_path, capsys,
                                                          command):
    seed_dir = tmp_path / "resumed" / "seed_0"
    os.makedirs(seed_dir)
    for name in ("checkpoint.bin", "stage_0_unimodal-pretrain.bin"):
        params, meta = tr.load_checkpoint(str(work["run"] / "seed_0" / name))
        meta["model_config"]["macro_groups"] = _CUSTOM_PARTITION
        tr.save_checkpoint(str(seed_dir / name), params, meta=meta)
    if command == "train":
        os.remove(seed_dir / "checkpoint.bin")
        rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                       "--out", str(tmp_path / "resumed"), "--resume"])
        bad = seed_dir / "stage_0_unimodal-pretrain.bin"
    else:
        bad = seed_dir / "checkpoint.bin"
        rc = _query(command, bad, work, tmp_path)
    line = _assert_one_line_schema_error(rc, capsys)
    assert line == (f"error: {bad}: checkpoint meta has no usable model_config "
                    "(ConfigError: macro_groups: retired; only its last default is accepted)")
    assert not (tmp_path / "out").exists()


_MISSING = object()
# meta fields every checkpoint writes, each at a value it never writes
_BAD_META = [("modalities", ["price", "bogus"]), ("modalities", []),
             ("modalities", "price"), ("modalities", ["price", "price"]),
             ("modalities", _MISSING), ("seed", "x"), ("seed", -1), ("seed", 1.5),
             ("seed", None), ("seed", _MISSING)]


@pytest.mark.parametrize("command", ["eval", "forecast", "report", "rl-run", "train"])
@pytest.mark.parametrize("key,value", _BAD_META)
def test_a_checkpoint_with_bad_meta_modalities_or_seed_exits_5_naming_the_file(
        work, tmp_path, capsys, command, key, value):
    seed_dir = tmp_path / "resumed" / "seed_0"
    os.makedirs(seed_dir)
    name = "stage_0_unimodal-pretrain.bin" if command == "train" else "checkpoint.bin"
    params, meta = tr.load_checkpoint(str(work["run"] / "seed_0" / name))
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    bad = seed_dir / name
    tr.save_checkpoint(str(bad), params, meta=meta)
    if command == "train":
        rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                       "--out", str(tmp_path / "resumed"), "--resume"])
    else:
        rc = _query(command, bad, work, tmp_path)
    line = _assert_one_line_schema_error(rc, capsys)
    assert line.startswith(f"error: {bad}: checkpoint meta {key} must be ")
    assert not (tmp_path / "out").exists()


# stage-checkpoint metas that disagree with the run or with their file name
_BAD_RESUME_META = {
    "completed-missing": ("completed", _MISSING),
    "completed-one-stage": ("completed", ["unimodal-pretrain"]),
    "completed-string": ("completed", "x"),
    "seed-other": ("seed", 1),
    "stage_epochs-missing": ("stage_epochs", _MISSING),
}


@pytest.mark.parametrize("defect", list(_BAD_RESUME_META))
def test_train_resume_with_bad_stage_meta_exits_5_naming_the_file(work, tmp_path,
                                                                  capsys, defect):
    key, value = _BAD_RESUME_META[defect]
    seed_dir = tmp_path / "resumed" / "seed_0"
    os.makedirs(seed_dir)
    name = "stage_1_multimodal-align.bin"
    params, meta = tr.load_checkpoint(str(work["run"] / "seed_0" / name))
    if value is _MISSING:
        del meta[key]
    else:
        meta[key] = value
    bad = seed_dir / name
    tr.save_checkpoint(str(bad), params, meta=meta)
    rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                   "--out", str(tmp_path / "resumed"), "--resume"])
    line = _assert_one_line_schema_error(rc, capsys)
    assert line.startswith(f"error: {bad}: ")
    assert not (seed_dir / "checkpoint.bin").exists()


def test_train_resumes_a_stage_checkpoint_with_retired_model_keys(work, tmp_path, capsys):
    # stage checkpoints saved while the model config still carried the
    # policy width and the direction band
    seed_dir = tmp_path / "resumed" / "seed_0"
    os.makedirs(seed_dir)
    for i, stage in enumerate(("unimodal-pretrain", "multimodal-align")):
        name = f"stage_{i}_{stage}.bin"
        params, meta = tr.load_checkpoint(str(work["run"] / "seed_0" / name))
        meta["model_config"].update(n_actions=3, flat_band=5e-4)
        tr.save_checkpoint(str(seed_dir / name), params, meta=meta)
    rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                   "--out", str(tmp_path / "resumed"), "--resume"])
    assert rc == 0
    assert "resumed after multimodal-align" in capsys.readouterr().out
    assert ((seed_dir / "checkpoint.bin").read_bytes()
            == (work["run"] / "seed_0" / "checkpoint.bin").read_bytes())


def test_train_divergence_is_numerical_error(work, tmp_path, capsys):
    rc = cli.main(["train", "--config", work["cfg"],
                   "--set", "training.peak_lr=1e12",
                   "--set", "training.warmup_steps=0",
                   "--data", work["data"], "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "diverged" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

def test_eval_prints_tables_and_writes_report(work, tmp_path, capsys):
    out = tmp_path / "evalout"
    rc = cli.main(["eval", "--checkpoint", work["ckpt"], "--data", work["data"],
                   "--split", "test", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "forecasting (test)" in text
    assert "Directional Accuracy" in text
    assert "(seeds: 1)" in text
    assert (out / "report.txt").read_text() == text
    report = mx.EvalReport.from_json((out / "report.json").read_text())
    assert report.n_seeds == 1
    # the table quotes the same numbers the JSON stores
    acc = report.metrics["micro.directional_accuracy"]
    assert mx.format_metric("micro.directional_accuracy", acc) in text


def test_eval_aggregates_multiple_checkpoints(work, capsys):
    rc = cli.main(["eval", "--checkpoint", work["ckpt"],
                   "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--split", "val"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(seeds: 2)" in out
    # identical seeds: spread collapses to exactly zero
    assert "+/- 0.0" in out


def test_eval_corrupt_checkpoint_is_schema_error(work, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    raw = bytearray((work["run"] / "seed_0" / "checkpoint.bin").read_bytes())
    raw[:4] = b"XXXX"
    bad.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--checkpoint", str(bad), "--data", work["data"]])
    assert rc == 5
    assert "error:" in capsys.readouterr().err


def _assert_one_line_schema_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 5
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


@pytest.mark.parametrize("cut", ["line-boundary", "mid-line"])
def test_truncated_dataset_is_schema_error(work, tmp_path, capsys, cut):
    lines = (work["data_dir"] / "dataset.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    keep = len(lines) * 2 // 3
    body = "".join(lines[:keep])
    if cut == "mid-line":
        body += lines[keep][: len(lines[keep]) // 2]
    bad = tmp_path / "dataset.jsonl"
    bad.write_text(body, encoding="utf-8")
    rc = cli.main(["eval", "--checkpoint", work["ckpt"], "--data", str(bad)])
    _assert_one_line_schema_error(rc, capsys)


@pytest.mark.parametrize("cut", ["header", "arrays"])
def test_truncated_checkpoint_is_schema_error(work, tmp_path, capsys, cut):
    raw = (work["run"] / "seed_0" / "checkpoint.bin").read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    end = 16 + hlen // 2 if cut == "header" else len(raw) - 8
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes(raw[:end])
    rc = cli.main(["forecast", "--checkpoint", str(bad), "--data", work["data"],
                   "--asset", "0", "--date", "100"])
    _assert_one_line_schema_error(rc, capsys)


@pytest.mark.parametrize("model_config", [None, {"bogus": 1}, {"d_ff": -2}])
def test_checkpoint_without_usable_model_config_is_schema_error(
        work, tmp_path, capsys, model_config):
    params, meta = tr.load_checkpoint(work["ckpt"])
    meta = dict(meta)
    if model_config is None:
        del meta["model_config"]
    else:
        meta["model_config"] = dict(meta["model_config"], **model_config)
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    rc = cli.main(["forecast", "--checkpoint", str(bad), "--data", work["data"],
                   "--asset", "0", "--date", "100"])
    _assert_one_line_schema_error(rc, capsys)


# defect: (path of the field in the date-100 record, the value put there)
_RECORD_DEFECTS = {
    "short-node_stress": (("node_stress",), [0.5]),
    "short-node_returns": (("node_returns",), [0.5]),
    "short-macro": (("macro",), [0.02]),
    "short-macro_present": (("macro_present",), [1]),
    "short-ohlcv": (("ohlcv", 0), [100.0, 101.0, 99.0, 100.0]),
    "short-indicators": (("indicators", 0), [1.0] * 6),
    "short-returns": (("returns",), [0.0]),
    "short-tokens": (("tokens",), [[11, 1, 27]]),
    "empty-token-list": (("tokens", 0), []),
    "long-token-list": (("tokens", 0), [11] * 6),
    "nan-close": (("ohlcv", 0, 3), math.nan),
    "inf-volume": (("ohlcv", 0, 4), math.inf),
    "nan-node_stress": (("node_stress", 0), math.nan),
    "inf-macro": (("macro", 0), math.inf),
    "token-999": (("tokens", 0, 0), 999),
    "token-minus-1": (("tokens", 0, 0), -1),
    "fractional-token": (("tokens", 0, 0), 11.5),
    "return-beyond-float64": (("returns", 0), 10 ** 400),
    "regime-7": (("regime",), 7),
    "macro_present-2": (("macro_present", 0), 2),
}

# defect: what the one-line error must name
_DATASET_DEFECTS = {
    "high-below-open-close": "date 100, asset 0",
    "low-above-open-close": "date 100, asset 0",
    "negative-volume": "date 100, asset 0",
    "negative-adjacency": "adjacency weight",
    "macro-slot-mismatch": "macro_slots",
    "usable-early-date": "usable dates disagree with the data at date 5",
    "usable-last-date": "usable dates disagree with the data at date 169",
    "split-last-date": "split 'test' dates disagree with the data at date 169",
    "schema-version-1": "schema_version 1 != 3",
    "schema-version-2": "schema_version 2 != 3",
    "no-usable-dates": "only 0 usable dates, at least 10 are needed",
    "constant-returns": "constant training returns",
    **{defect: f"line 102: {path[0]}"
       for defect, (path, _) in _RECORD_DEFECTS.items()},
}


def _break_dataset(src, dst, defect):
    """Copy a dataset, breaking it in the header, in every record or at
    asset 0 of the date-100 record (line 102)."""
    lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
    if defect in ("no-usable-dates", "constant-returns"):
        for i, line in enumerate(lines[1:], start=1):
            rec = json.loads(line)
            if defect == "no-usable-dates":
                rec["indicators"] = [[None] * len(r) for r in rec["indicators"]]
            else:
                rec["returns"] = [0.0] * len(rec["returns"])
            lines[i] = json.dumps(rec, sort_keys=True) + "\n"
        dst.write_text("".join(lines), encoding="utf-8")
        return
    meta, rec = json.loads(lines[0]), json.loads(lines[101])
    assert rec["date"] == 100
    last = meta["config"]["n_steps"] - 1
    if defect == "negative-adjacency":
        i, j = np.argwhere(np.asarray(meta["adjacency"]) > 0)[0]
        meta["adjacency"][i][j] *= -1.0
    elif defect == "macro-slot-mismatch":
        meta["macro_slots"] = meta["macro_slots"][::-1]
    elif defect == "usable-early-date":
        meta["usable"].insert(0, 5)
    elif defect == "usable-last-date":
        meta["usable"].append(last)
    elif defect == "split-last-date":
        meta["splits"]["test"].append(last)
    elif defect.startswith("schema-version-"):
        meta["schema_version"] = int(defect[-1])
    elif defect in _RECORD_DEFECTS:
        path, value = _RECORD_DEFECTS[defect]
        target = rec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        o, h, l, c, v = rec["ohlcv"][0]
        rec["ohlcv"][0] = {
            "high-below-open-close": [o, 0.99 * max(o, c), l, c, v],
            "low-above-open-close": [o, h, 1.01 * min(o, c), c, v],
            "negative-volume": [o, h, l, c, -1.0],
        }[defect]
    lines[0] = json.dumps(meta, sort_keys=True) + "\n"
    lines[101] = json.dumps(rec, sort_keys=True) + "\n"
    dst.write_text("".join(lines), encoding="utf-8")


# header sizes far beyond what any file holds: the loader must reject each
# before it allocates an array of that size
_HUGE = 10 ** 12
_HUGE_HEADERS = {
    "n_steps": (("config", "n_steps"),
                f"170 date records, the header declares n_steps {_HUGE}"),
    "window": (("config", "window"), "window must be an integer in [1, 170]"),
    "seq_len": (("seq_len",), f"seq_len {_HUGE} != {dp.TOKEN_LEN}"),
}


@pytest.mark.parametrize("field", list(_HUGE_HEADERS))
def test_a_dataset_header_size_beyond_the_file_exits_5(work, tmp_path, capsys, field):
    path, message = _HUGE_HEADERS[field]
    lines = (work["data_dir"] / "dataset.jsonl").read_text(
        encoding="utf-8").splitlines(keepends=True)
    meta = json.loads(lines[0])
    target = meta
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = _HUGE
    lines[0] = json.dumps(meta, sort_keys=True) + "\n"
    bad = tmp_path / "dataset.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    (tmp_path / "dataset.bin").write_bytes((work["data_dir"] / "dataset.bin").read_bytes())
    rc = cli.main(["eval", "--checkpoint", work["ckpt"], "--data", str(bad)])
    line = _assert_one_line_schema_error(rc, capsys)
    assert line.startswith(f"error: {bad}")
    assert message in line


@pytest.mark.parametrize("command", ["forecast", "report"])
@pytest.mark.parametrize("defect", list(_DATASET_DEFECTS))
def test_dataset_breaking_an_invariant_is_schema_error(work, tmp_path, capsys,
                                                       defect, command):
    bad = tmp_path / "dataset.jsonl"
    _break_dataset(work["data_dir"] / "dataset.jsonl", bad, defect)
    # the sidecar of the unedited file sits next to the edited one
    (tmp_path / "dataset.bin").write_bytes((work["data_dir"] / "dataset.bin").read_bytes())
    argv = [command, "--checkpoint", work["ckpt"], "--data", str(bad),
            "--date", "100"]
    if command == "forecast":
        argv += ["--asset", "0"]
    line = _assert_one_line_schema_error(cli.main(argv), capsys)
    assert _DATASET_DEFECTS[defect] in line


@seed(20261018)
@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_dataset_with_a_replaced_byte_fails_cleanly(work, tmp_path, capsys, data):
    raw = (work["data_dir"] / "dataset.jsonl").read_bytes()
    offset = data.draw(st.integers(raw.index(b"\n") + 1, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[offset]))
    bad = tmp_path / "dataset.jsonl"
    bad.write_bytes(raw[:offset] + bytes([byte]) + raw[offset + 1:])
    for argv in (["forecast", "--asset", "0"], ["report"]):
        rc = cli.main(argv + ["--checkpoint", work["ckpt"], "--data", str(bad),
                              "--date", "100"])
        err = capsys.readouterr().err
        # 4 stays possible: a replaced digit can make a finite but absurd price
        assert rc in (0, 4, 5), err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == (0 if rc == 0 else 1)


_QUERIES = (["forecast", "--asset", "0", "--date", "100"],
            ["report", "--date", "100"])


@pytest.fixture(scope="module")
def parsed_answers(work, tmp_path_factory):
    """stdout of each query in _QUERIES against the dataset without its
    sidecar, so from the parsed records."""
    plain = tmp_path_factory.mktemp("no_sidecar") / "dataset.jsonl"
    plain.write_bytes((work["data_dir"] / "dataset.jsonl").read_bytes())
    answers = []
    for argv in _QUERIES:
        out = os.path.join(str(plain.parent), "answer.txt")
        assert cli.main(argv + ["--checkpoint", work["ckpt"], "--data", str(plain),
                                "--out", out]) == 0
        answers.append(open(out, encoding="utf-8").read())
    return answers


@seed(20261019)
@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_sidecar_with_a_replaced_byte_changes_no_answer(work, parsed_answers,
                                                        tmp_path, capsys, data):
    raw = (work["data_dir"] / "dataset.bin").read_bytes()
    offset = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[offset]))
    (tmp_path / "dataset.bin").write_bytes(raw[:offset] + bytes([byte]) + raw[offset + 1:])
    bad = tmp_path / "dataset.jsonl"
    bad.write_bytes((work["data_dir"] / "dataset.jsonl").read_bytes())
    capsys.readouterr()
    for argv, want in zip(_QUERIES, parsed_answers):
        rc = cli.main(argv + ["--checkpoint", work["ckpt"], "--data", str(bad)])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.err == ""
        assert captured.out == want


def _replace_checkpoint_byte(work, tmp_path, data, arrays_only):
    raw = (work["run"] / "seed_0" / "checkpoint.bin").read_bytes()
    first = 16 + int.from_bytes(raw[8:16], "little") if arrays_only else 0
    offset = data.draw(st.integers(first, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[offset]))
    bad = tmp_path / "checkpoint.bin"
    bad.write_bytes(raw[:offset] + bytes([byte]) + raw[offset + 1:])
    return str(bad)


@seed(20261020)
@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_with_a_replaced_array_byte_is_schema_error(work, tmp_path,
                                                               capsys, data):
    bad = _replace_checkpoint_byte(work, tmp_path, data, arrays_only=True)
    for argv in _QUERIES:
        rc = cli.main(argv + ["--checkpoint", bad, "--data", work["data"]])
        line = _assert_one_line_schema_error(rc, capsys)
        assert bad in line and "sha256" in line


@seed(20261021)
@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_checkpoint_with_a_replaced_byte_fails_cleanly(work, tmp_path, capsys, data):
    bad = _replace_checkpoint_byte(work, tmp_path, data, arrays_only=False)
    for argv in _QUERIES:
        rc = cli.main(argv + ["--checkpoint", bad, "--data", work["data"]])
        err = capsys.readouterr().err
        assert rc in (0, 2, 4, 5), err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == (0 if rc == 0 else 1)


# ---------------------------------------------------------------------------
# forecast

def test_forecast_payload(work, capsys):
    rc = cli.main(["forecast", "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--asset", "0", "--date", "100"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    probs = payload["direction_probs"]
    assert abs(probs["down"] + probs["flat"] + probs["up"] - 1.0) < 1e-9
    q = payload["quantiles"]
    assert q["0.1"] <= q["0.5"] <= q["0.9"]
    assert len(payload["mixture"]) == 2
    assert abs(sum(c["weight"] for c in payload["mixture"]) - 1.0) < 1e-9


def test_forecast_bad_coordinates(work, capsys):
    rc = cli.main(["forecast", "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--asset", "9", "--date", "100"])
    assert rc == 2
    rc = cli.main(["forecast", "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--asset", "0", "--date", "5"])
    assert rc == 2  # inside the warmup window, no usable features
    capsys.readouterr()


# ---------------------------------------------------------------------------
# report

def test_report_deterministic_text(work, capsys):
    argv = ["report", "--checkpoint", work["ckpt"], "--data", work["data"],
            "--date", "100"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "SYSTEMIC RISK BULLETIN" in first
    assert "risk score:" in first


@pytest.mark.parametrize("command", ["forecast", "report"])
def test_a_query_rolls_the_decoder_once(work, capsys, monkeypatch, command):
    calls = []
    original = heads.micro_head_batch

    def counted(z_seq, params, cfg, k):
        calls.append((z_seq.shape, k))
        return original(z_seq, params, cfg, k)

    monkeypatch.setattr(heads, "micro_head_batch", counted)
    argv = [command, "--checkpoint", work["ckpt"], "--data", work["data"],
            "--date", "100", "--horizon", "3"]
    if command == "forecast":
        argv += ["--asset", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # report forecasts every asset in one call; TINY has 2 assets
    rows = 2 if command == "report" else 1
    assert calls == [((rows, 1, TINY["model.d_model"]), 3)]


def test_forecast_bisects_its_quantiles_once(work, capsys, monkeypatch):
    calls = []
    original = heads.mixture_quantile

    def counted(weights, means, sigmas, tau, *args, **kwargs):
        calls.append(tau)
        return original(weights, means, sigmas, tau, *args, **kwargs)

    monkeypatch.setattr(heads, "mixture_quantile", counted)
    assert cli.main(["forecast", "--checkpoint", work["ckpt"], "--data", work["data"],
                     "--date", "100", "--asset", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert calls == [(0.1, 0.5, 0.9)]
    assert list(payload["quantiles"]) == ["0.1", "0.5", "0.9"]


def _fresh_python(script):
    """Run ``script`` in a new interpreter that imports this package; returns
    the last line of its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_a_command_imports_no_scipy(work):
    # scipy is a test-only dependency: a fresh process that runs a command
    # must not load any of it
    script = ("import sys, finfusion.cli as cli\n"
              f"rc = cli.main(['forecast', '--checkpoint', {work['ckpt']!r}, "
              f"'--data', {work['data']!r}, '--date', '100', '--asset', '1'])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_python(script) == "0 []"


@pytest.mark.parametrize("command", ["forecast", "report", "eval"])
def test_non_finite_checkpoint_parameter_exits_4(work, tmp_path, capsys, command):
    params, meta = tr.load_checkpoint(work["ckpt"])
    params["micro.out_mu.w"].data[0, 0] = math.nan
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    argv = [command, "--checkpoint", str(bad), "--data", work["data"]]
    argv += {"forecast": ["--date", "100", "--asset", "0"],
             "report": ["--date", "100"], "eval": []}[command]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: non-finite values in {bad}: parameters\n"


def test_report_bad_date(work, capsys):
    rc = cli.main(["report", "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--date", "9999"])
    assert rc == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# rl-run

def test_rl_run_artifacts_and_determinism(work, tmp_path, capsys):
    argv = ["rl-run", "--config", work["cfg"], "--checkpoint", work["ckpt"],
            "--data", work["data"], "--updates", "3", "--episodes", "2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2
    assert len(s1["mean_return"]) == 3
    assert s1["r_sys_source"] == "model"
    traces = [json.loads(line)
              for line in (out1 / "traces.jsonl").read_text().splitlines()]
    assert len(traces) == 2
    assert all(len(t["steps"]) == 8 for t in traces)
    assert all(s["position"] in (-1, 0, 1) for s in traces[0]["steps"])


def test_rl_run_builds_one_chunked_state_table_over_its_modalities(
        work, tmp_path, capsys, monkeypatch):
    params, meta = tr.load_checkpoint(work["ckpt"])
    ablated = tmp_path / "ablated.bin"
    tr.save_checkpoint(str(ablated), params,
                       meta=dict(meta, modalities=["price", "text"]))
    kinds_seen = []
    original = fm.forward_batch

    def counted(*args, **kwargs):
        kinds_seen.append(tuple(kwargs["kinds"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(fm, "forward_batch", counted)
    rc = cli.main(["rl-run", "--config", work["cfg"], "--checkpoint", str(ablated),
                   "--data", work["data"], "--updates", "3", "--episodes", "2",
                   "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert rc == 0
    n_dates = len(dp.load_dataset(work["data"]).splits["train"])
    assert kinds_seen == [("price", "text")] * math.ceil(n_dates / fm.EVAL_BATCH)


def test_rl_run_seed_flag_changes_outcome(work, tmp_path, capsys):
    argv = ["rl-run", "--config", work["cfg"], "--checkpoint", work["ckpt"],
            "--data", work["data"], "--updates", "2", "--episodes", "2"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--seed", "1", "--out", str(out1)]) == 0
    assert cli.main(argv + ["--seed", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["seed"] == 1 and s2["seed"] == 2
    assert s1["mean_return"] != s2["mean_return"]


def test_rl_run_on_a_diverged_policy_is_numerical_error(work, tmp_path, capsys):
    params, meta = tr.load_checkpoint(work["ckpt"])
    # finite, but the logits overflow, so the action distribution is NaN
    params["policy.w"].data[...] = 1e308
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    rc = cli.main(["rl-run", "--config", work["cfg"], "--checkpoint", str(bad),
                   "--data", work["data"], "--updates", "1", "--episodes", "1",
                   "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.splitlines() == ["error: non-finite action distribution"]


# ---------------------------------------------------------------------------
# non-finite model outputs

@pytest.mark.parametrize("argv", [
    ["forecast", "--asset", "0", "--date", "100", "--horizon", "3"],
    ["report", "--date", "100"],
    ["eval", "--split", "test"],
], ids=["forecast", "report", "eval"])
def test_non_finite_output_is_one_line_numerical_error(work, tmp_path, capsys,
                                                        argv):
    params, meta = tr.load_checkpoint(work["ckpt"])
    params["micro.out_mu.w"].data[...] = 1e308
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    with warnings.catch_warnings():
        # a numpy overflow warning would surface as an exception here
        warnings.simplefilter("error")
        rc = cli.main(argv[:1] + ["--checkpoint", str(bad), "--data", work["data"]]
                      + argv[1:])
    err = capsys.readouterr().err
    assert rc == 4
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite values in ")


# ---------------------------------------------------------------------------
# grad-check

def test_grad_check_passes(capsys):
    assert cli.main(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert "/17 checks passed" in out
    assert "PASS  op.matmul_stacked " in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# parser

def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--data", "x.jsonl"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_the_parser_is_built_once_and_keeps_no_state(work, tmp_path, monkeypatch):
    def forbidden():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", forbidden)
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["generate", "--config", work["cfg"], "--out", str(first),
                     "--set", "synthetic.seed=7", "--set", "synthetic.n_steps=150"]) == 0
    assert cli.main(["generate", "--config", work["cfg"], "--out", str(second)]) == 0
    echo = json.loads((first / "config.json").read_text())
    assert echo["synthetic.seed"] == 7 and echo["synthetic.n_steps"] == 150
    # no --set left over from the first call: the defaults, as the fixture had
    assert ((second / "config.json").read_bytes()
            == (work["data_dir"] / "config.json").read_bytes())
    assert ((second / "dataset.jsonl").read_bytes()
            == (work["data_dir"] / "dataset.jsonl").read_bytes())


# ---------------------------------------------------------------------------
# allocator

def _forecast(work):
    return ["forecast", "--checkpoint", work["ckpt"], "--data", work["data"],
            "--date", "100", "--asset", "1"]


def test_main_pins_malloc_once_per_process(work, monkeypatch, capsys):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def load_dataset(path, load=dp.load_dataset):
        calls.append("load_dataset")
        return load(path)

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(cli, "_malloc_pinned", False)
    monkeypatch.setattr(dp, "load_dataset", load_dataset)
    assert cli.main(_forecast(work)) == 0
    assert cli.main(_forecast(work)) == 0
    capsys.readouterr()
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h; both
    # are set before the first command reads anything
    assert calls == [(-3, 64 << 20), (-1, 256 << 20), "load_dataset", "load_dataset"]
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
    assert mallopt.restype is ctypes.c_int


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_no_libc, lambda name: SimpleNamespace()],
                         ids=["CDLL-raises", "no-mallopt"])
def test_a_libc_without_mallopt_leaves_the_command_as_it_was(work, monkeypatch, capsys,
                                                             cdll):
    assert cli.main(_forecast(work)) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    monkeypatch.setattr(cli, "_malloc_pinned", False)
    assert cli.main(_forecast(work)) == 0
    assert capsys.readouterr().out == expected
    assert cli._malloc_pinned


def test_importing_the_package_leaves_malloc_alone():
    script = ("import ctypes, types\n"
              "calls = []\n"
              "def mallopt(param, value):\n"
              "    calls.append((param, value))\n"
              "    return 1\n"
              "ctypes.CDLL = lambda name: types.SimpleNamespace(mallopt=mallopt)\n"
              "import finfusion, finfusion.cli as cli\n"
              "before = list(calls)\n"
              "cli.pin_malloc()\n"
              "print(before, calls)\n")
    assert _fresh_python(script) == "[] [(-3, 67108864), (-1, 268435456)]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_repeated_evals_reuse_their_pages(tmp_path):
    # default dims on a small world: unpinned, glibc hands each chunk's
    # temporaries back to the OS, and every eval faults them in again
    # (about 2,000 minor faults per request)
    sets = ["synthetic.n_steps=150", "synthetic.n_assets=2"]
    script = f"""
import contextlib, io, os, resource
import finfusion.cli as cli
from finfusion import datapipe, training
from finfusion.config import RunConfig
d, sets = {str(tmp_path)!r}, {sets!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["generate", "--out", d,
                     *[a for s in sets for a in ("--set", s)]]) == 0
cfg = RunConfig.load(None, sets)
training.TrainingRun(datapipe.load_dataset(os.path.join(d, "dataset.jsonl")),
                     cfg.model, cfg.training).save(os.path.join(d, "init.bin"))
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["eval", "--checkpoint", os.path.join(d, "init.bin"),
                         "--data", os.path.join(d, "dataset.jsonl"),
                         "--split", "test"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""
    faults = json.loads(_fresh_python(script))
    assert faults[2] <= 64, faults


# every integer dimension and count of the model: negative is never valid,
# zero is not a valid width, and the graph encoder needs one layer
_BAD_DIMS = ([(f, -2) for f in ("d_model", "n_heads", "n_layers", "d_ff", "vocab_size",
                                "price_features", "macro_group_dim", "macro_hidden",
                                "graph_features", "graph_layers", "mdn_components",
                                "micro_layers", "risk_gat_layers")]
             + [(f, 0) for f in ("d_model", "price_features", "graph_features",
                                 "macro_group_dim", "macro_hidden", "graph_layers")]
             + [("d_model", 2.5), ("n_layers", True)])


@pytest.mark.parametrize("field,value", _BAD_DIMS)
def test_bad_model_dimension_is_config_error(work, tmp_path, capsys, field, value):
    rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                   "--out", str(tmp_path / "run"),
                   "--set", f"model.{field}={json.dumps(value)}"])
    captured = capsys.readouterr()
    assert rc == 2
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: model: {field} must be an integer >= ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["n_layers", "micro_layers", "risk_gat_layers", "d_ff"])
def test_zero_counts_still_train(work, tmp_path, field):
    assert cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                     "--out", str(tmp_path / "run"), "--set", f"model.{field}=0"]) == 0
    echo = json.loads((tmp_path / "run" / "config.json").read_text())
    # d_ff 0 means 4 * d_model
    want = 4 * TINY["model.d_model"] if field == "d_ff" else 0
    assert echo[f"model.{field}"] == want


@pytest.mark.parametrize("setting", [
    "training.episodes_per_epoch=0", "training.rl_lr=-1",
    "training.weight_decay=-0.5", "training.peak_lr=NaN"])
def test_bad_training_setting_exits_2_before_training(work, tmp_path, capsys,
                                                      setting):
    rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                   "--out", str(tmp_path / "run"), "--set", setting])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    key = setting.split("=")[0]
    assert key in lines[0] or f"training: {key.split('.')[1]} " in lines[0]
    assert not (tmp_path / "run").exists()


# a fractional or boolean count, a boolean real and an out-of-range value in
# every section outside training and model, each named by its key
@pytest.mark.parametrize("setting", [
    "synthetic.n_steps=400.5", "synthetic.n_assets=true", "synthetic.n_assets=17",
    "synthetic.window=2.5", "synthetic.seed=-1", "synthetic.edge_density=true",
    "synthetic.crisis_rate=1", "rl.episode_length=2.5", "rl.gamma=true",
    "rl.alpha=-1", "loss.lambda1=true", "loss.lambda4=-0.5",
    "forecast_loss.mse_weight=true", "forecast_loss.quantile_levels=[0.5,true]",
    "align.temperature=true", "align.temperature=0"])
def test_bad_number_in_any_section_exits_2(work, tmp_path, capsys, setting):
    rc = cli.main(["generate", "--config", work["cfg"], "--out", str(tmp_path / "data"),
                   "--set", setting])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    section, field = setting.split("=")[0].split(".")
    assert lines[0].startswith(f"error: {section}: {field} must be ")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("setting", [
    "training.micro_batch_size=2.5", "training.seeds=[0.7]",
    "stages.joint_multitask=1.5", "training.peak_lr=true",
    "training.warmup_steps=true", "stages.rl_finetune=false"])
def test_non_integer_count_or_bool_exits_2_before_training(work, tmp_path, capsys,
                                                          setting):
    rc = cli.main(["train", "--config", work["cfg"], "--data", work["data"],
                   "--out", str(tmp_path / "run"), "--set", setting])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    section, field = setting.split("=")[0].split(".")
    if section == "stages":
        field = field.replace("_", "-")
    assert lines[0].startswith(f"error: {section}: {field} must be ")
    assert not (tmp_path / "run").exists()


def _keys_holding(test):
    """Every key of a ``config.SECTIONS`` field whose default passes ``test``."""
    return [f"{section}.{f.name}" for section, cls in config.SECTIONS.items()
            for f in dataclasses.fields(cls) if test(getattr(cls(), f.name))]


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _config_error_line(work, tmp_path, capsys, key, value):
    """The one error line of a `generate` that sets ``key`` to ``value``."""
    rc = cli.main(["generate", "--config", work["cfg"], "--out", str(tmp_path / "data"),
                   "--set", f"{key}={value}"])
    lines = capsys.readouterr().err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert not (tmp_path / "data").exists()
    return lines[0]


def _expect_named_config_error(work, tmp_path, capsys, key, value):
    section, field = key.split(".")
    if section == "stages":
        field = field.replace("_", "-")
    line = _config_error_line(work, tmp_path, capsys, key, value)
    assert line.startswith(f"error: {section}: {field}")


# every numeric field of every section and every stage's epoch count, so
# that a field added later is covered without listing it here
_NUMERIC_KEYS = (_keys_holding(_is_number)
                 + [f"stages.{s.replace('-', '_')}" for s in tr.STAGES])
_NUMBER_LIST_KEYS = _keys_holding(
    lambda v: isinstance(v, tuple) and bool(v) and all(map(_is_number, v)))


def test_the_field_walk_finds_every_kind_of_field():
    assert {"synthetic.n_steps", "model.d_model", "model.warning_threshold",
            "training.peak_lr", "rl.gamma", "align.temperature",
            "stages.rl_finetune"} <= set(_NUMERIC_KEYS)
    assert set(_NUMBER_LIST_KEYS) == {"training.seeds", "forecast_loss.quantile_levels",
                                      "rl.actions"}


@pytest.mark.parametrize("value", ["true", '"x"'])
@pytest.mark.parametrize("key", _NUMERIC_KEYS)
def test_every_numeric_field_rejects_a_bool_and_a_string(work, tmp_path, capsys, key,
                                                         value):
    _expect_named_config_error(work, tmp_path, capsys, key, value)


@pytest.mark.parametrize("value", ["true", '"x"', "0.5", "[true]", '["x"]',
                                   "[0.5, false]"])
@pytest.mark.parametrize("key", _NUMBER_LIST_KEYS)
def test_every_number_list_rejects_a_scalar_or_a_bad_item(work, tmp_path, capsys, key,
                                                          value):
    _expect_named_config_error(work, tmp_path, capsys, key, value)


# a structured field of the wrong shape, each named by its key
@pytest.mark.parametrize("key,value", [
    ("model.macro_groups", "[1, 2]"),
    ("model.macro_groups", '{"growth": 5, "inflation": [1, 3], "credit": [4, 5], '
                           '"market_stress": [6, 7]}'),
    ("model.macro_groups", '{"growth": [0, 2.5], "inflation": [1, 3], "credit": [4, 5], '
                           '"market_stress": [6, 7]}'),
    ("model.macro_slots", "5"), ("model.macro_slots", "[1, 2]"),
    ("align.pairs", "5"), ("align.pairs", '"price"'),
    ("align.pairs", '[["price", "text", "macro"]]'), ("align.pairs", '[["price", "price"]]'),
    ("align.pairs", '[["price", "bogus"]]')])
def test_bad_structured_field_exits_2_naming_it(work, tmp_path, capsys, key, value):
    if key.startswith("model."):  # the macro layout is retired: the data fixes it
        assert (_config_error_line(work, tmp_path, capsys, key, value)
                == f"error: model: {key[6:]}: retired; only its last default is accepted")
    else:
        _expect_named_config_error(work, tmp_path, capsys, key, value)


# the retired model keys at the last default each held, as older echoes carry them
_RETIRED_ECHO = {
    "model.n_actions": 3,
    "model.flat_band": 0.0005,
    "model.macro_slots": ["gdp_growth", "cpi_inflation", "m2_growth", "ppi_inflation",
                          "credit_spread", "interbank_rate", "vix_proxy", "fx_volatility"],
    "model.macro_groups": {"growth": [0, 2], "inflation": [1, 3], "credit": [4, 5],
                           "market_stress": [6, 7]},
}


def _arrays(path):
    params, _ = tr.load_checkpoint(str(path))
    return {name: t.data.tobytes() for name, t in params.items()}


def test_an_older_config_echo_replays(work, tmp_path, capsys):
    # an echo written while the model config still carried the retired keys
    echo = json.loads((work["data_dir"] / "config.json").read_text())
    assert not set(_RETIRED_ECHO) & set(echo)
    old = tmp_path / "old_config.json"
    old.write_text(json.dumps({**echo, **_RETIRED_ECHO}, sort_keys=True, indent=2))
    data_dir, run_dir = tmp_path / "data", tmp_path / "run"
    assert cli.main(["generate", "--config", str(old), "--out", str(data_dir)]) == 0
    assert ((data_dir / "dataset.jsonl").read_bytes()
            == (work["data_dir"] / "dataset.jsonl").read_bytes())
    # the retired keys are dropped, so the run echoes and hashes as a new one
    assert (data_dir / "config.json").read_bytes() == (
        work["data_dir"] / "config.json").read_bytes()
    assert cli.main(["train", "--config", str(old), "--data", str(data_dir / "dataset.jsonl"),
                     "--out", str(run_dir), "--seed", "0"]) == 0
    capsys.readouterr()
    assert _arrays(run_dir / "seed_0" / "checkpoint.bin") == _arrays(work["ckpt"])


# the macro keys' cases are among the structured fields above
@pytest.mark.parametrize("key,value", [("model.n_actions", "5"), ("model.flat_band", "0.001")])
def test_a_retired_key_at_another_value_exits_2_naming_it(work, tmp_path, capsys, key,
                                                          value):
    assert (_config_error_line(work, tmp_path, capsys, key, value)
            == f"error: model: {key[6:]}: retired; only its last default is accepted")


# rl.actions sets the policy's width when a run trains one; rl-run reads the
# policy from the checkpoint
@pytest.mark.parametrize("command,setting,counts", [
    ("rl-run", "rl.actions=[-1, 1]", (2, 3)), ("rl-run", "rl.actions=[-1, 0, 0.5, 1]", (4, 3))])
def test_an_action_count_mismatch_exits_2_before_any_work(work, tmp_path, capsys, command,
                                                          setting, counts):
    out = tmp_path / "out"
    rc = cli.main([command, "--config", work["cfg"], "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--out", str(out), "--set", setting])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        f"error: rl.actions has {counts[0]} positions but the checkpoint's policy.w "
        f"has {counts[1]} outputs"]
    assert captured.out == ""
    assert not out.exists()


def test_rl_run_rejects_a_model_override(work, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["rl-run", "--config", work["cfg"], "--checkpoint", work["ckpt"],
                   "--data", work["data"], "--out", str(out),
                   "--set", "rl.beta=0.2", "--set", "model.d_model=4"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.strip().splitlines() == [
        "error: model.d_model: rl-run takes the model from the checkpoint"]
    assert captured.out == ""
    assert not out.exists()


_COMMAND_ARGS = {
    "eval": [],
    "forecast": ["--asset", "0", "--date", "100"],
    "report": ["--date", "100"],
    "rl-run": ["--updates", "1", "--episodes", "1"],
}


def _query(command, checkpoint, work, tmp_path):
    argv = [command, "--checkpoint", str(checkpoint), "--data", work["data"],
            *_COMMAND_ARGS[command]]
    if command == "rl-run":
        argv += ["--config", work["cfg"], "--out", str(tmp_path / "out")]
    return cli.main(argv)


# each command reads only the leaves of the heads it runs, so it fails on a
# missing leaf exactly when it needs that leaf
@pytest.mark.parametrize("leaf,readers", [("micro.out_mu.w", {"eval", "forecast", "report"}),
                                          ("policy.w", {"rl-run"})])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_a_checkpoint_missing_a_leaf_exits_5_naming_it(work, tmp_path, capsys, command,
                                                       leaf, readers):
    params, meta = tr.load_checkpoint(work["ckpt"])
    del params[leaf]
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    rc = _query(command, bad, work, tmp_path)
    if command not in readers:
        assert rc == 0
        return
    line = _assert_one_line_schema_error(rc, capsys)
    assert line == f"error: {bad}: checkpoint has no parameter {leaf}"


@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_a_checkpoint_vocabulary_below_the_dataset_exits_5(work, tmp_path, capsys,
                                                           command):
    params, meta = tr.load_checkpoint(work["ckpt"])
    params["text.embed"].data = params["text.embed"].data[:16]
    meta["model_config"]["vocab_size"] = 16
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    rc = _query(command, bad, work, tmp_path)
    line = _assert_one_line_schema_error(rc, capsys)
    assert line == "error: checkpoint vocabulary (16) is smaller than the dataset's (132)"
    assert not (tmp_path / "out").exists()


# as with a missing leaf, a command fails on a leaf of the wrong shape exactly
# when it runs that leaf
@pytest.mark.parametrize("leaf,readers", [("micro.out_mu.w", {"eval", "forecast", "report"}),
                                          ("policy.w", {"rl-run"}),
                                          ("fusion.pool.q", set(_COMMAND_ARGS))])
@pytest.mark.parametrize("command", sorted(_COMMAND_ARGS))
def test_a_checkpoint_leaf_of_the_wrong_shape_exits_5_naming_the_file(
        work, tmp_path, capsys, command, leaf, readers):
    params, meta = tr.load_checkpoint(work["ckpt"])
    shape = params[leaf].shape
    # one more row keeps policy.w's width, which rl-run checks against rl.actions
    params[leaf].data = np.ones((shape[0] + 1,) + shape[1:])
    bad = tmp_path / "checkpoint.bin"
    tr.save_checkpoint(str(bad), params, meta=meta)
    rc = _query(command, bad, work, tmp_path)
    if command not in readers:
        assert rc == 0
        capsys.readouterr()
        return
    line = _assert_one_line_schema_error(rc, capsys)
    assert line.startswith(f"error: {bad}: checkpoint does not fit its model: ")


@pytest.mark.parametrize("command,flags", [
    ("train", ["--seed", "-1"]), ("rl-run", ["--seed", "-1"]),
    ("rl-run", ["--updates", "-1"]), ("rl-run", ["--episodes", "0"]),
    ("grad-check", ["--seed", "-1"]), ("forecast", ["--horizon", "0"]),
    ("report", ["--horizon", "-2"]), ("grad-check", ["--d-model", "3"]),
    ("grad-check", ["--d-model", "0"])])
def test_a_bad_count_or_seed_flag_exits_2_naming_it(work, tmp_path, capsys, command,
                                                    flags):
    out = tmp_path / "out"
    query = ["--checkpoint", work["ckpt"], "--data", work["data"], "--date", "100"]
    inputs = {"train": ["--config", work["cfg"], "--data", work["data"]],
              "rl-run": ["--config", work["cfg"], "--checkpoint", work["ckpt"],
                         "--data", work["data"]],
              "forecast": [*query, "--asset", "0"], "report": query,
              "grad-check": []}[command]
    tail = [] if command == "grad-check" else ["--out", str(out)]
    rc = cli.main([command, *inputs, *tail, *flags])
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert rc == 2
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {flags[0]} must be an integer >= ")
    assert captured.out == ""
    assert not out.exists()
