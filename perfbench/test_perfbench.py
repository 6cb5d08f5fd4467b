"""Self-test of the benchmark: metric names and units, clean runs, checks.

    python3 -m pytest perfbench -q

The end-to-end runs use `--tiny`, which shrinks every world and cycle so
that each workload finishes in seconds.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
import probe as hostprobe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_spec_names_the_workloads_and_tracer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]
                   if not m["name"].startswith("overhead.")}
    assert layer_units == tracing.layer_metric_units()
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    overhead = {m["name"]: m["unit"] for m in SPEC["per_layer"]
                if m["name"].startswith("overhead.")}
    assert overhead == {f"overhead.{k}": u for k, u in e2e.items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_clean_run_emits_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    _check_result(result, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_layer_metric_and_reaches_every_function():
    # correct is false when the interception guard finds a wrapped function
    # that no call reached
    result = _run("train-small", trace=1)
    _check_result(result, {m["name"]: m["unit"] for m in SPEC["per_layer"]})


# ---------------------------------------------------------------------------
# output checks

GOOD_FORECAST = {
    "asset": 1, "date": 300, "horizon": 2, "point": 0.001,
    "direction_probs": {"down": 0.25, "flat": 0.5, "up": 0.25},
    "mixture": [{"weight": 0.4, "mean": 0.0, "sigma": 0.01},
                {"weight": 0.6, "mean": 0.002, "sigma": 0.02}],
    "quantiles": {"0.1": -0.02, "0.5": 0.001, "0.9": 0.02},
}


def _forecast(**change):
    fc = json.loads(json.dumps(GOOD_FORECAST))
    for path, value in change.items():
        *keys, last = path.split("__")
        node = fc
        for k in keys:
            node = node[int(k)] if isinstance(node, list) else node[k]
        if isinstance(node, list):
            node[int(last)] = value
        else:
            node[last] = value
    return json.dumps(fc)


def test_forecast_check_accepts_a_valid_forecast():
    assert ops.check_forecast(json.dumps(GOOD_FORECAST), 1, 300, 2) == []


@pytest.mark.parametrize("corrupt", [
    {"mixture__0__weight": 0.5},           # weights sum to 1.1
    {"direction_probs__up": 0.3},          # probabilities sum to 1.05
    {"mixture__1__sigma": 0.0},
    {"quantiles__0.9": -0.03},             # 0.5 > 0.9
    {"point": float("nan")},
    {"horizon": 3},                        # answers another request
])
def test_forecast_check_rejects_corruption(corrupt):
    assert ops.check_forecast(_forecast(**corrupt), 1, 300, 2)


def test_forecast_check_rejects_unparsable_output():
    assert ops.check_forecast("{not json", 1, 300, 2)


def test_report_check():
    assert ops.check_report("SYSTEMIC RISK BULLETIN - HIGH\nrisk score: 0.7\n") == []
    assert ops.check_report("")
    assert ops.check_report("SYSTEMIC RISK BULLETIN - UNKNOWN\n")


def test_eval_check():
    full = {"metrics": {k: None for k in ops.EVAL_KEYS}}
    assert ops.check_eval(json.dumps(full)) == []
    del full["metrics"]["warning.f1"]
    assert ops.check_eval(json.dumps(full))


def test_rl_summary_check():
    assert ops.check_rl_summary(json.dumps({"mean_return": [0.1, -2.0]}), 2) == []
    assert ops.check_rl_summary(json.dumps({"mean_return": [0.1]}), 2)
    assert ops.check_rl_summary('{"mean_return": [0.1, NaN]}', 2)


def test_train_checks():
    lines = "\n".join(f"seed 0 stage {s}: epochs=1 final_total=1.5"
                      for s in ops.STAGES)
    assert ops.parse_train_stdout(lines) == ({s: 1 for s in ops.STAGES}, [])
    assert ops.parse_train_stdout(lines.replace("1.5", "nan", 1))[1]
    assert ops.parse_train_stdout(lines.replace("1.5", "n/a", 1))[1]
    assert ops.parse_train_stdout(lines.replace("1.5", "x", 1))[1]
    assert ops.check_train_reports(json.dumps(
        [{"losses": {"total": [1.0]}}] * 4)) == []
    assert ops.check_train_reports(json.dumps(
        [{"losses": {"total": [float("inf")]}}] * 4))


class _FakeCli:
    def __init__(self, stdout, rc=0):
        self.stdout, self.rc = stdout, rc

    def main(self, argv):
        print(self.stdout, end="")
        return self.rc


def test_corrupted_output_counts_as_a_failed_operation():
    request = ("forecast", 1, 300, 2)
    good = ops.query(_FakeCli(json.dumps(GOOD_FORECAST)), request,
                     Path("c"), Path("d"), False)
    bad = ops.query(_FakeCli(_forecast(mixture__0__weight=0.5)), request,
                    Path("c"), Path("d"), False)
    nonzero = ops.query(_FakeCli("", rc=4), request, Path("c"), Path("d"), False)
    assert good.ok
    assert not bad.ok and not nonzero.ok


# ---------------------------------------------------------------------------
# inputs and tracing

def test_query_plan_comes_from_the_seed():
    wl = workloads.WORKLOADS["train-small"]
    usable = list(range(100, 400))
    a = workloads.query_plan(wl, 5, usable, 2)
    assert a == workloads.query_plan(wl, 5, usable, 2)
    assert a != workloads.query_plan(wl, 6, usable, 2)
    assert len(a) == wl.queries
    assert all(d in usable and 1 <= h <= 5 for _, _, d, h in a)
    # every seed asks for the same mix: per horizon, three forecasts and two
    # reports in every block of 25
    mix = sorted((c, h) for c, _, _, h in a)
    assert mix == sorted((c, h) for c, _, _, h in workloads.query_plan(wl, 6, usable, 2))
    assert mix.count(("forecast", 5)) == 3 * wl.queries // 25


def test_rows_per_train_counts_gradient_rows():
    epochs = {"unimodal-pretrain": 2, "multimodal-align": 1,
              "joint-multitask": 8, "rl-finetune": 2}
    # 10 train dates, 2 assets: 20 micro rows and 10 macro rows per epoch
    assert workloads.rows_per_train(epochs, 10, 2) == 2 * 30 + 20 + 8 * 30


def test_self_time_excludes_child_spans():
    class Box:
        @staticmethod
        def outer():
            time.sleep(0.02)
            Box.inner()

        @staticmethod
        def inner():
            time.sleep(0.03)

    t = tracing.Tracer()
    t._spanned(Box, "outer", lambda a, k: "outer")
    t._spanned(Box, "inner", lambda a, k: "inner")
    Box.outer()
    t.uninstall()
    (inner_id, inner_parent, inner_root, *_), (outer_id, outer_parent, *_) = t.spans
    assert inner_parent == outer_id == inner_root and outer_parent is None
    calls, total, self_s = t.stats["outer"]
    assert calls == 1 and total >= 0.05
    assert self_s == pytest.approx(total - t.stats["inner"][1])
    assert self_s >= 0.02 and total - self_s >= 0.03


def test_uninstall_restores_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from finfusion import autodiff, datapipe
    before = (autodiff.custom_op, datapipe.AlignedDataset.batch_arrays)
    t = tracing.Tracer()
    t.install()
    try:
        assert autodiff.custom_op is not before[0]
    finally:
        t.uninstall()
    assert (autodiff.custom_op, datapipe.AlignedDataset.batch_arrays) == before


def test_host_factor_averages_the_probes_around_an_operation():
    p = hostprobe.Probe()
    p._times = [1.0, 2.0, 5.0]
    p._samples = [1.0, 1.6, 1.2]
    # an operation from 2.1 to 4.0 lies between the probes at 2.0 and 5.0
    assert p.factor(2.1, 4.0) == pytest.approx(1.4)
    # after the last probe only the one before it counts
    assert p.factor(6.0, 7.0) == pytest.approx(1.2)
    op = ops.Op("query", 2.1, 0.03, [], False, host=2.0)
    assert op.nominal_seconds == pytest.approx(0.015)


def test_timer_samples_a_long_operation_and_their_time_is_taken_out():
    p = hostprobe.Probe()
    start = time.perf_counter()
    with p.sampling():
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    end = time.perf_counter()
    assert len(p._samples) >= 2
    assert 0 < p.spent(start, end) < end - start
    assert p.factor(start, end) == pytest.approx(sum(p._samples) / len(p._samples))
