"""The verdicts of ``scripts/bench_pairs.py`` on paired perfbench runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]


@pytest.mark.parametrize("change, verdict", [
    ([8.0] * 10, "gain"),
    ([14.0] * 10, "REGRESSION"),
    ([10.2, 10.0, 10.1, 9.9, 10.0, 10.05, 10.1, 9.95, 10.0, 10.0], "within bound"),
], ids=["gain", "regression", "within-bound"])
def test_judge_on_a_steady_parent(change, verdict):
    assert bp.judge(STEADY, change, "lower", 0.25)["verdict"] == verdict


def test_judge_is_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [5.0, 10.0, 15.0, 20.0, 5.0, 10.0, 15.0, 20.0]
    j = bp.judge(parent, [x - 0.5 for x in parent[::-1]], "lower", 0.25)
    assert j["verdict"] == "unresolved"
    # every change run below every parent run resolves it
    assert bp.judge(parent, [4.0] * 8, "lower", 0.25)["verdict"] != "unresolved"


def test_ties_count_for_neither_side():
    parent = [1.0, 2.0, 3.0, 4.0]
    for better in ("lower", "higher"):
        assert bp.judge(parent, list(parent), better, 0.25)["wins"] == 0
    assert bp.judge(parent, [1.0, 1.5, 3.0, 4.0], "lower", 0.25)["wins"] == 1
    assert bp.judge(parent, [1.0, 1.5, 3.0, 4.0], "higher", 0.25)["wins"] == 0


def test_judge_on_a_higher_is_better_metric():
    parent = [100.0 * x / 10.0 for x in STEADY]
    up = bp.judge(parent, [120.0] * 10, "higher", 0.25)
    assert up["verdict"] == "gain" and up["wins"] == 10
    assert up["change_pct"] == pytest.approx(20.0)
    down = bp.judge(parent, [70.0] * 10, "higher", 0.25)
    assert down["verdict"] == "REGRESSION" and down["wins"] == 0


def _run(side, seed, value, correct=True, failed=0):
    return {"side": side, "workload": "w", "seed": seed, "kind": "plain",
            "info": {"checkpoint_sha256": "c", "report_sha256": "r"},
            "result": {"correct": correct, "failed": failed,
                       "metrics": {"query_ms_p50": {"value": value}}}}


def test_summarise_drops_a_pair_with_an_incorrect_or_failing_run(capsys):
    runs = [_run(side, seed, 10.0) for seed in (1, 2, 3) for side in ("parent", "change")]
    # each of these would read as a regression if its metric were judged
    runs += [_run("parent", 4, 10.0), _run("change", 4, 1000.0, correct=False),
             _run("parent", 5, 10.0), _run("change", 5, 1000.0, failed=2),
             _run("parent", 6, 10.0), dict(_run("change", 6, 0.0), result=None)]
    bench = {"end_to_end": [{"name": "query_ms_p50", "better": "lower", "bound": 0.25}]}
    bp.summarise({"runs": runs}, "w", bench)
    out = capsys.readouterr().out
    assert "w: 6 pairs, 3 dropped;" in out
    assert "change seed 4, change seed 5, change seed 6" in out
    line = next(x for x in out.splitlines() if "query_ms_p50" in x)
    assert line.split()[1:3] == ["10", "10"] and "0/3" in line  # three tied pairs
    assert line.endswith("within bound")
