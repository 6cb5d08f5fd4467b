"""Benchmark operations: one CLI request each, driven in-process through
`finfusion.cli.main` with stdout captured, plus the checks on their outputs.

An operation fails on a nonzero exit, on an exception, or on a failed output
check. The check functions take the raw output text, so the self-test can
feed them corrupted outputs.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import time
from pathlib import Path

RISK_BANDS = ("LOW", "ELEVATED", "HIGH")
EVAL_KEYS = (
    "micro.directional_accuracy", "micro.mape", "micro.hit_ratio",
    "distress.accuracy", "distress.f1", "distress.roc_auc", "distress.pr_auc",
    "warning.accuracy", "warning.f1", "warning.roc_auc",
)
STAGES = ("unimodal-pretrain", "multimodal-align", "joint-multitask", "rl-finetune")
SUM_TOL = 1e-9
_STAGE_LINE = re.compile(
    r"^seed (\d+) stage ([a-z-]+): epochs=(\d+) final_total=(\S+)$")


@dataclasses.dataclass
class Op:
    kind: str                  # train | query | eval | rl
    start: float               # perf_counter when the request was sent
    seconds: float             # wall time
    problems: list
    traced: bool
    info: dict = dataclasses.field(default_factory=dict)
    host: float = 1.0          # host factor; see probe.py

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def nominal_seconds(self) -> float:
        """Wall time at nominal host speed."""
        return self.seconds / self.host


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def call_cli(cli, argv):
    """Run one command; returns (exit code, stdout, start, seconds, problems)."""
    out, err = io.StringIO(), io.StringIO()
    problems = []
    rc = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejecting the arguments
        rc = e.code
    except Exception as e:  # an escaped exception is a failed operation
        problems.append(f"{argv[0]} raised {type(e).__name__}: {e}")
    seconds = time.perf_counter() - start
    if not problems and rc != 0:
        problems.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()[:200]}")
    return rc, out.getvalue(), start, seconds, problems


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _finite_text(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_forecast(text: str, asset: int, date: int, horizon: int) -> list:
    try:
        fc = json.loads(text)
        weights = [c["weight"] for c in fc["mixture"]]
        sigmas = [c["sigma"] for c in fc["mixture"]]
        probs = [fc["direction_probs"][k] for k in ("down", "flat", "up")]
        q = [fc["quantiles"][k] for k in ("0.1", "0.5", "0.9")]
        echo = (fc["asset"], fc["date"], fc["horizon"])
    except (ValueError, KeyError, TypeError) as e:
        return [f"forecast output does not parse: {type(e).__name__}: {e}"]
    problems = []
    if echo != (asset, date, horizon):
        problems.append(f"forecast answers {echo}, asked {(asset, date, horizon)}")
    values = weights + sigmas + probs + q + [fc.get("point")]
    if not all(_finite(v) for v in values):
        problems.append("forecast holds a non-finite value")
        return problems
    if abs(sum(weights) - 1.0) > SUM_TOL:
        problems.append(f"mixture weights sum to {sum(weights)!r}")
    if abs(sum(probs) - 1.0) > SUM_TOL:
        problems.append(f"direction probabilities sum to {sum(probs)!r}")
    if not all(s > 0 for s in sigmas):
        problems.append("a mixture sigma is not positive")
    if not q[0] <= q[1] <= q[2]:
        problems.append(f"quantiles out of order: {q}")
    return problems


def check_report(text: str) -> list:
    if not text.strip():
        return ["report text is empty"]
    first = text.splitlines()[0]
    if not any(first == f"SYSTEMIC RISK BULLETIN - {b}" for b in RISK_BANDS):
        return [f"report names no risk band: {first!r}"]
    return []


def check_eval(report_json: str) -> list:
    try:
        metrics = json.loads(report_json)["metrics"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"eval report.json does not parse: {type(e).__name__}: {e}"]
    missing = [k for k in EVAL_KEYS if k not in metrics]
    return [f"eval report.json lacks {missing}"] if missing else []


def check_rl_summary(summary_json: str, updates: int) -> list:
    try:
        returns = json.loads(summary_json)["mean_return"]
    except (ValueError, KeyError, TypeError) as e:
        return [f"rl-run summary.json does not parse: {type(e).__name__}: {e}"]
    if len(returns) != updates:
        return [f"rl-run gave {len(returns)} returns for {updates} updates"]
    if not all(_finite(r) for r in returns):
        return ["rl-run gave a non-finite return"]
    return []


def parse_train_stdout(text: str) -> tuple:
    """-> ({stage: epochs}, problems). Totals must be finite for stages that
    ran and `n/a` for stages with no epochs."""
    epochs, problems = {}, []
    for line in text.splitlines():
        m = _STAGE_LINE.match(line)
        if not m:
            continue
        stage, n, total = m.group(2), int(m.group(3)), m.group(4)
        epochs[stage] = n
        if n == 0:
            if total != "n/a":
                problems.append(f"stage {stage} ran no epochs but reports {total}")
        elif not _finite_text(total):
            problems.append(f"stage {stage} total is {total}")
    if tuple(epochs) != STAGES:
        problems.append(f"train reported stages {tuple(epochs)}")
    return epochs, problems


def check_train_reports(reports_json: str) -> list:
    try:
        reports = json.loads(reports_json)
        totals = [v for r in reports for v in r["losses"]["total"]]
    except (ValueError, KeyError, TypeError) as e:
        return [f"reports.json does not parse: {type(e).__name__}: {e}"]
    if len(reports) != len(STAGES):
        return [f"reports.json holds {len(reports)} stages"]
    if not all(_finite(v) for v in totals):
        return ["reports.json holds a non-finite stage total"]
    return []


# ---------------------------------------------------------------------------
# operations

def train(cli, workload, data: Path, out: Path, seed: int, traced: bool) -> Op:
    argv = ["train", *workload.config_args(), "--data", str(data),
            "--out", str(out), "--seed", str(seed)]
    for s in workload.train_sets:
        argv += ["--set", s]
    rc, stdout, start, seconds, problems = call_cli(cli, argv)
    op = Op("train", start, seconds, problems, traced)
    if problems:
        return op
    epochs, found = parse_train_stdout(stdout)
    seed_dir = out / f"seed_{seed}"
    try:
        found += check_train_reports((seed_dir / "reports.json").read_text())
        op.info["checkpoints"] = {p.name: sha256(p)
                                  for p in sorted(seed_dir.glob("*.bin"))}
    except OSError as e:
        found.append(f"train output missing: {e}")
    if len(op.info.get("checkpoints", ())) != len(STAGES) + 1:
        found.append("train wrote the wrong number of checkpoints")
    op.problems += found
    op.info["epochs"] = epochs
    return op


def query(cli, request, checkpoint: Path, data: Path, traced: bool) -> Op:
    command, asset, date, horizon = request
    argv = [command, "--checkpoint", str(checkpoint), "--data", str(data),
            "--date", str(date), "--horizon", str(horizon)]
    if command == "forecast":
        argv += ["--asset", str(asset)]
    rc, stdout, start, seconds, problems = call_cli(cli, argv)
    if not problems:
        problems = (check_forecast(stdout, asset, date, horizon)
                    if command == "forecast" else check_report(stdout))
    return Op("query", start, seconds, problems, traced)


def evaluate(cli, checkpoint: Path, data: Path, out: Path, traced: bool) -> Op:
    argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data),
            "--split", "test", "--out", str(out)]
    rc, stdout, start, seconds, problems = call_cli(cli, argv)
    op = Op("eval", start, seconds, problems, traced)
    if not problems:
        try:
            op.problems += check_eval((out / "report.json").read_text())
            op.info["report_sha256"] = sha256(out / "report.json")
        except OSError as e:
            op.problems.append(f"eval output missing: {e}")
    return op


def rl_run(cli, workload, checkpoint: Path, data: Path, out: Path,
           traced: bool) -> Op:
    argv = ["rl-run", *workload.config_args(), "--checkpoint", str(checkpoint),
            "--data", str(data), "--updates", str(workload.rl_updates),
            "--episodes", str(workload.rl_episodes), "--split", "test",
            "--out", str(out)]
    rc, stdout, start, seconds, problems = call_cli(cli, argv)
    op = Op("rl", start, seconds, problems, traced)
    if problems:
        return op
    try:
        op.problems += check_rl_summary((out / "summary.json").read_text(),
                                        workload.rl_updates)
        lengths = [json.loads(line)["length"]
                   for line in (out / "traces.jsonl").read_text().splitlines()]
    except (OSError, ValueError, KeyError) as e:
        op.problems.append(f"rl-run output unreadable: {e}")
        return op
    if len(lengths) != workload.rl_episodes or len(set(lengths)) != 1:
        op.problems.append(f"rl-run episode lengths {lengths}")
        return op
    # every episode of every update has the length the exported last update
    # shows: min(episode_length, split horizon) for a start drawn below the span.
    # The test split is shorter than an episode, so every episode starts at
    # the split's first date and the work does not depend on the drawn starts
    op.info["env_steps"] = workload.rl_updates * workload.rl_episodes * lengths[0]
    return op
