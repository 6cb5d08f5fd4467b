"""finfusion benchmark: one workload per process, driven through `cli.main`.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it imports the package from `src/`. The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics and the tracing overhead with `--trace 1`. The line
before it holds the environment, sample counts and artifact hashes. See
perfbench/README.md.
"""

import os

# one BLAS thread in this process and in every set-up child; numpy reads the
# variable when it is first imported, which happens below this line
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import ops  # noqa: E402
import probe as hostprobe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MAX_LOOP_SECONDS = 120   # start no cycle after this, whatever the minimums
SETUP_TIMEOUT = 120

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train_wall_s": "s",
    "train_samples_per_s": "rows/s",
    "query_ms_p50": "ms",
    "query_ms_p95": "ms",
    "eval_ms_p50": "ms",
    "rl_env_steps_per_s": "steps/s",
}


class SetupError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the world and cycle (for the self-test)")
    p.add_argument("--setup-child", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def workload_of(args) -> workloads.Workload:
    wl = workloads.WORKLOADS[args.workload]
    return wl.tiny() if args.tiny else wl


def import_cli():
    sys.path.insert(0, str(SRC))
    from finfusion import cli
    return cli


# ---------------------------------------------------------------------------
# environment

def git_state() -> dict:
    # stop git at the checkout: a checkout that is no repository of its own
    # must not report the commit of a repository around it
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*a):
        return subprocess.run(["git", "-C", str(ROOT), *a], capture_output=True,
                              text=True, env=env, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"commit": None, "dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"commit": git("rev-parse", "HEAD").stdout.strip(),
                "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0))
    threads = int(os.environ["OPENBLAS_NUM_THREADS"])
    if threads > nproc:
        raise SetupError(f"OPENBLAS_NUM_THREADS={threads} exceeds the "
                         f"{nproc} usable cores")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": nproc,
        "openblas_num_threads": threads,
        "seed": seed,
        **git_state(),
    }


# ---------------------------------------------------------------------------
# set-up

def setup_child(args) -> int:
    """Build the workload's world in a fresh process: `generate`, then for a
    workload that queries an untrained model, the set-up checkpoint."""
    wl = workload_of(args)
    out = Path(args.setup_child)
    cli = import_cli()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    problems = ops.call_cli(cli, [
        "generate", *wl.config_args(), "--out", str(out),
        "--set", f"synthetic.seed={args.seed}"])[-1]
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    if not wl.queries_use_trained:
        from finfusion import datapipe, training
        from finfusion.config import RunConfig
        cfg = RunConfig.load(None if wl.config is None else str(HERE / wl.config),
                             list(wl.sets))
        ds = datapipe.load_dataset(str(out / "dataset.jsonl"))
        run = training.TrainingRun(
            ds, cfg.model, cfg.training, schedule=cfg.schedule,
            loss_weights=cfg.loss, forecast_cfg=cfg.forecast_loss,
            align_cfg=cfg.align, rl_cfg=cfg.rl, seed=args.seed)
        run.save(str(out / "setup.bin"))
    if tracer is not None:
        tracer.uninstall()
        (out / "trace.json").write_text(json.dumps(
            {**tracer.snapshot(), "spans": tracer.spans}))
    return 0


def run_setups(args, work: Path, traced: bool, probe) -> tuple:
    """-> (one timed record per set-up process, their output directories)."""
    setups, dirs = [], []
    n = 1 if args.tiny else SETUP_REPEATS
    for i in range(n):
        d = work / f"setup-{'traced' if traced else 'plain'}-{i}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", str(d),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(int(traced))] + (["--tiny"] if args.tiny else [])
        probe.sample()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT)
        setups.append(ops.Op("setup", start, time.perf_counter() - start, [],
                             traced))
        if proc.returncode != 0:
            raise SetupError(f"set-up failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-500:]}")
        dirs.append(d)
    probe.sample()
    return setups, dirs


# ---------------------------------------------------------------------------
# measurement

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cycle(cli, wl, seed, data, setup_ckpt, plan, work, cycle, traced,
              probe) -> list:
    """One cycle: train, queries, evals, rl-runs, each after a host probe.
    Returns its operations."""
    train_dir = work / f"train-{cycle}"
    probe.sample()
    done = [ops.train(cli, wl, data, train_dir, seed, traced)]
    ckpt = (train_dir / f"seed_{seed}" / "checkpoint.bin"
            if wl.queries_use_trained else setup_ckpt)
    for request in plan:
        probe.sample()
        done.append(ops.query(cli, request, ckpt, data, traced))
    for _ in range(wl.evals):
        probe.sample()
        done.append(ops.evaluate(cli, ckpt, data, work / "eval", traced))
    for _ in range(wl.rl_runs):
        probe.sample()
        done.append(ops.rl_run(cli, wl, ckpt, data, work / "rl", traced))
    shutil.rmtree(train_dir, ignore_errors=True)
    return done


def e2e_metrics(done: list, setups: list, rss_mb: float, rows: int,
                nominal: bool = True) -> tuple:
    """-> (metric values, sample counts) for the given operations, from
    their times at nominal host speed or from their raw wall times."""
    def secs(records, kind):
        return [o.nominal_seconds if nominal else o.seconds
                for o in records if o.kind == kind]

    trains, evals, rls = secs(done, "train"), secs(done, "eval"), secs(done, "rl")
    queries = [s * 1e3 for s in secs(done, "query")]
    train_s = statistics.median(trains)
    # every rl-run of a workload makes the same env steps
    env_steps = next((o.info["env_steps"] for o in done
                      if o.kind == "rl" and o.ok), 0)
    values = {
        "setup_s": statistics.median(secs(setups, "setup")),
        "peak_rss_mb": rss_mb,
        "train_wall_s": train_s,
        "train_samples_per_s": rows / train_s,
        "query_ms_p50": statistics.median(queries),
        "query_ms_p95": statistics.quantiles(queries, n=20, method="inclusive")[18],
        "eval_ms_p50": statistics.median(evals) * 1e3,
        "rl_env_steps_per_s": env_steps / statistics.median(rls),
    }
    samples = {
        "setup_s": len(setups), "peak_rss_mb": 1,
        "train_wall_s": len(trains), "train_samples_per_s": len(trains),
        "query_ms_p50": len(queries), "query_ms_p95": len(queries),
        "eval_ms_p50": len(evals), "rl_env_steps_per_s": len(rls),
    }
    return values, samples


def done_enough(args, wl, cycles, elapsed) -> bool:
    if args.trace and cycles < 2:
        return False            # at least one plain and one traced cycle
    if elapsed >= MAX_LOOP_SECONDS:
        return True
    return elapsed >= args.seconds and (args.trace or cycles >= wl.min_cycles)


def measure(args, work: Path) -> dict:
    wl = workload_of(args)
    env = environment(args.seed)
    probe = hostprobe.Probe()
    setups, setup_dirs = run_setups(args, work, False, probe)
    traced_setups, traced_dirs = ([], [])
    if args.trace:
        traced_setups, traced_dirs = run_setups(args, work, True, probe)
    data_dir = setup_dirs[-1]
    data = data_dir / "dataset.jsonl"
    with open(data, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    n_assets = header["config"]["n_assets"]
    plan = workloads.query_plan(wl, args.seed, header["usable"], n_assets)
    setup_ckpt = data_dir / "setup.bin"
    cli = import_cli()

    # a traced run alternates plain and traced cycles, so that both sides of
    # the tracing overhead see the same share of warm-up
    done, cycles = [], 0
    tracer = tracing.Tracer() if args.trace else None
    rss_plain = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and cycles % 2 == 1
        if traced:
            rss_plain = rss_plain or peak_rss_mb()
            tracer.install()
        try:
            with probe.sampling():
                done += run_cycle(cli, wl, args.seed, data, setup_ckpt, plan,
                                  work, cycles, traced, probe)
        finally:
            if traced:
                tracer.uninstall()
        cycles += 1
        if done_enough(args, wl, cycles, time.perf_counter() - start):
            break
    probe.sample()
    for o in setups + traced_setups + done:
        end = o.start + o.seconds
        o.host = probe.factor(o.start, end)
        o.seconds -= probe.spent(o.start, end)

    # determinism: every train in the run writes the first train's bytes
    trains = [o for o in done if o.kind == "train" and o.ok]
    for o in trains[1:]:
        if o.info["checkpoints"] != trains[0].info["checkpoints"]:
            o.problems.append("checkpoint bytes differ from the run's first train")
    rows = (workloads.rows_per_train(trains[0].info["epochs"],
                                     len(header["splits"]["train"]), n_assets)
            if trains else 0)

    failed = [o for o in done if not o.ok]
    for o in failed[:5]:
        print(f"failed {o.kind}: {'; '.join(o.problems)}", file=sys.stderr)
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "cycles": cycles, "loop_s": time.perf_counter() - start,
        "env": env,
        "rows_per_train": rows,
        "op_seconds": {k: [o.seconds for o in done if o.kind == k]
                       for k in ("train", "query", "eval", "rl")},
        "op_host_factor": {k: [o.host for o in done if o.kind == k]
                           for k in ("train", "query", "eval", "rl")},
        "checkpoint_sha256": (trains[0].info["checkpoints"]["checkpoint.bin"]
                              if trains else None),
        "setup_checkpoint_sha256": (ops.sha256(setup_ckpt)
                                    if setup_ckpt.exists() else None),
        "report_sha256": next((o.info["report_sha256"] for o in done
                               if o.kind == "eval" and o.ok), None),
    }
    correct = not failed
    if not args.trace:
        values, info["samples"] = e2e_metrics(done, setups, peak_rss_mb(), rows)
        info["raw_wall_metrics"], _ = e2e_metrics(done, setups, peak_rss_mb(),
                                                  rows, nominal=False)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    else:
        plain, _ = e2e_metrics([o for o in done if not o.traced], setups,
                               rss_plain, rows)
        traced, info["samples"] = e2e_metrics([o for o in done if o.traced],
                                              traced_setups, peak_rss_mb(), rows)
        snaps = [json.loads((d / "trace.json").read_text()) for d in traced_dirs]
        # per-layer values describe one set-up plus one cycle
        weighted = [(s, 1.0 / len(snaps)) for s in snaps]
        weighted.append((tracer.snapshot(), 1.0 / (cycles // 2)))
        layers = tracing.layer_metrics(weighted)
        units = tracing.layer_metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
        for k, unit in E2E_UNITS.items():
            metrics[f"overhead.{k}"] = {"value": traced[k] - plain[k], "unit": unit}
        # interception guard: every wrapped function is reached on every workload
        unreached = [k for k, v in layers.items()
                     if k.endswith(".calls") and v == 0]
        if unreached:
            print(f"interception guard: no calls reached {unreached}",
                  file=sys.stderr)
            correct = False
        info["guard_unreached"] = unreached
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "info": info, "metrics": metrics, "spans": tracer.spans,
            "setup_spans": snaps[0]["spans"],
        }))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"info": info}))
    return {"correct": correct, "attempted": len(done), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "finfusion" / "cli.py").is_file():
        print(f"error: no finfusion sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    except (SetupError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
