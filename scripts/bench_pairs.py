"""Run perfbench on two trees in alternated pairs and judge the difference.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload train-default \\
        --seeds 2601-2610 --out BENCH_26.json
    python3 scripts/bench_pairs.py PARENT CHANGE --workload query-small \\
        --setup-child 10 --seed 2651 --out BENCH_26.json

PARENT and CHANGE are checkouts (a `git archive` of each commit will do),
each with its own `perfbench/run.py`. For every seed of the range, the
script runs `perfbench/run.py --workload W --seed S --seconds T --trace X`
from each tree, in a fresh process with the tree as its working directory.
The side that goes first flips from pair to pair, so a drift of the host
over the session falls on both sides alike.

Every run's info and result lines, as perfbench printed them, are added to
the `runs` list of the `--out` file (created if missing, extended if not).
Then, for the plain (`--trace 0`) runs of the workload in that file, the
script judges the pairs in which both runs finished, report `correct` and
failed no operation; it prints how many other pairs it dropped (perfbench
exits 0 when it reports `correct: false`). For each end-to-end metric of
the change tree's `BENCHMARK.json` it prints one line: both medians, the
parent's quartiles, the change's wins (ties count for neither side) and a
verdict:

- `gain`: the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's quartile distance;
- `REGRESSION`: the change's median is worse than the parent's by more than
  the metric's bound;
- `unresolved`: the parent's quartile distance exceeds the bound, and not
  every change run reads better than every parent run;
- `within bound` otherwise.

It also counts failed operations and the pairs whose checkpoint and report
sha256 differ between the sides.

With `--setup-child N`, it instead times N alternated pairs of whole
`perfbench/run.py --setup-child DIR --workload W --seed S --trace 0`
processes, and stores the wall times under `setup_child_seconds`. Each run
of perfbench reports as `setup_s` the median of only three such processes.

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

RUN_TIMEOUT = 900


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}")
    return seeds


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to extend")
    p.add_argument("--seeds", type=parse_seeds, help="seed range, as A-B or A")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", type=int, metavar="N",
                   help="time N alternated pairs of set-up children instead")
    p.add_argument("--seed", type=int, default=0, help="seed of the set-up children")
    args = p.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            p.error(f"no perfbench/run.py under {tree}")
    if (args.seeds is None) == (args.setup_child is None):
        p.error("give exactly one of --seeds and --setup-child")
    return args


def sides_in_order(pair: int) -> tuple:
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def run_perfbench(tree: Path, args, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:],
                "info": None, "result": None}
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def time_setup_child(tree: Path, args) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [sys.executable, "perfbench/run.py", "--setup-child",
               str(Path(tmp) / "setup"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed in {tree}: {proc.stderr[-500:]}")
    return seconds


def load(path: Path) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {"about": ("perfbench runs of a parent tree and a change tree in "
                      "alternated pairs, made by scripts/bench_pairs.py; "
                      "setup_child_seconds holds wall times of whole set-up "
                      "child processes, in run order"),
            "runs": [], "setup_child_seconds": {}}


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """The verdict on one metric from paired runs (same index, same seed)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_med - p_med)
    worse_by = -gain / abs(p_med) if p_med else 0.0
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        verdict = "gain"
    elif worse_by > bound:
        verdict = "REGRESSION"
    elif spread > bound and not every_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_quartiles": (q1, q3), "wins": wins, "pairs": len(parent),
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else 0.0,
            "verdict": verdict}


def sound(run: dict) -> bool:
    """True for a run that finished, reports ``correct`` and failed no
    operation: the only runs whose metrics are judged."""
    result = run["result"]
    return bool(result) and result["correct"] and not result["failed"]


def summarise(book: dict, workload: str, bench: dict) -> None:
    by_seed = {}
    for r in book["runs"]:
        if r["workload"] == workload and r["kind"] == "plain":
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [(s["parent"], s["change"]) for _, s in sorted(by_seed.items())
             if "parent" in s and "change" in s]
    failed = [f"{r['side']} seed {r['seed']}" for pair in pairs for r in pair
              if not sound(r)]
    ok = [(p, c) for p, c in pairs if sound(p) and sound(c)]
    print(f"{workload}: {len(pairs)} pairs, {len(pairs) - len(ok)} dropped; "
          f"failed or incorrect runs: {', '.join(failed) or 'none'}")
    if not ok:
        return
    differ = [p["seed"] for p, c in ok
              if (p["info"]["checkpoint_sha256"], p["info"]["report_sha256"])
              != (c["info"]["checkpoint_sha256"], c["info"]["report_sha256"])]
    print(f"  checkpoint or report sha256 differ on seeds: {differ or 'none'}")
    print(f"  {'metric':<20} {'parent':>10} {'change':>10} {'change %':>9} "
          f"{'parent quartiles':>23} {'wins':>6}  verdict")
    for m in bench["end_to_end"]:
        name = m["name"]
        parent, change = ([r["result"]["metrics"][name]["value"] for r in side]
                          for side in zip(*ok))
        j = judge(parent, change, m["better"], m["bound"])
        q1, q3 = j["parent_quartiles"]
        print(f"  {name:<20} {j['parent_median']:>10.4g} {j['change_median']:>10.4g} "
              f"{j['change_pct']:>+8.2f}% {q1:>11.4g}-{q3:<11.4g} "
              f"{j['wins']:>3}/{j['pairs']:<2}  {j['verdict']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    tree_of = {"parent": args.parent, "change": args.change}
    book = load(args.out)
    if args.setup_child:
        times = {"parent": [], "change": []}
        for pair in range(args.setup_child):
            for side in sides_in_order(pair):
                times[side].append(round(time_setup_child(tree_of[side], args), 4))
        book["setup_child_seconds"][args.workload] = {"seed": args.seed, **times}
        args.out.write_text(json.dumps(book) + "\n")
        for side, xs in times.items():
            q1, q3 = quartiles(xs)
            print(f"{args.workload} set-up child, {side}: median "
                  f"{statistics.median(xs):.3f} s, quartiles {q1:.3f}-{q3:.3f} s")
        return 0
    kind = "traced" if args.trace else "plain"
    for pair, seed in enumerate(args.seeds):
        for side in sides_in_order(pair):
            run = run_perfbench(tree_of[side], args, seed)
            book["runs"].append({"side": side, "workload": args.workload,
                                 "seed": seed, "kind": kind, **run})
            # written after every run, so an interrupted session keeps its runs
            args.out.write_text(json.dumps(book) + "\n")
            print(f"{args.workload} seed {seed} {side}: "
                  f"{'ok' if run['result'] else 'FAILED'}", flush=True)
    if kind == "plain":
        bench = json.loads((args.change / "BENCHMARK.json").read_text())
        summarise(book, args.workload, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
