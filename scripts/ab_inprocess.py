"""Time one CLI command of two trees in one process, in alternated rounds.

    python3 scripts/ab_inprocess.py PARENT CHANGE --command eval --rounds 60

PARENT and CHANGE are checkouts (a `git archive` of each commit will do).
Each tree's `src/finfusion` is imported under its own package name, so both
sides run in one interpreter on one numpy and one BLAS, and a drift of the
host between processes falls on neither side. That resolves differences
smaller than the run-to-run spread of whole processes on a shared host.

The set-up runs once, with PARENT's package, in a temporary directory: it
`generate`s a world and `train`s a `--seed 0` checkpoint with the `--set`
overrides, by default the default model on a 400-step, 4-asset world with
one joint epoch (perfbench's train-default). Each round then times one
request per tree through its `cli.main`, the tree that goes first flipping
from round to round, after `--warmup` untimed rounds:

- `eval`: `eval --split test` of the checkpoint;
- `train`: `train --seed 0` with the same overrides;
- `rl-run`: `rl-run --updates 4 --episodes 4`;
- `report`: `report` on the test split's first date.

It prints each tree's median and quartiles in ms, the change in the median,
the rounds the change was faster in, and whether each round's outputs (its
stdout and the files it wrote) had the same sha256 on both trees.

Standard library only; it touches nothing under `perfbench/`.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_SETS = ("synthetic.n_steps=400", "synthetic.n_assets=4",
                "stages.unimodal_pretrain=0", "stages.multimodal_align=0",
                "stages.joint_multitask=1", "stages.rl_finetune=0")
COMMANDS = ("eval", "train", "rl-run", "report")
SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--command", required=True, choices=COMMANDS)
    p.add_argument("--rounds", type=int, default=30)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--config", default=None, help="config file for generate and train")
    p.add_argument("--set", action="append", default=None, metavar="KEY=VALUE",
                   help="override for generate, train and rl-run (repeatable); "
                        "replaces the defaults")
    args = p.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "finfusion" / "__init__.py").is_file():
            p.error(f"no src/finfusion package under {tree}")
    if args.rounds < 1 or args.warmup < 0:
        p.error("--rounds must be positive and --warmup not negative")
    return args


def load_package(tree: Path, name: str):
    """Import ``tree``'s ``src/finfusion`` as the package ``name``."""
    src = tree / "src" / "finfusion"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def run_cli(cli, argv: list) -> tuple:
    """Run one command; returns its stdout and wall seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    if code:
        raise SystemExit(f"{' '.join(argv[:1])} exited with {code}")
    return out.getvalue(), seconds


def digest(stdout: str, out_dir: Path) -> str:
    h = hashlib.sha256(stdout.encode())
    if out_dir.exists():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def request(command: str, work: Path, flags: list, date: int, out: Path) -> list:
    """The argv of one timed request, writing under ``out``."""
    data, ckpt = str(work / "data" / "dataset.jsonl"), str(work / "run" / "seed_0" / "checkpoint.bin")
    if command == "eval":
        return ["eval", "--checkpoint", ckpt, "--data", data, "--split", "test",
                "--out", str(out)]
    if command == "train":
        return ["train", "--data", data, "--out", str(out), "--seed", "0"] + flags
    if command == "rl-run":
        return ["rl-run", "--checkpoint", ckpt, "--data", data, "--updates", "4",
                "--episodes", "4", "--out", str(out)] + flags
    return ["report", "--checkpoint", ckpt, "--data", data, "--date", str(date),
            "--out", str(out / "report.txt")]


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    args = parse_args(argv)
    flags = [f"--set={s}" for s in (DEFAULT_SETS if args.set is None else args.set)]
    flags += [f"--config={args.config}"] if args.config else []
    packages = {side: load_package(tree, f"finfusion_{side}")
                for side, tree in zip(SIDES, (args.parent, args.change))}
    clis = {side: importlib.import_module(f"{p.__name__}.cli")
            for side, p in packages.items()}
    times = {side: [] for side in SIDES}
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        data = str(work / "data" / "dataset.jsonl")
        run_cli(clis["parent"], ["generate", "--out", str(work / "data")] + flags)
        run_cli(clis["parent"], ["train", "--data", data, "--out", str(work / "run"),
                                 "--seed", "0"] + flags)
        datapipe = importlib.import_module(f"{packages['parent'].__name__}.datapipe")
        date = datapipe.load_dataset(data).splits["test"][0]
        for r in range(args.warmup + args.rounds):
            digests = {}
            for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
                out = work / f"out_{side}"
                out.mkdir()
                argv = request(args.command, work, flags, date, out)
                gc.collect()
                stdout, seconds = run_cli(clis[side], argv)
                digests[side] = digest(stdout, out)
                shutil.rmtree(out)
                if r >= args.warmup:
                    times[side].append(1000.0 * seconds)
            if digests["parent"] != digests["change"]:
                mismatched.append(r)
    print(f"{args.command}: {args.rounds} alternated rounds after {args.warmup} "
          f"warm-up, in one process")
    for side in SIDES:
        q1, q3 = quartiles(times[side])
        print(f"  {side:<7} median {statistics.median(times[side]):9.2f} ms, "
              f"quartiles {q1:.2f}-{q3:.2f} ms")
    p_med, c_med = (statistics.median(times[s]) for s in SIDES)
    wins = sum(c < p for p, c in zip(*times.values()))
    print(f"  change {100.0 * (c_med - p_med) / p_med:+.2f}% in the median, faster in "
          f"{wins} of {args.rounds} rounds")
    print(f"  outputs differ in rounds: {mismatched or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
