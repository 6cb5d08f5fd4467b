"""Print the sha256 of every artifact of the README `small.json` flow.

A refactor that claims to keep behaviour must leave these bytes unchanged.
The script runs each CLI command in a fresh interpreter, in a temporary
directory, with `OPENBLAS_NUM_THREADS=1` and `perfbench/small.json` as the
config, against the package source given by `--src` (default: this
checkout's `src/`), and prints one
`<sha256>  <artifact>` line per artifact:

- the `generate` dataset (`dataset.jsonl`, `dataset.bin`), its echoed
  `config.json` and its `manifest.json`, so that a settings change which
  moves the echo and its `config_hash` shows too;
- the `train --seed 0` checkpoint and `reports.json`, and a digest of the
  checkpoint's arrays alone (each leaf's name, dtype, shape and bytes, as
  `container.read` returns them), so that a change which moves only the
  checkpoint's meta shows as one changed line;
- `eval --split test`'s `report.json` and `report.txt`, and the
  `report.json` of `eval --split train` and `eval --split val`, so that
  an eval-path change is bit-checked on every split;
- the 30 `forecast`/`report` stdouts, concatenated (dates 300, 330, 350,
  370, 390; horizons 1 and 3; asset 0, asset 1, then `report`);
- the `rl-run` traces with `rl.r_sys_source` `truth` and `model`;
- the `grad-check` stdout;
- the stdout of each demo in the `demos/` directory next to `--src`, so
  that a tree given by `--src` runs its own demos.

To compare two trees, run it once per tree and diff the output:

    python3 scripts/artifact_hashes.py > new.txt
    python3 scripts/artifact_hashes.py --src ../parent/src > old.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the README's small.json, key for key
SMALL = str(ROOT / "perfbench" / "small.json")
DATES = (300, 330, 350, 370, 390)
HORIZONS = (1, 3)
# run as `python -c` against --src: prints the sha256 of a checkpoint's arrays
ARRAYS_DIGEST = """
import hashlib, sys
from finfusion import container, training
arrays, _ = container.read(sys.argv[1], training.CHECKPOINT_MAGIC)
digest = hashlib.sha256()
for name, arr in arrays.items():
    digest.update(f"{name} {arr.dtype.str} {arr.shape}\\n".encode() + arr.tobytes())
print(digest.hexdigest())
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the finfusion package")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src),
               OPENBLAS_NUM_THREADS="1")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def python(*argv) -> bytes:
            done = subprocess.run([sys.executable, *argv], cwd=work,
                                  env=env, capture_output=True, check=False)
            if done.returncode != 0:
                sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr.decode(errors='replace')}")
            return done.stdout

        def run(*cli) -> bytes:
            return python("-m", "finfusion", *cli)

        def show(name: str, data: bytes) -> None:
            print(f"{sha256(data)}  {name}", flush=True)

        def show_file(path: Path) -> None:
            show(str(path.relative_to(work)), path.read_bytes())

        data, ckpt = work / "dataset.jsonl", work / "seed_0" / "checkpoint.bin"
        common = ("--checkpoint", str(ckpt), "--data", str(data))
        run("generate", "--config", SMALL, "--out", str(work))
        for name in ("dataset.jsonl", "dataset.bin", "config.json", "manifest.json"):
            show_file(work / name)
        run("train", "--config", SMALL, "--data", str(data), "--out", str(work),
            "--seed", "0")
        show_file(ckpt)
        print(f"{python('-c', ARRAYS_DIGEST, str(ckpt)).decode().strip()}  "
              "seed_0/checkpoint.bin arrays", flush=True)
        show_file(work / "seed_0" / "reports.json")
        run("eval", *common, "--split", "test", "--out", str(work / "eval"))
        show_file(work / "eval" / "report.json")
        show_file(work / "eval" / "report.txt")
        for split in ("train", "val"):
            out = work / f"eval_{split}"
            run("eval", *common, "--split", split, "--out", str(out))
            show_file(out / "report.json")

        queries = b""
        for date in DATES:
            for horizon in HORIZONS:
                when = ("--date", str(date), "--horizon", str(horizon))
                for asset in (0, 1):
                    queries += run("forecast", *common, *when, "--asset", str(asset))
                queries += run("report", *common, *when)
        show(f"forecast/report stdout ({len(DATES) * len(HORIZONS) * 3} requests)",
             queries)

        for source in ("truth", "model"):
            out = work / f"rl_{source}"
            run("rl-run", "--config", SMALL, *common, "--out", str(out),
                "--set", f"rl.r_sys_source={source}")
            show_file(out / "traces.jsonl")
        show("grad-check stdout", run("grad-check"))
        for demo in sorted((Path(args.src).resolve().parent / "demos").glob("*.py")):
            show(f"demos/{demo.name} stdout", python(str(demo)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
