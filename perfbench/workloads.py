"""The benchmark workloads.

Each workload builds one synthetic world from the workload seed, then
repeats an identical cycle of CLI requests: a `train`, `forecast`/`report`
queries, `eval --split test` and short `rl-run`s. Every cycle is the same,
so per-cycle layer counts repeat exactly for a given seed. The workloads
differ in world size, model size and in which request dominates the cycle.
"""

import dataclasses
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# train only the joint stage, one epoch
JOINT_ONLY = ("stages.unimodal_pretrain=0", "stages.multimodal_align=0",
              "stages.joint_multitask=1", "stages.rl_finetune=0")

# the self-test shrinks every world and schedule to seconds
TINY_SETS = ("synthetic.n_steps=200", "training.warmup_steps=2")
TINY_TRAIN_SETS = ("stages.unimodal_pretrain=1", "stages.multimodal_align=1",
                   "stages.joint_multitask=1", "stages.rl_finetune=1")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str | None       # config file under perfbench/, None for defaults
    sets: tuple              # --set overrides for every command with a config
    train_sets: tuple        # extra --set overrides for `train`
    queries_use_trained: bool  # query the cycle's trained checkpoint, else set-up's
    queries: int             # forecast + report requests per cycle
    evals: int               # `eval --split test` requests per cycle
    rl_runs: int             # `rl-run` requests per cycle, with these sizes
    rl_updates: int
    rl_episodes: int
    min_cycles: int          # a run makes at least this many cycles

    def config_args(self) -> list:
        args = [] if self.config is None else ["--config", str(HERE / self.config)]
        for s in self.sets:
            args += ["--set", s]
        return args

    def tiny(self) -> "Workload":
        """The same cycle on a world small enough for the self-test."""
        train_sets = self.train_sets if self.train_sets else TINY_TRAIN_SETS
        return dataclasses.replace(
            self, sets=self.sets + TINY_SETS, train_sets=train_sets,
            queries=QUERY_BLOCK, evals=1, rl_runs=1, rl_updates=1,
            rl_episodes=2, min_cycles=1)


WORKLOADS = {w.name: w for w in (
    # README small.json train, all four stages: tiny arrays, so per-op
    # Python overhead, the per-leaf AdamW loop and the batch-1 RL forwards
    # dominate
    Workload("train-small", "small.json", (), (), True,
             queries=50, evals=2, rl_runs=2, rl_updates=4, rl_episodes=4,
             min_cycles=2),
    # default model dims on a 4-asset world, one joint epoch: gemm dominates,
    # no RL stage
    Workload("train-default", None,
             ("synthetic.n_steps=400", "synthetic.n_assets=4"), JOINT_ONLY,
             True, queries=50, evals=2, rl_runs=2, rl_updates=4,
             rl_episodes=4, min_cycles=2),
    # read-only backbone against the set-up checkpoint: each request re-reads
    # the dataset and checkpoint; the one-epoch train keeps the train metrics
    # defined here too. Four cycles make 200 queries, so that ten lie beyond
    # the p95
    Workload("query-small", "small.json", (), JOINT_ONLY, False,
             queries=50, evals=2, rl_runs=2, rl_updates=4, rl_episodes=4,
             min_cycles=4),
)}

# Per horizon 1..5: three forecasts and two reports. A report costs more
# than a forecast; with an even mix the median would fall in the gap
# between the two and jump from run to run.
QUERY_BLOCK = 25
_COMMANDS = ("forecast", "report", "forecast", "report", "forecast")


def query_plan(workload: Workload, seed: int, usable: list, n_assets: int) -> list:
    """The cycle's query requests, drawn once from the seed.

    Returns (command, asset, date, horizon) tuples; `report` ignores asset.
    Every seed asks for the same mix of commands and horizons; assets,
    dates and the order are random.
    """
    if workload.queries % QUERY_BLOCK:
        raise ValueError(f"queries per cycle must be a multiple of {QUERY_BLOCK}")
    rng = random.Random(f"{workload.name}:{seed}")
    plan = [(_COMMANDS[i % 5], rng.randrange(n_assets), rng.choice(usable),
             1 + (i // 5) % 5)
            for i in range(workload.queries)]
    rng.shuffle(plan)
    return plan


STAGE_ROWS = {
    # gradient-step rows per epoch, as (micro pairs, macro dates) multipliers
    "unimodal-pretrain": (1, 1),
    "multimodal-align": (1, 0),
    "joint-multitask": (1, 1),
    "rl-finetune": (0, 0),
}


def rows_per_train(stage_epochs: dict, n_train_dates: int, n_assets: int) -> int:
    """Gradient-step rows one `train` makes: split sizes times epochs."""
    rows = 0
    for stage, epochs in stage_epochs.items():
        micro, macro = STAGE_ROWS[stage]
        rows += epochs * (micro * n_train_dates * n_assets + macro * n_train_dates)
    return rows
