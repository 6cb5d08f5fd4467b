"""The four-stage curriculum, and why resume is bit-exact.

Stages run in a fixed order and each optimizes its own loss terms:
unimodal pretraining (forecast + risk per modality), contrastive alignment,
joint multitask, then policy-gradient finetuning. Optimizer state and the
RNG stream are fresh at every stage boundary, which makes a checkpoint
saved between stages a perfect restart point.
"""

import hashlib
import os
import tempfile

import numpy as np

import finfusion.datapipe as dp
import finfusion.model as fm
import finfusion.training as tr

scfg = dp.SyntheticConfig(n_steps=260, n_assets=2, n_institutions=6, seed=7)
ds = dp.build_dataset(scfg)
mcfg = fm.ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                      macro_group_dim=4, macro_hidden=32, graph_layers=1,
                      mdn_components=3, micro_layers=1, risk_gat_layers=1)
tcfg = tr.TrainingConfig(peak_lr=3e-3, warmup_steps=5, episodes_per_epoch=2)
sched = tr.StageSchedule(epochs={"unimodal-pretrain": 2, "multimodal-align": 1,
                                 "joint-multitask": 3, "rl-finetune": 2})

print("== learning rate: warmup, cosine, floor ==")
lrs = [tr.lr_schedule(s, 1e-3, 5, 40) for s in (0, 3, 5, 20, 39, 60)]
print("steps 0/3/5/20/39/60:", " ".join(f"{v:.2e}" for v in lrs))

print("\n== run A: all four stages ==")
run_a = tr.TrainingRun(ds, mcfg, tcfg, schedule=sched, seed=0)
tmp = tempfile.TemporaryDirectory()
ckpt = os.path.join(tmp.name, "boundary.bin")
for stage in tr.STAGES:
    rep = run_a.run_stage(stage)
    tot = rep.losses["total"]
    span = f"{tot[0]:8.4f} -> {tot[-1]:8.4f}" if tot else "   (no epochs)"
    print(f"{stage:20s} {rep.epochs} epochs, {rep.n_steps:3d} steps   {span}")
    print(f"{'':20s} logged: {', '.join(sorted(rep.losses))}")
    if stage == "multimodal-align":
        run_a.save(ckpt)   # boundary checkpoint: two stages done, two to go

with open(ckpt, "rb") as fh:
    print(f"\ncheckpoint magic {fh.read(4)} ({os.path.getsize(ckpt)} bytes)")

print("\n== run B: fresh process state, resume at the boundary ==")
run_b = tr.TrainingRun(ds, mcfg, tcfg, schedule=sched, seed=0)
run_b.resume_from(ckpt)
print("completed per checkpoint:", run_b.completed)
for stage in tr.STAGES[2:]:
    run_b.run_stage(stage)

def digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()

da, db = digest(run_a.params), digest(run_b.params)
print(f"\nrun A params sha256 {da[:16]}...")
print(f"run B params sha256 {db[:16]}...")
print("bit-exact resume:", da == db)
assert da == db

# the guard rails: a resumed run must match the saved one exactly
run_c = tr.TrainingRun(ds, mcfg, tcfg, schedule=sched, seed=1)
try:
    run_c.resume_from(ckpt)
except tr.SchemaError as e:  # the message names the temporary file first
    print("\nseed mismatch rejected:", str(e).removeprefix(f"{ckpt}: "))
tmp.cleanup()
try:
    tr.TrainingRun(ds, mcfg, tcfg, schedule=sched, seed=0).run_stage("rl-finetune")
except tr.ScheduleError as e:
    print("out-of-order stage rejected:", e)
