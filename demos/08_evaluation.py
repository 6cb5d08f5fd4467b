"""Seeded evaluation protocol: independent runs, aggregated tables, ablation.

Each seed gets fresh synthetic data and a fresh init, so the spread is
honest run-to-run variance, not bootstrap noise. The ablation repeats the
protocol with the text, macro, and graph channels switched off; the gap on
directional accuracy is the measured value of the extra modalities.
"""

import numpy as np

import finfusion.cli as cli
import finfusion.datapipe as dp
import finfusion.evaluate as ev
import finfusion.metrics as mx
import finfusion.model as fm
import finfusion.training as tr

SEEDS = (0, 1)

scfg = dp.SyntheticConfig(n_steps=400, n_assets=2, n_institutions=8,
                          signal_strength=0.8, seed=0)
mcfg = fm.ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                      macro_group_dim=4, macro_hidden=32, graph_layers=1,
                      mdn_components=3, micro_layers=1, risk_gat_layers=1)
tcfg = tr.TrainingConfig(peak_lr=3e-3, warmup_steps=5, seeds=SEEDS)
full_sched = tr.StageSchedule(epochs={"unimodal-pretrain": 2,
                                      "multimodal-align": 1,
                                      "joint-multitask": 8,
                                      "rl-finetune": 0})
# the ablated run has nothing to align against, so that stage drops out
price_sched = tr.StageSchedule(epochs={"unimodal-pretrain": 2,
                                       "multimodal-align": 0,
                                       "joint-multitask": 8,
                                       "rl-finetune": 0})

print(f"running the protocol twice ({len(SEEDS)} seeds each)...")
full, _ = ev.seed_protocol(scfg, mcfg, tcfg, full_sched, split="test")
ablate, _ = ev.seed_protocol(scfg, mcfg, tcfg, price_sched, split="test",
                             modalities=("price",))

print("\n" + cli.render_eval_tables(full, "test"))

print("== all modalities vs price only ==")
key = "micro.directional_accuracy"
f_acc, a_acc = full.metrics[key], ablate.metrics[key]
print(f"directional accuracy, full      {mx.format_metric(key, f_acc)} "
      f"(per seed {[round(v, 3) for v in full.per_seed[key]]})")
print(f"directional accuracy, price     {mx.format_metric(key, a_acc)} "
      f"(per seed {[round(v, 3) for v in ablate.per_seed[key]]})")
print(f"multimodal gain                 {100 * (f_acc - a_acc):.1f} points")

print("\n== aggregation semantics ==")
r = mx.aggregate_seeds([{"m": 0.4}, {"m": 0.6}, {"m": None}])
print("any seed undefined -> aggregate undefined:",
      r.metrics["m"], "rendered as", repr(mx.format_metric("m", r.metrics["m"])))
r = mx.aggregate_seeds([{"m": 0.5}, {"m": 0.5}])
print("identical seeds -> std exactly", r.std["m"])
roundtrip = mx.EvalReport.from_json(full.to_json())
print("report JSON round-trips:", roundtrip == full)
