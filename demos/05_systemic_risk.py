"""Systemic-risk early warning and the policy bulletin it feeds.

The macro head scores market-wide stress in [0, 1] from the fused state and
the interbank graph, with per-institution contributions from a graph
attention stack. Scores above the warning threshold raise a flag; the
bulletin renders the same outputs as a fixed-template text artifact.
"""

import numpy as np

import finfusion.datapipe as dp
import finfusion.evaluate as ev
import finfusion.heads as heads
import finfusion.metrics as mx
import finfusion.model as fm
import finfusion.training as tr

scfg = dp.SyntheticConfig(n_steps=400, n_assets=2, n_institutions=8,
                          signal_strength=0.8, seed=0)
ds = dp.build_dataset(scfg)
mcfg = fm.ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                      macro_group_dim=4, macro_hidden=32, graph_layers=1,
                      mdn_components=3, micro_layers=1, risk_gat_layers=1)
sched = tr.StageSchedule(epochs={"unimodal-pretrain": 2, "multimodal-align": 1,
                                 "joint-multitask": 8, "rl-finetune": 0})
print("training (2 pretrain + 1 align + 8 joint epochs)...")
run = tr.TrainingRun(ds, mcfg, tr.TrainingConfig(peak_lr=3e-3, warmup_steps=5),
                     schedule=sched, seed=0)
run.run_all()

print("\n== risk score over the test window ==")
risk = ev.predict_risk(ds, run.params, mcfg, "test")
dates = ds.splits["test"]
print("date score  bar                   next step")
for i in range(0, len(dates), 4):
    bar = "*" * int(round(20 * risk["score"][i]))
    truth = "CRISIS" if risk["crisis"][i] else "calm"
    flag = " <- warning" if risk["warning"][i] else ""
    print(f"{dates[i]:4d} {risk['score'][i]:.3f}  {bar:20s}  {truth}{flag}")

acc, f1, auc = mx.early_warning_metrics(risk["warning"], risk["crisis"],
                                        risk["score"])
print(f"\nearly warning on {len(dates)} test dates: "
      f"accuracy {mx.format_metric('warning.accuracy', acc)}  "
      f"f1 {mx.format_metric('warning.f1', f1)}  "
      f"roc_auc {mx.format_metric('warning.roc_auc', auc)}")

print("\n== per-institution contributions ==")
mean_contrib = risk["contributions"].mean(axis=0)
distress_rate = risk["node_distress"].mean(axis=0)
order = np.argsort(mean_contrib)[::-1]
for j in order[:4]:
    print(f"inst_{j:02d}: mean contribution {mean_contrib[j]:.3f}  "
          f"distress rate {distress_rate[j]:.2f}")

print("\n== bulletin at the hottest test date ==")
hot = int(dates[int(np.argmax(risk["score"]))])
bulletin = ev.bulletin_for_date(ds, run.params, mcfg, hot)
print(f"band={bulletin.band} score={bulletin.score:.3f} "
      f"top_nodes={bulletin.top_nodes}")
print("-" * 60)
print(bulletin.text)
print("-" * 60)

print("\nband boundaries (thirds of [0, 1]):",
      ", ".join(f"{s:.2f}->{heads.risk_band(s)}" for s in (0.2, 0.5, 0.8)))
