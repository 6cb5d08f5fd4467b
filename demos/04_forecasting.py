"""Distributional return forecasting with a mixture-density head.

Fused per-date states feed a causal decoder that emits a Gaussian mixture
per horizon step. Quantiles solve the mixture CDF by safeguarded Newton, so
the same trained head serves point, interval, and direction forecasts.
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

print("\n== one-step forecast for asset 0 at the first test date ==")
date = int(ds.splits["test"][0])
batch = ds.batch_arrays([(0, date)])


def forecast(k):
    """The raw-unit mixture for the return k steps past ``date``."""
    out = fm.forward_batch(batch, run.params, mcfg, heads=("micro",), horizon=k)
    return heads.micro_forecast(out["mdn_weights"].data, out["mdn_means"].data,
                                out["mdn_sigmas"].data, ds.norm)


fc = forecast(1)
print(f"mixture ({mcfg.mdn_components} components, raw return units):")
for k in range(mcfg.mdn_components):
    print(f"  w={fc['weights'][0, k]:.3f}  mu={fc['means'][0, k]:+.5f}  "
          f"sigma={fc['sigmas'][0, k]:.5f}")
down, flat, up = fc["direction_probs"][0]
print(f"point {fc['point'][0]:+.5f}   P(down)={down:.3f} P(flat)={flat:.3f} "
      f"P(up)={up:.3f}")
print(f"realized next return    {ds.y_next(0, date):+.5f}")

print("\n== multi-horizon rollout (point forecast fed back in) ==")
for k in (1, 3, 5):
    f_k = forecast(k)
    print(f"k={k}: point {f_k['point'][0]:+.5f}  P(up)={f_k['direction_probs'][0, 2]:.3f}")

print("\n== quantile calibration on the test split ==")
pairs = ds.sample_pairs("test")
tb = ds.batch_arrays(pairs)
out = fm.forward_batch(tb, run.params, mcfg, heads=("micro",))
w, m, s = out["mdn_weights"], out["mdn_means"], out["mdn_sigmas"]
for tau in (0.1, 0.5, 0.9):
    q = heads.mixture_quantile(w, m, s, tau).data
    cover = float(np.mean(tb["y"] <= q))
    print(f"tau={tau:.1f}: empirical coverage {cover:.3f}")
q10 = heads.mixture_quantile(w, m, s, 0.1).data
q90 = heads.mixture_quantile(w, m, s, 0.9).data
print("quantiles never cross:", bool(np.all(q10 <= q90)))

print("\n== test-split accuracy ==")
micro = ev.predict_micro(ds, run.params, mcfg, "test")
acc = mx.directional_accuracy(micro["pred"], micro["true"])
mape, excluded = mx.mape_with_exclusions(micro["true"], micro["pred"])
n = len(micro["true"])
print(f"directional accuracy {mx.format_metric('micro.directional_accuracy', acc)}"
      f"   mape {mx.format_metric('micro.mape', mape)} "
      f"(on {n - excluded}/{n} non-flat dates)")
