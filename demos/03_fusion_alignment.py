"""Fusing four modality encoders into one representation.

Each encoder maps its input to a d_model vector. Fusion stacks the four
vectors, adds learned type embeddings, runs one transformer layer with a
presence mask, and attention-pools into z. Contrastive alignment (InfoNCE
over price-anchored pairs) pulls same-date embeddings together before the
joint stage trains the heads.
"""

import numpy as np

import finfusion.datapipe as dp
import finfusion.encoders as enc
import finfusion.fusion as fus
import finfusion.model as fm
import finfusion.training as tr

scfg = dp.SyntheticConfig(n_steps=260, n_assets=2, n_institutions=6, seed=5)
ds = dp.build_dataset(scfg)
mcfg = fm.ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                      macro_group_dim=4, macro_hidden=32, graph_layers=1,
                      mdn_components=3, micro_layers=1, risk_gat_layers=1)
sched = tr.StageSchedule(epochs={"unimodal-pretrain": 1, "multimodal-align": 20,
                                 "joint-multitask": 0, "rl-finetune": 0})
# all three price-anchored pairs (a run aligns price with text alone by default)
align = fus.AlignConfig(pairs=(("price", "text"), ("price", "macro"), ("price", "graph")))
run = tr.TrainingRun(ds, mcfg, tr.TrainingConfig(peak_lr=5e-3, warmup_steps=5),
                     schedule=sched, align_cfg=align, seed=0)

pairs = [(0, t) for t in ds.splits["train"][:32]]
batch = ds.batch_arrays(pairs)

def unit(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)

def cosine_gap(za, zb):
    """Mean same-date cosine minus mean cross-date cosine."""
    s = unit(za) @ unit(zb).T
    n = s.shape[0]
    matched = np.trace(s) / n
    mismatched = (s.sum() - np.trace(s)) / (n * n - n)
    return matched, mismatched

def report(tag):
    embs = fm.embed_batch(batch, run.params, mcfg, fus.MODALITIES,
                          enc.graph_keep(batch["graph_adj"]))
    for a, b in run.align_cfg.pairs:
        m, x = cosine_gap(embs[a].data, embs[b].data)
        print(f"{tag}  {a}/{b:6s} matched {m:+.3f}  mismatched {x:+.3f}  "
              f"gap {m - x:+.3f}")

print("== same-date vs cross-date cosine, random init ==")
report("before")

run.run_stage("unimodal-pretrain")
rep = run.run_stage("multimodal-align")
print("\n== align-stage InfoNCE per epoch (every 4th) ==")
print(np.round(rep.losses["align"][::4], 3))

print("\n== after 20 alignment epochs ==")
report("after ")
print("price/text and price/macro embeddings now co-locate by date;")
print("the graph encoder varies little across dates in a 6-bank world")

print("\n== fusion weights track which modalities are present ==")
subsets = [fus.MODALITIES, ("price", "text"), ("price", "graph"), ("macro",)]
z_by_subset = {}
for kinds in subsets:
    out = fm.forward_batch(batch, run.params, mcfg, kinds, heads=())
    z_by_subset[kinds] = out["z"].data
    cells = "  ".join(f"{k}={w:.2f}" for k, w in
                      zip(fus.MODALITIES, out["fuse_weights"].mean(axis=0)))
    print(f"{'+'.join(kinds):24s} {cells}")
print("absent slots get exact zero weight; the rest renormalize")

full = z_by_subset[fus.MODALITIES]
pt = z_by_subset[("price", "text")]
sims = [fus.similarity(full[i], pt[i]) for i in range(len(pairs))]
print(f"\ncosine(z_all, z_price+text) per date: "
      f"mean {np.mean(sims):.3f}, min {np.min(sims):.3f}")
