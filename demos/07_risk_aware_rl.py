"""Risk-aware position policies under the shaped reward alpha*profit - beta*r_sys.

beta is the price of systemic-stress exposure. In a world where trading
carries a visible edge but stress episodes charge the book, sweeping beta
moves the learned policy from fully invested through selective to flat.
"""

import json
import os
import tempfile

import numpy as np

import finfusion.datapipe as dp
import finfusion.model as fm
import finfusion.rl as rl
import finfusion.training as tr


class TwoChargeWorld:
    """Markov calm/stress regimes; trading earns a 1 percent edge every step.

    In stress, holding a position costs r_sys of either 0.8 or 3.0 percent,
    drawn independently each step. So the book that maximizes the shaped
    reward depends on beta: trade always, skip only the big charges, or go
    flat whenever stress is on.
    """

    STATE_DIM = 2
    EDGE = 1.0
    CHARGES = (0.8, 3.0)

    def __init__(self, cfg: rl.RLConfig, seed: int, n_steps: int = 4000):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        regime = np.zeros(n_steps, dtype=bool)
        for t in range(1, n_steps):
            p = 0.1 if not regime[t - 1] else 0.9
            regime[t] = rng.uniform() < p
        sign = rng.choice((-1.0, 1.0), size=n_steps)
        self.signal = sign * self.EDGE
        self.stress = np.where(regime, rng.choice(self.CHARGES, size=n_steps), 0.0)
        self.regime = regime
        self.t = 0

    @property
    def remaining(self):
        return self.signal.size - 1 - self.t

    def _state(self):
        return np.array([self.signal[self.t], self.stress[self.t]])

    def reset(self, start: int = 0):
        self.t = start
        return self._state()

    def env_step(self, action: rl.Action):
        action.require_in(self.cfg)
        profit = action.position * self.signal[self.t]
        r_sys = abs(action.position) * self.stress[self.t]
        self.t += 1
        return self._state(), profit, r_sys


def train_policy(beta: float, seed: int = 0, updates: int = 400):
    cfg = rl.RLConfig(alpha=1.0, beta=beta, gamma=0.0, episode_length=32,
                      actions=(-1.0, 0.0, 1.0))
    env = TwoChargeWorld(cfg, seed=123)
    params = {"policy.w": rl.Tensor(np.zeros((2, 3)), requires_grad=True),
              "policy.b": rl.Tensor(np.zeros(3), requires_grad=True)}
    rng = np.random.default_rng(seed)
    for _ in range(updates):
        starts = rng.integers(0, env.signal.size - cfg.episode_length - 1, size=8)
        trajs = [rl.rollout(env, params, cfg, rng, start=int(s)) for s in starts]
        rl.reinforce_update(trajs, params, cfg, lr=0.3)
    return env, params, cfg


print("== reward shaping ==")
for beta in (0.0, 0.5, 2.0):
    cfg = rl.RLConfig(alpha=1.0, beta=beta, gamma=0.0)
    print(f"beta={beta}: reward(profit=1.0, r_sys=0.8) = "
          f"{rl.reward(1.0, 0.8, cfg):+.2f}   "
          f"reward(profit=1.0, r_sys=3.0) = {rl.reward(1.0, 3.0, cfg):+.2f}")

print("\n== the policy beta buys (greedy actions after REINFORCE) ==")
print("beta  calm-exposure  stress-exposure  small-charge  big-charge")
for beta in (0.0, 0.5, 2.0):
    env, params, cfg = train_policy(beta)
    acts = np.array(cfg.actions)
    pos = np.empty(env.signal.size)
    for t in range(env.signal.size):
        env.t = t
        pos[t] = acts[int(np.argmax(rl.policy(env._state(), params)))]
    expo = np.abs(pos)
    small = env.stress == env.CHARGES[0]
    big = env.stress == env.CHARGES[1]
    print(f"{beta:4.1f}  {expo[~env.regime].mean():13.3f}  "
          f"{expo[env.regime].mean():15.3f}  {expo[small].mean():12.3f}  "
          f"{expo[big].mean():10.3f}")
print("beta=0 trades everything, beta=0.5 skips only the 3.0-sized charges,")
print("beta=2 goes flat in stress; the calm-market edge is always taken")

print("\n== rolling the trained backbone as an environment ==")
scfg = dp.SyntheticConfig(n_steps=400, n_assets=2, n_institutions=8,
                          signal_strength=0.8, seed=0)
ds = dp.build_dataset(scfg)
mcfg = fm.ModelConfig(d_model=16, n_heads=2, n_layers=1, d_ff=32,
                      macro_group_dim=4, macro_hidden=32, graph_layers=1,
                      mdn_components=3, micro_layers=1, risk_gat_layers=1)
sched = tr.StageSchedule(epochs={"unimodal-pretrain": 2, "multimodal-align": 1,
                                 "joint-multitask": 8, "rl-finetune": 0})
run = tr.TrainingRun(ds, mcfg, tr.TrainingConfig(peak_lr=3e-3, warmup_steps=5),
                     schedule=sched, seed=0)
run.run_all()

rng = np.random.default_rng(0)
for source in ("truth", "model"):
    cfg = rl.RLConfig(alpha=1.0, beta=0.5, gamma=0.99, episode_length=16,
                      r_sys_source=source)
    env = rl.DatasetEnv(ds, run.params, mcfg, cfg, split="test")
    trajs = [rl.rollout(env, run.params, cfg, rng, start=s) for s in (0, 16, 32)]
    pen = np.mean([t.r_sys.mean() for t in trajs])
    prof = np.mean([t.profits.sum() for t in trajs])
    print(f"r_sys_source={source:5s}: mean stress charge/step {pen:.4f}  "
          f"profit/episode {prof:+.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "traces.jsonl")
    rl.export_traces(trajs, path, cfg)
    with open(path) as fh:
        first = json.loads(fh.readline())
print(f"\nexported {len(trajs)} episodes to JSONL; record keys {sorted(first)}")
print("first step of episode 0:", first["steps"][0])
