"""Risk-aware reinforcement learning: softmax policy over positions, reward
shaping that charges systemic-stress exposure against profit, and REINFORCE
with a mean-return baseline.

The policy gradient here is deliberately the simplest estimator whose
correctness can be verified by exact enumeration on a toy MDP.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from . import fusion as fus
from . import model as model_mod
from .autodiff import Tensor
from .errors import (ContractError, DimensionError, NumericalError, check_number,
                     check_numbers)

DEFAULT_ACTIONS = (-1.0, 0.0, 1.0)


@dataclass
class RLConfig:
    """Reward and rollout knobs.

    ``actions`` are the positions the policy picks from, one per output.
    r_sys_source picks where the stress penalty comes from: "model" reads
    the trained risk head (the closed feedback loop), "truth" the
    environment's ground-truth stress variable.
    """

    alpha: float = 1.0
    beta: float = 0.5
    gamma: float = 0.99
    episode_length: int = 64
    actions: tuple = DEFAULT_ACTIONS
    r_sys_source: str = "model"

    def __post_init__(self):
        check_numbers("actions", self.actions)
        self.actions = tuple(float(a) for a in self.actions)
        check_number("alpha", self.alpha, 0)
        check_number("beta", self.beta, 0)
        check_number("gamma", self.gamma, 0)
        if self.gamma >= 1:
            raise ContractError(f"gamma must be below 1, got {self.gamma!r}")
        if not self.actions:
            raise ContractError("action set must be nonempty")
        check_number("episode_length", self.episode_length, 1, integral=True)
        if self.r_sys_source not in ("truth", "model"):
            raise ContractError("r_sys_source must be 'truth' or 'model'")


def init_policy_params(d_model: int, n_actions: int, rng: np.random.Generator) -> dict:
    """The policy leaves over a d_model state for ``n_actions`` positions:
    xavier weights and zero biases."""
    return {"policy.w": enc.xavier(rng, d_model, n_actions),
            "policy.b": Tensor(np.zeros(n_actions), requires_grad=True)}


@dataclass(frozen=True)
class Action:
    position: float

    def require_in(self, cfg: RLConfig):
        if self.position not in cfg.actions:
            raise ContractError(f"position {self.position} not in action set {cfg.actions}")
        return self


@dataclass
class Trajectory:
    """One episode: states are the policy inputs, actions are indices into
    the configured action set. profits and r_sys are kept alongside the
    shaped rewards so risk exposure stays inspectable after the fact."""

    states: np.ndarray   # (T, d)
    actions: np.ndarray  # (T,) int
    rewards: np.ndarray  # (T,)
    profits: np.ndarray | None = None
    r_sys: np.ndarray | None = None
    terminal: bool = True

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.float64)
        self.actions = np.asarray(self.actions, dtype=np.int64)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        t = self.rewards.size
        if self.states.ndim != 2 or self.states.shape[0] != t or self.actions.shape != (t,):
            raise DimensionError("trajectory fields disagree on length")
        if t < 1:
            raise ContractError("trajectory must contain at least one step")
        if not np.all(np.isfinite(self.rewards)):
            raise ContractError("rewards must be finite")

    def __len__(self) -> int:
        return int(self.rewards.size)


def policy(z, params) -> np.ndarray:
    """Action distribution softmax(W_a z + b) as a plain probability vector."""
    w, b = params["policy.w"].data, params["policy.b"].data
    zv = z.data if isinstance(z, Tensor) else np.asarray(z, dtype=np.float64)
    zv = zv.reshape(-1)
    if zv.shape[0] != w.shape[0]:
        raise DimensionError(f"state dim {zv.shape[0]} vs policy dim {w.shape[0]}")
    logits = zv @ w + b
    logits = logits - logits.max()
    e = np.exp(logits)
    return e / e.sum()


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an action index from ``probs``, as ``rng.choice(len(probs),
    p=probs)`` does: the same single uniform draw, the same index, without
    that call's validation overhead.

    A non-finite distribution (from diverged policy weights) raises
    NumericalError instead of sampling.
    """
    cdf = probs.cumsum()
    if not math.isfinite(cdf[-1]):
        raise NumericalError("non-finite action distribution")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def reward(profit, r_sys, cfg: RLConfig):
    """alpha * profit - beta * r_sys, exactly, of numbers or of arrays
    (elementwise)."""
    profit, r_sys = np.asarray(profit, dtype=np.float64), np.asarray(r_sys, dtype=np.float64)
    if not (np.isfinite(profit).all() and np.isfinite(r_sys).all()):
        raise ContractError("reward inputs must be finite")
    return cfg.alpha * profit - cfg.beta * r_sys


def discounted_return(traj: Trajectory, gamma: float) -> float:
    """Sum of gamma^t r_t over the episode."""
    t = np.arange(len(traj))
    return float(np.sum(traj.rewards * gamma ** t))


def returns_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """G_t = r_t + gamma * G_{t+1}, computed backwards."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


# ---------------------------------------------------------------------------
# environments

class DatasetEnv:
    """Rollout environment over an aligned dataset through a trained model:
    read-only tables of asset 0's dates in one split.

    States are the fused representations the backbone produces for each
    date; profit uses the raw next-step return. Stress comes from the
    dataset's ``stress_next`` label or the risk head's current assessment,
    as ``rl_cfg.r_sys_source`` says, scaled by position exposure.

    The env snapshots the backbone when it is built: one
    ``model.forward_chunks`` pass computes the z and risk score of every date
    in the split, with its next return and stress label, fusing only the
    modalities in ``kinds``, so a state does not depend on which dates an
    episode visits. Only ``policy.*`` may move while the env is in use;
    callers that move the backbone build a new env.

    Nor does a state depend on the actions taken: step i always moves to
    ``states[i + 1]``, earns ``position * edge[i]`` and is charged
    ``|position| * stress[i]``, so ``rollout`` reads a whole episode of
    this env from the tables; it has no cursor to step.
    """

    def __init__(self, dataset, params: dict, model_cfg, rl_cfg: RLConfig,
                 split: str = "train", kinds=fus.MODALITIES):
        self.dates = list(dataset.splits[split])
        if len(self.dates) < 2:
            raise ContractError(f"split '{split}' too short for an episode")
        out = model_mod.forward_chunks(
            dataset, [(0, t) for t in self.dates], params, model_cfg,
            kinds=kinds, heads=("risk",), labels=("y_raw", "stress_next"))
        self.states, self.risk = out["z"], out["risk_score"]
        # per steppable date (all but the last): the next return, and the
        # stress charge of the configured source
        self.edge = out["y_raw"][:-1]
        self.stress = out["risk_score" if rl_cfg.r_sys_source == "model"
                          else "stress_next"][:-1]


def rollout(env, params: dict, cfg: RLConfig, rng: np.random.Generator,
            start: int = 0) -> Trajectory:
    """Sample one episode from the policy; length is capped by both the
    configured episode length and the environment horizon.

    A ``DatasetEnv`` episode is read from its tables: its states do not
    depend on the actions, so the whole episode's policy is one product,
    each array computed in the order ``policy`` and ``sample_action`` use
    per row. Any other env with ``reset``, ``env_step`` and ``remaining`` is
    stepped one action at a time. Both draw the same uniforms and charge
    one ``reward`` over the episode's arrays; the product's logits can
    differ from one-row ones in the last bit, which moves an action only if
    a uniform lands that close to a CDF edge.
    """
    if isinstance(env, DatasetEnv):
        if not 0 <= start < len(env.edge):
            raise ContractError("episode start out of range")
        steps = min(cfg.episode_length, len(env.edge) - start)
        states = env.states[start:start + steps]
        w, b = params["policy.w"].data, params["policy.b"].data
        if states.shape[1] != w.shape[0]:
            raise DimensionError(f"state dim {states.shape[1]} vs policy dim {w.shape[0]}")
        logits = states @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        cdf = (e / e.sum(axis=1, keepdims=True)).cumsum(axis=1)
        if not np.isfinite(cdf[:, -1]).all():
            raise NumericalError("non-finite action distribution")
        cdf /= cdf[:, -1:]
        # the number of CDF entries <= u is searchsorted(u, side="right")
        actions = (cdf <= rng.random(steps)[:, None]).sum(axis=1)
        positions = np.asarray(cfg.actions)[actions]
        profits = positions * env.edge[start:start + steps]
        r_sys = np.abs(positions) * env.stress[start:start + steps]
    else:
        state = env.reset(start)
        steps = min(cfg.episode_length, env.remaining)
        if steps < 1:
            raise ContractError("no room left for a single step")
        states, actions, profits, r_sys = [], [], [], []
        for _ in range(steps):
            a_idx = sample_action(policy(state, params), rng)
            next_state, profit, stress = env.env_step(Action(cfg.actions[a_idx]))
            states.append(state)
            actions.append(a_idx)
            profits.append(profit)
            r_sys.append(stress)
            state = next_state
        profits, r_sys = np.asarray(profits), np.asarray(r_sys)
    return Trajectory(states=states, actions=actions,
                      rewards=reward(profits, r_sys, cfg), profits=profits, r_sys=r_sys)


# ---------------------------------------------------------------------------
# policy gradient

def reinforce_gradient(trajectories, params: dict, cfg: RLConfig,
                       use_baseline: bool = True) -> dict:
    """Ascent gradient of the REINFORCE objective for the policy leaves.

    Per trajectory: sum_t grad log pi(a_t | z_t) * (G_t - b), averaged over
    the batch. b is the mean of every G_t in the batch; disabling it gives
    the plain estimator whose expectation an enumeration oracle can match.
    """
    trajectories = list(trajectories)
    if not trajectories:
        raise ContractError("at least one trajectory required")
    all_g = [returns_to_go(tr.rewards, cfg.gamma) for tr in trajectories]
    baseline = float(np.mean(np.concatenate(all_g))) if use_baseline else 0.0

    w, b = params["policy.w"], params["policy.b"]
    states = np.concatenate([tr.states for tr in trajectories], axis=0)
    acts = np.concatenate([tr.actions for tr in trajectories])
    adv = np.concatenate(all_g) - baseline
    one_hot = np.zeros((acts.size, w.shape[1]))
    one_hot[np.arange(acts.size), acts] = 1.0

    with ad.Tape() as tape:
        logits = ad.linear(Tensor(states), w, b)
        log_probs = logits - ad.reshape(ad.logsumexp(logits, axis=-1), (acts.size, 1))
        picked = ad.reduce_sum(log_probs * Tensor(one_hot), axis=-1)
        # negative sign: backward computes a descent direction on the
        # surrogate, so the ascent gradient is the stored negation
        surrogate = ad.reduce_sum(picked * Tensor(adv)) * (-1.0 / len(trajectories))
        w.zero_grad()
        b.zero_grad()
        ad.backward(surrogate, tape)
    return {"policy.w": -w.grad.copy(), "policy.b": -b.grad.copy()}


def reinforce_update(trajectories, params: dict, cfg: RLConfig, lr: float) -> dict:
    """One ascent step on the policy leaves, in place. Returns the gradient
    actually applied (useful for monitoring)."""
    grad = reinforce_gradient(trajectories, params, cfg)
    for name, g in grad.items():
        ad.require_finite(g, f"policy gradient {name}")
    for name, g in grad.items():
        params[name].data += lr * g
    return grad


def policy_epoch(env, params: dict, cfg: RLConfig, rng: np.random.Generator,
                 episodes: int, lr: float):
    """``episodes`` rollouts from random starts in ``env``, then one
    ``reinforce_update`` over them. Returns (trajectories, their mean
    discounted return)."""
    span = max(1, len(env.dates) - 1 - cfg.episode_length)
    trajs = [rollout(env, params, cfg, rng, start=int(rng.integers(0, span)))
             for _ in range(episodes)]
    reinforce_update(trajs, params, cfg, lr)
    return trajs, float(np.mean([discounted_return(t, cfg.gamma) for t in trajs]))


# ---------------------------------------------------------------------------
# trace export

def export_traces(trajectories, path: str, cfg: RLConfig) -> None:
    """One JSON record per episode, steps spelled out for inspection."""
    with open(path, "w") as fh:
        for i, tr in enumerate(trajectories):
            rec = {
                "episode": i,
                "length": len(tr),
                "return": discounted_return(tr, cfg.gamma),
                "terminal": bool(tr.terminal),
                "steps": [
                    {
                        "t": t,
                        "position": cfg.actions[tr.actions[t]],
                        "reward": float(tr.rewards[t]),
                        "profit": None if tr.profits is None else float(tr.profits[t]),
                        "r_sys": None if tr.r_sys is None else float(tr.r_sys[t]),
                    }
                    for t in range(len(tr))
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
