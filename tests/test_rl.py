"""Policy, reward shaping, environment semantics, and REINFORCE checked
against exact enumeration."""

import json

import numpy as np
import pytest

from finfusion import datapipe as dp
from finfusion import encoders as enc
from finfusion import fusion as fus
from finfusion import heads
from finfusion import model as model_mod
from finfusion import rl
from finfusion.autodiff import Tensor
from finfusion.errors import ContractError, DimensionError, NumericalError


def _policy_params(rng_or_values, d, n_actions):
    if isinstance(rng_or_values, np.random.Generator):
        w = rng_or_values.normal(scale=0.3, size=(d, n_actions))
        b = rng_or_values.normal(scale=0.1, size=n_actions)
    else:
        w, b = rng_or_values
    return {"policy.w": Tensor(np.asarray(w, dtype=np.float64), requires_grad=True),
            "policy.b": Tensor(np.asarray(b, dtype=np.float64), requires_grad=True)}


def _pinned(d, index, n=3):
    """A policy that picks action ``index``: in floats the others have
    probability below 1e-43, which no uniform draw resolves."""
    b = np.zeros(n)
    b[index] = 100.0
    return _policy_params((np.zeros((d, n)), b), d, n)


class _SteppedEnv:
    """``reset``, ``env_step`` and ``remaining`` over a ``DatasetEnv``'s
    tables, so that ``rollout`` steps it one action at a time, offering the
    positions of ``cfg``: the oracle for the array path."""

    def __init__(self, env, cfg):
        self.states, self.edge, self.stress = env.states, env.edge, env.stress
        self.cfg = cfg
        self.i = 0

    @property
    def remaining(self):
        return len(self.states) - 1 - self.i

    def reset(self, start=0):
        self.i = start
        return self.states[start]

    def env_step(self, action):
        action.require_in(self.cfg)
        profit = action.position * float(self.edge[self.i])
        r_sys = abs(action.position) * float(self.stress[self.i])
        self.i += 1
        return self.states[self.i], profit, r_sys


# ---------------------------------------------------------------------------
# policy distribution

def test_zero_weights_give_uniform():
    params = _policy_params((np.zeros((4, 3)), np.zeros(3)), 4, 3)
    probs = rl.policy(np.array([1.0, -2.0, 0.5, 3.0]), params)
    assert np.allclose(probs, 1 / 3)


def test_policy_sums_to_one():
    rng = np.random.default_rng(0)
    params = _policy_params(rng, 6, 3)
    for _ in range(30):
        p = rl.policy(rng.normal(size=6), params)
        assert abs(p.sum() - 1.0) < 1e-6
        assert np.all(p >= 0)


def test_policy_logit_shift_invariance():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(5, 3))
    b = rng.normal(size=3)
    z = rng.normal(size=5)
    p1 = rl.policy(z, _policy_params((w, b), 5, 3))
    p2 = rl.policy(z, _policy_params((w, b + 7.5), 5, 3))
    assert np.allclose(p1, p2, atol=1e-12)


def test_init_policy_params_has_one_output_per_position():
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    params = rl.init_policy_params(6, 4, rng)
    assert sorted(params) == ["policy.b", "policy.w"]
    assert params["policy.w"].data.tobytes() == enc.xavier(ref, 6, 4).data.tobytes()
    assert params["policy.b"].data.tolist() == [0.0] * 4
    assert params["policy.w"].requires_grad and params["policy.b"].requires_grad


def test_policy_dimension_mismatch():
    params = _policy_params((np.zeros((4, 3)), np.zeros(3)), 4, 3)
    with pytest.raises(DimensionError):
        rl.policy(np.zeros(5), params)


# ---------------------------------------------------------------------------
# reward and returns

def test_reward_penalty_off():
    assert rl.reward(5.0, 123.0, rl.RLConfig(alpha=1.0, beta=0.0)) == 5.0


def test_reward_hand_case():
    assert rl.reward(0.05, 0.1, rl.RLConfig(alpha=1.0, beta=2.0)) == pytest.approx(-0.15)


def test_reward_linearity_superposition():
    cfg = rl.RLConfig(alpha=1.3, beta=0.7)
    rng = np.random.default_rng(2)
    for _ in range(20):
        p1, p2, r1, r2 = rng.normal(size=4)
        lhs = rl.reward(p1 + p2, r1 + r2, cfg)
        rhs = rl.reward(p1, r1, cfg) + rl.reward(p2, r2, cfg)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_reward_decreasing_in_stress():
    cfg = rl.RLConfig(beta=0.5)
    assert rl.reward(0.0, 0.2, cfg) < rl.reward(0.0, 0.1, cfg)


def _traj(rewards, gamma_dim=2):
    t = len(rewards)
    return rl.Trajectory(states=np.zeros((t, gamma_dim)),
                         actions=np.zeros(t, dtype=int),
                         rewards=np.asarray(rewards, dtype=np.float64))


def test_discounted_return_cases():
    assert rl.discounted_return(_traj([3.0, 9.0, 27.0]), 0.0) == 3.0
    assert rl.discounted_return(_traj([1.0, 2.0]), 0.9) == pytest.approx(2.8)
    assert rl.discounted_return(_traj([0.0, 0.0, 0.0]), 0.99) == 0.0


def test_returns_to_go_recursion():
    rng = np.random.default_rng(3)
    r = rng.normal(size=12)
    g = rl.returns_to_go(r, 0.95)
    for t in range(11):
        assert g[t] == pytest.approx(r[t] + 0.95 * g[t + 1], abs=1e-12)
    assert g[0] == pytest.approx(rl.discounted_return(_traj(r), 0.95))


def test_trajectory_validation():
    with pytest.raises(ContractError):
        _traj([])
    with pytest.raises(DimensionError):
        rl.Trajectory(states=np.zeros((2, 3)), actions=np.zeros(3, dtype=int),
                      rewards=np.zeros(2))
    with pytest.raises(ContractError):
        _traj([np.inf])


def test_rl_config_validation():
    with pytest.raises(ContractError):
        rl.RLConfig(gamma=1.0)
    with pytest.raises(ContractError):
        rl.RLConfig(actions=())
    for actions in ((True, False), 1, (0.0, "1")):
        with pytest.raises(ContractError, match="actions must be"):
            rl.RLConfig(actions=actions)
    with pytest.raises(ContractError):
        rl.RLConfig(beta=-0.1)


def test_rl_config_charges_the_risk_head_by_default():
    assert rl.RLConfig().r_sys_source == "model"


# ---------------------------------------------------------------------------
# environment semantics, on the dataset environment over tiny_world

def _one_step(env, d, index, start):
    """One step of ``env`` from ``start`` under a policy pinned to action
    ``index`` of the default action set (-1, 0, 1)."""
    return rl.rollout(env, _pinned(d, index), rl.RLConfig(episode_length=1),
                      np.random.default_rng(0), start=start)


def test_flat_position_earns_nothing(tiny_world):
    ds, mcfg, params = tiny_world
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig())
    tr = _one_step(env, mcfg.d_model, 1, 0)
    assert tr.profits.tolist() == [0.0]
    assert tr.r_sys.tolist() == [0.0]


def test_long_position_tracks_next_return(tiny_world):
    ds, mcfg, params = tiny_world
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig())
    long = _one_step(env, mcfg.d_model, 2, 10)
    assert long.profits[0] == ds.returns[0, env.dates[10] + 1]
    short = _one_step(env, mcfg.d_model, 0, 10)
    assert short.profits[0] == -ds.returns[0, env.dates[10] + 1]


def test_env_identical_seed_identical_trace(tiny_world):
    ds, mcfg, params = tiny_world
    cfg = rl.RLConfig(episode_length=16)
    t1 = rl.rollout(rl.DatasetEnv(ds, params, mcfg, cfg), params, cfg,
                    np.random.default_rng(5))
    t2 = rl.rollout(rl.DatasetEnv(ds, params, mcfg, cfg), params, cfg,
                    np.random.default_rng(5))
    assert np.array_equal(t1.rewards, t2.rewards)
    assert np.array_equal(t1.actions, t2.actions)
    assert np.array_equal(t1.states, t2.states)


def test_rollout_respects_horizon_and_episode_cap(tiny_world):
    ds, mcfg, params = tiny_world
    cfg = rl.RLConfig(episode_length=10)
    env = rl.DatasetEnv(ds, params, mcfg, cfg)
    last = len(env.dates) - 1
    tr = rl.rollout(env, params, cfg, np.random.default_rng(0), start=last - 5)
    assert len(tr) == 5  # horizon-bound
    tr2 = rl.rollout(env, params, cfg, np.random.default_rng(0), start=0)
    assert len(tr2) == 10  # episode-length bound


@pytest.mark.parametrize("n_actions", [2, 3, 5])
def test_sampled_actions_match_rng_choice(n_actions):
    # seeded policies from near-uniform to nearly deterministic
    for seed in range(40):
        r = np.random.default_rng(seed)
        logits = r.normal(scale=(0.1, 1.0, 10.0, 40.0)[seed % 4], size=n_actions)
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [rl.sample_action(probs, mine) for _ in range(64)]
        want = [int(theirs.choice(n_actions, p=probs)) for _ in range(64)]
        assert got == want
        # each draw used exactly one uniform, as choice does
        assert mine.random() == theirs.random()


def test_non_finite_action_distribution_rejected():
    with pytest.raises(NumericalError):
        rl.sample_action(np.array([0.5, np.nan, 0.5]), np.random.default_rng(0))


def test_action_outside_set_rejected():
    cfg = rl.RLConfig()
    assert rl.Action(1.0).require_in(cfg).position == 1.0
    with pytest.raises(ContractError, match="not in action set"):
        rl.Action(2.0).require_in(cfg)


# ---------------------------------------------------------------------------
# REINFORCE

def test_zero_advantages_leave_params_unchanged():
    cfg = rl.RLConfig(gamma=0.0, actions=(-1.0, 1.0))
    params = _policy_params((np.full((2, 2), 0.3), np.zeros(2)), 2, 2)
    before_w = params["policy.w"].data.copy()
    # constant rewards at gamma 0: every G_t equals the mean, advantage 0
    trajs = [rl.Trajectory(states=np.ones((3, 2)), actions=[0, 1, 0],
                           rewards=[2.0, 2.0, 2.0])]
    rl.reinforce_update(trajs, params, cfg, lr=0.5)
    assert np.array_equal(params["policy.w"].data, before_w)


def test_non_finite_policy_gradient_leaves_params_unchanged():
    cfg = rl.RLConfig(actions=(-1.0, 1.0))
    params = _policy_params((np.ones((2, 2)), np.zeros(2)), 2, 2)
    before_w = params["policy.w"].data.copy()
    # finite states whose logits overflow, so the gradient is not finite
    trajs = [rl.Trajectory(states=np.full((2, 2), 1e308), actions=[0, 1],
                           rewards=[1.0, -1.0])]
    with pytest.raises(NumericalError, match="policy gradient"), \
            np.errstate(over="ignore", invalid="ignore"):
        rl.reinforce_update(trajs, params, cfg, lr=0.5)
    assert np.array_equal(params["policy.w"].data, before_w)


def test_empty_batch_rejected():
    cfg = rl.RLConfig()
    params = _policy_params((np.zeros((2, 3)), np.zeros(3)), 2, 3)
    with pytest.raises(ContractError):
        rl.reinforce_update([], params, cfg, lr=0.1)


def test_two_action_bandit_converges():
    # action 0 pays 1, action 1 pays 0; optimum is (almost) always action 0
    cfg = rl.RLConfig(gamma=0.0, actions=(-1.0, 1.0), episode_length=1)
    params = _policy_params((np.zeros((1, 2)), np.zeros(2)), 1, 2)
    rng = np.random.default_rng(8)
    state = np.array([[1.0]])
    for _ in range(500):
        batch = []
        for _ in range(8):
            p = rl.policy(state[0], params)
            a = int(rng.choice(2, p=p))
            batch.append(rl.Trajectory(states=state, actions=[a],
                                       rewards=[1.0 if a == 0 else 0.0]))
        rl.reinforce_update(batch, params, cfg, lr=0.2)
    assert rl.policy(state[0], params)[0] > 0.9


def _mdp_exact_gradient(w, b, R, gamma):
    """Exact expectation of the no-baseline REINFORCE estimator on the
    deterministic 2-state 2-action MDP, by path enumeration."""
    states = np.eye(2)

    def pi(s):
        logits = states[s] @ w + b
        e = np.exp(logits - logits.max())
        return e / e.sum()

    def nxt(s, a):
        return s if a == 0 else 1 - s

    gw = np.zeros_like(w)
    gb = np.zeros_like(b)
    for a0 in (0, 1):
        for a1 in (0, 1):
            s0 = 0
            s1 = nxt(s0, a0)
            prob = pi(s0)[a0] * pi(s1)[a1]
            r0, r1 = R[s0, a0], R[s1, a1]
            g0, g1 = r0 + gamma * r1, r1
            for s, a, g in ((s0, a0, g0), (s1, a1, g1)):
                delta = -pi(s)
                delta[a] += 1.0
                gw += prob * g * np.outer(states[s], delta)
                gb += prob * g * delta
    return gw, gb


def test_reinforce_gradient_matches_enumeration():
    w0 = np.array([[0.2, -0.1], [0.3, 0.4]])
    b0 = np.array([0.05, -0.02])
    R = np.array([[0.5, -0.2], [1.0, 0.1]])
    gamma = 0.9
    cfg = rl.RLConfig(gamma=gamma, actions=(-1.0, 1.0), episode_length=2)
    params = _policy_params((w0, b0), 2, 2)
    states = np.eye(2)
    rng = np.random.default_rng(10)

    n = 100_000
    # vectorized episode sampling, then exact replay through the estimator
    p0 = rl.policy(states[0], params)
    a0 = (rng.random(n) >= p0[0]).astype(int)
    s1 = np.where(a0 == 0, 0, 1)
    p_s = np.stack([rl.policy(states[0], params), rl.policy(states[1], params)])
    a1 = (rng.random(n) >= p_s[s1, 0]).astype(int)
    trajs = [
        rl.Trajectory(states=states[[0, s1[i]]], actions=[a0[i], a1[i]],
                      rewards=[R[0, a0[i]], R[s1[i], a1[i]]])
        for i in range(n)
    ]
    got = rl.reinforce_gradient(trajs, params, cfg, use_baseline=False)
    want_w, want_b = _mdp_exact_gradient(w0, b0, R, gamma)
    rel_w = np.linalg.norm(got["policy.w"] - want_w) / np.linalg.norm(want_w)
    rel_b = np.linalg.norm(got["policy.b"] - want_b) / np.linalg.norm(want_b)
    assert rel_w < 0.05, f"relative error {rel_w:.4f}"
    assert rel_b < 0.05, f"relative error {rel_b:.4f}"

    # the mean baseline shifts variance, not the expectation
    got_base = rl.reinforce_gradient(trajs, params, cfg, use_baseline=True)
    rel = np.linalg.norm(got_base["policy.w"] - want_w) / np.linalg.norm(want_w)
    assert rel < 0.05


# ---------------------------------------------------------------------------
# dataset environment and traces

@pytest.fixture(scope="module")
def tiny_world():
    from tests.test_encoders import tiny_cfg
    ds = dp.build_dataset(dp.SyntheticConfig(n_steps=260, n_assets=2,
                                             n_institutions=4, seed=21))
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(ds.vocab))
    rng = np.random.default_rng(0)
    params = model_mod.init_model_params(mcfg, rng)
    params.update(rl.init_policy_params(mcfg.d_model, 3, rng))
    return ds, mcfg, params


def test_dataset_env_profit_semantics(tiny_world):
    ds, mcfg, params = tiny_world
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig(), split="train")
    assert _one_step(env, mcfg.d_model, 2, 0).profits[0] == ds.y_next(0, env.dates[0])


def test_dataset_env_modes_differ(tiny_world):
    ds, mcfg, params = tiny_world
    base = dict(episode_length=6)
    rng = np.random.default_rng(11)
    t_truth = rl.rollout(rl.DatasetEnv(ds, params, mcfg,
                                       rl.RLConfig(r_sys_source="truth", **base)),
                         params, rl.RLConfig(r_sys_source="truth", **base),
                         np.random.default_rng(11))
    t_model = rl.rollout(rl.DatasetEnv(ds, params, mcfg,
                                       rl.RLConfig(r_sys_source="model", **base)),
                         params, rl.RLConfig(r_sys_source="model", **base),
                         np.random.default_rng(11))
    assert np.array_equal(t_truth.actions, t_model.actions)
    assert not np.allclose(t_truth.r_sys[t_truth.r_sys != 0],
                           t_model.r_sys[t_model.r_sys != 0])


def test_dataset_env_table_matches_batch1_forwards(tiny_world):
    ds, mcfg, params = tiny_world
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig(r_sys_source="model"))
    assert len(env.dates) > model_mod.EVAL_BATCH  # more than one chunk
    assert env.states.shape == (len(env.dates), mcfg.d_model)
    for i, t in enumerate(env.dates):
        out = model_mod.forward_batch(ds.batch_arrays([(0, t)]), params, mcfg)
        np.testing.assert_allclose(env.states[i], out["z"].data[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(env.risk[i], out["risk_score"].data[0],
                                   rtol=0, atol=1e-12)
    short = rl.rollout(env, _pinned(mcfg.d_model, 0), rl.RLConfig(episode_length=2),
                       np.random.default_rng(0), start=3)
    assert np.array_equal(short.states[1], env.states[4])
    assert short.r_sys[0] == env.risk[3]


def test_dataset_env_honours_modalities(tiny_world):
    ds, mcfg, params = tiny_world
    kinds = ("price", "text")
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig(), kinds=kinds)
    full = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig())
    zs = []
    for i in range(0, len(env.dates), model_mod.EVAL_BATCH):
        chunk = env.dates[i:i + model_mod.EVAL_BATCH]
        batch = ds.batch_arrays([(0, t) for t in chunk])
        embs = model_mod.embed_batch(batch, params, mcfg, kinds,
                                     enc.graph_keep(batch["graph_adj"]))
        assert list(embs) == list(kinds)
        zs.append(fus.fuse_batch(embs, params, mcfg)[0].data)
    assert np.array_equal(env.states, np.concatenate(zs))
    assert not np.allclose(env.states, full.states)


def test_dataset_env_runs_only_the_risk_head(tiny_world, monkeypatch):
    ds, mcfg, params = tiny_world

    def forbidden(*args, **kwargs):
        raise AssertionError("the env build ran the micro head")

    monkeypatch.setattr(heads, "micro_head_batch", forbidden)
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig())
    monkeypatch.undo()
    zs, risks = [], []
    for i in range(0, len(env.dates), model_mod.EVAL_BATCH):
        chunk = env.dates[i:i + model_mod.EVAL_BATCH]
        out = model_mod.forward_batch(ds.batch_arrays([(0, t) for t in chunk]),
                                      params, mcfg)
        zs.append(out["z"].data)
        risks.append(out["risk_score"].data)
    assert env.states.tobytes() == np.concatenate(zs).tobytes()
    assert env.risk.tobytes() == np.concatenate(risks).tobytes()


def test_trace_export_roundtrip(tiny_world, tmp_path):
    ds, mcfg, params = tiny_world
    cfg = rl.RLConfig(episode_length=8)
    env = rl.DatasetEnv(ds, params, mcfg, cfg)
    trajs = [rl.rollout(env, params, cfg, np.random.default_rng(i), start=0)
             for i in range(3)]
    path = tmp_path / "traces.jsonl"
    rl.export_traces(trajs, str(path), cfg)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["length"] == 8
    assert len(rec["steps"]) == 8
    assert rec["return"] == pytest.approx(rl.discounted_return(trajs[0], cfg.gamma))
    assert {"t", "position", "reward", "profit", "r_sys"} <= set(rec["steps"][0])


@pytest.mark.parametrize("source", ["truth", "model"])
def test_dataset_rollout_equals_the_stepping_loop(tiny_world, source):
    ds, mcfg, backbone = tiny_world
    cfg = rl.RLConfig(episode_length=12, r_sys_source=source)
    env = rl.DatasetEnv(ds, backbone, mcfg, cfg)
    # both paths read these tables, so they are checked against the dataset
    steppable = env.dates[:-1]
    want_stress = (env.risk[:-1] if source == "model"
                   else [ds.node_stress[t + 1].mean() for t in steppable])
    assert env.edge.tolist() == [ds.y_next(0, t) for t in steppable]
    assert env.stress.tolist() == list(want_stress)
    stepped = _SteppedEnv(env, cfg)
    last = len(env.dates) - 1
    # starts capped by episode_length (0, 5) and by the horizon (last - 7, last - 1)
    starts = (0, 5, last - 7, last - 1)
    seen = set()
    for seed in range(60):
        # from near-uniform to nearly deterministic policies
        scale = (0.1, 1.0, 5.0)[seed % 3]
        params = _policy_params(np.random.default_rng(1000 + seed), mcfg.d_model, 3)
        params["policy.w"].data *= scale / 0.3
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            # the start drawn between episodes, as policy_epoch draws it
            start = starts[int(fast_rng.integers(0, len(starts)))]
            assert starts[int(slow_rng.integers(0, len(starts)))] == start
            fast = rl.rollout(env, params, cfg, fast_rng, start=start)
            slow = rl.rollout(stepped, params, cfg, slow_rng, start=start)
            assert len(slow) == min(12, last - start)
            for field in ("actions", "rewards", "profits", "r_sys", "states"):
                a, b = getattr(fast, field), getattr(slow, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
            seen.update(fast.actions.tolist())
        assert fast_rng.random() == slow_rng.random()
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("where", ["before the first date", "at the last date"])
def test_dataset_rollout_rejects_a_start_with_no_step(tiny_world, where):
    ds, mcfg, params = tiny_world
    cfg = rl.RLConfig(episode_length=6)
    env = rl.DatasetEnv(ds, params, mcfg, cfg)
    start = -1 if where == "before the first date" else len(env.dates) - 1
    with pytest.raises(ContractError, match="episode start out of range"):
        rl.rollout(env, params, cfg, np.random.default_rng(0), start=start)
    # the last steppable date still rolls one step
    assert len(rl.rollout(env, params, cfg, np.random.default_rng(0),
                          start=len(env.dates) - 2)) == 1


def test_dataset_rollout_rejects_a_non_finite_policy(tiny_world):
    ds, mcfg, params = tiny_world
    cfg = rl.RLConfig(episode_length=6)
    env = rl.DatasetEnv(ds, params, mcfg, cfg)
    bad = _policy_params((np.zeros((mcfg.d_model, 3)), np.zeros(3)), mcfg.d_model, 3)
    bad["policy.w"].data[0, 1] = np.nan  # as diverged weights would be
    for target in (env, _SteppedEnv(env, cfg)):
        with pytest.raises(NumericalError, match="non-finite action distribution"):
            rl.rollout(target, bad, cfg, np.random.default_rng(0), start=0)


def test_rollout_rejects_a_position_outside_the_env_action_set(tiny_world):
    ds, mcfg, params = tiny_world
    env = rl.DatasetEnv(ds, params, mcfg, rl.RLConfig(episode_length=6))
    stepped = _SteppedEnv(env, rl.RLConfig(episode_length=6))
    cfg = rl.RLConfig(episode_length=6, actions=(-1.0, 0.0, 2.0))
    # a policy that always picks position 2.0, which the env does not offer
    with pytest.raises(ContractError, match="not in action set"):
        rl.rollout(stepped, _pinned(mcfg.d_model, 2), cfg, np.random.default_rng(0),
                   start=0)
