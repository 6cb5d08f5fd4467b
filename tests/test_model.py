"""The shared forward pass: encoders, fusion and the requested task heads."""

import numpy as np
import pytest

from finfusion import datapipe as dp
from finfusion import encoders as enc
from finfusion import fusion as fus
from finfusion import heads as task_heads
from finfusion import model as fm
from finfusion.autodiff import Tensor
from finfusion.errors import ConfigError, DegenerateInputError, NumericalError
from tests.test_encoders import tiny_cfg

HEAD_KEYS = {
    "micro": ("mdn_weights", "mdn_means", "mdn_sigmas"),
    "risk": ("risk_score", "contributions"),
}


@pytest.fixture(scope="module")
def world():
    ds = dp.build_dataset(dp.SyntheticConfig(n_steps=170, n_assets=2,
                                             n_institutions=4, seed=21))
    mcfg = tiny_cfg(price_features=12,
                    graph_features=len(dp.GRAPH_FEATURE_NAMES),
                    vocab_size=len(ds.vocab))
    params = fm.init_model_params(mcfg, np.random.default_rng(0))
    batch = ds.batch_arrays([(a, t) for t in ds.splits["train"][:5] for a in (0, 1)])
    return batch, mcfg, params, ds


def _bytes(x):
    return np.asarray(getattr(x, "data", x)).tobytes()


def test_forward_batch_default_matches_hand_assembly(world):
    batch, mcfg, params, _ = world
    embs = {
        "price": enc.encode_price_batch(batch["price"], params, mcfg),
        "text": enc.encode_text_batch(batch["tokens"], batch["tok_len"], params, mcfg),
        "macro": enc.encode_macro_batch(batch["macro"], params, mcfg),
        "graph": enc.encode_graph_batch(batch["graph_feats"],
                                        enc.graph_keep(batch["graph_adj"]),
                                        params, mcfg),
    }
    z, _ = fus.fuse_batch(embs, params, mcfg)
    out = fm.forward_batch(batch, params, mcfg)
    assert out["z"].data.tobytes() == z.data.tobytes()


@pytest.mark.parametrize("heads", [(), ("micro",), ("risk",)],
                         ids=["no-heads", "micro", "risk"])
def test_forward_batch_head_subset_matches_default(world, heads):
    batch, mcfg, params, _ = world
    full = fm.forward_batch(batch, params, mcfg)
    part = fm.forward_batch(batch, params, mcfg, heads=heads)
    shared = {"z", "embs", "fuse_weights"}
    assert set(full) == shared | {k for keys in HEAD_KEYS.values() for k in keys}
    assert set(part) == shared | {k for h in heads for k in HEAD_KEYS[h]}
    for key in set(part) - {"embs"}:
        assert _bytes(part[key]) == _bytes(full[key]), key
    assert list(part["embs"]) == list(fus.MODALITIES)
    for kind, emb in part["embs"].items():
        assert _bytes(emb) == _bytes(full["embs"][kind]), kind


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 5])
def test_forward_batch_horizon_rolls_the_micro_head_from_z(world, horizon):
    # the mixture for the return `horizon` steps ahead is the decoder rolled
    # from each row's fused state as a length-1 history
    batch, mcfg, params, _ = world
    out = fm.forward_batch(batch, params, mcfg, heads=("micro",), horizon=horizon)
    z = out["z"].data
    want = task_heads.micro_head_batch(Tensor(z[:, None, :]), params, mcfg, horizon)
    for key, w in zip(HEAD_KEYS["micro"], want):
        assert out[key].data.tobytes() == w.data.tobytes(), key
    if horizon == 1:
        default = fm.forward_batch(batch, params, mcfg, heads=("micro",))
        for key in HEAD_KEYS["micro"]:
            assert out[key].data.tobytes() == default[key].data.tobytes(), key


def test_adjacency_view_gives_the_same_bits_as_a_copy(world):
    batch, mcfg, params, _ = world
    assert not batch["graph_adj"].flags.writeable
    copied = dict(batch, graph_adj=batch["graph_adj"].copy())
    assert copied["graph_adj"].flags.writeable
    view_out = fm.forward_batch(batch, params, mcfg)
    copy_out = fm.forward_batch(copied, params, mcfg)
    for key in ("risk_score", "contributions", "z"):
        assert _bytes(view_out[key]) == _bytes(copy_out[key]), key
    assert _bytes(view_out["embs"]["graph"]) == _bytes(copy_out["embs"]["graph"])


def test_forward_batch_rejects_non_finite_outputs(world):
    batch, mcfg, params, _ = world
    poisoned = dict(params, **{"risk.node.w": Tensor(params["risk.node.w"].data)})
    poisoned["risk.node.w"].data[...] = np.nan
    with pytest.raises(NumericalError, match="forward output"):
        fm.forward_batch(batch, poisoned, mcfg, heads=("risk",))


@pytest.mark.parametrize("heads", [("micro",), ("risk",)], ids=["micro", "risk"])
def test_forward_chunks_concatenates_the_chunked_forwards(world, heads):
    _, mcfg, params, ds = world
    pairs = ds.sample_pairs("train")
    assert len(pairs) > 2 * fm.EVAL_BATCH  # a partial last chunk
    labels = ("y_raw", "stress_next")
    got = fm.forward_chunks(ds, pairs, params, mcfg, kinds=("price", "graph"),
                            heads=heads, labels=labels)
    want = {}
    for i in range(0, len(pairs), fm.EVAL_BATCH):
        batch = ds.batch_arrays(pairs[i:i + fm.EVAL_BATCH])
        out = fm.forward_batch(batch, params, mcfg, kinds=("price", "graph"), heads=heads)
        for name in ("z",) + tuple(k for h in heads for k in HEAD_KEYS[h]):
            want.setdefault(name, []).append(out[name].data)
        for name in labels:
            want.setdefault(name, []).append(batch[name])
    # the pass scores each date once, on its first row, which the per-chunk
    # forwards above scored along with every other row
    first = fm.date_first_rows(pairs)
    assert len(first) == len(ds.splits["train"]) < len(pairs)
    assert set(got) == set(want)
    for name, parts in want.items():
        full = np.concatenate(parts)
        if name in HEAD_KEYS["risk"]:
            full = full[first]
        assert got[name].dtype == full.dtype, name
        assert got[name].tobytes() == full.tobytes(), name


def test_forward_chunks_scores_no_row_of_a_chunk_that_starts_no_date(world,
                                                                      monkeypatch, spy):
    # one-row chunks: asset 0's chunk of each date scores the date, and
    # asset 1's chunk scores zero rows
    _, mcfg, params, ds = world
    monkeypatch.setattr(fm, "EVAL_BATCH", 1)
    dates, pairs = ds.splits["val"], ds.sample_pairs("val")
    scored = spy(fm.task_heads, "macro_risk_batch")
    got = fm.forward_chunks(ds, pairs, params, mcfg, heads=("risk",))
    assert [c.args[0].shape[0] for c in scored] == [int(a == 0) for a, _ in pairs]
    for i, t in enumerate(dates):
        want = fm.forward_batch(ds.batch_arrays([(0, t)]), params, mcfg, heads=("risk",))
        for name in HEAD_KEYS["risk"]:
            assert got[name][i].tobytes() == want[name].data[0].tobytes(), (name, t)
    assert got["risk_score"].shape == (len(dates),)
    assert got["z"].shape[0] == len(dates) * ds.n_assets


def test_forward_chunks_takes_no_rows_when_every_row_starts_its_date(world, spy):
    # asset 0 alone: each chunk's risk head scores the chunk's z as it is
    _, mcfg, params, ds = world
    pairs = [(0, t) for t in ds.splits["train"]]
    assert len(pairs) > fm.EVAL_BATCH
    kinds = ("price", "macro", "graph")  # the text encoder gathers embeddings
    taken = spy(fm.ad, "take_rows")
    got = fm.forward_chunks(ds, pairs, params, mcfg, kinds=kinds)
    assert taken == []
    assert got["risk_score"].shape == (len(pairs),)


def test_forward_chunks_rounds_alike_at_64_and_128_row_chunks(world, monkeypatch):
    """At the default dims a row's last bits depend on where its chunk ends;
    64- and 128-row chunks round alike, so a pass may use either."""
    _, _, _, ds = world
    mcfg = fm.ModelConfig(price_features=12, graph_features=len(dp.GRAPH_FEATURE_NAMES),
                          vocab_size=len(ds.vocab))
    params = fm.init_model_params(mcfg, np.random.default_rng(0))
    pairs = ds.sample_pairs("train")
    assert len(pairs) > 128 + 1  # both sizes split the pass, at other rows
    outs = []
    for rows in (64, 128):
        monkeypatch.setattr(fm, "EVAL_BATCH", rows)
        outs.append(fm.forward_chunks(ds, pairs, params, mcfg))
    assert set(outs[0]) == set(outs[1])
    for name in outs[0]:
        assert outs[0][name].tobytes() == outs[1][name].tobytes(), name


def test_forward_chunks_rejects_an_empty_batch(world):
    _, mcfg, params, ds = world
    with pytest.raises(DegenerateInputError, match="forward_chunks got an empty batch"):
        fm.forward_chunks(ds, [], params, mcfg)


def test_model_config_defaults_come_from_the_data(world):
    ds = world[3]
    cfg = fm.ModelConfig()
    assert cfg.price_features == ds.price_feature_matrix().shape[-1]
    assert cfg.graph_features == len(dp.GRAPH_FEATURE_NAMES)
    assert cfg.graph_features == ds.graph_feature_matrix().shape[-1]
    assert cfg.vocab_size == len(dp.build_vocab()) == len(ds.vocab)


def test_the_macro_groups_partition_the_macro_slots():
    covered = sorted(i for idx in enc.MACRO_GROUPS.values() for i in idx)
    assert covered == list(range(len(dp.MACRO_SLOTS)))


def test_from_dict_drops_a_retired_key_only_at_its_last_default():
    # checkpoint meta written before each key was retired, as JSON reads it
    old = dict(vars(fm.ModelConfig(d_model=16)), n_actions=3, flat_band=5e-4,
               macro_slots=list(dp.MACRO_SLOTS),
               macro_groups={k: list(v) for k, v in enc.MACRO_GROUPS.items()})
    assert fm.ModelConfig.from_dict(old) == fm.ModelConfig(d_model=16)
    # any other value would be ignored now, so it is rejected
    for key, value in [("n_actions", 5), ("flat_band", 1e-3), ("macro_slots", ["a"]),
                       ("macro_groups", dict(old["macro_groups"], growth=[0, 1],
                                             inflation=[2, 3]))]:
        with pytest.raises(ConfigError, match=f"^{key}: retired"):
            fm.ModelConfig.from_dict(dict(old, **{key: value}))
