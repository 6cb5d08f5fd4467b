"""Fusion backbone and contrastive alignment loss."""

import math

import numpy as np
import pytest

from finfusion import autodiff as ad
from finfusion import encoders as enc
from finfusion import fusion as fus
from finfusion import model as model_mod
from finfusion.autodiff import Tensor, grad_check, reduce_sum
from finfusion.datapipe import MACRO_SLOTS
from finfusion.errors import ContractError, DegenerateInputError, DimensionError
from finfusion.model import ModelConfig, init_model_params
from tests.test_encoders import tiny_cfg


@pytest.fixture(scope="module")
def setup():
    cfg = tiny_cfg()
    params = init_model_params(cfg, np.random.default_rng(77))
    return cfg, params


def random_embeddings(rng, b, d):
    return {k: Tensor(rng.normal(size=(b, d))) for k in fus.MODALITIES}


# ---------------------------------------------------------------------------
# fuse

def test_fuse_weights_sum_to_one(setup):
    cfg, params = setup
    rng = np.random.default_rng(0)
    embs = random_embeddings(rng, 3, cfg.d_model)
    for pres in ([True] * 4, [True, False, True, False], [False, False, False, True]):
        pres = np.array(pres)
        present = {k: v for k, v in embs.items() if pres[fus.MODALITIES.index(k)]}
        _, weights = fus.fuse_batch(present, params, cfg)
        for row in weights:
            assert abs(row[pres].sum() - 1.0) < 1e-9
            assert np.all(row[~pres] == 0.0)


def test_fuse_single_modality_weight_one(setup):
    cfg, params = setup
    rng = np.random.default_rng(1)
    embs = {"macro": Tensor(rng.normal(size=(1, cfg.d_model)))}
    z, weights = fus.fuse_batch(embs, params, cfg)
    assert weights[0, 2] == pytest.approx(1.0)
    # deterministic transform of that single embedding
    z2, _ = fus.fuse_batch(embs, params, cfg)
    assert np.array_equal(z.data, z2.data)


def test_fuse_empty_bundle_rejected(setup):
    cfg, params = setup
    with pytest.raises(DegenerateInputError):
        fus.fuse_batch({}, params, cfg)


def _removal_reference(embs_present, slots, params, cfg):
    """Physically build the reduced token sequence: no masking anywhere."""
    toks = []
    for slot, emb in zip(slots, embs_present):
        type_vec = Tensor(params["fusion.type"].data[slot])
        toks.append(emb + type_vec)  # each (1, d)
    x = ad.stack(toks, axis=1)  # (1, P, d)
    x = enc.transformer_layer(x, params, "fusion.layer0", cfg.n_heads)
    scores = ad.matmul(x, params["fusion.pool.q"]) * (1.0 / np.sqrt(cfg.d_model))
    w = ad.softmax(scores, axis=-1)
    z = ad.matmul(ad.reshape(w, (1, 1, len(slots))), x)
    return ad.reshape(z, (cfg.d_model,)).data, w.data[0]


def test_masking_equals_physical_removal(setup):
    cfg, params = setup
    rng = np.random.default_rng(2)
    for trial in range(5):
        embs = random_embeddings(rng, 1, cfg.d_model)
        pres = rng.uniform(size=4) > 0.4
        if not pres.any():
            pres[rng.integers(4)] = True
        masked = {k: v for k, v in embs.items() if pres[fus.MODALITIES.index(k)]}
        z_masked, w_masked = fus.fuse_batch(masked, params, cfg)
        slots = [i for i in range(4) if pres[i]]
        ref_z, ref_w = _removal_reference(
            [embs[fus.MODALITIES[i]] for i in slots], slots, params, cfg)
        assert np.allclose(z_masked.data[0], ref_z, atol=1e-12), f"trial {trial}"
        assert np.allclose(w_masked[0][pres], ref_w, atol=1e-12)


def test_fuse_permutation_equivariant_with_zero_type_embeddings(setup):
    cfg, _ = setup
    params = init_model_params(cfg, np.random.default_rng(3))
    params["fusion.type"].data[...] = 0.0
    rng = np.random.default_rng(4)
    vecs = [Tensor(rng.normal(size=(1, cfg.d_model))) for _ in range(4)]
    base = {k: v for k, v in zip(fus.MODALITIES, vecs)}
    z1, _ = fus.fuse_batch(base, params, cfg)
    perm = [2, 0, 3, 1]
    shuffled = {k: vecs[perm[i]] for i, k in enumerate(fus.MODALITIES)}
    z2, _ = fus.fuse_batch(shuffled, params, cfg)
    assert np.allclose(z1.data, z2.data, atol=1e-10)


def test_fuse_typed_api(setup):
    # forward_batch fuses only the modality types named in kinds
    cfg, params = setup
    rng = np.random.default_rng(7)
    batch = {
        "price": rng.normal(size=(2, 4, cfg.price_features)),
        "tokens": np.array([[1, 2, 3], [4, 5, 0]]),
        "tok_len": np.array([3, 2]),
        "macro": np.zeros((2, len(MACRO_SLOTS))),
        "graph_feats": rng.normal(size=(2, 3, cfg.graph_features)),
        "graph_adj": np.ones((2, 3, 3)),
    }
    out = model_mod.forward_batch(batch, params, cfg, kinds=("text", "macro"),
                                  heads=())
    assert out["z"].shape == (2, cfg.d_model)
    assert sorted(out["embs"]) == ["macro", "text"]
    present = out["fuse_weights"] > 0
    assert present.tolist() == [[False, True, True, False]] * 2


def test_fuse_gradients(setup):
    cfg, _ = setup
    params = init_model_params(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    embs = random_embeddings(rng, 2, cfg.d_model)
    wsum = rng.normal(size=(2, cfg.d_model))

    def f(_):
        z, _w = fus.fuse_batch(embs, params, cfg)
        return reduce_sum(z * Tensor(wsum))

    for target in ("fusion.pool.q", "fusion.type", "fusion.layer0.wq"):
        assert grad_check(f, params[target], eps=1e-5) < 1e-4, target


# ---------------------------------------------------------------------------
# similarity

def test_similarity_identity():
    v = np.array([1.0, 2.0, -3.0])
    assert fus.similarity(v, v) == pytest.approx(1.0)


def test_similarity_antipodal():
    v = np.array([1.0, 2.0, -3.0])
    assert fus.similarity(v, -v) == pytest.approx(-1.0)


def test_similarity_orthogonal():
    assert fus.similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0


def test_similarity_zero_vector_rejected():
    with pytest.raises(DegenerateInputError):
        fus.similarity(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------------------
# align_loss

def test_align_loss_single_pair_zero():
    rng = np.random.default_rng(7)
    za = Tensor(rng.normal(size=(1, 6)))
    zb = Tensor(rng.normal(size=(1, 6)))
    out = fus.align_loss(za, zb, fus.AlignConfig(temperature=1.0))
    assert out.item() == pytest.approx(0.0, abs=1e-12)


def test_align_loss_two_pair_hand_value():
    # positives at cosine 1, negatives at cosine 0, temperature 1
    za = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    zb = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = fus.align_loss(za, zb, fus.AlignConfig(temperature=1.0))
    expected = -math.log(math.e / (math.e + 1.0))
    assert out.item() == pytest.approx(expected, abs=1e-6)
    assert expected == pytest.approx(0.3133, abs=1e-4)


def test_align_loss_pair_order_invariant():
    rng = np.random.default_rng(8)
    za = Tensor(rng.normal(size=(5, 6)))
    zb = Tensor(rng.normal(size=(5, 6)))
    cfg = fus.AlignConfig(temperature=0.5)
    base = fus.align_loss(za, zb, cfg).item()
    perm = np.array([3, 1, 4, 0, 2])
    shuffled = fus.align_loss(Tensor(za.data[perm]), Tensor(zb.data[perm]), cfg).item()
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_align_loss_rotation_invariant():
    rng = np.random.default_rng(9)
    d = 6
    za = rng.normal(size=(4, d))
    zb = rng.normal(size=(4, d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    cfg = fus.AlignConfig(temperature=0.7)
    base = fus.align_loss(Tensor(za), Tensor(zb), cfg).item()
    rotated = fus.align_loss(Tensor(za @ q), Tensor(zb @ q), cfg).item()
    assert rotated == pytest.approx(base, abs=1e-9)


def test_align_loss_nonnegative_and_sensitive():
    rng = np.random.default_rng(10)
    za = rng.normal(size=(6, 4))
    zb = rng.normal(size=(6, 4))
    cfg = fus.AlignConfig(temperature=1.0)
    base = fus.align_loss(Tensor(za), Tensor(zb), cfg).item()
    assert base >= 0.0
    # moving each positive pair together lowers the loss
    closer = fus.align_loss(Tensor(za), Tensor(0.5 * za + 0.5 * zb), cfg).item()
    assert closer < base


def test_align_loss_gradients():
    rng = np.random.default_rng(11)
    za = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    zb = Tensor(rng.normal(size=(3, 5)))
    cfg = fus.AlignConfig(temperature=0.3)
    err = grad_check(lambda t: fus.align_loss(t, zb, cfg), za, eps=1e-5)
    assert err < 1e-5


def test_align_config_validation():
    with pytest.raises(ContractError):
        fus.AlignConfig(temperature=0.0)
    with pytest.raises(ContractError):
        fus.AlignConfig(pairs=(("price", "volume"),))


def test_align_loss_shape_errors():
    with pytest.raises(DimensionError):
        fus.align_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))),
                       fus.AlignConfig())
