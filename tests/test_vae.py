import dataclasses
import tracemalloc

import numpy as np
import pytest

from occkit import fileio, losses, nn, vae
from occkit.vae import (
    VaeConfig,
    init_vae_params,
    vae_encode_mean,
    vae_reconstruct,
    vae_train_step,
)

from test_losses import reference_lovasz_softmax, reference_softmax
from test_nn import REFERENCE_LAYERS

CFG = VaeConfig(grid_dims=(8, 8, 2), spatial_downsample=2, hidden=(8, 8, 8),
                attn_heads=2)
LATENT_HW = (CFG.grid_dims[0] // CFG.spatial_downsample,
             CFG.grid_dims[1] // CFG.spatial_downsample)


def tiny_batch(seed, batch=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CFG.num_classes, size=(batch, *CFG.grid_dims))


def test_encode_mean_is_deterministic():
    params = init_vae_params(CFG, np.random.default_rng(0))
    labels = tiny_batch(1, batch=2)
    a = vae_encode_mean(params, CFG, labels)
    b = vae_encode_mean(params, CFG, labels.copy())
    assert a.shape == (2, *LATENT_HW, vae.LATENT_CHANNELS)
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, vae_encode_mean(params, CFG, tiny_batch(2, batch=2)))


def test_config_and_checkpoint_round_trip_is_bit_identical(tmp_path):
    # the config is built in code; only the weights go through a PKPT file
    params = init_vae_params(CFG, np.random.default_rng(3))
    fileio.save_pkpt(tmp_path / "w.pkpt", params)
    params2 = fileio.load_pkpt(tmp_path / "w.pkpt")
    labels = tiny_batch(4, batch=2)
    z = vae_encode_mean(params, CFG, labels)
    z2 = vae_encode_mean(params2, CFG, labels)
    assert z.tobytes() == z2.tobytes()
    out = vae_reconstruct(params, CFG, z)
    out2 = vae_reconstruct(params2, CFG, z2)
    assert out.shape == labels.shape
    assert out.tobytes() == out2.tobytes()


def train_three_steps():
    """Losses and gradients of three Adam steps on the tiny config, fixed noise."""
    params = init_vae_params(CFG, np.random.default_rng(12))
    state = nn.adam_init(params)
    noise = np.random.default_rng(13)
    labels = tiny_batch(14, batch=2)
    steps = []
    for _ in range(3):
        grads = nn.zero_grads(params)
        loss = vae_train_step(params, grads, CFG, labels, noise)
        nn.adam_step(params, grads, state, lr=1e-2)
        steps.append((loss, grads))
    return steps


def test_train_steps_bitwise_equal_to_reference_layers(monkeypatch):
    fast = train_three_steps()
    for name, layer in REFERENCE_LAYERS.items():
        monkeypatch.setattr(nn, name, layer)
    monkeypatch.setattr(losses, "sigmoid", REFERENCE_LAYERS["sigmoid"])
    monkeypatch.setattr(vae, "softmax", reference_softmax)
    monkeypatch.setattr(vae, "lovasz_softmax", reference_lovasz_softmax)
    reference = train_three_steps()
    for (loss, grads), (loss_ref, grads_ref) in zip(fast, reference):
        assert loss.keys() == loss_ref.keys()
        for key in loss:
            assert np.float64(loss[key]).tobytes() == np.float64(loss_ref[key]).tobytes()
        assert grads.keys() == grads_ref.keys()
        for name in grads:
            assert grads[name].tobytes() == grads_ref[name].tobytes(), name


def test_train_step_frees_caches_after_their_last_use():
    # default config, B=2: about 16.9 MB; holding every tape step's cache and
    # the loss arrays to the end of the step reads 23.3 MB
    cfg = VaeConfig()
    params = init_vae_params(cfg, np.random.default_rng(18))
    grads = nn.zero_grads(params)
    labels = np.random.default_rng(19).integers(0, cfg.num_classes, (2, *cfg.grid_dims))
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        vae_train_step(params, grads, cfg, labels, np.random.default_rng(20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / 2**20 <= 18.0


def test_a_tape_replays_once():
    params = init_vae_params(CFG, np.random.default_rng(21))
    grads = nn.zero_grads(params)
    logits, tape = vae.vae_decode(params, CFG, np.zeros((1, *LATENT_HW, vae.LATENT_CHANNELS)))
    vae.vae_decode_backward(grads, np.ones_like(logits), tape)
    assert tape == []
    with pytest.raises(ValueError, match="replays once"):
        vae.vae_decode_backward(grads, np.ones_like(logits), tape)


def test_every_parameter_gets_a_gradient():
    params = init_vae_params(CFG, np.random.default_rng(15))
    grads = nn.zero_grads(params)
    vae_train_step(params, grads, CFG, tiny_batch(16, batch=2), np.random.default_rng(17))
    assert [name for name, g in grads.items() if not g.any()] == []


def test_loss_falls_when_overfitting_one_grid():
    params = init_vae_params(CFG, np.random.default_rng(5))
    state = nn.adam_init(params)
    noise = np.random.default_rng(6)
    labels = tiny_batch(7)
    losses = []
    for _ in range(20):
        grads = nn.zero_grads(params)
        losses.append(vae_train_step(params, grads, CFG, labels, noise)["loss"])
        nn.clip_grads(grads, 1.0)
        nn.adam_step(params, grads, state, lr=1e-2)
    assert all(np.isfinite(losses))
    assert np.mean(losses[-3:]) < 0.5 * losses[0], losses


@pytest.mark.parametrize("change", [
    {"hidden": ()},
    {"hidden": (8, 0, 8)},
    {"hidden": (8, -8, 8)},
    {"hidden": (6, 6, 6), "attn_heads": 4},
    {"hidden": (8, 6, 8), "attn_heads": 4},  # attention runs at the last stage's 6
    {"attn_heads": 0},
    {"grid_dims": (8, 8, 0)},
    {"grid_dims": (0, 0, 2)},
    {"grid_dims": (-4, -4, 2)},
    {"num_classes": 0},
    {"grid_dims": (8.0, 8.0, 2.0)},
    {"grid_dims": (8, 8, True)},
    {"hidden": (8.0, 8.0, 8.0)},
    {"hidden": (8, 8, False)},
    {"num_classes": 2.5},
    {"num_classes": True},
    {"attn_heads": 2.0},  # divides 8 as a float; only the integer check stops it
    {"attn_heads": True},
    {"spatial_downsample": 2.0},  # equal to 2, so only the integer check stops it
    {"spatial_downsample": 0},
    {"spatial_downsample": 3},
    {"spatial_downsample": 16, "grid_dims": (16, 16, 2)},
    {"grid_dims": (7, 8, 2)},
    {"grid_dims": (8, 10, 2), "spatial_downsample": 4},
])
def test_config_rejects_what_would_fail_later(change):
    with pytest.raises(ValueError):
        dataclasses.replace(CFG, **change)


def test_config_accepts_the_attention_width():
    cfg = dataclasses.replace(CFG, hidden=(6, 8, 6), attn_heads=4)
    init_vae_params(cfg, np.random.default_rng(0))


def test_stages_beyond_the_hidden_widths_reuse_the_last():
    cfg = VaeConfig(grid_dims=(8, 8, 2), spatial_downsample=8, hidden=(4, 6), attn_heads=2)
    assert vae._stage_widths(cfg) == [4, 6, 6, 6]
    init_vae_params(cfg, np.random.default_rng(0))


def test_train_step_loss_gradient_matches_finite_differences(monkeypatch):
    # at the default 1e-4 a wrong KL gradient stays below the bound
    monkeypatch.setattr(vae, "KL_WEIGHT", 0.1)
    params = init_vae_params(CFG, np.random.default_rng(8))
    labels = tiny_batch(9, batch=2)
    names = ["embed", "enc.stem.w", "enc.down0.w", "enc.res1.c2.w", "enc.attn.row.qkv.w",
             "enc.attn.row.qkv.b", "enc.attn.col.o.w", "enc.head.w", "dec.in.w",
             "dec.attn.row.qkv.w", "dec.attn.col.o.b", "dec.up0.w", "dec.res0.c1.w",
             "dec.out.w", "dec.out.b"]

    def f(*tensors):
        grads = nn.zero_grads(params)
        loss = vae_train_step(params, grads, CFG, labels, np.random.default_rng(10))
        return np.array(loss["loss"]), lambda d: [d * grads[n] for n in names]

    tensors = [params[n] for n in names]
    assert nn.grad_check(f, tensors, rng=np.random.default_rng(11), max_coords=6) < 1e-5


def test_attention_block_gradient_matches_finite_differences():
    # one block replayed from its own tape, with random biases so that each shows
    rng = np.random.default_rng(22)
    params = init_vae_params(CFG, rng)
    names = [f"enc.attn.row.{n}" for n in ("qkv.w", "qkv.b", "o.w", "o.b")]
    weights = [rng.normal(size=params[n].shape) if n.endswith(".b") else params[n]
               for n in names]

    def f(x, *weights):
        tape: list = []
        block = dict(zip(names, weights))
        y = vae._attention(tape, block, "enc.attn.row", x, CFG.attn_heads)

        def backward(d):
            grads = nn.zero_grads(block)
            dx = vae._replay(tape, d, grads)
            return [dx, *(grads[n] for n in names)]
        return y, backward

    x = rng.normal(size=(2, 3, 4, 8))
    assert nn.grad_check(f, [x, *weights], eps=1e-5, rng=np.random.default_rng(23)) < 1e-5
