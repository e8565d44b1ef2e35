"""BEV-flattened occupancy autoencoder.

Grids are flattened to 2D by embedding each voxel's class and
concatenating the height column along channels; a 2D conv/axial-attention
encoder compresses that map into a Gaussian latent, and a mirrored
decoder emits per-voxel class logits. The convolutions are 3x3 and keep
the map's size. The encoder halves it with ``linear(space_to_depth(h))``,
a 2x2 stride-2 convolution written as a shuffle and a linear layer, and
the decoder doubles it with the mirror ``depth_to_space(linear(h))``.

Everything runs in float64 on the layers of :mod:`occkit.nn`. The network
is written once, in the forward pass: each block pushes a step
``step(dout, grads) -> dinput`` on a list, the tape, which calls the
layer's backward and accumulates the gradients of its named parameters.
``vae_encode`` and ``vae_decode`` return their tape, and the matching
``*_backward`` replays it once, last step first: it pops each step as it
runs, so a layer's cache is freed as soon as its backward has run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .core import _is_int
from .losses import focal_loss, kl_standard_normal, lovasz_softmax
from .nn import softmax  # by name: the benchmark traces vae.softmax


# fixed: the class embedding width of each height slot, the latent width, the KL loss weight
CLASS_EMBED_DIM = 4
LATENT_CHANNELS = 8
KL_WEIGHT = 1e-4


@dataclass(frozen=True)
class VaeConfig:
    """The settings callers change; the loss terms and widths are fixed.

    The benchmark fits ``grid_dims``, ``num_classes`` and ``spatial_downsample``
    to its crop. Tests shrink the model with ``hidden`` and ``attn_heads``.
    """

    grid_dims: tuple[int, int, int] = (32, 32, 8)
    num_classes: int = 6
    spatial_downsample: int = 4
    hidden: tuple[int, int, int] = (32, 48, 64)
    attn_heads: int = 4

    def __post_init__(self):
        x, y, _ = self.grid_dims
        sizes = (*self.grid_dims, self.num_classes, self.spatial_downsample,
                 *self.hidden, self.attn_heads)
        if not all(_is_int(v) for v in sizes):
            raise ValueError("sizes, widths and head counts must be integers")
        if min(*self.grid_dims, self.num_classes) <= 0:
            raise ValueError("grid and class sizes must be positive")
        if self.spatial_downsample not in (1, 2, 4, 8):
            raise ValueError("downsample must be a power of two <= 8")
        if x % self.spatial_downsample or y % self.spatial_downsample:
            raise ValueError("downsample must divide grid X and Y")
        if not self.hidden or min(self.hidden) <= 0:
            raise ValueError("hidden needs at least one positive width")
        if self.attn_heads <= 0 or _stage_widths(self)[-1] % self.attn_heads:
            raise ValueError("attn_heads must divide the attention width")

    @property
    def num_down_stages(self) -> int:
        return {1: 0, 2: 1, 4: 2, 8: 3}[self.spatial_downsample]


def _stage_widths(cfg: VaeConfig) -> list[int]:
    n = cfg.num_down_stages
    return [cfg.hidden[min(i, len(cfg.hidden) - 1)] for i in range(n + 1)]


def init_vae_params(cfg: VaeConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    p: dict[str, np.ndarray] = {}

    def conv(name, cin, cout):  # 3x3, He init
        p[f"{name}.w"] = rng.normal(0, np.sqrt(2.0 / (9 * cin)), size=(3, 3, cin, cout))
        p[f"{name}.b"] = np.zeros(cout)

    def lin(name, cin, cout, std=None):
        std = std if std is not None else 1.0 / np.sqrt(cin)
        p[f"{name}.w"] = rng.normal(0, std, size=(cin, cout))
        p[f"{name}.b"] = np.zeros(cout)

    def res(name, c):
        conv(f"{name}.c1", c, c)
        conv(f"{name}.c2", c, c)
        p[f"{name}.c2.w"] *= 0.1  # keep residual branches small at init

    def attn(name, c):
        for axis in ("row", "col"):
            lin(f"{name}.{axis}.qkv", c, 3 * c)
            lin(f"{name}.{axis}.o", c, c, std=0.1 / np.sqrt(c))

    widths = _stage_widths(cfg)
    p["embed"] = rng.normal(0, 1.0, size=(cfg.num_classes, CLASS_EMBED_DIM))
    cin = cfg.grid_dims[2] * CLASS_EMBED_DIM
    conv("enc.stem", cin, widths[0])
    res("enc.res0", widths[0])
    for i in range(cfg.num_down_stages):
        window = 4 * widths[i]  # a 2x2 stride-2 conv's, He init
        lin(f"enc.down{i}", window, widths[i + 1], std=np.sqrt(2.0 / window))
        res(f"enc.res{i + 1}", widths[i + 1])
    attn("enc.attn", widths[-1])
    lin("enc.head", widths[-1], 2 * LATENT_CHANNELS, std=0.02)

    lin("dec.in", LATENT_CHANNELS, widths[-1])
    attn("dec.attn", widths[-1])
    res(f"dec.res{cfg.num_down_stages}", widths[-1])
    for i in reversed(range(cfg.num_down_stages)):
        lin(f"dec.up{i}", widths[i + 1], 4 * widths[i])
        res(f"dec.res{i}", widths[i])
    conv("dec.out", widths[0], cfg.grid_dims[2] * cfg.num_classes)
    p["dec.out.w"] *= 0.02
    return p


# ---------------------------------------------------------------------------
# Building blocks: each forward pushes the steps of its backward on a tape
# ---------------------------------------------------------------------------


def _replay(tape: list, d: np.ndarray, grads: dict) -> np.ndarray:
    """Pop and run a tape's steps last to first; returns its input's gradient."""
    if not tape:
        raise ValueError("empty tape: a tape replays once")
    while tape:
        d = tape.pop()(d, grads)
    return d


def _affine(tape, name, fwd, layer_backward):
    """Push the step of a layer with weights ``{name}.w`` and ``{name}.b``."""
    y, cache = fwd

    def step(d, grads):
        dx, dw, db = layer_backward(d, cache)
        nn.accumulate(grads, f"{name}.w", dw)
        nn.accumulate(grads, f"{name}.b", db)
        return dx

    tape.append(step)
    return y


def _conv(tape, p, name, x):
    fwd = nn.conv2d(x, p[f"{name}.w"], p[f"{name}.b"])
    return _affine(tape, name, fwd, nn.conv2d_backward)


def _linear(tape, p, name, x):
    fwd = nn.linear(x, p[f"{name}.w"], p[f"{name}.b"])
    return _affine(tape, name, fwd, nn.linear_backward)


def _silu(tape, x):
    y, cache = nn.silu(x)
    tape.append(lambda d, grads: nn.silu_backward(d, cache))
    return y


def _rearranged(tape, y, back):
    """``y``, a rearrangement of the last output; ``back`` undoes it on gradients."""
    tape.append(lambda d, grads: back(d))
    return y


def _resblock(tape, p, name, x):
    branch: list = []
    h = _conv(branch, p, f"{name}.c1", _silu(branch, x))
    h = _conv(branch, p, f"{name}.c2", _silu(branch, h))
    tape.append(lambda d, grads: d + _replay(branch, d, grads))
    return x + h


def _attention(tape, p, name, seq, heads):
    """Pre-normalized residual attention along axis 1 of ``seq``: a branch of
    layernorm, one fused q/k/v projection, attention and an output projection."""
    branch: list = []
    xn, c_ln = nn.layernorm(seq)
    branch.append(lambda d, grads: nn.layernorm_backward(d, c_ln))
    qkv = _linear(branch, p, f"{name}.qkv", xn)
    a, c_at = nn.masked_attention(*np.split(qkv, 3, axis=-1), heads)
    branch.append(lambda d, grads: np.concatenate(nn.masked_attention_backward(d, c_at),
                                                  axis=-1))
    o = _linear(branch, p, f"{name}.o", a)
    tape.append(lambda d, grads: d + _replay(branch, d, grads))
    return seq + o


def _axial_attention(tape, p, name, x, heads):
    """Row attention, then column attention on the transposed map."""
    h = _attention(tape, p, f"{name}.row", x, heads)
    h = _rearranged(tape, h.swapaxes(1, 2), lambda d: d.swapaxes(1, 2))
    h = _attention(tape, p, f"{name}.col", h, heads)
    return _rearranged(tape, h.swapaxes(1, 2), lambda d: d.swapaxes(1, 2))


# ---------------------------------------------------------------------------
# Encode / decode
# ---------------------------------------------------------------------------


def vae_encode(params: dict, cfg: VaeConfig, labels: np.ndarray):
    """(B, X, Y, Z) class ids -> (mu, logvar, tape).

    The 2D input map stacks each column's class embeddings along channels:
    block z * C' .. (z + 1) * C' holds height slot z, ascending, where
    C' is ``CLASS_EMBED_DIM``.
    """
    tape: list = []
    emb, cache = nn.embedding(params["embed"], labels)
    tape.append(lambda d, grads: nn.accumulate(
        grads, "embed", nn.embedding_backward(d.reshape(*labels.shape, -1), cache)))
    h = _silu(tape, _conv(tape, params, "enc.stem", emb.reshape(*labels.shape[:3], -1)))
    h = _resblock(tape, params, "enc.res0", h)
    for i in range(cfg.num_down_stages):
        h = _rearranged(tape, nn.space_to_depth(h), nn.depth_to_space)
        h = _silu(tape, _linear(tape, params, f"enc.down{i}", h))
        h = _resblock(tape, params, f"enc.res{i + 1}", h)
    h = _axial_attention(tape, params, "enc.attn", h, cfg.attn_heads)
    stats = _linear(tape, params, "enc.head", h)
    return stats[..., :LATENT_CHANNELS], stats[..., LATENT_CHANNELS:], tape


def vae_encode_backward(grads, dmu, dlogvar, tape) -> None:
    """Accumulate the encoder's gradients, the class embedding's included."""
    _replay(tape, np.concatenate([dmu, dlogvar], axis=-1), grads)


def vae_decode(params: dict, cfg: VaeConfig, z: np.ndarray):
    """Latent -> (per-voxel class logits (B, X, Y, Z, num_classes), tape)."""
    tape: list = []
    h = _linear(tape, params, "dec.in", z)
    h = _axial_attention(tape, params, "dec.attn", h, cfg.attn_heads)
    n = cfg.num_down_stages
    h = _resblock(tape, params, f"dec.res{n}", h)
    for i in reversed(range(n)):
        h = _linear(tape, params, f"dec.up{i}", h)
        h = _rearranged(tape, nn.depth_to_space(h), nn.space_to_depth)
        h = _resblock(tape, params, f"dec.res{i}", h)
    logits = _conv(tape, params, "dec.out", h)
    out = logits.reshape(*logits.shape[:3], cfg.grid_dims[2], cfg.num_classes)
    return _rearranged(tape, out, lambda d: d.reshape(*d.shape[:3], -1)), tape


def vae_decode_backward(grads, dlogits, tape):
    """Accumulate the decoder's gradients; returns the latent's."""
    return _replay(tape, dlogits, grads)


# ---------------------------------------------------------------------------
# Training / inference entry points
# ---------------------------------------------------------------------------


def vae_train_step(
    params: dict,
    grads: dict,
    cfg: VaeConfig,
    labels: np.ndarray,
    rng: np.random.Generator,
) -> dict:
    """One step on a (B, X, Y, Z) label batch; accumulates gradients."""
    mu, logvar, enc_tape = vae_encode(params, cfg, labels)
    noise = rng.standard_normal(mu.shape)
    std = np.exp(0.5 * logvar)  # z = mu + exp(logvar / 2) * noise
    logits, dec_tape = vae_decode(params, cfg, mu + std * noise)

    probs = softmax(logits)
    l_focal, dlogits = focal_loss(probs, labels)
    l_lovasz, dprobs = lovasz_softmax(probs, labels)
    dlogits = dlogits + nn.softmax_backward(dprobs, probs)
    del logits, probs, dprobs
    l_kl, dmu_kl, dlogvar_kl = kl_standard_normal(mu, logvar)

    dz = vae_decode_backward(grads, dlogits, dec_tape)
    dmu = dz + KL_WEIGHT * dmu_kl
    dlogvar = dz * noise * 0.5 * std + KL_WEIGHT * dlogvar_kl
    vae_encode_backward(grads, dmu, dlogvar, enc_tape)

    total = l_focal + l_lovasz + KL_WEIGHT * l_kl
    return {"loss": total, "focal": l_focal, "lovasz": l_lovasz, "kl": l_kl}


def vae_encode_mean(params: dict, cfg: VaeConfig, labels: np.ndarray) -> np.ndarray:
    """Deterministic latent (zero-noise reparameterization): z = mu."""
    mu, _, _ = vae_encode(params, cfg, labels)
    return mu


def vae_reconstruct(params: dict, cfg: VaeConfig, z: np.ndarray) -> np.ndarray:
    """Decode a latent to class labels; argmax ties go to the smaller id."""
    logits, _ = vae_decode(params, cfg, z)
    return np.argmax(logits, axis=-1)
