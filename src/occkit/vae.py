"""BEV-flattened occupancy autoencoder.

Grids are flattened to 2D by embedding each voxel's class and
concatenating the height column along channels; a 2D conv/axial-attention
encoder compresses that map into a Gaussian latent, and a mirrored
decoder emits per-voxel class logits. Everything runs in float64 with
hand-written backward passes composed from the layer menu in
:mod:`occkit.nn`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import nn
from .losses import focal_loss, kl_standard_normal, lovasz_softmax, softmax


@dataclass(frozen=True)
class VaeConfig:
    grid_dims: tuple[int, int, int] = (32, 32, 8)
    num_classes: int = 6
    class_embed_dim: int = 4
    latent_channels: int = 8
    spatial_downsample: int = 4
    hidden: tuple[int, int, int] = (32, 48, 64)
    attn_heads: int = 4
    focal_gamma: float = 2.0
    lovasz_weight: float = 1.0
    kl_weight: float = 1e-4
    class_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        x, y, _ = self.grid_dims
        if self.spatial_downsample not in (1, 2, 4, 8):
            raise ValueError("downsample must be a power of two <= 8")
        if x % self.spatial_downsample or y % self.spatial_downsample:
            raise ValueError("downsample must divide grid X and Y")
        if not self.hidden or min(self.hidden) <= 0:
            raise ValueError("hidden needs at least one positive width")
        if self.attn_heads <= 0 or _stage_widths(self)[-1] % self.attn_heads:
            raise ValueError("attn_heads must divide the attention width")
        if self.class_weights is not None and len(self.class_weights) != self.num_classes:
            raise ValueError("class_weights needs one weight per class")

    @property
    def latent_hw(self) -> tuple[int, int]:
        return (self.grid_dims[0] // self.spatial_downsample,
                self.grid_dims[1] // self.spatial_downsample)

    @property
    def num_down_stages(self) -> int:
        return {1: 0, 2: 1, 4: 2, 8: 3}[self.spatial_downsample]

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "VaeConfig":
        names = {f.name for f in fields(cls)}
        if set(obj) != names:
            raise ValueError(f"VaeConfig keys: unknown {sorted(set(obj) - names)}, "
                             f"missing {sorted(names - set(obj))}")
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


def _stage_widths(cfg: VaeConfig) -> list[int]:
    n = cfg.num_down_stages
    return [cfg.hidden[min(i, len(cfg.hidden) - 1)] for i in range(n + 1)]


def init_vae_params(cfg: VaeConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    p: dict[str, np.ndarray] = {}

    def conv(name, kh, kw, cin, cout):
        std = np.sqrt(2.0 / (kh * kw * cin))
        p[f"{name}.w"] = rng.normal(0, std, size=(kh, kw, cin, cout))
        p[f"{name}.b"] = np.zeros(cout)

    def lin(name, cin, cout, std=None):
        std = std if std is not None else 1.0 / np.sqrt(cin)
        p[f"{name}.w"] = rng.normal(0, std, size=(cin, cout))
        p[f"{name}.b"] = np.zeros(cout)

    def res(name, c):
        conv(f"{name}.c1", 3, 3, c, c)
        conv(f"{name}.c2", 3, 3, c, c)
        p[f"{name}.c2.w"] *= 0.1  # keep residual branches small at init

    def attn(name, c):
        for axis in ("row", "col"):
            for proj in ("wq", "wk", "wv"):
                p[f"{name}.{axis}.{proj}"] = rng.normal(0, 1.0 / np.sqrt(c),
                                                        size=(c, c))
            p[f"{name}.{axis}.wo"] = rng.normal(0, 0.1 / np.sqrt(c), size=(c, c))

    widths = _stage_widths(cfg)
    p["embed"] = rng.normal(0, 1.0, size=(cfg.num_classes, cfg.class_embed_dim))
    cin = cfg.grid_dims[2] * cfg.class_embed_dim
    conv("enc.stem", 3, 3, cin, widths[0])
    res("enc.res0", widths[0])
    for i in range(cfg.num_down_stages):
        conv(f"enc.down{i}", 2, 2, widths[i], widths[i + 1])
        res(f"enc.res{i + 1}", widths[i + 1])
    attn("enc.attn", widths[-1])
    lin("enc.head", widths[-1], 2 * cfg.latent_channels, std=0.02)

    lin("dec.in", cfg.latent_channels, widths[-1])
    attn("dec.attn", widths[-1])
    res(f"dec.res{cfg.num_down_stages}", widths[-1])
    for i in reversed(range(cfg.num_down_stages)):
        lin(f"dec.up{i}", widths[i + 1], 4 * widths[i])
        res(f"dec.res{i}", widths[i])
    conv("dec.out", 3, 3, widths[0], cfg.grid_dims[2] * cfg.num_classes)
    p["dec.out.w"] *= 0.02
    return p


# ---------------------------------------------------------------------------
# Building blocks (forward + matching backward)
# ---------------------------------------------------------------------------


def _conv_silu(p, name, x, stride, padding):
    y, c_conv = nn.conv2d(x, p[f"{name}.w"], p[f"{name}.b"], stride, padding)
    out, c_act = nn.silu(y)
    return out, (c_conv, c_act)


def _conv_silu_backward(p, grads, name, dout, cache):
    c_conv, c_act = cache
    d = nn.silu_backward(dout, c_act)
    dx, dw, db = nn.conv2d_backward(d, c_conv)
    nn.accumulate(grads, f"{name}.w", dw)
    nn.accumulate(grads, f"{name}.b", db)
    return dx


def _resblock(p, name, x):
    a, c1 = nn.silu(x)
    h, c2 = nn.conv2d(a, p[f"{name}.c1.w"], p[f"{name}.c1.b"], 1, 1)
    a2, c3 = nn.silu(h)
    h2, c4 = nn.conv2d(a2, p[f"{name}.c2.w"], p[f"{name}.c2.b"], 1, 1)
    return x + h2, (c1, c2, c3, c4)


def _resblock_backward(p, grads, name, dout, cache):
    c1, c2, c3, c4 = cache
    d, dw2, db2 = nn.conv2d_backward(dout, c4)
    nn.accumulate(grads, f"{name}.c2.w", dw2)
    nn.accumulate(grads, f"{name}.c2.b", db2)
    d = nn.silu_backward(d, c3)
    d, dw1, db1 = nn.conv2d_backward(d, c2)
    nn.accumulate(grads, f"{name}.c1.w", dw1)
    nn.accumulate(grads, f"{name}.c1.b", db1)
    return dout + nn.silu_backward(d, c1)


def _axial_attention(p, name, x, heads):
    """Row attention then column attention, each pre-normalized and residual."""
    caches = []
    h = x
    for axis in ("row", "col"):
        seq = h if axis == "row" else h.swapaxes(1, 2)
        xn, c_ln = nn.layernorm(seq)
        q, cq = nn.linear(xn, p[f"{name}.{axis}.wq"])
        k, ck = nn.linear(xn, p[f"{name}.{axis}.wk"])
        v, cv = nn.linear(xn, p[f"{name}.{axis}.wv"])
        a, c_at = nn.masked_attention(q, k, v, heads)
        o, co = nn.linear(a, p[f"{name}.{axis}.wo"])
        out = seq + o
        h = out if axis == "row" else out.swapaxes(1, 2)
        caches.append((c_ln, cq, ck, cv, c_at, co))
    return h, caches


def _axial_attention_backward(p, grads, name, dout, caches, heads):
    d = dout
    for axis, cache in zip(("col", "row"), reversed(caches)):
        c_ln, cq, ck, cv, c_at, co = cache
        dseq = d if axis == "row" else d.swapaxes(1, 2)
        da, dwo, _ = nn.linear_backward(dseq, co)
        nn.accumulate(grads, f"{name}.{axis}.wo", dwo)
        dq, dk, dv = nn.masked_attention_backward(da, c_at)
        dxn = np.zeros_like(dq)
        for dproj, cproj, pname in ((dq, cq, "wq"), (dk, ck, "wk"), (dv, cv, "wv")):
            dx_part, dw, _ = nn.linear_backward(dproj, cproj)
            nn.accumulate(grads, f"{name}.{axis}.{pname}", dw)
            dxn += dx_part
        dseq = dseq + nn.layernorm_backward(dxn, c_ln)
        d = dseq if axis == "row" else dseq.swapaxes(1, 2)
    return d


# ---------------------------------------------------------------------------
# Flatten / encode / decode
# ---------------------------------------------------------------------------


def vae_flatten(labels: np.ndarray, embed: np.ndarray):
    """(B, X, Y, Z) class ids -> (B, X, Y, Z * C') stacked height embeddings.

    Channel block z * C' .. (z + 1) * C' holds the embedding of height
    slot z, ascending.
    """
    emb, cache = nn.embedding(embed, labels)
    b, x, y, z = labels.shape
    return emb.reshape(b, x, y, z * embed.shape[1]), (cache, emb.shape)


def vae_flatten_backward(dout: np.ndarray, cache) -> np.ndarray:
    emb_cache, emb_shape = cache
    return nn.embedding_backward(dout.reshape(emb_shape), emb_cache)


def vae_encode(params: dict, cfg: VaeConfig, feat: np.ndarray):
    """Feature map -> (mu, logvar, caches)."""
    caches: dict = {}
    h, caches["stem"] = _conv_silu(params, "enc.stem", feat, 1, 1)
    h, caches["res0"] = _resblock(params, "enc.res0", h)
    for i in range(cfg.num_down_stages):
        h, caches[f"down{i}"] = _conv_silu(params, f"enc.down{i}", h, 2, 0)
        h, caches[f"res{i + 1}"] = _resblock(params, f"enc.res{i + 1}", h)
    h, caches["attn"] = _axial_attention(params, "enc.attn", h, cfg.attn_heads)
    stats, caches["head"] = nn.linear(h, params["enc.head.w"], params["enc.head.b"])
    cz = cfg.latent_channels
    return stats[..., :cz], stats[..., cz:], caches


def vae_encode_backward(params, grads, cfg, dmu, dlogvar, caches):
    dstats = np.concatenate([dmu, dlogvar], axis=-1)
    d, dw, db = nn.linear_backward(dstats, caches["head"])
    nn.accumulate(grads, "enc.head.w", dw)
    nn.accumulate(grads, "enc.head.b", db)
    d = _axial_attention_backward(params, grads, "enc.attn", d, caches["attn"],
                                  cfg.attn_heads)
    for i in reversed(range(cfg.num_down_stages)):
        d = _resblock_backward(params, grads, f"enc.res{i + 1}", d,
                               caches[f"res{i + 1}"])
        d = _conv_silu_backward(params, grads, f"enc.down{i}", d,
                                caches[f"down{i}"])
    d = _resblock_backward(params, grads, "enc.res0", d, caches["res0"])
    return _conv_silu_backward(params, grads, "enc.stem", d, caches["stem"])


def reparameterize(mu: np.ndarray, logvar: np.ndarray, noise: np.ndarray):
    """z = mu + exp(logvar / 2) * noise."""
    std = np.exp(0.5 * logvar)
    return mu + std * noise, (std, noise)


def reparameterize_backward(dz: np.ndarray, cache):
    std, noise = cache
    return dz, dz * noise * 0.5 * std


def vae_decode(params: dict, cfg: VaeConfig, z: np.ndarray):
    """Latent -> per-voxel class logits (B, X, Y, Z, num_classes)."""
    caches: dict = {}
    h, caches["in"] = nn.linear(z, params["dec.in.w"], params["dec.in.b"])
    h, caches["attn"] = _axial_attention(params, "dec.attn", h, cfg.attn_heads)
    n = cfg.num_down_stages
    h, caches[f"res{n}"] = _resblock(params, f"dec.res{n}", h)
    for i in reversed(range(n)):
        u, caches[f"up{i}"] = nn.linear(h, params[f"dec.up{i}.w"],
                                        params[f"dec.up{i}.b"])
        h = nn.depth_to_space(u, 2)
        h, caches[f"res{i}"] = _resblock(params, f"dec.res{i}", h)
    logits, caches["out"] = nn.conv2d(h, params["dec.out.w"], params["dec.out.b"],
                                      1, 1)
    b, x, y, _ = logits.shape
    out = logits.reshape(b, x, y, cfg.grid_dims[2], cfg.num_classes)
    return out, caches


def vae_decode_backward(params, grads, cfg, dlogits, caches):
    b, x, y, z, c = dlogits.shape
    d = dlogits.reshape(b, x, y, z * c)
    d, dw, db = nn.conv2d_backward(d, caches["out"])
    nn.accumulate(grads, "dec.out.w", dw)
    nn.accumulate(grads, "dec.out.b", db)
    n = cfg.num_down_stages
    for i in range(n):
        d = _resblock_backward(params, grads, f"dec.res{i}", d, caches[f"res{i}"])
        d = nn.space_to_depth(d, 2)
        d, dw, db = nn.linear_backward(d, caches[f"up{i}"])
        nn.accumulate(grads, f"dec.up{i}.w", dw)
        nn.accumulate(grads, f"dec.up{i}.b", db)
    d = _resblock_backward(params, grads, f"dec.res{n}", d, caches[f"res{n}"])
    d = _axial_attention_backward(params, grads, "dec.attn", d, caches["attn"],
                                  cfg.attn_heads)
    d, dw, db = nn.linear_backward(d, caches["in"])
    nn.accumulate(grads, "dec.in.w", dw)
    nn.accumulate(grads, "dec.in.b", db)
    return d


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
    feat, flat_cache = vae_flatten(labels, params["embed"])
    mu, logvar, enc_caches = vae_encode(params, cfg, feat)
    noise = rng.standard_normal(mu.shape)
    z, rep_cache = reparameterize(mu, logvar, noise)
    logits, dec_caches = vae_decode(params, cfg, z)

    voxel_weights = None
    if cfg.class_weights is not None:
        voxel_weights = np.asarray(cfg.class_weights)[labels.reshape(-1)]
    probs = softmax(logits)
    l_focal, dlogits = focal_loss(probs, labels, gamma=cfg.focal_gamma,
                                  voxel_weights=voxel_weights)
    l_lovasz, dprobs = lovasz_softmax(probs, labels)
    dlogits = dlogits + cfg.lovasz_weight * nn.softmax_backward(dprobs, probs)
    l_kl, dmu_kl, dlogvar_kl = kl_standard_normal(mu, logvar)

    dz = vae_decode_backward(params, grads, cfg, dlogits, dec_caches)
    dmu, dlogvar = reparameterize_backward(dz, rep_cache)
    dmu = dmu + cfg.kl_weight * dmu_kl
    dlogvar = dlogvar + cfg.kl_weight * dlogvar_kl
    dfeat = vae_encode_backward(params, grads, cfg, dmu, dlogvar, enc_caches)
    nn.accumulate(grads, "embed", vae_flatten_backward(dfeat, flat_cache))

    total = l_focal + cfg.lovasz_weight * l_lovasz + cfg.kl_weight * l_kl
    return {"loss": total, "focal": l_focal, "lovasz": l_lovasz, "kl": l_kl}


def vae_encode_mean(params: dict, cfg: VaeConfig, labels: np.ndarray) -> np.ndarray:
    """Deterministic latent (zero-noise reparameterization): z = mu."""
    feat, _ = vae_flatten(labels, params["embed"])
    mu, _, _ = vae_encode(params, cfg, feat)
    return mu


def vae_reconstruct(params: dict, cfg: VaeConfig, z: np.ndarray) -> np.ndarray:
    """Decode a latent to class labels; argmax ties go to the smaller id."""
    logits, _ = vae_decode(params, cfg, z)
    return np.argmax(logits, axis=-1)
