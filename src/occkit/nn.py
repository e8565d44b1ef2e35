"""Deterministic float64 tensor layers with hand-written backward passes.

Every forward returns ``(out, cache)``; the matching ``*_backward``
consumes ``(dout, cache)`` and returns exact gradients. The layer menu
is fixed (linear, layernorm, silu/swiglu, masked multi-head attention,
2-axis rotary embedding, convolution, embedding lookup) and each piece
is verifiable by central finite differences at 64-bit precision. There
is no autodiff graph: models compose these calls and mirror them by
hand in reverse. The vectorised layers do the float operations of plain
loops in the same order; ``tests/test_nn.py`` keeps those as oracles.

Randomness is drawn from named Philox streams derived from one root
seed, so every training run is reproducible across platforms:
``stream(seed, "dit/init")`` always yields the same sequence.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# ---------------------------------------------------------------------------
# Seedable counter-based random streams
# ---------------------------------------------------------------------------


def stream(root_seed: int, name: str) -> np.random.Generator:
    """Independent random stream keyed by (root seed, stream name)."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Elementwise pieces
# ---------------------------------------------------------------------------


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; minimum, unlike -abs, keeps a NaN input's sign
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def silu(x: np.ndarray):
    s = sigmoid(x)
    return x * s, (x, s)


def silu_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, s = cache
    return dout * (s * (1.0 + x * (1.0 - s)))


def swiglu(h: np.ndarray):
    """Gated activation on a pre-split hidden: silu(gate) * value.

    The last axis holds [gate | value] halves.
    """
    if h.shape[-1] % 2:
        raise ValueError("hidden dim must split into two halves")
    f = h.shape[-1] // 2
    g, v = h[..., :f], h[..., f:]
    sg, sg_cache = silu(g)
    return sg * v, (sg, v, sg_cache)


def swiglu_backward(dout: np.ndarray, cache) -> np.ndarray:
    sg, v, sg_cache = cache
    dg = silu_backward(dout * v, sg_cache)
    dv = dout * sg
    return np.concatenate([dg, dv], axis=-1)


# ---------------------------------------------------------------------------
# Linear / normalization
# ---------------------------------------------------------------------------


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None):
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"inner dims disagree: {x.shape[-1]} vs {w.shape[0]}")
    y = x @ w
    if b is not None:
        y = y + b
    return y, (x, w)


def linear_backward(dout: np.ndarray, cache):
    x, w = cache
    dx = dout @ w.T
    dw = x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    db = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    return dx, dw, db


def layernorm(x: np.ndarray, eps: float = 1e-6):
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat, (xhat, inv)


def layernorm_backward(dout: np.ndarray, cache) -> np.ndarray:
    xhat, inv = cache
    m1 = dout.mean(axis=-1, keepdims=True)
    m2 = (dout * xhat).mean(axis=-1, keepdims=True)
    return inv * (dout - m1 - xhat * m2)


# ---------------------------------------------------------------------------
# Rotary position embedding over two grid axes
# ---------------------------------------------------------------------------


def rope2d_angles(positions: np.ndarray, head_dim: int, base: float = 10000.0):
    """Per-pair cos/sin tables for a 2-axis rotary embedding.

    positions: (S, 2) integer or float grid coordinates. The first half
    of each head rotates with axis-0 positions, the second half with
    axis-1, each using the standard geometric frequency ladder. Returns
    (cos, sin) of shape (S, head_dim // 2).
    """
    if head_dim % 4:
        raise ValueError("head dim must be divisible by 4")
    positions = np.asarray(positions, dtype=np.float64)
    half = head_dim // 2
    n_freq = half // 2
    freqs = base ** (-2.0 * np.arange(n_freq) / half)
    ang_x = positions[:, 0:1] * freqs[None, :]
    ang_y = positions[:, 1:2] * freqs[None, :]
    angles = np.concatenate([ang_x, ang_y], axis=1)
    return np.cos(angles), np.sin(angles)


def rope_apply(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate interleaved pairs of the last axis; x is (..., S, head_dim)."""
    shape = x.shape
    pairs = x.reshape(*shape[:-1], shape[-1] // 2, 2)
    x0, x1 = pairs[..., 0], pairs[..., 1]
    y0 = x0 * cos - x1 * sin
    y1 = x0 * sin + x1 * cos
    return np.stack([y0, y1], axis=-1).reshape(shape)


def rope_apply_backward(dout: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    # rotations are orthogonal: transpose = rotate by the negated angle
    return rope_apply(dout, cos, -sin)


# ---------------------------------------------------------------------------
# Masked multi-head attention
# ---------------------------------------------------------------------------


def softmax_backward(dprobs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient through a softmax over the last axis, given its output."""
    return probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    *batch, s, d = x.shape
    return x.reshape(*batch, s, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *batch, h, s, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*batch, s, h * dh)


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    heads: int,
    mask: np.ndarray | None = None,
    rope: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Softmax attention restricted to an allowed-key mask.

    q, k, v: (..., S, D) with D divisible by ``heads``. ``mask`` is a
    boolean (S_q, S_k) table (True = may attend) broadcast over batch
    and heads; disallowed keys receive exactly zero weight. ``rope`` is
    an optional (cos, sin) pair applied to q and k per head.
    """
    if q.shape[-1] % heads:
        raise ValueError("feature dim must be divisible by heads")
    if mask is not None and not mask.any(axis=-1).all():
        raise ValueError("a query row allows zero keys")
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    if rope is not None:
        cos, sin = rope
        qh = rope_apply(qh, cos, sin)
        kh = rope_apply(kh, cos, sin)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    if mask is not None:
        e = np.where(mask, e, 0.0)
    attn = e / e.sum(axis=-1, keepdims=True)
    out = attn @ vh
    cache = (qh, kh, vh, attn, heads, scale, rope)
    return _merge_heads(out), cache


def masked_attention_backward(dout: np.ndarray, cache):
    qh, kh, vh, attn, heads, scale, rope = cache
    doh = _split_heads(dout, heads)
    dvh = attn.swapaxes(-1, -2) @ doh
    dattn = doh @ vh.swapaxes(-1, -2)
    # softmax rows: disallowed entries have attn == 0, so they stay zero
    ds = softmax_backward(dattn, attn)
    dqh = (ds @ kh) * scale
    dkh = (ds.swapaxes(-1, -2) @ qh) * scale
    if rope is not None:
        cos, sin = rope
        dqh = rope_apply_backward(dqh, cos, sin)
        dkh = rope_apply_backward(dkh, cos, sin)
    return _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)


# ---------------------------------------------------------------------------
# Convolution and space/depth reshuffles on (B, H, W, C) maps
# ---------------------------------------------------------------------------


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
           stride: int = 1, padding: int = 0):
    """Direct convolution as one GEMM over (i, j, c)-ordered im2col columns."""
    kh, kw, cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ValueError("channel mismatch")
    if padding:
        x = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    bsz, hp, wp, _ = x.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    windows = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(bsz, ho, wo, kh * kw * cin)
    y = cols @ w.reshape(-1, cout)
    if b is not None:
        y = y + b
    return y, (cols, w, x.shape, stride, padding)


def conv2d_backward(dout: np.ndarray, cache):
    cols, w, xpad_shape, stride, padding = cache
    kh, kw, cin, cout = w.shape
    bsz, ho, wo, _ = dout.shape
    dflat = dout.reshape(-1, cout)
    # the same sums as cols.T @ dflat, bit for bit, in a faster BLAS orientation
    dw = (dflat.T @ cols.reshape(-1, kh * kw * cin)).T.reshape(w.shape)
    db = dflat.sum(axis=0)
    dcols = dout @ w.reshape(-1, cout).T
    dxp = np.zeros(xpad_shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):
            sl = dcols[..., (i * kw + j) * cin:(i * kw + j + 1) * cin]
            dxp[:, i:i + ho * stride:stride, j:j + wo * stride:stride, :] += sl
    if padding:
        dxp = dxp[:, padding:-padding, padding:-padding, :]
    return dxp, dw, db


def space_to_depth(x: np.ndarray, factor: int) -> np.ndarray:
    bsz, h, w, c = x.shape
    y = x.reshape(bsz, h // factor, factor, w // factor, factor, c)
    return y.transpose(0, 1, 3, 2, 4, 5).reshape(bsz, h // factor, w // factor,
                                                 factor * factor * c)


def depth_to_space(x: np.ndarray, factor: int) -> np.ndarray:
    bsz, h, w, c = x.shape
    cc = c // (factor * factor)
    y = x.reshape(bsz, h, w, factor, factor, cc).transpose(0, 1, 3, 2, 4, 5)
    return y.reshape(bsz, h * factor, w * factor, cc)


# ---------------------------------------------------------------------------
# Embedding lookups
# ---------------------------------------------------------------------------


def embedding(table: np.ndarray, ids: np.ndarray):
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError("embedding id out of range")
    return table[ids], (table.shape, ids)


def embedding_backward(dout: np.ndarray, cache) -> np.ndarray:
    shape, ids = cache
    # bincount sums each row's hits in id order, as a sequential scatter-add would
    return np.stack([np.bincount(ids.reshape(-1), weights=col, minlength=shape[0])
                     for col in dout.reshape(-1, shape[-1]).T], axis=-1)


def sinusoidal_embedding(t: np.ndarray, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Classic sin/cos features of a scalar signal; t is (...,)."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-math.log(max_period) * np.arange(half) / half)
    args = t[..., None] * freqs
    emb = np.concatenate([np.sin(args), np.cos(args)], axis=-1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros((*t.shape, 1))], axis=-1)
    return emb


# ---------------------------------------------------------------------------
# AdaLN-Zero modulation
# ---------------------------------------------------------------------------


def adaln_zero(x: np.ndarray, cond: np.ndarray, w_mod: np.ndarray, b_mod: np.ndarray,
               sublayer: Callable[[np.ndarray], tuple[np.ndarray, object]]):
    """Gated residual sub-layer: x + gate * F(norm(x) * (1 + scale) + shift).

    ``cond`` projects through (w_mod, b_mod) to the concatenated
    (shift, scale, gate) triple; zero-initialized projections make the
    whole block the identity. ``sublayer`` follows the (out, cache)
    convention; its backward must be applied by the caller via the
    returned cache.
    """
    d = x.shape[-1]
    if w_mod.shape[1] != 3 * d:
        raise ValueError("modulation projection must emit 3 * dim")
    mod, mod_cache = linear(cond, w_mod, b_mod)
    shift, scale, gate = mod[..., :d], mod[..., d:2 * d], mod[..., 2 * d:]
    xn, ln_cache = layernorm(x)
    h = xn * (1.0 + scale) + shift
    f_out, f_cache = sublayer(h)
    out = x + gate * f_out
    cache = (mod_cache, mod.shape, ln_cache, xn, scale, gate, f_out, f_cache)
    return out, cache


def reduce_to_shape(d: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over axes that were broadcast in the forward pass."""
    while d.ndim > len(shape):
        d = d.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and d.shape[ax] != 1:
            d = d.sum(axis=ax, keepdims=True)
    return d


def adaln_zero_backward(dout: np.ndarray, cache, sublayer_backward):
    """Returns (dx, dcond, dw_mod, db_mod, sublayer_param_grads).

    ``sublayer_backward(dF, f_cache)`` must return a tuple whose first
    element is the gradient w.r.t. the sub-layer input.
    """
    mod_cache, mod_shape, ln_cache, xn, scale, gate, f_out, f_cache = cache
    dgate = dout * f_out
    df_out = dout * gate
    dh, *f_param_grads = sublayer_backward(df_out, f_cache)
    dshift = dh
    dscale = dh * xn
    dxn = dh * (1.0 + scale)
    dx = layernorm_backward(dxn, ln_cache) + dout
    dmod = np.concatenate([dshift, dscale, dgate], axis=-1)
    dmod = reduce_to_shape(dmod, mod_shape)
    dcond, dw_mod, db_mod = linear_backward(dmod, mod_cache)
    return dx, dcond, dw_mod, db_mod, f_param_grads


# ---------------------------------------------------------------------------
# Parameter utilities
# ---------------------------------------------------------------------------


def zero_grads(params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def accumulate(grads: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    if g.shape != grads[name].shape:
        raise ValueError(f"gradient shape mismatch for {name}")
    grads[name] += g


def grad_global_norm(grads: Mapping[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return math.sqrt(total)


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    norm = grad_global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def adam_init(params: Mapping[str, np.ndarray]) -> dict:
    return {
        "step": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(
    params: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: dict,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
    lr_scales: Mapping[str, float] | None = None,
) -> None:
    """Adam with decoupled weight decay and optional per-parameter LR scales."""
    state["step"] += 1
    t = state["step"]
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        step_lr = lr * (lr_scales.get(name, 1.0) if lr_scales else 1.0)
        if weight_decay:
            p -= step_lr * weight_decay * p
        p -= step_lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def ema_update(avg: dict[str, np.ndarray], params: Mapping[str, np.ndarray],
               decay: float) -> None:
    """In-place exponential moving average of a parameter set."""
    for name, p in params.items():
        avg[name] *= decay
        avg[name] += (1.0 - decay) * p


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def grad_check(
    forward: Callable,
    inputs: Sequence[np.ndarray],
    eps: float = 1e-6,
    rng: np.random.Generator | None = None,
    max_coords: int | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward(*inputs)`` must return ``(out, backward)`` with
    ``backward(dout)`` yielding one gradient per input (None to skip).
    The check projects the output against a fixed random direction and
    probes every coordinate (or a random subset of ``max_coords`` per
    input for large tensors).
    """
    rng = rng or np.random.default_rng(0)
    out, backward = forward(*inputs)
    direction = rng.standard_normal(out.shape)
    analytic = backward(direction)
    if len(analytic) != len(inputs):
        raise ValueError("backward must return one gradient per input")

    def objective() -> float:
        return float((forward(*inputs)[0] * direction).sum())

    worst = 0.0
    for x, g in zip(inputs, analytic):
        if g is None:
            continue
        coords = np.arange(x.size)
        if max_coords is not None and x.size > max_coords:
            coords = rng.choice(x.size, size=max_coords, replace=False)
        gflat = np.asarray(g).reshape(-1)
        for c in coords:
            idx = np.unravel_index(c, x.shape)
            orig = x[idx]
            x[idx] = orig + eps
            f_plus = objective()
            x[idx] = orig - eps
            f_minus = objective()
            x[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(numeric), abs(gflat[c]), 1e-3)
            worst = max(worst, abs(numeric - gflat[c]) / denom)
    return worst
