"""Deterministic float64 tensor layers with hand-written backward passes.

Every forward returns ``(out, cache)``; the matching ``*_backward``
consumes ``(dout, cache)`` and returns exact gradients. ``silu``'s cache is
its derivative: one array, where input and sigmoid would be two. The layer
menu is what the occupancy VAE uses: linear, layernorm, silu, multi-head
attention, a same-size convolution with odd kernel sides (zero-padded by
k // 2, stride 1), the space/depth shuffles that resample by 2x around a
linear layer, and embedding lookup, plus Adam and gradient clipping.
Each piece is verifiable by central finite differences at 64-bit
precision. There is no autodiff graph: a model's forward pass records the
matching backward calls on a list, a tape, and replays it once in reverse,
consuming it (see :mod:`occkit.vae`). The vectorised layers do the float
operations of plain loops in the same order; ``tests/test_nn.py`` keeps
those as oracles.

Randomness is drawn from named Philox streams derived from one root
seed, so every training run is reproducible across platforms:
``stream(seed, "vae/init")`` always yields the same sequence.
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
    return x * s, s * (1.0 + x * (1.0 - s))


def silu_backward(dout: np.ndarray, cache) -> np.ndarray:
    return dout * cache


# ---------------------------------------------------------------------------
# Linear / normalization
# ---------------------------------------------------------------------------


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"inner dims disagree: {x.shape[-1]} vs {w.shape[0]}")
    return x @ w + b, (x, w)


def linear_backward(dout: np.ndarray, cache):
    x, w = cache
    dx = dout @ w.T
    dw = x.reshape(-1, x.shape[-1]).T @ dout.reshape(-1, dout.shape[-1])
    db = dout.reshape(-1, dout.shape[-1]).sum(axis=0)
    return dx, dw, db


def layernorm(x: np.ndarray):
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-6)
    xhat = xc * inv
    return xhat, (xhat, inv)


def layernorm_backward(dout: np.ndarray, cache) -> np.ndarray:
    xhat, inv = cache
    m1 = dout.mean(axis=-1, keepdims=True)
    m2 = (dout * xhat).mean(axis=-1, keepdims=True)
    return inv * (dout - m1 - xhat * m2)


# ---------------------------------------------------------------------------
# Multi-head attention
# ---------------------------------------------------------------------------


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis. Its maximum is a chain over the columns: exact in
    any order, and much faster than max(axis=-1) over a short axis; the sum stays a
    reduction, as a column chain matches its pairwise order only below 8 columns."""
    row_max = logits[..., 0]
    for j in range(1, logits.shape[-1]):
        row_max = np.maximum(row_max, logits[..., j])
    shifted = logits - row_max[..., None]
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dprobs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Gradient through a softmax over the last axis, given its output."""
    return probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    *batch, s, d = x.shape
    return x.reshape(*batch, s, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *batch, h, s, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*batch, s, h * dh)


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int):
    """Multi-head softmax attention of every query over every key.

    q, k, v: (..., S, D) with D divisible by ``heads``. There is no mask;
    the name stays because the benchmark reports this layer's time as
    ``nn.masked_attention.s``.
    """
    if q.shape[-1] % heads:
        raise ValueError("feature dim must be divisible by heads")
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    attn = softmax(scores)
    out = attn @ vh
    cache = (qh, kh, vh, attn, heads, scale)
    return _merge_heads(out), cache


def masked_attention_backward(dout: np.ndarray, cache):
    qh, kh, vh, attn, heads, scale = cache
    doh = _split_heads(dout, heads)
    dvh = attn.swapaxes(-1, -2) @ doh
    dattn = doh @ vh.swapaxes(-1, -2)
    ds = softmax_backward(dattn, attn)
    dqh = (ds @ kh) * scale
    dkh = (ds.swapaxes(-1, -2) @ qh) * scale
    return _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)


# ---------------------------------------------------------------------------
# Convolution and space/depth reshuffles on (B, H, W, C) maps
# ---------------------------------------------------------------------------


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(B, Ho, Wo, kh*kw*Cin) windows of a padded input, in (i, j, c) order."""
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(*windows.shape[:3], -1)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-size convolution with odd kernel sides, zero-padded by k // 2.

    One GEMM over (i, j, c)-ordered im2col columns. Caches ``(xp, w)``, xp
    the padded input: backward rebuilds the kh*kw times larger columns
    instead of keeping them."""
    kh, kw, cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ValueError("channel mismatch")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel sides must be odd")
    xp = np.pad(x, ((0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)))
    y = _im2col(xp, kh, kw) @ w.reshape(-1, cout)
    return y + b, (xp, w)


def conv2d_backward(dout: np.ndarray, cache):
    xp, w = cache
    kh, kw, cin, cout = w.shape
    bsz, ho, wo, _ = dout.shape
    dflat = dout.reshape(-1, cout)
    cols = _im2col(xp, kh, kw).reshape(-1, kh * kw * cin)
    # cols.T @ dflat in the GEMM orientation BLAS runs faster; the two orders
    # round alike under some BLAS kernels only
    dw = (dflat.T @ cols).T.reshape(w.shape)
    del cols
    db = dflat.sum(axis=0)
    dxp = np.zeros(xp.shape, dtype=dout.dtype)
    for i in range(kh):
        for j in range(kw):  # one tap's contiguous slab of the column gradient
            slab = (dflat @ w[i, j].T).reshape(bsz, ho, wo, cin)
            dxp[:, i:i + ho, j:j + wo, :] += slab
    return dxp[:, kh // 2:kh // 2 + ho, kw // 2:kw // 2 + wo, :], dw, db


def space_to_depth(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B, H/2, W/2, 4C): each 2x2 patch's pixels, row-major, on channels."""
    bsz, h, w, c = x.shape
    y = x.reshape(bsz, h // 2, 2, w // 2, 2, c)
    return y.transpose(0, 1, 3, 2, 4, 5).reshape(bsz, h // 2, w // 2, 4 * c)


def depth_to_space(x: np.ndarray) -> np.ndarray:
    """(B, H, W, 4C) -> (B, 2H, 2W, C), the inverse of :func:`space_to_depth`."""
    bsz, h, w, c = x.shape
    y = x.reshape(bsz, h, w, 2, 2, c // 4).transpose(0, 1, 3, 2, 4, 5)
    return y.reshape(bsz, 2 * h, 2 * w, c // 4)


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


# ---------------------------------------------------------------------------
# Parameter utilities
# ---------------------------------------------------------------------------


def zero_grads(params: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def accumulate(grads: dict[str, np.ndarray], name: str, g: np.ndarray) -> None:
    if g.shape != grads[name].shape:
        raise ValueError(f"gradient shape mismatch for {name}")
    grads[name] += g


def clip_grads(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale the gradients in place to a global norm <= max_norm (> 0); returns the old norm."""
    if not max_norm > 0:
        raise ValueError(f"max_norm must be > 0, not {max_norm!r}")
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
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


def adam_step(params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
              state: dict, lr: float) -> None:
    """One in-place Adam update of every parameter, betas (0.9, 0.999), eps 1e-8."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
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
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


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
    input for large tensors). Round-off adds about ulp(f)/eps: one VAE attention block
    with N(0, 1) weights read 0.7-2.8e-5 at the default ``eps`` and 0.7-2.1e-6 at 1e-5
    (six seeds), one attention layer 3e-7; check blocks against 1e-5 with ``eps=1e-5``.
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
