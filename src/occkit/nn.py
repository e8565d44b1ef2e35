"""Deterministic float64 tensor layers with hand-written backward passes.

Every forward returns ``(out, cache)``; the matching ``*_backward``
consumes ``(dout, cache)`` and returns exact gradients. The layer menu
is what the occupancy VAE uses: linear, layernorm, silu, multi-head
attention, convolution with space/depth reshuffles, and embedding
lookup, plus Adam and gradient clipping. Each piece is verifiable by
central finite differences at 64-bit precision. There is no autodiff
graph: models compose these calls and mirror them by hand in reverse.
The vectorised layers do the float operations of plain loops in the
same order; ``tests/test_nn.py`` keeps those as oracles.

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
    return x * s, (x, s)


def silu_backward(dout: np.ndarray, cache) -> np.ndarray:
    x, s = cache
    return dout * (s * (1.0 + x * (1.0 - s)))


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
# Multi-head attention
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
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    attn = e / e.sum(axis=-1, keepdims=True)
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
) -> None:
    """One in-place Adam update of every parameter."""
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
