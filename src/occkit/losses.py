"""Occupancy VAE objectives with exact gradients.

Every loss returns ``(scalar, gradient(s))`` computed in float64; the
gradients are verified against central finite differences in the test
suite.
"""

from __future__ import annotations

import numpy as np

from . import nn

FOCAL_GAMMA = 2.0

# Nothing here calls it: the benchmark's tracer wraps losses.sigmoid by name.
sigmoid = nn.sigmoid


def _rows_and_targets(
    probs: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(N, C) probability rows and their N class ids, checked."""
    p = probs.reshape(-1, probs.shape[-1])
    t = np.asarray(targets).reshape(-1)
    if len(p) == 0:
        raise ValueError("empty batch: need at least one probability row")
    if len(t) != len(p):
        raise ValueError("need one target per probability row")
    if t.min() < 0 or t.max() >= p.shape[1]:
        raise ValueError("target class id out of range")
    return p, t


def focal_loss(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -(1 - p_t)^FOCAL_GAMMA * log(p_t) over the rows of ``probs =
    softmax(logits)``; returns the gradient with respect to those logits."""
    if not np.all(np.isfinite(probs)):
        raise ValueError("non-finite probabilities")
    p, t = _rows_and_targets(probs, targets)
    n = len(p)
    idx = np.arange(n)
    # keep 1 - p_t strictly positive so the powers of it stay finite
    pt = np.clip(p[idx, t], 1e-300, np.nextafter(1.0, 0.0))
    one_m = 1.0 - pt
    log_pt = np.log(pt)
    per_voxel = -(one_m ** FOCAL_GAMMA) * log_pt
    loss = float(per_voxel.sum() / n)

    dfdp = FOCAL_GAMMA * one_m ** (FOCAL_GAMMA - 1.0) * log_pt - one_m ** FOCAL_GAMMA / pt
    coeff = (1.0 / n) * dfdp * pt  # chain through softmax: dp_t/dz_j = p_t (delta - p_j)
    dlogits = -coeff[:, None] * p
    dlogits[idx, t] += coeff
    return loss, dlogits.reshape(probs.shape)


def _lovasz_grad(gt_sorted: np.ndarray) -> np.ndarray:
    gts = gt_sorted.sum()
    intersection = gts - np.cumsum(gt_sorted)
    union = gts + np.cumsum(1.0 - gt_sorted)
    jaccard = 1.0 - intersection / union
    jaccard[1:] = jaccard[1:] - jaccard[:-1]
    return jaccard


def lovasz_softmax(
    probs: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Lovász extension of the Jaccard loss, averaged over present classes.

    Errors are sorted in descending order, and equal errors keep their
    index order, as a stable sort leaves them. The result does not depend
    on the algorithm numpy uses to sort. The gradient is exact wherever
    the sorted-error permutation is locally constant (everywhere except
    sort ties).
    """
    flat, t = _rows_and_targets(probs, targets)
    # a GEMV sums the short class rows far faster than sum(axis=-1); the sums
    # only decide this check, so their rounding order does not matter
    if not (np.max(np.abs(flat @ np.ones(flat.shape[1]) - 1.0)) <= 1e-6):
        raise ValueError("probability rows must sum to 1")
    n = len(flat)
    present = np.flatnonzero(np.bincount(t, minlength=flat.shape[1]))
    dprobs = np.zeros_like(flat)
    loss = 0.0
    for c in present:
        fg = (t == c).astype(np.float64)
        diff = fg - flat[:, c]
        errors = np.abs(diff)
        # Any sort, then ties put back in index order: run ids number the
        # distinct sorted values, and the keys run * n + index are distinct
        # and ordered by (value, index). Needs n * n < 2**63. Sorting the
        # keys moves none across a run, so position k keeps run[k] * n.
        neg = -errors
        p0 = np.argsort(neg)
        s = neg[p0]
        run = np.zeros(n, dtype=np.int64)
        np.cumsum(s[1:] != s[:-1], out=run[1:])
        run *= n
        perm = np.sort(run + p0) - run
        grad = _lovasz_grad(fg[perm])
        loss += float(errors[perm] @ grad)
        derr = np.empty_like(errors)
        derr[perm] = grad
        dprobs[:, c] += derr * -np.sign(diff)
    k = len(present)
    return loss / k, (dprobs / k).reshape(probs.shape)


def kl_standard_normal(
    mu: np.ndarray, logvar: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """KL(N(mu, exp(logvar)) || N(0, 1)), averaged over elements."""
    n = mu.size
    loss = float(-0.5 * (1.0 + logvar - mu ** 2 - np.exp(logvar)).sum() / n)
    dmu = mu / n
    dlogvar = -0.5 * (1.0 - np.exp(logvar)) / n
    return loss, dmu, dlogvar
