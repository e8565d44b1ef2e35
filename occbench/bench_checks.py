"""Reference answers and output checks owned by the benchmark.

Every check returns a list of problems (empty when the output is right),
so a caller can count failures without stopping the run. The references
are written independently of occkit's implementations, work for any
seed, and use no stored golden files. ``digest`` fingerprints integer
outputs so two commits can be shown to produce bit-identical results.
"""

from __future__ import annotations

import hashlib

import numpy as np

from occkit.core import GROUND_BAND_Z, GridSpec


def digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _voxel_index(spec: GridSpec, points: np.ndarray) -> np.ndarray:
    return np.floor((points - np.asarray(spec.origin)) / spec.voxel_size).astype(np.int64)


def reference_voxelize(points, labels, spec: GridSpec, free_label: int) -> np.ndarray:
    """Majority label per voxel by a lexsort over (voxel, label) pairs.

    Ties between equally frequent labels go to the smaller label.
    """
    idx = _voxel_index(spec, points)
    keep = np.all((idx >= 0) & (idx < np.asarray(spec.dims)), axis=1)
    flat = np.ravel_multi_index(tuple(idx[keep].T), spec.dims)
    lab = np.asarray(labels)[keep]
    order = np.lexsort((lab, flat))
    flat, lab = flat[order], lab[order]
    starts = np.flatnonzero(np.r_[True, (flat[1:] != flat[:-1]) | (lab[1:] != lab[:-1])])
    counts = np.diff(np.r_[starts, len(flat)])
    pair_vox, pair_lab = flat[starts], lab[starts]
    best = np.lexsort((pair_lab, -counts, pair_vox))
    pair_vox, pair_lab = pair_vox[best], pair_lab[best]
    first = np.r_[True, pair_vox[1:] != pair_vox[:-1]]
    out = np.full(spec.num_voxels, free_label, dtype=np.int64)
    out[pair_vox[first]] = pair_lab[first]
    return out.reshape(spec.dims)


def check_voxelize(points, labels, spec, free_label, got: np.ndarray) -> list[str]:
    bad = int((reference_voxelize(points, labels, spec, free_label) != got).sum())
    return [f"voxelize_majority: {bad} voxels differ from the reference"] if bad else []


def reference_knn_label(points, labels, query, k: int) -> int:
    """Brute-force k-nearest majority; ties: nearest tied member, then smaller label."""
    d = np.sqrt(((points - query) ** 2).sum(axis=1))
    near = np.argpartition(d, k - 1)[:k]
    best = None
    for lab in np.unique(labels[near]):
        members = near[labels[near] == lab]
        key = (-len(members), d[members].min(), lab)
        best = key if best is None or key < best else best
    return int(best[2])


def check_knn(points, labels, queries, k, got, sample: np.ndarray) -> list[str]:
    k = min(k, len(points))
    bad = [int(q) for q in sample
           if reference_knn_label(points, labels, queries[q], k) != got[q]]
    return [f"knn_propagate: queries {bad[:5]} differ from brute force"] if bad else []


def check_remove(points, boxes, got_points) -> list[str]:
    inside = np.zeros(len(points), dtype=bool)
    for box in boxes:
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        rel = points - np.asarray(box.center)
        local = np.stack([rel[:, 0] * c + rel[:, 1] * s,
                          -rel[:, 0] * s + rel[:, 1] * c, rel[:, 2]], axis=1)
        inside |= np.all(np.abs(local) <= np.asarray(box.size) / 2, axis=1)
    if len(got_points) != (~inside).sum() or not np.array_equal(got_points, points[~inside]):
        return ["remove_points_in_boxes: kept points differ from the reference"]
    return []


def check_resample(src: np.ndarray, spec, pose, free_class, got, sample) -> list[str]:
    """Pull each sampled output voxel centre back through the inverse pose."""
    centres = np.asarray(spec.origin) + (sample + 0.5) * spec.voxel_size
    back = (centres - pose.translation) @ pose.rotation
    idx = _voxel_index(spec, back)
    inb = np.all((idx >= 0) & (idx < np.asarray(spec.dims)), axis=1)
    want = np.full(len(sample), free_class, dtype=np.int64)
    want[inb] = src[tuple(idx[inb].T)]
    bad = int((got[tuple(sample.T)] != want).sum())
    return [f"resample_occupancy: {bad} sampled voxels differ"] if bad else []


def check_overwrite(before, layout, rules, got) -> list[str]:
    want = before.copy()
    for rule in rules:
        flagged = (layout.bits >> rule.channel) & 1 == 1
        cells = flagged
        if rule.mask == "edge":
            p = np.pad(flagged, 1)
            interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
            cells = flagged & ~interior
        want[cells, :GROUND_BAND_Z] = rule.new_class
    bad = int((want != got).sum())
    return [f"layout_overwrite: {bad} voxels differ"] if bad else []


def _ray_box(spec: GridSpec, origins, dirs):
    """Entry and exit ray parameters of the grid box (slab method)."""
    lo = np.asarray(spec.origin)
    hi = lo + np.asarray(spec.dims) * spec.voxel_size
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = (lo - origins) / dirs, (hi - origins) / dirs
    inside = (origins >= lo) & (origins < hi)
    zero = dirs == 0
    near = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(a, b))
    far = np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(a, b))
    return np.maximum(near.max(axis=1), 0.0), far.min(axis=1)


def sampled_first_hit(labels, spec, origins, dirs, max_range, free, substeps=20):
    """First non-free voxel by dense sampling, with a no-skip certificate.

    A ray is certified when every consecutive sample pair up to the
    reported one moved at most one voxel along one axis: such a segment
    crosses at most one boundary plane, so no voxel was skipped.
    """
    ts = np.arange(0.0, max_range, spec.voxel_size / substeps)
    idx = _voxel_index(spec, origins[:, None, :] + ts[None, :, None] * dirs[:, None, :])
    inb = np.all((idx >= 0) & (idx < np.asarray(spec.dims)), axis=-1)
    labs = np.full(inb.shape, free, dtype=np.int64)
    labs[inb] = labels[tuple(idx[inb].T)]
    nonfree = labs != free
    hit = nonfree.any(axis=1)
    first = np.where(hit, nonfree.argmax(axis=1), len(ts) - 1)
    jumps = np.abs(np.diff(idx, axis=1)).sum(axis=-1) > 1
    bad = np.concatenate([np.zeros((len(origins), 1), dtype=bool),
                          np.maximum.accumulate(jumps, axis=1)], axis=1)
    rows = np.arange(len(origins))
    return hit, idx[rows, first], ~bad[rows, first]


def hit_indices(spec: GridSpec, buffers) -> np.ndarray:
    """(H, W, 3) voxel index of each hit pixel's centre; -1 on misses."""
    iv = np.full(buffers.coordinate.shape, -1, dtype=np.int64)
    iv[buffers.hit_mask] = _voxel_index(spec, buffers.coordinate[buffers.hit_mask])
    return iv


def check_camera(grid, cam, buffers, max_range, free, rng, n_rays=64) -> list[str]:
    """Hits are non-free and in range; sampled rays agree with dense sampling."""
    spec, labels = grid.spec, grid.labels
    problems = []
    hit = buffers.hit_mask
    iv = hit_indices(spec, buffers)[hit]
    lab = labels[tuple(iv.T)]
    if np.any(lab == free):
        problems.append(f"{cam.name}: a hit voxel is free")
    if not np.array_equal(buffers.semantic[hit], lab) or np.any(buffers.semantic[~hit] != free):
        problems.append(f"{cam.name}: semantic buffer disagrees with the grid")
    lo = np.asarray(spec.origin) + iv * spec.voxel_size
    gap = np.maximum(np.maximum(lo - cam.center(), cam.center() - lo - spec.voxel_size), 0.0)
    if np.any(np.linalg.norm(gap, axis=1) > max_range + 1e-9):
        problems.append(f"{cam.name}: a hit voxel lies beyond max_range")
    dirs = cam.pixel_directions().reshape(-1, 3)
    rays = rng.choice(len(dirs), size=min(n_rays, len(dirs)), replace=False)
    origins = np.broadcast_to(cam.center(), (len(rays), 3))
    ohit, oiv, cert = sampled_first_hit(labels, spec, origins, dirs[rays], max_range, free)
    got_hit = hit.reshape(-1)[rays]
    got_iv = hit_indices(spec, buffers).reshape(-1, 3)[rays]
    agree = (got_hit == ohit) & (~ohit | np.all(got_iv == oiv, axis=1))
    if np.any(cert & ~agree):
        problems.append(f"{cam.name}: {int((cert & ~agree).sum())} sampled rays disagree")
    return problems


def ray_steps(spec: GridSpec, cam, buffers, max_range) -> np.ndarray:
    """Computed voxel crossings per ray, from entry to hit or to the exit voxel.

    The traversal steps one axis by one voxel per loop iteration, so the
    count is the L1 index distance between first and last voxel, plus 1.
    Rays that never enter the grid within range count 0.
    """
    dirs = cam.pixel_directions().reshape(-1, 3)
    origins = np.broadcast_to(cam.center(), dirs.shape)
    t_in, t_out = _ray_box(spec, origins, dirs)
    enters = (t_in <= t_out) & (t_in <= max_range)
    dims = np.asarray(spec.dims)
    first = np.clip(_voxel_index(spec, origins + t_in[:, None] * dirs), 0, dims - 1)
    t_last = np.minimum(max_range, t_out - 1e-9)
    last = np.clip(_voxel_index(spec, origins + t_last[:, None] * dirs), 0, dims - 1)
    hit = buffers.hit_mask.reshape(-1)
    last[hit] = hit_indices(spec, buffers).reshape(-1, 3)[hit]
    return np.where(enters, np.abs(last - first).sum(axis=1) + 1, 0)


RENDER_COUNTS = ("render.rays", "render.hit_rate", "render.voxel_steps_per_ray",
                 "render.loop_iters_per_call")


def render_counts(spec: GridSpec, cameras, buffers, max_range) -> dict[str, float]:
    """render.* counts over a set of cameras, all derived from public outputs."""
    steps = [ray_steps(spec, c, b, max_range) for c, b in zip(cameras, buffers)]
    rays = sum(len(s) for s in steps)
    return {
        "render.rays": rays / len(steps),
        "render.hit_rate": sum(int(b.hit_mask.sum()) for b in buffers) / rays,
        "render.voxel_steps_per_ray": sum(int(s.sum()) for s in steps) / rays,
        "render.loop_iters_per_call": sum(int(s.max()) for s in steps) / len(steps),
    }
