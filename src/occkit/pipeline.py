"""Point-cloud curation geometry: voxelization, label propagation, asset
fitting, dynamic-point removal, and occupancy resampling along shifted
ego paths.

``scipy.spatial`` (the k-d tree) loads on the first ``knn_propagate`` call of
a process, not at import: about 0.4 s and 37 MB of resident memory (2-core
host, scipy 1.17), which a process that never propagates labels does not pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    PANOPTIC_LABEL_MAX,
    PANOPTIC_LABEL_MIN,
    GridSpec,
    LabelSchema,
    OrientedBox,
    PanopticVoxelGrid,
    Se3Pose,
    SemanticOccupancyGrid,
    panoptic_decode,
)


@dataclass(frozen=True)
class LabeledPointCloud:
    """N x 3 float64 points with one panoptic label each.

    ``labels`` must have an integer dtype other than bool and lie in the
    panoptic range [1000, 17999] (``ValueError``); they are stored as uint16,
    without a copy when they already are.
    """

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        labels = np.asarray(self.labels).reshape(-1)
        if len(points) != len(labels):
            raise ValueError("points and labels length mismatch")
        if not np.issubdtype(labels.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError(f"panoptic labels need an integer dtype, not {labels.dtype}")
        if labels.size:
            panoptic_decode(np.array([labels.min(), labels.max()]))  # range check
        if points.size and not np.all(np.isfinite(points)):
            raise ValueError("non-finite point coordinates")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels.astype(np.uint16, copy=False))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class EgoShift:
    """Rigid change of the ego frame; maps old-frame coords to new-frame."""

    transform: Se3Pose


def voxelize_majority(
    cloud: LabeledPointCloud, spec: GridSpec, schema: LabelSchema
) -> PanopticVoxelGrid:
    """Majority-vote voxelization over sorted (voxel, label) keys.

    Each voxel takes the most frequent panoptic label among the points
    inside it; ties break toward the smaller label. Votes are runs of sorted
    int64 keys ``voxel * 17000 + label - 1000`` (the cloud holds every label
    in [1000, 17999]), so memory stays O(points) whatever the number of labels;
    a voxel's winner is the first key of its run with the run's top count
    (linear time). Points outside the grid are dropped; voxels without points
    stay free. The grid's labels are uint16.
    """
    labels = np.full(spec.dims, PanopticVoxelGrid.FREE_LABEL, dtype=np.uint16)
    keep, flat = np.ones(len(cloud), dtype=bool), np.zeros(len(cloud), dtype=np.int64)
    buf = np.empty(len(cloud))  # floor((p - origin) / voxel_size), a column at a time
    for a, d in enumerate(spec.dims):
        np.subtract(cloud.points[:, a], spec.origin[a], out=buf)
        np.floor(np.divide(buf, spec.voxel_size, out=buf), out=buf)
        keep &= (buf >= 0) & (buf < d)    # tested in float, before the cast
        flat = flat * d + buf.astype(np.int64)
    flat = flat[keep]
    del buf
    if len(flat):
        lo, span = PANOPTIC_LABEL_MIN, PANOPTIC_LABEL_MAX - PANOPTIC_LABEL_MIN + 1
        flat *= span
        flat += cloud.labels[keep] - lo
        keys, counts = np.unique(flat, return_counts=True)
        del flat
        vox = keys // span
        starts = np.flatnonzero(np.r_[True, vox[1:] != vox[:-1]])
        run_top = np.maximum.reduceat(counts, starts)
        top = counts == np.repeat(run_top, np.diff(starts, append=len(keys)))
        win = np.minimum.reduceat(np.where(top, np.arange(len(keys)), len(keys)), starts)
        labels.reshape(-1)[vox[starts]] = keys[win] % span + lo
    grid = PanopticVoxelGrid(spec, labels)
    grid.validate(schema)
    return grid


def _nearest(points: np.ndarray, query: np.ndarray,
             k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and squared distances of each query's k nearest points,
    each row ordered by (squared distance, point index).

    The tree proposes k + 3 candidates per row and numpy recomputes their
    squared distances. A row whose k-th squared distance reaches its last
    candidate's (less a 1e-12 relative margin, which covers the tree's own
    rounding) may have an uncounted tie, so it is queried again with twice
    as many candidates, until the count reaches the cloud size. The tree holds
    the points in ``_xy_cells`` order and is queried in x order, so that near
    points and consecutive queries share nodes (costs: ``knn_propagate``).
    The tree reports a neighbour it cannot reach at a finite distance as index
    n; that happens only when squared distances overflow float64, and raises
    ``ValueError``."""
    from scipy.spatial import cKDTree

    n = len(points)
    # under the rule every build gives the same answer; this was the fastest measured
    perm = np.argsort(_xy_cells(points)[2], kind="stable")
    tree = cKDTree(np.take(points, perm, axis=0), leafsize=64, balanced_tree=False,
                   compact_nodes=False)
    idx = np.empty((len(query), k), dtype=np.intp)
    sq = np.empty((len(query), k))
    rows, m = np.argsort(query[:, 0], kind="stable"), min(k + 3, n)
    while len(rows):
        q = query[rows]
        cand = tree.query(q, k=m)[1].reshape(len(rows), m)
        if (cand == n).any():
            raise ValueError("squared distances overflow float64")
        cand = perm[cand]
        dx, dy, dz = (points[cand, a] - q[:, a, None] for a in range(3))
        cand_sq = (dx * dx + dy * dy) + dz * dz
        order = np.lexsort((cand, cand_sq))
        cand = np.take_along_axis(cand, order, axis=1)
        cand_sq = np.take_along_axis(cand_sq, order, axis=1)
        idx[rows], sq[rows] = cand[:, :k], cand_sq[:, :k]
        if m == n:
            break
        again = cand_sq[:, k - 1] >= cand_sq[:, -1] * (1.0 - 1e-12)
        rows, m = rows[again], min(2 * m, n)
    return idx, sq


def knn_propagate(
    labeled: LabeledPointCloud, query: np.ndarray, k: int
) -> np.ndarray:
    """Majority label of the k nearest labeled points per query point.

    The k nearest are the first k labeled points ordered by squared
    distance, computed in float64 as ``(dx*dx + dy*dy) + dz*dz``, then by
    their index in ``labeled``; so the k-d tree's build never changes the
    output. Majority ties break toward the nearest tied member's label,
    then toward the smaller label; k is clamped to the labeled-set size.
    Returns one label per query in the cloud's dtype (uint16).
    The vote compares each neighbour's label with every label of its row, over
    all queries at once: O(Q * k^2) work. Seed-1 bench cloud (960 k points, 20 k
    queries, k = 5), 2-core host, best of 5: ordering 45 ms, build 105 (with
    scipy's fixed axis-0 min and max passes), query 61, candidate rule 16, vote 5."""
    if len(labeled) == 0:
        raise ValueError("empty labeled set")
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64).reshape(-1, 3)
    k = min(k, len(labeled))
    idx, sq = _nearest(labeled.points, query, k)
    lab = labeled.labels[idx]
    counts = sum(lab == lab[:, j, None] for j in range(k))
    top = counts == counts.max(axis=1, keepdims=True)
    dist = np.where(top, np.sqrt(sq), np.inf)
    nearest = top & (dist == dist.min(axis=1, keepdims=True))
    return np.where(nearest, lab, np.iinfo(lab.dtype).max).min(axis=1)


def fit_asset_to_box(asset: np.ndarray, box: OrientedBox) -> np.ndarray:
    """Anisotropically scale a canonical asset to a box and pose it.

    The asset's axis-aligned extents are scaled to exactly
    (width, length, height), its bounding-box midpoint moves to the box
    center, and the whole cloud rotates by the box yaw.
    """
    asset = np.asarray(asset, dtype=np.float64).reshape(-1, 3)
    if len(asset) == 0:
        raise ValueError("empty asset")
    lo, hi = asset.min(axis=0), asset.max(axis=0)
    extent = hi - lo
    if np.any(extent <= 0):
        raise ValueError("asset has zero extent along an axis")
    scale = np.asarray(box.size, dtype=np.float64) / extent
    local = (asset - (lo + hi) / 2.0) * scale
    return box.pose().apply(local)


def remove_points_in_boxes(
    cloud: LabeledPointCloud, boxes: Sequence[OrientedBox]
) -> LabeledPointCloud:
    """Drop every point inside any box (boundary inclusive), keeping order.

    A box runs its exact test, :meth:`OrientedBox.contains`, only on the
    points whose x and y lie within :attr:`OrientedBox.reach` of its center.
    Both tests run only on ``_xy_cells`` cells that a square widened by more
    than their rounding reaches.
    """
    if len(cloud) == 0 or not boxes:
        return cloud
    points = cloud.points
    cxy = np.array([box.center[:2] for box in boxes], dtype=np.float64)
    r = np.array([box.reach for box in boxes])
    lo, width, key = _xy_cells(points)
    reach, marked = (r + r / 2**20)[:, None], np.zeros((_BINS, _BINS), dtype=bool)
    # an axis of zero extent has the width tiny, so an edge's cell overflows to
    # +-inf, which the clip maps to the table's end
    with np.errstate(over="ignore"):
        for (i0, j0), (i1, j1) in zip(*(np.clip((e - lo) / width, 0, _BINS - 1).astype(int)
                                        for e in (cxy - reach, cxy + reach))):
            marked[i0:i1 + 1, j0:j1 + 1] = True
    cand = np.flatnonzero(np.take(marked.reshape(-1), key))
    del key
    x, y, keep = points[cand, 0], points[cand, 1], np.ones(len(points), dtype=bool)
    for box, (cx, cy), rb in zip(boxes, cxy, r):
        near = cand[(np.abs(x - cx) <= rb) & (np.abs(y - cy) <= rb)]
        keep[near] &= ~box.contains(points[near])
    # compress is faster on (N, 3) rows, a boolean index leaner on labels
    return LabeledPointCloud(np.compress(keep, points, axis=0), cloud.labels[keep])


# cells per axis of the _xy_cells table; voxels per slab of resample_occupancy
_BINS, _SLAB_VOXELS = 256, 1 << 14


def _xy_cells(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lo, width, key)``: a 256 x 256 table over the xy extent (finite width) and each
    point's cell ``i * 256 + j`` (uint16), ``i = int(min((x - lo) / width, 255))``: monotone."""
    # per column, as reducing the (N, 2) view over axis 0 is ten times slower
    lo, hi = (np.array([f(points[:, a]) for a in range(2)]) for f in (np.min, np.max))
    width = np.maximum(hi / _BINS - lo / _BINS, np.finfo(np.float64).tiny)
    buf, key = np.empty(len(points)), np.zeros(len(points), dtype=np.uint16)
    for a in range(2):
        np.divide(np.subtract(points[:, a], lo[a], out=buf), width[a], out=buf)
        key = key * _BINS + np.minimum(buf, _BINS - 1, out=buf).astype(np.uint16)
    return lo, width, key


def resample_occupancy(
    grid: SemanticOccupancyGrid, shift: EgoShift, schema: LabelSchema
) -> SemanticOccupancyGrid:
    """Resample the grid under an ego-frame change (nearest-neighbor labels).

    Output voxel centers are pulled back through the inverse transform
    and read the containing input voxel; samples leaving the grid become
    free. Per slab of whole x-planes (up to 16384 voxels, at least one),
    :meth:`Se3Pose.rotate` turns the per-axis centre rows broadcast over the
    slab, with the bits of :meth:`Se3Pose.apply`. Each index is floored,
    clipped to [-1, n] and read by one ``take`` from the input framed by one
    free voxel. The output's labels keep the input's dtype.
    """
    spec = grid.spec
    nx, ny, nz = dims = spec.dims
    inverse = shift.transform.inverse()
    rows = [o + (np.arange(n) + 0.5) * spec.voxel_size for o, n in zip(spec.origin, dims)]
    planes = min(nx, max(1, _SLAB_VOXELS // (ny * nz)))
    framed = np.pad(grid.labels, 1, constant_values=schema.free_class)
    strides = ((ny + 2) * (nz + 2), nz + 2, 1)
    out = np.empty(dims, dtype=grid.labels.dtype)
    for x0 in range(0, nx, planes):
        q = inverse.rotate(rows[0][x0:x0 + planes, None, None], rows[1][:, None], rows[2])
        src = sum((np.clip(np.floor((c + t - o) / spec.voxel_size), -1, n) + 1) * s
                  for c, t, o, n, s in zip(q, inverse.translation, spec.origin, dims, strides))
        np.take(framed.reshape(-1), src.astype(np.intp), out=out[x0:x0 + planes])
    return SemanticOccupancyGrid(spec, out)
