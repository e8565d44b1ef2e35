"""Point-cloud curation geometry: voxelization, label propagation, asset
fitting, dynamic-point removal, and occupancy resampling along shifted
ego paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .core import (
    GridSpec,
    LabelSchema,
    OrientedBox,
    PanopticVoxelGrid,
    Se3Pose,
    SemanticOccupancyGrid,
)


@dataclass(frozen=True)
class LabeledPointCloud:
    """N x 3 points with one panoptic label each."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if len(points) != len(labels):
            raise ValueError("points and labels length mismatch")
        if points.size and not np.all(np.isfinite(points)):
            raise ValueError("non-finite point coordinates")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)

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
    inside it; ties break toward the smaller label. Votes are counted as
    runs of sorted packed (voxel, compacted label) keys, so memory stays
    O(points) whatever the number of distinct labels. Points outside the
    grid are dropped; voxels without points stay free.
    """
    labels = np.full(spec.dims, PanopticVoxelGrid.FREE_LABEL, dtype=np.int64)
    if len(cloud):
        idx = spec.world_to_index(cloud.points)
        keep = spec.index_in_bounds(idx)
        dims = np.asarray(spec.dims)
        flat = ((idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2])[keep]
        del idx
        if len(flat):
            lab_ids, lab_inv = np.unique(cloud.labels[keep], return_inverse=True)
            num_labels = len(lab_ids)
            keys, counts = np.unique(flat * num_labels + lab_inv, return_counts=True)
            vox = keys // num_labels
            starts = np.flatnonzero(np.r_[True, vox[1:] != vox[:-1]])
            # stable lexsort, labels ascending per voxel: ties go to the smaller label
            win = np.lexsort((-counts, vox))[starts]
            labels.reshape(-1)[vox[win]] = lab_ids[keys[win] % num_labels]
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
    as many candidates, until the count reaches the cloud size.
    """
    n = len(points)
    # under the rule every build gives the same answer; this was the fastest measured
    tree = cKDTree(points, leafsize=64, balanced_tree=False, compact_nodes=False)
    idx = np.empty((len(query), k), dtype=np.intp)
    sq = np.empty((len(query), k))
    rows, m = np.arange(len(query)), min(k + 3, n)
    while len(rows):
        q = query[rows]
        cand = tree.query(q, k=m)[1].reshape(len(rows), m)
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
    The vote runs over all queries at once: each row of neighbour labels
    is sorted, so one label's members form a run whose length is its
    count and whose minimum distance is its nearest member.
    """
    if len(labeled) == 0:
        raise ValueError("empty labeled set")
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64).reshape(-1, 3)
    k = min(k, len(labeled))
    idx, sq = _nearest(labeled.points, query, k)
    lab = labeled.labels[idx]
    order = np.argsort(lab, axis=1, kind="stable")
    lab = np.take_along_axis(lab, order, axis=1).reshape(-1)
    dist = np.sqrt(np.take_along_axis(sq, order, axis=1)).reshape(-1)
    # runs of one label within one row; every row starts a run
    new_run = np.ones(lab.size, dtype=bool)
    new_run[1:] = lab[1:] != lab[:-1]
    new_run[::k] = True
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=lab.size)
    nearest = np.minimum.reduceat(dist, starts)
    row, row_first = starts // k, np.flatnonzero(starts % k == 0)
    top = counts == np.maximum.reduceat(counts, row_first)[row]
    top_nearest = np.where(top, nearest, np.inf)
    cand = top & (nearest == np.minimum.reduceat(top_nearest, row_first)[row])
    cand_lab = np.where(cand, lab[starts], np.iinfo(np.int64).max)
    return np.minimum.reduceat(cand_lab, row_first)


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
    points whose x and y lie in a square around its center of half-side
    ``r + 1e-9 * (1 + r + |cx| + |cy|)``, ``r`` being the radius of the
    circle through the footprint's corners. The margin is far above the
    rounding of the exact test, so no point it counts inside is skipped.
    """
    if len(cloud) == 0 or not boxes:
        return cloud
    x, y = cloud.points[:, 0], cloud.points[:, 1]
    inside = np.zeros(len(cloud), dtype=bool)
    for box in boxes:
        cx, cy = box.center[0], box.center[1]
        r = math.hypot(box.size[0], box.size[1]) / 2.0
        r += 1e-9 * (1.0 + r + abs(cx) + abs(cy))
        near = np.flatnonzero((np.abs(x - cx) <= r) & (np.abs(y - cy) <= r))
        inside[near] |= box.contains(cloud.points[near])
    return LabeledPointCloud(cloud.points[~inside], cloud.labels[~inside])


# voxels per slab of resample_occupancy
_SLAB_VOXELS = 1 << 14


def resample_occupancy(
    grid: SemanticOccupancyGrid, shift: EgoShift, schema: LabelSchema
) -> SemanticOccupancyGrid:
    """Resample the grid under an ego-frame change (nearest-neighbor labels).

    Output voxel centers are pulled back through the inverse transform
    and read the containing input voxel; samples leaving the grid
    become free. The grid is processed in slabs of whole x-planes, as
    many planes as fit in 16384 voxels (at least one), each written into
    the preallocated output, so memory stays at the output plus one slab.
    """
    spec = grid.spec
    nx, ny, nz = spec.dims
    inverse = shift.transform.inverse()
    planes = max(1, _SLAB_VOXELS // (ny * nz))
    out = np.full(spec.num_voxels, schema.free_class, dtype=grid.labels.dtype)
    for x0 in range(0, nx, planes):
        x1 = min(nx, x0 + planes)
        xs, ys, zs = np.meshgrid(np.arange(x0, x1), np.arange(ny), np.arange(nz),
                                 indexing="ij")
        centers = spec.index_to_center(np.stack([xs, ys, zs], axis=-1).reshape(-1, 3))
        src = spec.world_to_index(inverse.apply(centers))
        ok = spec.index_in_bounds(src)
        src_ok = src[ok]
        out[x0 * ny * nz:x1 * ny * nz][ok] = grid.labels[src_ok[:, 0], src_ok[:, 1],
                                                         src_ok[:, 2]]
    return SemanticOccupancyGrid(spec, out.reshape(spec.dims))
