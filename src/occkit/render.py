"""Cameras, ray embeddings, and voxel raycasting into condition buffers.

Camera convention: +z looks forward, +x right (pixel u), +y down
(pixel v); rays leave through pixel centers (u + 0.5, v + 0.5). Rays
march the occupancy volume with an incremental traversal (Amanatides &
Woo 1987) that visits exactly the voxels the ray pierces, in order; the
first non-free voxel within range defines the semantic and coordinate
buffers.

The traversal takes nearly all of a rig render, and its cost is the cost
of one vectorized step times the number of steps (about 74 voxel steps
per ray and 225 steps per call on a 24-camera, 160x90 rig over the
standard 256x256x25 grid). The entry set-up and the step keep one
contiguous row per axis, and the step reads an occupancy array framed by
a border, so it needs no bounds test. The occupancy array is rebuilt in
every call. A 160x90 call of that rig splits into entry 1.7-1.9 ms,
occupancy 0.9-1.3 ms and loop 18-20 ms (median camera, best of 7). The
step's axis is ``y + z * (2 - y)`` of the 0/1 tests ``y = ty < tx`` and
``z = tz < min(tx, ty)``: z, else y, else x, so ties go to the lowest
axis. There is no empty-space skipping; it lost in numpy (2-core host):

* Leaping 8x8x1 empty bricks, with crossing times from integer boundary
  counts, gave bit-identical buffers and cut loop iterations per call from
  224 to 74, but the pass got 1.44x slower: numpy spent 283 ms per pass
  on about 25 k switches per camera between leaping and stepping.
* Clipping rays to a coarse per-column max-height removed 43% of the
  path length, but building and applying it cost 0.9 s per rig, more
  than the 0.6 s it saved.

``scipy.spatial.transform`` (rotation interpolation) loads on the first
``densify_rig`` call of a process, not at import: about 0.4 s and 37 MB of
resident memory with ``scipy.spatial`` (2-core host, scipy 1.17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridSpec, LabelSchema, Se3Pose, SemanticOccupancyGrid

BASE_ROLES = ("FL", "F", "FR", "BR", "B", "BL")


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: Se3Pose
    role: str = ""
    name: str = ""

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside the image")
        if not self.name:
            object.__setattr__(self, "name", self.role)

    def center(self) -> np.ndarray:
        return self.pose.translation

    def pixel_directions(self) -> np.ndarray:
        """Unit world-space ray directions through all pixel centers, (H, W, 3)."""
        u = (np.arange(self.width) + 0.5 - self.cx) / self.fx
        v = (np.arange(self.height) + 0.5 - self.cy) / self.fy
        uu, vv = np.meshgrid(u, v, indexing="xy")
        n = np.sqrt(uu * uu + vv * vv + 1.0)  # the bits of np.linalg.norm over (u, v, 1)
        return np.stack([uu / n, vv / n, 1.0 / n], axis=-1) @ self.pose.rotation.T

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World points -> continuous pixel coords (u, v) and camera depth z."""
        local = self.pose.inverse().apply(points)
        z = local[..., 2]
        u = self.fx * local[..., 0] / z + self.cx
        v = self.fy * local[..., 1] / z + self.cy
        return np.stack([u, v], axis=-1), z


@dataclass
class GeometryBuffers:
    """Per-camera condition triple plus the hit mask."""

    semantic: np.ndarray      # (H, W) class ids
    coordinate: np.ndarray    # (H, W, 3) world meters, zero sentinel on miss
    plucker: np.ndarray       # (H, W, 6) = (direction, moment)
    hit_mask: np.ndarray      # (H, W) bool

    def validate(self) -> None:
        if not np.all(np.isfinite(self.coordinate[self.hit_mask])):
            raise ValueError("non-finite hit coordinates")
        d, m = self.plucker[..., :3], self.plucker[..., 3:]
        if np.max(np.abs((d * m).sum(axis=-1))) > 1e-12:
            raise ValueError("ray moment not orthogonal to direction")


@dataclass
class CameraRig:
    """Ordered cameras; list order is the cyclic adjacency used for insertion."""

    cameras: list[Camera]

    def __post_init__(self):
        base = [c.role for c in self.cameras if c.role in BASE_ROLES]
        if len(base) != len(set(base)):
            raise ValueError("duplicate base role in rig")
        names = [c.name for c in self.cameras]
        if len(names) != len(set(names)):
            raise ValueError("duplicate camera name in rig")


def plucker_embedding(directions: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """(H, W, 6) Pluecker rays (direction, origin x direction) from unit
    ``directions`` (H, W, 3) sharing one ``origin``."""
    m = np.cross(np.broadcast_to(origin, directions.shape), directions)
    return np.concatenate([directions, m], axis=-1)


def raycast_grid(
    labels: np.ndarray,
    spec: GridSpec,
    origins: np.ndarray,
    dirs: np.ndarray,
    max_range: float,
    free_class: int,
) -> tuple[np.ndarray, np.ndarray]:
    """March rays through the voxel grid; first non-free voxel wins.

    Vectorized over rays: every iteration moves each live ray into the
    next voxel it pierces. Returns (hit (N,), voxel index (N, 3), zero on a
    miss); ray parameters ``t`` below are in units of ``|dir|``.

    * Entry: a ray starts at ``t = max(t_grid_enter, 0)`` in the voxel
      holding that point, clipped into the grid; a ray from inside the
      grid starts in its origin's voxel at ``t = 0``. A ray that misses
      the grid's box, or enters it beyond ``max_range``, misses.
    * Ties: the ray steps across the nearest voxel boundary; when two or
      three boundary times are equal, the lowest axis (x, then y, then z)
      steps first, one voxel per step, so a ray through an edge or corner
      visits the voxels between.
    * Range: a voxel counts when the ray enters it at ``t <= max_range``.
    * Rays need finite origins and finite, non-zero directions; others
      raise ``ValueError``.

    Results are bit-identical to the reference traversal kept in the tests.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = len(origins)
    dims = np.asarray(spec.dims)[:, None]
    g0 = np.asarray(spec.origin)[:, None]
    vox = spec.voxel_size
    g1 = g0 + dims * vox
    # Per-ray state is one contiguous row per axis, (3, N).
    o, d = np.ascontiguousarray(origins.T), np.ascontiguousarray(dirs.T)

    hit = np.zeros(n, dtype=bool)
    hit_iv = np.zeros((n, 3), dtype=np.int64)

    zero = d == 0.0
    if zero.all(axis=0).any() or not (np.isfinite(o).all() and np.isfinite(d).all()):
        raise ValueError("rays need finite origins and finite, non-zero directions")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ta = (g0 - o) / d
        tb = (g1 - o) / d
    inside = (o >= g0) & (o < g1)
    lo_t = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(ta, tb))
    hi_t = np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(ta, tb))
    t_enter = np.maximum(lo_t.max(axis=0), 0.0)
    t_exit = hi_t.min(axis=0)
    active = np.nonzero((t_enter <= t_exit) & (t_enter <= max_range))[0]
    if len(active) == 0:
        return hit, hit_iv

    o, d, t_cur = o.take(active, axis=1), d.take(active, axis=1), t_enter[active]
    iv = np.clip(np.floor((o + t_cur * d - g0) / vox).astype(np.int64), 0, dims - 1)
    boundary = g0 + (iv + (d > 0)) * vox
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tm = np.where(d != 0, (boundary - o) / d, np.inf).ravel()
        td = np.where(d != 0, vox / np.abs(d), np.inf).ravel()

    # Labels become an occupancy array (0 free, 1 occupied) framed by a border
    # of 2: a ray that steps out of the grid reads 2, so no step needs a
    # bounds test.
    occ = np.full(dims[:, 0] + 2, 2, dtype=np.uint8)
    np.not_equal(labels, free_class, out=occ[1:-1, 1:-1, 1:-1].view(bool))
    strides = np.array([[occ.shape[1] * occ.shape[2]], [occ.shape[2]], [1]])
    cell = strides[:, 0] @ (iv + 1)
    ts = np.where(d > 0, strides, -strides).ravel()
    hit_cell = np.zeros(n, dtype=np.int64)
    m = n_live = len(active)
    live, ray = np.ones(m, dtype=bool), np.arange(m)
    while n_live:
        if n_live <= 0.75 * m:  # compact once a quarter of the rays are done
            active, cell = active[live], cell[live]
            tm, td, ts = (a.reshape(3, m).compress(live, axis=1).ravel()
                          for a in (tm, td, ts))
            m, live, ray = n_live, np.ones(n_live, dtype=bool), np.arange(n_live)
        v = occ.take(cell, mode="clip")  # done rays may have walked off the array
        found = (v == 1) & live
        if found.any():
            ridx = active[found]
            hit[ridx] = True
            hit_cell[ridx] = cell[found]
        live &= v == 0
        tx, ty, tz = tm.reshape(3, m)
        # (axis, ray) of the nearest boundary by the axis rule above; np.intp(m)
        # keeps the uint8 product from overflowing
        txy = np.minimum(tx, ty)
        y, z = (ty < tx).view(np.uint8), (tz < txy).view(np.uint8)
        k = ray + (y + z * (2 - y)) * np.intp(m)
        t_cur = np.minimum(txy, tz)
        tm[k] = t_cur + td.take(k)
        cell += ts.take(k)
        live &= t_cur <= max_range
        n_live = np.count_nonzero(live)
    hit_iv[hit] = np.transpose(np.unravel_index(hit_cell[hit], occ.shape)) - 1
    return hit, hit_iv


def raycast_buffers(
    grid: SemanticOccupancyGrid,
    cam: Camera,
    max_range: float,
    schema: LabelSchema,
) -> GeometryBuffers:
    """Render the semantic/coordinate/ray-embedding triple for one camera."""
    if not max_range > 0:
        raise ValueError("max_range must be positive")
    dirs = cam.pixel_directions()
    origins = np.broadcast_to(cam.center(), dirs.shape)
    hit, iv = raycast_grid(grid.labels, grid.spec, origins.reshape(-1, 3),
                           dirs.reshape(-1, 3), max_range, schema.free_class)
    h, w = cam.height, cam.width
    iv = iv[hit]
    hit = hit.reshape(h, w)
    semantic = np.full((h, w), schema.free_class, dtype=np.int64)
    semantic[hit] = grid.labels[iv[:, 0], iv[:, 1], iv[:, 2]]
    coordinate = np.zeros((h, w, 3))
    coordinate[hit] = grid.spec.index_to_center(iv)
    return GeometryBuffers(semantic=semantic, coordinate=coordinate,
                           plucker=plucker_embedding(dirs, cam.center()), hit_mask=hit)


# ---------------------------------------------------------------------------
# Rig densification
# ---------------------------------------------------------------------------


def interpolate_pose(a: Se3Pose, b: Se3Pose, t: float) -> Se3Pose:
    """Spherical rotation interpolation, linear translation."""
    from scipy.spatial.transform import Rotation, Slerp

    rots = Rotation.from_matrix(np.stack([a.rotation, b.rotation]))
    r = Slerp([0.0, 1.0], rots)(t).as_matrix()
    trans = (1.0 - t) * a.translation + t * b.translation
    return Se3Pose(r, trans)


def densify_rig(rig: CameraRig, insertions_per_gap: int) -> CameraRig:
    """Insert interpolated virtual cameras in every cyclic gap.

    Rotations interpolate spherically, translations linearly, and
    intrinsics copy from the left neighbor. One insertion per gap
    doubles the camera count.
    """
    if insertions_per_gap == 0:
        return rig
    if insertions_per_gap < 0:
        raise ValueError("insertions_per_gap must be >= 0")
    if len(rig.cameras) < 2:
        raise ValueError("need at least two cameras to interpolate")
    counter = sum(1 for c in rig.cameras if c.role == "virtual")
    out: list[Camera] = []
    n = len(rig.cameras)
    for idx, cam in enumerate(rig.cameras):
        out.append(cam)
        nxt = rig.cameras[(idx + 1) % n]
        for j in range(1, insertions_per_gap + 1):
            t = j / (insertions_per_gap + 1)
            pose = interpolate_pose(cam.pose, nxt.pose, t)
            out.append(Camera(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
                              width=cam.width, height=cam.height, pose=pose,
                              role="virtual", name=f"virtual_{counter:02d}"))
            counter += 1
    return CameraRig(out)


def standard_rig(fx: float = 24.0, width: int = 48, height: int = 32,
                 z: float = 1.6) -> CameraRig:
    """Six outward-looking cameras on a unit circle, in cyclic role order."""
    yaws = {"F": 0.0, "FR": -np.pi / 3, "BR": -2 * np.pi / 3, "B": np.pi,
            "BL": 2 * np.pi / 3, "FL": np.pi / 3}
    cams = []
    for role in BASE_ROLES:
        yaw = yaws[role]
        fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        # camera +z = forward, +x = right (world), +y = down
        right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        rot = np.stack([right, down, fwd], axis=1)
        pose = Se3Pose(rot, fwd + np.array([0.0, 0.0, z]))
        cams.append(Camera(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0,
                           width=width, height=height, pose=pose, role=role))
    return CameraRig(cams)
