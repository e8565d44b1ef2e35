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
standard 256x256x25 grid). The step keeps one contiguous row per axis and
reads an occupancy array with a border, which made the rig pass about 6x
faster than stepping (N, 3) arrays with argmin and fancy indexing, with
bit-identical results. There is no empty-space skipping, because under
the identical-results rule it lost in numpy on that rig (2-core host):

* Block leaping cut voxel steps per ray from 73 to 24, but the pass got
  only 1.1x faster, and restarting the traversal after a leap rounds
  near-tie crossing times differently: 1 of 345,600 rays changed voxel.
* Clipping rays to a coarse per-column max-height removed 43% of the
  path length, but building and applying it cost 0.9 s per rig, more
  than the 0.6 s it saved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from . import fileio
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
        d_cam = np.stack([uu, vv, np.ones_like(uu)], axis=-1)
        d_cam /= np.linalg.norm(d_cam, axis=-1, keepdims=True)
        return d_cam @ self.pose.rotation.T

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


def plucker_embedding(cam: Camera) -> np.ndarray:
    """(H, W, 6) of (unit direction, origin x direction) per pixel."""
    return _plucker(cam.pixel_directions(), cam.center())


def _plucker(d: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Pluecker rays from directions ``d`` (H, W, 3) sharing the origin ``o``."""
    m = np.cross(np.broadcast_to(o, d.shape), d)
    return np.concatenate([d, m], axis=-1)


def raycast_grid(
    labels: np.ndarray,
    spec: GridSpec,
    origins: np.ndarray,
    dirs: np.ndarray,
    max_range: float,
    free_class: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """March rays through the voxel grid; first non-free voxel wins.

    Vectorized over rays: every iteration moves each live ray into the
    next voxel it pierces. Returns (hit (N,), voxel index (N, 3), entry
    distance (N,), ``inf`` on a miss); distances are ray parameters, in
    units of ``|dir|``.

    * Entry: a ray starts at ``t = max(t_grid_enter, 0)`` in the voxel
      holding that point, clipped into the grid; a ray from inside the
      grid starts in its origin's voxel at ``t = 0``. A ray that misses
      the grid's box, or enters it beyond ``max_range``, misses.
    * Ties: the ray steps across the nearest voxel boundary; when two or
      three boundary times are equal, the lowest axis (x, then y, then z)
      steps first, one voxel per step, so a ray through an edge or corner
      visits the voxels between.
    * Range: a voxel counts when the ray enters it at ``t <= max_range``.

    Results are bit-identical, entry distances included, to the
    reference traversal kept in the tests.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = len(origins)
    dims = np.asarray(spec.dims)
    g0 = np.asarray(spec.origin)
    vox = spec.voxel_size

    hit = np.zeros(n, dtype=bool)
    hit_iv = np.zeros((n, 3), dtype=np.int64)
    hit_t = np.full(n, np.inf)

    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (g0 - origins) / dirs
        tb = (g0 + dims * vox - origins) / dirs
    zero = dirs == 0.0
    inside = (origins >= g0) & (origins < g0 + dims * vox)
    lo_t = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(ta, tb))
    hi_t = np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(ta, tb))
    t_enter = np.maximum(lo_t.max(axis=1), 0.0)
    t_exit = hi_t.min(axis=1)
    active = np.nonzero((t_enter <= t_exit) & (t_enter <= max_range))[0]
    if len(active) == 0:
        return hit, hit_iv, hit_t

    p = origins[active] + t_enter[active, None] * dirs[active]
    iv = np.clip(np.floor((p - g0) / vox).astype(np.int64), 0, dims - 1)
    d = dirs[active]
    step = np.where(d > 0, 1, -1).astype(np.int64)
    boundary = g0 + (iv + (d > 0)) * vox
    with np.errstate(divide="ignore", invalid="ignore"):
        tmax = np.where(d != 0, (boundary - origins[active]) / d, np.inf)
        tdelta = np.where(d != 0, vox / np.abs(d), np.inf)
    t_cur = t_enter[active]

    # Labels become an occupancy array (0 free, 1 occupied) framed by a border
    # of 2: a ray that steps out of the grid reads 2, so no step needs a
    # bounds test. Per-ray state is one contiguous row per axis.
    occ = np.full(dims + 2, 2, dtype=np.uint8)
    occ[1:-1, 1:-1, 1:-1] = labels != free_class
    strides = np.array([(dims[1] + 2) * (dims[2] + 2), dims[2] + 2, 1])
    cell = (iv + 1) @ strides
    tm, td, ts = (np.ascontiguousarray(a.T).ravel()
                  for a in (tmax, tdelta, step * strides))
    m = n_live = len(active)
    live = np.ones(m, dtype=bool)
    while n_live:
        if n_live <= 0.75 * m:  # compact once a quarter of the rays are done
            active, cell, t_cur = active[live], cell[live], t_cur[live]
            tm, td, ts = (a.reshape(3, m).compress(live, axis=1).ravel()
                          for a in (tm, td, ts))
            m, live = n_live, np.ones(n_live, dtype=bool)
        v = occ.take(cell, mode="clip")  # done rays may have walked off the array
        found = (v == 1) & live
        if found.any():
            ridx = active[found]
            hit[ridx] = True
            hit_iv[ridx] = np.column_stack(np.unravel_index(cell[found], occ.shape)) - 1
            hit_t[ridx] = t_cur[found]
        live &= v == 0
        tx, ty, tz = tm.reshape(3, m)
        mx = (tx <= ty) & (tx <= tz)
        my = (ty < tx) & (ty <= tz)
        k = np.arange(m) + m * (my + 2 * ~(mx | my))  # (axis, ray); ties: lowest axis
        t_cur = tm.take(k)
        tm[k] = t_cur + td.take(k)
        cell += ts.take(k)
        live &= t_cur <= max_range
        n_live = np.count_nonzero(live)
    return hit, hit_iv, hit_t


def raycast_buffers(
    grid: SemanticOccupancyGrid,
    cam: Camera,
    max_range: float,
    schema: LabelSchema,
) -> GeometryBuffers:
    """Render the semantic/coordinate/ray-embedding triple for one camera."""
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    dirs = cam.pixel_directions()
    origins = np.broadcast_to(cam.center(), dirs.shape)
    hit, iv, _ = raycast_grid(grid.labels, grid.spec, origins.reshape(-1, 3),
                              dirs.reshape(-1, 3), max_range, schema.free_class)
    h, w = cam.height, cam.width
    hit = hit.reshape(h, w)
    iv = iv.reshape(h, w, 3)
    semantic = np.full((h, w), schema.free_class, dtype=np.int64)
    semantic[hit] = grid.labels[iv[hit, 0], iv[hit, 1], iv[hit, 2]]
    coordinate = np.zeros((h, w, 3))
    coordinate[hit] = grid.spec.index_to_center(iv[hit])
    return GeometryBuffers(semantic=semantic, coordinate=coordinate,
                           plucker=_plucker(dirs, cam.center()), hit_mask=hit)


# ---------------------------------------------------------------------------
# Rig densification
# ---------------------------------------------------------------------------


def interpolate_pose(a: Se3Pose, b: Se3Pose, t: float) -> Se3Pose:
    """Spherical rotation interpolation, linear translation."""
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


# ---------------------------------------------------------------------------
# Rig JSON
# ---------------------------------------------------------------------------


def camera_to_json(cam: Camera) -> dict:
    obj = {
        "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
        "width": cam.width, "height": cam.height, "role": cam.role,
    }
    obj.update(fileio.pose_to_json(cam.pose))
    if cam.name != cam.role:
        obj["name"] = cam.name
    return obj


def camera_from_json(obj: dict) -> Camera:
    return Camera(
        fx=float(obj["fx"]), fy=float(obj["fy"]),
        cx=float(obj["cx"]), cy=float(obj["cy"]),
        width=int(obj["width"]), height=int(obj["height"]),
        pose=fileio.pose_from_json(obj),
        role=str(obj.get("role", "")),
        name=str(obj.get("name", obj.get("role", ""))),
    )


def rig_to_json(rig: CameraRig) -> list[dict]:
    return [camera_to_json(c) for c in rig.cameras]


def rig_from_json(items: list[dict]) -> CameraRig:
    return CameraRig([camera_from_json(o) for o in items])


def standard_rig(fx: float = 24.0, width: int = 48, height: int = 32,
                 radius: float = 1.0, z: float = 1.6) -> CameraRig:
    """Six outward-looking cameras on a circle, in cyclic role order."""
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
        pose = Se3Pose(rot, fwd * radius + np.array([0.0, 0.0, z]))
        cams.append(Camera(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0,
                           width=width, height=height, pose=pose, role=role))
    return CameraRig(cams)
