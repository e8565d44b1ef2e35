"""Cameras, ray embeddings, and voxel raycasting into condition buffers.

Camera convention: +z looks forward, +x right (pixel u), +y down
(pixel v); rays leave through pixel centers (u + 0.5, v + 0.5). Rays
march the occupancy volume with an incremental traversal (Amanatides &
Woo 1987) that visits exactly the voxels the ray pierces, in order; the
first non-free voxel within range defines the semantic and coordinate
buffers.

The traversal takes most of a rig render, and its cost is the cost of one
vectorized step times the number of steps. The crossing time of each
boundary plane comes from one closed form, worked out afresh at each
step, not accumulated, so the state the traversal holds at any ``t`` can
be computed directly: a ray can start late in the very state that
stepping would have reached. The set-up and the step keep one contiguous
row per axis and read the grid's own flat labels: before a ray crosses a
plane, it stops if that plane is its axis's last, so it never leaves the
grid and no border is needed. (Stopping at the exit time instead would
drop a lower axis's interior crossing tied with the exit.)
The step's axis is z where ``tz < min(tx, ty)``, else y where ``ty < tx``,
else x, so ties go to the lowest axis; each axis reads its planes from a
row laid out in the ray's direction, so every step moves one index on.
Once at most 256 rays are live, each iteration instead advances every ray
by up to ``min(64, 4096 // m)`` crossings: the next planes' times of each
axis, merged by one stable sort. This is the step's order: (1) each
axis's times never decrease along its row, so a stable sort keeps each
axis's crossings in row order; (2) equal times keep the x block before y
before z, the step's tie rule; (3) times past a row's end read inf and
follow its exit plane, where the ray stops.
A finished ray freezes: it stops on the first voxel that is not free, or
before a crossing past its range or out of the grid, and keeps the voxel
it checked last. Its answer is read once from that voxel, a hit if it is
occupied, when the loop compacts the ray away.

``raycast_buffers`` gives each ray two limits from the column tops, the
height-field bound of terrain ray casting (Cohen & Shaked 1993) read from
both sides: a ray starts where it can first come within reach of a column
top, and stops once it is above every column top it can still reach. The
rays of a call share an origin, so one height profile per azimuth bin
serves them all, and each ray finds each limit by one binary search. On a
24-camera, 160x90 rig over the standard 256x256x25 grid, live voxel steps
per ray fell from 73.5 to 29.0 with the stop and to 1.5-1.8 with the
start; loop iterations per call fell from 224 to 180 to 100-106, and to
7-9 steps and 2.6-2.9 strides with the strides. ``raycast_grid`` over the
24 cameras took 137 ms before the strides and no-border step, 102 ms
(seed 1) and 91 ms (seed 2) after (best of 7 per camera, 2-core host);
the rays whose start is past their range, 38-43% of a level rig's, skip
the set-up.
Leaping 8x8x1 empty bricks was bit-identical but 1.44x slower in numpy,
from about 25 k switches per camera between leaping and stepping.

``scipy.spatial.transform`` (rotation interpolation) loads on the first
``densify_rig`` call of a process, not at import: about 0.4 s and 37 MB of
resident memory with ``scipy.spatial`` (2-core host, scipy 1.17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabelSchema, Se3Pose, SemanticOccupancyGrid, _is_int

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
        if not all(_is_int(v) and v >= 1 for v in (self.width, self.height)):
            raise ValueError(f"image size must be integers >= 1: {self.width!r}, {self.height!r}")
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point outside the image")
        if not self.name:
            object.__setattr__(self, "name", self.role)

    def center(self) -> np.ndarray:
        return self.pose.translation

    def pixel_directions(self) -> np.ndarray:
        """Unit world-space ray directions through all pixel centers, (H, W, 3): the
        unit camera-frame direction turned by the pose's rule, :meth:`Se3Pose.rotate`."""
        u = (np.arange(self.width) + 0.5 - self.cx) / self.fx
        v = (np.arange(self.height)[:, None] + 0.5 - self.cy) / self.fy
        n = np.sqrt(u * u + v * v + 1.0)  # the bits of np.linalg.norm over (u, v, 1)
        return np.stack(self.pose.rotate(u / n, v / n, 1.0 / n), axis=-1)

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
    (ox, oy, oz), (dx, dy, dz) = origin, np.moveaxis(directions, -1, 0)
    out = np.empty(directions.shape[:-1] + (6,))
    out[..., :3] = directions
    # the products and differences of np.cross(origin, directions)
    out[..., 3] = oy * dz - oz * dy
    out[..., 4] = oz * dx - ox * dz
    out[..., 5] = ox * dy - oy * dx
    return out


def raycast_grid(
    grid: SemanticOccupancyGrid,
    origins: np.ndarray,
    dirs: np.ndarray,
    start: float | np.ndarray,
    max_range: float | np.ndarray,
    free_class: int,
) -> tuple[np.ndarray, np.ndarray]:
    """March rays through the voxel grid; first non-free voxel wins.

    Vectorized over rays: every iteration moves each live ray into the
    next voxel it pierces. Returns (hit (N,), voxel index (N, 3), zero on a
    miss); ray parameters ``t`` below are in units of ``|dir|``.

    * Time rule: the ray crosses plane ``P`` of axis ``a``, the voxel
      boundary at ``g0[a] + P*vox``, at ``((g0[a] + P*vox) - o[a]) / d[a]``,
      worked out afresh for each plane; along an axis with ``d[a] = 0`` every
      crossing time is ``inf``.
    * Entry: the entry state is the voxel holding the ray's point at
      ``t_enter = max(t_grid_enter, 0)``, clipped into the grid, and per axis
      the next plane past it; a ray from inside the grid starts in its
      origin's voxel.
    * Start: the ray begins at ``T = max(t_enter, start)``, in the entry
      state if ``start <= t_enter``. Otherwise its state there is the one
      the rule reaches from the entry state by every crossing earlier than
      ``T``: per axis, the first plane whose time is ``>= T``, or the entry
      plane if that is later. The caller promises that every voxel the rule
      enters before ``start`` is free, so the voxels skipped change no
      answer. ``start`` is a scalar or one value per ray, shape (N,). A ray
      whose ``T`` lies past its grid exit or its ``max_range`` misses.
    * Cull: a ray whose ``start`` is past its ``max_range``, or ``inf``,
      misses before any per-ray set-up (slab, entry or restart
      arithmetic), and a call whose every ray is culled reads no ``grid``.
    * Ties: the ray steps across the nearest voxel boundary; when two or
      three boundary times are equal, the lowest axis (x, then y, then z)
      steps first, one voxel per step, so a ray through an edge or corner
      visits the voxels between.
    * Range: a voxel counts when the ray enters it at ``t <= max_range``, a
      scalar or one value per ray, shape (N,). A ``start`` or ``max_range``
      of another shape, or holding NaN, raises ``ValueError``.
    * Exit: a ray stops before it would cross its axis's last plane, so it
      never leaves the grid; a lower axis's interior plane crossed at the
      same time as the exit is still crossed first, by the tie rule.
    * Rays need finite origins and finite, non-zero directions; others
      raise ``ValueError``.

    Results are bit-identical to the reference traversal kept in the tests,
    which steps every ray from its entry.
    """
    origins = np.asarray(origins, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    n = len(origins)
    t_start = np.asarray(start, dtype=np.float64)
    t_lim = np.asarray(max_range, dtype=np.float64)
    for name, value in (("start", t_start), ("max_range", t_lim)):
        if value.shape not in ((), (n,)):
            raise ValueError(f"{name} must be a scalar or have shape ({n},), not {value.shape}")
        if np.isnan(value).any():
            raise ValueError(f"{name} must not be NaN")
    # Per-ray state is one contiguous row per axis, (3, N).
    o, d = np.ascontiguousarray(origins.T), np.ascontiguousarray(dirs.T)
    if (d == 0.0).all(axis=0).any() or not (np.isfinite(o).all() and np.isfinite(d).all()):
        raise ValueError("rays need finite origins and finite, non-zero directions")
    hit = np.zeros(n, dtype=bool)
    hit_iv = np.zeros((n, 3), dtype=np.int64)
    # The caller's limits cull first: a ray that starts past its range, or
    # at inf, reaches nothing, whatever the grid.
    active = np.flatnonzero(np.broadcast_to((t_start <= t_lim) & (t_start < np.inf), (n,)))
    if len(active) == 0:
        return hit, hit_iv

    dims = np.asarray(grid.spec.dims)[:, None]
    g0 = np.asarray(grid.spec.origin)[:, None]
    vox = grid.spec.voxel_size
    g1 = g0 + dims * vox
    o, d = o.take(active, axis=1), d.take(active, axis=1)
    t_start, t_lim = (np.broadcast_to(t, (n,))[active] for t in (t_start, t_lim))
    zero = d == 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ta = (g0 - o) / d
        tb = (g1 - o) / d
    inside = (o >= g0) & (o < g1)
    lo_t = np.where(zero, np.where(inside, -np.inf, np.inf), np.minimum(ta, tb))
    hi_t = np.where(zero, np.where(inside, np.inf, -np.inf), np.maximum(ta, tb))
    t_enter = np.maximum(lo_t.max(axis=0), 0.0)
    t_begin = np.maximum(t_enter, t_start)
    # a ray that could enter only at t = inf (all its slab times overflow) misses
    keep = np.flatnonzero((t_begin <= hi_t.min(axis=0)) & (t_begin <= t_lim)
                          & (t_begin < np.inf))
    if len(keep) == 0:
        return hit, hit_iv

    active, o, d = active[keep], o.take(keep, axis=1), d.take(keep, axis=1)
    t_enter, t_begin, t_lim = t_enter[keep], t_begin[keep], t_lim[keep]
    up, sgn = d > 0, np.sign(d)
    entry = np.clip(np.floor((o + t_enter * d - g0) / vox), 0, dims - 1) + up
    # The restart: per axis, an estimate of the first plane whose time is >=
    # t_begin, one fix-up round each way (time is monotone in the plane), then
    # the later of it and the entry plane. A plane counts as crossed when its
    # time is below ``skip``, and none does where start <= t_enter, which
    # leaves the entry state.
    skip = np.where(t_begin > t_enter, t_begin, -np.inf)
    p = (o + t_begin * d - g0) / vox
    p = np.where(up, np.ceil(p), np.floor(p))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p = np.where(((g0 + (p - sgn) * vox) - o) / d < skip, p, p - sgn)
        p = np.where(((g0 + p * vox) - o) / d < skip, p + sgn, p)
    p = np.where(sgn * (p - entry) > 0, p, entry)
    del entry, skip, sgn

    # Plane coordinates, per axis one row forward and the same row reversed,
    # laid end to end; ``q`` indexes each ray's next plane per axis and steps
    # by +1 whichever way the ray moves, and ``left[q]`` counts the planes
    # after it in its row, 0 at the grid's last plane. An axis with d = 0
    # keeps its time at inf: its origin reads -inf and its direction 1.
    rows = [g0[a] + np.arange(dims[a, 0] + 1) * vox for a in range(3)]
    planes = np.concatenate([r for row in rows for r in (row, row[::-1])])
    left = np.concatenate([np.arange(len(row))[::-1] for row in rows for _ in (0, 1)])
    fwd = 2 * (np.cumsum(dims + 1, axis=0) - (dims + 1))
    q = np.where(up, fwd + p, fwd + 2 * dims + 1 - p).astype(np.int64).ravel()
    o = np.where(d == 0, -np.inf, o).ravel()
    d = np.where(d == 0, 1.0, d).ravel()
    with np.errstate(over="ignore"):
        tm = (planes.take(q) - o) / d

    flat = grid.labels.reshape(-1)
    strides = np.array([[dims[1, 0] * dims[2, 0]], [dims[2, 0]], [1]])
    cell = strides[:, 0] @ (p - up).astype(np.int64)
    ts = np.where(up, strides, -strides).ravel()
    del p, up
    hit_cell = np.zeros(n, dtype=np.int64)
    m = len(active)
    live = np.ones(m, dtype=bool)
    ray, ray_y, ray_z = np.arange(3 * m).reshape(3, m)  # (axis, ray) indices into tm
    tx, ty, tz = tm.reshape(3, m)  # views, which the steps below update
    with np.errstate(over="ignore"):  # directions of subnormal size
        while True:
            stride = m <= _STRIDE_RAYS
            if not stride:
                # A ray stops on a voxel that is not free, or where its next
                # crossing is out of range or leaves the grid, and then keeps
                # that voxel: its answer is read once, when it is compacted away.
                free = flat.take(cell) == free_class
                live &= free
                txy = np.minimum(tx, ty)
                live &= np.minimum(txy, tz) <= t_lim
                k = np.where(tz < txy, ray_z, np.where(ty < tx, ray_y, ray))
                qk = q.take(k)
                live &= left.take(qk) > 0
                qk += live
                q[k] = qk
                tm[k] = (planes.take(qk) - o.take(k)) / d.take(k)
                cell += ts.take(k) * live
            else:
                # The same rule over the next ``s`` crossings of each ray at
                # once: the next ``s`` plane times of each axis, inf past the
                # row's end, in the step's order by one stable sort. ``m``
                # never grows, so the step never runs again: ``tm`` is not kept.
                s = min(_STRIDE_CROSSINGS, _STRIDE_BUDGET // m)
                j = np.arange(s)
                row = np.arange(m)[:, None]
                qj = q.reshape(3, m).T[:, :, None] + j
                rest = left.take(q).reshape(3, m).T[:, :, None]
                t = (planes.take(qj, mode="clip") - o.reshape(3, m).T[:, :, None]) / (
                    d.reshape(3, m).T[:, :, None])
                t[j > rest] = np.inf
                pick = np.argsort(t.reshape(m, 3 * s), axis=1, kind="stable")[:, :s]
                axis = pick // s
                pick += row * (3 * s)
                # ``path[:, i]`` is the voxel after i crossings; a ray halts
                # at the first that is not free, or before a crossing out
                # of range or out of the grid, and at the latest after s.
                path = np.cumsum(np.concatenate([cell[:, None], ts.take(axis * m + row)], axis=1),
                                 axis=1)
                free = flat.take(path, mode="clip") == free_class
                halt = ~free
                halt[:, :s] |= (t.take(pick) > t_lim[:, None]) | (j == rest).take(pick)
                halt[:, s] = True
                at = halt.argmax(axis=1) + (s + 1) * row[:, 0]
                cell, free = path.take(at), free.take(at)
                live = free & (at % (s + 1) == s)
                q += np.bincount((axis * m + row)[j < at[:, None] % (s + 1)], minlength=3 * m)
            n_live = int(np.count_nonzero(live))
            if stride or n_live <= 0.75 * m:  # after each stride, or a quarter of the rays done
                done = ~live
                hit[active[done]] = ~free[done]
                hit_cell[active[done]] = cell[done]
                if not n_live:
                    break
                active, cell, t_lim = active[live], cell[live], t_lim[live]
                tm, q, ts, o, d = (a.reshape(3, m).compress(live, axis=1).ravel()
                                   for a in (tm, q, ts, o, d))
                m, live = n_live, np.ones(n_live, dtype=bool)
                ray, ray_y, ray_z = np.arange(3 * m).reshape(3, m)
                tx, ty, tz = tm.reshape(3, m)
    hit_iv[hit] = np.transpose(np.unravel_index(hit_cell[hit], grid.labels.shape))
    return hit, hit_iv


# ``raycast_grid``: the live rays at or below which the loop takes strides
# of merged crossings, and a stride's crossings per ray and per iteration.
_STRIDE_RAYS = 256
_STRIDE_CROSSINGS = 64
_STRIDE_BUDGET = 4096

# ``_height_limit``: azimuth bins per turn, the slack for rounding in voxels,
# and the int64 fixed point that slopes compare in.
_CULL_BINS = 1024
_CULL_SLACK = 1.0 / 64
_SLOPE_UNIT = 2.0 ** -20
_SLOPE_CAP = 2 ** 40


def _height_limit(grid: SemanticOccupancyGrid, origin: np.ndarray, dirs: np.ndarray,
                  max_range: float, free_class: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray ``(start, stop)``: every voxel the traversal enters at a ``t``
    before ``start`` or past ``stop`` is free.

    Rays leave ``origin``; at horizontal distance ``rho = t |dxy|`` a ray is
    at height ``Oz + s rho``, ``s = dz / |dxy|``. ``top`` counts each
    column's layers up to its highest non-free voxel (0 if none), dilated
    over a chessboard radius ``R``. Rays fall into ``_CULL_BINS`` azimuth
    bins of width ``dphi``; each used bin's centre line is sampled at
    ``rho_j = j v`` out to ``rho_max = min(max_range |dxy|, farthest grid
    corner)``, sample j covering ``[rho_j - v/2, rho_j + v/2]``. With
    ``H_j = z0 + (top + slack) v`` there, ``sigma_j``, the largest slope
    that reaches ``H_j`` over sample j, is ``(H_j - Oz) / rho_lo`` if
    ``H_j >= Oz``, else ``(H_j - Oz) / rho_hi``; ``M_j`` is its prefix
    maximum and ``S_j`` its suffix maximum. A ray of slope ``s`` starts at
    ``rho_lo(j_s) / |dxy|``, j_s the first sample with ``M_j_s >= s``
    (``inf`` if none), and stops at ``rho_lo(j*) / |dxy|``, j* the first
    sample with ``S_j* < s``. A vertical ray, and every ray of a camera so
    far away that ``R`` passes the grid's side, keeps ``(0, inf)``.

    Why the limits are exact. Let ``d = slack v``. (a) The voxel the
    traversal enters at ``t`` holds the ray's point at ``t`` up to ``d``: the
    rounding there and here is a few hundred ulps of coordinates under 10^6
    voxels. (b) At ``rho`` in sample j's span a ray of the bin lies within
    ``v/2 + rho_max dphi/2`` of the sample point, so a voxel within ``d`` of
    it is in a column within ``R v`` of the sample's. (c) The ray is above
    ``H_j`` over the span of every sample with ``s > sigma_j``: from
    ``rho_lo(j*)`` on, every later sample (``s > S_j >= sigma_j``), and
    before ``rho_lo(j_s)``, every earlier one (``s > M_j >= sigma_j``). So
    such a voxel is at or above its column's top: free. Samples may start
    at the grid's nearest column: no voxel lies nearer, and a stop never
    falls before the first one. Slopes compare as int64 multiples of
    ``_SLOPE_UNIT``, ``sigma`` rounded up and ``s`` down.
    """
    vox, (nx, ny, nz) = grid.spec.voxel_size, grid.spec.dims
    g0, o = np.asarray(grid.spec.origin), np.asarray(origin, dtype=np.float64)
    dx, dy, dz = dirs.T
    dxy = np.hypot(dx, dy)
    lo, hi = g0[:2] - o[:2], g0[:2] + np.array([nx, ny]) * vox - o[:2]
    near = np.hypot(*np.maximum(np.maximum(lo, -hi), 0.0))
    rho_max = min(np.hypot(*np.maximum(-lo, hi)), float(max_range) * float(dxy.max()))
    dphi = 2 * np.pi / _CULL_BINS
    r = int(np.ceil(0.5 + _CULL_SLACK + rho_max * dphi / (2 * vox)))
    if r > max(nx, ny):
        return np.zeros(len(dirs)), np.full(len(dirs), np.inf)

    b = np.minimum(((np.arctan2(dy, dx) + np.pi) / dphi).astype(np.intp), _CULL_BINS - 1)
    used = np.bincount(b, minlength=_CULL_BINS) > 0
    phi = (np.flatnonzero(used) + 0.5) * dphi - np.pi
    j0 = int(near // vox)
    rho = np.arange(j0, max(int(rho_max // vox) + 1, j0) + 1) * vox
    fx = np.floor(np.cos(phi)[:, None] * (rho / vox) + (o[0] - g0[0]) / vox)
    fy = np.floor(np.sin(phi)[:, None] * (rho / vox) + (o[1] - g0[1]) / vox)

    # Tops of the grid's columns within r of a sample, framed by r + 1 columns.
    x0, y0 = int(max(fx.min() - r, 0)), int(max(fy.min() - r, 0))
    x1, y1 = max(int(min(fx.max() + r + 1, nx)), x0), max(int(min(fy.max() + r + 1, ny)), y0)
    # A column's top is the running maximum of (z + 1) over its non-free
    # layers, read layer by layer from a z-major mask.
    nonfree = np.empty((nz, x1 - x0, y1 - y0), dtype=bool)
    np.not_equal(np.moveaxis(grid.labels[x0:x1, y0:y1], 2, 0), free_class, out=nonfree)
    layer_top = np.zeros(nonfree.shape[1:], dtype=np.min_scalar_type(nz))
    for z, layer in enumerate(nonfree):
        np.maximum(layer_top, layer * layer_top.dtype.type(z + 1), out=layer_top)
    p = r + 1
    top = np.zeros((x1 - x0 + 2 * p, y1 - y0 + 2 * p), dtype=np.intp)
    top[p:-p, p:-p] = layer_top
    for _ in range(r):
        top[1:-1] = np.maximum(np.maximum(top[:-2], top[2:]), top[1:-1])
        top[:, 1:-1] = np.maximum(np.maximum(top[:, :-2], top[:, 2:]), top[:, 1:-1])
    ix = np.clip(fx - (x0 - p), 0, top.shape[0] - 1)
    iy = np.clip(fy - (y0 - p), 0, top.shape[1] - 1)
    rise = top.take((ix * top.shape[1] + iy).astype(np.intp)) * vox + (
        g0[2] + _CULL_SLACK * vox - o[2])
    rho_lo = np.maximum(rho - vox / 2, 0.0)
    run = np.where(rise >= 0, rho_lo, rho + vox / 2)
    sigma = np.divide(rise, run, out=np.full(rise.shape, np.inf), where=run > 0)
    # Rounding up commutes with max, so both maxima run on the fixed-point slopes.
    q = np.clip(np.ceil(sigma / _SLOPE_UNIT), -_SLOPE_CAP, _SLOPE_CAP + 1).astype(np.int64)

    # Bin rows of keys ``row * width + cap + M`` and ``row * width + cap + 1 - S``:
    # ascending, as M rises and S falls along a row.
    width = 2 * _SLOPE_CAP + 2
    base = np.arange(len(phi))[:, None] * width + _SLOPE_CAP
    start_keys = (base + np.maximum.accumulate(q, axis=1)).ravel()
    stop_keys = (base + 1 - np.maximum.accumulate(q[:, ::-1], axis=1)[:, ::-1]).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        s = dz / dxy
        qs = np.clip(np.floor(s / _SLOPE_UNIT), -_SLOPE_CAP, _SLOPE_CAP).astype(np.int64)
        row = (np.cumsum(used) - 1)[b]
        # A ray above its whole row gets what both searches would give it:
        # no start sample, and a stop at the first.
        i = np.flatnonzero(qs <= q.max(axis=1)[row])
        row, qs = row[i], qs[i]
        key, first = row * width + _SLOPE_CAP, row * len(rho)
        rho_at = np.append(rho_lo, np.inf)
        start, stop = np.full(len(dirs), np.inf), np.full(len(dirs), rho_lo[0])
        start[i] = rho_at[np.searchsorted(start_keys, key + qs) - first]
        stop[i] = rho_at[np.searchsorted(stop_keys, key + 1 - qs, side="right") - first]
        start, stop = start / dxy, stop / dxy
    return np.where(dxy > 0, start, 0.0), np.where(dxy > 0, stop, np.inf)


def raycast_buffers(
    grid: SemanticOccupancyGrid,
    cam: Camera,
    max_range: float,
    schema: LabelSchema,
) -> GeometryBuffers:
    """Render the semantic/coordinate/ray-embedding triple for one camera;
    each ray runs between the two limits of ``_height_limit``, which change
    no buffer."""
    if not max_range > 0:
        raise ValueError("max_range must be positive")
    dirs = cam.pixel_directions()
    flat = dirs.reshape(-1, 3)
    start, stop = _height_limit(grid, cam.center(), flat, max_range, schema.free_class)
    hit, iv = raycast_grid(grid, np.broadcast_to(cam.center(), flat.shape), flat, start,
                           np.minimum(max_range, stop), schema.free_class)
    h, w = cam.height, cam.width
    pixel = np.flatnonzero(hit)
    iv = iv[pixel]
    semantic = np.full(h * w, schema.free_class, dtype=np.int64)
    semantic[pixel] = grid.labels.reshape(-1).take(np.ravel_multi_index(iv.T, grid.spec.dims))
    coordinate = np.zeros((h * w, 3))
    coordinate[pixel] = grid.spec.index_to_center(iv)
    return GeometryBuffers(semantic=semantic.reshape(h, w),
                           coordinate=coordinate.reshape(h, w, 3),
                           plucker=plucker_embedding(dirs, cam.center()),
                           hit_mask=hit.reshape(h, w))


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
