import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from occkit import render
from occkit.core import (GROUND_BAND_Z, BevLayout, GridSpec, LabelSchema, Se3Pose,
                         SemanticOccupancyGrid)
from occkit.render import (
    _CULL_BINS,
    _CULL_SLACK,
    _height_limit,
    Camera,
    GeometryBuffers,
    CameraRig,
    densify_rig,
    plucker_embedding,
    raycast_buffers,
    raycast_grid,
    standard_rig,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "occbench"))
from bench_checks import _ray_box, sampled_first_hit  # noqa: E402

SCHEMA = LabelSchema()


def make_camera(pose=None, fx=10.0, width=9, height=7):
    # cx/cy at a pixel center so the principal ray is exactly axis-aligned
    return Camera(fx=fx, fy=fx, cx=4.5, cy=3.5, width=width, height=height,
                  pose=pose or Se3Pose.identity(), role="F")


def reference_raycast_grid(
    labels: np.ndarray,
    spec: GridSpec,
    origins: np.ndarray,
    dirs: np.ndarray,
    max_range: float,
    free_class: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference traversal: occkit's original ``raycast_grid`` under the
    closed-form time rule.

    It steps (N, 3) state with argmin and fancy indexing, one voxel per
    iteration, from each ray's entry. Per axis the next boundary plane ``P``
    is the one past the ray's voxel, and its crossing time is computed as
    ``((g0 + P*vox) - o) / d`` afresh at every step; nothing is accumulated. ``raycast_grid`` must
    return the same bits. Also returns each hit's entry distance, ``inf`` on
    a miss.
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
    o = origins[active]
    d = dirs[active]
    step = np.where(d > 0, 1, -1).astype(np.int64)

    def crossing(iv, g0, o, d):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d != 0, ((g0 + (iv + (d > 0)) * vox) - o) / d, np.inf)

    tmax = crossing(iv, g0, o, d)
    t_cur = t_enter[active]

    while len(active):
        labs = labels[iv[:, 0], iv[:, 1], iv[:, 2]]
        found = labs != free_class
        if found.any():
            ridx = active[found]
            hit[ridx] = True
            hit_iv[ridx] = iv[found]
            hit_t[ridx] = t_cur[found]
        keep = ~found
        active = active[keep]
        iv, step, tmax, o, d = iv[keep], step[keep], tmax[keep], o[keep], d[keep]
        if len(active) == 0:
            break
        r = np.arange(len(active))
        ax = np.argmin(tmax, axis=1)
        t_cur = tmax[r, ax]
        iv[r, ax] += step[r, ax]
        tmax[r, ax] = crossing(iv[r, ax], g0[ax], o[r, ax], d[r, ax])
        alive = (iv[r, ax] >= 0) & (iv[r, ax] < dims[ax]) & (t_cur <= max_range)
        if not alive.all():
            active = active[alive]
            iv, step, tmax, o, d = iv[alive], step[alive], tmax[alive], o[alive], d[alive]
            t_cur = t_cur[alive]
    return hit, hit_iv, hit_t


def embedding(cam):
    return plucker_embedding(cam.pixel_directions(), cam.center())


def reference_pixel_directions(cam: Camera) -> np.ndarray:
    """Reference directions: normalised by ``np.linalg.norm`` over a length-3
    last axis, then turned by the stated rule, output axis ``a`` being
    ``(x*R[a, 0] + y*R[a, 1]) + z*R[a, 2]``; it must give the same bits."""
    u = (np.arange(cam.width) + 0.5 - cam.cx) / cam.fx
    v = (np.arange(cam.height) + 0.5 - cam.cy) / cam.fy
    uu, vv = np.meshgrid(u, v, indexing="xy")
    d_cam = np.stack([uu, vv, np.ones_like(uu)], axis=-1)
    d_cam /= np.linalg.norm(d_cam, axis=-1, keepdims=True)
    x, y, z, r = d_cam[..., 0], d_cam[..., 1], d_cam[..., 2], cam.pose.rotation
    return np.stack([(x * r[a, 0] + y * r[a, 1]) + z * r[a, 2] for a in range(3)], axis=-1)


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q * np.sign(np.linalg.det(q))


def test_pixel_directions_match_the_norm_oracle_bit_for_bit():
    rng = np.random.default_rng(2623)
    sizes = [1, 2, 3, 7, 90, 160, 199, 200]
    for trial in range(60):
        width = int(sizes[trial % 8] if trial < 16 else rng.integers(1, 201))
        height = int(sizes[trial // 2 % 8] if trial < 16 else rng.integers(1, 201))
        fx = float(rng.uniform(0.5, 400.0))
        fy = fx * float(rng.uniform(0.5, 2.0))
        cam = Camera(fx=fx, fy=fy, cx=float(rng.uniform(0, width)),
                     cy=float(rng.uniform(0, height)), width=width, height=height,
                     pose=Se3Pose(random_rotation(rng), rng.normal(size=3) * 10))
        got = cam.pixel_directions()
        assert fx != fy and got.shape == (height, width, 3)
        assert got.tobytes() == reference_pixel_directions(cam).tobytes()
    for cam in densify_rig(densify_rig(standard_rig(fx=80.0, width=160, height=90), 1),
                           1).cameras:
        assert cam.pixel_directions().tobytes() == reference_pixel_directions(cam).tobytes()


class TestPlucker:
    def test_principal_ray_identity_pose(self):
        emb = embedding(make_camera())
        d = emb[3, 4, :3]
        m = emb[3, 4, 3:]
        assert np.allclose(d, [0, 0, 1], atol=1e-15)
        assert np.allclose(m, 0, atol=1e-15)

    def test_offset_camera_moment(self):
        cam = make_camera(pose=Se3Pose.from_translation((1.0, 0.0, 0.0)))
        emb = embedding(cam)
        assert np.allclose(emb[3, 4, :3], [0, 0, 1], atol=1e-15)
        assert np.allclose(emb[3, 4, 3:], [0, -1, 0], atol=1e-15)

    def test_moment_orthogonal_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pose = Se3Pose.from_yaw(rng.uniform(-3, 3), rng.normal(size=3))
            emb = embedding(make_camera(pose=pose))
            d, m = emb[..., :3], emb[..., 3:]
            assert np.max(np.abs((d * m).sum(-1))) <= 1e-12
            assert np.allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_translation_along_principal_ray_invariance(self):
        cam = make_camera(pose=Se3Pose.from_translation((0.3, -0.2, 0.0)))
        emb = embedding(cam)[3, 4]
        d = emb[:3]
        moved = make_camera(pose=Se3Pose.from_translation(
            np.array([0.3, -0.2, 0.0]) + 2.5 * d))
        emb2 = embedding(moved)[3, 4]
        assert np.max(np.abs(emb - emb2)) <= 1e-12


    def test_buffers_carry_the_embedding_bit_for_bit(self):
        rng = np.random.default_rng(1)
        spec = GridSpec((8, 8, 4), (-1.6, -1.6, -0.8), 0.4)
        grid = SemanticOccupancyGrid(
            spec, rng.integers(0, SCHEMA.num_classes, size=spec.dims).astype(np.uint8))
        for _ in range(5):
            cam = make_camera(pose=Se3Pose.from_yaw(rng.uniform(-3, 3), rng.normal(size=3)))
            buf = raycast_buffers(grid, cam, 10.0, SCHEMA)
            d = cam.pixel_directions()
            want = np.concatenate(
                [d, np.cross(np.broadcast_to(cam.center(), d.shape), d)], axis=-1)
            assert buf.plucker.tobytes() == want.tobytes()
            assert embedding(cam).tobytes() == want.tobytes()


class TestRaycast:
    def spec(self):
        return GridSpec(dims=(16, 16, 16), origin=(-3.2, -3.2, -3.2),
                        voxel_size=0.4)

    def test_empty_grid_all_miss(self):
        grid = SemanticOccupancyGrid.full_free(self.spec(), SCHEMA)
        cam = make_camera(pose=Se3Pose.from_translation((0, 0, -5.0)))
        buf = raycast_buffers(grid, cam, 50.0, SCHEMA)
        assert not buf.hit_mask.any()
        assert np.all(buf.semantic == SCHEMA.free_class)
        assert np.all(buf.coordinate == 0.0)

    def test_single_voxel_on_principal_ray(self):
        spec = self.spec()
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[8, 8, 12] = 6
        grid = SemanticOccupancyGrid(spec, labels)
        # principal ray from (0.2, 0.2, -5) along +z passes through x=y=idx 8
        cam = make_camera(pose=Se3Pose.from_translation((0.2, 0.2, -5.0)))
        for max_range in (50.0, np.inf):
            buf = raycast_buffers(grid, cam, max_range, SCHEMA)
            assert buf.hit_mask[3, 4]
            assert buf.semantic[3, 4] == 6
            assert np.allclose(buf.coordinate[3, 4], spec.index_to_center([8, 8, 12]),
                               atol=1e-12)

    def test_nearer_voxel_wins(self):
        spec = self.spec()
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[8, 8, 6] = 3
        labels[8, 8, 12] = 6
        grid = SemanticOccupancyGrid(spec, labels)
        cam = make_camera(pose=Se3Pose.from_translation((0.2, 0.2, -5.0)))
        buf = raycast_buffers(grid, cam, 50.0, SCHEMA)
        assert buf.semantic[3, 4] == 3

    def test_max_range_cuts_hits(self):
        spec = self.spec()
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[8, 8, 12] = 6
        grid = SemanticOccupancyGrid(spec, labels)
        cam = make_camera(pose=Se3Pose.from_translation((0.2, 0.2, -5.0)))
        buf = raycast_buffers(grid, cam, 3.0, SCHEMA)
        assert not buf.hit_mask[3, 4]

    @pytest.mark.parametrize("max_range", [0.0, -1.0, np.nan])
    def test_bad_max_range_rejected(self, max_range):
        grid = SemanticOccupancyGrid.full_free(self.spec(), SCHEMA)
        with pytest.raises(ValueError, match="max_range"):
            raycast_buffers(grid, make_camera(), max_range, SCHEMA)

    @pytest.mark.parametrize("origin, direction", [
        ((0.1, 0.1, 0.5), (0.0, 0.0, 0.0)),
        ((0.1, 0.1, 0.5), (-0.0, 0.0, -0.0)),
        ((np.nan, 0.1, 0.5), (1.0, 0.0, 0.0)),
        ((0.1, np.inf, 0.5), (1.0, 0.0, 0.0)),
        ((0.1, 0.1, 0.5), (0.0, np.nan, 1.0)),
        ((0.1, 0.1, 0.5), (0.0, 0.0, -np.inf)),
    ])
    def test_degenerate_ray_rejected(self, origin, direction):
        # a zero direction has no next boundary: unchecked, it steps along -x
        # and t = inf passes ``t <= max_range``, a hit at [2, 8, 9], t = inf
        spec = self.spec()
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[2, 8, 9] = 3
        origins = np.array([(0.0, 0.0, 0.0), origin])
        dirs = np.array([(1.0, 0.0, 0.0), direction])
        with pytest.raises(ValueError, match="finite, non-zero directions"):
            raycast_grid(SemanticOccupancyGrid(spec, labels), origins, dirs, 0.0, np.inf,
                         SCHEMA.free_class)

    def test_labels_of_another_shape_rejected(self):
        # (1, 3, 2) labels used to broadcast over x: a hit at [0, 1, 0] in a
        # 4-wide grid; the grid type, which raycast_grid takes, rejects them
        spec = GridSpec(dims=(4, 3, 2), origin=(0.0, 0.0, 0.0), voxel_size=1.0)
        labels = np.zeros((4, 3, 2), dtype=np.uint8)
        labels[0, 1, 0] = 1
        hit, iv = raycast_grid(SemanticOccupancyGrid(spec, labels), [[-1.0, 1.5, 0.5]],
                               [[1.0, 0.0, 0.0]], 0.0, 10.0, 0)
        assert hit.tolist() == [True] and iv.tolist() == [[0, 1, 0]]
        for bad, shape in ((labels[:1], "1, 3, 2"), (labels[:, :, :1], "4, 3, 1"),
                           (labels.reshape(2, 6, 2), "2, 6, 2")):
            with pytest.raises(ValueError, match=rf"labels shape \({shape}\) != dims \(4, 3, 2\)"):
                SemanticOccupancyGrid(spec, bad)

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(42)
        spec = self.spec()
        mism = 0
        total = 0
        for _ in range(4):
            labels = np.where(rng.random(spec.dims) < 0.2,
                              rng.integers(1, 17, spec.dims),
                              SCHEMA.free_class).astype(np.int64)
            grid = SemanticOccupancyGrid(spec, labels)
            origins = rng.uniform(-5.5, 5.5, size=(400, 3))
            targets = rng.uniform(-3.0, 3.0, size=(400, 3))
            dirs = targets - origins
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            hit, iv = raycast_grid(grid, origins, dirs, 0.0, 60.0, SCHEMA.free_class)
            ohit, oiv, cert = sampled_first_hit(labels, spec, origins, dirs,
                                                60.0, SCHEMA.free_class, substeps=50)
            total += int(cert.sum())
            agree = (hit == ohit) & (~hit | np.all(iv == oiv, axis=1))
            mism += int((cert & ~agree).sum())
        assert mism == 0
        assert total > 1200  # certificate must not reject a large share

    def test_depth_monotonicity(self):
        rng = np.random.default_rng(7)
        spec = self.spec()
        sparse = np.where(rng.random(spec.dims) < 0.05,
                          np.int64(4), np.int64(SCHEMA.free_class))
        extra = np.where(rng.random(spec.dims) < 0.05,
                         np.int64(7), sparse)
        cam = make_camera(pose=Se3Pose.from_translation((0.1, -0.2, -5.0)))
        dirs = cam.pixel_directions().reshape(-1, 3)
        origins = np.broadcast_to(cam.center(), dirs.shape)
        hit_a, t_a = assert_same_traversal(sparse, spec, origins, dirs, 60.0,
                                           SCHEMA.free_class)
        hit_b, t_b = assert_same_traversal(extra, spec, origins, dirs, 60.0,
                                           SCHEMA.free_class)
        assert np.all(hit_b[hit_a])
        assert np.all(t_b[hit_a] <= t_a[hit_a] + 1e-12)

    def test_reprojection_consistency(self):
        # far-field ring keeps the half-voxel parallax under half a pixel
        rng = np.random.default_rng(3)
        spec = GridSpec(dims=(64, 64, 16), origin=(-12.8, -12.8, -3.2),
                        voxel_size=0.4)
        cx, cy = BevLayout(64, 64, 0.4, 1).cell_centers()
        radius = np.sqrt(cx ** 2 + cy ** 2)
        ring = (radius > 10.0) & (radius < 12.4)
        labels = np.where(ring[:, :, None] & (rng.random(spec.dims) < 0.4),
                          np.int64(5), np.int64(SCHEMA.free_class))
        grid = SemanticOccupancyGrid(spec, labels)
        for yaw in (0.0, 1.1, 2.7):
            cam = Camera(fx=5.0, fy=5.0, cx=8.0, cy=6.0, width=16, height=12,
                         pose=_look_yaw(yaw), role="F")
            buf = raycast_buffers(grid, cam, 60.0, SCHEMA)
            buf.validate()
            assert buf.hit_mask.any()
            uv, z = cam.project(buf.coordinate[buf.hit_mask])
            vv, uu = np.nonzero(buf.hit_mask)
            expect = np.stack([uu + 0.5, vv + 0.5], axis=-1)
            err = np.max(np.abs(uv - expect))
            assert err <= 0.5


def assert_same_traversal(labels, spec, origins, dirs, max_range, free):
    """The hit mask and voxel index equal the reference's, bit for bit.

    Returns the hit mask and the reference's entry distance, ``inf`` on a
    miss, which ``raycast_grid`` does not return.
    """
    hit, iv = raycast_grid(SemanticOccupancyGrid(spec, labels), origins, dirs, 0.0, max_range,
                           free)
    rhit, riv, rt = reference_raycast_grid(labels, spec, origins, dirs,
                                           max_range, free)
    assert np.array_equal(hit, rhit)
    assert np.array_equal(iv, riv)
    return hit, rt


# Direction components in {-1, 0, 1}: zero components and exact diagonals,
# on which every boundary crossing is a tie between axes. The all-zero
# direction is left out: raycast_grid rejects it.
LATTICE_DIRS = np.array([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1)
                         for z in (-1, 0, 1) if (x, y, z) != (0, 0, 0)],
                        dtype=np.float64)


def random_case(rng, trial):
    """One grid of ``test_random_grids`` and its 384 rays: origins inside,
    outside, on lattice points and mixed; directions Gaussian or on the
    lattice, so that boundary crossings tie between axes."""
    dims = tuple(int(v) for v in rng.integers(1, 21, size=3))
    vox = float(rng.choice([0.1, 0.25, 0.4, 1.0, rng.uniform(0.05, 2.0)]))
    g0 = rng.uniform(-4.0, 4.0, size=3)
    if trial % 2:
        g0 = np.round(g0 / vox) * vox
    spec = GridSpec(dims=dims, origin=tuple(g0), voxel_size=vox)
    extent = np.asarray(dims) * vox
    density = rng.choice([0.0, 0.02, 0.1, 0.4])
    labels = np.where(rng.random(dims) < density, rng.integers(0, 5, dims), 5)
    k = 96
    inside = g0 + rng.random((k, 3)) * extent
    outside = g0 - extent + rng.random((k, 3)) * 3 * extent
    lattice = g0 + rng.integers(-1, np.asarray(dims) + 2, (k, 3)) * vox
    mixed = np.where(rng.random((k, 3)) < 0.5, lattice, inside)
    origins = np.concatenate([inside, outside, lattice, mixed])
    gauss = rng.normal(size=(len(origins), 3))
    gauss /= np.linalg.norm(gauss, axis=1, keepdims=True)
    diag = LATTICE_DIRS[rng.integers(0, len(LATTICE_DIRS), len(origins))]
    diag *= rng.choice([1.0, 0.5, 3.0])
    on_lattice = rng.random((len(origins), 1)) >= 0.5
    dirs = np.where(on_lattice, diag, gauss)
    span = float(np.linalg.norm(extent))
    max_range = float(rng.choice([rng.uniform(0.0, span), 2.0 * span, 1e3, np.inf]))
    return labels, spec, origins, dirs, max_range, on_lattice[:, 0]


class TestRaycastOracle:
    """raycast_grid against the reference traversal, bit for bit."""

    def test_random_grids(self):
        rng = np.random.default_rng(2605)
        free = 5
        hits = rays = on_lattice_zero_t = 0
        for trial in range(300):
            labels, spec, origins, dirs, max_range, _ = random_case(rng, trial)
            hit, t = assert_same_traversal(labels, spec, origins, dirs,
                                           max_range, free)
            hits += int(hit.sum())
            rays += len(origins)
            on_lattice_zero_t += int(np.sum(np.signbit(t) & (t == 0.0)))
        # the cases must occur: hits and misses, and rays entering a voxel
        # at t = -0.0 from an origin on a boundary plane
        assert 0.1 * rays < hits < 0.9 * rays
        assert on_lattice_zero_t > 0

    def test_edge_cases(self):
        spec = GridSpec(dims=(4, 3, 2), origin=(-0.8, -0.6, 0.0), voxel_size=0.4)
        free = 9
        labels = np.full(spec.dims, free)
        labels[3, 0, 1] = 2
        labels[0, 2, 0] = 1
        corners = (np.asarray(spec.origin)
                   + np.stack(np.meshgrid(*(np.arange(d + 1) for d in spec.dims),
                                          indexing="ij"), -1).reshape(-1, 3)
                   * spec.voxel_size)
        origins = np.repeat(corners, len(LATTICE_DIRS), axis=0)
        dirs = np.tile(LATTICE_DIRS, (len(corners), 1))
        grid = SemanticOccupancyGrid(spec, labels)
        for max_range in (0.0, 0.4, 1.0, np.inf):
            assert_same_traversal(labels, spec, origins, dirs, max_range, free)
        assert_same_traversal(np.full(spec.dims, free), spec, origins, dirs,
                              np.inf, free)
        # subnormal components: every crossing time overflows to inf, so the
        # tie rule steps the lowest axis, even one the ray does not move along
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hit, iv = raycast_grid(grid, origins, dirs * 5e-324, 0.0, np.inf, free)
        with np.errstate(over="ignore"):  # the oracle's overflow to inf is the case
            rhit, riv, _ = reference_raycast_grid(labels, spec, origins, dirs * 5e-324,
                                                  np.inf, free)
        assert np.array_equal(hit, rhit) and np.array_equal(iv, riv)
        assert hit.any()
        # from outside the box such a ray could enter only at t = inf: it misses
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hit, iv = raycast_grid(grid, origins - 1.0, dirs * 5e-324, 0.0, np.inf, free)
        assert not hit.any() and not iv.any()
        empty = np.zeros((0, 3))
        hit, iv = raycast_grid(grid, empty, empty, 0.0, 5.0, free)
        assert hit.shape == (0,) and iv.shape == (0, 3)

    def test_input_layouts(self):
        """The same rays as Fortran-ordered, strided, broadcast and list inputs."""
        spec = GridSpec(dims=(6, 5, 4), origin=(-1.2, -1.0, -0.8), voxel_size=0.4)
        free = 9
        rng = np.random.default_rng(5)
        labels = np.where(rng.random(spec.dims) < 0.15,
                          rng.integers(0, 5, spec.dims), free)
        dirs = np.concatenate([rng.normal(size=(64, 3)), LATTICE_DIRS])
        origin = np.array([0.1, -0.3, 0.2])
        origins = np.repeat(origin[None], len(dirs), axis=0)
        big_o, big_d = np.zeros((2 * len(dirs), 3)), np.zeros((2 * len(dirs), 3))
        big_o[::2], big_d[::2] = origins, dirs
        want = assert_same_traversal(labels, spec, origins, dirs, 1.5, free)
        assert 0 < want[0].sum() < len(dirs)
        for o, d in [(np.asfortranarray(origins), np.asfortranarray(dirs)),
                     (big_o[::2], big_d[::2]),
                     (np.broadcast_to(origin, dirs.shape), dirs),
                     (origins.tolist(), dirs.tolist())]:
            kept = np.array(o, copy=True), np.array(d, copy=True)
            got = assert_same_traversal(labels, spec, o, d, 1.5, free)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert np.array_equal(o, kept[0]) and np.array_equal(d, kept[1])

    def test_rig_scene(self):
        spec = GridSpec(dims=(48, 48, 10), origin=(-9.6, -9.6, -2.0),
                        voxel_size=0.4)
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[:, :, :GROUND_BAND_Z] = 11
        rng = np.random.default_rng(11)
        for _ in range(6):
            lo = rng.integers([0, 0, GROUND_BAND_Z], [44, 44, 6])
            hi = lo + rng.integers([1, 1, 1], [8, 8, 5])
            labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = rng.integers(1, 11)
        for z in (1.6, -2.0 + 6 * 0.4):
            rig = densify_rig(densify_rig(standard_rig(fx=12.0, width=24,
                                                       height=14, z=z), 1), 1)
            assert len(rig.cameras) == 24
            for cam in rig.cameras:
                dirs = cam.pixel_directions().reshape(-1, 3)
                origins = np.broadcast_to(cam.center(), dirs.shape)
                for max_range in (60.0, 6.0):
                    assert_same_traversal(labels, spec, origins, dirs,
                                          max_range, SCHEMA.free_class)


    def test_an_exit_tied_with_an_interior_crossing(self):
        """Each ray crosses an x plane and a y plane at t = 0.5, one of them
        the grid's last. Ray 0 crosses x's interior plane 3 first, by the tie
        rule, into occupied (3, 2, 0), and hits it before it would leave
        through y = 3. Ray 1 leaves through x = 4 first, before its y
        crossing into (3, 2, 0): a miss."""
        spec = GridSpec(dims=(4, 3, 2), origin=(0.0, 0.0, 0.0), voxel_size=1.0)
        labels = np.zeros(spec.dims, dtype=np.uint8)
        labels[3, 2, 0] = 1
        origins = np.array([[2.5, 2.5, 0.5], [3.5, 1.5, 0.5]])
        dirs = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        hit, iv = raycast_grid(SemanticOccupancyGrid(spec, labels), origins, dirs, 0.0,
                               np.inf, 0)
        assert hit.tolist() == [True, False] and iv.tolist() == [[3, 2, 0], [0, 0, 0]]
        assert_same_traversal(labels, spec, origins, dirs, np.inf, 0)


@pytest.fixture(params=[0, 2 ** 62], ids=["steps", "strides"])
def one_loop_body(request, monkeypatch):
    """``raycast_grid`` with one loop body throughout: steps only, or strides
    from the first iteration."""
    monkeypatch.setattr(render, "_STRIDE_RAYS", request.param)


@pytest.mark.usefixtures("one_loop_body")
class TestRaycastOracleOneLoopBody(TestRaycastOracle):
    """The oracle tests again, under each loop body alone."""


def tie_times(spec, origins, dirs):
    """Per ray, the latest time at which the ray crosses boundary planes of two
    axes at once, by the reference's rule; ``nan`` where there is none."""
    g0, vox = np.asarray(spec.origin), spec.voxel_size
    planes = np.arange(max(spec.dims) + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = ((g0[:, None] + planes * vox) - origins[:, :, None]) / dirs[:, :, None]
    t[(dirs[:, :, None] == 0) | (planes > np.asarray(spec.dims)[:, None])] = np.nan
    best = np.full(len(origins), np.nan)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        same = t[:, a, :, None] == t[:, b, None, :]
        best = np.fmax(best, np.where(same, t[:, a, :, None], -np.inf).max(axis=(1, 2)))
    return np.where(best >= 0, best, np.nan)


class TestRestart:
    """A ray started where every voxel it would enter before is free gives the
    answer of the reference, which steps it from its entry, bit for bit."""

    def test_random_grids(self):
        rng = np.random.default_rng(3101)
        free = 5
        kinds = dict.fromkeys(("uniform", "hit", "tie", "past tie", "past exit"), 0)
        for trial in range(200):
            labels, spec, origins, dirs, max_range, lattice = random_case(rng, trial)
            grid = SemanticOccupancyGrid(spec, labels)
            want_hit, want_iv, hit_t = reference_raycast_grid(labels, spec, origins, dirs,
                                                              max_range, free)
            t_in, t_out = _ray_box(spec, origins, dirs)
            # a miss may start anywhere: every voxel it enters within range is free
            reach = np.where(want_hit, hit_t, np.where(np.isfinite(t_out) & (t_out > 0), t_out,
                                                       1.0))
            tie = np.where(lattice, tie_times(spec, origins, dirs), np.nan)
            tie[tie > hit_t] = np.nan
            past_tie = np.nextafter(tie, np.inf)
            past_tie[past_tie >= hit_t] = np.nan
            starts = {
                "uniform": rng.random(len(origins)) * reach,
                "hit": np.where(want_hit, hit_t, np.nan),
                "tie": tie,
                "past tie": past_tie,
                "past exit": np.where(want_hit | ~(t_in <= t_out), np.nan, np.nextafter(
                    np.maximum(t_out, 0.0), np.inf) * rng.uniform(1, 2, len(origins))),
            }
            for kind, start in starts.items():
                moved = ~np.isnan(start) & (start > t_in)
                kinds[kind] += int(moved.sum())
                hit, iv = raycast_grid(grid, origins, dirs, np.where(moved, start, 0.0),
                                       max_range, free)
                assert np.array_equal(hit, want_hit), kind
                assert np.array_equal(iv, want_iv), kind
        # every kind of start moves many rays past their entry
        assert min(kinds.values()) > 1000, kinds

    def test_an_origin_a_rounding_step_inside_the_far_face(self):
        """The origin's y is the last double below the grid's far y face, and
        its voxel index computes as 4 of 4: the entry clips it to 3, and a
        ray that does not move along y must keep that voxel at any start."""
        spec = GridSpec(dims=(6, 4, 3), origin=(-0.6, -0.6, -0.6), voxel_size=0.1)
        y = np.nextafter(-0.6 + 4 * 0.1, -np.inf)
        assert np.floor((y + 0.6) / 0.1) == 4
        labels = np.full(spec.dims, 9)
        labels[3, 3, 1] = 2
        origins = np.array([[-0.65, y, -0.45], [-0.55, y, -0.45]])
        dirs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        grid = SemanticOccupancyGrid(spec, labels)
        want = reference_raycast_grid(labels, spec, origins, dirs, np.inf, 9)
        assert want[0].all() and (want[1] == [3, 3, 1]).all()
        for start in (0.0, 0.2, 0.3):
            hit, iv = raycast_grid(grid, origins, dirs, start, np.inf, 9)
            assert np.array_equal(hit, want[0]) and np.array_equal(iv, want[1])


@pytest.mark.usefixtures("one_loop_body")
class TestRestartOneLoopBody(TestRestart):
    """The restart tests again, under each loop body alone."""



class TestStop:
    """A ray stops where its range or the grid ends, keeps the voxel it
    checked last, and is answered from it when the loop drops it. Seven
    companion rays run the length of a free row, so the loop keeps going
    for 40 steps after the ray under test has stopped."""

    SPEC = GridSpec(dims=(40, 3, 3), origin=(0.0, 0.0, 0.0), voxel_size=0.5)

    def cast(self, labels, origin, direction, max_range, start=0.0):
        origins = np.array([origin] + [[0.1, 0.25, 0.25]] * 7)
        dirs = np.array([direction] + [[1.0, 0.0, 0.0]] * 7)
        labels[:, 0, 0] = 9
        grid = SemanticOccupancyGrid(self.SPEC, labels)
        hit, iv = raycast_grid(grid, origins, dirs, np.append(start, np.zeros(7)), max_range, 9)
        rhit, riv, _ = reference_raycast_grid(labels, self.SPEC, origins, dirs, max_range, 9)
        assert np.array_equal(hit, rhit) and np.array_equal(iv, riv)
        assert not hit[1:].any()
        return hit[0], iv[0]

    @pytest.mark.parametrize("max_range, want", [(0.25, True),
                                                 (np.nextafter(0.25, 0.0), False)])
    def test_a_range_that_ends_at_an_occupied_voxel(self, max_range, want):
        """The ray enters occupied voxel (1, 1, 1) at t = 0.25 exactly: a range
        of 0.25 reaches it, and one a double shorter stops the ray in the free
        voxel before it, which must not step on into the occupied one."""
        labels = np.full(self.SPEC.dims, 9)
        labels[1, 1, 1] = 2
        hit, iv = self.cast(labels, [0.25, 0.75, 0.75], [1.0, 0.0, 0.0], max_range)
        assert hit == want
        assert iv.tolist() == ([1, 1, 1] if want else [0, 0, 0])

    def test_a_ray_that_starts_at_its_range(self):
        """A start equal to the range is not past it: the ray still crosses
        into the occupied voxel it enters at exactly that time."""
        labels = np.full(self.SPEC.dims, 9)
        labels[1, 1, 1] = 2
        hit, iv = self.cast(labels, [0.25, 0.75, 0.75], [1.0, 0.0, 0.0], 0.25, start=0.25)
        assert hit and iv.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("origin, row, direction", [
        ((0.25, 1.25, 1.25), (slice(None), 2, 2), (1.0, 0.0, 0.0)),
        ((19.75, 1.25, 1.25), (slice(None), 2, 2), (-1.0, 0.0, 0.0)),
        ((19.75, 1.25, 0.25), (39, 2, slice(None)), (0.0, 0.0, 1.0)),
        ((19.75, 1.25, 1.25), (39, 2, slice(None)), (0.0, 0.0, -1.0)),
        ((0.25, 0.25, 1.25), (0, slice(None), 2), (0.0, 1.0, 0.0)),
        ((0.25, 1.25, 1.25), (0, slice(None), 2), (0.0, -1.0, 0.0)),
    ], ids=["+x", "-x", "+z", "-z", "+y", "-y"])
    def test_a_ray_that_leaves_beside_occupied_voxels_misses(self, origin, row, direction):
        """Every voxel but the companions' row and the ray's own is occupied;
        the ray runs along an edge row of the grid and would leave it onto
        flat indices of occupied voxels. It stops at the grid's last plane
        and misses."""
        labels = np.full(self.SPEC.dims, 2)
        labels[row] = 9
        hit, iv = self.cast(labels, origin, direction, np.inf)
        assert not hit and not iv.any()


def city(spec, rng, boxes=8):
    """A ground band and random boxes, some reaching the top layer."""
    labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
    labels[:, :, :GROUND_BAND_Z] = 11
    nx, ny, nz = spec.dims
    for i in range(boxes):
        lo = rng.integers([0, 0, GROUND_BAND_Z], [nx - 2, ny - 2, nz - 1])
        hi = lo + rng.integers([1, 1, 1], [9, 9, nz])
        if i % 3 == 0:
            hi[2] = nz
        labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = rng.integers(1, 11)
    return SemanticOccupancyGrid(spec, labels)


def posed_camera(center, yaw=0.0, pitch=0.0, roll=0.0, fx=12.0, width=24, height=16):
    """A camera at ``center`` looking along ``yaw``, then pitched about its
    x axis and rolled about its z axis; cx, cy sit on a pixel centre."""
    c, s = np.cos(pitch), np.sin(pitch)
    pitch_m = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    c, s = np.cos(roll), np.sin(roll)
    roll_m = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rot = _look_yaw(yaw).rotation @ pitch_m @ roll_m
    return Camera(fx=fx, fy=fx, cx=width / 2 + 0.5, cy=height / 2 + 0.5, width=width,
                  height=height, pose=Se3Pose(rot, np.asarray(center, dtype=float)))


def assert_culled_buffers_exact(grid, cam, max_range):
    """``raycast_buffers``, which stops each ray at its height limit, gives
    the reference traversal's hits, voxels and classes for ``max_range``
    alone, bit for bit. Returns the share of rays the limit cuts short."""
    buf = raycast_buffers(grid, cam, max_range, SCHEMA)
    dirs = cam.pixel_directions().reshape(-1, 3)
    origins = np.broadcast_to(cam.center(), dirs.shape)
    hit, iv, _ = reference_raycast_grid(grid.labels, grid.spec, origins, dirs, max_range,
                                        SCHEMA.free_class)
    assert np.array_equal(buf.hit_mask.ravel(), hit)
    coordinate = np.zeros((len(hit), 3))
    coordinate[hit] = grid.spec.index_to_center(iv[hit])
    assert buf.coordinate.reshape(-1, 3).tobytes() == coordinate.tobytes()
    semantic = np.full(len(hit), SCHEMA.free_class, dtype=np.int64)
    semantic[hit] = grid.labels[tuple(iv[hit].T)]
    assert np.array_equal(buf.semantic.ravel(), semantic)
    _, stop = _height_limit(grid, cam.center(), dirs, max_range, SCHEMA.free_class)
    return float(np.mean(stop < max_range))


class TestHeightCull:
    """Cutting each ray at its height limit changes no buffer bit."""

    SPEC = GridSpec(dims=(40, 40, 12), origin=(-8.0, -8.0, -2.0), voxel_size=0.4)
    RANGES = (0.4, 6.0, np.inf)

    @pytest.mark.parametrize("scale", [1.0, 0.25, 5.0])
    def test_pitched_and_rolled_cameras(self, scale):
        spec = GridSpec(self.SPEC.dims, tuple(np.multiply(self.SPEC.origin, scale)),
                        self.SPEC.voxel_size * scale)
        rng = np.random.default_rng(2501)
        grid = city(spec, rng)
        cut = []
        for _ in range(8):
            center = np.array([*rng.uniform(-6.0, 6.0, 2), rng.uniform(-1.0, 2.0)]) * scale
            cam = posed_camera(center, *rng.uniform(-np.pi, np.pi, 3) * [1, 0.5, 1])
            cut += [assert_culled_buffers_exact(grid, cam, r * scale) for r in self.RANGES]
        assert max(cut) > 0.3

    @pytest.mark.parametrize("where, center, pitch", [
        ("above all geometry", (0.3, -0.7, 3.3), -0.6),
        ("above all geometry, level", (0.3, -0.7, 3.3), 0.0),
        ("inside a building", (2.1, 1.9, 0.3), 0.2),
        ("in the ground band", (-1.3, 2.2, -1.7), 0.3),
        ("below the grid", (-1.3, 2.2, -3.0), 0.5),
        ("outside the grid", (-12.0, 0.9, 0.5), 0.0),
        ("outside the grid, above it", (-11.0, -9.5, 4.0), -0.3),
    ])
    def test_camera_positions(self, where, center, pitch):
        rng = np.random.default_rng(2502)
        grid = city(self.SPEC, rng)
        labels = grid.labels.copy()
        labels[24:27, 23:26, :8] = 3        # the building around (2.1, 1.9, 0.3)
        grid = SemanticOccupancyGrid(self.SPEC, labels)
        assert labels[25, 24, 5] == 3
        for yaw in (0.4, 2.0, -2.6):
            cam = posed_camera(center, yaw if center[0] > -10 else yaw / 4, pitch)
            for max_range in self.RANGES:
                assert_culled_buffers_exact(grid, cam, max_range)

    def test_far_cameras(self):
        """At 3 km the bins' chords still leave a cull; at 20 km, where the
        dilation radius would pass the grid's side, every ray keeps its range."""
        grid = city(self.SPEC, np.random.default_rng(2503))
        near = posed_camera((-3e3, 1.1, 1.0), 0.0, 0.0, fx=3e3)
        assert assert_culled_buffers_exact(grid, near, np.inf) > 0.0
        far = posed_camera((-2e4, 1.1, 1.0), 0.0, 0.0, fx=2e4)
        assert assert_culled_buffers_exact(grid, far, np.inf) == 0.0
        assert raycast_buffers(grid, far, np.inf, SCHEMA).hit_mask.any()

    @pytest.mark.parametrize("up", [1.0, -1.0])
    def test_vertical_and_near_vertical_rays(self, up):
        """Straight up under a roof and straight down; at fx = 1e8 the slopes
        pass the int64 cap, and the roof above the camera must stay in range."""
        labels = city(self.SPEC, np.random.default_rng(2504)).labels
        labels[:, :, 10] = 3
        grid = SemanticOccupancyGrid(self.SPEC, labels)
        c, s = np.cos(0.3), np.sin(0.3)
        right, fwd = np.array([c, s, 0.0]), np.array([0.0, 0.0, up])
        rot = np.stack([right, np.cross(fwd, right), fwd], axis=1)
        for fx in (12.0, 1e4, 1e8):
            cam = posed_camera((0.5, -1.1, 1.3), fx=fx)
            cam = Camera(fx=fx, fy=fx, cx=cam.cx, cy=cam.cy, width=cam.width,
                         height=cam.height, pose=Se3Pose(rot, cam.center()))
            principal = cam.pixel_directions()[cam.height // 2, cam.width // 2]
            assert principal[0] == principal[1] == 0.0
            for max_range in self.RANGES:
                assert_culled_buffers_exact(grid, cam, max_range)

    def test_empty_and_full_grids(self):
        for fill in (SCHEMA.free_class, 4):
            grid = SemanticOccupancyGrid(self.SPEC, np.full(self.SPEC.dims, fill, np.uint8))
            for center in ((0.1, 0.2, 0.3), (-10.0, 0.3, 6.0)):
                for pitch in (-0.7, 0.0, 0.7):
                    cam = posed_camera(center, 0.5, pitch)
                    for max_range in self.RANGES:
                        assert_culled_buffers_exact(grid, cam, max_range)
        # over empty columns every rising ray is above everything from the start
        cam = posed_camera((0.1, 0.2, 0.3), 0.5, 0.7)
        dirs = cam.pixel_directions().reshape(-1, 3)
        assert np.all(dirs[:, 2] > 0)
        empty = SemanticOccupancyGrid.full_free(self.SPEC, SCHEMA)
        assert np.all(_height_limit(empty, cam.center(), dirs, np.inf, SCHEMA.free_class)[1] == 0.0)

    def test_a_camera_exactly_slack_above_the_ground(self):
        """The camera's height equals the first sample's ``H``, so the
        sample's rise is exactly 0 and its ``rho_lo`` is 0."""
        spec = GridSpec(dims=(32, 32, 10), origin=(-8.0, -8.0, -1.0), voxel_size=0.5)
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[:, :, :GROUND_BAND_Z] = 11
        grid = SemanticOccupancyGrid(spec, labels)
        z = spec.origin[2] + (GROUND_BAND_Z + _CULL_SLACK) * spec.voxel_size
        for pitch in (0.0, -0.3, 0.3):
            cam = posed_camera((0.3, 0.1, z), 0.7, pitch)
            for max_range in self.RANGES:
                assert_culled_buffers_exact(grid, cam, max_range)

    def test_starts_within_a_voxel_of_flat_ground(self):
        """Over a bare ground band every column top is ``H``, so a falling
        ray of slope ``s`` first reaches ``H`` at ``rho* = (H - Oz) / s``, and
        its start lies in the sample before: ``rho* - v < rho_start <= rho*``."""
        spec = self.SPEC
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[:, :, :GROUND_BAND_Z] = 11
        grid = SemanticOccupancyGrid(spec, labels)
        v = spec.voxel_size
        height = spec.origin[2] + (GROUND_BAND_Z + _CULL_SLACK) * v
        for yaw, pitch in ((0.7, -0.4), (-2.0, -0.25), (2.9, -0.6)):
            cam = posed_camera((0.3, 0.1, 1.0), yaw, pitch)
            dirs = cam.pixel_directions().reshape(-1, 3)
            start, _ = _height_limit(grid, cam.center(), dirs, 60.0, SCHEMA.free_class)
            dxy = np.hypot(dirs[:, 0], dirs[:, 1])
            reach = (height - cam.center()[2]) / (dirs[:, 2] / dxy)
            near = (dirs[:, 2] < 0) & (reach < 7.0)
            assert near.sum() > 100
            rho = start[near] * dxy[near]
            assert np.all(rho <= reach[near] + 1e-9)
            assert np.all(rho > reach[near] - v - 1e-3)
            assert_culled_buffers_exact(grid, cam, 60.0)

    def test_a_top_layer_voxel_at_the_edge_grazed(self):
        """One voxel in the top layer at the grid's +x edge; narrow cameras
        aim at its top edges and corners, so rays pass it by fractions of a
        voxel on every side."""
        spec = self.SPEC
        nx, ny, nz = spec.dims
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[nx - 1, 17, nz - 1] = 6
        grid = SemanticOccupancyGrid(spec, labels)
        g0, v = np.asarray(spec.origin), spec.voxel_size
        hits = 0
        for corner in ((nx - 1, 17, nz), (nx, 18, nz), (nx - 1, 18, nz - 1), (nx - 0.5, 17.5, nz)):
            target = g0 + np.asarray(corner) * v
            for center in ((0.3, 0.1, 0.2), (-4.1, 6.3, 3.9), (2.0, -5.0, -1.5)):
                d = target - center
                yaw = np.arctan2(d[1], d[0])
                pitch = np.arctan2(d[2], np.hypot(d[0], d[1]))
                cam = posed_camera(center, yaw, pitch, fx=300.0)
                for max_range in (np.inf, float(np.linalg.norm(d))):
                    assert_culled_buffers_exact(grid, cam, max_range)
                    hits += int(raycast_buffers(grid, cam, max_range, SCHEMA).hit_mask.sum())
        assert hits > 0

    @pytest.mark.parametrize("side", [1, -1])
    def test_rays_that_stray_from_their_bin_line(self, side):
        """A narrow camera's rays all fall in the bin from 0 to ``side dphi``,
        near its outer edge. The bin's centre line stays in row 20 to the
        grid's far side; the rays cross into row 20 + side, a wall, at x = 4 m.
        Only the dilation brings the wall into the profile."""
        spec = self.SPEC
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[:, :, :GROUND_BAND_Z] = 11
        labels[10:, 20 + side, :] = 5
        grid = SemanticOccupancyGrid(spec, labels)
        yaw = side * 0.95 * 2 * np.pi / _CULL_BINS
        for pitch in (0.0, 0.03, -0.03):
            cam = posed_camera((-7.9, 0.2 + side * 0.13, 0.5), yaw, pitch, fx=1e5)
            for max_range in self.RANGES:
                assert_culled_buffers_exact(grid, cam, max_range)
            buf = raycast_buffers(grid, cam, np.inf, SCHEMA)
            assert np.all(buf.semantic[:, 12 - 12 * (side < 0):24 - 12 * (side < 0)] == 5)

    def test_origins_on_column_boundaries(self):
        spec = GridSpec(dims=(32, 32, 10), origin=(-8.0, -8.0, -1.0), voxel_size=0.5)
        grid = city(spec, np.random.default_rng(2505))
        for i, j, k in ((16, 16, 4), (3, 29, 6), (0, 11, 9), (32, 32, 10)):
            center = np.asarray(spec.origin) + np.array([i, j, k]) * spec.voxel_size
            for yaw in (0.0, np.pi / 4, np.pi / 2, -3 * np.pi / 4):
                for pitch in (0.0, -0.4):
                    cam = posed_camera(center, yaw, pitch)
                    for max_range in self.RANGES:
                        assert_culled_buffers_exact(grid, cam, max_range)

    def test_a_far_camera_whose_rays_stray_from_their_bin_line(self):
        """At 3 km a bin's rays lie up to ``rho dphi / 2``, 23 voxels, from its
        centre line. A narrow camera near the bin's outer edge looks along a
        wall whose nearest row is 20 rows from the line: only the dilation
        radius, ``ceil(0.5 + slack + rho_max dphi / (2 v)) = 24``, brings it
        into the profile."""
        spec = self.SPEC
        v, dphi = spec.voxel_size, 2 * np.pi / _CULL_BINS
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[:, :, :GROUND_BAND_Z] = 11
        labels[:, 20:, :] = 5
        grid = SemanticOccupancyGrid(spec, labels)
        yaw = 0.97 * dphi
        center = (-3e3, 0.6 - 3e3 * np.tan(yaw), 0.5)        # the rays reach y = 0.6 at x = 0
        line = center[1] + 3e3 * np.tan(dphi / 2)
        assert 20 < (spec.origin[1] + 20 * v - line) / v < 21
        cam = posed_camera(center, yaw, 0.0, fx=1e5)
        for max_range in (3.1e3, np.inf):
            assert_culled_buffers_exact(grid, cam, max_range)
            assert np.all(raycast_buffers(grid, cam, max_range, SCHEMA).semantic == 5)

    def test_a_camera_above_every_top_reaches_nothing(self):
        """Every ray rises from above the grid's top layer: each starts at
        inf and misses, and ``raycast_grid`` answers them without reading the
        grid, as it does rays that start at inf or past their range."""
        grid = city(self.SPEC, np.random.default_rng(2509))
        assert (grid.labels[:, :, -1] != SCHEMA.free_class).any()
        cam = posed_camera((0.3, -0.7, 3.3), 0.4, 0.7)
        dirs = cam.pixel_directions().reshape(-1, 3)
        start, stop = _height_limit(grid, cam.center(), dirs, 60.0, SCHEMA.free_class)
        assert np.all(start == np.inf)
        assert not raycast_buffers(grid, cam, 60.0, SCHEMA).hit_mask.any()

        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"grid.{name} was read")

        origins = np.broadcast_to(cam.center(), dirs.shape)
        for start, max_range in ((start, np.minimum(60.0, stop)), (np.inf, np.inf), (1.0, 0.5)):
            hit, iv = raycast_grid(Unread(), origins, dirs, start, max_range, SCHEMA.free_class)
            assert not hit.any() and not iv.any()
        assert_culled_buffers_exact(grid, cam, 60.0)

    def test_a_level_rig_cuts_most_rays(self):
        """Over a ground band and boxes, at least 30% of a level 24-camera
        rig's rays get a stop below ``max_range`` (53% do), and at least 90%
        a start past their grid entry (all do): the cull and the skip are on."""
        spec = GridSpec.standard()
        grid = city(spec, np.random.default_rng(2506), boxes=30)
        z = spec.origin[2] + GROUND_BAND_Z * spec.voxel_size + 1.5
        rig = densify_rig(densify_rig(standard_rig(fx=24.0, width=48, height=32, z=z), 1), 1)
        cut = [assert_culled_buffers_exact(grid, cam, 60.0) for cam in rig.cameras[::6]]
        limited = skipped = rays = 0
        for cam in rig.cameras:
            dirs = cam.pixel_directions().reshape(-1, 3)
            start, stop = _height_limit(grid, cam.center(), dirs, 60.0, SCHEMA.free_class)
            t_enter, _ = _ray_box(spec, np.broadcast_to(cam.center(), dirs.shape), dirs)
            limited += int(np.sum(stop < 60.0))
            skipped += int(np.sum(start > t_enter))
            rays += len(dirs)
        assert limited >= 0.3 * rays and min(cut) > 0.0
        assert skipped >= 0.9 * rays

    def test_one_rig_call_peaks_at_most_9_mb(self):
        spec = GridSpec.standard()
        grid = city(spec, np.random.default_rng(2507), boxes=30)
        z = spec.origin[2] + GROUND_BAND_Z * spec.voxel_size + 1.5
        cam = standard_rig(fx=80.0, width=160, height=90, z=z).cameras[1]
        raycast_buffers(grid, cam, 60.0, SCHEMA)
        tracemalloc.start()
        try:
            raycast_buffers(grid, cam, 60.0, SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2 ** 20, f"peaked at {peak / 2 ** 20:.1f} MB"


def test_per_ray_range_equals_one_call_per_ray():
    spec = GridSpec(dims=(12, 10, 6), origin=(-2.4, -2.0, -1.2), voxel_size=0.4)
    rng = np.random.default_rng(2508)
    labels = np.where(rng.random(spec.dims) < 0.1, rng.integers(0, 5, spec.dims), 9)
    n = 300
    origins = rng.uniform(-3.5, 3.5, (n, 3))
    dirs = rng.normal(size=(n, 3))
    ranges = rng.choice([0.0, 0.4, 1.7, 3.1, 8.0, np.inf], n) * rng.uniform(0.5, 1.5, n)
    # per-ray starts no later than the first hit at any range
    first = reference_raycast_grid(labels, spec, origins, dirs, np.inf, 9)[2]
    starts = np.where(np.isfinite(first), first, 9.0) * rng.choice([0.0, 0.5, 1.0], n)
    grid = SemanticOccupancyGrid(spec, labels)
    hit, iv = raycast_grid(grid, origins, dirs, starts, ranges, 9)
    assert 0 < hit.sum() < n and np.count_nonzero(starts) > n / 2
    for i in range(n):
        one = raycast_grid(grid, origins[i:i + 1], dirs[i:i + 1], float(starts[i]),
                           float(ranges[i]), 9)
        assert one[0][0] == hit[i] and np.array_equal(one[1][0], iv[i])
    nan_at_one = ranges.copy()
    nan_at_one[7] = np.nan
    for bad in (ranges[:-1], ranges[:, None], ranges[:1], np.append(ranges, 1.0), np.nan,
                nan_at_one):
        with pytest.raises(ValueError, match="max_range"):
            raycast_grid(grid, origins, dirs, 0.0, bad, 9)
        with pytest.raises(ValueError, match="start"):
            raycast_grid(grid, origins, dirs, bad, 1.0, 9)


def test_a_nan_start_or_range_is_rejected_not_a_miss():
    """The ray hits (2, 1, 0) at range 10 and at range inf; a NaN range or
    start used to answer a silent miss. An inf start is a miss."""
    spec = GridSpec(dims=(4, 3, 2), origin=(0.0, 0.0, 0.0), voxel_size=1.0)
    labels = np.zeros(spec.dims, dtype=np.uint8)
    labels[2, 1, 0] = 1
    grid = SemanticOccupancyGrid(spec, labels)
    cast = lambda start, max_range: raycast_grid(grid, [[-1.0, 1.5, 0.5]], [[1.0, 0.0, 0.0]],
                                                 start, max_range, 0)[0].tolist()
    assert cast(0.0, 10.0) == cast(0.0, np.inf) == [True]
    assert cast(np.inf, np.inf) == [False]
    with pytest.raises(ValueError, match="max_range must not be NaN"):
        cast(0.0, np.nan)
    with pytest.raises(ValueError, match="start must not be NaN"):
        cast(np.nan, 10.0)


def _look_yaw(yaw: float) -> Se3Pose:
    fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    return Se3Pose(np.stack([right, down, fwd], axis=1), np.zeros(3))


def test_standard_rig_roles_face_outward_on_the_unit_circle():
    rig = standard_rig(z=1.25)
    degrees = {"F": 0, "FL": 60, "FR": -60, "BL": 120, "BR": -120, "B": 180}
    assert sorted(c.role for c in rig.cameras) == sorted(degrees)
    for cam in rig.cameras:
        yaw = np.deg2rad(degrees[cam.role])
        fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        assert np.allclose(cam.pose.rotation[:, 2], fwd, atol=1e-12), cam.role
        assert np.allclose(cam.pose.translation, fwd + [0.0, 0.0, 1.25], atol=1e-12)


class TestDensify:
    def test_zero_insertions_identity(self):
        rig = standard_rig()
        assert densify_rig(rig, 0) is rig

    def test_one_insertion_doubles(self):
        rig = densify_rig(standard_rig(), 1)
        assert len(rig.cameras) == 12
        roles = [c.role for c in rig.cameras]
        assert roles[::2] == list(("FL", "F", "FR", "BR", "B", "BL"))
        assert all(r == "virtual" for r in roles[1::2])

    def test_two_doublings_reach_24(self):
        rig = densify_rig(densify_rig(standard_rig(), 1), 1)
        assert len(rig.cameras) == 24
        assert len({c.name for c in rig.cameras}) == 24

    def test_midpoint_of_translations(self):
        a = make_camera(pose=Se3Pose.from_translation((1.0, 2.0, 3.0)))
        b = Camera(fx=a.fx, fy=a.fy, cx=a.cx, cy=a.cy, width=a.width,
                   height=a.height,
                   pose=Se3Pose.from_translation((3.0, -2.0, 1.0)), role="FR")
        rig = densify_rig(CameraRig([a, b]), 1)
        mid = rig.cameras[1]
        assert mid.role == "virtual"
        assert np.allclose(mid.pose.translation, [2.0, 0.0, 2.0], atol=1e-15)
        assert np.allclose(mid.pose.rotation, np.eye(3), atol=1e-12)

    def test_slerp_halfway_rotation(self):
        a = make_camera(pose=Se3Pose.identity())
        b = Camera(fx=a.fx, fy=a.fy, cx=a.cx, cy=a.cy, width=a.width,
                   height=a.height, pose=Se3Pose.from_yaw(1.0), role="FR")
        rig = densify_rig(CameraRig([a, b]), 1)
        assert np.allclose(rig.cameras[1].pose.rotation,
                           Se3Pose.from_yaw(0.5).rotation, atol=1e-12)


def test_duplicate_base_role_rejected():
    cam = make_camera()
    with pytest.raises(ValueError):
        CameraRig([cam, cam])


def test_camera_validation():
    with pytest.raises(ValueError):
        Camera(fx=-1, fy=1, cx=0, cy=0, width=4, height=4,
               pose=Se3Pose.identity())
    with pytest.raises(ValueError):
        Camera(fx=1, fy=1, cx=9, cy=0, width=4, height=4,
               pose=Se3Pose.identity())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_camera_non_finite_focal_rejected(bad):
    for fx, fy in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            Camera(fx=fx, fy=fy, cx=0, cy=0, width=4, height=4,
                   pose=Se3Pose.identity())


def test_focal_length_bound_is_strict():
    for fx, fy in ((1e-300, 1.0), (1.0, 1e-300)):
        assert Camera(fx=fx, fy=fy, cx=0, cy=0, width=4, height=4,
                      pose=Se3Pose.identity()).fx == fx
    for fx, fy in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="focal"):
            Camera(fx=fx, fy=fy, cx=0, cy=0, width=4, height=4, pose=Se3Pose.identity())


def test_principal_point_range_ends():
    for cx, cy in ((0.0, 0.0), (3.99, 0.0), (0.0, 3.99)):
        cam = Camera(fx=1, fy=1, cx=cx, cy=cy, width=4, height=4, pose=Se3Pose.identity())
        assert (cam.cx, cam.cy) == (cx, cy)
    for cx, cy in ((-1e-9, 0.0), (4.0, 0.0), (0.0, -1e-9), (0.0, 4.0)):
        with pytest.raises(ValueError, match="principal point"):
            Camera(fx=1, fy=1, cx=cx, cy=cy, width=4, height=4, pose=Se3Pose.identity())


def test_image_size_must_be_integers_of_at_least_one():
    # 2.5, 3.0 and True constructed, and raycast_buffers then raised TypeError
    for width, height in ((2.5, 4), (4, np.float64(3.0)), (True, 4), (4, False), (0, 4),
                          (4, -1), (4.0, 4.0)):
        with pytest.raises(ValueError, match="image size must be integers >= 1"):
            Camera(fx=1, fy=1, cx=0, cy=0, width=width, height=height, pose=Se3Pose.identity())
    cam = Camera(fx=1, fy=1, cx=0, cy=0, width=np.int64(3), height=1, pose=Se3Pose.identity())
    assert cam.pixel_directions().shape == (1, 3, 3)


def test_negative_insertions_rejected():
    with pytest.raises(ValueError, match=">= 0"):
        densify_rig(standard_rig(), -1)


def test_densify_needs_two_cameras():
    rig = CameraRig([make_camera()])
    assert densify_rig(rig, 0) is rig
    for rig in (rig, CameraRig([])):
        with pytest.raises(ValueError, match="need at least two cameras to interpolate"):
            densify_rig(rig, 1)


def test_duplicate_camera_name_rejected():
    def virtual(name):
        return Camera(fx=1, fy=1, cx=0, cy=0, width=4, height=4, pose=Se3Pose.identity(),
                      role="virtual", name=name)

    assert len(CameraRig([virtual("v0"), virtual("v1")]).cameras) == 2
    with pytest.raises(ValueError, match="duplicate camera name in rig"):
        CameraRig([virtual("v0"), virtual("v1"), virtual("v0")])


def test_buffers_validate_moment_orthogonality():
    d = np.array([1.0, 0.0, 0.0])

    def buffers(moment):
        return GeometryBuffers(semantic=np.zeros((1, 1), dtype=np.uint8),
                               coordinate=np.zeros((1, 1, 3)),
                               plucker=np.concatenate([d, moment]).reshape(1, 1, 6),
                               hit_mask=np.zeros((1, 1), dtype=bool))

    buffers(np.array([0.0, 2.0, -3.0])).validate()
    # a non-finite coordinate counts only where the ray hit
    buf = buffers(np.array([0.0, 2.0, -3.0]))
    buf.coordinate[0, 0, 1] = np.nan
    buf.validate()
    buf.hit_mask[0, 0] = True
    with pytest.raises(ValueError, match="non-finite hit coordinates"):
        buf.validate()
    buffers(np.array([1e-12, 2.0, -3.0])).validate()  # at the tolerance
    for bad in ([2e-12, 2.0, -3.0], [0.5, 0.0, 0.0], [-1.0, 1.0, 1.0]):
        with pytest.raises(ValueError, match="orthogonal"):
            buffers(np.array(bad)).validate()
