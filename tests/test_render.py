import numpy as np
import pytest

from occkit.core import (GROUND_BAND_Z, BevLayout, GridSpec, LabelSchema, Se3Pose,
                         SemanticOccupancyGrid)
from occkit.render import (
    Camera,
    CameraRig,
    camera_from_json,
    densify_rig,
    plucker_embedding,
    raycast_buffers,
    raycast_grid,
    rig_from_json,
    rig_to_json,
    standard_rig,
)

SCHEMA = LabelSchema()


def make_camera(pose=None, fx=10.0, width=9, height=7):
    # cx/cy at a pixel center so the principal ray is exactly axis-aligned
    return Camera(fx=fx, fy=fx, cx=4.5, cy=3.5, width=width, height=height,
                  pose=pose or Se3Pose.identity(), role="F")


def sampling_first_hit(labels, spec, origins, dirs, max_range, free, substeps=50):
    """Stride-based first-hit oracle with a no-skip certificate.

    Samples every voxel_size/substeps along each ray and reports the
    first sample inside a non-free voxel. A ray is certified when every
    consecutive sample pair up to (and including) the reporting sample
    moved by at most one voxel along one axis: a straight segment that
    crosses at most one boundary plane cannot have skipped any voxel,
    so on certified rays the sampled first hit is the true first hit.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    ts = np.arange(0.0, max_range, spec.voxel_size / substeps)
    ps = origins[:, None, :] + ts[None, :, None] * dirs[:, None, :]
    iv = np.floor((ps - np.asarray(spec.origin)) / spec.voxel_size).astype(np.int64)
    dims = np.asarray(spec.dims)
    inb = np.all((iv >= 0) & (iv < dims), axis=-1)
    labs = np.full(inb.shape, free, dtype=np.int64)
    sel = np.nonzero(inb)
    labs[sel] = labels[iv[sel][:, 0], iv[sel][:, 1], iv[sel][:, 2]]
    nonfree = labs != free
    has_hit = nonfree.any(axis=1)
    first = np.where(has_hit, nonfree.argmax(axis=1), len(ts) - 1)
    skipped = np.abs(np.diff(iv, axis=1)).sum(axis=-1) > 1
    bad_prefix = np.concatenate(
        [np.zeros((len(origins), 1), dtype=bool),
         np.maximum.accumulate(skipped, axis=1)], axis=1)
    certified = np.where(has_hit, ~bad_prefix[np.arange(len(origins)), first],
                         ~bad_prefix[:, -1])
    hit_iv = iv[np.arange(len(origins)), first]
    return has_hit, hit_iv, certified


def reference_raycast_grid(
    labels: np.ndarray,
    spec: GridSpec,
    origins: np.ndarray,
    dirs: np.ndarray,
    max_range: float,
    free_class: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference traversal: occkit's original ``raycast_grid``, verbatim.

    It steps (N, 3) state with argmin and fancy indexing, one voxel per
    iteration; ``raycast_grid`` must return the same bits.
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
        iv, step, tmax, tdelta = iv[keep], step[keep], tmax[keep], tdelta[keep]
        if len(active) == 0:
            break
        r = np.arange(len(active))
        ax = np.argmin(tmax, axis=1)
        t_cur = tmax[r, ax]
        iv[r, ax] += step[r, ax]
        tmax[r, ax] += tdelta[r, ax]
        alive = (iv[r, ax] >= 0) & (iv[r, ax] < dims[ax]) & (t_cur <= max_range)
        if not alive.all():
            active = active[alive]
            iv, step = iv[alive], step[alive]
            tmax, tdelta, t_cur = tmax[alive], tdelta[alive], t_cur[alive]
    return hit, hit_iv, hit_t


class TestPlucker:
    def test_principal_ray_identity_pose(self):
        emb = plucker_embedding(make_camera())
        d = emb[3, 4, :3]
        m = emb[3, 4, 3:]
        assert np.allclose(d, [0, 0, 1], atol=1e-15)
        assert np.allclose(m, 0, atol=1e-15)

    def test_offset_camera_moment(self):
        cam = make_camera(pose=Se3Pose.from_translation((1.0, 0.0, 0.0)))
        emb = plucker_embedding(cam)
        assert np.allclose(emb[3, 4, :3], [0, 0, 1], atol=1e-15)
        assert np.allclose(emb[3, 4, 3:], [0, -1, 0], atol=1e-15)

    def test_moment_orthogonal_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            pose = Se3Pose.from_yaw(rng.uniform(-3, 3), rng.normal(size=3))
            emb = plucker_embedding(make_camera(pose=pose))
            d, m = emb[..., :3], emb[..., 3:]
            assert np.max(np.abs((d * m).sum(-1))) <= 1e-12
            assert np.allclose(np.linalg.norm(d, axis=-1), 1.0, atol=1e-12)

    def test_translation_along_principal_ray_invariance(self):
        cam = make_camera(pose=Se3Pose.from_translation((0.3, -0.2, 0.0)))
        emb = plucker_embedding(cam)[3, 4]
        d = emb[:3]
        moved = make_camera(pose=Se3Pose.from_translation(
            np.array([0.3, -0.2, 0.0]) + 2.5 * d))
        emb2 = plucker_embedding(moved)[3, 4]
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
            assert plucker_embedding(cam).tobytes() == want.tobytes()


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
        buf = raycast_buffers(grid, cam, 50.0, SCHEMA)
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
            hit, iv, _ = raycast_grid(labels, spec, origins, dirs, 60.0,
                                      SCHEMA.free_class)
            ohit, oiv, cert = sampling_first_hit(labels, spec, origins, dirs,
                                                 60.0, SCHEMA.free_class)
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
        hit_a, _, t_a = raycast_grid(sparse, spec, origins, dirs, 60.0,
                                     SCHEMA.free_class)
        hit_b, _, t_b = raycast_grid(extra, spec, origins, dirs, 60.0,
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
    """(hit, voxel index, entry t) of both traversals are bitwise equal."""
    hit, iv, t = raycast_grid(labels, spec, origins, dirs, max_range, free)
    rhit, riv, rt = reference_raycast_grid(labels, spec, origins, dirs,
                                           max_range, free)
    assert np.array_equal(hit, rhit)
    assert np.array_equal(iv, riv)
    assert np.array_equal(t, rt)
    assert np.array_equal(t.view(np.int64), rt.view(np.int64))  # sign of 0 too
    return hit, t


# Direction components in {-1, 0, 1}: zero components and exact diagonals,
# on which every boundary crossing is a tie between axes.
LATTICE_DIRS = np.array([(x, y, z) for x in (-1, 0, 1) for y in (-1, 0, 1)
                         for z in (-1, 0, 1)], dtype=np.float64)


class TestRaycastOracle:
    """raycast_grid against the reference traversal, bit for bit."""

    def test_random_grids(self):
        rng = np.random.default_rng(2605)
        free = 5
        hits = rays = on_lattice_zero_t = 0
        for trial in range(300):
            dims = tuple(int(v) for v in rng.integers(1, 21, size=3))
            vox = float(rng.choice([0.1, 0.25, 0.4, 1.0, rng.uniform(0.05, 2.0)]))
            g0 = rng.uniform(-4.0, 4.0, size=3)
            if trial % 2:
                g0 = np.round(g0 / vox) * vox
            spec = GridSpec(dims=dims, origin=tuple(g0), voxel_size=vox)
            extent = np.asarray(dims) * vox
            density = rng.choice([0.0, 0.02, 0.1, 0.4])
            labels = np.where(rng.random(dims) < density,
                              rng.integers(0, 5, dims), free)
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
            dirs = np.where(rng.random((len(origins), 1)) < 0.5, gauss, diag)
            span = float(np.linalg.norm(extent))
            max_range = float(rng.choice([rng.uniform(0.0, span), 2.0 * span,
                                          1e3, np.inf]))
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
        for max_range in (0.0, 0.4, 1.0, np.inf):
            assert_same_traversal(labels, spec, origins, dirs, max_range, free)
        assert_same_traversal(np.full(spec.dims, free), spec, origins, dirs,
                              np.inf, free)
        empty = np.zeros((0, 3))
        hit, iv, t = raycast_grid(labels, spec, empty, empty, 5.0, free)
        assert hit.shape == (0,) and iv.shape == (0, 3) and t.shape == (0,)

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


def _look_yaw(yaw: float) -> Se3Pose:
    fwd = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    right = np.array([np.sin(yaw), -np.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    return Se3Pose(np.stack([right, down, fwd], axis=1), np.zeros(3))


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


def test_rig_json_round_trip():
    rig = densify_rig(standard_rig(), 1)
    back = rig_from_json(rig_to_json(rig))
    assert [c.name for c in back.cameras] == [c.name for c in rig.cameras]
    for a, b in zip(rig.cameras, back.cameras):
        assert np.allclose(a.pose.rotation, b.pose.rotation, atol=1e-15)
        assert np.allclose(a.pose.translation, b.pose.translation, atol=1e-15)
        assert (a.fx, a.fy, a.cx, a.cy) == (b.fx, b.fy, b.cx, b.cy)


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
