import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from occkit import pipeline
from occkit.core import (
    GridSpec,
    LabelSchema,
    OrientedBox,
    PanopticVoxelGrid,
    Se3Pose,
    SemanticOccupancyGrid,
    panoptic_encode,
)
from occkit.pipeline import (
    EgoShift,
    LabeledPointCloud,
    fit_asset_to_box,
    knn_propagate,
    remove_points_in_boxes,
    resample_occupancy,
    voxelize_majority,
)

SCHEMA = LabelSchema()
SPEC = GridSpec(dims=(8, 8, 4), origin=(-1.6, -1.6, -0.8), voxel_size=0.4)
FREE = PanopticVoxelGrid.FREE_LABEL


def voxelize_oracle(cloud, spec):
    """Per-voxel frequency count with the documented tie-break."""
    votes = {}
    for p, lab in zip(cloud.points, cloud.labels):
        idx = tuple(np.floor((p - np.asarray(spec.origin)) / spec.voxel_size).astype(int))
        if all(0 <= idx[a] < spec.dims[a] for a in range(3)):
            votes.setdefault(idx, {}).setdefault(int(lab), 0)
            votes[idx][int(lab)] += 1
    out = np.full(spec.dims, FREE, dtype=np.int64)
    for idx, counter in votes.items():
        best = max(counter.values())
        out[idx] = min(l for l, c in counter.items() if c == best)
    return out


class TestVoxelize:
    def test_single_point(self):
        cloud = LabeledPointCloud(np.array([[0.1, 0.1, 0.1]]), np.array([4001]))
        grid = voxelize_majority(cloud, SPEC, SCHEMA)
        assert (grid.labels != FREE).sum() == 1
        assert grid.labels[4, 4, 2] == 4001

    def test_majority_wins(self):
        pts = np.array([[0.1, 0.1, 0.1]] * 3)
        cloud = LabeledPointCloud(pts, np.array([4001, 4001, 15000]))
        grid = voxelize_majority(cloud, SPEC, SCHEMA)
        assert grid.labels[4, 4, 2] == 4001

    def test_tie_breaks_to_smaller_label(self):
        pts = np.array([[0.1, 0.1, 0.1]] * 2)
        cloud = LabeledPointCloud(pts, np.array([15000, 4001]))
        grid = voxelize_majority(cloud, SPEC, SCHEMA)
        assert grid.labels[4, 4, 2] == 4001

    def test_empty_cloud(self):
        cloud = LabeledPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int))
        grid = voxelize_majority(cloud, SPEC, SCHEMA)
        assert np.all(grid.labels == FREE)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LabeledPointCloud(np.array([[np.nan, 0, 0]]), np.array([4001]))

    def test_matches_count_oracle(self):
        rng = np.random.default_rng(10)
        labels_pool = [panoptic_label for panoptic_label in (1001, 1002, 4001, 11000, 15000)]
        for trial in range(20):
            n = int(rng.integers(1, 2000))
            pts = rng.uniform(-2.0, 2.0, size=(n, 3))
            labs = rng.choice(labels_pool, size=n)
            cloud = LabeledPointCloud(pts, labs)
            grid = voxelize_majority(cloud, SPEC, SCHEMA)
            assert np.array_equal(grid.labels, voxelize_oracle(cloud, SPEC))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, size=(500, 3))
        labs = rng.choice([1001, 2001, 11000], size=500)
        cloud = LabeledPointCloud(pts, labs)
        perm = rng.permutation(500)
        shuffled = LabeledPointCloud(pts[perm], labs[perm])
        a = voxelize_majority(cloud, SPEC, SCHEMA)
        b = voxelize_majority(shuffled, SPEC, SCHEMA)
        assert np.array_equal(a.labels, b.labels)


def knn_oracle(labeled, query, k):
    """Brute force under knn_propagate's rule: the k nearest by squared
    distance ``(dx*dx + dy*dy) + dz*dz``, then by index; then a per-row
    np.unique vote, ties to the nearest tied member, then the smaller label."""
    query = np.asarray(query, dtype=np.float64).reshape(-1, 3)
    k = min(k, len(labeled))
    out = np.empty(len(query), dtype=np.int64)
    for qi, q in enumerate(query):
        d = labeled.points - q
        sq = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) + d[:, 2] * d[:, 2]
        near = np.argsort(sq, kind="stable")[:k]
        values, inv, counts = np.unique(labeled.labels[near], return_inverse=True,
                                        return_counts=True)
        min_dist = np.full(len(values), np.inf)
        np.minimum.at(min_dist, inv, np.sqrt(sq[near]))
        tied = counts == counts.max()
        cand_lab, cand_dist = values[tied], min_dist[tied]
        out[qi] = cand_lab[np.lexsort((cand_lab, cand_dist))[0]]
    return out


class TestKnn:
    def test_coincident_point(self):
        labeled = LabeledPointCloud(np.array([[0, 0, 0], [5, 5, 5.]]),
                                    np.array([4001, 15000]))
        got = knn_propagate(labeled, np.array([[0, 0, 0.]]), k=1)
        assert got[0] == 4001

    def test_two_of_three_majority(self):
        labeled = LabeledPointCloud(
            np.array([[1, 0, 0], [0, 1, 0], [0, 0, 5.0]]),
            np.array([7001, 7001, 15000]))
        got = knn_propagate(labeled, np.array([[0.0, 0.0, 0.0]]), k=3)
        assert got[0] == 7001

    def test_k_clamped(self):
        labeled = LabeledPointCloud(np.array([[0, 0, 0], [1, 0, 0.]]),
                                    np.array([4001, 4002]))
        got = knn_propagate(labeled, np.array([[0.2, 0, 0]]), k=10)
        assert got[0] == 4001  # 1-1 tie, 4001 is nearer

    def test_empty_labeled_rejected(self):
        empty = LabeledPointCloud(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            knn_propagate(empty, np.zeros((1, 3)), k=1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(12)
        for k in (1, 3, 5):
            labeled = LabeledPointCloud(
                rng.normal(size=(60, 3)),
                rng.choice([1001, 1002, 2001, 11000], size=60))
            query = rng.normal(size=(40, 3))
            assert_bitwise(knn_propagate(labeled, query, k),
                           knn_oracle(labeled, query, k))


class TestFitAsset:
    def unit_cube(self):
        g = np.linspace(-0.5, 0.5, 4)
        return np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)

    def test_unit_cube_extents(self):
        box = OrientedBox(center=(3, -1, 2), size=(2.0, 5.0, 1.5), yaw=0.8)
        fitted = fit_asset_to_box(self.unit_cube(), box)
        local = box.pose().inverse().apply(fitted)
        extents = local.max(axis=0) - local.min(axis=0)
        assert np.all(np.abs(extents - np.array(box.size)) < 1e-9)

    def test_identity_box(self):
        box = OrientedBox(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        asset = self.unit_cube()
        assert np.allclose(fit_asset_to_box(asset, box), asset, atol=1e-12)

    def test_yaw_quarter_turn_swaps_spans(self):
        box = OrientedBox(center=(0, 0, 0), size=(1.0, 2.0, 1.0), yaw=np.pi / 2)
        fitted = fit_asset_to_box(self.unit_cube(), box)
        spans = fitted.max(axis=0) - fitted.min(axis=0)
        assert abs(spans[0] - 2.0) < 1e-9  # length now along world x
        assert abs(spans[1] - 1.0) < 1e-9

    def test_bounding_box_midpoint_lands_on_the_centre(self):
        # extents (1, 2, 4) and midpoint (0.5, 2, 1); the mean is elsewhere
        asset = np.array([[0, 1, -1], [1, 3, 3], [0.9, 2.9, 2.9], [0.8, 2.8, 2.8]])
        box = OrientedBox(center=(5.0, -2.0, 1.0), size=(1.0, 2.0, 4.0), yaw=0.0)
        assert np.allclose(fit_asset_to_box(asset, box),
                           asset - [0.5, 2.0, 1.0] + [5.0, -2.0, 1.0], atol=1e-12)

    def test_random_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            asset = rng.normal(size=(50, 3))
            box = OrientedBox(center=tuple(rng.normal(size=3)),
                              size=tuple(rng.uniform(0.5, 4.0, size=3)),
                              yaw=rng.uniform(-np.pi, np.pi))
            local = box.pose().inverse().apply(fit_asset_to_box(asset, box))
            extents = local.max(axis=0) - local.min(axis=0)
            assert np.all(np.abs(extents - np.array(box.size)) < 1e-9)

    def test_zero_extent_rejected(self):
        flat = np.zeros((10, 3))
        flat[:, 0] = np.linspace(0, 1, 10)
        flat[:, 1] = np.linspace(0, 1, 10)
        box = OrientedBox(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        with pytest.raises(ValueError):
            fit_asset_to_box(flat, box)


class TestRemovePoints:
    def test_no_boxes_identity(self):
        cloud = LabeledPointCloud(np.random.default_rng(0).normal(size=(10, 3)),
                                  np.arange(10) + 1001)
        out = remove_points_in_boxes(cloud, [])
        assert np.array_equal(out.points, cloud.points)

    def test_center_removed(self):
        box = OrientedBox(center=(1, 1, 1), size=(1, 1, 1), yaw=0.2)
        cloud = LabeledPointCloud(np.array([[1, 1, 1.]]), np.array([4001]))
        assert len(remove_points_in_boxes(cloud, [box])) == 0

    def test_matches_containment_oracle(self):
        rng = np.random.default_rng(14)
        box = OrientedBox(center=(0.5, -0.5, 0.2), size=(1.5, 3.0, 1.0), yaw=0.9)
        pts = rng.uniform(-3, 3, size=(400, 3))
        cloud = LabeledPointCloud(pts, rng.integers(1001, 1100, size=400))
        out = remove_points_in_boxes(cloud, [box])
        keep = ~box.contains(pts)
        assert np.array_equal(out.points, pts[keep])
        assert np.array_equal(out.labels, cloud.labels[keep])

    def test_union_equals_sequential(self):
        rng = np.random.default_rng(15)
        boxes_a = [OrientedBox(center=tuple(rng.normal(size=3)),
                               size=(1, 2, 1), yaw=0.3)]
        boxes_b = [OrientedBox(center=tuple(rng.normal(size=3)),
                               size=(2, 1, 1), yaw=-0.7)]
        cloud = LabeledPointCloud(rng.uniform(-3, 3, size=(300, 3)),
                                  rng.integers(1001, 1010, size=300))
        joint = remove_points_in_boxes(cloud, boxes_a + boxes_b)
        seq = remove_points_in_boxes(remove_points_in_boxes(cloud, boxes_a), boxes_b)
        assert np.array_equal(joint.points, seq.points)


class TestResample:
    def grid(self):
        rng = np.random.default_rng(16)
        labels = rng.integers(0, SCHEMA.num_classes, size=SPEC.dims)
        return SemanticOccupancyGrid(SPEC, labels)

    def test_identity(self):
        grid = self.grid()
        out = resample_occupancy(grid, EgoShift(Se3Pose.identity()), SCHEMA)
        assert np.array_equal(out.labels, grid.labels)

    def test_single_voxel_translation(self):
        grid = self.grid()
        shift = EgoShift(Se3Pose.from_translation((0.4, 0.0, 0.0)))
        out = resample_occupancy(grid, shift, SCHEMA)
        assert np.array_equal(out.labels[1:], grid.labels[:-1])
        assert np.all(out.labels[0] == SCHEMA.free_class)

    def test_two_meter_shift_is_five_voxels(self):
        grid = self.grid()
        shift = EgoShift(Se3Pose.from_translation((0.0, 2.0, 0.0)))
        out = resample_occupancy(grid, shift, SCHEMA)
        assert np.array_equal(out.labels[:, 5:], grid.labels[:, :-5])
        assert np.all(out.labels[:, :5] == SCHEMA.free_class)

    def test_shift_then_inverse_is_identity_on_interior(self):
        grid = self.grid()
        fwd = EgoShift(Se3Pose.from_translation((0.4, -0.8, 0.0)))
        inv = EgoShift(fwd.transform.inverse())
        back = resample_occupancy(resample_occupancy(grid, fwd, SCHEMA), inv, SCHEMA)
        assert np.array_equal(back.labels[1:-1, 2:-2], grid.labels[1:-1, 2:-2])


# ---------------------------------------------------------------------------
# Equality oracles: the loop implementations the vectorised stages replaced,
# kept verbatim, with the old forms of the grid helpers they call. The stages
# and helpers must match them bit for bit.
# ---------------------------------------------------------------------------


def reference_world_to_index(spec, points):
    p = np.asarray(points, dtype=np.float64)
    return np.floor((p - np.asarray(spec.origin)) / spec.voxel_size).astype(np.int64)


def reference_index_in_bounds(spec, idx):
    idx = np.asarray(idx)
    return np.all((idx >= 0) & (idx < np.asarray(spec.dims)), axis=-1)


def reference_voxelize_majority(cloud, spec, schema):
    labels = np.full(spec.dims, PanopticVoxelGrid.FREE_LABEL, dtype=np.int64)
    if len(cloud):
        idx = reference_world_to_index(spec, cloud.points)
        keep = reference_index_in_bounds(spec, idx)
        idx, pts_labels = idx[keep], cloud.labels[keep]
        if len(idx):
            dims = np.asarray(spec.dims)
            flat = (idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2]
            # compact both axes of the vote table
            vox_ids, vox_inv = np.unique(flat, return_inverse=True)
            lab_ids, lab_inv = np.unique(pts_labels, return_inverse=True)
            counts = np.zeros((len(vox_ids), len(lab_ids)), dtype=np.int64)
            np.add.at(counts, (vox_inv, lab_inv), 1)
            # lab_ids is sorted, argmax returns the first max: smaller label wins ties
            winners = lab_ids[np.argmax(counts, axis=1)]
            labels.reshape(-1)[vox_ids] = winners
    grid = PanopticVoxelGrid(spec, labels)
    grid.validate(schema)
    return grid


def reference_voxelize_compacted(cloud, spec, schema):
    """The sorted-key vote over np.unique-compacted labels, which the packed
    panoptic key replaced."""
    labels = np.full(spec.dims, PanopticVoxelGrid.FREE_LABEL, dtype=np.int64)
    if len(cloud):
        idx = reference_world_to_index(spec, cloud.points)
        keep = reference_index_in_bounds(spec, idx)
        dims = np.asarray(spec.dims)
        flat = ((idx[:, 0] * dims[1] + idx[:, 1]) * dims[2] + idx[:, 2])[keep]
        if len(flat):
            lab_ids, lab_inv = np.unique(cloud.labels[keep], return_inverse=True)
            num_labels = len(lab_ids)
            keys, counts = np.unique(flat * num_labels + lab_inv, return_counts=True)
            vox = keys // num_labels
            starts = np.flatnonzero(np.r_[True, vox[1:] != vox[:-1]])
            run_top = np.maximum.reduceat(counts, starts)
            top = counts == np.repeat(run_top, np.diff(starts, append=len(keys)))
            win = np.minimum.reduceat(np.where(top, np.arange(len(keys)), len(keys)), starts)
            labels.reshape(-1)[vox[starts]] = lab_ids[keys[win] % num_labels]
    grid = PanopticVoxelGrid(spec, labels)
    grid.validate(schema)
    return grid


def reference_remove_points_in_boxes(cloud, boxes):
    if len(cloud) == 0 or not boxes:
        return cloud
    inside = np.zeros(len(cloud), dtype=bool)
    for box in boxes:
        inside |= box.contains(cloud.points)
    return LabeledPointCloud(cloud.points[~inside], cloud.labels[~inside])


def reference_resample_occupancy(grid, shift, schema):
    spec = grid.spec
    xs, ys, zs = np.meshgrid(
        np.arange(spec.dims[0]), np.arange(spec.dims[1]), np.arange(spec.dims[2]),
        indexing="ij",
    )
    centers = spec.index_to_center(np.stack([xs, ys, zs], axis=-1).reshape(-1, 3))
    src = reference_world_to_index(spec, shift.transform.inverse().apply(centers))
    ok = reference_index_in_bounds(spec, src)
    out = np.full(spec.num_voxels, schema.free_class, dtype=grid.labels.dtype)
    src_ok = src[ok]
    out[ok] = grid.labels[src_ok[:, 0], src_ok[:, 1], src_ok[:, 2]]
    return SemanticOccupancyGrid(spec, out.reshape(spec.dims))


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def reference_nearest(points, query, k):
    """_nearest before its tree was built over an xy-cell-ordered copy of the
    points: the same candidate rule on a tree over the points as given."""
    n = len(points)
    tree = cKDTree(points, leafsize=64, balanced_tree=False, compact_nodes=False)
    idx = np.empty((len(query), k), dtype=np.intp)
    sq = np.empty((len(query), k))
    rows, m = np.argsort(query[:, 0], kind="stable"), min(k + 3, n)
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


def degenerate_clouds(rng, kind, n):
    """(points, queries) whose xy extent is degenerate: one xy cell (a single
    xy, integer z), zero x or zero y extent, or a bulk of normal points with
    outliers at +-1e300 in x or y (squared distances to them overflow)."""
    if kind == "one_cell":
        pts = np.column_stack([np.full((n, 2), [0.3, -1.2]), rng.integers(-3, 4, size=n)])
        query = np.column_stack([rng.normal(0.3, 0.5, size=(40, 2)),
                                 rng.integers(-4, 5, size=40)])
    elif kind in ("zero_x", "zero_y"):
        pts = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
        pts[:, kind == "zero_y"] = 0.5
        query = rng.normal(0.0, 2.0, size=(40, 3))
    else:
        pts = rng.normal(size=(n, 3))
        far = rng.choice(n, size=max(1, n // 20), replace=False)
        axis = rng.integers(0, 2, size=len(far))
        pts[far, axis] = rng.choice([-1e300, 1e300], size=len(far))
        query = rng.normal(size=(40, 3))
    return np.ascontiguousarray(pts, dtype=np.float64), query


DEGENERATE = ["one_cell", "zero_x", "zero_y", "huge"]


class TestKnnOracle:
    def check(self, labeled, query, k):
        assert_bitwise(knn_propagate(labeled, query, k), knn_oracle(labeled, query, k))

    def test_lattice_ties_and_duplicates(self):
        # integer lattice points and queries: many exactly equal distances,
        # so ties fall at the k-th neighbour and inside the vote
        rng = np.random.default_rng(30)
        for trial in range(60):
            n = int(rng.integers(1, 80))
            pts = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
            pool = rng.choice([1001, 1002, 2001, 11000, 15000, 17000],
                              size=int(rng.integers(1, 7)), replace=False)
            labeled = LabeledPointCloud(pts, rng.choice(pool, size=n))
            query = rng.integers(-3, 4, size=(int(rng.integers(1, 50)), 3))
            for k in range(2, 9):
                self.check(labeled, query.astype(np.float64), k)

    def test_duplicate_points_with_different_labels(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(10, 3))
        pts = np.repeat(base, 4, axis=0)
        labels = rng.choice([4001, 4002, 4003], size=len(pts))
        labeled = LabeledPointCloud(pts, labels)
        query = np.concatenate([base, rng.normal(size=(30, 3))])
        for k in range(2, 9):
            self.check(labeled, query, k)

    def test_k_above_distinct_labels_and_points(self):
        rng = np.random.default_rng(32)
        labeled = LabeledPointCloud(rng.normal(size=(12, 3)),
                                    rng.choice([1001, 11000], size=12))
        query = rng.normal(size=(25, 3))
        for k in (3, 5, 8, 12, 40):
            self.check(labeled, query, k)

    def test_continuous_points(self):
        rng = np.random.default_rng(33)
        labeled = LabeledPointCloud(rng.normal(size=(400, 3)),
                                    rng.integers(1000, 1012, size=400))
        for k in range(1, 9):
            self.check(labeled, rng.normal(size=(300, 3)), k)

    def test_single_and_zero_query_rows(self):
        labeled = LabeledPointCloud(np.eye(3), np.array([1001, 1001, 2001]))
        for k in (1, 2, 3):
            self.check(labeled, np.zeros(3), k)
            self.check(labeled, np.zeros((0, 3)), k)

    @pytest.mark.parametrize("build", [
        {}, {"leafsize": 1}, {"balanced_tree": False},
        {"leafsize": 64, "balanced_tree": False, "compact_nodes": False}],
        ids=["default", "leaf1", "unbalanced", "unbalanced-loose-leaf64"])
    def test_tree_build_does_not_change_labels(self, monkeypatch, build):
        # lattice points, each repeated with other labels: ties at every distance
        rng = np.random.default_rng(37)
        base = rng.integers(-3, 4, size=(150, 3)).astype(np.float64)
        pts = np.concatenate([base, base[rng.permutation(150)], base[:60]])
        labeled = LabeledPointCloud(pts, rng.choice([1001, 2001, 4001, 11000],
                                                    size=len(pts)))
        query = rng.integers(-4, 5, size=(400, 3)).astype(np.float64)
        monkeypatch.setattr(pipeline, "cKDTree", lambda p, **_: cKDTree(p, **build))
        for k in (1, 2, 5, 8):
            self.check(labeled, query, k)

    def test_more_ties_than_candidates_are_queried_again(self, monkeypatch):
        # 26 points at distance 1 from the origin query, 2 farther ones; k = 3
        unit = np.concatenate([np.eye(3), -np.eye(3)])
        pts = np.concatenate([np.tile(unit, (4, 1)), unit[:2], [[3.0, 0, 0], [0, 0, 2]]])
        labeled = LabeledPointCloud(pts, np.arange(len(pts)) % 5 + 1001)
        counts = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kw):
                counts.append(k)
                return super().query(x, k=k, **kw)

        monkeypatch.setattr(pipeline, "cKDTree", lambda p, **kw: CountingTree(p, **kw))
        self.check(labeled, np.array([[0.0, 0, 0], [2.9, 0, 0]]), 3)
        assert counts == [6, 12, 24, 28]

    def test_permuting_the_queries_permutes_the_output(self):
        # the queries run in x order; each row's answer must not depend on it
        rng = np.random.default_rng(40)
        base = rng.integers(-3, 4, size=(120, 3)).astype(np.float64)
        pts = np.concatenate([base, base[rng.permutation(120)]])
        labeled = LabeledPointCloud(pts, rng.choice([1001, 2001, 4001], size=len(pts)))
        query = np.concatenate([rng.integers(-4, 5, size=(300, 3)).astype(np.float64),
                                rng.normal(0.0, 2.0, size=(300, 3))])
        query[:40, 0] = 0.0                      # equal x coordinates
        for k in (1, 3, 6):
            want = knn_propagate(labeled, query, k)
            for trial in range(3):
                perm = rng.permutation(len(query))
                assert_bitwise(knn_propagate(labeled, query[perm], k), want[perm])
            assert_bitwise(want, knn_oracle(labeled, query, k))

    def test_k1_on_duplicates_takes_the_smallest_index(self):
        pts = np.repeat([[0.5, -1.0, 2.0], [1.5, -1.0, 2.0]], 40, axis=0)
        labels = np.concatenate([[11000], np.arange(39) + 1001, [15000] * 40])
        labeled = LabeledPointCloud(pts, labels)
        got = knn_propagate(labeled, np.array([[0.5, -1.0, 2.0], [0.4, -1.0, 2.0],
                                               [1.5, -1.0, 2.0]]), k=1)
        assert_bitwise(got, np.array([11000, 11000, 15000]))

    # the brute force squares the distances to +-1e300 outliers too
    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
    @pytest.mark.parametrize("kind", DEGENERATE)
    def test_degenerate_xy_extents(self, kind):
        rng = np.random.default_rng(42)
        for trial in range(6):
            n = int(rng.integers(60, 200))
            pts, query = degenerate_clouds(rng, kind, n)
            labeled = LabeledPointCloud(pts, rng.choice([1001, 2001, 4001, 11000], size=n))
            for k in (1, 3, 8):
                self.check(labeled, query, k)


class TestNearestOracle:
    """_nearest against reference_nearest, bit for bit in (idx, sq)."""

    def check(self, points, query, k):
        got, want = pipeline._nearest(points, query, k), reference_nearest(points, query, k)
        assert_bitwise(got[0], want[0])
        assert_bitwise(got[1], want[1])

    @pytest.mark.parametrize("kind", ["continuous", "lattice", "duplicates", "few",
                                      *DEGENERATE])
    def test_seeded_clouds(self, kind):
        # 25 clouds per kind, 200 in all
        rng = np.random.default_rng(["continuous", "lattice", "duplicates", "few",
                                     *DEGENERATE].index(kind) + 50)
        for trial in range(25):
            n = int(rng.integers(30, 300))
            if kind == "continuous":
                pts, query = rng.normal(size=(n, 3)), rng.normal(size=(60, 3))
            elif kind == "lattice":            # exact ties at the k-th distance
                pts = rng.integers(-3, 4, size=(n, 3)).astype(np.float64)
                query = rng.integers(-4, 5, size=(60, 3)).astype(np.float64)
            elif kind == "duplicates":         # copies spread over the whole cloud
                base = rng.normal(size=(int(rng.integers(3, 20)), 3))
                pts = base[rng.integers(0, len(base), size=n)]
                query = np.concatenate([base, rng.normal(size=(40, 3))])
            elif kind == "few":                # n <= k + 3
                n = int(rng.integers(1, 12))
                pts = rng.integers(-1, 2, size=(n, 3)).astype(np.float64)
                query = rng.integers(-2, 3, size=(20, 3)).astype(np.float64)
            else:
                pts, query = degenerate_clouds(rng, kind, n)
            low = max(1, n - 3) if kind == "few" else 1
            for k in sorted({low, int(rng.integers(low, min(n, 9) + 1)), min(n, 8)}):
                self.check(pts, query, k)


class TestVoxelizeOracle:
    def check(self, cloud, spec):
        """Bit-equal to the loop vote and to the compacted-label vote."""
        got = voxelize_majority(cloud, spec, SCHEMA).labels
        assert_bitwise(got, reference_voxelize_majority(cloud, spec, SCHEMA).labels)
        assert_bitwise(got, reference_voxelize_compacted(cloud, spec, SCHEMA).labels)
        return got

    def test_many_tied_votes(self):
        # a few voxels, each holding several labels with equal counts
        rng = np.random.default_rng(34)
        for trial in range(40):
            cells = rng.integers(0, SPEC.dims, size=(int(rng.integers(1, 12)), 3))
            pts, labs = [], []
            for cell in cells:
                center = SPEC.index_to_center(cell)
                count = int(rng.integers(1, 4))
                for lab in rng.choice([1001, 1002, 4001, 11000, 15000],
                                      size=int(rng.integers(1, 5)), replace=False):
                    jitter = rng.uniform(-0.19, 0.19, size=(count, 3))
                    pts.append(center + jitter)
                    labs.append(np.full(count, lab))
            cloud = LabeledPointCloud(np.concatenate(pts), np.concatenate(labs))
            self.check(cloud, SPEC)

    def test_random_clouds_with_outside_points(self):
        rng = np.random.default_rng(35)
        for trial in range(20):
            n = int(rng.integers(0, 3000))
            cloud = LabeledPointCloud(rng.uniform(-2.5, 2.5, size=(n, 3)),
                                      rng.choice([1001, 2001, 2002, 11000], size=n))
            self.check(cloud, SPEC)

    def test_many_labels_with_wide_ties(self):
        # hundreds of distinct thing labels, so the packed key's label stride is
        # large; 3-6 labels tie at equal counts in some voxels, others score lower
        rng = np.random.default_rng(36)
        pool = np.array([panoptic_encode(c, i, SCHEMA)
                         for c in (1, 2, 4, 7, 10) for i in range(0, 1000, 7)])
        num_cells = int(np.prod(SPEC.dims))
        for trial in range(20):
            cells = rng.permutation(num_cells)
            tied = cells[:int(rng.integers(4, 24))]
            single = cells[len(tied):len(tied) + int(rng.integers(100, 200))]
            pts, labs, expect = [], [], {}
            for cell in tied:
                center = SPEC.index_to_center(np.unravel_index(cell, SPEC.dims))
                count = int(rng.integers(1, 4))
                winners = rng.choice(pool, size=int(rng.integers(3, 7)), replace=False)
                votes = [(lab, count) for lab in winners]
                if count > 1:
                    losers = np.setdiff1d(pool, winners)
                    votes.append((rng.choice(losers), count - 1))
                for lab, n in votes:
                    pts.append(center + rng.uniform(-0.19, 0.19, size=(n, 3)))
                    labs.append(np.full(n, lab))
                expect[cell] = winners.min()
            centers = SPEC.index_to_center(np.stack(np.unravel_index(single, SPEC.dims), 1))
            pts.append(centers)
            labs.append(rng.choice(pool, size=len(single)))
            outside = rng.uniform(-3.0, 3.0, size=(500, 3))
            outside = outside[~reference_index_in_bounds(
                SPEC, reference_world_to_index(SPEC, outside))]
            pts.append(outside)
            labs.append(rng.choice(pool, size=len(outside)))
            pts, labs = np.concatenate(pts), np.concatenate(labs)
            perm = rng.permutation(len(pts))
            cloud = LabeledPointCloud(pts[perm], labs[perm])
            grid = self.check(cloud, SPEC)
            for cell, lab in expect.items():
                assert grid.reshape(-1)[cell] == lab

    def test_peak_memory_independent_of_label_count(self):
        # 4000 points, each alone in a voxel with its own label: a dense
        # (voxels x labels) int64 vote table would take 4000 * 4000 * 8 B
        spec = GridSpec(dims=(32, 32, 8), origin=(0.0, 0.0, 0.0), voxel_size=0.5)
        rng = np.random.default_rng(37)
        cells = rng.choice(int(np.prod(spec.dims)), size=4000, replace=False)
        pts = spec.index_to_center(np.stack(np.unravel_index(cells, spec.dims), 1))
        labs = rng.permutation([panoptic_encode(c, i, SCHEMA)
                                for c in (1, 2, 3, 4) for i in range(1000)])
        cloud = LabeledPointCloud(pts, labs)
        tracemalloc.start()
        try:
            grid = voxelize_majority(cloud, spec, SCHEMA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert_bitwise(grid.labels, self.check(cloud, spec))

    def test_labels_at_both_ends_of_the_panoptic_range(self):
        # 1000 and 17999 pack to the first and last label slot of a voxel's
        # keys; 17999 (free code, instance 999) may vote but never win
        rng = np.random.default_rng(39)
        spec = GridSpec((2, 2, 1), (-0.8, -0.8, -0.4), 0.8)
        for trial in range(20):
            n = int(rng.integers(1, 400))
            cloud = LabeledPointCloud(rng.uniform(-1.7, 1.7, size=(n, 3)),
                                      rng.choice([1000, 1999, 10999, 17000], size=n))
            self.check(cloud, spec)
        cloud = LabeledPointCloud(np.zeros((3, 3)), np.array([17999, 1000, 1000]))
        assert self.check(cloud, spec)[1, 1, 0] == 1000

    @pytest.mark.parametrize("bad", [0, 999, 18000, -1001])
    def test_a_label_outside_the_panoptic_range_is_rejected_even_when_it_loses(self, bad):
        # every point label is checked, whether it votes and wins, loses or lies outside
        # the voxel's vote goes 3 to 1 for 4001, so the old output-only check passed it
        pts = np.array([[0.1, 0.1, 0.1]] * 4)
        cloud = LabeledPointCloud(pts, np.array([4001, 4001, bad, 4001]))
        assert reference_voxelize_compacted(cloud, SPEC, SCHEMA).labels[4, 4, 2] == 4001
        with pytest.raises(ValueError, match="outside"):
            voxelize_majority(cloud, SPEC, SCHEMA)
        outside = LabeledPointCloud(np.array([[0.1, 0.1, 0.1], [9.0, 0.0, 0.0]]),
                                    np.array([4001, bad]))     # a point outside the grid
        with pytest.raises(ValueError, match="outside"):
            voxelize_majority(outside, SPEC, SCHEMA)


class TestRemoveOracle:
    def boundary_points(self, box, rng):
        """Points on the faces, edges and corners of a box, plus jittered ones."""
        half = np.asarray(box.size) / 2.0
        signs = rng.choice([-1.0, 0.0, 1.0], size=(300, 3))
        local = signs * half
        free = rng.random((300, 3)) < 0.3
        local[free] = rng.uniform(-1.0, 1.0, size=free.sum()) * np.broadcast_to(
            half, (300, 3))[free]
        world = box.pose().apply(local)
        return np.concatenate([world, world + rng.normal(0, 1e-12, size=world.shape)])

    def check(self, cloud, boxes):
        got = remove_points_in_boxes(cloud, boxes)
        want = reference_remove_points_in_boxes(cloud, boxes)
        assert_bitwise(got.points, want.points)
        assert_bitwise(got.labels, want.labels)

    def test_faces_and_corners_of_yawed_boxes(self):
        rng = np.random.default_rng(36)
        for trial in range(40):
            boxes = [OrientedBox(center=tuple(rng.normal(0, 3, size=3)),
                                 size=tuple(rng.uniform(0.2, 4.0, size=3)),
                                 yaw=float(rng.choice([0.0, np.pi / 2, np.pi,
                                                       rng.uniform(-np.pi, np.pi)])))
                     for _ in range(int(rng.integers(1, 4)))]
            pts = np.concatenate([self.boundary_points(b, rng) for b in boxes]
                                 + [rng.uniform(-8, 8, size=(200, 3))])
            cloud = LabeledPointCloud(pts, rng.integers(1001, 1100, size=len(pts)))
            self.check(cloud, boxes)

    def test_exact_faces_and_far_centres(self):
        # dyadic sizes and centres: faces land exactly on the points
        g = np.arange(-3.0, 3.25, 0.25)
        lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
        for offset in (0.0, 1e6, -3e7):
            pts = lattice + np.array([offset, -offset, 0.0])
            cloud = LabeledPointCloud(pts, np.arange(len(pts)) + 1000)
            boxes = [OrientedBox((offset + 0.5, -offset - 1.0, 0.0), (2.0, 1.0, 1.5), 0.0),
                     OrientedBox((offset, -offset, 0.5), (1.0, 3.0, 1.0), np.pi / 2),
                     OrientedBox((offset - 1.0, -offset + 1.0, -1.0), (1.5, 1.5, 0.5),
                                 np.pi / 4)]
            self.check(cloud, boxes)

    def test_corners_on_an_axis_at_far_centres(self):
        # a corner on the x or y axis through the centre reaches the square's side,
        # and points within a few ulps of it test the margin against the rounding
        for offset in (1e5, 1e6, -3e7):
            steps = np.arange(-6, 7) * np.spacing(offset)
            around = np.stack(np.meshgrid(steps, steps, [0.0]), -1).reshape(-1, 3)
            for (w, l), turn in itertools.product([(1.5, 1.5), (2.0, 1.0), (0.5, 3.0)],
                                                  range(4)):
                box = OrientedBox((offset + 0.3, -offset, 0.0), (w, l, 1.0),
                                  float(np.arctan2(l, w) + turn * np.pi / 2))
                signs = np.array([[-1, -1, 0], [-1, 1, 0], [1, -1, 0], [1, 1, 0]])
                corners = box.pose().apply(signs * np.array([w / 2, l / 2, 0.0]))
                pts = (corners[:, None] + around).reshape(-1, 3)
                self.check(LabeledPointCloud(pts, np.full(len(pts), 1001)), [box])

    def test_corner_one_cell_past_the_unwidened_square(self):
        # the table's square is widened by r / 2**20: points just inside a corner on
        # the x axis through the centre, in the cell after the one holding cx + r
        # less that widening, must still reach the exact test
        for w, l in ((1.5, 1.5), (2.0, 1.0), (0.5, 3.0)):
            r = np.hypot(w, l) / 2.0
            box = OrientedBox((10.0 - r + 1e-7, 100.0, 0.0), (w, l, 1.0),
                              float(-np.arctan2(l, w)))
            corner = box.pose().apply(np.array([w / 2, l / 2, 0.0]))
            inward = corner + np.array([[1e-9], [1e-8], [5e-8]]) * (box.center - corner) / r
            anchors = np.array([[0.0, 0.0, 0.0], [256.0, 200.0, 0.0]])  # cells of width 1 in x
            cloud = LabeledPointCloud(np.concatenate([anchors, inward]), np.full(5, 1001))
            assert np.all(cloud.points[2:, 0] > 10.0)
            self.check(cloud, [box])
            assert len(remove_points_in_boxes(cloud, [box])) == 2

    def test_corner_of_a_box_wider_than_its_centre_is_far(self):
        # the margin grows with r, so it stays positive where r > 1 + |cx| + |cy|
        for w, l in ((20.0, 20.0), (30.0, 8.0)):
            r = np.hypot(w, l) / 2.0
            box = OrientedBox((0.5, -0.25, 0.0), (w, l, 1.0), float(-np.arctan2(l, w)))
            corner = box.pose().apply(np.array([w / 2, l / 2, 0.0]))
            inward = corner + np.array([[1e-12], [1e-10], [1e-9]]) * (box.center - corner) / r
            outside = np.array([[0.5, -40.0, 0.0]])
            cloud = LabeledPointCloud(np.concatenate([inward, outside]), np.full(4, 1001))
            self.check(cloud, [box])
            assert len(remove_points_in_boxes(cloud, [box])) == 1

    def test_boxes_away_from_every_point(self):
        rng = np.random.default_rng(37)
        cloud = LabeledPointCloud(rng.uniform(-1, 1, size=(500, 3)),
                                  rng.integers(1001, 1010, size=500))
        boxes = [OrientedBox((50.0, 0.0, 0.0), (3.0, 3.0, 3.0), 0.3),
                 OrientedBox((0.0, 0.0, 40.0), (1.0, 1.0, 1.0), 0.0)]
        self.check(cloud, boxes)
        assert len(remove_points_in_boxes(cloud, boxes)) == 500

    def boxes_over(self, pts, rng, count):
        """Boxes centred on cloud points, so each one removes something."""
        picks = pts[rng.choice(len(pts), size=count, replace=False)]
        return [OrientedBox(tuple(p), tuple(rng.uniform(0.3, 2.0, size=3)),
                            float(rng.uniform(-np.pi, np.pi))) for p in picks]

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("extent", [0.0, 1e-13])
    def test_flat_extent_along_one_axis(self, axis, extent):
        rng = np.random.default_rng(45)
        pts = rng.uniform(-3, 3, size=(2000, 3))
        pts[:, axis] = 0.7 + rng.uniform(0, extent, size=len(pts))
        cloud = LabeledPointCloud(pts, rng.integers(1001, 1100, size=len(pts)))
        boxes = self.boxes_over(pts, rng, 4)
        # a box whose side passes through the flat cloud: its rounding margin decides
        centre = [0.0, 0.0, 0.0]
        centre[axis] = 0.7 + 0.5
        boxes.append(OrientedBox(tuple(centre), (1.0, 1.0, 2.0), 0.0))
        self.check(cloud, boxes)
        assert len(remove_points_in_boxes(cloud, boxes)) < len(pts)

    def test_points_spread_over_a_billion_metres(self):
        rng = np.random.default_rng(46)
        far = rng.uniform(-5e8, 5e8, size=(12, 3))
        near = np.concatenate([p + rng.uniform(-1, 1, size=(50, 3)) for p in far[:4]])
        pts = np.concatenate([far, near])
        cloud = LabeledPointCloud(pts, rng.integers(1001, 1100, size=len(pts)))
        boxes = [OrientedBox(tuple(p), (1.5, 2.5, 2.0), float(yaw))
                 for p, yaw in zip(far[:4], rng.uniform(-np.pi, np.pi, size=4))]
        self.check(cloud, boxes)
        assert len(remove_points_in_boxes(cloud, boxes)) < len(pts) - 4

    @pytest.mark.parametrize("offset", [(0.0, 0.0), (-40.0, -30.0), (25.0, -60.0)])
    def test_boxes_across_and_outside_the_cloud_bounds(self, offset):
        rng = np.random.default_rng(47)
        pts = rng.uniform(-2, 2, size=(3000, 3)) + np.array([*offset, 0.0])
        cloud = LabeledPointCloud(pts, rng.integers(1001, 1100, size=len(pts)))
        lo, hi = pts[:, :2].min(axis=0), pts[:, :2].max(axis=0)
        ox, oy = offset
        straddling = [OrientedBox((hi[0], oy, 0.0), (1.0, 2.0, 4.0), 0.3),
                      OrientedBox((lo[0], hi[1], 0.0), (1.5, 1.5, 4.0), -0.8),
                      OrientedBox((ox, lo[1], 0.0), (0.5, 1.0, 4.0), 0.0),
                      OrientedBox((ox, oy, 0.0), (9.0, 9.0, 1.0), 0.1)]
        outside = [OrientedBox((hi[0] + 3.0, oy, 0.0), (1.0, 1.0, 1.0), 0.0),
                   OrientedBox((lo[0] - 2.0, lo[1] - 2.0, 0.0), (2.0, 2.0, 2.0), 0.7),
                   OrientedBox((ox, 1e6, 0.0), (3.0, 3.0, 3.0), 0.2)]
        for boxes in (straddling, outside, straddling + outside):
            self.check(cloud, boxes)
        assert len(remove_points_in_boxes(cloud, outside)) == len(pts)

    def test_peak_memory_per_point(self):
        rng = np.random.default_rng(48)
        n = 200_000
        pts = rng.uniform([-50.0, -50.0, -2.0], [50.0, 50.0, 3.0], size=(n, 3))
        cloud = LabeledPointCloud(pts, rng.integers(1001, 1100, size=n))
        boxes = [OrientedBox((float(x), float(y), 0.0), (2.0, 4.5, 1.6), float(yaw))
                 for x, y, yaw in rng.uniform(-40, 40, size=(8, 3))]
        tracemalloc.start()
        try:
            out = remove_points_in_boxes(cloud, boxes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) < n
        assert peak <= 40 * n


def rotation(roll, pitch, yaw):
    cr, sr, cp, sp = np.cos(roll), np.sin(roll), np.cos(pitch), np.sin(pitch)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return rx @ ry @ Se3Pose.from_yaw(yaw).rotation


class TestResampleOracle:
    def check(self, grid, shift):
        got = resample_occupancy(grid, shift, SCHEMA).labels
        assert_bitwise(got, reference_resample_occupancy(grid, shift, SCHEMA).labels)
        return got

    @pytest.mark.parametrize("slab_voxels", [1, 7, 64, pipeline._SLAB_VOXELS])
    def test_random_yaw_and_translation(self, monkeypatch, slab_voxels):
        monkeypatch.setattr(pipeline, "_SLAB_VOXELS", slab_voxels)
        rng = np.random.default_rng(38)
        for trial in range(25):
            dims = tuple(int(d) for d in rng.choice([1, 2, 5, 9, 16], size=3))
            spec = GridSpec(dims, tuple(rng.uniform(-4, 0, size=3)),
                            float(rng.choice([0.2, 0.4, 0.5, 1.0])))
            grid = SemanticOccupancyGrid(
                spec, rng.integers(0, SCHEMA.num_classes, size=dims).astype(np.uint8))
            shift = EgoShift(Se3Pose.from_yaw(rng.uniform(-np.pi, np.pi),
                                              rng.normal(0, 2, size=3)))
            self.check(grid, shift)

    def test_centres_on_voxel_boundaries(self):
        # half-voxel shifts of a dyadic grid put every pulled-back centre on
        # a boundary plane, where floor decides the voxel
        rng = np.random.default_rng(39)
        spec = GridSpec((12, 10, 6), (-3.0, -2.5, -1.5), 0.5)
        grid = SemanticOccupancyGrid(
            spec, rng.integers(0, SCHEMA.num_classes, size=spec.dims).astype(np.uint8))
        for t in [(0.25, 0.0, 0.0), (0.25, -0.75, 0.25), (-1.25, 0.25, 0.0)]:
            for yaw in (0.0, np.pi / 2, np.pi, rng.uniform(-np.pi, np.pi)):
                self.check(grid, EgoShift(Se3Pose.from_yaw(yaw, t)))

    def test_one_voxel_axes(self):
        rng = np.random.default_rng(40)
        for dims in [(1, 7, 3), (6, 1, 4), (5, 3, 1), (1, 1, 1), (40, 1, 1)]:
            spec = GridSpec(dims, (-1.0, -1.0, -0.5), 0.5)
            grid = SemanticOccupancyGrid(
                spec, rng.integers(0, SCHEMA.num_classes, size=dims).astype(np.int64))
            for _ in range(5):
                self.check(grid, EgoShift(Se3Pose.from_yaw(
                    rng.uniform(-np.pi, np.pi), rng.choice([-0.5, 0.0, 0.25, 1.0], size=3))))

    def test_roll_and_pitch(self):
        rng = np.random.default_rng(41)
        spec = GridSpec((13, 11, 9), (-2.6, -2.2, -1.8), 0.4)
        grid = SemanticOccupancyGrid(
            spec, rng.integers(0, SCHEMA.num_classes, size=spec.dims).astype(np.uint8))
        for _ in range(10):
            pose = Se3Pose(rotation(*rng.uniform(-np.pi, np.pi, size=3)),
                           rng.normal(0, 1, size=3))
            self.check(grid, EgoShift(pose))

    def test_uint16_labels_keep_their_dtype(self):
        rng = np.random.default_rng(42)
        spec = GridSpec((9, 7, 5), (-1.8, -1.4, -1.0), 0.4)
        grid = SemanticOccupancyGrid(
            spec, rng.integers(0, 60000, size=spec.dims).astype(np.uint16))
        shift = EgoShift(Se3Pose(rotation(0.3, -0.2, 1.1), (0.5, -0.3, 0.2)))
        assert self.check(grid, shift).dtype == np.uint16
        # a Fortran-ordered and a strided input read the same voxels
        self.check(SemanticOccupancyGrid(spec, np.asfortranarray(grid.labels)), shift)
        wide = np.zeros((9, 14, 5), dtype=np.uint16)
        wide[:, ::2] = grid.labels
        self.check(SemanticOccupancyGrid(spec, wide[:, ::2]), shift)

    def test_shift_beyond_the_grid_reads_free(self):
        rng = np.random.default_rng(43)
        spec = GridSpec((6, 5, 4), (-1.2, -1.0, -0.8), 0.4)
        grid = SemanticOccupancyGrid(spec, rng.integers(0, 5, size=spec.dims))
        for t in [(3.0, 0.0, 0.0), (0.0, -50.0, 0.0), (0.0, 0.0, 2.0), (1e9, -1e9, 1e9)]:
            got = self.check(grid, EgoShift(Se3Pose.from_yaw(0.4, t)))
            assert np.all(got == SCHEMA.free_class)

    def test_partial_last_slab(self):
        # 37 planes of 600 voxels: slabs of 27 planes, then a slab of 10
        rng = np.random.default_rng(44)
        spec = GridSpec((37, 30, 20), (-7.4, -6.0, -4.0), 0.4)
        assert spec.dims[0] % (pipeline._SLAB_VOXELS // 600) == 10
        grid = SemanticOccupancyGrid(
            spec, rng.integers(0, SCHEMA.num_classes, size=spec.dims).astype(np.uint8))
        self.check(grid, EgoShift(Se3Pose(rotation(0.05, 0.1, -0.7), (1.3, 0.2, -0.1))))


class TestIndexInBoundsOracle:
    def corners(self, spec):
        """Every (i, j, k) with each coordinate in {-1, 0, n - 1, n}."""
        axes = [np.array([-1, 0, n - 1, n]) for n in spec.dims]
        return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)

    # the int64 cast of a coordinate far outside the grid is invalid and unused
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    @pytest.mark.parametrize("dims", [(8, 8, 4), (1, 5, 3), (2, 1, 1)])
    def test_boundaries_in_every_shape(self, dims):
        # voxelize_majority tests each float index against its axis; the oracle
        # casts first and tests the integers. Points on each voxel's low face,
        # just below it and at its centre, and far outside the grid.
        spec = GridSpec(dims, (0.0, 0.0, 0.0), 0.5)
        idx = self.corners(spec)
        assert reference_index_in_bounds(spec, idx).sum() == 8  # 0 and n - 1 per axis
        face = idx * 0.5
        far = np.array([[1e30, 0.1, 0.1], [0.1, -1e30, 0.1], [0.1, 0.1, 1e300],
                        [-1e300, 0.1, 0.1], [2.0**63, 0.1, 0.1]])
        pts = np.concatenate([face, np.nextafter(face, -np.inf), face + 0.25, far])
        labels = 1001 + np.arange(len(pts)) % 7
        for order in (np.arange(len(pts)), np.random.default_rng(41).permutation(len(pts))):
            cloud = LabeledPointCloud(pts[order], labels[order])
            got = voxelize_majority(cloud, spec, SCHEMA).labels
            assert_bitwise(got, reference_voxelize_majority(cloud, spec, SCHEMA).labels)
