import tracemalloc

import numpy as np
import pytest

from occkit.core import (
    INSTANCE_BASE,
    PANOPTIC_CLASS_MAX,
    PANOPTIC_LABEL_MAX,
    PANOPTIC_LABEL_MIN,
    BevLayout,
    GridSpec,
    LabelSchema,
    OrientedBox,
    OverwriteRule,
    PanopticVoxelGrid,
    Se3Pose,
    SemanticOccupancyGrid,
    bev_topdown_project,
    layout_overwrite,
    layout_rasterize,
    panoptic_decode,
    panoptic_encode,
    points_in_polygon,
)
from occkit.pipeline import fit_asset_to_box

SCHEMA = LabelSchema()


class TestPanopticCodec:
    def test_encode_examples(self):
        assert panoptic_encode(4, 7) == 4007
        assert panoptic_encode(17, 0) == 17000
        assert panoptic_encode(11, 0) == 11000

    def test_decode_examples(self):
        assert panoptic_decode(4007) == (4, 7)
        assert panoptic_decode(17000) == (17, 0)
        assert panoptic_decode(1999) == (1, 999)

    def test_errors(self):
        with pytest.raises(ValueError):
            panoptic_encode(4, 1000)
        with pytest.raises(ValueError):
            panoptic_encode(0, 0)
        for s in range(11, 18):  # stuff and free under the default schema
            with pytest.raises(ValueError):
                panoptic_encode(s, 5)
        with pytest.raises(ValueError):
            panoptic_decode(999)
        with pytest.raises(ValueError):
            panoptic_decode(18000)

    def test_rule_follows_the_schema(self):
        toy = LabelSchema.toy()
        with pytest.raises(ValueError):
            panoptic_encode(3, 5, toy)  # stuff in the toy schema
        with pytest.raises(ValueError):
            panoptic_encode(17, 1, toy)
        labels = np.array([[[panoptic_encode(1, 5, toy), panoptic_encode(3, 0, toy)]]])
        grid = PanopticVoxelGrid(GridSpec((1, 1, 2), (0.0, 0.0, 0.0), 1.0), labels)
        grid.validate(toy)

    def test_free_class_code_carries_no_instance(self):
        small = LabelSchema(num_classes=10, free_class=9)
        with pytest.raises(ValueError):
            panoptic_encode(9, 5, small)
        grid = PanopticVoxelGrid(GridSpec((1, 1, 1), (0.0, 0.0, 0.0), 1.0),
                                 np.array([[[9005]]]))
        with pytest.raises(ValueError):
            grid.validate(small)
        grid.labels[...] = 9000
        grid.validate(small)

    def test_codes_beyond_the_schema_rejected(self):
        small = LabelSchema(num_classes=10, free_class=9)
        spec = GridSpec((1, 1, 2), (0.0, 0.0, 0.0), 1.0)
        for bad in (10000, 16000):
            with pytest.raises(ValueError, match="num_classes"):
                PanopticVoxelGrid(spec, np.array([[[4007, bad]]])).validate(small)
        grid = PanopticVoxelGrid(spec, np.array([[[9000, 17000]]]))
        grid.validate(small)
        assert grid.to_semantic(small).labels.tolist() == [[[9, 9]]]
        PanopticVoxelGrid(spec, np.array([[[10000, 16000]]])).validate(SCHEMA)

    def test_array_forms_match_the_scalar_forms(self):
        codes = np.arange(1, 18)
        for schema in (SCHEMA, LabelSchema.toy(), LabelSchema(num_classes=10, free_class=9)):
            flags = schema.is_stuff_or_free(codes)
            assert flags.tolist() == [schema.is_stuff_or_free(int(c)) for c in codes]
        labels = np.array([[1999, 4007], [11000, 17000]])
        s, i = panoptic_decode(labels)
        assert s.tolist() == [[1, 4], [11, 17]] and i.tolist() == [[999, 7], [0, 0]]
        assert [panoptic_decode(int(v)) for v in labels.ravel()] == list(
            zip(s.ravel().tolist(), i.ravel().tolist()))
        for bad in (999, 18000):
            with pytest.raises(ValueError):
                panoptic_decode(np.array([4007, bad]))

    def test_to_semantic_rejects_out_of_range_labels(self):
        spec = GridSpec((1, 1, 2), (0.0, 0.0, 0.0), 1.0)
        for bad in (999, 18000):
            with pytest.raises(ValueError):
                PanopticVoxelGrid(spec, np.array([[[4007, bad]]])).to_semantic(SCHEMA)
        sem = PanopticVoxelGrid(spec, np.array([[[4007, 17000]]])).to_semantic(SCHEMA)
        assert sem.labels.tolist() == [[[4, SCHEMA.free_class]]]

    def test_to_semantic_is_uint8_up_to_255_classes(self):
        grid = PanopticVoxelGrid(GridSpec((1, 1, 2), (0.0, 0.0, 0.0), 1.0),
                                 np.array([[[4007, 17000]]]))
        for n, dtype in ((255, np.uint8), (256, np.uint16)):
            sem = grid.to_semantic(LabelSchema(num_classes=n, free_class=n - 1))
            assert sem.labels.dtype == dtype and sem.labels.tolist() == [[[4, n - 1]]]

    def test_exhaustive_round_trip(self):
        for s in range(1, 18):
            i_max = 999 if s <= 10 else 0
            for i in range(i_max + 1):
                assert panoptic_decode(panoptic_encode(s, i)) == (s, i)


class TestTopdownProjection:
    def spec(self):
        return GridSpec(dims=(8, 8, 4), origin=(-1.6, -1.6, -0.8), voxel_size=0.4)

    def test_all_free(self):
        grid = SemanticOccupancyGrid.full_free(self.spec(), SCHEMA)
        assert np.all(bev_topdown_project(grid, SCHEMA) == SCHEMA.free_class)

    def test_lowest_z_wins(self):
        spec = GridSpec(dims=(2, 2, 8), origin=(0, 0, 0), voxel_size=0.4)
        labels = np.full(spec.dims, SCHEMA.free_class, dtype=np.uint8)
        labels[0, 0, 0] = 4
        labels[0, 0, 5] = 15
        grid = SemanticOccupancyGrid(spec, labels)
        proj = bev_topdown_project(grid, SCHEMA)
        assert proj[0, 0] == 4
        assert proj[1, 1] == SCHEMA.free_class

    def test_matches_column_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            labels = rng.integers(0, SCHEMA.num_classes, size=(8, 8, 4))
            grid = SemanticOccupancyGrid(self.spec(), labels)
            proj = bev_topdown_project(grid, SCHEMA)
            for x in range(8):
                for y in range(8):
                    expect = SCHEMA.free_class
                    for z in range(4):
                        if labels[x, y, z] != SCHEMA.free_class:
                            expect = labels[x, y, z]
                            break
                    assert proj[x, y] == expect

    def test_permutation_above_first_hit_is_irrelevant(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, SCHEMA.num_classes, size=(8, 8, 4))
        grid = SemanticOccupancyGrid(self.spec(), labels)
        base = bev_topdown_project(grid, SCHEMA)
        shuffled = labels.copy()
        occupied = labels != SCHEMA.free_class
        for x in range(8):
            for y in range(8):
                zs = np.nonzero(occupied[x, y])[0]
                if len(zs) == 0:
                    continue
                above = np.arange(zs[0] + 1, 4)
                shuffled[x, y, above] = labels[x, y, rng.permutation(above)]
        assert np.array_equal(
            bev_topdown_project(SemanticOccupancyGrid(self.spec(), shuffled), SCHEMA),
            base,
        )


class TestLayoutRasterize:
    def rasterize(self, boxes, polygons):
        return layout_rasterize(boxes, polygons, width=16, height=16,
                                resolution=0.4, channels=15, schema=SCHEMA)

    def test_empty_inputs(self):
        layout = self.rasterize([], [])
        assert not layout.bits.any()

    def test_two_by_two_box(self):
        # class 4 maps to channel 3; 0.8 m box centered on a cell corner
        box = OrientedBox(center=(0.0, 0.0, 0.0), size=(0.8, 0.8, 1.0),
                          yaw=0.0, class_id=4)
        layout = self.rasterize([box], [])
        mask = layout.channel_mask(3)
        assert mask.sum() == 4
        assert not (layout.bits & ~np.uint16(1 << 3)).any()

    def test_yawed_box_footprint_includes_its_edges(self):
        # 8x8 cells of 0.5 m, centres at -1.75 + 0.5 i; the box sits on cell
        # (4, 4), yawed so that (cos, sin) = (0.8, 0.6). With half-side
        # cos(yaw), the cells 1 m from its centre along world x and y lie
        # exactly on its edges, in float too, and count as inside.
        yaw = np.arctan2(0.6, 0.8)
        side = 2.0 * np.cos(yaw)
        box = OrientedBox(center=(0.25, 0.25, 0.0), size=(side, side, 1.0),
                          yaw=yaw, class_id=4)
        layout = layout_rasterize([box], [], width=8, height=8, resolution=0.5,
                                  channels=15, schema=SCHEMA)
        # by hand: |4u + 3v| <= 8 and |-3u + 4v| <= 8 for offsets (u, v) in cells
        inside = [(-2, 0), (-1, -1), (-1, 0), (-1, 1), (0, -2), (0, -1), (0, 0),
                  (0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (2, 0)]
        expect = np.zeros((8, 8), dtype=bool)
        expect[tuple(np.array(inside).T + 4)] = True
        assert np.array_equal(layout.channel_mask(3), expect)

    def test_cell_centres_start_half_a_cell_from_the_origin(self):
        layout = BevLayout(4, 6, 0.5, 1)
        assert layout.origin_xy == (-1.0, -1.5)
        xs, ys = layout.cell_centers()
        assert (xs[0, 0], ys[0, 0]) == (-0.75, -1.25)
        assert (xs[3, 5], ys[3, 5]) == (0.75, 1.25)

    def test_multi_hot_overlap(self):
        box = OrientedBox(center=(0.0, 0.0, 0.0), size=(1.6, 1.6, 1.0),
                          yaw=0.0, class_id=1)  # channel 0
        poly = np.array([[-0.8, -0.8], [0.8, -0.8], [0.8, 0.8], [-0.8, 0.8]])
        layout = self.rasterize([box], [(12, poly)])
        both = layout.channel_mask(0) & layout.channel_mask(12)
        assert both.any()
        overlap_bits = layout.bits[both]
        assert np.all(overlap_bits & (1 << 0))
        assert np.all(overlap_bits & (1 << 12))

    def test_input_order_invariance(self):
        rng = np.random.default_rng(7)
        boxes = [
            OrientedBox(center=(rng.uniform(-2, 2), rng.uniform(-2, 2), 0),
                        size=(rng.uniform(0.5, 2), rng.uniform(0.5, 2), 1),
                        yaw=rng.uniform(0, np.pi), class_id=int(rng.integers(1, 11)))
            for _ in range(6)
        ]
        polys = [(int(rng.integers(10, 15)),
                  rng.uniform(-2.5, 2.5, size=(4, 2))) for _ in range(3)]
        a = self.rasterize(boxes, polys)
        b = self.rasterize(boxes[::-1], polys[::-1])
        assert np.array_equal(a.bits, b.bits)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            self.rasterize([], [(0, np.array([[0, 0], [1, 1]]))])


class TestLayoutOverwrite:
    def make(self):
        spec = GridSpec(dims=(16, 16, 4), origin=(-3.2, -3.2, 0.0), voxel_size=0.4)
        grid = SemanticOccupancyGrid(spec, np.full(spec.dims, 11, dtype=np.uint8))
        layout = BevLayout(16, 16, 0.4, 15)
        return grid, layout

    def test_zero_layout_is_identity(self):
        grid, layout = self.make()
        # a fresh layout's bits are uint16 zeros, with 0, 15 or 16 channels
        for fresh in (layout, BevLayout(1, 1, 0.4, 0), BevLayout(2, 2, 0.4, 16)):
            assert fresh.bits.dtype == np.uint16 and not fresh.bits.any()
        assert BevLayout(3, 2, 0.4, 0).bits.shape == (3, 2)
        out = layout_overwrite(grid, layout, [OverwriteRule(2, 13, "full")])
        assert np.array_equal(out.labels, grid.labels)

    def test_new_class_must_fit_the_grid_dtype(self):
        grid, layout = self.make()
        layout.bits[5, 7] = 1 << 2
        # on a uint16 grid numpy raised OverflowError; 256 would not fit a uint8 grid
        for labels, new_class in ((grid.labels, 256), (grid.labels.astype(np.uint16), 65536),
                                  (grid.labels.astype(np.int8), 128)):
            with pytest.raises(ValueError, match=f"class {new_class} does not fit"):
                layout_overwrite(SemanticOccupancyGrid(grid.spec, labels), layout,
                                 [OverwriteRule(2, new_class)])
        out = layout_overwrite(SemanticOccupancyGrid(grid.spec, grid.labels.astype(np.uint16)),
                               layout, [OverwriteRule(2, 65535)])
        assert out.labels[5, 7, :2].tolist() == [65535, 65535]
        assert layout_overwrite(grid, layout, [OverwriteRule(2, 255)]).labels[5, 7, 0] == 255

    def test_single_cell_divider(self):
        grid, layout = self.make()
        layout.bits[5, 7] = 1 << 2
        out = layout_overwrite(grid, layout, [OverwriteRule(2, 13, "full")])
        expect = grid.labels.copy()
        expect[5, 7, :2] = 13
        assert np.array_equal(out.labels, expect)

    def test_edge_mask_on_block(self):
        grid, layout = self.make()
        layout.bits[4:7, 4:7] |= np.uint16(1 << 5)
        out = layout_overwrite(grid, layout, [OverwriteRule(5, 14, "edge")])
        changed = (out.labels != grid.labels).any(axis=2)
        assert changed.sum() == 8
        assert not changed[5, 5]
        assert np.all(out.labels[4, 4, :2] == 14)

    def test_idempotent(self):
        grid, layout = self.make()
        rng = np.random.default_rng(5)
        layout.bits[:] = rng.integers(0, 2 ** 15, size=(16, 16), dtype=np.uint16)
        rules = [OverwriteRule(2, 13, "full"), OverwriteRule(5, 14, "edge")]
        once = layout_overwrite(grid, layout, rules)
        twice = layout_overwrite(once, layout, rules)
        assert np.array_equal(once.labels, twice.labels)

    def test_footprint_mismatch(self):
        grid, _ = self.make()
        bad = BevLayout(8, 8, 0.4, 15)
        with pytest.raises(ValueError):
            layout_overwrite(grid, bad, [OverwriteRule(2, 13)])

    def test_off_centre_grid_is_rejected(self):
        # the same size and resolution, but cell (i, j) would not cover column (i, j)
        _, layout = self.make()
        for origin in ((0.0, 0.0, 0.0), (-3.2, -3.0, 0.0), (-3.2 + 1e-5, -3.2, 0.0)):
            grid = SemanticOccupancyGrid(GridSpec((16, 16, 4), origin, 0.4),
                                         np.full((16, 16, 4), 11, dtype=np.uint8))
            assert not layout.matches_grid(grid.spec)
            with pytest.raises(ValueError):
                layout_overwrite(grid, layout, [OverwriteRule(2, 13)])
        # within 1e-6 of the 3.2 m half extent, as float32 header rounding is; z is free
        for origin in ((float(np.float32(-3.2)), -3.2, 7.0), (-3.2, -3.2 - 2e-6, 0.0)):
            assert layout.matches_grid(GridSpec((16, 16, 4), origin, 0.4))

    def test_grid_match_holds_at_its_tolerances(self):
        # resolution 2e-6 against voxel size 1e-6: 1e-6 apart, at the bound
        layout = BevLayout(2, 2, 2e-6, 1)
        assert layout.matches_grid(GridSpec((2, 2, 1), (*layout.origin_xy, 0.0), 1e-6))
        # half extent h = 1e6 / 2**20, and an origin exactly 1e-6 * h = 2**-20 off
        h = 1e6 / 2**20
        layout = BevLayout(2, 2, h, 1)
        for x, ok in ((2**-20 - h, True), (np.nextafter(2**-20 - h, 1.0), False)):
            assert layout.matches_grid(GridSpec((2, 2, 1), (x, -h, 0.0), h)) == ok


class TestPoseAndBox:
    def test_pose_validation(self):
        with pytest.raises(ValueError):
            Se3Pose(np.eye(3) * 1.001, np.zeros(3))
        # R R^T - I is exactly 1e-9 off the diagonal: at the bound, accepted
        r = np.array([[1.0, 0.0, 0.0], [1e-9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        Se3Pose(r, np.zeros(3))
        r[1, 0] = np.nextafter(1e-9, 1.0)
        with pytest.raises(ValueError, match="orthonormal"):
            Se3Pose(r, np.zeros(3))
        # R^T t overflows although t is finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            Se3Pose.from_yaw(np.pi / 4, (1.7e308, 1.7e308, 0.0)).inverse()
        # a mirror is orthonormal, but no rotation
        with pytest.raises(ValueError, match=r"determinant is not \+1"):
            Se3Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_compose_inverse(self):
        rng = np.random.default_rng(11)
        a = Se3Pose.from_yaw(0.7, rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        assert np.allclose(a.inverse().apply(a.apply(pts)), pts, atol=1e-12)

    def test_box_contains(self):
        box = OrientedBox(center=(1.0, 2.0, 0.5), size=(2.0, 4.0, 1.0), yaw=0.3)
        assert box.contains(np.array([1.0, 2.0, 0.5]))
        rng = np.random.default_rng(2)
        asset = rng.uniform(-1.0, 1.0, size=(500, 3))
        on_face = rng.random(asset.shape) < 0.4
        asset[on_face] = rng.choice([-1.0, 1.0], size=on_face.sum())
        faces = fit_asset_to_box(asset, box)   # on the faces, up to rounding
        for pts in (rng.uniform(-4, 6, size=(500, 3)), faces):
            got = box.contains(pts)
            dx, dy, dz = (pts - np.asarray(box.center)).T
            c, s = np.cos(box.yaw), np.sin(box.yaw)
            expect = ((np.abs(dx * c + dy * s) <= 1.0) & (np.abs(-dx * s + dy * c) <= 2.0)
                      & (np.abs(dz) <= 0.5))
            assert np.array_equal(got, expect)
            assert 0 < expect.sum() < len(pts)

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            LabelSchema(thing_classes=frozenset({1, 11}),
                        stuff_classes=frozenset({11}))

    def test_default_layout_map_follows_num_classes(self):
        assert LabelSchema().layout_channel_map == {c: c - 1 for c in range(1, 16)}
        assert LabelSchema().agent_channels() == list(range(10))
        # the free class feeds no channel
        small = LabelSchema(num_classes=10, free_class=9)
        assert small.layout_channel_map == {c: c - 1 for c in range(1, 9)}
        assert small.agent_channels() == list(range(8))
        assert LabelSchema(num_classes=3, free_class=2,
                           layout_channel_map={}).layout_channel_map == {}

    def test_default_class_sets_follow_num_classes(self):
        assert LabelSchema().thing_classes == frozenset(range(1, 11))
        assert LabelSchema().stuff_classes == frozenset(range(11, 17))
        toy = LabelSchema.toy()
        assert (toy.thing_classes, toy.stuff_classes) == ({1, 2}, {3, 4})
        # neither the free class 9 nor the non-class 10 is a thing
        small = LabelSchema(num_classes=10, free_class=9)
        assert small.thing_classes == frozenset(range(1, 9))
        assert small.stuff_classes == frozenset()
        assert LabelSchema(num_classes=14, free_class=0).stuff_classes == {11, 12, 13}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
class TestNonFiniteRejected:
    def test_grid_spec(self, bad):
        with pytest.raises(ValueError, match="voxel_size"):
            GridSpec(dims=(2, 2, 2), origin=(0.0, 0.0, 0.0), voxel_size=bad)
        with pytest.raises(ValueError, match="origin"):
            GridSpec(dims=(2, 2, 2), origin=(0.0, bad, 0.0), voxel_size=0.4)

    def test_se3_pose(self, bad):
        rotation = np.eye(3)
        rotation[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Se3Pose(rotation, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            Se3Pose(np.eye(3), np.array([0.0, bad, 0.0]))

    def test_oriented_box(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OrientedBox(center=(0.0, 0.0, 0.0), size=(1.0, bad, 1.0), yaw=0.0)

    def test_oriented_box_center_and_yaw(self, bad):
        # rejected when built: layout_rasterize would draw nothing for such a
        # box, while remove_points_in_boxes raised only at first use
        for value in (bad, -bad):
            for axis in range(3):
                center = [1.0, -2.0, 0.5]
                center[axis] = value
                with pytest.raises(ValueError, match="center and yaw"):
                    OrientedBox(tuple(center), (1.0, 1.0, 1.0), 0.3)
            with pytest.raises(ValueError, match="center and yaw"):
                OrientedBox((1.0, -2.0, 0.5), (1.0, 1.0, 1.0), value)

    def test_bev_layout(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BevLayout(4, 4, bad, 2)


def test_points_in_polygon_square():
    square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [-0.5, 0.5], [1.5, 1.9]])
    inside = points_in_polygon(pts, square)
    assert inside.tolist() == [True, False, False, True]


def test_points_in_polygon_slanted_edge():
    # right triangle whose hypotenuse runs from (4, 1) to (0, 5): x + y = 5
    tri = np.array([[0, 1], [4, 1], [0, 5]], dtype=float)
    pts = np.array([[1.0, 2.0], [2.5, 2.0], [1.0, 3.9], [3.0, 3.0], [2.0, 3.5],
                    [-1.0, 2.0], [1.0, 0.5]])
    inside = points_in_polygon(pts, tri)
    assert inside.tolist() == [True, True, True, False, False, False, False]


class TestBoundaries:
    """Value tests at the equality of each range check."""

    def test_layout_map_class_bound(self):
        top = SCHEMA.num_classes - 1
        for cls in (0, top):
            assert LabelSchema(layout_channel_map={cls: 0}).layout_channel_map == {cls: 0}
        with pytest.raises(ValueError, match="layout-mapped class"):
            LabelSchema(layout_channel_map={SCHEMA.num_classes: 0})
        with pytest.raises(ValueError, match="layout-mapped class"):
            LabelSchema(layout_channel_map={-1: 0})
        with pytest.raises(ValueError, match="negative layout channel for class 1"):
            LabelSchema(layout_channel_map={1: -1})

    def test_panoptic_decode_range_ends(self):
        assert panoptic_decode(17999) == (17, 999)
        assert panoptic_decode(1000) == (1, 0)
        s, i = panoptic_decode(np.array([1000, 17999]))
        assert s.tolist() == [1, 17] and i.tolist() == [0, 999]
        for bad in (999, 18000):
            with pytest.raises(ValueError, match="outside"):
                panoptic_decode(np.array([4007, bad]))

    def test_lookup_reaches_both_ends_of_the_panoptic_range(self):
        spec = GridSpec(dims=(2, 1, 1), origin=(0.0, 0.0, 0.0), voxel_size=1.0)
        labels = np.array([PANOPTIC_LABEL_MIN, PANOPTIC_LABEL_MAX]).reshape(spec.dims)
        grid = PanopticVoxelGrid(spec, labels)
        assert grid.to_semantic(SCHEMA).labels.reshape(-1).tolist() == [1, SCHEMA.free_class]
        with pytest.raises(ValueError, match="stuff/free voxel with nonzero instance id"):
            grid.validate(SCHEMA)

    def test_semantic_validate_on_a_filled_grid(self):
        spec = GridSpec(dims=(2, 2, 1), origin=(0.0, 0.0, 0.0), voxel_size=1.0)
        labels = np.array([0, 1, 7, SCHEMA.num_classes - 1]).reshape(spec.dims)
        SemanticOccupancyGrid(spec, labels).validate(SCHEMA)
        with pytest.raises(ValueError, match="negative"):
            SemanticOccupancyGrid(spec, labels - 1).validate(SCHEMA)
        with pytest.raises(ValueError, match="num_classes"):
            SemanticOccupancyGrid(spec, labels + 1).validate(SCHEMA)

    @pytest.mark.parametrize("grid", [SemanticOccupancyGrid, PanopticVoxelGrid])
    def test_grid_labels_must_have_the_spec_dims(self, grid):
        spec = GridSpec(dims=(4, 3, 2), origin=(0.0, 0.0, 0.0), voxel_size=1.0)
        assert grid(spec, np.zeros((4, 3, 2), dtype=np.uint16)).labels.shape == (4, 3, 2)
        for shape, text in (((1, 3, 2), "1, 3, 2"), ((2, 3, 4), "2, 3, 4"), ((24,), "24,")):
            with pytest.raises(ValueError, match=rf"labels shape \({text}\) != dims \(4, 3, 2\)"):
                grid(spec, np.zeros(shape, dtype=np.uint16))

    def test_channel_mask_range(self):
        layout = BevLayout(3, 2, 0.5, 3)
        layout.bits[0, 0] = 0b101
        assert layout.channel_mask(0)[0, 0] and layout.channel_mask(2)[0, 0]
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                layout.channel_mask(bad)

    def test_a_channel_is_an_integer_not_a_bool_or_float(self):
        # a bool would pass as channel 1, a float would reach 1 << 2.0, and
        # 1 << np.uint8(9) is 0 in uint8
        square = np.array([[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3], [-0.3, 0.3]])
        layout = layout_rasterize([], [(np.uint8(9), square)], 3, 2, 0.5, 12, SCHEMA)
        assert layout.bits.tolist() == [[0, 0], [512, 512], [0, 0]]
        assert layout.channel_mask(np.uint8(9)).tolist() == [[False] * 2, [True] * 2, [False] * 2]
        for bad in (True, 2.0, 1.0):
            with pytest.raises(ValueError, match="out of range: it must be an integer"):
                layout.channel_mask(bad)
            with pytest.raises(ValueError, match="out of range: it must be an integer"):
                layout_rasterize([], [(bad, square)], 3, 2, 0.5, 12, SCHEMA)

    def test_free_class_bound(self):
        for free in (0, 5):
            assert LabelSchema(num_classes=6, free_class=free).free_class == free
        for free in (-1, 6):
            with pytest.raises(ValueError, match="free_class"):
                LabelSchema(num_classes=6, free_class=free)

    def test_num_layout_channels_is_the_top_channel_plus_one(self):
        assert SCHEMA.num_layout_channels == 15
        assert LabelSchema.toy().num_layout_channels == 4
        assert LabelSchema(layout_channel_map={3: 7, 4: 2}).num_layout_channels == 8
        assert LabelSchema(layout_channel_map={}).num_layout_channels == 0

    def test_box_sides_must_be_positive(self):
        tiny = np.nextafter(0.0, 1.0)
        OrientedBox((0.0, 0.0, 0.0), (tiny, tiny, tiny), 0.0)
        for axis in range(3):
            size = [1.0, 1.0, 1.0]
            size[axis] = 0.0
            with pytest.raises(ValueError, match="positive"):
                OrientedBox((0.0, 0.0, 0.0), tuple(size), 0.0)

    def test_grid_spec_sizes(self):
        assert GridSpec((1, 1, 1), (0.0, 0.0, 0.0), 1e-300).num_voxels == 1
        with pytest.raises(ValueError, match="dims"):
            GridSpec((4, 0, 2), (0.0, 0.0, 0.0), 0.4)
        for bad in (0.0, -0.4):
            with pytest.raises(ValueError, match="voxel_size"):
                GridSpec((4, 4, 2), (0.0, 0.0, 0.0), bad)

    # each used to construct; full_free then raised TypeError or built a 2-D or 4-D grid
    @pytest.mark.parametrize("dims", [(4.0, 4, 4), (2.5, 4, 4), (True, 4, 4), (4, 4),
                                      (4, 4, 4, 4), (4, 4, np.float64(4))])
    def test_grid_spec_dims_must_be_three_integers(self, dims):
        with pytest.raises(ValueError, match="dims"):
            GridSpec(dims, (0.0, 0.0, 0.0), 0.4)

    def test_grid_spec_integer_dims_and_origin_of_three(self):
        spec = GridSpec((np.int64(4), np.uint16(2), 1), (0.0, 0.0, 0.0), 0.4)
        assert SemanticOccupancyGrid.full_free(spec, SCHEMA).labels.shape == (4, 2, 1)
        for origin in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 0.0):
            with pytest.raises(ValueError, match="origin"):
                GridSpec((4, 4, 4), origin, 0.4)

    @pytest.mark.parametrize("args", [(4.5, 4, 0.4, 2), (4, 0, 0.4, 2), (0, 4, 0.4, 2),
                                      (True, 4, 0.4, 2), (4, 4, 0.4, -1), (4, 4, 0.4, 17),
                                      (4, 4, 0.4, 2.0)])
    def test_layout_size_and_channels_are_checked(self, args):
        # 4.5 was truncated to 4; a zero side and channels=-1 were accepted
        with pytest.raises(ValueError, match="layout size|channels"):
            BevLayout(*args)

    def test_overwrite_rule_masks(self):
        assert [OverwriteRule(0, 4, m).mask for m in ("full", "edge")] == ["full", "edge"]
        for bad in ("ring", "Full", ""):
            with pytest.raises(ValueError, match="mask must be 'full' or 'edge'"):
                OverwriteRule(0, 4, bad)

    @pytest.mark.parametrize("channel, new_class", [
        (0, -1), (-1, 4), (0, 2.7), (2.0, 4), (0, True), (False, 4), (0, np.float64(3.0)),
        (0, "4")])
    def test_overwrite_rule_needs_integers_at_least_zero(self, channel, new_class):
        # -1 was written into an int64 grid, 2.7 as 2 and True as 1
        with pytest.raises(ValueError, match="channel and new_class must be integers >= 0"):
            OverwriteRule(channel, new_class)

    def test_overwrite_rule_takes_numpy_integers_and_zero(self):
        rule = OverwriteRule(np.int64(0), np.uint8(0))
        assert (rule.channel, rule.new_class) == (0, 0)

    def test_pose_shapes(self):
        for r, t in ((np.eye(2), np.zeros(3)), (np.eye(3), np.zeros(2))):
            with pytest.raises(ValueError, match="3x3"):
                Se3Pose(r, t)

    def test_layout_resolution_bound(self):
        assert BevLayout(2, 2, 1e-300, 1).resolution == 1e-300
        for bad in (0.0, -0.5):
            with pytest.raises(ValueError, match="resolution"):
                BevLayout(2, 2, bad, 1)

    def test_polygon_edges_are_half_open(self):
        # a point on the left or bottom edge is inside, on the right or top edge outside
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [1.0, 2.0]])
        assert points_in_polygon(pts, square).tolist() == [True, True, False, False]


# ---------------------------------------------------------------------------
# Equality oracles: the forms the faster code replaced, kept verbatim.
# ---------------------------------------------------------------------------


def reference_layout_rasterize(boxes, polygons, width, height, resolution, channels, schema):
    """Every box tested on every cell of the raster."""
    layout = BevLayout(width, height, resolution, channels)
    cx, cy = layout.cell_centers()
    centers = np.stack([cx, cy], axis=-1)
    for box in boxes:
        channel = schema.layout_channel_map.get(box.class_id)
        if channel is None:
            continue
        local = centers - np.asarray(box.center[:2])
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        bx = local[..., 0] * c + local[..., 1] * s
        by = -local[..., 0] * s + local[..., 1] * c
        mask = (np.abs(bx) <= box.size[0] / 2.0) & (np.abs(by) <= box.size[1] / 2.0)
        layout.bits[mask] |= np.uint16(1 << channel)
    for channel, poly in polygons:
        layout.bits[points_in_polygon(centers, poly)] |= np.uint16(1 << channel)
    return layout


def reference_apply(pose, points):
    """The stated rule, a point and an axis at a time in Python floats: output
    axis ``a`` is ``((x*R[a, 0] + y*R[a, 1]) + z*R[a, 2]) + t[a]``."""
    pts = np.asarray(points, dtype=np.float64)
    r, t = pose.rotation.tolist(), pose.translation.tolist()
    out = [[(x * ra[0] + y * ra[1]) + z * ra[2] + ta for ra, ta in zip(r, t)]
           for x, y, z in pts.reshape(-1, 3).tolist()]
    return np.array(out, dtype=np.float64).reshape(pts.shape)


def reference_validate(grid, schema):
    """One np.equal pass per stuff code over the decoded grid."""
    s, i = panoptic_decode(grid.labels)
    if np.any((s != PANOPTIC_CLASS_MAX) & (s >= schema.num_classes)):
        raise ValueError("class code without a semantic id below schema.num_classes")
    out = np.equal(s, PANOPTIC_CLASS_MAX)
    for code in (*schema.stuff_classes, schema.free_class):
        out |= np.equal(s, code)
    if np.any(i[out] != 0):
        raise ValueError("stuff/free voxel with nonzero instance id")


def reference_to_semantic(grid, schema):
    s, _ = panoptic_decode(grid.labels)
    sem = np.where(s == PANOPTIC_CLASS_MAX, schema.free_class, s)
    return sem.astype(np.uint8 if schema.num_classes <= 255 else np.uint16)


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLayoutRasterizeOracle:
    def check(self, boxes, polygons, width=24, height=20, resolution=0.4):
        args = (boxes, polygons, width, height, resolution, 15, SCHEMA)
        assert_bitwise(layout_rasterize(*args).bits, reference_layout_rasterize(*args).bits)

    def test_random_boxes_in_and_around_the_raster(self):
        rng = np.random.default_rng(50)
        for trial in range(60):
            boxes = [OrientedBox((*rng.uniform(-7, 7, size=2), 0.0),
                                 (*rng.uniform(0.05, 5.0, size=2), 1.0),
                                 float(rng.choice([0.0, np.pi / 2, np.pi / 4,
                                                   rng.uniform(-np.pi, np.pi)])),
                                 int(rng.integers(0, 21)))
                     for _ in range(int(rng.integers(1, 8)))]
            polys = [(int(rng.integers(10, 15)), rng.uniform(-5, 5, size=(5, 2)))]
            self.check(boxes, polys if trial % 2 else [])

    def test_edges_and_corners_on_cell_centres(self):
        # dyadic centres and sizes: footprint edges land exactly on cell centres,
        # and a corner-circle radius reaches the rectangle's last row or column
        boxes = [OrientedBox((x, y, 0.0), (w, l, 1.0), yaw, 4)
                 for x in (-0.2, 0.0, 0.6) for y in (0.2, 1.0)
                 for w, l in ((0.8, 0.4), (1.6, 2.4), (0.4, 0.4))
                 for yaw in (0.0, np.pi / 2, np.pi, np.arctan2(0.6, 0.8))]
        for box in boxes:
            self.check([box], [])

    def test_boxes_wider_than_or_outside_the_raster(self):
        boxes = [OrientedBox((0.0, 0.0, 0.0), (40.0, 30.0, 1.0), 0.3, 1),
                 OrientedBox((30.0, 0.0, 0.0), (2.0, 2.0, 1.0), 0.0, 2),
                 OrientedBox((-4.9, 4.1, 0.0), (1.0, 1.0, 1.0), 0.7, 3),
                 OrientedBox((1e9, -1e9, 0.0), (1.0, 1.0, 1.0), 0.0, 4)]
        self.check(boxes, [])
        self.check(boxes, [], width=1, height=3, resolution=2.0)

    def test_an_unmapped_or_out_of_range_box_behaves_as_before(self):
        self.check([OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, 0)], [])
        far = OrientedBox((1e6, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, 14)   # channel 13
        with pytest.raises(ValueError, match="out of range"):
            layout_rasterize([far], [], 8, 8, 0.4, 4, SCHEMA)
        top = OrientedBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0, 5)   # channel 4 of 4
        with pytest.raises(ValueError, match="out of range"):
            layout_rasterize([top], [], 8, 8, 0.4, 4, SCHEMA)


class TestApplyOracle:
    @pytest.mark.parametrize("shape", [(3,), (0, 3), (1, 3), (127, 3), (128, 3),
                                       (129, 3), (1000, 3), (7, 9, 3), (2, 64, 3)])
    def test_bit_equal_to_the_broadcast_row(self, shape):
        rng = np.random.default_rng(51)
        pose = Se3Pose.from_yaw(0.7, rng.normal(0, 50, size=3))
        pts = rng.normal(0, 30, size=shape)
        got = pose.apply(pts)
        assert_bitwise(got, reference_apply(pose, pts))
        assert_bitwise(pose.inverse().apply(pts), reference_apply(pose.inverse(), pts))

    def test_strided_and_integer_inputs(self):
        rng = np.random.default_rng(52)
        pose = Se3Pose.from_yaw(-2.1, (1.5, -0.25, 3.0))
        wide = rng.normal(size=(300, 6))
        for pts in (wide[:, ::2], wide[::3, 3:], np.asfortranarray(wide[:, :3]),
                    rng.integers(-9, 9, size=(200, 3)), [0.5, 1.0, -2.0]):
            assert_bitwise(pose.apply(pts), reference_apply(pose, pts))
        assert np.array_equal(wide, wide)          # inputs are not written to


class TestValidateOracle:
    SCHEMAS = [SCHEMA, LabelSchema.toy(), LabelSchema(num_classes=14, free_class=13)]

    def outcome(self, fn, *args):
        try:
            return fn(*args)
        except ValueError as e:
            return str(e)

    @pytest.mark.parametrize("schema", SCHEMAS, ids=["default", "toy", "narrow"])
    def test_same_verdict_and_semantics_as_the_per_code_passes(self, schema):
        rng = np.random.default_rng(53)
        spec = GridSpec((4, 3, 2), (0.0, 0.0, 0.0), 1.0)
        codes = np.arange(1, 18)
        for trial in range(300):
            grid_codes = rng.choice(codes, size=spec.dims)
            inst = np.where(rng.random(spec.dims) < 0.9, 0, rng.integers(1, 1000, spec.dims))
            grid = PanopticVoxelGrid(spec, grid_codes * 1000 + inst)
            got = self.outcome(grid.validate, schema)
            assert got == self.outcome(reference_validate, grid, schema)
            if got is None:
                assert_bitwise(grid.to_semantic(schema).labels,
                               reference_to_semantic(grid, schema))

    def test_labels_outside_the_range_are_rejected_by_both(self):
        spec = GridSpec((1, 1, 2), (0.0, 0.0, 0.0), 1.0)
        for bad in (999, 18000, 0, -17000):
            grid = PanopticVoxelGrid(spec, np.array([[[17000, bad]]]))
            for fn in (grid.validate, grid.to_semantic):
                with pytest.raises(ValueError, match="outside"):
                    fn(SCHEMA)

    def test_non_integer_labels_are_rejected(self):
        # 4001.5 used to decode as class 4 with instance 1.5 and pass validate
        spec = GridSpec((1, 1, 2), (0.0, 0.0, 0.0), 1.0)
        for labels in ([4001.5, 17000.0], [4001.0, 17000.0], [True, False]):
            with pytest.raises(ValueError, match="integer"):
                PanopticVoxelGrid(spec, np.array(labels).reshape(spec.dims))

    def test_uint16_and_int32_grids(self):
        # and the other widths: the lookup's index is intp whatever the grid's dtype
        spec = GridSpec((2, 2, 1), (0.0, 0.0, 0.0), 1.0)
        for dtype in (np.uint16, np.int32, np.int16, np.int64, np.uint64):
            grid = PanopticVoxelGrid(spec, np.array([[[17000], [4002]], [[11000], [1000]]],
                                                    dtype=dtype))
            grid.validate(SCHEMA)
            assert_bitwise(grid.to_semantic(SCHEMA).labels, reference_to_semantic(grid, SCHEMA))


def reference_lookup(grid, table_of):
    """``PanopticVoxelGrid._lookup`` as it was: one ``take`` of an intp index
    over the whole grid."""
    s, i = np.divmod(np.arange(PANOPTIC_LABEL_MIN, PANOPTIC_LABEL_MAX + 1), INSTANCE_BASE)
    return table_of(s, i).take(np.subtract(grid.labels, PANOPTIC_LABEL_MIN, dtype=np.intp))


def mixed_panoptic_labels(rng, dims):
    """Every class code, with instance ids on thing voxels only."""
    codes = rng.integers(1, PANOPTIC_CLASS_MAX + 1, size=dims)
    inst = np.where(SCHEMA.is_stuff_or_free(codes), 0, rng.integers(0, INSTANCE_BASE, dims))
    return (codes * INSTANCE_BASE + inst).astype(np.uint16)


class TestLookupBySlab:
    def test_standard_grid_peaks_near_its_output(self):
        spec = GridSpec.standard()
        grid = PanopticVoxelGrid(spec, mixed_panoptic_labels(np.random.default_rng(54), spec.dims))
        want = reference_to_semantic(grid, SCHEMA)
        for fn in (grid.validate, grid.to_semantic):
            tracemalloc.start()
            try:
                out = fn(SCHEMA)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 2 ** 20, f"{fn.__name__} peaked at {peak / 2 ** 20:.1f} MB"
        assert_bitwise(out.labels, want)
        assert_bitwise(out.labels, reference_lookup(grid, lambda s, _: np.where(
            s == PANOPTIC_CLASS_MAX, SCHEMA.free_class, s).astype(np.uint8)))

    @pytest.mark.parametrize("dims", [(1, 1, 1), (7, 11, 13), (256, 256, 1), (300, 300, 1),
                                      (257, 256, 1), (3, 65536, 2)])
    def test_same_bits_as_one_take_at_and_around_slab_ends(self, dims):
        rng = np.random.default_rng(55)
        grid = PanopticVoxelGrid(GridSpec(dims, (0.0, 0.0, 0.0), 1.0),
                                 mixed_panoptic_labels(rng, dims))
        for table_of in (lambda s, i: (s * INSTANCE_BASE + i).astype(np.uint16),
                         lambda s, i: (s + 3 * i).astype(np.float64)):
            assert_bitwise(grid._lookup(table_of), reference_lookup(grid, table_of))
        view = PanopticVoxelGrid(GridSpec(dims[::-1], (0.0, 0.0, 0.0), 1.0), grid.labels.T)
        table_of = lambda s, i: (s * INSTANCE_BASE + i).astype(np.int32)
        assert_bitwise(view._lookup(table_of), reference_lookup(view, table_of))
