import numpy as np
import pytest

from occkit.core import (
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
        out = layout_overwrite(grid, layout, [OverwriteRule(2, 13, "full")])
        assert np.array_equal(out.labels, grid.labels)

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


class TestPoseAndBox:
    def test_pose_validation(self):
        with pytest.raises(ValueError):
            Se3Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_compose_inverse(self):
        rng = np.random.default_rng(11)
        a = Se3Pose.from_yaw(0.7, rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        assert np.allclose(a.inverse().apply(a.apply(pts)), pts, atol=1e-12)

    def test_box_contains(self):
        box = OrientedBox(center=(1.0, 2.0, 0.5), size=(2.0, 4.0, 1.0), yaw=0.3)
        assert box.contains(np.array([1.0, 2.0, 0.5]))
        rng = np.random.default_rng(2)
        pts = rng.uniform(-4, 6, size=(500, 3))
        got = box.contains(pts)
        local = box.pose().inverse().apply(pts)
        half = np.array(box.size) / 2
        expect = np.all(np.abs(local) <= half, axis=-1)
        assert np.array_equal(got, expect)

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

    def test_bev_layout(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BevLayout(4, 4, bad, 2)


def test_points_in_polygon_square():
    square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    pts = np.array([[1.0, 1.0], [3.0, 1.0], [-0.5, 0.5], [1.5, 1.9]])
    inside = points_in_polygon(pts, square)
    assert inside.tolist() == [True, False, False, True]
