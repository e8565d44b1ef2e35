import numpy as np
import pytest

from occkit import metrics
from occkit.core import (
    BevLayout,
    GridSpec,
    LabelSchema,
    SemanticOccupancyGrid,
    bev_topdown_project,
)

SCHEMA = LabelSchema()
SPEC = GridSpec(dims=(8, 8, 4), origin=(-1.6, -1.6, -0.8), voxel_size=0.4)


def random_grid(rng, free_fraction=0.5):
    labels = rng.integers(0, SCHEMA.num_classes, size=SPEC.dims)
    labels[rng.random(SPEC.dims) < free_fraction] = SCHEMA.free_class
    return SemanticOccupancyGrid(SPEC, labels)


def column_grid(labels):
    """A grid of len(labels) x 1 x 1 voxels holding the given int64 labels."""
    spec = GridSpec(dims=(len(labels), 1, 1), origin=(0, 0, 0), voxel_size=1.0)
    return SemanticOccupancyGrid(spec, np.array(labels).reshape(-1, 1, 1))


class TestConfusion:
    def test_identical_grids_are_diagonal(self):
        grid = random_grid(np.random.default_rng(0))
        acc = metrics.ConfusionMatrix(SCHEMA.num_classes)
        metrics.confusion_accumulate(grid, grid, acc)
        assert acc.total() == SPEC.num_voxels
        assert np.all(acc.counts == np.diag(np.diag(acc.counts)))

    def test_free_vs_class4(self):
        spec = GridSpec(dims=(2, 1, 1), origin=(0, 0, 0), voxel_size=1.0)
        gt = SemanticOccupancyGrid(spec, np.full(spec.dims, SCHEMA.free_class,
                                                 dtype=np.uint8))
        pred = SemanticOccupancyGrid(spec, np.full(spec.dims, 4, dtype=np.uint8))
        acc = metrics.ConfusionMatrix(SCHEMA.num_classes)
        metrics.confusion_accumulate(pred, gt, acc)
        assert acc.counts[SCHEMA.free_class, 4] == 2
        assert acc.total() == 2

    def test_matches_per_voxel_loop(self):
        rng = np.random.default_rng(1)
        gt = random_grid(rng)
        pred = random_grid(rng)
        acc = metrics.ConfusionMatrix(SCHEMA.num_classes)
        metrics.confusion_accumulate(pred, gt, acc)
        expect = np.zeros_like(acc.counts)
        for g, p in zip(gt.labels.reshape(-1), pred.labels.reshape(-1)):
            expect[g, p] += 1
        assert np.array_equal(acc.counts, expect)

    def test_accumulation_order_invariant(self):
        rng = np.random.default_rng(2)
        pairs = [(random_grid(rng), random_grid(rng)) for _ in range(4)]
        a = metrics.ConfusionMatrix(SCHEMA.num_classes)
        b = metrics.ConfusionMatrix(SCHEMA.num_classes)
        for p, g in pairs:
            metrics.confusion_accumulate(p, g, a)
        for p, g in reversed(pairs):
            metrics.confusion_accumulate(p, g, b)
        assert np.array_equal(a.counts, b.counts)

    def test_spec_mismatch_rejected(self):
        other = GridSpec(dims=(4, 4, 4), origin=(0, 0, 0), voxel_size=0.4)
        a = SemanticOccupancyGrid.full_free(SPEC, SCHEMA)
        b = SemanticOccupancyGrid.full_free(other, SCHEMA)
        with pytest.raises(ValueError):
            metrics.confusion_accumulate(a, b, metrics.ConfusionMatrix(21))

    @pytest.mark.parametrize("gt, pred", [(0, 3), (1, -1), (3, 0), (-1, 2), (7, 7)])
    def test_out_of_range_labels_rejected(self, gt, pred):
        # a bincount of gt * 3 + pred would file (0, 3) under counts[1, 0]
        acc = metrics.ConfusionMatrix(3)
        with pytest.raises(ValueError, match="out of range"):
            metrics.confusion_accumulate(column_grid([1, pred]), column_grid([1, gt]), acc)
        assert acc.total() == 0


class TestIou:
    def test_perfect_prediction(self):
        grid = random_grid(np.random.default_rng(3))
        acc = metrics.ConfusionMatrix(SCHEMA.num_classes)
        metrics.confusion_accumulate(grid, grid, acc)
        assert metrics.miou(acc, SCHEMA) == 1.0
        assert metrics.binary_iou(acc, SCHEMA) == 1.0

    def test_disjoint_prediction_is_zero(self):
        spec = GridSpec(dims=(2, 2, 1), origin=(0, 0, 0), voxel_size=1.0)
        gt = SemanticOccupancyGrid(spec, np.full(spec.dims, 3, dtype=np.uint8))
        pred = SemanticOccupancyGrid(spec, np.full(spec.dims, 7, dtype=np.uint8))
        acc = metrics.ConfusionMatrix(SCHEMA.num_classes)
        metrics.confusion_accumulate(pred, gt, acc)
        iou, _ = metrics.per_class_iou(acc)
        assert iou[3] == 0.0 and iou[7] == 0.0
        assert metrics.miou(acc, SCHEMA) == 0.0
        assert metrics.binary_iou(acc, SCHEMA) == 1.0  # both fully occupied

    def test_hand_built_matrix(self):
        # 3 classes: counts[gt][pred]
        counts = np.zeros((3, 3), dtype=np.int64)
        counts[0, 0] = 6
        counts[0, 1] = 2
        counts[1, 1] = 4
        counts[1, 0] = 1
        counts[2, 2] = 5
        cm = metrics.ConfusionMatrix(3)
        cm.counts += counts
        schema = LabelSchema(num_classes=3, free_class=2,
                             thing_classes=frozenset({1}),
                             stuff_classes=frozenset(),
                             layout_channel_map={1: 0})
        iou, _ = metrics.per_class_iou(cm)
        assert abs(iou[0] - 6 / (8 + 7 - 6)) < 1e-12
        assert abs(iou[1] - 4 / (5 + 6 - 4)) < 1e-12
        expect_miou = (6 / 9 + 4 / 7) / 2
        assert abs(metrics.miou(cm, schema) - expect_miou) < 1e-12
        # binary: occupied classes {0, 1}
        inter = 6 + 2 + 4 + 1
        union = 18 - 5
        assert abs(metrics.binary_iou(cm, schema) - inter / union) < 1e-12

    def test_absent_classes_skipped(self):
        cm = metrics.ConfusionMatrix(4)
        cm.counts[0, 0] = 10
        schema = LabelSchema(num_classes=4, free_class=3,
                             thing_classes=frozenset({1}),
                             stuff_classes=frozenset({2}),
                             layout_channel_map={})
        assert metrics.miou(cm, schema) == 1.0
        iou, present = metrics.per_class_iou(cm)  # 0, not 0 / 0, where the union is empty
        assert iou.tolist() == [1.0, 0.0, 0.0, 0.0]
        assert present.tolist() == [True, False, False, False]

    def test_an_all_free_matrix_scores_zero(self):
        # no non-free class and an empty occupied union: 0.0, not 0 / 0
        grid = SemanticOccupancyGrid.full_free(SPEC, SCHEMA)
        acc = metrics.confusion_accumulate(grid, grid, metrics.ConfusionMatrix(SCHEMA.num_classes))
        assert metrics.miou(acc, SCHEMA) == 0.0
        assert metrics.binary_iou(acc, SCHEMA) == 0.0


class TestBevVsLayout:
    def test_self_consistent_layout(self):
        rng = np.random.default_rng(4)
        grid = random_grid(rng, free_fraction=0.7)
        proj = bev_topdown_project(grid, SCHEMA)
        layout = BevLayout(8, 8, 0.4, 15)
        for cls, ch in SCHEMA.layout_channel_map.items():
            layout.bits[proj == cls] |= np.uint16(1 << ch)
        report = metrics.bev_vs_layout_metrics(grid, layout, SCHEMA)
        assert report["per_channel"]
        for iou in report["per_channel"].values():
            assert iou == 1.0
        assert report["mean"] == 1.0

    def test_empty_grid_vs_nonempty_layout(self):
        grid = SemanticOccupancyGrid.full_free(SPEC, SCHEMA)
        layout = BevLayout(8, 8, 0.4, 15)
        layout.bits[2:5, 2:5] = 1 << 0
        report = metrics.bev_vs_layout_metrics(grid, layout, SCHEMA)
        assert report["per_channel"][0] == 0.0
        assert report["mean"] == 0.0

    def test_mismatched_footprint_rejected(self):
        grid = SemanticOccupancyGrid.full_free(SPEC, SCHEMA)
        for layout in (BevLayout(8, 8, 0.5, 15), BevLayout(8, 4, 0.4, 15)):
            with pytest.raises(ValueError, match="grid and layout footprints do not match"):
                metrics.bev_vs_layout_metrics(grid, layout, SCHEMA)

    def test_channel_without_a_class_is_skipped(self):
        # channel 0 is set in every cell, but no class maps to it
        schema = LabelSchema(layout_channel_map={4: 1})
        labels = np.full(SPEC.dims, schema.free_class, dtype=np.uint8)
        labels[2:4, 2:4, 0] = 4
        layout = BevLayout(8, 8, 0.4, 2)
        layout.bits[:] = 1
        layout.bits[2:4, 2:4] |= 2
        report = metrics.bev_vs_layout_metrics(SemanticOccupancyGrid(SPEC, labels), layout, schema)
        assert report == {"per_channel": {1: 1.0}, "mean": 1.0}

    def test_matches_cell_oracle(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, free_fraction=0.6)
        layout = BevLayout(8, 8, 0.4, 15)
        layout.bits[:] = rng.integers(0, 2 ** 15, size=(8, 8), dtype=np.uint16)
        report = metrics.bev_vs_layout_metrics(grid, layout, SCHEMA)
        proj = bev_topdown_project(grid, SCHEMA)
        for channel in range(15):
            classes = [c for c, ch in SCHEMA.layout_channel_map.items()
                       if ch == channel]
            inter = union = 0
            for x in range(8):
                for y in range(8):
                    p = proj[x, y] in classes
                    g = bool(layout.bits[x, y] & (1 << channel))
                    inter += p and g
                    union += p or g
            if union == 0:
                assert channel not in report["per_channel"]
            else:
                assert abs(report["per_channel"][channel] - inter / union) < 1e-12

    def test_channel_subset_mean(self):
        report = {"per_channel": {0: 0.5, 1: 0.7, 12: 0.1}, "mean": 0.0}
        assert abs(metrics.channel_subset_mean(report, [0, 1]) - 0.6) < 1e-12
        assert metrics.channel_subset_mean(report, [5]) == 0.0
