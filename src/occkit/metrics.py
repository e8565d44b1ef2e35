"""Occupancy evaluation: confusion accumulation, IoU families, and
layout-adherence scores.
"""

from __future__ import annotations

import numpy as np

from .core import BevLayout, LabelSchema, SemanticOccupancyGrid, bev_topdown_project


class ConfusionMatrix:
    """Square count table; rows index ground truth, columns prediction."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def total(self) -> int:
        return int(self.counts.sum())


def confusion_accumulate(
    pred: SemanticOccupancyGrid,
    gt: SemanticOccupancyGrid,
    acc: ConfusionMatrix,
) -> ConfusionMatrix:
    """Add one grid pair into the running matrix: counts[gt][pred] += 1."""
    if pred.spec != gt.spec:
        raise ValueError("grid specs differ")
    c = acc.num_classes
    for labels in (gt.labels, pred.labels):
        if labels.min() < 0 or labels.max() >= c:
            raise ValueError("label out of range for the matrix")
    g = gt.labels.reshape(-1).astype(np.int64)
    p = pred.labels.reshape(-1).astype(np.int64)
    acc.counts += np.bincount(g * c + p, minlength=c * c).reshape(c, c)
    return acc


def per_class_iou(matrix: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """IoU per class and a mask of classes that appear at all."""
    counts = matrix.counts
    diag = np.diag(counts).astype(np.float64)
    rows = counts.sum(axis=1).astype(np.float64)
    cols = counts.sum(axis=0).astype(np.float64)
    union = rows + cols - diag
    present = (rows + cols) > 0
    iou = np.zeros(matrix.num_classes)
    nz = union > 0
    iou[nz] = diag[nz] / union[nz]
    return iou, present


def miou(matrix: ConfusionMatrix, schema: LabelSchema) -> float:
    """Mean IoU over non-free classes present in gt or prediction."""
    iou, present = per_class_iou(matrix)
    present[schema.free_class] = False
    if not present.any():
        return 0.0
    return float(iou[present].mean())


def binary_iou(matrix: ConfusionMatrix, schema: LabelSchema) -> float:
    """Occupied-vs-free IoU after collapsing all non-free classes."""
    counts = matrix.counts
    free = schema.free_class
    occ = np.ones(matrix.num_classes, dtype=bool)
    occ[free] = False
    inter = counts[np.ix_(occ, occ)].sum()
    union = matrix.total() - counts[free, free]
    if union == 0:
        return 0.0
    return float(inter / union)


def bev_vs_layout_metrics(
    grid: SemanticOccupancyGrid,
    layout: BevLayout,
    schema: LabelSchema,
) -> dict:
    """Per-channel binary IoU of the grid's top-down footprint vs the layout.

    The projection maps to layout channels through the schema; channels
    with an empty union on both sides are skipped in the mean.
    """
    if not layout.matches_grid(grid.spec):
        raise ValueError("grid and layout footprints do not match")
    proj = bev_topdown_project(grid, schema)
    per_channel: dict[int, float] = {}
    for channel in range(layout.channels):
        classes = [c for c, ch in schema.layout_channel_map.items() if ch == channel]
        if not classes:
            continue
        pred_mask = np.isin(proj, classes)
        gt_mask = layout.channel_mask(channel)
        union = (pred_mask | gt_mask).sum()
        if union == 0:
            continue
        per_channel[channel] = float((pred_mask & gt_mask).sum() / union)
    mean = float(np.mean(list(per_channel.values()))) if per_channel else 0.0
    return {"per_channel": per_channel, "mean": mean}


def channel_subset_mean(report: dict, channels) -> float:
    """Mean of per-channel IoUs over a subset (e.g. agent channels)."""
    vals = [v for c, v in report["per_channel"].items() if c in set(channels)]
    return float(np.mean(vals)) if vals else 0.0
