"""Seeded synthetic driving scene for the benchmark.

``build_scene(seed, schema, spec)`` draws every class from the schema it
is given, so the same builder serves ``LabelSchema()`` and
``LabelSchema.toy()``. The scene holds only inputs for the program under
test: a labelled point cloud (ground, buildings, parked vehicles fitted
with ``fit_asset_to_box``, outliers, and ghost points of moving objects
that curation removes), the boxes and road/sidewalk polygons a layout is
rasterized from, overwrite rules, one ego shift and knn query points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from occkit import core, pipeline
from occkit.core import GridSpec, LabelSchema, OrientedBox, OverwriteRule, Se3Pose
from occkit.pipeline import EgoShift, LabeledPointCloud


@dataclass
class Scene:
    spec: GridSpec
    schema: LabelSchema
    cloud: LabeledPointCloud
    dynamic_boxes: list[OrientedBox]
    boxes: list[OrientedBox]
    polygons: list[tuple[int, np.ndarray]]
    rules: list[OverwriteRule]
    shift: EgoShift
    queries: np.ndarray


def _plus(half_len: float, half_width: float, cx: float, cy: float) -> np.ndarray:
    """12-vertex plus-shaped polygon: two crossing bands centred on (cx, cy)."""
    a, w = half_len, half_width
    pts = [(w, w), (w, a), (-w, a), (-w, w), (-a, w), (-a, -w),
           (-w, -w), (-w, -a), (w, -a), (w, -w), (a, -w), (a, w)]
    return np.asarray(pts) + np.array([cx, cy])


def _canonical_asset(rng: np.random.Generator, n: int) -> np.ndarray:
    """Car-like asset: a body box with a smaller cabin on top (arbitrary units)."""
    n_body = n * 2 // 3
    body = rng.uniform([-1.0, -2.0, 0.0], [1.0, 2.0, 1.0], size=(n_body, 3))
    cabin = rng.uniform([-0.8, -1.0, 1.0], [0.8, 1.0, 1.6], size=(n - n_body, 3))
    return np.concatenate([body, cabin])


def _classes(schema: LabelSchema) -> dict[str, object]:
    valid = [c for c in range(schema.num_classes) if c != schema.free_class]
    things = sorted(c for c in schema.thing_classes if c in valid)
    stuff = sorted(c for c in schema.stuff_classes if c in valid)
    mapped = [c for c in stuff if c in schema.layout_channel_map]
    if not things or len(mapped) < 1:
        raise ValueError("schema needs a thing class and a layout-mapped stuff class")
    road = mapped[0]
    sidewalk = mapped[1] if len(mapped) > 1 else road
    terrain = mapped[2] if len(mapped) > 2 else sidewalk
    return {"things": things, "road": road, "sidewalk": sidewalk,
            "terrain": terrain, "building": stuff[-1]}


def build_scene(
    seed: int,
    schema: LabelSchema,
    spec: GridSpec,
    n_points: int = 1_000_000,
    n_queries: int = 20_000,
    n_vehicles: int = 40,
    n_buildings: int = 24,
    n_dynamic: int = 8,
) -> Scene:
    rng = np.random.default_rng([seed, 0x5CE4E])
    cls = _classes(schema)
    vox = spec.voxel_size
    lo = np.asarray(spec.origin, dtype=np.float64)
    hi = lo + np.asarray(spec.dims) * vox
    half = min(hi[0], hi[1])  # the grid is ego-centred
    ground_lo, ground_hi = lo[2] + 0.3 * vox, lo[2] + 1.7 * vox

    # road network: two crossing bands, sidewalks a little wider
    cx, cy = rng.uniform(-0.05, 0.05, size=2) * half
    road_w = rng.uniform(0.08, 0.12) * half
    side_w = road_w + rng.uniform(0.04, 0.06) * half
    road_poly = _plus(2 * half, road_w, cx, cy)
    side_poly = _plus(2 * half, side_w, cx, cy)
    ch = schema.layout_channel_map
    polygons = [(ch[cls["sidewalk"]], side_poly), (ch[cls["road"]], road_poly)]
    rules = [OverwriteRule(ch[cls["sidewalk"]], cls["sidewalk"], "edge"),
             OverwriteRule(ch[cls["road"]], cls["road"], "edge")]

    def on_road(n: int) -> np.ndarray:
        """Points on the road bands, clear of the cameras at the crossing."""
        along = rng.uniform(0.3, 0.9, size=n) * half * rng.choice([-1, 1], size=n)
        across = rng.uniform(-0.6, 0.6, size=n) * road_w
        xaxis = rng.random(n) < 0.5
        x = np.where(xaxis, cx + along, cx + across)
        y = np.where(xaxis, cy + across, cy + along)
        return np.stack([x, y], axis=1), np.where(xaxis, 0.0, np.pi / 2)

    n_ground = n_points // 2
    n_building = n_points // 4
    n_vehicle = n_points * 3 // 20
    n_ghost = n_points // 40
    n_noise = n_points // 50
    n_outside = n_points - n_ground - n_building - n_vehicle - n_ghost - n_noise

    # ground, labelled by the polygon that contains it
    gxy = rng.uniform(lo[:2], hi[:2], size=(n_ground, 2))
    gz = rng.uniform(ground_lo, ground_hi, size=(n_ground, 1))
    glab = np.full(n_ground, cls["terrain"], dtype=np.int64)
    glab[core.points_in_polygon(gxy, side_poly)] = cls["sidewalk"]
    glab[core.points_in_polygon(gxy, road_poly)] = cls["road"]
    ground = np.concatenate([gxy, gz], axis=1)
    glab *= core.INSTANCE_BASE

    # buildings: solid boxes off the road, in the four quadrants
    boxes: list[OrientedBox] = []
    b_pts = np.array_split(np.arange(n_building), n_buildings)
    building_pts, building_lab = [], []
    for k, idx in enumerate(b_pts):
        sx, sy = rng.choice([-1, 1], size=2)
        bx = cx + sx * rng.uniform(side_w + 0.12 * half, 0.8 * half)
        by = cy + sy * rng.uniform(side_w + 0.12 * half, 0.8 * half)
        size = (rng.uniform(0.08, 0.2) * half, rng.uniform(0.08, 0.2) * half,
                rng.uniform(0.4, 1.0) * (hi[2] - ground_hi))
        box = OrientedBox((bx, by, ground_hi + size[2] / 2), size,
                          rng.uniform(-0.3, 0.3), cls["building"], 0)
        local = rng.uniform(-0.5, 0.5, size=(len(idx), 3)) * np.asarray(size)
        building_pts.append(box.pose().apply(local))
        building_lab.append(np.full(len(idx), cls["building"] * core.INSTANCE_BASE))
        boxes.append(box)

    # parked vehicles: one canonical asset fitted into each box
    asset = _canonical_asset(rng, max(n_vehicle // n_vehicles, 16))
    centres, yaws = on_road(n_vehicles + n_dynamic)
    veh_pts, veh_lab = [], []
    for k in range(n_vehicles):
        cls_id = cls["things"][k % len(cls["things"])]
        size = (rng.uniform(1.7, 2.1), rng.uniform(3.8, 5.0), rng.uniform(1.4, 1.8))
        box = OrientedBox((*centres[k], ground_hi + size[2] / 2), size,
                          yaws[k] + rng.uniform(-0.1, 0.1), cls_id, k + 1)
        veh_pts.append(pipeline.fit_asset_to_box(asset, box))
        veh_lab.append(np.full(len(asset), core.panoptic_encode(cls_id, k + 1)))
        boxes.append(box)

    # ghost points of moving objects, removed during curation
    dynamic_boxes = []
    ghost_split = np.array_split(np.arange(n_ghost), n_dynamic)
    ghost_pts, ghost_lab = [], []
    for k, idx in enumerate(ghost_split):
        cls_id = cls["things"][0]
        box = OrientedBox((*centres[n_vehicles + k], ground_hi + 1.0), (2.4, 6.0, 2.0),
                          yaws[n_vehicles + k], cls_id, n_vehicles + k + 1)
        local = rng.uniform(-0.45, 0.45, size=(len(idx), 3)) * np.asarray(box.size)
        ghost_pts.append(box.pose().apply(local))
        ghost_lab.append(np.full(len(idx), core.panoptic_encode(cls_id, n_vehicles + k + 1)))
        dynamic_boxes.append(box)

    # label noise near the ground, and points outside the grid
    noise = ground[rng.integers(0, n_ground, size=n_noise)]
    noise_lab = rng.choice([cls["road"], cls["sidewalk"], cls["terrain"]],
                           size=n_noise) * core.INSTANCE_BASE
    outside = rng.uniform(lo - 4.0, hi + 4.0, size=(n_outside, 3))
    outside[:, 2] = rng.choice([lo[2] - 1.0, hi[2] + 1.0], size=n_outside)
    outside_lab = np.full(n_outside, cls["building"] * core.INSTANCE_BASE)

    pts = np.concatenate([ground, *building_pts, *veh_pts, *ghost_pts, noise, outside])
    lab = np.concatenate([glab, *building_lab, *veh_lab, *ghost_lab, noise_lab,
                          outside_lab]).astype(np.int64)
    order = rng.permutation(len(pts))
    cloud = LabeledPointCloud(pts[order], lab[order])

    picks = rng.integers(0, len(pts), size=n_queries)
    queries = pts[picks] + rng.normal(0.0, 0.2, size=(n_queries, 3))

    shift = EgoShift(Se3Pose.from_yaw(rng.uniform(-0.3, 0.3),
                                      (rng.uniform(2.0, 6.0), rng.uniform(-1.0, 1.0), 0.0)))
    return Scene(spec=spec, schema=schema, cloud=cloud, dynamic_boxes=dynamic_boxes,
                 boxes=boxes, polygons=polygons, rules=rules, shift=shift,
                 queries=queries)
