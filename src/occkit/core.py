"""Core data model: label schema, voxel grids, BEV layouts, poses, boxes.

Conventions used throughout the package:

* Grid labels are stored as a dense (X, Y, Z) array in C order, so the
  flat serialization order is x-major / y-middle / z-minor.
* Semantic class ids are 0-based and contiguous; the free/empty class is
  by convention the last index. Panoptic class codes ``s`` live in their
  own 1..17 range and map to semantic ids through :class:`LabelSchema`.
* An oriented box's ``size = (width, length, height)`` maps to the box
  frame axes (x, y, z); ``yaw`` rotates the box frame about world +z.
* BEV layouts are ego-centered: cell (i, j) covers the same metric
  footprint as grid column (i, j) when :meth:`BevLayout.matches_grid` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# Panoptic code arithmetic: code = s * 1000 + i
INSTANCE_BASE = 1000
PANOPTIC_CLASS_MIN = 1
PANOPTIC_CLASS_MAX = 17  # the free/empty code in the panoptic scheme
INSTANCE_MAX = INSTANCE_BASE - 1
PANOPTIC_LABEL_MIN = PANOPTIC_CLASS_MIN * INSTANCE_BASE   # 1000
PANOPTIC_LABEL_MAX = PANOPTIC_CLASS_MAX * INSTANCE_BASE + INSTANCE_MAX   # 17999


def _is_int(v) -> bool:
    """An integer, Python or numpy, that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _schema_codes(codes: range, num_classes: int, free_class: int) -> list[int]:
    """The codes whose same-valued semantic id exists and is not ``free_class``."""
    return [c for c in codes if c < num_classes and c != free_class]


@dataclass(frozen=True)
class LabelSchema:
    """Semantic/panoptic label conventions for one dataset configuration.

    ``thing_classes`` and ``stuff_classes`` are panoptic class codes
    (things carry instance ids, stuff is always instance 0). The free
    code 17 maps to ``free_class`` internally; codes 1..16 map to the
    same-valued semantic id.

    Left as ``None``, the class sets and the layout map keep only codes
    below ``num_classes`` other than ``free_class`` (things 1..10, stuff
    11..16, agents 1..10 -> channels 0..9, map classes 11..15 -> 10..14).
    """

    num_classes: int = 21
    free_class: int = 20
    thing_classes: frozenset[int] | None = None
    stuff_classes: frozenset[int] | None = None
    layout_channel_map: Mapping[int, int] | None = None

    def __post_init__(self):
        n, free = self.num_classes, self.free_class
        if self.thing_classes is None:
            object.__setattr__(self, "thing_classes",
                               frozenset(_schema_codes(range(1, 11), n, free)))
        if self.stuff_classes is None:
            object.__setattr__(self, "stuff_classes",
                               frozenset(_schema_codes(range(11, 17), n, free)))
        if self.layout_channel_map is None:
            object.__setattr__(self, "layout_channel_map",
                               {c: c - 1 for c in _schema_codes(range(1, 16), n, free)})
        if not (0 <= self.free_class < self.num_classes):
            raise ValueError("free_class outside the semantic id range")
        if self.thing_classes & self.stuff_classes:
            raise ValueError("thing and stuff class sets overlap")
        for cls, ch in self.layout_channel_map.items():
            if not (0 <= cls < self.num_classes):
                raise ValueError(f"layout-mapped class {cls} out of range")
            if ch < 0:
                raise ValueError(f"negative layout channel for class {cls}")

    @property
    def num_layout_channels(self) -> int:
        if not self.layout_channel_map:
            return 0
        return max(self.layout_channel_map.values()) + 1

    def agent_channels(self) -> list[int]:
        """Layout channels fed by thing (agent) classes, sorted."""
        chans = {
            ch
            for cls, ch in self.layout_channel_map.items()
            if cls in self.thing_classes
        }
        return sorted(chans)

    def is_stuff_or_free(self, s: np.ndarray | int):
        """Codes that carry instance 0: stuff, 17, and the code of ``free_class``."""
        out = np.equal(s, PANOPTIC_CLASS_MAX)
        for code in (*self.stuff_classes, self.free_class):
            out |= np.equal(s, code)
        return out if isinstance(s, np.ndarray) else bool(out)

    @staticmethod
    def toy() -> "LabelSchema":
        """Six-class schema for procedural datasets: 2 agents, 2 stuff, free class 5."""
        return LabelSchema(
            num_classes=6,
            free_class=5,
            thing_classes=frozenset({1, 2}),
            stuff_classes=frozenset({3, 4}),
            layout_channel_map={1: 0, 2: 1, 3: 2, 4: 3},
        )


def panoptic_encode(s: int, i: int, schema: LabelSchema = LabelSchema()) -> int:
    """Pack (class code, instance id) into a single panoptic label.

    Stuff and free codes of ``schema`` carry instance 0.
    """
    if not (PANOPTIC_CLASS_MIN <= s <= PANOPTIC_CLASS_MAX):
        raise ValueError(f"class code {s} outside [1, {PANOPTIC_CLASS_MAX}]")
    if not (0 <= i <= INSTANCE_MAX):
        raise ValueError(f"instance id {i} outside [0, {INSTANCE_MAX}]")
    if i != 0 and schema.is_stuff_or_free(s):
        raise ValueError(f"non-thing class {s} with nonzero instance {i}")
    return s * INSTANCE_BASE + i


def panoptic_decode(label: np.ndarray | int):
    """Inverse of :func:`panoptic_encode`, for one label or an array of them."""
    lo, hi = PANOPTIC_LABEL_MIN, PANOPTIC_LABEL_MAX
    arr = np.asarray(label)
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise ValueError(f"panoptic label outside [{lo}, {hi}]")
    s, i = np.divmod(arr, INSTANCE_BASE)
    return (s, i) if arr.ndim else (int(s), int(i))


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a dense ego-centered voxel grid: three integer dims >= 1
    (not bools), three finite origin coordinates, a positive finite voxel size."""

    dims: tuple[int, int, int]
    origin: tuple[float, float, float]
    voxel_size: float

    def __post_init__(self):
        if np.shape(self.dims) != (3,) or not all(_is_int(d) and d >= 1 for d in self.dims):
            raise ValueError(f"grid dims must be three integers >= 1, not {self.dims!r}")
        if np.shape(self.origin) != (3,):
            raise ValueError("grid origin must have three coordinates")
        # chained comparisons are False for NaN, so they reject it too
        if not 0 < self.voxel_size < np.inf:
            raise ValueError("voxel_size must be positive and finite")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")

    @property
    def num_voxels(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def index_to_center(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.float64)
        return np.asarray(self.origin) + (idx + 0.5) * self.voxel_size

    @classmethod
    def standard(cls) -> "GridSpec":
        """256 x 256 x 25 at 0.4 m over [-51.2, 51.2] x [-51.2, 51.2] x [-5, 5] m."""
        return cls(dims=(256, 256, 25), origin=(-51.2, -51.2, -5.0), voxel_size=0.4)


class _LabelGrid:
    """Dense (X, Y, Z) label array of an integer dtype, shaped as ``spec.dims``."""

    def __init__(self, spec: GridSpec, labels: np.ndarray):
        labels = np.asarray(labels)
        if labels.shape != tuple(spec.dims):
            raise ValueError(f"labels shape {labels.shape} != dims {spec.dims}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integer-typed")
        self.spec = spec
        self.labels = labels


class SemanticOccupancyGrid(_LabelGrid):
    """Dense voxel grid of semantic class ids, of any integer dtype
    (``PanopticVoxelGrid.to_semantic`` gives uint8, or uint16 above 255 classes)."""

    def validate(self, schema: LabelSchema) -> None:
        if self.labels.size and int(self.labels.max()) >= schema.num_classes:
            raise ValueError("label exceeds schema.num_classes")
        if self.labels.size and int(self.labels.min()) < 0:
            raise ValueError("negative label")

    @classmethod
    def full_free(cls, spec: GridSpec, schema: LabelSchema) -> "SemanticOccupancyGrid":
        return cls(spec, np.full(spec.dims, schema.free_class, dtype=np.uint8))

    def copy(self) -> "SemanticOccupancyGrid":
        return SemanticOccupancyGrid(self.spec, self.labels.copy())


class PanopticVoxelGrid(_LabelGrid):
    """Dense voxel grid of packed panoptic labels (free voxels hold 17000), of
    any integer dtype; ``voxelize_majority`` gives uint16."""

    FREE_LABEL = PANOPTIC_CLASS_MAX * INSTANCE_BASE

    def _lookup(self, table_of) -> np.ndarray:
        """Each voxel's entry in ``table_of(class codes, instance ids)`` of all
        panoptic labels, by ``take`` of an intp index made one 65,536-voxel slab
        at a time into one output, so no transient spans the grid."""
        panoptic_decode(np.array([self.labels.min(), self.labels.max()]))  # range check
        s, i = panoptic_decode(np.arange(PANOPTIC_LABEL_MIN, PANOPTIC_LABEL_MAX + 1))
        table, src = table_of(s, i), self.labels.reshape(-1)
        dst = np.empty(src.shape, table.dtype)
        for a in range(0, src.size, 1 << 16):
            b = a + (1 << 16)
            np.take(table, np.subtract(src[a:b], PANOPTIC_LABEL_MIN, dtype=np.intp), out=dst[a:b])
        return dst.reshape(self.labels.shape)

    def validate(self, schema: LabelSchema) -> None:
        worst = self._lookup(lambda s, i: (  # 2: class beyond the schema; 1: stuff/free instance
            2 * ((s != PANOPTIC_CLASS_MAX) & (s >= schema.num_classes))
            + (schema.is_stuff_or_free(s) & (i != 0))).astype(np.uint8)).max()
        if worst >= 2:
            raise ValueError("class code without a semantic id below schema.num_classes")
        if worst == 1:
            raise ValueError("stuff/free voxel with nonzero instance id")

    def to_semantic(self, schema: LabelSchema) -> SemanticOccupancyGrid:
        dtype = np.uint8 if schema.num_classes <= 255 else np.uint16
        return SemanticOccupancyGrid(self.spec, self._lookup(  # 17 -> free
            lambda s, _: np.where(s == PANOPTIC_CLASS_MAX, schema.free_class, s).astype(dtype)))


# ---------------------------------------------------------------------------
# Poses and boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Se3Pose:
    """Rigid transform ``x_out = R x_in + t``. The package's one rotation rule, :meth:`rotate`,
    gives output axis ``a`` as ``(x*R[a, 0] + y*R[a, 1]) + z*R[a, 2]``; ``t[a]`` comes after."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation 3-vector")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("pose must be finite")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if np.max(np.abs(np.array(self.rotate(*r.T)) - np.eye(3))) > 1e-9:  # R R^T
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation determinant is not +1")

    @classmethod
    def identity(cls) -> "Se3Pose":
        return cls(np.eye(3), np.zeros(3))

    @classmethod
    def from_translation(cls, t: Sequence[float]) -> "Se3Pose":
        return cls(np.eye(3), np.asarray(t, dtype=np.float64))

    @classmethod
    def from_yaw(cls, yaw: float, t: Sequence[float] = (0.0, 0.0, 0.0)) -> "Se3Pose":
        c, s = np.cos(yaw), np.sin(yaw)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(r, np.asarray(t, dtype=np.float64))

    def rotate(self, x, y, z) -> list[np.ndarray]:
        """The rule, elementwise over broadcastable coordinate arrays (never BLAS)."""
        return [(x * r[0] + y * r[1]) + z * r[2] for r in self.rotation]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """``R p + t`` for points of shape (..., 3)."""
        x, y, z = np.moveaxis(np.asarray(points, dtype=np.float64), -1, 0)
        return np.stack([c + t for c, t in zip(self.rotate(x, y, z), self.translation)], -1)

    def inverse(self) -> "Se3Pose":
        inv = Se3Pose(self.rotation.T, np.zeros(3))  # R^T p + R^T (-t): one pose
        object.__setattr__(inv, "translation", np.array(inv.rotate(*-self.translation)))
        if not np.all(np.isfinite(inv.translation)):  # R^T t can overflow where t does not
            raise ValueError("pose must be finite")
        return inv


@dataclass(frozen=True)
class OrientedBox:
    """Yaw-oriented 3D box; size = (width, length, height) on box axes (x, y, z).
    The package's one box rule, boundary inclusive, with ``dx, dy = x - cx, y - cy``
    and ``c, s = cos(yaw), sin(yaw)``: the footprint holds (x, y) when ``|dx*c + dy*s|
    <= w/2`` and ``|-dx*s + dy*c| <= l/2``; the box, when also ``|z - cz| <= h/2``."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float
    class_id: int = 0
    instance_id: int = 0

    def __post_init__(self):
        if not (all(0 < s < np.inf for s in self.size)
                and np.all(np.isfinite([*self.center, self.yaw]))):
            raise ValueError("box size must be positive and finite, center and yaw finite")

    def pose(self) -> Se3Pose:
        return Se3Pose.from_yaw(self.yaw, self.center)

    @property
    def reach(self) -> float:
        """Half-side of a square around the centre that holds the footprint with a
        margin far above the rule's rounding: ``r + 1e-9 * (1 + r + |cx| + |cy|)``,
        ``r`` the radius of the circle through the footprint's corners."""
        r = np.hypot(self.size[0], self.size[1]) / 2.0
        return r + 1e-9 * (1.0 + r + abs(self.center[0]) + abs(self.center[1]))

    def footprint_contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The rule's footprint test of points (x, y)."""
        dx, dy = x - self.center[0], y - self.center[1]
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        return ((np.abs(dx * c + dy * s) <= self.size[0] / 2.0)
                & (np.abs(-dx * s + dy * c) <= self.size[1] / 2.0))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """The rule's box test of points of shape (..., 3)."""
        p = np.asarray(points, dtype=np.float64)
        return (self.footprint_contains(p[..., 0], p[..., 1])
                & (np.abs(p[..., 2] - self.center[2]) <= self.size[2] / 2.0))


# ---------------------------------------------------------------------------
# BEV layouts
# ---------------------------------------------------------------------------

_RESOLUTION_TOL = 1e-6  # absorbs float32 header rounding of on-disk resolutions


class BevLayout:
    """Ego-centered multi-hot raster: bits[i, j] is a uint16 channel bitmask, zero
    until :func:`layout_rasterize` sets it. Width and height are integers >= 1 and
    channels an integer in [0, 16] (not bools)."""

    MAX_CHANNELS = 16

    def __init__(self, width: int, height: int, resolution: float, channels: int):
        if not (_is_int(width) and _is_int(height) and width >= 1 and height >= 1):
            raise ValueError(f"layout size must be integers >= 1, not {width!r} x {height!r}")
        if not (_is_int(channels) and 0 <= channels <= self.MAX_CHANNELS):
            raise ValueError(f"channels must be an integer in [0, 16], not {channels!r}")
        if not 0 < resolution < np.inf:
            raise ValueError("resolution must be positive and finite")
        self.width = int(width)
        self.height = int(height)
        self.resolution = float(resolution)
        self.channels = int(channels)
        self.bits = np.zeros((self.width, self.height), dtype=np.uint16)

    @property
    def origin_xy(self) -> tuple[float, float]:
        return (-self.width * self.resolution / 2.0,
                -self.height * self.resolution / 2.0)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        ox, oy = self.origin_xy
        xs = ox + (np.arange(self.width) + 0.5) * self.resolution
        ys = oy + (np.arange(self.height) + 0.5) * self.resolution
        return np.meshgrid(xs, ys, indexing="ij")

    def _channel_bit(self, channel: int) -> np.uint16:
        """The bit of ``channel``, an integer in [0, channels) (not a bool)."""
        if not (_is_int(channel) and 0 <= channel < self.channels):
            raise ValueError(f"channel {channel!r} out of range: it must be an integer "
                             f"in [0, {self.channels})")
        return np.uint16(1 << int(channel))

    def channel_mask(self, channel: int) -> np.ndarray:
        return (self.bits & self._channel_bit(channel)) != 0

    def matches_grid(self, spec: GridSpec) -> bool:
        """Same size, resolution and xy origin (that within 1e-6 of the half extent)."""
        return (self.width == spec.dims[0] and self.height == spec.dims[1]
                and abs(self.resolution - spec.voxel_size) <= _RESOLUTION_TOL
                and all(abs(g - o) <= -_RESOLUTION_TOL * o
                        for g, o in zip(spec.origin, self.origin_xy)))


def points_in_polygon(points_xy: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over query points.

    points_xy: (..., 2); polygon: (V, 2) with V >= 3.
    """
    poly = np.asarray(polygon, dtype=np.float64)
    if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
        raise ValueError("polygon needs at least 3 (x, y) vertices")
    pts = np.asarray(points_xy, dtype=np.float64)
    x, y = pts[..., 0], pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xint, 0.0))
        x0, y0 = x1, y1
    return inside


def layout_rasterize(
    boxes: Sequence[OrientedBox],
    polygons: Sequence[tuple[int, np.ndarray]],
    width: int,
    height: int,
    resolution: float,
    channels: int,
    schema: LabelSchema,
) -> BevLayout:
    """Rasterize footprints into a multi-hot layout.

    A cell's bit is set when its center lies inside the footprint
    (:meth:`OrientedBox.footprint_contains` for boxes, tested only on the cells
    within :attr:`OrientedBox.reach` of the centre; even-odd rule for polygons).
    Boxes route to channels through ``schema.layout_channel_map``; unmapped
    classes are skipped. Polygons carry their channel explicitly. A channel
    that is not an integer in [0, channels) raises ``ValueError``.
    """
    layout = BevLayout(width, height, resolution, channels)
    cx, cy = layout.cell_centers()
    centers = np.stack([cx, cy], axis=-1)
    xs, ys = cx[:, 0], cy[0]

    def set_channel(mask: np.ndarray, channel: int, cells=np.s_[:, :]) -> None:
        layout.bits[cells][mask] |= layout._channel_bit(channel)

    for box in boxes:
        channel = schema.layout_channel_map.get(box.class_id)
        if channel is None:
            continue
        r = box.reach
        cells = tuple(slice(np.searchsorted(v, c - r), np.searchsorted(v, c + r, "right"))
                      for v, c in zip((xs, ys), box.center[:2]))
        set_channel(box.footprint_contains(cx[cells], cy[cells]), channel, cells)

    for channel, poly in polygons:
        set_channel(points_in_polygon(centers, poly), channel)

    return layout


@dataclass(frozen=True)
class OverwriteRule:
    """Relabel ground-band voxels under flagged layout cells.

    ``channel`` and ``new_class`` are integers >= 0 (not bools). ``mask`` is
    "full" (every flagged cell, for thin dividers) or "edge" (flagged cells
    whose 4-neighborhood contains an unflagged cell, for area classes).
    """

    channel: int
    new_class: int
    mask: str = "full"

    def __post_init__(self):
        if not all(_is_int(v) and v >= 0 for v in (self.channel, self.new_class)):
            raise ValueError(f"channel and new_class must be integers >= 0: {self!r}")
        if self.mask not in ("full", "edge"):
            raise ValueError("mask must be 'full' or 'edge'")


GROUND_BAND_Z = 2  # voxels with z index < GROUND_BAND_Z form the ground band


def _edge_cells(flagged: np.ndarray) -> np.ndarray:
    """Flagged cells with an unflagged 4-neighbor (out of raster = unflagged)."""
    padded = np.pad(flagged, 1, mode="constant", constant_values=False)
    n4 = (
        padded[:-2, 1:-1] & padded[2:, 1:-1]
        & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return flagged & ~n4


def layout_overwrite(
    grid: SemanticOccupancyGrid,
    layout: BevLayout,
    rules: Sequence[OverwriteRule],
) -> SemanticOccupancyGrid:
    """Stamp each rule's ``new_class`` into the grid's ground band; it must fit the dtype."""
    if not layout.matches_grid(grid.spec):
        raise ValueError("grid and layout footprints do not match")
    out = grid.copy()
    for rule in rules:
        if rule.new_class > np.iinfo(out.labels.dtype).max:
            raise ValueError(f"class {rule.new_class} does not fit the grid's {out.labels.dtype}")
        flagged = layout.channel_mask(rule.channel)
        cells = flagged if rule.mask == "full" else _edge_cells(flagged)
        out.labels[cells, :GROUND_BAND_Z] = rule.new_class
    return out


def bev_topdown_project(grid: SemanticOccupancyGrid, schema: LabelSchema) -> np.ndarray:
    """(X, Y) map of the lowest-z non-free class per column (free if none)."""
    occupied = grid.labels != schema.free_class
    any_occ = occupied.any(axis=2)
    first_z = occupied.argmax(axis=2)
    xi, yi = np.indices(any_occ.shape)
    out = grid.labels[xi, yi, first_z].astype(np.int64)
    out[~any_occ] = schema.free_class
    return out
