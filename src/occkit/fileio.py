"""Binary containers and JSON sidecar formats.

All binary formats are little-endian with a 4-byte ASCII magic:

* ``OCCG`` occupancy grid: magic, u32 version=1, u32 X, u32 Y, u32 Z,
  f32 voxel_size, 3 x f32 origin, u8 label_width in {1, 2}, then
  X*Y*Z labels in x-major / y-middle / z-minor order.
* ``BEVL`` layout: magic, u32 W, u32 H, f32 resolution, u8 channels,
  then W*H u16 channel bitmasks.
* ``LPCD`` labeled point cloud: magic, u32 N, then N records of
  3 x f32 xyz + u32 panoptic label.
* ``CBUF`` coordinate buffer: magic, u32 W, u32 H, then 3 row-major
  f32 planes (world x, y, z).
* ``PLKB`` ray embedding: magic, u32 W, u32 H, then 6 row-major f32
  planes (direction xyz, moment xyz).
* ``PKPT`` parameter checkpoint: magic, u32 count, then per tensor
  u32 name length, name bytes, u32 rank, u32 dims, f64 data.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Mapping

import numpy as np

from .core import BevLayout, GridSpec, LabelSchema, OverwriteRule, Se3Pose


def _read_exact(f: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes; a size beyond the file's end is refused unread.

    Checking against the bytes left keeps a header that declares a huge
    payload from allocating it.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(f"truncated file: {n} bytes declared, {left} left")
    data = f.read(n)
    if len(data) != n:
        raise ValueError("truncated file")
    return data


def _expect_magic(f: BinaryIO, magic: bytes) -> None:
    got = _read_exact(f, 4)
    if got != magic:
        raise ValueError(f"bad magic {got!r}, expected {magic!r}")


# ---------------------------------------------------------------------------
# OCCG
# ---------------------------------------------------------------------------


def save_occg(path: str | Path, spec: GridSpec, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.shape != tuple(spec.dims):
        raise ValueError("labels shape does not match grid dims")
    width = 1 if labels.size == 0 or int(labels.max()) < 256 else 2
    dtype = "<u1" if width == 1 else "<u2"
    if labels.size and (int(labels.min()) < 0 or int(labels.max()) > 0xFFFF):
        raise ValueError("labels out of range for 16-bit storage")
    with open(path, "wb") as f:
        f.write(b"OCCG")
        f.write(struct.pack("<IIII", 1, *spec.dims))
        f.write(struct.pack("<ffff", spec.voxel_size, *spec.origin))
        f.write(struct.pack("<B", width))
        f.write(np.ascontiguousarray(labels).astype(dtype).tobytes())


def load_occg(path: str | Path) -> tuple[GridSpec, np.ndarray]:
    with open(path, "rb") as f:
        _expect_magic(f, b"OCCG")
        version, x, y, z = struct.unpack("<IIII", _read_exact(f, 16))
        if version != 1:
            raise ValueError(f"unsupported OCCG version {version}")
        voxel, ox, oy, oz = struct.unpack("<ffff", _read_exact(f, 16))
        (width,) = struct.unpack("<B", _read_exact(f, 1))
        if width not in (1, 2):
            raise ValueError(f"bad label width {width}")
        dtype = "<u1" if width == 1 else "<u2"
        raw = _read_exact(f, x * y * z * width)
    labels = np.frombuffer(raw, dtype=dtype).reshape(x, y, z)
    spec = GridSpec(dims=(x, y, z), origin=(float(ox), float(oy), float(oz)),
                    voxel_size=float(voxel))
    return spec, labels.copy()


# ---------------------------------------------------------------------------
# BEVL
# ---------------------------------------------------------------------------


def save_bevl(path: str | Path, layout: BevLayout) -> None:
    with open(path, "wb") as f:
        f.write(b"BEVL")
        f.write(struct.pack("<IIfB", layout.width, layout.height,
                            layout.resolution, layout.channels))
        f.write(np.ascontiguousarray(layout.bits).astype("<u2").tobytes())


def load_bevl(path: str | Path) -> BevLayout:
    with open(path, "rb") as f:
        _expect_magic(f, b"BEVL")
        w, h, res, channels = struct.unpack("<IIfB", _read_exact(f, 13))
        raw = _read_exact(f, w * h * 2)
    bits = np.frombuffer(raw, dtype="<u2").reshape(w, h)
    return BevLayout(w, h, float(res), channels, bits.copy())


# ---------------------------------------------------------------------------
# LPCD
# ---------------------------------------------------------------------------


def save_lpcd(path: str | Path, points: np.ndarray, labels: np.ndarray) -> None:
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) != len(labels):
        raise ValueError("points must be (N, 3) with matching labels")
    rec = np.empty(len(points), dtype=[("xyz", "<f4", (3,)), ("label", "<u4")])
    rec["xyz"] = points.astype(np.float32)
    rec["label"] = labels.astype(np.uint32)
    with open(path, "wb") as f:
        f.write(b"LPCD")
        f.write(struct.pack("<I", len(points)))
        f.write(rec.tobytes())


def load_lpcd(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as f:
        _expect_magic(f, b"LPCD")
        (n,) = struct.unpack("<I", _read_exact(f, 4))
        raw = _read_exact(f, n * 16)
    rec = np.frombuffer(raw, dtype=[("xyz", "<f4", (3,)), ("label", "<u4")])
    return rec["xyz"].astype(np.float64), rec["label"].astype(np.int64)


# ---------------------------------------------------------------------------
# CBUF / PLKB planes
# ---------------------------------------------------------------------------


def _save_planes(path: str | Path, magic: bytes, planes: np.ndarray, count: int) -> None:
    planes = np.asarray(planes)
    if planes.ndim != 3 or planes.shape[2] != count:
        raise ValueError(f"expected (H, W, {count}) array")
    h, w = planes.shape[:2]
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<II", w, h))
        for c in range(count):
            f.write(np.ascontiguousarray(planes[:, :, c]).astype("<f4").tobytes())


def _load_planes(path: str | Path, magic: bytes, count: int) -> np.ndarray:
    with open(path, "rb") as f:
        _expect_magic(f, magic)
        w, h = struct.unpack("<II", _read_exact(f, 8))
        raw = _read_exact(f, w * h * 4 * count)
    flat = np.frombuffer(raw, dtype="<f4").reshape(count, h, w)
    return np.moveaxis(flat, 0, -1).astype(np.float64)


def save_cbuf(path: str | Path, coords: np.ndarray) -> None:
    """Coordinate buffer (H, W, 3) -> CBUF container."""
    _save_planes(path, b"CBUF", coords, 3)


def load_cbuf(path: str | Path) -> np.ndarray:
    return _load_planes(path, b"CBUF", 3)


def save_plkb(path: str | Path, plucker: np.ndarray) -> None:
    """Ray embedding (H, W, 6) -> PLKB container."""
    _save_planes(path, b"PLKB", plucker, 6)


def load_plkb(path: str | Path) -> np.ndarray:
    return _load_planes(path, b"PLKB", 6)


# ---------------------------------------------------------------------------
# PKPT checkpoints
# ---------------------------------------------------------------------------


def save_pkpt(path: str | Path, tensors: Mapping[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(b"PKPT")
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype=np.float64)
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


def load_pkpt(path: str | Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        _expect_magic(f, b"PKPT")
        (count,) = struct.unpack("<I", _read_exact(f, 4))
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(f, 4))
            name = _read_exact(f, name_len).decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(f, 4))
            shape = struct.unpack(f"<{rank}I", _read_exact(f, 4 * rank))
            n = math.prod(shape)
            raw = _read_exact(f, n * 8)
            out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return out


# ---------------------------------------------------------------------------
# JSON sidecars
# ---------------------------------------------------------------------------


def dump_json(path: str | Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def load_json(path: str | Path):
    with open(path) as f:
        return json.load(f)


def schema_to_json(schema: LabelSchema) -> dict:
    return {
        "num_classes": schema.num_classes,
        "free_class": schema.free_class,
        "thing_classes": sorted(schema.thing_classes),
        "stuff_classes": sorted(schema.stuff_classes),
        "layout_channel_map": {str(k): v for k, v in schema.layout_channel_map.items()},
    }


def schema_from_json(obj: dict) -> LabelSchema:
    return LabelSchema(
        num_classes=int(obj["num_classes"]),
        free_class=int(obj["free_class"]),
        thing_classes=frozenset(int(c) for c in obj["thing_classes"]),
        stuff_classes=frozenset(int(c) for c in obj["stuff_classes"]),
        layout_channel_map={int(k): int(v) for k, v in obj["layout_channel_map"].items()},
    )


def rules_from_json(items: list[dict]) -> list[OverwriteRule]:
    return [OverwriteRule(channel=int(r["channel"]), new_class=int(r["new_class"]),
                          mask=str(r.get("mask", "full"))) for r in items]


def rules_to_json(rules: list[OverwriteRule]) -> list[dict]:
    return [{"channel": r.channel, "new_class": r.new_class, "mask": r.mask}
            for r in rules]


def pose_to_json(pose: Se3Pose) -> dict:
    return {"rotation": [list(map(float, row)) for row in pose.rotation],
            "translation": list(map(float, pose.translation))}


def pose_from_json(obj: dict) -> Se3Pose:
    return Se3Pose(np.asarray(obj["rotation"], dtype=np.float64),
                   np.asarray(obj["translation"], dtype=np.float64))
