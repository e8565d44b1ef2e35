"""Binary containers.

Every binary format has one layout: a 4-byte ASCII magic, a little-endian
header, then a payload whose size the header declares. Every declared size
is checked against the bytes left in the file before it is read, so a
hostile header cannot make a loader allocate what the file does not hold.
The headers and payloads:

* ``OCCG`` occupancy grid: u32 version=1, u32 X, u32 Y, u32 Z,
  f32 voxel_size, 3 x f32 origin, u8 label_width in {1, 2}, then
  X*Y*Z labels in x-major / y-middle / z-minor order.
* ``PKPT`` parameter checkpoint: u32 count, then per tensor
  u32 name length, name bytes, u32 rank, u32 dims, f64 data.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .core import GridSpec


def _read_exact(f: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes; a size beyond the file's end is refused unread."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise ValueError(f"truncated file: {n} bytes declared, {left} left")
    data = f.read(n)
    if len(data) != n:
        raise ValueError("truncated file")
    return data


@contextmanager
def _reading(path: str | Path, magic: bytes) -> Iterator[BinaryIO]:
    """The file opened for reading, past its checked magic."""
    with open(path, "rb") as f:
        got = _read_exact(f, len(magic))
        if got != magic:
            raise ValueError(f"bad magic {got!r}, expected {magic!r}")
        yield f


def _unpack(f: BinaryIO, fmt: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt)))


def _array(f: BinaryIO, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """A writable C-order array of ``shape``, its size checked before it is read."""
    dtype = np.dtype(dtype)
    raw = _read_exact(f, math.prod(shape) * dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def _save(path: str | Path, magic: bytes, fmt: str, header: tuple,
          payload: Iterable[bytes]) -> None:
    """Write a temporary sibling, renamed over ``path`` on success and removed on failure."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(magic + struct.pack(fmt, *header))
            f.writelines(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Containers, one save and one load per format
# ---------------------------------------------------------------------------


def save_occg(path: str | Path, spec: GridSpec, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.shape != tuple(spec.dims):
        raise ValueError("labels shape does not match grid dims")
    width = 1 if labels.size == 0 or int(labels.max()) < 256 else 2
    if labels.size and (int(labels.min()) < 0 or int(labels.max()) > 0xFFFF):
        raise ValueError("labels out of range for 16-bit storage")
    _save(path, b"OCCG", "<IIIIffffB", (1, *spec.dims, spec.voxel_size, *spec.origin, width),
          [labels.astype("<u1" if width == 1 else "<u2").tobytes()])


def load_occg(path: str | Path) -> tuple[GridSpec, np.ndarray]:
    with _reading(path, b"OCCG") as f:
        (version,) = _unpack(f, "<I")
        if version != 1:
            raise ValueError(f"unsupported OCCG version {version}")
        x, y, z, voxel, ox, oy, oz, width = _unpack(f, "<IIIffffB")
        if width not in (1, 2):
            raise ValueError(f"bad label width {width}")
        labels = _array(f, "<u1" if width == 1 else "<u2", (x, y, z))
    spec = GridSpec(dims=(x, y, z), origin=(float(ox), float(oy), float(oz)),
                    voxel_size=float(voxel))
    return spec, labels


def save_pkpt(path: str | Path, tensors: Mapping[str, np.ndarray]) -> None:
    def records():  # one tensor at a time, so no second copy of the model is held
        for name, arr in tensors.items():
            arr = np.asarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            yield struct.pack(f"<I{len(encoded)}sI{arr.ndim}I",
                              len(encoded), encoded, arr.ndim, *arr.shape)
            yield arr.tobytes()

    _save(path, b"PKPT", "<I", (len(tensors),), records())


def load_pkpt(path: str | Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with _reading(path, b"PKPT") as f:
        (count,) = _unpack(f, "<I")
        for _ in range(count):
            (name_len,) = _unpack(f, "<I")
            name = _read_exact(f, name_len).decode("utf-8")
            if name in out:
                raise ValueError(f"tensor name {name!r} repeated")
            (rank,) = _unpack(f, "<I")
            out[name] = _array(f, "<f8", _unpack(f, f"<{rank}I"))
    return out
