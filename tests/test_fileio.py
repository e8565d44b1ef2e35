import errno
import struct
import tracemalloc

import numpy as np
import pytest

from occkit import fileio
from occkit.core import GridSpec


def test_occg_round_trip(tmp_path):
    spec = GridSpec(dims=(6, 5, 4), origin=(-1.2, -1.0, -0.8), voxel_size=0.4)
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 21, size=spec.dims).astype(np.uint8)
    path = tmp_path / "g.occg"
    fileio.save_occg(path, spec, labels)
    spec2, labels2 = fileio.load_occg(path)
    assert spec2.dims == spec.dims
    assert abs(spec2.voxel_size - spec.voxel_size) < 1e-6
    assert np.allclose(spec2.origin, spec.origin, atol=1e-5)
    assert np.array_equal(labels2, labels)


def test_occg_wide_labels(tmp_path):
    spec = GridSpec(dims=(3, 3, 2), origin=(0, 0, 0), voxel_size=0.4)
    labels = np.full(spec.dims, 17000, dtype=np.int64)
    labels[0, 0, 0] = 4007
    path = tmp_path / "p.occg"
    fileio.save_occg(path, spec, labels)
    _, loaded = fileio.load_occg(path)
    assert loaded.dtype.itemsize == 2
    assert np.array_equal(loaded, labels)


# magic, version and dims, voxel size and origin, label width
OCCG_HEADER = 4 + 16 + 16 + 1


@pytest.mark.parametrize("top, width", [(255, 1), (256, 2), (65535, 2)])
def test_occg_label_width_boundaries(tmp_path, top, width):
    spec = GridSpec(dims=(2, 2, 2), origin=(0, 0, 0), voxel_size=1.0)
    labels = np.arange(8, dtype=np.int64).reshape(2, 2, 2)
    labels[1, 1, 1] = top
    path = tmp_path / "w.occg"
    fileio.save_occg(path, spec, labels)
    assert path.stat().st_size == OCCG_HEADER + 8 * width
    _, loaded = fileio.load_occg(path)
    assert loaded.dtype.itemsize == width
    assert np.array_equal(loaded, labels)


@pytest.mark.parametrize("bad", [65536, -1])
def test_occg_rejects_labels_outside_16_bits(tmp_path, bad):
    spec = GridSpec(dims=(2, 2, 2), origin=(0, 0, 0), voxel_size=1.0)
    labels = np.zeros(spec.dims, dtype=np.int64)
    labels[0, 1, 0] = bad
    path = tmp_path / "bad.occg"
    with pytest.raises(ValueError):
        fileio.save_occg(path, spec, labels)
    assert not path.exists()


def test_occg_serialization_order(tmp_path):
    # x-major / y-middle / z-minor flat order
    spec = GridSpec(dims=(2, 2, 2), origin=(0, 0, 0), voxel_size=1.0)
    labels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    path = tmp_path / "o.occg"
    fileio.save_occg(path, spec, labels)
    raw = path.read_bytes()
    assert raw[-8:] == bytes(range(8))


def test_pkpt_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    tensors = {
        "enc/w": rng.normal(size=(3, 4)),
        "enc/b": rng.normal(size=(4,)),
        "scalar_gate": np.asarray(0.25),
    }
    path = tmp_path / "m.pkpt"
    fileio.save_pkpt(path, tensors)
    loaded = fileio.load_pkpt(path)
    assert set(loaded) == set(tensors)
    for k in tensors:
        assert np.array_equal(loaded[k], np.asarray(tensors[k]))
        assert loaded[k].shape == np.asarray(tensors[k]).shape


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.occg"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        fileio.load_occg(path)


def test_occg_truncated_and_oversized(tmp_path):
    spec = GridSpec(dims=(4, 3, 2), origin=(0, 0, 0), voxel_size=0.4)
    path = tmp_path / "g.occg"
    fileio.save_occg(path, spec, np.ones(spec.dims, dtype=np.uint8))
    raw = path.read_bytes()
    for cut in (3, 10, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="declared"):  # refused before reading
            fileio.load_occg(path)
    # a header declaring 4000^3 two-byte labels, followed by a few bytes
    header = b"OCCG" + struct.pack("<IIII", 1, 4000, 4000, 4000)
    header += struct.pack("<ffff", 0.4, 0, 0, 0) + struct.pack("<B", 2)
    path.write_bytes(header + bytes(16))
    with pytest.raises(ValueError, match="truncated"):
        fileio.load_occg(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_occg_non_finite_header_rejected(tmp_path, bad):
    path = tmp_path / "g.occg"
    for voxel, oz in ((bad, 0.0), (0.4, bad)):
        header = b"OCCG" + struct.pack("<IIII", 1, 2, 2, 2)
        header += struct.pack("<ffff", voxel, 0.0, 0.0, oz) + struct.pack("<B", 1)
        path.write_bytes(header + bytes(8))
        with pytest.raises(ValueError, match="finite"):
            fileio.load_occg(path)


def test_occg_save_rejects_labels_of_another_shape(tmp_path):
    spec = GridSpec(dims=(4, 3, 2), origin=(0, 0, 0), voxel_size=0.4)
    path = tmp_path / "g.occg"
    for shape in ((2, 3, 4), (1, 3, 2), (24,)):
        with pytest.raises(ValueError, match="labels shape does not match grid dims"):
            fileio.save_occg(path, spec, np.zeros(shape, dtype=np.uint8))
    assert not path.exists()


@pytest.mark.parametrize("version, width, message", [
    (0, 1, "unsupported OCCG version 0"), (2, 1, "unsupported OCCG version 2"),
    (1, 0, "bad label width 0"), (1, 3, "bad label width 3"), (1, 4, "bad label width 4")])
def test_occg_unknown_version_or_label_width_rejected(tmp_path, version, width, message):
    path = tmp_path / "g.occg"
    header = b"OCCG" + struct.pack("<IIII", version, 2, 2, 2)
    header += struct.pack("<ffff", 0.4, 0.0, 0.0, 0.0) + struct.pack("<B", width)
    path.write_bytes(header + bytes(8 * 4))
    with pytest.raises(ValueError, match=message):
        fileio.load_occg(path)


def test_pkpt_truncated_and_oversized(tmp_path):
    path = tmp_path / "c.pkpt"
    fileio.save_pkpt(path, {"w": np.ones((2, 3)), "b": np.zeros(3)})
    raw = path.read_bytes()
    for cut in (2, 9, 20, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            fileio.load_pkpt(path)
    # one tensor declaring 100000^3 elements
    body = struct.pack("<I", 1) + b"w" + struct.pack("<I", 3)
    body += struct.pack("<3I", 100000, 100000, 100000)
    path.write_bytes(b"PKPT" + struct.pack("<I", 1) + body + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        fileio.load_pkpt(path)
    # a rank whose shape would overflow a 64-bit product, and a huge name
    body = struct.pack("<I", 1) + b"w" + struct.pack("<I", 4) + struct.pack("<4I", *[2**31] * 4)
    path.write_bytes(b"PKPT" + struct.pack("<I", 1) + body + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        fileio.load_pkpt(path)
    path.write_bytes(b"PKPT" + struct.pack("<II", 1, 2**32 - 1) + bytes(8))
    with pytest.raises(ValueError, match="truncated"):
        fileio.load_pkpt(path)


def test_pkpt_rejects_a_repeated_tensor_name(tmp_path):
    record = struct.pack("<I", 1) + b"w" + struct.pack("<II", 1, 1)
    path = tmp_path / "dup.pkpt"
    path.write_bytes(b"PKPT" + struct.pack("<I", 2)
                     + record + struct.pack("<d", 1.0) + record + struct.pack("<d", 2.0))
    with pytest.raises(ValueError, match="repeated"):
        fileio.load_pkpt(path)


# format: (save a small valid file, its loader, bytes before its first payload,
# a header that declares a payload of about 16 MB)
CONTAINERS = {
    "occg": (lambda p: fileio.save_occg(p, GridSpec((2, 2, 2), (0, 0, 0), 1.0), np.ones((2, 2, 2))),
             fileio.load_occg, OCCG_HEADER,
             b"OCCG" + struct.pack("<IIIIffffB", 1, 256, 256, 256, 1.0, 0, 0, 0, 1)),
    # count, name length, name, rank, dims
    "pkpt": (lambda p: fileio.save_pkpt(p, {"w": np.ones((2, 3))}),
             fileio.load_pkpt, 4 + 4 + 4 + 1 + 4 + 8,
             b"PKPT" + struct.pack("<II", 1, 1) + b"w" + struct.pack("<II", 1, 2 ** 21)),
}


@pytest.mark.parametrize("fmt", CONTAINERS)
def test_truncated_file_is_refused(tmp_path, fmt):
    save, load, start, _ = CONTAINERS[fmt]
    path = tmp_path / f"x.{fmt}"
    save(path)
    raw = path.read_bytes()
    assert len(raw) > start
    load(path)
    # inside the magic, inside the header, inside the payload
    for cut in (2, (4 + start) // 2, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="declared"):
            load(path)


@pytest.mark.parametrize("fmt", CONTAINERS)
def test_oversized_payload_is_refused_before_it_is_allocated(tmp_path, fmt):
    _, load, _, header = CONTAINERS[fmt]
    path = tmp_path / f"x.{fmt}"
    path.write_bytes(header + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="declared"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


class DiskFull:
    """An open file that takes its first write, then fails as a full disk does."""

    def __init__(self, path, mode):
        self.file, self.writes = open(path, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.file.write(data)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


@pytest.mark.parametrize("fmt", CONTAINERS)
def test_a_failing_save_leaves_the_old_file(tmp_path, monkeypatch, fmt):
    save, load, _, _ = CONTAINERS[fmt]
    path = tmp_path / f"x.{fmt}"
    save(path)
    old = path.read_bytes()
    monkeypatch.setattr(fileio, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="No space"):
        save(path)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    save(path)          # a save that succeeds replaces the file and leaves nothing else
    assert path.read_bytes() == old and list(tmp_path.iterdir()) == [path]


def test_a_pkpt_save_failing_on_a_later_tensor_leaves_the_old_file(tmp_path):
    path = tmp_path / "m.pkpt"
    fileio.save_pkpt(path, {"w": np.arange(4.0)})
    old = path.read_bytes()
    with pytest.raises(ValueError):
        fileio.save_pkpt(path, {"a": np.ones(2), "b": "x"})
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]
    assert np.array_equal(fileio.load_pkpt(path)["w"], np.arange(4.0))
