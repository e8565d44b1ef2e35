import struct

import numpy as np
import pytest

from occkit import fileio
from occkit.core import BevLayout, GridSpec, LabelSchema, OverwriteRule, Se3Pose


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


def test_occg_serialization_order(tmp_path):
    # x-major / y-middle / z-minor flat order
    spec = GridSpec(dims=(2, 2, 2), origin=(0, 0, 0), voxel_size=1.0)
    labels = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    path = tmp_path / "o.occg"
    fileio.save_occg(path, spec, labels)
    raw = path.read_bytes()
    assert raw[-8:] == bytes(range(8))


def test_bevl_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    layout = BevLayout(8, 6, 0.4, 15,
                       rng.integers(0, 2 ** 15, size=(8, 6), dtype=np.uint16))
    path = tmp_path / "l.bevl"
    fileio.save_bevl(path, layout)
    loaded = fileio.load_bevl(path)
    assert (loaded.width, loaded.height, loaded.channels) == (8, 6, 15)
    assert np.array_equal(loaded.bits, layout.bits)


def test_lpcd_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(100, 3)).astype(np.float32).astype(np.float64)
    labels = rng.integers(1000, 18000, size=100)
    path = tmp_path / "c.lpcd"
    fileio.save_lpcd(path, pts, labels)
    pts2, labels2 = fileio.load_lpcd(path)
    assert np.array_equal(pts2, pts)
    assert np.array_equal(labels2, labels)


def test_plane_containers(tmp_path):
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(5, 7, 3)).astype(np.float32).astype(np.float64)
    plk = rng.normal(size=(5, 7, 6)).astype(np.float32).astype(np.float64)
    fileio.save_cbuf(tmp_path / "a.cbuf", coords)
    fileio.save_plkb(tmp_path / "a.plkb", plk)
    assert np.array_equal(fileio.load_cbuf(tmp_path / "a.cbuf"), coords)
    assert np.array_equal(fileio.load_plkb(tmp_path / "a.plkb"), plk)


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


def test_schema_json_round_trip(tmp_path):
    schema = LabelSchema.toy()
    obj = fileio.schema_to_json(schema)
    back = fileio.schema_from_json(obj)
    assert back == schema


def test_rules_json_round_trip():
    rules = [OverwriteRule(2, 13, "full"), OverwriteRule(5, 14, "edge")]
    assert fileio.rules_from_json(fileio.rules_to_json(rules)) == rules


def test_pose_json_round_trip():
    pose = Se3Pose.from_yaw(0.4, (1.0, -2.0, 0.5))
    back = fileio.pose_from_json(fileio.pose_to_json(pose))
    assert np.allclose(back.rotation, pose.rotation, atol=1e-15)
    assert np.allclose(back.translation, pose.translation, atol=1e-15)


def test_occg_truncated_and_oversized(tmp_path):
    spec = GridSpec(dims=(4, 3, 2), origin=(0, 0, 0), voxel_size=0.4)
    path = tmp_path / "g.occg"
    fileio.save_occg(path, spec, np.ones(spec.dims, dtype=np.uint8))
    raw = path.read_bytes()
    for cut in (3, 10, len(raw) - 1):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_bevl_non_finite_header_rejected(tmp_path, bad):
    path = tmp_path / "l.bevl"
    path.write_bytes(b"BEVL" + struct.pack("<IIfB", 2, 2, bad, 3) + bytes(8))
    with pytest.raises(ValueError, match="finite"):
        fileio.load_bevl(path)


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
