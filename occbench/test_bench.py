"""Tests of the benchmark itself: the scene builder, the output checks
(each must catch a planted wrong answer), and computed counts that must
repeat exactly for a seed. Run: PYTHONPATH=src python -m pytest occbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_checks as checks
import run
from bench_scene import build_scene
from bench_workloads import Sizes, curate
from occkit import core, pipeline, render, vae
from occkit.core import GridSpec, LabelSchema, PanopticVoxelGrid

TINY = Sizes(
    grid=GridSpec((32, 32, 8), (-6.4, -6.4, -1.6), 0.4),
    points=20_000, queries=400, vae_crop=16,
    scene_cam=(8, 6, 4.0), rig_cam=(16, 9, 8.0), max_range=20.0,
    toy_grid=GridSpec((32, 32, 4), (-6.4, -6.4, -0.8), 0.4), toy_points=5_000,
    train_cfg=vae.VaeConfig(grid_dims=(8, 8, 4), hidden=(8, 8, 8),
                            spatial_downsample=2, attn_heads=2),
    fixed_steps=20, check_queries=16, check_voxels=256, check_rays=16,
)

COUNTS = (*checks.RENDER_COUNTS, "nn.conv2d.gflop", "nn.conv2d.mbytes",
          "nn.conv2d_backward.gflop", "nn.conv2d_backward.mbytes", "nn.sigmoid.calls",
          "fileio.bytes")


@pytest.fixture(scope="module")
def curated():
    scene = build_scene(3, LabelSchema(), TINY.grid, TINY.points, TINY.queries)
    return scene, curate(scene, TINY.knn_k)


@pytest.mark.parametrize("schema", [LabelSchema(), LabelSchema.toy()])
def test_scene_is_seeded_and_uses_the_schema(schema):
    a = build_scene(5, schema, TINY.grid, TINY.points, TINY.queries)
    b = build_scene(5, schema, TINY.grid, TINY.points, TINY.queries)
    c = build_scene(6, schema, TINY.grid, TINY.points, TINY.queries)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert np.array_equal(a.cloud.labels, b.cloud.labels)
    assert not np.array_equal(a.cloud.points, c.cloud.points)
    classes = set(np.unique(a.cloud.labels // core.INSTANCE_BASE))
    assert classes <= schema.thing_classes | schema.stuff_classes
    assert classes & schema.thing_classes and classes & schema.stuff_classes


def test_voxelize_check_catches_one_flipped_voxel(curated):
    scene, cur = curated
    cloud, got = cur["cloud"], cur["panoptic"].labels.copy()
    free = PanopticVoxelGrid.FREE_LABEL
    assert checks.check_voxelize(cloud.points, cloud.labels, scene.spec, free, got) == []
    occupied = np.argwhere(got != free)[0]
    got[tuple(occupied)] = free
    assert checks.check_voxelize(cloud.points, cloud.labels, scene.spec, free, got)


def test_knn_check_catches_one_wrong_label(curated):
    scene, cur = curated
    cloud, got = cur["cloud"], cur["knn"].copy()
    sample = np.arange(0, TINY.queries, 25)
    assert checks.check_knn(cloud.points, cloud.labels, scene.queries, TINY.knn_k,
                            got, sample) == []
    got[sample[3]] += 1
    assert checks.check_knn(cloud.points, cloud.labels, scene.queries, TINY.knn_k,
                            got, sample)


def test_resample_and_overwrite_checks_catch_one_flipped_voxel(curated):
    scene, cur = curated
    sample = np.argwhere(np.ones(scene.spec.dims, dtype=bool))
    shifted = cur["shifted"].labels.copy()
    args = (cur["semantic"].labels, scene.spec, scene.shift.transform,
            scene.schema.free_class)
    assert checks.check_resample(*args, shifted, sample) == []
    shifted[4, 5, 6] = (shifted[4, 5, 6] + 1) % scene.schema.num_classes
    assert checks.check_resample(*args, shifted, sample)
    grid = cur["grid"].labels.copy()
    assert checks.check_overwrite(cur["shifted"].labels, cur["layout"], scene.rules,
                                  grid) == []
    grid[1, 2, 3] = (grid[1, 2, 3] + 1) % scene.schema.num_classes
    assert checks.check_overwrite(cur["shifted"].labels, cur["layout"], scene.rules, grid)


def test_camera_check_catches_one_wrong_hit(curated):
    scene, cur = curated
    grid, schema = cur["grid"], scene.schema
    cam = render.standard_rig(fx=8.0, width=16, height=9, z=0.7).cameras[1]
    buf = render.raycast_buffers(grid, cam, TINY.max_range, schema)
    rng = np.random.default_rng(0)
    assert checks.check_camera(grid, cam, buf, TINY.max_range, schema.free_class, rng) == []
    assert buf.hit_mask.any()
    v, u = np.argwhere(buf.hit_mask)[0]
    free_voxel = np.argwhere(grid.labels == schema.free_class)[0]
    buf.coordinate[v, u] = grid.spec.index_to_center(free_voxel)
    assert checks.check_camera(grid, cam, buf, TINY.max_range, schema.free_class, rng)


def test_ray_steps_match_a_single_axis_ray():
    spec = GridSpec((10, 4, 4), (0.0, 0.0, 0.0), 1.0)
    grid = core.SemanticOccupancyGrid(spec, np.full(spec.dims, 20, dtype=np.uint8))
    grid.labels[7, 2, 2] = 3
    pose = core.Se3Pose(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]]),
                        np.array([0.5, 2.5, 2.5]))      # camera +z looks along world +x
    cam = render.Camera(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1, pose=pose)
    buf = render.raycast_buffers(grid, cam, 50.0, LabelSchema())
    assert checks.ray_steps(spec, cam, buf, 50.0).tolist() == [8]
    grid.labels[7, 2, 2] = 20
    buf = render.raycast_buffers(grid, cam, 50.0, LabelSchema())
    assert checks.ray_steps(spec, cam, buf, 50.0).tolist() == [10]


@pytest.mark.parametrize("workload", ["scene_e2e", "rig24_render", "vae_train"])
def test_traced_run_is_correct_and_counts_repeat(workload, tmp_path):
    first, rec1 = run.run(workload, 4, 0.0, True, TINY, tmp_path)
    second, rec2 = run.run(workload, 4, 0.0, True, TINY, tmp_path)
    assert first["correct"] and first["failed"] == 0
    assert rec1["output_hash"] == rec2["output_hash"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    spans = [json.loads(line) for line in (tmp_path / Path(rec1["spans"]).name).open()]
    assert {"id", "parent", "op", "name", "start", "end"} <= spans[0].keys()


@pytest.mark.parametrize("workload, function", [("rig24_render", "knn_propagate"),
                                                ("rig24_render", "resample_occupancy"),
                                                ("vae_train", "voxelize_majority")])
def test_set_up_output_is_checked(workload, function, tmp_path, monkeypatch):
    right = getattr(pipeline, function)

    def wrong(*args, **kwargs):
        out = right(*args, **kwargs)
        labels = out if isinstance(out, np.ndarray) else out.labels
        labels.reshape(-1)[::2] += 1        # a systematic off-by-one
        return out

    monkeypatch.setattr(pipeline, function, wrong)
    result, record = run.run(workload, 4, 0.0, False, TINY, tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert any(function in p for p in record["problems"])


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    result, record = run.run("vae_train", 4, 0.0, False, TINY, tmp_path)
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "final_loss" in record["named"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "occbench")
    proc = subprocess.run([sys.executable, "occbench/run.py", "--workload", "vae_train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
