"""Golden outputs: one small seeded benchmark scene through every stage.

Each stage's outputs are fingerprinted with the benchmark's ``digest`` and
compared with a constant here, so a change that moves any output fails
this test and names the first stage that moved (later stages read its
output, so they usually move with it). The scene comes from the
benchmark's ``bench_scene.build_scene``, imported as it is.

A change that moves an output on purpose updates that stage's constant
and says which and why.

Every stage but ``vae_steps`` is host-independent: no geometry goes through
BLAS (``Se3Pose.rotate`` is the one 3x3 product), and the profile test below
requires each of their digests under other OpenBLAS kernels and without
numpy's AVX-512 paths. ``vae_steps`` goes through BLAS GEMMs and numpy's
``exp`` and ``log``, which round by kernel and SIMD path. So it runs in a
child interpreter under one pinned profile that every x86-64 host with AVX2
and FMA can run: OpenBLAS's Haswell kernel, and numpy off its AVX-512 paths.
Its digest holds there on one BLAS thread or two, whatever profile the
tests themselves run under.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import occkit
from occkit import core, fileio, nn, pipeline, render, vae
from occkit.core import GridSpec, LabelSchema, SemanticOccupancyGrid

from test_nn import cpu_flags, numpy_blas

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "occbench"))
from bench_checks import digest  # noqa: E402
from bench_scene import build_scene  # noqa: E402

SPEC = GridSpec((32, 32, 8), (-6.4, -6.4, -1.6), 0.4)
# as the benchmark's rigs: 1.5 m above the ground band, off voxel boundary planes
CAMERA = dict(fx=8.0, width=16, height=9, z=-1.6 + core.GROUND_BAND_Z * 0.4 + 1.5)
VAE = vae.VaeConfig(grid_dims=(8, 8, 8), num_classes=LabelSchema().num_classes,
                    hidden=(8, 8, 8), spatial_downsample=2, attn_heads=2)

# vae_steps is its digest under the pinned profile (PINNED below). remove,
# cameras6 and cameras24 moved once when Se3Pose.apply (which places the
# scene's asset points) and Camera.pixel_directions left BLAS for the stated
# rotation rule; the new digests are the ones the BLAS code gave under the
# OpenBLAS Sandybridge kernel, which has no FMA. vae_steps moved once when
# each attention block's three bias-free q, k, v projections became one
# fused qkv projection with a bias, and its output projection gained a bias
GOLDEN = {
    "remove": "68c204cf1529f29e",
    "voxelize": "d244ccef7273afaf",
    "knn": "3e03cb7de961a4a9",
    "resample": "b62a5938ce4967f7",
    "layout_overwrite": "e74e308dc5382e9c",
    "occg_round_trip": "8c968f6d7a4eb47a",
    "cameras6": "7c8f32b5940c3d6f",
    "cameras24": "5c1abd6d6c9d959d",
    "vae_steps": "7bf38d04f65b3d44",
}


def buffers_digest(grid, rig, schema) -> str:
    buffers = [render.raycast_buffers(grid, cam, 20.0, schema) for cam in rig.cameras]
    return digest(*(a for b in buffers
                    for a in (b.hit_mask, b.semantic, b.coordinate, b.plucker)))


def scene_digests(tmp_path) -> tuple[dict[str, str], np.ndarray]:
    """The digest of every stage but ``vae_steps``, and the VAE's batch."""
    schema = LabelSchema()
    scene = build_scene(7, schema, SPEC, n_points=20_000, n_queries=400)
    out = {}
    cloud = pipeline.remove_points_in_boxes(scene.cloud, scene.dynamic_boxes)
    out["remove"] = digest(cloud.points, cloud.labels)
    panoptic = pipeline.voxelize_majority(cloud, SPEC, schema)
    semantic = panoptic.to_semantic(schema)
    out["voxelize"] = digest(panoptic.labels, semantic.labels)
    # k = 1 at the cloud's own points: the scene copies some points under other
    # labels, so the (distance, index) rule decides those rows
    out["knn"] = digest(pipeline.knn_propagate(cloud, scene.queries, 5),
                        pipeline.knn_propagate(cloud, cloud.points, 1))
    shifted = pipeline.resample_occupancy(semantic, scene.shift, schema)
    out["resample"] = digest(shifted.labels)
    layout = core.layout_rasterize(scene.boxes, scene.polygons, SPEC.dims[0], SPEC.dims[1],
                                   SPEC.voxel_size, schema.num_layout_channels, schema)
    grid = core.layout_overwrite(shifted, layout, scene.rules)
    out["layout_overwrite"] = digest(layout.bits, grid.labels)
    path = tmp_path / "golden.occg"
    fileio.save_occg(path, SPEC, grid.labels)
    loaded = SemanticOccupancyGrid(*fileio.load_occg(path))
    out["occg_round_trip"] = digest(np.frombuffer(path.read_bytes(), np.uint8), loaded.labels)
    rig = render.standard_rig(**CAMERA)
    out["cameras6"] = buffers_digest(loaded, rig, schema)
    rig24 = render.densify_rig(render.densify_rig(rig, 1), 1)
    out["cameras24"] = buffers_digest(loaded, rig24, schema)
    return out, np.stack([loaded.labels[:8, :8], loaded.labels[12:20, 16:24]]).astype(np.int64)


def vae_digest(batch: np.ndarray) -> str:
    """The ``vae_steps`` digest: three train steps on ``batch``."""
    params = vae.init_vae_params(VAE, nn.stream(7, "golden/vae"))
    adam, noise = nn.adam_init(params), nn.stream(7, "golden/noise")
    losses = []
    for _ in range(3):
        grads = nn.zero_grads(params)
        losses.append(vae.vae_train_step(params, grads, VAE, batch, noise)["loss"])
        nn.clip_grads(grads, 1.0)
        nn.adam_step(params, grads, adam, lr=1e-3)
    return digest(np.array(losses), *(params[k] for k in sorted(params)))


PROFILE_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# vae_steps' one profile; only a host with AVX-512 has AVX-512 paths to turn off
PINNED = {"OPENBLAS_CORETYPE": "Haswell", **(NO_AVX512 if "avx512f" in cpu_flags() else {})}


def run_child(env: dict[str, str], expr: str, arg) -> object:
    """The JSON value of ``expr`` (which may read ``test_golden`` and ``sys.argv[1]``,
    that is ``arg``) in a child interpreter whose numeric profile is ``env`` alone."""
    here = Path(__file__).resolve().parent
    paths = [str(Path(occkit.__file__).resolve().parents[1]), str(here)]
    base = {k: v for k, v in os.environ.items() if k not in PROFILE_VARIABLES}
    code = f"import json, pathlib, sys, numpy as np, test_golden; print(json.dumps({expr}))"
    done = subprocess.run([sys.executable, "-c", code, str(arg)], cwd=here,
                          env={**base, **env, "PYTHONPATH": os.pathsep.join(paths)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_every_stage_output_matches_its_golden_digest(tmp_path):
    got, _ = scene_digests(tmp_path)
    moved = [stage for stage in GOLDEN if stage != "vae_steps" and got[stage] != GOLDEN[stage]]
    assert moved == [], f"first stage that moved: {moved[0]}; digests now {got}"


@pytest.mark.skipif("openblas" not in numpy_blas().lower(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.skipif(not {"avx2", "fma"} <= cpu_flags(), reason="the CPU lacks AVX2 or FMA")
def test_vae_steps_match_their_golden_digest_under_the_pinned_profile(tmp_path):
    _, batch = scene_digests(tmp_path)
    np.save(tmp_path / "batch.npy", batch)
    got = run_child(PINNED, "test_golden.vae_digest(np.load(sys.argv[1]))", tmp_path / "batch.npy")
    assert got == GOLDEN["vae_steps"], f"vae_steps under {PINNED}: {got}"


# (CPU flags the profile needs, child-process environment)
PROFILES = {
    "openblas_haswell": ({"avx2", "fma"}, {"OPENBLAS_CORETYPE": "Haswell"}),
    "openblas_sandybridge": ({"avx"}, {"OPENBLAS_CORETYPE": "Sandybridge"}),
    # only a host with AVX-512 has AVX-512 paths to turn off
    "numpy_without_avx512": ({"avx512f"}, NO_AVX512),
}


@pytest.mark.parametrize("profile", PROFILES)
def test_every_stage_but_the_vae_holds_under_other_numeric_profiles(profile, tmp_path):
    """The golden stages, rerun in a child interpreter under another OpenBLAS
    kernel or without numpy's AVX-512 paths. Every stage but ``vae_steps`` must
    keep its digest; ``vae_steps`` has its own pinned profile (see the module notes)."""
    needs, env = PROFILES[profile]
    if not needs <= cpu_flags():
        pytest.skip(f"the CPU lacks {sorted(needs - cpu_flags())}")
    got = run_child(env, "test_golden.scene_digests(pathlib.Path(sys.argv[1]))[0]", tmp_path)
    moved = [stage for stage in GOLDEN if stage != "vae_steps" and got[stage] != GOLDEN[stage]]
    assert moved == [], f"stages that moved under {profile}: {moved}; digests now {got}"
