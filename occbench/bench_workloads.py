"""The three benchmark workloads and the closed loop that times them.

Each workload builds its seeded inputs in ``prepare`` (the benchmark's
own code, untimed), then ``setup`` calls occkit to get ready, timing only
those calls, in parts. ``warmup`` checks the set-up outputs and runs
reference-checked warm-up operations, then ``op(i)`` runs one timed
operation: a scene (scene_e2e), a pass of the 24-camera rig
(rig24_render) or a train step (vae_train). The next operation starts
only when the previous one has finished. Outputs of timed operations are
checked outside the timed region. The benchmark calls occkit through
module attributes (``pipeline.voxelize_majority``), so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

import bench_checks as checks
from bench_scene import Scene, build_scene
from occkit import core, fileio, metrics, nn, pipeline, render, vae
from occkit.core import GridSpec, LabelSchema, PanopticVoxelGrid, SemanticOccupancyGrid


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``Sizes()`` is the benchmark, tests use smaller ones."""

    grid: GridSpec = GridSpec.standard()
    points: int = 1_000_000
    queries: int = 20_000
    knn_k: int = 5
    vae_crop: int = 128
    scene_cam: tuple[int, int, float] = (48, 32, 24.0)      # width, height, fx
    rig_cam: tuple[int, int, float] = (160, 90, 80.0)
    max_range: float = 60.0
    toy_grid: GridSpec = GridSpec((128, 128, 8), (-25.6, -25.6, -1.6), 0.4)
    toy_points: int = 200_000
    train_cfg: vae.VaeConfig = vae.VaeConfig()
    batch: int = 2
    fixed_steps: int = 100
    check_queries: int = 64
    check_voxels: int = 4096
    check_rays: int = 64


def _camera_z(spec: GridSpec) -> float:
    """Cameras sit 1.5 m above the ground band the scene builder fills.

    The height keeps camera centres off voxel boundary planes (0.4 m
    voxels), where level rays start on a rounding tie between two voxels.
    """
    return spec.origin[2] + core.GROUND_BAND_Z * spec.voxel_size + 1.5


def _rig(spec: GridSpec, cam: tuple[int, int, float], doublings: int) -> render.CameraRig:
    width, height, fx = cam
    rig = render.standard_rig(fx=fx, width=width, height=height, z=_camera_z(spec))
    for _ in range(doublings):
        rig = render.densify_rig(rig, 1)
    return rig


def curate(scene: Scene, k: int, part=lambda name: nullcontext()) -> dict:
    """Points -> semantic grid -> ego shift -> layout stamped into the ground."""
    spec, schema = scene.spec, scene.schema
    with part("remove"):
        cloud = pipeline.remove_points_in_boxes(scene.cloud, scene.dynamic_boxes)
    with part("voxelize"):
        panoptic = pipeline.voxelize_majority(cloud, spec, schema)
        semantic = panoptic.to_semantic(schema)
    with part("knn"):
        knn = pipeline.knn_propagate(cloud, scene.queries, k)
    with part("resample"):
        shifted = pipeline.resample_occupancy(semantic, scene.shift, schema)
    with part("layout"):
        layout = core.layout_rasterize(scene.boxes, scene.polygons, spec.dims[0],
                                       spec.dims[1], spec.voxel_size,
                                       schema.num_layout_channels, schema)
        grid = core.layout_overwrite(shifted, layout, scene.rules)
    return {"cloud": cloud, "panoptic": panoptic, "semantic": semantic, "knn": knn,
            "shifted": shifted, "layout": layout, "grid": grid}


def check_curation(scene: Scene, cur: dict, sizes: Sizes, rng) -> list[str]:
    spec, schema = scene.spec, scene.schema
    cloud = cur["cloud"]
    queries = rng.choice(len(scene.queries), size=min(sizes.check_queries,
                                                       len(scene.queries)), replace=False)
    voxels = rng.integers(0, spec.dims, size=(sizes.check_voxels, 3))
    return [
        *checks.check_remove(scene.cloud.points, scene.dynamic_boxes, cloud.points),
        *checks.check_voxelize(cloud.points, cloud.labels, spec,
                               PanopticVoxelGrid.FREE_LABEL, cur["panoptic"].labels),
        *checks.check_knn(cloud.points, cloud.labels, scene.queries, sizes.knn_k,
                          cur["knn"], queries),
        *checks.check_resample(cur["semantic"].labels, spec, scene.shift.transform,
                               schema.free_class, cur["shifted"].labels, voxels),
        *checks.check_overwrite(cur["shifted"].labels, cur["layout"], scene.rules,
                                cur["grid"].labels),
    ]


# Host-normalised times are scaled to a host on which one ReferenceJob takes 10 ms.
REF_S = 0.010


class ReferenceJob:
    """A fixed numpy job whose time follows the host's speed.

    On a shared host the speed drifts by up to 1.8x over minutes. Each
    timed part runs this job just before it, and the part's time divided
    by the job's time cancels most of that drift. The job mixes the kinds
    of work occkit does: BLAS products (conv2d), elementwise maths and a
    loop of masked gathers over shrinking index arrays (the raycast). It
    calls no occkit code, so a change to the program leaves it unchanged.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((1024, 288))
        self.b = rng.standard_normal((288, 32))
        self.dims = np.array([128, 128, 16])
        self.grid = (rng.random(tuple(self.dims)) < 0.01).astype(np.uint8)
        self.start = rng.integers(0, self.dims, size=(4096, 3))

    def __call__(self) -> float:
        """Run the job once; return its time in seconds."""
        t0 = time.perf_counter()
        for _ in range(2):
            self.a @ self.b
        np.exp(-self.a)
        iv, rays = self.start.copy(), np.arange(len(self.start))
        for i in range(40):
            keep = self.grid[iv[:, 0], iv[:, 1], iv[:, 2]] == 0
            iv, rays = iv[keep], rays[keep]
            r, ax = np.arange(len(rays)), (rays + i) % 3
            iv[r, ax] = (iv[r, ax] + 1) % self.dims[ax]
        return time.perf_counter() - t0


REFERENCE = ReferenceJob()


@dataclass
class Workload:
    seed: int
    sizes: Sizes
    out_dir: Path
    normalise: bool = True
    min_ops: int = 1
    setup_repeats: ClassVar[int] = 5
    problems: list[str] = field(default_factory=list)
    # part name -> (seconds, host-normalised seconds) per operation or set-up
    parts: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: defaultdict(list))

    @contextmanager
    def part(self, name: str):
        """Time one part of an operation or set-up; each one runs the same parts.

        With ``normalise`` the reference job runs just before the part,
        outside its timing, and the part's time is also kept in units of
        the job's time, scaled by ``REF_S``.
        """
        ref = REFERENCE() if self.normalise else math.nan
        t0 = time.perf_counter()
        yield
        t = time.perf_counter() - t0
        self.parts[name].append((t, t / ref * REF_S))

    def normalised_s(self) -> float:
        """Host-normalised time of one operation (or set-up), in s.

        The sum over its parts of each part's median normalised time.
        """
        return sum(statistics.median(n for _, n in v) for v in self.parts.values())

    def times_s(self) -> list[float]:
        """Time of each operation (or set-up) so far, in s: the sum of its parts."""
        return [sum(ts) for ts in zip(*([t for t, _ in v] for v in self.parts.values()))]

    def part_times_s(self, prefix: str = "") -> list[float]:
        """Raw times of every part whose name starts with ``prefix``, in s."""
        return [t for k, v in self.parts.items() if k.startswith(prefix) for t, _ in v]

    def finish(self) -> None:
        """Checks that need the whole run; they add to ``problems``."""


class SceneE2E(Workload):
    """One seeded standard scene through every stage, end to end."""

    def prepare(self) -> None:
        s = self.sizes
        self.scene = build_scene(self.seed, LabelSchema(), s.grid, s.points, s.queries)
        lo = (s.grid.dims[0] - s.vae_crop) // 2
        self.crop = (slice(lo, lo + s.vae_crop), slice(lo, lo + s.vae_crop))
        o = s.grid.origin
        self.crop_spec = GridSpec((s.vae_crop, s.vae_crop, s.grid.dims[2]),
                                  (o[0] + lo * s.grid.voxel_size,
                                   o[1] + lo * s.grid.voxel_size, o[2]), s.grid.voxel_size)
        self.cfg = vae.VaeConfig(grid_dims=self.crop_spec.dims,
                                 num_classes=self.scene.schema.num_classes,
                                 spatial_downsample=4)

    def setup(self) -> None:
        s = self.sizes
        with self.part("init"):
            self.params = vae.init_vae_params(self.cfg, nn.stream(self.seed, "bench/vae"))
        with self.part("rig"):
            self.cameras = (_rig(s.grid, s.scene_cam, 0).cameras
                            + _rig(s.grid, s.scene_cam, 2).cameras)

    def setup_hash(self) -> str:
        return checks.digest(*(self.params[k] for k in sorted(self.params)))

    def op(self, i: int) -> dict:
        s, scene = self.sizes, self.scene
        schema = scene.schema
        out = curate(scene, s.knn_k, self.part)
        path = self.out_dir / "scene.occg"
        with self.part("occg"):
            fileio.save_occg(path, scene.spec, out["grid"].labels)
            loaded = SemanticOccupancyGrid(*fileio.load_occg(path))
        with self.part("vae"):
            gt = loaded.labels[self.crop].astype(np.int64)[None]
            z = vae.vae_encode_mean(self.params, self.cfg, gt)
            recon = vae.vae_reconstruct(self.params, self.cfg, z)
        buffers = []
        for j, cam in enumerate(self.cameras):
            with self.part(f"camera{j}"):
                buffers.append(render.raycast_buffers(loaded, cam, s.max_range, schema))
        with self.part("metrics"):
            bev = metrics.bev_vs_layout_metrics(loaded, out["layout"], schema)
            acc = metrics.confusion_accumulate(
                SemanticOccupancyGrid(self.crop_spec, recon[0]),
                SemanticOccupancyGrid(self.crop_spec, gt[0]),
                metrics.ConfusionMatrix(schema.num_classes))
        out.update(loaded=loaded, z=z, recon=recon, buffers=buffers,
                   bev=bev["mean"], miou=metrics.miou(acc, schema))
        return out

    def hash(self, out: dict) -> str:
        spec = self.scene.spec
        cams = [a for b in out["buffers"] for a in (b.hit_mask, checks.hit_indices(spec, b))]
        return checks.digest(out["panoptic"].labels, out["knn"], out["shifted"].labels,
                             out["grid"].labels, out["recon"], *cams)

    def warmup(self) -> None:
        self.warm_ops = 1
        out = self.op(-1)
        self.parts.clear()
        rng = np.random.default_rng([self.seed, 1])
        p = check_curation(self.scene, out, self.sizes, rng)
        if not np.array_equal(out["loaded"].labels, out["grid"].labels):
            p.append("OCCG round trip changed the labels")
        if not (np.all(np.isfinite(out["z"])) and out["recon"].min() >= 0
                and out["recon"].max() < self.scene.schema.num_classes):
            p.append("VAE latent not finite or reconstruction out of class range")
        if not (0.0 <= out["bev"] <= 1.0 and 0.0 <= out["miou"] <= 1.0):
            p.append("bev_vs_layout_metrics or miou outside [0, 1]")
        for cam, buf in zip(self.cameras, out["buffers"]):
            p += checks.check_camera(out["loaded"], cam, buf, self.sizes.max_range,
                                     self.scene.schema.free_class, rng, self.sizes.check_rays)
        self.problems += p
        self.reference = (self.hash(out), out["bev"], out["miou"])
        self.counts = checks.render_counts(self.scene.spec, self.cameras, out["buffers"],
                                           self.sizes.max_range)

    def check(self, i: int, out: dict) -> bool:
        return (self.hash(out), out["bev"], out["miou"]) == self.reference

    def output_hash(self) -> str:
        return self.reference[0]

    def named(self) -> dict:
        scenes = self.times_s()
        return {"scene_s": (statistics.median(scenes), "s", len(scenes)),
                **_percentiles("camera_ms", self.part_times_s("camera"), "ms")}


class Rig24Render(Workload):
    """A curated scene rendered by the 24-camera rig, one rig pass per operation."""

    def prepare(self) -> None:
        s = self.sizes
        self.scene = build_scene(self.seed, LabelSchema(), s.grid, s.points, s.queries)
        self.schema = self.scene.schema

    def setup(self) -> None:
        s = self.sizes
        self.cur = None             # peak memory holds one set-up's curation at a time
        self.cur = curate(self.scene, s.knn_k, self.part)
        path = self.out_dir / "rig.occg"        # the curated grid is cached, then scored
        with self.part("occg"):
            fileio.save_occg(path, s.grid, self.cur["grid"].labels)
            self.grid = SemanticOccupancyGrid(*fileio.load_occg(path))
        with self.part("metrics"):
            self.iou = metrics.bev_vs_layout_metrics(self.grid, self.cur["layout"],
                                                     self.schema)["mean"]
        with self.part("rig"):
            self.cameras = _rig(s.grid, s.rig_cam, 2).cameras

    def setup_hash(self) -> str:
        cur = self.cur
        return checks.digest(cur["panoptic"].labels, cur["knn"], cur["shifted"].labels,
                             cur["grid"].labels)

    def op(self, i: int) -> list:
        buffers = []
        for j, cam in enumerate(self.cameras):
            with self.part(f"camera{j}"):
                buffers.append(render.raycast_buffers(self.grid, cam, self.sizes.max_range,
                                                      self.schema))
        return buffers

    def hash(self, buffers) -> list[str]:
        return [checks.digest(b.hit_mask, checks.hit_indices(self.grid.spec, b), b.semantic)
                for b in buffers]

    def warmup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.problems += check_curation(self.scene, self.cur, self.sizes, rng)
        if not (np.array_equal(self.grid.labels, self.cur["grid"].labels)
                and 0.0 <= self.iou <= 1.0):
            self.problems.append("set-up: OCCG round trip or layout IoU wrong")
        self.curation_hash = self.setup_hash()
        del self.cur                            # the rig renders only the cached grid
        self.warm_ops = 1
        buffers = self.op(-1)
        self.parts.clear()
        for cam, buf in zip(self.cameras, buffers):
            self.problems += checks.check_camera(self.grid, cam, buf, self.sizes.max_range,
                                                 self.schema.free_class, rng,
                                                 self.sizes.check_rays)
            try:
                buf.validate()
            except ValueError as e:
                self.problems.append(f"{cam.name}: {e}")
        self.reference = self.hash(buffers)
        self.counts = checks.render_counts(self.grid.spec, self.cameras, buffers,
                                           self.sizes.max_range)

    def check(self, i: int, buffers) -> bool:
        return self.hash(buffers) == self.reference

    def output_hash(self) -> str:
        return checks.digest(np.array([self.curation_hash, *self.reference]))

    def named(self) -> dict:
        cameras = self.part_times_s()
        w, h, _ = self.sizes.rig_cam
        return {**_percentiles("camera_ms", cameras, "ms"),
                "rays_per_s": (w * h * len(cameras) / sum(cameras), "1/s", len(cameras))}


class VaeTrain(Workload):
    """Train steps on seeded crops of a toy scene, then a checkpoint round trip."""

    warmup_steps = 2
    setup_repeats = 21          # a set-up takes about 0.1 s

    def prepare(self) -> None:
        s = self.sizes
        self.schema = LabelSchema.toy()
        self.scene = build_scene(self.seed, self.schema, s.toy_grid, s.toy_points,
                                 n_queries=1, n_vehicles=16, n_buildings=8, n_dynamic=2)
        self.cfg = s.train_cfg
        self.min_ops = s.fixed_steps - self.warmup_steps

    def setup(self) -> None:
        with self.part("voxelize"):
            self.panoptic = pipeline.voxelize_majority(self.scene.cloud, self.scene.spec,
                                                       self.schema)
            self.labels = self.panoptic.to_semantic(self.schema).labels
        with self.part("init"):
            self.init = vae.init_vae_params(self.cfg, nn.stream(self.seed, "bench/vae"))
        path = self.out_dir / "vae-init.pkpt"       # training starts from a checkpoint
        with self.part("pkpt"):
            fileio.save_pkpt(path, self.init)
            self.params = fileio.load_pkpt(path)
        with self.part("evaluate"):
            self.miou0 = self.evaluate()
        with self.part("adam"):
            self.adam = nn.adam_init(self.params)
        self.noise = nn.stream(self.seed, "bench/noise")
        self.crops = nn.stream(self.seed, "bench/crops")
        self.losses: list[float] = []

    def setup_hash(self) -> str:
        return checks.digest(self.panoptic.labels,
                             *(self.params[k] for k in sorted(self.params)))

    def evaluate(self) -> float:
        """mIoU of the model's reconstruction of the grid's corner crop."""
        x, y, _ = self.cfg.grid_dims
        gt = self.labels[:x, :y].astype(np.int64)
        z = vae.vae_encode_mean(self.params, self.cfg, gt[None])
        recon = vae.vae_reconstruct(self.params, self.cfg, z)[0]
        spec = GridSpec(self.cfg.grid_dims, (0.0, 0.0, 0.0), 1.0)
        acc = metrics.confusion_accumulate(SemanticOccupancyGrid(spec, recon),
                                           SemanticOccupancyGrid(spec, gt),
                                           metrics.ConfusionMatrix(self.cfg.num_classes))
        return metrics.miou(acc, self.schema)

    def op(self, i: int) -> dict:
        x, y, _ = self.cfg.grid_dims
        hi = np.asarray(self.labels.shape[:2]) - (x, y)
        corners = self.crops.integers(0, hi + 1, size=(self.sizes.batch, 2))
        batch = np.stack([self.labels[a:a + x, b:b + y] for a, b in corners]).astype(np.int64)
        with self.part("step"):
            grads = nn.zero_grads(self.params)
            out = vae.vae_train_step(self.params, grads, self.cfg, batch, self.noise)
            out["grad_norm"] = nn.clip_grads(grads, 1.0)
            nn.adam_step(self.params, grads, self.adam, lr=1e-3)
        return out

    def check(self, i: int, out: dict) -> bool:
        self.losses.append(out["loss"])
        return bool(np.isfinite(out["loss"]) and np.isfinite(out["grad_norm"]))

    def warmup(self) -> None:
        cloud = self.scene.cloud
        self.problems += checks.check_voxelize(cloud.points, cloud.labels, self.scene.spec,
                                               PanopticVoxelGrid.FREE_LABEL,
                                               self.panoptic.labels)
        if not _same_params(self.params, self.init):
            self.problems.append("set-up: PKPT round trip changed the initial weights")
        if not 0.0 <= self.miou0 <= 1.0:
            self.problems.append("set-up: checkpoint mIoU outside [0, 1]")
        self.warm_ops = self.warmup_steps
        for i in range(self.warmup_steps):
            if not self.check(i, self.op(i)):
                self.problems.append(f"train step {i}: loss or gradient not finite")
        self.parts.clear()
        self.counts = dict.fromkeys(checks.RENDER_COUNTS, 0.0)   # renders nothing

    def finish(self) -> None:
        fixed = self.losses[:self.sizes.fixed_steps]
        self.final_loss = float(np.mean(fixed[-10:]))
        if not self.final_loss < fixed[0]:
            self.problems.append(f"final loss {self.final_loss} not below first {fixed[0]}")
        path = self.out_dir / "vae.pkpt"
        fileio.save_pkpt(path, self.params)
        if not _same_params(fileio.load_pkpt(path), self.params):
            self.problems.append("PKPT round trip changed the parameters")

    def output_hash(self) -> str:
        return checks.digest(self.panoptic.labels,
                             np.array(self.losses[:self.sizes.fixed_steps]))

    def named(self) -> dict:
        steps = self.times_s()
        return {**_percentiles("train_step_ms", steps, "ms"),
                "train_voxels_per_s": (self.sizes.batch * np.prod(self.cfg.grid_dims)
                                       * len(steps) / sum(steps), "1/s", len(steps)),
                "final_loss": (self.final_loss, "loss", self.sizes.fixed_steps)}


def _same_params(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def _percentiles(prefix: str, seconds: list[float], unit: str) -> dict:
    """Median, plus p90 only when at least ten samples lie beyond it."""
    ms = [t * 1e3 for t in seconds]
    out = {f"{prefix}_p50": (statistics.median(ms), unit, len(ms))}
    if len(ms) >= 100:
        out[f"{prefix}_p90"] = (float(np.percentile(ms, 90)), unit, len(ms))
    return out


WORKLOADS = {"scene_e2e": SceneE2E, "rig24_render": Rig24Render, "vae_train": VaeTrain}


def closed_loop(wl: Workload, seconds: float, min_ops: int = 1, tracer=None):
    """Run operations back to back for ``seconds``; check each outside the timing.

    With a tracer, every second operation is traced (wrappers installed
    for that operation only), so host drift affects traced and untraced
    operations alike; the parts of traced operations are not kept.
    Returns (seconds per operation, which were traced, failed operations).
    The seconds include reference jobs when the workload normalises.
    """
    times: list[float] = []
    traced: list[bool] = []
    failed = 0
    min_ops = max(min_ops, 2) if tracer else min_ops     # at least one traced operation
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < min_ops:
        i = len(times)
        on = tracer is not None and i % 2 == 1
        kept = wl.parts
        if on:
            wl.parts = defaultdict(list)
        with (tracer.operation() if on else nullcontext()):
            t0 = time.perf_counter()
            out = wl.op(i)
            times.append(time.perf_counter() - t0)
        wl.parts = kept
        traced.append(on)
        failed += not wl.check(i, out)
    return times, traced, failed
