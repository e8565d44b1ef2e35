"""Spans around the public functions of occkit, installed from outside.

A :class:`Tracer` replaces each traced function on the module attribute
where its caller looks the name up, records a span (name, start, end,
parent span, operation) per call in memory, and derives per-layer
metrics from the spans at the end: mean time per call, calls and
computed work per operation, throughput, and each layer's self time
(span duration minus the part its child spans cover). Spans are written
out as JSON lines only when the run ends.

Peak memory comes from a separate pass under ``tracemalloc``
(``Tracer.memory_pass``) that records no spans, because ``tracemalloc``
slows allocation-heavy Python loops severalfold.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from occkit import core, fileio, losses, metrics, nn, pipeline, render, vae

# (owner object, attribute, span name). Names are where the function is
# defined; owners are where callers look them up: vae imports the losses
# by name and calls nn through the module, losses imports nn.sigmoid.
TRACED = [
    *[(pipeline, f, f"pipeline.{f}") for f in (
        "voxelize_majority", "knn_propagate", "resample_occupancy",
        "remove_points_in_boxes", "fit_asset_to_box")],
    (core, "layout_rasterize", "core.layout_rasterize"),
    (core, "layout_overwrite", "core.layout_overwrite"),
    (core.PanopticVoxelGrid, "to_semantic", "core.to_semantic"),
    *[(render, f, f"render.{f}") for f in (
        "raycast_buffers", "plucker_embedding", "densify_rig")],
    *[(vae, f, f"vae.{f}") for f in (
        "vae_encode", "vae_decode", "vae_encode_backward", "vae_decode_backward",
        "vae_train_step", "vae_encode_mean", "vae_reconstruct")],
    *[(nn, f, f"nn.{f}") for f in (
        "conv2d", "conv2d_backward", "sigmoid", "masked_attention",
        "masked_attention_backward", "linear", "linear_backward", "layernorm",
        "layernorm_backward", "embedding_backward", "adam_step")],
    (losses, "sigmoid", "nn.sigmoid"),
    *[(vae, f, f"losses.{f}") for f in (
        "focal_loss", "lovasz_softmax", "softmax", "kl_standard_normal")],
    *[(metrics, f, f"metrics.{f}") for f in (
        "bev_vs_layout_metrics", "confusion_accumulate")],
    *[(fileio, f, f"fileio.{f}") for f in (
        "save_occg", "load_occg", "save_pkpt", "load_pkpt")],
]

MODULES = ("pipeline", "core", "render", "vae", "nn", "losses", "metrics", "fileio")
PEAK_SPANS = ("pipeline.voxelize_majority", "pipeline.resample_occupancy")


def _conv_work(args, out) -> dict:
    """Computed flop and bytes of one conv2d forward, from its public shapes."""
    x, w, y = args[0], args[1], out[0]
    kh, kw, cin, _ = w.shape
    return {"flop": 2 * y.size * kh * kw * cin, "bytes": 8 * (x.size + w.size + y.size)}


def _conv_backward_work(args, out) -> dict:
    """Computed flop and bytes of one conv2d backward: input and weight grads."""
    dout = args[0]
    dx, dw, _ = out
    kh, kw, cin, _ = dw.shape
    return {"flop": 4 * dout.size * kh * kw * cin,
            "bytes": 8 * (dout.size + 2 * dw.size + 2 * dx.size)}


def _file_work(args, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# span name -> f(args, out) giving the work one call did, as counters
WORK = {
    "nn.conv2d": _conv_work,
    "nn.conv2d_backward": _conv_backward_work,
    "pipeline.voxelize_majority": lambda a, o: {"points": len(a[0])},
    "pipeline.knn_propagate": lambda a, o: {"queries": len(a[1])},
    **{f"fileio.{f}": _file_work for f in ("save_occg", "load_occg", "save_pkpt", "load_pkpt")},
}


class Tracer:
    """In-memory span recorder; wraps occkit only inside ``installed``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._recording = True
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        for owner, attr, name in TRACED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        try:
            yield
        finally:
            for owner, attr, fn in reversed(self._saved):
                setattr(owner, attr, fn)
            self._saved.clear()

    def _wrap(self, fn, name):
        work = WORK.get(name)
        peak = name in PEAK_SPANS

        def traced(*args, **kwargs):
            if not self._recording:
                if peak and tracemalloc.is_tracing():
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    out = fn(*args, **kwargs)
                    mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                    self.peaks[name] = max(self.peaks.get(name, 0.0), mb)
                    return out
                return fn(*args, **kwargs)
            sid = len(self.spans)
            span = {"id": sid, "parent": self._stack[-1] if self._stack else None,
                    "op": self._op, "name": name, "end": 0.0,
                    "start": time.perf_counter() - self._t0}
            self.spans.append(span)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self._t0
                self._stack.pop()
            if work:
                span.update(work(args, out))
            return out

        return traced

    # -- phases -----------------------------------------------------------

    @contextmanager
    def operation(self):
        """Trace one timed operation, its spans grouped under a root span."""
        with self.installed():
            self._op = self._ops
            self._ops += 1
            sid = len(self.spans)
            span = {"id": sid, "parent": None, "op": self._op, "name": "bench.op",
                    "start": time.perf_counter() - self._t0, "end": 0.0}
            self.spans.append(span)
            self._stack.append(sid)
            try:
                yield
            finally:
                span["end"] = time.perf_counter() - self._t0
                self._stack.pop()
                self._op = None

    @contextmanager
    def memory_pass(self):
        """Record peak memory of ``PEAK_SPANS`` under tracemalloc, no spans."""
        with self.installed():
            self._recording = False
            tracemalloc.start()
            try:
                yield
            finally:
                tracemalloc.stop()
                self._recording = True

    # -- results ----------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its child spans."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-function and per-module figures; absent functions read 0."""
        ops = max(self._ops, 1)
        calls: dict[str, int] = defaultdict(int)
        op_calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_per_module: dict[str, float] = defaultdict(float)
        own = self.self_times()
        for s in self.spans:
            name = s["name"]
            calls[name] += 1
            total[name] += s["end"] - s["start"]
            if s["op"] is not None:
                op_calls[name] += 1
                self_per_module[name.split(".")[0]] += own[s["id"]]

        def mean(name: str) -> float:
            return total[name] / calls[name] if calls[name] else 0.0

        def work(name: str, counter: str, in_ops: bool = False) -> int:
            return sum(s.get(counter, 0) for s in self.spans
                       if s["name"] == name and (s["op"] is not None or not in_ops))

        def rate(name: str, counter: str, scale: float = 1.0) -> float:
            return work(name, counter) / total[name] / scale if total[name] else 0.0

        def per_op(name: str, counter: str, scale: float = 1.0) -> float:
            return work(name, counter, in_ops=True) / ops / scale

        out: dict[str, float] = {}
        for _, _, name in TRACED:
            if name.startswith("render.") and name != "render.densify_rig":
                out[f"{name}.ms"] = mean(name) * 1e3
            else:
                out[f"{name}.s"] = mean(name)
        out["nn.sigmoid.calls"] = op_calls["nn.sigmoid"] / ops
        for conv in ("nn.conv2d", "nn.conv2d_backward"):
            out[f"{conv}.gflop_per_s"] = rate(conv, "flop", 1e9)
            out[f"{conv}.gflop"] = per_op(conv, "flop", 1e9)
            out[f"{conv}.mbytes"] = per_op(conv, "bytes", 2**20)
        out["pipeline.voxelize_majority.points_per_s"] = rate(
            "pipeline.voxelize_majority", "points")
        out["pipeline.knn_propagate.queries_per_s"] = rate(
            "pipeline.knn_propagate", "queries")
        file_spans = [s["bytes"] for s in self.spans if s["name"].startswith("fileio.")]
        out["fileio.bytes"] = sum(file_spans) / len(file_spans) if file_spans else 0.0
        for name in PEAK_SPANS:
            out[f"{name}.peak_mb"] = self.peaks.get(name, 0.0)
        for module in MODULES + ("bench",):
            out[f"{module}.self_s"] = self_per_module[module] / ops
        return out
