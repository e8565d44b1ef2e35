"""occkit benchmark: one seeded workload, timed in a closed loop, outputs checked.

Run from the root of a checkout:

    python3 occbench/run.py --workload rig24_render --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
traces the inputs and one set-up, then alternates untraced operations
with operations traced by spans around occkit's public functions, and
reports the per-layer metrics and the traced/untraced time ratio.
``--workload all`` runs every workload in its own process and prints the
named metrics as a table.

The second-to-last line of output is the run record (named metrics with
units and sample counts, versions, thread count, output hash); the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".occbench_out"
# One BLAS thread: on a shared 2-core host a second BLAS thread makes train
# step times drift with the load on the other core.
BLAS_THREADS = "1"


def _versions() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads if threads is not None
            else os.environ.get("OPENBLAS_NUM_THREADS")}


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None,
        out_dir: Path = OUT_DIR) -> tuple[dict, dict]:
    """Run one workload; return (result line, run record)."""
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS, Sizes, closed_loop

    sizes = sizes or Sizes()
    out_dir.mkdir(parents=True, exist_ok=True)
    make = WORKLOADS[name]
    wl = make(seed, sizes, out_dir, normalise=not trace)
    tracer = Tracer() if trace else None
    setup_hashes = set()
    with (tracer.installed() if trace else nullcontext()):   # spans of inputs and a set-up
        wl.prepare()
        for _ in range(1 if trace else wl.setup_repeats):
            wl.setup()
            setup_hashes.add(wl.setup_hash())
    setup_samples = wl.times_s()
    setup_s = wl.normalised_s() if wl.normalise else setup_samples[0]
    wl.parts.clear()
    if len(setup_hashes) > 1:
        wl.problems.append("set-ups of the same seed gave different outputs")
    wl.warmup()
    op_s, traced, failed = closed_loop(wl, seconds, wl.min_ops, tracer)
    wl.finish()
    record: dict = {}
    if trace:
        fresh = make(seed, sizes, out_dir, normalise=False)
        fresh.prepare()
        with tracer.memory_pass():
            fresh.setup()
            fresh.op(0)
        # each traced operation against the untraced one just before it
        ratio = statistics.median(op_s[i] / op_s[i - 1] for i, on in enumerate(traced) if on)
        spans = out_dir / f"trace-{name}-seed{seed}.jsonl"
        tracer.write_jsonl(spans)
        record.update(trace_overhead_ratio=ratio, spans=os.path.relpath(spans, ROOT),
                      traced_ops=sum(traced))

    attempted = wl.warm_ops + len(traced)
    failed = attempted if wl.problems else failed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = {"setup_s": (setup_s, "s", len(setup_samples)),
             **wl.named(),
             "peak_rss_mb": (peak_rss_mb, "MB", 1),
             "error_rate": (failed / attempted, "failed/attempted", attempted)}
    if trace:
        values = {**tracer.layer_metrics(), **wl.counts, "trace.overhead_ratio": ratio}
        declared = _declared("per_layer")
    else:
        values = {"setup_s": setup_s,
                  "op_ms": wl.normalised_s() * 1e3,
                  "peak_rss_mb": peak_rss_mb}
        declared = _declared("end_to_end")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(values[k]), "unit": u}
                          for k, u in declared.items()}}
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  nproc=len(os.sched_getaffinity(0)), **_versions(),
                  src_lines=_src_lines(), output_hash=wl.output_hash(),
                  setup_s_samples=setup_samples, problems=wl.problems,
                  named={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()})
    return result, record


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows = []
    for name in ("scene_e2e", "rig24_render", "vae_train"):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        record = json.loads(proc.stdout.splitlines()[-2])["record"]
        rows += [(k, m["unit"], name, m["value"], m["n"]) for k, m in record["named"].items()]
    print(f"{'metric':<20} {'unit':<17} {'workload':<13} {'value':>14} {'n':>5}")
    for row in sorted(rows):
        print(f"{row[0]:<20} {row[1]:<17} {row[2]:<13} {row[3]:>14.6g} {row[4]:>5}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["scene_e2e", "rig24_render", "vae_train", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "occkit" / "__init__.py").is_file():
        print(f"occkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS   # read once, when numpy loads BLAS
    sys.path.insert(0, str(ROOT / "src"))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
