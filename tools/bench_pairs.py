"""Alternated parent/change benchmark pairs, written as a BENCH_<pr>.json file.

Runs ``occbench/run.py`` from two checkouts of the repository, the parent
and the change, once per seed and workload each. Odd seeds run the parent
first and even seeds the change first, so a drift in the host's speed
falls on both sides alike. Each run's two JSON lines (the run record and
the result) are kept, and every metric is summarised per workload:
quartiles of each side, the median's relative change, the pairs in which
the change reads lower, and the parent's interquartile range.

    git worktree add ../parent HEAD
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload vae_train --workload rig24_render \\
        --seeds 2221-2230 --seconds 30 --out BENCH_22.json \\
        --claim vae_train peak_rss_mb "median at least 6% lower"

    python3 tools/bench_pairs.py --diff BENCH_20.json BENCH_22.json

The parent must be a git checkout, so that the file records its commit;
without one the script stops before running any pair.

``--diff A B`` prints, per workload and metric both files summarise, the
change side's median in A and in B and their relative difference.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
END_TO_END = ("setup_s", "op_ms", "peak_rss_mb")


def run_order(seed: int) -> tuple[str, str]:
    return SIDES if seed % 2 else SIDES[::-1]


def run_one(checkout: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process; its record and result, or None where it failed."""
    cmd = [sys.executable, "occbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 10 + 600)
    record = result = None
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    return {"side": side, "workload": workload, "seed": seed,
            "returncode": proc.returncode, "run_record": record, "result": result}


def metric_values(run: dict) -> dict[str, float]:
    """The result's end-to-end metrics, then the record's other named ones."""
    if run["result"] is None:
        return {}
    values = {k: m["value"] for k, m in run["run_record"]["named"].items()}
    values.update((k, m["value"]) for k, m in run["result"]["metrics"].items())
    return values


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def compare(pairs: list[tuple[float, float]]) -> dict:
    """Summary of one metric over (parent, change) pairs."""
    parent, change = zip(*pairs)
    qp, qc = quartiles(list(parent)), quartiles(list(change))
    return {"parent_q1_median_q3": [round(q, 4) for q in qp],
            "change_q1_median_q3": [round(q, 4) for q in qc],
            "median_change": round(qc[1] / qp[1] - 1.0, 4) if qp[1] else None,
            "pairs_change_lower": sum(c < p for p, c in pairs),
            "pairs": len(pairs),
            "parent_iqr": round(qp[2] - qp[0], 4)}


def summarise(runs: list[dict]) -> dict:
    """Per workload: each metric's comparison, the output hashes and the seeds."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        seeds = sorted(by_seed)
        complete = [s for s in seeds if all(
            by_seed[s].get(side, {}).get("result") is not None for side in SIDES)]
        values = {s: [metric_values(by_seed[s][side]) for side in SIDES] for s in complete}
        first = values[complete[0]][0] if complete else {}
        names = [n for n in END_TO_END if n in first]
        named = [n for n in first if n not in END_TO_END]
        hashes = {str(s): [(by_seed[s].get(side, {}).get("run_record") or {})
                           .get("output_hash") for side in SIDES] for s in seeds}
        entry: dict = {n: compare([(values[s][0][n], values[s][1][n]) for s in complete])
                       for n in names}
        entry["named"] = {n: compare([(values[s][0][n], values[s][1][n]) for s in complete])
                          for n in named if all(n in values[s][1] for s in complete)}
        entry["output_hash_equal_every_seed"] = all(
            p is not None and p == c for p, c in hashes.values())
        entry["output_hashes_parent_change"] = hashes
        entry["all_correct_none_failed"] = len(complete) == len(seeds) and all(
            r["returncode"] == 0 and r["result"]["correct"] and r["result"]["failed"] == 0
            for s in seeds for r in by_seed[s].values())
        entry["seeds"] = seeds
        summary[workload] = entry
    return summary


def host_line(record: dict) -> str:
    threads = record.get("blas_threads")
    return (f"{record['nproc']}-core host, {threads} BLAS thread(s), "
            f"Python {record['python']}, numpy {record['numpy']}, "
            f"scipy {record['scipy']}, {record['blas']}")


def git_head(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench_file(runs: list[dict], parent_commit: str, seconds: float, claim,
               change: str | None) -> dict:
    records = {side: next((r["run_record"] for r in runs
                           if r["side"] == side and r["run_record"]), None) for side in SIDES}
    return {
        "change": change,
        "claim": (dict(zip(("workload", "metric", "target"), claim)) if claim else None),
        "parent_commit": parent_commit,
        "command": (f"python3 occbench/run.py --workload WORKLOAD --seed SEED "
                    f"--seconds {seconds:g} --trace 0, parent and change each run "
                    f"from its own copy of the files"),
        "order": "odd seeds run the parent first, even seeds the change first",
        "host": host_line(records["parent"]) if records["parent"] else None,
        "src_lines": {side: rec and rec["src_lines"] for side, rec in records.items()},
        "summary": summarise(runs),
        "runs": runs,
    }


def diff(a: dict, b: dict) -> list[str]:
    """One line per workload and metric in both summaries: change medians and delta."""
    lines = [f"{'workload':<13} {'metric':<22} {'A':>12} {'B':>12} {'B/A-1':>8}"]
    for workload, sa in a["summary"].items():
        sb = b["summary"].get(workload, {})
        rows = [(n, sa[n], sb[n]) for n in END_TO_END if n in sa and n in sb]
        rows += [(n, m, sb["named"][n]) for n, m in sa.get("named", {}).items()
                 if n in sb.get("named", {})]
        for name, ma, mb in rows:
            va, vb = ma["change_q1_median_q3"][1], mb["change_q1_median_q3"][1]
            delta = f"{vb / va - 1.0:+.2%}" if va else "n/a"
            lines.append(f"{workload:<13} {name:<22} {va:>12.6g} {vb:>12.6g} {delta:>8}")
    return lines


def parse_seeds(text: str) -> list[int]:
    """``2221-2230`` or ``1,3,5``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), type=Path)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", type=parse_seeds)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--claim", nargs=3, metavar=("WORKLOAD", "METRIC", "TARGET"))
    parser.add_argument("--describe", help="one line on what the change does")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(p.read_text()) for p in args.diff)
        print("\n".join(diff(a, b)))
        return 0
    if not (args.parent and args.change and args.workload and args.seeds and args.out):
        parser.error("--parent, --change, --workload, --seeds and --out are needed")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent_commit = git_head(checkouts["parent"])
    if parent_commit is None:
        parser.error(f"--parent {args.parent} is not a git checkout, so its commit "
                     "cannot be recorded")
    runs = []
    for workload in args.workload:
        for seed in args.seeds:
            for side in run_order(seed):
                run = run_one(checkouts[side], side, workload, seed, args.seconds)
                values = metric_values(run)
                print(f"{workload} {seed} {side}: rc {run['returncode']} "
                      + " ".join(f"{n} {values[n]:.4g}" for n in END_TO_END if n in values),
                      file=sys.stderr, flush=True)
                runs.append(run)
    out = bench_file(runs, parent_commit, args.seconds, args.claim, args.describe)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(s["all_correct_none_failed"] for s in out["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
