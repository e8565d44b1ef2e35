"""The summary arithmetic of ``tools/bench_pairs.py`` on synthetic run records."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def fake_run(side, seed, peak, op_ms, out_hash, correct=True, workload="vae_train"):
    named = {"setup_s": {"value": 0.04, "unit": "s", "n": 5},
             "train_step_ms_p50": {"value": op_ms * 0.9, "unit": "ms", "n": 300},
             "peak_rss_mb": {"value": peak, "unit": "MB", "n": 1}}
    metrics = {"setup_s": 0.04, "op_ms": op_ms, "peak_rss_mb": peak}
    return {"side": side, "workload": workload, "seed": seed, "returncode": 0,
            "run_record": {"output_hash": out_hash, "named": named, "src_lines": 10},
            "result": {"correct": correct, "attempted": 9, "failed": 0 if correct else 9,
                       "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}}


def pairs(parent_peaks, change_peaks, change_hash="h"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_peaks, change_peaks), start=1):
        for side in bench_pairs.run_order(seed):
            peak = p if side == "parent" else c
            runs.append(fake_run(side, seed, peak, 70.0 + seed,
                                 "h" if side == "parent" else change_hash))
    return runs


def test_quartiles_median_change_pairs_and_hashes():
    runs = pairs([90.0, 89.0, 91.0, 92.0, 90.5], [83.0, 89.5, 84.0, 85.0, 83.5])
    got = bench_pairs.summarise(runs)["vae_train"]
    peak = got["peak_rss_mb"]
    # inclusive quartiles of 89, 90, 90.5, 91, 92 and of 83, 83.5, 84, 85, 89.5
    assert peak["parent_q1_median_q3"] == [90.0, 90.5, 91.0]
    assert peak["change_q1_median_q3"] == [83.5, 84.0, 85.0]
    assert peak["median_change"] == round(84.0 / 90.5 - 1.0, 4)
    assert peak["pairs_change_lower"] == 4 and peak["pairs"] == 5
    assert peak["parent_iqr"] == 1.0
    assert got["op_ms"]["pairs_change_lower"] == 0 and got["op_ms"]["median_change"] == 0.0
    assert got["named"]["train_step_ms_p50"]["pairs"] == 5
    assert "peak_rss_mb" not in got["named"]
    assert got["output_hash_equal_every_seed"] is True
    assert got["all_correct_none_failed"] is True
    assert got["seeds"] == [1, 2, 3, 4, 5]


def test_one_different_hash_or_failed_run_shows():
    runs = pairs([90.0, 91.0], [83.0, 84.0])
    runs[-1]["run_record"]["output_hash"] = "other"
    assert bench_pairs.summarise(runs)["vae_train"]["output_hash_equal_every_seed"] is False
    runs = pairs([90.0, 91.0], [83.0, 84.0])
    runs[0].update(returncode=1, run_record=None, result=None)
    got = bench_pairs.summarise(runs)["vae_train"]
    assert got["all_correct_none_failed"] is False
    assert got["output_hash_equal_every_seed"] is False
    assert got["peak_rss_mb"]["pairs"] == 1


@pytest.mark.parametrize("seed, first", [(1, "parent"), (2, "change"), (2223, "parent")])
def test_odd_seeds_run_the_parent_first(seed, first):
    assert bench_pairs.run_order(seed)[0] == first


def test_diff_reports_the_change_medians(tmp_path, capsys):
    a = {"summary": bench_pairs.summarise(pairs([90.0] * 3, [84.0] * 3))}
    b = {"summary": bench_pairs.summarise(pairs([84.0] * 3, [63.0] * 3))}
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert bench_pairs.main(["--diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if "peak_rss_mb" in line).split()
    assert row[:4] == ["vae_train", "peak_rss_mb", "84", "63"] and row[4] == "-25.00%"


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("2221-2224") == [2221, 2222, 2223, 2224]
    assert bench_pairs.parse_seeds("1,3,5") == [1, 3, 5]


def test_a_parent_without_git_stops_before_any_pair(tmp_path, monkeypatch, capsys):
    def run_one(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(bench_pairs, "run_one", run_one)
    parent = tmp_path / "parent"
    parent.mkdir()
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--parent", str(parent), "--change", ".", "--workload", "vae_train",
                          "--seeds", "1", "--out", str(out)])
    assert stop.value.code == 2 and not out.exists()
    assert "is not a git checkout" in capsys.readouterr().err
