"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.  The
command-level tests start real benchmark runs (``--seconds 0``: each
still runs its workload's full exact-count window) and take a few
minutes together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first(stream, count: int) -> list:
    return [next(stream) for _ in range(count)]


def ground(workload) -> object:
    return workload.ground_sets() if hasattr(workload, "ground_sets") else workload.ground_set()


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.splitlines()[-1])


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name: str, tmp_path: Path) -> None:
    one, two, other = (bench.WORKLOADS[name](seed, tmp_path) for seed in (5, 5, 6))
    assert json.dumps(ground(one)) == json.dumps(ground(two))
    assert json.dumps(first(one.stream(), 600)) == json.dumps(first(two.stream(), 600))
    assert json.dumps(first(one.stream(), 600)) != json.dumps(first(other.stream(), 600))


def test_mixes_are_exact_per_block(tmp_path: Path) -> None:
    ops = first(bench.WORKLOADS["update-churn"](1, tmp_path).stream(), 25 * 10)
    kinds = [op[0] for op in ops]
    assert kinds.count("churn") == 10
    assert [kinds.count(k) for k in ("get", "range", "insert", "delete")] == [100, 20, 60, 60]
    assert [op[1] for op in ops if op[0] == "churn"][:4] == ["join", "leave", "join", "crash"]


def test_stream_only_touches_stored_keys(tmp_path: Path) -> None:
    workload = bench.WORKLOADS["bucket-update"](2, tmp_path)
    live = set(workload.ground_set())
    for kind, payload in first(workload.stream(), 2000):
        if kind == "insert":
            assert payload not in live
            live.add(payload)
        elif kind == "delete":
            live.remove(payload)
        elif kind == "get":
            assert payload in live


# ---------------------------------------------------------------------- #
# oracles
# ---------------------------------------------------------------------- #
def test_sorted_keys_oracle() -> None:
    oracle = oracles.SortedKeys([1.0, 2.0, 5.0])
    oracle.check(("get", 2.0), (2.0, True))
    oracle.check(("get", 4.0), (5.0, False))
    oracle.check(("range", [1.5, 5.0]), [2.0, 5.0])
    with pytest.raises(oracles.WrongAnswer):
        oracle.check(("get", 4.0), (2.0, False))
    with pytest.raises(oracles.WrongAnswer):
        oracle.check(("range", [1.5, 5.0]), [2.0])
    oracle.check(("delete", 2.0), None)
    with pytest.raises(oracles.WrongAnswer):
        oracle.check(("get", 2.0), (2.0, True))


def test_brute_points_oracle() -> None:
    points = [(0.1, 0.1), (0.2, 0.2), (0.7, 0.7)]
    oracle = oracles.BrutePoints(points)
    oracle.check(("nearest", [0.12, 0.1]), ((0.0, 0.0), 0.5, ((0.1, 0.1), (0.2, 0.2)), (0.1, 0.1)))
    with pytest.raises(oracles.WrongAnswer):  # a cell point is missing
        oracle.check(("nearest", [0.12, 0.1]), ((0.0, 0.0), 0.5, ((0.1, 0.1),), (0.1, 0.1)))
    with pytest.raises(oracles.WrongAnswer):  # not the nearest in the cell
        oracle.check(("nearest", [0.12, 0.1]), ((0.0, 0.0), 0.5, ((0.1, 0.1), (0.2, 0.2)), (0.2, 0.2)))
    oracle.check(("range", [[0.0, 0.0], [0.3, 0.3]]), [(0.1, 0.1), (0.2, 0.2)])
    with pytest.raises(oracles.WrongAnswer):
        oracle.check(("range", [[0.0, 0.0], [0.3, 0.3]]), [(0.1, 0.1)])


def test_prefix_scan_oracle() -> None:
    oracle = oracles.PrefixScan(["abc", "abd", "b"])
    oracle.check(("nearest", "abx"), ("ab", False, ("abc", "abd")))
    oracle.check(("nearest", "abc"), ("abc", True, ("abc",)))
    oracle.check(("range", "ab"), ["abc", "abd"])
    with pytest.raises(oracles.WrongAnswer):
        oracle.check(("nearest", "abx"), ("a", False, ("abc", "abd")))


# ---------------------------------------------------------------------- #
# BENCHMARK.json and the printed metrics
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_tables() -> None:
    # BENCHMARK.json gates a subset of the workloads; see NOTES.md.
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    for metric in SPEC["end_to_end"]:
        assert (metric["unit"], metric["better"]) == bench.UNITS[metric["name"]]
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    for metric in SPEC["per_layer"]:
        assert (metric["unit"], metric["better"]) == bench.PER_LAYER[metric["name"]]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_unit_and_direction(trace: str) -> None:
    process = run_bench("--workload", "bucket-update", "--seed", "4", "--seconds", "0", "--trace", trace)
    result = result_of(process)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    lines = process.stdout.splitlines()
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
        printed = [line.split() for line in lines if line.split()[:1] == [metric["name"]]]
        assert printed and printed[0][2:4] == [metric["unit"], f"{metric['better']}-is-better"]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_two_runs_give_identical_exact_counts(name: str) -> None:
    runs = [run_bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0") for _ in range(2)]
    results = [result_of(process)["metrics"] for process in runs]
    for metric in ("msgs_per_op", "rounds_per_op"):
        assert results[0][metric]["value"] == results[1][metric]["value"]
    digests = [
        [line for line in process.stdout.splitlines() if "window_digest" in line] for process in runs
    ]
    assert digests[0] == digests[1] and digests[0]


def test_without_the_program_it_exits_nonzero(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = run_bench("--workload", "serve-read", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
