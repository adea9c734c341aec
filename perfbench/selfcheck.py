"""Tests of the benchmark itself.

The file name keeps the repository's default test run from collecting it;
run it explicitly from the repository root (about four minutes on 2 cores)::

    python3 -m pytest perfbench/selfcheck.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_WRAPPERS,
    WORKLOADS,
    ReferenceClock,
    Workload,
    make_plan,
    run_pass,
    wait_percentiles,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def parse(stdout: str) -> tuple[dict, dict[str, str]]:
    """The final JSON object and the unit of every ``name value unit`` line."""
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    return json.loads(lines[-1]), printed


@pytest.mark.parametrize("workload,trace", [
    ("battleship-small", 0),
    ("battleship-small", 1),
    ("baselines-small", 1),
    ("campaign-tiny", 1),
    ("campaign-pool-tiny", 1),
])
def test_reduced_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_benchmark("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result, printed = parse(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # A wrapper that never fired, or one left installed, fails the run.
    assert result["correct"] and result["failed"] == 0, proc.stdout
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in section}
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert {name: printed.get(name) for name in expected} == expected
    if trace:
        assert {"engine.run_s", "store.put.s", "store.get.s"} <= set(printed)
    if workload.startswith("campaign"):
        metrics = result["metrics"]
        grid = len(WORKLOADS[workload].methods)
        assert metrics["engine.runs_executed"]["value"] == grid
        assert metrics["engine.runs_from_store"]["value"] == grid


def test_wrappers_are_installed_and_removed(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        assert sorted(tracer.installed_keys()) == sorted(tracing.all_wrapper_keys())
        assert tracing.any_wrapper_installed()
    finally:
        tracer.uninstall()
    assert not tracing.any_wrapper_installed()
    expected = {key for keys in EXPECTED_WRAPPERS.values() for key in keys}
    assert expected == set(tracing.all_wrapper_keys())


def test_tracing_never_changes_results(tmp_path):
    workload = Workload("battleship-tiny", "tiny", ("battleship", "dal"), 1.0)
    plan = make_plan(workload, seed=5, seconds=1)
    untraced = run_pass(plan, 1, tmp_path / "untraced")
    tracer = tracing.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        traced = run_pass(plan, 1, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert untraced.problems == traced.problems == []
    assert traced.runs == untraced.runs  # per-run digests of curves and selections

    def quality(result):
        return (result.final_f1, result.learning_curve().auc(),
                result.records[-1].num_labeled_positives)

    assert ([quality(result) for result in traced.results]
            == [quality(result) for result in untraced.results])
    fired = {span.wrapper for span in tracer.collect()}
    assert set(EXPECTED_WRAPPERS["battleship-small"]) <= fired


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "battleship-small", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_plans_depend_on_the_seed_alone():
    first = make_plan(WORKLOADS["battleship-small"], 11, 22)
    again = make_plan(WORKLOADS["battleship-small"], 11, 22)
    baselines = make_plan(WORKLOADS["baselines-small"], 11, 22)
    other = make_plan(WORKLOADS["battleship-small"], 12, 22)
    assert first == again
    assert baselines.units == first.units[:len(baselines.units)]
    assert first.settings.base_random_seed == baselines.settings.base_random_seed
    assert first.units != other.units
    # Every serial unit draws its own dataset.
    generation_seeds = [generation_seed for _, generation_seed, _ in first.units]
    assert len(set(generation_seeds)) == len(first.units)


def test_reference_clock_scales_each_segment_by_the_speed_at_its_ends(monkeypatch):
    readings = iter([1.0, 0.5, 2.0])
    monkeypatch.setattr(workloads, "machine_speed", lambda: next(readings))
    clock = ReferenceClock()
    first, second = clock.mark(), clock.mark()
    assert (first.factor, second.factor) == (0.75, 1.25)
    assert clock.speeds == [1.0, 0.5, 2.0]
    # A reading lies between segments, in neither of them.
    monkeypatch.setattr(workloads, "machine_speed",
                        lambda: (workloads.time.sleep(0.2), 1.0)[1])
    clock = ReferenceClock()
    assert clock.mark().wall < 0.1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    samples = [float(value) for value in range(1, 41)]
    median, tail, percentile = wait_percentiles(samples)
    assert median == 20.5
    assert tail == 30.0 and percentile == 75.0
    assert sum(sample > tail for sample in samples) == 10
    assert wait_percentiles(samples[:12]) == (6.5, 6.5, 50.0)
