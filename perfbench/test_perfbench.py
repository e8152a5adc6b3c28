"""Tests of the benchmark harness itself, at the smallest campaign sizes.

    python -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import campaign
import checks
import run
from checks import Checks
from tracing import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=None, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_metric_with_unit(workload):
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name]
            assert isinstance(metric["value"], (int, float))
        if trace == 0:
            assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_benchmark_json_names_the_harness_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert declared == table


def test_failed_gate_is_counted_and_not_raised():
    gates = Checks()
    assert gates.below("wrong expectation", 2.0, 1.0) is False
    assert gates.within("in range", 0.5, 0.0, 1.0) is True
    assert gates.below("nan fails", float("nan"), 1.0) is False
    assert gates.step("crashing step", lambda: 1 / 0) is None
    assert (gates.run, gates.failed) == (4, 3)
    assert any("ZeroDivisionError" in f for f in gates.failures())


def test_campaign_with_a_wrong_expected_value_counts_the_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(checks, "ORACLE_ERROR", 1e-12)
    record = campaign.run_campaign("dynamics", 1, "smoke", tmp_path)
    assert record["checks_failed"] == 1
    assert record["failures"][0].startswith("criterion 7 error at the largest m")
    assert record["checks_run"] > record["checks_failed"]


def test_same_seed_same_inputs_and_other_seed_other_inputs(tmp_path):
    def inputs(seed):
        work = tmp_path / str(seed)
        work.mkdir(exist_ok=True)
        got = campaign.setup("operators", seed, "smoke", work)
        return (Path(got["harmonic_path"]).read_text(), got["star_psi"],
                got["quantizer_points"], got["slice_entries"])

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_self_time_subtracts_direct_children():
    tracer = Tracer("t")
    tracer.spans = [["a", "slicer", 0.0, 10.0, -1, None],
                    ["b", "core", 1.0, 4.0, 0, None],
                    ["c", "core", 2.0, 3.0, 1, None]]
    assert tracer.self_times() == [7.0, 2.0, 1.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = bench("--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
