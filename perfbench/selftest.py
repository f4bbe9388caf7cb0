"""Tests of the benchmark itself.

Run from the root of a checkout (they are not part of the repository's
test suite, and take about three minutes)::

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=CHECKOUT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_of_every_workload(workload):
    result = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "1"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_campaign_reports_every_layer_metric():
    proc = _bench("--workload", "campaign", "--seed", "2", "--seconds", "1", "--trace", "1")
    result = _result(proc)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # The fabric worker's spans were merged: every job ran inside it.
    jobs = workloads.CAMPAIGN_SYSTEMS * len(workloads.CAMPAIGN_STRATEGIES)
    assert metrics["fabric.jobs"] == jobs
    assert metrics["fabric.worker_busy_s"] > 0 and metrics["context.builds"] >= jobs
    assert "self s" in proc.stdout


def test_native_guard_trips_when_the_extension_is_hidden():
    # No built extension handed over: the native workloads refuse to run.
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", "setup", "--workload", "st-anneal", "--seed", "1"],
        cwd=CHECKOUT,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(CHECKOUT / "src")},
    )
    assert proc.returncode == 3
    assert "not active" in proc.stderr
    assert proc.stdout == ""


def test_native_guard_trips_when_the_backend_loses_the_module():
    native_dir, _ = run.build_native()
    code = (
        "import sys, workloads\n"
        f"path = workloads.activate_native({native_dir!r})\n"
        "workloads.require_native_active(path)\n"
        "import repro.analysis.backend as backend\n"
        "backend._native_module = None\n"
        "try:\n"
        "    workloads.require_native_active(path)\n"
        "except workloads.NativeInactive:\n"
        "    print('tripped')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": f"{HERE}:{CHECKOUT / 'src'}"},
    )
    assert proc.stdout.strip() == "tripped", proc.stderr


@pytest.fixture(scope="module")
def summary():
    sys.path.insert(0, str(CHECKOUT / "src"))
    from repro.core import optimise
    from repro.synth.suite import paper_system

    system = paper_system(2, 0, seed=1)
    return workloads.summarise(optimise(system, "bbc"), system, "bbc")


@pytest.mark.parametrize(
    "field, value",
    [("cost", 1.5), ("evaluations", 7), ("config", None), ("digest", "0" * 64)],
)
def test_oracle_check_catches_a_perturbed_result(summary, field, value):
    perturbed = dict(summary, **{field: value})
    assert workloads.compare({"j": summary}, {"j": summary}) == {}
    bad = workloads.compare({"j": perturbed}, {"j": summary})
    assert field in bad["j"]
    passes = [{"summaries": {"j": perturbed}, "errors": {}}]
    assert run.check(passes, {"j": summary})[:2] == (1, 1)


def test_missing_or_stale_reference_never_passes(summary):
    assert workloads.compare({"j": summary}, {}) == {"j": "no oracle reference"}
    stale = dict(summary, input="another-system:bbc")
    assert "stale" in workloads.compare({"j": summary}, {"j": stale})["j"]


def test_a_job_that_raised_counts_as_failed(summary):
    passes = [{"summaries": {"j": summary}, "errors": {"k": "ValueError: x"}}]
    assert run.check(passes, {"j": summary, "k": summary})[:2] == (2, 1)


def test_without_sources_the_benchmark_exits_without_a_result(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "st-anneal", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
