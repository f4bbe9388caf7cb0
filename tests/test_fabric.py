"""Crash/chaos battery of the distributed campaign fabric.

The fabric (:mod:`repro.core.fabric`) promises that any number of
worker processes can drain one campaign concurrently, that any worker
may die at any point without corrupting or losing results, and that the
merged report is byte-identical (modulo wall-clock fields) to a
sequential single-process run.  This module attacks each leg:

* manifest submission is idempotent and content-addressed; a foreign
  campaign is rejected rather than racing the workers' matrix,
* a single worker's drain reproduces the sequential oracle exactly,
* concurrent workers partition the matrix with exactly one ``completed``
  journal event per job (the lease accounting),
* expired, corrupt and foreign leases are reaped/honoured correctly,
* a terminally failing job lands in a failure marker once instead of
  being re-claimed forever,
* and the acceptance chaos test: two subprocess workers, one SIGKILLed
  mid-lease, the survivor reaps the dead lease, finishes the matrix,
  and the merged report equals the oracle -- with zero jobs run twice
  to completion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core import strategies as strategies_module
from repro.core.campaign import CampaignOptions, run_campaign
from repro.core.fabric import (
    _lease_path,
    fabric_collect,
    fabric_events,
    fabric_status,
    fabric_submit,
    fabric_work,
    load_fabric,
)
from repro.core.sa import SAOptions
from repro.core.strategies import StrategyOptions, StrategySpec, register_strategy
from repro.errors import CampaignError
from repro.io.serialization import result_to_dict
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system

from tests.util import campaign_systems, small_bus

pytestmark = pytest.mark.fabric


# ----------------------------------------------------------------------
# shared fixtures
# ----------------------------------------------------------------------
def _strategies(sa_iterations=30):
    return ["bbc", ("sa", SAOptions(iterations=sa_iterations, seed=7))]


def _submit(root, **kw):
    kw.setdefault("bus", small_bus())
    return fabric_submit(root, campaign_systems(), _strategies(), **kw)


def _oracle(spec):
    """The sequential single-process run of the fabric's own matrix."""
    return run_campaign(spec.systems, spec.jobs, options=spec.options)


def _strip_clocks(doc):
    """Drop wall-clock fields: 'byte-identical modulo wall-clock'."""
    if isinstance(doc, dict):
        return {
            key: _strip_clocks(value)
            for key, value in doc.items()
            if key != "elapsed_seconds"
        }
    if isinstance(doc, list):
        return [_strip_clocks(item) for item in doc]
    return doc


def _result_docs(report):
    return {
        job_id: _strip_clocks(result_to_dict(result))
        for job_id, result in report.results.items()
    }


def _completions(root):
    """job_id -> [worker, ...] of journalled ``completed`` events."""
    done = {}
    for event in fabric_events(root):
        if event["event"] == "completed":
            done.setdefault(event["job"], []).append(event["worker"])
    return done


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_submission_is_idempotent_and_content_addressed(self, tmp_path):
        root = str(tmp_path / "fab")
        spec = _submit(root)
        again = _submit(root)
        assert again.fabric_id == spec.fabric_id
        assert [j.job_id for j in again.jobs] == [j.job_id for j in spec.jobs]

        loaded = load_fabric(root)
        assert loaded.fabric_id == spec.fabric_id
        # The decoded matrix carries the campaign-wide bus preset.
        assert all(j.options.bus == small_bus() for j in loaded.jobs)
        assert loaded.options == CampaignOptions()

    def test_submitting_a_different_campaign_is_rejected(self, tmp_path):
        root = str(tmp_path / "fab")
        _submit(root)
        with pytest.raises(CampaignError, match="different campaign"):
            fabric_submit(root, campaign_systems(), ["bbc"], bus=small_bus())

    def test_load_requires_a_manifest(self, tmp_path):
        with pytest.raises(CampaignError, match="not a fabric directory"):
            load_fabric(str(tmp_path / "empty"))

    def test_campaign_options_and_meta_ride_the_manifest(self, tmp_path):
        root = str(tmp_path / "fab")
        options = CampaignOptions(job_timeout=9.0, max_retries=2)
        _submit(root, options=options, meta={"suite": {"count": 3}})
        loaded = load_fabric(root)
        assert loaded.options == options
        assert loaded.meta == {"suite": {"count": 3}}

    def test_per_strategy_bus_must_match_the_campaign_bus(self, tmp_path):
        with pytest.raises(CampaignError, match="bus"):
            fabric_submit(
                str(tmp_path / "fab"),
                campaign_systems(),
                [("sa", SAOptions(iterations=5, bus=small_bus()))],
                bus=None,
            )


# ----------------------------------------------------------------------
# draining
# ----------------------------------------------------------------------
class TestDrain:
    def test_single_worker_matches_sequential_oracle(self, tmp_path):
        root = str(tmp_path / "fab")
        spec = _submit(root)
        report = fabric_work(root, worker_id="w0", lease_ttl=5.0)
        assert sorted(report.completed) == sorted(
            j.job_id for j in spec.jobs
        )

        merged = fabric_collect(root)
        oracle = _oracle(spec)
        assert _result_docs(merged) == _result_docs(oracle)
        assert merged.executed == oracle.executed  # matrix order too
        assert merged.failures == {} and oracle.failures == {}
        assert fabric_status(root).complete

    def test_drained_fabric_gives_workers_nothing(self, tmp_path):
        root = str(tmp_path / "fab")
        _submit(root)
        fabric_work(root, worker_id="w0", lease_ttl=5.0)
        again = fabric_work(root, worker_id="w1", lease_ttl=5.0)
        assert again.completed == () and again.reaped == ()
        # Still exactly one completion per job after the second pass.
        assert all(
            len(workers) == 1 for workers in _completions(root).values()
        )

    def test_incomplete_fabric_refuses_to_collect(self, tmp_path):
        root = str(tmp_path / "fab")
        spec = _submit(root)
        fabric_work(root, worker_id="w0", lease_ttl=5.0, max_jobs=1)
        with pytest.raises(CampaignError, match="incomplete"):
            fabric_collect(root)
        partial = fabric_collect(root, require_complete=False)
        assert len(partial.results) == 1 and len(spec.jobs) == 4

    def test_concurrent_workers_partition_the_matrix(self, tmp_path):
        import threading

        root = str(tmp_path / "fab")
        spec = _submit(root)
        reports = {}

        def work(worker_id):
            reports[worker_id] = fabric_work(
                root, worker_id=worker_id, lease_ttl=5.0, poll=0.05
            )

        threads = [
            threading.Thread(target=work, args=(f"w{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        completions = _completions(root)
        assert sorted(completions) == sorted(j.job_id for j in spec.jobs)
        assert all(len(workers) == 1 for workers in completions.values())
        claimed = [
            job_id for r in reports.values() for job_id in r.completed
        ]
        assert sorted(claimed) == sorted(j.job_id for j in spec.jobs)
        assert _result_docs(fabric_collect(root)) == _result_docs(
            _oracle(spec)
        )


# ----------------------------------------------------------------------
# leases
# ----------------------------------------------------------------------
class TestLeases:
    def test_live_foreign_lease_is_honoured(self, tmp_path):
        root = str(tmp_path / "fab")
        spec = _submit(root)
        blocked = spec.jobs[0]
        path = _lease_path(root, blocked.job_id)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"owner": "ghost", "ttl": 9999.0, "beats": 0}, fh)

        report = fabric_work(root, worker_id="w0", lease_ttl=5.0, once=True)
        assert blocked.job_id not in report.completed
        assert len(report.completed) == len(spec.jobs) - 1
        assert blocked.job_id in fabric_status(root).leased

        os.remove(path)
        fabric_work(root, worker_id="w0", lease_ttl=5.0)
        assert fabric_status(root).complete

    def test_expired_lease_is_reaped_and_taken_over(self, tmp_path):
        root = str(tmp_path / "fab")
        spec = _submit(root)
        dead = spec.jobs[0]
        path = _lease_path(root, dead.job_id)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"owner": "ghost", "ttl": 1.0, "beats": 3}, fh)
        stale = time.time() - 60
        os.utime(path, (stale, stale))

        report = fabric_work(root, worker_id="w0", lease_ttl=5.0)
        assert dead.job_id in report.reaped
        assert dead.job_id in report.completed
        reap_events = [
            e for e in fabric_events(root) if e["event"] == "reaped"
        ]
        assert [e["dead_owner"] for e in reap_events] == ["ghost"]
        # The tombstone keeps the takeover inspectable.
        assert os.path.exists(f"{path}.reaped.1")

    def test_corrupt_lease_is_reclaimed_not_deadlocked(self, tmp_path):
        root = str(tmp_path / "fab")
        spec = _submit(root)
        path = _lease_path(root, spec.jobs[0].job_id)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{half-written garbage")

        report = fabric_work(root, worker_id="w0", lease_ttl=5.0)
        assert spec.jobs[0].job_id in report.completed
        assert fabric_status(root).complete


# ----------------------------------------------------------------------
# failure markers
# ----------------------------------------------------------------------
def _exploding_runner(system, options):
    raise RuntimeError("boom")


class TestFailureMarkers:
    def test_failing_job_settles_once_instead_of_looping(self, tmp_path):
        register_strategy(
            StrategySpec(
                name="explode",
                summary="always raises (test-only)",
                options_type=StrategyOptions,
                runner=_exploding_runner,
            )
        )
        try:
            root = str(tmp_path / "fab")
            spec = fabric_submit(
                root,
                campaign_systems(),
                ["bbc", "explode"],
                bus=small_bus(),
            )
            report = fabric_work(root, worker_id="w0", lease_ttl=5.0)
            exploded = sorted(
                j.job_id for j in spec.jobs if j.strategy == "explode"
            )
            assert sorted(report.failed) == exploded
            status = fabric_status(root)
            assert status.complete and sorted(status.failed) == exploded

            # A second worker sees settled failures, not claimable work.
            again = fabric_work(root, worker_id="w1", lease_ttl=5.0)
            assert again.completed == () and again.failed == ()

            merged = fabric_collect(root)
            assert sorted(merged.failures) == exploded
            for failure in merged.failures.values():
                assert failure.kind == "error"
                assert "boom" in failure.message
        finally:
            strategies_module._REGISTERED.pop("explode", None)


# ----------------------------------------------------------------------
# the chaos acceptance test
# ----------------------------------------------------------------------
def _spawn_worker(root, worker_id, lease_ttl):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "work", str(root),
         "--worker-id", worker_id, "--lease-ttl", str(lease_ttl),
         "--poll", "0.1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=repo,
    )


@pytest.mark.perf_smoke
class TestChaosTakeover:
    def test_sigkill_mid_lease_takeover_matches_oracle(self, tmp_path):
        started = time.monotonic()
        # Seconds per phase, printed if the wall-clock gate fails.
        phases = {}
        last = [started]

        def lap(phase):
            now = time.monotonic()
            phases[phase] = now - last[0]
            last[0] = now

        # One fast job (bbc, checkpoints in ~0.4s) and one long job
        # (sa at 160 iterations, a few seconds): worker A finishes bbc,
        # is SIGKILLed mid-sa, and worker B must reap the dead lease.
        system = generate_system(
            GeneratorConfig(
                n_nodes=6, tasks_per_node=24, tasks_per_graph=4, seed=3
            )
        )
        root = str(tmp_path / "fab")
        spec = fabric_submit(
            root,
            {"gen6": system},
            ["bbc", ("sa", SAOptions(iterations=160, seed=11))],
        )
        long_job = "gen6__sa"
        assert [j.job_id for j in spec.jobs] == ["gen6__bbc", long_job]
        lap("generate and submit")

        ttl = 1.2
        journal_a = os.path.join(root, "journal", "A.jsonl")
        worker_a = _spawn_worker(root, "A", ttl)
        worker_b = None
        try:
            # Wait until A holds the long job's lease, then pull the
            # plug mid-run (SIGKILL: no cleanup, the lease stays).
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if worker_a.poll() is not None:
                    raise AssertionError(
                        f"worker A exited early:\n{worker_a.stdout.read()}"
                    )
                if os.path.exists(journal_a) and any(
                    json.loads(line)["event"] == "claimed"
                    and json.loads(line)["job"] == long_job
                    for line in open(journal_a, encoding="utf-8")
                ):
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("worker A never claimed the long job")
            lap("worker A claims the long job")
            time.sleep(0.2)  # let the sa run get properly underway
            worker_a.kill()
            worker_a.wait(timeout=10)
            lap("worker A killed")

            # Worker B joins after the crash: it must wait out the dead
            # lease's ttl, reap it, and finish the matrix.
            worker_b = _spawn_worker(root, "B", ttl)
            assert worker_b.wait(timeout=30) == 0, worker_b.stdout.read()
            lap("worker B reaps and exits")
        finally:
            for proc in (worker_a, worker_b):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)

        # The merged report is byte-identical (modulo wall-clock
        # fields) to the sequential single-worker oracle.
        merged = fabric_collect(root)
        lap("fabric_collect")
        oracle = _oracle(spec)
        lap("sequential oracle")
        assert _result_docs(merged) == _result_docs(oracle)
        assert merged.executed == oracle.executed
        assert merged.failures == {} and oracle.failures == {}

        # Lease accounting: zero jobs ran twice to completion, and the
        # long job's completion belongs to the surviving worker after
        # an explicit takeover of A's dead lease.
        completions = _completions(root)
        assert sorted(completions) == [j.job_id for j in spec.jobs]
        assert all(len(workers) == 1 for workers in completions.values())
        assert completions["gen6__bbc"] == ["A"]
        assert completions[long_job] == ["B"]
        takeovers = [
            e for e in fabric_events(root) if e["event"] == "reaped"
        ]
        assert [(e["job"], e["dead_owner"]) for e in takeovers] == [
            (long_job, "A")
        ]
        lap("checks")
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s: " + ", ".join(
            f"{phase} {seconds:.2f}s" for phase, seconds in phases.items()
        )
