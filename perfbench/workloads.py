"""The benchmark's workloads: job lists made from one seed, and one pass.

A workload is a fixed list of optimiser jobs generated from ``--seed``.
One *pass* runs the whole list once through the public API
(``repro.core.optimise``, or ``fabric_submit`` / ``fabric_work`` /
``fabric_collect`` for ``campaign``) and returns, per job, a summary that
the oracle check compares.

This module imports ``repro`` lazily: the native extension must be
registered (:func:`activate_native`) before the first ``repro`` import,
so that ``repro.analysis.backend`` binds the freshly built module instead
of the source directory ``src/repro/_native/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: Scratch space of the benchmark inside the checkout (git-ignored).
SCRATCH = CHECKOUT / ".bench_build" / "perfbench"


class NativeInactive(RuntimeError):
    """A native workload would run without the compiled kernels."""


#: Workload -> analysis backend.  Why each workload exists is recorded
#: in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, str] = {
    "st-anneal": "native",
    "dyn-sweep": "native",
    "cf-search": "python",
    "campaign": "python",
}

#: Systems per ``st-anneal`` pass.  One generated system varies by about
#: 11 % in analysis rate from seed to seed; two halve that variance and
#: keep the Python oracle (one system per oracle process) short.
ST_SYSTEMS = 2
#: ``dyn-sweep`` sizes and suite members per size.
DYN_NODES = (3, 4, 5, 6, 7)
DYN_MEMBERS = 4
#: ``dyn-sweep``, ``cf-search`` and ``campaign`` utilisations, pinned at
#: the middle of the Section 7 draws (node 30-60 %, bus 10-70 %).  With
#: the full draws one 7-node DYN-only system costs anywhere from 0.2 s
#: to 1.2 s, so a pass would measure the seed more than the program.
NODE_UTILISATION = 0.45
BUS_UTILISATION = 0.40
#: ``cf-search`` suite members, and the static segment variants OBC
#: explores for each (1 instead of the default 28).
#: With six systems of four variants each at the full Section 7 draws,
#: a pass's analysis count, and so its wall time, varied by about 20 %
#: from seed to seed.  Systems at pinned utilisations analyse within a
#: few percent of the same count at every seed, but the cost of an
#: analysis still depends on the system, hence sixteen of them.  The CF
#: search inside each variant is unchanged.
CF_MEMBERS = 16
CF_EXTRA_STATIC_SLOTS = 0
CF_SLOT_SIZE_STEPS = 0
#: ``dyn-sweep`` lanes the oracle re-analyses in Python, per job: the
#: lowest-cost lanes, which decide the result, and seeded random ones.
DYN_ORACLE_BEST = 16
DYN_ORACLE_LANES = 24


@dataclass
class Job:
    job_id: str
    system: object
    strategy: str
    options: object


# ----------------------------------------------------------------------
# native extension
# ----------------------------------------------------------------------
def activate_native(native_dir: str) -> str:
    """Register the ``repro._native`` built in *native_dir*; returns its path.

    Must run before anything imports ``repro``.
    """
    if "repro" in sys.modules:
        raise NativeInactive("repro was imported before the extension was loaded")
    candidates = sorted(Path(native_dir).glob("_native*.so"))
    if len(candidates) != 1:
        raise NativeInactive(
            f"expected one built repro._native in {native_dir}, "
            f"found {len(candidates)}"
        )
    spec = importlib.util.spec_from_file_location("repro._native", candidates[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules["repro._native"] = module
    return str(candidates[0])


def require_native_active(expected_path: Optional[str] = None) -> None:
    """Fail loudly unless ``backend="native"`` would really run in C.

    ``AnalysisContext._analyse_native_batch`` quietly falls back to the
    Python path when the extension (or numpy) is missing, which would
    report Python numbers as native ones.
    """
    from repro.analysis.backend import native_or_none, numpy_or_none

    native = native_or_none()
    if native is None or numpy_or_none() is None:
        raise NativeInactive(
            "backend='native' is not active: repro.analysis.backend."
            "native_or_none() is None or numpy is missing, so the native "
            "workloads would silently run the Python path"
        )
    if expected_path is not None and getattr(native, "__file__", None) != expected_path:
        raise NativeInactive(
            f"repro._native is {getattr(native, '__file__', native)!r}, "
            f"not the extension built from this checkout ({expected_path})"
        )


# ----------------------------------------------------------------------
# job lists
# ----------------------------------------------------------------------
def _bus(backend: str, warm_start: str = "certified"):
    from repro.analysis.holistic import AnalysisOptions
    from repro.core import BusOptimisationOptions

    return BusOptimisationOptions(
        analysis=AnalysisOptions(backend=backend, warm_start=warm_start)
    )


def make_jobs(workload: str, seed: int, backend: str, warm_start: str = "certified") -> List[Job]:
    """The job list of *workload* at *seed*, analysed on *backend*."""
    from repro.core import GAOptions, SAOptions, StrategyOptions
    from repro.synth.suite import paper_system
    from repro.synth.taskgraph_gen import GeneratorConfig, generate_system

    bus = _bus(backend, warm_start)
    jobs: List[Job] = []
    if workload == "st-anneal":
        for k in range(ST_SYSTEMS):
            system = generate_system(
                GeneratorConfig(
                    n_nodes=6,
                    tasks_per_node=24,
                    tasks_per_graph=4,
                    seed=seed * ST_SYSTEMS + k,
                )
            )
            jobs.append(Job(f"st{k}__sa", system, "sa", SAOptions(bus=bus)))
            jobs.append(Job(f"st{k}__ga", system, "ga", GAOptions(bus=bus)))
    elif workload == "dyn-sweep":
        base = GeneratorConfig(
            tt_graph_share=0.0,
            node_utilisation=(NODE_UTILISATION, NODE_UTILISATION),
            bus_utilisation=(BUS_UTILISATION, BUS_UTILISATION),
        )
        for n in DYN_NODES:
            for i in range(DYN_MEMBERS):
                jobs.append(
                    Job(
                        f"dyn{n}n{i}__obc-ee",
                        paper_system(n, i, base, seed),
                        "obc-ee",
                        StrategyOptions(bus=bus),
                    )
                )
    elif workload == "cf-search":
        bus = replace(
            bus,
            max_extra_static_slots=CF_EXTRA_STATIC_SLOTS,
            max_slot_size_steps=CF_SLOT_SIZE_STEPS,
        )
        base = GeneratorConfig(
            node_utilisation=(NODE_UTILISATION, NODE_UTILISATION),
            bus_utilisation=(BUS_UTILISATION, BUS_UTILISATION),
        )
        for i in range(CF_MEMBERS):
            jobs.append(
                Job(
                    f"cf3n{i}__obc-cf",
                    paper_system(3, i, base, seed),
                    "obc-cf",
                    StrategyOptions(bus=bus),
                )
            )
    else:
        raise ValueError(f"{workload} has no plain job list")
    return jobs


def campaign_systems(seed: int) -> Dict[str, object]:
    """:data:`CAMPAIGN_SYSTEMS` 2-node Section 7 systems at pinned utilisations."""
    from repro.synth.suite import paper_system
    from repro.synth.taskgraph_gen import GeneratorConfig

    base = GeneratorConfig(
        node_utilisation=(NODE_UTILISATION, NODE_UTILISATION),
        bus_utilisation=(BUS_UTILISATION, BUS_UTILISATION),
    )
    return {f"2n-{i:02d}": paper_system(2, i, base, seed) for i in range(CAMPAIGN_SYSTEMS)}


#: ``campaign`` matrix: many short jobs, each on a cold context.  One
#: 2-node system's GA and BBC jobs cost from about half to one and a
#: half times their mean, from seed to seed, even at pinned
#: utilisations; one SA job on a 4-node system ran from 1.3 s to 4.0 s
#: over five seeds.  Sixty small systems keep a pass's cost within a few
#: percent of the same value at every seed.
CAMPAIGN_SYSTEMS = 60
CAMPAIGN_STRATEGIES = ("ga", "bbc")
#: Fabric workers draining a campaign pass.  Two workers on the 2-CPU
#: measurement host made the drain time of the same seed range over
#: 23-39 % of its median in three passes, against 8 % for one worker:
#: with both CPUs busy, the slower of the two sets the drain.
CAMPAIGN_WORKERS = 1


# ----------------------------------------------------------------------
# summaries: what the oracle check compares
# ----------------------------------------------------------------------
def _strip_clocks(doc):
    if isinstance(doc, dict):
        return {k: _strip_clocks(v) for k, v in doc.items() if k != "elapsed_seconds"}
    if isinstance(doc, list):
        return [_strip_clocks(v) for v in doc]
    return doc


def summarise(result, system, strategy: str) -> dict:
    """Best configuration, cost and analysis count of one job, plus a
    digest of the whole result (trace included) modulo wall clock."""
    from repro.io.serialization import config_to_dict, result_to_dict, system_fingerprint

    doc = _strip_clocks(result_to_dict(result))
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return {
        "input": f"{system_fingerprint(system)}:{strategy}",
        "config": None if result.config is None else config_to_dict(result.config),
        "cost": result.cost,
        "schedulable": result.schedulable,
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "digest": digest,
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Iterations of the host speed probe, a fixed pure-Python loop that
#: shares no code with the program under test.
PROBE_LOOPS = 500_000
#: The probe's time at the reference host speed: about its time on the
#: 2-CPU measurement host in a quiet spell.  ``wall_norm_s`` is a pass's
#: wall time scaled by this over the probe's mean time during the pass.
PROBE_REF_S = 0.040
#: Between two jobs, the probe runs once this long has passed since its
#: last run, so that it samples the host throughout the pass.
PROBE_EVERY_S = 0.5


class Prober:
    """Times :data:`PROBE_LOOPS` between jobs; the times are in ``times``."""

    def __init__(self):
        self.times: List[float] = []
        self._last = float("-inf")

    def between_jobs(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            start = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i % 7
            self._last = time.perf_counter()
            self.times.append(self._last - start)


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    #: Wall time of the pass, without the probe's runs.
    wall_s: float
    summaries: Dict[str, dict]
    errors: Dict[str, str]
    #: The probe's times during the pass (none for the oracle).
    probes: List[float] = field(default_factory=list)


def run_jobs(
    jobs: List[Job],
    on_job: Optional[Callable[[str], None]] = None,
    prober: Optional[Prober] = None,
) -> PassResult:
    """Run every job once through ``repro.core.optimise``.

    With a *prober*, the host speed probe runs before the first job,
    between jobs and after the last one.
    """
    from repro.core import optimise

    summaries: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    start = time.perf_counter()
    for job in jobs:
        if prober is not None:
            prober.between_jobs()
        if on_job is not None:
            on_job(job.job_id)
        try:
            result = optimise(job.system, job.strategy, job.options)
        except Exception as exc:  # a job that raises is a failed job
            errors[job.job_id] = f"{type(exc).__name__}: {exc}"
            continue
        summaries[job.job_id] = (result, job)
    probes = []
    if prober is not None:
        prober.between_jobs(force=True)
        probes, prober.times = prober.times, []
    wall = time.perf_counter() - start - sum(probes)
    if on_job is not None:
        on_job(None)
    return PassResult(
        wall,
        {
            job_id: summarise(result, job.system, job.strategy)
            for job_id, (result, job) in summaries.items()
        },
        errors,
        probes,
    )


def run_campaign_pass(systems, root: str, tracer=None):
    """Submit the campaign matrix, drain it with the fabric workers, collect it.

    Returns ``(PassResult, the workers' span records)``.  Workers run
    ``fabric_work(once=True)``: each returns as soon as no job is
    claimable, so the drain is never quantised by ``poll`` sleeps.  With
    a *tracer*, submit and collect are recorded as spans and each worker
    records its own spans in a file next to *root*.  The workers run the
    host speed probe between jobs and report its times.
    """
    from repro.core import fabric_collect, fabric_submit

    submit, collect, span_files = fabric_submit, fabric_collect, []
    if tracer is not None:
        submit = tracer.wrap("fabric.submit", submit)
        collect = tracer.wrap("fabric.collect", collect)
        span_files = [f"{root}-w{k}-spans.json" for k in range(CAMPAIGN_WORKERS)]
    shutil.rmtree(root, ignore_errors=True)
    try:
        result = _drain(systems, root, span_files, submit, collect)
        workers = []
        for path in span_files:
            if os.path.exists(path):  # a failed worker is in result.errors
                with open(path, encoding="utf-8") as fh:
                    workers.append(json.load(fh))
        return result, workers
    finally:
        shutil.rmtree(root, ignore_errors=True)
        for path in span_files:
            if os.path.exists(path):
                os.remove(path)


def _drain(systems, root, span_files, submit, collect) -> PassResult:
    summaries: Dict[str, dict] = {}
    errors: Dict[str, str] = {}
    start = time.perf_counter()
    spec = submit(root, systems, list(CAMPAIGN_STRATEGIES))
    procs = []
    probes: List[float] = []
    try:
        for k in range(CAMPAIGN_WORKERS):
            cmd = [sys.executable, str(HERE / "child.py"), "fabric-worker", root, f"w{k}"]
            procs.append(
                subprocess.Popen(cmd + span_files[k:k + 1], stdout=subprocess.PIPE, text=True)
            )
        for k, proc in enumerate(procs):
            stdout, _ = proc.communicate(timeout=150)
            if proc.returncode != 0:
                errors[f"worker-w{k}"] = f"fabric worker exited with {proc.returncode}"
            else:
                probes += json.loads(stdout.strip().splitlines()[-1])["probes"]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    try:
        report = collect(root)
    except Exception as exc:  # an incomplete fabric fails every job
        wall = time.perf_counter() - start - sum(probes)
        for job in spec.jobs:
            errors[job.job_id] = f"{type(exc).__name__}: {exc}"
        return PassResult(wall, summaries, errors, probes)
    # One worker: its probe runs all fall inside the drain.
    wall = time.perf_counter() - start - sum(probes)
    for job in spec.jobs:
        if job.job_id in report.results:
            summaries[job.job_id] = summarise(
                report.results[job.job_id], spec.systems[job.system_id], job.strategy
            )
        else:
            failure = report.failures.get(job.job_id)
            errors[job.job_id] = failure.describe() if failure else "missing"
    summaries["@report"] = {"executed": list(report.executed)}
    return PassResult(wall, summaries, errors, probes)


def campaign_oracle(systems, root: str) -> Dict[str, dict]:
    """The sequential single-process ``run_campaign`` of the same matrix."""
    from repro.core import fabric_submit, run_campaign

    shutil.rmtree(root, ignore_errors=True)
    try:
        spec = fabric_submit(root, systems, list(CAMPAIGN_STRATEGIES))
        report = run_campaign(spec.systems, spec.jobs, options=spec.options)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out = {
        job.job_id: summarise(
            report.results[job.job_id], spec.systems[job.system_id], job.strategy
        )
        for job in spec.jobs
        if job.job_id in report.results
    }
    out["@report"] = {"executed": list(report.executed)}
    return out


def _share(jobs: List[Job], part: int, parts: int) -> List[Job]:
    """Every *parts*-th system's jobs, starting at *part*."""
    systems = [list(group) for _, group in itertools.groupby(jobs, key=lambda j: id(j.system))]
    return [job for group in systems[part::parts] for job in group]


def oracle_summaries(workload: str, seed: int, root: str, part: int = 0, parts: int = 1) -> Dict[str, dict]:
    """The pure-Python oracle's summaries of *workload* at *seed*.

    * ``st-anneal``: the same jobs on ``backend="python"``.
    * ``cf-search``: the same jobs on the cold Python path
      (``warm_start="off"``), since the timed run already is Python.
    * ``campaign``: a sequential ``run_campaign`` of the same matrix.
    * ``dyn-sweep``: see :func:`sampled_dyn_oracle`.

    The job list may be split by system: this call covers the systems
    ``part::parts`` (``campaign`` is never split).
    """
    if workload == "campaign":
        return campaign_oracle(campaign_systems(seed), root)
    if workload == "dyn-sweep":
        return sampled_dyn_oracle(_share(make_jobs(workload, seed, "native"), part, parts), seed)
    warm_start = "off" if workload == "cf-search" else "certified"
    jobs = make_jobs(workload, seed, "python", warm_start=warm_start)
    return run_jobs(_share(jobs, part, parts)).summaries


def _signature(result) -> tuple:
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        result.cost_value,
        tuple(sorted(result.wcrt.items())) if result.wcrt else (),
    )


def sampled_dyn_oracle(jobs: List[Job], seed: int) -> Dict[str, dict]:
    """Spot-check of native OBC-EE jobs against the Python analysis.

    A Python oracle of the whole sweep costs about 50x a native pass
    (some 120 s for ten systems), beyond one run's time limit.  So each
    job is re-run natively while every analysed lane is recorded; the
    best lane, the :data:`DYN_ORACLE_BEST` lowest-cost lanes and
    :data:`DYN_ORACLE_LANES` seeded random lanes are then re-analysed on
    a Python context.  Any lane that differs marks the job as
    mismatched.  A native error that made the winning lane look worse
    than it is, and hit no checked lane, would still pass.
    """
    import random

    from repro.analysis.context import AnalysisContext
    from repro.analysis.holistic import AnalysisOptions
    from repro.core import optimise

    out: Dict[str, dict] = {}
    batch = AnalysisContext.analyse_batch
    for job in jobs:
        lanes: list = []

        def recording(self, configs, _batch=batch, _lanes=lanes):
            results = _batch(self, configs)
            _lanes.extend(zip(configs, results))
            return results

        AnalysisContext.analyse_batch = recording
        try:
            result = optimise(job.system, job.strategy, job.options)
        finally:
            AnalysisContext.analyse_batch = batch
        summary = summarise(result, job.system, job.strategy)
        rng = random.Random(f"{seed}:{job.job_id}")
        picks = set(rng.sample(range(len(lanes)), min(DYN_ORACLE_LANES, len(lanes))))
        picks.update(sorted(range(len(lanes)), key=lambda i: lanes[i][1].cost_value)[:DYN_ORACLE_BEST])
        checked = [lanes[i] for i in sorted(picks)]
        if result.best is not None:
            checked.append((result.best.config, result.best))
        python = AnalysisContext(job.system, AnalysisOptions(backend="python"))
        bad = [
            config.n_minislots
            for config, native in checked
            if _signature(python.analyse(config)) != _signature(native)
        ]
        if bad:
            summary = dict(summary, mismatch=f"native != python at n_minislots {bad}")
        out[job.job_id] = summary
    return out


def compare(measured: Dict[str, dict], oracle: Dict[str, dict]) -> Dict[str, str]:
    """Jobs whose summary differs from the oracle's, with the reason.

    A job the oracle has no entry for, or whose entry was made from other
    inputs (a stale reference), is a mismatch: it never passes.
    """
    bad: Dict[str, str] = {}
    for job_id, summary in measured.items():
        ref = oracle.get(job_id)
        if ref is None:
            bad[job_id] = "no oracle reference"
        elif job_id == "@report":
            if ref != summary:
                bad[job_id] = "collected report lists other jobs than run_campaign"
        elif ref.get("input") != summary.get("input"):
            bad[job_id] = "stale oracle reference (made from other inputs)"
        elif "mismatch" in ref:
            bad[job_id] = ref["mismatch"]
        else:
            fields = [
                key
                for key in ("config", "cost", "schedulable", "evaluations", "cache_hits", "digest")
                if ref.get(key) != summary.get(key)
            ]
            if fields:
                bad[job_id] = "differs from the oracle in " + ", ".join(fields)
    return bad


def fabric_root(tag: str) -> str:
    path = SCRATCH / "work" / f"{os.getpid()}-{tag}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path)
