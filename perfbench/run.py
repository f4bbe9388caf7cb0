"""End-to-end benchmark of the FlexRay bus-access optimisers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload st-anneal --seed 1 --seconds 10 --trace 0

Workloads: ``st-anneal``, ``dyn-sweep``, ``cf-search``, ``campaign``
(see ``perfbench/README.md``).  The run

1. builds ``repro._native`` from ``src/repro/_native/nativemodule.c``
   into ``.bench_build/perfbench/native/<source digest>/`` (native
   workloads only, cached per digest, never into ``src/``);
2. runs passes over the workload's job list for ``--seconds`` in one
   fresh process (``--trace 1``: untraced and traced passes alternate);
3. times process set-up (imports, inputs, extension load) in fresh
   processes, half of them before the passes and half after;
4. checks every job of every pass against the pure-Python oracle
   (:func:`workloads.oracle_summaries`), computed in another process;
5. prints a table, then one JSON line: ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (end-to-end metrics, or per-layer metrics
   with ``--trace 1``).

Exits non-zero without a result when the checkout has no sources, the
extension cannot be built, or a native workload would run without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import CHECKOUT, PROBE_REF_S, SCRATCH, WORKLOADS, compare  # noqa: E402

NATIVE_SOURCE = CHECKOUT / "src" / "repro" / "_native" / "nativemodule.c"
#: Fresh processes whose set-up is timed, besides the measuring one;
#: ``setup_s`` is the median of all.  Half run before the passes and half
#: after, so that one slow spell of the host does not set the median.
SETUP_SAMPLES = 10
#: Oracle processes run at once, after timing (the measurement host has 2 CPUs).
ORACLE_PROCESSES = 2
#: Every child must be done this long after the run starts.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_norm_s": "s",
    "analyses_per_norm_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_BUILD = """
import sys
from setuptools import Distribution, Extension
source, lib, tmp = sys.argv[1:4]
dist = Distribution({"name": "perfbench-native",
                     "ext_modules": [Extension("repro._native", [source])]})
cmd = dist.get_command_obj("build_ext")
cmd.build_lib, cmd.build_temp = lib, tmp
cmd.ensure_finalized()
cmd.run()
"""


class BenchError(Exception):
    """The run cannot produce a trustworthy result."""


def build_native() -> tuple:
    """``(directory holding the built extension, build seconds)``.

    Keyed by the digest of the C source and the interpreter, so an edit
    to ``nativemodule.c`` is measured on its own build.
    """
    digest = hashlib.sha256(NATIVE_SOURCE.read_bytes())
    digest.update(f"{sys.version}|{platform.machine()}".encode())
    out = SCRATCH / "native" / digest.hexdigest()[:16]
    stamp = out / "build.json"
    if stamp.exists():
        return str(out), json.loads(stamp.read_text())["build_s"]
    tmp = SCRATCH / "native" / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.perf_counter()
    (tmp / "tmp").mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD, str(NATIVE_SOURCE), str(tmp / "lib"), str(tmp / "obj")],
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, TMPDIR=str(tmp / "tmp")),  # compiler scratch stays in the checkout
    )
    build_s = time.perf_counter() - start
    built = sorted((tmp / "lib" / "repro").glob("_native*.so"))
    if proc.returncode != 0 or len(built) != 1:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BenchError(f"building repro._native failed:\n{proc.stderr[-2000:]}")
    staged = tmp / "out"
    staged.mkdir()
    shutil.move(str(built[0]), staged / built[0].name)
    (staged / "build.json").write_text(json.dumps({"build_s": build_s}))
    shutil.rmtree(out, ignore_errors=True)
    staged.rename(out)
    shutil.rmtree(tmp, ignore_errors=True)
    return str(out), build_s


class Children:
    """Starts the child processes and always reaps them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(CHECKOUT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        # Anything the children put in a temporary file stays in the checkout.
        tmp = SCRATCH / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env["TMPDIR"] = str(tmp)

    def run(self, role: str, *args: str) -> tuple:
        """``(spawn time in monotonic ns, parsed last stdout line)``."""
        return self.run_all(role, [args])[0]

    def run_all(self, role: str, arg_lists) -> list:
        """Run one child per argument list at once; results in order."""
        procs = []
        try:
            for args in arg_lists:
                spawned = time.monotonic_ns()
                procs.append(
                    (
                        spawned,
                        subprocess.Popen(
                            [sys.executable, str(HERE / "child.py"), role, *args],
                            stdout=subprocess.PIPE,
                            text=True,
                            cwd=str(CHECKOUT),
                            env=self.env,
                        ),
                    )
                )
            return [(spawned, self._result(role, proc)) for spawned, proc in procs]
        finally:
            for _, proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()

    def _result(self, role: str, proc) -> dict:
        try:
            stdout, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {role} ran past the run's time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"child {role} exited with code {proc.returncode}")
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"child {role} printed no result")
        return json.loads(lines[-1])


def check(passes, oracle) -> tuple:
    """``(attempted, failed, reasons)`` over every job of every pass."""
    attempted = failed = 0
    reasons = []
    for n, p in enumerate(passes):
        # A fabric worker's exit status is reported, but counted only
        # through the jobs it left unfinished or wrong.
        jobs = {k for k in p["summaries"] if not k.startswith("@")}
        jobs |= {k for k in p["errors"] if not k.startswith("worker-")}
        bad = compare(p["summaries"], oracle)
        report_bad = bad.pop("@report", None)
        for job_id, why in p["errors"].items():
            bad.setdefault(job_id, f"raised or failed: {why}")
        if report_bad is not None:
            bad.update({j: report_bad for j in jobs})
        attempted += len(jobs)
        failed += len(jobs & set(bad))
        reasons += [f"pass {n} {job_id}: {why}" for job_id, why in sorted(bad.items())]
    return attempted, failed, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="FlexRay optimiser end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    backend = WORKLOADS[args.workload]
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file() or not NATIVE_SOURCE.is_file():
        print(f"perfbench: no repro sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    try:
        native_args, build_s = [], 0.0
        if backend == "native":
            native_dir, build_s = build_native()
            native_args = ["--native-dir", native_dir]
        children = Children(start + RUN_LIMIT_S)
        common = ["--workload", args.workload, "--seed", str(args.seed), *native_args]
        setups = []

        def time_setups(count):
            for _ in range(count):
                spawned, out = children.run("setup", *common)
                setups.append((out["ready_ns"] - spawned) / 1e9)

        samples = 0 if args.trace else SETUP_SAMPLES
        time_setups(samples // 2)
        spawned, measured = children.run(
            "measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)
        )
        setups.append((measured["ready_ns"] - spawned) / 1e9)
        time_setups(samples - samples // 2)
        # The oracle runs after timing, split over both CPUs (the campaign
        # matrix is one sequential run_campaign by definition).
        parts = 1 if args.workload == "campaign" else ORACLE_PROCESSES
        oracle = {}
        for _, out in children.run_all(
            "oracle", [[*common, "--part", str(k), "--parts", str(parts)] for k in range(parts)]
        ):
            oracle.update(out["summaries"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    passes = measured["passes"]
    attempted, failed, reasons = check(passes, oracle)
    for line in reasons:
        print(f"perfbench: MISMATCH {line}", file=sys.stderr)
    if not attempted:
        print("perfbench: no job was attempted", file=sys.stderr)
        return 1
    # A pass whose fabric worker failed has no probe times; its jobs
    # already count as failed.
    untraced = [p for p in passes if not p["traced"] and p["probes"]]
    if not untraced:
        print("perfbench: no untraced pass has host speed probe times", file=sys.stderr)
        return 1
    walls = [p["wall_s"] for p in untraced]
    # The host's speed relative to the reference, over each pass.
    speeds = [PROBE_REF_S / statistics.mean(p["probes"]) for p in untraced]
    norm_walls = [w * v for w, v in zip(walls, speeds)]
    print(
        f"{args.workload} (backend {backend}, seed {args.seed}): "
        f"{len(passes)} passes, {attempted // len(passes)} jobs each"
    )
    if args.trace:
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        metrics = dict(measured["layers"])
        metrics["native.build_s"] = build_s
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        from tracer import unit_of

        units = {k: unit_of(k) for k in metrics}
        print(f"  {'span':<22}{'calls':>10}{'self s':>12}{'share':>8}")
        for name, calls, self_s, share in measured["self_times"]:
            print(f"  {name:<22}{calls:>10}{self_s:>12.4f}{share:>8.1%}")
        print(f"  spans written to {os.path.relpath(measured['spans_file'], CHECKOUT)}")
    else:
        metrics = {
            "wall_norm_s": statistics.median(norm_walls),
            "analyses_per_norm_s": statistics.median(
                p["evaluations"] / w for p, w in zip(untraced, norm_walls)
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": measured["peak_rss_kb"] / 1024.0,
        }
        units = dict(END_TO_END)
    print(f"  {'wall_s':<28}{statistics.median(walls):>14.6g} s (untraced pass, median)")
    rate = statistics.median(p["evaluations"] / p["wall_s"] for p in untraced)
    print(f"  {'analyses_per_s':<28}{rate:>14.6g} 1/s (untraced pass, median)")
    print(f"  {'host speed':<28}{statistics.median(speeds):>14.6g} x reference (median)")
    for name, value in metrics.items():
        print(f"  {name:<28}{value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<28}{failed / attempted:>14.6g} ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
