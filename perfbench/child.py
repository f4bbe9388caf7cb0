"""The benchmark's child processes; ``run.py`` starts them.

Roles (the first argument):

``setup``
    Import, load the extension, build the job list; print when ready.
``measure``
    Set up, then run passes over the job list for about ``--seconds``.
    With ``--trace 1``, untraced and traced passes alternate.
``oracle``
    The pure-Python reference summaries of the same job list.
``fabric-worker``
    One ``fabric_work(once=True)`` drain of a campaign directory.

Each prints one JSON object as its last stdout line.
"""

import time

STARTED_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from workloads import WORKLOADS, SCRATCH  # noqa: E402


def prepare(workload: str, seed: int, native_dir):
    """Everything before the first job: imports, extension, inputs."""
    backend = WORKLOADS[workload]
    expected = workloads.activate_native(native_dir) if native_dir else None
    import repro.core  # noqa: F401  (the package and its optimisers)

    if backend == "native":
        workloads.require_native_active(expected)
        import repro.analysis.backend.native  # noqa: F401
    if workload == "campaign":
        import repro.core.fabric  # noqa: F401

        return workloads.campaign_systems(seed)
    return workloads.make_jobs(workload, seed, backend)


def run_pass(workload, inputs, tag, tracer=None):
    """``(PassResult, the fabric workers' span records)``."""
    gc.collect()
    if workload == "campaign":
        return workloads.run_campaign_pass(inputs, workloads.fabric_root(tag), tracer)
    on_job = None
    if tracer is not None:
        def on_job(job_id):
            tracer.job = job_id
    return workloads.run_jobs(inputs, on_job, workloads.Prober()), []


def measure(args):
    inputs = prepare(args.workload, args.seed, args.native_dir)
    out = {"ready_ns": time.monotonic_ns(), "passes": []}
    deadline = time.perf_counter() + args.seconds
    traced = []
    tagged_spans = []
    n = 0
    if args.trace:
        from tracer import Tracer

        recorder = Tracer()
    while True:
        # Traced runs alternate untraced and traced passes, so that the
        # overhead ratio compares passes run at nearly the same time.
        tracer = recorder if args.trace and n % 2 else None
        if tracer is not None:
            tracer.install()
        result, workers = run_pass(args.workload, inputs, f"p{n}", tracer)
        if tracer is not None:
            tracer.uninstall()
        out["passes"].append(
            {
                "wall_s": result.wall_s,
                "evaluations": sum(
                    s["evaluations"] for k, s in result.summaries.items() if not k.startswith("@")
                ),
                "summaries": result.summaries,
                "errors": result.errors,
                "probes": result.probes,
                "traced": tracer is not None,
            }
        )
        if tracer is not None:
            own = tracer.take()
            traced.append(
                {
                    "span_lists": [own] + [w["spans"] for w in workers],
                    "summaries": result.summaries,
                    "workers": workers,
                    "wall_s": result.wall_s,
                }
            )
            tagged_spans.append((f"p{n}-measure", own))
            tagged_spans += [(f"p{n}-w{k}", w["spans"]) for k, w in enumerate(workers)]
        n += 1
        # Stop at the pass boundary nearest to the deadline.
        half_pass = statistics.median(p["wall_s"] for p in out["passes"]) / 2
        if time.perf_counter() + half_pass >= deadline and (n >= 2 or not args.trace):
            break
    if args.trace:
        from tracer import layer_metrics, self_times, write_spans

        per_pass = [layer_metrics(t) for t in traced]
        out["layers"] = {
            key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]
        }
        # Shares are of the time inside spans, summed over processes (the
        # campaign's worker runs beside the measuring process).
        rows = self_times([spans for t in traced for spans in t["span_lists"]])
        spanned = sum(self_s for _, _, self_s in rows)
        out["self_times"] = [
            (name, calls, self_s, self_s / spanned) for name, calls, self_s in rows
        ]
        trace_dir = SCRATCH / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(str(path), tagged_spans)
        out["spans_file"] = str(path)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_kb"] = usage
    return out


def oracle(args):
    if args.workload == "dyn-sweep":
        prepare(args.workload, args.seed, args.native_dir)
    else:
        import repro.core  # noqa: F401
    root = workloads.fabric_root(f"oracle{args.part}")
    return {
        "summaries": workloads.oracle_summaries(
            args.workload, args.seed, root, args.part, args.parts
        )
    }


def fabric_worker(args):
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import repro.core.fabric as fabric
    from repro.core import fabric_work

    # The host speed probe runs before each job fabric_work starts (at
    # most every PROBE_EVERY_S) and once after the drain.
    prober = workloads.Prober()
    run_job = fabric.run_campaign

    def probed(*args, **kwargs):
        prober.between_jobs()
        return run_job(*args, **kwargs)

    fabric.run_campaign = probed
    report = fabric_work(args.root, worker_id=args.worker_id, once=True)
    prober.between_jobs(force=True)
    fabric.run_campaign = run_job
    out = {"completed": len(report.completed), "reaped": len(report.reaped)}
    if tracer is not None:
        tracer.uninstall()
        out.update(
            spans=tracer.take(),
            lifetime_s=(time.perf_counter_ns() - STARTED_NS) / 1e9,
            probe_s=sum(prober.times),
        )
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return {"completed": out["completed"], "reaped": out["reaped"], "probes": prober.times}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure", "oracle", "fabric-worker"))
    parser.add_argument("root", nargs="?")
    parser.add_argument("worker_id", nargs="?")
    parser.add_argument("trace_out", nargs="?")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--native-dir")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        if args.role == "setup":
            prepare(args.workload, args.seed, args.native_dir)
            out = {"ready_ns": time.monotonic_ns()}
        elif args.role == "measure":
            out = measure(args)
        elif args.role == "oracle":
            out = oracle(args)
        else:
            out = fabric_worker(args)
    except workloads.NativeInactive as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
