"""Spans around the layers' public entry points, patched from outside.

:class:`Tracer` replaces each entry point *where it is looked up* (a
class attribute, or the module global a caller reads) with a wrapper that
records a span: name, start, end, parent span and job id.  Spans stay in
memory; :func:`layer_metrics` folds them into the per-layer metrics and
:func:`self_times` into the self-time table.  A span's self time is its
duration minus the time of its direct children.

Only traced runs install it; end-to-end numbers come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

#: (span name, module, attribute path, how to size a call or None).
#: The size of an ``analysis`` or ``evaluator`` span is its batch length,
#: of a ``native.shim`` span its lane count.
LAYERS = (
    ("strategy", "repro.core.runtime", "SearchDriver.run", None),
    ("evaluator", "repro.core.search", "Evaluator.analyse_many", "configs"),
    ("context.build", "repro.analysis.context", "AnalysisContext.__init__", None),
    ("analysis", "repro.analysis.context", "AnalysisContext.analyse_batch", "configs"),
    ("validate", "repro.core.config", "FlexRayConfig.validate_for", None),
    ("schedule.plan", "repro.analysis.scheduler", "SchedulePlan.__init__", None),
    ("schedule.replay", "repro.analysis.scheduler", "SchedulePlan.replay", None),
    ("lowering.template", "repro.analysis.backend.arrays", "StructureTemplate.__init__", None),
    ("lowering.group_plan", "repro.analysis.backend.arrays", "GroupPlan.__init__", None),
    ("native.shim", "repro.analysis.backend.native", "run_group_native", "lanes"),
    ("native.delegated", "repro.analysis.backend.kernels", "run_group", None),
    ("cost", "repro.analysis.context", "cost_function", None),
    # assemble_results imports it from its home module at call time.
    ("cost", "repro.core.cost", "cost_function", None),
    ("cost.strategy", "repro.core.dynlen", "cost_function", None),
    ("fabric.job", "repro.core.fabric", "run_campaign", None),
    ("serialization", "repro.core.campaign", "result_to_dict", None),
    ("serialization", "repro.core.campaign", "result_from_dict", None),
    ("serialization", "repro.core.campaign", "_system_fingerprint", None),
    ("serialization", "repro.core.fabric", "system_to_dict", None),
    ("serialization", "repro.service.protocol", "system_from_dict", None),
)


def _size(kind, args, kwargs) -> int:
    if kind == "configs":
        return len(args[1])
    if kind == "lanes":
        return len(args[2])
    return 0


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start_ns, end_ns, parent, job, size]
        self.job: Optional[str] = None
        self._stack: List[int] = []
        self._patches: list = []

    # -- recording -------------------------------------------------------
    def wrap(self, name: str, fn, size=None):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.job, 0]
            if size is not None:
                record[5] = _size(size, args, kwargs)
            if name == "fabric.job":
                record[4] = tracer.job = args[1][0].job_id
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if name == "fabric.job":
                    tracer.job = None
            return result

        return traced

    def patch(self, owner, attr: str, name: str, size=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, size))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point (and the C kernel when loaded)."""
        for name, module_name, path, size in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.patch(owner, attr, name, size)
        from repro.analysis.backend import native_or_none

        native = native_or_none()
        if native is not None:
            self.patch(native, "run_batch", "native.kernel")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> List[list]:
        """The spans recorded since the last call, then reset."""
        out, self.spans = self.spans, []
        return out


# ----------------------------------------------------------------------
# folding spans into metrics
# ----------------------------------------------------------------------
def aggregate(span_lists) -> Dict[str, dict]:
    """name -> {count, total_s, self_s, size} over several span lists."""
    out: Dict[str, dict] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0, "size": 0}
    )
    for spans in span_lists:
        children = [0] * len(spans)
        for name, start, end, parent, _job, _size in spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _parent, _job, size), child in zip(spans, children):
            entry = out[name]
            entry["count"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child) / 1e9
            entry["size"] += size
    return out


def layer_metrics(traced: dict) -> Dict[str, float]:
    """The per-layer metrics of one traced pass.

    *traced* holds the pass's span lists (the measuring process first,
    then any fabric workers), the job summaries and the fabric workers'
    reports.
    """
    agg = aggregate(traced["span_lists"])

    def a(name, key):
        return agg[name][key] if name in agg else 0

    summaries = [s for k, s in traced["summaries"].items() if not k.startswith("@")]
    analyses = sum(s["evaluations"] for s in summaries)
    hits = sum(s["cache_hits"] for s in summaries)
    requests = a("evaluator", "size")
    replays = a("schedule.replay", "count")
    configs = a("analysis", "size")
    groups = a("native.shim", "count")
    workers = traced.get("workers", [])
    # The host speed probe's runs are neither job time nor idle time.
    lifetime = sum(w["lifetime_s"] - w["probe_s"] for w in workers)
    busy = a("fabric.job", "total_s")
    return {
        "strategy.self_s": a("strategy", "self_s"),
        "strategy.batches": a("evaluator", "count"),
        "evaluator.requests": requests,
        "evaluator.analyses": analyses,
        "evaluator.cache_hits": hits,
        "evaluator.hit_ratio": hits / requests if requests else 0.0,
        "evaluator.self_s": a("evaluator", "self_s"),
        "context.builds": a("context.build", "count"),
        "context.build_s": a("context.build", "self_s"),
        "analysis.configs": configs,
        "analysis.self_s": a("analysis", "self_s"),
        "validate.calls": a("validate", "count"),
        "validate.s": a("validate", "total_s"),
        "schedule.plans": a("schedule.plan", "count"),
        "schedule.plan_s": a("schedule.plan", "self_s"),
        "schedule.replays": replays,
        "schedule.replay_s": a("schedule.replay", "self_s"),
        # A config whose schedule fails is replayed but not feasible, so
        # the base is every analysed config, not the feasible ones.
        "schedule.hit_ratio": 1.0 - replays / configs if configs else 0.0,
        "lowering.templates": a("lowering.template", "count"),
        "lowering.template_s": a("lowering.template", "self_s"),
        "lowering.group_plans": a("lowering.group_plan", "count"),
        "lowering.group_plan_s": a("lowering.group_plan", "self_s"),
        "lowering.lanes_per_group": a("native.shim", "size") / groups if groups else 0.0,
        "native.groups": groups,
        "native.kernel_calls": a("native.kernel", "count"),
        "native.kernel_s": a("native.kernel", "total_s"),
        "native.shim_s": a("native.shim", "self_s"),
        "native.delegated_groups": a("native.delegated", "count"),
        "cost.calls": a("cost", "count") + a("cost.strategy", "count"),
        "cost.s": a("cost", "total_s") + a("cost.strategy", "total_s"),
        "cost.strategy_calls": a("cost.strategy", "count"),
        "fabric.submit_s": a("fabric.submit", "total_s"),
        "fabric.collect_s": a("fabric.collect", "total_s"),
        "fabric.worker_busy_s": busy,
        "fabric.worker_idle_s": max(lifetime - busy, 0.0) if workers else 0.0,
        "fabric.jobs": sum(w["completed"] for w in workers),
        "fabric.reaped": sum(w["reaped"] for w in workers),
        "serialization.s": a("serialization", "total_s"),
    }


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric == "lowering.lanes_per_group":
        return "lanes"
    return "count"


def self_times(span_lists) -> List[tuple]:
    """(span name, calls, self seconds) rows, largest self time first."""
    agg = aggregate(span_lists)
    rows = [(name, e["count"], e["self_s"]) for name, e in agg.items()]
    return sorted(rows, key=lambda row: -row[2])


def write_spans(path: str, tagged_span_lists) -> None:
    """Write ``(process tag, spans)`` pairs as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for tag, spans in tagged_span_lists:
            for name, start, end, parent, job, size in spans:
                fh.write(
                    json.dumps(
                        {
                            "proc": tag,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "job": job,
                            "size": size,
                        }
                    )
                    + "\n"
                )
