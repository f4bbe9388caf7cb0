"""BENCH -- incremental analysis engine (shared AnalysisContext).

Measures the three invariance tiers of the incremental analysis engine
on the OBC/EE DYN-length sweep of the Fig. 9 workload -- the paper's
hottest loop (up to 1024 exact analyses per static-segment variant):

* ``seed``     -- the seed repo's behaviour: every candidate recomputes
  ancestor closures, priorities, the schedule table, availability
  patterns and the per-iteration interference sets from scratch (a
  faithful reimplementation kept here as the reference baseline; it
  doubles as a correctness oracle).
* ``pr1_warm`` -- the PR 1 incremental engine: one shared context
  (invariants + signature memo + prebound rows) but a from-scratch
  schedule per cycle length, gap-walking ``advance`` and cold-started
  busy-window recurrences -- pinned here so later speedups in the
  library cannot silently flatter the comparison.
* ``pr2_warm`` -- the PR 2 engine, pinned: retimable schedule plan,
  bisecting ``advance``, certified inner warm starts, dirty tracking.
* ``pr3_warm`` -- the PR 3 engine, pinned: ``pr2_warm`` plus the
  incremental per-instant bound and the third-generation hoists, but
  no pattern-level dominance tables.
* ``cold``     -- the current engine with a fresh ``AnalysisContext``
  per candidate (per-system invariants rebuilt each time).
* ``warm``     -- one shared ``AnalysisContext`` across the sweep (the
  configuration every optimiser now uses through ``Evaluator``).
* ``parallel`` -- warm context + the opt-in process pool
  (``BusOptimisationOptions.parallel_workers``).  Reported but not
  asserted: wall-clock gains require >1 CPU, while determinism is
  asserted everywhere.

A second, **pure-DYN** scenario (TT graphs collapsed onto single nodes,
so the whole sweep shares one schedule-cache entry) measures the
pattern-level dominance tables against the pinned PR 3 path -- the
workload where their per-pattern construction amortises across every
candidate (see ``run_pure_dyn``).

When the compiled ``repro._native`` extension is built, a
``native_batch`` generation rides both scenarios: one
``AnalysisContext`` with ``AnalysisOptions(backend="native")``
evaluating the whole sweep through ``analyse_batch``, asserted
bit-identical to the Python oracle and >= 2x faster than the warm
Python path on the pure-DYN sweep (one group of 256 lanes) and on the
**ST-heavy** Fig. 9 sweep, where every cycle length is a distinct
schedule, so the grouped backend sees singleton lanes (see
``run_st_heavy_backends``).  Without the extension the native
generation and its assertions are skipped with a note.

Emits ``benchmarks/results/BENCH_incremental_analysis.json``.  The quick
smoke mode (default) finishes in well under 30 s; set
``REPRO_BENCH_FULL=1`` for a paper-scale sweep.
"""

from __future__ import annotations

import os
import time

from repro.analysis import (
    AnalysisContext,
    AnalysisOptions,
    AnalysisResult,
    NodeAvailability,
    analyse_system,
    analysis_cap,
    build_schedule,
    hp_tasks,
    static_response_times,
    wrap_busy_intervals,
)
from repro.analysis.backend import native_or_none
from repro.analysis.context import ancestor_sets
from repro.core.bbc import basic_configuration
from repro.core.cost import cost_function
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.synth import paper_suite

from benchmarks._report import env_int, full_scale, report, report_json


# ----------------------------------------------------------------------
# Reference: the seed repo's per-candidate recompute-everything loop,
# with the seed's *inner* loops pinned verbatim (availability gaps
# recomputed per advance, interference sets re-derived per fix-point
# call, per-iteration period/minislot lookups) so the baseline keeps the
# seed's cost profile even as the library's shared code gets faster.
# ----------------------------------------------------------------------
from repro.analysis import WcrtResult, interference_count, interference_sets
from repro.analysis.fill import max_filled_cycles
from repro.analysis.fps import MAX_FIXPOINT_ITERATIONS


class _SeedAvailability(NodeAvailability):
    """NodeAvailability with the seed's ``advance`` (gaps per call)."""

    def _gaps(self):
        gaps = []
        prev = 0
        for s, e in self.busy:
            if s > prev:
                gaps.append((prev, s))
            prev = e
        if prev < self.period:
            gaps.append((prev, self.period))
        return gaps

    def advance(self, t0, demand):
        if demand == 0:
            return t0
        if self.slack_per_period == 0:
            return None
        remaining = demand
        whole = (remaining - 1) // self.slack_per_period
        t = t0 + whole * self.period
        remaining -= whole * self.slack_per_period
        while remaining > 0:
            base = (t // self.period) * self.period
            x = t - base
            for s, e in self._gaps():
                lo = max(s, x)
                if lo >= e:
                    continue
                room = e - lo
                if room >= remaining:
                    return base + lo + remaining
                remaining -= room
            t = base + self.period
        return t


def _seed_busy_window_at(
    task, interferers, availability, jitters, period_of, cap, t0,
    own_jitter, ancestors,
):
    demand = task.wcet
    window = 0
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        end = availability.advance(t0, demand)
        if end is None:
            return cap, False
        window = end - t0
        if window >= cap:
            return cap, False
        new_demand = task.wcet
        for j in interferers:
            count = interference_count(
                window, period_of(j.name), jitters.get(j.name, 0),
                j.name in ancestors, own_jitter,
            )
            new_demand += count * j.wcet
        if new_demand == demand:
            return window, True
        demand = new_demand
    return window, False


def _seed_fps_task_busy_window(
    task, interferers, availability, jitters, period_of, cap,
    own_jitter=0, ancestors=frozenset(),
):
    candidates = [0] + availability.busy_starts()
    worst = 0
    converged = True
    for t0 in candidates:
        window, ok = _seed_busy_window_at(
            task, interferers, availability, jitters, period_of, cap, t0,
            own_jitter, ancestors,
        )
        if window >= cap:
            return WcrtResult(value=cap, converged=False)
        worst = max(worst, window)
        converged = converged and ok
    return WcrtResult(value=worst, converged=converged)


def _seed_dyn_message_busy_window(
    message, config, system, jitters, period_of, cap, own_jitter,
    ancestors, fill_strategy,
):
    f = config.frame_id_of(message.name)
    node = system.sender_node(message)
    p_latest = config.p_latest_tx(node, system)
    if f > p_latest or p_latest < 1:
        return WcrtResult(value=cap, converged=False)
    sets = interference_sets(message, config, system)
    ms_len = config.gd_minislot
    lam = p_latest - 1
    theta = lam - f + 2
    sigma_m = config.gd_cycle - config.st_bus - (f - 1) * config.gd_minislot
    t = config.message_ct(message)
    w = 0
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        hp_cycles = 0
        for j in sets.hp:
            hp_cycles += interference_count(
                t, period_of(j.name), jitters.get(j.name, 0),
                j.name in ancestors, own_jitter,
            )
        lf_items = []
        for j in sets.lf:
            n = interference_count(
                t, period_of(j.name), jitters.get(j.name, 0),
                j.name in ancestors, own_jitter,
            )
            lf_items.extend([config.minislots_needed(j) - 1] * n)
        lf_cycles = max_filled_cycles(lf_items, theta, fill_strategy)
        leftover = max(0, sum(lf_items) - lf_cycles * theta)
        final_consumed = min(lam, sets.lower_slots + leftover)
        w_final = config.st_bus + final_consumed * ms_len
        w = sigma_m + (hp_cycles + lf_cycles) * config.gd_cycle + w_final
        if w >= cap:
            return WcrtResult(value=cap, converged=False)
        if w <= t:
            return WcrtResult(value=w, converged=True)
        t = w
    return WcrtResult(value=w, converged=False)


def _seed_dyn_message_wcrt(
    message, config, system, jitters, period_of, cap, ancestors,
    fill_strategy,
):
    own_jitter = jitters.get(message.name, 0)
    window = _seed_dyn_message_busy_window(
        message, config, system, jitters, period_of, cap, own_jitter,
        ancestors, fill_strategy,
    )
    value = min(cap, own_jitter + window.value + config.message_ct(message))
    return WcrtResult(value=value, converged=window.converged)


def seed_reference_analyse(system, config, options=None) -> AnalysisResult:
    """The holistic analysis exactly as the seed repo structured it.

    Every quantity is derived per call and the fix point re-derives the
    interference sets on every iteration -- the cost profile the
    incremental engine eliminates.  Kept as the benchmark baseline *and*
    as an independent oracle: the engine's results must stay
    bit-identical to this loop.
    """
    options = options or AnalysisOptions()
    app = system.application
    try:
        config.validate_for(system)
    except ConfigurationError:
        return analyse_system(system, config, options)
    try:
        table = build_schedule(system, config, options.schedule)
    except SchedulingError:
        return analyse_system(system, config, options)

    cap = analysis_cap(system, config, options.cap_factor)
    static_wcrt = static_response_times(app, table)
    availability = {
        node: _SeedAvailability(
            wrap_busy_intervals(table.busy_intervals(node), table.horizon),
            table.horizon,
        )
        for node in system.nodes
    }
    fps_by_node = {
        node: sorted(
            (t for t in system.tasks_on(node) if t.is_fps),
            key=lambda t: (t.priority, t.name),
        )
        for node in system.nodes
    }
    period_of = app.period_of
    ancestors = ancestor_sets(app)

    wcrt = dict(static_wcrt)
    jitters = {}
    converged = True
    for _ in range(options.max_holistic_iterations):
        changed = False
        for m in app.dyn_messages():
            g = app.graph_of(m.name)
            sender = g.task(m.sender)
            j_m = wcrt.get(sender.name, 0)
            if jitters.get(m.name, 0) != j_m:
                jitters[m.name] = j_m
                changed = True
            result = _seed_dyn_message_wcrt(
                m, config, system, jitters, period_of, cap,
                ancestors=ancestors.get(m.name, frozenset()),
                fill_strategy=options.dyn_fill_strategy,
            )
            converged = converged and result.converged
            if wcrt.get(m.name) != result.value:
                wcrt[m.name] = result.value
                changed = True
        for node in system.nodes:
            fps = fps_by_node[node]
            for task in fps:
                g = app.graph_of(task.name)
                j_i = task.release
                for pred in g.predecessors(task.name):
                    j_i = max(j_i, wcrt.get(pred, 0))
                if jitters.get(task.name, 0) != j_i:
                    jitters[task.name] = j_i
                    changed = True
                window = _seed_fps_task_busy_window(
                    task,
                    hp_tasks(task, fps),
                    availability[node],
                    jitters,
                    period_of,
                    cap,
                    own_jitter=j_i,
                    ancestors=ancestors.get(task.name, frozenset()),
                )
                converged = converged and window.converged
                r_i = min(cap, j_i + window.value)
                if wcrt.get(task.name) != r_i:
                    wcrt[task.name] = r_i
                    changed = True
        if not changed:
            break
    else:
        converged = False

    cost = cost_function(app, wcrt)
    return AnalysisResult(
        config=config,
        feasible=True,
        schedulable=cost.schedulable and converged,
        converged=converged,
        cost=cost,
        wcrt=wcrt,
        table=table,
    )


# ----------------------------------------------------------------------
# Reference: the PR 1 warm path, pinned.  One shared context (per-system
# invariants, prebound interference rows, fix-point signature memo) but:
# a from-scratch schedule build per cycle length, availability patterns
# with the gap-walking ``advance``, per-instance lf multiset
# materialisation, and cold-started busy-window recurrences.
# ----------------------------------------------------------------------
from repro.analysis.fill import fill_bound
from repro.core.cost import cost_function as _cost_function


class _Pr1Availability(NodeAvailability):
    """NodeAvailability with PR 1's ``advance`` (precomputed gap walk)."""

    def advance(self, t0, demand):
        if demand == 0:
            return t0
        if not self.busy:
            return t0 + demand
        slack = self.slack_per_period
        if slack == 0:
            return None
        period = self.period
        gaps = self._gap_list
        remaining = demand
        whole = (remaining - 1) // slack
        t = t0 + whole * period
        remaining -= whole * slack
        while remaining > 0:
            base = (t // period) * period
            x = t - base
            for s, e in gaps:
                lo = s if s > x else x
                if lo >= e:
                    continue
                room = e - lo
                if room >= remaining:
                    return base + lo + remaining
                remaining -= room
            t = base + period
        return t


def _pr1_fps_busy_window(wcet, info, availability, jitters, cap, own_jitter):
    """PR 1 ``fps.prepped_busy_window``: cold start per critical instant."""
    worst = 0
    converged = True
    jitters_get = jitters.get
    advance = availability.advance
    for t0 in availability.critical_instants():
        demand = wcet
        window = 0
        ok = False
        for _ in range(MAX_FIXPOINT_ITERATIONS):
            end = advance(t0, demand)
            if end is None:
                return cap, False
            window = end - t0
            if window >= cap:
                return cap, False
            new_demand = wcet
            for name, period, is_ancestor, c_j in info:
                if is_ancestor:
                    slack = window + own_jitter - period
                    count = -(-slack // period) if slack > 0 else 0
                else:
                    count = -(-(window + jitters_get(name, 0)) // period)
                new_demand += count * c_j
            if new_demand == demand:
                ok = True
                break
            demand = new_demand
        if window > worst:
            worst = window
        converged = converged and ok
    return worst, converged


def _pr1_dyn_busy_window(
    hp_info, lf_info, lower_slots, lam, theta, sigma_m, ct, gd_cycle,
    st_bus, ms_len, jitters, cap, own_jitter, fill_strategy,
):
    """PR 1 ``dyn.prepped_busy_window``: cold start, materialised lf items."""
    jitters_get = jitters.get
    t = ct
    w = 0
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        hp_cycles = 0
        for name, period, is_ancestor in hp_info:
            if is_ancestor:
                slack = t + own_jitter - period
                if slack > 0:
                    hp_cycles += -(-slack // period)
            else:
                hp_cycles += -(-(t + jitters_get(name, 0)) // period)
        lf_items = []
        for name, period, is_ancestor, adjusted in lf_info:
            if is_ancestor:
                slack = t + own_jitter - period
                n = -(-slack // period) if slack > 0 else 0
            else:
                n = -(-(t + jitters_get(name, 0)) // period)
            if n:
                lf_items.extend([adjusted] * n)
        lf_cycles = (
            fill_bound(lf_items, theta)
            if fill_strategy == "bound"
            else max_filled_cycles(lf_items, theta, fill_strategy)
        )
        leftover = max(0, sum(lf_items) - lf_cycles * theta)
        final_consumed = min(lam, lower_slots + leftover)
        w_final = st_bus + final_consumed * ms_len
        w = sigma_m + (hp_cycles + lf_cycles) * gd_cycle + w_final
        if w >= cap:
            return cap, False
        if w <= t:
            return w, True
        t = w
    return w, False


class Pr1WarmReference:
    """The PR 1 incremental engine's warm path, frozen for comparison.

    Reuses the live context's tier-(a)/(c) precomputation (identical in
    PR 1) but pins PR 1's per-candidate costs: ``build_schedule`` per
    cycle length, ``_Pr1Availability``, per-call validation and the
    cold-started busy-window kernels above.
    """

    def __init__(self, system):
        from repro.analysis import AnalysisOptions

        self.system = system
        self.options = AnalysisOptions()
        self.inner = AnalysisContext(system, self.options)
        self._priorities = None
        self._schedule_cache = {}

    def _artifacts(self, config):
        key = self.inner.schedule_key(config)
        entry = self._schedule_cache.get(key)
        if entry is not None:
            return entry
        if self._priorities is None:
            from repro.analysis.priorities import critical_path_priorities

            self._priorities = critical_path_priorities(
                self.system.application, config
            )
        try:
            table = build_schedule(
                self.system, config, self.options.schedule,
                priorities=self._priorities,
            )
        except SchedulingError as exc:
            entry = (None, f"static scheduling failed: {exc}", None, None)
        else:
            static_wcrt = static_response_times(self.system.application, table)
            availability = {
                node: _Pr1Availability(
                    wrap_busy_intervals(
                        table.busy_intervals(node), table.horizon
                    ),
                    table.horizon,
                )
                for node in self.system.nodes
            }
            entry = (table, None, static_wcrt, availability)
        self._schedule_cache[key] = entry
        return entry

    def analyse(self, config):
        from repro.analysis.holistic import _infeasible

        inner = self.inner
        options = self.options
        try:
            config.validate_for(self.system)
        except ConfigurationError as exc:
            return _infeasible(config, f"configuration invalid: {exc}")
        table, failure, static_wcrt, availability = self._artifacts(config)
        if failure is not None:
            return _infeasible(config, failure)

        cap = analysis_cap(self.system, config, options.cap_factor)
        fill_strategy = options.dyn_fill_strategy
        dyn_views = inner._dyn_views(config)
        fps_plans = inner.fps_plans
        nodes = self.system.nodes

        wcrt = dict(static_wcrt)
        jitters = {}
        wcrt_get = wcrt.get
        jitters_get = jitters.get
        last_sig = {}
        last_out = {}
        converged = True
        for _ in range(options.max_holistic_iterations):
            changed = False
            for view in dyn_views:
                name = view.name
                j_m = wcrt_get(view.sender, 0)
                if jitters_get(name, 0) != j_m:
                    jitters[name] = j_m
                    changed = True
                sig = (j_m, tuple(
                    [jitters_get(n, 0) for n in view.input_names]
                ))
                if last_sig.get(name) == sig:
                    value, ok = last_out[name]
                else:
                    if view.sendable:
                        w, ok = _pr1_dyn_busy_window(
                            view.hp_info, view.lf_info, view.lower_slots,
                            view.lam, view.theta, view.sigma, view.ct,
                            view.gd_cycle, view.st_bus, view.ms_len,
                            jitters, cap, j_m, fill_strategy,
                        )
                        value = j_m + w + view.ct
                        if value > cap:
                            value = cap
                    else:
                        value, ok = cap, False
                    last_sig[name] = sig
                    last_out[name] = (value, ok)
                converged = converged and ok
                if wcrt_get(name) != value:
                    wcrt[name] = value
                    changed = True
            for node in nodes:
                node_availability = availability[node]
                for plan in fps_plans[node]:
                    name = plan.name
                    j_i = plan.release
                    for pred in plan.predecessors:
                        v = wcrt_get(pred, 0)
                        if v > j_i:
                            j_i = v
                    if jitters_get(name, 0) != j_i:
                        jitters[name] = j_i
                        changed = True
                    sig = (j_i, tuple(
                        [jitters_get(n, 0) for n in plan.input_names]
                    ))
                    if last_sig.get(name) == sig:
                        window_value, ok = last_out[name]
                    else:
                        window_value, ok = _pr1_fps_busy_window(
                            plan.wcet, plan.interferers, node_availability,
                            jitters, cap, j_i,
                        )
                        last_sig[name] = sig
                        last_out[name] = (window_value, ok)
                    converged = converged and ok
                    r_i = j_i + window_value
                    if r_i > cap:
                        r_i = cap
                    if wcrt_get(name) != r_i:
                        wcrt[name] = r_i
                        changed = True
            if not changed:
                break
        else:
            converged = False

        cost = _cost_function(self.system.application, wcrt)
        return AnalysisResult(
            config=config,
            feasible=True,
            schedulable=cost.schedulable and converged,
            converged=converged,
            cost=cost,
            wcrt=wcrt,
            table=table,
        )


# ----------------------------------------------------------------------
# Reference: the PR 2 warm path, pinned.  Everything PR 1 had, plus the
# retimable schedule plan (replay per cycle length), the bisecting
# ``advance``, exact dirty tracking and the certified *inner* busy
# -window warm starts -- but: no FPS instant pruning (every critical
# instant runs its full recurrence, with per-iteration interferer name
# lookups), per-job slot-ownership scans in the ST replay, a full
# ``validate_for`` per configuration (no monotone floor), and the
# pre-certified outer mode dispatch.  The third-generation kernel is
# measured against this.
# ----------------------------------------------------------------------
from bisect import bisect_left as _bisect_left

from repro.analysis.fill import FILL_STRATEGIES as _FILL_STRATEGIES
from repro.analysis.fill import max_filled_cycles_aggregated
from repro.analysis.scheduler import _schedule_task
from repro.errors import AnalysisError
from repro.model.task import Task as _Task


def _pr2_fps_busy_window_at(
    wcet, info, availability, jitters, cap, t0, own_jitter, seed=None
):
    """PR 2 ``fps._busy_window_at``: per-iteration interferer lookups."""
    seeded = seed is not None and seed > wcet
    demand = seed if seeded else wcet
    window = 0
    advance = availability.advance
    jitters_get = jitters.get
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        end = advance(t0, demand)
        if end is None:
            return cap, False, demand
        window = end - t0
        if window >= cap:
            return cap, False, demand
        new_demand = wcet
        for name, period, is_ancestor, c_j in info:
            if is_ancestor:
                slack = window + own_jitter - period
                count = -(-slack // period) if slack > 0 else 0
            else:
                count = -(-(window + jitters_get(name, 0)) // period)
            new_demand += count * c_j
        if new_demand == demand:
            return window, True, demand
        if seeded and new_demand < demand:
            return _pr2_fps_busy_window_at(
                wcet, info, availability, jitters, cap, t0, own_jitter
            )
        demand = new_demand
    if seeded:
        return _pr2_fps_busy_window_at(
            wcet, info, availability, jitters, cap, t0, own_jitter
        )
    return window, False, demand


def _pr2_fps_seeded_busy_window(
    wcet, info, availability, jitters, cap, own_jitter, seeds=None
):
    """PR 2 ``fps.seeded_busy_window``: certified seeds, no pruning."""
    (instants, before, slack, period, gap_ends, through, _order, _dom) = (
        availability.instant_advance_tables()
    )
    n_instants = len(instants)
    demands = [None] * n_instants
    worst = 0
    converged = True
    n_seeds = len(seeds) if seeds is not None else 0
    jitters_get = jitters.get
    fast = gap_ends is not None and slack > 0 and wcet > 0
    for idx in range(n_instants):
        t0 = instants[idx]
        seed = seeds[idx] if idx < n_seeds else None
        result = None
        if fast:
            seeded = seed is not None and seed > wcet
            demand = seed if seeded else wcet
            window = 0
            offset = before[idx]
            for _ in range(MAX_FIXPOINT_ITERATIONS):
                whole, rem = divmod(offset + demand - 1, slack)
                k = _bisect_left(through, rem + 1)
                window = (
                    whole * period + gap_ends[k] - (through[k] - rem - 1) - t0
                )
                if window >= cap:
                    result = (cap, False, demand)
                    break
                new_demand = wcet
                for name, p, is_ancestor, c_j in info:
                    if is_ancestor:
                        s = window + own_jitter - p
                        count = -(-s // p) if s > 0 else 0
                    else:
                        count = -(-(window + jitters_get(name, 0)) // p)
                    new_demand += count * c_j
                if new_demand == demand:
                    result = (window, True, demand)
                    break
                if seeded and new_demand < demand:
                    result = _pr2_fps_busy_window_at(
                        wcet, info, availability, jitters, cap, t0, own_jitter
                    )
                    break
                demand = new_demand
            if result is None:
                result = (
                    _pr2_fps_busy_window_at(
                        wcet, info, availability, jitters, cap, t0, own_jitter
                    )
                    if seeded
                    else (window, False, demand)
                )
        else:
            result = _pr2_fps_busy_window_at(
                wcet, info, availability, jitters, cap, t0, own_jitter, seed
            )
        window, ok, demand = result
        demands[idx] = demand
        if window >= cap:
            return cap, False, demands
        if window > worst:
            worst = window
        converged = converged and ok
    return worst, converged, demands


def _pr2_dyn_seeded_busy_window(
    hp_info, lf_info, lower_slots, lam, theta, sigma_m, ct, gd_cycle,
    st_bus, ms_len, jitters, cap, own_jitter, fill_strategy, seed=None,
):
    """PR 2 ``dyn.seeded_busy_window``, pinned verbatim."""
    if fill_strategy not in _FILL_STRATEGIES:
        raise AnalysisError(
            f"unknown fill strategy {fill_strategy!r}; "
            f"choose from {_FILL_STRATEGIES}"
        )
    jitters_get = jitters.get
    seeded = seed is not None and seed > ct
    t = seed if seeded else ct
    w = 0
    bound_only = fill_strategy == "bound"
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        hp_cycles = 0
        for name, period, is_ancestor in hp_info:
            if is_ancestor:
                slack = t + own_jitter - period
                if slack > 0:
                    hp_cycles += -(-slack // period)
            else:
                hp_cycles += -(-(t + jitters_get(name, 0)) // period)
        lf_total = 0
        lf_useful = 0
        lf_pairs = [] if not bound_only else None
        for name, period, is_ancestor, adjusted in lf_info:
            if is_ancestor:
                slack = t + own_jitter - period
                n = -(-slack // period) if slack > 0 else 0
            else:
                n = -(-(t + jitters_get(name, 0)) // period)
            if n:
                if adjusted > 0:
                    lf_total += adjusted * n
                    lf_useful += n
                if lf_pairs is not None:
                    lf_pairs.append((adjusted, n))
        if bound_only:
            lf_cycles = (
                lf_useful if lf_useful < lf_total // theta
                else lf_total // theta
            )
        else:
            lf_cycles = max_filled_cycles_aggregated(
                lf_pairs, theta, fill_strategy
            )
        leftover = lf_total - lf_cycles * theta
        if leftover < 0:
            leftover = 0
        final_consumed = min(lam, lower_slots + leftover)
        w_final = st_bus + final_consumed * ms_len
        w = sigma_m + (hp_cycles + lf_cycles) * gd_cycle + w_final
        if w >= cap:
            return cap, False, t
        if w <= t:
            if seeded and w < t:
                return _pr2_dyn_seeded_busy_window(
                    hp_info, lf_info, lower_slots, lam, theta, sigma_m, ct,
                    gd_cycle, st_bus, ms_len, jitters, cap, own_jitter,
                    fill_strategy,
                )
            return w, True, w
        t = w
    if seeded:
        return _pr2_dyn_seeded_busy_window(
            hp_info, lf_info, lower_slots, lam, theta, sigma_m, ct,
            gd_cycle, st_bus, ms_len, jitters, cap, own_jitter,
            fill_strategy,
        )
    return w, False, w


def _pr2_schedule_st_message(table, system, config, job, ready, options,
                             horizon):
    """PR 2 ST placement: slot ownership re-scanned per message job."""
    message = job.activity
    node = system.sender_node(message)
    slots = config.st_slots_of(node)
    if not slots:
        raise SchedulingError(
            f"node {node!r} sends ST message {message.name!r} but owns no "
            "static slot"
        )
    ct = config.message_ct(message)
    gd_cycle = config.gd_cycle
    gd_static_slot = config.gd_static_slot
    frame_used = table.frame_used
    limit = options.horizon_factor * horizon + gd_cycle
    cycle = max(0, ready // gd_cycle)
    cycle_base = cycle * gd_cycle
    while cycle_base < limit:
        for slot in slots:
            slot_start = cycle_base + (slot - 1) * gd_static_slot
            if slot_start < ready:
                continue
            if frame_used(cycle, slot) + ct <= gd_static_slot:
                table.add_message(job.key, message, cycle, slot)
                return
        cycle += 1
        cycle_base += gd_cycle
    raise SchedulingError(
        f"no static slot instance before {limit} MT can carry message "
        f"{job.key!r} (ready at {ready}, C_m={ct})"
    )


def _pr2_replay(plan, config):
    """PR 2 ``SchedulePlan.replay``: no per-replay lookup hoisting."""
    from repro.analysis.schedule_table import ScheduleTable

    options = plan.options
    system = plan.system
    horizon = plan.horizon
    table = ScheduleTable(config, horizon)
    finish_of = table.finish_of
    for rec in plan.order:
        job = rec.job
        asap = job.release
        for pred_key in rec.pred_keys:
            finish = finish_of(pred_key)
            if finish > asap:
                asap = finish
        if rec.ext_preds:
            raise SchedulingError(
                f"SCS activity {job.name!r} depends on event-triggered "
                f"activity {rec.ext_preds[0]!r}; pass wcrt_estimates to "
                "schedule it"
            )
        if isinstance(job.activity, _Task):
            _schedule_task(table, system, job, asap, options)
        else:
            _pr2_schedule_st_message(
                table, system, config, job, asap, options, horizon
            )
    return table


class Pr2WarmReference:
    """The PR 2 incremental engine's warm path, frozen for comparison.

    Reuses the live context's tier-(a)/(c) precomputation (identical in
    PR 2) but pins PR 2's per-candidate costs: the unpruned FPS
    maximisation, per-iteration interferer lookups, per-job ST slot
    scans in the replay, and a full semantic validation per distinct
    configuration.
    """

    def __init__(self, system):
        self.system = system
        self.options = AnalysisOptions()
        self.inner = AnalysisContext(system, self.options)
        self._schedule_cache = {}

    def _artifacts(self, config):
        key = self.inner.schedule_key(config)
        entry = self._schedule_cache.get(key)
        if entry is not None:
            return entry
        try:
            table = _pr2_replay(self.inner._plan(config), config)
        except SchedulingError as exc:
            entry = (None, f"static scheduling failed: {exc}", None, None)
        else:
            static_wcrt = static_response_times(self.system.application, table)
            availability = {
                node: NodeAvailability(
                    wrap_busy_intervals(
                        table.busy_intervals(node), table.horizon
                    ),
                    table.horizon,
                )
                for node in self.system.nodes
            }
            entry = (table, None, static_wcrt, availability)
        self._schedule_cache[key] = entry
        return entry

    def analyse(self, config):
        from repro.analysis.holistic import _infeasible

        inner = self.inner
        options = self.options
        try:
            config.validate_for(self.system)
        except ConfigurationError as exc:
            return _infeasible(config, f"configuration invalid: {exc}")
        table, failure, static_wcrt, availability = self._artifacts(config)
        if failure is not None:
            return _infeasible(config, failure)

        cap_base = inner._cap_base
        gd_cycle = config.gd_cycle
        cap = options.cap_factor * (
            cap_base if cap_base > gd_cycle else gd_cycle
        )
        fill_strategy = options.dyn_fill_strategy
        dyn_views = inner._dyn_views(config)
        fps_plans = inner.fps_plans
        nodes = self.system.nodes

        wcrt = dict(static_wcrt)
        jitters = {}
        inner_seeds = {}
        wcrt_get = wcrt.get
        jitters_get = jitters.get
        seeds_get = inner_seeds.get
        dependents = inner._dependents(config)
        deps_get = dependents.get
        dirty = set()
        dirty_add = dirty.add
        last_own = {}
        last_out = {}
        converged = True
        for _ in range(options.max_holistic_iterations):
            changed = False
            for view in dyn_views:
                name = view.name
                j_m = wcrt_get(view.sender, 0)
                if jitters_get(name, 0) != j_m:
                    jitters[name] = j_m
                    changed = True
                    for dep in deps_get(name, ()):
                        dirty_add(dep)
                if name not in dirty and last_own.get(name) == j_m:
                    value, ok = last_out[name]
                else:
                    if view.sendable:
                        w, ok, final = _pr2_dyn_seeded_busy_window(
                            view.hp_info, view.lf_info, view.lower_slots,
                            view.lam, view.theta, view.sigma, view.ct,
                            view.gd_cycle, view.st_bus, view.ms_len,
                            jitters, cap, j_m, fill_strategy,
                            seeds_get(name),
                        )
                        inner_seeds[name] = final
                        value = j_m + w + view.ct
                        if value > cap:
                            value = cap
                    else:
                        value, ok = cap, False
                    dirty.discard(name)
                    last_own[name] = j_m
                    last_out[name] = (value, ok)
                converged = converged and ok
                if wcrt_get(name) != value:
                    wcrt[name] = value
                    changed = True
            for node in nodes:
                node_availability = availability[node]
                for plan in fps_plans[node]:
                    name = plan.name
                    j_i = plan.release
                    for pred in plan.predecessors:
                        v = wcrt_get(pred, 0)
                        if v > j_i:
                            j_i = v
                    if jitters_get(name, 0) != j_i:
                        jitters[name] = j_i
                        changed = True
                        for dep in deps_get(name, ()):
                            dirty_add(dep)
                    if name not in dirty and last_own.get(name) == j_i:
                        window_value, ok = last_out[name]
                    else:
                        window_value, ok, demands = _pr2_fps_seeded_busy_window(
                            plan.wcet, plan.interferers, node_availability,
                            jitters, cap, j_i, seeds_get(name),
                        )
                        inner_seeds[name] = demands
                        dirty.discard(name)
                        last_own[name] = j_i
                        last_out[name] = (window_value, ok)
                    converged = converged and ok
                    r_i = j_i + window_value
                    if r_i > cap:
                        r_i = cap
                    if wcrt_get(name) != r_i:
                        wcrt[name] = r_i
                        changed = True
            if not changed:
                break
        else:
            converged = False

        cost = _cost_function(self.system.application, wcrt)
        return AnalysisResult(
            config=config,
            feasible=True,
            schedulable=cost.schedulable and converged,
            converged=converged,
            cost=cost,
            wcrt=wcrt,
            table=table,
        )


# ----------------------------------------------------------------------
# Reference: the PR 3 warm path, pinned.  Everything PR 2 had, plus the
# incremental per-instant bound, hoisted interferer rows, the
# own-jitter-insensitive window memo, per-replay lookup hoisting and the
# monotone validation floor -- but **no pattern-level dominance**: every
# maximisation re-checks every critical instant (one table-driven
# ``advance`` per instant once the bound is active) instead of eliding
# pattern-dominated instants once per availability.  The dominance
# cache layer is measured against this.
# ----------------------------------------------------------------------


def _pr3_busy_window_at(wcet, rows, availability, cap, t0, seed=None):
    """PR 3 ``fps._busy_window_at``, pinned verbatim."""
    seeded = seed is not None and seed > wcet
    demand = seed if seeded else wcet
    window = 0
    advance = availability.advance
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        end = advance(t0, demand)
        if end is None:
            return cap, False, demand
        window = end - t0
        if window >= cap:
            return cap, False, demand
        new_demand = wcet
        for p, c_j, jit in rows:
            s = window + jit
            if s > 0:
                new_demand += -(-s // p) * c_j
        if new_demand == demand:
            return window, True, demand
        if seeded and new_demand < demand:
            return _pr3_busy_window_at(wcet, rows, availability, cap, t0)
        demand = new_demand
    if seeded:
        return _pr3_busy_window_at(wcet, rows, availability, cap, t0)
    return window, False, demand


def _pr3_fps_seeded_busy_window(
    wcet, info, availability, jitters, cap, own_jitter, seeds=None
):
    """PR 3 ``fps.seeded_busy_window``: per-instant bound, no dominance."""
    from repro.analysis.fps import interferer_rows

    (instants, before, slack, period, gap_ends, through, eval_order, _dom) = (
        availability.instant_advance_tables()
    )
    n_instants = len(instants)
    demands = [None] * n_instants
    worst = 0
    converged = True
    n_seeds = len(seeds) if seeds is not None else 0
    rows = interferer_rows(info, jitters, own_jitter)
    fast = gap_ends is not None and slack > 0 and wcet > 0
    bound_demand = -1
    bound_activations = 0
    for idx in eval_order:
        t0 = instants[idx]
        seed = seeds[idx] if idx < n_seeds else None
        if worst > 0:
            if bound_demand < 0:
                bound_demand = wcet
                bound_activations = 0
                for p, c_j, jit in rows:
                    s = worst + jit
                    if s > 0:
                        count = -(-s // p)
                        bound_demand += count * c_j
                        bound_activations += count
            if bound_activations + 2 <= MAX_FIXPOINT_ITERATIONS:
                if fast:
                    whole, rem = divmod(before[idx] + bound_demand - 1, slack)
                    k = _bisect_left(through, rem + 1)
                    w_bound = (
                        whole * period + gap_ends[k] - (through[k] - rem - 1)
                        - t0
                    )
                else:
                    end = availability.advance(t0, bound_demand)
                    w_bound = cap if end is None else end - t0
                if w_bound <= worst:
                    continue
        result = None
        if fast:
            seeded = seed is not None and seed > wcet
            demand = seed if seeded else wcet
            window = 0
            offset = before[idx]
            for _ in range(MAX_FIXPOINT_ITERATIONS):
                whole, rem = divmod(offset + demand - 1, slack)
                k = _bisect_left(through, rem + 1)
                window = (
                    whole * period + gap_ends[k] - (through[k] - rem - 1) - t0
                )
                if window >= cap:
                    result = (cap, False, demand)
                    break
                new_demand = wcet
                for p, c_j, jit in rows:
                    s = window + jit
                    if s > 0:
                        new_demand += -(-s // p) * c_j
                if new_demand == demand:
                    result = (window, True, demand)
                    break
                if seeded and new_demand < demand:
                    result = _pr3_busy_window_at(
                        wcet, rows, availability, cap, t0
                    )
                    break
                demand = new_demand
            if result is None:
                result = (
                    _pr3_busy_window_at(wcet, rows, availability, cap, t0)
                    if seeded
                    else (window, False, demand)
                )
        else:
            result = _pr3_busy_window_at(
                wcet, rows, availability, cap, t0, seed
            )
        window, ok, demand = result
        demands[idx] = demand
        if window >= cap:
            return cap, False, demands
        if window > worst:
            worst = window
            bound_demand = -1
        converged = converged and ok
    return worst, converged, demands


class Pr3WarmReference:
    """The PR 3 incremental engine's warm path, frozen for comparison.

    Reuses the live context's validation memo, schedule cache and
    per-configuration structure (identical in PR 3) but pins PR 3's FPS
    maximisation: the incremental per-instant bound re-derived inside
    every call, with no pattern-level dominance tables.  The DYN kernel
    is the live ``repro.analysis.dyn.seeded_busy_window`` -- this PR
    left it untouched; re-pin it here if a later PR changes it.
    """

    def __init__(self, system):
        from repro.analysis.context import AnalysisContext as _Ctx

        self.system = system
        self.options = AnalysisOptions()
        self.inner = _Ctx(system, self.options)

    def analyse(self, config):
        from repro.analysis.dyn import seeded_busy_window as _dyn_seeded
        from repro.analysis.holistic import _infeasible
        from repro.core.cost import cost_function as _cost

        inner = self.inner
        options = self.options
        failure = inner._validate(config)
        if failure is not None:
            return _infeasible(config, failure)
        arts = inner._schedule_artifacts(config)
        if arts.failure is not None:
            return _infeasible(config, arts.failure)
        table = (
            arts.table
            if arts.table.config is config
            else arts.table.retime_for(config)
        )

        cap_base = inner._cap_base
        gd_cycle = config.gd_cycle
        cap = options.cap_factor * (
            cap_base if cap_base > gd_cycle else gd_cycle
        )
        fill_strategy = options.dyn_fill_strategy
        dyn_views = inner._dyn_views(config)
        availability = arts.availability
        fps_plans = inner.fps_plans

        wcrt = dict(arts.static_wcrt)
        jitters = {}
        inner_seeds = {}
        wcrt_get = wcrt.get
        jitters_get = jitters.get
        seeds_get = inner_seeds.get
        dependents = inner._dependents(config)
        deps_get = dependents.get
        dirty = set()
        dirty_add = dirty.add
        last_own = {}
        last_out = {}
        fps_items = [
            (plan, availability[node])
            for node in self.system.nodes
            for plan in fps_plans[node]
        ]
        converged = True
        for _ in range(options.max_holistic_iterations):
            changed = False
            for view in dyn_views:
                name = view.name
                j_m = wcrt_get(view.sender, 0)
                if jitters_get(name, 0) != j_m:
                    jitters[name] = j_m
                    changed = True
                    for dep in deps_get(name, ()):
                        dirty_add(dep)
                cached = (
                    last_out.get(name)
                    if name not in dirty
                    and (not view.own_sensitive or last_own.get(name) == j_m)
                    else None
                )
                if cached is not None:
                    w, ok = cached
                else:
                    if view.sendable:
                        w, ok, final = _dyn_seeded(
                            view.hp_info, view.lf_info, view.lower_slots,
                            view.lam, view.theta, view.sigma, view.ct,
                            view.gd_cycle, view.st_bus, view.ms_len,
                            jitters, cap, j_m, fill_strategy,
                            seeds_get(name),
                        )
                        inner_seeds[name] = final
                    else:
                        w, ok = None, False
                    dirty.discard(name)
                    last_own[name] = j_m
                    last_out[name] = (w, ok)
                if w is None:
                    value = cap
                else:
                    value = j_m + w + view.ct
                    if value > cap:
                        value = cap
                converged = converged and ok
                if wcrt_get(name) != value:
                    wcrt[name] = value
                    changed = True
            for plan, node_availability in fps_items:
                name = plan.name
                j_i = plan.release
                for pred in plan.predecessors:
                    v = wcrt_get(pred, 0)
                    if v > j_i:
                        j_i = v
                if jitters_get(name, 0) != j_i:
                    jitters[name] = j_i
                    changed = True
                    for dep in deps_get(name, ()):
                        dirty_add(dep)
                cached = (
                    last_out.get(name)
                    if name not in dirty
                    and (not plan.own_sensitive or last_own.get(name) == j_i)
                    else None
                )
                if cached is not None:
                    window_value, ok = cached
                else:
                    window_value, ok, demands = _pr3_fps_seeded_busy_window(
                        plan.wcet, plan.interferers, node_availability,
                        jitters, cap, j_i, seeds_get(name),
                    )
                    inner_seeds[name] = demands
                    dirty.discard(name)
                    last_own[name] = j_i
                    last_out[name] = (window_value, ok)
                converged = converged and ok
                r_i = j_i + window_value
                if r_i > cap:
                    r_i = cap
                if wcrt_get(name) != r_i:
                    wcrt[name] = r_i
                    changed = True
            if not changed:
                break
        else:
            converged = False

        cost = _cost(self.system.application, wcrt)
        return AnalysisResult(
            config=config,
            feasible=True,
            schedulable=cost.schedulable and converged,
            converged=converged,
            cost=cost,
            wcrt=wcrt,
            table=table,
        )


# ----------------------------------------------------------------------
# Workload: the OBC/EE DYN-length sweep on a Fig. 9 system.
# ----------------------------------------------------------------------
_cache = {}


def _sweep_configs():
    n_nodes = env_int("REPRO_BENCH_INC_NODES", 4)
    points = env_int(
        "REPRO_BENCH_INC_POINTS", 192 if full_scale() else 64
    )
    system = paper_suite(n_nodes, count=1, seed=23)[0]
    options = BusOptimisationOptions(ee_max_dyn_points=points)
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    configs = [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]
    return system, options, configs


def _pure_dyn_system(n_nodes: int, seed: int):
    """A Fig. 9 system with its TT graphs collapsed onto single nodes.

    Every time-triggered graph keeps its SCS tasks (so the nodes retain
    rich static busy patterns -- the raw material of the dominance
    tables) but is remapped onto the node that already hosts most of its
    tasks, turning its ST messages into same-node precedences.  The
    resulting application sends **only DYN messages**, so the schedule
    key drops ``gd_cycle`` and the whole DYN-length sweep shares one
    schedule-cache entry -- the workload where a per-availability
    construction amortises across every candidate.
    """
    import dataclasses
    from collections import Counter

    from repro.model.application import Application
    from repro.model.graph import TaskGraph
    from repro.model.system import System

    base = paper_suite(n_nodes, count=1, seed=seed)[0]
    graphs = []
    for g in base.application.graphs:
        if not any(m.is_static for m in g.messages):
            graphs.append(g)
            continue
        counts = Counter(t.node for t in g.tasks)
        target = max(sorted(counts), key=lambda n: counts[n])
        tasks = tuple(dataclasses.replace(t, node=target) for t in g.tasks)
        precedences = tuple(g.precedences) + tuple(
            (m.sender, r) for m in g.messages for r in m.receivers
        )
        graphs.append(
            TaskGraph(
                name=g.name,
                period=g.period,
                deadline=g.deadline,
                tasks=tasks,
                messages=(),
                precedences=precedences,
            )
        )
    app = Application(base.application.name + "_pure_dyn", tuple(graphs))
    return System(base.nodes, app)


def _pure_dyn_configs():
    n_nodes = env_int("REPRO_BENCH_DOM_NODES", 4)
    # 256 points (up from 96): wide batches are where the array backend's
    # lockstep evaluation amortises, and the longer per-mode samples keep
    # the asserted ratios out of scheduler-noise territory on busy hosts.
    points = env_int(
        "REPRO_BENCH_DOM_POINTS", 512 if full_scale() else 256
    )
    system = _pure_dyn_system(n_nodes, seed=23)
    assert not tuple(system.application.st_messages()), "scenario must be pure-DYN"
    options = BusOptimisationOptions(ee_max_dyn_points=points)
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    configs = [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]
    return system, configs


def _dominance_stats(context: AnalysisContext) -> tuple:
    """(maximal, dominated) instant counts across the context's cached
    availability patterns (dominance tables that were actually built)."""
    maximal = dominated = 0
    for entry in context._schedule_cache.values():
        if entry.availability is None:
            continue
        for availability in entry.availability.values():
            dom = availability.instant_advance_tables().dominance
            if dom is not None:
                maximal += len(dom.maximal_order)
                dominated += len(dom.dominated_order)
    return maximal, dominated


def _native_batch_maker(system):
    """A ``_time_interleaved`` make: a fresh native-backend context per
    round, analysing the whole sweep in one ``analyse_batch`` call."""

    def make():
        ctx = AnalysisContext(system, AnalysisOptions(backend="native"))

        def run(cfgs):
            return ctx.analyse_batch(cfgs)

        run.batched = True
        return run

    return make


def run_pure_dyn():
    """Time the dominance kernel against the pinned PR 3 path on the
    pure-DYN sweep; cached across test functions."""
    if "pure_dyn" in _cache:
        return _cache["pure_dyn"]
    system, configs = _pure_dyn_configs()

    warm_ctx_holder = []

    def _make_warm():
        ctx = AnalysisContext(system)  # default: dominance="on"
        warm_ctx_holder.append(ctx)
        return ctx.analyse

    # Eight interleaved rounds (up from the default six): the native
    # generation's asserted floor is a 2x ratio between two sub-100ms
    # sweeps, which needs a little more best-of convergence than the
    # few-percent pinned-reference ratios.
    makes = {
        "pr3_warm": lambda: Pr3WarmReference(system).analyse,
        "warm": _make_warm,
    }
    have_native = native_or_none() is not None
    if have_native:
        makes["native_batch"] = _native_batch_maker(system)
    timed = _time_interleaved(makes, configs, repeats=8)
    pr3_s, pr3_results = timed["pr3_warm"]
    warm_s, warm_results = timed["warm"]
    native_s, native_results = timed.get("native_batch", (None, None))

    # Correctness: the dominance path against the dominance-off oracle,
    # and the "verify" cross-checks (dominance and, with the extension
    # built, backend) counting divergences in-line.
    off_ctx = AnalysisContext(system, AnalysisOptions(dominance="off"))
    off_results = [off_ctx.analyse(c) for c in configs]
    verify_ctx = AnalysisContext(system, AnalysisOptions(dominance="verify"))
    for c in configs:
        verify_ctx.analyse(c)
    backend_divergences = None
    if have_native:
        backend_verify_ctx = AnalysisContext(
            system, AnalysisOptions(backend="verify")
        )
        backend_verify_ctx.analyse_batch(configs)
        backend_divergences = backend_verify_ctx.backend_divergences

    out = {
        "system": system,
        "configs": configs,
        "seconds": {
            "pr3_warm": pr3_s,
            "warm": warm_s,
            "native_batch": native_s,
        },
        "results": {
            "pr3_warm": pr3_results,
            "warm": warm_results,
            "native_batch": native_results,
            "off": off_results,
        },
        "divergences": verify_ctx.dominance_divergences,
        "backend_divergences": backend_divergences,
        "dominance_stats": _dominance_stats(warm_ctx_holder[0]),
    }
    _cache["pure_dyn"] = out
    return out


def _signature(result: AnalysisResult) -> tuple:
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        None if result.cost is None else result.cost.value,
        tuple(sorted(result.wcrt.items())),
    )


def _time_best(make_analyse, configs, repeats=3):
    """Best-of-*repeats* sweep time; returns (seconds, first run's results).

    ``make_analyse`` builds a fresh analyser per repeat (warm state must
    not leak across repeats).  The speedup *ratios* asserted below
    compare modes that each take well under a second, so a single timing
    sample is at the mercy of scheduler noise; best-of-3 keeps the
    comparison honest without inflating the bench's runtime.
    """
    best_s = None
    results = None
    for _ in range(max(1, repeats)):
        analyse = make_analyse()
        t0 = time.perf_counter()
        out = [analyse(c) for c in configs]
        elapsed = time.perf_counter() - t0
        if best_s is None or elapsed < best_s:
            best_s = elapsed
        if results is None:
            results = out
    return best_s, results


def _time_interleaved(makes, configs, repeats=6):
    """Best-of-*repeats* per mode, with the modes interleaved per round.

    Timing the modes back-to-back in blocks lets slow host drift (CPU
    governor ramps, co-tenant load) land entirely on whichever mode owns
    the slow window, which is exactly what a few-percent ratio assertion
    cannot afford.  Interleaving samples every mode in every epoch, so
    the per-mode best is taken over comparable conditions.  Noise on a
    shared host only ever *inflates* a sample, so the best-of floor
    converges to the true cost as rounds accumulate -- six rounds keep
    the few-percent ratios stable on a loaded 1-CPU container.  Returns
    ``{mode: (seconds, first run's results)}``.

    A make may return a callable with a truthy ``batched`` attribute;
    it is then handed the whole config list in one call (the array
    backend's sweep protocol) instead of being mapped per config, so
    its timing includes the one-off lowering, exactly as a campaign
    pays it.
    """
    best = {key: None for key in makes}
    results = {key: None for key in makes}
    for _ in range(max(1, repeats)):
        for key, make_analyse in makes.items():
            analyse = make_analyse()
            t0 = time.perf_counter()
            if getattr(analyse, "batched", False):
                out = analyse(configs)
            else:
                out = [analyse(c) for c in configs]
            elapsed = time.perf_counter() - t0
            if best[key] is None or elapsed < best[key]:
                best[key] = elapsed
            if results[key] is None:
                results[key] = out
    return {key: (best[key], results[key]) for key in makes}


def run_modes():
    """Time all modes over the sweep; cached across test functions."""
    if "modes" in _cache:
        return _cache["modes"]
    system, options, configs = _sweep_configs()

    # Untimed warm-up pass: the first sweep of a fresh process runs with
    # a cold allocator/branch-predictor (and, on busy hosts, a ramping
    # CPU governor), which would systematically penalise whichever mode
    # happens to be timed first.  The speedup *ratios* asserted below
    # compare modes separated by a few percent, so burn the drift here.
    warmup = AnalysisContext(system)
    for c in configs:
        warmup.analyse(c)

    t0 = time.perf_counter()
    seed_results = [seed_reference_analyse(system, c) for c in configs]
    seed_s = time.perf_counter() - t0

    timed = _time_interleaved(
        {
            "pr1_warm": lambda: Pr1WarmReference(system).analyse,
            "pr2_warm": lambda: Pr2WarmReference(system).analyse,
            "pr3_warm": lambda: Pr3WarmReference(system).analyse,
            "cold": lambda: (lambda c: analyse_system(system, c)),
            "warm": lambda: AnalysisContext(system).analyse,
        },
        configs,
    )
    pr1_s, pr1_results = timed["pr1_warm"]
    pr2_s, pr2_results = timed["pr2_warm"]
    pr3_s, pr3_results = timed["pr3_warm"]
    cold_s, cold_results = timed["cold"]
    warm_s, warm_results = timed["warm"]

    workers = env_int("REPRO_BENCH_INC_WORKERS", min(8, os.cpu_count() or 1))
    import dataclasses

    par_options = dataclasses.replace(options, parallel_workers=workers)
    evaluator = Evaluator(system, par_options)
    t0 = time.perf_counter()
    par_results = evaluator.analyse_many(configs)
    par_s = time.perf_counter() - t0
    evaluator.close()

    modes = {
        "system": system,
        "configs": configs,
        "workers": workers,
        "evaluator": evaluator,
        "results": {
            "seed": (seed_s, seed_results),
            "pr1_warm": (pr1_s, pr1_results),
            "pr2_warm": (pr2_s, pr2_results),
            "pr3_warm": (pr3_s, pr3_results),
            "cold": (cold_s, cold_results),
            "warm": (warm_s, warm_results),
            "parallel": (par_s, par_results),
        },
    }
    _cache["modes"] = modes
    return modes


def test_incremental_analysis_identical_and_fast():
    modes = run_modes()
    results = modes["results"]
    n = len(modes["configs"])

    # Correctness first: every mode bit-identical to the seed reference.
    seed_sigs = [_signature(r) for r in results["seed"][1]]
    for mode in ("pr1_warm", "pr2_warm", "pr3_warm", "cold", "warm",
                 "parallel"):
        sigs = [_signature(r) for r in results[mode][1]]
        assert sigs == seed_sigs, f"{mode} diverged from the seed reference"

    seed_s = results["seed"][0]
    pr1_s = results["pr1_warm"][0]
    pr2_s = results["pr2_warm"][0]
    pr3_s = results["pr3_warm"][0]
    warm_s = results["warm"][0]
    cold_s = results["cold"][0]
    par_s = results["parallel"][0]
    pure_dyn = run_pure_dyn()
    pd_n = len(pure_dyn["configs"])
    pd_pr3_s = pure_dyn["seconds"]["pr3_warm"]
    pd_warm_s = pure_dyn["seconds"]["warm"]
    pd_native_s = pure_dyn["seconds"]["native_batch"]
    pd_maximal, pd_dominated = pure_dyn["dominance_stats"]
    have_native = native_or_none() is not None
    if have_native:
        st_heavy = run_st_heavy_backends()
        sh_n = len(st_heavy["configs"])
        sh_warm_s = st_heavy["seconds"]["warm"]
        sh_native_s = st_heavy["seconds"]["native_batch"]
    payload = {
        "workload": {
            "sweep_points": n,
            "n_nodes": env_int("REPRO_BENCH_INC_NODES", 4),
            "parallel_workers": modes["workers"],
            "cpu_count": os.cpu_count(),
        },
        "seconds": {
            "seed_behaviour": round(seed_s, 4),
            "pr1_warm": round(pr1_s, 4),
            "pr2_warm": round(pr2_s, 4),
            "pr3_warm": round(pr3_s, 4),
            "cold_context": round(cold_s, 4),
            "warm_context": round(warm_s, 4),
            "parallel": round(par_s, 4),
        },
        "analyses_per_second": {
            "seed_behaviour": round(n / seed_s, 2),
            "pr1_warm": round(n / pr1_s, 2),
            "pr2_warm": round(n / pr2_s, 2),
            "pr3_warm": round(n / pr3_s, 2),
            "cold_context": round(n / cold_s, 2),
            "warm_context": round(n / warm_s, 2),
            "parallel": round(n / par_s, 2),
        },
        "speedup_vs_seed": {
            "pr1_warm": round(seed_s / pr1_s, 2),
            "pr2_warm": round(seed_s / pr2_s, 2),
            "pr3_warm": round(seed_s / pr3_s, 2),
            "cold_context": round(seed_s / cold_s, 2),
            "warm_context": round(seed_s / warm_s, 2),
            "parallel": round(seed_s / par_s, 2),
        },
        "warm_vs_pr1_warm": round(pr1_s / warm_s, 2),
        "warm_vs_pr2_warm": round(pr2_s / warm_s, 2),
        "warm_vs_pr3_warm": round(pr3_s / warm_s, 2),
        # The dominance scenario: a pure-DYN sweep (no ST messages, one
        # shared schedule-cache entry) where the pattern-level tables
        # amortise across every candidate.
        "pure_dyn": {
            "sweep_points": pd_n,
            "seconds": {
                "pr3_warm": round(pd_pr3_s, 4),
                "warm_context": round(pd_warm_s, 4),
                "native_batch": (
                    round(pd_native_s, 4) if have_native else None
                ),
            },
            "warm_vs_pr3_warm": round(pd_pr3_s / pd_warm_s, 2),
            "native_batch_vs_warm": (
                round(pd_warm_s / pd_native_s, 2) if have_native else None
            ),
            "dominated_instants": pd_dominated,
            "maximal_instants": pd_maximal,
            "dominance_verify_divergences": pure_dyn["divergences"],
            "backend_verify_divergences": pure_dyn["backend_divergences"],
        },
        # The native backend's headline shape: singleton-lane groups on
        # the ST-heavy sweep (every cycle length a distinct schedule).
        "st_heavy_backends": (
            {
                "sweep_points": sh_n,
                "seconds": {
                    "warm_context": round(sh_warm_s, 4),
                    "native_batch": round(sh_native_s, 4),
                },
                "native_batch_vs_warm": round(sh_warm_s / sh_native_s, 2),
            }
            if have_native
            else None
        ),
    }
    report_json("BENCH_incremental_analysis", payload)
    report(
        "bench_incremental_analysis",
        [
            "Incremental analysis engine: OBC/EE DYN-length sweep "
            f"({n} points, 1 system)",
            f"{'mode':>14} | {'seconds':>8} | {'analyses/s':>10} | {'vs seed':>8}",
        ]
        + [
            f"{mode:>14} | {payload['seconds'][key]:>8.2f} | "
            f"{payload['analyses_per_second'][key]:>10.1f} | "
            f"{payload['speedup_vs_seed'].get(key, 1.0):>7.2f}x"
            for mode, key in (
                ("seed", "seed_behaviour"),
                ("pr1_warm", "pr1_warm"),
                ("pr2_warm", "pr2_warm"),
                ("pr3_warm", "pr3_warm"),
                ("cold", "cold_context"),
                ("warm", "warm_context"),
                ("parallel", "parallel"),
            )
        ]
        + [
            "warm shares one AnalysisContext across the sweep; parallel adds "
            f"{modes['workers']} workers on {os.cpu_count()} CPU(s)",
            f"warm vs PR 1 warm path: {pr1_s / warm_s:.2f}x "
            "(retimable schedule plan + certified fix-point warm starts)",
            f"warm vs PR 2 warm path: {pr2_s / warm_s:.2f}x "
            "(FPS instant pruning + hoisted interferer rows + monotone "
            "validation floor)",
            f"warm vs PR 3 warm path: {pr3_s / warm_s:.2f}x on this "
            "ST-heavy sweep (fresh schedule per cycle length)",
            f"pure-DYN sweep ({pd_n} points, one shared schedule): warm vs "
            f"PR 3 warm path {pd_pr3_s / pd_warm_s:.2f}x -- pattern-level "
            f"dominance elides {pd_dominated}/{pd_maximal + pd_dominated} "
            "instants once per availability",
        ]
        + (
            [
                f"native compiled backend: {pd_warm_s / pd_native_s:.2f}x "
                f"vs warm Python on the pure-DYN sweep (one group); "
                f"{sh_warm_s / sh_native_s:.2f}x vs warm Python on the "
                f"ST-heavy singleton-lane sweep ({sh_n} points)",
            ]
            if have_native
            else ["native compiled backend: repro._native not built, skipped"]
        ),
    )

    # The headline claim: a warm context beats the seed behaviour >= 3x.
    assert seed_s / warm_s >= 3.0, (
        f"warm context only {seed_s / warm_s:.2f}x faster than seed behaviour"
    )
    # PR 2's claim: the retimable schedule plan + certified busy-window
    # warm starts beat the pinned PR 1 warm path >= 2x on this ST-heavy
    # DYN sweep (11 ST messages: every cycle length is a distinct
    # schedule, so PR 1 rebuilt each from scratch).
    assert pr1_s / warm_s >= 2.0, (
        f"warm context only {pr1_s / warm_s:.2f}x faster than the PR 1 warm path"
    )
    # PR 3's claim: the third-generation kernel (incremental per-instant
    # bound, hoisted interferer rows, per-replay lookup hoisting,
    # monotone validation floor) beats the pinned PR 2 warm path
    # >= 1.3x on the same sweep.
    assert pr2_s / warm_s >= 1.3, (
        f"warm context only {pr2_s / warm_s:.2f}x faster than the PR 2 warm path"
    )
    # PR 4's no-regression claim: lazily-built dominance tables must not
    # cost anything measurable on this ST-heavy sweep, where every cycle
    # length gets a fresh schedule (and hence fresh availability
    # patterns whose construction is barely amortised).
    assert pr3_s / warm_s >= 0.97, (
        f"dominance tables regressed the ST-heavy sweep: warm is "
        f"{pr3_s / warm_s:.2f}x of the PR 3 warm path"
    )


def test_dominance_amortises_on_pure_dyn_sweep():
    """PR 4's claim: on a pure-DYN sweep (one shared schedule, so one
    dominance construction for the whole sweep) the dominance kernel
    beats the pinned PR 3 warm path >= 1.1x, bit-identically."""
    pure_dyn = run_pure_dyn()
    off_sigs = [_signature(r) for r in pure_dyn["results"]["off"]]
    for mode in ("pr3_warm", "warm"):
        sigs = [_signature(r) for r in pure_dyn["results"][mode]]
        assert sigs == off_sigs, f"{mode} diverged from the dominance-off oracle"
    assert pure_dyn["divergences"] == 0, (
        "dominance='verify' caught divergences on the pure-DYN sweep"
    )
    maximal, dominated = pure_dyn["dominance_stats"]
    assert dominated > 0, "scenario exercises no dominated instants"
    pr3_s = pure_dyn["seconds"]["pr3_warm"]
    warm_s = pure_dyn["seconds"]["warm"]
    assert pr3_s / warm_s >= 1.1, (
        f"dominance kernel only {pr3_s / warm_s:.2f}x faster than the "
        "PR 3 warm path on the pure-DYN sweep"
    )


def run_st_heavy_backends():
    """Time warm Python vs the native backend on the ST-heavy sweep.

    The Fig. 9 OBC/EE sweep sends 11 ST messages, so every cycle length
    is a distinct schedule key: the grouped backend sees **singleton
    lanes**, where per-group lowering and dispatch are not amortised,
    yet the compiled backend still runs each lane's whole holistic fix
    point in C.  Cached across test functions.
    """
    if "st_heavy" in _cache:
        return _cache["st_heavy"]
    system, options, configs = _sweep_configs()

    # Same untimed warm-up rationale as ``run_modes``.
    warmup = AnalysisContext(system)
    for c in configs:
        warmup.analyse(c)

    makes = {
        "warm": lambda: AnalysisContext(system).analyse,
        "native_batch": _native_batch_maker(system),
    }
    timed = _time_interleaved(makes, configs, repeats=8)
    out = {
        "system": system,
        "configs": configs,
        "seconds": {key: timed[key][0] for key in makes},
        "results": {key: timed[key][1] for key in makes},
    }
    _cache["st_heavy"] = out
    return out


def test_native_backend_identical_and_fast():
    """The compiled backend's claims: bit identity on both sweep shapes
    (signatures, wcrt dicts including insertion order, costs), zero
    in-line ``backend='verify'`` divergences, and >= 2x over the warm
    Python path both on the ST-heavy singleton-lane sweep and on the
    pure-DYN sweep's single wide group."""
    if native_or_none() is None:
        print(
            "bench_incremental_analysis: repro._native not built; "
            "native backend claims skipped"
        )
        return
    st_heavy = run_st_heavy_backends()
    warm_sigs = [_signature(r) for r in st_heavy["results"]["warm"]]
    sigs = [_signature(r) for r in st_heavy["results"]["native_batch"]]
    assert sigs == warm_sigs, (
        "native_batch diverged from the warm Python path on the ST-heavy "
        "sweep"
    )

    pure_dyn = run_pure_dyn()
    off_sigs = [_signature(r) for r in pure_dyn["results"]["off"]]
    native_results = pure_dyn["results"]["native_batch"]
    assert [_signature(r) for r in native_results] == off_sigs, (
        "native backend diverged from the Python oracle"
    )
    for py_r, nat_r in zip(pure_dyn["results"]["warm"], native_results):
        assert py_r.wcrt == nat_r.wcrt, "wcrt values diverged"
        assert list(py_r.wcrt) == list(nat_r.wcrt), (
            "wcrt insertion order diverged"
        )
        assert py_r.cost == nat_r.cost, "cost breakdowns diverged"
    assert pure_dyn["backend_divergences"] == 0, (
        "backend='verify' caught divergences with the native backend in "
        "the loop"
    )

    st_warm_s = st_heavy["seconds"]["warm"]
    st_native_s = st_heavy["seconds"]["native_batch"]
    assert st_warm_s / st_native_s >= 2.0, (
        f"native backend only {st_warm_s / st_native_s:.2f}x faster than "
        "the warm Python path on the ST-heavy singleton-lane sweep"
    )
    pd_warm_s = pure_dyn["seconds"]["warm"]
    pd_native_s = pure_dyn["seconds"]["native_batch"]
    assert pd_warm_s / pd_native_s >= 2.0, (
        f"native backend only {pd_warm_s / pd_native_s:.2f}x faster than "
        "the warm Python path on the pure-DYN sweep"
    )


def test_optimisers_identical_serial_vs_parallel():
    """Fixed-seed optimiser outcomes are byte-identical with the pool on."""
    import dataclasses

    from repro.core import (
        GAOptions,
        SAOptions,
        optimise_bbc,
        optimise_ga,
        optimise_obc,
        optimise_sa,
    )

    system = paper_suite(3, count=1, seed=23)[0]
    serial = BusOptimisationOptions(
        max_dyn_points=16,
        ee_max_dyn_points=48,
        cf_candidates=64,
        max_extra_static_slots=1,
        max_slot_size_steps=1,
    )
    parallel = dataclasses.replace(serial, parallel_workers=2)

    def outcome(result):
        cfg = result.config
        return (
            result.cost,
            result.schedulable,
            result.evaluations,
            result.cache_hits,
            None if cfg is None else cfg.cache_key(),
            result.trace,
        )

    runners = (
        ("BBC", lambda o: optimise_bbc(system, o)),
        ("OBC/EE", lambda o: optimise_obc(system, o, "exhaustive")),
        ("OBC/CF", lambda o: optimise_obc(system, o, "curvefit")),
        ("SA", lambda o: optimise_sa(
            system, o, SAOptions(iterations=60, seed=9, restarts=2))),
        ("GA", lambda o: optimise_ga(
            system, o, GAOptions(population=6, generations=3, seed=5))),
    )
    for name, run in runners:
        assert outcome(run(serial)) == outcome(run(parallel)), (
            f"{name}: parallel run diverged from serial at fixed seed"
        )


if __name__ == "__main__":
    test_incremental_analysis_identical_and_fast()
    test_dominance_amortises_on_pure_dyn_sweep()
    test_native_backend_identical_and_fast()
    test_optimisers_identical_serial_vs_parallel()
    print("bench_incremental_analysis: all checks passed")
