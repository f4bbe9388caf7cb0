"""Determining the DYN segment length (Section 6.2.1, Fig. 8).

Two strategies, both searching ``n_minislots`` in the legal range for a
fixed static-segment structure:

* :func:`exhaustive_proposals` -- analyse every candidate (OBC/EE);
* :func:`curvefit_proposals` -- the paper's heuristic: analyse a small
  seed set exactly, Newton-interpolate every activity's response time
  over the whole range, and only analyse the most promising candidates
  until a schedulable one is confirmed or Nmax rounds bring no
  improvement (OBC/CF).

Both are written against the proposal protocol of
:mod:`repro.core.runtime`: they yield
:class:`~repro.core.runtime.CandidateBatch` objects and receive the
evaluated results, so the OBC strategy composes them with ``yield
from`` and the search driver owns evaluation.  The legacy entry points
:func:`exhaustive_dyn_length` / :func:`curvefit_dyn_length` drive the
same generators against a caller-owned
:class:`~repro.core.search.Evaluator` -- one implementation, two
calling conventions.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.holistic import AnalysisResult
from repro.core.config import FlexRayConfig
# Eq. (5).  The scorer inlines it, but the name stays bound here:
# perfbench/tracer.py patches ``repro.core.dynlen.cost_function``.
from repro.core.cost import cost_function  # noqa: F401
from repro.core.curvefit import NewtonTable, spread_points
from repro.core.runtime import CandidateBatch, Proposals, drive_with_evaluator
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    better,
    sweep_lengths,
)
from repro.errors import AnalysisError
from repro.model.application import Application
from repro.model.system import System


def ee_sweep_lengths(lo, hi, options, max_points: Optional[int] = None):
    """The DYN lengths OBC/EE analyses for one static variant.

    Shared between :func:`exhaustive_proposals` and the chunked OBC
    prefetch (``repro.core.obc``) so the prefetched batch always equals
    the search's candidate set.
    """
    if max_points is None:
        max_points = options.ee_max_dyn_points
    return sweep_lengths(lo, hi, max_points)


def cf_seed_lengths(lo, hi, options):
    """The exactly-analysed OBC/CF seed lengths (Fig. 8 lines 1-5).

    Shared between :func:`curvefit_proposals` and the chunked OBC
    prefetch so the prefetched batch always equals the search's first
    exact points.
    """
    return spread_points(lo, hi, options.initial_cf_points)


def exhaustive_proposals(
    options: BusOptimisationOptions,
    template: FlexRayConfig,
    lo: int,
    hi: int,
    max_points: Optional[int] = None,
) -> Proposals:
    """Best configuration over all DYN lengths in [lo, hi] (OBC/EE).

    ``max_points`` caps the sweep resolution; ``None`` uses the
    options' value (the paper analyses every gdMinislot step, which is
    the configuration ``max_points >= hi - lo + 1``).
    """
    best: Optional[AnalysisResult] = None
    # One batch: the sweep shares the evaluator's warm AnalysisContext
    # and fans out over the parallel pool when one is configured; the
    # first-best selection below matches the serial iteration order.
    configs = [
        template.with_dyn_length(n)
        for n in ee_sweep_lengths(lo, hi, options, max_points)
    ]
    if not configs:
        return None
    results = yield CandidateBatch(tuple(configs))
    for result in results:
        if better(result, best):
            best = result
    return best


def curvefit_proposals(
    system: System,
    options: BusOptimisationOptions,
    template: FlexRayConfig,
    lo: int,
    hi: int,
) -> Proposals:
    """The curve-fitting heuristic of Fig. 8 (OBC/CF)."""
    if hi < lo:
        return None

    names, deadlines = activity_deadlines(system.application)
    exact: Dict[int, AnalysisResult] = {}
    # One shared-node table interpolates every activity: feasible results
    # cover all of them and infeasible ones add no node.
    table = NewtonTable(len(names))
    # Configurations are frozen, so each length gets one object, shared by
    # its estimates in every round and by its exact analysis.
    configs: Dict[int, FlexRayConfig] = {}

    def config_for(n: int) -> FlexRayConfig:
        config = configs.get(n)
        if config is None:
            config = configs[n] = template.with_dyn_length(n)
        return config

    def record_point(n: int, result: AnalysisResult) -> None:
        exact[n] = result
        if result.feasible:
            try:
                ys = [result.wcrt[name] for name in names]
            except KeyError as exc:
                raise AnalysisError(
                    f"feasible result at n_minislots={n} has no response "
                    f"time for {exc.args[0]!r}; cannot interpolate"
                ) from None
            table.add_point(n, ys)

    # Line 1-5: seed points, analysed exactly.  The seeds are mutually
    # independent, so they go out as one batch: they share the
    # evaluator's result cache and fan out over the parallel pool when
    # one is configured.  Batching unconditionally forfeits the old
    # stop-at-first-schedulable-seed early exit (rare: it only fired
    # when the very first exact points were already schedulable), but
    # keeps serial and parallel runs byte-identical -- branching on
    # ``parallel_workers`` here would make their evaluation counts and
    # traces diverge.
    seed_lengths = cf_seed_lengths(lo, hi, options)
    seed_results = yield CandidateBatch(
        tuple(config_for(n) for n in seed_lengths)
    )
    for n, result in zip(seed_lengths, seed_results):
        record_point(n, result)
        if result.schedulable and options.stop_when_schedulable:
            return result

    candidates = sweep_lengths(lo, hi, options.cf_candidates)
    best_exact_cost = _best_exact_cost(exact)
    stale_rounds = 0

    while (
        stale_rounds < options.cf_max_rounds
        and len(exact) < options.cf_max_points
    ):
        scored, estimates = _score_candidates(
            candidates, exact, table, deadlines, config_for
        )
        if estimates:
            # Estimate-only batch: the interpolated points land in the
            # trace now, before the next exact analysis -- the legacy
            # trace order.
            yield CandidateBatch(estimates=tuple(estimates))
        if not scored:
            break
        cost_min, n_best = scored[0]

        if n_best in exact:
            if cost_min <= 0:
                return exact[n_best]  # line 12: exact and schedulable
            # Line 18-19: best point already exact but unschedulable --
            # refine with the best *interpolated* candidate instead.
            n_next = next((n for _, n in scored if n not in exact), None)
            if n_next is None:
                break
            results = yield CandidateBatch((config_for(n_next),))
            record_point(n_next, results[0])
        else:
            # Lines 13-17: analyse the promising interpolated point.
            results = yield CandidateBatch((config_for(n_best),))
            result = results[0]
            record_point(n_best, result)
            if result.schedulable:
                return result
        new_best = _best_exact_cost(exact)
        if new_best < best_exact_cost:
            best_exact_cost = new_best
            stale_rounds = 0
        else:
            stale_rounds += 1

    feasible = [r for r in exact.values() if r.feasible]
    if not feasible:
        return None
    return min(feasible, key=lambda r: r.cost_value)


def exhaustive_dyn_length(
    evaluator: Evaluator,
    template: FlexRayConfig,
    lo: int,
    hi: int,
    max_points: Optional[int] = None,
) -> Optional[AnalysisResult]:
    """Drive :func:`exhaustive_proposals` on a caller-owned evaluator."""
    return drive_with_evaluator(
        exhaustive_proposals(evaluator.options, template, lo, hi, max_points),
        evaluator,
    )


def curvefit_dyn_length(
    evaluator: Evaluator,
    template: FlexRayConfig,
    lo: int,
    hi: int,
) -> Optional[AnalysisResult]:
    """Drive :func:`curvefit_proposals` on a caller-owned evaluator."""
    return drive_with_evaluator(
        curvefit_proposals(evaluator.system, evaluator.options, template, lo, hi),
        evaluator,
    )


def _best_exact_cost(exact: Dict[int, AnalysisResult]) -> float:
    return min((r.cost_value for r in exact.values()), default=math.inf)


def activity_deadlines(app: Application) -> Tuple[List[str], List[int]]:
    """Every activity and its deadline, in :func:`cost_function`'s order."""
    names = [name for g in app.graphs for name in g.topological_order()]
    return names, [app.deadline_of(name) for name in names]


#: Interpolated response times are clamped to [0, WCRT_CAP]: a
#: high-degree Newton polynomial can oscillate wildly between nodes, and
#: negative or astronomic response times are noise.
WCRT_CAP = 10**12


def _score_candidates(
    candidates: List[int],
    exact: Dict[int, AnalysisResult],
    table: NewtonTable,
    deadlines: List[int],
    config_for: Callable[[int], FlexRayConfig],
) -> Tuple[List[Tuple[float, int]], List[Tuple[FlexRayConfig, float]]]:
    """Cost per candidate length: exact when analysed, else interpolated.

    Returns ``(scored, estimates)``: (cost, length) pairs sorted
    best-first, plus the interpolated points to record in the search
    trace (in candidate order).  Candidates are skipped while fewer than
    two exact feasible points exist (nothing to interpolate from).

    An interpolated candidate costs one column-wise Horner evaluation of
    *table* and one fused pass that rounds, clamps and accumulates Eq. (5)
    against *deadlines* (one per table output, in the same order): the same
    integers :func:`cost_function` would sum, without building a
    response-time map.
    """
    scored: List[Tuple[float, int]] = []
    estimates: List[Tuple[FlexRayConfig, float]] = []
    can_interpolate = len(table) >= 2
    for n in candidates:
        result = exact.get(n)
        if result is not None:
            scored.append((result.cost_value, n))
            continue
        if not can_interpolate:
            continue
        f1 = f2 = 0
        for r, d in zip(table(n), deadlines):
            r = round(r)
            if r < 0:
                r = 0
            elif r > WCRT_CAP:
                r = WCRT_CAP
            diff = r - d
            f2 += diff
            if diff > 0:
                f1 += diff
        cost = float(f1) if f1 > 0 else float(f2)
        estimates.append((config_for(n), cost))
        scored.append((cost, n))
    scored.sort(key=lambda pair: (pair[0], pair[1]))
    return scored, estimates
