"""Result assembly of the compiled backend, and its Python delegate.

:func:`~repro.analysis.backend.native.run_group_native` ends every fix
point with a solved ``(n_rows, L)`` response-time matrix and per-lane
convergence flags; :func:`assemble_results` turns them into
:class:`~repro.analysis.holistic.AnalysisResult` lists (wcrt dicts in
the Python path's insertion order, Eq. (5) costs via
:func:`batch_costs`, retimed tables).

:func:`run_group` is where the shim delegates a group the C kernels
must not run -- a structurally unsafe availability pattern or an
overflow-flagged batch: every configuration goes through the Python
oracle, so delegated groups are bit-identical by construction.
"""

from __future__ import annotations

from typing import List

import numpy as np


def run_group(ctx, plan, configs) -> List:
    """Analyse one delegated group on the Python oracle.

    All *configs* share *plan*'s schedule key and DYN structure key (the
    caller groups them); returns one
    :class:`~repro.analysis.holistic.AnalysisResult` per configuration.
    """
    return [ctx._analyse_python(c) for c in configs]


def assemble_results(ctx, plan, arts, configs, W, conv, cap_max):
    """``AnalysisResult`` list from a solved ``(n_rows, L)`` W matrix.

    *W* is indexed ``[row, lane]`` and *conv* holds one convergence
    flag per lane; *cap_max* is the largest lane cap (the cost sums'
    overflow prebound).
    """
    from repro.analysis.holistic import AnalysisResult
    from repro.core.cost import cost_function

    # ``tolist`` hands back Python ints, so the assembled wcrt dicts
    # are type-identical to the Python path's (JSON-serialisable,
    # same reprs), not just value-equal.
    wcrt_cols = W[plan.wcrt_rows].T.tolist()
    names = plan.wcrt_names
    costs = batch_costs(ctx, plan, W, cap_max, len(configs))
    results = []
    for lane, config in enumerate(configs):
        wcrt = dict(zip(names, wcrt_cols[lane]))
        converged = bool(conv[lane])
        cost = (
            costs[lane]
            if costs is not None
            else cost_function(ctx.app, wcrt)
        )
        table = (
            arts.table
            if arts.table.config is config
            else arts.table.retime_for(config)
        )
        results.append(
            AnalysisResult(
                config=config,
                feasible=True,
                schedulable=cost.schedulable and converged,
                converged=converged,
                cost=cost,
                wcrt=wcrt,
                table=table,
            )
        )
    return results


def batch_costs(ctx, plan, W, cap_max, L):
    """Eq. (5) over all lanes at once, or ``None`` for the fallback.

    The sums are prebounded (every response time is <= its lane's
    cap, so each term is bounded by ``cap_max + |deadline|``) before
    trusting int64; the term order matches ``cost_function``'s
    iteration exactly, so the integer sums -- and hence the float
    conversions -- are identical.
    """
    from repro.analysis.backend.arrays import OVERFLOW_LIMIT
    from repro.core.cost import CostBreakdown

    if plan.cost_rows is None:
        return None
    n_terms = plan.cost_rows.size
    bound = (cap_max + plan.deadline_abs_max + 1) * (n_terms + 1)
    if bound >= OVERFLOW_LIMIT:
        return None
    diff = W[plan.cost_rows] - plan.deadlines[:, None]
    pos = diff > 0
    over = np.where(pos, diff, 0)
    f1 = over.sum(axis=0)
    f2 = diff.sum(axis=0)
    misses = pos.sum(axis=0)
    worst = over.max(axis=0, initial=0)
    costs = []
    for lane in range(L):
        lane_f1 = int(f1[lane])
        lane_f2 = int(f2[lane])
        if lane_f1 > 0:
            costs.append(
                CostBreakdown(
                    value=float(lane_f1),
                    schedulable=False,
                    misses=int(misses[lane]),
                    worst_violation=int(worst[lane]),
                    total_slack=-lane_f2,
                )
            )
        else:
            costs.append(
                CostBreakdown(
                    value=float(lane_f2),
                    schedulable=True,
                    misses=0,
                    worst_violation=0,
                    total_slack=-lane_f2,
                )
            )
    return costs
