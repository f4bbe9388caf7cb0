"""Unit tests for the DYN-length search strategies (Fig. 8)."""

from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis.holistic import AnalysisResult
from repro.core.bbc import basic_configuration
from repro.core.cost import cost_function
from repro.core.curvefit import NewtonInterpolator, NewtonTable
from repro.core.dynlen import (
    WCRT_CAP,
    _score_candidates,
    activity_deadlines,
    cf_seed_lengths,
    curvefit_dyn_length,
    curvefit_proposals,
    exhaustive_dyn_length,
)
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    dyn_segment_bounds,
    sweep_lengths,
)
from repro.errors import AnalysisError

from tests.util import fig4_system


@pytest.fixture
def setup():
    system = fig4_system()
    options = BusOptimisationOptions()
    evaluator = Evaluator(system, options)
    template = basic_configuration(system, n_minislots=20, options=options)
    lo, hi = dyn_segment_bounds(system, template.st_bus, options)
    return system, evaluator, template, lo, hi


class TestExhaustive:
    def test_finds_best_over_grid(self, setup):
        _, evaluator, template, lo, hi = setup
        best = exhaustive_dyn_length(evaluator, template, lo, hi, max_points=64)
        assert best is not None and best.feasible
        # it must be the minimum over everything analysed
        costs = [p.cost for p in evaluator.trace]
        assert best.cost_value == min(costs)

    def test_respects_point_budget(self, setup):
        _, evaluator, template, lo, hi = setup
        exhaustive_dyn_length(evaluator, template, lo, hi, max_points=9)
        assert evaluator.evaluations <= 9

    def test_empty_range(self, setup):
        _, evaluator, template, lo, hi = setup
        assert exhaustive_dyn_length(evaluator, template, 10, 9) is None


class TestCurveFit:
    def test_finds_schedulable_solution(self, setup):
        _, evaluator, template, lo, hi = setup
        best = curvefit_dyn_length(evaluator, template, lo, hi)
        assert best is not None
        assert best.schedulable

    def test_uses_fewer_analyses_than_exhaustive(self, setup):
        system, _, template, lo, hi = setup
        options = BusOptimisationOptions()
        ev_cf = Evaluator(system, options)
        curvefit_dyn_length(ev_cf, template, lo, hi)
        ev_ee = Evaluator(system, options)
        exhaustive_dyn_length(ev_ee, template, lo, hi)
        assert ev_cf.evaluations < ev_ee.evaluations

    def test_respects_point_cap(self, setup):
        system, _, template, lo, hi = setup
        options = BusOptimisationOptions(cf_max_points=7, initial_cf_points=3)
        evaluator = Evaluator(system, options)
        curvefit_dyn_length(evaluator, template, lo, hi)
        assert evaluator.evaluations <= 7

    def test_empty_range_returns_none(self, setup):
        _, evaluator, template, _, __ = setup
        assert curvefit_dyn_length(evaluator, template, 10, 9) is None

    def test_interpolation_estimates_recorded(self, setup):
        system, _, template, lo, hi = setup
        # Force the heuristic past the seed phase by starting from a
        # range whose seeds are unschedulable (very short segments are
        # infeasible for the 9-minislot frame, long ones cost more).
        options = BusOptimisationOptions(
            initial_cf_points=3, stop_when_schedulable=False
        )
        evaluator = Evaluator(system, options)
        curvefit_dyn_length(evaluator, template, lo, hi)
        kinds = {p.exact for p in evaluator.trace}
        assert True in kinds


class TestBatchedSeedPoints:
    def test_seed_points_go_through_analyse_many(self, setup):
        """The OBC/CF seed set is analysed as one batch: warming the
        evaluator cache with exactly the seed configurations makes the
        seed phase free, and the outcome is unchanged."""
        from repro.core.curvefit import spread_points

        system, _, template, lo, hi = setup
        options = BusOptimisationOptions()

        plain = Evaluator(system, options)
        expected = curvefit_dyn_length(plain, template, lo, hi)

        warmed = Evaluator(system, options)
        seeds = [
            template.with_dyn_length(n)
            for n in spread_points(lo, hi, options.initial_cf_points)
        ]
        warmed.analyse_many(seeds)
        primed_evals = warmed.evaluations
        result = curvefit_dyn_length(warmed, template, lo, hi)
        assert result.config.cache_key() == expected.config.cache_key()
        assert result.cost_value == expected.cost_value
        # every seed analysis of the CF run hit the warmed cache
        assert warmed.cache_hits >= len(seeds)
        assert warmed.evaluations - primed_evals == (
            plain.evaluations - len(seeds)
        )


# ----------------------------------------------------------------------
# candidate scoring: the shared-node table against per-activity Newton
# ----------------------------------------------------------------------
def reference_score(system, template, candidates, exact):
    """Score candidates with one :class:`NewtonInterpolator` per activity,
    a response-time map per candidate and :func:`cost_function` -- the
    scorer the shared-node table replaced, kept here as its oracle."""
    interpolators = {}
    for n, result in exact.items():
        if result.feasible:
            for name, r in result.wcrt.items():
                interpolators.setdefault(name, NewtonInterpolator()).add_point(
                    n, r
                )
    scored, estimates = [], []
    can_interpolate = interpolators and min(
        len(ip) for ip in interpolators.values()
    ) >= 2
    for n in candidates:
        if n in exact:
            scored.append((exact[n].cost_value, n))
            continue
        if not can_interpolate:
            continue
        wcrt = {
            name: min(WCRT_CAP, max(0, round(ip(n))))
            for name, ip in interpolators.items()
        }
        cost = cost_function(system.application, wcrt).value
        estimates.append((template.with_dyn_length(n), cost))
        scored.append((cost, n))
    scored.sort(key=lambda pair: (pair[0], pair[1]))
    return scored, estimates


def _feasible(system, config, wcrt):
    cost = cost_function(system.application, wcrt)
    return AnalysisResult(
        config=config,
        feasible=True,
        schedulable=cost.schedulable,
        converged=True,
        cost=cost,
        wcrt=wcrt,
        table=None,
    )


def _infeasible(config):
    return AnalysisResult(
        config=config,
        feasible=False,
        schedulable=False,
        converged=False,
        cost=None,
        wcrt={},
        table=None,
        failure="forced infeasible",
    )


def _table_of(names, exact):
    table = NewtonTable(len(names))
    for n, result in exact.items():
        if result.feasible:
            table.add_point(n, [result.wcrt[name] for name in names])
    return table


SCORING_SYSTEM = fig4_system()
SCORING_TEMPLATE = basic_configuration(
    SCORING_SYSTEM, n_minislots=20, options=BusOptimisationOptions()
)
LENGTHS = st.integers(min_value=3, max_value=300)  # FrameIDs reach 3


@st.composite
def scoring_rounds(draw):
    """Exact points and a candidate list for one scoring round."""
    names, _ = activity_deadlines(SCORING_SYSTEM.application)
    nodes = draw(st.lists(LENGTHS, min_size=2, max_size=24, unique=True))
    # Up to 10**9 makes a high-degree polynomial overshoot WCRT_CAP and
    # undershoot 0 between nodes; flat data makes every candidate tie.
    top = draw(st.sampled_from([50, 10**4, 10**9]))
    flat = draw(st.booleans())
    values = [draw(st.integers(0, top)) for _ in names]
    exact = {}
    for n in nodes:
        if not flat:
            values = [draw(st.integers(0, top)) for _ in names]
        config = SCORING_TEMPLATE.with_dyn_length(n)
        exact[n] = _feasible(SCORING_SYSTEM, config, dict(zip(names, values)))
    for n in draw(st.lists(LENGTHS, max_size=3, unique=True)):
        if n not in exact:
            exact[n] = _infeasible(SCORING_TEMPLATE.with_dyn_length(n))
    candidates = draw(st.lists(LENGTHS, min_size=1, max_size=48, unique=True))
    # Candidates that are already exact points, in any position.
    candidates += draw(st.lists(st.sampled_from(sorted(exact)), max_size=4))
    candidates = draw(st.permutations(candidates))
    return exact, candidates, flat


class TestScoring:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    @given(scoring_rounds())
    def test_table_scorer_matches_per_activity_reference(self, round_):
        exact, candidates, flat = round_
        names, deadlines = activity_deadlines(SCORING_SYSTEM.application)
        scored, estimates = _score_candidates(
            candidates,
            exact,
            _table_of(names, exact),
            deadlines,
            SCORING_TEMPLATE.with_dyn_length,
        )
        expected = reference_score(
            SCORING_SYSTEM, SCORING_TEMPLATE, candidates, exact
        )
        assert (scored, estimates) == expected
        if flat:
            # Every finite cost ties, so the length breaks each tie.
            finite = [(cost, n) for cost, n in scored if cost != float("inf")]
            assert len({cost for cost, _ in finite}) <= 1
            assert [n for _, n in finite] == sorted(n for _, n in finite)

    def test_clamps_reach_both_bounds(self):
        """Wildly oscillating data clamps some estimates to 0 and some to
        WCRT_CAP, exactly as the per-activity reference does."""
        names, deadlines = activity_deadlines(SCORING_SYSTEM.application)
        exact = {}
        for i, n in enumerate(range(10, 130, 10)):
            wcrt = {name: (10**9 if i % 2 else 0) for name in names}
            exact[n] = _feasible(
                SCORING_SYSTEM, SCORING_TEMPLATE.with_dyn_length(n), wcrt
            )
        candidates = list(range(3, 140))
        table = _table_of(names, exact)
        values = [v for n in candidates if n not in exact for v in table(n)]
        assert min(values) < 0 and max(values) > WCRT_CAP
        got = _score_candidates(
            candidates,
            exact,
            table,
            deadlines,
            SCORING_TEMPLATE.with_dyn_length,
        )
        assert got == reference_score(
            SCORING_SYSTEM, SCORING_TEMPLATE, candidates, exact
        )


def _drive(system, options, template, lo, hi, analyse):
    """Run curvefit_proposals with *analyse* as the exact analysis;
    returns the estimate batches and the exact points in analysis order."""
    gen = curvefit_proposals(system, options, template, lo, hi)
    exact, estimate_rounds = {}, []
    results = None
    while True:
        try:
            batch = gen.send(results)
        except StopIteration:
            return estimate_rounds, exact
        if batch.estimates:
            estimate_rounds.append((dict(exact), list(batch.estimates)))
        results = [analyse(config) for config in batch.configs]
        for config, result in zip(batch.configs, results):
            exact[config.n_minislots] = result


class TestExactPointCoverage:
    def test_infeasible_point_adds_no_node(self):
        """An infeasible exact point has no response times: it adds no
        interpolation node, and every later round scores exactly as the
        per-activity reference built from the feasible points alone."""
        # A deadline no length meets keeps the search going for rounds.
        system = fig4_system(deadline=25)
        options = BusOptimisationOptions(
            initial_cf_points=4, stop_when_schedulable=False
        )
        evaluator = Evaluator(system, options)
        template = basic_configuration(system, n_minislots=20, options=options)
        lo, hi = dyn_segment_bounds(system, template.st_bus, options)
        dead = cf_seed_lengths(lo, hi, options)[0]

        def analyse(config):
            if config.n_minislots == dead:
                return _infeasible(config)
            return evaluator.analyse(config)

        rounds, exact = _drive(system, options, template, lo, hi, analyse)
        assert not exact[dead].feasible
        assert len(rounds) > 1
        candidates = sweep_lengths(lo, hi, options.cf_candidates)
        for before, estimates in rounds:
            _, expected = reference_score(system, template, candidates, before)
            assert estimates == expected
            assert dead not in {config.n_minislots for config, _ in estimates}

    def test_feasible_point_missing_an_activity_is_an_error(self, setup):
        system, evaluator, template, lo, hi = setup
        options = BusOptimisationOptions(stop_when_schedulable=False)

        def analyse(config):
            result = evaluator.analyse(config)
            wcrt = dict(result.wcrt)
            wcrt.pop("m2")
            return replace(result, wcrt=wcrt)

        with pytest.raises(AnalysisError, match="'m2'"):
            _drive(system, options, template, lo, hi, analyse)
