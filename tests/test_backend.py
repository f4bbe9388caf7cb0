"""The compiled backend contract: bit identity, verify mode, the extra.

``AnalysisOptions.backend="native"`` lowers each system's invariants
into packed int64 plans once per group and runs every candidate's
holistic fix point inside the compiled ``repro._native`` C extension
(:mod:`repro.analysis.backend`).  Its *entire* contract is "same
answers, faster": these tests pin bit identity with the Python oracle
at every observable level -- full analysis results over fuzzed systems
(including fault hypotheses ``k in {0, 1, 2}``) and every
``warm_start`` x ``dominance`` mode, the delegation of unsafe groups to
the oracle, the ``"verify"`` cross-check counter, optimiser traces with
their evaluation and cache-hit accounting, and the pre-refactor legacy
trace fixtures byte-for-byte -- plus the packaging contract: the
backend is the optional ``repro[native]`` extra, selecting it without
the extra is an eager, actionable ``RuntimeError``, numpy is loaded
only on the native path, stored documents naming the retired
``"numpy"`` backend stay readable, and the native tests *skip* (not
fail) on an interpreter without the extension (they carry the
``native`` pytest marker for CI selection).
"""

import json
import os
import subprocess
import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisContext
from repro.analysis.backend import (
    BACKEND_MODES,
    BACKEND_REGISTRY,
    native_or_none,
    numpy_or_none,
)
from repro.analysis.holistic import (
    AnalysisOptions,
    DOMINANCE_MODES,
    WARM_START_MODES,
)
from repro.core import optimise_bbc, optimise_obc
from repro.core.bbc import basic_configuration
from repro.core.campaign import (
    _options_fingerprint,
    campaign_matrix,
    run_campaign,
)
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.core.strategies import StrategyOptions
from repro.errors import ConfigurationError
from repro.io.serialization import (
    analysis_options_from_dict,
    analysis_result_to_dict,
    bus_options_from_dict,
    bus_options_to_dict,
    result_to_dict,
)
from repro.model import (
    Application,
    Message,
    MessageKind,
    SchedulingPolicy,
    System,
    Task,
    TaskGraph,
)

from tests.fixtures.legacy_cases import LEGACY_CASES
from tests.test_properties import small_system
from tests.util import fig3_system, fig4_system

requires_native = pytest.mark.skipif(
    native_or_none() is None or numpy_or_none() is None,
    reason="native backend tests need the compiled repro[native] extra",
)


def _sweep_configs(system, points, options=None):
    """A DYN-length sweep of ``points`` basic configurations."""
    options = options or BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    return [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]


def _result_docs(results):
    """Full serialized results (tables dropped) -- deep-compare safe."""
    return [analysis_result_to_dict(r) for r in results]


# ----------------------------------------------------------------------
# numpy: an optional dependency of the native path only
# ----------------------------------------------------------------------
class TestNumpyExtra:
    def test_python_backend_needs_no_numpy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert numpy_or_none() is None
        system = fig3_system()
        context = AnalysisContext(system, AnalysisOptions(backend="python"))
        result = context.analyse(_sweep_configs(system, 1)[0])
        assert result.feasible

    def test_unknown_backend_rejected(self):
        """Unknown names -- including the retired ``"numpy"`` backend --
        are rejected with the registry's list of choices."""
        assert BACKEND_MODES == ("python", "native", "verify")
        for backend in ("cuda", "numpy"):
            with pytest.raises(ConfigurationError) as exc:
                AnalysisContext(
                    fig3_system(), AnalysisOptions(backend=backend)
                )
            for name in BACKEND_REGISTRY:
                assert f'"{name}"' in str(exc.value)

    def test_library_import_loads_no_numpy(self):
        """numpy is imported on the native path only: importing the
        library, the CLI (parser and ``--backend`` help included) and the
        fabric, and analysing on the Python backend, leave it unloaded."""
        code = (
            "import sys\n"
            "import repro.cli, repro.core, repro.core.fabric\n"
            "from repro.analysis import analyse_system\n"
            "from tests.util import basic_config, fig3_system\n"
            "repro.cli.build_parser().format_help()\n"
            "assert analyse_system(fig3_system(), basic_config()).feasible\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# the repro[native] extra
# ----------------------------------------------------------------------
class TestNativeExtra:
    def test_native_backend_without_extension_is_actionable(
        self, monkeypatch
    ):
        """Selecting the compiled backend (or ``"verify"``, which
        cross-checks it) on a build that never produced the extension
        fails eagerly -- at context construction -- with an error naming
        the ``repro[native]`` extra."""
        monkeypatch.setattr("repro.analysis.backend._native_module", None)
        for backend in ("native", "verify"):
            with pytest.raises(RuntimeError) as exc:
                AnalysisContext(
                    fig3_system(), AnalysisOptions(backend=backend)
                )
            assert "repro[native]" in str(exc.value)
            assert "pip install" in str(exc.value)

    @requires_native
    def test_native_backend_without_numpy_is_actionable(self, monkeypatch):
        """The native shim stages plans and buffers via numpy, so the
        extension alone is not enough: a numpy-less interpreter gets an
        error naming numpy and the extra, still eagerly -- for
        ``"verify"`` too, which cross-checks the native kernels."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        for backend in ("native", "verify"):
            with pytest.raises(RuntimeError) as exc:
                AnalysisContext(
                    fig3_system(), AnalysisOptions(backend=backend)
                )
            assert "numpy" in str(exc.value)
            assert "repro[native]" in str(exc.value)


# ----------------------------------------------------------------------
# bit identity with the Python oracle
# ----------------------------------------------------------------------
@requires_native
@pytest.mark.native
class TestNativeBitIdentity:
    """The compiled backend against the Python oracle.

    Fuzzed systems (with fault hypotheses), every mode combination, the
    delegation of unsafe groups, and the verify counter.
    """

    @given(small_system(), st.integers(3, 9), st.sampled_from((0, 1, 2)))
    @settings(max_examples=25, deadline=None)
    def test_native_matches_python_on_random_systems(
        self, system, points, fault_k
    ):
        configs = _sweep_configs(system, points)
        python = AnalysisContext(
            system, AnalysisOptions(fault_hypothesis=fault_k)
        ).analyse_batch(configs)
        native = AnalysisContext(
            system,
            AnalysisOptions(backend="native", fault_hypothesis=fault_k),
        ).analyse_batch(configs)
        assert _result_docs(native) == _result_docs(python)

    @pytest.mark.parametrize("warm_start", WARM_START_MODES)
    @pytest.mark.parametrize("dominance", DOMINANCE_MODES)
    def test_native_matches_python_in_every_mode(self, warm_start, dominance):
        """Oracle/debug modes route the native backend onto the Python
        path by design; certified modes run the C kernels -- either way
        the answers are identical and the divergence counters stay 0."""
        system = fig4_system()
        configs = _sweep_configs(system, 6)
        results = {}
        for backend in ("python", "native"):
            options = AnalysisOptions(
                backend=backend, warm_start=warm_start, dominance=dominance
            )
            context = AnalysisContext(system, options)
            results[backend] = context.analyse_batch(configs)
            assert context.warm_start_divergences == 0
            assert context.dominance_divergences == 0
        assert _result_docs(results["native"]) == _result_docs(
            results["python"]
        )

    def test_delegated_groups_match_python(self, monkeypatch):
        """A batch that fails the shim's overflow gate is delegated
        wholesale to the Python oracle (``kernels.run_group``): forcing
        the gate shut on every batch must give the oracle's results --
        under a fault hypothesis too -- without ever entering C."""
        import repro.analysis.backend.kernels as kernels
        import repro.analysis.backend.native as native_shim

        delegated = []
        run_group = kernels.run_group

        def counting_run_group(ctx, plan, configs):
            delegated.append(len(configs))
            return run_group(ctx, plan, configs)

        def no_kernel(*args):
            raise AssertionError("the C kernel ran on a delegated batch")

        monkeypatch.setattr(
            native_shim, "_batch_overflow_safe", lambda *args: False
        )
        monkeypatch.setattr(kernels, "run_group", counting_run_group)
        monkeypatch.setattr(native_or_none(), "run_batch", no_kernel)
        system = fig4_system()
        configs = _sweep_configs(system, 8)
        for fault_k in (None, 2):
            python = AnalysisContext(
                system, AnalysisOptions(fault_hypothesis=fault_k)
            ).analyse_batch(configs)
            native = AnalysisContext(
                system,
                AnalysisOptions(backend="native", fault_hypothesis=fault_k),
            ).analyse_batch(configs)
            assert _result_docs(native) == _result_docs(python)
        assert sum(delegated) == 2 * sum(r.feasible for r in python)

    def test_verify_mode_cross_checks_native_with_zero_divergences(self):
        """``backend="verify"`` compares the Python oracle against the
        native kernels per analysis; the counter is contractually
        zero."""
        system = fig4_system()
        configs = _sweep_configs(system, 8)
        context = AnalysisContext(system, AnalysisOptions(backend="verify"))
        verified = context.analyse_batch(configs)
        assert context.backend_divergences == 0
        python = AnalysisContext(system).analyse_batch(configs)
        assert _result_docs(verified) == _result_docs(python)


# ----------------------------------------------------------------------
# optimiser-level identity: traces, evaluations, cache hits
# ----------------------------------------------------------------------
def _native_bus(**kw) -> BusOptimisationOptions:
    return BusOptimisationOptions(
        analysis=AnalysisOptions(backend="native"), **kw
    )


def test_optimiser_trace_and_cache_accounting_identical():
    """A full search run is byte-identical across backends: same trace
    (points and estimates, in order), same exact-evaluation count, same
    cache-hit count, same best configuration and cost -- on every
    registered backend this interpreter can run (``"native"`` and
    ``"verify"`` need the compiled extension)."""
    system = fig4_system()
    oracle = result_to_dict(optimise_obc(system, method="curvefit"))
    oracle["elapsed_seconds"] = 0.0
    for backend, spec in BACKEND_REGISTRY.items():
        if not spec["available"]():
            continue
        bus = BusOptimisationOptions(
            analysis=AnalysisOptions(backend=backend)
        )
        got = result_to_dict(optimise_obc(system, bus, method="curvefit"))
        got["elapsed_seconds"] = 0.0
        assert got == oracle, f"{backend}: optimiser run diverged"


def _legacy_fixture(case_id: str) -> dict:
    path = os.path.join(
        os.path.dirname(__file__), "fixtures", "legacy_traces",
        f"{case_id}.json",
    )
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _legacy_backend_cases(backend):
    """Legacy cases re-run on another backend: every strategy
    that takes plain ``BusOptimisationOptions`` (SA/GA ride the same
    evaluator, and are covered at the pinned-options level by
    test_legacy_equivalence)."""

    def bus(**kw):
        return BusOptimisationOptions(
            analysis=AnalysisOptions(backend=backend), **kw
        )

    def small_bus(**kw):
        # The legacy-case ``_small_bus`` budgets on this backend.
        return bus(
            ee_max_dyn_points=48,
            cf_candidates=64,
            max_extra_static_slots=1,
            max_slot_size_steps=1,
            **kw,
        )

    return (
        ("bbc_fig3", lambda: optimise_bbc(fig3_system(), bus())),
        ("bbc_fig4", lambda: optimise_bbc(fig4_system(), bus())),
        (
            "obc_cf_fig4",
            lambda: optimise_obc(fig4_system(), bus(), "curvefit"),
        ),
        (
            "obc_ee_paper3",
            lambda: _paper3_case(small_bus(), "exhaustive"),
        ),
        (
            "obc_ee_paper3_chunked",
            lambda: _paper3_case(small_bus(obc_chunk_size=3), "exhaustive"),
        ),
    )


NATIVE_LEGACY_CASES = _legacy_backend_cases("native")


def _paper3_case(bus, method):
    from repro.synth import paper_suite

    return optimise_obc(paper_suite(3, count=1, seed=23)[0], bus, method)


@requires_native
@pytest.mark.native
@pytest.mark.parametrize(
    "case_id,run",
    NATIVE_LEGACY_CASES,
    ids=[c[0] for c in NATIVE_LEGACY_CASES],
)
def test_legacy_traces_identical_under_native_backend(case_id, run):
    """The same pre-refactor oracle fixtures, byte-for-byte on the
    compiled backend -- trace order, evaluation counts, cache hits."""
    expected = _legacy_fixture(case_id)
    got = result_to_dict(run())
    got["elapsed_seconds"] = 0.0
    expected.setdefault("stop_reason", None)
    assert got["trace"] == expected["trace"], (
        f"{case_id}: native-backend search trace diverged from the oracle"
    )
    assert got == expected


# ----------------------------------------------------------------------
# campaign resume across backends
# ----------------------------------------------------------------------
def test_backend_excluded_from_campaign_fingerprint():
    """The options fingerprint normalises the backend out, exactly like
    ``parallel_workers``: both knobs are pinned result-identical, so a
    checkpoint must survive a backend change."""
    base = StrategyOptions()
    digests = {
        _options_fingerprint(
            base.with_bus(
                BusOptimisationOptions(
                    analysis=AnalysisOptions(backend=backend)
                )
            )
        )
        for backend in BACKEND_MODES
    }
    digests.add(_options_fingerprint(base))
    assert len(digests) == 1
    # ...while result-affecting analysis knobs still invalidate.
    changed = base.with_bus(
        BusOptimisationOptions(
            analysis=AnalysisOptions(dyn_fill_strategy="exact")
        )
    )
    assert _options_fingerprint(changed) not in digests


def test_campaign_resumes_across_backends(tmp_path):
    """A campaign whose stored options name the retired ``"numpy"``
    backend -- a fabric manifest's evaluator preset written before the
    backend was removed -- decodes to ``"python"`` and resumes its
    checkpoints job for job, nothing re-run."""
    systems = {"fig4": fig4_system(), "fig3": fig3_system()}
    cold = run_campaign(
        systems,
        campaign_matrix(systems, ["bbc"]),
        checkpoint_dir=str(tmp_path),
    )
    assert len(cold.executed) == 2

    stored = bus_options_to_dict(BusOptimisationOptions())
    stored["analysis"]["backend"] = "numpy"
    bus = bus_options_from_dict(stored)
    assert bus.analysis.backend == "python"
    assert analysis_options_from_dict({"backend": "numpy"}) == (
        AnalysisOptions()
    )
    resumed = run_campaign(
        systems,
        campaign_matrix(systems, ["bbc"], bus=bus),
        checkpoint_dir=str(tmp_path),
    )
    assert sorted(resumed.resumed) == sorted(cold.executed)
    assert not resumed.executed
    for job_id, result in cold.results.items():
        assert result_to_dict(resumed.results[job_id]) == result_to_dict(
            result
        )
    assert (
        result_to_dict(resumed.results["fig4__bbc"])
        == result_to_dict(cold.results["fig4__bbc"])
    )


@requires_native
@pytest.mark.native
def test_campaign_resumes_across_backends_including_native(tmp_path):
    """A checkpoint written under the Python backend resumes untouched
    when re-issued on the compiled backend -- the fingerprint treats
    ``"native"`` exactly like the other result-identical modes."""
    systems = {"fig4": fig4_system()}
    cold = run_campaign(
        systems, campaign_matrix(systems, ["bbc"]),
        checkpoint_dir=str(tmp_path),
    )
    assert len(cold.executed) == 1

    native_jobs = campaign_matrix(systems, ["bbc"], bus=_native_bus())
    resumed = run_campaign(
        systems, native_jobs, checkpoint_dir=str(tmp_path)
    )
    assert len(resumed.resumed) == 1 and not resumed.executed
    assert (
        result_to_dict(resumed.results["fig4__bbc"])
        == result_to_dict(cold.results["fig4__bbc"])
    )


# ----------------------------------------------------------------------
# perf smoke (tier-1): identity plus a lenient speed floor
# ----------------------------------------------------------------------
def _dyn_only_smoke_system() -> System:
    """A 3-node, DYN-only application: the whole length sweep shares one
    schedule key, so the native backend runs it as a single group."""
    def chain(prefix, length, period):
        tasks, msgs = [], []
        for i in range(length):
            tasks.append(
                Task(
                    f"{prefix}{i}",
                    wcet=7 + i,
                    node=f"N{(i % 3) + 1}",
                    policy=SchedulingPolicy.FPS,
                    priority=i,
                )
            )
        for i in range(length - 1):
            msgs.append(
                Message(
                    f"{prefix}m{i}",
                    size=4 + i,
                    sender=f"{prefix}{i}",
                    receivers=(f"{prefix}{i + 1}",),
                    kind=MessageKind.DYN,
                    priority=i,
                )
            )
        return TaskGraph(
            name=prefix, period=period, deadline=period,
            tasks=tuple(tasks), messages=tuple(msgs),
        )

    graphs = tuple(
        chain(f"g{k}_", 4, period)
        for k, period in enumerate((200, 400, 400, 800))
    )
    return System(("N1", "N2", "N3"), Application("smoke", graphs))


@requires_native
@pytest.mark.native
@pytest.mark.perf_smoke
def test_native_backend_smoke_identical_and_not_slower():
    """<10s tier-1 smoke of the compiled sweep: bit identity on a
    96-point DYN-only sweep, and the native batch beats the warm Python
    loop.  The floor here is deliberately loose (1.2x) -- wall-clock
    asserts on shared machines must not flake; the real claims live in
    ``BENCH_incremental_analysis.json``."""
    system = _dyn_only_smoke_system()
    configs = _sweep_configs(
        system, 96, BusOptimisationOptions(ee_max_dyn_points=96)
    )

    python_ctx = AnalysisContext(system)
    t0 = time.perf_counter()
    python_results = python_ctx.analyse_batch(configs)
    python_s = time.perf_counter() - t0

    native_ctx = AnalysisContext(system, AnalysisOptions(backend="native"))
    t0 = time.perf_counter()
    native_results = native_ctx.analyse_batch(configs)
    native_s = time.perf_counter() - t0

    assert _result_docs(native_results) == _result_docs(python_results)
    assert native_s < 10.0
    assert python_s / native_s >= 1.2, (
        f"native backend smoke ratio {python_s / native_s:.2f}x "
        f"(python {python_s:.3f}s vs native {native_s:.3f}s)"
    )
