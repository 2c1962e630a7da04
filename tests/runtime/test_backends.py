"""Tests of the pluggable ExecutionBackend layer.

Covers the registry (lookup, kinds, plugin registration), uniform
execution of every built-in backend through one request type, and the
cross-backend bridge: replaying a realized ``(S, L)`` trace through
the exact Definition 1 engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.replay import TraceReplayDelays, TraceReplaySteering
from repro.problems import make_jacobi_instance
from repro.runtime import backends as bk
from repro.runtime.simulator import (
    ChannelSpec,
    ConstantTime,
    ProcessorSpec,
    UniformTime,
)
from repro.scenarios import registry
from repro.steering.policies import CyclicSingle
from repro.delays.bounded import UniformRandomDelay


def _operator(n=8, seed=3):
    return make_jacobi_instance(n, dominance=0.5, seed=seed)


def _single_component_procs(n, **kwargs):
    return [
        ProcessorSpec(components=(c,), compute_time=UniformTime(0.5, 1.5), **kwargs)
        for c in range(n)
    ]


class TestRegistry:
    def test_builtins_registered(self):
        names = bk.available_backends()
        for name in ("exact", "flexible", "vectorized", "reference", "shared-memory"):
            assert name in names

    def test_registry_holds_only_spec_backends(self):
        assert set(bk.available_backends("model")) == {"exact", "flexible"}
        assert set(bk.available_backends("machine")) == {
            "vectorized", "reference", "shared-memory",
        }
        with pytest.raises(KeyError, match="unknown backend kind 'algorithm'"):
            bk.available_backends("algorithm")

    def test_kinds(self):
        assert bk.backend_kind("exact") == "model"
        assert bk.backend_kind("vectorized") == "machine"
        assert bk.backend_kind("shared-memory") == "machine"
        # The comparators run their own loops in repro.solvers.
        for name in ("arock", "dave-pg"):
            with pytest.raises(KeyError, match="unknown backend"):
                bk.backend_kind(name)

    def test_defaults(self):
        assert bk.default_backend("model") == "exact"
        assert bk.default_backend("machine") == "vectorized"
        with pytest.raises(KeyError, match="kind"):
            bk.default_backend("quantum")

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="unknown backend"):
            bk.get_backend("gpu")
        with pytest.raises(KeyError, match="kind"):
            bk.available_backends("warp")

    def test_register_validates(self):
        with pytest.raises(ValueError, match="kind"):
            @bk.register_backend
            class Bad(bk.ExecutionBackend):
                name = "bad"
                kind = "nope"

                def execute(self, request):  # pragma: no cover
                    raise NotImplementedError

    def test_plugin_roundtrip(self):
        @bk.register_backend
        class Echo(bk.ExecutionBackend):
            name = "test-echo"
            kind = "model"
            requires = ("operator",)

            def execute(self, request):
                return bk.BackendRunResult(
                    x=request.x0, trace=None, converged=True,
                    iterations=0, final_residual=0.0,
                )

        try:
            res = bk.get_backend("test-echo").execute(
                bk.ExecutionRequest(operator=_operator(), x0=np.zeros(8))
            )
            assert res.converged and res.iterations == 0
        finally:
            bk._REGISTRY.pop("test-echo", None)

    def test_missing_required_field(self):
        req = bk.ExecutionRequest(operator=_operator(), x0=np.zeros(8))
        with pytest.raises(ValueError, match="requires"):
            bk.get_backend("exact").execute(req)
        with pytest.raises(ValueError, match="requires"):
            bk.get_backend("vectorized").execute(req)


class TestModelBackends:
    def _request(self, op, **options):
        n = op.n_components
        return bk.ExecutionRequest(
            operator=op,
            x0=np.zeros(op.dim),
            max_iterations=2000,
            tol=1e-10,
            steering=CyclicSingle(n),
            delays=UniformRandomDelay(n, 3, seed=5),
            seed=7,
            options=options,
        )

    def test_exact_matches_direct_engine(self):
        from repro.core.async_iteration import AsyncIterationEngine

        op = _operator()
        res = bk.get_backend("exact").execute(self._request(op))
        direct = AsyncIterationEngine(
            op, CyclicSingle(op.n_components),
            UniformRandomDelay(op.n_components, 3, seed=5),
        ).run(np.zeros(op.dim), max_iterations=2000, tol=1e-10)
        assert np.array_equal(res.x, direct.x)
        assert res.converged == direct.converged
        assert res.iterations == direct.iterations
        assert res.final_time is None
        assert res.stats == {}

    def test_flexible_reports_constraint_stats(self):
        op = _operator()
        res = bk.get_backend("flexible").execute(self._request(op))
        assert res.converged
        assert res.stats["constraint_checks"] > 0
        assert "worst_constraint_ratio" in res.stats

    def test_model_backends_differ_only_in_partial_model(self):
        """Given labelled values, ``flexible`` runs ``exact``'s iteration;
        ``exact`` ignores a partial model in its options."""
        from repro.core.flexible import InterpolatedPartials, LabelledValues

        op = _operator()
        exact = bk.get_backend("exact").execute(self._request(op))
        flex = bk.get_backend("flexible").execute(
            self._request(op, partials=LabelledValues())
        )
        assert np.array_equal(flex.x, exact.x)
        assert np.array_equal(flex.trace.labels, exact.trace.labels)
        assert flex.stats["constraint_violations"] == 0
        ignored = bk.get_backend("exact").execute(
            self._request(op, partials=InterpolatedPartials(seed=1))
        )
        assert np.array_equal(ignored.x, exact.x)
        assert ignored.stats == {}


class TestMachineBackends:
    @pytest.mark.parametrize("name", ["vectorized", "reference"])
    def test_simulators_run_and_agree(self, name):
        op = _operator()
        procs = _single_component_procs(op.n_components)
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=400, tol=1e-9,
            processors=procs, channels=ChannelSpec(latency=ConstantTime(0.05)),
            seed=11,
        )
        res = bk.get_backend(name).execute(req)
        assert res.trace is not None and res.trace.n_iterations == res.iterations
        assert res.final_time is not None and res.final_time > 0
        assert "messages_sent" in res.stats
        assert "message_stats" in res.stats  # record_messages defaults on

    def test_vectorized_reference_bit_identical(self):
        op = _operator()

        def run(name):
            req = bk.ExecutionRequest(
                operator=op, x0=np.zeros(op.dim), max_iterations=300, tol=0.0,
                processors=_single_component_procs(op.n_components),
                channels=ChannelSpec(latency=UniformTime(0.01, 0.4), fifo=False),
                seed=2,
            )
            return bk.get_backend(name).execute(req)

        a, b = run("vectorized"), run("reference")
        assert np.array_equal(a.x, b.x)
        assert a.final_time == b.final_time
        assert np.array_equal(a.trace.labels, b.trace.labels)

    def test_shared_memory_runs_with_trace(self):
        op = _operator()
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=3000, tol=1e-9,
            processors=_single_component_procs(op.n_components), seed=0,
        )
        res = bk.get_backend("shared-memory").execute(req)
        assert res.stats["n_workers"] == op.n_components
        assert res.trace is not None
        assert res.trace.n_iterations == res.iterations
        report = res.trace.admissibility()
        assert report.condition_a  # labels never read the future
        assert res.final_time is not None  # wall-clock seconds

    def test_shared_memory_worker_options(self):
        op = _operator()
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=500, tol=0.0,
            options={"n_workers": 2, "record_trace": False},
        )
        res = bk.get_backend("shared-memory").execute(req)
        assert res.stats["n_workers"] == 2
        assert res.trace is None
        assert len(res.stats["updates_per_worker"]) == 2


class TestTraceReplay:
    """Replaying a realized (S, L) through the exact engine.

    When each processor owns one component and performs one inner step,
    the simulator's update semantics coincide with Definition 1, so the
    replay must reproduce the iterates bit-identically — on every
    channel regime, including loss and out-of-order overwrite.
    """

    CHANNELS = {
        "fifo": ChannelSpec(latency=ConstantTime(0.05)),
        "lossy": ChannelSpec(latency=UniformTime(0.01, 0.5), fifo=False, drop_prob=0.1),
        "overwrite": ChannelSpec(latency=UniformTime(0.01, 0.3), fifo=False, apply="overwrite"),
    }

    @pytest.mark.parametrize("regime", sorted(CHANNELS))
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_simulator_replay_bit_identical(self, regime, backend):
        op = _operator(n=10, seed=4)
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=250, tol=0.0,
            processors=_single_component_procs(op.n_components),
            channels=self.CHANNELS[regime], seed=21,
        )
        sim = bk.get_backend(backend).execute(req)
        rep = bk.replay_trace(op, sim.trace, np.zeros(op.dim))
        assert np.array_equal(rep.x, sim.x)
        assert np.array_equal(rep.trace.labels, sim.trace.labels)
        assert rep.trace.active_sets == sim.trace.active_sets

    def test_single_worker_shared_memory_replay_bit_identical(self):
        op = _operator()
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=300, tol=0.0,
            options={"n_workers": 1},
        )
        res = bk.get_backend("shared-memory").execute(req)
        rep = bk.replay_trace(op, res.trace, np.zeros(op.dim))
        assert np.array_equal(rep.x, res.x)

    def test_replay_models_validate_range(self):
        op = _operator()
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=50, tol=0.0,
            processors=_single_component_procs(op.n_components),
            channels=ChannelSpec(latency=ConstantTime(0.05)), seed=1,
        )
        trace = bk.get_backend("vectorized").execute(req).trace
        steering = TraceReplaySteering(trace)
        delays = TraceReplayDelays(trace)
        assert steering.n_iterations == trace.n_iterations
        assert delays.is_bounded()
        with pytest.raises(ValueError, match="cannot produce"):
            steering.active_set(trace.n_iterations + 1)
        with pytest.raises(ValueError, match="cannot produce"):
            delays.raw_delays(trace.n_iterations + 1)

    def test_replay_requires_model_backend(self):
        op = _operator()
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=50, tol=0.0,
            processors=_single_component_procs(op.n_components),
            channels=ChannelSpec(latency=ConstantTime(0.05)), seed=1,
        )
        trace = bk.get_backend("vectorized").execute(req).trace
        with pytest.raises(ValueError, match="model-kind"):
            bk.replay_trace(op, trace, np.zeros(op.dim), backend="vectorized")


class TestSolverBackendPlumbing:
    """Solvers delegate through the registry and expose the backend axis."""

    def test_async_solver_rejects_machine_backend(self, lasso_problem):
        from repro.solvers import AsyncSolver

        with pytest.raises(ValueError, match="kind"):
            AsyncSolver(seed=1, backend="vectorized").solve(
                lasso_problem, max_iterations=10
            )

    def test_solve_machine_run_identical_on_reference(self):
        import repro

        a = repro.solve("lasso", backend="vectorized", machine="flexible", seed=3)
        b = repro.solve("lasso", backend="reference", machine="flexible", seed=3)
        assert np.array_equal(a.x, b.x)
        assert a.iterations == b.iterations
        assert a.sim_time == b.sim_time

    def test_fleet_scenario_runs_every_machine_backend(self):
        from repro.runtime.fleet import run_scenario
        from repro.scenarios import ScenarioSpec

        for backend in bk.available_backends("machine"):
            spec = ScenarioSpec(
                problem="jacobi", problem_params={"n": 8}, kind="simulator",
                machine="uniform", backend=backend, seed=3,
                max_iterations=2000, tol=1e-8,
            )
            r = run_scenario(spec)
            assert r.error is None, (backend, r.error)
            assert r.iterations > 0
            assert r.sim_time is not None

    def test_fleet_scenario_runs_every_model_backend(self):
        from repro.runtime.fleet import run_scenario
        from repro.scenarios import ScenarioSpec

        for backend in bk.available_backends("model"):
            spec = ScenarioSpec(
                problem="jacobi", problem_params={"n": 8}, kind="engine",
                delays="uniform", steering="cyclic", backend=backend, seed=3,
                max_iterations=2000, tol=1e-8,
            )
            r = run_scenario(spec)
            assert r.error is None, (backend, r.error)
            assert r.converged


class TestMachineRegistryIntegration:
    def test_machine_archetype_feeds_shared_memory(self):
        op = registry.make_problem("jacobi", 5, n=12)
        procs, channels = registry.make_machine("uniform", 12, 9, n_processors=3)
        req = bk.ExecutionRequest(
            operator=op, x0=np.zeros(op.dim), max_iterations=2000, tol=1e-8,
            processors=procs, channels=channels, seed=1,
        )
        res = bk.get_backend("shared-memory").execute(req)
        assert res.stats["n_workers"] == 3
