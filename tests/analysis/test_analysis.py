"""Tests for rates, comparisons and reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.comparison import compare_macro_epoch, speedup
from repro.analysis.rates import (
    fit_geometric_rate,
    iterations_to_tolerance,
    time_to_tolerance,
)
from repro.analysis.reporting import render_schedule, render_series, render_table
from repro.core.async_iteration import AsyncIterationEngine
from repro.delays.bounded import UniformRandomDelay
from repro.delays.outoforder import ShuffledWindowDelay
from repro.problems import make_jacobi_instance
from repro.runtime.simulator import (
    ChannelSpec,
    ConstantTime,
    DistributedSimulator,
    ProcessorSpec,
    UniformTime,
)
from repro.steering.policies import RandomSubset


class TestRateFit:
    def test_exact_geometric_recovered(self):
        series = 3.0 * 0.8 ** np.arange(50)
        fit = fit_geometric_rate(series)
        assert fit.rate == pytest.approx(0.8, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert np.exp(fit.log_intercept) == pytest.approx(3.0, rel=1e-9)

    def test_skip_transient(self):
        series = np.concatenate([np.full(10, 7.0), 0.5 ** np.arange(40)])
        fit = fit_geometric_rate(series, skip=10)
        assert fit.rate == pytest.approx(0.5, abs=1e-6)

    def test_half_life(self):
        fit = fit_geometric_rate(0.5 ** np.arange(20))
        assert fit.half_life() == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_entries_skipped(self):
        series = np.array([1.0, 0.0, 0.25, -1.0, 0.0625])
        fit = fit_geometric_rate(series)
        assert fit.n_points == 3

    def test_too_few_points_nan(self):
        fit = fit_geometric_rate(np.array([1.0]))
        assert np.isnan(fit.rate)
        assert fit.half_life() == float("inf") or np.isnan(fit.rate)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            fit_geometric_rate(np.zeros((2, 2)))


class TestIterationsToTolerance:
    def test_monotone_series(self):
        series = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
        assert iterations_to_tolerance(series, 0.6) == 3

    def test_non_monotone_requires_staying_below(self):
        series = np.array([4.0, 0.1, 5.0, 0.1, 0.05])
        assert iterations_to_tolerance(series, 0.5) == 3

    def test_never_reached(self):
        assert iterations_to_tolerance(np.array([1.0, 0.9]), 0.5) is None

    def test_immediately_below(self):
        assert iterations_to_tolerance(np.array([0.1, 0.01]), 0.5) == 0

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            iterations_to_tolerance(np.array([1.0]), 0.0)

    def test_time_to_tolerance(self):
        series = np.array([4.0, 2.0, 0.1])
        times = np.array([1.5, 3.0])
        assert time_to_tolerance(series, times, 0.5) == 3.0

    def test_time_zero_when_initially_below(self):
        series = np.array([0.1, 0.01])
        assert time_to_tolerance(series, np.array([1.0]), 1.0) == 0.0

    def test_time_shape_mismatch(self):
        with pytest.raises(ValueError):
            time_to_tolerance(np.array([1.0, 0.1]), np.array([1.0, 2.0]), 0.5)


class TestSpeedup:
    def test_report(self):
        base_s = np.array([1.0, 0.5, 0.01])
        base_t = np.array([1.0, 2.0])
        cand_s = np.array([1.0, 0.01])
        cand_t = np.array([0.5])
        rep = speedup(base_s, base_t, cand_s, cand_t, tol=0.1)
        assert rep.baseline_time == 2.0
        assert rep.candidate_time == 0.5
        assert rep.speedup == 4.0

    def test_unreached_candidate(self):
        rep = speedup(
            np.array([1.0, 0.01]),
            np.array([1.0]),
            np.array([1.0, 0.9]),
            np.array([1.0]),
            tol=0.1,
        )
        assert rep.candidate_time == float("inf")


class TestMacroEpochComparison:
    def test_in_order_trace(self, small_jacobi):
        n = small_jacobi.n_components
        engine = AsyncIterationEngine(
            small_jacobi, RandomSubset(n, 0.5, seed=1), UniformRandomDelay(n, 2, seed=2)
        )
        res = engine.run(np.zeros(n), max_iterations=500, tol=0.0)
        cmp = compare_macro_epoch(res.trace)
        assert cmp.macro.count > 0
        assert cmp.epochs.count > 0

    def test_out_of_order_reduces_macro_per_epoch(self, small_jacobi):
        n = small_jacobi.n_components
        runs = {}
        for name, delays in [
            ("fresh", UniformRandomDelay(n, 1, seed=3)),
            ("ooo", ShuffledWindowDelay(n, 30, seed=4)),
        ]:
            engine = AsyncIterationEngine(
                small_jacobi, RandomSubset(n, 0.5, seed=5), delays
            )
            res = engine.run(np.zeros(n), max_iterations=800, tol=0.0)
            runs[name] = compare_macro_epoch(res.trace)
        assert runs["ooo"].macro_per_epoch < runs["fresh"].macro_per_epoch
        assert not runs["ooo"].monotone_labels


class TestRendering:
    def test_table_basic(self):
        out = render_table(["a", "b"], [[1, 2.5], ["x", float("nan")]], title="T")
        assert "T" in out
        assert "2.5" in out
        assert "-" in out  # nan cell

    def test_table_row_length_validated(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_series_subsampling(self):
        out = render_series("err", np.linspace(1, 0, 100), max_points=5)
        assert "100 pts" in out

    def test_series_empty(self):
        assert "(empty)" in render_series("x", [])

    def test_schedule_contains_phases_and_messages(self):
        op = make_jacobi_instance(2, dominance=0.5, seed=3)
        procs = [
            ProcessorSpec(components=(0,), compute_time=UniformTime(0.8, 1.2)),
            ProcessorSpec(components=(1,), compute_time=UniformTime(1.0, 2.0)),
        ]
        sim = DistributedSimulator(
            op, procs, channels=ChannelSpec(latency=ConstantTime(0.1)), seed=4
        )
        res = sim.run(np.zeros(2), max_iterations=8, tol=0.0)
        out = render_schedule(res, width=80)
        assert "P0 |" in out and "P1 |" in out
        assert "[" in out and "]" in out
        assert "o" in out
        assert "legend" in out

    def test_schedule_marks_partials(self):
        op = make_jacobi_instance(2, dominance=0.5, seed=5)
        procs = [
            ProcessorSpec(components=(0,), inner_steps=3, publish_partials=True),
            ProcessorSpec(components=(1,), inner_steps=3, publish_partials=True),
        ]
        sim = DistributedSimulator(op, procs, seed=6)
        res = sim.run(np.zeros(2), max_iterations=6, tol=0.0)
        out = render_schedule(res, width=80)
        assert "~" in out

    def test_schedule_width_validated(self):
        op = make_jacobi_instance(2, dominance=0.5, seed=7)
        sim = DistributedSimulator(
            op,
            [ProcessorSpec(components=(0,)), ProcessorSpec(components=(1,))],
            seed=8,
        )
        res = sim.run(np.zeros(2), max_iterations=4, tol=0.0)
        with pytest.raises(ValueError):
            render_schedule(res, width=5)


class TestFaultIntensityRows:
    """The convergence-vs-fault-intensity table, pinned on a hand-built fleet."""

    @staticmethod
    def _fleet():
        from repro.runtime.fleet import FleetResult, ScenarioResult
        from repro.scenarios.spec import ScenarioSpec

        def row(rate, seed, iterations, converged, residual, error, info, failed=False):
            spec = ScenarioSpec(
                problem="jacobi", kind="simulator", machine="uniform",
                fault="none" if rate is None else "crash-restart",
                fault_params={} if rate is None else {"crash_rate": rate},
                seed=seed,
            )
            return ScenarioResult(
                key=spec.key, spec=spec, iterations=iterations, converged=converged,
                final_residual=residual, final_error=error, info=info,
                error="RuntimeError('crashed')" if failed else None,
            )

        rows = [
            # Inserted harshest first, and the 0.02 group before the 0.01
            # one it ties with, so neither order is insertion order.
            row(0.05, 1, 70, False, 0.25, 2.0, {"fault_crashes": 4, "fault_drops": 2}),
            row(0.05, 2, 90, False, 0.75, 4.0, {"fault_crashes": 6}),
            row(0.05, 3, 80, True, 0.5, 3.0, {"fault_crashes": 5, "fault_drops": 1}),
            row(0.02, 1, 30, True, 0.125, 1.0, {"fault_crashes": 2}),
            row(0.02, 2, 30, True, 0.125, 1.0, {"fault_crashes": 3}),
            row(0.01, 1, 40, True, 0.5, None,
                {"fault_crashes": 1, "fault_limp_episodes": 1}),
            row(0.01, 2, 60, False, float("inf"), None, {"fault_crashes": 3}),
            # A failed row counts nowhere, its counters included.
            row(0.01, 3, 0, False, float("nan"), None, {"fault_crashes": 100},
                failed=True),
            row(None, 1, 10, True, 0.25, 0.5, {}),
            row(None, 2, 20, True, 0.75, None, {"fault_crashes": 0}),
        ]
        return FleetResult(results=tuple(rows), wall_time=1.0, executor="serial",
                           max_workers=1)

    def test_rows_are_pinned(self):
        from repro.analysis.fleet import fault_intensity_rows
        from repro.runtime.sweep_store import _FAULT_FIELDS

        headers, rows = fault_intensity_rows(
            self._fleet(), group_by=("fault", "fault_params"),
            metrics=("iterations", "converged", "final_residual", "final_error"),
        )
        assert headers == [
            "fault", "fault_params", "n", "mean_fault_crashes", "mean_fault_drops",
            "mean_fault_limp_episodes", "iterations", "converged", "final_residual",
            "final_error",
        ]
        nan = "nan"
        expected = [
            # Fault-free first; the two groups of equal intensity (2.5)
            # break the tie on their group key; harshest last.
            ["none", "{}", 2, 0.0, 0.0, 0.0, 15.0, 1.0, 0.5, 0.5],
            # A boolean metric is a rate; the inf residual is skipped,
            # and a metric whose every value is None reads nan.
            ["crash-restart", "{'crash_rate': 0.01}", 2, 2.0, 0.0, 0.5,
             50.0, 0.5, 0.5, nan],
            ["crash-restart", "{'crash_rate': 0.02}", 2, 2.5, 0.0, 0.0,
             30.0, 1.0, 0.125, 1.0],
            ["crash-restart", "{'crash_rate': 0.05}", 3, 5.0, 1.0, 0.0,
             80.0, 1 / 3, 0.5, 3.0],
        ]
        got = [[nan if isinstance(v, float) and np.isnan(v) else v for v in r]
               for r in rows]
        assert got == expected
        assert all(type(r[2]) is int for r in rows)
        # The default counters are the store's fault columns.
        assert headers[3:6] == [f"mean_{c}" for c in _FAULT_FIELDS]
