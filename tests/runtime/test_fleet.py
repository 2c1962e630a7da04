"""Tests of the scenario registry, grid expansion and fleet runner."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.analysis.fleet import compare_throughput, fleet_summary_rows, render_fleet_table
from repro.runtime.fleet import FleetResult, run_fleet, run_scenario
from repro.scenarios import ScenarioGrid, ScenarioSpec, available, make_problem


SMALL_ENGINE_GRID = ScenarioGrid(
    problems=(("jacobi", {"n": 8}),),
    delays=("zero", "uniform"),
    steerings=("cyclic",),
    n_seeds=2,
    master_seed=5,
    max_iterations=500,
    tol=1e-8,
)


class TestRegistry:
    def test_axes_nonempty(self):
        for axis in ("problem", "steering", "delays", "machine"):
            assert len(available(axis)) >= 4, axis

    def test_unknown_axis(self):
        with pytest.raises(KeyError, match="unknown axis"):
            available("nope")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown problem"):
            make_problem("definitely-not-registered")

    def test_problem_factories_build_operators(self):
        # Every entry must be constructible with its advertised defaults.
        for name in available("problem"):
            op = make_problem(name, seed=3)
            assert op.dim >= 1 and op.n_components >= 1, name


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ScenarioSpec(problem="jacobi", kind="warp")
        with pytest.raises(ValueError, match="backend"):
            ScenarioSpec(problem="jacobi", backend="gpu")
        with pytest.raises(ValueError, match="max_iterations"):
            ScenarioSpec(problem="jacobi", max_iterations=0)

    def test_key_shapes(self):
        e = ScenarioSpec(problem="jacobi", delays="uniform", steering="cyclic", seed=7)
        assert e.key == "jacobi/uniform×cyclic/seed=7"
        s = ScenarioSpec(problem="jacobi", kind="simulator", machine="wan", seed=7)
        assert s.key == "jacobi/wan[vectorized]/seed=7"

    def test_spawn_seeds_independent_and_stable(self):
        a = ScenarioSpec(problem="jacobi", seed=1).spawn_seeds()
        b = ScenarioSpec(problem="jacobi", seed=1).spawn_seeds()
        assert [s.generate_state(1)[0] for s in a] == [s.generate_state(1)[0] for s in b]
        assert len({int(s.generate_state(1)[0]) for s in a}) == 7


class TestScenarioGrid:
    def test_expand_size_and_determinism(self):
        g = ScenarioGrid(
            problems=("jacobi", "tridiagonal"),
            delays=("uniform", "baudet-sqrt"),
            steerings=("cyclic", "random-subset"),
            n_seeds=3,
        )
        specs = g.expand()
        assert g.size == len(specs) == 24
        assert specs == g.expand()  # deterministic expansion
        assert len({s.key for s in specs}) == 24  # all distinct
        assert len({s.seed for s in specs}) == 24  # independent seeds

    def test_unknown_axis_entry(self):
        with pytest.raises(KeyError, match="unknown delays"):
            ScenarioGrid(problems=("jacobi",), delays=("warp-speed",))

    def test_simulator_grid(self):
        g = ScenarioGrid(problems=("jacobi",), kind="simulator",
                         machines=("uniform", "flexible"), n_seeds=2)
        specs = g.expand()
        assert len(specs) == 4
        assert all(s.kind == "simulator" for s in specs)

    def test_specs_picklable(self):
        specs = SMALL_ENGINE_GRID.expand()
        assert pickle.loads(pickle.dumps(specs)) == specs


class TestRunScenario:
    def test_engine_kind(self):
        spec = SMALL_ENGINE_GRID.expand()[0]
        r = run_scenario(spec)
        assert r.error is None
        assert r.converged and r.iterations > 0
        assert r.final_residual < 1e-8
        assert r.sim_time is None

    def test_simulator_kind(self):
        spec = ScenarioSpec(
            problem="jacobi", problem_params={"n": 8}, kind="simulator",
            machine="uniform", seed=3, max_iterations=300, tol=1e-8,
        )
        r = run_scenario(spec)
        assert r.error is None
        assert r.converged
        assert r.sim_time is not None and r.sim_time > 0
        assert r.time_to_tol is not None and r.time_to_tol <= r.sim_time

    def test_reference_backend_agrees_with_vectorized(self):
        base = dict(problem="tridiagonal", problem_params={"n": 12}, kind="simulator",
                    machine="flexible", seed=9, max_iterations=200, tol=0.0)
        rv = run_scenario(ScenarioSpec(backend="vectorized", **base))
        rr = run_scenario(ScenarioSpec(backend="reference", **base))
        assert rv.error is None and rr.error is None
        assert rv.iterations == rr.iterations
        assert rv.final_residual == rr.final_residual
        assert rv.sim_time == rr.sim_time

    def test_crash_is_captured_not_raised(self):
        bad = ScenarioSpec(problem="jacobi", problem_params={"n": -3})
        r = run_scenario(bad)
        assert r.error is not None and "Error" in r.error
        assert not r.converged


class TestRunFleet:
    def test_submission_order_and_keys(self):
        specs = SMALL_ENGINE_GRID.expand()
        fleet = run_fleet(specs, executor="serial")
        assert [r.key for r in fleet.results] == [s.key for s in specs]
        assert fleet.scenario_count == len(specs)
        assert fleet.scenarios_per_sec > 0

    def test_executors_agree(self):
        specs = SMALL_ENGINE_GRID.expand()
        serial = run_fleet(specs, executor="serial")
        threaded = run_fleet(specs, executor="thread", max_workers=4)
        for a, b in zip(serial.results, threaded.results):
            assert a.iterations == b.iterations
            assert a.final_residual == b.final_residual
            assert a.converged == b.converged

    def test_bad_executor(self):
        with pytest.raises(ValueError, match="executor"):
            run_fleet(SMALL_ENGINE_GRID.expand(), executor="quantum")

    def test_failures_partitioned(self):
        specs = [
            ScenarioSpec(problem="jacobi", problem_params={"n": 8}, seed=1,
                         max_iterations=200),
            ScenarioSpec(problem="jacobi", problem_params={"n": -1}, seed=2),
        ]
        fleet = run_fleet(specs, executor="serial")
        assert len(fleet.ok()) == 1 and len(fleet.failures()) == 1
        assert fleet.converged_fraction() in (0.0, 1.0)

    def test_group_medians_and_rows(self):
        fleet = run_fleet(SMALL_ENGINE_GRID.expand(), executor="serial")
        med = fleet.group_medians(by=("delays",), metrics=("iterations", "converged"))
        assert set(med) == {("zero",), ("uniform",)}
        for agg in med.values():
            assert agg["count"] == 2.0
            assert agg["converged"] == 1.0
        with pytest.raises(KeyError, match="unknown metric"):
            fleet.group_medians(metrics=("warp",))
        rows = fleet.to_rows()
        assert len(rows) == fleet.scenario_count
        headers, srows = fleet_summary_rows(fleet, group_by=("delays",))
        assert headers[0] == "delays" and len(srows) == 2
        assert "scenarios in" in render_fleet_table(fleet, group_by=("delays",))

    def test_to_json_roundtrips(self):
        fleet = run_fleet(SMALL_ENGINE_GRID.expand()[:2], executor="serial")
        doc = json.loads(fleet.to_json())
        assert doc["scenario_count"] == 2
        assert len(doc["results"]) == 2
        assert doc["results"][0]["spec"]["problem"] == "jacobi"

    def test_from_json_full_roundtrip(self):
        specs = SMALL_ENGINE_GRID.expand()[:3] + (
            ScenarioSpec(problem="jacobi", problem_params={"n": -1}, seed=2),  # a failure
        )
        fleet = run_fleet(specs, executor="serial")
        back = FleetResult.from_json(fleet.to_json())
        assert back.executor == fleet.executor
        assert back.max_workers == fleet.max_workers
        assert back.wall_time == fleet.wall_time
        assert back.scenario_count == fleet.scenario_count
        for a, b in zip(fleet.results, back.results):
            assert a.spec == b.spec  # real ScenarioSpec, re-validated
            assert a.key == b.key
            assert a.iterations == b.iterations
            assert a.converged == b.converged
            assert a.error == b.error
            # NaN-safe float comparison (failed scenarios carry nan)
            assert repr(a.final_residual) == repr(b.final_residual)
        # the reconstructed fleet supports the full aggregation API
        assert back.group_medians(by=("delays",)).keys() == fleet.group_medians(
            by=("delays",)
        ).keys()

    def test_from_json_accepts_parsed_document(self):
        fleet = run_fleet(SMALL_ENGINE_GRID.expand()[:1], executor="serial")
        back = FleetResult.from_json(json.loads(fleet.to_json()))
        assert back.results[0].spec == fleet.results[0].spec

    def test_compare_throughput_requires_same_size(self):
        fleet = run_fleet(SMALL_ENGINE_GRID.expand()[:2], executor="serial")
        other = run_fleet(SMALL_ENGINE_GRID.expand()[:1], executor="serial")
        with pytest.raises(ValueError, match="sizes differ"):
            compare_throughput(fleet, other)
        cmp = compare_throughput(fleet, fleet)
        assert cmp.speedup == 1.0


class TestBackendAxis:
    """The generalized backend axis: one grid, every engine."""

    def test_engine_grid_rejects_machine_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ScenarioGrid(problems=("jacobi",), backends=("vectorized",))

    def test_simulator_grid_rejects_model_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ScenarioGrid(problems=("jacobi",), kind="simulator", backends="exact")

    def test_duplicate_backends_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioGrid(problems=("jacobi",), backends=("exact", "exact"))

    def test_backend_axis_shares_seeds(self):
        grid = ScenarioGrid(
            problems=(("jacobi", {"n": 8}),),
            kind="simulator",
            machines=("uniform",),
            backends=("vectorized", "reference"),
            n_seeds=2,
            master_seed=4,
            max_iterations=150,
        )
        specs = grid.expand()
        assert grid.size == len(specs) == 4
        by_backend = {}
        for s in specs:
            by_backend.setdefault(s.backend, []).append(s.seed)
        # same experiments, different engines: seeds match pairwise
        assert by_backend["vectorized"] == by_backend["reference"]
        # single-backend expansion of the same grid keeps identical seeds
        import dataclasses

        solo = dataclasses.replace(grid, backends="vectorized").expand()
        assert [s.seed for s in solo] == by_backend["vectorized"]

    def test_cross_backend_fleet_agrees_and_pivots(self):
        from repro.analysis.fleet import backend_comparison_rows, render_backend_comparison

        grid = ScenarioGrid(
            problems=(("jacobi", {"n": 8}),),
            kind="simulator",
            machines=("uniform",),
            backends=("vectorized", "reference"),
            n_seeds=2,
            master_seed=4,
            max_iterations=150,
            tol=0.0,
        )
        fleet = run_fleet(grid.expand(), executor="serial")
        assert not fleet.failures()
        med = fleet.group_medians(by=("backend",), metrics=("iterations", "final_residual"))
        assert med[("vectorized",)] == med[("reference",)]  # oracle agreement
        headers, rows = backend_comparison_rows(fleet, metric="final_residual")
        assert headers == ["problem", "final_residual[reference]", "final_residual[vectorized]"]
        assert len(rows) == 1 and rows[0][1] == rows[0][2]
        assert "cross-backend" in render_backend_comparison(fleet)

    def test_shared_memory_in_simulator_grid(self):
        grid = ScenarioGrid(
            problems=(("jacobi", {"n": 8}),),
            kind="simulator",
            machines=("uniform",),
            backends=("shared-memory",),
            n_seeds=1,
            max_iterations=3000,
        )
        fleet = run_fleet(grid.expand(), executor="serial")
        assert not fleet.failures(), [r.error for r in fleet.failures()]
        r = fleet.results[0]
        assert r.spec.key.endswith("[shared-memory]/seed=%d" % r.spec.seed)
        assert r.sim_time is not None and r.sim_time > 0  # wall seconds


class TestPerfSmoke:
    """Fast sanity: the vectorized fleet is not slower than the frozen baseline."""

    WORKLOAD = ScenarioGrid(
        problems=(("jacobi", {"n": 24}),),
        kind="simulator",
        machines=(("flexible", {"n_processors": 4}),),
        n_seeds=2,
        master_seed=1,
        max_iterations=200,
        tol=0.0,
    )

    def test_throughput_positive_and_results_identical(self):
        import dataclasses

        base = run_fleet(
            dataclasses.replace(self.WORKLOAD, backends="reference").expand(),
            executor="serial",
        )
        vec = run_fleet(self.WORKLOAD.expand(), executor="serial")
        assert base.scenarios_per_sec > 0 and vec.scenarios_per_sec > 0
        for rb, rv in zip(base.results, vec.results):
            assert rb.error is None and rv.error is None
            assert rb.iterations == rv.iterations
            assert rb.final_residual == rv.final_residual

    @pytest.mark.slow
    def test_vectorized_fleet_at_least_2x_baseline(self):
        """The acceptance bar, on a workload big enough to be stable."""
        import dataclasses

        grid = dataclasses.replace(self.WORKLOAD, n_seeds=3, max_iterations=600,
                                   problems=(("jacobi", {"n": 48}),),
                                   machines=(("flexible", {"n_processors": 8}),))
        base = run_fleet(
            dataclasses.replace(grid, backends="reference").expand(), executor="serial"
        )
        vec = run_fleet(grid.expand(), executor="auto")
        cmp = compare_throughput(base, vec)
        assert cmp.speedup >= 2.0, f"{cmp.speedup:.2f}x < 2x"


@pytest.mark.slow
class TestFleetStress:
    """Large-grid stress: every registered axis value, process pool included."""

    @staticmethod
    def _small_params(name):
        """Shrink each problem via its introspected tunables (stress != big)."""
        from repro.scenarios import REGISTRY

        defaults = REGISTRY.get("problem", name).defaults
        if "n" in defaults:
            return {"n": 12}
        small = {}
        if "n_samples" in defaults:
            small["n_samples"] = 40
        if "n_features" in defaults:
            small["n_features"] = 12
        return small

    def test_full_axes_grid(self):
        grid = ScenarioGrid(
            problems=tuple(
                (p, self._small_params(p)) for p in available("problem")
            ),
            delays=available("delays"),
            steerings=("cyclic", "random-subset"),
            n_seeds=2,
            master_seed=3,
            max_iterations=5_000,
            tol=1e-6,
        )
        fleet = run_fleet(grid.expand(), executor="auto")
        assert not fleet.failures(), [r.error for r in fleet.failures()]
        assert fleet.scenario_count == grid.size

    def test_process_pool_matches_serial(self):
        specs = SMALL_ENGINE_GRID.expand()
        serial = run_fleet(specs, executor="serial")
        procs = run_fleet(specs, executor="process", max_workers=2)
        for a, b in zip(serial.results, procs.results):
            assert a.iterations == b.iterations
            assert a.final_residual == b.final_residual


class TestResultsLayerFixes:
    """ISSUE 5 bugfix sweep: validation that used to slip through."""

    def test_metric_typo_raises_on_empty_fleet(self):
        # Zero groups used to skip the metric check entirely, so a
        # typo'd metric on an empty/all-failed fleet passed silently.
        empty = FleetResult(results=(), wall_time=0.0, executor="serial",
                            max_workers=1)
        with pytest.raises(KeyError, match="unknown metric"):
            empty.group_medians(metrics=("iteratons",))

    def test_metric_typo_raises_on_all_failed_fleet(self):
        fleet = run_fleet(
            [ScenarioSpec(problem="jacobi", problem_params={"n": -1}, seed=2)],
            executor="serial",
        )
        assert fleet.ok() == ()
        with pytest.raises(KeyError, match="unknown metric"):
            fleet.group_medians(metrics=("warp",))

    def test_empty_fleet_rate_is_zero_not_inf(self):
        empty = FleetResult(results=(), wall_time=0.0, executor="serial",
                            max_workers=1)
        assert empty.scenarios_per_sec == 0.0

    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_max_workers_below_one_raises(self, bad):
        # Used to clamp silently to 1 — inconsistent with
        # api.config.ExecutionSpec, which raises.  Same rule, same
        # message, both layers.
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            run_fleet(SMALL_ENGINE_GRID.expand()[:1], executor="serial",
                      max_workers=bad)

    def test_serial_run_records_one_worker(self):
        # The serial executor runs one unit at a time, so its record
        # must not claim the requested (or the core count's) pool width.
        specs = SMALL_ENGINE_GRID.expand()
        serial = run_fleet(specs, executor="serial", max_workers=4)
        lone = run_fleet(specs[:1], executor="thread", max_workers=4)
        assert (serial.executor, serial.max_workers) == ("serial", 1)
        assert (lone.executor, lone.max_workers) == ("serial", 1)

    def test_max_workers_message_matches_execution_spec(self):
        from repro.api.config import ExecutionSpec

        with pytest.raises(ValueError) as fleet_err:
            run_fleet(SMALL_ENGINE_GRID.expand()[:1], executor="serial",
                      max_workers=0)
        with pytest.raises(ValueError) as spec_err:
            ExecutionSpec(max_workers=0)
        assert str(fleet_err.value) == str(spec_err.value)

    def test_to_json_is_strict_json_even_with_failures(self):
        specs = SMALL_ENGINE_GRID.expand()[:1] + (
            ScenarioSpec(problem="jacobi", problem_params={"n": -1}, seed=2),
        )
        fleet = run_fleet(specs, executor="serial")
        text = fleet.to_json()

        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name!r}")

        doc = json.loads(text, parse_constant=no_constants)  # must not raise
        assert doc["scenario_count"] == 2
        # The failed row's nan residual persisted as null and restores
        # as nan, keeping the field's float type.
        back = FleetResult.from_json(text)
        failed = [r for r in back.results if r.error is not None]
        assert failed and repr(failed[0].final_residual) == "nan"

    def test_digest_agrees_between_live_and_roundtripped_nonfinite(self):
        specs = SMALL_ENGINE_GRID.expand()[:2]
        fleet = run_fleet(specs, executor="serial")
        back = FleetResult.from_json(fleet.to_json())
        assert back.digest() == fleet.digest()

    def test_inf_residual_roundtrips_exactly_and_distinct_from_nan(self):
        # A diverged scenario's inf residual must survive persistence
        # as inf (not collapse into nan/null): divergence and crash are
        # different outcomes.  The sentinel encoding is strict JSON.
        from repro.runtime.fleet import ScenarioResult
        from repro.runtime.sweep_store import digest_rows

        inf_row = ScenarioResult(
            key="diverged", spec=ScenarioSpec(problem="jacobi", seed=1),
            final_residual=float("inf"), final_error=float("-inf"),
        )
        nan_row = ScenarioResult(
            key="degenerate", spec=ScenarioSpec(problem="jacobi", seed=1),
            final_residual=float("nan"),
        )
        record = json.loads(
            json.dumps(inf_row.to_json_dict(), allow_nan=False)
        )
        back = ScenarioResult.from_json_dict(record)
        assert back.final_residual == float("inf")
        assert back.final_error == float("-inf")
        assert digest_rows([("h", inf_row)]) == digest_rows([("h", back)])
        assert digest_rows([("h", inf_row)]) != digest_rows([("h", nan_row)])


class TestZeroDurationFleets:
    """ISSUE 6 bugfix: empty / all-cache-hit fleets stay finite JSON.

    A grid satisfied entirely from a resume store or cross-study cache
    reassembles a ``FleetResult`` whose ``wall_time`` can be ``0.0``
    while ``results`` is non-empty; dividing through used to make
    ``scenarios_per_sec`` ``inf``, which ``to_json`` then nulled — and
    older documents on disk still carry that ``"wall_time": null``.
    """

    def _cached_fleet(self):
        spec = SMALL_ENGINE_GRID.expand()[0]
        live = run_fleet([spec], executor="serial")
        return FleetResult(results=live.results, wall_time=0.0,
                           executor="store", max_workers=0)

    def test_nonempty_zero_wall_time_rate_is_zero(self):
        fleet = self._cached_fleet()
        assert fleet.scenario_count == 1
        assert fleet.scenarios_per_sec == 0.0

    def test_zero_wall_time_to_json_is_strict_and_roundtrips(self):
        fleet = self._cached_fleet()

        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name!r}")

        text = fleet.to_json()
        doc = json.loads(text, parse_constant=no_constants)  # must not raise
        assert doc["scenarios_per_sec"] == 0.0
        back = FleetResult.from_json(text)
        assert back.wall_time == 0.0
        assert back.digest() == fleet.digest()

    def test_empty_fleet_to_json_roundtrips(self):
        empty = FleetResult(results=(), wall_time=0.0, executor="serial",
                            max_workers=1)
        back = FleetResult.from_json(empty.to_json())
        assert back.results == ()
        assert back.scenarios_per_sec == 0.0
        assert back.digest() == empty.digest()

    def test_legacy_null_wall_time_restores_as_zero(self):
        # Documents written while the rate could go inf persisted
        # "wall_time": null; they must still load.
        fleet = self._cached_fleet()
        doc = json.loads(fleet.to_json())
        doc["wall_time"] = None
        back = FleetResult.from_json(doc)
        assert back.wall_time == 0.0
        assert back.scenarios_per_sec == 0.0

    def test_all_cache_hit_grid_reports_finite_rate(self, tmp_path):
        # End to end: a store-resumed grid re-runs nothing, and the
        # stitched result still serializes finitely.
        from repro.runtime.fleet import run_grid

        specs = SMALL_ENGINE_GRID.expand()[:2]
        run_grid(specs, store=tmp_path / "s", executor="serial")
        warm = run_grid(specs, store=tmp_path / "s", executor="serial")
        assert warm.scenario_count == 2
        assert np.isfinite(warm.scenarios_per_sec)
        json.loads(warm.to_json())  # strict by construction
