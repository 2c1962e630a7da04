"""Scenario-batched lockstep execution: bit-identity, fallback, routing.

The contract under test (ISSUE 6 tentpole): homogeneous spec groups
advanced as ``(N, dim)`` populations by
:mod:`repro.runtime.simulator.batched` produce results **bit-identical
per scenario** to solo execution — engine batches against the exact
backend, simulator batches against both event-loop twins — while
anything the batch cannot take (stochastic machine timing, mixed
shapes) falls back to solo without surfacing an error.
"""

from __future__ import annotations

import pytest

from repro.runtime.fleet import run_fleet, run_scenario
from repro.runtime.simulator.batched import (
    LockstepIncompatible,
    batchable,
    lockstep_plan,
    run_scenario_batch,
)
from repro.scenarios.spec import ScenarioSpec

#: Fields that define per-scenario bit-identity (everything except the
#: measured wall time and the trace pointer).
RESULT_FIELDS = (
    "key", "iterations", "converged", "final_residual", "final_error",
    "sim_time", "time_to_tol", "error", "info",
)


def assert_identical(solo_results, batch_results):
    assert len(solo_results) == len(batch_results)
    for a, b in zip(solo_results, batch_results):
        for f in RESULT_FIELDS:
            assert getattr(a, f) == getattr(b, f), (a.key, f)


def engine_specs(steering="cyclic", delays="uniform", tol=1e-6, n=6,
                 max_iterations=40, count=5, seed0=100, **params):
    return [
        ScenarioSpec(
            problem="jacobi", problem_params={"n": n},
            steering=steering, delays=delays, delay_params=params,
            max_iterations=max_iterations, tol=tol, seed=seed0 + k,
        )
        for k in range(count)
    ]


#: The machine-learning families with stacked forward-backward twins.
ML_FAMILIES = ["ridge", "lasso", "logistic"]


def ml_specs(problem, steering="cyclic", delays="zero", tol=1e-6,
             max_iterations=30, count=3, **delay_params):
    return [
        ScenarioSpec(problem=problem,
                     problem_params={"n_samples": 10, "n_features": 5},
                     steering=steering, delays=delays, delay_params=delay_params,
                     max_iterations=max_iterations, tol=tol, seed=40 + k)
        for k in range(count)
    ]


def sim_specs(backend="vectorized", machine="lockstep", machine_params=None,
              tol=1e-6, n=6, max_iterations=40, count=4, seed0=300):
    return [
        ScenarioSpec(
            problem="jacobi", problem_params={"n": n}, kind="simulator",
            machine=machine, machine_params=machine_params or {},
            backend=backend, max_iterations=max_iterations, tol=tol,
            seed=seed0 + k,
        )
        for k in range(count)
    ]


class TestEligibility:
    def test_engine_exact_is_batchable(self):
        assert batchable(engine_specs()[0])

    def test_flexible_engine_stays_solo(self):
        spec = ScenarioSpec(problem="jacobi", backend="flexible")
        assert not batchable(spec)

    def test_simulator_event_loop_backends_batch(self):
        for backend in ("vectorized", "reference", "batched-lockstep"):
            assert batchable(sim_specs(backend=backend, count=1)[0]), backend

    def test_shared_memory_stays_solo(self):
        spec = ScenarioSpec(
            problem="jacobi", kind="simulator", backend="shared-memory"
        )
        assert not batchable(spec)


class TestBatchKey:
    def test_seed_free_and_stable(self):
        a, b = engine_specs(count=2)
        assert a.seed != b.seed
        assert a.batch_key == b.batch_key

    def test_splits_on_every_model_ingredient(self):
        base = engine_specs(count=1)[0]
        others = [
            engine_specs(steering="all", count=1)[0],
            engine_specs(delays="zero", count=1)[0],
            engine_specs(tol=0.0, count=1)[0],
            engine_specs(max_iterations=41, count=1)[0],
            engine_specs(n=7, count=1)[0],
        ]
        for other in others:
            assert base.batch_key != other.batch_key


class TestEngineBatchBitIdentity:
    @pytest.mark.parametrize("steering", ["cyclic", "all", "block-cyclic",
                                          "random-subset", "weighted"])
    def test_steering_policies(self, steering):
        specs = engine_specs(steering=steering, bound=2)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    @pytest.mark.parametrize("delays,params", [
        ("zero", {}),
        ("constant", {"delay": 2}),
        ("uniform", {"bound": 3}),
        ("baudet-sqrt", {}),
    ])
    def test_delay_models(self, delays, params):
        specs = engine_specs(delays=delays, **params)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    def test_budget_exhaustion_tol_zero(self):
        # tol=0 never converges: every scenario runs out the budget.
        specs = engine_specs(tol=0.0, max_iterations=7, bound=2)
        batch = run_scenario_batch(specs)
        assert all(r.iterations == 7 and not r.converged for r in batch)
        assert_identical([run_scenario(s) for s in specs], batch)

    def test_divergence_masking_mixed_stopping(self):
        # A loose tolerance converges scenarios at different j; frozen
        # rows must stop consuming their streams exactly where solo
        # stopped.
        specs = engine_specs(tol=1e-2, max_iterations=200, bound=2,
                             count=8)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    def test_mixed_groups_and_solo_members_keep_input_order(self):
        specs = (
            engine_specs(delays="zero", count=3)
            + engine_specs(delays="uniform", bound=2, count=3)
            + engine_specs(delays="zero", count=1, seed0=900)  # solo group
        )
        specs = [specs[i] for i in (3, 0, 6, 4, 1, 5, 2)]  # interleave
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    @pytest.mark.parametrize("steering,delays,params,tol", [
        ("cyclic", "constant", {"delay": 2}, 1e-8),
        ("even-odd", "uniform", {"bound": 3}, 0.0),
        ("all", "uniform", {"bound": 2}, 1e-8),
    ])
    def test_long_runs_shared_steering(self, steering, delays, params, tol):
        specs = engine_specs(steering=steering, delays=delays, tol=tol,
                             max_iterations=120, **params)
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        assert_identical([run_scenario(s) for s in specs], batch)

    @pytest.mark.parametrize("problem", ML_FAMILIES)
    def test_forward_backward_operators(self, problem):
        # The prox-gradient families build ForwardBackward operators, not
        # an AffineOperator stack: their own stacked twins run the
        # updates and residuals, and analysis and norms take the generic
        # paths.
        specs = ml_specs(problem)
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        assert_identical([run_scenario(s) for s in specs], batch)

    @pytest.mark.parametrize("problem", ML_FAMILIES)
    def test_forward_backward_divergence_masking(self, problem):
        # Rows stop at different j, so the twins see live-row subsets.
        specs = ml_specs(problem, delays="uniform", bound=2, tol=1e-3,
                         max_iterations=300, count=6)
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        assert len({r.iterations for r in batch}) > 1
        assert any(r.converged for r in batch)
        assert_identical([run_scenario(s) for s in specs], batch)

    @pytest.mark.parametrize("problem", ML_FAMILIES)
    def test_forward_backward_random_subset_steering(self, problem):
        # Per-scenario active sets: each block runs on its own row subset.
        specs = ml_specs(problem, steering="random-subset", count=4)
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        assert_identical([run_scenario(s) for s in specs], batch)


class TestLockstepBatchBitIdentity:
    @pytest.mark.parametrize("backend", ["vectorized", "reference",
                                         "batched-lockstep"])
    def test_event_loop_twins(self, backend):
        specs = sim_specs(backend=backend)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    @pytest.mark.parametrize("mp", [
        {"n_processors": 1},
        {"n_processors": 3, "compute": 2.0, "latency": 0.5},
        {"n_processors": 6},
    ])
    def test_machine_shapes(self, mp):
        specs = sim_specs(machine_params=mp)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    @pytest.mark.parametrize("tol,max_iterations", [
        (0.0, 40),       # budget exhaustion
        (1e-6, 41),      # budget not divisible by the residual cadence
        (1e-2, 200),     # early convergence at scattered commits
    ])
    def test_stopping_regimes(self, tol, max_iterations):
        specs = sim_specs(tol=tol, max_iterations=max_iterations)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    @pytest.mark.parametrize("tol,max_iterations", [(0.0, 60), (1e-3, 400)])
    def test_lasso(self, tol, max_iterations):
        # Soft-threshold prox over a full forward step, Gauss-Seidel over
        # each processor's components; tol > 0 stops rows at different
        # commits.
        specs = [
            ScenarioSpec(
                problem="lasso",
                problem_params={"n_samples": 20, "n_features": 8},
                kind="simulator", machine="lockstep",
                machine_params={"n_processors": 4}, backend="vectorized",
                max_iterations=max_iterations, tol=tol, seed=300 + k,
            )
            for k in range(4)
        ]
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        if tol > 0.0:
            assert len({r.iterations for r in batch}) > 1
        assert_identical([run_scenario(s) for s in specs], batch)

    def test_message_stats_match_event_loop(self):
        specs = sim_specs(count=2)
        for r in run_scenario_batch(specs):
            assert set(r.info) == {"messages_sent", "messages_dropped",
                                   "phases_completed"}

    def test_incompatible_machine_falls_back_to_solo(self):
        # Stochastic timing cannot run as lockstep rounds; the group
        # must fall back to solo execution and still match it.
        specs = sim_specs(machine="uniform")
        batch = run_scenario_batch(specs)
        assert all(r.error is None for r in batch)
        assert_identical([run_scenario(s) for s in specs], batch)


class TestLockstepPlanValidation:
    def _procs(self, **overrides):
        from repro.runtime.simulator import ConstantTime, ProcessorSpec

        kw = dict(components=(0,), compute_time=ConstantTime(1.0))
        kw.update(overrides)
        return [ProcessorSpec(**kw), ProcessorSpec(components=(1,),
                                                   compute_time=ConstantTime(1.0))]

    def test_accepts_lockstep_archetype(self):
        from repro.scenarios.registry import make_machine

        procs, channels = make_machine("lockstep", 8, seed=0)
        plan = lockstep_plan(procs, channels)
        assert plan.P == 4 and plan.compute == 1.0

    def test_rejects_stochastic_compute(self):
        from repro.runtime.simulator import UniformTime

        procs = self._procs(compute_time=UniformTime(0.5, 1.5))
        with pytest.raises(LockstepIncompatible, match="processor 0 compute_time"):
            lockstep_plan(procs, None)

    def test_rejects_incommensurate_round_durations(self):
        from repro.runtime.simulator import ConstantTime

        procs = self._procs(compute_time=ConstantTime(1.5))
        with pytest.raises(LockstepIncompatible, match="round duration"):
            lockstep_plan(procs, None)

    def test_admits_integer_multiple_round_durations(self):
        from repro.runtime.simulator import ConstantTime

        procs = self._procs(compute_time=ConstantTime(2.0))
        plan = lockstep_plan(procs, None)
        assert plan.compute == 1.0 and plan.computes == [2.0, 1.0]

    def test_rejection_names_offender_and_admissible_alternatives(self):
        from repro.runtime.simulator import ChannelSpec, ConstantTime, UniformTime

        with pytest.raises(LockstepIncompatible) as exc:
            lockstep_plan(self._procs(compute_time=UniformTime(0.5, 1.5)), None)
        msg = str(exc.value)
        assert "processor 0" in msg  # the offender
        assert "admissible" in msg and "ConstantTime" in msg  # the alternatives

        with pytest.raises(LockstepIncompatible) as exc:
            lockstep_plan(self._procs(), ChannelSpec(latency=ConstantTime(1.0)))
        msg = str(exc.value)
        assert "channel (0, 1)" in msg
        assert "admissible" in msg and "strictly below" in msg

    def test_rejects_latency_at_or_above_round(self):
        from repro.runtime.simulator import ChannelSpec, ConstantTime

        with pytest.raises(LockstepIncompatible, match="latency"):
            lockstep_plan(self._procs(),
                          ChannelSpec(latency=ConstantTime(1.0)))

    def test_rejects_lossy_channels(self):
        from repro.runtime.simulator import ChannelSpec, ConstantTime

        with pytest.raises(LockstepIncompatible, match="drop_prob"):
            lockstep_plan(
                self._procs(),
                ChannelSpec(latency=ConstantTime(0.1), drop_prob=0.5),
            )

    def test_lockstep_archetype_validates_latency(self):
        from repro.scenarios.registry import make_machine

        with pytest.raises(ValueError, match="latency"):
            make_machine("lockstep", 8, seed=0, latency=2.0, compute=1.0)


class TestFleetRouting:
    def test_run_fleet_batch_digest_identical(self):
        specs = engine_specs(count=6, bound=2) + sim_specs(count=4)
        plain = run_fleet(specs, executor="serial", batch=False)
        batched = run_fleet(specs, executor="serial", batch=True)
        assert plain.digest() == batched.digest()
        assert_identical(plain.results, batched.results)

    def test_golden_digest(self):
        # Frozen end-to-end certificate: engine + lockstep scenarios
        # through the batched fleet.  A digest drift means the batched
        # path (or the solo semantics it mirrors) changed behaviour —
        # that is a correctness regression, not a refresh-the-literal
        # event, unless the solo engines themselves changed in a PR
        # that consciously re-baselines determinism.
        specs = engine_specs(count=3, bound=2) + sim_specs(count=2)
        fleet = run_fleet(specs, executor="serial", batch=True)
        assert fleet.digest() == GOLDEN_DIGEST
        solo = run_fleet(specs, executor="serial", batch=False)
        assert solo.digest() == GOLDEN_DIGEST

    def test_crashing_spec_is_isolated(self):
        # One bad grid point cannot sink its chunk: the group falls
        # back to solo and the crash is captured per scenario.
        good = engine_specs(count=2)
        bad = ScenarioSpec(
            problem="jacobi", problem_params={"n": 6},
            steering="cyclic", steering_params={"k": 99},  # invalid param
            max_iterations=5, tol=1e-6, seed=1,
        )
        results = run_scenario_batch([good[0], bad, good[1]])
        assert results[1].error is not None
        assert results[0].error is None and results[2].error is None


GOLDEN_DIGEST = (
    "e4dc637b7241b9d4a78b62f71aa9456af99027e7fd40c56aad093e126c048035"
)


def _spy_solo(calls):
    def solo(spec):
        calls.append(spec.key)
        return run_scenario(spec)
    return solo


class TestWidenedWhitelist:
    """ISSUE 7: new fast-path admissions, each pinned by bit-identity."""

    @pytest.mark.parametrize("steering", ["even-odd"])
    @pytest.mark.parametrize("delays,params", [
        ("uniform", {"bound": 2}), ("log-growth", {}), ("power", {}),
    ])
    def test_new_engine_admissions_bit_identical(self, steering, delays, params):
        specs = engine_specs(steering=steering, delays=delays, **params)
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        assert_identical([run_scenario(s) for s in specs], batch)

    @pytest.mark.parametrize("delays", ["log-growth", "power"])
    def test_deterministic_delay_growth_families(self, delays):
        specs = engine_specs(steering="cyclic", delays=delays,
                             max_iterations=80)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    def test_lockstep_tiered_machine_bit_identical(self):
        specs = sim_specs(machine="lockstep-tiered",
                          machine_params={"tiers": 2}, max_iterations=60)
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert not calls, f"fell back to solo for {calls}"
        assert_identical([run_scenario(s) for s in specs], batch)

    def test_lockstep_tiered_tol_zero(self):
        specs = sim_specs(machine="lockstep-tiered",
                          machine_params={"tiers": 3, "latency": 0.02},
                          tol=0.0, max_iterations=33)
        assert_identical([run_scenario(s) for s in specs],
                         run_scenario_batch(specs))

    def test_heterogeneous_plan_structure(self):
        from repro.scenarios.registry import make_machine

        procs, channels = make_machine(
            "lockstep-tiered", 8, seed=0, tiers=2
        )
        plan = lockstep_plan(procs, channels)
        assert plan.compute == min(plan.computes)
        assert sorted(set(plan.computes)) == [1.0, 2.0]


class TestBuildBatchGolden:
    """ISSUE 7 satellite: batch-constructed problems are bit-identical
    to N solo builds — per scenario, including N=1 chunks and parameter
    dicts mixing int and float dtypes."""

    CASES = [
        ("jacobi", {"n": 7, "dominance": 0.35}),
        ("tridiagonal", {"n": 6, "off_diag": -0.8}),
        ("lasso", {"n_samples": 12, "n_features": 6, "l1": 0.05}),
        ("ridge", {"n_samples": 10, "n_features": 5, "l2": 0.2}),
        ("logistic", {"n_samples": 14, "n_features": 5}),
    ]

    @staticmethod
    def _fingerprint(op):
        import numpy as np

        probe = np.linspace(-1.0, 1.0, op.dim)
        parts = [op.apply(probe).tobytes(), op.apply_block(probe, 0).tobytes()]
        A = getattr(op, "A", None)
        if A is not None:
            parts.append(A.tobytes())
            parts.append(op.b.tobytes())
        return b"".join(parts)

    @pytest.mark.parametrize("problem,params", CASES)
    @pytest.mark.parametrize("count", [1, 4])
    def test_batch_matches_solo_builds(self, problem, params, count):
        from repro.scenarios.registry import build_batch

        specs = [
            ScenarioSpec(problem=problem, problem_params=params,
                         max_iterations=5, tol=0.0, seed=900 + k)
            for k in range(count)
        ]
        ops = build_batch(specs)
        assert ops is not None and len(ops) == count
        for spec, op in zip(specs, ops):
            solo = spec.build_problem()
            assert self._fingerprint(op) == self._fingerprint(solo), spec.key

    def test_heterogeneous_specs_rejected(self):
        from repro.scenarios.registry import build_batch

        a = ScenarioSpec(problem="jacobi", problem_params={"n": 6}, seed=1)
        b = ScenarioSpec(problem="jacobi", problem_params={"n": 7}, seed=2)
        with pytest.raises(ValueError, match="homogeneous"):
            build_batch([a, b])

    def test_unknown_family_returns_none(self):
        from repro.scenarios.registry import build_batch, has_batch_factory

        spec = ScenarioSpec(problem="sparse-logistic", seed=0)
        assert not has_batch_factory("sparse-logistic")
        assert build_batch([spec]) is None

    def test_empty_input(self):
        from repro.scenarios.registry import build_batch

        assert build_batch([]) == []
