"""Scenario-batched lockstep execution: bit-identity, fallback, routing.

The contract under test (ISSUE 6 tentpole): homogeneous spec groups
advanced as ``(N, dim)`` populations by
:mod:`repro.runtime.simulator.batched` produce results **bit-identical
per scenario** to solo execution — engine batches against the exact
backend, simulator batches against both event-loop twins — while
anything :func:`batchable` does not admit (stochastic machine timing,
faults, topologies) runs solo, and a batch that raises is rerun solo so
each row carries its own error.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.backends import available_backends
from repro.runtime.fleet import run_fleet, run_scenario
from repro.runtime.simulator.batched import _group, batchable, run_scenario_batch
from repro.scenarios.registry import REGISTRY
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


def _spy_solo(calls):
    def solo(spec):
        calls.append(spec.key)
        return run_scenario(spec)
    return solo


def assert_batched_identical(specs):
    """The batch ran (no spec fell back to solo) and equals solo runs."""
    calls = []
    batch = run_scenario_batch(specs, solo=_spy_solo(calls))
    assert not calls, f"fell back to solo for {calls}"
    assert_identical([run_scenario(s) for s in specs], batch)
    return batch


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


#: Label-block bytes for three iterations of an 8-row group of six
#: components: four for 5 rows of six or 6 rows of five.
_SPLIT_LABEL_BYTES = 3 * 8 * 6 * 8


@pytest.fixture
def batch_layouts(monkeypatch):
    """Run a test body once per batch layout: whole, then split.

    Label blocks double in width (1, 2, 4, ...) up to a cap.  A whole
    test group fits one history window, and its cap is its whole
    budget.  A split batch runs in 2-row windows, and caps every block
    at a few iterations, so only it runs a group in several windows
    and many full-width blocks.
    """
    from repro.runtime.simulator import batched

    def layouts():
        yield "whole"
        monkeypatch.setattr(batched, "_MAX_BATCH_BYTES", 0)
        monkeypatch.setattr(batched, "_LABEL_BLOCK_BYTES", _SPLIT_LABEL_BYTES)
        yield "split"

    return layouts


class TestEligibility:
    def test_engine_exact_is_batchable(self):
        assert batchable(engine_specs()[0])

    def test_flexible_engine_stays_solo(self):
        spec = ScenarioSpec(problem="jacobi", backend="flexible")
        assert not batchable(spec)

    def test_simulator_event_loop_backends_batch(self):
        for backend in ("vectorized", "reference"):
            assert batchable(sim_specs(backend=backend, count=1)[0]), backend

    def test_shared_memory_stays_solo(self):
        spec = ScenarioSpec(
            problem="jacobi", kind="simulator", backend="shared-memory"
        )
        assert not batchable(spec)

    def test_admitted_simulator_set(self):
        # Every machine entry, with no fault or one, on its native
        # channels or one topology, on every machine-kind backend: the
        # batch takes exactly the lockstep machines on the event loops.
        admitted = set()
        for machine in REGISTRY.names("machine"):
            for fault, fault_params in (("none", {}), ("crash-restart", {})):
                for topology in ("native", "ring"):
                    for backend in available_backends("machine"):
                        spec = ScenarioSpec(
                            problem="jacobi", kind="simulator", machine=machine,
                            fault=fault, fault_params=fault_params,
                            topology=topology, backend=backend,
                        )
                        if batchable(spec):
                            admitted.add((machine, fault, topology, backend))
        assert admitted == {
            (machine, "none", "native", backend)
            for machine in ("lockstep", "lockstep-tiered")
            for backend in ("vectorized", "reference")
        }
        assert {
            backend for backend in available_backends("model")
            if batchable(ScenarioSpec(problem="jacobi", backend=backend))
        } == {"exact"}

    def test_unknown_machine_runs_solo(self):
        # Admission cannot raise: the solo row reports the bad name.
        spec, = sim_specs(machine="no-such-machine", count=1)
        assert not batchable(spec)
        batch = run_scenario_batch([spec, dataclasses.replace(spec, seed=1)])
        assert all("no-such-machine" in r.error for r in batch)


#: Base specs (less the seed) for the batch-key tests.
KEY_BASES = {
    "engine": dict(
        problem="jacobi", problem_params={"n": 6},
        steering="random-subset", steering_params={"p": 0.3},
        delays="uniform", delay_params={"bound": 3},
        max_iterations=40, tol=1e-6,
    ),
    "lockstep": dict(
        problem="jacobi", problem_params={"n": 8}, kind="simulator",
        machine="lockstep", machine_params={"latency": 0.05},
        max_iterations=40, tol=1e-6,
    ),
    # Not batchable (a fault and a topology): it varies the fault and
    # topology fields, which no batchable spec sets.
    "simulator": dict(
        problem="jacobi", problem_params={"n": 8}, kind="simulator",
        machine="uniform", machine_params={"latency": 0.05},
        fault="lossy-channel", fault_params={"drop_prob": 0.05},
        topology="ring", topology_params={"latency": 0.05},
        max_iterations=40, tol=1e-6,
    ),
}

#: For every ScenarioSpec field but the seed: a base and a new value.
KEY_VARIANTS = {
    "problem": ("engine", "tridiagonal"),
    "kind": ("engine", "simulator"),
    "problem_params": ("engine", {"n": 7}),
    "steering": ("engine", "all"),
    "steering_params": ("engine", {"p": 0.5}),
    "delays": ("engine", "out-of-order"),
    "delay_params": ("engine", {"bound": 4}),
    "machine": ("lockstep", "lockstep-tiered"),
    "machine_params": ("lockstep", {"latency": 0.1}),
    "fault": ("simulator", "chaos"),
    "fault_params": ("simulator", {"drop_prob": 0.1}),
    "topology": ("simulator", "clique"),
    "topology_params": ("simulator", {"latency": 0.1}),
    "backend": ("lockstep", "reference"),
    "max_iterations": ("engine", 41),
    "tol": ("engine", 1e-2),
}


class TestBatchKey:
    """``batch_key`` is the one key ``_group`` partitions batches on."""

    def test_seed_free_and_stable(self):
        a, b = engine_specs(count=2)
        assert a.seed != b.seed
        assert a.batch_key == b.batch_key
        assert _group([a, b]) == [[0, 1]]

    def test_splits_on_every_model_ingredient(self):
        # Every field but the seed, read from the dataclass: a field
        # added to ScenarioSpec without a variant here fails this test.
        fields = {f.name for f in dataclasses.fields(ScenarioSpec)} - {"seed"}
        assert set(KEY_VARIANTS) == fields
        grouped = set()
        for name, (base, value) in KEY_VARIANTS.items():
            kw = KEY_BASES[base]
            a, b = (ScenarioSpec(**kw, seed=seed) for seed in (1, 2))
            other = ScenarioSpec(**{**kw, name: value}, seed=3)
            assert a.batch_key == b.batch_key != other.batch_key, name
            if batchable(a) and batchable(other):
                assert _group([a, other, b]) == [[0, 2], [1]], name
                grouped.add(name)
        # Every field a batchable spec can vary is also split by _group.
        assert grouped == set(KEY_VARIANTS) - {
            "kind", "fault", "fault_params", "topology", "topology_params",
        }

    def test_mixed_tolerances_match_solo(self):
        # The same three seeds at two tolerances: one batch would stop
        # all six at its head's tolerance.
        specs = [*engine_specs(tol=1e-10, max_iterations=200, count=3),
                 *engine_specs(tol=1e-2, max_iterations=200, count=3)]
        assert _group(specs) == [[0, 1, 2], [3, 4, 5]]
        assert_identical([run_scenario(s) for s in specs],
                         run_fleet(specs, executor="serial").results)


class TestEngineBatchBitIdentity:
    @pytest.mark.parametrize("steering", ["cyclic", "all", "block-cyclic",
                                          "random-subset", "weighted"])
    def test_steering_policies(self, steering):
        assert_batched_identical(engine_specs(steering=steering, bound=2))

    @pytest.mark.parametrize("delays,params", [
        ("zero", {}),
        ("constant", {"delay": 2}),
        ("uniform", {"bound": 3}),
        ("baudet-sqrt", {}),
        ("log-growth", {}),
        ("power", {}),
        ("chaotic", {}),
        ("out-of-order", {}),
        ("shuffled-window", {}),
    ])
    def test_delay_models(self, delays, params, batch_layouts):
        # Shared models label every row from one source; the others
        # draw per row.  Split: windows of 2, 2 and 1 rows.
        for _ in batch_layouts():
            assert_batched_identical(engine_specs(delays=delays, **params))

    def test_budget_exhaustion_tol_zero(self, batch_layouts):
        # tol=0 never converges: every scenario runs out the budget.
        # Split: windows of 2, 2 and 1 rows, label blocks of 1, 2 and 4.
        for _ in batch_layouts():
            batch = assert_batched_identical(
                engine_specs(tol=0.0, max_iterations=7, bound=2)
            )
            assert all(r.iterations == 7 and not r.converged for r in batch)

    def test_divergence_masking_mixed_stopping(self, batch_layouts):
        # A loose tolerance converges scenarios at different j; frozen
        # rows must stop consuming their streams exactly where solo
        # stopped.  Split: four 2-row windows, label blocks of at most
        # three iterations.
        for _ in batch_layouts():
            for delays in ("uniform", "chaotic", "out-of-order"):
                batch = assert_batched_identical(
                    engine_specs(delays=delays, tol=1e-2, max_iterations=200,
                                 bound=2, count=8)
                )
                assert len({r.iterations for r in batch}) > 1, delays

    def test_mixed_groups_and_solo_members_keep_input_order(self):
        specs = (
            engine_specs(delays="zero", count=3)
            + engine_specs(delays="uniform", bound=2, count=3)
            + engine_specs(delays="zero", count=1, seed0=900,
                           max_iterations=41)  # solo group
        )
        specs = [specs[i] for i in (3, 0, 6, 4, 1, 5, 2)]  # interleave
        calls = []
        batch = run_scenario_batch(specs, solo=_spy_solo(calls))
        assert calls == [specs[2].key]  # only the one-spec group ran solo
        assert_identical([run_scenario(s) for s in specs], batch)

    @pytest.mark.parametrize("steering,delays,params,tol", [
        ("cyclic", "constant", {"delay": 2}, 1e-8),
        ("even-odd", "uniform", {"bound": 3}, 0.0),
        ("all", "uniform", {"bound": 2}, 1e-8),
    ])
    def test_long_runs_shared_steering(self, steering, delays, params, tol):
        assert_batched_identical(
            engine_specs(steering=steering, delays=delays, tol=tol,
                         max_iterations=120, **params)
        )

    @pytest.mark.parametrize("problem", ML_FAMILIES)
    def test_forward_backward_operators(self, problem):
        # The prox-gradient families build ForwardBackward operators, not
        # an AffineOperator stack: their own stacked twins run the
        # updates and residuals, and analysis and norms take the generic
        # paths.
        assert_batched_identical(ml_specs(problem))

    @pytest.mark.parametrize("problem", ML_FAMILIES)
    def test_forward_backward_divergence_masking(self, problem, batch_layouts):
        # Rows stop at different j, so the twins see live-row subsets.
        for _ in batch_layouts():
            batch = assert_batched_identical(
                ml_specs(problem, delays="uniform", bound=2, tol=1e-3,
                         max_iterations=300, count=6)
            )
            assert len({r.iterations for r in batch}) > 1
            assert any(r.converged for r in batch)

    @pytest.mark.parametrize("problem", ML_FAMILIES)
    def test_forward_backward_random_subset_steering(self, problem):
        # Per-scenario active sets: each block runs on its own row subset.
        assert_batched_identical(ml_specs(problem, steering="random-subset", count=4))


class TestLockstepBatchBitIdentity:
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_event_loop_twins(self, backend):
        assert_batched_identical(sim_specs(backend=backend))

    @pytest.mark.parametrize("mp", [
        {"n_processors": 1},
        {"n_processors": 3, "compute": 2.0, "latency": 0.5},
        {"n_processors": 6},
    ])
    def test_machine_shapes(self, mp):
        assert_batched_identical(sim_specs(machine_params=mp))

    @pytest.mark.parametrize("tol,max_iterations", [
        (0.0, 40),       # budget exhaustion
        (1e-6, 41),      # budget not divisible by the residual cadence
        (1e-2, 200),     # early convergence at scattered commits
    ])
    def test_stopping_regimes(self, tol, max_iterations, batch_layouts):
        # Split: two 2-row windows, each with its own history ring.
        for _ in batch_layouts():
            assert_batched_identical(sim_specs(tol=tol, max_iterations=max_iterations))

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
        batch = assert_batched_identical(specs)
        if tol > 0.0:
            assert len({r.iterations for r in batch}) > 1

    def test_message_stats_match_event_loop(self):
        specs = sim_specs(count=2)
        for r in run_scenario_batch(specs):
            assert set(r.info) == {"messages_sent", "messages_dropped",
                                   "phases_completed"}

    def test_incompatible_machine_falls_back_to_solo(self):
        # Stochastic timing cannot run as lockstep rounds: the group is
        # not batchable, runs solo and still matches it.
        specs = sim_specs(machine="uniform")
        batch = run_scenario_batch(specs)
        assert all(r.error is None for r in batch)
        assert_identical([run_scenario(s) for s in specs], batch)


class TestLockstepPlanValidation:
    """The lockstep factory validates its own timing: no code checks a
    built machine at run time (the registry contract does, in tests)."""

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
        # One bad grid point cannot sink its chunk: its steering params
        # and budget put it in a group of its own, which runs solo, and
        # the crash is captured per scenario.
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


class TestBatchErrors:
    """An admitted group whose batch raises is rerun solo: one error
    row per spec, each equal to the solo row's."""

    CASES = {
        # The lockstep factory rejects latency >= compute.
        "lockstep-latency": lambda: sim_specs(
            machine_params={"latency": 2.0}, count=3
        ),
        # The cyclic steering factory takes no `k`.
        "engine-steering-param": lambda: [
            dataclasses.replace(s, steering_params={"k": 99})
            for s in engine_specs(count=3)
        ],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_rows_match_solo(self, case, monkeypatch):
        from repro.runtime.simulator import batched

        raised = []
        run_batch = batched._run_batch

        def spy(group):
            try:
                return run_batch(group)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(batched, "_run_batch", spy)
        specs = self.CASES[case]()
        assert _group(specs) == [[0, 1, 2]]
        want = [run_scenario(s).error for s in specs]
        assert all(want)
        assert [r.error for r in run_scenario_batch(specs)] == want
        fleet = run_fleet(specs, executor="serial")
        assert [r.error for r in fleet.results] == want
        # Both calls entered the batch, which raised what solo reports.
        assert [repr(exc) for exc in raised] == want[:1] * 2


class TestWidenedWhitelist:
    """ISSUE 7: new fast-path admissions, each pinned by bit-identity."""

    @pytest.mark.parametrize("steering", ["even-odd"])
    @pytest.mark.parametrize("delays,params", [
        ("uniform", {"bound": 2}), ("log-growth", {}), ("power", {}),
    ])
    def test_new_engine_admissions_bit_identical(self, steering, delays, params):
        assert_batched_identical(
            engine_specs(steering=steering, delays=delays, **params)
        )

    @pytest.mark.parametrize("delays", ["log-growth", "power"])
    def test_deterministic_delay_growth_families(self, delays):
        assert_batched_identical(
            engine_specs(steering="cyclic", delays=delays, max_iterations=80)
        )

    def test_lockstep_tiered_machine_bit_identical(self):
        assert_batched_identical(
            sim_specs(machine="lockstep-tiered", machine_params={"tiers": 2},
                      max_iterations=60)
        )

    def test_lockstep_tiered_tol_zero(self):
        assert_batched_identical(
            sim_specs(machine="lockstep-tiered",
                      machine_params={"tiers": 3, "latency": 0.02},
                      tol=0.0, max_iterations=33)
        )


#: Small instances of the families the differential draws cover.
SMALL_PROBLEMS = {
    "jacobi": {"n": 6},
    "tridiagonal": {"n": 6},
    "lasso": {"n_samples": 10, "n_features": 5},
    "ridge": {"n_samples": 10, "n_features": 5},
    "logistic": {"n_samples": 10, "n_features": 5},
}


class TestDifferential:
    """Seeded draws over the registry: the one executor equals solo on
    every result field, three seeds per draw, with no solo call."""

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        steering=st.sampled_from(REGISTRY.names("steering")),
        delays=st.sampled_from(REGISTRY.names("delays")),
        problem=st.sampled_from(sorted(SMALL_PROBLEMS)),
        max_iterations=st.integers(1, 60),
        tol=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_engine_draws(self, steering, delays, problem, max_iterations, tol, seed):
        assert_batched_identical([
            ScenarioSpec(problem=problem, problem_params=SMALL_PROBLEMS[problem],
                         steering=steering, delays=delays,
                         max_iterations=max_iterations, tol=tol, seed=seed + k)
            for k in range(3)
        ])

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        machine=st.sampled_from(
            [e.name for e in REGISTRY.entries("machine") if e.shared]
        ),
        n_processors=st.integers(1, 5),
        tiers=st.integers(1, 3),
        latency=st.sampled_from([0.01, 0.3, 0.9]),
        problem=st.sampled_from(["jacobi", "tridiagonal", "lasso"]),
        max_iterations=st.integers(1, 70),
        tol=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_draws(self, machine, n_processors, tiers, latency, problem,
                            max_iterations, tol, seed):
        params = {"n_processors": n_processors, "latency": latency}
        if "tiers" in REGISTRY.get("machine", machine).defaults:
            params["tiers"] = tiers
        assert_batched_identical([
            ScenarioSpec(problem=problem, problem_params=SMALL_PROBLEMS[problem],
                         kind="simulator", machine=machine, machine_params=params,
                         max_iterations=max_iterations, tol=tol, seed=seed + k)
            for k in range(3)
        ])


class TestLongLockstepMemory:
    def test_history_is_a_ring(self):
        # A lockstep phase reads a bounded number of commits back, so a
        # long budget must not allocate the (J+1, B, dim) history slab.
        import tracemalloc

        J, B, n = 3000, 4, 64
        kw = dict(machine="lockstep-tiered", machine_params={"n_processors": 8},
                  n=n, count=B, tol=0.0)
        run_scenario_batch(sim_specs(max_iterations=10, **kw))  # warm imports
        specs = sim_specs(max_iterations=J, **kw)
        calls = []
        tracemalloc.start()
        try:
            batch = run_scenario_batch(specs, solo=_spy_solo(calls))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not calls, f"fell back to solo for {calls}"
        assert all(r.iterations == J for r in batch)
        assert peak < (J + 1) * B * n * 8 / 2


class TestLongEngineMemory:
    @pytest.mark.parametrize("delays", ["uniform", "zero", "power", "baudet-sqrt"])
    def test_history_is_a_ring(self, delays):
        # A delay model that states max_delay(J) = D lets a label read
        # at most D + 1 iterates back, so a long budget must not
        # allocate the (J+1, B, dim) history slab.
        import tracemalloc

        J, B, n = 3000, 4, 64
        kw = dict(delays=delays, n=n, count=B, tol=0.0)
        run_scenario_batch(engine_specs(max_iterations=10, **kw))  # warm imports
        specs = engine_specs(max_iterations=J, **kw)
        calls = []
        tracemalloc.start()
        try:
            batch = run_scenario_batch(specs, solo=_spy_solo(calls))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not calls, f"fell back to solo for {calls}"
        assert all(r.iterations == J for r in batch)
        assert peak < (J + 1) * B * n * 8 / 2

    @pytest.mark.parametrize("delays", [
        "power", "log-growth", "baudet-sqrt", "out-of-order", "shuffled-window",
    ])
    def test_shallow_ring_matches_solo(self, delays, batch_layouts):
        # The ring wraps several times before the rows stop, at
        # different j, most of them mid-block.
        from repro.runtime.simulator.batched import _engine_schedule

        J = 300
        specs = engine_specs(delays=delays, max_iterations=J, count=8)
        block = specs[0].build_problem().block_spec
        assert 2 * _engine_schedule(specs, block).depth < J + 1
        for _ in batch_layouts():
            batch = assert_batched_identical(specs)
            assert len({r.iterations for r in batch}) > 1
            assert any(r.converged for r in batch)


class TestBuildBatchGolden:
    """ISSUE 7 satellite: batch-constructed problems are bit-identical
    to N solo builds — per scenario, including N=1 chunks and parameter
    dicts mixing int and float dtypes."""

    CASES = [
        ("jacobi", {"n": 7, "dominance": 0.35}),
        ("lasso", {"n_samples": 12, "n_features": 6, "l1": 0.05}),
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

    @pytest.mark.parametrize("problem,params", [
        ("tridiagonal", {"n": 6, "off_diag": -0.8}),
        ("ridge", {"n_samples": 10, "n_features": 5, "l2": 0.2}),
    ])
    @pytest.mark.parametrize("count", [1, 4])
    def test_group_without_a_twin_builds_per_spec(self, problem, params, count):
        # A batched group of a family with no batched builder builds one
        # spec at a time, each from its own problem stream.
        from repro.runtime.simulator.batched import _build_problems
        from repro.scenarios.registry import build_batch, has_batch_factory

        specs = [
            ScenarioSpec(problem=problem, problem_params=params,
                         max_iterations=5, tol=0.0, seed=900 + k)
            for k in range(count)
        ]
        assert not has_batch_factory(problem)
        assert build_batch(specs) is None
        ops = _build_problems(specs)
        assert len(ops) == count
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
