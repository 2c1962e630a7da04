"""Fault-injection subsystem: determinism, admissibility, persistence.

The contracts this file pins:

1. every fault model replays bit-identically on the vectorized and
   reference engines (the fault layer cannot reintroduce engine drift);
2. a present-but-inert fault model leaves results bit-identical to
   ``faults=None`` — the model draws from its own RNG streams, so the
   layer's *existence* never perturbs the machine's randomness;
3. fault-induced ``(S, L)`` traces stay admissible in the paper's
   sense (condition (a), no abandoned component) — crashes, limping
   and drops produce unbounded-delay regimes, not broken ones
   (property-based, via hypothesis);
4. fault-log counters flow through ``ScenarioResult.info``, survive
   the strict-JSON round-trip and come back out of a packed
   :class:`~repro.runtime.sweep_store.SweepStore`;
5. the batched lockstep engine rejects fault-bearing groups with a
   *named* :class:`LockstepIncompatible` and the solo fallback still
   executes the faults exactly;
6. a fault sweep killed midway and resumed reproduces the
   uninterrupted store digest bit for bit, on every executor.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.delays.admissibility import check_admissibility
from repro.operators.linear import jacobi_operator
from repro.problems.linear_system import tridiagonal_system
from repro.runtime.fleet import ScenarioResult, run_grid, run_scenario
from repro.runtime.simulator import (
    ChannelSpec,
    ChaosFault,
    ConstantTime,
    CrashRestart,
    DistributedSimulator,
    Limplock,
    LockstepIncompatible,
    LossyChannel,
    ProcessorSpec,
    ReferenceSimulator,
    ReorderingChannel,
    UniformTime,
    run_scenario_batch,
)
from repro.runtime.simulator.faults import FaultState, max_staleness
from repro.runtime.sweep_store import SweepStore
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec

settings.register_profile("repro-faults", deadline=None, max_examples=12)
settings.load_profile("repro-faults")


MODELS = {
    "crash-restart": lambda: CrashRestart(crash_rate=0.03, repair_mean=3.0, seed=7),
    "limplock": lambda: Limplock(straggler=1, factor=6.0, seed=7),
    "limplock-episodic": lambda: Limplock(
        straggler=1, factor=6.0, episodic=True, episode_prob=0.4, seed=7
    ),
    "lossy": lambda: LossyChannel(drop_prob=0.15, seed=7),
    "reordering": lambda: ReorderingChannel(delay_prob=0.4, extra_mean=0.8, seed=7),
    "chaos": lambda: ChaosFault(
        crash_rate=0.02, repair_mean=3.0, straggler=2, limp_factor=3.0,
        drop_prob=0.1, extra_mean=0.4, seed=7,
    ),
}


def _operator(n: int = 16):
    M, c = tridiagonal_system(n, off_diag=-1.0, diag=2.3, seed=1)
    return jacobi_operator(M, c)


def _run(cls, faults, *, seed: int = 42, max_iterations: int = 200):
    op = _operator()
    procs = [
        ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=UniformTime(0.8, 1.2))
        for i in range(8)
    ]
    chan = ChannelSpec(latency=ConstantTime(0.05))
    sim = cls(op, procs, channels=chan, seed=seed, faults=faults)
    return sim.run(
        np.zeros(op.dim), max_iterations=max_iterations, tol=1e-10, residual_every=5
    )


class TestCrossEngineBitIdentity:
    """Every fault model replays identically on both engines."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_engines_agree(self, name):
        a = _run(DistributedSimulator, MODELS[name]())
        b = _run(ReferenceSimulator, MODELS[name]())
        assert np.array_equal(a.x, b.x), name
        assert np.array_equal(a.trace.labels, b.trace.labels), name
        assert a.trace.active_sets == b.trace.active_sets, name
        assert a.final_time == b.final_time, name
        assert a.stats == b.stats, name

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_same_seed_same_run(self, name):
        a = _run(DistributedSimulator, MODELS[name]())
        b = _run(DistributedSimulator, MODELS[name]())
        assert np.array_equal(a.x, b.x) and a.final_time == b.final_time

    def test_fault_stats_present_and_integral(self):
        res = _run(DistributedSimulator, MODELS["chaos"]())
        for key in ("fault_crashes", "fault_repairs", "fault_drops",
                    "fault_downtime_drops", "fault_limp_episodes",
                    "fault_max_staleness"):
            assert isinstance(res.stats[key], int), key
            assert res.stats[key] >= 0, key
        assert res.stats["fault_limp_episodes"] > 0


class TestStreamIsolation:
    """The fault layer's own RNG never touches the machine's streams."""

    def test_inert_model_is_bit_identical_to_no_faults(self):
        # crash_rate=0 still burns three fault-stream uniforms per
        # phase but can never fire; the run must equal faults=None.
        inert = CrashRestart(crash_rate=0.0, repair_mean=1.0, seed=123)
        a = _run(DistributedSimulator, inert)
        b = _run(DistributedSimulator, None)
        assert np.array_equal(a.x, b.x)
        assert a.final_time == b.final_time
        assert np.array_equal(a.trace.labels, b.trace.labels)

    def test_fault_seed_changes_run_machine_seed_fixed(self):
        a = _run(DistributedSimulator, CrashRestart(crash_rate=0.05, seed=1))
        b = _run(DistributedSimulator, CrashRestart(crash_rate=0.05, seed=2))
        assert not np.array_equal(a.x, b.x)

    def test_fault_state_start_is_idempotent(self):
        model = LossyChannel(drop_prob=0.5, seed=9)
        s1 = FaultState(model, 4)
        s2 = FaultState(model, 4)
        drop1, _ = s1.message_fates(0, 1, 8)
        drop2, _ = s2.message_fates(0, 1, 8)
        assert np.array_equal(drop1, drop2)


class TestFaultAdmissibility:
    """Fault-induced (S, L) traces stay admissible: condition (a) holds
    and no component is abandoned — injected faults realize the paper's
    unbounded-delay regimes rather than violating Definition 1."""

    @given(
        crash_rate=st.floats(0.0, 0.08),
        drop_prob=st.floats(0.0, 0.3),
        limp_factor=st.floats(1.0, 6.0),
        seed=st.integers(0, 2**31 - 1),
    )
    # In 120 iterations the limping processor 0 never completed a phase
    # here, so components 0 and 1 were never updated.
    @example(crash_rate=0.08, drop_prob=0.0, limp_factor=4.0, seed=578814825)
    def test_trace_admissible_under_chaos(self, crash_rate, drop_prob,
                                          limp_factor, seed):
        faults = ChaosFault(
            crash_rate=crash_rate, repair_mean=2.0, straggler=0,
            limp_factor=limp_factor, drop_prob=drop_prob, extra_mean=0.3,
            seed=seed,
        )
        # The horizon must let the straggler finish a phase despite
        # crashes: at the worst corner (crash_rate 0.08, limp_factor 6)
        # processor 0 missed every phase in 7.7% of 300 random seeds at
        # 120 iterations, 0.2% of 2000 at 240, and 0 of 3000 at 480.
        res = _run(DistributedSimulator, faults, max_iterations=480)
        t = res.trace
        report = check_admissibility(t.active_sets, t.labels, t.labels.shape[1])
        assert report.condition_a
        assert report.updated_in_final_window
        assert report.max_delay <= t.n_iterations - 1
        staleness = max_staleness(t)
        assert 0 <= staleness <= t.n_iterations
        assert res.stats.get("fault_max_staleness", staleness) == staleness


def _fault_spec(**overrides) -> ScenarioSpec:
    base = dict(
        problem="jacobi",
        problem_params={"n": 8},
        kind="simulator",
        machine="uniform",
        machine_params={"n_processors": 4},
        fault="chaos",
        fault_params={"crash_rate": 0.02, "straggler": 1},
        seed=5,
        max_iterations=300,
        tol=1e-8,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestFaultInfoPersistence:
    """Fault-log counters survive ScenarioResult JSON and the packed store."""

    def test_scenario_result_roundtrip_strict_json(self):
        res = run_scenario(_fault_spec())
        assert res.error is None
        assert res.info["fault_limp_episodes"] > 0
        doc = json.loads(json.dumps(res.to_json_dict()))  # strict JSON
        back = ScenarioResult.from_json_dict(doc)
        assert back.spec.content_hash == res.spec.content_hash
        for key in ("fault_crashes", "fault_drops", "fault_limp_episodes",
                    "fault_max_staleness"):
            assert back.info[key] == res.info[key], key

    def test_packed_store_carries_counters(self, tmp_path):
        specs = ScenarioGrid(
            problems=(("jacobi", {"n": 8}),),
            kind="simulator",
            machines=(("uniform", {"n_processors": 4}),),
            faults=("none", ("chaos", {"crash_rate": 0.02, "straggler": 1})),
            n_seeds=2,
            max_iterations=300,
        ).expand()
        store = SweepStore(tmp_path / "store")
        run_grid(specs, store=store, executor="serial")
        fleet = store.fleet_result()
        by_fault = {}
        for r in fleet.results:
            by_fault.setdefault(r.spec.fault, []).append(r)
        assert all(r.info.get("fault_drops", 0) == 0 for r in by_fault["none"])
        assert any(r.info["fault_drops"] > 0 for r in by_fault["chaos"])
        # Counter columns ride in the packed batches without moving
        # the digest inputs (hash + digest_json only).
        assert len(store.digest()) == 64


class TestBatchedRejection:
    """Fault-bearing lockstep groups are rejected by name, then run solo."""

    def _lockstep_specs(self, fault="lossy-channel", n=3):
        return [
            _fault_spec(
                machine="lockstep",
                machine_params={"n_processors": 4},
                fault=fault,
                fault_params={"drop_prob": 0.1},
                seed=s,
                max_iterations=120,
            )
            for s in range(n)
        ]

    def test_named_lockstep_incompatible(self):
        from repro.runtime.simulator.batched import _run_lockstep_batch

        specs = self._lockstep_specs()
        with pytest.raises(LockstepIncompatible) as exc:
            _run_lockstep_batch(specs)
        msg = str(exc.value)
        assert specs[0].key in msg  # names the offender
        assert "admissible" in msg  # and the admissible alternatives

    def test_topology_rejected_by_name(self):
        from repro.runtime.simulator.batched import _run_lockstep_batch

        specs = [
            _fault_spec(
                machine="lockstep", machine_params={"n_processors": 4},
                fault="none", fault_params={}, topology="ring",
                topology_params={}, seed=s, max_iterations=120,
            )
            for s in range(3)
        ]
        with pytest.raises(LockstepIncompatible, match="topology"):
            _run_lockstep_batch(specs)

    def test_batch_falls_back_to_solo_bit_identically(self):
        specs = self._lockstep_specs()
        batch_results = run_scenario_batch(specs)
        solo_results = [run_scenario(s) for s in specs]
        for got, want in zip(batch_results, solo_results):
            assert got.error is None
            assert got.iterations == want.iterations
            assert got.final_residual == want.final_residual
            assert got.info == want.info


@pytest.mark.parametrize("executor", ("serial", "thread", "process"))
class TestKillResumeDigest:
    """An interrupted fault sweep resumes to the uninterrupted digest."""

    def _grid(self):
        return ScenarioGrid(
            problems=(("jacobi", {"n": 8}),),
            kind="simulator",
            machines=(("uniform", {"n_processors": 4}),),
            faults=(
                "none",
                ("crash-restart", {"crash_rate": 0.03}),
                ("lossy-channel", {"drop_prob": 0.1}),
            ),
            topologies=("native", "ring"),
            n_seeds=2,
            max_iterations=200,
        )

    def test_resume_matches_uninterrupted(self, tmp_path, executor):
        specs = self._grid().expand()
        full = SweepStore(tmp_path / "full")
        run_grid(specs, store=full, executor=executor, max_workers=2)

        interrupted = SweepStore(tmp_path / "partial")
        run_grid(specs[: len(specs) // 2], store=interrupted,
                 executor=executor, max_workers=2)
        assert interrupted.digest() != full.digest()
        run_grid(specs, resume=interrupted, executor=executor, max_workers=2)
        assert interrupted.digest() == full.digest()
