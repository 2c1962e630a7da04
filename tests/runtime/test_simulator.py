"""Tests for the discrete-event distributed simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.macro import macro_sequence
from repro.problems import make_jacobi_instance
from repro.runtime.simulator import (
    ChannelSpec,
    ConstantTime,
    DistributedSimulator,
    LinearGrowthTime,
    ProcessorSpec,
    ReferenceSimulator,
    UniformTime,
    uniform_cluster,
    wide_area_network,
)


@pytest.fixture
def op8():
    return make_jacobi_instance(8, dominance=0.4, seed=3)


def two_procs(op, **kw):
    n = op.n_components
    half = n // 2
    return [
        ProcessorSpec(components=tuple(range(half)), **kw),
        ProcessorSpec(components=tuple(range(half, n)), **kw),
    ]


class TestProcessorSpec:
    def test_components_sorted_deduped(self):
        spec = ProcessorSpec(components=(3, 1, 2))
        assert spec.components == (1, 2, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ProcessorSpec(components=(1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProcessorSpec(components=())

    def test_partials_require_inner_steps(self):
        with pytest.raises(ValueError):
            ProcessorSpec(components=(0,), publish_partials=True, inner_steps=1)

    def test_flexible_flag(self):
        assert ProcessorSpec(components=(0,), refresh_reads=True).flexible
        assert not ProcessorSpec(components=(0,)).flexible


class TestSimulatorBasics:
    def test_partition_must_cover(self, op8):
        with pytest.raises(ValueError, match="partition"):
            DistributedSimulator(op8, [ProcessorSpec(components=(0, 1))])

    def test_converges_to_fixed_point(self, op8):
        sim = DistributedSimulator(op8, two_procs(op8), seed=1)
        res = sim.run(np.zeros(8), max_iterations=3000, tol=1e-12, residual_every=5)
        assert res.converged
        fp = op8.fixed_point()
        assert np.max(np.abs(res.x - fp)) < 1e-9

    def test_deterministic(self, op8):
        def run():
            sim = DistributedSimulator(op8, two_procs(op8), seed=7)
            return sim.run(np.zeros(8), max_iterations=200, tol=0.0)

        a, b = run(), run()
        np.testing.assert_array_equal(a.x, b.x)
        assert a.final_time == b.final_time
        assert len(a.messages) == len(b.messages)

    def test_trace_admissible(self, op8):
        sim = DistributedSimulator(
            op8,
            two_procs(op8, compute_time=UniformTime(0.5, 2.0)),
            channels=ChannelSpec(latency=UniformTime(0.05, 0.5), fifo=False),
            seed=2,
        )
        res = sim.run(np.zeros(8), max_iterations=500, tol=0.0)
        rep = res.trace.admissibility()
        assert rep.condition_a
        assert rep.plausibly_admissible

    def test_owners_recorded(self, op8):
        sim = DistributedSimulator(op8, two_procs(op8), seed=3)
        res = sim.run(np.zeros(8), max_iterations=50, tol=0.0)
        np.testing.assert_array_equal(res.trace.owners, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_phase_records_consistent(self, op8):
        sim = DistributedSimulator(op8, two_procs(op8), seed=4)
        res = sim.run(np.zeros(8), max_iterations=60, tol=0.0)
        assert len(res.phases) == res.trace.n_iterations
        # iterations numbered in completion-time order
        ends = [p.end for p in res.phases]
        assert all(b >= a - 1e-12 for a, b in zip(ends, ends[1:]))
        iters = [p.iteration for p in res.phases]
        assert iters == list(range(1, len(iters) + 1))

    def test_times_in_trace_match_phases(self, op8):
        sim = DistributedSimulator(op8, two_procs(op8), seed=5)
        res = sim.run(np.zeros(8), max_iterations=40, tol=0.0)
        np.testing.assert_allclose(res.trace.times, [p.end for p in res.phases])

    def test_max_time_stops(self, op8):
        sim = DistributedSimulator(
            op8, two_procs(op8, compute_time=ConstantTime(1.0)), seed=6
        )
        res = sim.run(np.zeros(8), max_iterations=10_000, max_time=10.0, tol=0.0)
        assert res.final_time <= 10.0
        assert all(p.end <= 10.0 + 1e-9 for p in res.phases)


class TestRepeatedRuns:
    """Every ``run()`` starts from empty channels, so on a machine whose
    timing draws nothing a second run on one instance repeats the first."""

    @pytest.mark.parametrize(
        "cls", [DistributedSimulator, ReferenceSimulator],
        ids=["vectorized", "reference"],
    )
    def test_second_run_repeats_the_first(self, cls):
        from repro.scenarios.registry import make_machine, make_problem

        op = make_problem("jacobi", 0, n=8)
        procs, channels = make_machine("lockstep", op.n_components, 0, n_processors=4)
        sim = cls(op, procs, channels=channels, seed=1)
        a, b = (sim.run(np.zeros(op.dim), max_iterations=60) for _ in range(2))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.trace.labels, b.trace.labels)
        assert a.trace.active_sets == b.trace.active_sets
        np.testing.assert_array_equal(a.trace.times, b.trace.times)
        assert a.final_time == b.final_time
        assert a.stats["messages_sent"] == b.stats["messages_sent"]


class TestLoadImbalance:
    def test_fast_processor_updates_more(self, op8):
        procs = [
            ProcessorSpec(components=(0, 1, 2, 3), compute_time=ConstantTime(1.0)),
            ProcessorSpec(components=(4, 5, 6, 7), compute_time=ConstantTime(5.0)),
        ]
        sim = DistributedSimulator(op8, procs, seed=7)
        res = sim.run(np.zeros(8), max_iterations=120, tol=0.0)
        counts = res.updates_per_processor()
        assert counts[0] > 3 * counts[1]

    def test_baudet_delays_grow_unboundedly(self, op8):
        procs = [
            ProcessorSpec(components=(0, 1, 2, 3), compute_time=ConstantTime(1.0)),
            ProcessorSpec(components=(4, 5, 6, 7), compute_time=LinearGrowthTime(1.0)),
        ]
        sim = DistributedSimulator(
            op8, procs, channels=ChannelSpec(latency=ConstantTime(0.01)), seed=8
        )
        res = sim.run(np.zeros(8), max_iterations=2000, tol=0.0)
        delays = res.trace.delays()
        # staleness of the slow processor's components keeps growing
        first_half = delays[: 1000, 4].max()
        second_half = delays[1000:, 4].max()
        assert second_half > first_half


class TestCommunicationModes:
    def test_dropped_messages_counted(self, op8):
        sim = DistributedSimulator(
            op8,
            two_procs(op8),
            channels=ChannelSpec(latency=ConstantTime(0.1), drop_prob=0.4),
            seed=9,
        )
        res = sim.run(np.zeros(8), max_iterations=300, tol=0.0)
        stats = res.message_stats()
        assert stats["dropped"] > 0
        assert res.stats["messages_dropped"] == stats["dropped"]

    def test_convergence_despite_drops(self, op8):
        sim = DistributedSimulator(
            op8,
            two_procs(op8),
            channels=ChannelSpec(latency=ConstantTime(0.1), drop_prob=0.3),
            seed=10,
        )
        res = sim.run(np.zeros(8), max_iterations=5000, tol=1e-11, residual_every=10)
        assert res.converged

    def test_overwrite_mode_produces_non_monotone_labels(self, op8):
        sim = DistributedSimulator(
            op8,
            two_procs(op8, compute_time=UniformTime(0.5, 1.5)),
            channels=ChannelSpec(
                latency=UniformTime(0.1, 3.0), fifo=False, apply="overwrite"
            ),
            seed=11,
        )
        res = sim.run(np.zeros(8), max_iterations=1500, tol=0.0)
        assert not res.trace.admissibility().monotone
        # and still converges (totally asynchronous regime)
        assert res.final_residual < 1e-3

    def test_reordered_arrivals_detected(self, op8):
        sim = DistributedSimulator(
            op8,
            two_procs(op8, compute_time=UniformTime(0.2, 1.0)),
            channels=ChannelSpec(latency=UniformTime(0.05, 2.0), fifo=False),
            seed=12,
        )
        res = sim.run(np.zeros(8), max_iterations=500, tol=0.0)
        assert res.message_stats()["reordered_arrivals"] > 0


class TestFlexibleCommunication:
    def test_partials_sent_and_marked(self, op8):
        procs = two_procs(
            op8,
            compute_time=ConstantTime(1.0),
            inner_steps=4,
            publish_partials=True,
        )
        sim = DistributedSimulator(op8, procs, seed=13)
        res = sim.run(np.zeros(8), max_iterations=100, tol=0.0)
        stats = res.message_stats()
        assert stats["partial"] > 0
        # 3 partials per phase per component per peer, 1 full each
        assert stats["partial"] >= stats["total"] * 0.5

    def test_flexible_converges(self, op8):
        procs = two_procs(
            op8,
            compute_time=UniformTime(0.5, 2.0),
            inner_steps=3,
            publish_partials=True,
            refresh_reads=True,
        )
        sim = DistributedSimulator(
            op8, procs, channels=ChannelSpec(latency=UniformTime(0.05, 0.4), fifo=False), seed=14
        )
        res = sim.run(np.zeros(8), max_iterations=3000, tol=1e-11, residual_every=5)
        assert res.converged
        assert np.max(np.abs(res.x - op8.fixed_point())) < 1e-9

    def test_inner_steps_recorded_in_phases(self, op8):
        procs = two_procs(op8, inner_steps=5)
        sim = DistributedSimulator(op8, procs, seed=15)
        res = sim.run(np.zeros(8), max_iterations=20, tol=0.0)
        assert all(p.inner_steps == 5 for p in res.phases)

    def test_macro_sequence_computable_on_flexible_run(self, op8):
        procs = two_procs(op8, inner_steps=2, publish_partials=True, refresh_reads=True)
        sim = DistributedSimulator(op8, procs, seed=16)
        res = sim.run(np.zeros(8), max_iterations=400, tol=0.0)
        ms = macro_sequence(res.trace)
        assert ms.count > 0


class TestNetworkPresets:
    def test_uniform_cluster_jitter_disables_fifo(self):
        net = uniform_cluster(2, latency=0.1, jitter=0.2)
        assert not net[(0, 1)].fifo

    def test_wan_heterogeneous(self):
        net = wide_area_network(3, seed=0)
        lats = {pair: spec.latency.mean() for pair, spec in net.items()}
        assert len(set(round(v, 6) for v in lats.values())) > 1

    def test_presets_usable_in_simulator(self, op8):
        sim = DistributedSimulator(
            op8, two_procs(op8), channels=wide_area_network(2, seed=1), seed=17
        )
        res = sim.run(np.zeros(8), max_iterations=2000, tol=1e-9, residual_every=10)
        assert res.converged
