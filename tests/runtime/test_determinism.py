"""Determinism regression: the vectorized simulator is bit-identical to the seed.

The golden SHA-256 digests below were captured from the ORIGINAL
(pre-vectorization) ``DistributedSimulator`` event loop — the
implementation now frozen as
:class:`~repro.runtime.simulator.reference.ReferenceSimulator`.  Three
layers of protection:

1. golden digests: the vectorized engine must reproduce the seed's
   exact traces on four channel/delay regimes (FIFO constant latency,
   lossy reordering, overwrite out-of-order, flexible communication);
2. engine equivalence: vectorized and reference runs are compared
   field by field (labels, active sets, iterates, series, times,
   messages) on the same regimes, on regimes that reach each fan-out
   branch and loop kernel, with the message log on and off, and on
   seeded draws over the registry's problems, machines, faults and
   topologies;
3. stream equivalence: the batched channel/timing draws the vectorized
   engine relies on consume the RNG exactly like sequential draws.

Beside them, ``FLEX_GOLDEN`` pins the mathematical engine's Definition
3 path: three ``flexible``-backend runs with partial updates, their
constraint-(3) audit counters included.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.operators.linear import jacobi_operator
from repro.problems.linear_system import tridiagonal_system
from repro.runtime.simulator import (
    ChannelSpec,
    ConstantTime,
    CrashRestart,
    DistributedSimulator,
    ExponentialTime,
    ParetoTime,
    ProcessorSpec,
    ReferenceSimulator,
    UniformTime,
)
from repro.runtime.simulator.channel import ChannelState
from repro.runtime.simulator.timing import LinearGrowthTime
from repro.scenarios.registry import REGISTRY, make_problem
from repro.scenarios.spec import ScenarioSpec
from repro.utils.norms import BlockSpec

# Captured 2026-07-26 from the seed implementation (commit f53ece5),
# BEFORE any engine change: python minor 3.11, numpy 2.4, linux x86-64.
GOLDEN = {
    "fifo_constant": {
        "sha256": "44c57bede87a5dced66084fefbacf1f5d8af1d9e9fa3e3954a7f1d6ae5d97968",
        "n_iterations": 400,
        "final_time": 50.653217849793876,
        "final_residual": 7.276121121488982e-05,
        "x0": 0.47266850718361497,
        "messages": 5600,
        "converged": False,
    },
    "lossy_reordering": {
        "sha256": "6929644d5bb5e29d702c41ca76aca7b5ff6333db3fa5c2a6ad955f3a561905ea",
        "n_iterations": 400,
        "final_time": 50.99822650148797,
        "final_residual": 0.0006681002761438348,
        "x0": 0.4721792675547255,
        "messages": 5600,
        "converged": False,
    },
    "overwrite_pareto": {
        "sha256": "51842910ab828d23855d6c569a55173609d84913cf80560fe1e5fc673f5f8eb4",
        "n_iterations": 400,
        "final_time": 42.44343522021029,
        "final_residual": 0.0003076872069394239,
        "x0": 0.47249326540088943,
        "messages": 5600,
        "converged": False,
    },
    "flexible": {
        "sha256": "403d83cd0ab3683133a221bad2bd3489460e9ab021bb7ac33aaa8d3b2d7efd7c",
        "n_iterations": 145,
        "final_time": 37.337137653804845,
        "final_residual": 5.896468375261031e-11,
        "x0": 0.47273150265750763,
        "messages": 5244,
        "converged": True,
    },
}

REGIMES = tuple(GOLDEN)

#: Regimes without goldens, compared engine against reference only.
#: Each reaches one routing branch of the vectorized engine's burst
#: sends: a fan-out to all peers scattered through index arrays
#: (owned components not contiguous), a fan-out under ``overwrite``,
#: and per-destination events when a sender's destinations do not
#: share one arrival instant or one apply policy.
FAN_REGIMES = ("noncontiguous", "overwrite_constant", "split_arrivals", "mixed_apply")

#: Published partials on reordering channels: a partial carrying label
#: ``j`` can reach a peer before the message of commit ``j`` does, and
#: the tag check must then keep the (fresher) partial.
PARTIAL_REGIMES = ("partials_reordering",)

#: Regimes that reach the vectorized loop's per-processor kernels: the
#: Gauss-Seidel sweep of a block (non-scalar) affine operator and of a
#: non-affine operator (the default ``apply_block`` loop), the one-arrival
#: fan-out on non-FIFO constant latency and on a per-pair map of equal
#: constant latencies, fan-outs while crashed processors are down, and a
#: second ``run()`` on one instance, whose channels start empty again
#: while every processor and channel RNG stream continues where the
#: first run left it.
KERNEL_REGIMES = (
    "block_affine", "lasso_sweep", "nonfifo_constant", "pair_map_constant",
    "crash_fan_out", "second_run",
)


def _make_operator(n: int = 16):
    M, c = tridiagonal_system(n, off_diag=-1.0, diag=2.3, seed=1)
    return jacobi_operator(M, c)


def _flexible_procs(groups, inner_steps=3):
    return [
        ProcessorSpec(
            components=comps,
            compute_time=UniformTime(0.5, 1.5),
            inner_steps=inner_steps,
            publish_partials=True,
            refresh_reads=True,
        )
        for comps in groups
    ]


def _build(regime: str, cls):
    op = _make_operator()
    faults = None
    if regime == "block_affine":
        M, c = tridiagonal_system(16, off_diag=-1.0, diag=2.3, seed=1)
        op = jacobi_operator(M, c, BlockSpec((1, 2, 3, 2, 1, 3, 2, 2)))
        procs = _flexible_procs([(0, 1), (2, 3), (4, 5), (6, 7)])
        chan = ChannelSpec(latency=ConstantTime(0.2))
    elif regime == "lasso_sweep":
        op = make_problem("lasso", 5, n_samples=40, n_features=12)
        procs = _flexible_procs([tuple(range(3 * i, 3 * i + 3)) for i in range(4)])
        chan = ChannelSpec(latency=ConstantTime(0.2))
    elif regime == "nonfifo_constant":
        procs = _flexible_procs([(2 * i, 2 * i + 1) for i in range(8)], inner_steps=2)
        chan = ChannelSpec(latency=ConstantTime(0.05), fifo=False)
    elif regime == "pair_map_constant":
        procs = [
            ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=UniformTime(0.8, 1.2))
            for i in range(8)
        ]
        chan = {
            (s, d): ChannelSpec(latency=ConstantTime(0.05))
            for s in range(8)
            for d in range(8)
            if s != d
        }
    elif regime in ("fifo_constant", "crash_fan_out"):
        if regime == "crash_fan_out":
            faults = CrashRestart(crash_rate=0.05, repair_mean=3.0, seed=7)
        procs = [
            ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=UniformTime(0.8, 1.2))
            for i in range(8)
        ]
        chan = ChannelSpec(latency=ConstantTime(0.05))
    elif regime == "lossy_reordering":
        procs = [
            ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=ExponentialTime(1.0))
            for i in range(8)
        ]
        chan = ChannelSpec(latency=UniformTime(0.01, 0.5), fifo=False, drop_prob=0.1)
    elif regime == "overwrite_pareto":
        procs = [
            ProcessorSpec(
                components=(2 * i, 2 * i + 1), compute_time=ParetoTime(alpha=2.5, scale=0.5)
            )
            for i in range(8)
        ]
        chan = ChannelSpec(latency=UniformTime(0.01, 0.3), fifo=False, apply="overwrite")
    elif regime in ("flexible", "second_run"):
        procs = _flexible_procs([tuple(range(4 * i, 4 * i + 4)) for i in range(4)])
        chan = ChannelSpec(latency=ConstantTime(0.2))
    elif regime == "noncontiguous":
        procs = [
            ProcessorSpec(
                components=(i, i + 8),
                compute_time=UniformTime(0.5, 1.5),
                inner_steps=2,
                publish_partials=True,
                refresh_reads=True,
            )
            for i in range(8)
        ]
        chan = ChannelSpec(latency=ConstantTime(0.05))
    elif regime == "partials_reordering":
        procs = [
            ProcessorSpec(
                components=(4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3),
                compute_time=UniformTime(0.5, 1.5),
                inner_steps=3,
                publish_partials=True,
                refresh_reads=True,
            )
            for i in range(4)
        ]
        chan = ChannelSpec(latency=UniformTime(0.01, 1.0), fifo=False)
    elif regime in ("overwrite_constant", "split_arrivals", "mixed_apply"):
        procs = [
            ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=UniformTime(0.8, 1.2))
            for i in range(8)
        ]
        if regime == "overwrite_constant":
            chan = ChannelSpec(latency=ConstantTime(0.05), apply="overwrite")
        elif regime == "split_arrivals":
            chan = {
                (s, d): ChannelSpec(latency=ConstantTime(0.05 if d % 2 else 0.3))
                for s in range(8)
                for d in range(8)
                if s != d
            }
        else:
            chan = {
                (s, d): ChannelSpec(
                    latency=ConstantTime(0.05), apply="overwrite" if d % 3 == 0 else "latest_label"
                )
                for s in range(8)
                for d in range(8)
                if s != d
            }
    else:  # pragma: no cover - parametrization guards this
        raise ValueError(regime)
    return cls(op, procs, channels=chan, seed=42, faults=faults)


def _run(regime: str, cls, record_messages: bool = True):
    sim = _build(regime, cls)
    kw = dict(max_iterations=400, tol=1e-10, residual_every=5, record_messages=record_messages)
    res = sim.run(np.zeros(sim.operator.dim), **kw)
    if regime == "second_run":
        res = sim.run(np.zeros(sim.operator.dim), **kw)
    return res


def _digest(res) -> str:
    h = hashlib.sha256()
    t = res.trace
    h.update(t.labels.tobytes())
    h.update(repr(t.active_sets).encode())
    h.update(res.x.tobytes())
    if t.residuals is not None:
        h.update(t.residuals.tobytes())
    if t.errors is not None:
        h.update(t.errors.tobytes())
    if t.times is not None:
        h.update(t.times.tobytes())
    return h.hexdigest()


class TestGoldenTraces:
    """The vectorized engine reproduces the seed implementation exactly."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_vectorized_matches_seed_golden(self, regime):
        res = _run(regime, DistributedSimulator)
        g = GOLDEN[regime]
        assert res.trace.n_iterations == g["n_iterations"]
        assert res.converged == g["converged"]
        assert res.final_time == g["final_time"]
        assert res.final_residual == g["final_residual"]
        assert float(res.x[0]) == g["x0"]
        assert len(res.messages) == g["messages"]
        assert _digest(res) == g["sha256"]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_reference_still_matches_golden(self, regime):
        """The frozen oracle itself must never drift."""
        res = _run(regime, ReferenceSimulator)
        assert _digest(res) == GOLDEN[regime]["sha256"]


class TestEngineEquivalence:
    """Field-by-field equality of vectorized and reference runs."""

    ALL = REGIMES + FAN_REGIMES + PARTIAL_REGIMES + KERNEL_REGIMES

    @pytest.mark.parametrize("regime", ALL)
    def test_bit_identical_results(self, regime):
        self._assert_identical(regime, record_messages=True)

    @pytest.mark.parametrize("regime", ALL)
    def test_bit_identical_without_message_log(self, regime):
        """As the fleet runs the loop: no message records."""
        self._assert_identical(regime, record_messages=False)

    @pytest.mark.parametrize("cls", [DistributedSimulator, ReferenceSimulator])
    @pytest.mark.parametrize("regime", ("flexible", "crash_fan_out", "second_run"))
    def test_phase_log_kept_only_with_message_log(self, regime, cls):
        """Without ``record_messages`` no phase is logged, but every commit counts."""
        bare = _run(regime, cls, record_messages=False)
        assert bare.phases == [] and bare.messages == []
        assert bare.stats["phases_completed"] == bare.trace.n_iterations
        full = _run(regime, cls, record_messages=True)
        assert len(full.phases) == full.stats["phases_completed"] == full.trace.n_iterations

    @staticmethod
    def _assert_identical(regime: str, record_messages: bool) -> None:
        a = _run(regime, DistributedSimulator, record_messages)
        b = _run(regime, ReferenceSimulator, record_messages)
        assert np.array_equal(a.x, b.x)
        assert a.trace.active_sets == b.trace.active_sets
        assert np.array_equal(a.trace.labels, b.trace.labels)
        for name in ("errors", "residuals", "times"):
            xa, xb = getattr(a.trace, name), getattr(b.trace, name)
            assert (xa is None) == (xb is None), name
            if xa is not None:
                assert np.array_equal(xa, xb), name
        assert a.final_time == b.final_time
        assert a.converged == b.converged
        assert a.final_residual == b.final_residual
        assert a.stats == b.stats
        assert a.phases == b.phases
        # Same messages as multisets and same per-channel-pair order
        # (global interleaving across independent channels is free).
        key = lambda m: (m.src, m.dst)  # noqa: E731
        by_pair_a: dict = {}
        by_pair_b: dict = {}
        for m in a.messages:
            by_pair_a.setdefault(key(m), []).append(m)
        for m in b.messages:
            by_pair_b.setdefault(key(m), []).append(m)
        assert by_pair_a == by_pair_b

    @pytest.mark.parametrize("regime", ("fifo_constant", "flexible"))
    def test_same_seed_same_result(self, regime):
        a = _run(regime, DistributedSimulator)
        b = _run(regime, DistributedSimulator)
        assert np.array_equal(a.x, b.x)
        assert a.final_time == b.final_time
        assert _digest(a) == _digest(b)

    def test_numpy_scalar_durations(self):
        """Duration models may return numpy scalars; both engines must agree.

        Regression: the burst send path once special-cased builtin
        ``float`` and crashed when phase times were ``np.float64``.
        """
        from repro.runtime.simulator.timing import DurationModel

        class TableTime(DurationModel):
            def __init__(self, table):
                self.table = np.asarray(table, dtype=np.float64)

            def sample(self, k, rng):
                return self.table[(k - 1) % self.table.size]  # np.float64

        op = _make_operator(8)
        procs = [
            ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=TableTime([1.0, 1.3, 0.9]))
            for i in range(4)
        ]
        chan = ChannelSpec(latency=ConstantTime(0.05))
        a = DistributedSimulator(op, procs, channels=chan, seed=3).run(
            np.zeros(8), max_iterations=100
        )
        b = ReferenceSimulator(op, procs, channels=chan, seed=3).run(
            np.zeros(8), max_iterations=100
        )
        assert np.array_equal(a.x, b.x)
        assert a.final_time == b.final_time


# Captured 2026-07-26 from DistributedSimulator + exact-engine replay
# (python 3.11, numpy 2.4, linux x86-64).  These regimes use one
# component per processor and a single inner step, where the machine's
# update semantics coincide with Definition 1 — so the digest pins the
# simulator trace AND the exact engine must reproduce the iterates
# bit-for-bit when replaying it.
REPLAY_GOLDEN = {
    "replay_fifo": {
        "sha256": "e0e5f0d8c3c99390bf22386862e44f8e7aac018cd222eb6fdb35ce0c97d983e6",
        "x0": -0.25989865522635186,
        "n_iterations": 300,
    },
    "replay_lossy": {
        "sha256": "3971dda01328ed3725e28a74d19db697c765c2092ac844a045598c27859313f7",
        "x0": -0.25550110405859344,
        "n_iterations": 300,
    },
    "replay_overwrite": {
        "sha256": "081e923729eba3d28e7ca2a634e829486c876e89381555ed8822ff05407844c6",
        "x0": -0.25820920266548214,
        "n_iterations": 300,
    },
}


def _replay_digest(res) -> str:
    """Digest over the cross-backend-comparable fields (no series/times)."""
    h = hashlib.sha256()
    t = res.trace
    h.update(t.labels.tobytes())
    h.update(repr(t.active_sets).encode())
    h.update(res.x.tobytes())
    return h.hexdigest()


def _build_replay(regime: str, cls):
    n = 12
    M, c = tridiagonal_system(n, off_diag=-1.0, diag=2.3, seed=2)
    op = jacobi_operator(M, c)
    if regime == "replay_fifo":
        procs = [
            ProcessorSpec(components=(i,), compute_time=UniformTime(0.8, 1.2))
            for i in range(n)
        ]
        chan = ChannelSpec(latency=ConstantTime(0.05))
    elif regime == "replay_lossy":
        procs = [
            ProcessorSpec(components=(i,), compute_time=ExponentialTime(1.0))
            for i in range(n)
        ]
        chan = ChannelSpec(latency=UniformTime(0.01, 0.5), fifo=False, drop_prob=0.1)
    elif regime == "replay_overwrite":
        procs = [
            ProcessorSpec(components=(i,), compute_time=UniformTime(0.5, 1.5))
            for i in range(n)
        ]
        chan = ChannelSpec(latency=UniformTime(0.01, 0.3), fifo=False, apply="overwrite")
    else:  # pragma: no cover - parametrization guards this
        raise ValueError(regime)
    return op, cls(op, procs, channels=chan, seed=17)


class TestCrossBackendReplay:
    """The exact engine reproduces simulator runs from their traces.

    One realized ``(S, L)`` — two substrates — identical iterates:
    the executable form of the paper's claim that Definition 1
    abstracts a running machine.
    """

    @pytest.mark.parametrize("regime", sorted(REPLAY_GOLDEN))
    @pytest.mark.parametrize(
        "cls", [DistributedSimulator, ReferenceSimulator],
        ids=["vectorized", "reference"],
    )
    def test_exact_replay_bit_identical(self, regime, cls):
        from repro.runtime.backends import replay_trace

        op, sim = _build_replay(regime, cls)
        res = sim.run(
            np.zeros(op.dim), max_iterations=300, tol=0.0, residual_every=5,
            record_messages=False,
        )
        g = REPLAY_GOLDEN[regime]
        assert res.trace.n_iterations == g["n_iterations"]
        assert float(res.x[0]) == g["x0"]
        assert _replay_digest(res) == g["sha256"]

        rep = replay_trace(op, res.trace, np.zeros(op.dim))
        assert np.array_equal(rep.x, res.x)
        assert np.array_equal(rep.trace.labels, res.trace.labels)
        assert rep.trace.active_sets == res.trace.active_sets
        assert _replay_digest(rep) == g["sha256"]


# Captured 2026-10-19 from the ``flexible`` backend — Definition 3 with
# interpolated partial updates — while it still ran an engine of its
# own, before Definitions 1 and 3 shared one iteration loop (python
# 3.11, numpy 2.4, linux x86-64).  The digest covers the iterates, both
# series and the constraint-(3) audit, so it pins the partial model's
# draw order and the audit's two sides.
FLEX_AUDIT = ("constraint_checks", "constraint_violations", "worst_constraint_ratio")
FLEX_GOLDEN = {
    "jacobi_default_partials": {
        "sha256": "3f362b45add9220358688b3a6502649ea2ec5457ef18a51c7d66116225740a07",
        "n_iterations": 400,
        "converged": False,
        "x0": 0.466249141551737,
        "constraint_checks": 3200,
        "constraint_violations": 3,
        "worst_constraint_ratio": 1.1205001530392142,
    },
    "jacobi_out_of_order": {
        "sha256": "56203e05b0436f48f81487b925d941cf76773fd60eb7226f902af9fee7c32719",
        "n_iterations": 400,
        "converged": False,
        "x0": 0.4662395623695216,
        "constraint_checks": 3200,
        "constraint_violations": 5,
        "worst_constraint_ratio": 1.314946236113684,
    },
    "lasso_blocks": {
        "sha256": "07ffe84f13ed91d46664306188dc0c1eac7bb899e399ffd6ece76afd1acef28c",
        "n_iterations": 167,
        "converged": True,
        "x0": 0.7805226238037901,
        "constraint_checks": 668,
        "constraint_violations": 8,
        "worst_constraint_ratio": 1.10426922656139,
    },
}


def _flex_digest(res) -> str:
    """Digest over x, labels, active sets, both series and the audit counters."""
    h = hashlib.sha256()
    t = res.trace
    h.update(res.x.tobytes())
    h.update(t.labels.tobytes())
    h.update(repr(t.active_sets).encode())
    h.update(t.errors.tobytes())
    h.update(t.residuals.tobytes())
    h.update(repr(tuple(res.stats[k] for k in FLEX_AUDIT)).encode())
    return h.hexdigest()


def _flex_request(regime: str):
    from repro.core.flexible import InterpolatedPartials
    from repro.delays.bounded import UniformRandomDelay
    from repro.delays.outoforder import OutOfOrderDelay
    from repro.operators.prox_gradient import ProxGradientOperator
    from repro.problems import make_lasso, make_regression
    from repro.runtime.backends import ExecutionRequest
    from repro.steering.policies import PermutationSweeps, RandomSubset

    options: dict = {}
    if regime == "jacobi_default_partials":
        # No partial model given: the backend seeds its own from ``seed``.
        op = _make_operator(8)
        n = op.n_components
        steering = RandomSubset(n, 0.5, seed=1)
        delays = UniformRandomDelay(n, 4, seed=2)
        options["residual_every"] = 3
    elif regime == "jacobi_out_of_order":
        op = _make_operator(8)
        n = op.n_components
        steering = PermutationSweeps(n, seed=4)
        delays = OutOfOrderDelay(UniformRandomDelay(n, 6, seed=5), seed=6)
        options["partials"] = InterpolatedPartials(partial_prob=0.7, seed=7)
    elif regime == "lasso_blocks":
        prob = make_lasso(make_regression(60, 12, sparsity=0.4, seed=1), l1=0.05, l2=0.1)
        op = ProxGradientOperator(prob, prob.smooth.max_step(), BlockSpec.uniform(12, 4))
        n = op.n_components
        steering = RandomSubset(n, 0.5, seed=8)
        delays = UniformRandomDelay(n, 5, seed=9)
        options["partials"] = InterpolatedPartials(theta_range=(0.5, 1.0), seed=10)
    else:  # pragma: no cover - parametrization guards this
        raise ValueError(regime)
    return ExecutionRequest(
        operator=op, x0=np.zeros(op.dim), max_iterations=400, tol=1e-12,
        steering=steering, delays=delays, seed=3, options=options,
    )


class TestFlexibleGolden:
    """Definition 3 runs replay bit-identically, audit counters included."""

    @pytest.mark.parametrize("regime", sorted(FLEX_GOLDEN))
    def test_flexible_backend_matches_golden(self, regime):
        from repro.runtime.backends import get_backend

        res = get_backend("flexible").execute(_flex_request(regime))
        g = FLEX_GOLDEN[regime]
        assert res.trace.n_iterations == g["n_iterations"]
        assert res.converged == g["converged"]
        assert float(res.x[0]) == g["x0"]
        for stat in FLEX_AUDIT:
            assert res.stats[stat] == g[stat], stat
        assert _flex_digest(res) == g["sha256"]


# Captured 2026-08-08 from DistributedSimulator == ReferenceSimulator
# (python 3.11, numpy 2.4, linux x86-64): the fifo_constant regime with
# a ChaosFault (crashes + limplock straggler + lossy jittered channels)
# drawn from the fault model's OWN seed streams.  Pins the fault layer's
# determinism end to end: crash schedules, limp inflation and message
# fates must replay identically forever — and because the fault RNG is
# a separate stream, the four fault-free GOLDEN digests above must stay
# untouched by the layer's existence.
FAULT_GOLDEN = {
    "sha256": "03480f19f850b485a017ab0c97286bf41a4975cae94dc8d505a56dc270832437",
    "n_iterations": 400,
    "final_time": 66.46370153256584,
    "final_residual": 0.01663724310189753,
    "x0": 0.4686449715182853,
    "messages": 5600,
    "converged": False,
    "fault_crashes": 13,
    "fault_repairs": 12,
    "fault_drops": 423,
    "fault_downtime_drops": 844,
    "fault_limp_episodes": 13,
    "fault_max_staleness": 190,
}


def _build_faulted(cls):
    from repro.runtime.simulator import ChaosFault

    op = _make_operator()
    procs = [
        ProcessorSpec(components=(2 * i, 2 * i + 1), compute_time=UniformTime(0.8, 1.2))
        for i in range(8)
    ]
    chan = ChannelSpec(latency=ConstantTime(0.05))
    faults = ChaosFault(
        crash_rate=0.02, repair_mean=4.0, straggler=2, limp_factor=4.0,
        drop_prob=0.08, extra_mean=0.5, seed=99,
    )
    return cls(op, procs, channels=chan, seed=42, faults=faults)


class TestFaultGolden:
    """The fault-injection layer replays bit-identically on both engines."""

    @pytest.mark.parametrize(
        "cls", [DistributedSimulator, ReferenceSimulator],
        ids=["vectorized", "reference"],
    )
    def test_chaos_scenario_matches_golden(self, cls):
        res = _build_faulted(cls).run(
            np.zeros(16), max_iterations=400, tol=1e-10, residual_every=5
        )
        assert res.trace.n_iterations == FAULT_GOLDEN["n_iterations"]
        assert res.converged == FAULT_GOLDEN["converged"]
        assert res.final_time == FAULT_GOLDEN["final_time"]
        assert res.final_residual == FAULT_GOLDEN["final_residual"]
        assert float(res.x[0]) == FAULT_GOLDEN["x0"]
        assert len(res.messages) == FAULT_GOLDEN["messages"]
        for stat in ("fault_crashes", "fault_repairs", "fault_drops",
                     "fault_downtime_drops", "fault_limp_episodes",
                     "fault_max_staleness"):
            assert res.stats[stat] == FAULT_GOLDEN[stat], stat
        assert _digest(res) == FAULT_GOLDEN["sha256"]


#: Every registry problem at a size where draws stay cheap; each has at
#: least 6 components, so up to 6 processors own one or more apiece.
SMALL_SIM_PROBLEMS = {
    "jacobi": {"n": 8},
    "tridiagonal": {"n": 8},
    "markov": {"n": 8},
    "quadratic": {"n": 8},
    "lasso": {"n_samples": 12, "n_features": 6},
    "ridge": {"n_samples": 12, "n_features": 6},
    "logistic": {"n_samples": 12, "n_features": 6},
}


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)


class TestRegistryDifferential:
    """Seeded draws over registry problems x machines x faults x
    topologies: the vectorized loop equals the frozen reference on every
    digest field and on ``info``, as the fleet runs them (no message log)."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        problem=st.sampled_from(sorted(SMALL_SIM_PROBLEMS)),
        machine=st.sampled_from(REGISTRY.names("machine")),
        fault=st.sampled_from(REGISTRY.names("fault")),
        topology=st.sampled_from(REGISTRY.names("topology")),
        n_processors=st.integers(1, 6),
        max_iterations=st.integers(1, 80),
        tol=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vectorized_equals_reference(
        self, problem, machine, fault, topology, n_processors, max_iterations, tol, seed
    ):
        from dataclasses import replace

        from repro.runtime.fleet import run_scenario
        from repro.runtime.sweep_store import DIGEST_FIELDS

        spec = ScenarioSpec(
            problem=problem, problem_params=SMALL_SIM_PROBLEMS[problem],
            kind="simulator", machine=machine,
            machine_params={"n_processors": n_processors}, fault=fault,
            topology=topology, max_iterations=max_iterations, tol=tol, seed=seed,
        )
        a = run_scenario(replace(spec, backend="vectorized"))
        b = run_scenario(replace(spec, backend="reference"))
        assert a.error is None and b.error is None, (a.error, b.error)
        for name in DIGEST_FIELDS:
            assert _same(getattr(a, name), getattr(b, name)), name
        assert a.info == b.info


class TestRegistryReplay:
    """Seeded draws over registry problems x machines x faults x
    topologies, with one processor per component: where the machine's
    phases are Definition 1 updates (one inner step, no partials, no
    refreshed reads), the exact engine replays the fleet run's trace to
    the same iterates, labels and active sets."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(
        problem=st.sampled_from(sorted(SMALL_SIM_PROBLEMS)),
        machine=st.sampled_from(REGISTRY.names("machine")),
        fault=st.sampled_from(REGISTRY.names("fault")),
        topology=st.sampled_from(REGISTRY.names("topology")),
        max_iterations=st.integers(1, 80),
        tol=st.sampled_from([0.0, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_replays_the_machine(
        self, problem, machine, fault, topology, max_iterations, tol, seed
    ):
        from dataclasses import replace

        from repro.runtime.backends import replay_trace
        from repro.runtime.fleet import execute_scenario
        from repro.scenarios.registry import make_machine

        spec = ScenarioSpec(
            problem=problem, problem_params=SMALL_SIM_PROBLEMS[problem],
            kind="simulator", machine=machine, fault=fault, topology=topology,
            max_iterations=max_iterations, tol=tol, seed=seed,
        )
        op = spec.build_problem()
        n = op.n_components
        spec = replace(spec, machine_params={"n_processors": n})
        procs, _ = make_machine(machine, n, spec.spawn_seeds()[3], n_processors=n)
        assume(all(
            p.inner_steps == 1 and not (p.publish_partials or p.refresh_reads)
            for p in procs
        ))
        assert all(len(p.components) == 1 for p in procs)

        _, run = execute_scenario(spec)
        rep = replay_trace(op, run.trace, np.zeros(op.dim))
        assert np.array_equal(rep.x, run.x)
        assert np.array_equal(rep.trace.labels, run.trace.labels)
        assert rep.trace.active_sets == run.trace.active_sets


class TestStreamEquivalence:
    """Batched draws consume the RNG exactly like sequential draws."""

    @pytest.mark.parametrize(
        "model",
        [ConstantTime(0.7), UniformTime(0.3, 1.9), LinearGrowthTime(0.5)],
        ids=["constant", "uniform", "linear-growth"],
    )
    def test_sample_batch_equals_sequential(self, model):
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        batch = model.sample_batch(1, 32, rng_a)
        assert batch is not None
        seq = np.array([model.sample(k, rng_b) for k in range(1, 33)])
        assert np.array_equal(batch, seq)
        # streams advanced identically
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize(
        "spec",
        [
            ChannelSpec(latency=ConstantTime(0.05)),
            ChannelSpec(latency=ConstantTime(0.05), fifo=False),
            ChannelSpec(latency=UniformTime(0.01, 0.5), fifo=True),
            ChannelSpec(latency=UniformTime(0.01, 0.5), fifo=False),
            ChannelSpec(latency=UniformTime(0.01, 0.5), fifo=False, drop_prob=0.3),
            ChannelSpec(latency=ExponentialTime(0.2), fifo=True),
        ],
        ids=["const-fifo", "const-raw", "unif-fifo", "unif-raw", "unif-lossy", "exp-fifo"],
    )
    def test_delivery_times_equals_sequential(self, spec):
        a = ChannelState(spec, np.random.default_rng(7))
        b = ChannelState(spec, np.random.default_rng(7))
        for send_time in (0.0, 1.5, 1.5, 4.0):
            batched = a.delivery_times(send_time, 5)
            singles = [b.delivery_time(send_time) for _ in range(5)]
            if isinstance(batched, float):
                batched = np.full(5, batched)
            for got, want in zip(batched, singles):
                if want is None:
                    assert got != got  # nan encodes a dropped message
                else:
                    assert got == want
        assert a.messages_sent == b.messages_sent
        assert a.messages_dropped == b.messages_dropped
        assert a.rng.random() == b.rng.random()

    @pytest.mark.parametrize("fifo", [True, False], ids=["fifo", "raw"])
    def test_fan_out_equals_per_channel_calls(self, fifo):
        """One arrival for all of a sender's channels, and every channel's
        count and FIFO state where its own calls would leave them,
        including a send earlier than the last arrival."""
        spec = ChannelSpec(latency=ConstantTime(0.05), fifo=fifo)
        fan = [ChannelState(spec, np.random.default_rng(k)) for k in range(3)]
        solo = [ChannelState(spec, np.random.default_rng(k)) for k in range(3)]
        assert ChannelState.one_arrival(fan)
        for send_time, count in ((0.0, 4), (9.0, 2), (1.5, 3), (1.5, 1)):
            arrival = ChannelState.fan_out(fan, send_time, count)
            for chan in solo:
                assert chan.delivery_times(send_time, count) == arrival
        for a, b in zip(fan, solo):
            assert a.messages_sent == b.messages_sent
            assert a._last_delivery_time == b._last_delivery_time
            assert a.rng.random() == b.rng.random()

    @pytest.mark.parametrize(
        "specs",
        [
            [ChannelSpec(latency=ConstantTime(0.05)), ChannelSpec(latency=ConstantTime(0.3))],
            [ChannelSpec(latency=ConstantTime(0.05)),
             ChannelSpec(latency=ConstantTime(0.05), fifo=False)],
            [ChannelSpec(latency=ConstantTime(0.05)),
             ChannelSpec(latency=ConstantTime(0.05), apply="overwrite")],
            [ChannelSpec(latency=ConstantTime(0.05), drop_prob=0.1)],
            [ChannelSpec(latency=UniformTime(0.05, 0.05))],
        ],
        ids=["latency", "fifo", "apply", "lossy", "not-constant"],
    )
    def test_one_arrival_refuses(self, specs):
        chans = [ChannelState(s, np.random.default_rng(0)) for s in specs]
        assert not ChannelState.one_arrival(chans)
