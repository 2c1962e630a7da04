"""Property-based equivalence between the engine's Definition 1 and 3 paths.

Handed the degenerate partial model (``LabelledValues``), the engine's
Definition 3 path must reproduce its Definition 1 path (no partial
model) bit-for-bit on any (operator, steering, delays, budget)
configuration — the structural guarantee that Definition 3 strictly
generalizes Definition 1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.async_iteration import AsyncIterationEngine
from repro.core.flexible import LabelledValues
from repro.delays.bounded import ConstantDelay, UniformRandomDelay, ZeroDelay
from repro.delays.outoforder import ShuffledWindowDelay
from repro.problems import make_jacobi_instance
from repro.steering.policies import (
    AllComponents,
    BlockCyclic,
    CyclicSingle,
    RandomSubset,
)


def _delays(kind: int, n: int, seed: int):
    return [
        ZeroDelay(n),
        ConstantDelay(n, 3),
        UniformRandomDelay(n, 5, seed=seed),
        ShuffledWindowDelay(n, 7, seed=seed),
    ][kind]


def _steering(kind: int, n: int, seed: int):
    return [
        AllComponents(n),
        CyclicSingle(n),
        BlockCyclic(n, 2),
        RandomSubset(n, 0.5, seed=seed),
    ][kind]


class TestEngineEquivalence:
    @given(
        op_seed=st.integers(min_value=0, max_value=50),
        steer_kind=st.integers(min_value=0, max_value=3),
        delay_kind=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=100),
        budget=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_flexible_with_labelled_values_is_definition1(
        self, op_seed, steer_kind, delay_kind, seed, budget
    ):
        n = 6
        op = make_jacobi_instance(n, dominance=0.4, seed=op_seed)
        plain = AsyncIterationEngine(
            op, _steering(steer_kind, n, seed), _delays(delay_kind, n, seed)
        )
        flex = AsyncIterationEngine(
            op,
            _steering(steer_kind, n, seed),
            _delays(delay_kind, n, seed),
            LabelledValues(),
        )
        rp = plain.run(
            np.zeros(n), max_iterations=budget, tol=0.0, track_residuals=False
        )
        rf = flex.run(
            np.zeros(n), max_iterations=budget, tol=0.0, track_residuals=False
        )
        np.testing.assert_array_equal(rp.x, rf.x)
        np.testing.assert_array_equal(rp.trace.labels, rf.trace.labels)
        assert rp.trace.active_sets == rf.trace.active_sets
        # Only the Definition 3 path audits (3); labelled values meet it.
        assert rp.constraint_checks == 0
        assert rf.constraint_checks == budget * n
        assert rf.constraint_violations == 0

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_error_series_matches_recomputation(self, seed):
        """The recorded error series must equal norms of reconstructed iterates."""
        n = 5
        op = make_jacobi_instance(n, dominance=0.5, seed=seed)
        engine = AsyncIterationEngine(
            op, RandomSubset(n, 0.6, seed=seed), UniformRandomDelay(n, 3, seed=seed)
        )
        res = engine.run(np.zeros(n), max_iterations=30, tol=0.0)
        fp = op.fixed_point()
        norm = op.norm()
        # rebuild iterates by replaying the trace
        from repro.core.history import VectorHistory

        hist = VectorHistory(np.zeros(n), op.block_spec)
        for j in range(1, res.trace.n_iterations + 1):
            S = res.trace.active_sets[j - 1]
            labels = res.trace.labels[j - 1]
            delayed = hist.assemble(labels)
            hist.commit(j, {i: op.apply_block(delayed, i) for i in S})
            assert res.trace.errors[j] == pytest.approx(
                norm(hist.current - fp), rel=1e-12, abs=1e-15
            )
