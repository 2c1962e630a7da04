"""Tests for Definition 3: the engine run with a partial-update model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.async_iteration import AsyncIterationEngine
from repro.core.flexible import InterpolatedPartials, LabelledValues
from repro.core.history import VectorHistory
from repro.delays.bounded import UniformRandomDelay, ZeroDelay
from repro.operators.prox_gradient import ProxGradientOperator
from repro.problems import make_jacobi_instance, make_lasso, make_regression
from repro.steering.policies import AllComponents, PermutationSweeps, RandomSubset
from repro.utils.norms import BlockSpec


@pytest.fixture
def lasso_op():
    data = make_regression(60, 8, sparsity=0.4, seed=1)
    prob = make_lasso(data, l1=0.05, l2=0.1)
    return ProxGradientOperator(prob, prob.smooth.max_step())


class TestPartialModels:
    def test_labelled_values_equals_assemble(self):
        h = VectorHistory(np.zeros(2), BlockSpec.scalar(2))
        h.commit(1, {0: np.array([1.0])})
        h.commit(2, {1: np.array([2.0])})
        model = LabelledValues()
        np.testing.assert_array_equal(
            model.values(h, np.array([1, 1]), 3), h.assemble(np.array([1, 1]))
        )

    def test_interpolated_lies_between_labels(self):
        h = VectorHistory(np.zeros(1), BlockSpec.scalar(1))
        h.commit(1, {0: np.array([10.0])})
        model = InterpolatedPartials(partial_prob=1.0, theta_range=(0.5, 0.5), seed=0)
        # label 0 value is 0, latest is 10; theta=0.5 -> between 0 and 10
        vals = [model.values(h, np.array([0]), 2)[0] for _ in range(20)]
        assert all(0.0 <= v <= 10.0 for v in vals)
        assert any(v > 0.0 for v in vals)

    def test_zero_partial_prob_degenerates_to_labels(self):
        h = VectorHistory(np.zeros(1), BlockSpec.scalar(1))
        h.commit(1, {0: np.array([10.0])})
        model = InterpolatedPartials(partial_prob=0.0, seed=1)
        assert model.values(h, np.array([0]), 2)[0] == 0.0

    def test_theta_range_validation(self):
        with pytest.raises(ValueError):
            InterpolatedPartials(theta_range=(0.5, 0.2))
        with pytest.raises(ValueError):
            InterpolatedPartials(theta_range=(-0.1, 0.5))


class TestFlexibleEngine:
    def test_labelled_model_matches_plain_engine(self, small_jacobi):
        """With LabelledValues the Definition 3 path IS Definition 1."""
        n = small_jacobi.n_components
        flex = AsyncIterationEngine(
            small_jacobi,
            AllComponents(n),
            UniformRandomDelay(n, 3, seed=2),
            LabelledValues(),
        )
        plain = AsyncIterationEngine(
            small_jacobi, AllComponents(n), UniformRandomDelay(n, 3, seed=2)
        )
        rf = flex.run(np.zeros(n), max_iterations=50, tol=0.0, track_residuals=False)
        rp = plain.run(np.zeros(n), max_iterations=50, tol=0.0, track_residuals=False)
        np.testing.assert_allclose(rf.x, rp.x, atol=1e-14)

    def test_converges_with_partials(self, lasso_op):
        n = lasso_op.n_components
        engine = AsyncIterationEngine(
            lasso_op,
            PermutationSweeps(n, seed=3),
            UniformRandomDelay(n, 4, seed=4),
            InterpolatedPartials(seed=5),
        )
        res = engine.run(np.zeros(n), max_iterations=50_000, tol=1e-10)
        assert res.converged
        ystar = lasso_op.fixed_point()
        assert np.max(np.abs(res.x - ystar)) < 1e-8

    def test_constraint_audit_counts(self, lasso_op):
        n = lasso_op.n_components
        engine = AsyncIterationEngine(
            lasso_op,
            PermutationSweeps(n, seed=6),
            UniformRandomDelay(n, 4, seed=7),
            InterpolatedPartials(seed=8),
        )
        res = engine.run(np.zeros(n), max_iterations=500, tol=0.0)
        assert res.constraint_checks == 500 * n
        assert res.constraint_violations <= res.constraint_checks
        assert res.worst_constraint_ratio >= 0.0

    def test_constraint_holds_for_labelled_values(self, lasso_op):
        """Plain labelled exchange can still 'violate' (3) only via
        per-component vs min-label asymmetry; ratio must stay modest."""
        n = lasso_op.n_components
        engine = AsyncIterationEngine(
            lasso_op,
            PermutationSweeps(n, seed=9),
            ZeroDelay(n),
            LabelledValues(),
        )
        res = engine.run(np.zeros(n), max_iterations=300, tol=0.0)
        # With zero delays, x~(j) = x(l(j)) exactly: constraint is an equality.
        assert res.constraint_violations == 0
        assert res.worst_constraint_ratio <= 1.0 + 1e-9

    def test_partials_do_not_break_faster_than_plain(self, lasso_op):
        """Flexible (fresher data) should need no more iterations than
        plain delayed iterations for the same configuration."""
        n = lasso_op.n_components
        common = dict(max_iterations=100_000, tol=1e-9)
        plain = AsyncIterationEngine(
            lasso_op,
            PermutationSweeps(n, seed=10),
            UniformRandomDelay(n, 8, seed=11),
            InterpolatedPartials(partial_prob=0.0, seed=12),
        ).run(np.zeros(n), **common)
        flex = AsyncIterationEngine(
            lasso_op,
            PermutationSweeps(n, seed=10),
            UniformRandomDelay(n, 8, seed=11),
            InterpolatedPartials(partial_prob=1.0, theta_range=(0.9, 1.0), seed=12),
        ).run(np.zeros(n), **common)
        assert flex.converged and plain.converged
        assert flex.iterations <= plain.iterations * 1.2

    def test_mismatched_components_rejected(self, small_jacobi):
        n = small_jacobi.n_components
        with pytest.raises(ValueError):
            AsyncIterationEngine(
                small_jacobi, AllComponents(n + 1), ZeroDelay(n), LabelledValues()
            )

    def test_deterministic(self, lasso_op):
        n = lasso_op.n_components

        def run():
            return AsyncIterationEngine(
                lasso_op,
                RandomSubset(n, 0.5, seed=13),
                UniformRandomDelay(n, 3, seed=14),
                InterpolatedPartials(seed=15),
            ).run(np.zeros(n), max_iterations=100, tol=0.0)

        a, b = run(), run()
        np.testing.assert_array_equal(a.x, b.x)
        assert a.constraint_violations == b.constraint_violations
