"""Tests for datasets, least-squares, logistic and SVM problems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems.base import CompositeProblem
from repro.problems.datasets import make_classification, make_regression
from repro.problems.least_squares import (
    LeastSquaresProblem,
    make_elastic_net,
    make_lasso,
    make_ridge,
)
from repro.problems.logistic import LogisticProblem, make_logistic, make_sparse_logistic
from repro.problems.svm import SmoothedHingeSVM, make_svm


class TestDatasets:
    def test_regression_shapes(self):
        d = make_regression(50, 8, seed=0)
        assert d.features.shape == (50, 8)
        assert d.targets.shape == (50,)
        assert d.n_samples == 50 and d.n_features == 8

    def test_regression_sparsity(self):
        d = make_regression(30, 20, sparsity=0.5, seed=1)
        assert np.sum(d.true_weights == 0) == 10

    def test_regression_noise_free_is_exact(self):
        d = make_regression(40, 5, noise_std=0.0, seed=2)
        np.testing.assert_allclose(d.features @ d.true_weights, d.targets)

    def test_regression_reproducible(self):
        a = make_regression(20, 4, seed=3)
        b = make_regression(20, 4, seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    def test_correlation_increases_condition(self):
        d0 = make_regression(200, 10, correlation=0.0, seed=4)
        d9 = make_regression(200, 10, correlation=0.9, seed=4)
        c0 = np.linalg.cond(d0.features.T @ d0.features)
        c9 = np.linalg.cond(d9.features.T @ d9.features)
        assert c9 > c0

    def test_classification_labels(self):
        d = make_classification(60, 6, seed=5)
        assert set(np.unique(d.labels)) <= {-1.0, 1.0}

    def test_classification_separation_improves_agreement(self):
        d_easy = make_classification(500, 5, separation=8.0, seed=6)
        d_hard = make_classification(500, 5, separation=0.2, seed=6)
        agree_easy = np.mean(np.sign(d_easy.features @ d_easy.true_weights) == d_easy.labels)
        agree_hard = np.mean(np.sign(d_hard.features @ d_hard.true_weights) == d_hard.labels)
        assert agree_easy > agree_hard

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            make_regression(10, 5, sparsity=1.0)
        with pytest.raises(ValueError):
            make_regression(10, 5, noise_std=-1.0)
        with pytest.raises(ValueError):
            make_classification(10, 5, label_flip=0.6)


class TestLeastSquares:
    def test_gradient_finite_difference(self, rng):
        d = make_regression(30, 6, seed=7)
        prob = LeastSquaresProblem(d.features, d.targets, l2=0.1)
        x = rng.standard_normal(6)
        g = prob.gradient(x)
        eps = 1e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = eps
            fd = (prob.objective(x + e) - prob.objective(x - e)) / (2 * eps)
            assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_solution_stationary(self):
        d = make_regression(40, 5, seed=8)
        prob = LeastSquaresProblem(d.features, d.targets, l2=0.2)
        np.testing.assert_allclose(prob.gradient(prob.solution()), 0.0, atol=1e-10)

    def test_l2_contributes_to_mu(self):
        d = make_regression(40, 5, seed=9)
        p0 = LeastSquaresProblem(d.features, d.targets, l2=0.1)
        p1 = LeastSquaresProblem(d.features, d.targets, l2=1.1)
        assert p1.mu == pytest.approx(p0.mu + 1.0)

    def test_underdetermined_needs_l2(self):
        d = make_regression(5, 10, seed=10)
        with pytest.raises(ValueError, match="strongly convex"):
            LeastSquaresProblem(d.features, d.targets, l2=0.0)
        LeastSquaresProblem(d.features, d.targets, l2=0.5)

    def test_gradient_block(self, rng):
        d = make_regression(30, 8, seed=11)
        prob = LeastSquaresProblem(d.features, d.targets, l2=0.1)
        x = rng.standard_normal(8)
        np.testing.assert_allclose(
            prob.gradient_block(x, slice(1, 4)), prob.gradient(x)[1:4]
        )


class TestCompositeBuilders:
    def test_ridge_solution_closed_form_matches_fista(self):
        d = make_regression(50, 8, seed=12)
        prob = make_ridge(d, l2=0.3)
        xs = prob.solution()
        np.testing.assert_allclose(prob.smooth.gradient(xs), 0.0, atol=1e-9)

    def test_lasso_solution_satisfies_prox_optimality(self):
        d = make_regression(60, 10, sparsity=0.3, seed=13)
        prob = make_lasso(d, l1=0.1, l2=0.05)
        xs = prob.solution()
        assert prob.prox_gradient_residual(xs, 1.0 / prob.smooth.lipschitz) < 1e-8

    def test_lasso_produces_sparse_solutions_for_big_l1(self):
        d = make_regression(60, 10, seed=14)
        weak = make_lasso(d, l1=0.001, l2=0.05).solution()
        strong = make_lasso(d, l1=1.0, l2=0.05).solution()
        assert np.sum(np.abs(strong) < 1e-10) > np.sum(np.abs(weak) < 1e-10)

    def test_solution_cached_and_copied(self):
        d = make_regression(30, 5, seed=15)
        prob = make_lasso(d)
        a = prob.solution()
        b = prob.solution()
        assert a is not b
        np.testing.assert_array_equal(a, b)
        a[:] = 0  # mutating the copy must not poison the cache
        assert not np.allclose(prob.solution(), 0)

    def test_elastic_net_objective_includes_both_terms(self):
        d = make_regression(30, 5, seed=16)
        prob = make_elastic_net(d, l1=0.1, l2_smooth=0.1, l2_prox=0.2)
        x = np.ones(5)
        val = prob.objective(x)
        assert val > prob.smooth.objective(x)

    def test_objective_callable_validates_dim(self):
        d = make_regression(30, 5, seed=17)
        prob = make_ridge(d)
        with pytest.raises(ValueError):
            prob(np.ones(4))


class TestLogistic:
    def test_gradient_finite_difference(self, rng):
        d = make_classification(40, 5, seed=18)
        prob = LogisticProblem(d.features, d.labels, l2=0.2)
        x = 0.5 * rng.standard_normal(5)
        g = prob.gradient(x)
        eps = 1e-6
        for k in range(5):
            e = np.zeros(5)
            e[k] = eps
            fd = (prob.objective(x + e) - prob.objective(x - e)) / (2 * eps)
            assert g[k] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_hessian_positive_definite(self, rng):
        d = make_classification(40, 5, seed=19)
        prob = LogisticProblem(d.features, d.labels, l2=0.2)
        H = prob.hessian(rng.standard_normal(5))
        assert np.all(np.linalg.eigvalsh(H) >= 0.2 - 1e-9)

    def test_mu_is_l2(self):
        d = make_classification(40, 5, seed=20)
        prob = LogisticProblem(d.features, d.labels, l2=0.7)
        assert prob.mu == 0.7

    def test_lipschitz_bounds_hessian(self, rng):
        d = make_classification(50, 6, seed=21)
        prob = LogisticProblem(d.features, d.labels, l2=0.1)
        H = prob.hessian(rng.standard_normal(6))
        assert np.max(np.linalg.eigvalsh(H)) <= prob.lipschitz + 1e-9

    def test_objective_stable_for_huge_margins(self):
        d = make_classification(20, 3, seed=22)
        prob = LogisticProblem(d.features, d.labels, l2=0.1)
        val = prob.objective(1e4 * np.ones(3))
        assert np.isfinite(val)

    def test_training_improves_accuracy(self):
        d = make_classification(300, 8, separation=3.0, seed=23)
        prob = make_logistic(d, l2=0.05)
        xs = prob.solution()
        smooth = prob.smooth
        acc0 = smooth.accuracy(np.zeros(8), d.features, d.labels)
        acc1 = smooth.accuracy(xs, d.features, d.labels)
        assert acc1 > max(acc0, 0.7)

    def test_rejects_bad_labels(self):
        d = make_classification(10, 3, seed=24)
        with pytest.raises(ValueError, match="labels"):
            LogisticProblem(d.features, np.zeros(10), l2=0.1)

    def test_sparse_logistic_builder(self):
        d = make_classification(50, 6, seed=25)
        prob = make_sparse_logistic(d, l1=0.05, l2=0.2)
        assert prob.solution() is not None

    def test_gradient_block(self, rng):
        d = make_classification(40, 6, seed=26)
        prob = LogisticProblem(d.features, d.labels, l2=0.3)
        x = rng.standard_normal(6)
        np.testing.assert_allclose(
            prob.gradient_block(x, slice(2, 5)), prob.gradient(x)[2:5], rtol=1e-12
        )


#: One problem family per entry, built from a dataset seed, for the stacked
#: FISTA: each call builds a fresh instance with an empty cache.
FISTA_FAMILIES = {
    "lasso": lambda seed: make_lasso(make_regression(40, 8, seed=seed), l1=0.1),
    "logistic": lambda seed: make_logistic(make_classification(40, 6, seed=seed)),
    "sparse-logistic": lambda seed: make_sparse_logistic(
        make_classification(40, 6, seed=seed), l1=0.02
    ),
}


def _solo_solution(problem, **kwargs):
    """``problem.solution(**kwargs)`` and the number of FISTA iterations it ran."""
    calls = []
    gradient = problem.smooth.gradient
    problem.smooth.gradient = lambda x: calls.append(1) or gradient(x)
    try:
        return problem.solution(**kwargs), len(calls)
    finally:
        del problem.smooth.gradient


class TestStackedFista:
    """``CompositeProblem.precompute_batch`` fills every cache with the
    solo :meth:`CompositeProblem.solution` value, bit for bit."""

    SEEDS = range(30, 36)

    @pytest.mark.parametrize("family", sorted(FISTA_FAMILIES))
    def test_caches_equal_solo_solutions(self, family):
        build = FISTA_FAMILIES[family]
        batch = [build(s) for s in self.SEEDS]
        CompositeProblem.precompute_batch(batch)
        iterations = set()
        for seed, p in zip(self.SEEDS, batch):
            assert p._solved
            solo, its = _solo_solution(build(seed))
            iterations.add(its)
            assert np.array_equal(p.solution(), solo), seed
        # Rows leave the live set at different iterations.
        assert len(iterations) >= 2

    @pytest.mark.parametrize("family", sorted(FISTA_FAMILIES))
    def test_rows_that_run_out_match_solo(self, family):
        build = FISTA_FAMILIES[family]
        batch = [build(s) for s in self.SEEDS]
        CompositeProblem.precompute_batch(batch, max_iter=5)
        for seed, p in zip(self.SEEDS, batch):
            solo, its = _solo_solution(build(seed), max_iter=5)
            assert its == 5
            assert np.array_equal(p.solution(), solo), seed

    def test_ridge_takes_the_closed_form(self):
        batch = [make_ridge(make_regression(40, 8, seed=s)) for s in self.SEEDS]
        CompositeProblem.precompute_batch(batch)
        for p in batch:
            assert p._solved
            assert np.array_equal(p.solution(), p.smooth.solution())

    def test_family_without_stacked_loop_stays_lazy(self):
        def build(seed):
            return make_elastic_net(make_regression(40, 8, seed=seed))

        batch = [build(s) for s in self.SEEDS]
        CompositeProblem.precompute_batch(batch)
        for seed, p in zip(self.SEEDS, batch):
            assert not p._solved
            assert np.array_equal(p.solution(), build(seed).solution()), seed

    def test_solved_problems_are_skipped(self):
        build = FISTA_FAMILIES["lasso"]
        batch = [build(s) for s in self.SEEDS]
        first = batch[0].solution(max_iter=3)
        CompositeProblem.precompute_batch(batch)
        assert np.array_equal(batch[0].solution(), first)
        assert np.array_equal(batch[1].solution(), build(self.SEEDS[1]).solution())


class TestSVM:
    def test_gradient_finite_difference(self, rng):
        d = make_classification(30, 4, seed=27)
        prob = SmoothedHingeSVM(d.features, d.labels, l2=0.2, delta=0.5)
        x = 0.3 * rng.standard_normal(4)
        g = prob.gradient(x)
        eps = 1e-7
        for k in range(4):
            e = np.zeros(4)
            e[k] = eps
            fd = (prob.objective(x + e) - prob.objective(x - e)) / (2 * eps)
            assert g[k] == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_loss_zero_beyond_margin(self):
        # single sample with margin > 1 contributes only the l2 term
        Y = np.array([[2.0]])
        z = np.array([1.0])
        prob = SmoothedHingeSVM(Y, z, l2=0.5, delta=0.5)
        x = np.array([1.0])  # margin = 2 > 1
        assert prob.objective(x) == pytest.approx(0.25)

    def test_linear_region(self):
        Y = np.array([[1.0]])
        z = np.array([1.0])
        prob = SmoothedHingeSVM(Y, z, l2=1e-12, delta=0.5)
        x = np.array([-1.0])  # margin = -1 <= 1 - delta
        assert prob.objective(x) == pytest.approx(1 - (-1) - 0.25, rel=1e-6)

    def test_make_svm_solvable(self):
        d = make_classification(80, 5, seed=28)
        prob = make_svm(d, l2=0.2)
        xs = prob.solution()
        np.testing.assert_allclose(prob.smooth.gradient(xs), 0.0, atol=1e-7)
