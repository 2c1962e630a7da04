"""Tests for affine operators and classical splittings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.operators.linear import (
    _ANALYSIS_STACK_BYTES,
    AffineOperator,
    jacobi_operator,
    jor_operator,
    richardson_operator,
)
from repro.problems.linear_system import (
    make_jacobi_batch,
    random_dominant_system,
    tridiagonal_system,
)
from repro.utils.norms import BlockSpec


class TestAffineOperator:
    def test_apply_matches_formula(self, rng):
        A = rng.standard_normal((4, 4)) * 0.1
        b = rng.standard_normal(4)
        op = AffineOperator(A, b)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(op(x), A @ x + b)

    def test_apply_block_matches_full(self, rng):
        A = rng.standard_normal((6, 6)) * 0.1
        b = rng.standard_normal(6)
        spec = BlockSpec((2, 2, 2))
        op = AffineOperator(A, b, spec)
        x = rng.standard_normal(6)
        full = op.apply(x)
        for i in range(3):
            np.testing.assert_allclose(op.apply_block(x, i), full[spec.slice(i)])

    def test_fixed_point_solves_system(self, rng):
        A = 0.3 * np.eye(3)
        b = np.array([1.0, 2.0, 3.0])
        op = AffineOperator(A, b)
        fp = op.fixed_point()
        np.testing.assert_allclose(op(fp), fp, atol=1e-12)

    def test_fixed_point_none_when_singular(self):
        op = AffineOperator(np.eye(2), np.ones(2))  # I - A singular
        assert op.fixed_point() is None

    def test_contraction_factor_diagonal(self):
        op = AffineOperator(np.diag([0.5, -0.25]), np.zeros(2))
        q = op.contraction_factor()
        assert q == pytest.approx(0.5, abs=1e-6)

    def test_contraction_none_when_expanding(self):
        op = AffineOperator(2.0 * np.eye(2), np.zeros(2))
        assert op.contraction_factor() is None

    def test_contraction_certified_by_norm(self, rng):
        M, c = random_dominant_system(8, dominance=0.3, seed=1)
        op = jacobi_operator(M, c)
        q = op.contraction_factor()
        norm = op.norm()
        assert q is not None and q < 1.0
        # Verify ||F(x)-F(y)||_u <= q ||x-y||_u on random pairs.
        for _ in range(20):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            assert norm(op(x) - op(y)) <= q * norm(x - y) + 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            AffineOperator(np.zeros((2, 3)), np.zeros(2))

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            AffineOperator(np.eye(2), np.zeros(3))

    def test_residual_zero_at_fixed_point(self):
        op = AffineOperator(0.5 * np.eye(2), np.ones(2))
        fp = op.fixed_point()
        assert op.residual(fp) < 1e-12


class TestSplittings:
    def test_jacobi_fixed_point_solves_linear_system(self):
        M, c = tridiagonal_system(6, seed=2)
        op = jacobi_operator(M, c)
        fp = op.fixed_point()
        np.testing.assert_allclose(M @ fp, c, atol=1e-10)

    def test_jacobi_contraction_exact_for_constructed_dominance(self):
        M, c = random_dominant_system(10, dominance=0.4, seed=3)
        op = jacobi_operator(M, c)
        # Row sums of |D^{-1}R| equal 1 - dominance by construction.
        rowsums = np.sum(np.abs(op.A), axis=1)
        np.testing.assert_allclose(rowsums, 0.6, atol=1e-10)

    def test_jacobi_rejects_zero_diagonal(self):
        M = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            jacobi_operator(M, np.zeros(2))

    def test_jor_interpolates_identity_and_jacobi(self):
        M, c = tridiagonal_system(5, seed=4)
        jac = jacobi_operator(M, c)
        jor = jor_operator(M, c, omega=0.5)
        x = np.ones(5)
        np.testing.assert_allclose(jor(x), 0.5 * x + 0.5 * jac(x))

    def test_jor_same_fixed_point_as_jacobi(self):
        M, c = tridiagonal_system(5, seed=5)
        fp_j = jacobi_operator(M, c).fixed_point()
        fp_o = jor_operator(M, c, omega=0.7).fixed_point()
        np.testing.assert_allclose(fp_j, fp_o, atol=1e-10)

    def test_jor_rejects_bad_omega(self):
        M, c = tridiagonal_system(4)
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                jor_operator(M, c, omega=bad)

    def test_richardson_fixed_point(self):
        M, c = tridiagonal_system(6, seed=6)
        op = richardson_operator(M, c, alpha=0.1)
        fp = op.fixed_point()
        np.testing.assert_allclose(M @ fp, c, atol=1e-8)

    def test_richardson_rejects_nonpositive_alpha(self):
        M, c = tridiagonal_system(4)
        with pytest.raises(ValueError):
            richardson_operator(M, c, alpha=0.0)

    def test_spectral_radius_abs(self):
        op = AffineOperator(np.array([[0.0, -0.5], [0.5, 0.0]]), np.zeros(2))
        assert op.spectral_radius_abs() == pytest.approx(0.5, abs=1e-9)


class TestJacobiBatch:
    """Batch construction: bounded memory, every operator bit-identical to solo."""

    N, B = 64, 40

    def test_construction_peak_under_four_stacks(self):
        import tracemalloc

        make_jacobi_batch(self.N, seeds=[0, 1])  # warm imports
        tracemalloc.start()
        try:
            ops = make_jacobi_batch(self.N, seeds=list(range(self.B)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ops) == self.B
        assert peak < 4 * self.B * self.N * self.N * 8

    def test_sub_stacked_analysis_matches_solo(self):
        # More operators than one LAPACK sub-stack holds.
        assert self.B > _ANALYSIS_STACK_BYTES // (8 * self.N * self.N)
        ops = make_jacobi_batch(self.N, seeds=list(range(self.B)))
        # The batch build leaves the caches to the executor, which fills
        # them once it admits the group.
        AffineOperator.precompute_batch(ops)
        for seed, op in enumerate(ops):
            solo = jacobi_operator(*random_dominant_system(self.N, seed=seed))
            solo.contraction_factor()
            solo.fixed_point()
            # Bit for bit, down to the sign of the diagonal's zeros.
            assert solo.A.tobytes() == op.A.tobytes()
            assert solo.b.tobytes() == op.b.tobytes()
            assert solo._contraction[0] == op._contraction[0]
            assert solo._contraction[1].tobytes() == op._contraction[1].tobytes()
            assert solo._fixed_point.tobytes() == op._fixed_point.tobytes()
