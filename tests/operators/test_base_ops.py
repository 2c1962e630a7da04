"""Tests for the operator base classes (composition, damping, contracts)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.operators.base import ComposedOperator, DampedOperator, FixedPointOperator
from repro.operators.linear import AffineOperator
from repro.utils.norms import BlockSpec


@pytest.fixture
def halver():
    return AffineOperator(0.5 * np.eye(4), np.ones(4))


@pytest.fixture
def shifter():
    return AffineOperator(np.zeros((4, 4)), 2.0 * np.ones(4))


class TestOperatorContract:
    def test_call_validates_dimension(self, halver):
        with pytest.raises(ValueError):
            halver(np.ones(3))

    def test_call_equals_apply(self, halver, rng):
        x = rng.standard_normal(4)
        np.testing.assert_array_equal(halver(x), halver.apply(x))

    def test_apply_blocks_concatenates(self, rng):
        spec = BlockSpec((2, 2))
        op = AffineOperator(0.3 * np.eye(4), np.arange(4.0), spec)
        x = rng.standard_normal(4)
        full = op.apply(x)
        out = op.apply_blocks(x, [1, 0])
        np.testing.assert_array_equal(out, np.concatenate([full[2:], full[:2]]))

    def test_apply_blocks_empty(self, halver):
        assert halver.apply_blocks(np.zeros(4), []).size == 0

    def test_n_components(self):
        op = AffineOperator(np.eye(4) * 0.1, np.zeros(4), BlockSpec((3, 1)))
        assert op.n_components == 2
        assert op.dim == 4

    def test_block_spec_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="covers"):
            AffineOperator(np.eye(4) * 0.1, np.zeros(4), BlockSpec((2, 1)))

    def test_residual_in_operator_norm(self, halver):
        fp = halver.fixed_point()
        assert halver.residual(fp) < 1e-12
        assert halver.residual(fp + 1.0) > 0


class TestComposedOperator:
    def test_composition_order(self, halver, shifter):
        # outer(inner(x)): shift then halve vs halve then shift differ
        a = ComposedOperator(halver, shifter)  # halver(shifter(x))
        b = ComposedOperator(shifter, halver)  # shifter(halver(x))
        x = np.zeros(4)
        np.testing.assert_allclose(a(x), 0.5 * 2.0 + 1.0)
        np.testing.assert_allclose(b(x), 2.0)

    def test_dim_mismatch_rejected(self, halver):
        other = AffineOperator(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="mismatch"):
            ComposedOperator(halver, other)

    def test_block_default_consistent(self, halver, shifter, rng):
        comp = ComposedOperator(halver, shifter)
        x = rng.standard_normal(4)
        full = comp.apply(x)
        for i in range(4):
            np.testing.assert_allclose(comp.apply_block(x, i), full[i : i + 1])


class TestDampedOperatorExtra:
    def test_block_path_matches_full(self, halver, rng):
        op = DampedOperator(halver, 0.4)
        x = rng.standard_normal(4)
        full = op.apply(x)
        for i in range(4):
            np.testing.assert_allclose(op.apply_block(x, i), full[i : i + 1])

    def test_norm_delegates_to_base(self, halver):
        op = DampedOperator(halver, 0.5)
        x = np.array([1.0, -2.0, 0.0, 0.5])
        assert op.norm()(x) == halver.norm()(x)

    def test_contraction_none_propagates(self):
        expanding = AffineOperator(2.0 * np.eye(2), np.zeros(2))
        op = DampedOperator(expanding, 0.5)
        assert op.contraction_factor() is None


def _sweep_operators():
    """One operator per ``gauss_seidel`` implementation the simulator runs."""
    from repro.operators.linear import jacobi_operator
    from repro.problems.linear_system import random_dominant_system
    from repro.scenarios.registry import make_problem

    M, c = random_dominant_system(12, seed=3)
    scalar = jacobi_operator(M, c)
    return {
        "affine-scalar": scalar,
        "affine-fortran": AffineOperator(np.asfortranarray(scalar.A), scalar.b),
        "affine-dim-1": AffineOperator(np.array([[0.25]]), np.array([-0.0])),
        "affine-block": jacobi_operator(M, c, BlockSpec((3, 1, 4, 2, 2))),
        "forward-backward": make_problem("lasso", 4, n_samples=30, n_features=9),
        "damped": DampedOperator(scalar, 0.6),
        "composed": ComposedOperator(scalar, jacobi_operator(M.T, c)),
    }


class TestGaussSeidelSweep:
    """``gauss_seidel`` is the ``apply_block`` loop, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_sweep_operators()))
    def test_sweep_equals_apply_block_loop(self, name, rng):
        op = _sweep_operators()[name]
        n = op.n_components
        orders = [tuple(range(n)), tuple(rng.permutation(n)[: max(1, n // 2)].tolist())]
        for blocks in orders:
            x = rng.standard_normal(op.dim)
            want = x.copy()
            # Two sweeps, so the second reads the rows the first cached.
            for _ in range(2):
                op.gauss_seidel(x, blocks)
                for i in blocks:
                    want[op.block_spec.slice(i)] = op.apply_block(want, i)
                assert x.tobytes() == want.tobytes()

    def test_later_blocks_see_earlier_updates(self):
        # x1 <- x0 + 1 reads the x0 the same sweep just wrote.
        op = AffineOperator(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([2.0, 1.0]))
        x = np.zeros(2)
        op.gauss_seidel(x, (0, 1))
        assert x.tolist() == [2.0, 3.0]
