"""Flexible-communication solver (Definitions 3/4 front-end, Theorem 1).

Builds the Definition 4 operator ``G`` (prox, then fixed-step gradient)
for a composite problem and runs it as Definition 3 with interpolated
partial updates — the mathematical counterpart of the Figure 2
schedule.  The result carries the constraint-(3) audit and enough trace
for a Theorem 1 certificate.
"""

from __future__ import annotations

import numpy as np

from repro.core.flexible import InterpolatedPartials, PartialUpdateModel
from repro.delays.base import DelayModel
from repro.delays.bounded import UniformRandomDelay
from repro.operators.prox_gradient import ProxGradientOperator
from repro.problems.base import CompositeProblem
from repro.runtime.backends import ExecutionRequest
from repro.solvers.base import SolveResult, Solver
from repro.steering.base import SteeringPolicy
from repro.steering.policies import PermutationSweeps
from repro.utils.norms import BlockSpec
from repro.utils.rng import as_generator

__all__ = ["FlexibleAsyncSolver"]


class FlexibleAsyncSolver(Solver):
    """Asynchronous solver with flexible communication (partial updates).

    Parameters
    ----------
    steering, delays:
        The ``S`` and ``L`` models (defaults as in
        :class:`~repro.solvers.asynchronous.AsyncSolver`).
    partials:
        Partial-update generator; defaults to
        :class:`~repro.core.flexible.InterpolatedPartials`.
    gamma:
        Fixed step in ``(0, 2/(mu+L)]``; defaults to the maximum.
    n_blocks:
        Optional uniform block decomposition.
    seed:
        Seed for default stochastic models.
    backend:
        ``model``-kind execution backend (default ``"flexible"``, the
        Definition 3 engine with the constraint-(3) audit).
    """

    def __init__(
        self,
        *,
        steering: SteeringPolicy | None = None,
        delays: DelayModel | None = None,
        partials: PartialUpdateModel | None = None,
        gamma: float | None = None,
        n_blocks: int | None = None,
        seed: int | np.random.Generator | None = 0,
        backend: str = "flexible",
    ) -> None:
        self.steering = steering
        self.delays = delays
        self.partials = partials
        self.gamma = gamma
        self.n_blocks = n_blocks
        self.seed = seed
        self.backend = backend

    def solve(
        self,
        problem: CompositeProblem,
        *,
        x0: np.ndarray | None = None,
        tol: float = 1e-8,
        max_iterations: int = 100_000,
    ) -> SolveResult:
        rng = as_generator(self.seed)
        gamma = self.gamma if self.gamma is not None else problem.smooth.max_step()
        spec = (
            BlockSpec.uniform(problem.dim, self.n_blocks)
            if self.n_blocks is not None
            else None
        )
        op = ProxGradientOperator(problem, gamma, spec)
        n = op.n_components
        steering = (
            self.steering
            if self.steering is not None
            else PermutationSweeps(n, seed=rng)
        )
        delays = (
            self.delays if self.delays is not None else UniformRandomDelay(n, 5, seed=rng)
        )
        partials = (
            self.partials if self.partials is not None else InterpolatedPartials(seed=rng)
        )
        request = ExecutionRequest(
            operator=op,
            x0=self._initial_point(problem, x0),
            max_iterations=max_iterations,
            tol=tol * gamma,
            steering=steering,
            delays=delays,
            seed=rng,
            options={"partials": partials},
        )
        result = self._execute(self.backend, request)
        # The engine iterates in the G-space; map back to the minimizer.
        x = op.minimizer_from_fixed_point(result.x)
        return SolveResult(
            x=x,
            converged=result.converged,
            iterations=result.iterations,
            final_residual=problem.prox_gradient_residual(x, gamma),
            objective=problem.objective(x),
            trace=result.trace,
            info={
                "gamma": gamma,
                "rho": op.rho,
                "backend": self.backend,
                "engine_residual": result.final_residual,
                **result.stats,
            },
        )
