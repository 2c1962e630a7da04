"""Totally asynchronous solver (Definition 1 front-end).

Builds the forward-backward operator for a composite problem, wires a
steering policy and a delay model (defaults: random single-component
steering, bounded random delays) and delegates to a ``model``-kind
execution backend (default: the exact Definition 1 engine).  Accepts
any admissible delay model — including unbounded and out-of-order ones
— which is precisely the "totally asynchronous" regime of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.delays.base import DelayModel
from repro.delays.bounded import UniformRandomDelay
from repro.operators.prox_gradient import ForwardBackwardOperator
from repro.problems.base import CompositeProblem
from repro.runtime.backends import ExecutionRequest
from repro.solvers.base import SolveResult, Solver
from repro.steering.base import SteeringPolicy
from repro.steering.policies import PermutationSweeps
from repro.utils.norms import BlockSpec
from repro.utils.rng import as_generator

__all__ = ["AsyncSolver"]


class AsyncSolver(Solver):
    """Asynchronous proximal-gradient solver with pluggable ``S`` and ``L``.

    Parameters
    ----------
    steering:
        Steering policy factory or instance; defaults to shuffled
        single-component sweeps.
    delays:
        Delay model; defaults to ``UniformRandomDelay(bound=5)``.
    gamma:
        Fixed step; defaults to the paper's maximal ``2/(mu+L)``.
    n_blocks:
        Optional uniform block decomposition (defaults to scalar).
    seed:
        Seed for the default steering/delay models.
    backend:
        ``model``-kind execution backend that runs the iteration
        (default ``"exact"``, the Definition 1 engine).
    """

    def __init__(
        self,
        *,
        steering: SteeringPolicy | None = None,
        delays: DelayModel | None = None,
        gamma: float | None = None,
        n_blocks: int | None = None,
        seed: int | np.random.Generator | None = 0,
        backend: str = "exact",
    ) -> None:
        self.steering = steering
        self.delays = delays
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
        op = ForwardBackwardOperator(problem, gamma, spec)
        n = op.n_components
        steering = (
            self.steering
            if self.steering is not None
            else PermutationSweeps(n, seed=rng)
        )
        delays = (
            self.delays if self.delays is not None else UniformRandomDelay(n, 5, seed=rng)
        )
        request = ExecutionRequest(
            operator=op,
            x0=self._initial_point(problem, x0),
            max_iterations=max_iterations,
            tol=tol * gamma,  # engine residual is in iterate units
            steering=steering,
            delays=delays,
            seed=rng,
        )
        result = self._execute(self.backend, request)
        x = result.x
        return SolveResult(
            x=x,
            converged=result.converged,
            iterations=result.iterations,
            final_residual=problem.prox_gradient_residual(x, gamma),
            objective=problem.objective(x),
            trace=result.trace,
            info={
                "gamma": gamma,
                "backend": self.backend,
                "engine_residual": result.final_residual,
                **result.stats,
            },
        )
