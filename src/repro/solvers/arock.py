"""ARock [32]: asynchronous parallel coordinate updates of a nonexpansive map.

Peng, Xu, Yan & Yin's framework applies, at each step, a *correction*
along one randomly chosen coordinate of the Krasnosel'skii–Mann
residual evaluated at a delayed read:

    ``x_{k+1} = x_k - eta * ( x̂_k - T(x̂_k) )_{i_k} e_{i_k}``

where ``x̂_k`` is an inconsistent/delayed snapshot of ``x``.  Unlike
Definition 1 (which *overwrites* a component with the delayed
computation), ARock adds a damped correction to the *current* state —
the modern comparator the MODERN experiment pits against the paper's
framework.  Convergence requires the step ``eta`` to shrink with the
delay bound; we expose it directly.

The loop runs inside :meth:`ARockSolver.solve`.  It is a comparator,
not an execution of Definition 1, so it is no backend of
:mod:`repro.runtime.backends`: scenario specs, the fleet and
:func:`repro.solve` never reach it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.operators.prox_gradient import ForwardBackwardOperator
from repro.problems.base import CompositeProblem
from repro.solvers.base import SolveResult, Solver
from repro.utils.rng import as_generator

__all__ = ["ARockSolver"]


class ARockSolver(Solver):
    """Asynchronous KM coordinate updates with bounded-delay reads.

    Parameters
    ----------
    eta:
        KM step size in ``(0, 1]``; smaller tolerates larger delays.
    max_delay:
        Snapshot staleness bound: reads come uniformly from the last
        ``max_delay + 1`` states (0 = always current, the serial case).
    gamma:
        Step of the underlying forward-backward map ``T`` (default
        ``1/L``, ARock's standard choice for nonexpansiveness).
    seed:
        RNG seed for coordinate choice and snapshot staleness.
    """

    def __init__(
        self,
        *,
        eta: float = 0.9,
        max_delay: int = 5,
        gamma: float | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {eta}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.eta = float(eta)
        self.max_delay = int(max_delay)
        self.gamma = gamma
        self.seed = seed

    def solve(
        self,
        problem: CompositeProblem,
        *,
        x0: np.ndarray | None = None,
        tol: float = 1e-8,
        max_iterations: int = 200_000,
    ) -> SolveResult:
        gamma = self.gamma if self.gamma is not None else 1.0 / problem.smooth.lipschitz
        op = ForwardBackwardOperator(problem, gamma)
        eta, max_delay = self.eta, self.max_delay
        rng = as_generator(self.seed)
        n = problem.dim
        x = self._initial_point(problem, x0)
        history: deque[np.ndarray] = deque(maxlen=max_delay + 1)
        history.append(x.copy())
        converged = False
        it = 0
        check_every = max(1, n)
        for it in range(1, max_iterations + 1):
            stale = int(rng.integers(0, len(history)))
            x_hat = history[-1 - stale]
            i = int(rng.integers(0, n))
            # KM residual of the forward-backward map along coordinate i.
            ti = op.apply(x_hat)[i]
            x[i] -= eta * (x_hat[i] - ti)
            history.append(x.copy())
            if it % check_every == 0:
                if problem.prox_gradient_residual(x, gamma) < tol:
                    converged = True
                    break
        return SolveResult(
            x=x,
            converged=converged,
            iterations=it,
            final_residual=problem.prox_gradient_residual(x, gamma),
            objective=problem.objective(x),
            info={"eta": eta, "gamma": gamma, "max_delay": max_delay},
        )
