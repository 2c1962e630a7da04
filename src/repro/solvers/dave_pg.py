"""DAve-PG [30]: distributed delay-tolerant proximal gradient.

Mishchenko, Iutzeler & Malick's algorithm splits ``f = sum_m alpha_m f_m``
across ``M`` workers.  The master maintains the *delayed average*
``z = sum_m alpha_m z_m`` of the workers' last contributions; the
active worker reads the master point, computes

    ``z_m^+ = x̂ - gamma * grad f_m(x̂)``   with ``x̂ = prox_{gamma g}(z)``

and the master replaces that worker's slot: ``z <- z + alpha_m (z_m^+ - z_m)``.
Epochs (each machine at least two updates) drive its analysis — the
construct the paper compares against macro-iterations.

Data sharding: least-squares and logistic problems are split by rows
so the ``f_m`` are genuinely heterogeneous; other smooth problems fall
back to the uniform split ``f_m = f / M`` (documented substitution —
the delay dynamics, which is what the experiment measures, are
identical).

The master/worker loop runs inside :meth:`DAvePGSolver.solve`.  It is
a comparator, not an execution of Definition 1, so it is no backend of
:mod:`repro.runtime.backends`: scenario specs, the fleet and
:func:`repro.solve` never reach it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.trace import TraceStore
from repro.problems.base import CompositeProblem
from repro.problems.least_squares import LeastSquaresProblem
from repro.problems.logistic import LogisticProblem
from repro.solvers.base import SolveResult, Solver
from repro.utils.rng import as_generator

__all__ = ["DAvePGSolver", "shard_gradients"]


def shard_gradients(
    problem: CompositeProblem, n_workers: int
) -> list[Callable[[np.ndarray], np.ndarray]]:
    """Per-worker gradient oracles with ``sum_m alpha_m grad f_m = grad f``.

    Row-shards least-squares and logistic smooth parts (weights
    ``alpha_m`` proportional to shard sizes are folded in so the
    returned oracles satisfy ``mean`` aggregation with uniform
    ``alpha_m = 1/M``); falls back to ``grad f`` itself (uniform split)
    for other problems.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    smooth = problem.smooth
    if isinstance(smooth, LeastSquaresProblem):
        Y, z, l2 = smooth.features, smooth.targets, smooth.l2
        m = Y.shape[0]
        idx = np.array_split(np.arange(m), n_workers)
        oracles = []
        for rows in idx:
            Ys, zs = Y[rows], z[rows]
            # Scale so that the average of the oracles equals grad f.
            scale = float(n_workers) / m

            def oracle(x: np.ndarray, Ys=Ys, zs=zs, scale=scale, l2=l2) -> np.ndarray:
                return scale * (Ys.T @ (Ys @ x - zs)) + l2 * x

            oracles.append(oracle)
        return oracles
    if isinstance(smooth, LogisticProblem):
        A = smooth._A
        m = A.shape[0]
        l2 = smooth.l2
        idx = np.array_split(np.arange(m), n_workers)
        oracles = []
        for rows in idx:
            As = A[rows]
            scale = float(n_workers) / m

            def oracle(x: np.ndarray, As=As, scale=scale, l2=l2) -> np.ndarray:
                margins = As @ x
                s = np.where(
                    margins >= 0,
                    np.exp(-np.clip(margins, 0, 700)) / (1.0 + np.exp(-np.clip(margins, 0, 700))),
                    1.0 / (1.0 + np.exp(np.clip(margins, -700, 0))),
                )
                return -scale * (As.T @ s) + l2 * x

            oracles.append(oracle)
        return oracles
    # Uniform fallback: every worker sees the full gradient.
    return [smooth.gradient for _ in range(n_workers)]


class DAvePGSolver(Solver):
    """Simulated DAve-PG with heterogeneous worker activation rates.

    Parameters
    ----------
    n_workers:
        Number of machines ``M``.
    worker_rates:
        Relative activation rates (default all equal); a worker with
        half the rate contributes twice-as-stale gradients — the delay
        regime [30] analyzes with epochs.
    gamma:
        Step size (default ``2/(mu+L)``, the paper-compatible choice).
    seed:
        RNG seed for the activation sequence.
    """

    def __init__(
        self,
        n_workers: int = 4,
        *,
        worker_rates: np.ndarray | None = None,
        gamma: float | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        if worker_rates is not None:
            rates = np.asarray(worker_rates, dtype=np.float64)
            if rates.shape != (self.n_workers,) or np.any(rates <= 0):
                raise ValueError("worker_rates must be positive with one entry per worker")
            self.worker_rates = rates / rates.sum()
        else:
            self.worker_rates = np.full(self.n_workers, 1.0 / self.n_workers)
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
        gamma = self.gamma if self.gamma is not None else problem.smooth.max_step()
        n_workers, worker_rates = self.n_workers, self.worker_rates
        rng = as_generator(self.seed)
        oracles = shard_gradients(problem, n_workers)
        alpha = np.full(n_workers, 1.0 / n_workers)

        # Initialize every worker's contribution from the common start.
        contributions = []
        x_hat0 = problem.reg.prox(self._initial_point(problem, x0), gamma)
        for m in range(n_workers):
            contributions.append(x_hat0 - gamma * oracles[m](x_hat0))
        z = np.zeros(problem.dim)
        for m in range(n_workers):
            z += alpha[m] * contributions[m]

        builder = TraceStore(n_workers)
        builder.record_initial(residual=problem.prox_gradient_residual(x_hat0, gamma))
        converged = False
        it = 0
        last_res = float("inf")
        check_every = max(1, n_workers)
        for it in range(1, max_iterations + 1):
            m = int(rng.choice(n_workers, p=worker_rates))
            x_hat = problem.reg.prox(z, gamma)
            new_contrib = x_hat - gamma * oracles[m](x_hat)
            z = z + alpha[m] * (new_contrib - contributions[m])
            contributions[m] = new_contrib
            if it % check_every == 0:
                x_cur = problem.reg.prox(z, gamma)
                last_res = problem.prox_gradient_residual(x_cur, gamma)
            builder.record(
                (m,), np.full(n_workers, it - 1, dtype=np.int64), residual=last_res
            )
            if last_res < tol:
                converged = True
                break
        x = problem.reg.prox(z, gamma)
        return SolveResult(
            x=x,
            converged=converged,
            iterations=it,
            final_residual=problem.prox_gradient_residual(x, gamma),
            objective=problem.objective(x),
            trace=builder.build(),
            info={"gamma": gamma, "n_workers": n_workers},
        )
