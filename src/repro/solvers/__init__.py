"""End-to-end solvers: the paper's methods and their comparators.

* Synchronous baselines (gradient descent, ISTA, FISTA, Jacobi/GS);
* :class:`AsyncSolver` — totally asynchronous proximal gradient
  (Definition 1), on a ``model``-kind backend;
* :class:`FlexibleAsyncSolver` — flexible communication (Definitions
  3/4, Theorem 1), on a ``model``-kind backend;
* :class:`ARockSolver` [32] and :class:`DAvePGSolver` [30] — modern
  asynchronous comparators, each running its own loop;
* Bellman–Ford (sync + totally async, the Arpanet algorithm);
* :class:`NetworkFlowRelaxationSolver` ([6], [8]);
* :class:`AsyncNewtonSolver` ([25]).

This package sits above :mod:`repro.runtime`, which never imports it.
A registered problem runs on a simulated or real machine through
``repro.solve(..., backend=...)``.
"""

from repro.solvers.arock import ARockSolver
from repro.solvers.asynchronous import AsyncSolver
from repro.solvers.base import SolveResult, Solver
from repro.solvers.bellman_ford import (
    async_bellman_ford,
    sync_bellman_ford,
    weights_from_graph,
)
from repro.solvers.dave_pg import DAvePGSolver, shard_gradients
from repro.solvers.flexible import FlexibleAsyncSolver
from repro.solvers.newton import AsyncNewtonSolver
from repro.solvers.relaxation import NetworkFlowRelaxationSolver
from repro.solvers.synchronous import (
    FISTASolver,
    GradientDescentSolver,
    ISTASolver,
    gauss_seidel_solve,
    jacobi_solve,
)

__all__ = [
    "ARockSolver",
    "AsyncNewtonSolver",
    "AsyncSolver",
    "DAvePGSolver",
    "FISTASolver",
    "FlexibleAsyncSolver",
    "GradientDescentSolver",
    "ISTASolver",
    "NetworkFlowRelaxationSolver",
    "SolveResult",
    "Solver",
    "async_bellman_ford",
    "gauss_seidel_solve",
    "jacobi_solve",
    "shard_gradients",
    "sync_bellman_ford",
    "weights_from_graph",
]
