"""Distributed asynchronous Bellman–Ford (the Arpanet algorithm).

Section II of the paper recalls that the first routing algorithm on
the Arpanet (1969) was a distributed asynchronous Bellman–Ford — a
monotone fixed-point iteration that converges totally asynchronously
for nonnegative arc weights.  This module wraps the min-plus operator
in synchronous and asynchronous solvers and accepts ``networkx``
digraphs directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.async_iteration import AsyncIterationEngine
from repro.delays.base import DelayModel
from repro.delays.bounded import UniformRandomDelay
from repro.operators.monotone import MinPlusBellmanFordOperator
from repro.solvers.base import SolveResult
from repro.solvers.synchronous import jacobi_solve
from repro.steering.base import SteeringPolicy
from repro.steering.policies import PermutationSweeps
from repro.utils.rng import as_generator

if TYPE_CHECKING:  # annotation only: keep networkx out of every import
    import networkx as nx

__all__ = ["weights_from_graph", "sync_bellman_ford", "async_bellman_ford"]


def weights_from_graph(graph: nx.DiGraph, weight: str = "weight") -> np.ndarray:
    """Dense arc-weight matrix of a digraph (``inf`` = no arc).

    Node labels must be ``0..N-1``; the entry ``[i, j]`` is the length
    of arc ``i -> j``.
    """
    n = graph.number_of_nodes()
    if sorted(graph.nodes) != list(range(n)):
        raise ValueError("graph nodes must be labelled 0..N-1")
    W = np.full((n, n), np.inf)
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight, 1.0))
        if w < 0:
            raise ValueError(f"arc ({u}, {v}) has negative weight {w}")
        W[u, v] = w
    return W


def sync_bellman_ford(
    weights: np.ndarray,
    destination: int = 0,
    *,
    tol: float = 0.0,
    max_sweeps: int | None = None,
) -> SolveResult:
    """Synchronous Bellman–Ford sweeps to the exact distances.

    With ``tol = 0`` the solve stops at the first stationary sweep
    (exact distances, at most ``N`` sweeps for nonnegative weights).
    """
    op = MinPlusBellmanFordOperator(weights, destination)
    sweeps = max_sweeps if max_sweeps is not None else op.dim + 1
    return jacobi_solve(op, op.initial_vector(), tol=max(tol, 1e-300), max_sweeps=sweeps)


def async_bellman_ford(
    weights: np.ndarray,
    destination: int = 0,
    *,
    steering: SteeringPolicy | None = None,
    delays: DelayModel | None = None,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    seed: int | np.random.Generator | None = 0,
) -> SolveResult:
    """Totally asynchronous Bellman–Ford with arbitrary admissible delays.

    Nodes update their distance estimates from (possibly stale,
    possibly reordered) neighbour estimates; monotonicity from the
    all-large initialization guarantees convergence to the same fixed
    point the synchronous sweeps find.
    """
    rng = as_generator(seed)
    op = MinPlusBellmanFordOperator(weights, destination)
    n = op.n_components
    steering = steering if steering is not None else PermutationSweeps(n, seed=rng)
    delays = delays if delays is not None else UniformRandomDelay(n, 4, seed=rng)
    engine = AsyncIterationEngine(op, steering, delays)
    result = engine.run(op.initial_vector(), max_iterations=max_iterations, tol=tol)
    return SolveResult(
        x=result.x,
        converged=result.converged,
        iterations=result.iterations,
        final_residual=result.final_residual,
        trace=result.trace,
        info={"destination": destination},
    )
