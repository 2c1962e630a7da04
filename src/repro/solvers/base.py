"""Solver interfaces and the common result type.

The paper's solvers are thin front-ends over the execution backends:
they build the right operator for a
:class:`~repro.problems.base.CompositeProblem` (or accept a raw
:class:`~repro.operators.base.FixedPointOperator`), choose
steering/delay/partial models, then delegate the actual iteration to
a registered ``model``-kind
:class:`~repro.runtime.backends.ExecutionBackend` via
:meth:`Solver._execute` and return a :class:`SolveResult` with the
realized trace attached for analysis.  The comparators (ARock [32],
DAve-PG [30]) and the synchronous baselines run their own loops.  To
run a registered problem on a machine, use
``repro.solve(..., backend=...)``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.trace import IterationTrace
from repro.problems.base import CompositeProblem

__all__ = ["SolveResult", "Solver"]


@dataclass(frozen=True)
class SolveResult:
    """Uniform outcome of every solver in :mod:`repro.solvers`.

    Attributes
    ----------
    x:
        Final iterate (for prox-gradient solvers: the *minimizer*
        estimate, post-prox when the operator iterates in the
        transformed space).
    converged:
        Whether the stopping tolerance was met within budget.
    iterations:
        Global iterations (or sweeps, for synchronous methods).
    final_residual:
        Solver-specific optimality measure at ``x`` (fixed-point
        residual or prox-gradient mapping norm).
    objective:
        Final objective value when the solver knows a problem
        (``nan`` for raw fixed-point solves).
    trace:
        Realized iteration trace when the solver records one.
    simulated_time:
        Simulated wall-clock when a simulator backend produced the
        run (``nan`` otherwise).
    info:
        Solver-specific extras (constraint audits, detector reports...).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    final_residual: float
    objective: float = float("nan")
    trace: IterationTrace | None = None
    simulated_time: float = float("nan")
    info: dict[str, Any] = field(default_factory=dict)

    def error_to(self, reference: np.ndarray) -> float:
        """Max-norm distance of the final iterate to a reference point."""
        return float(np.max(np.abs(self.x - np.asarray(reference, dtype=np.float64))))


class Solver(abc.ABC):
    """Base class for composite-problem solvers."""

    @abc.abstractmethod
    def solve(
        self,
        problem: CompositeProblem,
        *,
        x0: np.ndarray | None = None,
        tol: float = 1e-8,
        max_iterations: int = 100_000,
    ) -> SolveResult:
        """Minimize ``f + g`` to the requested tolerance."""

    @staticmethod
    def _execute(backend: str, request: Any) -> Any:
        """Dispatch an :class:`~repro.runtime.backends.ExecutionRequest`.

        Looks the backend up in the runtime registry, requires a
        ``model`` kind (the solvers prescribe ``(S, L)`` models and
        cannot run on a machine backend) and executes the request.
        Imported lazily so the solver layer stays importable without
        the runtime substrates.
        """
        from repro.runtime import backends as _backends

        chosen = _backends.get_backend(backend)
        if chosen.kind != "model":
            raise ValueError(
                f"backend {backend!r} has kind {chosen.kind!r}, need 'model' "
                f"(choose from {', '.join(_backends.available_backends('model'))})"
            )
        return chosen.execute(request)

    @staticmethod
    def _initial_point(problem: CompositeProblem, x0: np.ndarray | None) -> np.ndarray:
        if x0 is None:
            return np.zeros(problem.dim)
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (problem.dim,):
            raise ValueError(f"x0 must have shape ({problem.dim},), got {x0.shape}")
        return x0.copy()
