"""The asynchronous iteration engine — Definitions 1 and 3 executed exactly.

Given an operator ``F``, an initial vector ``x(0)``, a steering policy
``S`` and a delay model ``L``, the engine produces the sequence

    ``x_i(j) = F_i(x_1(l_1(j)), ..., x_n(l_n(j)))   if i in S_j``
    ``x_i(j) = x_i(j-1)                             otherwise``

recording the full ``(S, L)`` trace for macro-iteration/epoch analysis
and optional error/residual series.  Given a
:class:`~repro.core.flexible.PartialUpdateModel` it runs Definition 3
instead: ``F_i`` reads the exchanged values ``x~_h(j)`` the model
produces in place of the labelled iterates ``x_h(l_h(j))``, and the
norm constraint (3) is audited whenever ``x*`` is known.  This is the
*mathematical* engine: global iterations are the serialization points
and delays/steering are supplied as models.  The hardware-level
counterpart that *generates* ``(S, L)`` from processor and channel
timing lives in :mod:`repro.runtime.simulator` and produces the same
trace type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.flexible import PartialUpdateModel
from repro.core.history import VectorHistory
from repro.core.trace import IterationTrace, TraceStore, resolve_sink
from repro.delays.base import DelayModel
from repro.operators.base import FixedPointOperator
from repro.steering.base import SteeringPolicy
from repro.utils.norms import block_euclidean_norms
from repro.utils.validation import check_vector

__all__ = ["AsyncRunResult", "AsyncIterationEngine"]


@dataclass(frozen=True)
class AsyncRunResult:
    """Outcome of an asynchronous run.

    Attributes
    ----------
    x:
        Final iterate ``x(J)``.
    trace:
        The realized :class:`~repro.core.trace.IterationTrace`.
    converged:
        Whether the stopping tolerance was reached before the
        iteration budget ran out.
    iterations:
        Number of global iterations performed.
    final_residual:
        Fixed-point residual ``||F(x) - x||_u`` at the final iterate.
    constraint_checks:
        Number of (iteration, component) pairs checked against (3);
        zero unless a partial-update model ran with ``x*`` known.
    constraint_violations:
        How many checks failed.
    worst_constraint_ratio:
        Max observed ``||x~_h - x*_h||_h / (u_h ||x(l(j)) - x*||_u)``
        (``<= 1`` means the constraint held everywhere).
    """

    x: np.ndarray
    trace: IterationTrace
    converged: bool
    iterations: int
    final_residual: float
    constraint_checks: int = 0
    constraint_violations: int = 0
    worst_constraint_ratio: float = 0.0

    def final_error(self) -> float | None:
        """Final ``||x - x*||_u`` when the trace carries an error series."""
        if self.trace.errors is None or self.trace.errors.size == 0:
            return None
        return float(self.trace.errors[-1])


class AsyncIterationEngine:
    """Driver for Definition 1 and Definition 3 asynchronous iterations.

    Parameters
    ----------
    operator:
        The fixed-point map ``F`` (its block spec defines components).
    steering:
        Steering policy producing ``S_j``; component count must match.
    delays:
        Delay model producing ``l_i(j)``; component count must match.
    partials:
        ``None`` runs Definition 1: ``F`` reads the labelled iterates.
        A :class:`~repro.core.flexible.PartialUpdateModel` runs
        Definition 3: ``F`` reads its exchanged values, and the norm
        constraint (3) is audited whenever ``x*`` is known.
    reference:
        Optional known fixed point ``x*`` for error tracking; defaults
        to ``operator.fixed_point()``.
    residual_every:
        Evaluate the (full-operator) residual every this many
        iterations for the stopping test; 1 = every iteration.
    """

    def __init__(
        self,
        operator: FixedPointOperator,
        steering: SteeringPolicy,
        delays: DelayModel,
        partials: PartialUpdateModel | None = None,
        *,
        reference: np.ndarray | None = None,
        residual_every: int = 1,
    ) -> None:
        n = operator.n_components
        if steering.n_components != n:
            raise ValueError(
                f"steering has {steering.n_components} components, operator has {n}"
            )
        if delays.n_components != n:
            raise ValueError(
                f"delay model has {delays.n_components} components, operator has {n}"
            )
        if residual_every < 1:
            raise ValueError(f"residual_every must be >= 1, got {residual_every}")
        self.operator = operator
        self.steering = steering
        self.delays = delays
        self.partials = partials
        self.residual_every = int(residual_every)
        if reference is None:
            reference = operator.fixed_point()
        self.reference = (
            None if reference is None else check_vector(reference, "reference", dim=operator.dim)
        )

    def run(
        self,
        x0: np.ndarray,
        *,
        max_iterations: int = 10_000,
        tol: float = 1e-10,
        track_errors: bool = True,
        track_residuals: bool = True,
        meta: dict[str, Any] | None = None,
        sink: TraceStore | None = None,
    ) -> AsyncRunResult:
        """Execute the asynchronous iteration from ``x0``.

        Stops when the fixed-point residual (checked every
        ``residual_every`` iterations) falls below ``tol`` or the
        iteration budget is exhausted.  ``sink`` injects the
        :class:`~repro.core.trace.TraceStore` the run records into (or
        any object with its sink interface); by default the engine uses
        a fresh one.
        """
        x0 = check_vector(x0, "x0", dim=self.operator.dim)
        if max_iterations < 0:
            raise ValueError(f"max_iterations must be >= 0, got {max_iterations}")
        partials = self.partials
        self.steering.reset()
        self.delays.reset()
        if partials is not None:
            partials.reset()
        norm = self.operator.norm()
        spec = self.operator.block_spec
        hist = VectorHistory(x0, spec)
        builder = resolve_sink(sink, spec.n_blocks)
        if meta:
            builder.meta.update(meta)

        track_err = track_errors and self.reference is not None
        audit = partials is not None and self.reference is not None
        err0 = norm(x0 - self.reference) if track_err else None
        res0 = self.operator.residual(x0) if track_residuals else None
        builder.record_initial(error=err0, residual=res0)

        checks = violations = 0
        worst_ratio = 0.0
        converged = False
        last_residual = res0 if res0 is not None else float("inf")

        for j in range(1, max_iterations + 1):
            S = self.steering.active_set(j)
            if len(S) == 0:
                raise RuntimeError(f"steering produced empty S_{j}")
            labels = self.delays.labels(j)
            if partials is None:
                exchanged = hist.assemble(labels)
            else:
                exchanged = partials.values(hist, labels, j)
            if audit:
                # Constraint (3): ||x~_h - x*_h||_h / u_h <= ||x(l(j)) - x*||_u.
                rhs = norm(hist.assemble(labels) - self.reference)
                lhs = block_euclidean_norms(exchanged - self.reference, spec) / norm.weights
                checks += spec.n_blocks
                if rhs > 0:
                    ratios = lhs / rhs
                    worst_ratio = max(worst_ratio, float(np.max(ratios)))
                    violations += int(np.sum(ratios > 1.0 + 1e-12))
                else:
                    violations += int(np.sum(lhs > 1e-12))
            updates = {i: self.operator.apply_block(exchanged, i) for i in S}
            hist.commit(j, updates)

            err = norm(hist.current - self.reference) if track_err else None
            res: float | None = None
            if track_residuals:
                if j % self.residual_every == 0 or j == max_iterations:
                    res = self.operator.residual(hist.current)
                    last_residual = res
                else:
                    res = last_residual
            builder.record(S, labels, error=err, residual=res)

            if track_residuals and last_residual < tol:
                converged = True
                break

        x_final = hist.current.copy()
        final_res = self.operator.residual(x_final)
        if not track_residuals and final_res < tol:
            converged = True
        return AsyncRunResult(
            x=x_final,
            trace=builder.build(),
            converged=converged,
            iterations=hist.latest_label,
            final_residual=final_res,
            constraint_checks=checks,
            constraint_violations=violations,
            worst_constraint_ratio=worst_ratio,
        )
