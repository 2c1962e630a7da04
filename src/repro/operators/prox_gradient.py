"""Proximal-gradient operators for the composite problem (4).

Two orderings appear in the literature and both are provided:

* :class:`ProxGradientOperator` — **Definition 4 of the paper**
  (backward–forward): ``G(x) = p - gamma * grad f(p)`` with
  ``p = prox_{gamma g}(x)``.  Its fixed points are the points whose
  prox is the minimizer of (4); the operator inherits the gradient
  step's contraction factor ``1 - gamma*mu`` because the prox is
  nonexpansive, which is what Theorem 1 uses.
* :class:`ForwardBackwardOperator` — classical ISTA ordering
  ``G(x) = prox_{gamma g}(x - gamma * grad f(x))`` whose fixed point
  *is* the minimizer of (4); used by the synchronous baselines and the
  modern comparators (ARock, DAve-PG).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.operators.base import FixedPointOperator, OperatorStack, RowStack
from repro.operators.gradient import gradient_contraction_factor
from repro.operators.proximal import (
    L1Regularizer,
    Regularizer,
    ZeroRegularizer,
    soft_threshold,
)
from repro.utils.norms import BlockSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.problems.base import CompositeProblem

__all__ = ["ProxGradientOperator", "ForwardBackwardOperator"]


class _CompositeOperatorBase(FixedPointOperator):
    """Shared plumbing for the two prox-gradient orderings."""

    def __init__(
        self,
        problem: "CompositeProblem",
        gamma: float,
        block_spec: BlockSpec | None = None,
        *,
        strict_step: bool = True,
    ) -> None:
        super().__init__(problem.dim, block_spec)
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        mu, L = problem.smooth.mu, problem.smooth.lipschitz
        gmax = 2.0 / (mu + L)
        if strict_step and gamma > gmax * (1.0 + 1e-12):
            raise ValueError(
                f"gamma={gamma} exceeds the paper's bound 2/(mu+L)={gmax:.6g}; "
                "pass strict_step=False to override"
            )
        self.problem = problem
        self.gamma = float(gamma)

    @property
    def regularizer(self) -> Regularizer:
        """The non-smooth part ``g`` of problem (4)."""
        return self.problem.reg

    def contraction_factor(self) -> float | None:
        mu, L = self.problem.smooth.mu, self.problem.smooth.lipschitz
        return gradient_contraction_factor(self.gamma, mu, L)

    @property
    def rho(self) -> float:
        """Theorem 1's modulus ``rho = gamma * mu``."""
        return self.gamma * self.problem.smooth.mu


class ProxGradientOperator(_CompositeOperatorBase):
    """Definition 4: ``G(x) = prox(x) - gamma * grad f(prox(x))``.

    The prox is applied first, then one gradient step with fixed step
    size ``gamma in (0, 2/(mu+L)]``.  Since ``prox_{gamma g}`` is
    (firmly) nonexpansive and the gradient step contracts with factor
    ``1 - gamma*mu``, the composition contracts with the same factor —
    the ``1 - rho`` driving the macro-iteration bound (5).

    The fixed point ``y*`` of ``G`` satisfies ``prox(y*) = x*`` where
    ``x*`` minimizes (4): setting ``p = prox(y*)``, stationarity of the
    composite problem gives ``p - gamma grad f(p) = y*`` exactly when
    ``gamma * subgrad g(p) ∋ y* - p``, the prox optimality condition.
    """

    def apply(self, x: np.ndarray) -> np.ndarray:
        p = self.regularizer.prox(x, self.gamma)
        return p - self.gamma * self.problem.smooth.gradient(p)

    def apply_block(self, x: np.ndarray, i: int) -> np.ndarray:
        # Separable regularizers would allow a blockwise prox, but the
        # general contract only promises a full prox; evaluate fully and
        # slice. Concrete separable cases can override via subclassing.
        p = self.regularizer.prox(x, self.gamma)
        sl = self.block_spec.slice(i)
        g = self.problem.smooth.gradient_block(p, sl)
        return p[sl] - self.gamma * g

    def fixed_point(self) -> np.ndarray | None:
        """The fixed point ``y* = x* - gamma * grad f(x*)`` of ``G``.

        Derived from the problem's known minimizer ``x*`` when
        available: by the prox optimality condition,
        ``prox_{gamma g}(x* - gamma grad f(x*)) = x*``; substituting
        into the definition of ``G`` shows ``y*`` as above is fixed.
        """
        xstar = self.problem.solution()
        if xstar is None:
            return None
        return xstar - self.gamma * self.problem.smooth.gradient(xstar)

    def minimizer_from_fixed_point(self, y: np.ndarray) -> np.ndarray:
        """Map an iterate of ``G`` to an approximate minimizer of (4)."""
        return self.regularizer.prox(y, self.gamma)


class ForwardBackwardOperator(_CompositeOperatorBase):
    """ISTA ordering: ``G(x) = prox_{gamma g}(x - gamma * grad f(x))``.

    Fixed points coincide with minimizers of (4).  Contraction factor
    is the same ``1 - gamma*mu`` (prox nonexpansive after a
    contracting gradient step).
    """

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.regularizer.prox(x - self.gamma * self.problem.smooth.gradient(x), self.gamma)

    def apply_block(self, x: np.ndarray, i: int) -> np.ndarray:
        # The prox of the separable regularizers used in this library is
        # coordinatewise except GroupLasso, whose groups must then align
        # with the block spec; we evaluate the forward step only on the
        # needed block and prox it when the regularizer is separable.
        if isinstance(self.regularizer, ZeroRegularizer):
            sl = self.block_spec.slice(i)
            return x[sl] - self.gamma * self.problem.smooth.gradient_block(x, sl)
        return self.apply(x)[self.block_spec.slice(i)]

    @classmethod
    def stack(cls, ops: "Sequence[FixedPointOperator]") -> OperatorStack:
        """Vectorized twin when the smooth part has one and ``g`` is zero or L1."""
        head = ops[0]
        reg_type = type(head.regularizer)
        smooth_type = type(head.problem.smooth)
        if (
            cls is ForwardBackwardOperator
            and reg_type in (ZeroRegularizer, L1Regularizer)
            and all(
                type(op) is cls
                and type(op.regularizer) is reg_type
                and type(op.problem.smooth) is smooth_type
                and op.block_spec == head.block_spec
                for op in ops
            )
        ):
            smooth = smooth_type.stack([op.problem.smooth for op in ops])
            if smooth is not None:
                return _ForwardBackwardStack(ops, smooth)
        return super().stack(ops)

    def fixed_point(self) -> np.ndarray | None:
        return self.problem.solution()


class _ForwardBackwardStack(OperatorStack):
    """Stacked forward step, then the zero or soft-threshold prox, per row.

    ``gamma`` and the L1 threshold ``lam * gamma`` ride as per-row
    columns; the gradient comes from the smooth part's stacked twin.
    """

    def __init__(self, ops: "Sequence[ForwardBackwardOperator]", smooth: Any) -> None:
        super().__init__(ops)
        self._smooth = smooth
        self._slices = list(ops[0].block_spec.slices())
        self._l1 = type(ops[0].regularizer) is L1Regularizer
        self._operands = RowStack(
            np.array([[op.gamma] for op in ops]),
            np.array([[op.regularizer.lam * op.gamma if self._l1 else 0.0] for op in ops]),
        )

    def apply(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        gamma, t = self._operands.take(rows)
        Y = X - gamma * self._smooth.gradient(X, rows)
        return soft_threshold(Y, t) if self._l1 else Y

    def apply_block(self, X: np.ndarray, i: int, rows: np.ndarray) -> np.ndarray:
        gamma, t = self._operands.take(rows)
        sl = self._slices[i]
        if not self._l1:
            return X[:, sl] - gamma * self._smooth.gradient_block(X, sl, rows)
        # The solo prox slices a full forward step; the elementwise tail
        # may run on the block alone, the gradient may not.
        G = self._smooth.gradient(X, rows)
        return soft_threshold(X[:, sl] - gamma * G[:, sl], t)
