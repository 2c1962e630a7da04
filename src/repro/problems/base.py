"""Problem interfaces for the composite model (4): ``min f(x) + g(x)``.

``f`` is L-smooth and mu-strongly convex; ``g`` is convex lsc non-smooth
and handled by its prox (:mod:`repro.operators.proximal`).  A
:class:`SmoothProblem` exposes the quantities Theorem 1 consumes
(``mu``, ``L`` and gradients, including cheap *block* gradients for
asynchronous component updates); :class:`CompositeProblem` pairs a
smooth part with a regularizer and can compute a high-accuracy
reference solution by FISTA for error reporting.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.operators.proximal import Regularizer, ZeroRegularizer
from repro.utils.validation import check_vector

__all__ = ["SmoothProblem", "CompositeProblem"]


class SmoothProblem(abc.ABC):
    """An L-smooth, mu-strongly convex differentiable function on ``R^N``."""

    def __init__(self, dim: int, mu: float, lipschitz: float) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if not (0 < mu <= lipschitz):
            raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={lipschitz}")
        self._dim = int(dim)
        self._mu = float(mu)
        self._L = float(lipschitz)

    # -- contract -----------------------------------------------------
    @abc.abstractmethod
    def objective(self, x: np.ndarray) -> float:
        """Evaluate ``f(x)``."""

    @abc.abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``grad f(x)``."""

    def gradient_block(self, x: np.ndarray, sl: slice) -> np.ndarray:
        """Evaluate ``(grad f(x))[sl]``.

        Default slices the full gradient; structured problems override
        with a partial evaluation (cost proportional to the block).
        """
        return self.gradient(x)[sl]

    @classmethod
    def stack(cls, problems: "list[SmoothProblem]") -> "Any | None":
        """Vectorized twin of :meth:`gradient`/:meth:`gradient_block`.

        ``problems`` are same-shape instances of exactly this class; the
        twin offers ``gradient(X, rows)`` and ``gradient_block(X, sl,
        rows)`` on ``(B', dim)`` rows, bit-identical per row to the solo
        calls (see :class:`~repro.operators.base.OperatorStack`).
        ``None`` when the family has none.
        """
        return None

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessian at ``x``; optional (Newton operators need it)."""
        raise NotImplementedError(f"{type(self).__name__} does not provide a Hessian")

    def solution(self) -> np.ndarray | None:
        """The unique minimizer when known in closed form, else ``None``."""
        return None

    # -- metadata -------------------------------------------------------
    @property
    def dim(self) -> int:
        """Ambient dimension ``N``."""
        return self._dim

    @property
    def mu(self) -> float:
        """Strong-convexity modulus ``mu > 0``."""
        return self._mu

    @property
    def lipschitz(self) -> float:
        """Gradient Lipschitz constant ``L >= mu``."""
        return self._L

    @property
    def condition_number(self) -> float:
        """``L / mu``."""
        return self._L / self._mu

    def max_step(self) -> float:
        """The paper's admissible step bound ``2 / (mu + L)``."""
        return 2.0 / (self._mu + self._L)

    def __call__(self, x: np.ndarray) -> float:
        return self.objective(check_vector(x, "x", dim=self._dim))


class CompositeProblem:
    """The full problem (4): smooth part plus proximable regularizer.

    Parameters
    ----------
    smooth:
        The ``f`` of problem (4).
    reg:
        The ``g`` of problem (4); defaults to zero (smooth problem).

    Notes
    -----
    ``solution()`` returns the smooth part's closed form when ``g = 0``,
    and otherwise runs FISTA to near machine precision once and caches
    the result.  Benchmarks treat this as ground truth ``x*``.
    """

    def __init__(self, smooth: SmoothProblem, reg: Regularizer | None = None) -> None:
        self.smooth = smooth
        self.reg = reg if reg is not None else ZeroRegularizer()
        self._solution: np.ndarray | None = None
        self._solved = False

    @property
    def dim(self) -> int:
        """Ambient dimension ``N``."""
        return self.smooth.dim

    def objective(self, x: np.ndarray) -> float:
        """Evaluate ``f(x) + g(x)``."""
        return self.smooth.objective(x) + self.reg.value(x)

    def __call__(self, x: np.ndarray) -> float:
        return self.objective(check_vector(x, "x", dim=self.dim))

    def solution(self, tol: float = 1e-12, max_iter: int = 100_000) -> np.ndarray | None:
        """High-accuracy minimizer of ``f + g`` (cached).

        Uses the closed form when available; otherwise FISTA with
        backtracking-free constant step ``1/L`` and strong-convexity
        restarting momentum.
        """
        if self._solved:
            return None if self._solution is None else self._solution.copy()
        if isinstance(self.reg, ZeroRegularizer):
            xs = self.smooth.solution()
            if xs is not None:
                self._solution = xs
                self._solved = True
                return xs.copy()
        self._solution = self._fista(tol=tol, max_iter=max_iter)
        self._solved = True
        return self._solution.copy()

    def _fista(self, tol: float, max_iter: int) -> np.ndarray:
        """Accelerated proximal gradient with the strongly convex momentum."""
        L, mu = self.smooth.lipschitz, self.smooth.mu
        step = 1.0 / L
        kappa = L / mu
        beta = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        x = np.zeros(self.dim)
        y = x.copy()
        for _ in range(max_iter):
            x_new = self.reg.prox(y - step * self.smooth.gradient(y), step)
            if float(np.max(np.abs(x_new - x))) < tol * max(1.0, float(np.max(np.abs(x)))):
                return x_new
            y = x_new + beta * (x_new - x)
            x = x_new
        return x

    def prox_gradient_residual(self, x: np.ndarray, gamma: float) -> float:
        """Norm of the prox-gradient mapping ``(x - prox(x - gamma grad f(x)))/gamma``.

        Zero exactly at minimizers; the standard verifiable optimality
        measure for composite problems.
        """
        x = check_vector(x, "x", dim=self.dim)
        step = self.reg.prox(x - gamma * self.smooth.gradient(x), gamma)
        return float(np.linalg.norm(x - step)) / gamma
