"""Proximal operators of the non-smooth convex regularizers ``g``.

Problem (4) of the paper, ``min f(x) + g(x)``, covers regularized
machine-learning training; ``g`` is handled through its proximal map

    ``prox_{gamma g}(x) = argmin_v { g(v) + ||v - x||^2 / (2 gamma) }``.

Every :class:`Regularizer` provides the value ``g(x)`` and a closed-form
vectorized ``prox``.  All proximal maps are firmly nonexpansive — a
property the test suite verifies by hypothesis testing — which is what
Theorem 1 needs for the composed operator of Definition 4 to inherit
the gradient step's contraction.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.norms import BlockSpec, block_euclidean_norms
from repro.utils.validation import check_nonnegative, check_vector

__all__ = [
    "Regularizer",
    "ZeroRegularizer",
    "L1Regularizer",
    "L2Regularizer",
    "SquaredL2Regularizer",
    "ElasticNetRegularizer",
    "BoxConstraint",
    "NonNegativeConstraint",
    "GroupLassoRegularizer",
    "soft_threshold",
]


def soft_threshold(x: np.ndarray, t: "float | np.ndarray") -> np.ndarray:
    """``sign(x) * max(|x| - t, 0)``, elementwise.

    ``t`` may be a scalar or broadcast per row (a ``(B', 1)`` column for
    stacked rows); each element takes the same operations either way.
    """
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


class Regularizer(abc.ABC):
    """A proper convex lower semi-continuous function with known prox."""

    @abc.abstractmethod
    def value(self, x: np.ndarray) -> float:
        """Evaluate ``g(x)`` (may be ``inf`` for constraints)."""

    @abc.abstractmethod
    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        """Evaluate ``prox_{gamma g}(x)``; must not mutate ``x``."""

    def __call__(self, x: np.ndarray) -> float:
        return self.value(np.asarray(x, dtype=np.float64))

    def is_indicator(self) -> bool:
        """True when ``g`` is the indicator of a constraint set."""
        return False


class ZeroRegularizer(Regularizer):
    """``g = 0``: the prox is the identity (smooth unconstrained case)."""

    def value(self, x: np.ndarray) -> float:
        return 0.0

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        return np.array(x, dtype=np.float64, copy=True)


class L1Regularizer(Regularizer):
    """``g(x) = lam * ||x||_1`` with soft-thresholding prox (lasso)."""

    def __init__(self, lam: float) -> None:
        self.lam = check_nonnegative(lam, "lam")

    def value(self, x: np.ndarray) -> float:
        return self.lam * float(np.sum(np.abs(x)))

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        return soft_threshold(x, self.lam * gamma)


class L2Regularizer(Regularizer):
    """``g(x) = lam * ||x||_2`` (un-squared); block soft-thresholding prox."""

    def __init__(self, lam: float) -> None:
        self.lam = check_nonnegative(lam, "lam")

    def value(self, x: np.ndarray) -> float:
        return self.lam * float(np.linalg.norm(x))

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        x = np.asarray(x, dtype=np.float64)
        nrm = float(np.linalg.norm(x))
        t = self.lam * gamma
        if nrm <= t:
            return np.zeros_like(x)
        return (1.0 - t / nrm) * x


class SquaredL2Regularizer(Regularizer):
    """``g(x) = (lam / 2) * ||x||_2^2`` with linear shrinkage prox (ridge)."""

    def __init__(self, lam: float) -> None:
        self.lam = check_nonnegative(lam, "lam")

    def value(self, x: np.ndarray) -> float:
        return 0.5 * self.lam * float(np.dot(x, x))

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        return np.asarray(x, dtype=np.float64) / (1.0 + self.lam * gamma)


class ElasticNetRegularizer(Regularizer):
    """``g(x) = lam1 ||x||_1 + (lam2/2) ||x||_2^2``; prox composes shrinkages."""

    def __init__(self, lam1: float, lam2: float) -> None:
        self.lam1 = check_nonnegative(lam1, "lam1")
        self.lam2 = check_nonnegative(lam2, "lam2")

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return self.lam1 * float(np.sum(np.abs(x))) + 0.5 * self.lam2 * float(np.dot(x, x))

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        return soft_threshold(x, self.lam1 * gamma) / (1.0 + self.lam2 * gamma)


class BoxConstraint(Regularizer):
    """Indicator of the box ``[lo, hi]^N`` (bounds may be vectors).

    The prox is the Euclidean projection (clipping); used by the
    obstacle problem where the box lower bound is the obstacle.
    """

    def __init__(self, lo: np.ndarray | float, hi: np.ndarray | float) -> None:
        self.lo = np.asarray(lo, dtype=np.float64)
        self.hi = np.asarray(hi, dtype=np.float64)
        if np.any(self.lo > self.hi):
            raise ValueError("box constraint requires lo <= hi elementwise")

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
        return 0.0 if inside else float("inf")

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        return np.clip(x, self.lo, self.hi)

    def is_indicator(self) -> bool:
        return True


class NonNegativeConstraint(BoxConstraint):
    """Indicator of the nonnegative orthant (projection prox)."""

    def __init__(self) -> None:
        super().__init__(0.0, np.inf)


class GroupLassoRegularizer(Regularizer):
    """``g(x) = lam * sum_g w_g ||x_g||_2`` over disjoint contiguous groups.

    The prox is groupwise block soft-thresholding, vectorized across
    groups via :func:`~repro.utils.norms.block_euclidean_norms`.
    """

    def __init__(self, spec: BlockSpec, lam: float, weights: np.ndarray | None = None) -> None:
        self.spec = spec
        self.lam = check_nonnegative(lam, "lam")
        if weights is None:
            weights = np.ones(spec.n_blocks)
        self.weights = check_vector(weights, "weights", dim=spec.n_blocks)
        if np.any(self.weights < 0):
            raise ValueError("group weights must be nonnegative")

    def value(self, x: np.ndarray) -> float:
        norms = block_euclidean_norms(np.asarray(x, dtype=np.float64), self.spec)
        return self.lam * float(np.dot(self.weights, norms))

    def prox(self, x: np.ndarray, gamma: float) -> np.ndarray:
        check_nonnegative(gamma, "gamma")
        x = np.asarray(x, dtype=np.float64)
        norms = block_euclidean_norms(x, self.spec)
        thresh = self.lam * gamma * self.weights
        # Scale factor per group: max(0, 1 - t_g / ||x_g||); safe at 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norms > thresh, 1.0 - thresh / np.maximum(norms, 1e-300), 0.0)
        out = x.copy()
        for i, sl in enumerate(self.spec.slices()):
            out[sl] *= scale[i]
        return out
