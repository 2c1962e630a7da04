"""Regularized least-squares smooth parts (ridge base) and problem builders.

``f(x) = 1/(2m) ||Y x - z||^2 + (lam_2 / 2) ||x||^2`` is the smooth part
underlying ridge (``g = 0``), lasso (``g = lam_1 ||.||_1``) and elastic
net.  The ``lam_2`` term guarantees the strong convexity Theorem 1
requires even for underdetermined designs.
"""

from __future__ import annotations

import numpy as np

from repro.operators.base import RowStack, matvec_rows
from repro.operators.proximal import ElasticNetRegularizer, L1Regularizer, ZeroRegularizer
from repro.problems.base import CompositeProblem, SmoothProblem
from repro.problems.datasets import RegressionData
from repro.utils.validation import check_finite_array, check_nonnegative, check_vector

__all__ = [
    "LeastSquaresProblem",
    "batch_least_squares",
    "make_ridge",
    "make_lasso",
    "make_elastic_net",
]


class LeastSquaresProblem(SmoothProblem):
    """``f(x) = 1/(2m)||Y x - z||^2 + (l2/2)||x||^2``.

    ``mu`` and ``L`` are the exact extreme eigenvalues of
    ``Y'Y/m + l2 I`` (computed once via a symmetric eigendecomposition
    of the Gram matrix).
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray, l2: float = 0.0) -> None:
        Y = check_finite_array(features, "features")
        if Y.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {Y.shape}")
        m, n = Y.shape
        z = check_vector(targets, "targets", dim=m)
        l2 = check_nonnegative(l2, "l2")
        gram = (Y.T @ Y) / m
        eigs = np.linalg.eigvalsh(gram)
        mu = float(eigs[0]) + l2
        L = float(eigs[-1]) + l2
        if mu <= 0:
            raise ValueError(
                "smooth part is not strongly convex; increase l2 (Gram matrix is singular)"
            )
        super().__init__(n, mu, L)
        self.features = Y
        self.targets = z
        self.l2 = l2
        self._gram = gram
        self._Ytz = (Y.T @ z) / m
        self._sol: np.ndarray | None = None

    @classmethod
    def _from_precomputed(
        cls,
        Y: np.ndarray,
        z: np.ndarray,
        l2: float,
        gram: np.ndarray,
        eigs: np.ndarray,
    ) -> "LeastSquaresProblem":
        """Constructor taking the eigendecomposition from a batched caller.

        :func:`batch_least_squares` computes the Gram spectra of many
        instances through one stacked ``eigvalsh`` gufunc (the same
        LAPACK routine per matrix, so values are bit-identical to the
        per-instance path); everything else mirrors ``__init__``.
        """
        mu = float(eigs[0]) + l2
        L = float(eigs[-1]) + l2
        if mu <= 0:
            raise ValueError(
                "smooth part is not strongly convex; increase l2 (Gram matrix is singular)"
            )
        self = object.__new__(cls)
        SmoothProblem.__init__(self, Y.shape[1], mu, L)
        self.features = Y
        self.targets = z
        self.l2 = l2
        self._gram = gram
        self._Ytz = (Y.T @ z) / Y.shape[0]
        self._sol = None
        return self

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        r = self.features @ x - self.targets
        return 0.5 * float(r @ r) / self.features.shape[0] + 0.5 * self.l2 * float(x @ x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self._gram @ x - self._Ytz + self.l2 * x

    def gradient_block(self, x: np.ndarray, sl: slice) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self._gram[sl, :] @ x - self._Ytz[sl] + self.l2 * x[sl]

    @classmethod
    def stack(cls, problems: "list[SmoothProblem]") -> "_LeastSquaresStack | None":
        if cls is not LeastSquaresProblem or any(
            p._gram.shape != problems[0]._gram.shape for p in problems
        ):
            return None
        return _LeastSquaresStack(problems)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self._gram + self.l2 * np.eye(self.dim)

    def solution(self) -> np.ndarray | None:
        if self._sol is None:
            self._sol = np.linalg.solve(self.hessian(np.zeros(self.dim)), self._Ytz)
        return self._sol.copy()


class _LeastSquaresStack:
    """Row-stacked ``gram @ x - Ytz + l2 * x``: one stacked matvec per call."""

    def __init__(self, problems: "list[LeastSquaresProblem]") -> None:
        self._operands = RowStack(
            np.stack([p._gram for p in problems]),
            np.stack([p._Ytz for p in problems]),
            np.array([[p.l2] for p in problems]),
        )

    def gradient(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        gram, Ytz, l2 = self._operands.take(rows)
        return matvec_rows(gram, X) - Ytz + l2 * X

    def gradient_block(self, X: np.ndarray, sl: slice, rows: np.ndarray) -> np.ndarray:
        gram, Ytz, l2 = self._operands.take(rows)
        return matvec_rows(gram[:, sl, :], X) - Ytz[:, sl] + l2 * X[:, sl]


def batch_least_squares(
    datas: "list[RegressionData]", l2: float = 0.0
) -> "list[LeastSquaresProblem]":
    """Smooth parts for many regression datasets, analysis batched.

    Bit-identical per dataset to
    ``[LeastSquaresProblem(d.features, d.targets, l2=l2) for d in datas]``:
    each Gram matrix is the same two-dimensional BLAS product a solo
    constructor computes (cross-dataset GEMM is never used), and the
    spectra come from one stacked ``eigvalsh`` call, which runs the
    identical LAPACK routine per matrix.
    """
    l2 = check_nonnegative(l2, "l2")
    checked: list[tuple[np.ndarray, np.ndarray]] = []
    grams = []
    for d in datas:
        Y = check_finite_array(d.features, "features")
        if Y.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {Y.shape}")
        z = check_vector(d.targets, "targets", dim=Y.shape[0])
        checked.append((Y, z))
        grams.append((Y.T @ Y) / Y.shape[0])
    eig_stack = np.linalg.eigvalsh(np.stack(grams))
    return [
        LeastSquaresProblem._from_precomputed(Y, z, l2, grams[k], eig_stack[k])
        for k, (Y, z) in enumerate(checked)
    ]


def make_ridge(data: RegressionData, l2: float = 0.1) -> CompositeProblem:
    """Ridge regression: smooth LS + l2, no non-smooth part."""
    smooth = LeastSquaresProblem(data.features, data.targets, l2=l2)
    return CompositeProblem(smooth, ZeroRegularizer())


def make_lasso(data: RegressionData, l1: float = 0.05, l2: float = 0.05) -> CompositeProblem:
    """(Strongly convex) lasso: smooth LS + small l2, ``g = l1 ||.||_1``.

    The small l2 term keeps ``f`` strongly convex as Theorem 1 demands;
    pure lasso (``l2 = 0``) is available but loses the paper's
    geometric rate guarantee.
    """
    smooth = LeastSquaresProblem(data.features, data.targets, l2=l2)
    return CompositeProblem(smooth, L1Regularizer(l1))


def make_elastic_net(
    data: RegressionData, l1: float = 0.05, l2_smooth: float = 0.05, l2_prox: float = 0.05
) -> CompositeProblem:
    """Elastic net with the quadratic part split between ``f`` and ``g``.

    Splitting exercises both code paths (smooth strong convexity and
    shrinkage inside the prox) and matches how ARock-style solvers are
    usually configured.
    """
    smooth = LeastSquaresProblem(data.features, data.targets, l2=l2_smooth)
    return CompositeProblem(smooth, ElasticNetRegularizer(l1, l2_prox))
