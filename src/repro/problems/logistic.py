"""L2-regularized logistic regression — the paper's ML motivation.

``f(x) = 1/m sum_h log(1 + exp(-z_h * y_h' x)) + (l2/2) ||x||^2``
with labels ``z_h in {-1, +1}``.  The log-loss Hessian is bounded by
``Y'Y / (4m)``, giving exact ``L``; the ridge term supplies ``mu``.
Pairs with an L1 regularizer for sparse logistic regression.
"""

from __future__ import annotations

import numpy as np

from repro.operators.base import RowStack, matvec_rows
from repro.operators.proximal import L1Regularizer, ZeroRegularizer
from repro.problems.base import CompositeProblem, SmoothProblem
from repro.problems.datasets import ClassificationData
from repro.utils.validation import check_finite_array, check_positive, check_vector

__all__ = ["LogisticProblem", "batch_logistic", "make_logistic", "make_sparse_logistic"]


def _log1pexp(t: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(1 + exp(t))``."""
    out = np.empty_like(t)
    pos = t > 0
    out[pos] = t[pos] + np.log1p(np.exp(-t[pos]))
    out[~pos] = np.log1p(np.exp(t[~pos]))
    return out


class LogisticProblem(SmoothProblem):
    """Strongly convex logistic loss with exact smoothness constants."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, l2: float = 0.1) -> None:
        Y = check_finite_array(features, "features")
        if Y.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {Y.shape}")
        m, n = Y.shape
        z = check_vector(labels, "labels", dim=m)
        if not np.all(np.isin(z, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        l2 = check_positive(l2, "l2")
        gram = (Y.T @ Y) / m
        lam_max = float(np.linalg.eigvalsh(gram)[-1])
        super().__init__(n, l2, lam_max / 4.0 + l2)
        self.features = Y
        self.labels = z
        self.l2 = l2
        # Pre-scale rows by labels: margin_h = (z_h y_h)' x.
        self._A = Y * z[:, None]

    @classmethod
    def _from_precomputed(
        cls, Y: np.ndarray, z: np.ndarray, l2: float, lam_max: float
    ) -> "LogisticProblem":
        """Constructor taking the Gram spectral bound from a batched caller.

        :func:`batch_logistic` computes ``lam_max`` through one stacked
        ``eigvalsh`` gufunc over all instances' Gram matrices (the same
        LAPACK routine per matrix, so the value is bit-identical to the
        per-instance path); everything else mirrors ``__init__``.
        """
        self = object.__new__(cls)
        SmoothProblem.__init__(self, Y.shape[1], l2, lam_max / 4.0 + l2)
        self.features = Y
        self.labels = z
        self.l2 = l2
        self._A = Y * z[:, None]
        return self

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        margins = self._A @ x
        loss = float(np.mean(_log1pexp(-margins)))
        return loss + 0.5 * self.l2 * float(x @ x)

    def _sigmoid_neg_margins(self, x: np.ndarray) -> np.ndarray:
        """``sigma(-margins) = 1/(1 + exp(margins))`` stably."""
        return _sigmoid_neg(self._A @ np.asarray(x, dtype=np.float64))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        s = self._sigmoid_neg_margins(x)
        return -(self._A.T @ s) / self._A.shape[0] + self.l2 * x

    def gradient_block(self, x: np.ndarray, sl: slice) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        s = self._sigmoid_neg_margins(x)
        return -(self._A[:, sl].T @ s) / self._A.shape[0] + self.l2 * x[sl]

    @classmethod
    def stack(cls, problems: "list[SmoothProblem]") -> "_LogisticStack | None":
        if cls is not LogisticProblem or any(
            p._A.shape != problems[0]._A.shape for p in problems
        ):
            return None
        return _LogisticStack(problems)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        s = self._sigmoid_neg_margins(x)
        w = s * (1.0 - s)
        m = self._A.shape[0]
        return (self._A.T * w) @ self._A / m + self.l2 * np.eye(self.dim)

    def accuracy(self, x: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy of sign(features @ x) against labels."""
        pred = np.sign(features @ np.asarray(x, dtype=np.float64))
        pred[pred == 0] = 1.0
        return float(np.mean(pred == labels))


def _sigmoid_neg(margins: np.ndarray) -> np.ndarray:
    """Elementwise ``1/(1 + exp(margins))``, stable on either sign.

    ``exp`` only ever sees ``minimum(m, -m)``: ``-m`` where ``m >= 0``
    and ``m`` where ``m < 0`` or NaN (numpy returns the first NaN).
    Both results are computed and ``where`` picks per element, so no
    boolean gather or scatter runs, and every value equals the
    sign-masked evaluation bit for bit.  Shape-agnostic: the solo
    gradient passes one margin vector, the stacked twin a ``(B', m)``
    array.
    """
    e = np.exp(np.minimum(margins, -margins))
    d = 1.0 + e
    return np.where(margins >= 0, e / d, 1.0 / d)


class _LogisticStack:
    """Row-stacked logistic gradients: stacked matvecs around one sigmoid."""

    def __init__(self, problems: "list[LogisticProblem]") -> None:
        self._m = problems[0]._A.shape[0]
        self._operands = RowStack(
            np.stack([p._A for p in problems]),
            np.array([[p.l2] for p in problems]),
        )

    def gradient(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        A, l2 = self._operands.take(rows)
        s = _sigmoid_neg(matvec_rows(A, X))
        return -matvec_rows(A.transpose(0, 2, 1), s) / self._m + l2 * X

    def gradient_block(self, X: np.ndarray, sl: slice, rows: np.ndarray) -> np.ndarray:
        A, l2 = self._operands.take(rows)
        s = _sigmoid_neg(matvec_rows(A, X))
        return -matvec_rows(A[:, :, sl].transpose(0, 2, 1), s) / self._m + l2 * X[:, sl]


def batch_logistic(
    datas: "list[ClassificationData]", l2: float = 0.1
) -> "list[CompositeProblem]":
    """Smooth logistic problems for many datasets, analysis batched.

    Bit-identical per dataset to ``[make_logistic(d, l2=l2) for d in
    datas]``: Gram matrices stay per-dataset two-dimensional BLAS
    products, and the spectral bounds come from one stacked
    ``eigvalsh`` call running the identical LAPACK routine per matrix.
    """
    l2 = check_positive(l2, "l2")
    checked: list[tuple[np.ndarray, np.ndarray]] = []
    grams = []
    for d in datas:
        Y = check_finite_array(d.features, "features")
        if Y.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {Y.shape}")
        z = check_vector(d.labels, "labels", dim=Y.shape[0])
        if not np.all(np.isin(z, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        checked.append((Y, z))
        grams.append((Y.T @ Y) / Y.shape[0])
    eig_stack = np.linalg.eigvalsh(np.stack(grams))
    return [
        CompositeProblem(
            LogisticProblem._from_precomputed(Y, z, l2, float(eig_stack[k][-1])),
            ZeroRegularizer(),
        )
        for k, (Y, z) in enumerate(checked)
    ]


def make_logistic(data: ClassificationData, l2: float = 0.1) -> CompositeProblem:
    """Smooth L2-regularized logistic regression (``g = 0``)."""
    return CompositeProblem(LogisticProblem(data.features, data.labels, l2=l2), ZeroRegularizer())


def make_sparse_logistic(
    data: ClassificationData, l1: float = 0.01, l2: float = 0.1
) -> CompositeProblem:
    """Sparse logistic regression: logistic + ridge smooth part, L1 prox."""
    return CompositeProblem(
        LogisticProblem(data.features, data.labels, l2=l2), L1Regularizer(l1)
    )
