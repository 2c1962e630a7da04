"""Affine fixed-point operators and classical splittings.

The oldest asynchronous iterations — chaotic relaxation of Chazan &
Miranker — solve ``M x = c`` through an affine fixed-point map
``F(x) = A x + b`` obtained from a matrix splitting.  These operators
are the canonical testbed for Definition 1: ``F`` contracts in the
weighted max norm iff the spectral radius of ``|A|`` is below one
(e.g. when ``M`` is strictly diagonally dominant), which is exactly the
classical necessary-and-sufficient condition for totally asynchronous
convergence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.operators.base import FixedPointOperator, OperatorStack, RowStack, matvec_rows
from repro.utils.norms import BlockSpec, WeightedMaxNorm
from repro.utils.validation import check_finite_array, check_vector

__all__ = [
    "AffineOperator",
    "jacobi_operator",
    "jacobi_operator_batch",
    "jor_operator",
    "richardson_operator",
]

#: Matrix bytes per stacked LAPACK call in
#: :meth:`AffineOperator.precompute_batch` (8 matrices at ``n = 64``).
_ANALYSIS_STACK_BYTES = 2**18


class AffineOperator(FixedPointOperator):
    """The affine map ``F(x) = A x + b`` on ``R^N``.

    Parameters
    ----------
    A:
        Iteration matrix, shape ``(N, N)``.
    b:
        Offset vector, shape ``(N,)``.
    block_spec:
        Optional block decomposition (defaults to scalar blocks).

    Notes
    -----
    * ``fixed_point`` solves ``(I - A) x* = b`` once, lazily, and
      caches the result (``None`` if ``I - A`` is singular).
    * ``contraction_factor`` returns ``|| |A| ||`` in the weighted max
      norm with the canonical positive weight vector when the spectral
      radius of ``|A|`` is < 1 (computed from the Perron eigenvector),
      otherwise ``None``.
    """

    def __init__(
        self,
        A: np.ndarray,
        b: np.ndarray,
        block_spec: BlockSpec | None = None,
    ) -> None:
        A = check_finite_array(A, "A")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        b = check_vector(b, "b", dim=A.shape[0])
        super().__init__(A.shape[0], block_spec)
        self.A = A
        self.b = b
        self._fixed_point: np.ndarray | None = None
        self._fp_computed = False
        self._contraction: tuple[float, np.ndarray] | None = None
        self._contraction_computed = False
        self._norm: WeightedMaxNorm | None = None
        self._sweep_rows: list | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b

    def apply_block(self, x: np.ndarray, i: int) -> np.ndarray:
        sl = self.block_spec.slice(i)
        return self.A[sl, :] @ x + self.b[sl]

    def gauss_seidel(self, x: np.ndarray, blocks: Sequence[int]) -> None:
        """:meth:`apply_block`'s products on row views cached at first use.

        Block ``i`` gets ``A[sl] @ x + b[sl]``, the expression of
        :meth:`apply_block`.  A scalar block gets ``A[i] @ x + b[i]``:
        the same BLAS dot on the same operands as ``A[i:i+1] @ x``,
        then the same float addition, without the slice bookkeeping.
        """
        spec = self.block_spec
        rows = self._sweep_rows
        if rows is None:
            rows = self._sweep_rows = (
                list(self.A) if spec.is_scalar
                else [(sl, self.A[sl], self.b[sl]) for sl in spec.slices()]
            )
        if spec.is_scalar:
            b = self.b
            for i in blocks:
                x[i] = rows[i] @ x + b[i]
        else:
            for i in blocks:
                sl, Ai, bi = rows[i]
                x[sl] = Ai @ x + bi

    @classmethod
    def stack(cls, ops: "Sequence[FixedPointOperator]") -> OperatorStack:
        """Vectorized twin of :meth:`apply`/:meth:`apply_block` (see :class:`_AffineStack`)."""
        if cls is not AffineOperator or any(
            type(op) is not cls or op.block_spec != ops[0].block_spec for op in ops
        ):
            return super().stack(ops)
        return _AffineStack(ops)

    # -- analysis -----------------------------------------------------
    def spectral_radius_abs(self) -> float:
        """Spectral radius of ``|A|`` (the async convergence quantity)."""
        return float(np.max(np.abs(np.linalg.eigvals(np.abs(self.A)))))

    def _compute_contraction(self) -> tuple[float, np.ndarray] | None:
        """Perron weights for ``|A|``: ``|A| u <= q u`` with ``q < 1``.

        For an irreducible nonnegative matrix the Perron eigenvector is
        positive and gives the tightest weighted-max-norm bound.  For
        reducible matrices we regularize with a tiny positive
        perturbation which only loosens ``q`` marginally.
        """
        absA = np.abs(self.A)
        rho = self.spectral_radius_abs()
        if rho >= 1.0:
            return None
        n = absA.shape[0]
        # Perturb to ensure positivity of the eigenvector, then rescale.
        eps = 1e-12
        vals, vecs = np.linalg.eig(absA + eps * np.ones((n, n)))
        k = int(np.argmax(vals.real))
        u = np.abs(vecs[:, k].real)
        u = np.maximum(u, 1e-300)
        u = u / np.max(u)
        q = float(np.max((absA @ u) / u))
        if q >= 1.0:
            # Fall back to uniform weights when perturbation failed.
            q_uniform = float(np.max(absA.sum(axis=1)))
            if q_uniform < 1.0:
                return q_uniform, np.ones(n)
            return None
        return q, u

    def contraction_factor(self) -> float | None:
        if not self._contraction_computed:
            self._contraction = self._compute_contraction()
            self._contraction_computed = True
        return None if self._contraction is None else self._contraction[0]

    def norm(self) -> WeightedMaxNorm:
        """The contraction norm, built (and validated) once per operator."""
        if self._norm is None:
            self.contraction_factor()
            if self._contraction is None or not self.block_spec.is_scalar:
                self._norm = WeightedMaxNorm.uniform(self.block_spec)
            else:
                self._norm = WeightedMaxNorm(self.block_spec, self._contraction[1])
        return self._norm

    def fixed_point(self) -> np.ndarray | None:
        if not self._fp_computed:
            n = self.dim
            try:
                self._fixed_point = np.linalg.solve(np.eye(n) - self.A, self.b)
            except np.linalg.LinAlgError:
                self._fixed_point = None
            self._fp_computed = True
        return None if self._fixed_point is None else self._fixed_point.copy()

    @classmethod
    def _from_parts(
        cls, A: np.ndarray, b: np.ndarray, block_spec: BlockSpec
    ) -> "AffineOperator":
        """Validation-free constructor for batch-built operator stacks.

        The stacked factories (:func:`jacobi_operator_batch` and the
        registry's ``build_batch`` path) validate finiteness and shapes
        once per ``(B, n, n)`` stack, so re-checking each slice here
        would only re-pay the per-instance overhead the batch removed.
        ``A``/``b`` may be views into the shared stack and the
        ``block_spec`` may be one shared instance (it is immutable).
        """
        self = object.__new__(cls)
        FixedPointOperator.__init__(self, A.shape[0], block_spec)
        self.A = A
        self.b = b
        self._fixed_point = None
        self._fp_computed = False
        self._contraction = None
        self._contraction_computed = False
        self._norm = None
        self._sweep_rows = None
        return self

    @staticmethod
    def precompute_batch(ops: "list[AffineOperator]") -> None:
        """Fill the lazy analysis caches of many same-shape operators at once.

        Populations of small affine operators (scenario batches) pay
        more for per-call LAPACK dispatch than for the decompositions
        themselves; stacking them into ``(k, n, n)`` gufunc calls
        amortizes that dispatch.  LAPACK routines run per matrix inside
        the gufunc loop, so every cached value is bit-identical to what
        the lazy per-operator path would have computed — this is purely
        a scheduling change (asserted by the batched-engine test suite).
        The calls run over sub-stacks of at most
        :data:`_ANALYSIS_STACK_BYTES` of matrices, so their temporaries
        (``|A|``, its perturbation, the complex eigenvectors) stay small
        however large the batch.
        """
        todo = [
            o for o in ops
            if type(o) is AffineOperator
            and not (o._contraction_computed and o._fp_computed)
        ]
        if not todo:
            return
        n = todo[0].dim
        if any(o.dim != n for o in todo):
            raise ValueError("precompute_batch needs operators of one dimension")
        step = max(1, _ANALYSIS_STACK_BYTES // (8 * n * n))
        for k in range(0, len(todo), step):
            AffineOperator._precompute_stack(todo[k: k + step])

    @staticmethod
    def _precompute_stack(todo: "list[AffineOperator]") -> None:
        """:meth:`precompute_batch` on one sub-stack."""
        stackA = np.stack([o.A for o in todo])
        n = stackA.shape[1]
        absA = np.abs(stackA)
        rhos = np.max(np.abs(np.linalg.eigvals(absA)), axis=1)
        eps = 1e-12
        vals, vecs = np.linalg.eig(absA + eps * np.ones((n, n)))
        for i, op in enumerate(todo):
            if not op._contraction_computed:
                contraction: tuple[float, np.ndarray] | None = None
                if float(rhos[i]) < 1.0:
                    k = int(np.argmax(vals[i].real))
                    u = np.abs(vecs[i][:, k].real)
                    u = np.maximum(u, 1e-300)
                    u = u / np.max(u)
                    q = float(np.max((absA[i] @ u) / u))
                    if q < 1.0:
                        contraction = (q, u)
                    else:
                        q_uniform = float(np.max(absA[i].sum(axis=1)))
                        if q_uniform < 1.0:
                            contraction = (q_uniform, np.ones(n))
                op._contraction = contraction
                op._contraction_computed = True
        solve_ops = [o for o in todo if not o._fp_computed]
        if solve_ops:
            if len(solve_ops) == len(todo):
                lhs = np.eye(n) - stackA
            else:
                lhs = np.eye(n) - np.stack([o.A for o in solve_ops])
            rhs = np.stack([o.b for o in solve_ops])[:, :, None]
            try:
                xs = np.linalg.solve(lhs, rhs)[:, :, 0]
                for i, op in enumerate(solve_ops):
                    op._fixed_point = xs[i]
                    op._fp_computed = True
            except np.linalg.LinAlgError:
                # One singular system poisons the whole gufunc call;
                # let each operator fall back to its own lazy solve.
                pass


class _AffineStack(OperatorStack):
    """``A[sl] @ x + b[sl]`` for every row: one stacked matvec per call."""

    def __init__(self, ops: "Sequence[AffineOperator]") -> None:
        super().__init__(ops)
        self._slices = list(ops[0].block_spec.slices())
        self._operands = RowStack(
            np.stack([op.A for op in ops]), np.stack([op.b for op in ops])
        )

    def apply(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        A, b = self._operands.take(rows)
        return matvec_rows(A, X) + b

    def apply_block(self, X: np.ndarray, i: int, rows: np.ndarray) -> np.ndarray:
        A, b = self._operands.take(rows)
        sl = self._slices[i]
        return matvec_rows(A[:, sl, :], X) + b[:, sl]


def _split_diag(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (diagonal, off-diagonal part) of ``M``; check invertible diag."""
    M = check_finite_array(M, "M")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got shape {M.shape}")
    d = np.diag(M).copy()
    if np.any(d == 0.0):
        raise ValueError("M must have a nonzero diagonal for Jacobi-type splittings")
    R = M - np.diag(d)
    return d, R


def jacobi_operator(
    M: np.ndarray,
    c: np.ndarray,
    block_spec: BlockSpec | None = None,
) -> AffineOperator:
    """Jacobi fixed-point operator for the linear system ``M x = c``.

    ``F(x) = D^{-1} (c - R x)`` where ``M = D + R``.  Converges totally
    asynchronously iff ``rho(|D^{-1} R|) < 1`` (Chazan & Miranker),
    which holds for strictly diagonally dominant ``M``.
    """
    d, R = _split_diag(M)
    c = check_vector(c, "c", dim=M.shape[0])
    A = -R / d[:, None]
    b = c / d
    return AffineOperator(A, b, block_spec)


def jacobi_operator_batch(
    Ms: np.ndarray,
    cs: np.ndarray,
    block_spec: BlockSpec | None = None,
) -> list[AffineOperator]:
    """Jacobi operators for a stack of systems, bit-identical per slice.

    ``Ms`` is ``(B, n, n)``, ``cs`` is ``(B, n)``; the result matches
    ``[jacobi_operator(Ms[k], cs[k], block_spec) for k in range(B)]``
    bit for bit: the splitting ``A = -R / d``, ``b = c / d`` is purely
    elementwise (exact under stacking).  The lazy analysis caches stay
    empty: the batched executor fills them through
    :meth:`AffineOperator.precompute_batch` once it has built the
    group's schedule, so a batch that raises before then pays no
    LAPACK.  Validation happens once
    on the stack, so the per-instance constructor overhead a solo loop
    pays ``B`` times is paid once.
    """
    Ms = np.asarray(Ms, dtype=np.float64)
    cs = np.asarray(cs, dtype=np.float64)
    if Ms.ndim != 3 or Ms.shape[1] != Ms.shape[2]:
        raise ValueError(f"Ms must be a (B, n, n) stack, got shape {Ms.shape}")
    B, n = Ms.shape[0], Ms.shape[1]
    if cs.shape != (B, n):
        raise ValueError(f"cs must have shape ({B}, {n}), got {cs.shape}")
    if not np.isfinite(Ms).all() or not np.isfinite(cs).all():
        raise ValueError("Ms and cs must be finite")
    idx = np.arange(n)
    ds = Ms[:, idx, idx]
    if np.any(ds == 0.0):
        raise ValueError("M must have a nonzero diagonal for Jacobi-type splittings")
    # Mirrors _split_diag + jacobi_operator elementwise, A = -R / d and
    # b = c / d with R = M - diag(d), in one copy of the stack: off the
    # diagonal -R is -M exactly (x - 0.0 == x); on it R is x - x == 0.0,
    # so -R is -0.0.
    As = np.negative(Ms)
    As[:, idx, idx] = -0.0
    As /= ds[:, :, None]
    bs = cs / ds
    spec = block_spec if block_spec is not None else BlockSpec.scalar(n)
    return [AffineOperator._from_parts(As[k], bs[k], spec) for k in range(B)]


def jor_operator(
    M: np.ndarray,
    c: np.ndarray,
    omega: float,
    block_spec: BlockSpec | None = None,
) -> AffineOperator:
    """Jacobi over-relaxation: ``F(x) = (1-omega) x + omega D^{-1}(c - R x)``.

    ``omega in (0, 1]`` damps the Jacobi map; useful when plain Jacobi
    is not an async contraction but a damped version is.
    """
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must lie in (0, 1], got {omega}")
    jac = jacobi_operator(M, c)
    n = M.shape[0]
    A = (1.0 - omega) * np.eye(n) + omega * jac.A
    b = omega * jac.b
    return AffineOperator(A, b, block_spec)


def richardson_operator(
    M: np.ndarray,
    c: np.ndarray,
    alpha: float,
    block_spec: BlockSpec | None = None,
) -> AffineOperator:
    """Richardson iteration ``F(x) = x - alpha (M x - c)``.

    The linear analogue of a fixed-step gradient method; for SPD ``M``
    with eigenvalues in ``[mu, L]`` and ``alpha in (0, 2/(mu+L)]`` the
    2-norm contraction factor is ``1 - alpha*mu``.
    """
    M = check_finite_array(M, "M")
    c = check_vector(c, "c", dim=M.shape[0])
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = M.shape[0]
    A = np.eye(n) - alpha * M
    b = alpha * c
    return AffineOperator(A, b, block_spec)
