"""Fixed-point operator interfaces.

Asynchronous iterations (Definition 1 of the paper) are driven by an
operator ``F : R^N -> R^N`` whose fixed point ``x* = F(x*)`` is the
object being computed.  The engine only ever needs

* full application ``F(x)`` (vectorized), and
* component application ``F_i(x)`` for a block ``i`` of a
  :class:`~repro.utils.norms.BlockSpec`;

plus, for analysis, optional knowledge of a fixed point and of a
contraction factor in a weighted max norm.  :class:`FixedPointOperator`
is the ABC capturing that contract.

Scenario batches evaluate a group of same-shape operators on a
``(B', dim)`` array of rows at once through :meth:`FixedPointOperator.stack`
(see :class:`OperatorStack`); every row stays bit-identical to the
solo call.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.utils.norms import BlockSpec, WeightedMaxNorm
from repro.utils.validation import check_vector

__all__ = [
    "FixedPointOperator",
    "ComposedOperator",
    "DampedOperator",
    "OperatorStack",
    "RowStack",
    "matvec_rows",
]


def matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row ``k`` of the result is ``M[k] @ X[k]``, bit for bit.

    One stacked ``np.matmul`` of ``(B', m, d)`` with ``(B', d, 1)``:
    numpy calls the same BLAS gemv (a dot when ``m == 1``) per stack
    item, with the same operands and strides, as the solo 2-D @ 1-D
    product.  ``einsum`` or one GEMM over concatenated rows would
    reorder the sums, so neither is ever used here.
    """
    return np.matmul(M, np.ascontiguousarray(X)[:, :, None])[:, :, 0]


class RowStack:
    """Per-row operands of a stacked twin.

    ``rows`` are sorted, distinct indices into the group, so
    ``len(rows) == B`` means every row: such calls use the stacks as
    built, and a smaller live set gathers its rows.
    """

    def __init__(self, *stacks: np.ndarray) -> None:
        self._full = stacks

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        if len(rows) == len(self._full[0]):
            return self._full
        return tuple(a[rows] for a in self._full)


class FixedPointOperator(abc.ABC):
    """An operator ``F : R^N -> R^N`` driving a fixed-point iteration.

    Subclasses must implement :meth:`apply`; :meth:`apply_block` has a
    generic (full-evaluation) default that concrete operators override
    when a cheaper component evaluation exists — the asynchronous
    engine calls :meth:`apply_block` on every updating phase, so the
    override matters for large problems.
    """

    def __init__(self, dim: int, block_spec: BlockSpec | None = None) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self._dim = int(dim)
        self._block_spec = block_spec if block_spec is not None else BlockSpec.scalar(dim)
        if self._block_spec.dim != self._dim:
            raise ValueError(
                f"block_spec covers {self._block_spec.dim} coordinates, operator has dim {self._dim}"
            )

    # -- core contract -------------------------------------------------
    @abc.abstractmethod
    def apply(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``F(x)`` (must not mutate ``x``)."""

    def apply_block(self, x: np.ndarray, i: int) -> np.ndarray:
        """Evaluate component ``F_i(x)`` for block ``i``.

        Default implementation evaluates the full operator and slices;
        override when a component can be computed independently.
        """
        return self.apply(x)[self._block_spec.slice(i)]

    def gauss_seidel(self, x: np.ndarray, blocks: Sequence[int]) -> None:
        """One Gauss-Seidel sweep in place: ``x_i <- F_i(x)`` for ``i`` in ``blocks``.

        Each block sees the blocks updated before it.  The default is
        the :meth:`apply_block` loop; an override must be bit-identical
        to it.  The simulator runs one sweep per inner step.
        """
        spec = self._block_spec
        for i in blocks:
            x[spec.slice(i)] = self.apply_block(x, i)

    @classmethod
    def stack(cls, ops: Sequence["FixedPointOperator"]) -> "OperatorStack":
        """Stacked twin of :meth:`apply`/:meth:`apply_block` for ``ops``.

        ``ops`` are same-shape instances of exactly this class.  Families
        with a vectorized twin override this; the default is the row
        loop of :class:`OperatorStack`.
        """
        return OperatorStack(ops)

    def apply_blocks(self, x: np.ndarray, blocks: Sequence[int]) -> np.ndarray:
        """Evaluate several components at once, concatenated in block order.

        Used by steering policies that relax a subset ``S_j`` of
        components within one global iteration.
        """
        if len(blocks) == 0:
            return np.empty(0)
        full = self.apply(x)
        return np.concatenate([full[self._block_spec.slice(i)] for i in blocks])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(check_vector(x, "x", dim=self._dim))

    # -- metadata --------------------------------------------------------
    @property
    def dim(self) -> int:
        """Ambient dimension ``N``."""
        return self._dim

    @property
    def block_spec(self) -> BlockSpec:
        """Block decomposition of the iterate vector."""
        return self._block_spec

    @property
    def n_components(self) -> int:
        """Number of components ``n`` (blocks) of the iterate vector."""
        return self._block_spec.n_blocks

    # -- optional analysis hooks ----------------------------------------
    def fixed_point(self) -> np.ndarray | None:
        """A known fixed point ``x*``, or ``None`` when unavailable.

        Benchmarks use this to evaluate exact errors; solvers never
        rely on it.
        """
        return None

    def contraction_factor(self) -> float | None:
        """A proven contraction factor ``q < 1`` in :meth:`norm`, if known."""
        return None

    def norm(self) -> WeightedMaxNorm:
        """The weighted max norm in which the operator (if contracting) contracts."""
        return WeightedMaxNorm.uniform(self._block_spec)

    def residual(self, x: np.ndarray) -> float:
        """Fixed-point residual ``||F(x) - x||_u`` in :meth:`norm`."""
        x = check_vector(x, "x", dim=self._dim)
        return self.norm()(self.apply(x) - x)


class OperatorStack:
    """A group of same-shape operators evaluated on stacked rows.

    ``X`` is a C-contiguous ``(B', dim)`` array of rows and ``rows`` are
    their sorted, distinct indices into ``ops``; row ``k`` of every
    result is bit-identical to the solo call of ``ops[rows[k]]`` on
    ``X[k]``.  This generic twin is that row loop; vectorized twins
    subclass it and override :meth:`apply` and :meth:`apply_block`.
    """

    def __init__(self, ops: Sequence[FixedPointOperator]) -> None:
        self.ops = list(ops)

    def apply(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.stack([self.ops[b].apply(x) for b, x in zip(rows, X)])

    def apply_block(self, X: np.ndarray, i: int, rows: np.ndarray) -> np.ndarray:
        return np.stack([self.ops[b].apply_block(x, i) for b, x in zip(rows, X)])

    def residual(self, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return np.array(
            [self.ops[b].residual(x) for b, x in zip(rows, X)], dtype=np.float64
        )

class ComposedOperator(FixedPointOperator):
    """Composition ``F = outer ∘ inner`` of two conforming operators.

    Fixed points of the composition are generally *not* the fixed
    points of the parts; this class is used to build approximate
    operators (e.g. prox followed by a gradient step, Definition 4).
    """

    def __init__(self, outer: FixedPointOperator, inner: FixedPointOperator) -> None:
        if outer.dim != inner.dim:
            raise ValueError(f"dimension mismatch: outer {outer.dim} vs inner {inner.dim}")
        super().__init__(outer.dim, outer.block_spec)
        self.outer = outer
        self.inner = inner

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.outer.apply(self.inner.apply(x))


class DampedOperator(FixedPointOperator):
    """Damped/averaged operator ``x -> (1 - theta) x + theta F(x)``.

    For nonexpansive ``F`` and ``theta in (0, 1)`` this is the
    Krasnosel'skii–Mann averaging used by ARock [32]; it preserves the
    fixed-point set of ``F``.
    """

    def __init__(self, base: FixedPointOperator, theta: float) -> None:
        super().__init__(base.dim, base.block_spec)
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {theta}")
        self.base = base
        self.theta = float(theta)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.theta) * x + self.theta * self.base.apply(x)

    def apply_block(self, x: np.ndarray, i: int) -> np.ndarray:
        sl = self.block_spec.slice(i)
        return (1.0 - self.theta) * x[sl] + self.theta * self.base.apply_block(x, i)

    def fixed_point(self) -> np.ndarray | None:
        return self.base.fixed_point()

    def contraction_factor(self) -> float | None:
        q = self.base.contraction_factor()
        if q is None:
            return None
        return (1.0 - self.theta) + self.theta * q

    def norm(self) -> WeightedMaxNorm:
        return self.base.norm()
