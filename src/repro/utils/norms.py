"""Block decompositions and weighted block-maximum norms.

The convergence theory of totally asynchronous iterations (Bertsekas'
General Convergence Theorem, El Tarazi's contraction results, and
constraint (3) of Definition 3 in the paper) is formulated in the
weighted block-maximum norm

    ``||x||_u = max_{i=1..n} ||x_i||_(i) / u_i``

where ``x`` is partitioned into ``n`` blocks and each block carries its
own norm ``||.||_(i)`` (here: the Euclidean norm) and positive weight
``u_i``.  This module provides:

* :class:`BlockSpec` — an immutable description of a partition of
  ``{0, ..., N-1}`` into contiguous blocks;
* :class:`WeightedMaxNorm` — the norm itself, callable on vectors;
* vectorized helpers for per-block norms.

The scalar decomposition (every coordinate its own block) is the
default everywhere and reduces ``||x||_u`` to ``max_i |x_i| / u_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.utils.validation import check_vector

__all__ = [
    "BlockSpec",
    "WeightedMaxNorm",
    "block_euclidean_norms",
    "block_abs_max",
    "weighted_max_norm",
]


@dataclass(frozen=True)
class BlockSpec:
    """A partition of ``R^N`` into ``n`` contiguous blocks.

    Parameters
    ----------
    sizes:
        Length of each block, all >= 1.  ``sum(sizes) == dim``.

    Notes
    -----
    Blocks are contiguous index ranges; permutations of coordinates are
    the caller's responsibility (reorder the problem, not the spec).
    The degenerate case ``sizes == (1,)*N`` is the *scalar* spec used by
    coordinate-wise asynchronous iterations (Definition 1 with one
    coordinate per component).
    """

    sizes: tuple[int, ...]
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    _scalar: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.sizes) == 0:
            raise ValueError("BlockSpec requires at least one block")
        sizes = tuple(int(s) for s in self.sizes)
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        object.__setattr__(self, "_starts", starts)
        bounds = starts.tolist()
        object.__setattr__(
            self, "_slices", tuple(map(slice, bounds[:-1], bounds[1:]))
        )
        object.__setattr__(self, "_scalar", bounds[-1] == len(sizes))

    # -- constructors ------------------------------------------------
    @staticmethod
    def scalar(dim: int) -> "BlockSpec":
        """One block per coordinate (the Definition 1 component model)."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return BlockSpec((1,) * dim)

    @staticmethod
    def uniform(dim: int, n_blocks: int) -> "BlockSpec":
        """Split ``dim`` coordinates into ``n_blocks`` near-equal blocks."""
        if not 1 <= n_blocks <= dim:
            raise ValueError(f"need 1 <= n_blocks <= dim, got {n_blocks}, {dim}")
        base, extra = divmod(dim, n_blocks)
        sizes = tuple(base + (1 if b < extra else 0) for b in range(n_blocks))
        return BlockSpec(sizes)

    # -- queries -----------------------------------------------------
    @property
    def n_blocks(self) -> int:
        """Number of blocks ``n``."""
        return len(self.sizes)

    @property
    def dim(self) -> int:
        """Total dimension ``N``."""
        return int(self._starts[-1])

    @property
    def is_scalar(self) -> bool:
        """True when every block has size one."""
        return self._scalar

    def slice(self, i: int) -> slice:
        """The index slice of block ``i``."""
        if not 0 <= i < len(self._slices):
            raise IndexError(f"block index {i} out of range [0, {self.n_blocks})")
        return self._slices[i]

    def slices(self) -> Iterator[slice]:
        """Iterate over all block slices in order."""
        return iter(self._slices)

    def block_of_coordinate(self, k: int) -> int:
        """Index of the block containing coordinate ``k``."""
        if not 0 <= k < self.dim:
            raise IndexError(f"coordinate {k} out of range [0, {self.dim})")
        return int(np.searchsorted(self._starts, k, side="right") - 1)

    def get_block(self, x: np.ndarray, i: int) -> np.ndarray:
        """View of block ``i`` of vector ``x`` (no copy)."""
        return x[self.slice(i)]

    def set_block(self, x: np.ndarray, i: int, value: np.ndarray) -> None:
        """Assign block ``i`` of ``x`` in place."""
        x[self.slice(i)] = value

    def coordinate_owner(self) -> np.ndarray:
        """Array of length ``dim`` mapping coordinate -> block index."""
        return np.repeat(np.arange(self.n_blocks), self.sizes)


def block_euclidean_norms(x: np.ndarray, spec: BlockSpec) -> np.ndarray:
    """Per-block Euclidean norms ``(||x_1||_2, ..., ||x_n||_2)``.

    Vectorized via ``np.add.reduceat`` over squared entries; falls back
    to the trivial absolute value for scalar specs.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec.is_scalar:
        return np.abs(x)
    sq = x * x
    sums = np.add.reduceat(sq, spec._starts[:-1])
    return np.sqrt(sums)


def block_abs_max(x: np.ndarray, spec: BlockSpec) -> np.ndarray:
    """Per-block infinity norms ``(||x_1||_inf, ..., ||x_n||_inf)``."""
    x = np.asarray(x, dtype=np.float64)
    if spec.is_scalar:
        return np.abs(x)
    return np.maximum.reduceat(np.abs(x), spec._starts[:-1])


def weighted_max_norm(
    x: np.ndarray,
    weights: np.ndarray | None = None,
    spec: BlockSpec | None = None,
) -> float:
    """Evaluate ``||x||_u = max_i ||x_i||_2 / u_i``.

    Parameters
    ----------
    x:
        Vector in ``R^N``.
    weights:
        Positive block weights ``u``; defaults to all ones.
    spec:
        Block decomposition; defaults to the scalar decomposition.
    """
    x = np.asarray(x, dtype=np.float64)
    if spec is None:
        spec = BlockSpec.scalar(x.shape[0])
    norms = block_euclidean_norms(x, spec)
    if weights is not None:
        w = check_vector(weights, "weights", dim=spec.n_blocks)
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        norms = norms / w
    return float(np.max(norms)) if norms.size else 0.0


@dataclass(frozen=True)
class WeightedMaxNorm:
    """The weighted block-maximum norm ``||.||_u`` as a callable object.

    Examples
    --------
    >>> import numpy as np
    >>> norm = WeightedMaxNorm.scalar(3)
    >>> norm(np.array([1.0, -2.0, 0.5]))
    2.0
    """

    spec: BlockSpec
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = check_vector(self.weights, "weights", dim=self.spec.n_blocks)
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @staticmethod
    def scalar(dim: int, weights: np.ndarray | Sequence[float] | None = None) -> "WeightedMaxNorm":
        """Scalar-block norm on ``R^dim`` (weights default to ones)."""
        spec = BlockSpec.scalar(dim)
        if weights is None:
            weights = np.ones(dim)
        return WeightedMaxNorm(spec, np.asarray(weights, dtype=np.float64))

    @staticmethod
    def uniform(spec: BlockSpec) -> "WeightedMaxNorm":
        """Unit-weight norm for an arbitrary block decomposition."""
        return WeightedMaxNorm(spec, np.ones(spec.n_blocks))

    def __call__(self, x: np.ndarray) -> float:
        """Evaluate the norm of ``x``.

        The weights were checked once at construction, so this skips
        :func:`weighted_max_norm`'s per-call validation (same value).
        """
        return float(self.block_values(x).max())

    def block_values(self, x: np.ndarray) -> np.ndarray:
        """The vector ``(||x_i||_2 / u_i)_i`` whose max is the norm."""
        return block_euclidean_norms(x, self.spec) / self.weights

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """``||x - y||_u``."""
        return self(np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64))
