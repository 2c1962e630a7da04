"""Diagonally dominant linear systems — the chaotic-relaxation testbed.

Chazan & Miranker's chaotic relaxation [12] and Miellou's retarded
variants [14] were formulated for ``M x = c`` with ``rho(|D^{-1}R|) < 1``.
These generators produce instances with a *prescribed* async
contraction factor so delay/steering sweeps can vary difficulty on one
axis.
"""

from __future__ import annotations

import numpy as np

from repro.operators.linear import AffineOperator, jacobi_operator
from repro.utils.norms import BlockSpec
from repro.utils.rng import as_generator

__all__ = [
    "random_dominant_system",
    "random_dominant_system_batch",
    "tridiagonal_system",
    "make_jacobi_instance",
    "make_jacobi_batch",
]


def random_dominant_system(
    dim: int,
    dominance: float = 0.5,
    *,
    density: float = 1.0,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Random system with Jacobi max-norm contraction factor ``1 - dominance``.

    Off-diagonal rows are rescaled so every row satisfies
    ``sum_{j != i} |M_ij| = (1 - dominance) * |M_ii|`` exactly; the
    Jacobi map then contracts in the unweighted max norm with factor
    exactly ``1 - dominance``.

    Parameters
    ----------
    dominance:
        Strict-dominance margin in ``(0, 1]``; smaller = harder.
    density:
        Probability of keeping each off-diagonal entry.
    """
    if not 0.0 < dominance <= 1.0:
        raise ValueError(f"dominance must lie in (0, 1], got {dominance}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    rng = as_generator(seed)
    M = rng.standard_normal((dim, dim))
    if density < 1.0 and dim > 1:
        mask = rng.random((dim, dim)) < density
        np.fill_diagonal(mask, True)
        M = np.where(mask, M, 0.0)
    np.fill_diagonal(M, 0.0)
    row_sums = np.sum(np.abs(M), axis=1)
    target = 1.0 - dominance
    diag = np.where(row_sums > 0, row_sums / max(target, 1e-300), 1.0)
    if target == 0.0:
        M[:, :] = 0.0
        diag = np.ones(dim)
    else:
        scale = np.where(row_sums > 0, (target * diag) / np.maximum(row_sums, 1e-300), 0.0)
        M *= scale[:, None]
    M[np.arange(dim), np.arange(dim)] = diag
    c = rng.standard_normal(dim)
    return M, c


def random_dominant_system_batch(
    dim: int,
    dominance: float = 0.5,
    *,
    seeds: "list[int | np.random.Generator | np.random.SeedSequence | None]",
) -> tuple[np.ndarray, np.ndarray]:
    """A ``(B, dim, dim), (B, dim)`` stack of :func:`random_dominant_system` draws.

    Bit-identical per slice to
    ``[random_dominant_system(dim, dominance, seed=s) for s in seeds]``:
    each scenario's raw Gaussians are drawn from its own stream in solo
    order (``M`` then ``c``; the rescaling consumes no randomness), and
    the dominance rescaling itself is purely elementwise/row-wise
    arithmetic, which is exact under stacking.  Only the default dense
    ``density=1.0`` form batches — the sparsity mask would interleave a
    third draw, which solo order still permits, but no registry factory
    requests it.
    """
    if not 0.0 < dominance <= 1.0:
        raise ValueError(f"dominance must lie in (0, 1], got {dominance}")
    B = len(seeds)
    Ms = np.empty((B, dim, dim))
    cs = np.empty((B, dim))
    for k, seed in enumerate(seeds):
        rng = as_generator(seed)
        Ms[k] = rng.standard_normal((dim, dim))
        cs[k] = rng.standard_normal(dim)
    idx = np.arange(dim)
    Ms[:, idx, idx] = 0.0
    row_sums = np.sum(np.abs(Ms), axis=2)
    target = 1.0 - dominance
    diag = np.where(row_sums > 0, row_sums / max(target, 1e-300), 1.0)
    if target == 0.0:
        Ms[:] = 0.0
        diag = np.ones((B, dim))
    else:
        scale = np.where(
            row_sums > 0, (target * diag) / np.maximum(row_sums, 1e-300), 0.0
        )
        Ms *= scale[:, :, None]
    Ms[:, idx, idx] = diag
    return Ms, cs


def tridiagonal_system(
    dim: int,
    off_diag: float = -1.0,
    diag: float = 4.0,
    *,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic tridiagonal Toeplitz system (1-D Poisson-like).

    Strictly diagonally dominant whenever ``|diag| > 2 |off_diag|``.
    """
    if dim < 2:
        raise ValueError("tridiagonal_system needs dim >= 2")
    rng = as_generator(seed)
    M = diag * np.eye(dim) + off_diag * (np.eye(dim, k=1) + np.eye(dim, k=-1))
    c = rng.standard_normal(dim)
    return M, c


def make_jacobi_instance(
    dim: int,
    dominance: float = 0.5,
    *,
    n_blocks: int | None = None,
    seed: int | np.random.Generator | None = 0,
) -> AffineOperator:
    """Random dominant system wrapped as a Jacobi fixed-point operator.

    ``n_blocks`` selects a uniform block decomposition (defaults to the
    scalar one); the returned operator carries its exact fixed point
    and contraction certificate.
    """
    M, c = random_dominant_system(dim, dominance, seed=seed)
    spec = None if n_blocks is None else BlockSpec.uniform(dim, n_blocks)
    return jacobi_operator(M, c, spec)


def make_jacobi_batch(
    dim: int,
    dominance: float = 0.5,
    *,
    n_blocks: int | None = None,
    seeds: "list[int | np.random.Generator | np.random.SeedSequence | None]",
) -> "list[AffineOperator]":
    """Batched :func:`make_jacobi_instance`, bit-identical per scenario.

    Stacks the instance generation (per-scenario draws in solo order,
    one vectorized rescale) and hands the ``(B, n, n)`` stack to
    :func:`~repro.operators.linear.jacobi_operator_batch`.
    """
    from repro.operators.linear import jacobi_operator_batch

    Ms, cs = random_dominant_system_batch(dim, dominance, seeds=seeds)
    spec = None if n_blocks is None else BlockSpec.uniform(dim, n_blocks)
    return jacobi_operator_batch(Ms, cs, spec)

