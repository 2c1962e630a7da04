"""Shared utilities: block decompositions, weighted max norms, validation.

The asynchronous-iterations literature (and constraint (3) of the paper)
works in *weighted block-maximum norms*

    ``||x||_u = max_i ||x_i||_(i) / u_i``

where ``x_1, ..., x_n`` are the blocks of a decomposition of ``R^N`` and
``u > 0`` is a weight vector.  :class:`BlockSpec` describes such a
decomposition and :class:`WeightedMaxNorm` evaluates the norm; both are
used throughout :mod:`repro.core` and :mod:`repro.operators`.
"""

from repro.utils.norms import (
    BlockSpec,
    WeightedMaxNorm,
    block_abs_max,
    block_euclidean_norms,
    weighted_max_norm,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_finite_array,
    check_positive,
    check_positive_integer,
    check_probability,
    check_vector,
)

__all__ = [
    "BlockSpec",
    "WeightedMaxNorm",
    "as_generator",
    "block_abs_max",
    "block_euclidean_norms",
    "check_finite_array",
    "check_positive",
    "check_positive_integer",
    "check_probability",
    "check_vector",
    "spawn_generators",
    "weighted_max_norm",
]
