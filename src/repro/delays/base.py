"""Delay models: the sequence ``L = {(l_1(j), ..., l_n(j))}`` of Definition 1.

A delay model answers, for each global iteration ``j >= 1``, which past
iterate label ``l_i(j) <= j - 1`` supplies component ``i``'s value in
the updating phase.  Condition (a) is enforced structurally by
clipping; conditions (b) (labels tend to infinity — unbounded delays
allowed) and, for chaotic relaxation, (d) (bounded delays) are
properties of the concrete models and are verified empirically by
:mod:`repro.delays.admissibility`.

Delay models are *deterministic functions of (j, rng state)*; every
stochastic model owns a seeded generator so traces are reproducible.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["DelayModel", "delays_to_labels"]


def delays_to_labels(j: int, delays: np.ndarray) -> np.ndarray:
    """Convert delay amounts ``d_i(j)`` into labels ``l_i(j) = j-1-d_i(j)``.

    Labels are clipped into ``[0, j-1]`` so condition (a) holds by
    construction: at iteration ``j`` only values produced strictly
    before ``j`` may be used and nothing precedes the initial vector.
    """
    labels = (j - 1) - np.asarray(delays, dtype=np.int64)
    return np.clip(labels, 0, j - 1)


class DelayModel(abc.ABC):
    """Produces the label tuple ``(l_1(j), ..., l_n(j))`` for each ``j``.

    Subclasses implement :meth:`raw_delays` and keep :meth:`labels`,
    which applies the condition-(a) clipping: the batched engine labels
    from raw delay blocks and never calls it.  ``n_components`` fixes
    the tuple length.
    """

    def __init__(self, n_components: int) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        self.n_components = int(n_components)

    @abc.abstractmethod
    def raw_delays(self, j: int) -> np.ndarray:
        """Delay amounts ``d_i(j) >= 0`` (before clipping), length ``n``."""

    def raw_delay_block(self, j: int, k: int) -> np.ndarray:
        """Raw delays of iterations ``j .. j + k - 1`` as a ``(k, n)`` int64 array.

        Row ``i`` is ``raw_delays(j + i)``, and the model's streams end
        where ``k`` calls in order leave them.  The default makes those
        calls; a model whose ``k`` draws are one generator fill may
        override it with that fill.  The batched engine draws every
        model's labels through it, one block ahead.
        """
        return np.array([self.raw_delays(j + i) for i in range(k)], dtype=np.int64)

    def labels(self, j: int) -> np.ndarray:
        """The clipped labels ``l_i(j) in [0, j-1]`` for iteration ``j >= 1``."""
        if j < 1:
            raise ValueError(f"iteration index must be >= 1, got {j}")
        d = np.asarray(self.raw_delays(j), dtype=np.int64)
        if d.shape != (self.n_components,):
            raise ValueError(
                f"raw_delays returned shape {d.shape}, expected ({self.n_components},)"
            )
        if np.any(d < 0):
            raise ValueError("raw delays must be nonnegative")
        return delays_to_labels(j, d)

    def is_bounded(self) -> bool:
        """Whether the model guarantees a uniform delay bound (condition (d))."""
        return False

    def max_delay(self, J: int) -> "int | None":
        """A bound on every raw delay ``d_i(j)``, ``j <= J``, or ``None``.

        The registered bounded models state their uniform bound, the
        deterministic unbounded ones their ``d(J)``, finite at any
        finite horizon.  The batched engine then keeps only the last
        ``max_delay(J) + 1`` iterates, and raises on a draw above the
        statement.
        """
        return None

    def reset(self) -> None:
        """Reset any internal state (default: stateless no-op)."""
