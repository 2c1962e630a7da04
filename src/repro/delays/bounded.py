"""Bounded-delay models: the chaotic-relaxation regime (condition (d)).

Chazan–Miranker [12] and Miellou [14] assume a uniform bound
``0 <= d_i(j) < b(j) <= min(b, j)``; these models realize that
assumption in several ways, from the degenerate zero-delay (Gauss–
Seidel-like) case to random delays filling the whole admissible window.
"""

from __future__ import annotations

import numpy as np

from repro.delays.base import DelayModel
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer

__all__ = ["ZeroDelay", "ConstantDelay", "UniformRandomDelay", "ChaoticRelaxationDelay"]


class ZeroDelay(DelayModel):
    """``l_i(j) = j - 1``: freshest possible data (no staleness).

    Asynchronous in steering only; the degenerate baseline against
    which delay effects are measured.
    """

    def raw_delays(self, j: int) -> np.ndarray:
        return np.zeros(self.n_components, dtype=np.int64)

    def is_bounded(self) -> bool:
        return True

    def max_delay(self, J: int) -> int:
        return 0


class ConstantDelay(DelayModel):
    """Fixed staleness ``d_i(j) = d_i`` per component.

    Models pipeline latency: component ``i``'s value always arrives
    ``d_i`` iterations late (clipped near the start).
    """

    def __init__(self, n_components: int, delay: int | np.ndarray) -> None:
        super().__init__(n_components)
        d = np.broadcast_to(np.asarray(delay, dtype=np.int64), (n_components,)).copy()
        if np.any(d < 0):
            raise ValueError("delays must be nonnegative")
        self.delay = d

    def raw_delays(self, j: int) -> np.ndarray:
        return self.delay

    def is_bounded(self) -> bool:
        return True

    def max_delay(self, J: int) -> int:
        return int(self.delay.max())


class UniformRandomDelay(DelayModel):
    """I.i.d. delays ``d_i(j) ~ Uniform{0, ..., bound}``.

    The standard stochastic bounded-delay regime of the asynchronous
    SGD/coordinate-descent literature.
    """

    def __init__(
        self,
        n_components: int,
        bound: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(n_components)
        self.bound = check_positive_integer(bound, "bound")
        self.rng = as_generator(seed)

    def raw_delays(self, j: int) -> np.ndarray:
        return self.rng.integers(0, self.bound + 1, size=self.n_components)

    def raw_delay_block(self, j: int, k: int) -> np.ndarray:
        # Generator.integers fills int64 output one element at a time
        # from the bit generator, whose state carries the spare 32-bit
        # half-word between calls: one (k, n) fill draws what k fills of
        # n draw, in order, and leaves the same state.
        return self.rng.integers(0, self.bound + 1, size=(k, self.n_components))

    def is_bounded(self) -> bool:
        return True

    def max_delay(self, J: int) -> int:
        return self.bound


class ChaoticRelaxationDelay(DelayModel):
    """Condition (d) verbatim: ``0 <= d_i(j) < b(j)``, ``b(j) = min(b, j)``.

    ``j - b(j)`` is monotone increasing since ``b(j)`` is the clipped
    constant ``b``; delays are drawn uniformly inside the *admissible
    window* ``[0, b(j) - 1]``, making this the maximal-entropy model
    satisfying Chazan–Miranker's assumptions exactly.
    """

    def __init__(
        self,
        n_components: int,
        b: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(n_components)
        self.b = check_positive_integer(b, "b")
        self.rng = as_generator(seed)

    def window(self, j: int) -> int:
        """The bound ``b(j) = min(b, j)`` of condition (d)."""
        return min(self.b, j)

    def raw_delays(self, j: int) -> np.ndarray:
        w = self.window(j)
        return self.rng.integers(0, w, size=self.n_components)

    def is_bounded(self) -> bool:
        return True

    def max_delay(self, J: int) -> int:
        return self.b - 1
