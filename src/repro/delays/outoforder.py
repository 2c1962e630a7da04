"""Out-of-order message models: non-monotone label sequences.

The paper stresses (Sections II and IV) that condition (b) permits
*out-of-order messages*: the label functions ``l_i(j)`` need not be
monotone in ``j`` — a later updating phase may use an *older* value of
a component than an earlier phase did, exactly what happens on a
network that reorders packets.  Miellou [14] and Mishchenko et al. [30]
instead assume monotone ``l_i``; the models here generate genuinely
non-monotone sequences so the MACRO-EPOCH experiment can separate the
two theories empirically.
"""

from __future__ import annotations

import numpy as np

from repro.delays.base import DelayModel
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_integer, check_probability

__all__ = ["OutOfOrderDelay", "ShuffledWindowDelay", "is_monotone_labels"]


class OutOfOrderDelay(DelayModel):
    """Wrap a base model; occasionally *regress* labels to older values.

    With probability ``reorder_prob`` a component's label is pushed
    back by up to ``max_regression`` extra iterations relative to the
    base model's label — simulating an old message overtaking a newer
    one and being applied after it.  Condition (b) survives because the
    regression amount is bounded, the base model satisfies (b), and a
    bounded perturbation of a diverging sequence still diverges.
    """

    def __init__(
        self,
        base: DelayModel,
        *,
        reorder_prob: float = 0.3,
        max_regression: int = 8,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(base.n_components)
        self.base = base
        self.reorder_prob = check_probability(reorder_prob, "reorder_prob")
        self.max_regression = check_positive_integer(max_regression, "max_regression")
        self.rng = as_generator(seed)

    def raw_delays(self, j: int) -> np.ndarray:
        d = np.asarray(self.base.raw_delays(j), dtype=np.int64).copy()
        hit = self.rng.random(self.n_components) < self.reorder_prob
        if np.any(hit):
            extra = self.rng.integers(1, self.max_regression + 1, size=int(np.sum(hit)))
            d[hit] += extra
        return d

    def is_bounded(self) -> bool:
        return self.base.is_bounded()

    def max_delay(self, J: int) -> "int | None":
        base = self.base.max_delay(J)
        return None if base is None else base + self.max_regression

    def reset(self) -> None:
        self.base.reset()


class ShuffledWindowDelay(DelayModel):
    """Labels drawn uniformly from a sliding admissible window.

    ``l_i(j) ~ Uniform{max(0, j - window), ..., j - 1}`` independently
    per component and iteration: maximally non-monotone within a
    bounded window.  Satisfies (b) (window is bounded) and (d), but the
    realized label sequences are wildly out of order — the worst case a
    bounded-delay network can produce.
    """

    def __init__(
        self,
        n_components: int,
        window: int,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(n_components)
        self.window = check_positive_integer(window, "window")
        self.rng = as_generator(seed)

    def raw_delays(self, j: int) -> np.ndarray:
        w = min(self.window, j)
        return self.rng.integers(0, w, size=self.n_components)

    def is_bounded(self) -> bool:
        return True

    def max_delay(self, J: int) -> int:
        return self.window - 1


def is_monotone_labels(labels_by_iteration: np.ndarray) -> bool:
    """Check whether every component's label sequence is nondecreasing.

    Parameters
    ----------
    labels_by_iteration:
        Array of shape ``(J, n)``: row ``j`` holds ``(l_1(j+1), ..., l_n(j+1))``.

    Returns
    -------
    bool
        True iff ``l_i`` is monotone nondecreasing for every ``i`` —
        the assumption of [14] and [30] that out-of-order messages
        violate.
    """
    arr = np.asarray(labels_by_iteration)
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D label array, got shape {arr.shape}")
    if arr.shape[0] <= 1:
        return True
    return bool(np.all(np.diff(arr, axis=0) >= 0))
