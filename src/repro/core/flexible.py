"""Partial-update models for flexible communication — Definition 3.

Definition 3 generalizes Definition 1: the values fed to the
approximate operator ``G`` need not be labelled iterates
``x_h(l_h(j))`` — they may be *partial updates* ``x~_h(j)`` (the
hatched arrows of Figure 2), subject to the norm constraint (3):

    ``||x~_h(j) - x*_h||_h / u_h  <=  ||x(l(j)) - x*||_u``.

In a running system partial updates come from inner iterative
processes or partially transmitted buffers; at the mathematical level
we model them as *interpolations between a delayed labelled value and
a newer labelled value* of the same component — exactly the state a
partially completed transmission/computation passes through.  Handed
one of these models,
:class:`~repro.core.async_iteration.AsyncIterationEngine` runs
Definition 3 and verifies constraint (3) a posteriori whenever ``x*``
is known (contraction makes violations rare but they are possible;
Theorem 1 assumes the constraint, it does not prove it for every
partial-update generator).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.history import VectorHistory
from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = ["PartialUpdateModel", "LabelledValues", "InterpolatedPartials"]


class PartialUpdateModel(abc.ABC):
    """Produces the exchanged values ``x~(j)`` of Definition 3."""

    @abc.abstractmethod
    def values(self, hist: VectorHistory, labels: np.ndarray, j: int) -> np.ndarray:
        """The vector ``(x~_1(j), ..., x~_n(j))`` used at iteration ``j``."""

    def reset(self) -> None:
        """Reset internal state (default: stateless no-op)."""


class LabelledValues(PartialUpdateModel):
    """Degenerate model: ``x~_h(j) = x_h(l_h(j))`` — plain Definition 1."""

    def values(self, hist: VectorHistory, labels: np.ndarray, j: int) -> np.ndarray:
        return hist.assemble(labels)


class InterpolatedPartials(PartialUpdateModel):
    """Partial updates as delayed-to-fresh interpolations.

    With probability ``partial_prob`` a component's exchanged value is

        ``x~_h = (1 - theta) x_h(l_h(j)) + theta x_h(m_h)``

    with ``m_h`` a uniformly drawn *newer* label and
    ``theta ~ U(theta_range)``: the receiver sees a value part-way
    between what the labels say it has and something fresher — a
    partially transmitted buffer or a partially completed inner
    computation.  With ``theta -> 1`` this converges to "always use
    freshest data"; with ``partial_prob = 0`` it degenerates to
    :class:`LabelledValues`.
    """

    def __init__(
        self,
        *,
        partial_prob: float = 1.0,
        theta_range: tuple[float, float] = (0.25, 1.0),
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.partial_prob = check_probability(partial_prob, "partial_prob")
        lo, hi = float(theta_range[0]), float(theta_range[1])
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"theta_range must satisfy 0 <= lo <= hi <= 1, got {theta_range}")
        self.theta_range = (lo, hi)
        self.rng = as_generator(seed)

    def values(self, hist: VectorHistory, labels: np.ndarray, j: int) -> np.ndarray:
        spec = hist.spec
        out = np.empty(spec.dim)
        lo, hi = self.theta_range
        for h, sl in enumerate(spec.slices()):
            base = hist.component_at(h, int(labels[h]))
            if self.rng.random() >= self.partial_prob or hist.latest_label <= labels[h]:
                out[sl] = base
                continue
            m = int(self.rng.integers(labels[h], hist.latest_label + 1))
            fresh = hist.component_at(h, m)
            theta = lo if hi == lo else float(self.rng.uniform(lo, hi))
            out[sl] = (1.0 - theta) * base + theta * fresh
        return out
