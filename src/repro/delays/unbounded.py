"""Unbounded-delay models — the paper's central generalization.

Baudet's model (Definition 1) only requires ``l_i(j) -> infinity``
(condition (b)); delays may grow without bound.  These models realize
that regime:

* :class:`BaudetSqrtDelay` — the paper's worked example: processor P2's
  k-th updating phase takes ``k`` time units while P1 updates every
  unit, so the staleness of ``x_2`` as seen at iteration ``j`` grows
  like ``sqrt(j)`` and ``l_2(j) ~ j - sqrt(j) -> infinity``;
* :class:`PowerGrowthDelay` / :class:`LogGrowthDelay` — generic
  ``d(j) ~ j^alpha`` (``alpha < 1``) and ``d(j) ~ log j`` growth;
* :class:`AdversarialSpikeDelay` — delays that spike to a growing
  fraction of ``j`` at sparse instants, stressing condition (b) while
  still satisfying it.

All satisfy (b) because ``j - d(j) -> infinity``; none satisfies (d).
"""

from __future__ import annotations

import numpy as np

from repro.delays.base import DelayModel
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range, check_probability

__all__ = [
    "BaudetSqrtDelay",
    "PowerGrowthDelay",
    "LogGrowthDelay",
    "AdversarialSpikeDelay",
]


class BaudetSqrtDelay(DelayModel):
    """The paper's Section II example: ``d_i(j) = floor(sqrt(j))`` on slow components.

    Components listed in ``slow_components`` experience the growing
    staleness; the rest read fresh values (``d = 0``), mirroring the
    fast processor P1 / slow processor P2 construction.
    """

    def __init__(self, n_components: int, slow_components: list[int] | None = None) -> None:
        super().__init__(n_components)
        if slow_components is None:
            slow_components = [n_components - 1]
        slow = sorted(set(int(i) for i in slow_components))
        if any(i < 0 or i >= n_components for i in slow):
            raise IndexError(f"slow component index out of range [0, {n_components})")
        self.slow_components = slow
        self._mask = np.zeros(n_components, dtype=bool)
        self._mask[slow] = True

    def raw_delays(self, j: int) -> np.ndarray:
        d = np.zeros(self.n_components, dtype=np.int64)
        d[self._mask] = int(np.floor(np.sqrt(j)))
        return d

    def max_delay(self, J: int) -> int:
        # Deterministic and nondecreasing in j: d(J) bounds every j <= J.
        return int(self.raw_delays(J).max())


class PowerGrowthDelay(DelayModel):
    """``d_i(j) = floor(c * j^alpha)`` with ``alpha in [0, 1)``.

    Strictly sublinear growth keeps ``l_i(j) = j - 1 - d_i(j)``
    tending to infinity (condition (b)); ``alpha`` close to one is a
    nearly pathological but still admissible regime.
    """

    def __init__(self, n_components: int, alpha: float = 0.5, scale: float = 1.0) -> None:
        super().__init__(n_components)
        self.alpha = check_in_range(alpha, 0.0, 1.0, "alpha", hi_open=True)
        if scale < 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        self.scale = float(scale)

    def raw_delays(self, j: int) -> np.ndarray:
        d = int(np.floor(self.scale * j**self.alpha))
        return np.full(self.n_components, d, dtype=np.int64)

    def max_delay(self, J: int) -> int:
        # Deterministic and nondecreasing in j: d(J) bounds every j <= J.
        return int(self.raw_delays(J).max())


class LogGrowthDelay(DelayModel):
    """``d_i(j) = floor(c * log(1 + j))`` — slowly growing unbounded delays."""

    def __init__(self, n_components: int, scale: float = 1.0) -> None:
        super().__init__(n_components)
        if scale < 0:
            raise ValueError(f"scale must be >= 0, got {scale}")
        self.scale = float(scale)

    def raw_delays(self, j: int) -> np.ndarray:
        d = int(np.floor(self.scale * np.log1p(j)))
        return np.full(self.n_components, d, dtype=np.int64)

    def max_delay(self, J: int) -> int:
        # Deterministic and nondecreasing in j: d(J) bounds every j <= J.
        return int(self.raw_delays(J).max())


class AdversarialSpikeDelay(DelayModel):
    """Random delay spikes of size ``fraction * j`` at rate ``spike_prob``.

    Between spikes, delays follow a small uniform baseline.  Because a
    spike at iteration ``j`` has size at most ``fraction * j`` with
    ``fraction < 1``, labels still satisfy ``l_i(j) >= (1 - fraction) j - 1
    -> infinity`` so condition (b) holds despite arbitrarily large
    individual delays — the "unbounded but admissible" stress case.
    """

    def __init__(
        self,
        n_components: int,
        *,
        spike_prob: float = 0.05,
        fraction: float = 0.5,
        baseline: int = 1,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        super().__init__(n_components)
        self.spike_prob = check_probability(spike_prob, "spike_prob")
        self.fraction = check_in_range(fraction, 0.0, 1.0, "fraction", hi_open=True)
        if baseline < 0:
            raise ValueError(f"baseline must be >= 0, got {baseline}")
        self.baseline = int(baseline)
        self.rng = as_generator(seed)

    def raw_delays(self, j: int) -> np.ndarray:
        d = self.rng.integers(0, self.baseline + 1, size=self.n_components)
        spikes = self.rng.random(self.n_components) < self.spike_prob
        if np.any(spikes):
            d = d.astype(np.int64)
            d[spikes] = int(np.floor(self.fraction * j))
        return d
