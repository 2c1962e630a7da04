"""Network presets: channel maps for two platform archetypes.

The paper's experimental history spans clusters (Grid5000
multi-network) and planetary-scale grids (PlanetLab, nodes on
different continents).  These helpers build the corresponding
``(src, dst) -> ChannelSpec`` maps, from which the machine registry
(:mod:`repro.scenarios.registry`) builds its archetypes.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.simulator.channel import ChannelSpec
from repro.runtime.simulator.timing import ConstantTime, ExponentialTime, UniformTime
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["uniform_cluster", "wide_area_network"]


def uniform_cluster(
    n_processors: int,
    latency: float = 0.05,
    jitter: float = 0.0,
) -> dict[tuple[int, int], ChannelSpec]:
    """Homogeneous cluster interconnect; optional exponential jitter.

    With jitter and FIFO off a message can overtake its predecessor —
    the benign out-of-order regime of a multi-path fabric.
    """
    check_positive(latency, "latency")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if jitter == 0.0:
        spec = ChannelSpec(latency=ConstantTime(latency), fifo=True)
    else:
        spec = ChannelSpec(latency=ExponentialTime(jitter, offset=latency), fifo=False)
    return {
        (s, d): spec
        for s in range(n_processors)
        for d in range(n_processors)
        if s != d
    }


def wide_area_network(
    n_processors: int,
    *,
    base_latency: float = 0.5,
    spread: float = 2.0,
    drop_prob: float = 0.02,
    overwrite: bool = True,
    seed: int | np.random.Generator | None = 0,
) -> dict[tuple[int, int], ChannelSpec]:
    """PlanetLab-style WAN: heterogeneous latencies, loss, reordering.

    Each ordered pair gets its own latency scale drawn from
    ``Uniform[base, base * spread]``; channels are non-FIFO and lossy,
    and (by default) apply messages in arrival order — the regime where
    label sequences are genuinely non-monotone.
    """
    check_positive(base_latency, "base_latency")
    if spread < 1.0:
        raise ValueError(f"spread must be >= 1, got {spread}")
    rng = as_generator(seed)
    apply = "overwrite" if overwrite else "latest_label"
    out: dict[tuple[int, int], ChannelSpec] = {}
    for s in range(n_processors):
        for d in range(n_processors):
            if s == d:
                continue
            scale = float(rng.uniform(base_latency, base_latency * spread))
            out[(s, d)] = ChannelSpec(
                latency=UniformTime(0.5 * scale, 1.5 * scale),
                fifo=False,
                drop_prob=drop_prob,
                apply=apply,
            )
    return out
