"""The registry's statements, checked against behaviour.

Every steering, delay and machine entry states ``shared``: its factory
draws nothing and what it builds depends on the iteration index alone,
so the batched executor builds one instance for a whole batch.  For a
machine, ``shared`` is also the batch's admission: the executor reads
the group's schedule from one value-free run of the head machine
without checking it, so the timing that makes that one schedule exact
for every row is checked here.
Every delay model states ``max_delay(J)``, which sizes the engine
batch's ring of iterates.  A wrong statement makes batched rows
silently wrong, so each one is checked here over the whole registry.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.delays.base import DelayModel
from repro.runtime.simulator import ChannelSpec, ConstantTime
from repro.scenarios.registry import REGISTRY

N = 8
HORIZONS = (1, 40, 400)
SEEDS = range(5)


def _entries(kind: str, *, shared_only: bool = False) -> list:
    return [
        pytest.param(e, id=e.name) for e in REGISTRY.entries(kind)
        if e.shared or not shared_only
    ]


def _build(entry, seed: int):
    """Build ``entry`` as a scenario does: from a SeedSequence child."""
    return entry.build(N, np.random.SeedSequence(seed), **dict(entry.defaults))


class TestShared:
    """A ``shared`` entry built from two different seeds is one model."""

    J = max(HORIZONS)

    @pytest.mark.parametrize("entry", _entries("steering", shared_only=True))
    def test_steering(self, entry):
        a, b = _build(entry, 1), _build(entry, 2)
        for j in range(1, self.J + 1):
            assert a.active_set(j) == b.active_set(j), j

    @pytest.mark.parametrize("entry", _entries("delays", shared_only=True))
    def test_delays(self, entry):
        a, b = _build(entry, 1), _build(entry, 2)
        for j in range(1, self.J + 1):
            np.testing.assert_array_equal(a.raw_delays(j), b.raw_delays(j))

    @pytest.mark.parametrize("entry", _entries("machine", shared_only=True))
    def test_machines(self, entry):
        a, b = _build(entry, 1), _build(entry, 2)
        assert pickle.dumps(a) == pickle.dumps(b)
        procs, channels = a
        if not isinstance(channels, dict):
            channels = {None: channels}
        durations = [p.compute_time for p in procs]
        durations += [c.latency for c in channels.values()]
        # The k-th duration is the same whatever stream samples it.
        rngs = np.random.default_rng(1), np.random.default_rng(2)
        for model in durations:
            for k in range(1, self.J + 1):
                assert model.sample(k, rngs[0]) == model.sample(k, rngs[1])


#: Accepted params each shared machine is also checked at, restricted to
#: the keys the entry takes.
MACHINE_VARIANTS = (
    {"n_processors": 1},
    {"n_processors": 3, "compute": 2.0, "latency": 0.5},
    {"n_processors": N, "latency": 0.9},
    {"tiers": 3, "latency": 0.02},
)


def _machine_params(entry) -> list:
    out = [dict(entry.defaults)]
    for variant in MACHINE_VARIANTS:
        params = {k: v for k, v in variant.items() if k in entry.defaults}
        if params:
            out.append({**entry.defaults, **params})
    return out


class TestSharedMachineSchedule:
    """A ``shared`` machine induces one value-free lockstep schedule."""

    @pytest.mark.parametrize("entry", _entries("machine", shared_only=True))
    def test_lockstep_timing(self, entry):
        for params in _machine_params(entry):
            procs, channels = entry.build(N, np.random.SeedSequence(0), **params)
            owned = sorted(c for p in procs for c in p.components)
            assert owned == list(range(N)), params
            for p in procs:
                assert type(p.compute_time) is ConstantTime, params
                assert p.inner_steps == 1, params
                assert not (p.publish_partials or p.refresh_reads), params
                assert p.think_time is None, params
            computes = [p.compute_time.value for p in procs]
            base = min(computes)
            for c in computes:
                assert abs(c / base - round(c / base)) <= 1e-9, (params, c)
            # As the event loop reads channels: one spec for every pair,
            # or a map whose missing pairs take the default spec.
            default = channels if isinstance(channels, ChannelSpec) else ChannelSpec()
            pairs = channels if isinstance(channels, dict) else {}
            P = len(procs)
            for pair in [(s, d) for s in range(P) for d in range(P) if s != d]:
                cs = pairs.get(pair, default)
                assert type(cs.latency) is ConstantTime, (params, pair)
                assert cs.drop_prob == 0.0, (params, pair)
                assert cs.latency.value < base, (params, pair)


class TestMaxDelay:
    @pytest.mark.parametrize("entry", _entries("delays"))
    def test_no_draw_exceeds_the_statement(self, entry):
        for J in HORIZONS:
            for seed in SEEDS:
                model = _build(entry, seed)
                D = model.max_delay(J)
                assert D is not None, J
                drawn = model.raw_delay_block(1, J)
                assert drawn.max() <= D, (J, seed)

    @pytest.mark.parametrize("entry", _entries("delays"))
    def test_bounded_models_state_a_bound(self, entry):
        model = _build(entry, 0)
        if model.is_bounded():
            for J in HORIZONS:
                assert model.max_delay(J) is not None
                assert model.max_delay(J) == model.max_delay(2 * J)

    @pytest.mark.parametrize("entry", _entries("delays"))
    def test_labels_are_not_overridden(self, entry):
        # The batched engine labels from raw delay blocks, not labels().
        assert type(_build(entry, 0)).labels is DelayModel.labels
