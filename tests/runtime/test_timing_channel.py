"""Tests for duration models and channels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.simulator.channel import ChannelSpec, ChannelState
from repro.runtime.simulator.timing import (
    ConstantTime,
    ExponentialTime,
    LinearGrowthTime,
    ParetoTime,
    UniformTime,
)


class TestDurationModels:
    def test_constant(self, rng):
        m = ConstantTime(2.5)
        assert m.sample(1, rng) == 2.5
        assert m.mean() == 2.5

    def test_uniform_range(self, rng):
        m = UniformTime(1.0, 3.0)
        samples = [m.sample(k, rng) for k in range(1, 200)]
        assert all(1.0 <= s <= 3.0 for s in samples)
        assert m.mean() == 2.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformTime(3.0, 1.0)
        with pytest.raises(ValueError):
            UniformTime(0.0, 1.0)

    def test_exponential_positive(self, rng):
        m = ExponentialTime(1.0, offset=0.5)
        samples = [m.sample(k, rng) for k in range(1, 100)]
        assert all(s >= 0.5 for s in samples)
        assert m.mean() == 1.5

    def test_pareto_heavy_tail_mean(self):
        assert ParetoTime(0.9).mean() == float("inf")
        assert ParetoTime(2.0, scale=1.0).mean() == pytest.approx(2.0)

    def test_pareto_min_value(self, rng):
        m = ParetoTime(1.5, scale=2.0)
        assert all(m.sample(k, rng) >= 2.0 for k in range(1, 50))

    def test_linear_growth_is_baudet(self, rng):
        m = LinearGrowthTime(0.5)
        assert m.sample(1, rng) == 0.5
        assert m.sample(10, rng) == 5.0
        assert m.mean() == float("inf")

    def test_linear_growth_rejects_zero_index(self, rng):
        with pytest.raises(ValueError):
            LinearGrowthTime(1.0).sample(0, rng)


class TestChannelSpec:
    def test_defaults(self):
        spec = ChannelSpec()
        assert spec.fifo
        assert spec.drop_prob == 0.0
        assert spec.apply == "latest_label"

    def test_lossy_reordering_factory(self):
        spec = ChannelSpec.lossy_reordering(ConstantTime(0.1), drop_prob=0.2)
        assert not spec.fifo
        assert spec.apply == "overwrite"

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec(drop_prob=1.5)
        with pytest.raises(ValueError):
            ChannelSpec(apply="bogus")


class TestChannelState:
    def test_fifo_monotonizes(self):
        rng = np.random.default_rng(0)
        state = ChannelState(ChannelSpec(latency=UniformTime(0.1, 2.0), fifo=True), rng)
        arrivals = [state.delivery_time(float(t)) for t in np.linspace(0, 1, 20)]
        assert all(a is not None for a in arrivals)
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))

    def test_non_fifo_can_reorder(self):
        rng = np.random.default_rng(1)
        state = ChannelState(
            ChannelSpec(latency=UniformTime(0.1, 2.0), fifo=False), rng
        )
        arrivals = [state.delivery_time(float(t)) for t in np.linspace(0, 1, 50)]
        assert any(b < a for a, b in zip(arrivals, arrivals[1:]))

    def test_drops_counted(self):
        rng = np.random.default_rng(2)
        state = ChannelState(
            ChannelSpec(latency=ConstantTime(0.1), drop_prob=0.5), rng
        )
        results = [state.delivery_time(0.0) for _ in range(200)]
        dropped = sum(1 for r in results if r is None)
        assert state.messages_dropped == dropped
        assert 50 < dropped < 150
        assert state.messages_sent == 200

    def test_zero_drop_never_drops(self):
        rng = np.random.default_rng(3)
        state = ChannelState(ChannelSpec(latency=ConstantTime(0.1)), rng)
        assert all(state.delivery_time(0.0) is not None for _ in range(100))
