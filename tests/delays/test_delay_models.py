"""Tests for bounded, unbounded and out-of-order delay models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delays.base import delays_to_labels
from repro.delays.bounded import (
    ChaoticRelaxationDelay,
    ConstantDelay,
    UniformRandomDelay,
    ZeroDelay,
)
from repro.delays.outoforder import (
    OutOfOrderDelay,
    ShuffledWindowDelay,
    is_monotone_labels,
)
from repro.delays.unbounded import (
    AdversarialSpikeDelay,
    BaudetSqrtDelay,
    LogGrowthDelay,
    PowerGrowthDelay,
)
from repro.scenarios.registry import REGISTRY, make_delays

ALL_MODELS = [
    ZeroDelay(4),
    ConstantDelay(4, 3),
    UniformRandomDelay(4, 5, seed=0),
    ChaoticRelaxationDelay(4, 6, seed=1),
    BaudetSqrtDelay(4),
    PowerGrowthDelay(4, alpha=0.6),
    LogGrowthDelay(4, scale=2.0),
    AdversarialSpikeDelay(4, seed=2),
    OutOfOrderDelay(UniformRandomDelay(4, 3, seed=3), seed=4),
    ShuffledWindowDelay(4, 8, seed=5),
]


class TestConditionA:
    """Every model must emit labels in [0, j-1] — condition (a)."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_labels_in_range(self, model):
        for j in [1, 2, 3, 10, 100, 1000]:
            labels = model.labels(j)
            assert labels.shape == (4,)
            assert np.all(labels >= 0)
            assert np.all(labels <= j - 1)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_rejects_j_zero(self, model):
        with pytest.raises(ValueError):
            model.labels(0)


class TestConditionB:
    """Labels must tend to infinity — condition (b) surrogate."""

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_tail_labels_grow(self, model):
        early = np.array([model.labels(j).min() for j in range(1, 51)])
        late = np.array([model.labels(j).min() for j in range(5000, 5050)])
        assert late.min() > early.max()


class TestBounded:
    def test_zero_delay_freshest(self):
        m = ZeroDelay(3)
        assert np.all(m.labels(10) == 9)
        assert m.is_bounded()

    def test_constant_delay_clipped_early(self):
        m = ConstantDelay(2, 5)
        assert np.all(m.labels(2) == 0)  # clip: 2-1-5 < 0
        assert np.all(m.labels(10) == 4)

    def test_constant_vector_delays(self):
        m = ConstantDelay(3, np.array([0, 2, 4]))
        np.testing.assert_array_equal(m.labels(10), [9, 7, 5])

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantDelay(2, -1)

    def test_uniform_respects_bound(self):
        m = UniformRandomDelay(5, 3, seed=6)
        for j in range(1, 200):
            d = (j - 1) - m.labels(j)
            assert np.all(d <= 3)

    def test_chaotic_relaxation_condition_d(self):
        b = 7
        m = ChaoticRelaxationDelay(3, b, seed=7)
        for j in range(1, 300):
            d = m.raw_delays(j)
            assert np.all(d < min(b, j))  # strict: d_i(j) < b(j)
        # j - b(j) monotone increasing
        vals = [j - m.window(j) for j in range(1, 50)]
        assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))


class TestUnbounded:
    def test_baudet_delay_grows_like_sqrt(self):
        m = BaudetSqrtDelay(2, slow_components=[1])
        for j in [100, 10_000, 1_000_000]:
            d = m.raw_delays(j)
            assert d[0] == 0
            assert d[1] == int(np.floor(np.sqrt(j)))

    def test_baudet_labels_still_diverge(self):
        m = BaudetSqrtDelay(2)
        l_small = m.labels(100)[1]
        l_big = m.labels(1_000_000)[1]
        assert l_big > l_small
        # l(j) = j - 1 - sqrt(j) -> infinity
        assert l_big == 1_000_000 - 1 - 1000

    def test_baudet_not_bounded(self):
        assert not BaudetSqrtDelay(2).is_bounded()
        assert not PowerGrowthDelay(2).is_bounded()

    def test_baudet_invalid_slow_component(self):
        with pytest.raises(IndexError):
            BaudetSqrtDelay(2, slow_components=[5])

    def test_power_growth_sublinear(self):
        m = PowerGrowthDelay(2, alpha=0.9, scale=1.0)
        for j in [10, 1000, 100_000]:
            assert m.raw_delays(j)[0] <= j**0.9 + 1

    def test_power_growth_rejects_alpha_one(self):
        with pytest.raises(ValueError):
            PowerGrowthDelay(2, alpha=1.0)

    def test_log_growth_small(self):
        m = LogGrowthDelay(2, scale=1.0)
        assert m.raw_delays(1000)[0] == int(np.log1p(1000))

    def test_adversarial_spikes_bounded_fraction(self):
        m = AdversarialSpikeDelay(3, spike_prob=1.0, fraction=0.5, seed=8)
        for j in [10, 100, 1000]:
            d = m.raw_delays(j)
            assert np.all(d <= 0.5 * j + 1)

    def test_adversarial_no_spikes_baseline(self):
        m = AdversarialSpikeDelay(3, spike_prob=0.0, baseline=2, seed=9)
        for j in [5, 50]:
            assert np.all(m.raw_delays(j) <= 2)


class TestOutOfOrder:
    def test_produces_non_monotone_labels(self):
        m = OutOfOrderDelay(ZeroDelay(3), reorder_prob=0.5, max_regression=5, seed=10)
        labels = np.stack([m.labels(j) for j in range(1, 200)])
        assert not is_monotone_labels(labels)

    def test_zero_prob_is_base(self):
        base = ConstantDelay(3, 2)
        m = OutOfOrderDelay(base, reorder_prob=0.0, seed=11)
        for j in range(1, 50):
            np.testing.assert_array_equal(m.labels(j), base.labels(j))

    def test_boundedness_inherited(self):
        assert OutOfOrderDelay(ZeroDelay(2), seed=0).is_bounded()
        assert not OutOfOrderDelay(BaudetSqrtDelay(2), seed=0).is_bounded()

    def test_shuffled_window_respects_window(self):
        m = ShuffledWindowDelay(4, 6, seed=12)
        for j in range(1, 300):
            labels = m.labels(j)
            assert np.all(labels >= max(0, j - 6))

    def test_shuffled_window_non_monotone(self):
        m = ShuffledWindowDelay(2, 10, seed=13)
        labels = np.stack([m.labels(j) for j in range(1, 300)])
        assert not is_monotone_labels(labels)


class TestRawDelayBlock:
    """A block of ``k`` iterations is ``k`` per-iteration draws in order,
    and leaves every stream where those draws leave it."""

    @pytest.mark.parametrize("name", REGISTRY.names("delays"))
    @pytest.mark.parametrize("j0,k", [(1, 1), (1, 7), (5, 12)])
    def test_block_equals_stacked_draws(self, name, j0, k):
        blocked, stepped = (make_delays(name, 8, seed=2022) for _ in range(2))
        block = blocked.raw_delay_block(j0, k)
        rows = np.stack([stepped.raw_delays(j0 + i) for i in range(k)])
        assert block.dtype == np.int64 and block.shape == (k, 8)
        np.testing.assert_array_equal(block, rows)
        np.testing.assert_array_equal(
            blocked.raw_delays(j0 + k), stepped.raw_delays(j0 + k)
        )


class TestHelpers:
    @given(
        j=st.integers(min_value=1, max_value=10_000),
        d=st.integers(min_value=0, max_value=20_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_delays_to_labels_always_admissible(self, j, d):
        labels = delays_to_labels(j, np.array([d]))
        assert 0 <= labels[0] <= j - 1

    def test_is_monotone_labels_validation(self):
        with pytest.raises(ValueError):
            is_monotone_labels(np.zeros(3))

    def test_is_monotone_true_case(self):
        labels = np.array([[0, 0], [1, 0], [2, 2]])
        assert is_monotone_labels(labels)
