"""Tests for the RNG helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_generator, spawn_generators


class TestAsGenerator:
    def test_int_seed_reproducible(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        g = as_generator(ss)
        assert isinstance(g, np.random.Generator)

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnGenerators:
    def test_children_reproducible(self):
        a = [g.random() for g in spawn_generators(1, 4)]
        b = [g.random() for g in spawn_generators(1, 4)]
        assert a == b

    def test_children_independent(self):
        gens = spawn_generators(0, 3)
        draws = [g.random(100) for g in gens]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_from_generator(self):
        g = np.random.default_rng(9)
        children = spawn_generators(g, 2)
        assert len(children) == 2
        assert children[0].random() != children[1].random()

    def test_spawn_zero(self):
        assert spawn_generators(0, 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_adding_processor_preserves_earlier_streams(self):
        """Child k's stream must not depend on how many siblings exist."""
        three = [g.random() for g in spawn_generators(5, 3)]
        five = [g.random() for g in spawn_generators(5, 5)]
        assert three == five[:3]

