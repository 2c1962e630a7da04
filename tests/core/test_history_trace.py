"""Tests for iterate histories and trace structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import VectorHistory
from repro.core.trace import IterationTrace, TraceStore
from repro.utils.norms import BlockSpec


class TestVectorHistory:
    def test_initial_state(self):
        h = VectorHistory(np.array([1.0, 2.0, 3.0]), BlockSpec.scalar(3))
        assert h.latest_label == 0
        np.testing.assert_array_equal(h.current, [1, 2, 3])
        np.testing.assert_array_equal(h.component_at(1, 0), [2.0])

    def test_commit_and_lookup(self):
        h = VectorHistory(np.zeros(3), BlockSpec.scalar(3))
        h.commit(1, {0: np.array([5.0])})
        h.commit(2, {1: np.array([7.0])})
        # comp 0 at label 1 and 2 is 5; at 0 it's 0
        assert h.component_at(0, 0)[0] == 0.0
        assert h.component_at(0, 1)[0] == 5.0
        assert h.component_at(0, 2)[0] == 5.0
        assert h.component_at(1, 1)[0] == 0.0
        assert h.component_at(1, 2)[0] == 7.0

    def test_assemble_delayed_vector(self):
        h = VectorHistory(np.zeros(2), BlockSpec.scalar(2))
        h.commit(1, {0: np.array([1.0]), 1: np.array([10.0])})
        h.commit(2, {0: np.array([2.0])})
        h.commit(3, {1: np.array([30.0])})
        np.testing.assert_array_equal(h.assemble(np.array([2, 1])), [2.0, 10.0])
        np.testing.assert_array_equal(h.assemble(np.array([0, 3])), [0.0, 30.0])

    def test_value_at_reconstructs_full_iterate(self):
        h = VectorHistory(np.zeros(2), BlockSpec.scalar(2))
        h.commit(1, {0: np.array([1.0])})
        h.commit(2, {1: np.array([2.0])})
        np.testing.assert_array_equal(h.value_at(1), [1.0, 0.0])
        np.testing.assert_array_equal(h.value_at(2), [1.0, 2.0])

    def test_blocks(self):
        spec = BlockSpec((2, 1))
        h = VectorHistory(np.zeros(3), spec)
        h.commit(1, {0: np.array([1.0, 2.0])})
        np.testing.assert_array_equal(h.current, [1, 2, 0])
        np.testing.assert_array_equal(h.component_at(0, 1), [1.0, 2.0])

    def test_labels_strictly_increasing(self):
        h = VectorHistory(np.zeros(2), BlockSpec.scalar(2))
        h.commit(3, {0: np.array([1.0])})
        with pytest.raises(ValueError, match="strictly increasing"):
            h.commit(3, {1: np.array([1.0])})
        with pytest.raises(ValueError, match="strictly increasing"):
            h.commit(2, {1: np.array([1.0])})

    def test_update_shape_validated(self):
        h = VectorHistory(np.zeros(3), BlockSpec((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            h.commit(1, {0: np.array([1.0])})

    def test_negative_label_rejected(self):
        h = VectorHistory(np.zeros(2), BlockSpec.scalar(2))
        with pytest.raises(ValueError):
            h.component_at(0, -1)

    def test_update_count(self):
        h = VectorHistory(np.zeros(2), BlockSpec.scalar(2))
        h.commit(1, {0: np.array([1.0])})
        h.commit(2, {0: np.array([2.0])})
        assert h.update_count(0) == 2
        assert h.update_count(1) == 0

    def test_committed_values_are_copies(self):
        h = VectorHistory(np.zeros(1), BlockSpec.scalar(1))
        v = np.array([5.0])
        h.commit(1, {0: v})
        v[0] = 99.0
        assert h.component_at(0, 1)[0] == 5.0


class TestTraceBuilder:
    """Building an :class:`IterationTrace` by recording into a TraceStore."""

    def test_build_roundtrip(self):
        b = TraceStore(2)
        b.record_initial(error=1.0, residual=2.0)
        b.record((0,), np.array([0, 0]), error=0.5, residual=1.0, time=1.0)
        b.record((1,), np.array([1, 0]), error=0.25, residual=0.5, time=2.0)
        t = b.build()
        assert t.n_iterations == 2
        np.testing.assert_array_equal(t.errors, [1.0, 0.5, 0.25])
        np.testing.assert_array_equal(t.times, [1.0, 2.0])
        assert t.active_sets == ((0,), (1,))

    def test_no_series_when_not_recorded(self):
        b = TraceStore(1)
        b.record((0,), np.array([0]))
        t = b.build()
        assert t.errors is None
        assert t.residuals is None
        assert t.times is None

    def test_empty_active_set_rejected(self):
        b = TraceStore(1)
        with pytest.raises(ValueError):
            b.record((), np.array([0]))

    def test_record_initial_after_record_rejected(self):
        b = TraceStore(1)
        b.record((0,), np.array([0]))
        with pytest.raises(RuntimeError):
            b.record_initial(error=1.0)

    def test_inconsistent_series_rejected(self):
        b = TraceStore(1)
        b.record_initial(error=1.0)
        b.record((0,), np.array([0]))  # no error recorded
        with pytest.raises(RuntimeError, match="series"):
            b.build()


class TestIterationTrace:
    def _trace(self):
        return IterationTrace(
            n_components=2,
            active_sets=((0,), (1,), (0, 1)),
            labels=np.array([[0, 0], [1, 0], [1, 2]]),
            errors=np.array([4.0, 2.0, 1.0, 0.5]),
            times=np.array([1.0, 2.5, 3.0]),
        )

    def test_delays(self):
        t = self._trace()
        np.testing.assert_array_equal(t.delays(), [[0, 0], [0, 1], [1, 0]])

    def test_update_counts(self):
        t = self._trace()
        np.testing.assert_array_equal(t.update_counts(), [2, 2])

    def test_truncated(self):
        t = self._trace().truncated(2)
        assert t.n_iterations == 2
        np.testing.assert_array_equal(t.errors, [4.0, 2.0, 1.0])
        np.testing.assert_array_equal(t.times, [1.0, 2.5])

    def test_truncated_bounds(self):
        with pytest.raises(ValueError):
            self._trace().truncated(4)

    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            IterationTrace(2, ((0,),), np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="errors"):
            IterationTrace(
                1, ((0,),), np.zeros((1, 1), dtype=np.int64), errors=np.array([1.0])
            )

    def test_times_must_be_nondecreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            IterationTrace(
                1,
                ((0,), (0,)),
                np.zeros((2, 1), dtype=np.int64),
                times=np.array([2.0, 1.0]),
            )

    def test_admissibility_wiring(self):
        rep = self._trace().admissibility()
        assert rep.condition_a
