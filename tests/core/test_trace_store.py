"""TraceStore: chunked columnar recording, spill mode, persistence.

The contract under test is the streaming results layer's foundation:
whatever the chunk size, spill mode, or a save/load round-trip, the
materialized :class:`~repro.core.trace.IterationTrace` is bit-identical
to the one the plain in-memory builder produces — pinned all the way to
``replay_trace`` re-executing a persisted simulator trace exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.trace import (
    IterationTrace,
    TraceHandle,
    TraceStore,
    load_trace,
    save_trace,
)


def _record_run(store: TraceStore, J: int = 300, seed: int = 0) -> TraceStore:
    """Deterministic synthetic run with all series populated."""
    n = store.n_components
    rng = np.random.default_rng(seed)
    store.record_initial(error=1.0, residual=2.0)
    labels = np.zeros(n, dtype=np.int64)
    t = 0.0
    for j in range(1, J + 1):
        k = 1 + int(rng.integers(0, n))
        S = tuple(int(c) for c in rng.choice(n, size=k, replace=False))
        labels = np.minimum(j - 1, labels + rng.integers(0, 2, size=n))
        t += float(rng.random())
        store.record(S, labels, error=1.0 / j, residual=2.0 / j, time=t)
    return store


def _assert_traces_equal(a: IterationTrace, b: IterationTrace) -> None:
    assert a.n_components == b.n_components
    assert a.active_sets == b.active_sets
    assert np.array_equal(a.labels, b.labels)
    for name in ("errors", "residuals", "times"):
        xa, xb = getattr(a, name), getattr(b, name)
        assert (xa is None) == (xb is None), name
        if xa is not None:
            assert np.array_equal(xa, xb), name
    assert (a.owners is None) == (b.owners is None)
    if a.owners is not None:
        assert np.array_equal(a.owners, b.owners)


class TestChunking:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_chunked_equals_monolithic(self, chunk_size):
        base = _record_run(TraceStore(4)).build()
        chunked = _record_run(TraceStore(4, chunk_size=chunk_size)).build()
        _assert_traces_equal(base, chunked)

    def test_spill_equals_in_memory(self, tmp_path):
        base = _record_run(TraceStore(4)).build()
        store = _record_run(TraceStore(4, chunk_size=32, spill_dir=tmp_path / "sp"))
        assert store.spilled_chunks == 300 // 32
        assert len(list((tmp_path / "sp").glob("chunk_*.npz"))) == store.spilled_chunks
        _assert_traces_equal(base, store.build())

    def test_n_iterations_spans_chunks(self):
        store = _record_run(TraceStore(4, chunk_size=50), J=123)
        assert store.n_iterations == 123

    def test_series_column_access(self):
        store = _record_run(TraceStore(4, chunk_size=32))
        trace = store.build()
        assert np.array_equal(store.series("residuals"), trace.residuals)
        assert np.array_equal(store.series("times"), trace.times)
        assert TraceStore(2).series("errors") is None
        with pytest.raises(KeyError):
            store.series("labels")

    def test_spill_recording_and_save_memory_stays_bounded(self, tmp_path):
        """Recording AND saving through a spilling store is O(chunk), not O(J)."""
        n, J, chunk = 16, 20_000, 256
        tracemalloc.start()
        store = TraceStore(n, chunk_size=chunk, spill_dir=tmp_path / "sp")
        labels = np.zeros(n, dtype=np.int64)
        t = 0.0
        for j in range(1, J + 1):
            labels[:] = j - 1
            t += 0.5
            store.record((j % n,), labels, residual=1.0 / j, time=t)
        path = store.save(tmp_path / "big.npz")  # streams chunk by chunk
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Full columns would be > n*J*8 = 2.5 MB for labels alone; the
        # live working set is a couple of chunks, save() included.
        assert peak < 1_000_000, f"peak recording+save memory {peak} bytes"
        assert store.n_iterations == J
        assert store.spilled_chunks == J // chunk
        loaded = TraceStore.load(path)
        assert loaded.n_iterations == J
        assert np.array_equal(loaded.series("residuals"), store.series("residuals"))


class TestPersistence:
    def test_save_load_roundtrip_bit_identical(self, tmp_path):
        store = _record_run(TraceStore(4, chunk_size=64))
        store.owners = np.array([0, 0, 1, 1], dtype=np.int64)
        store.meta["problem"] = "synthetic"
        store.meta["seed"] = 7
        path = store.save(tmp_path / "trace.npz")
        loaded = TraceStore.load(path)
        _assert_traces_equal(store.build(), loaded.build())
        assert loaded.meta == {"problem": "synthetic", "seed": 7}

    def test_trace_save_load_convenience(self, tmp_path):
        trace = _record_run(TraceStore(3)).build()
        path = trace.save(tmp_path / "t.npz")
        _assert_traces_equal(trace, IterationTrace.load(path))
        _assert_traces_equal(trace, load_trace(path))

    def test_from_trace_roundtrip(self, tmp_path):
        trace = _record_run(TraceStore(5, chunk_size=10)).build()
        again = TraceStore.from_trace(trace).build()
        _assert_traces_equal(trace, again)
        path = save_trace(tmp_path / "t.npz", trace)
        _assert_traces_equal(trace, load_trace(path))

    def test_save_without_series(self, tmp_path):
        store = TraceStore(2)
        store.record((0,), np.array([0, 0]))
        store.record((1,), np.array([1, 0]))
        loaded = TraceStore.load(store.save(tmp_path / "bare.npz"))
        t = loaded.build()
        assert t.errors is None and t.residuals is None and t.times is None
        assert t.n_iterations == 2

    def test_future_format_rejected(self, tmp_path):
        store = _record_run(TraceStore(2), J=3)
        path = store.save(tmp_path / "t.npz")
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        payload["format_version"] = np.asarray(99, np.int64)
        with open(path, "wb") as f:
            np.savez(f, **payload)
        with pytest.raises(ValueError, match="format"):
            TraceStore.load(path)

    def test_saved_trace_replays_bit_identically(self, tmp_path):
        """Acceptance: save -> load -> replay_trace on the exact engine.

        One component per processor, single inner step: the machine's
        update semantics coincide with Definition 1, so the persisted
        trace must drive the exact engine to the simulator's iterates
        bit-for-bit.
        """
        from repro.operators.linear import jacobi_operator
        from repro.problems.linear_system import tridiagonal_system
        from repro.runtime.backends import replay_trace
        from repro.runtime.simulator import (
            ChannelSpec,
            ConstantTime,
            DistributedSimulator,
            ProcessorSpec,
            UniformTime,
        )

        n = 10
        M, c = tridiagonal_system(n, off_diag=-1.0, diag=2.3, seed=5)
        op = jacobi_operator(M, c)
        procs = [
            ProcessorSpec(components=(i,), compute_time=UniformTime(0.8, 1.2))
            for i in range(n)
        ]
        sim = DistributedSimulator(
            op, procs, channels=ChannelSpec(latency=ConstantTime(0.05)), seed=11
        )
        res = sim.run(np.zeros(op.dim), max_iterations=200, tol=0.0, residual_every=5,
                      record_messages=False)
        path = save_trace(tmp_path / "sim.npz", res.trace)
        restored = load_trace(path)
        _assert_traces_equal(res.trace, restored)

        rep = replay_trace(op, restored, np.zeros(op.dim))
        assert np.array_equal(rep.x, res.x)
        assert np.array_equal(rep.trace.labels, res.trace.labels)
        assert rep.trace.active_sets == res.trace.active_sets


class TestSinkInjection:
    def test_engine_records_into_spilling_sink(self, tmp_path):
        """The exact engine emits into an injected store; results agree."""
        from repro.core.async_iteration import AsyncIterationEngine
        from repro.delays.bounded import UniformRandomDelay
        from repro.operators.linear import jacobi_operator
        from repro.problems.linear_system import tridiagonal_system
        from repro.steering.policies import BlockCyclic

        M, c = tridiagonal_system(8, off_diag=-1.0, diag=2.5, seed=3)
        op = jacobi_operator(M, c)

        def engine():
            return AsyncIterationEngine(
                op,
                BlockCyclic(8, group_size=2),
                UniformRandomDelay(8, bound=2, seed=4),
            )

        plain = engine().run(np.zeros(op.dim), max_iterations=150, tol=0.0)
        sink = TraceStore(8, chunk_size=16, spill_dir=tmp_path / "sp")
        sunk = engine().run(np.zeros(op.dim), max_iterations=150, tol=0.0, sink=sink)
        assert np.array_equal(plain.x, sunk.x)
        _assert_traces_equal(plain.trace, sunk.trace)
        assert sink.spilled_chunks > 0

    def test_sink_component_mismatch_rejected(self):
        from repro.core.trace import resolve_sink

        with pytest.raises(ValueError, match="components"):
            resolve_sink(TraceStore(3), 5)


class TestTraceHandle:
    def test_in_memory_handle(self):
        trace = _record_run(TraceStore(2), J=5).build()
        h = TraceHandle(trace=trace)
        assert h.in_memory
        assert h.materialize() is trace

    def test_disk_handle_lazy_load(self, tmp_path):
        trace = _record_run(TraceStore(2), J=5).build()
        path = save_trace(tmp_path / "t.npz", trace)
        h = TraceHandle(path=path)
        assert not h.in_memory
        _assert_traces_equal(h.materialize(), trace)
        assert h.in_memory  # cached
        assert h.materialize() is h.materialize()

    def test_empty_handle_rejected(self):
        with pytest.raises(ValueError):
            TraceHandle()


class TestBackendTraceOptions:
    def test_trace_path_option_writes_and_drops(self, tmp_path):
        """options[trace_path] + materialize_trace=False leaves only disk."""
        from repro.delays.bounded import UniformRandomDelay
        from repro.operators.linear import jacobi_operator
        from repro.problems.linear_system import tridiagonal_system
        from repro.runtime.backends import ExecutionRequest, get_backend
        from repro.steering.policies import CyclicSingle

        M, c = tridiagonal_system(6, off_diag=-1.0, diag=2.5, seed=9)
        op = jacobi_operator(M, c)

        def request(**options):
            return ExecutionRequest(
                operator=op,
                x0=np.zeros(op.dim),
                max_iterations=80,
                tol=0.0,
                steering=CyclicSingle(6),
                delays=UniformRandomDelay(6, bound=1, seed=2),
                options=options,
            )

        backend = get_backend("exact")
        baseline = backend.execute(request())
        assert baseline.trace_handle is not None and baseline.trace_handle.in_memory

        path = tmp_path / "run.npz"
        dropped = backend.execute(
            request(trace_path=path, materialize_trace=False,
                    trace_spill_dir=tmp_path / "sp", trace_chunk_size=16)
        )
        assert dropped.trace is None
        assert dropped.trace_handle is not None and not dropped.trace_handle.in_memory
        _assert_traces_equal(baseline.trace, dropped.trace_handle.materialize())
        assert np.array_equal(baseline.x, dropped.x)


class TestBuilderCompat:
    """TraceStore keeps the historical builder error behavior."""

    def test_record_initial_after_flush_rejected(self):
        store = TraceStore(1, chunk_size=1)
        store.record((0,), np.array([0]))  # fills and flushes chunk 0
        with pytest.raises(RuntimeError):
            store.record_initial(error=1.0)

    def test_inconsistent_series_rejected_across_chunks(self):
        store = TraceStore(1, chunk_size=2)
        store.record_initial(error=1.0)
        store.record((0,), np.array([0]), error=0.5)
        store.record((0,), np.array([1]), error=0.25)
        store.record((0,), np.array([2]))  # missing error, later chunk
        with pytest.raises(RuntimeError, match="series"):
            store.build()
