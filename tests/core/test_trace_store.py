"""TraceStore: chunked columnar recording, the trace file, sink injection.

The contract under test is the results layer's foundation: whatever
the chunk boundaries, and across a save/load round-trip, the
materialized :class:`~repro.core.trace.IterationTrace` is bit-identical
to the one the plain in-memory recorder produces — pinned all the way
to ``replay_trace`` re-executing a persisted simulator trace exactly.
The trace file's members and dtypes are pinned too, so files written
by earlier versions keep loading.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.trace import (
    IterationTrace,
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


@pytest.fixture
def chunk_rows(monkeypatch):
    """Set the recorder's rows per chunk for one test: ``chunk_rows(7)``."""

    def _set(rows: int) -> None:
        monkeypatch.setattr(TraceStore, "_CHUNK_ROWS", rows)

    return _set


class TestChunking:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_chunked_equals_monolithic(self, chunk_rows, chunk_size):
        base = _record_run(TraceStore(4)).build()
        chunk_rows(chunk_size)
        chunked = _record_run(TraceStore(4)).build()
        _assert_traces_equal(base, chunked)

    def test_n_iterations_spans_chunks(self, chunk_rows):
        chunk_rows(50)
        store = _record_run(TraceStore(4), J=123)
        assert store.n_iterations == 123


class TestPersistence:
    def test_save_load_roundtrip_bit_identical(self, tmp_path, chunk_rows):
        chunk_rows(64)
        store = _record_run(TraceStore(4))
        store.owners = np.array([0, 0, 1, 1], dtype=np.int64)
        store.meta["problem"] = "synthetic"
        store.meta["seed"] = 7
        trace = store.build()
        loaded = load_trace(save_trace(tmp_path / "trace.npz", trace))
        _assert_traces_equal(trace, loaded)
        assert loaded.meta == {"problem": "synthetic", "seed": 7}

    def test_trace_save_load_convenience(self, tmp_path):
        trace = _record_run(TraceStore(3)).build()
        path = trace.save(tmp_path / "t.npz")
        _assert_traces_equal(trace, IterationTrace.load(path))
        _assert_traces_equal(trace, load_trace(path))

    def test_save_without_series(self, tmp_path):
        store = TraceStore(2)
        store.record((0,), np.array([0, 0]))
        store.record((1,), np.array([1, 0]))
        t = load_trace(save_trace(tmp_path / "bare.npz", store.build()))
        assert t.errors is None and t.residuals is None and t.times is None
        assert t.n_iterations == 2

    def test_future_format_rejected(self, tmp_path):
        path = save_trace(tmp_path / "t.npz", _record_run(TraceStore(2), J=3).build())
        with np.load(path) as z:
            payload = {k: z[k] for k in z.files}
        payload["format_version"] = np.asarray(99, np.int64)
        with open(path, "wb") as f:
            np.savez(f, **payload)
        with pytest.raises(ValueError, match="format"):
            load_trace(path)

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


class TestFileFormat:
    """Format 1 of the trace file, as stores already on disk hold it.

    The expected file is built by hand with ``np.savez_compressed``
    from what the run recorded, not through :func:`save_trace`, so a
    writer or reader that drifts from the format fails here.
    """

    @staticmethod
    def _recorded(series: bool) -> "tuple[TraceStore, dict[str, np.ndarray]]":
        """A recorded run and its format-1 members, built by hand."""
        n, J = 3, 40
        rng = np.random.default_rng(5)
        store = TraceStore(n)
        sets, rows, errors, residuals, times = [], [], [1.0], [2.0], []
        if series:
            store.record_initial(error=1.0, residual=2.0)
        for j in range(1, J + 1):
            S = tuple(int(c) for c in rng.choice(n, size=1 + j % n, replace=False))
            labels = rng.integers(0, j, size=n)
            sets.append(S)
            rows.append(labels)
            errors.append(0.5**j)
            residuals.append(0.7**j)
            times.append(0.25 * j)
            if series:
                store.record(S, labels, error=errors[-1], residual=residuals[-1],
                             time=times[-1])
            else:
                store.record(S, labels)
        members = {
            "format_version": np.asarray(1, np.int64),
            "n_components": np.asarray(n, np.int64),
            "meta_json": np.asarray(json.dumps({"problem": "hand-built", "seed": 5})),
        }
        if series:
            store.owners = np.array([0, 1, 1], dtype=np.int64)
            members["owners"] = store.owners.copy()
        store.meta.update(problem="hand-built", seed=5)
        absent = np.zeros(0, np.float64)
        members.update(
            labels=np.asarray(rows, np.int64),
            act_counts=np.asarray([len(S) for S in sets], np.int64),
            act_values=np.asarray([c for S in sets for c in S], np.int64),
            errors=np.asarray(errors, np.float64) if series else absent,
            residuals=np.asarray(residuals, np.float64) if series else absent,
            times=np.asarray(times, np.float64) if series else absent,
        )
        return store, members

    @pytest.mark.parametrize("series", [True, False], ids=["full", "bare"])
    def test_hand_built_file_loads_bit_identically(self, tmp_path, series):
        store, members = self._recorded(series)
        path = tmp_path / "format1.npz"
        np.savez_compressed(path, **members)
        loaded = load_trace(path)
        _assert_traces_equal(store.build(), loaded)
        assert loaded.meta == {"problem": "hand-built", "seed": 5}

    @pytest.mark.parametrize("series", [True, False], ids=["full", "bare"])
    def test_writer_writes_exactly_format1(self, tmp_path, series):
        store, members = self._recorded(series)
        path = save_trace(tmp_path / "t.npz", store.build())
        with np.load(path, allow_pickle=False) as z:
            assert set(z.files) == set(members)
            for name, want in members.items():
                got = z[name]
                if name == "meta_json":
                    assert got.dtype.kind == "U" and got.shape == ()
                    assert json.loads(str(got)) == json.loads(str(want))
                else:
                    assert got.dtype == want.dtype, name
                    assert np.array_equal(got, want), name


class _CountingStore(TraceStore):
    """A recorder that counts the ``record`` calls it receives."""

    def __init__(self, n_components: int) -> None:
        super().__init__(n_components)
        self.records = 0

    def record(self, *args, **kwargs) -> None:
        self.records += 1
        super().record(*args, **kwargs)


def _backend_request(kind: str, n: int = 8, **options):
    """A 200-iteration request on a jacobi n=8 system for one backend kind."""
    from repro.delays.bounded import UniformRandomDelay
    from repro.operators.linear import jacobi_operator
    from repro.problems.linear_system import tridiagonal_system
    from repro.runtime.backends import ExecutionRequest
    from repro.runtime.simulator import ChannelSpec, ConstantTime, ProcessorSpec, UniformTime
    from repro.steering.policies import CyclicSingle

    M, c = tridiagonal_system(n, off_diag=-1.0, diag=2.5, seed=9)
    op = jacobi_operator(M, c)
    request = ExecutionRequest(
        operator=op, x0=np.zeros(op.dim), max_iterations=200, tol=0.0, seed=7,
        options=options,
    )
    if kind == "model":
        request.steering = CyclicSingle(n)
        request.delays = UniformRandomDelay(n, bound=3, seed=5)
    else:
        request.processors = [
            ProcessorSpec(components=(i,), compute_time=UniformTime(0.5, 1.5))
            for i in range(n)
        ]
        request.channels = ChannelSpec(latency=ConstantTime(0.05))
    return request


class TestSinkInjection:
    def test_engine_records_into_spilling_sink(self, chunk_rows):
        """The exact engine emits into an injected store; results agree.

        The injected store crosses chunk boundaries, as a long run's
        recorder does.
        """
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
        chunk_rows(16)
        sink = TraceStore(8)
        sunk = engine().run(np.zeros(op.dim), max_iterations=150, tol=0.0, sink=sink)
        assert np.array_equal(plain.x, sunk.x)
        _assert_traces_equal(plain.trace, sunk.trace)
        assert sink.n_iterations == 150

    def test_sink_component_mismatch_rejected(self):
        from repro.core.trace import resolve_sink

        with pytest.raises(ValueError, match="components"):
            resolve_sink(TraceStore(3), 5)

    @pytest.mark.parametrize(
        "name", ["exact", "flexible", "vectorized", "reference", "shared-memory"]
    )
    def test_trace_sink_option_reaches_every_backend(self, name):
        """``options["trace_sink"]`` gets one ``record`` per commit.

        On the deterministic backends the run is the one a request
        without a sink makes; real threads do not repeat a run.
        """
        from repro.runtime.backends import get_backend

        backend = get_backend(name)
        sink = _CountingStore(8)
        res = backend.execute(_backend_request(backend.kind, trace_sink=sink))
        assert res.trace is not None
        assert sink.records == res.iterations == res.trace.n_iterations > 0
        if name != "shared-memory":
            plain = backend.execute(_backend_request(backend.kind))
            assert np.array_equal(plain.x, res.x)
            _assert_traces_equal(plain.trace, res.trace)


class TestBackendTraceOptions:
    def test_trace_path_option_writes_and_drops(self, tmp_path):
        """options[trace_path] saves the trace the backend returns."""
        from repro.runtime.backends import get_backend

        backend = get_backend("exact")
        baseline = backend.execute(_backend_request("model", n=6))
        assert baseline.trace is not None

        path = tmp_path / "run.npz"
        saved = backend.execute(_backend_request("model", n=6, trace_path=path))
        assert path.is_file()
        _assert_traces_equal(baseline.trace, saved.trace)
        _assert_traces_equal(saved.trace, load_trace(path))
        assert np.array_equal(baseline.x, saved.x)


class TestBuilderCompat:
    """TraceStore keeps the historical builder error behavior."""

    def test_record_initial_after_flush_rejected(self, chunk_rows):
        chunk_rows(1)
        store = TraceStore(1)
        store.record((0,), np.array([0]))  # fills and freezes chunk 0
        with pytest.raises(RuntimeError):
            store.record_initial(error=1.0)

    def test_inconsistent_series_rejected_across_chunks(self, chunk_rows):
        chunk_rows(2)
        store = TraceStore(1)
        store.record_initial(error=1.0)
        store.record((0,), np.array([0]), error=0.5)
        store.record((0,), np.array([1]), error=0.25)
        store.record((0,), np.array([2]))  # missing error, later chunk
        with pytest.raises(RuntimeError, match="series"):
            store.build()
