"""Realized ``(S, L)`` traces of asynchronous runs.

An :class:`IterationTrace` is the common currency between the pure-math
engines (:mod:`repro.core.async_iteration`), the hardware simulator
(:mod:`repro.runtime.simulator`) and the analysis layer: whatever
produced the run, the trace records which components were updated at
each global iteration (``S_j``), with which labels (``l_i(j)``), at
what simulated time, and optional residual/error series — everything
Definition 2 (macro-iterations), the epoch sequence of [30] and the
Theorem 1 certificate need.

:class:`TraceStore` is the streaming side of the same object: a
chunked *columnar* recorder (labels matrix, flat active-set values +
per-iteration counts, series columns) that every engine emits into,
one iteration at a time.  Chunks are frozen once full — optionally
spilled to disk, so trace length no longer bounds sweep size by RAM —
and the whole store round-trips through a single ``.npz`` file via
:meth:`TraceStore.save` / :meth:`TraceStore.load`.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import zipfile
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.delays.admissibility import AdmissibilityReport, check_admissibility
from repro.utils.serialization import json_safe

__all__ = [
    "IterationTrace",
    "TraceHandle",
    "TraceStore",
    "resolve_sink",
    "load_trace",
    "save_trace",
]


@dataclass(frozen=True)
class IterationTrace:
    """Immutable record of a completed asynchronous run.

    Attributes
    ----------
    n_components:
        Number ``n`` of components of the iterate vector.
    active_sets:
        ``active_sets[j-1] = S_j`` for ``j = 1..J``.
    labels:
        Array ``(J, n)``; ``labels[j-1, i] = l_i(j)``.
    errors:
        Optional ``(J + 1,)`` series ``||x(j) - x*||_u`` including the
        initial point at index 0 (``None`` when ``x*`` is unknown).
    residuals:
        Optional ``(J + 1,)`` fixed-point residual series.
    times:
        Optional ``(J,)`` simulated completion times of each phase.
    owners:
        Optional ``(n,)`` map component -> machine (for epoch analysis).
    meta:
        Free-form provenance (problem name, seeds, parameters, ...).
    """

    n_components: int
    active_sets: tuple[tuple[int, ...], ...]
    labels: np.ndarray
    errors: np.ndarray | None = None
    residuals: np.ndarray | None = None
    times: np.ndarray | None = None
    owners: np.ndarray | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=np.int64)
        J = labels.shape[0]
        if labels.ndim != 2 or labels.shape[1] != self.n_components:
            raise ValueError(
                f"labels must have shape (J, {self.n_components}), got {labels.shape}"
            )
        if len(self.active_sets) != J:
            raise ValueError(
                f"got {len(self.active_sets)} active sets for {J} label rows"
            )
        object.__setattr__(self, "labels", labels)
        for name in ("errors", "residuals"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != (J + 1,):
                    raise ValueError(f"{name} must have shape ({J + 1},), got {arr.shape}")
                object.__setattr__(self, name, arr)
        if self.times is not None:
            t = np.asarray(self.times, dtype=np.float64)
            if t.shape != (J,):
                raise ValueError(f"times must have shape ({J},), got {t.shape}")
            if J > 1 and np.any(np.diff(t) < -1e-12):
                raise ValueError("times must be nondecreasing")
            object.__setattr__(self, "times", t)
        if self.owners is not None:
            o = np.asarray(self.owners, dtype=np.int64)
            if o.shape != (self.n_components,):
                raise ValueError(
                    f"owners must have shape ({self.n_components},), got {o.shape}"
                )
            object.__setattr__(self, "owners", o)

    # -- derived quantities -------------------------------------------
    @property
    def n_iterations(self) -> int:
        """Number of global iterations ``J``."""
        return self.labels.shape[0]

    def delays(self) -> np.ndarray:
        """Realized delays ``d_i(j) = j - 1 - l_i(j)``, shape ``(J, n)``."""
        J = self.n_iterations
        iters = np.arange(1, J + 1)[:, None]
        return (iters - 1) - self.labels

    def update_counts(self) -> np.ndarray:
        """Number of updates per component over the whole run."""
        counts = np.zeros(self.n_components, dtype=np.int64)
        for S in self.active_sets:
            for i in S:
                counts[i] += 1
        return counts

    def admissibility(self) -> AdmissibilityReport:
        """Finite-horizon check of Definition 1's conditions (a)-(c)."""
        return check_admissibility(list(self.active_sets), self.labels, self.n_components)

    def truncated(self, J: int) -> "IterationTrace":
        """The first ``J`` iterations as a new trace (series included)."""
        if not 0 <= J <= self.n_iterations:
            raise ValueError(f"J must lie in [0, {self.n_iterations}], got {J}")
        return IterationTrace(
            n_components=self.n_components,
            active_sets=self.active_sets[:J],
            labels=self.labels[:J],
            errors=None if self.errors is None else self.errors[: J + 1],
            residuals=None if self.residuals is None else self.residuals[: J + 1],
            times=None if self.times is None else self.times[:J],
            owners=self.owners,
            meta=dict(self.meta),
        )

    # -- persistence ---------------------------------------------------
    def save(self, path: "str | os.PathLike[str]") -> pathlib.Path:
        """Persist this trace as a single ``.npz`` (see :func:`save_trace`)."""
        return save_trace(path, self)

    @staticmethod
    def load(path: "str | os.PathLike[str]") -> "IterationTrace":
        """Load a trace persisted by :meth:`save` (see :func:`load_trace`)."""
        return load_trace(path)


class TraceStore:
    """Chunked columnar recorder and persistent form of a realized trace.

    Engines call :meth:`record` once per global iteration and
    :meth:`build` at the end; series that were never supplied stay
    ``None`` in the built trace.  This is the *sink interface* of the
    results layer: any object with ``record_initial``/``record``/
    ``build`` (plus ``meta`` and ``owners`` attributes) can be handed
    to an engine's ``sink=`` parameter, and this class is the canonical
    implementation.

    Storage is columnar and chunked: labels rows, flat active-set
    values with per-iteration counts, and the numeric series live in
    per-chunk arrays that double up to ``chunk_size`` rows, so
    recording an iteration is a row assignment (the hot path of the
    simulator runs through here once per completed phase).  Full
    chunks are frozen — kept as plain arrays in memory, or written to
    ``spill_dir`` as ``chunk_NNNNNN.npz`` files so an arbitrarily long
    trace occupies O(chunk) RAM while recording.

    :meth:`save` writes the whole store (all chunks, owners, JSON-safe
    meta) into one ``.npz``; :meth:`load` restores it bit-identically,
    and :func:`load_trace` shortcuts straight to the
    :class:`IterationTrace` view.
    """

    _INITIAL_CAPACITY = 64
    DEFAULT_CHUNK_SIZE = 4096
    _FORMAT_VERSION = 1

    def __init__(
        self,
        n_components: int,
        owners: np.ndarray | None = None,
        *,
        chunk_size: int | None = None,
        spill_dir: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        chunk = self.DEFAULT_CHUNK_SIZE if chunk_size is None else int(chunk_size)
        if chunk < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk}")
        self.n_components = int(n_components)
        self.owners = owners
        self.meta: dict[str, Any] = {}
        self.chunk_size = chunk
        self._spill_dir: pathlib.Path | None = None
        self._spill_paths: list[pathlib.Path] = []
        self._frozen: list[dict[str, np.ndarray]] = []
        if spill_dir is not None:
            self._spill_dir = pathlib.Path(spill_dir)
            self._spill_dir.mkdir(parents=True, exist_ok=True)
        self._flushed_rows = 0
        self._flushed_act = 0
        self._flushed_err = 0
        self._flushed_res = 0
        self._flushed_time = 0
        self._reset_chunk()

    # -- recording (the sink interface) --------------------------------
    def _reset_chunk(self) -> None:
        cap = min(self._INITIAL_CAPACITY, self.chunk_size)
        n = self.n_components
        self._labels = np.zeros((cap, n), dtype=np.int64)
        self._act_counts = np.zeros(cap, dtype=np.int64)
        self._act_values = np.zeros(cap, dtype=np.int64)
        self._errors = np.zeros(cap + 1, dtype=np.float64)
        self._residuals = np.zeros(cap + 1, dtype=np.float64)
        self._times = np.zeros(cap, dtype=np.float64)
        self._rows = 0
        self._n_act = 0
        self._n_err = 0
        self._n_res = 0
        self._n_time = 0

    def _grow(self) -> None:
        cap = min(2 * self._labels.shape[0], self.chunk_size)
        grow = cap - self._labels.shape[0]
        self._labels = np.concatenate([self._labels, np.zeros((grow, self.n_components), np.int64)])
        self._act_counts = np.concatenate([self._act_counts, np.zeros(grow, np.int64)])
        self._errors = np.concatenate([self._errors, np.zeros(cap + 1 - self._errors.size)])
        self._residuals = np.concatenate(
            [self._residuals, np.zeros(cap + 1 - self._residuals.size)]
        )
        self._times = np.concatenate([self._times, np.zeros(cap - self._times.size)])

    def record_initial(self, error: float | None = None, residual: float | None = None) -> None:
        """Record the label-0 (initial point) series values."""
        if self._rows or self._flushed_rows:
            raise RuntimeError("record_initial must be called before any record()")
        if error is not None:
            self._errors[self._n_err] = float(error)
            self._n_err += 1
        if residual is not None:
            self._residuals[self._n_res] = float(residual)
            self._n_res += 1

    def record(
        self,
        active_set: tuple[int, ...],
        labels: np.ndarray,
        *,
        error: float | None = None,
        residual: float | None = None,
        time: float | None = None,
    ) -> None:
        """Append one global iteration to the store."""
        m = len(active_set)
        if m == 0:
            raise ValueError("active_set must be nonempty (Definition 1)")
        if self._rows >= self._labels.shape[0]:
            self._grow()
        r = self._rows
        self._labels[r, :] = labels
        while self._n_act + m > self._act_values.size:
            self._act_values = np.concatenate(
                [self._act_values, np.zeros(self._act_values.size, np.int64)]
            )
        self._act_values[self._n_act : self._n_act + m] = active_set
        self._n_act += m
        self._act_counts[r] = m
        if error is not None:
            self._errors[self._n_err] = float(error)
            self._n_err += 1
        if residual is not None:
            self._residuals[self._n_res] = float(residual)
            self._n_res += 1
        if time is not None:
            self._times[self._n_time] = float(time)
            self._n_time += 1
        self._rows += 1
        if self._rows >= self.chunk_size:
            self._flush()

    def _flush(self) -> None:
        if self._rows == 0:
            return
        chunk = {
            "labels": self._labels[: self._rows].copy(),
            "act_counts": self._act_counts[: self._rows].copy(),
            "act_values": self._act_values[: self._n_act].copy(),
            "errors": self._errors[: self._n_err].copy(),
            "residuals": self._residuals[: self._n_res].copy(),
            "times": self._times[: self._n_time].copy(),
        }
        if self._spill_dir is not None:
            path = self._spill_dir / f"chunk_{len(self._spill_paths):06d}.npz"
            with open(path, "wb") as f:
                np.savez(f, **chunk)
            self._spill_paths.append(path)
        else:
            self._frozen.append(chunk)
        self._flushed_rows += self._rows
        self._flushed_act += self._n_act
        self._flushed_err += self._n_err
        self._flushed_res += self._n_res
        self._flushed_time += self._n_time
        self._reset_chunk()

    # -- inspection -----------------------------------------------------
    @property
    def n_iterations(self) -> int:
        """Global iterations recorded so far."""
        return self._flushed_rows + self._rows

    @property
    def spilled_chunks(self) -> int:
        """Number of chunk files written to ``spill_dir``."""
        return len(self._spill_paths)

    def _current_chunk(self) -> dict[str, np.ndarray]:
        return {
            "labels": self._labels[: self._rows],
            "act_counts": self._act_counts[: self._rows],
            "act_values": self._act_values[: self._n_act],
            "errors": self._errors[: self._n_err],
            "residuals": self._residuals[: self._n_res],
            "times": self._times[: self._n_time],
        }

    def iter_chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Yield the frozen chunks then the live tail, as column dicts.

        Each dict carries ``labels`` (rows, n), ``act_counts`` (rows,),
        flat ``act_values``, and the ``errors``/``residuals``/``times``
        entries recorded within the chunk.  Spilled chunks are loaded
        one at a time, so incremental consumers (streaming metrics)
        never hold the whole trace.
        """
        for path in self._spill_paths:
            with np.load(path) as z:
                yield {k: z[k] for k in z.files}
        yield from self._frozen
        if self._rows or self._n_err or self._n_res:
            yield self._current_chunk()

    def _iter_column(self, name: str) -> Iterator[np.ndarray]:
        """One column across all chunks, loading only that npz member.

        ``np.load`` is lazy per member, so a spilled chunk file only
        decompresses the requested column — the per-column passes of
        :meth:`save` cost one member read each instead of inflating
        all six columns of every chunk six times.
        """
        for path in self._spill_paths:
            with np.load(path) as z:
                yield z[name]
        for chunk in self._frozen:
            yield chunk[name]
        yield self._current_chunk()[name]

    def iter_series(self, name: str) -> Iterator[np.ndarray]:
        """Yield one series column (``errors``/``residuals``/``times``) chunk by chunk."""
        if name not in ("errors", "residuals", "times"):
            raise KeyError(f"unknown series {name!r}")
        for arr in self._iter_column(name):
            if arr.size:
                yield arr

    def series(self, name: str) -> np.ndarray | None:
        """One full series column, or ``None`` when never recorded."""
        parts = list(self.iter_series(name))
        if not parts:
            return None
        return np.concatenate(parts)

    def _columns(self) -> dict[str, np.ndarray]:
        chunks = list(self.iter_chunks())
        n = self.n_components
        if not chunks:
            return {
                "labels": np.zeros((0, n), np.int64),
                "act_counts": np.zeros(0, np.int64),
                "act_values": np.zeros(0, np.int64),
                "errors": np.zeros(0),
                "residuals": np.zeros(0),
                "times": np.zeros(0),
            }
        return {
            key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]
        }

    # -- materialization ------------------------------------------------
    def build(self) -> IterationTrace:
        """Finalize into an immutable :class:`IterationTrace`."""
        cols = self._columns()
        J = cols["labels"].shape[0]

        def _series(arr: np.ndarray, name: str) -> np.ndarray | None:
            count = arr.size
            if count == 0:
                return None
            if count != J + 1:
                raise RuntimeError(
                    f"series has {count} entries, expected {J + 1} "
                    "(record_initial + one per iteration)"
                )
            return arr

        times = cols["times"] if cols["times"].size == J and J > 0 else None
        offsets = np.concatenate([[0], np.cumsum(cols["act_counts"])])
        # .tolist() converts to Python ints at C speed; the per-row
        # tuple() is the only remaining Python-level loop.
        values = cols["act_values"].tolist()
        active_sets = tuple(
            tuple(values[offsets[r] : offsets[r + 1]]) for r in range(J)
        )
        return IterationTrace(
            n_components=self.n_components,
            active_sets=active_sets,
            labels=cols["labels"],
            errors=_series(cols["errors"], "errors"),
            residuals=_series(cols["residuals"], "residuals"),
            times=times,
            owners=self.owners,
            meta=dict(self.meta),
        )

    # -- persistence ----------------------------------------------------
    def _column_totals(self) -> dict[str, int]:
        return {
            "labels": self._flushed_rows + self._rows,
            "act_counts": self._flushed_rows + self._rows,
            "act_values": self._flushed_act + self._n_act,
            "errors": self._flushed_err + self._n_err,
            "residuals": self._flushed_res + self._n_res,
            "times": self._flushed_time + self._n_time,
        }

    @staticmethod
    def _stream_npy(
        zf: zipfile.ZipFile,
        name: str,
        dtype: np.dtype,
        shape: tuple[int, ...],
        chunks: Iterator[np.ndarray],
    ) -> None:
        """Write one ``.npy`` zip member from chunk arrays, never whole.

        Chunks concatenate along axis 0, so their C-order bytes simply
        append after a hand-written npy header with the final shape —
        this is what keeps :meth:`save` at O(chunk) memory for spilled
        stores instead of concatenating every chunk first.
        """
        header = {
            "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
            "fortran_order": False,
            "shape": shape,
        }
        with zf.open(f"{name}.npy", mode="w") as member:
            np.lib.format.write_array_header_1_0(member, header)
            for chunk in chunks:
                member.write(np.ascontiguousarray(chunk, dtype=dtype).tobytes())

    def save(self, path: "str | os.PathLike[str]") -> pathlib.Path:
        """Write the whole store into one ``.npz`` file (atomic replace).

        The file holds the raw columns, so ``load(path).build()``
        reproduces the trace bit-identically (int64 labels/active
        values, float64 series).  Columns stream into the archive chunk
        by chunk — spilled chunks are re-read one at a time and never
        concatenated, so saving keeps the recording-time O(chunk)
        memory bound.  The spill directory is not touched.
        """
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        totals = self._column_totals()
        small: dict[str, np.ndarray] = {
            "format_version": np.asarray(self._FORMAT_VERSION, np.int64),
            "n_components": np.asarray(self.n_components, np.int64),
            "meta_json": np.asarray(json.dumps(json_safe(self.meta))),
        }
        if self.owners is not None:
            small["owners"] = np.asarray(self.owners, np.int64)
        tmp = path.with_name(path.name + ".tmp")
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_DEFLATED) as zf:
            for name, arr in small.items():
                buf = io.BytesIO()
                np.save(buf, arr)
                zf.writestr(f"{name}.npy", buf.getvalue())
            self._stream_npy(
                zf, "labels", np.int64, (totals["labels"], self.n_components),
                self._iter_column("labels"),
            )
            for name, dtype in (
                ("act_counts", np.int64),
                ("act_values", np.int64),
                ("errors", np.float64),
                ("residuals", np.float64),
                ("times", np.float64),
            ):
                self._stream_npy(
                    zf, name, dtype, (totals[name],), self._iter_column(name)
                )
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "TraceStore":
        """Restore a store persisted by :meth:`save` (fully in memory)."""
        with np.load(path, allow_pickle=False) as z:
            version = int(z["format_version"])
            if version > cls._FORMAT_VERSION:
                raise ValueError(
                    f"trace file {path} has format v{version}; "
                    f"this build reads up to v{cls._FORMAT_VERSION}"
                )
            store = cls(int(z["n_components"]))
            chunk = {
                key: np.asarray(z[key])
                for key in ("labels", "act_counts", "act_values", "errors", "residuals", "times")
            }
            if "owners" in z.files:
                store.owners = np.asarray(z["owners"], np.int64)
            store.meta = json.loads(str(z["meta_json"]))
        store._frozen.append(chunk)
        store._flushed_rows = int(chunk["labels"].shape[0])
        store._flushed_act = int(chunk["act_values"].size)
        store._flushed_err = int(chunk["errors"].size)
        store._flushed_res = int(chunk["residuals"].size)
        store._flushed_time = int(chunk["times"].size)
        return store

    @classmethod
    def from_trace(cls, trace: IterationTrace, **kwargs: Any) -> "TraceStore":
        """Wrap a materialized :class:`IterationTrace` back into a store."""
        store = cls(trace.n_components, owners=trace.owners, **kwargs)
        store.meta = dict(trace.meta)
        J = trace.n_iterations
        counts = np.asarray([len(S) for S in trace.active_sets], np.int64)
        flat = (
            np.asarray([c for S in trace.active_sets for c in S], np.int64)
            if J
            else np.zeros(0, np.int64)
        )
        chunk = {
            "labels": np.asarray(trace.labels, np.int64),
            "act_counts": counts,
            "act_values": flat,
            "errors": np.zeros(0) if trace.errors is None else np.asarray(trace.errors),
            "residuals": np.zeros(0) if trace.residuals is None else np.asarray(trace.residuals),
            "times": np.zeros(0) if trace.times is None else np.asarray(trace.times),
        }
        store._frozen.append(chunk)
        store._flushed_rows = J
        store._flushed_act = int(chunk["act_values"].size)
        store._flushed_err = int(chunk["errors"].size)
        store._flushed_res = int(chunk["residuals"].size)
        store._flushed_time = int(chunk["times"].size)
        return store


def resolve_sink(
    sink: TraceStore | None, n_components: int, owners: np.ndarray | None = None
) -> TraceStore:
    """The store an engine should record into.

    ``None`` means the engine owns its trace and gets a fresh in-memory
    store; an injected sink (e.g. a spilling :class:`TraceStore`) is
    validated against the engine's component count and gains the
    engine's ``owners`` map when it has none of its own.
    """
    if sink is None:
        return TraceStore(n_components, owners=owners)
    if sink.n_components != n_components:
        raise ValueError(
            f"sink has {sink.n_components} components, engine has {n_components}"
        )
    if owners is not None and sink.owners is None:
        sink.owners = owners
    return sink


def save_trace(path: "str | os.PathLike[str]", trace: IterationTrace) -> pathlib.Path:
    """Persist a materialized trace as a :class:`TraceStore` ``.npz``."""
    return TraceStore.from_trace(trace).save(path)


def load_trace(path: "str | os.PathLike[str]") -> IterationTrace:
    """Materialize the :class:`IterationTrace` stored in a ``.npz`` file."""
    return TraceStore.load(path).build()


class TraceHandle:
    """A materializable reference to a realized trace.

    The streaming results layer moves traces out of result objects:
    a handle names a trace that may live in memory, on disk, or both,
    and :meth:`materialize` produces the :class:`IterationTrace` view
    on demand (cached).  Handles are cheap to carry through fleet
    results and sweep stores — the arrays only load when analysis asks.
    """

    __slots__ = ("path", "_trace")

    def __init__(
        self,
        trace: IterationTrace | None = None,
        path: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if trace is None and path is None:
            raise ValueError("TraceHandle needs a trace, a path, or both")
        self.path = None if path is None else pathlib.Path(path)
        self._trace = trace

    @property
    def in_memory(self) -> bool:
        """Whether :meth:`materialize` is free (trace already loaded)."""
        return self._trace is not None

    def materialize(self) -> IterationTrace:
        """The trace itself, loading from ``path`` on first access."""
        if self._trace is None:
            self._trace = load_trace(self.path)
        return self._trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "memory" if self.in_memory else "disk"
        return f"<TraceHandle {where} path={self.path}>"
