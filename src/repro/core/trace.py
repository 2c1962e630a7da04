"""Realized ``(S, L)`` traces of asynchronous runs.

An :class:`IterationTrace` is the common currency between the pure-math
engines (:mod:`repro.core.async_iteration`), the hardware simulator
(:mod:`repro.runtime.simulator`) and the analysis layer: whatever
produced the run, the trace records which components were updated at
each global iteration (``S_j``), with which labels (``l_i(j)``), at
what simulated time, and optional residual/error series — everything
Definition 2 (macro-iterations), the epoch sequence of [30] and the
Theorem 1 certificate need.

:class:`TraceStore` is the recording side of the same object: a
chunked *columnar* recorder (labels matrix, flat active-set values +
per-iteration counts, series columns) that every engine emits into,
one iteration at a time, and :meth:`TraceStore.build` finalizes into
the trace.  :func:`save_trace` and :func:`load_trace` write and read a
trace as one ``.npz`` file of those columns.
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.delays.admissibility import AdmissibilityReport, check_admissibility
from repro.utils.serialization import json_safe

__all__ = [
    "IterationTrace",
    "TraceStore",
    "resolve_sink",
    "load_trace",
    "save_trace",
]

#: Version of the ``.npz`` trace file that :func:`save_trace` writes.
_FORMAT_VERSION = 1
#: The column members of a trace file (and of a recorder's chunks).
_COLUMNS = ("labels", "act_counts", "act_values", "errors", "residuals", "times")


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
    """In-memory columnar recorder of a realized trace.

    Engines call :meth:`record` once per global iteration and
    :meth:`build` at the end; series that were never supplied stay
    ``None`` in the built trace.  This is the *sink interface* of the
    results layer: any object with ``record_initial``/``record``/
    ``build`` (plus ``meta`` and ``owners`` attributes) can be handed
    to an engine's ``sink=`` parameter, and this class is the canonical
    implementation.

    Storage is columnar: labels rows, flat active-set values with
    per-iteration counts, and the numeric series live in per-chunk
    arrays that double up to ``_CHUNK_ROWS`` rows, so recording an
    iteration is a row assignment (the hot path of the simulator runs
    through here once per completed phase).  A full chunk is frozen
    and a new one starts, so a long run over-allocates by at most one
    chunk.  :meth:`build` concatenates the chunks into the trace, which
    :func:`save_trace` persists.
    """

    _INITIAL_CAPACITY = 64
    _CHUNK_ROWS = 4096

    def __init__(self, n_components: int, owners: np.ndarray | None = None) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1, got {n_components}")
        self.n_components = int(n_components)
        self.owners = owners
        self.meta: dict[str, Any] = {}
        self._frozen: list[dict[str, np.ndarray]] = []
        self._frozen_rows = 0
        self._reset_chunk()

    # -- recording (the sink interface) --------------------------------
    def _reset_chunk(self) -> None:
        cap = min(self._INITIAL_CAPACITY, self._CHUNK_ROWS)
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
        cap = min(2 * self._labels.shape[0], self._CHUNK_ROWS)
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
        if self._rows or self._frozen_rows:
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
        if self._rows >= self._CHUNK_ROWS:
            self._freeze()

    def _freeze(self) -> None:
        """Keep the full chunk, trimmed to its rows, and start a new one."""
        self._frozen.append({k: v.copy() for k, v in self._current_chunk().items()})
        self._frozen_rows += self._rows
        self._reset_chunk()

    @property
    def n_iterations(self) -> int:
        """Global iterations recorded so far."""
        return self._frozen_rows + self._rows

    def _current_chunk(self) -> dict[str, np.ndarray]:
        return {
            "labels": self._labels[: self._rows],
            "act_counts": self._act_counts[: self._rows],
            "act_values": self._act_values[: self._n_act],
            "errors": self._errors[: self._n_err],
            "residuals": self._residuals[: self._n_res],
            "times": self._times[: self._n_time],
        }

    # -- materialization ------------------------------------------------
    def build(self) -> IterationTrace:
        """Finalize into an immutable :class:`IterationTrace`."""
        chunks = [*self._frozen, self._current_chunk()]
        cols = {name: np.concatenate([c[name] for c in chunks]) for name in _COLUMNS}
        return _trace_from_columns(self.n_components, cols, self.owners, dict(self.meta))


def _trace_from_columns(
    n_components: int,
    cols: dict[str, np.ndarray],
    owners: np.ndarray | None,
    meta: dict[str, Any],
) -> IterationTrace:
    """The :class:`IterationTrace` that a recorder's or a file's columns hold.

    An empty series column means the series was never recorded; a
    nonempty one must hold ``record_initial`` plus one entry per
    iteration.
    """
    J = cols["labels"].shape[0]

    def _series(name: str) -> np.ndarray | None:
        arr = cols[name]
        if arr.size == 0:
            return None
        if arr.size != J + 1:
            raise RuntimeError(
                f"series has {arr.size} entries, expected {J + 1} "
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
        n_components=n_components,
        active_sets=active_sets,
        labels=cols["labels"],
        errors=_series("errors"),
        residuals=_series("residuals"),
        times=times,
        owners=owners,
        meta=meta,
    )


def _tmp_sibling(path: pathlib.Path) -> pathlib.Path:
    """This writer's temp name beside ``path``: ``<name>.<pid>-<hex>.tmp``.

    Files land by writing the temp name and ``os.replace``-ing it onto
    ``path``.  A name of its own per writer keeps two processes that
    write one target at once from renaming each other's temp file away.
    """
    return path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")


def resolve_sink(
    sink: TraceStore | None, n_components: int, owners: np.ndarray | None = None
) -> TraceStore:
    """The store an engine should record into.

    ``None`` means the engine owns its trace and gets a fresh
    :class:`TraceStore`; an injected sink (any object with the sink
    interface) is validated against the engine's component count and
    gains the engine's ``owners`` map when it has none of its own.
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
    """Write ``trace`` into one compressed ``.npz`` file; returns its path.

    This is the one writer of the trace file (format 1).  Its members
    are ``format_version``, ``n_components`` and the JSON-safe
    ``meta_json``; ``owners`` when the trace has them; the int64
    ``labels``, ``act_counts`` and flat ``act_values`` columns; and the
    float64 ``errors``, ``residuals`` and ``times`` series, empty when
    the trace has none.  The file is written under a temp name of its
    own and ``os.replace``-d onto ``path``, because readers recognise a
    trace by its file existing.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    members: dict[str, np.ndarray] = {
        "format_version": np.asarray(_FORMAT_VERSION, np.int64),
        "n_components": np.asarray(trace.n_components, np.int64),
        "meta_json": np.asarray(json.dumps(json_safe(trace.meta))),
    }
    if trace.owners is not None:
        members["owners"] = trace.owners
    sets = trace.active_sets
    absent = np.zeros(0)
    members.update(
        labels=trace.labels,
        act_counts=np.fromiter(map(len, sets), np.int64, count=len(sets)),
        act_values=np.fromiter(itertools.chain.from_iterable(sets), np.int64),
        errors=absent if trace.errors is None else trace.errors,
        residuals=absent if trace.residuals is None else trace.residuals,
        times=absent if trace.times is None else trace.times,
    )
    tmp = _tmp_sibling(path)
    with open(tmp, "wb") as f:
        np.savez_compressed(f, **members)
    os.replace(tmp, path)
    return path


def load_trace(path: "str | os.PathLike[str]") -> IterationTrace:
    """The :class:`IterationTrace` a :func:`save_trace` file holds, bit for bit.

    A file of a newer ``format_version`` than this build writes raises
    ``ValueError``.
    """
    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version > _FORMAT_VERSION:
            raise ValueError(
                f"trace file {path} has format v{version}; "
                f"this build reads up to v{_FORMAT_VERSION}"
            )
        n = int(z["n_components"])
        cols = {name: z[name] for name in _COLUMNS}
        owners = z["owners"] if "owners" in z.files else None
        meta = json.loads(str(z["meta_json"]))
    return _trace_from_columns(n, cols, owners, meta)
