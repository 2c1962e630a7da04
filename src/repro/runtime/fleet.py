"""The scenario fleet: concurrent execution of declarative scenario grids.

The paper's claims (async vs sync efficiency, flexible-communication
gain, robustness across delay regimes) are statistical — they hold
across many seeds, regimes and problem instances, never on a single
run.  The fleet runner is the machinery that makes such populations
cheap: hand it the :class:`~repro.scenarios.spec.ScenarioSpec` list of
a :class:`~repro.scenarios.spec.ScenarioGrid` and it executes every
scenario (concurrently when the hardware allows), collects one typed
:class:`ScenarioResult` each, and aggregates them into a
:class:`FleetResult` that the analysis layer, the benchmark harness and
``python -m repro sweep`` all consume.

:func:`run_grid` is the streaming entry point: given a
:class:`~repro.runtime.sweep_store.SweepStore` it persists one summary
row (and optionally the realized trace) per scenario *as workers
finish*, keyed by the spec's content hash — so a sweep killed at
scenario 180/200 resumes with ``run_grid(..., resume=store)`` and only
executes the missing twenty.

Pool dispatch is *chunked*: specs are packed into per-task chunks
balanced by expected cost (``chunk_size="auto"`` targets about
``4 × workers`` tasks), so one pickle/IPC round-trip amortizes over
many scenarios and a pool ``initializer`` pre-imports the registries
and backends once per worker instead of once per task.  Grids of many
small scenarios stop being dominated by dispatch overhead; results
still stream to the store per scenario.

Determinism: every spec carries its own integer seed (spawned
independently by the grid), and results are returned in submission
order — so the ``FleetResult`` is bit-identical whether scenarios ran
serially, on a thread pool, on a process pool, chunked or per-task, or
across an interrupted-and-resumed pair of invocations.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import os
import pathlib
import shutil
import statistics
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.scenarios.spec import ScenarioSpec
from repro.utils.serialization import json_safe, strict_finite

__all__ = [
    "CACHE_ENV_VAR",
    "ScenarioResult",
    "FleetResult",
    "execute_scenario",
    "run_scenario",
    "run_fleet",
    "run_grid",
]

_EXECUTORS = ("auto", "serial", "thread", "process")

#: Environment variable naming the default cross-study result cache
#: directory consulted by :func:`run_grid` when ``cache=`` is unset.
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

#: Metrics exposed by :meth:`FleetResult.group_medians` / ``to_rows``.
#: Boolean-valued metrics (``converged``) aggregate as rates, numeric
#: ones as medians.
METRIC_FIELDS = ("iterations", "converged", "final_residual", "final_error",
                 "sim_time", "time_to_tol", "wall_time")

#: ScenarioResult fields that may legitimately hold non-finite floats
#: (a diverged residual is ``inf``, a crashed row's is ``nan``).  They
#: persist as the JSON-string sentinels below — strictly valid JSON
#: that still round-trips the inf/nan distinction exactly, unlike a
#: lossy ``null``.
_NONFINITE_FIELDS = ("final_residual", "final_error", "sim_time", "time_to_tol")
_NONFINITE_SENTINELS = {"NaN": float("nan"), "Infinity": float("inf"),
                        "-Infinity": float("-inf")}


def _encode_nonfinite(value: Any) -> Any:
    """Non-finite float -> its JSON-string sentinel; all else unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _decode_nonfinite(value: Any) -> Any:
    """Inverse of :func:`_encode_nonfinite` (sentinel string -> float)."""
    if isinstance(value, str):
        return _NONFINITE_SENTINELS.get(value, value)
    return value


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario (plain data, picklable).

    ``error`` holds the exception ``repr`` when the scenario crashed;
    every numeric field is then zero/None and ``converged`` is False.
    ``info`` carries the JSON-safe subset of the backend's run stats
    (constraint audits, message stats, per-worker update counts...) so
    solver extras survive persistence; ``trace_path`` points at the
    scenario's saved trace file when the sweep kept traces (``""``
    when traces were requested but the backend produced none, ``None``
    when they were never requested).
    """

    key: str
    spec: ScenarioSpec
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("nan")
    final_error: float | None = None
    sim_time: float | None = None
    time_to_tol: float | None = None
    wall_time: float = 0.0
    error: str | None = None
    info: dict[str, Any] = field(default_factory=dict)
    trace_path: str | None = None

    @property
    def content_hash(self) -> str:
        """The spec's canonical content hash (the sweep-store key)."""
        return self.spec.content_hash

    # -- persistence --------------------------------------------------
    def to_json_dict(self) -> dict[str, Any]:
        """Strict-JSON record of this result (specs as field dicts).

        The spec persists as its canonical form — the same document
        its content hash digests — so a loaded result reconstructs a
        spec with the *same* content hash as the one that ran (plain
        ``json_safe`` would silently mangle array-valued params).
        Non-finite floats persist without the non-standard
        ``NaN``/``Infinity`` literals: the summary fields that
        legitimately go non-finite (a diverged residual is ``inf``, a
        crashed one ``nan``) use string sentinels that restore the
        exact value on load, and anything non-finite buried in the
        free-form ``info`` stats becomes ``null`` — either way the
        record stays valid for strict JSON parsers, not just Python's.
        """
        # Field by field, not dataclasses.asdict: asdict deep-copies the
        # whole spec only for it to be replaced by its canonical form.
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        record["spec"] = self.spec.canonical()
        record["info"] = json_safe(self.info) or {}
        for f in _NONFINITE_FIELDS:
            record[f] = _encode_nonfinite(record[f])
        return strict_finite(json_safe(record))

    @classmethod
    def from_json_dict(cls, record: "dict[str, Any]") -> "ScenarioResult":
        """Rebuild a typed result from a :meth:`to_json_dict` record.

        The spec is re-validated against the current registries;
        records persisted before the ``info``/``trace_path`` fields
        existed load with empty defaults.  Non-finite sentinels
        (``"NaN"``/``"Infinity"``/``"-Infinity"``) restore to the
        exact float they encoded; a legacy ``final_residual: null``
        restores as ``nan`` so the field keeps its ``float`` type.
        """
        record = dict(record)
        spec = ScenarioSpec(**record.pop("spec"))
        for f in _NONFINITE_FIELDS:
            if f in record:
                record[f] = _decode_nonfinite(record[f])
        if record.get("final_residual") is None:
            record["final_residual"] = float("nan")
        return cls(spec=spec, **record)


def _group_medians(
    rows: "Iterable[Any]",
    by: "Callable[[Any], tuple[Any, ...]] | Sequence[str]",
    metrics: "Sequence[str]",
) -> "dict[tuple[Any, ...], dict[str, float]]":
    """Median of each metric over groups of non-failed rows.

    The one grouping implementation behind both
    :meth:`FleetResult.group_medians` (in-memory results) and
    :meth:`repro.runtime.sweep_store.StoreFleetView.group_medians`
    (rows streamed from a packed store) — ``rows`` only needs the
    metric attributes, ``spec`` and ``error``, so it accepts
    :class:`ScenarioResult` and :class:`~repro.runtime.sweep_store.RowView`
    alike.  Failed rows are skipped; only the grouped rows are held,
    never materialized result objects.
    """
    # Validate metric names before grouping: a typo must raise even
    # on an empty or all-failed fleet (zero groups would otherwise
    # skip the loop and pass silently).
    for m in metrics:
        if m not in METRIC_FIELDS:
            raise KeyError(f"unknown metric {m!r}; choose from {METRIC_FIELDS}")
    if not callable(by):
        fields = tuple(by)
        by = lambda r: tuple(getattr(r.spec, f) for f in fields)  # noqa: E731
    # Accumulate raw metric values, never the row objects themselves:
    # streamed rows must be droppable as soon as they're binned, or a
    # million-row group would pin a million RowViews.
    counts: dict[tuple[Any, ...], int] = {}
    values: dict[tuple[Any, ...], list[list[Any]]] = {}
    for r in rows:
        if r.error is not None:
            continue
        gkey = by(r)
        counts[gkey] = counts.get(gkey, 0) + 1
        vals = values.get(gkey)
        if vals is None:
            vals = values[gkey] = [[] for _ in metrics]
        for j, m in enumerate(metrics):
            v = getattr(r, m)
            if v is not None:
                vals[j].append(v)
    out: dict[tuple[Any, ...], dict[str, float]] = {}
    for gkey in sorted(counts, key=repr):
        agg: dict[str, float] = {"count": float(counts[gkey])}
        for j, m in enumerate(metrics):
            raw = values[gkey][j]
            if raw and all(isinstance(v, (bool, np.bool_)) for v in raw):
                agg[m] = sum(map(bool, raw)) / len(raw)
                continue
            vals_f = [float(v) for v in raw if np.isfinite(v)]
            agg[m] = statistics.median(vals_f) if vals_f else float("nan")
        out[gkey] = agg
    return out


@dataclass(frozen=True)
class FleetResult:
    """Aggregate outcome of one fleet execution.

    Results appear in submission order.  ``wall_time`` is the whole
    fleet's wall-clock duration, which with ``scenario_count`` yields
    the scenarios/sec throughput the perf harness tracks.
    """

    results: tuple[ScenarioResult, ...]
    wall_time: float
    executor: str
    max_workers: int

    # -- basic accessors ----------------------------------------------
    @property
    def scenario_count(self) -> int:
        return len(self.results)

    @property
    def scenarios_per_sec(self) -> float:
        """Throughput; ``0.0`` whenever no rate is measurable.

        That covers the empty fleet (no work, no rate) *and* a
        zero-duration aggregate — e.g. a grid satisfied entirely from a
        resume store or cross-study cache, whose reassembled rows can
        sum to ``wall_time == 0.0``.  Reporting ``0.0`` instead of
        ``inf`` keeps the value a plain JSON number, so
        :meth:`to_json` stays strictly valid and round-trips.
        """
        if self.scenario_count == 0 or self.wall_time <= 0:
            return 0.0
        return self.scenario_count / self.wall_time

    def ok(self) -> tuple[ScenarioResult, ...]:
        """Results that completed without raising."""
        return tuple(r for r in self.results if r.error is None)

    def failures(self) -> tuple[ScenarioResult, ...]:
        """Results whose scenario crashed (``error`` is the repr)."""
        return tuple(r for r in self.results if r.error is not None)

    def converged_fraction(self) -> float:
        """Fraction of non-failed scenarios that reached tolerance."""
        good = self.ok()
        if not good:
            return 0.0
        return sum(1 for r in good if r.converged) / len(good)

    # -- aggregation --------------------------------------------------
    def group_medians(
        self,
        by: Callable[[ScenarioResult], tuple[Any, ...]] | Sequence[str] = ("problem",),
        metrics: Sequence[str] = ("iterations", "final_residual"),
    ) -> dict[tuple[Any, ...], dict[str, float]]:
        """Median of each metric over groups of non-failed scenarios.

        ``by`` is either a key function on results or a sequence of
        :class:`~repro.scenarios.spec.ScenarioSpec` field names
        (e.g. ``("problem", "delays")``); metrics are drawn from
        ``METRIC_FIELDS``.  Boolean-valued metrics (``converged``)
        aggregate as the group's true-fraction — a well-defined rate —
        instead of a coerced float median; for numeric metrics,
        ``None``/non-finite values are skipped and a group whose values
        all vanish reports ``nan``.
        """
        return _group_medians(self.results, by, metrics)

    def to_rows(
        self, metrics: Sequence[str] = ("iterations", "converged", "final_residual")
    ) -> list[list[Any]]:
        """One row per scenario: ``[key, *metrics]`` (for render_table)."""
        rows: list[list[Any]] = []
        for r in self.results:
            row: list[Any] = [r.key]
            for m in metrics:
                row.append("ERROR" if r.error is not None else getattr(r, m))
            rows.append(row)
        return rows

    def digest(self) -> str:
        """SHA-256 certificate over the deterministic per-scenario fields.

        Matches :meth:`repro.runtime.sweep_store.SweepStore.digest` for
        a store holding the same completed scenarios, so an in-memory
        fleet and its persisted twin certify equality without a store
        ever existing (failed scenarios are excluded from both sides).
        """
        from repro.runtime.sweep_store import digest_rows

        return digest_rows((r.content_hash, r) for r in self.ok())

    # -- persistence --------------------------------------------------
    def to_json(self) -> str:
        """Strictly valid JSON document with per-scenario records and stats.

        Non-finite values (an unknown throughput, a failed row's
        ``nan`` residual) serialize as ``null``, never as the
        non-standard ``NaN``/``Infinity`` literals — the document must
        parse under ``json.loads`` with a strict ``parse_constant``
        and under non-Python consumers.
        """
        doc = {
            "executor": self.executor,
            "max_workers": self.max_workers,
            "wall_time": self.wall_time,
            "scenario_count": self.scenario_count,
            "scenarios_per_sec": self.scenarios_per_sec,
            "results": [r.to_json_dict() for r in self.results],
        }
        return json.dumps(strict_finite(doc), indent=2, allow_nan=False)

    @classmethod
    def from_json(cls, doc: "str | dict[str, Any]") -> "FleetResult":
        """Reconstruct a :class:`FleetResult` from :meth:`to_json` output.

        Accepts the JSON text or an already-parsed document.  Specs are
        rebuilt as real :class:`~repro.scenarios.spec.ScenarioSpec`
        objects (re-validated against the current registries), so a
        persisted sweep round-trips into the same typed API the live
        fleet returns — backend stats included (``info``).
        """
        if isinstance(doc, str):
            doc = json.loads(doc)
        results = tuple(ScenarioResult.from_json_dict(r) for r in doc["results"])
        # Documents written before scenarios_per_sec went finite could
        # hold "wall_time": null (a non-finite value nulled by the
        # strict-JSON encoder); restore it as 0.0 rather than crashing.
        wall_time = doc["wall_time"]
        return cls(
            results=results,
            wall_time=0.0 if wall_time is None else float(wall_time),
            executor=str(doc["executor"]),
            max_workers=int(doc["max_workers"]),
        )


# ----------------------------------------------------------------------
# Scenario execution (top-level so process pools can pickle it)
# ----------------------------------------------------------------------

def run_scenario(
    spec: ScenarioSpec,
    *,
    trace_dir: "str | os.PathLike[str] | None" = None,
    spill_dir: "str | os.PathLike[str] | None" = None,
    trace_chunk_size: int | None = None,
) -> ScenarioResult:
    """Execute one scenario spec and summarize it as a :class:`ScenarioResult`.

    Never raises for scenario-level errors: crashes are captured in
    ``result.error`` so one bad grid point cannot sink a fleet.

    With ``trace_dir`` the realized trace is saved there as
    ``<content_hash>.npz`` (recorded through a disk-spilling
    :class:`~repro.core.trace.TraceStore` rooted at ``spill_dir`` when
    given, so even very long traces stay within O(chunk) RAM while
    recording); the summary then carries ``trace_path`` instead of any
    in-memory trace.  Workers write their own trace files, so nothing
    trace-sized ever crosses a process-pool boundary.
    """
    t0 = time.perf_counter()
    try:
        result = _run_scenario_inner(
            spec, trace_dir=trace_dir, spill_dir=spill_dir,
            trace_chunk_size=trace_chunk_size,
        )
    except Exception as exc:  # noqa: BLE001 - captured per scenario by design
        return ScenarioResult(
            key=spec.key, spec=spec, error=repr(exc),
            wall_time=time.perf_counter() - t0,
        )
    return result


def _run_scenario_inner(
    spec: ScenarioSpec,
    *,
    trace_dir: "str | os.PathLike[str] | None" = None,
    spill_dir: "str | os.PathLike[str] | None" = None,
    trace_chunk_size: int | None = None,
) -> ScenarioResult:
    summary, _ = execute_scenario(
        spec, trace_dir=trace_dir, spill_dir=spill_dir,
        trace_chunk_size=trace_chunk_size,
    )
    return summary


def execute_scenario(
    spec: ScenarioSpec,
    *,
    trace_dir: "str | os.PathLike[str] | None" = None,
    spill_dir: "str | os.PathLike[str] | None" = None,
    trace_chunk_size: int | None = None,
) -> "tuple[ScenarioResult, Any]":
    """Run one spec, returning ``(summary, backend_result)``.

    The second element is the full
    :class:`~repro.runtime.backends.BackendRunResult` — final iterate,
    realized trace, backend stats — for callers (``repro.solve``) that
    need more than the fleet's scalar summary.  Unlike
    :func:`run_scenario` this *raises* on scenario errors.
    """
    # Imported lazily: keeps fleet importable without dragging the
    # whole library into every worker before it is needed.
    from repro.analysis.rates import time_to_tolerance
    from repro.runtime import backends as _backends
    from repro.scenarios import registry

    t0 = time.perf_counter()
    backend = _backends.get_backend(spec.backend)
    seeds = spec.spawn_seeds()
    op = registry.make_problem(spec.problem, seeds[0], **spec.problem_params)
    n = op.n_components
    request = _backends.ExecutionRequest(
        operator=op,
        x0=np.zeros(op.dim),
        max_iterations=spec.max_iterations,
        tol=spec.tol,
        seed=seeds[1],
    )
    if backend.kind == "model":
        request.steering = registry.make_steering(
            spec.steering, n, seeds[1], **spec.steering_params
        )
        request.delays = registry.make_delays(spec.delays, n, seeds[2], **spec.delay_params)
        # Backend-internal randomness (e.g. flexible's default partial
        # model) gets its own stream, independent of the ingredients.
        request.seed = seeds[4]
    else:
        # Machine substrate: the archetype yields processors + channels
        # (the shared-memory backend keeps only the processor count).
        request.processors, request.channels = registry.make_machine(
            spec.machine, n, seeds[3], **spec.machine_params
        )
        n_procs = len(request.processors)
        if spec.topology != "native":
            # An explicit channel graph replaces the archetype's fabric.
            topo = registry.make_topology(
                spec.topology, n_procs, seeds[6], **spec.topology_params
            )
            if topo is not None:
                request.channels = topo
        if spec.fault != "none":
            request.faults = registry.make_fault(
                spec.fault, n_procs, seeds[5], **spec.fault_params
            )
        request.options["record_messages"] = False
        # The fleet summarizes scalar outcomes; skip the per-update
        # trace recording of the shared-memory backend unless the
        # sweep is persisting traces.
        request.options["record_trace"] = trace_dir is not None

    content_hash = spec.content_hash
    scenario_spill: pathlib.Path | None = None
    trace_path: str | None = None
    if trace_dir is not None:
        path = pathlib.Path(trace_dir) / f"{content_hash}.npz"
        request.options["trace_path"] = path
        if spill_dir is not None:
            scenario_spill = pathlib.Path(spill_dir) / content_hash
            request.options["trace_spill_dir"] = scenario_spill
        if trace_chunk_size is not None:
            request.options["trace_chunk_size"] = int(trace_chunk_size)

    try:
        res = backend.execute(request)
    finally:
        if scenario_spill is not None:
            # The final .npz has everything; the spill chunks were
            # only the recording-time working set.
            shutil.rmtree(scenario_spill, ignore_errors=True)
    if trace_dir is not None:
        # "" = traces were requested but this backend produced none
        # (e.g. a shared-memory run with zero commits): the row is
        # complete, a re-run could never yield a trace.
        trace_path = (
            str(res.trace_handle.path) if res.trace_handle is not None else ""
        )

    trace = res.trace
    final_error = (
        float(trace.errors[-1])
        if trace is not None and trace.errors is not None
        else None
    )
    ttt = None
    if (
        spec.tol > 0
        and trace is not None
        and trace.residuals is not None
        and trace.times is not None
    ):
        ttt = time_to_tolerance(trace.residuals, trace.times, spec.tol)
    summary = ScenarioResult(
        key=spec.key,
        spec=spec,
        iterations=res.iterations,
        converged=res.converged,
        final_residual=float(res.final_residual),
        final_error=final_error,
        sim_time=None if res.final_time is None else float(res.final_time),
        time_to_tol=ttt,
        wall_time=time.perf_counter() - t0,
        info=json_safe(res.stats) or {},
        trace_path=trace_path,
    )
    return summary, res


# ----------------------------------------------------------------------
# Fleet execution
# ----------------------------------------------------------------------

def _resolve_executor(executor: str, max_workers: int | None) -> tuple[str, int]:
    if executor not in _EXECUTORS:
        raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
    # Same rule, same message as api.config.ExecutionSpec: a zero or
    # negative pool width is a caller error, not a request for 1.
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    cpus = os.cpu_count() or 1
    if executor == "auto":
        executor = "process" if cpus > 1 else "serial"
    # An explicit max_workers is honored as given; the default pool
    # width is the core count.
    workers = cpus if max_workers is None else max_workers
    return executor, workers


#: ``chunk_size="auto"`` packs the specs into about this many tasks
#: per pool worker — few enough to amortize pickle/IPC round-trips,
#: many enough that one slow chunk cannot idle the rest of the pool.
_AUTO_CHUNKS_PER_WORKER = 4


def _worker_init() -> None:
    """Pool initializer: import the heavy modules once per worker.

    Every scenario needs the backend registry, the ingredient
    registries and the rate-fit helpers; importing them at worker
    startup (instead of lazily inside the first task) takes the import
    cost out of every chunk's critical path.
    """
    import repro.analysis.rates  # noqa: F401
    import repro.runtime.backends  # noqa: F401
    import repro.scenarios.registry  # noqa: F401


def _check_chunk_size(chunk_size: "int | str") -> "int | str":
    if chunk_size == "auto":
        return chunk_size
    if isinstance(chunk_size, bool) or not isinstance(chunk_size, int):
        raise ValueError(f'chunk_size must be "auto" or a positive int, got {chunk_size!r}')
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def _spec_cost(spec: ScenarioSpec) -> float:
    """Expected-cost proxy for chunk balancing.

    The dominant per-scenario cost is iterations of the problem's
    update map, so the iteration budget is the packing weight (cf. the
    bar-charts packing view of batch balancing: pack by height, not by
    bar count).  Exact runtimes differ across problems, but a proxy
    only has to keep one chunk from hoarding all the long scenarios.
    """
    return float(spec.max_iterations)


def _pack_chunks(
    indexed: "list[tuple[int, ScenarioSpec]]",
    chunk_size: "int | str",
    workers: int,
) -> "list[list[tuple[int, ScenarioSpec]]]":
    """Pack ``(index, spec)`` pairs into cost-balanced dispatch chunks.

    ``"auto"`` targets ``_AUTO_CHUNKS_PER_WORKER × workers`` chunks; an
    explicit ``chunk_size`` is a *hard* upper bound on scenarios per
    chunk (a full chunk stops accepting, whatever its cost — callers
    cap chunk size to bound per-task memory and kill-loss granularity).
    Packing is greedy longest-processing-time: specs sorted by
    descending :func:`_spec_cost` land in the currently lightest chunk,
    so heterogeneous budgets spread instead of stacking into one
    straggler task.  Within a chunk, submission order is restored —
    the store sees rows in a deterministic order per chunk.
    """
    capacity = None
    if chunk_size == "auto":
        n_chunks = min(len(indexed), _AUTO_CHUNKS_PER_WORKER * max(1, workers))
    else:
        capacity = chunk_size
        n_chunks = min(len(indexed), math.ceil(len(indexed) / chunk_size))
    if n_chunks <= 1:
        return [list(indexed)] if indexed else []
    chunks: list[list[tuple[int, ScenarioSpec]]] = [[] for _ in range(n_chunks)]
    heap = [(0.0, b) for b in range(n_chunks)]
    heapq.heapify(heap)
    # Sort by cost descending, submission index ascending — fully
    # deterministic, so the chunk layout (and thus store write order
    # within a chunk) never depends on dict/hash ordering.
    for idx, spec in sorted(indexed, key=lambda p: (-_spec_cost(p[1]), p[0])):
        load, b = heapq.heappop(heap)
        chunks[b].append((idx, spec))
        if capacity is None or len(chunks[b]) < capacity:
            # A chunk at explicit capacity leaves the heap for good;
            # total capacity is >= the spec count by construction, so
            # the heap never runs dry.
            heapq.heappush(heap, (load + _spec_cost(spec), b))
    for chunk in chunks:
        chunk.sort(key=lambda p: p[0])
    return [c for c in chunks if c]


def _run_chunk(
    runner: Callable[[ScenarioSpec], ScenarioResult],
    specs: "list[ScenarioSpec]",
    batch: bool = False,
) -> "list[ScenarioResult]":
    """Execute one dispatch chunk inside a worker (top-level: picklable).

    With ``batch``, homogeneous runs of specs inside the chunk (same
    problem shape, models, machine kind and iteration budget — see
    :func:`~repro.runtime.simulator.batched.run_scenario_batch`) advance
    through one lockstep batched call instead of ``len(specs)`` solo
    calls; everything unbatchable, and any batch that fails mid-flight,
    still goes through ``runner`` one spec at a time.  Results are
    bit-identical either way.
    """
    if batch and len(specs) > 1:
        from repro.runtime.simulator.batched import run_scenario_batch

        return run_scenario_batch(specs, solo=runner)
    return [runner(spec) for spec in specs]


def _execute_specs(
    indexed: "list[tuple[int, ScenarioSpec]]",
    runner: Callable[[ScenarioSpec], ScenarioResult],
    chosen: str,
    workers: int,
    on_result: Callable[[ScenarioResult], None] | None = None,
    chunk_size: "int | str" = "auto",
    batch: bool = False,
) -> "dict[int, ScenarioResult]":
    """Run ``(index, spec)`` pairs, invoking ``on_result`` as each finishes.

    Pool executors dispatch cost-balanced *chunks* (one future per
    chunk, see :func:`_pack_chunks`), so per-task pickle/IPC overhead
    amortizes over many scenarios; ``on_result`` still fires once per
    scenario, in completion order of the chunks.  The returned mapping
    restores submission order.  With ``batch``, each chunk routes its
    homogeneous spec groups through the lockstep batched engine
    (:func:`_run_chunk`); the serial path then also runs chunk by chunk
    so store streaming keeps its per-chunk cadence instead of waiting
    on the whole grid.
    """
    out: dict[int, ScenarioResult] = {}
    if chosen == "serial" or len(indexed) <= 1:
        if batch and len(indexed) > 1:
            for chunk in _pack_chunks(indexed, chunk_size, workers):
                for (idx, _), r in zip(
                    chunk, _run_chunk(runner, [spec for _, spec in chunk], True)
                ):
                    out[idx] = r
                    if on_result is not None:
                        on_result(r)
            return out
        for idx, spec in indexed:
            r = runner(spec)
            out[idx] = r
            if on_result is not None:
                on_result(r)
        return out
    pool_cls = ThreadPoolExecutor if chosen == "thread" else ProcessPoolExecutor
    chunks = _pack_chunks(indexed, chunk_size, workers)
    with pool_cls(max_workers=workers, initializer=_worker_init) as pool:
        pending = {
            pool.submit(_run_chunk, runner, [spec for _, spec in chunk], batch): chunk
            for chunk in chunks
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for fut in done:
                chunk = pending.pop(fut)
                for (idx, _), r in zip(chunk, fut.result()):
                    out[idx] = r
                    if on_result is not None:
                        on_result(r)
    return out


def run_fleet(
    scenarios: Iterable[ScenarioSpec],
    *,
    executor: str = "auto",
    max_workers: int | None = None,
    chunk_size: "int | str" = "auto",
    batch: bool = True,
) -> FleetResult:
    """Execute a batch of scenarios and aggregate into a :class:`FleetResult`.

    Parameters
    ----------
    scenarios:
        Specs to run (typically ``grid.expand()``).
    executor:
        ``"serial"``, ``"thread"``, ``"process"``, or ``"auto"``
        (process pool on multi-core hosts, serial otherwise).  Results
        are identical across executors; only wall time changes.
    max_workers:
        Pool width cap (defaults to ``os.cpu_count()``).
    chunk_size:
        Scenarios per dispatched pool task.  ``"auto"`` (default)
        packs cost-balanced chunks targeting about 4 tasks per worker;
        an explicit int bounds the chunk size (``1`` restores per-task
        dispatch).  Results are bit-identical either way.
    batch:
        Route homogeneous spec groups inside each chunk through the
        scenario-batched lockstep engine
        (:mod:`repro.runtime.simulator.batched`) instead of one solo
        call per scenario.  On (default), this changes throughput only:
        batched results are bit-identical per scenario, and anything
        the batched engine cannot take falls back to solo execution.

    The per-scenario results keep submission order regardless of
    completion order.  For persistent/resumable sweeps use
    :func:`run_grid` with a :class:`~repro.runtime.sweep_store.SweepStore`.
    """
    specs = list(scenarios)
    chosen, workers = _resolve_executor(executor, max_workers)
    chunk_size = _check_chunk_size(chunk_size)
    if chosen != "serial" and len(specs) <= 1:
        chosen = "serial"
    t0 = time.perf_counter()
    slots = _execute_specs(
        list(enumerate(specs)), run_scenario, chosen, workers,
        chunk_size=chunk_size, batch=batch,
    )
    return FleetResult(
        results=tuple(slots[i] for i in range(len(specs))),
        wall_time=time.perf_counter() - t0,
        executor=chosen,
        max_workers=workers,
    )


def _resolve_cache(cache: Any, sweep: Any, resume_store: Any) -> Any:
    """``cache=`` argument -> an open cache store, or ``None``.

    ``None`` consults the ``REPRO_SWEEP_CACHE`` environment variable;
    ``False`` disables caching outright (the spelled-out opt-out for
    environments where the variable is exported globally).  The cache
    is an ordinary content-addressed :class:`SweepStore` directory —
    created on first use, never given a manifest — so any finished
    sweep store also works as a cache.  A cache that aliases the run's
    own store (or resume source) is dropped: those are already
    consulted, and double-writing rows to the same files would be pure
    churn.
    """
    from repro.runtime.sweep_store import SweepStore

    if cache is False:
        return None
    if cache is None:
        env = os.environ.get(CACHE_ENV_VAR, "").strip()
        if not env:
            return None
        cache = env
    if not isinstance(cache, SweepStore):
        cache = SweepStore(cache)
    for other in (sweep, resume_store):
        if other is not None and cache.root.resolve() == other.root.resolve():
            return None
    return cache


def _adopt_row(src: Any, sweep: Any, loaded: ScenarioResult) -> ScenarioResult:
    """Copy a row completed in ``src`` (resume source, cache, shard) into ``sweep``.

    The trace file (when present) is copied — atomically, since stores
    and caches are shared between hosts — and the row's ``trace_path``
    re-pointed, so the destination store is self-contained: deleting
    the source later cannot dangle it.
    """
    from repro.runtime.sweep_store import _atomic_copy

    h = loaded.content_hash
    if sweep is None:
        return loaded
    if src.has_trace(h):
        sweep.traces_dir.mkdir(parents=True, exist_ok=True)
        _atomic_copy(src.trace_path(h), sweep.trace_path(h))
        loaded = replace(loaded, trace_path=str(sweep.trace_path(h)))
    sweep.write_result(loaded)
    return loaded


def run_grid(
    grid_or_specs: Any,
    *,
    store: Any = None,
    resume: Any = None,
    cache: Any = None,
    keep_traces: bool = False,
    trace_chunk_size: int | None = None,
    executor: str = "auto",
    max_workers: int | None = None,
    chunk_size: "int | str" = "auto",
    batch: bool = True,
) -> FleetResult:
    """Execute a scenario grid with per-scenario persistence and resume.

    Parameters
    ----------
    grid_or_specs:
        A :class:`~repro.scenarios.spec.ScenarioGrid` or an iterable of
        specs.
    store:
        A :class:`~repro.runtime.sweep_store.SweepStore` or directory
        path.  When given, the manifest is written up front and each
        scenario's row lands in its shard's append log *as the scenario
        finishes* (plus ``traces/<content_hash>.npz`` with
        ``keep_traces``), so a killed sweep loses at most the scenarios
        in flight; logged rows are sealed into columnar batches as they
        accumulate and once more at the end of the sweep.  ``None``
        degrades to a plain in-memory fleet run.
    resume:
        A store (or path) holding a previous, possibly partial, run of
        the same scenarios.  Completed scenarios — recognized by
        content hash — are loaded instead of re-executed; because every
        spec carries its own independent seed, the resumed
        :class:`FleetResult` is bit-identical to an uninterrupted one.
        ``resume=True`` reuses ``store``.  A path that names no
        existing store raises ``FileNotFoundError`` (a typo must not
        silently re-run the whole sweep); with ``keep_traces``, rows
        whose trace file is missing are re-executed so the store ends
        up complete; resuming into a *different* ``store`` copies rows
        and traces over.
    cache:
        Cross-study result cache: a content-addressed store (path or
        :class:`~repro.runtime.sweep_store.SweepStore`) consulted *by
        content hash* before any scenario executes — after ``resume``
        — and written back as scenarios finish, so any scenario ever
        completed through the same cache resolves instantly in every
        later study.  ``None`` (default) consults the
        ``REPRO_SWEEP_CACHE`` environment variable; ``False`` disables
        caching.  Cache hits satisfy the same completeness rule as
        resume (a ``keep_traces`` run only accepts rows whose trace is
        cached too) and are bit-identical to executing: the digest of
        a cached sweep equals the cold one.
    keep_traces:
        Persist each scenario's realized trace into the store.  Traces
        record through a disk-spilling trace store and are saved (and
        dropped) inside the worker, so fleet memory stays bounded
        regardless of scenario count; the per-worker peak is the one
        trace each engine still materializes at end of run.
    trace_chunk_size:
        Rows per trace chunk for ``keep_traces`` recording (default
        :attr:`~repro.core.trace.TraceStore.DEFAULT_CHUNK_SIZE`).
    chunk_size:
        Scenarios per dispatched pool task (``"auto"``: cost-balanced
        chunks, about 4 tasks per worker; ``1``: per-task dispatch).
    batch:
        Batch homogeneous spec groups through the lockstep engine (see
        :func:`run_fleet`); bit-identical, throughput only.  Forced off
        by ``keep_traces`` — the batched engine summarizes scalars and
        records no traces, and a trace-keeping sweep must get a trace
        file per row.

    Returns the same :class:`FleetResult` a plain :func:`run_fleet`
    would have produced, with ``trace_path``/``info`` populated.
    """
    from repro.runtime.sweep_store import SweepStore
    from repro.scenarios.spec import ScenarioGrid

    if isinstance(grid_or_specs, ScenarioGrid):
        specs = list(grid_or_specs.expand())
    else:
        specs = list(grid_or_specs)

    if resume is True:
        if store is None:
            raise ValueError("resume=True requires a store")
        resume = store
    if resume is not None and not isinstance(resume, SweepStore) and store is not None:
        # Equivalent paths count as the same store, however spelled.
        store_root = store.root if isinstance(store, SweepStore) else pathlib.Path(store)
        if pathlib.Path(resume).resolve() == store_root.resolve():
            resume = store
    if resume is not None and not isinstance(resume, SweepStore):
        # A resume target must already exist: silently creating an
        # empty store from a typo'd path would re-execute the whole
        # sweep instead of erroring.
        resume = SweepStore(resume, create=False)
    if store is None and resume is not None:
        store = resume
    sweep: SweepStore | None = None
    if store is not None:
        sweep = store if isinstance(store, SweepStore) else SweepStore(store)
    if keep_traces and sweep is None:
        raise ValueError("keep_traces requires a store")
    resume_store: SweepStore | None = None
    if resume is not None:
        # Usually the same store; resuming *into* a different one is
        # allowed (completed rows and traces copy over, new rows land
        # in `store`).
        if resume is store or resume is sweep:
            resume_store = sweep
        else:
            same = resume.root.resolve() == sweep.root.resolve()
            resume_store = sweep if same else resume
    cache_store: SweepStore | None = _resolve_cache(cache, sweep, resume_store)

    chosen, workers = _resolve_executor(executor, max_workers)
    chunk_size = _check_chunk_size(chunk_size)
    t0 = time.perf_counter()

    # Lookup order: the resume store first (it is this sweep's own
    # history), then the cross-study cache.  Both apply the one
    # completeness rule (load_complete_results), so a keep_traces run
    # never accepts a traceless cached row.  Each is one bulk read,
    # shard by shard, so every batch file decodes once whatever order
    # the specs come in.
    hashes = [spec.content_hash for spec in specs]
    resumed: dict[str, ScenarioResult] = {}
    if resume_store is not None:
        resumed = resume_store.load_complete_results(specs, require_trace=keep_traces)
    cache_done: set[str] = set()
    cached: dict[str, ScenarioResult] = {}
    if cache_store is not None:
        cache_done = cache_store.completed()
        cached = cache_store.load_complete_results(
            [s for s, h in zip(specs, hashes) if h in cache_done and h not in resumed],
            require_trace=keep_traces,
        )
    slots: dict[int, ScenarioResult] = {}
    to_run: list[tuple[int, ScenarioSpec]] = []
    for idx, (spec, h) in enumerate(zip(specs, hashes)):
        loaded = resumed.get(h)
        if loaded is not None and resume_store is not sweep:
            loaded = _adopt_row(resume_store, sweep, loaded)
        if loaded is None and h in cached:
            loaded = _adopt_row(cache_store, sweep, cached[h])
        if loaded is None:
            to_run.append((idx, spec))
            continue
        if cache_store is not None and h not in cache_done:
            # Resume-loaded rows seed the cache too: "completed
            # anywhere" includes completed before the cache existed.
            # Traces ride along (via the same adopt path), so later
            # keep_traces studies can hit these rows as well.
            _adopt_row(sweep if sweep is not None else resume_store,
                       cache_store, loaded)
            cache_done.add(h)
        slots[idx] = loaded

    runner: Callable[[ScenarioSpec], ScenarioResult] = run_scenario
    if sweep is not None:
        sweep.write_manifest(specs)
        if keep_traces:
            runner = functools.partial(
                run_scenario,
                trace_dir=sweep.traces_dir,
                spill_dir=sweep.tmp_dir,
                trace_chunk_size=trace_chunk_size,
            )

    sinks: list[Callable[[ScenarioResult], None]] = []
    if sweep is not None:
        sinks.append(sweep.write_result)
    if cache_store is not None:
        def _cache_write(r: ScenarioResult) -> None:
            # Write-back: the scenario is now "completed somewhere",
            # so every later study sharing this cache skips it.  Kept
            # traces ride along (copied atomically, trace_path
            # re-pointed into the cache) so keep_traces runs hit too.
            if r.error is not None:
                return  # failures never count as completed work
            if sweep is not None:
                _adopt_row(sweep, cache_store, r)
            else:
                cache_store.write_result(r)
        sinks.append(_cache_write)

    def _fanout(r: ScenarioResult) -> None:
        for sink in sinks:
            sink(r)

    on_result = _fanout if sinks else None
    if chosen != "serial" and len(to_run) <= 1:
        chosen = "serial"
    slots.update(
        _execute_specs(
            to_run, runner, chosen, workers, on_result,
            chunk_size=chunk_size, batch=batch and not keep_traces,
        )
    )

    # Seal any in-flight append-log rows into packed batches now that
    # the sweep is done — readers work either way, but sealed stores
    # digest/merge at full columnar speed.
    for store in (sweep, cache_store):
        if store is not None:
            store.flush()

    fleet = FleetResult(
        results=tuple(slots[i] for i in range(len(specs))),
        wall_time=time.perf_counter() - t0,
        executor=chosen,
        max_workers=workers,
    )
    if sweep is not None:
        sweep.write_fleet(fleet)
    return fleet
