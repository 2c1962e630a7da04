"""The Study front door: one object from solve to sweep to report.

:class:`Study` wraps a validated
:class:`~repro.api.config.StudyConfig` and compiles it onto the
existing machinery — ``config.to_grid()`` →
:func:`repro.runtime.fleet.run_grid` (with a
:class:`~repro.runtime.sweep_store.SweepStore` when the config asks
for persistence) — so the declarative layer adds no second execution
path; it *is* the fleet, reachable from one object and one file
format.  :class:`StudyResult` bundles the outcome: the typed
:class:`~repro.runtime.fleet.FleetResult`, the store handle, the
determinism digest, and lazy analysis accessors.

Module-level conveniences are the public one-liners re-exported at the
package root:

* :func:`solve` — one scenario, returning the final iterate;
* :func:`sweep` — build a config from keywords and run it;
* :func:`load_study` — a :class:`Study` from a ``.toml``/``.json`` file.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.api.config import StudyConfig
from repro.api.toml_io import load_study_file
from repro.runtime.fleet import (
    FleetResult,
    ScenarioResult,
    execute_scenario,
    run_grid,
)
from repro.runtime.sweep_store import SweepStore
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SolveOutcome",
    "Study",
    "StudyResult",
    "load_study",
    "solve",
    "sweep",
]

#: Backend aliases accepted by :func:`solve`: a scenario *kind* stands
#: for that kind's default execution backend.
_KIND_ALIASES = ("engine", "simulator")

#: Distinguishes "no title argument" from an explicit ``title=None``.
_DEFAULT_TITLE = object()


# ----------------------------------------------------------------------
# solve: one scenario, full outcome
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SolveOutcome:
    """Everything one :func:`solve` call produced.

    The scalar summary (``converged``, ``iterations``, ...) delegates
    to the underlying :class:`~repro.runtime.fleet.ScenarioResult`;
    ``x`` is the final iterate and ``trace`` the realized ``(S, L)``
    iteration trace (when the backend records one).
    """

    result: ScenarioResult
    x: np.ndarray
    trace: Any = None
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def spec(self) -> ScenarioSpec:
        return self.result.spec

    @property
    def key(self) -> str:
        return self.result.key

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def iterations(self) -> int:
        return self.result.iterations

    @property
    def final_residual(self) -> float:
        return self.result.final_residual

    @property
    def final_error(self) -> "float | None":
        return self.result.final_error

    @property
    def sim_time(self) -> "float | None":
        return self.result.sim_time

    def __repr__(self) -> str:
        return (
            f"SolveOutcome(key={self.key!r}, converged={self.converged}, "
            f"iterations={self.iterations}, final_residual={self.final_residual:.3e})"
        )


def _resolve_solve_backend(backend: "str | None") -> tuple[str, "str | None"]:
    """``backend`` -> ``(scenario kind, backend name or None)``.

    Accepts a registered ``model``/``machine`` execution-backend name
    (kind derived from the registry), a kind alias
    (``"engine"``/``"simulator"`` meaning "that kind's default
    backend"), or ``None`` (engine default).
    """
    if backend is None:
        return "engine", None
    if backend in _KIND_ALIASES:
        return backend, None
    from repro.runtime import backends as _backends

    kind = _backends.backend_kind(backend)  # KeyError with did-you-mean
    if kind == "algorithm":
        raise ValueError(
            f"backend {backend!r} is an algorithm-kind comparator and runs "
            f"through its solver class (see repro.solvers), not solve(); "
            f"solve() takes model backends "
            f"({', '.join(_backends.available_backends('model'))}) or machine "
            f"backends ({', '.join(_backends.available_backends('machine'))})"
        )
    return ("engine" if kind == "model" else "simulator"), backend


def solve(
    problem: Any,
    *,
    backend: "str | None" = None,
    steering: Any = "cyclic",
    delays: Any = "zero",
    machine: Any = "uniform",
    seed: int = 0,
    max_iterations: int = 2000,
    tol: float = 1e-8,
    **problem_params: Any,
) -> SolveOutcome:
    """Solve one registered problem through any execution backend.

    ``problem`` is a registry name (``repro.solve("lasso", ...)``);
    extra keyword arguments are passed to its factory.  ``backend`` is
    a ``model``- or ``machine``-kind execution-backend name
    (``"exact"``, ``"vectorized"``, ``"shared-memory"``, ...) or the
    alias ``"engine"``/``"simulator"`` for the kind's default;
    algorithm-kind comparators (``arock``, ``dave-pg``) run through
    their solver classes instead.  Engine runs use ``steering``/``delays``;
    simulator runs use ``machine`` — each accepts a name or a
    ``(name, params)`` pair, validated eagerly with did-you-mean
    suggestions.  Raises on scenario errors (unlike the fleet, which
    records them).

    >>> solve("jacobi", seed=0).converged
    True
    """
    from repro.api.config import DelayRef, MachineRef, ProblemRef, SteeringRef

    kind, backend_name = _resolve_solve_backend(backend)
    prob = ProblemRef.coerce(problem)
    if problem_params:  # re-validate the merged params eagerly
        prob = ProblemRef(prob.name, {**prob.params, **problem_params})
    steer = SteeringRef.coerce(steering)
    delay = DelayRef.coerce(delays)
    mach = MachineRef.coerce(machine)
    spec = ScenarioSpec(
        problem=prob.name,
        kind=kind,
        problem_params=dict(prob.params),
        steering=steer.name,
        steering_params=steer.params,
        delays=delay.name,
        delay_params=delay.params,
        machine=mach.name,
        machine_params=mach.params,
        backend=backend_name,
        seed=seed,
        max_iterations=max_iterations,
        tol=tol,
    )
    summary, run = execute_scenario(spec)
    return SolveOutcome(result=summary, x=run.x, trace=run.trace, stats=dict(run.stats))


# ----------------------------------------------------------------------
# Study and StudyResult
# ----------------------------------------------------------------------

class Study:
    """A declarative study, ready to run, resume, or inspect.

    Construct from a :class:`~repro.api.config.StudyConfig` (or a
    mapping coerced into one), or load a study file with
    :meth:`from_file`/:func:`load_study`.  The config validates at
    construction; :meth:`run` executes it through the fleet.
    """

    def __init__(self, config: "StudyConfig | Mapping[str, Any]") -> None:
        if not isinstance(config, StudyConfig):
            config = StudyConfig.from_dict(config)
        self.config = config

    @classmethod
    def from_file(cls, path: "str | pathlib.Path") -> "Study":
        """Load a study from a ``.toml`` or ``.json`` file."""
        return cls(StudyConfig.from_dict(load_study_file(path)))

    # -- introspection -------------------------------------------------
    @property
    def name(self) -> str:
        return self.config.name

    def specs(self) -> tuple[ScenarioSpec, ...]:
        return self.config.specs()

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"<Study {cfg.name!r} kind={cfg.kind} scenarios={cfg.size} "
            f"hash={cfg.content_hash}>"
        )

    def shard_specs(self, shard: "tuple[int, int] | None") -> tuple[ScenarioSpec, ...]:
        """The specs this host runs: all of them, or one grid shard.

        ``shard`` is ``(index, num_shards)`` with a 0-based index; the
        split is the content-hash-stable, seed-preserving
        :meth:`~repro.scenarios.spec.ScenarioGrid.shard`.
        """
        if shard is None:
            return self.specs()
        index, num_shards = shard
        return self.config.to_grid().shard(num_shards, index)

    # -- execution -----------------------------------------------------
    def run(
        self,
        *,
        out: "str | pathlib.Path | None" = None,
        resume: "bool | None" = None,
        keep_traces: "bool | None" = None,
        executor: "str | None" = None,
        max_workers: "int | None" = None,
        chunk_size: "int | str | None" = None,
        batch: "bool | None" = None,
        cache: Any = None,
        shard: "tuple[int, int] | None" = None,
    ) -> "StudyResult":
        """Execute the study's scenario grid through the fleet.

        Keyword overrides win over the config's ``store``/``execution``
        sections (``None`` keeps the config's value).  With an ``out``
        directory the run streams into a
        :class:`~repro.runtime.sweep_store.SweepStore` as workers
        finish; ``resume=True`` additionally requires the store to
        exist and re-executes only the scenarios it is missing —
        bit-identical to an uninterrupted run.

        ``shard=(index, num_shards)`` runs only that content-hash-stable
        slice of the grid (each host gets its own ``out`` store;
        recombine with :meth:`~repro.runtime.sweep_store.SweepStore.merge`).
        ``cache`` overrides the config's ``execution.cache_dir``
        (``False`` disables caching even when the config or the
        ``REPRO_SWEEP_CACHE`` environment variable names one).
        ``batch`` overrides ``execution.batch``: homogeneous spec
        groups run through the scenario-batched lockstep engine by
        default — a pure throughput change, bit-identical results —
        and ``False`` restores one solo call per scenario.
        """
        cfg = self.config
        out = str(out) if out is not None else cfg.store.out
        do_resume = cfg.store.resume if resume is None else bool(resume)
        keep = cfg.store.keep_traces if keep_traces is None else bool(keep_traces)
        chosen_executor = executor if executor is not None else cfg.execution.executor
        workers = max_workers if max_workers is not None else cfg.execution.max_workers
        chunks = chunk_size if chunk_size is not None else cfg.execution.chunk_size
        do_batch = cfg.execution.batch if batch is None else bool(batch)
        if cache is None:
            cache = cfg.execution.cache_dir

        specs = self.shard_specs(shard)
        store: SweepStore | None = None
        if out is not None:
            # Resuming demands an existing store: a typo'd path must
            # error, not silently re-run the whole study.
            store = SweepStore(out, create=not do_resume)
        else:
            if keep:
                raise ValueError("keep_traces requires an out directory")
            if do_resume:
                raise ValueError("resume requires an out directory")
        fleet = run_grid(
            specs,
            store=store,
            resume=store if do_resume else None,
            cache=cache,
            keep_traces=keep,
            executor=chosen_executor,
            max_workers=workers,
            chunk_size=chunks,
            batch=do_batch,
        )
        return StudyResult(config=cfg, fleet=fleet, store=store)

    def resume(self, *, out: "str | pathlib.Path | None" = None, **kwargs: Any) -> "StudyResult":
        """:meth:`run` with ``resume=True`` (store must already exist)."""
        return self.run(out=out, resume=True, **kwargs)

    def result(self, out: "str | pathlib.Path | None" = None) -> "StudyResult":
        """A :class:`StudyResult` over an existing store, without running.

        Reads whatever the store has completed so far (possibly a
        partial, still-running sweep) — the ``study report`` verb.
        """
        path = str(out) if out is not None else self.config.store.out
        if path is None:
            raise ValueError("no store directory: pass out= or set [store] out")
        store = SweepStore(path, create=False)
        # Lazy view: reporting on a million-row store streams rows shard
        # by shard instead of materializing every ScenarioResult.
        return StudyResult(config=self.config, fleet=store.fleet_view(), store=store)


class StudyResult:
    """Outcome bundle of one study run: results, store, analysis.

    Wraps the :class:`~repro.runtime.fleet.FleetResult` (``.fleet``),
    the :class:`~repro.runtime.sweep_store.SweepStore` handle when the
    run persisted (``.store``), and the config that produced them.
    Analysis accessors are lazy: nothing is computed until asked.
    """

    def __init__(
        self,
        *,
        config: StudyConfig,
        fleet: "FleetResult | Any",
        store: "SweepStore | None" = None,
    ) -> None:
        # ``fleet`` is either the run's typed FleetResult or, for
        # report-over-store (Study.result), a lazy StoreFleetView with
        # the same aggregate surface.
        self.config = config
        self.fleet = fleet
        self.store = store
        self._rates: dict[int, dict[str, Any]] = {}

    # -- delegation ----------------------------------------------------
    @property
    def results(self) -> "Sequence[ScenarioResult]":
        return self.fleet.results

    def ok(self) -> "Sequence[ScenarioResult]":
        return self.fleet.ok()

    def failures(self) -> tuple[ScenarioResult, ...]:
        return self.fleet.failures()

    @property
    def scenario_count(self) -> int:
        return self.fleet.scenario_count

    def digest(self) -> str:
        """The determinism certificate of this run.

        Computed from the in-memory fleet; for persisted runs it equals
        ``store.digest()`` (same algorithm, same rows), which is what
        makes ``study resume`` verifiable against an uninterrupted run.
        """
        return self.fleet.digest()

    # -- lazy analysis -------------------------------------------------
    def rates(self, *, skip: int = 0) -> "dict[str, Any]":
        """Per-scenario geometric convergence-rate fits (lazy, cached).

        Requires persisted traces (a run with ``keep_traces``); returns
        ``{scenario key: RateFit}`` for every scenario whose residual
        trace is in the store.  Cached per ``skip`` value.
        """
        if skip in self._rates:
            return self._rates[skip]
        if self.store is None:
            raise RuntimeError(
                "rates() needs persisted traces: run the study with an out "
                "directory and keep_traces=True"
            )
        from repro.analysis.rates import rates_from_store

        fits: dict[str, Any] = rates_from_store(self.store, skip=skip)
        if not fits:
            raise RuntimeError(
                "no persisted traces in the store: run with keep_traces=True"
            )
        self._rates[skip] = fits
        return fits

    def backend_comparison(
        self,
        *,
        metric: "str | None" = None,
        group_by: "Sequence[str] | None" = None,
    ) -> "tuple[list[str], list[list[Any]]]":
        """Headers and rows of the cross-backend pivot (lazy)."""
        from repro.analysis.fleet import backend_comparison_rows

        if group_by is None:
            group_by = self.config.report.group_by or (
                ("problem", "delays") if self.config.kind == "engine"
                else ("problem", "machine")
            )
            group_by = tuple(g for g in group_by if g != "backend")
        return backend_comparison_rows(
            self.fleet,
            metric=metric or self.config.report.backend_metric,
            group_by=group_by,
        )

    def report(self, *, title: Any = _DEFAULT_TITLE) -> str:
        """The paper-style text report of this study (lazy).

        ``title`` defaults to ``study '<name>'``; pass ``title=None``
        for an untitled table (the CLI's style).
        """
        from repro.analysis.fleet import render_study_report

        if title is _DEFAULT_TITLE:
            title = f"study {self.config.name!r}"
        return render_study_report(
            self.fleet,
            kind=self.config.kind,
            group_by=self.config.report.group_by or None,
            metrics=self.config.report.metrics or None,
            backend_metric=self.config.report.backend_metric,
            title=title,
        )

    def print_report(self) -> None:  # pragma: no cover - console sugar
        sys.stdout.write(self.report() + "\n")

    def __repr__(self) -> str:
        where = f" store={str(self.store.root)!r}" if self.store is not None else ""
        return (
            f"<StudyResult {self.config.name!r} scenarios={self.scenario_count} "
            f"failures={len(self.failures())}{where}>"
        )


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------

def sweep(
    problems: "Sequence[Any] | str",
    *,
    name: str = "sweep",
    kind: "str | None" = None,
    backends: "Sequence[str] | str | None" = None,
    steerings: Sequence[Any] = ("cyclic",),
    delays: Sequence[Any] = ("zero",),
    machines: Sequence[Any] = ("uniform",),
    faults: Sequence[Any] = ("none",),
    topologies: Sequence[Any] = ("native",),
    n_seeds: int = 3,
    master_seed: int = 0,
    max_iterations: int = 2000,
    tol: float = 1e-8,
    out: "str | pathlib.Path | None" = None,
    resume: bool = False,
    keep_traces: bool = False,
    executor: str = "auto",
    max_workers: "int | None" = None,
    chunk_size: "int | str" = "auto",
    batch: bool = True,
    cache: "str | pathlib.Path | None" = None,
) -> StudyResult:
    """Build a :class:`StudyConfig` from keywords and run it.

    The keyword surface mirrors the ``python -m repro sweep`` flags;
    the CLI is a thin shim over exactly this path.  ``kind`` defaults
    to whatever the ``backends`` imply (engine when unspecified).
    ``cache`` names a cross-study result cache directory (default:
    the ``REPRO_SWEEP_CACHE`` environment variable).
    """
    from repro.api.config import (
        ExecutionSpec,
        SolverRef,
        StoreSpec,
        infer_kind,
    )

    if isinstance(backends, str):
        backends = (backends,)
    backends = tuple(backends) if backends else ()
    config = StudyConfig(
        name=name,
        problems=problems,
        solver=SolverRef(
            kind=infer_kind(backends, kind),
            backends=backends,
            max_iterations=max_iterations,
            tol=tol,
        ),
        steerings=tuple(steerings),
        delays=tuple(delays),
        machines=tuple(machines),
        faults=tuple(faults),
        topologies=tuple(topologies),
        n_seeds=n_seeds,
        master_seed=master_seed,
        store=StoreSpec(
            out=None if out is None else str(out),
            resume=resume,
            keep_traces=keep_traces,
        ),
        execution=ExecutionSpec(
            executor=executor,
            max_workers=max_workers,
            chunk_size=chunk_size,
            batch=batch,
            cache_dir=None if cache is None else str(cache),
        ),
    )
    return Study(config).run()


def load_study(path: "str | pathlib.Path") -> Study:
    """Load a declarative study from a ``.toml`` or ``.json`` file."""
    return Study.from_file(path)
