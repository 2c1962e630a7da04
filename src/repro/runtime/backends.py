"""The pluggable execution layer: one solver definition, every engine.

The paper's central claim is that one asynchronous iteration scheme
(Definition 1) describes runs on very different machines — a
mathematical ``(S, L)`` model, a simulated distributed machine, and
real lock-free shared memory.  This module makes that claim executable
as architecture: an :class:`ExecutionBackend` receives one uniform
:class:`ExecutionRequest` (operator, initial point, steering/delay
models or a machine description, stopping rule) and returns one uniform
:class:`BackendRunResult` carrying the realized
:class:`~repro.core.trace.IterationTrace` — whatever substrate actually
executed the iterations.

Built-in backends:

``exact`` / ``flexible``
    The mathematical engine
    (:class:`~repro.core.async_iteration.AsyncIterationEngine`):
    ``S`` and ``L`` are *prescribed* models, global iterations are
    serialization points.  ``exact`` runs Definition 1; ``flexible``
    runs Definition 3, handing the engine a partial-update model.
``vectorized`` / ``reference``
    The event-driven machine simulators — the production engine and the
    frozen seed oracle — where ``(S, L)`` is *induced* by simulated
    processor/channel physics.  The fleet batches groups of these
    specs whose machine entry states ``shared`` (deterministic timing)
    through :mod:`repro.runtime.simulator.batched`, bit-identical to
    these loops; :func:`~repro.runtime.simulator.batched.batchable`
    decides from the spec, and no backend name selects it.
``shared-memory``
    Real Hogwild-style threads on a shared NumPy iterate
    (:class:`~repro.runtime.shared_memory.SharedMemoryAsyncRunner`),
    where ``(S, L)`` is induced by actual hardware scheduling.

Backends self-describe via ``kind`` (``"model"`` needs steering+delays,
``"machine"`` runs on a processor/channel description) so the scenario
layer, :func:`repro.solve`, the fleet runner and the
``python -m repro sweep --backend`` CLI can validate and dispatch from
one registry — a new engine (processes, GPU, remote workers) is a
~50-line :func:`register_backend` plugin instead of a fourth fork of
the solver stack.  The registry holds only these engines: the modern
comparators (ARock [32], DAve-PG [30]) run their own loops in
:mod:`repro.solvers`, which this module never imports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from repro.core.async_iteration import AsyncIterationEngine
from repro.core.flexible import InterpolatedPartials, PartialUpdateModel
from repro.core.replay import TraceReplayDelays, TraceReplaySteering
from repro.core.trace import IterationTrace, save_trace
from repro.delays.base import DelayModel
from repro.operators.base import FixedPointOperator
from repro.runtime.shared_memory import SharedMemoryAsyncRunner
from repro.runtime.simulator.engine import DistributedSimulator
from repro.runtime.simulator.reference import ReferenceSimulator
from repro.steering.base import SteeringPolicy
from repro.utils.rng import as_generator

__all__ = [
    "BackendRunResult",
    "ExecutionBackend",
    "ExecutionRequest",
    "available_backends",
    "backend_kind",
    "default_backend",
    "get_backend",
    "register_backend",
    "replay_trace",
    "BACKEND_KINDS",
]

#: Valid backend kinds: prescribed-(S,L) engines and machine substrates.
BACKEND_KINDS = ("model", "machine")


@dataclass
class ExecutionRequest:
    """Everything an execution backend may need for one run.

    ``model``-kind backends consume ``steering``/``delays``;
    ``machine``-kind backends consume ``processors``/``channels``.
    Unused fields are simply ignored, so one request type serves every
    engine.

    Attributes
    ----------
    operator:
        The fixed-point map ``F``.
    x0:
        Initial iterate.
    max_iterations:
        Iteration budget (interpreted as the update budget by the
        shared-memory backend).
    tol:
        Stopping tolerance on the backend's residual.
    steering, delays:
        The prescribed ``S`` and ``L`` models (``model`` kind).
    processors, channels:
        The machine description (``machine`` kind); ``channels`` takes
        whatever the simulator constructor accepts.
    seed:
        Entropy for backend-internal randomness (simulator streams,
        default partial models).
    faults:
        Optional :class:`~repro.runtime.simulator.faults.FaultModel`
        injected into simulator backends (``machine`` kind); ``None``
        keeps the fault-free fast path.  The shared-memory backend
        rejects it — real threads cannot honor simulated crash
        schedules.
    reference:
        Known fixed point for error tracking; ``None`` falls back to
        ``operator.fixed_point()`` where supported.
    options:
        Backend-specific extras: ``residual_every``, ``track_errors``
        and ``track_residuals`` (model kind), ``partials``
        (``flexible``), ``record_messages`` (simulators), ``n_workers``
        and ``record_trace`` (``shared-memory``).  Two trace options
        hold for every backend: ``trace_sink`` hands the engine the
        sink to record into (a :class:`~repro.core.trace.TraceStore`
        or any object with its sink interface), and ``trace_path``
        saves the returned trace there as one ``.npz``
        (:func:`~repro.core.trace.save_trace`).
    """

    operator: FixedPointOperator
    x0: np.ndarray
    max_iterations: int = 10_000
    tol: float = 1e-10
    steering: SteeringPolicy | None = None
    delays: DelayModel | None = None
    processors: Sequence[Any] | None = None
    channels: Any = None
    seed: Any = 0
    faults: Any = None
    reference: np.ndarray | None = None
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BackendRunResult:
    """Uniform outcome of any backend execution.

    Attributes
    ----------
    x:
        Final iterate.
    trace:
        Realized :class:`~repro.core.trace.IterationTrace` (``None``
        when the backend cannot produce one); also saved to
        ``options["trace_path"]`` when the request names one.
    converged:
        Whether the stopping tolerance was reached within budget.
    iterations:
        Global iterations performed (component updates for the
        shared-memory backend).
    final_residual:
        Backend's optimality measure at ``x``.
    final_time:
        Simulated time (simulators), wall-clock seconds (shared
        memory), or ``None`` for pure-math engines.
    stats:
        Backend-specific counters (message stats, constraint audits,
        per-worker updates...).
    raw:
        The backend-native result object, for analyses that need more
        than the uniform surface.
    """

    x: np.ndarray
    trace: IterationTrace | None
    converged: bool
    iterations: int
    final_residual: float
    final_time: float | None = None
    stats: dict[str, Any] = field(default_factory=dict)
    raw: Any = None


class ExecutionBackend(abc.ABC):
    """One way of executing an asynchronous iteration to completion.

    Subclasses set ``name`` and ``kind`` and implement
    :meth:`execute`; registering them with :func:`register_backend`
    makes them reachable from solvers, scenario specs, the fleet and
    the CLI by name.  ``requires`` names the request fields the backend
    cannot run without (checked by :meth:`validate`).
    """

    name: ClassVar[str]
    kind: ClassVar[str]
    requires: ClassVar[tuple[str, ...]] = ()

    def validate(self, request: ExecutionRequest) -> None:
        """Raise ``ValueError`` when the request misses a required field."""
        for field_name in self.requires:
            if getattr(request, field_name) is None:
                raise ValueError(
                    f"backend {self.name!r} requires {field_name!r} on the request"
                )

    @abc.abstractmethod
    def execute(self, request: ExecutionRequest) -> BackendRunResult:
        """Run the iteration described by ``request`` to completion."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} kind={self.kind!r}>"


def _saved(request: ExecutionRequest, trace: IterationTrace | None) -> IterationTrace | None:
    """``trace``, first saved to ``options["trace_path"]`` when the request names one."""
    path = request.options.get("trace_path")
    if trace is not None and path is not None:
        save_trace(path, trace)
    return trace


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, ExecutionBackend] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Class decorator: instantiate and register an execution backend.

    The backend class must define ``name`` and a ``kind`` from
    :data:`BACKEND_KINDS` and be constructible without arguments.
    Re-registering a name replaces the previous entry (latest wins), so
    plugins can shadow built-ins deliberately.
    """
    name = getattr(cls, "name", None)
    kind = getattr(cls, "kind", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"backend class {cls.__name__} must define a nonempty name")
    if kind not in BACKEND_KINDS:
        raise ValueError(
            f"backend {name!r} has kind {kind!r}; must be one of {BACKEND_KINDS}"
        )
    _REGISTRY[name] = cls()
    return cls


def get_backend(name: str) -> ExecutionBackend:
    """Look up a registered execution backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        from repro.utils.naming import unknown_name_message

        raise KeyError(unknown_name_message("backend", name, sorted(_REGISTRY))) from None


def available_backends(kind: str | None = None) -> tuple[str, ...]:
    """Registered backend names, optionally filtered by kind."""
    if kind is not None and kind not in BACKEND_KINDS:
        raise KeyError(f"unknown backend kind {kind!r}; choose from {BACKEND_KINDS}")
    return tuple(
        sorted(n for n, b in _REGISTRY.items() if kind is None or b.kind == kind)
    )


def backend_kind(name: str) -> str:
    """The kind (``model``/``machine``) of a registered backend."""
    return get_backend(name).kind


def default_backend(kind: str) -> str:
    """The canonical backend of one kind (``model`` -> exact engine...)."""
    defaults = {"model": "exact", "machine": "vectorized"}
    try:
        return defaults[kind]
    except KeyError:
        raise KeyError(f"unknown backend kind {kind!r}; choose from {BACKEND_KINDS}") from None


# ----------------------------------------------------------------------
# Model-kind backends: prescribed (S, L)
# ----------------------------------------------------------------------

@register_backend
class ExactBackend(ExecutionBackend):
    """Definition 1 executed exactly by the mathematical engine.

    :class:`FlexibleBackend` reuses :meth:`execute` and differs only
    in the partial-update model it hands the engine (:meth:`_partials`).
    """

    name = "exact"
    kind = "model"
    requires = ("operator", "steering", "delays")

    def _partials(self, request: ExecutionRequest) -> PartialUpdateModel | None:
        """The engine's partial-update model; ``None`` runs Definition 1."""
        return None

    def execute(self, request: ExecutionRequest) -> BackendRunResult:
        self.validate(request)
        opts = request.options
        engine = AsyncIterationEngine(
            request.operator,
            request.steering,
            request.delays,
            self._partials(request),
            reference=request.reference,
            residual_every=int(opts.get("residual_every", 1)),
        )
        res = engine.run(
            request.x0,
            max_iterations=request.max_iterations,
            tol=request.tol,
            track_errors=bool(opts.get("track_errors", True)),
            track_residuals=bool(opts.get("track_residuals", True)),
            sink=opts.get("trace_sink"),
        )
        stats: dict[str, Any] = {}
        if engine.partials is not None:
            stats = {
                "constraint_checks": res.constraint_checks,
                "constraint_violations": res.constraint_violations,
                "worst_constraint_ratio": res.worst_constraint_ratio,
            }
        return BackendRunResult(
            x=res.x,
            trace=_saved(request, res.trace),
            converged=res.converged,
            iterations=res.iterations,
            final_residual=res.final_residual,
            final_time=None,
            stats=stats,
            raw=res,
        )


@register_backend
class FlexibleBackend(ExactBackend):
    """Definition 3: the same engine, fed partial updates ``x~(j)``.

    The model is ``options["partials"]``, else interpolated partials
    drawn from ``request.seed``; the result's ``stats`` carry the
    constraint-(3) audit.
    """

    name = "flexible"

    def _partials(self, request: ExecutionRequest) -> PartialUpdateModel:
        partials = request.options.get("partials")
        if partials is None:
            partials = InterpolatedPartials(seed=as_generator(request.seed))
        return partials


# ----------------------------------------------------------------------
# Machine-kind backends: (S, L) induced by a substrate
# ----------------------------------------------------------------------

class _SimulatorBackend(ExecutionBackend):
    """Shared implementation of the two event-driven simulator backends."""

    kind = "machine"
    requires = ("operator", "processors")
    sim_cls: ClassVar[type]

    def execute(self, request: ExecutionRequest) -> BackendRunResult:
        self.validate(request)
        opts = request.options
        sim = self.sim_cls(
            request.operator,
            list(request.processors),
            channels=request.channels,
            reference=request.reference,
            seed=request.seed,
            faults=request.faults,
        )
        record_messages = bool(opts.get("record_messages", True))
        res = sim.run(
            request.x0,
            max_iterations=request.max_iterations,
            tol=request.tol,
            record_messages=record_messages,
            sink=opts.get("trace_sink"),
        )
        stats: dict[str, Any] = dict(res.stats)
        if record_messages:
            stats["message_stats"] = res.message_stats()
        return BackendRunResult(
            x=res.x,
            trace=_saved(request, res.trace),
            converged=res.converged,
            iterations=res.trace.n_iterations,
            final_residual=res.final_residual,
            final_time=res.final_time,
            stats=stats,
            raw=res,
        )


@register_backend
class VectorizedSimulatorBackend(_SimulatorBackend):
    """The production event loop (vectorized scatters, burst batching)."""

    name = "vectorized"
    sim_cls = DistributedSimulator


@register_backend
class ReferenceSimulatorBackend(_SimulatorBackend):
    """The frozen seed event loop — the behavioural oracle."""

    name = "reference"
    sim_cls = ReferenceSimulator


@register_backend
class SharedMemoryBackend(ExecutionBackend):
    """Real Hogwild-style threads on a shared NumPy iterate.

    ``max_iterations`` is the total component-update budget.  The
    worker count comes from ``options["n_workers"]``, falling back to
    the processor count when a machine description is attached to the
    request (so machine archetypes keep their meaning: only the
    processor *count* survives the trip to real threads), then to 4.
    The realized ``(S, L)`` trace is recorded from the actual commit
    order of the threads — genuinely hardware-induced steering and
    delays.
    """

    name = "shared-memory"
    kind = "machine"
    requires = ("operator",)

    def execute(self, request: ExecutionRequest) -> BackendRunResult:
        self.validate(request)
        if request.faults is not None:
            raise ValueError(
                "the shared-memory backend runs real threads and cannot "
                "honor a simulated fault model; use a simulator backend "
                "(vectorized/reference) for fault scenarios"
            )
        opts = request.options
        n_workers = opts.get("n_workers")
        if n_workers is None:
            n_workers = len(request.processors) if request.processors else 4
        n_workers = max(1, min(int(n_workers), request.operator.n_components))
        runner = SharedMemoryAsyncRunner(request.operator, n_workers=n_workers)
        res = runner.run(
            request.x0,
            max_updates=request.max_iterations,
            tol=request.tol,
            record_trace=bool(opts.get("record_trace", True)),
            sink=opts.get("trace_sink"),
        )
        return BackendRunResult(
            x=res.x,
            trace=_saved(request, res.trace),
            converged=res.converged,
            iterations=res.total_updates,
            final_residual=res.final_residual,
            final_time=res.wall_time,
            stats={
                "total_updates": res.total_updates,
                "updates_per_worker": dict(res.updates_per_worker),
                "n_workers": n_workers,
                "residual_samples": len(res.residual_history),
            },
            raw=res,
        )


# ----------------------------------------------------------------------
# Trace replay: run a realized (S, L) through any model-kind backend
# ----------------------------------------------------------------------

def replay_trace(
    operator: FixedPointOperator,
    trace: IterationTrace,
    x0: np.ndarray,
    *,
    backend: str = "exact",
    options: Mapping[str, Any] | None = None,
) -> BackendRunResult:
    """Re-execute a realized ``(S, L)`` trace through a model backend.

    This is the cross-backend bridge the paper's Definition 1 promises:
    a trace produced by *any* substrate (simulated machine, real
    threads) is replayed as a prescribed-(S, L) run.  For substrates
    whose update semantics coincide with Definition 1 (one component
    per processor, single inner step) the replayed iterates are
    bit-identical to the original run — enforced by
    ``tests/runtime/test_backends.py`` and the determinism suite.
    """
    opts: dict[str, Any] = {"track_errors": False, "track_residuals": False}
    if options:
        opts.update(options)
    request = ExecutionRequest(
        operator=operator,
        x0=x0,
        max_iterations=trace.n_iterations,
        tol=0.0,
        steering=TraceReplaySteering(trace),
        delays=TraceReplayDelays(trace),
        options=opts,
    )
    chosen = get_backend(backend)
    if chosen.kind != "model":
        raise ValueError(
            f"replay needs a model-kind backend, got {backend!r} ({chosen.kind})"
        )
    return chosen.execute(request)
