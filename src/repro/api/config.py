"""Declarative study configuration: the one file format for everything.

A :class:`StudyConfig` pins down a complete experiment campaign —
which problems (:class:`ProblemRef`), how to execute them
(:class:`SolverRef`: scenario kind, execution backends, budget), the
grid axes (steering × delays | machines × seeds), where results stream
(:class:`StoreSpec`), and how they are summarized
(:class:`ReportSpec`).  Everything is a frozen dataclass of plain data
that validates **eagerly** against the unified registries
(:mod:`repro.scenarios.registry` for ingredients,
:mod:`repro.runtime.backends` for engines): a typo'd name or parameter
fails at construction with a did-you-mean message, never inside a
worker process an hour into a sweep.

Serialization round-trips bit-identically through
``to_dict``/``from_dict``, JSON and TOML, reusing the scenario layer's
canonicalization (:func:`repro.scenarios.spec._canon` — the same
machinery that content-addresses :class:`ScenarioSpec`), so
:attr:`StudyConfig.content_hash` is stable across live objects, study
files on disk, and reloads.  :meth:`StudyConfig.to_grid` compiles the
config into the :class:`~repro.scenarios.spec.ScenarioGrid` the fleet
executes — the Study layer adds no second execution path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, ClassVar, Mapping

from repro.api.toml_io import dumps_toml, loads_toml
from repro.runtime.fleet import METRIC_FIELDS
from repro.scenarios import registry
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec, _canon
from repro.utils.naming import unknown_name_message

__all__ = [
    "ComponentRef",
    "ProblemRef",
    "SteeringRef",
    "DelayRef",
    "MachineRef",
    "FaultRef",
    "TopologyRef",
    "SolverRef",
    "StoreSpec",
    "ReportSpec",
    "ExecutionSpec",
    "StudyConfig",
]

_KINDS = ("engine", "simulator")
_EXECUTORS = ("auto", "serial", "thread", "process")

#: ScenarioSpec fields a report may group by.
_GROUPABLE = ("problem", "kind", "steering", "delays", "machine", "fault",
              "topology", "backend", "seed", "max_iterations", "tol")


# ----------------------------------------------------------------------
# Ingredient references
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentRef:
    """A registry name plus parameter overrides, validated eagerly.

    Both the name and every parameter are checked against the unified
    registry's introspected signature at construction time, with
    did-you-mean suggestions on typos.  Subclasses pin the axis.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    AXIS: ClassVar[str] = ""

    def __post_init__(self) -> None:
        entry = registry.entry(self.AXIS, self.name)  # did-you-mean KeyError
        params = _canon(dict(self.params))
        for key in params:
            if key not in entry.defaults:
                raise ValueError(
                    unknown_name_message(
                        f"parameter for {self.AXIS} {self.name!r}",
                        key,
                        sorted(entry.defaults),
                    )
                )
        object.__setattr__(self, "params", params)

    @classmethod
    def coerce(cls, item: Any) -> "ComponentRef":
        """Accept ``"name"``, ``("name", params)``, ``{"name": ..}``, or a ref."""
        if isinstance(item, cls):
            return item
        if isinstance(item, str):
            return cls(item)
        if isinstance(item, Mapping):
            # A typo'd key ("parms") must not silently drop overrides.
            for key in item:
                if key not in ("name", "params"):
                    raise ValueError(
                        unknown_name_message(
                            f"{cls.AXIS} entry key", str(key), ("name", "params")
                        )
                    )
            if "name" not in item:
                raise ValueError(
                    f"{cls.AXIS} entry needs a 'name' key, got {sorted(item)}"
                )
            return cls(str(item["name"]), dict(item.get("params", {})))
        name, params = item
        return cls(str(name), dict(params))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    @property
    def axis_item(self) -> tuple[str, dict[str, Any]]:
        """The ``(name, params)`` pair :class:`ScenarioGrid` axes accept."""
        return (self.name, dict(self.params))


@dataclass(frozen=True)
class ProblemRef(ComponentRef):
    """A registered problem (operator factory) with overrides."""

    AXIS: ClassVar[str] = "problem"


@dataclass(frozen=True)
class SteeringRef(ComponentRef):
    """A registered steering policy with overrides."""

    AXIS: ClassVar[str] = "steering"


@dataclass(frozen=True)
class DelayRef(ComponentRef):
    """A registered delay model with overrides."""

    AXIS: ClassVar[str] = "delays"


@dataclass(frozen=True)
class MachineRef(ComponentRef):
    """A registered machine archetype with overrides."""

    AXIS: ClassVar[str] = "machine"


@dataclass(frozen=True)
class FaultRef(ComponentRef):
    """A registered fault model with overrides (simulator studies)."""

    AXIS: ClassVar[str] = "fault"


@dataclass(frozen=True)
class TopologyRef(ComponentRef):
    """A registered topology channel graph with overrides (simulator studies)."""

    AXIS: ClassVar[str] = "topology"


# ----------------------------------------------------------------------
# How to execute
# ----------------------------------------------------------------------

def infer_kind(backends: "tuple[str, ...]", kind: "str | None" = None) -> str:
    """Scenario kind implied by an execution-backend list.

    All-``model`` backends mean an engine study, all-``machine``
    backends a simulator study; no backends keep the engine default.
    Mixed or ``algorithm``-kind lists are not sweepable and raise.
    """
    if kind is not None:
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        return kind
    if not backends:
        return "engine"
    from repro.runtime import backends as _backends

    kinds = {_backends.backend_kind(b) for b in backends}
    if kinds == {"machine"}:
        return "simulator"
    if kinds == {"model"}:
        return "engine"
    if "algorithm" in kinds:
        raise ValueError(
            f"backends {list(backends)} include algorithm-kind comparators, "
            "which are not sweepable; use model backends (engine studies) or "
            "machine backends (simulator studies)"
        )
    raise ValueError(
        f"backends {list(backends)} mix kinds {sorted(kinds)}; "
        "a study needs all-model or all-machine backends"
    )


@dataclass(frozen=True)
class SolverRef:
    """How scenarios execute: kind, backend axis, and the shared budget.

    ``backends=()`` resolves eagerly to the kind's default backend
    (``exact`` for engine studies, ``vectorized`` for simulator
    studies), mirroring :class:`~repro.scenarios.spec.ScenarioSpec`,
    so a config that spelled the default out and one that omitted it
    hash identically.
    """

    kind: str = "engine"
    backends: tuple[str, ...] = ()
    max_iterations: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        backends = self.backends
        if isinstance(backends, str):
            backends = (backends,)
        backends = tuple(backends)
        # Validation (names, kind compatibility, did-you-mean) is the
        # scenario layer's _check_backend; reuse it via a throwaway
        # grid-normalization rather than duplicating the rules.
        from repro.scenarios.spec import _check_backend

        if not backends:
            backends = (_check_backend(None, self.kind),)
        else:
            backends = tuple(_check_backend(b, self.kind) for b in backends)
        if len(set(backends)) != len(backends):
            raise ValueError(f"duplicate backends: {backends}")
        object.__setattr__(self, "backends", backends)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "backends": list(self.backends),
            "max_iterations": int(self.max_iterations),
            "tol": float(self.tol),
        }


# ----------------------------------------------------------------------
# Where results go, how they are reported, how the fleet runs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StoreSpec:
    """Persistence options: sweep-store directory, resume, traces."""

    out: str | None = None
    resume: bool = False
    keep_traces: bool = False

    def __post_init__(self) -> None:
        if self.out is not None:
            object.__setattr__(self, "out", str(self.out))
        if self.keep_traces and self.out is None:
            raise ValueError("keep_traces requires an out directory")
        if self.resume and self.out is None:
            raise ValueError("resume requires an out directory")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "resume": bool(self.resume),
            "keep_traces": bool(self.keep_traces),
        }
        if self.out is not None:
            doc["out"] = self.out  # TOML has no null: omit when unset
        return doc


@dataclass(frozen=True)
class ReportSpec:
    """How a finished study renders: grouping, metrics, backend pivot.

    Empty ``group_by``/``metrics`` mean "kind-appropriate defaults"
    (resolved at render time, so the same config reports sensibly for
    engine and simulator studies).
    """

    group_by: tuple[str, ...] = ()
    metrics: tuple[str, ...] = ()
    backend_metric: str = "iterations"

    def __post_init__(self) -> None:
        object.__setattr__(self, "group_by", tuple(self.group_by))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        for name in self.group_by:
            if name not in _GROUPABLE:
                raise ValueError(
                    unknown_name_message("group-by field", name, _GROUPABLE)
                )
        for metric in (*self.metrics, self.backend_metric):
            if metric not in METRIC_FIELDS:
                raise ValueError(
                    unknown_name_message("metric", metric, METRIC_FIELDS)
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "group_by": list(self.group_by),
            "metrics": list(self.metrics),
            "backend_metric": self.backend_metric,
        }


@dataclass(frozen=True)
class ExecutionSpec:
    """Fleet execution knobs: executor, pool width, dispatch, cache.

    ``chunk_size`` controls how many scenarios ride in one dispatched
    pool task (``"auto"``: cost-balanced chunks, ~4 tasks per worker;
    ``1``: per-task dispatch).  ``batch`` routes homogeneous spec
    groups inside each chunk through the scenario-batched lockstep
    engine (on by default; ``False`` restores one solo call per
    scenario).  ``cache_dir`` names the cross-study result cache
    consulted by content hash before any scenario executes (``None``
    defers to the ``REPRO_SWEEP_CACHE`` environment variable at run
    time).  All of these change only *how fast* results arrive, never
    their bits, so none participates in defaults-only documents: they
    are omitted from :meth:`to_dict` when unset and old study files
    load unchanged.
    """

    executor: str = "auto"
    max_workers: int | None = None
    chunk_size: int | str = "auto"
    batch: bool = True
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        if self.executor not in _EXECUTORS:
            raise ValueError(
                unknown_name_message("executor", self.executor, _EXECUTORS)
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        from repro.runtime.fleet import _check_chunk_size

        _check_chunk_size(self.chunk_size)
        if not isinstance(self.batch, bool):
            raise ValueError(f"batch must be a bool, got {self.batch!r}")
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", str(self.cache_dir))

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"executor": self.executor}
        if self.max_workers is not None:
            doc["max_workers"] = int(self.max_workers)
        if self.chunk_size != "auto":
            doc["chunk_size"] = int(self.chunk_size)
        if not self.batch:
            doc["batch"] = False
        if self.cache_dir is not None:
            doc["cache_dir"] = self.cache_dir  # TOML has no null: omit when unset
        return doc


# ----------------------------------------------------------------------
# The study config
# ----------------------------------------------------------------------

def _section(cls: type, value: Any, name: str) -> Any:
    """A section given as a mapping -> a ``cls`` instance (else unchanged).

    Keys are checked against the dataclass fields first: a misspelled
    key in a hand-written study file fails as a did-you-mean
    ``ValueError`` naming the section, not as a constructor
    ``TypeError``.
    """
    if not isinstance(value, Mapping):
        return value
    known = [f.name for f in fields(cls)]
    for key in value:
        if key not in known:
            raise ValueError(unknown_name_message(f"{name} key", str(key), known))
    return cls(**value)


def _coerce_axis(items: Any, ref_cls: type[ComponentRef]) -> tuple[ComponentRef, ...]:
    if isinstance(items, (str, Mapping)) or (
        isinstance(items, tuple) and len(items) == 2 and isinstance(items[0], str)
        and isinstance(items[1], Mapping)
    ):
        items = (items,)
    out = tuple(ref_cls.coerce(item) for item in items)
    if not out:
        raise ValueError(f"axis {ref_cls.AXIS!r} must not be empty")
    return out


@dataclass(frozen=True)
class StudyConfig:
    """One declarative study: solve → sweep → store → report, as data.

    ``problems`` × (``delays`` × ``steerings`` | ``machines`` ×
    ``faults`` × ``topologies``) × ``solver.backends`` × ``n_seeds`` is
    the scenario grid :meth:`to_grid` compiles to; ``store`` and
    ``report`` describe what :meth:`repro.api.Study.run` does with the
    results.  Axis entries accept plain names, ``(name, params)``
    pairs, dicts, or ``*Ref`` objects — everything normalizes to refs
    at construction.  The ``faults``/``topologies`` axes apply to
    simulator studies only and default to the structural no-ops
    (``none``/``native``), under which they are omitted from the
    canonical document so pre-fault study files keep their content
    hashes.
    """

    problems: tuple[ProblemRef, ...]
    name: str = "study"
    solver: SolverRef = field(default_factory=SolverRef)
    steerings: tuple[SteeringRef, ...] = ("cyclic",)
    delays: tuple[DelayRef, ...] = ("zero",)
    machines: tuple[MachineRef, ...] = ("uniform",)
    faults: tuple[FaultRef, ...] = ("none",)
    topologies: tuple[TopologyRef, ...] = ("native",)
    n_seeds: int = 1
    master_seed: int = 0
    store: StoreSpec = field(default_factory=StoreSpec)
    report: ReportSpec = field(default_factory=ReportSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    FORMAT_VERSION: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"study name must be a nonempty string, got {self.name!r}")
        object.__setattr__(self, "solver", _section(SolverRef, self.solver, "solver"))
        object.__setattr__(self, "problems", _coerce_axis(self.problems, ProblemRef))
        object.__setattr__(self, "steerings", _coerce_axis(self.steerings, SteeringRef))
        object.__setattr__(self, "delays", _coerce_axis(self.delays, DelayRef))
        object.__setattr__(self, "machines", _coerce_axis(self.machines, MachineRef))
        object.__setattr__(self, "faults", _coerce_axis(self.faults, FaultRef))
        object.__setattr__(self, "topologies", _coerce_axis(self.topologies, TopologyRef))
        object.__setattr__(self, "store", _section(StoreSpec, self.store, "store"))
        object.__setattr__(self, "report", _section(ReportSpec, self.report, "report"))
        object.__setattr__(
            self, "execution", _section(ExecutionSpec, self.execution, "execution")
        )
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")

    # -- compilation ---------------------------------------------------
    @property
    def kind(self) -> str:
        return self.solver.kind

    def to_grid(self) -> ScenarioGrid:
        """Compile to the :class:`ScenarioGrid` the fleet executes."""
        return ScenarioGrid(
            problems=tuple(r.axis_item for r in self.problems),
            kind=self.solver.kind,
            steerings=tuple(r.axis_item for r in self.steerings),
            delays=tuple(r.axis_item for r in self.delays),
            machines=tuple(r.axis_item for r in self.machines),
            faults=tuple(r.axis_item for r in self.faults),
            topologies=tuple(r.axis_item for r in self.topologies),
            n_seeds=self.n_seeds,
            master_seed=self.master_seed,
            backends=self.solver.backends,
            max_iterations=self.solver.max_iterations,
            tol=self.solver.tol,
        )

    def specs(self) -> tuple[ScenarioSpec, ...]:
        """The fully expanded scenario list (one independent seed each)."""
        return self.to_grid().expand()

    @property
    def size(self) -> int:
        """Number of scenarios this study expands to."""
        return self.to_grid().size

    def with_store(self, out: "str | None", *, resume: "bool | None" = None,
                   keep_traces: "bool | None" = None) -> "StudyConfig":
        """A copy with store options overridden (``None`` keeps current)."""
        store = StoreSpec(
            out=out if out is not None else self.store.out,
            resume=self.store.resume if resume is None else resume,
            keep_traces=self.store.keep_traces if keep_traces is None else keep_traces,
        )
        return replace(self, store=store)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-data document (JSON- and TOML-serializable).

        Every field participates; ``None``-valued options are omitted
        (TOML has no null) and restored as defaults by
        :meth:`from_dict`, so the round trip is exact.  The
        ``faults``/``topologies`` axes are likewise omitted at their
        no-op defaults, keeping pre-fault documents — and their content
        hashes — byte-identical.
        """
        doc = {
            "format_version": self.FORMAT_VERSION,
            "name": self.name,
            "n_seeds": int(self.n_seeds),
            "master_seed": int(self.master_seed),
            "solver": self.solver.to_dict(),
            "store": self.store.to_dict(),
            "report": self.report.to_dict(),
            "execution": self.execution.to_dict(),
            "problems": [r.to_dict() for r in self.problems],
            "steerings": [r.to_dict() for r in self.steerings],
            "delays": [r.to_dict() for r in self.delays],
            "machines": [r.to_dict() for r in self.machines],
        }
        if self.faults != (FaultRef("none"),):
            doc["faults"] = [r.to_dict() for r in self.faults]
        if self.topologies != (TopologyRef("native"),):
            doc["topologies"] = [r.to_dict() for r in self.topologies]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "StudyConfig":
        """Rebuild a validated config from :meth:`to_dict` output.

        Unknown keys — top-level or inside a ``solver``/``store``/
        ``report``/``execution`` section — raise ``ValueError`` with a
        did-you-mean suggestion: a misspelled key in a hand-written
        study file must not be silently ignored.
        """
        doc = dict(doc)
        version = doc.pop("format_version", cls.FORMAT_VERSION)
        if int(version) > cls.FORMAT_VERSION:
            raise ValueError(
                f"study file format_version {version} is newer than this "
                f"library understands ({cls.FORMAT_VERSION})"
            )
        return _section(cls, doc, "study config")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StudyConfig":
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        return dumps_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "StudyConfig":
        return cls.from_dict(loads_toml(text))

    @property
    def content_hash(self) -> str:
        """SHA-256 (16 hex chars) of the canonical document.

        Stable across live objects, JSON/TOML round trips, and
        process boundaries — the study-level analogue of
        :attr:`ScenarioSpec.content_hash`.
        """
        doc = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()[:16]
