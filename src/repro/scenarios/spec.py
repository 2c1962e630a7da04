"""Scenario specs and declarative scenario grids.

A :class:`ScenarioSpec` pins down one experiment completely: the
registry names and parameters of its ingredients, the execution kind
(pure-math engine vs. hardware simulator), the engine backend, the
iteration budget, and a concrete integer seed.  Specs contain only
plain data, so they pickle across process pools and serialize into
sweep manifests; running one is the fleet's job
(:func:`repro.runtime.fleet.run_scenario`).

A :class:`ScenarioGrid` is the cartesian product the paper's
statistical claims need — problem × (delay model × steering policy |
machine) × seed replicates — expanded into specs whose seeds are
independently spawned from one master :class:`numpy.random.SeedSequence`,
so results do not depend on executor scheduling.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping

import numpy as np

from repro.scenarios import registry

__all__ = ["ScenarioSpec", "ScenarioGrid"]

_KINDS = ("engine", "simulator")
#: Scenario kind -> execution-backend kind in the runtime registry.
_KIND_TO_BACKEND_KIND = {"engine": "model", "simulator": "machine"}

AxisItem = "str | tuple[str, Mapping[str, Any]]"


def _canon(obj: Any) -> Any:
    """Canonical plain-JSON form of a params value, loud on the rest.

    Every value must *participate* in the content hash — silently
    dropping one would make distinct scenarios collide in a sweep
    store.  Arrays of any size canonicalize as their nested lists, so
    a spec that round-tripped through JSON (array -> list) hashes
    identically to the live original; values that cannot be
    canonicalized deterministically (callables, arbitrary objects)
    raise ``TypeError``, and non-finite floats, which strict JSON
    cannot hold, raise ``ValueError``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"scenario params must be finite, got {obj!r}")
        return obj
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return _canon(obj.item())
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, dict):
        return {
            str(k): _canon(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    raise TypeError(
        f"scenario params must be plain data; cannot canonicalize {type(obj).__name__}"
    )


def _check_backend(backend: str | None, kind: str) -> str:
    """Resolve/validate a backend name against the runtime registry.

    ``None`` resolves to the kind's default backend (``exact`` for
    engine scenarios, ``vectorized`` for simulator scenarios).  The
    registry import is deferred: :mod:`repro.runtime.backends` imports
    the engines, which this declarative layer must not drag in at
    import time (and must not cycle through ``repro.runtime``).
    """
    from repro.runtime import backends as _backends
    from repro.utils.naming import unknown_name_message

    want = _KIND_TO_BACKEND_KIND[kind]
    if backend is None:
        return _backends.default_backend(want)
    try:
        got = _backends.backend_kind(backend)
    except KeyError:
        raise ValueError(
            unknown_name_message("backend", backend, _backends.available_backends())
            + f"; kind={kind!r} scenarios take: "
            f"{', '.join(_backends.available_backends(want))}"
        ) from None
    if got != want:
        raise ValueError(
            f"backend {backend!r} has kind {got!r}, but {kind!r} scenarios need "
            f"a {want!r} backend ({', '.join(_backends.available_backends(want))})"
        )
    return backend


def _normalize_axis(items: Iterable[Any], axis: str) -> tuple[tuple[str, dict[str, Any]], ...]:
    """Accept ``"name"`` or ``("name", {params})`` items, validated."""
    out: list[tuple[str, dict[str, Any]]] = []
    for item in items:
        if isinstance(item, str):
            name, params = item, {}
        else:
            name, params = item
            params = dict(params)
        registry.entry(axis, name)  # KeyError with did-you-mean on typos
        out.append((name, params))
    if not out:
        raise ValueError(f"grid axis {axis!r} must not be empty")
    return tuple(out)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully determined scenario (plain data, picklable).

    Attributes
    ----------
    kind:
        ``"engine"`` runs the mathematical
        :class:`~repro.core.async_iteration.AsyncIterationEngine` with
        a delay model and steering policy; ``"simulator"`` runs the
        discrete-event machine with a machine archetype.
    problem, problem_params:
        Registry name and overrides for the operator factory.
    steering, steering_params / delays, delay_params:
        Engine-kind ingredients (ignored for simulators).
    machine, machine_params:
        Simulator-kind ingredient (ignored for engines).
    fault, fault_params:
        Simulator-kind fault model injected into the machine run
        (``"none"`` — the default — injects nothing and keeps the run
        bit-identical to a pre-fault scenario).  Engine scenarios must
        keep the default: faults are machine-level events.
    topology, topology_params:
        Simulator-kind channel-graph override (``"native"`` — the
        default — keeps the machine archetype's own channels).
    backend:
        Execution-backend name from the
        :mod:`repro.runtime.backends` registry.  Engine scenarios take
        ``model``-kind backends (``exact``, ``flexible``); simulator
        scenarios take ``machine``-kind backends (``vectorized``,
        ``reference``, ``shared-memory``).  ``None`` resolves to the
        kind's default (``exact`` / ``vectorized``).
    seed:
        Integer entropy for this scenario; :meth:`spawn_seeds` derives
        the independent per-ingredient streams from it.
    max_iterations, tol:
        Budget and stopping tolerance shared by both kinds.
    """

    problem: str
    kind: str = "engine"
    problem_params: dict[str, Any] = field(default_factory=dict)
    steering: str = "cyclic"
    steering_params: dict[str, Any] = field(default_factory=dict)
    delays: str = "zero"
    delay_params: dict[str, Any] = field(default_factory=dict)
    machine: str = "uniform"
    machine_params: dict[str, Any] = field(default_factory=dict)
    fault: str = "none"
    fault_params: dict[str, Any] = field(default_factory=dict)
    topology: str = "native"
    topology_params: dict[str, Any] = field(default_factory=dict)
    backend: str | None = None
    seed: int = 0
    max_iterations: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "backend", _check_backend(self.backend, self.kind))
        if self.fault == "none" and self.fault_params:
            raise ValueError(
                f"fault='none' takes no params, got {dict(self.fault_params)!r}"
            )
        if self.topology == "native" and self.topology_params:
            raise ValueError(
                f"topology='native' takes no params, got {dict(self.topology_params)!r}"
            )
        if self.kind == "engine" and (self.fault != "none" or self.topology != "native"):
            raise ValueError(
                "fault/topology apply only to kind='simulator' scenarios; "
                f"got fault={self.fault!r}, topology={self.topology!r} on an engine spec"
            )
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")

    @property
    def key(self) -> str:
        """Human-readable identity, e.g. ``jacobi/uniform×cyclic/seed=7``."""
        if self.kind == "engine":
            mid = f"{self.delays}×{self.steering}"
            if self.backend != "exact":
                mid += f"[{self.backend}]"
        else:
            mid = f"{self.machine}[{self.backend}]"
            if self.fault != "none":
                mid += f"+fault={self.fault}"
            if self.topology != "native":
                mid += f"+topo={self.topology}"
        return f"{self.problem}/{mid}/seed={self.seed}"

    def canonical(self) -> dict[str, Any]:
        """Plain-JSON dict that fully determines this scenario.

        Every field — and every params entry — participates (the
        backend name is already resolved by ``__post_init__``, so
        ``backend=None`` and its explicit default hash identically);
        params that cannot be canonicalized deterministically raise
        ``TypeError`` rather than silently dropping out of the hash.
        This is the document :attr:`content_hash` digests and sweep
        manifests persist.

        The fault/topology fields participate only away from their
        ``"none"``/``"native"`` defaults, so every pre-fault scenario
        keeps its historical content hash (and therefore its sweep-store
        row key and digest) bit for bit.
        """
        doc = {
            "problem": self.problem,
            "kind": self.kind,
            "problem_params": _canon(self.problem_params),
            "steering": self.steering,
            "steering_params": _canon(self.steering_params),
            "delays": self.delays,
            "delay_params": _canon(self.delay_params),
            "machine": self.machine,
            "machine_params": _canon(self.machine_params),
            "backend": self.backend,
            "seed": int(self.seed),
            "max_iterations": int(self.max_iterations),
            "tol": float(self.tol),
        }
        if self.fault != "none":
            doc["fault"] = self.fault
            doc["fault_params"] = _canon(self.fault_params)
        if self.topology != "native":
            doc["topology"] = self.topology
            doc["topology_params"] = _canon(self.topology_params)
        return doc

    @property
    def content_hash(self) -> str:
        """Canonical content address of this scenario (16 hex chars).

        SHA-256 over the sorted-key JSON of :meth:`canonical` —
        identical specs hash identically across processes and sessions,
        so a :class:`~repro.runtime.sweep_store.SweepStore` can key
        per-scenario results by it and a resumed sweep recognizes
        completed work regardless of grid enumeration order.

        Specs are immutable: the dataclass is frozen and nothing
        mutates a spec's params in place.  So the hash is computed once
        per instance and cached in its ``__dict__``, outside the
        dataclass fields (``==``, ``repr`` and ``dataclasses.replace``
        never see it; a pickled spec carries it along).
        """
        h = self.__dict__.get("_content_hash")
        if h is None:
            doc = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
            h = hashlib.sha256(doc.encode()).hexdigest()[:16]
            object.__setattr__(self, "_content_hash", h)
        return h

    @property
    def batch_key(self) -> tuple[Any, ...]:
        """Homogeneity key for batched execution: every field but the seed.

        Two specs with equal batch keys share problem family and
        parameters (hence shape), ingredient models, backend, budget
        and tolerance — differing only in their RNG streams — and may
        therefore advance through one shared iteration clock (see
        :mod:`repro.runtime.simulator.batched`, whose grouping calls
        this key and no other).  The field list is read from the
        dataclass (:data:`_BATCH_FIELDS`), so a new field joins the key
        by construction.  Param dicts enter as their ``repr``, which is
        order-sensitive where the canonical JSON is not: equal-content
        dicts built in different orders may land in separate groups — a
        lost batching opportunity, never a wrong merge — and the key
        costs a few microseconds per spec.
        """
        d = self.__dict__
        return tuple([
            repr(v) if isinstance(v, dict) else v
            for v in map(d.__getitem__, _BATCH_FIELDS)
        ])

    def spawn_seeds(self) -> list[np.random.SeedSequence]:
        """Seven independent child streams, one per ingredient.

        In order: problem, steering, delays, machine, backend, fault,
        topology.  Stream 4 feeds backend-internal randomness (e.g. the
        ``flexible`` backend's default partial-update model) so no backend
        ever shares a stream with an ingredient factory.  Spawning is
        prefix-stable, so adding the fault/topology children never
        perturbed the first five streams — pre-fault scenarios replay
        bit-identically.
        """
        return np.random.SeedSequence(self.seed).spawn(7)

    def build_problem(self) -> Any:
        return registry.make_problem(
            self.problem, self.spawn_seeds()[0], **self.problem_params
        )


#: The fields :attr:`ScenarioSpec.batch_key` reads: every field but the seed.
_BATCH_FIELDS = tuple(f.name for f in fields(ScenarioSpec) if f.name != "seed")


@dataclass(frozen=True)
class ScenarioGrid:
    """Declarative cartesian grid of scenarios.

    ``problems``/``steerings``/``delays``/``machines``/``faults``/
    ``topologies`` accept registry names or ``(name, params)`` pairs;
    ``n_seeds`` replicates every combination with independent seeds
    spawned from ``master_seed``.  Engine grids sweep problems × delays
    × steerings; simulator grids sweep problems × machines × faults ×
    topologies (the fault/topology axes must stay at their
    ``"none"``/``"native"`` defaults on engine grids).  ``backends`` is
    a fully fledged grid axis over execution-backend names (a single
    name or ``None`` — the kind's default — is normalized to a
    one-element axis), so cross-backend populations come out of one
    expansion.
    """

    problems: tuple[Any, ...]
    kind: str = "engine"
    steerings: tuple[Any, ...] = ("cyclic",)
    delays: tuple[Any, ...] = ("zero",)
    machines: tuple[Any, ...] = ("uniform",)
    faults: tuple[Any, ...] = ("none",)
    topologies: tuple[Any, ...] = ("native",)
    n_seeds: int = 1
    master_seed: int = 0
    backends: tuple[str, ...] | str | None = None
    max_iterations: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")
        axis = self.backends
        if axis is None or isinstance(axis, str):
            axis = (axis,)
        if not axis:
            raise ValueError("grid axis 'backends' must not be empty")
        axis = tuple(_check_backend(b, self.kind) for b in axis)
        if len(set(axis)) != len(axis):
            raise ValueError(f"duplicate backends in grid axis: {axis}")
        object.__setattr__(self, "backends", axis)
        object.__setattr__(self, "problems", _normalize_axis(self.problems, "problem"))
        if self.kind == "engine":
            object.__setattr__(self, "steerings", _normalize_axis(self.steerings, "steering"))
            object.__setattr__(self, "delays", _normalize_axis(self.delays, "delays"))
            # Accept the defaults in either spelling — bare names or
            # normalized (name, params) pairs (the StudyConfig layer
            # always hands over pairs) — and reject anything else.
            faults = _normalize_axis(self.faults, "fault")
            topologies = _normalize_axis(self.topologies, "topology")
            if faults != (("none", {}),) or topologies != (("native", {}),):
                raise ValueError(
                    "faults/topologies axes apply only to kind='simulator' grids; "
                    f"got faults={tuple(self.faults)!r}, "
                    f"topologies={tuple(self.topologies)!r}"
                )
            object.__setattr__(self, "faults", faults)
            object.__setattr__(self, "topologies", topologies)
        else:
            object.__setattr__(self, "machines", _normalize_axis(self.machines, "machine"))
            object.__setattr__(self, "faults", _normalize_axis(self.faults, "fault"))
            object.__setattr__(self, "topologies", _normalize_axis(self.topologies, "topology"))

    @property
    def size(self) -> int:
        """Number of scenarios :meth:`expand` produces."""
        if self.kind == "engine":
            base = len(self.problems) * len(self.delays) * len(self.steerings)
        else:
            base = (
                len(self.problems) * len(self.machines)
                * len(self.faults) * len(self.topologies)
            )
        return base * len(self.backends) * self.n_seeds

    def expand(self) -> tuple[ScenarioSpec, ...]:
        """Materialize the grid, spawning one independent seed per scenario.

        Seeds derive from ``SeedSequence(master_seed)`` spawned in
        grid-enumeration order, so the expansion is deterministic and
        the fleet's results cannot depend on executor scheduling.
        Scenarios that differ *only* in backend share one seed — the
        backend axis varies the engine, not the experiment — so
        cross-backend comparisons are like-for-like.
        """
        children = np.random.SeedSequence(self.master_seed).spawn(
            self.size // len(self.backends)
        )
        # Keep each child's full 128-bit entropy (a single 32-bit word
        # would birthday-collide in large sweeps); stays a plain int.
        seeds = [
            int.from_bytes(c.generate_state(4, np.uint32).tobytes(), "little")
            for c in children
        ]
        specs: list[ScenarioSpec] = []
        if self.kind == "engine":
            combos: Iterable[tuple[Any, ...]] = itertools.product(
                self.problems, self.delays, self.steerings, range(self.n_seeds)
            )
            for i, ((prob, pp), (dl, dp), (st, sp), _) in enumerate(combos):
                for backend in self.backends:
                    specs.append(
                        ScenarioSpec(
                            problem=prob,
                            problem_params=pp,
                            kind="engine",
                            steering=st,
                            steering_params=sp,
                            delays=dl,
                            delay_params=dp,
                            backend=backend,
                            seed=seeds[i],
                            max_iterations=self.max_iterations,
                            tol=self.tol,
                        )
                    )
        else:
            # Fault/topology sit between machines and seeds so a default
            # grid (both axes singleton) enumerates — and therefore
            # seeds — exactly as it did before those axes existed.
            for i, ((prob, pp), (mach, mp), (flt, fp), (topo, tp), _) in enumerate(
                itertools.product(
                    self.problems, self.machines, self.faults, self.topologies,
                    range(self.n_seeds),
                )
            ):
                for backend in self.backends:
                    specs.append(
                        ScenarioSpec(
                            problem=prob,
                            problem_params=pp,
                            kind="simulator",
                            machine=mach,
                            machine_params=mp,
                            fault=flt,
                            fault_params=fp,
                            topology=topo,
                            topology_params=tp,
                            backend=backend,
                            seed=seeds[i],
                            max_iterations=self.max_iterations,
                            tol=self.tol,
                        )
                    )
        return tuple(specs)

    def shard(self, num_shards: int, index: int) -> tuple[ScenarioSpec, ...]:
        """Shard ``index`` (0-based) of this grid split ``num_shards`` ways.

        The split is *content-hash-stable*: the full grid is expanded
        first (so every spec keeps exactly the seed it would have in a
        single-host run — sharding can never perturb results), then
        specs are ranked by content hash and dealt round-robin to
        shards.  Assignment therefore depends only on the set of
        scenario identities — not on axis declaration order, not on
        enumeration order, not on ``num_shards``-independent state —
        and shard sizes differ by at most one even when one axis value
        dominates the grid.

        ``k`` hosts each running ``grid.shard(k, i)`` into their own
        :class:`~repro.runtime.sweep_store.SweepStore` cover the grid
        exactly once; merging the stores
        (:meth:`~repro.runtime.sweep_store.SweepStore.merge`)
        reproduces the single-host store's digest bit for bit.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if not 0 <= index < num_shards:
            raise ValueError(
                f"shard index must be in [0, {num_shards}), got {index}"
            )
        specs = self.expand()
        ranked = sorted(specs, key=lambda s: s.content_hash)
        mine = {s.content_hash for s in ranked[index::num_shards]}
        # Keep submission (enumeration) order within the shard so the
        # shard's manifest reads like a contiguous slice of the study.
        return tuple(s for s in specs if s.content_hash in mine)
