"""The unified ingredient registry backing declarative scenario specs.

Every scenario ingredient — problems (operator factories), steering
policies, delay models, machine archetypes — registers into one
generic :class:`Registry` under a ``(kind, name)`` address via the
:meth:`Registry.register` decorator.  Entries are plain functions of
``(seed, **params)`` (problems) or ``(n, seed, **params)`` (steering,
delays, machines) returning fully constructed library objects; their
tunable parameters are declared keyword-only, so the registry can
introspect names and defaults from the signature alone.  That
introspection is the single source of truth rendered by
``python -m repro sweep --list-axes``, the Study layer's validation
errors, and the docs — there is no hand-maintained table to rot.

Scenario specs refer to entries by string name, which keeps them
picklable across process boundaries and stable across library
refactors.  Seeds arrive as :class:`numpy.random.SeedSequence`
children spawned per scenario by
:meth:`repro.scenarios.spec.ScenarioGrid.expand`, so two scenarios
never share a stream no matter how the fleet schedules them.

The execution-*backend* registry (``exact``/``vectorized``/...) lives
in :mod:`repro.runtime.backends`; :func:`describe_axes` merges both
views for the CLI.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.delays.bounded import (
    ChaoticRelaxationDelay,
    ConstantDelay,
    UniformRandomDelay,
    ZeroDelay,
)
from repro.delays.outoforder import OutOfOrderDelay, ShuffledWindowDelay
from repro.delays.unbounded import BaudetSqrtDelay, LogGrowthDelay, PowerGrowthDelay
from repro.operators.gradient import GradientStepOperator
from repro.operators.linear import jacobi_operator
from repro.operators.prox_gradient import ForwardBackwardOperator
from repro.operators.proximal import L1Regularizer
from repro.problems.base import CompositeProblem
from repro.problems.datasets import make_classification, make_regression
from repro.problems.least_squares import batch_least_squares, make_lasso, make_ridge
from repro.problems.linear_system import (
    make_jacobi_batch,
    make_jacobi_instance,
    tridiagonal_system,
)
from repro.problems.logistic import batch_logistic, make_logistic
from repro.problems.markov import discounted_value_operator, random_markov_chain
from repro.problems.quadratic import random_quadratic
from repro.runtime.simulator import (
    ChannelSpec,
    ConstantTime,
    ProcessorSpec,
    UniformTime,
    uniform_cluster,
    wide_area_network,
)
from repro.runtime.simulator.faults import (
    ChaosFault,
    CrashRestart,
    Limplock,
    LossyChannel,
    ReorderingChannel,
    clique_topology,
    ring_topology,
    star_topology,
    two_tier_topology,
)
from repro.steering.policies import (
    AllComponents,
    BlockCyclic,
    CyclicSingle,
    EvenOddSweeps,
    PermutationSweeps,
    RandomSubset,
    WeightedRandom,
)
from repro.utils.naming import unknown_name_message
from repro.utils.rng import as_generator

__all__ = [
    "Registry",
    "RegistryEntry",
    "REGISTRY",
    "SCENARIO_AXES",
    "PROBLEM_FACTORIES",
    "STEERING_FACTORIES",
    "DELAY_FACTORIES",
    "MACHINE_FACTORIES",
    "FAULT_FACTORIES",
    "TOPOLOGY_FACTORIES",
    "available",
    "build_batch",
    "describe_axes",
    "entry",
    "has_batch_factory",
    "make_problem",
    "make_steering",
    "make_delays",
    "make_machine",
    "make_fault",
    "make_topology",
    "register",
    "register_batch",
]

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"

#: The scenario-grid axes, in the order the CLI prints them.
SCENARIO_AXES = ("problem", "steering", "delays", "machine", "fault", "topology")


# ----------------------------------------------------------------------
# The generic registry
# ----------------------------------------------------------------------

def _keyword_defaults(factory: Callable[..., Any]) -> dict[str, Any]:
    """Tunable parameters of a factory: its keyword-only arguments.

    Positional parameters (``seed``; ``n, seed``) are wiring supplied
    by the scenario layer, not user-tunable knobs, so only
    keyword-only parameters advertise as the entry's signature.
    """
    out: dict[str, Any] = {}
    for name, p in inspect.signature(factory).parameters.items():
        if p.kind is inspect.Parameter.KEYWORD_ONLY:
            out[name] = p.default
    return out


@dataclass(frozen=True)
class RegistryEntry:
    """One registered factory plus its introspected metadata.

    ``shared`` states that the factory draws nothing from its seed and
    that what it builds depends on the iteration index alone (steering
    sets, delays, machine timings), so one instance serves every
    scenario of a batch.  It is a fact about the entry, not the class:
    a :class:`BaudetSqrtDelay` is deterministic, but its factory draws
    the slow set from the seed.  For a machine it states one
    value-free schedule: every processor computes in a
    :class:`ConstantTime`, an integer multiple of the fastest, with one
    inner step and no partial publishing, read refreshing or think
    time, and every channel is lossless with a :class:`ConstantTime`
    latency below the fastest phase.  The batched executor admits a
    simulator group on this statement alone: one value-free run of the
    head spec's machine gives the whole group its schedule, and the
    statement supplies what that run's trace does not show (one sweep
    per phase, no partials, no refreshed reads).
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    defaults: Mapping[str, Any] = field(default_factory=dict)
    summary: str = ""
    shared: bool = False

    def describe(self) -> str:
        """``name(param=default, ...)`` — the ``--list-axes``/docs rendering."""
        params = ", ".join(f"{k}={v!r}" for k, v in self.defaults.items())
        return f"{self.name}({params})" if params else self.name

    def build(self, *args: Any, **params: Any) -> Any:
        """Invoke the factory (positional wiring first, tunables after)."""
        return self.factory(*args, **params)


class Registry:
    """Generic ``(kind, name) -> factory`` registry with introspection.

    Kinds are fixed at construction (an unknown kind is a programming
    error, loudly reported); names within a kind are open — plugins
    register at import time with the :meth:`register` decorator, and
    re-registering a name replaces the previous entry (latest wins) so
    plugins can shadow built-ins deliberately.
    """

    def __init__(self, kinds: Iterable[str]) -> None:
        self._tables: dict[str, dict[str, RegistryEntry]] = {k: {} for k in kinds}

    # -- registration --------------------------------------------------
    def register(
        self, kind: str, name: str, *, summary: str | None = None,
        shared: bool = False,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register a factory under ``(kind, name)``.

        The entry's tunable signature is introspected from the
        factory's keyword-only parameters; ``summary`` defaults to the
        first line of the factory's docstring.  ``shared`` is the
        entry's statement (see :class:`RegistryEntry`).
        """
        table = self._table(kind)

        def deco(factory: Callable[..., Any]) -> Callable[..., Any]:
            doc = summary
            if doc is None:
                # `or [""]` guards whitespace-only docstrings.
                doc = ((factory.__doc__ or "").strip().splitlines() or [""])[0]
            table[name] = RegistryEntry(
                kind=kind,
                name=name,
                factory=factory,
                defaults=MappingProxyType(_keyword_defaults(factory)),
                summary=doc,
                shared=shared,
            )
            return factory

        return deco

    # -- lookup --------------------------------------------------------
    def _table(self, kind: str) -> dict[str, RegistryEntry]:
        try:
            return self._tables[kind]
        except KeyError:
            raise KeyError(
                f"unknown axis {kind!r}; choose from {sorted(self._tables)}"
            ) from None

    def kinds(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def names(self, kind: str) -> tuple[str, ...]:
        """Registered names for one kind, sorted."""
        return tuple(sorted(self._table(kind)))

    def entries(self, kind: str) -> tuple[RegistryEntry, ...]:
        """Registered entries for one kind, sorted by name."""
        table = self._table(kind)
        return tuple(table[n] for n in sorted(table))

    def get(self, kind: str, name: str) -> RegistryEntry:
        """The entry at ``(kind, name)``; KeyError with did-you-mean."""
        table = self._table(kind)
        try:
            return table[name]
        except KeyError:
            raise KeyError(unknown_name_message(kind, name, sorted(table))) from None

    def make(self, kind: str, name: str, *args: Any, **params: Any) -> Any:
        """Look up and invoke a factory in one step."""
        return self.get(kind, name).build(*args, **params)

    def factories(self, kind: str) -> "_FactoryView":
        """Live name -> factory mapping view of one kind's table."""
        return _FactoryView(self, kind)


class _FactoryView(Mapping):
    """Read-only live ``name -> factory`` view (backward compatibility).

    The historical ``PROBLEM_FACTORIES``-style module dicts are now
    views over the unified registry, so late plugin registrations show
    up without re-import.
    """

    def __init__(self, registry: Registry, kind: str) -> None:
        self._registry = registry
        self._kind = kind

    def __getitem__(self, name: str) -> Callable[..., Any]:
        return self._registry.get(self._kind, name).factory

    def __iter__(self):
        return iter(self._registry.names(self._kind))

    def __len__(self) -> int:
        return len(self._registry.names(self._kind))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FactoryView kind={self._kind!r} names={self._registry.names(self._kind)}>"


#: The process-wide scenario-ingredient registry.
REGISTRY = Registry(SCENARIO_AXES)

#: Module-level decorator: ``@register("problem", "mine")``.
register = REGISTRY.register


# ----------------------------------------------------------------------
# Problems: (seed, **params) -> FixedPointOperator
# ----------------------------------------------------------------------

@register("problem", "jacobi")
def _problem_jacobi(seed: Any, *, n: int = 24, dominance: float = 0.4) -> Any:
    """Diagonally dominant linear system under the Jacobi splitting."""
    return make_jacobi_instance(n, dominance, seed=seed)


@register("problem", "tridiagonal")
def _problem_tridiagonal(seed: Any, *, n: int = 24, off_diag: float = -1.0,
                         diag: float = 2.3) -> Any:
    """Tridiagonal (discrete-Laplacian-like) system, Jacobi splitting."""
    M, c = tridiagonal_system(n, off_diag=off_diag, diag=diag, seed=seed)
    return jacobi_operator(M, c)


@register("problem", "quadratic")
def _problem_quadratic(seed: Any, *, n: int = 24, condition: float = 8.0,
                       coupling: float = 0.6) -> Any:
    """Random strongly convex quadratic, maximal gradient step."""
    problem = random_quadratic(n, condition, coupling=coupling, seed=seed)
    gamma = 1.8 / (problem.mu + problem.lipschitz)
    return GradientStepOperator(problem, gamma)


@register("problem", "markov")
def _problem_markov(seed: Any, *, n: int = 24, beta: float = 0.85,
                    density: float = 0.4) -> Any:
    """Discounted Markov value-iteration operator."""
    rng = as_generator(seed)
    P = random_markov_chain(n, density=density, seed=rng)
    rewards = rng.uniform(0.0, 1.0, size=n)
    return discounted_value_operator(P, rewards, beta)


@register("problem", "lasso")
def _problem_lasso(seed: Any, *, n_samples: int = 120, n_features: int = 32,
                   sparsity: float = 0.5, l1: float = 0.05,
                   l2: float = 0.05) -> Any:
    """Lasso instance of problem (4): forward-backward prox-gradient operator."""
    data = make_regression(
        n_samples, n_features, sparsity=sparsity, seed=as_generator(seed)
    )
    problem = make_lasso(data, l1=l1, l2=l2)
    return ForwardBackwardOperator(problem, problem.smooth.max_step())


@register("problem", "ridge")
def _problem_ridge(seed: Any, *, n_samples: int = 120, n_features: int = 32,
                   l2: float = 0.1) -> Any:
    """Ridge regression: smooth strongly convex forward-backward operator."""
    data = make_regression(n_samples, n_features, seed=as_generator(seed))
    problem = make_ridge(data, l2=l2)
    return ForwardBackwardOperator(problem, problem.smooth.max_step())


@register("problem", "logistic")
def _problem_logistic(seed: Any, *, n_samples: int = 120, n_features: int = 24,
                      separation: float = 1.5, l2: float = 0.1) -> Any:
    """L2-regularized logistic regression on a synthetic classification task."""
    data = make_classification(
        n_samples, n_features, separation=separation, seed=as_generator(seed)
    )
    problem = make_logistic(data, l2=l2)
    return ForwardBackwardOperator(problem, problem.smooth.max_step())


# ----------------------------------------------------------------------
# Batched problem construction: (seeds, **params) -> list[operator]
# ----------------------------------------------------------------------

#: ``problem name -> (seeds, **params) -> list[operator]``; the batched
#: twins of the solo factories above, registered via :func:`register_batch`.
_BATCH_FACTORIES: dict[str, Callable[..., list]] = {}


def register_batch(name: str) -> Callable[[Callable[..., list]], Callable[..., list]]:
    """Decorator: register a batched twin for problem ``name``.

    The twin takes ``(seeds, **params)`` — a list of per-scenario seeds
    where the solo factory takes one — and must return operators
    bit-identical per scenario to ``[solo(seed, **params) for seed in
    seeds]``.  Registering a twin for an unknown problem is a
    programming error, reported loudly at import time.
    """
    REGISTRY.get("problem", name)

    def deco(factory: Callable[..., list]) -> Callable[..., list]:
        _BATCH_FACTORIES[name] = factory
        return factory

    return deco


def has_batch_factory(name: str) -> bool:
    """Whether problem ``name`` has a registered batched twin."""
    return name in _BATCH_FACTORIES


def build_batch(specs: "list[Any]", seeds: "list[Any] | None" = None) -> "list[Any] | None":
    """Batch-construct the operators of homogeneous scenario specs.

    ``specs`` must agree on problem name and parameters (they are one
    ``batch_key`` chunk); ``seeds`` overrides the per-spec problem
    streams — by default each scenario draws from the same
    ``SeedSequence(spec.seed)`` child :meth:`ScenarioSpec.build_problem`
    uses, so the results are bit-identical to N solo builds.  Returns
    ``None`` when the problem has no batched twin (callers fall back to
    the solo factory per spec), ``[]`` for an empty chunk.
    """
    specs = list(specs)
    if not specs:
        return []
    head = specs[0]
    params = dict(head.problem_params)
    for s in specs[1:]:
        if s.problem != head.problem or dict(s.problem_params) != params:
            raise ValueError(
                "build_batch requires homogeneous specs: "
                f"{s.problem}/{dict(s.problem_params)!r} differs from "
                f"{head.problem}/{params!r}"
            )
    factory = _BATCH_FACTORIES.get(head.problem)
    if factory is None:
        return None
    if seeds is None:
        # spawn(1)[0] is the spawn(5)[0] problem child (spawning is
        # prefix-stable), without materializing the unused streams.
        seeds = [np.random.SeedSequence(s.seed).spawn(1)[0] for s in specs]
    return factory(seeds, **params)


@register_batch("jacobi")
def _batch_jacobi(seeds: "list[Any]", *, n: int = 24, dominance: float = 0.4) -> list:
    """Stacked draws + one vectorized rescale + stacked analysis gufuncs."""
    return make_jacobi_batch(n, dominance, seeds=seeds)


@register_batch("lasso")
def _batch_lasso(seeds: "list[Any]", *, n_samples: int = 120, n_features: int = 32,
                 sparsity: float = 0.5, l1: float = 0.05, l2: float = 0.05) -> list:
    """Per-scenario datasets in solo draw order, one stacked Gram eigensolve."""
    datas = [
        make_regression(n_samples, n_features, sparsity=sparsity, seed=as_generator(s))
        for s in seeds
    ]
    smooths = batch_least_squares(datas, l2=l2)
    return [
        ForwardBackwardOperator(
            CompositeProblem(smooth, L1Regularizer(l1)), smooth.max_step()
        )
        for smooth in smooths
    ]


@register_batch("logistic")
def _batch_logistic(seeds: "list[Any]", *, n_samples: int = 120, n_features: int = 24,
                    separation: float = 1.5, l2: float = 0.1) -> list:
    """Per-scenario datasets in solo draw order, one stacked Gram eigensolve."""
    datas = [
        make_classification(n_samples, n_features, separation=separation, seed=as_generator(s))
        for s in seeds
    ]
    problems = batch_logistic(datas, l2=l2)
    return [
        ForwardBackwardOperator(p, p.smooth.max_step()) for p in problems
    ]


# ----------------------------------------------------------------------
# Steering policies: (n, seed, **params) -> SteeringPolicy
# ----------------------------------------------------------------------

@register("steering", "all", shared=True)
def _steer_all(n: int, seed: Any) -> Any:
    """Every component every iteration (synchronous steering)."""
    return AllComponents(n)


@register("steering", "cyclic", shared=True)
def _steer_cyclic(n: int, seed: Any) -> Any:
    """One component per iteration, round-robin."""
    return CyclicSingle(n)


@register("steering", "block-cyclic", shared=True)
def _steer_block_cyclic(n: int, seed: Any, *, group_size: int = 4) -> Any:
    """Contiguous blocks, round-robin."""
    return BlockCyclic(n, min(group_size, n))


@register("steering", "even-odd", shared=True)
def _steer_even_odd(n: int, seed: Any) -> Any:
    """Red-black sweeps: even-indexed components, then odd, alternating."""
    return EvenOddSweeps(n)


@register("steering", "random-subset")
def _steer_random_subset(n: int, seed: Any, *, p: float = 0.3) -> Any:
    """Independent Bernoulli(p) inclusion per component."""
    return RandomSubset(n, p, seed=as_generator(seed))


@register("steering", "weighted")
def _steer_weighted(n: int, seed: Any, *, spread: float = 4.0) -> Any:
    """Single component drawn from geometrically spread weights."""
    weights = np.geomspace(1.0, spread, n)
    return WeightedRandom(weights, seed=as_generator(seed))


@register("steering", "permutation-sweeps")
def _steer_sweeps(n: int, seed: Any) -> Any:
    """Shuffled single-component sweeps (every component once per sweep)."""
    return PermutationSweeps(n, seed=as_generator(seed))


# ----------------------------------------------------------------------
# Delay models: (n, seed, **params) -> DelayModel
# ----------------------------------------------------------------------

@register("delays", "zero", shared=True)
def _delay_zero(n: int, seed: Any) -> Any:
    """No staleness (synchronous reads)."""
    return ZeroDelay(n)


@register("delays", "constant", shared=True)
def _delay_constant(n: int, seed: Any, *, delay: int = 3) -> Any:
    """Every read exactly ``delay`` iterations stale."""
    return ConstantDelay(n, delay)


@register("delays", "uniform")
def _delay_uniform(n: int, seed: Any, *, bound: int = 6) -> Any:
    """IID uniform staleness in ``[0, bound]``."""
    return UniformRandomDelay(n, bound, seed=as_generator(seed))


@register("delays", "chaotic")
def _delay_chaotic(n: int, seed: Any, *, bound: int = 8) -> Any:
    """Chaotic-relaxation style bursty bounded delays."""
    return ChaoticRelaxationDelay(n, bound, seed=as_generator(seed))


@register("delays", "baudet-sqrt")
def _delay_baudet(n: int, seed: Any) -> Any:
    """Baudet's sqrt(j) unbounded delays on a random slow quarter."""
    rng = as_generator(seed)
    slow = sorted(int(i) for i in rng.choice(n, size=max(1, n // 4), replace=False))
    return BaudetSqrtDelay(n, slow)


@register("delays", "log-growth", shared=True)
def _delay_log_growth(n: int, seed: Any, *, scale: float = 2.0) -> Any:
    """Unbounded delays growing like ``scale * log(j)``."""
    return LogGrowthDelay(n, scale=scale)


@register("delays", "power", shared=True)
def _delay_power(n: int, seed: Any, *, alpha: float = 0.7) -> Any:
    """Unbounded delays growing like ``j**alpha``."""
    return PowerGrowthDelay(n, alpha=alpha)


@register("delays", "out-of-order")
def _delay_out_of_order(n: int, seed: Any, *, bound: int = 6) -> Any:
    """Uniform delays with message reordering."""
    rng = as_generator(seed)
    return OutOfOrderDelay(UniformRandomDelay(n, bound, seed=rng), seed=rng)


@register("delays", "shuffled-window")
def _delay_shuffled(n: int, seed: Any, *, window: int = 12) -> Any:
    """Reads shuffled within a sliding window."""
    return ShuffledWindowDelay(n, window, seed=as_generator(seed))


# ----------------------------------------------------------------------
# Machines: (n, seed, **params) -> (processors, channels)
# ----------------------------------------------------------------------

def _partition(n: int, n_processors: int) -> list[tuple[int, ...]]:
    """Contiguous near-even split of components over processors."""
    if not 1 <= n_processors <= n:
        raise ValueError(f"need 1 <= n_processors <= {n}, got {n_processors}")
    bounds = np.linspace(0, n, n_processors + 1).astype(int)
    return [tuple(range(bounds[p], bounds[p + 1])) for p in range(n_processors)]


@register("machine", "uniform")
def _machine_uniform(n: int, seed: Any, *, n_processors: int = 4,
                     latency: float = 0.05) -> Any:
    """Homogeneous cluster, uniform compute times, low latency."""
    procs = [
        ProcessorSpec(components=comps, compute_time=UniformTime(0.8, 1.2))
        for comps in _partition(n, n_processors)
    ]
    return procs, uniform_cluster(n_processors, latency=latency)


@register("machine", "heterogeneous")
def _machine_heterogeneous(n: int, seed: Any, *, n_processors: int = 4,
                           imbalance: float = 4.0, latency: float = 0.05) -> Any:
    """Geometrically imbalanced processor speeds (stragglers)."""
    scales = np.geomspace(1.0, imbalance, n_processors)
    procs = [
        ProcessorSpec(components=comps, compute_time=UniformTime(0.8 * s, 1.2 * s))
        for s, comps in zip(scales, _partition(n, n_processors))
    ]
    return procs, uniform_cluster(n_processors, latency=latency)


@register("machine", "flexible")
def _machine_flexible(n: int, seed: Any, *, n_processors: int = 4,
                      inner_steps: int = 3, latency: float = 0.2) -> Any:
    """Flexible communication: inner steps, partial publishes, refreshed reads."""
    procs = [
        ProcessorSpec(
            components=comps,
            compute_time=UniformTime(0.5, 1.5),
            inner_steps=inner_steps,
            publish_partials=True,
            refresh_reads=True,
        )
        for comps in _partition(n, n_processors)
    ]
    return procs, ChannelSpec(latency=ConstantTime(latency))


@register("machine", "wan")
def _machine_wan(n: int, seed: Any, *, n_processors: int = 4,
                 base_latency: float = 0.3, drop_prob: float = 0.02) -> Any:
    """Wide-area network: high heterogeneous latency, occasional drops."""
    procs = [
        ProcessorSpec(components=comps, compute_time=UniformTime(0.8, 1.2))
        for comps in _partition(n, n_processors)
    ]
    channels = wide_area_network(
        n_processors, base_latency=base_latency, drop_prob=drop_prob,
        seed=as_generator(seed),
    )
    return procs, channels


@register("machine", "lockstep", shared=True)
def _machine_lockstep(n: int, seed: Any, *, n_processors: int = 4,
                      compute: float = 1.0, latency: float = 0.05) -> Any:
    """Deterministic lockstep rounds: constant compute, sub-round latency.

    Every processor takes exactly ``compute`` per phase and every
    channel delivers in exactly ``latency`` (``0 < latency < compute``),
    so the event schedule is value- and RNG-independent — the machine
    archetype the batched scenario engine executes whole populations of
    (see :mod:`repro.runtime.simulator.batched`).
    """
    if not 0.0 < latency < compute:
        raise ValueError(
            f"lockstep needs 0 < latency < compute, got latency={latency}, "
            f"compute={compute}"
        )
    procs = [
        ProcessorSpec(components=comps, compute_time=ConstantTime(compute))
        for comps in _partition(n, n_processors)
    ]
    return procs, uniform_cluster(n_processors, latency=latency)


@register("machine", "lockstep-tiered", shared=True)
def _machine_lockstep_tiered(n: int, seed: Any, *, n_processors: int = 4,
                             compute: float = 1.0, tiers: int = 2,
                             latency: float = 0.05) -> Any:
    """Lockstep with integer-tiered processor speeds (compute x 1..tiers).

    Processor ``p`` takes exactly ``compute * (1 + p % tiers)`` per
    phase — constant per processor, all durations integer multiples of
    the common period ``compute`` — and channels deliver in a constant
    ``latency`` below the fastest phase.  The schedule stays value- and
    RNG-independent, so the entry states ``shared`` and one run of it
    schedules a whole batch (see :mod:`repro.runtime.simulator.batched`), yet
    slow tiers commit genuinely stale reads like a real straggler
    cluster.
    """
    if tiers < 1:
        raise ValueError(f"tiers must be >= 1, got {tiers}")
    if not 0.0 < latency < compute:
        raise ValueError(
            f"lockstep-tiered needs 0 < latency < compute, got latency={latency}, "
            f"compute={compute}"
        )
    procs = [
        ProcessorSpec(
            components=comps,
            compute_time=ConstantTime(compute * (1 + p % tiers)),
        )
        for p, comps in enumerate(_partition(n, n_processors))
    ]
    return procs, uniform_cluster(n_processors, latency=latency)


@register("machine", "lossy")
def _machine_lossy(n: int, seed: Any, *, n_processors: int = 4,
                   drop_prob: float = 0.05) -> Any:
    """Lossy reordering channels (out-of-order messages in simulation)."""
    procs = [
        ProcessorSpec(components=comps, compute_time=UniformTime(0.8, 1.2))
        for comps in _partition(n, n_processors)
    ]
    spec = ChannelSpec.lossy_reordering(UniformTime(0.01, 0.4), drop_prob=drop_prob)
    return procs, spec


# ----------------------------------------------------------------------
# Faults: (n_processors, seed, **params) -> FaultModel | None
# ----------------------------------------------------------------------
#
# Fault factories receive the machine's processor count (for validating
# processor-indexed parameters like `straggler`) and the scenario's
# dedicated fault seed child; "none" returns None so the simulators keep
# their fault-free fast path and bit-identical golden digests.

@register("fault", "none")
def _fault_none(n_processors: int, seed: Any) -> Any:
    """No injected faults (the default; keeps golden digests intact)."""
    return None


@register("fault", "crash-restart")
def _fault_crash_restart(n_processors: int, seed: Any, *, crash_rate: float = 0.02,
                         repair_mean: float = 5.0) -> Any:
    """Processors die mid-phase and rejoin after an exponential repair."""
    return CrashRestart(crash_rate=crash_rate, repair_mean=repair_mean, seed=seed)


@register("fault", "limplock")
def _fault_limplock(n_processors: int, seed: Any, *, straggler: int = 0,
                    factor: float = 8.0, episodic: bool = False,
                    episode_prob: float = 0.25) -> Any:
    """One degraded-but-alive straggler (permanent or episodic limping)."""
    if not 0 <= straggler < n_processors:
        raise ValueError(
            f"straggler must be in [0, {n_processors}), got {straggler}"
        )
    return Limplock(
        straggler=straggler, factor=factor, episodic=episodic,
        episode_prob=episode_prob, seed=seed,
    )


@register("fault", "lossy-channel")
def _fault_lossy_channel(n_processors: int, seed: Any, *,
                         drop_prob: float = 0.05) -> Any:
    """IID per-message drops layered on every channel."""
    return LossyChannel(drop_prob=drop_prob, seed=seed)


@register("fault", "reordering-channel")
def _fault_reordering_channel(n_processors: int, seed: Any, *,
                              delay_prob: float = 0.3,
                              extra_mean: float = 1.0) -> Any:
    """Random extra latency on a fraction of messages (reordering)."""
    return ReorderingChannel(delay_prob=delay_prob, extra_mean=extra_mean, seed=seed)


@register("fault", "chaos")
def _fault_chaos(n_processors: int, seed: Any, *, crash_rate: float = 0.01,
                 repair_mean: float = 4.0, straggler: int = 0,
                 limp_factor: float = 4.0, drop_prob: float = 0.05,
                 extra_mean: float = 0.5) -> Any:
    """Crashes + a limping straggler + lossy jittered channels at once."""
    if not 0 <= straggler < n_processors:
        raise ValueError(
            f"straggler must be in [0, {n_processors}), got {straggler}"
        )
    return ChaosFault(
        crash_rate=crash_rate, repair_mean=repair_mean, straggler=straggler,
        limp_factor=limp_factor, drop_prob=drop_prob, extra_mean=extra_mean,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Topologies: (n_processors, seed, **params) -> channel map | None
# ----------------------------------------------------------------------
#
# Topology factories override the machine archetype's channels with an
# explicit (src, dst) -> ChannelSpec graph; "native" returns None,
# meaning keep whatever the machine archetype built.  The generators are
# deterministic — the seed argument is registry-signature wiring only.

@register("topology", "native")
def _topology_native(n_processors: int, seed: Any) -> Any:
    """Keep the machine archetype's own channels (the default)."""
    return None


@register("topology", "clique")
def _topology_clique(n_processors: int, seed: Any, *, latency: float = 0.05) -> Any:
    """Flat all-to-all at one constant latency."""
    return clique_topology(n_processors, latency=latency)


@register("topology", "star")
def _topology_star(n_processors: int, seed: Any, *, latency: float = 0.05,
                   hub: int = 0) -> Any:
    """Hub-and-spoke: hub links fast, spoke-spoke relayed (doubled latency)."""
    return star_topology(n_processors, latency=latency, hub=hub)


@register("topology", "ring")
def _topology_ring(n_processors: int, seed: Any, *, latency: float = 0.05) -> Any:
    """Ring: latency proportional to hop distance."""
    return ring_topology(n_processors, latency=latency)


@register("topology", "two-tier")
def _topology_two_tier(n_processors: int, seed: Any, *, rack_size: int = 2,
                       intra_latency: float = 0.02,
                       inter_latency: float = 0.5) -> Any:
    """Two-tier rack fabric: fast within a rack, slow across racks."""
    return two_tier_topology(
        n_processors, rack_size=rack_size, intra_latency=intra_latency,
        inter_latency=inter_latency,
    )


# ----------------------------------------------------------------------
# Backward-compatible module-level tables (live views)
# ----------------------------------------------------------------------

PROBLEM_FACTORIES = REGISTRY.factories("problem")
STEERING_FACTORIES = REGISTRY.factories("steering")
DELAY_FACTORIES = REGISTRY.factories("delays")
MACHINE_FACTORIES = REGISTRY.factories("machine")
FAULT_FACTORIES = REGISTRY.factories("fault")
TOPOLOGY_FACTORIES = REGISTRY.factories("topology")


# ----------------------------------------------------------------------
# Lookup helpers
# ----------------------------------------------------------------------

def available(axis: str) -> tuple[str, ...]:
    """Registered names for one axis (``problem``/``steering``/``delays``/``machine``/``fault``/``topology``)."""
    return REGISTRY.names(axis)


def entry(axis: str, name: str) -> RegistryEntry:
    """The registered entry (factory + introspected defaults) for a name."""
    return REGISTRY.get(axis, name)


def describe_axes() -> dict[str, tuple[RegistryEntry, ...]]:
    """Every scenario axis with its entries — the ``--list-axes`` source."""
    return {axis: REGISTRY.entries(axis) for axis in SCENARIO_AXES}


def make_problem(name: str, seed: SeedLike = 0, **params: Any) -> Any:
    """Instantiate a registered problem operator."""
    return REGISTRY.make("problem", name, seed, **params)


def make_steering(name: str, n: int, seed: SeedLike = 0, **params: Any) -> Any:
    """Instantiate a registered steering policy for ``n`` components."""
    return REGISTRY.make("steering", name, n, seed, **params)


def make_delays(name: str, n: int, seed: SeedLike = 0, **params: Any) -> Any:
    """Instantiate a registered delay model for ``n`` components."""
    return REGISTRY.make("delays", name, n, seed, **params)


def make_machine(name: str, n: int, seed: SeedLike = 0, **params: Any) -> Any:
    """Instantiate a registered machine: ``(processors, channels)``."""
    return REGISTRY.make("machine", name, n, seed, **params)


def make_fault(name: str, n_processors: int, seed: SeedLike = 0, **params: Any) -> Any:
    """Instantiate a registered fault model (``None`` for ``"none"``)."""
    return REGISTRY.make("fault", name, n_processors, seed, **params)


def make_topology(name: str, n_processors: int, seed: SeedLike = 0, **params: Any) -> Any:
    """Instantiate a registered topology channel map (``None`` for ``"native"``)."""
    return REGISTRY.make("topology", name, n_processors, seed, **params)
