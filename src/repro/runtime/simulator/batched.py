"""Scenario-batched lockstep execution of homogeneous spec groups.

The fleet's per-scenario cost floor is Python dispatch: one
:func:`~repro.runtime.fleet.run_scenario` call per grid point pays for
backend lookup, engine construction, trace bookkeeping and per-iteration
interpreter overhead even when the scenario itself is six floats wide
and four iterations deep.  The paper's delay-regime sweeps are exactly
such populations — thousands of *same-shape* scenarios differing only
in their RNG seed — so this module stacks N of them into ``(N, dim)``
arrays and advances all N through one shared iteration loop.

Two substrates batch, and one executor runs both as Definition 1's
``(S, L)`` schedule: per global iteration ``j``, it gathers every row's
delayed iterate by label from a ``(depth, N, dim)`` history of iterates
and applies each block of ``S_j`` as one stacked call over the live rows.

* **engine-kind, ``exact`` backend** — the steering policy and the
  delay model draw ``S_j`` and ``l(j)``; the history is a ring of
  ``max_delay(J) + 1`` iterates when every delay model states a bound
  (:meth:`~repro.delays.base.DelayModel.max_delay`), all ``J + 1``
  otherwise.
* **simulator-kind, ``vectorized`` or ``reference`` backend, a
  ``shared`` machine, no fault, native topology** — a shared machine
  entry's timing consumes no randomness (per-processor constant
  compute durations sharing a common base period, constant lossless
  channel latency below the fastest phase, single inner steps), so it
  induces one value-independent event schedule.  One run of the event
  loop itself on a value-free operator records it per group
  (:func:`_machine_schedule`): per-commit update sets, snapshot labels
  and times; the history is a ring as deep as the longest read-back.

:func:`batchable` states this rule and is the only admission check:
it reads the spec, so nothing is built to decide.

Phase 2 pushes the remaining per-scenario floor out of the batch path:

* **batched construction** — homogeneous groups build their operators
  through :func:`repro.scenarios.registry.build_batch` (stacked RNG
  draws per chunk, one stacked LAPACK/gufunc analysis pass), falling
  back to per-spec factories for families without a batched twin;
* **shared models** — a steering, delay or machine registry entry
  that states ``shared`` (its factory draws nothing, its outputs depend
  on ``j`` alone) builds one instance for the whole batch.

Three invariants make the results *bit-identical* to solo runs:

1. **RNG stream preservation** — every scenario keeps the exact
   ingredient objects a solo run would build from its own
   :meth:`~repro.scenarios.spec.ScenarioSpec.spawn_seeds`; stochastic
   steering models are stepped per scenario, in the same call order, on
   the same per-scenario streams; every delay model draws a block of
   iterations at a time through
   :meth:`~repro.delays.base.DelayModel.raw_delay_block`, which
   consumes its stream exactly as per-iteration draws do; batched
   factories draw each scenario's stream in solo order from its own
   SeedSequence child.  Models whose registry entry states ``shared``
   draw nothing: one instance serves every row of the batch.
2. **No cross-scenario arithmetic** — every float a scenario sees comes
   from its own operands in the solo order.  Updates and residuals go
   through one stacked interface,
   :meth:`~repro.operators.base.FixedPointOperator.stack`, whose
   ``apply``/``apply_block`` take all live rows at once.  Per-scenario
   matvecs may run as one stacked ``np.matmul`` (numpy calls the same
   gemv per stack item as the solo call); never as ``einsum`` or one
   GEMM over concatenated rows, which reorder the sums, and no
   reduction ever crosses scenarios.  Elementwise steps take per-row
   parameter columns.  Vectorized twins exist for
   :class:`~repro.operators.linear.AffineOperator` (jacobi, tridiagonal)
   and :class:`~repro.operators.prox_gradient.ForwardBackwardOperator`
   over least-squares or logistic smooth parts with the zero or L1 prox
   (ridge, lasso, logistic); every other family runs a row loop of solo
   calls.  The logistic sigmoid is elementwise, without masks, and a
   group's reference points come from one stacked FISTA
   (:meth:`~repro.problems.base.CompositeProblem.precompute_batch`).
   Element gathers/scatters and max-based norms are exact under any
   regrouping and vectorize freely.
3. **Divergence masking** — a scenario that terminates (tolerance
   reached, budget exhausted) freezes: its final state is snapshotted
   and it stops consuming its streams, exactly where the solo loop
   would have stopped, while the rest of the batch continues.  Its
   delay stream may have been drawn up to one label block ahead, and
   no result reads those draws.

Batches are grouped by :attr:`ScenarioSpec.batch_key` (every spec
field but the seed), so every member shares problem shape, model
ingredients, backend, budget and tolerance.  Specs that are not
batchable run through the solo runner, and a batch that raises is
rerun solo so each row carries its own error: batching can change
throughput but never results.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.operators.base import FixedPointOperator, OperatorStack
from repro.runtime.simulator.engine import RESIDUAL_EVERY, DistributedSimulator

if TYPE_CHECKING:  # registry -> simulator package -> here: keep lazy
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "batchable",
    "construction_seconds",
    "run_scenario_batch",
]

#: History memory cap per batch: the ``(depth, B, dim)`` float64 history
#: (a ring as deep as the schedule's longest read-back, see
#: :func:`_ring_depth`) is windowed over the batch so no window
#: allocates more.
_MAX_BATCH_BYTES = 64 * 2**20

#: Raw delay label memory cap per engine group: its ``(sources, K, n)``
#: int64 block holds ``K`` iterations of draws, as many as fit.
_LABEL_BLOCK_BYTES = 128 * 2**10


#: Cumulative wall seconds batches spent constructing problems, models,
#: schedules and operator analysis (read by the bench harness to attribute
#: construction overhead; meaningful under the serial executor only).
_construction_seconds = 0.0


def construction_seconds() -> float:
    """Total in-process wall time batches spent in per-scenario setup."""
    return _construction_seconds


def _spawn_seeds(spec: ScenarioSpec, count: int) -> "list[Any]":
    """First ``count`` of the spec's seven child seeds, skipping the rest.

    ``SeedSequence.spawn(k)`` children are prefix-stable: child ``i``
    is keyed by ``spawn_key == (i,)`` regardless of ``k``, so spawning
    only the streams a batch actually consumes yields the same seed
    objects :meth:`ScenarioSpec.spawn_seeds` would return at those
    positions, for a fraction of the hashing cost.
    """
    return np.random.SeedSequence(spec.seed).spawn(count)


# ----------------------------------------------------------------------
# Eligibility and grouping
# ----------------------------------------------------------------------

#: Simulator backends a lockstep batch serves: the two event-loop twins,
#: bit-identical to each other, so one run of the vectorized loop gives
#: the schedule of either.
_SIM_BACKENDS = ("vectorized", "reference")


def batchable(spec: ScenarioSpec) -> bool:
    """Whether ``spec`` may run in a batch: the one admission rule.

    Read from the spec alone, so nothing is built to decide.  Engine
    scenarios batch on the ``exact`` backend (the ``flexible`` engine
    draws backend-internal randomness per update and stays solo).
    Simulator scenarios batch on the event-loop backends when their
    machine entry states ``shared`` (one value-free lockstep schedule
    serves the group, see
    :class:`~repro.scenarios.registry.RegistryEntry`), no fault
    perturbs that schedule per scenario and no topology replaces the
    machine's channels.
    """
    if spec.kind == "engine":
        return spec.backend == "exact"
    from repro.scenarios.registry import REGISTRY

    return (
        spec.backend in _SIM_BACKENDS
        and spec.fault == "none"
        and spec.topology == "native"
        and spec.machine in REGISTRY.names("machine")  # unknown: solo's error
        and REGISTRY.get("machine", spec.machine).shared
    )


def _group(specs: Sequence[ScenarioSpec]) -> "list[list[int]]":
    """Indices of ``specs`` grouped by homogeneity key, order preserved."""
    groups: dict[Any, list[int]] = {}
    order: list[Any] = []
    for i, spec in enumerate(specs):
        key = spec.batch_key if batchable(spec) else f"solo:{i}"
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    return [groups[k] for k in order]


def run_scenario_batch(
    specs: Sequence[ScenarioSpec],
    *,
    solo: "Callable[[ScenarioSpec], Any] | None" = None,
) -> "list[Any]":
    """Execute a chunk of specs, batching homogeneous groups in lockstep.

    Results come back in input order and are bit-identical (per
    scenario) to ``[solo(s) for s in specs]``.  Specs that are not
    :func:`batchable` and groups of one run through ``solo`` (default
    :func:`~repro.runtime.fleet.run_scenario`).  A batch that raises
    is rerun solo, so each row gets its own error.  The fleet hands it
    only its batched units, one group of two or more specs each (see
    :func:`~repro.runtime.fleet._plan`).
    """
    if solo is None:
        from repro.runtime.fleet import run_scenario as solo  # type: ignore[no-redef]

    out: list[Any] = [None] * len(specs)
    for indices in _group(specs):
        group = [specs[i] for i in indices]
        results: "list[Any] | None" = None
        if len(group) >= 2 and batchable(group[0]):
            try:
                results = _run_batch(group)
            except Exception:  # noqa: BLE001 - solo captures each row's error
                results = None
        if results is None:
            results = [solo(s) for s in group]
        for i, r in zip(indices, results):
            out[i] = r
    return out


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _precompute_analysis(ops: "Sequence[Any]") -> None:
    """Batch the operators' lazy analysis when the family supports it.

    Purely a scheduling change: affine operators run their LAPACK
    routines as stacked gufuncs, one call per matrix, and
    forward-backward operators solve their reference points as one
    stacked FISTA, so cached values match the lazy path bit for bit
    (see :meth:`AffineOperator.precompute_batch` and
    :meth:`CompositeProblem.precompute_batch`).
    """
    from repro.operators.linear import AffineOperator
    from repro.operators.prox_gradient import ForwardBackwardOperator
    from repro.problems.base import CompositeProblem

    if all(type(op) is AffineOperator for op in ops):
        AffineOperator.precompute_batch(list(ops))
    elif all(type(op) is ForwardBackwardOperator for op in ops):
        CompositeProblem.precompute_batch([op.problem for op in ops])


def _build_problems(specs: Sequence[ScenarioSpec]) -> "list[Any]":
    """Operators for one homogeneous group, batch-constructed when possible.

    :func:`repro.scenarios.registry.build_batch` stacks the instance
    generation for whitelisted families (each scenario's stream drawn
    in solo order from its own SeedSequence child, so results are
    bit-identical to per-spec builds); families without a batched twin
    construct one spec at a time exactly as before.
    """
    from repro.scenarios import registry

    ops = registry.build_batch(list(specs))
    if ops is None:
        ops = [
            registry.make_problem(
                spec.problem, _spawn_seeds(spec, 1)[0], **spec.problem_params
            )
            for spec in specs
        ]
    return ops


def _comp_of_elem(block_spec: Any, dim: int) -> np.ndarray:
    """Element index -> owning component index."""
    owners = np.empty(dim, dtype=np.intp)
    for i in range(block_spec.n_blocks):
        sl = block_spec.slice(i)
        owners[sl.start: sl.stop] = i
    return owners


class _BatchedNorm:
    """Vectorized twin of N per-scenario :class:`WeightedMaxNorm` calls.

    Weighted block-max norms are eligible for cross-scenario batching
    because every operation — ``abs``, per-block ``maximum.reduceat``,
    elementwise division by the (per-scenario) weights, and the final
    max — is bit-exact under regrouping.  ``None`` when any norm is not
    a plain :class:`~repro.utils.norms.WeightedMaxNorm` or the block
    structures differ (callers then loop the norm objects).
    """

    def __init__(self, spec: Any, weights: np.ndarray) -> None:
        self._spec = spec
        self._weights = weights  # (B, n_blocks)

    @classmethod
    def build(cls, norms: "Sequence[Any]") -> "_BatchedNorm | None":
        from repro.utils.norms import WeightedMaxNorm

        if any(type(nm) is not WeightedMaxNorm for nm in norms):
            return None
        spec = norms[0].spec
        for nm in norms[1:]:
            if nm.spec.n_blocks != spec.n_blocks or not np.array_equal(
                nm.spec._starts, spec._starts
            ):
                return None
        return cls(spec, np.stack([nm.weights for nm in norms]))

    @classmethod
    def build_from_ops(cls, ops: "Sequence[Any]") -> "_BatchedNorm | None":
        """Like :meth:`build` on ``[op.norm() for op in ops]``, but reading
        :class:`AffineOperator` contraction caches directly — same weight
        values without constructing ``B`` norm objects."""
        from repro.operators.linear import AffineOperator

        if not all(
            type(op) is AffineOperator and op._contraction_computed for op in ops
        ):
            return cls.build([op.norm() for op in ops])
        spec = ops[0].block_spec
        starts = spec._starts
        for op in ops[1:]:
            if not np.array_equal(op.block_spec._starts, starts):
                return cls.build([op.norm() for op in ops])
        weights = np.empty((len(ops), spec.n_blocks))
        ones = np.ones(spec.n_blocks)
        for k, op in enumerate(ops):
            # Mirrors AffineOperator.norm(): Perron weights when the
            # contraction exists on scalar blocks, uniform otherwise.
            if op._contraction is None or not spec.is_scalar:
                weights[k] = ones
            else:
                weights[k] = op._contraction[1]
        return cls(spec, weights)

    def __call__(self, X: np.ndarray, rows: "np.ndarray | None" = None) -> np.ndarray:
        """Per-row norms of ``X`` (``(B', dim)``); ``rows`` selects weights."""
        W = self._weights if rows is None else self._weights[rows]
        A = np.asarray(X, dtype=np.float64)
        if self._spec.is_scalar:
            A = np.abs(A)
        else:
            # block_euclidean_norms, row-wise: same sequential reduceat
            # sums per segment, so bits match the 1-D evaluation.
            A = np.sqrt(np.add.reduceat(A * A, self._spec._starts[:-1], axis=1))
        return (A / W).max(axis=1)


def _build_residual(stack: OperatorStack, batched_norm: "_BatchedNorm | None"):
    """Residual evaluator over stacked rows, vectorizing the norm when exact.

    When the operator type keeps the base-class residual definition
    (``||F(x) - x||_u``) and the norm batches, residuals for many rows
    are one stacked ``apply`` plus one batched norm.  Otherwise every
    row is a plain ``op.residual(x)`` call — always bit-identical, just
    slower.
    """
    plain = all(
        type(op).residual is FixedPointOperator.residual for op in stack.ops
    )
    if plain and batched_norm is not None:
        def residuals(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
            return batched_norm(stack.apply(X, rows) - X, rows)
        return residuals
    return stack.residual


# ----------------------------------------------------------------------
# Schedules: Definition 1's (S, L) for one group
# ----------------------------------------------------------------------

class _Schedule(NamedTuple):
    """Definition 1's ``(S_j, l(j))``, ``j = 1..J``, for one batch group.

    ``step(j, rows)`` gives iteration ``j`` for the live group ``rows``:
    the labels as history slots per element — one ``(1, dim)`` row the
    batch shares, or one row per live scenario — and the update set,
    either a block list the batch shares, or ``None`` with a
    ``(len(rows), n)`` per-row membership mask.  Iterate ``m`` lives in
    history slot ``m % depth`` (see :func:`_ring_depth`).

    A simulator phase differs from an engine iteration in three facts
    the schedule states: its blocks sweep Gauss-Seidel (each reads the
    ones before it), its residual refreshes every ``residual_every``
    commits and at the budget, and it has commit ``times``, with
    ``messages[j]`` messages sent up to commit ``j``.
    """

    J: int
    depth: int
    step: "Callable[[int, np.ndarray], tuple[np.ndarray, Any, Any]]"
    gauss_seidel: bool = False
    residual_every: int = 1
    times: "np.ndarray | None" = None
    messages: "np.ndarray | None" = None


def _ring_depth(J: int, reach: int) -> int:
    """History depth of a schedule whose labels read at most ``reach`` back.

    A label ``l`` at step ``j`` reads ``j - l <= reach`` iterates back.
    Step ``j`` gathers its delayed rows before it writes slot
    ``j % depth``, whose previous iterate ``j - depth`` no label at
    ``j`` or later reaches when ``depth >= reach``.  So the ring is as
    deep as the longest read-back, and never deeper than the ``J + 1``
    iterates there are.
    """
    return min(reach, J + 1)


def _engine_schedule(specs: Sequence[ScenarioSpec], block: Any) -> _Schedule:
    """The schedule an ``exact``-backend engine group draws.

    Replicates :meth:`AsyncIterationEngine.run` with the fleet's request
    (``x0 = 0``, ``residual_every = 1``, no trace sink): ``S_j`` comes
    from each scenario's steering policy and ``l(j)`` from its delay
    model, stepped in solo call order on its own streams.  Raw delays
    go into one ``(sources, K, n)`` block, filled up to ``K``
    iterations at a time through
    :meth:`~repro.delays.base.DelayModel.raw_delay_block` (which
    consumes each stream exactly as per-iteration draws do), and are
    clipped per iteration.  The full iterate at label ``m`` *is* every
    component's most recent value at or before ``m``, so one gather
    reproduces ``VectorHistory.assemble`` exactly.  A label reads at
    most ``D + 1`` iterates back when every source states
    ``max_delay(J) = D``, so the history is a ring of ``D + 1``
    iterates; without a statement a label may reach back to ``x0`` and
    the ring holds all ``J + 1``.
    """
    from repro.scenarios import registry

    n = block.n_blocks

    # A registry entry that states ``shared`` holds no per-scenario
    # stream (its factory draws nothing, its outputs depend on j
    # alone), so the first spec's instance serves the whole batch —
    # solo runs build B identical copies.  Seed children are spawned
    # per scenario only when some model draws from them (steering =
    # child 1, delays = child 2; prefix-stable spawning keeps them
    # bit-equal to solo).
    head = specs[0]
    shared_steering = registry.entry("steering", head.steering).shared
    shared_delays = registry.entry("delays", head.delays).shared
    seeds = _spawn_seeds(head, 3)
    steering0 = registry.make_steering(head.steering, n, seeds[1], **head.steering_params)
    delays0 = registry.make_delays(head.delays, n, seeds[2], **head.delay_params)
    steerings, delay_models = [steering0], [delays0]
    for spec in specs[1:]:
        if not (shared_steering and shared_delays):
            seeds = _spawn_seeds(spec, 3)
        steerings.append(steering0 if shared_steering else registry.make_steering(
            spec.steering, n, seeds[1], **spec.steering_params
        ))
        delay_models.append(delays0 if shared_delays else registry.make_delays(
            spec.delays, n, seeds[2], **spec.delay_params
        ))
    for model in steerings + delay_models:
        model.reset()

    # Label sources: the head model for the whole batch, or each
    # scenario's own.  Each live source fills a block of raw delays,
    # and each iteration clips one block row per source.  A block is
    # as wide as the iterations run so far, up to K, so a row that
    # stops mid-block has drawn fewer than twice the iterations it ran.
    J = head.max_iterations
    sources = [delays0] if shared_delays else delay_models
    stated = [m.max_delay(J) for m in sources]
    D = None if None in stated else max(stated)
    depth = _ring_depth(J, J + 1 if D is None else D + 1)
    K = max(1, min(J, _LABEL_BLOCK_BYTES // (len(sources) * n * 8)))
    raw = np.empty((len(sources), K, n), dtype=np.int64)
    head_row = np.zeros(1, dtype=np.intp)
    comp_map = _comp_of_elem(block, block.dim)
    start = end = 1  # the current block holds iterations start .. end - 1

    def step(j: int, rows: np.ndarray) -> "tuple[np.ndarray, Any, Any]":
        nonlocal start, end
        src = head_row if shared_delays else rows
        if j == 1 or j == end:  # refill the live sources' blocks
            width = min(K, j, J - j + 1)
            start, end = j, j + width
            for s in src.tolist():
                d = sources[s].raw_delay_block(j, width)
                # A (n,) block would broadcast into the (width, n) slot.
                if d.shape != (width, n):
                    raise RuntimeError("raw_delays contract violation")
                raw[s, :width] = d
            drawn = raw[src, :width]
            if drawn.min() < 0:
                raise RuntimeError("raw_delays contract violation")
            # A delay above the statement would read an overwritten slot.
            if D is not None and drawn.max() > D:
                raise RuntimeError(
                    f"a raw delay exceeds the stated max_delay({J}) = {D}"
                )
        # d >= 0, so clipping (j - 1) - d to [0, j - 1] only needs
        # the lower bound.
        lab = (np.maximum((j - 1) - raw[src, j - start], 0) % depth)[:, comp_map]
        if shared_steering:
            S = steering0.active_set(j)
            if len(S) == 0:
                raise RuntimeError(f"steering produced empty S_{j}")
            return lab, S, None
        member = np.zeros((len(rows), n), dtype=bool)
        for k, b in enumerate(rows.tolist()):
            S = steerings[b].active_set(j)
            if len(S) == 0:
                raise RuntimeError(f"steering produced empty S_{j}")
            member[k, list(S)] = True
        return lab, None, member

    return _Schedule(J, depth, step)


# ----------------------------------------------------------------------
# Lockstep machines: the schedule a deterministic machine induces
# ----------------------------------------------------------------------

class _ValueFree(FixedPointOperator):
    """The identity on a block structure, with residual 0 and no fixed point.

    An event loop run on it does no arithmetic and takes no error norm,
    so all it produces is its machine's schedule.
    """

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x

    def gauss_seidel(self, x: np.ndarray, blocks: Sequence[int]) -> None:
        pass

    def residual(self, x: np.ndarray) -> float:
        return 0.0


class _ScheduleSink:
    """Trace sink that keeps what a lockstep batch reads of a run.

    Preallocated for ``J`` commits: each commit's per-component labels,
    its time and its active set (the sink interface
    :func:`~repro.core.trace.resolve_sink` accepts).
    """

    def __init__(self, n_components: int, J: int) -> None:
        self.n_components = n_components
        self.owners = None
        self.labels = np.empty((J, n_components), dtype=np.int64)
        self.times = np.empty(J)
        self.active: "list[tuple[int, ...]]" = []

    def record_initial(self, **series: Any) -> None:
        pass

    def record(self, active_set: "tuple[int, ...]", labels: np.ndarray,
               *, time: float, **series: Any) -> None:
        j = len(self.active)
        self.labels[j] = labels
        self.times[j] = time
        self.active.append(active_set)

    def build(self) -> "_ScheduleSink":
        return self


def _machine_schedule(specs: Sequence[ScenarioSpec], block: Any) -> _Schedule:
    """The schedule a lockstep machine induces, read from one run of it.

    :func:`batchable` admits only machines whose registry entry states
    ``shared``, which for a machine states one value-free lockstep
    schedule (see :class:`~repro.scenarios.registry.RegistryEntry`;
    ``tests/scenarios/test_model_contract.py`` checks each such entry).
    So the head spec's machine is built once, as
    :func:`~repro.runtime.fleet.execute_scenario` builds it, and the
    event loop runs it once on a value-free operator over the whole
    budget.  Its trace is the group's schedule: commit ``j`` updates
    ``S_j``, Gauss-Seidel, from the labels its phase snapshot held, at
    its commit time.  The history is a ring as deep as any commit's
    longest read-back (see :func:`_ring_depth`).

    Message counts follow the loop with the fleet's options: every
    commit sends one message per owned component to each peer.  Rows
    that stop early read a prefix of these counts, and the run's own
    total checks them.
    """
    from repro.scenarios import registry

    head = specs[0]
    seeds = _spawn_seeds(head, 4)
    procs, channels = registry.make_machine(
        head.machine, block.n_blocks, seeds[3], **head.machine_params
    )
    sink = _ScheduleSink(block.n_blocks, head.max_iterations)
    run = DistributedSimulator(
        _ValueFree(block.dim, block), procs, channels=channels, seed=seeds[1]
    ).run(
        np.zeros(block.dim), max_iterations=head.max_iterations, tol=0.0,
        record_messages=False, sink=sink,
    )
    S = sink.active
    J = len(S)
    labels = sink.labels[:J]
    depth = _ring_depth(J, int((np.arange(1, J + 1) - labels.min(axis=1)).max()))
    labels %= depth  # the labels' history slots, in place
    comp_map = _comp_of_elem(block, block.dim)

    def step(j: int, rows: np.ndarray) -> "tuple[np.ndarray, Any, Any]":
        return labels[j - 1][comp_map][None, :], S[j - 1], None

    sent = (len(procs) - 1) * np.fromiter(map(len, S), dtype=np.int64, count=J)
    messages = np.concatenate(([0], np.cumsum(sent)))
    if messages[-1] != run.stats["messages_sent"]:
        raise RuntimeError(
            f"lockstep schedule counts {messages[-1]} messages, the run sent "
            f"{run.stats['messages_sent']:.0f}"
        )
    return _Schedule(
        J, depth, step,
        gauss_seidel=True,
        residual_every=RESIDUAL_EVERY,
        times=sink.times[:J],
        messages=messages,
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

def _run_batch(specs: Sequence[ScenarioSpec]) -> "list[Any]":
    """Run one homogeneous group as its Definition 1 schedule.

    Per ``j``: gather every live row's delayed iterate by label, copy
    the iterate after ``j - 1`` forward, then apply each block of
    ``S_j`` as one stacked ``apply_block`` over the rows that update
    it — in a simulator phase writing each block back into the gathered
    rows before the next block runs, which is the event loop's
    Gauss-Seidel sweep.  Stopping follows the solo loops: the residual
    refreshes on the schedule's cadence, the carried value is tested
    every ``j`` (seeded with the initial residual), and a row that
    stops (tolerance or budget) freezes at its own ``j`` while the rest
    continue down the shared schedule.

    Only :func:`batchable` groups come here.  Whatever raises (a
    factory rejecting its params, a model breaking its contract)
    propagates, and :func:`run_scenario_batch` reruns the group solo.
    """
    from repro.runtime.fleet import ScenarioResult

    global _construction_seconds
    t0 = time.perf_counter()
    B = len(specs)
    head = specs[0]
    tol = head.tol

    ops = _build_problems(specs)
    n = ops[0].n_components
    dim = ops[0].dim
    for op in ops[1:]:
        if op.dim != dim or op.n_components != n:
            raise ValueError(
                "operators in one batch group must share their shape; got "
                f"dim {op.dim} vs {dim}"
            )
    block = ops[0].block_spec
    build = _engine_schedule if head.kind == "engine" else _machine_schedule
    sched = build(specs, block)
    slices = [block.slice(i) for i in range(n)]
    elem_range = np.arange(dim, dtype=np.intp)
    _precompute_analysis(ops)
    refs = [op.fixed_point() for op in ops]
    batched_norm = _BatchedNorm.build_from_ops(ops)
    stack = type(ops[0]).stack(ops)
    residual_of = _build_residual(stack, batched_norm)
    _construction_seconds += time.perf_counter() - t0

    J, depth, step = sched.J, sched.depth, sched.step
    every, gauss_seidel = sched.residual_every, sched.gauss_seidel
    # The carried residual series feeds time_to_tol; only simulator
    # rows have one.
    series = tol > 0.0 and sched.times is not None
    if series:
        from repro.analysis.rates import time_to_tolerance
    x_final = np.zeros((B, dim))
    iterations = np.zeros(B, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    ttt: list[Any] = [None] * B

    # Window the batch so the (depth, B, dim) history stays bounded.
    window = max(2, int(_MAX_BATCH_BYTES // (depth * dim * 8)))
    for w0 in range(0, B, window):
        wB = min(B, w0 + window) - w0
        H = np.zeros((depth, wB, dim))  # H[0] = x0 = 0, the fleet's start
        flatH = H.reshape(-1)
        live = np.arange(wB, dtype=np.intp)  # window rows still running
        last_res = residual_of(H[0], live + w0) if tol > 0.0 else None
        R = np.empty((J + 1, wB)) if series else None
        if R is not None:
            R[0] = last_res
        j_done = 0

        for j in range(1, J + 1):
            j_done = j
            rows = live + w0  # their indices into the group
            sel = slice(None) if len(live) == wB else live
            lab, S, member = step(j, rows)
            gather = (lab * wB + live[:, None]) * dim + elem_range
            delayed = flatH[gather.reshape(-1)].reshape(len(live), dim)

            Hj = H[j % depth]
            Hj[...] = H[(j - 1) % depth]
            if member is None:
                for i in S:
                    out = stack.apply_block(delayed, i, rows)
                    Hj[sel, slices[i]] = out
                    if gauss_seidel:
                        delayed[:, slices[i]] = out
            else:
                for i in np.flatnonzero(member.any(axis=0)).tolist():
                    sub = np.flatnonzero(member[:, i])
                    Hj[live[sub], slices[i]] = stack.apply_block(
                        delayed[sub], i, rows[sub]
                    )

            if tol > 0.0:
                if j % every == 0 or j == J:
                    last_res[sel] = residual_of(Hj[sel], rows)
                if R is not None:
                    R[j] = last_res
                done = last_res[live] < tol
                if done.any():
                    stop = live[done]
                    converged[stop + w0] = True
                    iterations[stop + w0] = j
                    x_final[stop + w0] = Hj[stop]
                    live = live[~done]
                    if not len(live):
                        break

        iterations[live + w0] = j_done
        x_final[live + w0] = H[j_done % depth, live]
        if R is not None:
            # A row's series runs up to the commit at which it stopped.
            for b in range(wB):
                k = int(iterations[w0 + b])
                ttt[w0 + b] = time_to_tolerance(R[: k + 1, b], sched.times[:k], tol)

    # Solo recomputes the residual at the final iterate even when the
    # loop already measured it (same call, same bits).
    final_res = residual_of(x_final, np.arange(B, dtype=np.intp))
    # Final error ||x - x*||_u, exactly the last entry of the solo
    # trace's error series.  Batched when the norm allows, per-scenario
    # norm calls otherwise; None wherever there is no reference.
    errors: list[float | None] = [None] * B
    have_ref = [b for b in range(B) if refs[b] is not None]
    if have_ref:
        D = np.stack([x_final[b] - refs[b] for b in have_ref])
        if batched_norm is not None:
            vals = batched_norm(D, np.asarray(have_ref)).tolist()
        else:
            vals = [float(ops[b].norm()(d)) for b, d in zip(have_ref, D)]
        for b, v in zip(have_ref, vals):
            errors[b] = v

    wall_each = (time.perf_counter() - t0) / B
    sim = sched.times is not None
    out = []
    for b, spec in enumerate(specs):
        k = int(iterations[b])
        out.append(ScenarioResult(
            key=spec.key,
            spec=spec,
            iterations=k,
            converged=bool(converged[b]),
            final_residual=float(final_res[b]),
            final_error=errors[b],
            sim_time=float(sched.times[k - 1]) if sim else None,
            time_to_tol=ttt[b],
            wall_time=wall_each,
            info={
                "messages_sent": float(sched.messages[k]),
                "messages_dropped": 0.0,
                "phases_completed": float(k),
            } if sim else {},
            trace_path=None,
        ))
    return out
