"""Scenario-batched lockstep execution of homogeneous spec groups.

The fleet's per-scenario cost floor is Python dispatch: one
:func:`~repro.runtime.fleet.run_scenario` call per grid point pays for
backend lookup, engine construction, trace bookkeeping and per-iteration
interpreter overhead even when the scenario itself is six floats wide
and four iterations deep.  The paper's delay-regime sweeps are exactly
such populations — thousands of *same-shape* scenarios differing only
in their RNG seed — so this module stacks N of them into ``(N, dim)``
arrays and advances all N through one shared iteration loop.

Two substrates batch:

* **engine-kind, ``exact`` backend** — Definition 1's global iteration
  *is* the lockstep clock: every scenario advances one ``j`` per round.
* **simulator-kind, lockstep-compatible machines** — machines whose
  timing consumes no randomness (per-processor constant compute
  durations sharing a common base period, constant lossless channel
  latency below the fastest phase, single inner steps) induce a
  value-independent event schedule.  A value-free replay of the event
  loop's heap (:func:`_lockstep_schedule`) transcribes that schedule
  once per group; the batch then executes the resulting op-list —
  snapshot, deliver, commit — over ``(P, N, dim)`` state.

Phase 2 pushes the remaining per-scenario floor out of the batch path:

* **batched construction** — homogeneous groups build their operators
  through :func:`repro.scenarios.registry.build_batch` (stacked RNG
  draws per chunk, one stacked LAPACK/gufunc analysis pass), falling
  back to per-spec factories for families without a batched twin;
* **wider whitelist** — even-odd steering and the deterministic
  log/power delay-growth families join the shared-model fast path, and
  ``lockstep_plan`` admits per-processor constant durations with a
  common period (e.g. the ``lockstep-tiered`` archetype) instead of one
  all-equal duration.

Three invariants make the results *bit-identical* to solo runs:

1. **RNG stream preservation** — every scenario keeps the exact
   ingredient objects a solo run would build from its own
   :meth:`~repro.scenarios.spec.ScenarioSpec.spawn_seeds`; stochastic
   steering/delay models are stepped per scenario, in the same call
   order, on the same per-scenario streams; batched factories draw each
   scenario's stream in solo order from its own SeedSequence child.
   Deterministic models (cyclic/block/even-odd steering, zero/constant/
   log-growth/power delays) are evaluated once per iteration and shared
   across the batch.
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
   calls.  Element gathers/scatters and max-based norms are exact under
   any regrouping and vectorize freely.
3. **Divergence masking** — a scenario that terminates (tolerance
   reached, budget exhausted) freezes: its final state is snapshotted
   and it stops consuming its streams, exactly where the solo loop
   would have stopped, while the rest of the batch continues.

Batches are grouped by :attr:`ScenarioSpec.batch_key` (the canonical
identity minus the seed), so every member shares problem shape, model
ingredients, backend, budget and tolerance.  Anything unbatchable — and
any batch that raises mid-flight — falls back to the solo runner, so
batching can change throughput but never results.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.operators.base import FixedPointOperator, OperatorStack

if TYPE_CHECKING:  # registry -> simulator package -> here: keep lazy
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "LockstepIncompatible",
    "batchable",
    "construction_seconds",
    "run_scenario_batch",
]

#: History memory cap per engine batch: ``(J+1, B, dim)`` float64 slabs
#: are windowed so one batch never allocates more than this.
_MAX_BATCH_BYTES = 64 * 2**20

#: Steering policies whose active sets depend only on ``j`` — shared
#: across the batch instead of stepped per scenario.
_DETERMINISTIC_STEERING: tuple[type, ...] = ()
#: Delay models whose labels depend only on ``j``.
_DETERMINISTIC_DELAYS: tuple[type, ...] = ()


def _det_classes() -> "tuple[tuple[type, ...], tuple[type, ...]]":
    """Lazy import of the deterministic model whitelists (no import cycles).

    A class is admissible here iff its registry factory consumes no
    per-scenario randomness *and* its outputs are pure functions of
    ``j`` — then the head spec's instance is interchangeable with every
    scenario's own.  ``BaudetSqrtDelay`` is deterministic per instance
    but its factory draws the slow set from the scenario stream, so it
    stays on the per-scenario path.
    """
    global _DETERMINISTIC_STEERING, _DETERMINISTIC_DELAYS
    if not _DETERMINISTIC_STEERING:
        from repro.delays.bounded import ConstantDelay, ZeroDelay
        from repro.delays.unbounded import LogGrowthDelay, PowerGrowthDelay
        from repro.steering.policies import (
            AllComponents,
            BlockCyclic,
            CyclicSingle,
            EvenOddSweeps,
        )

        _DETERMINISTIC_STEERING = (
            AllComponents, CyclicSingle, BlockCyclic, EvenOddSweeps,
        )
        _DETERMINISTIC_DELAYS = (
            ZeroDelay, ConstantDelay, LogGrowthDelay, PowerGrowthDelay,
        )
    return _DETERMINISTIC_STEERING, _DETERMINISTIC_DELAYS


class LockstepIncompatible(ValueError):
    """A machine description cannot be executed as deterministic lockstep rounds."""


#: Cumulative wall seconds batches spent constructing problems, models
#: and operator analysis (read by the bench harness to attribute
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

#: Simulator backends whose solo semantics the lockstep replay
#: reproduces (the two event-loop twins and the batched front itself).
_SIM_BACKENDS = ("vectorized", "reference", "batched-lockstep")


def batchable(spec: ScenarioSpec) -> bool:
    """Whether ``spec`` is *eligible* for batched execution.

    Engine scenarios batch on the ``exact`` backend (the ``flexible``
    engine draws backend-internal randomness per update and stays
    solo).  Simulator scenarios are eligible on the event-loop
    backends; whether their machine really is lockstep-compatible is
    only decidable after building it, so that check happens inside the
    batch (incompatible groups fall back to solo, once per group).
    """
    if spec.kind == "engine":
        return spec.backend == "exact"
    return spec.backend in _SIM_BACKENDS


def _fast_key(spec: ScenarioSpec) -> "tuple[Any, ...]":
    """Cheap stand-in for :attr:`ScenarioSpec.batch_key` in the hot path.

    ``repr`` of the param dicts is order-sensitive where the canonical
    JSON is not, so two equal-content specs built with different dict
    orderings may land in *separate* groups — a lost batching
    opportunity, never a wrong merge (distinct contents never repr
    equal).  Grids enumerate params identically, so in practice the
    partition matches ``batch_key`` at a fraction of its cost.
    """
    return (
        spec.problem, spec.kind, spec.steering, spec.delays, spec.machine,
        spec.fault, spec.topology,
        spec.backend, int(spec.max_iterations), float(spec.tol),
        repr(spec.problem_params), repr(spec.steering_params),
        repr(spec.delay_params), repr(spec.machine_params),
        repr(spec.fault_params), repr(spec.topology_params),
    )


def _group(specs: Sequence[ScenarioSpec]) -> "list[list[int]]":
    """Indices of ``specs`` grouped by homogeneity key, order preserved."""
    groups: dict[Any, list[int]] = {}
    order: list[Any] = []
    for i, spec in enumerate(specs):
        key = _fast_key(spec) if batchable(spec) else f"solo:{i}"
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
    scenario) to ``[solo(s) for s in specs]`` — groups of fewer than
    two batchable specs, ineligible specs, and any group whose batch
    raises run through ``solo`` (default
    :func:`~repro.runtime.fleet.run_scenario`).  This is the unit the
    fleet's chunk dispatch routes through one worker task.
    """
    if solo is None:
        from repro.runtime.fleet import run_scenario as solo  # type: ignore[no-redef]

    out: list[Any] = [None] * len(specs)
    for indices in _group(specs):
        group = [specs[i] for i in indices]
        results: "list[Any] | None" = None
        if len(group) >= 2 and batchable(group[0]):
            try:
                if group[0].kind == "engine":
                    results = _run_engine_batch(group)
                else:
                    results = _run_lockstep_batch(group)
            except Exception:  # noqa: BLE001 - solo is the behavioural oracle
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
    """Batch the operators' lazy LAPACK work when the family supports it.

    Purely a scheduling change: the stacked gufunc calls run the same
    routine per matrix, so cached values match the lazy path bit for
    bit (see :meth:`AffineOperator.precompute_batch`).
    """
    from repro.operators.linear import AffineOperator

    if all(type(op) is AffineOperator for op in ops):
        AffineOperator.precompute_batch(list(ops))


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


def _summaries(
    specs: Sequence[ScenarioSpec],
    ops: "Sequence[Any]",
    refs: "Sequence[Any]",
    batched_norm: "_BatchedNorm | None",
    x_final: np.ndarray,
    iterations: np.ndarray,
    converged: np.ndarray,
    residuals: np.ndarray,
    sim_time: "np.ndarray | None",
    time_to_tol: "Sequence[Any] | None",
    info: "Sequence[dict[str, Any]] | None",
    wall_each: float,
) -> "list[Any]":
    """Assemble per-scenario :class:`ScenarioResult` rows from batch state."""
    from repro.runtime.fleet import ScenarioResult

    B = len(specs)
    # Final error ||x - x*||_u, exactly the last entry of the solo
    # trace's error series.  Batched when the norm allows, per-scenario
    # norm calls otherwise; None wherever there is no reference.
    errors: list[float | None] = [None] * B
    have_ref = [b for b in range(B) if refs[b] is not None]
    if have_ref:
        D = np.stack([x_final[b] - refs[b] for b in have_ref])
        if batched_norm is not None:
            vals = batched_norm(D, np.asarray(have_ref))
            for k, b in enumerate(have_ref):
                errors[b] = float(vals[k])
        else:
            for k, b in enumerate(have_ref):
                errors[b] = float(ops[b].norm()(D[k]))

    out = []
    for b, spec in enumerate(specs):
        out.append(
            ScenarioResult(
                key=spec.key,
                spec=spec,
                iterations=int(iterations[b]),
                converged=bool(converged[b]),
                final_residual=float(residuals[b]),
                final_error=errors[b],
                sim_time=None if sim_time is None else float(sim_time[b]),
                time_to_tol=None if time_to_tol is None else time_to_tol[b],
                wall_time=wall_each,
                info=dict(info[b]) if info is not None else {},
                trace_path=None,
            )
        )
    return out


# ----------------------------------------------------------------------
# Engine-kind batches: Definition 1 in lockstep over j
# ----------------------------------------------------------------------

def _run_engine_batch(specs: Sequence[ScenarioSpec]) -> "list[Any]":
    """Run one homogeneous group of ``exact``-backend engine scenarios.

    Replicates :meth:`AsyncIterationEngine.run` (with the fleet's
    request: ``x0 = 0``, ``residual_every = 1``, no trace sink) for all
    scenarios under one iteration counter.  The dense history slab
    ``H[j]`` holds the full iterate after iteration ``j`` — the full
    iterate at label ``m`` *is* every component's most recent value at
    or before ``m``, so one fancy gather reproduces
    ``VectorHistory.assemble`` exactly.
    """
    from repro.delays.base import DelayModel
    from repro.scenarios import registry

    global _construction_seconds
    t0 = time.perf_counter()
    B = len(specs)
    head = specs[0]
    J = head.max_iterations
    tol = head.tol
    det_steer, det_delay = _det_classes()

    ops = _build_problems(specs)
    n = ops[0].n_components

    # Deterministic model classes hold no per-scenario stream (outputs
    # are pure functions of j, constructors draw nothing), so the first
    # spec's instance serves the whole batch — solo runs build B
    # identical copies.  Seed children are spawned per scenario only
    # for the streams actually consumed (steering = child 1, delays =
    # child 2; prefix-stable spawning keeps them bit-equal to solo).
    steerings: list[Any] = []
    delay_models: list[Any] = []
    shared_steering = shared_delays = False
    for bi, spec in enumerate(specs):
        if bi == 0:
            seeds = _spawn_seeds(spec, 3)
            st = registry.make_steering(spec.steering, n, seeds[1], **spec.steering_params)
            dl = registry.make_delays(spec.delays, n, seeds[2], **spec.delay_params)
            shared_steering = isinstance(st, det_steer)
            shared_delays = isinstance(dl, det_delay)
        else:
            if shared_steering and shared_delays:
                st = steerings[0]
                dl = delay_models[0]
            elif shared_steering:
                st = steerings[0]
                dl = registry.make_delays(
                    spec.delays, n, _spawn_seeds(spec, 3)[2], **spec.delay_params
                )
            elif shared_delays:
                st = registry.make_steering(
                    spec.steering, n, _spawn_seeds(spec, 2)[1], **spec.steering_params
                )
                dl = delay_models[0]
            else:
                seeds = _spawn_seeds(spec, 3)
                st = registry.make_steering(spec.steering, n, seeds[1], **spec.steering_params)
                dl = registry.make_delays(spec.delays, n, seeds[2], **spec.delay_params)
        st.reset()
        dl.reset()
        steerings.append(st)
        delay_models.append(dl)

    # Stochastic delay models that keep the base-class ``labels`` can
    # batch their per-iteration clipping: raw delays are drawn per
    # scenario on its own stream (same call order as solo), then one
    # vectorized clip replaces B Python-level label conversions.
    batch_labels = not shared_delays and all(
        type(m).labels is DelayModel.labels for m in delay_models
    )

    dim = ops[0].dim
    for op in ops[1:]:
        if op.dim != dim or op.n_components != n:
            raise LockstepIncompatible(
                "operators in one batch group must share their shape; got "
                f"dim {op.dim} vs {dim}"
            )
    block = ops[0].block_spec
    slices = [block.slice(i) for i in range(n)]
    comp_map = _comp_of_elem(block, dim)
    elem_range = np.arange(dim, dtype=np.intp)
    _precompute_analysis(ops)
    refs = [op.fixed_point() for op in ops]
    batched_norm = _BatchedNorm.build_from_ops(ops)
    stack = type(ops[0]).stack(ops)
    residual_of = _build_residual(stack, batched_norm)
    _construction_seconds += time.perf_counter() - t0

    # Window the batch so the (J+1, B, dim) history slab stays bounded.
    window = max(2, int(_MAX_BATCH_BYTES // ((J + 1) * dim * 8)))

    X_parts: list[np.ndarray] = []
    it_parts: list[np.ndarray] = []
    cv_parts: list[np.ndarray] = []
    fr_parts: list[np.ndarray] = []
    for w0 in range(0, B, window):
        wB = min(B, w0 + window) - w0

        H = np.zeros((J + 1, wB, dim))  # H[0] = x0 = 0, the fleet's start
        iterations = np.full(wB, 0, dtype=np.int64)
        converged = np.zeros(wB, dtype=bool)
        x_final = np.zeros((wB, dim))
        flatH = H.reshape(-1)
        live = np.arange(wB, dtype=np.intp)  # window rows still running
        j_done = 0

        for j in range(1, J + 1):
            j_done = j
            rows = live + w0  # their indices into the group
            sel = slice(None) if len(live) == wB else live
            # Labels l_i(j): shared when the model is a pure function
            # of j, stepped on each scenario's own stream otherwise.
            if shared_delays:
                lab = delay_models[rows[0]].labels(j)
                elem_lab = lab[comp_map][None, :]
            elif batch_labels:
                d = np.stack(
                    [delay_models[b].raw_delays(j) for b in rows.tolist()]
                ).astype(np.int64, copy=False)
                if d.shape[1] != n or (d < 0).any():
                    raise RuntimeError("raw_delays contract violation")
                # d >= 0, so clipping (j - 1) - d to [0, j - 1] only
                # needs the lower bound.
                elem_lab = np.maximum((j - 1) - d, 0)[:, comp_map]
            else:
                lab_mat = np.stack(
                    [delay_models[b].labels(j) for b in rows.tolist()]
                )
                elem_lab = lab_mat[:, comp_map]
            gather = (elem_lab * wB + live[:, None]) * dim + elem_range
            delayed = flatH[gather.reshape(-1)].reshape(len(live), dim)

            # Every block of S_j reads the same delayed rows, so each
            # block is one stacked call over the rows that update it.
            Hj = H[j]
            Hj[...] = H[j - 1]
            if shared_steering:
                S = steerings[rows[0]].active_set(j)
                if len(S) == 0:
                    raise RuntimeError(f"steering produced empty S_{j}")
                for i in S:
                    Hj[sel, slices[i]] = stack.apply_block(delayed, i, rows)
            else:
                member = np.zeros((len(live), n), dtype=bool)
                for k, b in enumerate(rows.tolist()):
                    S = steerings[b].active_set(j)
                    if len(S) == 0:
                        raise RuntimeError(f"steering produced empty S_{j}")
                    member[k, list(S)] = True
                for i in np.flatnonzero(member.any(axis=0)).tolist():
                    sub = np.flatnonzero(member[:, i])
                    Hj[live[sub], slices[i]] = stack.apply_block(
                        delayed[sub], i, rows[sub]
                    )

            if tol > 0.0:
                # residual_every = 1 (the exact backend's fleet default):
                # the stopping test sees a fresh residual every j.
                done = residual_of(Hj[sel], rows) < tol
                if done.any():
                    stop = live[done]
                    converged[stop] = True
                    iterations[stop] = j
                    x_final[stop] = Hj[stop]
                    live = live[~done]
                    if not len(live):
                        break

        iterations[live] = j_done
        x_final[live] = H[j_done, live]

        # Solo recomputes the residual at the final iterate even when
        # the loop already measured it (same call, same bits).
        final_res = residual_of(x_final, np.arange(wB, dtype=np.intp) + w0)

        X_parts.append(x_final)
        it_parts.append(iterations)
        cv_parts.append(converged)
        fr_parts.append(final_res)

    wall_each = (time.perf_counter() - t0) / B
    return _summaries(
        list(specs), ops, refs, batched_norm,
        np.concatenate(X_parts), np.concatenate(it_parts),
        np.concatenate(cv_parts), np.concatenate(fr_parts),
        None, None, None, wall_each,
    )


# ----------------------------------------------------------------------
# Simulator-kind batches: deterministic lockstep schedules
# ----------------------------------------------------------------------

#: Named in every ``lockstep_plan`` rejection so callers know what the
#: fast path *does* admit next to what their machine violated.
_ADMISSIBLE = (
    "admissible for lockstep batching: ConstantTime compute (constant per "
    "processor, every duration an integer multiple of a common base round "
    "duration), single inner steps without partial publishing / read "
    "refreshing / think time, and lossless ConstantTime channel latency "
    "strictly below the fastest compute duration; deterministic steering "
    "(all/cyclic/block-cyclic/even-odd) and delay models (zero/constant/"
    "log-growth/power) additionally share one instance per batch; fault "
    "injection and topology overrides are excluded (fault='none', "
    "topology='native')"
)


class _LockstepPlan:
    """Validated schedule structure of a lockstep-compatible machine."""

    __slots__ = ("P", "components", "computes", "latencies", "n_peers")

    def __init__(
        self,
        P: int,
        components: "list[tuple[int, ...]]",
        computes: "list[float]",
        latencies: "dict[tuple[int, int], float]",
        n_peers: int,
    ) -> None:
        self.P = P
        self.components = components
        self.computes = computes
        self.latencies = latencies
        self.n_peers = n_peers

    @property
    def compute(self) -> float:
        """The base round duration (fastest processor's phase length)."""
        return min(self.computes)

    def matches(self, other: "_LockstepPlan") -> bool:
        return (
            self.components == other.components
            and self.computes == other.computes
            and self.latencies == other.latencies
        )


def lockstep_plan(processors: "Sequence[Any]", channels: Any) -> _LockstepPlan:
    """Validate that a machine induces a deterministic lockstep schedule.

    Requirements (each named on failure, alongside the admissible
    alternatives): every processor computes in :class:`ConstantTime` —
    durations may differ per processor but must all be integer
    multiples of the fastest one (the common base period) — with a
    single inner step and no partial publishing, read refreshing or
    think time; every channel is lossless :class:`ConstantTime` latency
    strictly below the base period.  Under these, the event schedule is
    value- and RNG-independent: commit order, commit times and message
    arrivals are fixed by the durations alone, so one value-free replay
    of the event loop (:func:`_lockstep_schedule`) serves every
    scenario in the batch.
    """
    from repro.runtime.simulator.channel import ChannelSpec
    from repro.runtime.simulator.timing import ConstantTime

    if not processors:
        raise LockstepIncompatible("lockstep needs at least one processor")
    computes: list[float] = []
    for pid, ps in enumerate(processors):
        if type(ps.compute_time) is not ConstantTime:
            raise LockstepIncompatible(
                f"processor {pid} compute_time must be ConstantTime, got "
                f"{type(ps.compute_time).__name__}; {_ADMISSIBLE}"
            )
        computes.append(float(ps.compute_time.value))
        if ps.inner_steps != 1:
            raise LockstepIncompatible(
                f"processor {pid} inner_steps must be 1, got {ps.inner_steps}; "
                f"{_ADMISSIBLE}"
            )
        if ps.publish_partials or ps.refresh_reads:
            raise LockstepIncompatible(
                f"processor {pid} uses flexible communication "
                f"(publish_partials/refresh_reads); {_ADMISSIBLE}"
            )
        if ps.think_time is not None:
            raise LockstepIncompatible(
                f"processor {pid} has think_time; {_ADMISSIBLE}"
            )
    base = min(computes)
    if base <= 0.0:
        raise LockstepIncompatible(
            f"compute durations must be positive, got {base}; {_ADMISSIBLE}"
        )
    for pid, c in enumerate(computes):
        ratio = c / base
        if abs(ratio - round(ratio)) > 1e-9:
            raise LockstepIncompatible(
                f"processor {pid} compute_time {c} is not an integer multiple "
                f"of the base round duration {base}; {_ADMISSIBLE}"
            )

    P = len(processors)
    if isinstance(channels, ChannelSpec) or channels is None:
        pair_specs = {
            (s, d): (channels if channels is not None else ChannelSpec())
            for s in range(P) for d in range(P) if s != d
        }
    else:
        fallback = ChannelSpec()
        pair_specs = {
            (s, d): channels.get((s, d), fallback)
            for s in range(P) for d in range(P) if s != d
        }
    latencies: dict[tuple[int, int], float] = {}
    for pair, cs in pair_specs.items():
        if type(cs.latency) is not ConstantTime:
            raise LockstepIncompatible(
                f"channel {pair} latency must be ConstantTime, got "
                f"{type(cs.latency).__name__}; {_ADMISSIBLE}"
            )
        if cs.drop_prob != 0.0:
            raise LockstepIncompatible(
                f"channel {pair} has drop_prob {cs.drop_prob}; {_ADMISSIBLE}"
            )
        if not cs.latency.value < base:
            raise LockstepIncompatible(
                f"channel {pair} latency {cs.latency.value} must be strictly "
                f"below the base round duration {base}; {_ADMISSIBLE}"
            )
        latencies[pair] = float(cs.latency.value)
    return _LockstepPlan(
        P, [tuple(ps.components) for ps in processors], computes, latencies, P - 1
    )


#: Op-list opcodes emitted by the schedule replay.
_OP_SNAP, _OP_DELIVER, _OP_COMMIT = 0, 1, 2


def _lockstep_schedule(
    plan: _LockstepPlan, max_iterations: int
) -> "list[tuple[int, int, int, int, float]]":
    """Value-free replay of :meth:`DistributedSimulator.run`'s event loop.

    Transcribes the heap mechanics exactly — priming in pid order,
    ``(t, seq)`` tie-breaking, per-destination burst pushes in
    ascending-destination order before the next phase start, identical
    float time arithmetic (``start + duration``, ``end + latency``) —
    for a machine admitted by :func:`lockstep_plan`, whose schedule is
    value-independent.  Returns ops ``(opcode, a, b, j, t)``:

    * ``(_OP_SNAP, pid, -, -, -)`` — phase start: snapshot the view;
    * ``(_OP_DELIVER, dst, src, -, -)`` — a burst arrives: overwrite
      ``dst``'s view of ``src``'s components (the latest-label mask is
      always all-true here: labels strictly increase per sender and
      constant-latency FIFO channels deliver in order);
    * ``(_OP_COMMIT, pid, -, j, end)`` — the phase completes as global
      iteration ``j`` at time ``end``.

    The replay stops where every solo run has certainly stopped: at
    commit ``j = max_iterations`` (tolerance stops are per scenario and
    earlier; value-independence makes the schedule prefix identical).
    """
    heap: "list[tuple[float, int, int, int]]" = []
    seq = itertools.count()
    ops: "list[tuple[int, int, int, int, float]]" = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    def start_phase(pid: int, t: float) -> None:
        ops.append((_OP_SNAP, pid, 0, 0, 0.0))
        heappush(heap, (t + plan.computes[pid], next(seq), 1, pid))

    for pid in range(plan.P):
        start_phase(pid, 0.0)

    j = 0
    while heap:
        t, _, kind, a = heappop(heap)
        if kind == 0:  # delivery: a encodes dst * P + src
            ops.append((_OP_DELIVER, a // plan.P, a % plan.P, 0, 0.0))
            continue
        pid = a
        j += 1
        end = t
        ops.append((_OP_COMMIT, pid, 0, j, end))
        for dst in range(plan.P):
            if dst != pid:
                heappush(
                    heap,
                    (end + plan.latencies[(pid, dst)], next(seq), 0, dst * plan.P + pid),
                )
        if j >= max_iterations:
            break
        start_phase(pid, end)
    return ops


#: The simulator backends' stopping-test cadence (see
#: ``_SimulatorBackend.execute``): residuals refresh every 10 commits.
_SIM_RESIDUAL_EVERY = 10

#: Machine archetypes whose factories consume no per-scenario RNG, so
#: one build (and one plan) serves the whole batch.
_DETERMINISTIC_MACHINES = ("lockstep", "lockstep-tiered")


def _run_lockstep_batch(specs: Sequence[ScenarioSpec]) -> "list[Any]":
    """Run one homogeneous group of lockstep-machine simulator scenarios.

    Executes the value-free schedule from :func:`_lockstep_schedule`
    over ``(P, B, dim)`` state: snapshots and deliveries are batched
    scatters, and a commit runs the processor's Gauss-Seidel phase as
    one stacked ``apply_block`` per component over every live snapshot
    row.  Residual cadence
    (every ``10`` commits or at the budget), convergence-carry
    semantics, message counts and the residual/time series feeding
    ``time_to_tol`` all follow ``DistributedSimulator.run`` with the
    fleet's options (``record_messages=False``, ``residual_every=10``,
    ``max_time=inf``); a scenario that stops (tolerance or budget)
    freezes at its own commit while the rest continue down the shared
    schedule.

    Fault-bearing groups are rejected by name up front: injected
    crashes, limping and message fates perturb the event schedule
    per scenario, so the whole premise of one shared value-free replay
    fails.  The rejection is a :class:`LockstepIncompatible` naming the
    offending spec and the admissible alternative, and
    :func:`run_scenario_batch` routes the group through the solo event
    loop — which executes faults exactly.
    """
    from repro.analysis.rates import time_to_tolerance
    from repro.scenarios import registry

    global _construction_seconds
    t0 = time.perf_counter()
    B = len(specs)
    head = specs[0]
    # _fast_key puts fault/topology in the group identity, so the head
    # speaks for every member.
    if head.fault != "none":
        raise LockstepIncompatible(
            f"scenario {head.key!r} injects fault {head.fault!r}: fault "
            "events (crashes, limping, message fates) make the event "
            f"schedule scenario-dependent; {_ADMISSIBLE}"
        )
    if head.topology != "native":
        raise LockstepIncompatible(
            f"scenario {head.key!r} overrides channels with topology "
            f"{head.topology!r}, which the shared value-free schedule "
            f"replay does not model; {_ADMISSIBLE}"
        )
    max_iterations = head.max_iterations
    tol = head.tol

    ops_list = _build_problems(specs)
    n = ops_list[0].n_components
    share_machine = head.machine in _DETERMINISTIC_MACHINES
    plans: list[_LockstepPlan] = []
    for spec in specs:
        if share_machine and plans:
            plans.append(plans[0])
        else:
            procs, channels = registry.make_machine(
                spec.machine, n, _spawn_seeds(spec, 4)[3], **spec.machine_params
            )
            plans.append(lockstep_plan(procs, channels))

    plan = plans[0]
    dim = ops_list[0].dim
    for op, pl in zip(ops_list, plans):
        if op.dim != dim or op.n_components != n or not pl.matches(plan):
            raise LockstepIncompatible("batch group mixes machine shapes")

    block = ops_list[0].block_spec
    slices = [block.slice(i) for i in range(n)]
    elem_idx = [np.arange(s.start, s.stop, dtype=np.intp) for s in slices]
    own_elems = [
        np.concatenate([elem_idx[c] for c in comps]) for comps in plan.components
    ]
    # Each processor's elements as a slice when contiguous (the usual
    # case), so the all-live scatters below are plain slicing.
    own = [
        slice(int(oe[0]), int(oe[-1]) + 1)
        if np.array_equal(oe, np.arange(oe[0], oe[0] + oe.size)) else oe
        for oe in own_elems
    ]
    _precompute_analysis(ops_list)
    refs = [op.fixed_point() for op in ops_list]
    batched_norm = _BatchedNorm.build_from_ops(ops_list)
    stack = type(ops_list[0]).stack(ops_list)
    residual_of = _build_residual(stack, batched_norm)
    all_rows = np.arange(B, dtype=np.intp)
    _construction_seconds += time.perf_counter() - t0

    P = plan.P
    msgs_per_commit = [plan.n_peers * len(comps) for comps in plan.components]
    schedule = _lockstep_schedule(plan, max_iterations)

    # Per-processor views and in-flight phase snapshots; one payload
    # buffer per sender (its next burst is only created after every
    # previous arrival, since latency < base round duration).
    V = np.zeros((P, B, dim))
    S = np.zeros((P, B, dim))
    payloads = [np.zeros((B, oe.size)) for oe in own_elems]
    global_x = np.zeros((B, dim))
    x_final = np.zeros((B, dim))
    iterations = np.zeros(B, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    final_time = np.zeros(B)
    messages_sent = np.zeros(B, dtype=np.int64)

    # The event loop computes the initial residual unconditionally; it
    # seeds the carried stopping value and the trace's residual series,
    # which then gains the carried value at every commit.
    last_res = residual_of(global_x, all_rows) if tol > 0.0 else None
    res0 = None if last_res is None else last_res.copy()
    res_hist: list[np.ndarray] = []
    time_hist: list[float] = []

    # ``sel`` picks the live rows: a full slice until the first
    # scenario stops, then the live index array.  ``pairs[p]`` picks
    # (live rows) x (processor p's elements); both are rebuilt only
    # when the live set changes.
    live = all_rows
    sel: "slice | np.ndarray" = slice(None)
    pairs: list[Any] = [(sel, o) for o in own]
    for op in schedule:
        code, a, b_, j, end_t = op
        if code == _OP_SNAP:
            S[a][sel] = V[a][sel]
            continue
        if code == _OP_DELIVER:
            V[a][pairs[b_]] = payloads[b_][sel]
            continue
        pid = a
        # Gauss-Seidel within the phase, as in the event loop, for all
        # live rows at once.  A frozen row's snapshot is never read
        # again, so a partial live set may update a gathered copy.
        snap = S[pid] if len(live) == B else S[pid][live]
        for comp in plan.components[pid]:
            snap[:, slices[comp]] = stack.apply_block(snap, comp, live)
        committed = snap[:, own[pid]]
        payloads[pid][sel] = committed
        V[pid][pairs[pid]] = committed
        global_x[pairs[pid]] = committed
        messages_sent[sel] += msgs_per_commit[pid]

        stop = None
        if tol > 0.0:
            if j % _SIM_RESIDUAL_EVERY == 0 or j >= max_iterations:
                last_res[sel] = residual_of(global_x[sel], live)
            res_hist.append(last_res.copy())
            time_hist.append(end_t)
            stop = last_res[live] < tol
            converged[live[stop]] = True
        if j >= max_iterations:
            stop = np.ones(len(live), dtype=bool)
        if stop is not None and stop.any():
            done = live[stop]
            iterations[done] = j
            x_final[done] = global_x[done]
            final_time[done] = end_t
            live = live[~stop]
            if not len(live):
                break
            sel = live
            pairs = [
                (live, o) if isinstance(o, slice) else np.ix_(live, o) for o in own
            ]

    final_res = residual_of(x_final, all_rows)
    ttt: list[Any] = [None] * B
    if tol > 0.0:
        # A scenario's series runs up to the commit at which it stopped.
        R = np.array(res_hist)
        T = np.array(time_hist)
        for b in range(B):
            k = int(iterations[b])
            ttt[b] = time_to_tolerance(
                np.concatenate(([res0[b]], R[:k, b])), T[:k], tol
            )
    info = [
        {
            "messages_sent": float(messages_sent[b]),
            "messages_dropped": 0.0,
            "phases_completed": float(iterations[b]),
        }
        for b in range(B)
    ]

    wall_each = (time.perf_counter() - t0) / B
    return _summaries(
        list(specs), ops_list, refs, batched_norm, x_final, iterations, converged,
        final_res, final_time, ttt, info, wall_each,
    )
