"""Frozen reference implementation of the distributed-machine simulator.

This is the original, straight-line event loop of
:class:`~repro.runtime.simulator.engine.DistributedSimulator`, kept
verbatim as a *behavioural oracle*: the vectorized engine must produce
bit-identical :class:`~repro.runtime.simulator.records.SimulationResult`
objects for every seed, machine and channel regime.  The determinism
regression suite (``tests/runtime/test_determinism.py``) runs both
implementations side by side, and ``benchmarks/bench_fleet_throughput.py``
uses this class as the sequential baseline the fleet runner is measured
against.

Do not optimize this module — its value is that it never changes.
See ``engine.py`` for the semantics documentation; the two modules
implement the same contract.  Three changes are sanctioned since the
freeze, each made to both engines in lockstep.  The fault-injection
hooks are a *semantic extension* (the contract itself grew): they hide
entirely behind ``faults=None``, and the pre-fault golden digests still
pin the fault-free behaviour bit for bit.  Every ``run()`` starts
from empty channels (:meth:`ChannelState.reset`), where a second run
on one instance used to inherit the first run's FIFO clocks and
message counters; a first run is unchanged, so every golden holds.
And the phase log, like the message log, is kept only under
``record_messages``; ``phases_completed`` counts commits either way.
This moves no iterate, label, time or stat.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Mapping

import numpy as np

from repro.core.trace import TraceStore, resolve_sink
from repro.operators.base import FixedPointOperator
from repro.runtime.simulator.channel import ChannelSpec, ChannelState
from repro.runtime.simulator.faults.base import (
    FaultModel,
    FaultState,
    max_staleness as _max_staleness,
)
from repro.runtime.simulator.processor import ProcessorSpec
from repro.runtime.simulator.records import MessageRecord, PhaseRecord, SimulationResult
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import check_vector

__all__ = ["ReferenceSimulator"]


class _PhaseState:
    """Mutable bookkeeping of one in-flight updating phase."""

    __slots__ = ("index", "start", "duration", "snapshot", "min_labels", "steps_done")

    def __init__(
        self,
        index: int,
        start: float,
        duration: float,
        snapshot: np.ndarray,
        min_labels: np.ndarray,
    ) -> None:
        self.index = index
        self.start = start
        self.duration = duration
        self.snapshot = snapshot
        self.min_labels = min_labels
        self.steps_done = 0


class ReferenceSimulator:
    """The seed (pre-vectorization) event loop, kept as an oracle.

    Parameters
    ----------
    operator:
        The fixed-point map whose block spec defines components.
    processors:
        One :class:`ProcessorSpec` per processor; their owned
        components must partition ``{0, ..., n-1}``.
    channels:
        Either a single :class:`ChannelSpec` used for every ordered
        processor pair, or a mapping ``(src, dst) -> ChannelSpec``
        (missing pairs fall back to ``default_channel``).
    default_channel:
        Fallback spec when ``channels`` is a partial mapping.
    reference:
        Known fixed point for error tracking (defaults to the
        operator's, when available).
    seed:
        Master seed; every processor and channel gets an independent
        child stream, so runs are bit-reproducible.
    faults:
        Optional :class:`~repro.runtime.simulator.faults.FaultModel`;
        the fault semantics are a contract extension applied to both
        engines identically (the fault layer draws from its own seed
        streams, so ``faults=None`` behaviour is unchanged).
    """

    def __init__(
        self,
        operator: FixedPointOperator,
        processors: list[ProcessorSpec],
        *,
        channels: ChannelSpec | Mapping[tuple[int, int], ChannelSpec] | None = None,
        default_channel: ChannelSpec | None = None,
        reference: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
        faults: "FaultModel | None" = None,
    ) -> None:
        self.operator = operator
        self.faults = faults
        self.processors = list(processors)
        n = operator.n_components
        owned: list[int] = []
        for spec in self.processors:
            owned.extend(spec.components)
        if sorted(owned) != list(range(n)):
            raise ValueError(
                "processor components must partition all components "
                f"{{0..{n - 1}}}; got {sorted(owned)}"
            )
        self._owners = np.empty(n, dtype=np.int64)
        for pid, spec in enumerate(self.processors):
            for c in spec.components:
                self._owners[c] = pid

        P = len(self.processors)
        master = as_generator(seed)
        streams = spawn_generators(master, P + P * P)
        self._proc_rng = streams[:P]
        chan_rngs = streams[P:]
        if channels is None or isinstance(channels, ChannelSpec):
            base = channels if isinstance(channels, ChannelSpec) else (
                default_channel if default_channel is not None else ChannelSpec()
            )
            chan_map: dict[tuple[int, int], ChannelSpec] = {}
            for s in range(P):
                for d in range(P):
                    if s != d:
                        chan_map[(s, d)] = base
        else:
            fallback = default_channel if default_channel is not None else ChannelSpec()
            chan_map = {}
            for s in range(P):
                for d in range(P):
                    if s != d:
                        chan_map[(s, d)] = channels.get((s, d), fallback)
        self._channels: dict[tuple[int, int], ChannelState] = {}
        k = 0
        for s in range(P):
            for d in range(P):
                if s != d:
                    self._channels[(s, d)] = ChannelState(chan_map[(s, d)], chan_rngs[k])
                k += 1

        if reference is None:
            reference = operator.fixed_point()
        self.reference = (
            None
            if reference is None
            else check_vector(reference, "reference", dim=operator.dim)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        x0: np.ndarray,
        *,
        max_iterations: int = 10_000,
        max_time: float = float("inf"),
        tol: float = 0.0,
        residual_every: int = 10,
        record_messages: bool = True,
        sink: TraceStore | None = None,
    ) -> SimulationResult:
        """Simulate until tolerance, iteration budget or time horizon.

        ``tol`` tests the fixed-point residual of the *global committed
        iterate* every ``residual_every`` completed phases (``0``
        disables the test and runs out the budget).  ``sink`` injects
        the trace store the run records into.  ``record_messages``
        keeps the message and phase logs; without it both stay empty
        and ``stats["phases_completed"]`` still counts the commits.
        """
        x0 = check_vector(x0, "x0", dim=self.operator.dim)
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if residual_every < 1:
            raise ValueError(f"residual_every must be >= 1, got {residual_every}")
        for chan in self._channels.values():
            chan.reset()
        spec = self.operator.block_spec
        norm = self.operator.norm()
        P = len(self.processors)
        n = spec.n_blocks

        # Per-processor local state.
        views = [x0.copy() for _ in range(P)]
        view_labels = [np.zeros(n, dtype=np.int64) for _ in range(P)]
        phase_states: list[_PhaseState | None] = [None] * P
        phase_counts = [0] * P

        # Fault layer (mirrors engine.py exactly; no draws when absent).
        fstate: FaultState | None = (
            self.faults.start(P) if self.faults is not None else None
        )
        fates_active = fstate is not None and fstate.affects_channels
        down = [False] * P

        # Global committed state (owner-authoritative).
        global_x = x0.copy()
        global_labels = np.zeros(n, dtype=np.int64)

        builder = resolve_sink(sink, n, owners=self._owners.copy())
        track_err = self.reference is not None
        err0 = norm(x0 - self.reference) if track_err else None
        res0 = self.operator.residual(x0)
        builder.record_initial(error=err0, residual=res0)

        phases: list[PhaseRecord] = []
        messages: list[MessageRecord] = []
        heap: list[tuple[float, int, str, tuple]] = []
        seq = itertools.count()

        def schedule(t: float, kind: str, payload: tuple) -> None:
            heapq.heappush(heap, (t, next(seq), kind, payload))

        def start_phase(pid: int, t: float) -> None:
            ps = self.processors[pid]
            phase_counts[pid] += 1
            dur = ps.compute_time.sample(phase_counts[pid], self._proc_rng[pid])
            crash_at = rejoin_at = None
            if fstate is not None:
                dur, crash_at, rejoin_at = fstate.on_phase_start(pid, t, dur)
            state = _PhaseState(
                index=phase_counts[pid],
                start=t,
                duration=dur,
                snapshot=views[pid].copy(),
                min_labels=view_labels[pid].copy(),
            )
            phase_states[pid] = state
            step_dt = dur / ps.inner_steps
            schedule(t + step_dt, "step", (pid, state.index))
            if crash_at is not None:
                schedule(crash_at, "crash", (pid, state.index, rejoin_at))

        def send_component(
            pid: int, comp: int, value: np.ndarray, label: int, t: float, partial: bool
        ) -> None:
            for dst in range(P):
                if dst == pid:
                    continue
                chan = self._channels[(pid, dst)]
                arrival = chan.delivery_time(t)
                if fates_active:
                    # One per-message fault fate on the (pid, dst)
                    # stream; drawn even when the base channel already
                    # dropped the message, so the stream stays aligned
                    # with the engine's per-burst batch draws.
                    drop, extra = fstate.message_fates(pid, dst, 1)
                    if drop[0]:
                        if arrival is not None:
                            fstate.log.fault_drops += 1
                        arrival = None
                    elif arrival is not None:
                        arrival = float(arrival + extra[0])
                if record_messages:
                    messages.append(
                        MessageRecord(pid, dst, comp, label, t, arrival, partial)
                    )
                if arrival is not None:
                    schedule(
                        arrival,
                        "msg",
                        (dst, comp, value.copy(), label, partial, chan.spec.apply),
                    )

        # Prime all processors at t = 0.
        for pid in range(P):
            start_phase(pid, 0.0)

        iteration = 0
        converged = False
        last_residual = res0
        final_time = 0.0

        while heap:
            t, _, kind, payload = heapq.heappop(heap)
            if t > max_time:
                final_time = max_time
                break
            final_time = t
            if kind == "msg":
                dst, comp, value, label, partial, apply_policy = payload
                if down[dst]:
                    fstate.log.downtime_drops += 1
                    continue
                vl = view_labels[dst]
                if apply_policy == "overwrite":
                    # Last-arrival-wins: an old message can replace newer
                    # data — the genuinely out-of-order regime.
                    views[dst][spec.slice(comp)] = value
                    vl[comp] = label
                else:
                    # Tag-checked application; partials tie-break in
                    # favour of the (fresher-than-its-label) partial.
                    if (partial and label >= vl[comp]) or (not partial and label > vl[comp]):
                        views[dst][spec.slice(comp)] = value
                        vl[comp] = label
                continue

            if kind == "crash":
                # Processor dies mid-phase: the in-flight phase (its
                # commit, sends, and pending step events) is lost, and
                # messages arriving before the repair are dropped.
                pid, pindex, rejoin_at = payload
                state = phase_states[pid]
                if state is None or state.index != pindex:
                    continue
                phase_states[pid] = None
                down[pid] = True
                fstate.log.crashes += 1
                fstate.log.record("crash", t, pid)
                schedule(rejoin_at, "repair", (pid,))
                continue
            if kind == "repair":
                (pid,) = payload
                down[pid] = False
                fstate.log.repairs += 1
                fstate.log.record("repair", t, pid)
                # Restart from the (stale) local view — newer peer
                # messages keep flowing, so labels stay admissible.
                start_phase(pid, t)
                continue

            pid, pindex = payload
            ps = self.processors[pid]
            state = phase_states[pid]
            if state is None or state.index != pindex:
                continue  # stale step event of a crashed phase
            state.steps_done += 1
            k = state.steps_done

            if ps.refresh_reads and k > 1:
                # Pull fresher remote data into the working snapshot.
                own = set(ps.components)
                for c in range(n):
                    if c in own:
                        continue
                    state.snapshot[spec.slice(c)] = views[pid][spec.slice(c)]
                    state.min_labels[c] = min(state.min_labels[c], view_labels[pid][c])

            # One inner iteration on the owned components (Gauss-Seidel
            # within the phase: later components see earlier updates).
            for c in ps.components:
                new_block = self.operator.apply_block(state.snapshot, c)
                state.snapshot[spec.slice(c)] = new_block

            if k < ps.inner_steps:
                if ps.publish_partials:
                    for c in ps.components:
                        send_component(
                            pid,
                            c,
                            state.snapshot[spec.slice(c)],
                            int(view_labels[pid][c]),
                            state.start + k * state.duration / ps.inner_steps,
                            True,
                        )
                schedule(
                    state.start + (k + 1) * state.duration / ps.inner_steps,
                    "step",
                    (pid, state.index),
                )
                continue

            # Phase completion: assign the next global iteration number.
            iteration += 1
            j = iteration
            end = state.start + state.duration
            used_labels = state.min_labels.copy()
            for c in ps.components:
                sl = spec.slice(c)
                val = state.snapshot[sl]
                views[pid][sl] = val
                view_labels[pid][c] = j
                global_x[sl] = val
                global_labels[c] = j
                send_component(pid, c, val, j, end, False)
            if record_messages:
                phases.append(
                    PhaseRecord(
                        processor=pid,
                        iteration=j,
                        start=state.start,
                        end=end,
                        components=ps.components,
                        inner_steps=ps.inner_steps,
                    )
                )

            err = norm(global_x - self.reference) if track_err else None
            if j % residual_every == 0 or j >= max_iterations:
                last_residual = self.operator.residual(global_x)
            builder.record(
                ps.components, used_labels, error=err, residual=last_residual, time=end
            )

            if tol > 0.0 and last_residual < tol:
                converged = True
                break
            if j >= max_iterations:
                break

            next_start = end
            if ps.think_time is not None:
                next_start += ps.think_time.sample(phase_counts[pid], self._proc_rng[pid])
            start_phase(pid, next_start)

        final_res = self.operator.residual(global_x)
        stats: dict[str, float] = {
            "messages_sent": float(sum(c.messages_sent for c in self._channels.values())),
            "messages_dropped": float(
                sum(c.messages_dropped for c in self._channels.values())
            ),
            "phases_completed": float(iteration),
        }
        trace = builder.build()
        if fstate is not None:
            stats.update(fstate.log.summary())
            stats["fault_max_staleness"] = _max_staleness(trace)
        return SimulationResult(
            x=global_x.copy(),
            trace=trace,
            phases=phases,
            messages=messages,
            final_time=final_time,
            converged=converged,
            final_residual=final_res,
            stats=stats,
        )
