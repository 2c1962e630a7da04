"""The discrete-event simulator of a parallel/distributed machine.

This is the hardware substitute (see DESIGN.md): processors with
heterogeneous phase durations execute updating phases on the components
they own, exchanging values over channels with latency, loss and
possible reordering.  Completed phases are serialized by completion
time into the global iteration sequence of Definition 1, producing an
:class:`~repro.core.trace.IterationTrace` whose ``(S, L)`` is *induced
by the physics* rather than prescribed — exactly how the paper's
mathematical model abstracts a running machine.

Semantics (matching Figure 1/2 of the paper):

* a phase *reads* its input data when it starts (snapshot semantics);
  with ``refresh_reads`` remote components are re-read before each
  inner step (flexible communication, receiving side);
* the phase's result is *committed and communicated at completion*,
  when it receives the next global iteration number ``j``;
* with ``publish_partials`` the inner iterates are sent to peers
  before completion (partial updates — the hatched arrows);
* a message carries (component, value, label); receivers either apply
  by tag (``latest_label``) or last-arrival-wins (``overwrite`` — the
  genuinely out-of-order mode);
* the labels recorded for iteration ``j`` are, per component, the
  label of the *oldest* version consumed by the phase (conservative,
  so condition (a) and the macro-iteration construction stay sound
  even when inner steps refreshed their reads).

The event loop is the *vectorized* implementation.  The processors'
views are the rows of one ``(P, dim)`` array, their labels the rows of
one ``(P, n)`` array, and each processor's selectors are built once:
basic slices when it owns a gap-free component range (every registry
partition), index arrays otherwise.  Commits, refreshed reads (the
slices around the owned range) and payload copies move through them.
An inner step is one :meth:`~repro.operators.base.FixedPointOperator.gauss_seidel`
call.  A sender whose channels are lossless with one constant latency
computes each burst's arrival once
(:meth:`~repro.runtime.simulator.channel.ChannelState.fan_out`) and
pushes one ``bmsg`` heap event that writes every peer row with one
2-D scatter.  That is exact: the per-destination events it replaces
share one arrival time and a contiguous window of sequence numbers,
so no other event can pop between them, and they write distinct rows,
so applying them together commutes.  Event order and every
per-channel/per-processor RNG draw are identical to the frozen
:class:`~repro.runtime.simulator.reference.ReferenceSimulator`, so
results are bit-for-bit reproducible against the seed implementation
(``tests/runtime/test_determinism.py`` enforces this).
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

__all__ = ["DistributedSimulator", "RESIDUAL_EVERY"]

#: Commits between the stopping test's residual refreshes: the default
#: of :meth:`DistributedSimulator.run`, of the simulator backends and of
#: the batched executor's simulator schedules.
RESIDUAL_EVERY = 10


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


class DistributedSimulator:
    """Event-driven simulation of asynchronous iterations on a machine.

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
        Optional :class:`~repro.runtime.simulator.faults.FaultModel`
        injecting crashes, stragglers and per-message channel fates.
        The model draws from its *own* seed streams, so ``faults=None``
        runs are bit-identical to a build without the fault layer.
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

        # -- precomputed hot-path indices (the vectorization) ----------
        block = operator.block_spec
        dim = operator.dim
        self._slices: list[slice] = list(block.slices())
        elem_idx = [np.arange(s.start, s.stop, dtype=np.intp) for s in self._slices]
        self._own_comps: list[np.ndarray] = []
        self._own_elems: list[np.ndarray] = []
        self._own_sizes: list[np.ndarray] = []
        # Selectors of each processor's owned (elements, components)
        # and of the pieces of its remote elements: basic slices when
        # the owned components are one gap-free range (every registry
        # partition), index arrays otherwise.
        self._own_sel: list[tuple[slice | np.ndarray, slice | np.ndarray]] = []
        self._remote_sel: list[list[slice | np.ndarray]] = []
        self._dsts: list[list[tuple[int, ChannelState, str]]] = []
        # Fan-out bursts: each sender's peer rows, and its outgoing
        # channels when one constant arrival serves them all (None
        # otherwise; see ChannelState.fan_out).
        self._peers: list[np.ndarray] = []
        self._fan: list[list[ChannelState] | None] = []
        self._rows = [np.array([d], dtype=np.intp) for d in range(P)]
        for pid, spec in enumerate(self.processors):
            oc = np.asarray(spec.components, dtype=np.intp)
            oe = np.concatenate([elem_idx[c] for c in oc])
            self._own_comps.append(oc)
            self._own_elems.append(oe)
            self._own_sizes.append(np.asarray([elem_idx[c].size for c in oc], dtype=np.intp))
            if oc[-1] - oc[0] + 1 == oc.size:
                lo, hi = self._slices[oc[0]].start, self._slices[oc[-1]].stop
                c_lo, c_hi = int(oc[0]), int(oc[-1]) + 1
                self._own_sel.append((slice(lo, hi), slice(c_lo, c_hi)))
                pieces = [slice(0, lo), slice(hi, dim)]
                self._remote_sel.append([p for p in pieces if p.start < p.stop])
            else:
                self._own_sel.append((oe, oc))
                self._remote_sel.append([np.setdiff1d(np.arange(dim), oe)])
            dsts = [
                (d, self._channels[(pid, d)], self._channels[(pid, d)].spec.apply)
                for d in range(P)
                if d != pid
            ]
            self._dsts.append(dsts)
            self._peers.append(np.asarray([d for d, _, _ in dsts], dtype=np.intp))
            chans = [c for _, c, _ in dsts]
            self._fan.append(chans if ChannelState.one_arrival(chans) else None)

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
        residual_every: int = RESIDUAL_EVERY,
        record_messages: bool = True,
        sink: TraceStore | None = None,
    ) -> SimulationResult:
        """Simulate until tolerance, iteration budget or time horizon.

        ``tol`` tests the fixed-point residual of the *global committed
        iterate* every ``residual_every`` completed phases (``0``
        disables the test and runs out the budget).  ``sink`` injects
        the trace store the run records into (a
        :class:`~repro.core.trace.TraceStore` or any object with its
        sink interface).  ``record_messages`` keeps the physical logs:
        one :class:`MessageRecord` per message and one
        :class:`PhaseRecord` per commit.  Without it both lists stay
        empty; ``stats["phases_completed"]`` counts the commits either
        way.
        """
        x0 = check_vector(x0, "x0", dim=self.operator.dim)
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if residual_every < 1:
            raise ValueError(f"residual_every must be >= 1, got {residual_every}")
        # Every run starts from empty channels; the RNG streams continue.
        for chan in self._channels.values():
            chan.reset()
        norm = self.operator.norm()
        P = len(self.processors)
        n = self.operator.n_components
        slices = self._slices
        sweep = self.operator.gauss_seidel

        # Per-processor local state: row ``p`` is processor p's view
        # and the labels of the values it holds.
        views = np.tile(x0, (P, 1))
        view_labels = np.zeros((P, n), dtype=np.int64)
        phase_states: list[_PhaseState | None] = [None] * P
        phase_counts = [0] * P
        # Each processor's label for its own components: all of them
        # commit together, so one number (its last commit, 0 before).
        own_label = [0] * P

        # Fault layer: per-run state with its own seed streams.  All
        # hooks below hide behind `fstate is not None`, so fault-free
        # runs draw nothing extra and stay bit-identical to the
        # pre-fault goldens.
        fstate: FaultState | None = (
            self.faults.start(P) if self.faults is not None else None
        )
        fates_active = fstate is not None and fstate.affects_channels
        down = np.zeros(P, dtype=bool)
        n_down = 0

        # Global committed state (owner-authoritative).
        global_x = x0.copy()

        builder = resolve_sink(sink, n, owners=self._owners.copy())
        track_err = self.reference is not None
        err0 = norm(x0 - self.reference) if track_err else None
        res0 = self.operator.residual(x0)
        builder.record_initial(error=err0, residual=res0)

        phases: list[PhaseRecord] = []
        messages: list[MessageRecord] = []
        heap: list[tuple[float, int, str, tuple]] = []
        seq = itertools.count()
        heappush = heapq.heappush
        heappop = heapq.heappop

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
            heappush(heap, (t + step_dt, next(seq), "step", (pid, state.index)))
            if crash_at is not None:
                heappush(heap, (crash_at, next(seq), "crash", (pid, state.index, rejoin_at)))

        def send_burst(
            pid: int, snapshot: np.ndarray, payload: np.ndarray, label: int,
            t: float, partial: bool,
        ) -> None:
            """Send every owned component of ``pid`` to all peers at once.

            ``payload`` holds the owned elements, frozen at send time.
            A sender whose channels pass ``ChannelState.one_arrival``
            computes the burst's arrival once and pushes one ``bmsg``
            fanned out to all peer rows, unless message fates are on.
            Otherwise each channel draws its arrivals: a destination
            whose messages arrive together gets a one-row ``bmsg``, the
            rest per-component events.  The ``bmsg`` events share the
            payload.  Channel draw order, message-log order and heap
            ordering semantics are identical to per-component sends
            (bursts occupy a contiguous sequence-number window, batches
            to different destinations commute, and the per-destination
            component order is preserved inside each batch).
            """
            comps = self.processors[pid].components
            m = len(comps)
            dsts = self._dsts[pid]
            fan = self._fan[pid]
            if fan is not None and not fates_active:
                arrival = ChannelState.fan_out(fan, t, m)
                if record_messages:
                    for c in comps:
                        for dst, _, _ in dsts:
                            messages.append(
                                MessageRecord(pid, dst, c, label, t, arrival, partial)
                            )
                # Each channel is lossless with one constant latency, so
                # a peer receives this sender's bursts in send order,
                # whose labels never decrease (commits count up, and a
                # partial carries the last commit's label): every tag
                # check would pass, and "overwrite" applies the same.
                event = (self._peers[pid], pid, payload, label, partial, "overwrite")
                heappush(heap, (arrival, next(seq), "bmsg", event))
                return
            arrs = [chan.delivery_times(t, m) for _, chan, _ in dsts]
            if fates_active:
                # Per-message fault fates on each (src, dst) pair: one
                # batched 2m-uniform draw per destination consumes the
                # pair stream exactly like the reference's m sequential
                # per-message draws, and unequal realized arrivals
                # simply route the burst down the per-component path.
                faulted = []
                for di, (dst, _, _) in enumerate(dsts):
                    arr = arrs[di]
                    drop, extra = fstate.message_fates(pid, dst, m)
                    if isinstance(arr, float):
                        arr = np.full(m, arr)
                    fstate.log.fault_drops += int(
                        np.count_nonzero(drop & ~np.isnan(arr))
                    )
                    arr = arr + extra
                    arr[drop] = np.nan
                    faulted.append(arr)
                arrs = faulted
            if record_messages:
                for i, c in enumerate(comps):
                    for di, (dst, _, _) in enumerate(dsts):
                        arr = arrs[di]
                        a = arr if isinstance(arr, float) else arr[i]
                        messages.append(
                            MessageRecord(
                                pid, dst, c, label, t,
                                None if a != a else float(a), partial,
                            )
                        )
            percomp: dict[int, np.ndarray] = {}
            for di, (dst, _, apply_policy) in enumerate(dsts):
                arr = arrs[di]
                if isinstance(arr, float):
                    arrival = arr
                else:
                    first = arr[0]
                    if first != first or not (arr == first).all():
                        for i, c in enumerate(comps):
                            a = arr[i]
                            if a != a:  # dropped (nan)
                                continue
                            value = percomp.get(c)
                            if value is None:
                                value = snapshot[slices[c]].copy()
                                percomp[c] = value
                            heappush(
                                heap,
                                (
                                    float(a),
                                    next(seq),
                                    "msg",
                                    (dst, c, value, label, partial, apply_policy),
                                ),
                            )
                        continue
                    arrival = float(first)
                heappush(
                    heap,
                    (
                        arrival,
                        next(seq),
                        "bmsg",
                        (self._rows[dst], pid, payload, label, partial, apply_policy),
                    ),
                )

        # Prime all processors at t = 0.
        for pid in range(P):
            start_phase(pid, 0.0)

        iteration = 0
        converged = False
        last_residual = res0
        final_time = 0.0

        while heap:
            t, _, kind, payload = heappop(heap)
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
                    views[dst][slices[comp]] = value
                    vl[comp] = label
                else:
                    # Tag-checked application; partials tie-break in
                    # favour of the (fresher-than-its-label) partial.
                    if (partial and label >= vl[comp]) or (not partial and label > vl[comp]):
                        views[dst][slices[comp]] = value
                        vl[comp] = label
                continue
            if kind == "bmsg":
                # A whole burst (all components of one sender, equal
                # arrival) applied to every destination row in one
                # vectorized scatter.  The components are distinct and
                # so are the rows, so the per-message apply rules
                # commute and batching preserves semantics.
                rows, src, bpayload, label, partial, apply_policy = payload
                if n_down:
                    gone = down[rows]
                    if gone.any():
                        fstate.log.downtime_drops += len(self._own_comps[src]) * int(
                            np.count_nonzero(gone)
                        )
                        rows = rows[~gone]
                        if not rows.size:
                            continue
                esel, csel = self._own_sel[src]
                r = rows if type(esel) is slice else rows[:, None]
                if apply_policy == "overwrite":
                    views[r, esel] = bpayload
                    view_labels[r, csel] = label
                    continue
                cur = view_labels[r, csel]
                mask = (label >= cur) if partial else (label > cur)
                if mask.all():
                    views[r, esel] = bpayload
                    view_labels[r, csel] = label
                    continue
                # Some stale components: apply the rule row by row.
                ocomps = self._own_comps[src]
                oelems = self._own_elems[src]
                for dst, dmask in zip(rows, mask):
                    if dmask.all():
                        views[dst, oelems] = bpayload
                        view_labels[dst, ocomps] = label
                    elif dmask.any():
                        emask = np.repeat(dmask, self._own_sizes[src])
                        views[dst, oelems[emask]] = bpayload[emask]
                        view_labels[dst, ocomps[dmask]] = label
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
                n_down += 1
                fstate.log.crashes += 1
                fstate.log.record("crash", t, pid)
                heappush(heap, (rejoin_at, next(seq), "repair", (pid,)))
                continue
            if kind == "repair":
                (pid,) = payload
                down[pid] = False
                n_down -= 1
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

            snap = state.snapshot
            esel, csel = self._own_sel[pid]
            if ps.refresh_reads and k > 1:
                # Pull fresher remote data into the working snapshot,
                # one piece of the owned range's complement at a time.
                # The minimum may run over the whole label row: the
                # owned labels change only at the commit ending a phase.
                for piece in self._remote_sel[pid]:
                    snap[piece] = views[pid, piece]
                np.minimum(state.min_labels, view_labels[pid], out=state.min_labels)

            # One inner iteration on the owned components (Gauss-Seidel
            # within the phase: later components see earlier updates).
            sweep(snap, ps.components)

            if k < ps.inner_steps:
                if ps.publish_partials:
                    t_pub = state.start + k * state.duration / ps.inner_steps
                    # Later inner steps rewrite the snapshot: copy.
                    send_burst(pid, snap, snap[esel].copy(), own_label[pid], t_pub, True)
                heappush(
                    heap,
                    (
                        state.start + (k + 1) * state.duration / ps.inner_steps,
                        next(seq),
                        "step",
                        (pid, state.index),
                    ),
                )
                continue

            # Phase completion: assign the next global iteration number.
            iteration += 1
            j = iteration
            end = state.start + state.duration
            # Nothing writes this snapshot again, so with a slice the
            # committed values stay a view of it.
            committed = snap[esel]
            views[pid, esel] = committed
            view_labels[pid, csel] = j
            global_x[esel] = committed
            own_label[pid] = j
            send_burst(pid, snap, committed, j, end, False)
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
                ps.components, state.min_labels, error=err, residual=last_residual, time=end
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
