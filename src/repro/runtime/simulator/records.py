"""Event records of a simulated run (for analysis and Figure 1/2 rendering).

Besides the mathematical :class:`~repro.core.trace.IterationTrace`, the
simulator keeps the *physical* story: when each updating phase started
and ended on which processor, which messages (full updates and partial
updates) travelled when between which processors.  The reporting layer
turns these into the ASCII timelines that reproduce Figures 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.trace import IterationTrace

__all__ = ["PhaseRecord", "MessageRecord", "SimulationResult"]


@dataclass(frozen=True)
class PhaseRecord:
    """One updating phase on one processor.

    Attributes
    ----------
    processor:
        Executing processor id.
    iteration:
        Global iteration number assigned at completion (1-based).
    start, end:
        Simulated start/completion times.
    components:
        Components updated by the phase.
    inner_steps:
        Number of inner iterations performed.
    """

    processor: int
    iteration: int
    start: float
    end: float
    components: tuple[int, ...]
    inner_steps: int


@dataclass(frozen=True)
class MessageRecord:
    """One component-value message between processors.

    ``partial`` marks flexible-communication partial updates (the
    hatched arrows of Figure 2); ``label`` is the global iteration the
    value is tagged with (for partials: the not-yet-completed phase's
    predecessor label).  ``arrival`` is ``None`` for dropped messages.
    """

    src: int
    dst: int
    component: int
    label: int
    send_time: float
    arrival: float | None
    partial: bool


@dataclass
class SimulationResult:
    """Everything a simulated asynchronous run produced.

    Attributes
    ----------
    x:
        Final global iterate (owners' committed values).
    trace:
        The mathematical ``(S, L)`` trace (feeds macro/epoch analysis).
    phases:
        Physical phase records in completion order; empty when the run
        was made with ``record_messages=False`` (``stats``'s
        ``phases_completed`` still counts them).
    messages:
        All messages in send order; empty without ``record_messages``.
    final_time:
        Simulated time at which the run stopped.
    converged:
        Whether the stopping tolerance was met.
    final_residual:
        Fixed-point residual of ``x``.
    stats:
        Free-form counters (messages sent/dropped, partials, ...).
    """

    x: np.ndarray
    trace: IterationTrace
    phases: list[PhaseRecord]
    messages: list[MessageRecord]
    final_time: float
    converged: bool
    final_residual: float
    stats: dict[str, float] = field(default_factory=dict)

    def phases_of(self, processor: int) -> list[PhaseRecord]:
        """Phase records of one processor, in time order."""
        return [p for p in self.phases if p.processor == processor]

    def updates_per_processor(self) -> dict[int, int]:
        """Completed phase counts keyed by processor."""
        out: dict[int, int] = {}
        for p in self.phases:
            out[p.processor] = out.get(p.processor, 0) + 1
        return out

    def message_stats(self) -> dict[str, int]:
        """Counters over the message log."""
        total = len(self.messages)
        dropped = sum(1 for m in self.messages if m.arrival is None)
        partial = sum(1 for m in self.messages if m.partial)
        reordered = 0
        by_pair: dict[tuple[int, int], float] = {}
        for m in self.messages:
            if m.arrival is None:
                continue
            key = (m.src, m.dst)
            last = by_pair.get(key)
            if last is not None and m.arrival < last:
                reordered += 1
            by_pair[key] = max(last, m.arrival) if last is not None else m.arrival
        return {
            "total": total,
            "dropped": dropped,
            "partial": partial,
            "reordered_arrivals": reordered,
        }
