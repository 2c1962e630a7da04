"""Message channels: latency, loss, FIFO or reordering delivery.

A channel carries component-update messages between two processors.
Three properties matter to asynchronous convergence theory and all are
modelled:

* **latency** — a :class:`~repro.runtime.simulator.timing.DurationModel`;
  random latency with non-FIFO delivery produces *out-of-order
  messages*;
* **FIFO enforcement** — when on, delivery times are monotonized so
  messages arrive in send order (TCP-like); when off, a message can
  overtake an earlier one (UDP-like / multi-path);
* **loss** — messages dropped with probability ``drop_prob``;
  admissible as long as later messages keep flowing (the paper's
  remark that transient faults are covered by newer messages).

The receiver's *application policy* lives here too:
``apply = "latest_label"`` discards stale messages by tag (the safe
implementation), while ``apply = "overwrite"`` applies whatever
arrives last (untagged DMA/put-style writes) — the mode that produces
genuinely non-monotone label sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.simulator.timing import ConstantTime, DurationModel
from repro.utils.validation import check_probability

__all__ = ["ChannelSpec", "ChannelState"]


@dataclass(frozen=True)
class ChannelSpec:
    """Configuration of a directed channel between two processors.

    Attributes
    ----------
    latency:
        Duration model for message transit times.
    fifo:
        Enforce in-order delivery (monotonized arrival times).
    drop_prob:
        Probability a message is silently lost.
    apply:
        Receiver policy: ``"latest_label"`` (tag-checked) or
        ``"overwrite"`` (last-arrival-wins).
    """

    latency: DurationModel = ConstantTime(0.05)
    fifo: bool = True
    drop_prob: float = 0.0
    apply: str = "latest_label"

    def __post_init__(self) -> None:
        check_probability(self.drop_prob, "drop_prob")
        if self.apply not in ("latest_label", "overwrite"):
            raise ValueError(
                f"apply must be 'latest_label' or 'overwrite', got {self.apply!r}"
            )

    @staticmethod
    def lossy_reordering(
        latency: DurationModel,
        drop_prob: float = 0.05,
        apply: str = "overwrite",
    ) -> "ChannelSpec":
        """A UDP-like channel: random latency, reordering, loss."""
        return ChannelSpec(latency=latency, fifo=False, drop_prob=drop_prob, apply=apply)


class ChannelState:
    """Runtime state of one directed channel (owns its RNG stream)."""

    def __init__(self, spec: ChannelSpec, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.reset()

    def reset(self) -> None:
        """Clear the FIFO clock and both counters for a new run; the RNG
        stream continues."""
        self._sent = 0
        self._dropped = 0
        self._last_delivery_time = -np.inf

    @property
    def messages_sent(self) -> int:
        """Messages offered to the channel (including dropped ones)."""
        return self._sent

    @property
    def messages_dropped(self) -> int:
        """Messages lost to ``drop_prob``."""
        return self._dropped

    def delivery_time(self, send_time: float) -> float | None:
        """Arrival time for a message sent at ``send_time``.

        Returns ``None`` when the message is dropped.  FIFO channels
        monotonize arrival times so order is preserved; non-FIFO
        channels return raw ``send + latency`` and may reorder.
        """
        self._sent += 1
        if self.spec.drop_prob > 0.0 and self.rng.random() < self.spec.drop_prob:
            self._dropped += 1
            return None
        t = send_time + self.spec.latency.sample(self._sent, self.rng)
        if self.spec.fifo:
            t = max(t, self._last_delivery_time)
            self._last_delivery_time = t
        return t

    def delivery_times(self, send_time: float, count: int) -> "float | np.ndarray":
        """Arrival times for ``count`` messages sent together at ``send_time``.

        Bit-identical to ``count`` sequential :meth:`delivery_time`
        calls (dropped messages are ``nan``); lossless channels whose
        latency model supports stream-equivalent batch sampling take a
        vectorized fast path, everything else falls back to the loop.
        A scalar float return means every message arrives at exactly
        that time (the constant-latency case, returned without any
        array work).  The simulator sends one burst per (phase event,
        destination) through this, or through :meth:`fan_out` when
        all of a sender's channels share one constant arrival.
        """
        if self.spec.drop_prob == 0.0 and type(self.spec.latency) is ConstantTime:
            # Sequential FIFO monotonization of equal raw arrivals
            # yields one shared arrival: max(send + value, last).
            self._sent += count
            # Coerced so callers can rely on a builtin float (send_time
            # may arrive as a numpy scalar from a DurationModel).
            t = float(send_time + self.spec.latency.value)
            if self.spec.fifo:
                if t < self._last_delivery_time:
                    t = self._last_delivery_time
                self._last_delivery_time = t
            return t
        if count == 1:
            t = self.delivery_time(send_time)
            return np.array([np.nan if t is None else t])
        if self.spec.drop_prob == 0.0:
            # No per-message drop draws interleave with latency draws,
            # so a batched latency sample consumes the rng identically.
            lat = self.spec.latency.sample_batch(self._sent + 1, count, self.rng)
            if lat is not None:
                self._sent += count
                t = send_time + lat
                if self.spec.fifo:
                    np.maximum(t, self._last_delivery_time, out=t)
                    np.maximum.accumulate(t, out=t)
                    self._last_delivery_time = float(t[-1])
                return t
        out = np.empty(count, dtype=np.float64)
        for i in range(count):
            a = self.delivery_time(send_time)
            out[i] = np.nan if a is None else a
        return out

    @staticmethod
    def one_arrival(chans: "list[ChannelState]") -> bool:
        """Whether :meth:`fan_out` serves ``chans``: lossless
        :class:`ConstantTime` channels with one latency value, one FIFO
        flag and one apply policy."""
        keys = {
            (c.spec.latency.value, c.spec.fifo, c.spec.apply)
            if c.spec.drop_prob == 0.0 and type(c.spec.latency) is ConstantTime
            else None
            for c in chans
        }
        return len(keys) == 1 and None not in keys

    @staticmethod
    def fan_out(chans: "list[ChannelState]", send_time: float, count: int) -> float:
        """:meth:`delivery_times` of one burst on each of ``chans``, computed once.

        ``chans`` pass :meth:`one_arrival` and are one sender's
        channels.  They carry the same bursts, so they hold one FIFO
        state and each call would return the same scalar: it is computed
        from the first channel, and every channel's count and FIFO state
        advance exactly as its own call would advance them.
        """
        head = chans[0]
        fifo = head.spec.fifo
        t = float(send_time + head.spec.latency.value)
        if fifo and t < head._last_delivery_time:
            t = head._last_delivery_time
        for c in chans:
            c._sent += count
            if fifo:
                c._last_delivery_time = t
        return t
