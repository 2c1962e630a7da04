"""Core asynchronous-iteration machinery (the paper's contribution).

* :mod:`repro.core.async_iteration` — Definitions 1 and 3 executed
  exactly (Definition 3 given a partial-update model, with the
  constraint-(3) audit);
* :mod:`repro.core.flexible` — the partial-update models of
  Definition 3;
* :mod:`repro.core.macro` — Definition 2 macro-iteration sequences;
* :mod:`repro.core.epochs` — the epoch sequence of [30] for comparison;
* :mod:`repro.core.convergence` — Theorem 1 certificates;
* :mod:`repro.core.termination` — macro-iteration stopping criteria
  ([15], [22]);
* :mod:`repro.core.trace` / :mod:`repro.core.history` — run records;
* :mod:`repro.core.replay` — wrap a realized trace as ``(S, L)`` models
  for cross-backend replay.
"""

from repro.core.async_iteration import AsyncIterationEngine, AsyncRunResult
from repro.core.convergence import (
    TheoremOneReport,
    empirical_macro_contraction,
    macro_iterations_to_tolerance,
    theorem1_bound,
    theorem1_certificate,
)
from repro.core.epochs import EpochSequence, epoch_sequence
from repro.core.flexible import InterpolatedPartials, LabelledValues, PartialUpdateModel
from repro.core.history import VectorHistory
from repro.core.macro import MacroSequence, macro_sequence
from repro.core.order_intervals import OrderIntervalEngine, OrderIntervalResult
from repro.core.replay import TraceReplayDelays, TraceReplaySteering
from repro.core.termination import (
    MacroTerminationDetector,
    TerminationReport,
    error_bound_from_eps,
)
from repro.core.trace import (
    IterationTrace,
    TraceStore,
    load_trace,
    save_trace,
)

__all__ = [
    "AsyncIterationEngine",
    "AsyncRunResult",
    "EpochSequence",
    "InterpolatedPartials",
    "IterationTrace",
    "LabelledValues",
    "MacroSequence",
    "MacroTerminationDetector",
    "OrderIntervalEngine",
    "OrderIntervalResult",
    "PartialUpdateModel",
    "TerminationReport",
    "TheoremOneReport",
    "TraceReplayDelays",
    "TraceReplaySteering",
    "TraceStore",
    "VectorHistory",
    "empirical_macro_contraction",
    "epoch_sequence",
    "error_bound_from_eps",
    "load_trace",
    "macro_iterations_to_tolerance",
    "macro_sequence",
    "save_trace",
    "theorem1_bound",
    "theorem1_certificate",
]
