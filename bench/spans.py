"""Outside-in layer spans: wrappers around the library's public calls.

A :class:`Tracer` patches module functions and class methods of the
library with wrappers that keep one span stack, so each span's *self*
time is its duration minus the time of the spans it caused.  The self
times of all spans therefore partition the wall time spent inside
them.  Wrappers are installed only in traced benchmark children and
are always restored (:meth:`Tracer.installed`); nothing inside the
library knows it is being traced.

Span names are ``"<layer>/<function>"``; the layers follow the modules
(see ``bench/README.md`` for what each should move).
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Iterator

__all__ = ["LAYERS", "Tracer", "layer_metrics", "library_targets"]

#: Layer names, in the order the per-layer metrics are reported.
LAYERS = ("api", "fleet", "spec", "registry.problem", "registry.models",
          "batched", "backends", "sweep_store")

#: ``SweepStore`` methods with their own self-time metric: the row
#: write, the resume lookup and the aggregate rewrite.
STORE_DETAIL = ("write_result", "load_complete_result", "write_fleet")

_MISSING = object()


class Tracer:
    """Span stack plus per-span self seconds, calls and work units.

    ``units[name]`` sums ``units(result)`` over calls of spans wrapped
    with a ``units`` function (e.g. scenarios per batch); ``pairs``
    counts calls by ``(parent span, span)``, which is how nested solo
    runs inside a batch are told apart from direct ones.
    """

    def __init__(self) -> None:
        self.self_s: "Counter[str]" = Counter()
        self.calls: "Counter[str]" = Counter()
        self.units: "Counter[str]" = Counter()
        self.pairs: "Counter[tuple[str, str]]" = Counter()
        self._stack: "list[list[Any]]" = []

    def wrap(self, fn: Callable[..., Any], name: str,
             units: "Callable[[Any], int] | None" = None) -> Callable[..., Any]:
        """``fn`` recording one span named ``name`` per call."""
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            frame = [name, 0.0]  # [span name, seconds spent in child spans]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                    self.pairs[(parent[0], name)] += 1
            if units is not None:
                self.units[name] += units(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: "list[tuple[Any, str, str, Any]]") -> Iterator["Tracer"]:
        """Patch every ``(owner, attribute, span name, units)`` target.

        Originals are read before anything is patched, so a subclass
        inheriting a patched method wraps the original, never a
        wrapper.  On exit every owner gets back exactly the attribute
        it had (or loses the one it inherited).
        """
        saved = [(owner, attr, vars(owner).get(attr, _MISSING), getattr(owner, attr))
                 for owner, attr, _, _ in targets]
        try:
            for (owner, attr, _, current), (_, _, name, units) in zip(saved, targets):
                if isinstance(current, property):
                    patched: Any = property(self.wrap(current.fget, name, units))
                else:
                    patched = self.wrap(current, name, units)
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, own, _ in saved:
                if own is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, own)

    def layer_self(self, layer: str) -> "tuple[float, int]":
        """(self seconds, calls) summed over the layer's spans."""
        prefix = layer + "/"
        names = [n for n in self.calls if n.startswith(prefix)]
        return sum(self.self_s[n] for n in names), sum(self.calls[n] for n in names)


def library_targets() -> "list[tuple[Any, str, str, Any]]":
    """Every public call the per-layer metrics wrap, by layer."""
    from repro.api import study
    from repro.runtime import backends, fleet
    from repro.runtime.simulator import batched
    from repro.runtime.sweep_store import SweepStore
    from repro.scenarios import registry
    from repro.scenarios.spec import ScenarioGrid, ScenarioSpec

    def count(result: Any) -> int:
        return 0 if result is None else len(result)

    backend_classes = {type(backends.get_backend(name))
                       for name in backends.available_backends()}
    return [
        (study.Study, "run", "api/Study.run", None),
        (study, "run_grid", "fleet/run_grid", None),
        (fleet, "run_scenario", "fleet/run_scenario", None),
        (ScenarioGrid, "expand", "spec/expand", None),
        (ScenarioGrid, "shard", "spec/shard", None),
        (ScenarioSpec, "content_hash", "spec/content_hash", None),
        (registry, "make_problem", "registry.problem/make_problem", None),
        (registry, "build_batch", "registry.problem/build_batch", count),
        *((registry, f"make_{axis}", f"registry.models/make_{axis}", None)
          for axis in ("steering", "delays", "machine", "fault", "topology")),
        (batched, "run_scenario_batch", "batched/run_scenario_batch", count),
        (backends, "get_backend", "backends/get_backend", None),
        *((cls, "execute", f"backends/{cls.__name__}.execute", None)
          for cls in sorted(backend_classes, key=lambda c: c.__name__)),
        *((SweepStore, method, f"sweep_store/{method}", None)
          for method in ("write_result", "flush", "write_manifest", "write_fleet",
                         "load_complete_result", "merge", "digest")),
    ]


def layer_metrics(tracer: Tracer, *, scenarios: int, wall_s: float,
                  store_files: int) -> "dict[str, float]":
    """The per-layer metrics of one traced repeat.

    ``scenarios`` is how many scenarios the repeat executed and
    ``wall_s`` the wall time of its timed phases, which the spans
    should cover (``span_coverage``).
    """
    out: "dict[str, float]" = {}
    total = 0.0
    for layer in LAYERS:
        seconds, calls = tracer.layer_self(layer)
        out[f"{layer}_s"] = seconds
        out[f"{layer}_calls"] = calls
        total += seconds
    for method in STORE_DETAIL:
        out[f"sweep_store.{method}_s"] = tracer.self_s[f"sweep_store/{method}"]
    out["sweep_store.files"] = store_files
    out["fleet.solo_calls"] = tracer.calls["fleet/run_scenario"]
    out["spec.content_hash_calls_per_scenario"] = (
        tracer.calls["spec/content_hash"] / scenarios
    )
    batched_builds = tracer.units["registry.problem/build_batch"]
    solo_builds = tracer.calls["registry.problem/make_problem"]
    out["registry.batched_build_share"] = (
        batched_builds / (batched_builds + solo_builds)
        if batched_builds + solo_builds else 0.0
    )
    in_batches = tracer.units["batched/run_scenario_batch"]
    fallbacks = tracer.pairs[("batched/run_scenario_batch", "fleet/run_scenario")]
    out["batched.fallback_share"] = fallbacks / in_batches if in_batches else 0.0
    out["span_coverage"] = total / wall_s
    return out
