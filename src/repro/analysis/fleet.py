"""Analysis of fleet results: grouped medians, tables, comparisons.

Consumes the typed :class:`~repro.runtime.fleet.FleetResult` that the
fleet runner produces and renders the aggregate views the benchmarks
and the ``python -m repro sweep`` CLI print: per-group medians over
seeds (the statistically honest summary of a grid) and head-to-head
throughput comparisons between fleet configurations.

Every helper also accepts a persisted sweep: :func:`fleet_from_store`
reassembles the ``FleetResult`` from a
:class:`~repro.runtime.sweep_store.SweepStore` directory (its
completed per-scenario rows, however far the sweep got), so the
tables and the cross-backend pivot read equally from a live run or
from disk.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.reporting import render_table
from repro.runtime.fleet import FleetResult, _group_medians
from repro.runtime.sweep_store import _FAULT_FIELDS, SweepStore

__all__ = [
    "fleet_from_store",
    "fleet_summary_rows",
    "render_fleet_table",
    "backend_comparison_rows",
    "render_backend_comparison",
    "render_study_report",
    "fault_intensity_rows",
    "render_fault_intensity",
    "FAULT_COUNTERS",
    "ThroughputComparison",
    "compare_throughput",
]

#: Fault-log counters that quantify injected-fault intensity; carried
#: in each row's ``info`` dict by the simulator engines (absent — and
#: treated as zero — for fault-free rows).  The same names are the
#: store's int64 batch columns.
FAULT_COUNTERS = _FAULT_FIELDS


def fleet_from_store(
    store: "SweepStore | str | os.PathLike[str]",
    *,
    lazy: bool = False,
) -> "FleetResult | Any":
    """Load a persisted sweep back into a typed :class:`FleetResult`.

    Accepts a :class:`~repro.runtime.sweep_store.SweepStore`, its root
    directory, or the path of a ``FleetResult`` JSON document (as
    ``--json FILE`` exports).  A store loads its completed scenarios
    in manifest order (see
    :meth:`~repro.runtime.sweep_store.SweepStore.fleet_result`), so
    partial stores (sweep still running or killed mid-flight) work
    too — the same
    :func:`render_fleet_table`/:func:`render_backend_comparison` calls
    work on in-flight results.  With ``lazy=True`` a store loads as a
    streaming :class:`~repro.runtime.sweep_store.StoreFleetView`
    instead — same report surface, O(batch) memory at million-row
    scale (JSON document paths still materialize: the file *is* the
    full document).
    """
    if isinstance(store, SweepStore):
        return store.fleet_view() if lazy else store.fleet_result()
    path = pathlib.Path(store)
    if path.is_file():
        return FleetResult.from_json(path.read_text())
    opened = SweepStore(path, create=False)
    return opened.fleet_view() if lazy else opened.fleet_result()


def fleet_summary_rows(
    fleet: FleetResult,
    *,
    group_by: Sequence[str] = ("problem",),
    metrics: Sequence[str] = ("iterations", "converged", "final_residual"),
) -> tuple[list[str], list[list[Any]]]:
    """Headers and rows of per-group medians, ready for ``render_table``.

    Groups are tuples of :class:`~repro.scenarios.spec.ScenarioSpec`
    field values; each metric column is the median over the group's
    non-failed scenarios (``converged`` is a fraction).
    """
    medians = fleet.group_medians(by=tuple(group_by), metrics=tuple(metrics))
    headers = [*group_by, "n", *metrics]
    rows: list[list[Any]] = []
    for gkey, agg in medians.items():
        rows.append([*gkey, int(agg["count"]), *(agg[m] for m in metrics)])
    return headers, rows


def render_fleet_table(
    fleet: FleetResult,
    *,
    group_by: Sequence[str] = ("problem",),
    metrics: Sequence[str] = ("iterations", "converged", "final_residual"),
    title: str | None = None,
) -> str:
    """Monospace per-group median table plus a fleet footer line."""
    headers, rows = fleet_summary_rows(fleet, group_by=group_by, metrics=metrics)
    table = render_table(headers, rows, title=title)
    # A store-reassembled fleet (no live aggregate) reports the *sum*
    # of its rows' wall times — honest cumulative compute, labelled as
    # such rather than passed off as one run's wall clock.
    wall = f"{fleet.wall_time:.2f}s"
    if fleet.executor == "store":
        wall += " cumulative"
    footer = (
        f"{fleet.scenario_count} scenarios in {wall} "
        f"({fleet.scenarios_per_sec:.2f}/s, executor={fleet.executor}, "
        f"workers={fleet.max_workers}, failures={len(fleet.failures())})"
    )
    return f"{table}\n{footer}"


def backend_comparison_rows(
    fleet: FleetResult,
    *,
    metric: str = "iterations",
    group_by: Sequence[str] = ("problem",),
) -> tuple[list[str], list[list[Any]]]:
    """Pivot one metric into one column per execution backend.

    Scenarios that differ only in ``spec.backend`` share a seed (the
    grid spawns one seed per experiment, not per engine), so a row of
    this table is a like-for-like comparison: close columns mean the
    engines agree on the same work, and the ``sim_time``/``wall_time``
    metrics expose their relative cost.  Cells are per-group medians
    over non-failed scenarios; groups missing a backend show ``nan``.
    """
    medians = fleet.group_medians(by=("backend", *group_by), metrics=(metric,))
    backends = sorted({key[0] for key in medians})
    groups = sorted({key[1:] for key in medians}, key=repr)
    headers = [*group_by, *(f"{metric}[{b}]" for b in backends)]
    rows: list[list[Any]] = []
    for g in groups:
        row: list[Any] = [*g]
        for b in backends:
            row.append(medians.get((b, *g), {}).get(metric, float("nan")))
        rows.append(row)
    return headers, rows


def render_backend_comparison(
    fleet: FleetResult,
    *,
    metric: str = "iterations",
    group_by: Sequence[str] = ("problem",),
    title: str | None = "cross-backend comparison",
) -> str:
    """Monospace pivot table of one metric across execution backends."""
    headers, rows = backend_comparison_rows(fleet, metric=metric, group_by=group_by)
    return render_table(headers, rows, title=title)


def render_study_report(
    fleet: FleetResult,
    *,
    kind: str = "engine",
    group_by: Sequence[str] | None = None,
    metrics: Sequence[str] | None = None,
    backend_metric: str = "iterations",
    title: str | None = None,
) -> str:
    """The standard study report: grouped medians + cross-backend pivot.

    One rendering shared by ``python -m repro sweep``/``study`` and
    :meth:`repro.api.StudyResult.report`, so the CLI and the Python API
    cannot drift apart.  ``group_by``/``metrics`` default to
    kind-appropriate choices (engine studies group by problem × delay
    regime, simulator studies by problem × machine and add
    ``sim_time``); when the fleet spans several execution backends the
    grouping gains a ``backend`` column and the pivot table is appended.
    """
    backends = {r.spec.backend for r in fleet.results}
    multi_backend = len(backends) > 1
    pivot_by = ("problem", "delays") if kind == "engine" else ("problem", "machine")
    if group_by is None:
        group_by = pivot_by + (("backend",) if multi_backend else ())
    if metrics is None:
        metrics = ("iterations", "converged", "final_residual")
        if kind == "simulator":
            metrics = metrics + ("sim_time",)
    out = render_fleet_table(
        fleet, group_by=tuple(group_by), metrics=tuple(metrics), title=title
    )
    if multi_backend:
        out += "\n" + render_backend_comparison(
            fleet,
            metric=backend_metric,
            group_by=tuple(g for g in pivot_by if g != "backend"),
        )
    return out


def fault_intensity_rows(
    fleet: FleetResult,
    *,
    group_by: Sequence[str] = ("fault",),
    metrics: Sequence[str] = ("iterations", "converged", "final_residual"),
    counters: Sequence[str] = FAULT_COUNTERS,
) -> tuple[list[str], list[list[Any]]]:
    """Convergence metrics against measured fault intensity, per group.

    Groups rows by the given :class:`~repro.scenarios.spec.ScenarioSpec`
    fields (``fault`` by default; ``fault_params``/``topology_params``
    group by their canonical repr so dict-valued axes work), then
    reports for each group the *measured* fault intensity — the mean of
    each fault-log counter from the rows' ``info`` stats — alongside
    the convergence summary of :meth:`FleetResult.group_medians`
    (boolean metrics as rates, numeric ones as medians over non-failed
    rows).  Rows sort by total mean counter intensity, so the table
    reads fault-free baseline first, harshest regime last.
    """

    def gkey(r: Any) -> tuple[Any, ...]:
        out = []
        for f in group_by:
            v = getattr(r.spec, f)
            out.append(repr(dict(sorted(v.items()))) if isinstance(v, dict) else v)
        return tuple(out)

    totals: dict[tuple[Any, ...], list[float]] = {}

    def tallied(rows: Any) -> Any:
        # Sum each row's counters on its way into _group_medians, so the
        # rows (possibly streamed from a store) are read once.
        for r in rows:
            if r.error is None:
                acc = totals.setdefault(gkey(r), [0.0] * len(counters))
                info = r.info or {}
                for j, c in enumerate(counters):
                    acc[j] += float(info.get(c, 0))
            yield r

    medians = _group_medians(tallied(fleet.results), gkey, metrics)
    headers = [*group_by, "n", *(f"mean_{c}" for c in counters), *metrics]
    rows: list[list[Any]] = []
    for g, agg in medians.items():
        n = int(agg["count"])
        rows.append([*g, n, *(tot / n for tot in totals[g]), *(agg[m] for m in metrics)])
    base = len(group_by) + 1
    rows.sort(key=lambda row: (sum(row[base:base + len(counters)]), repr(row[:base])))
    return headers, rows


def render_fault_intensity(
    fleet: FleetResult,
    *,
    group_by: Sequence[str] = ("fault",),
    metrics: Sequence[str] = ("iterations", "converged", "final_residual"),
    counters: Sequence[str] = FAULT_COUNTERS,
    title: str | None = "convergence vs fault intensity",
) -> str:
    """Monospace convergence-vs-fault-intensity table."""
    headers, rows = fault_intensity_rows(
        fleet, group_by=group_by, metrics=metrics, counters=counters
    )
    return render_table(headers, rows, title=title)


@dataclass(frozen=True)
class ThroughputComparison:
    """Scenarios/sec of a candidate fleet against a baseline fleet."""

    baseline_per_sec: float
    candidate_per_sec: float
    baseline_wall: float
    candidate_wall: float
    scenario_count: int

    @property
    def speedup(self) -> float:
        if self.candidate_per_sec <= 0:
            return float("nan")
        return self.candidate_per_sec / self.baseline_per_sec


def compare_throughput(baseline: FleetResult, candidate: FleetResult) -> ThroughputComparison:
    """Compare two fleets over the same scenario population.

    Raises when the fleets ran different numbers of scenarios — the
    throughput ratio is only meaningful over identical work.
    """
    if baseline.scenario_count != candidate.scenario_count:
        raise ValueError(
            f"fleet sizes differ: {baseline.scenario_count} vs {candidate.scenario_count}"
        )
    return ThroughputComparison(
        baseline_per_sec=baseline.scenarios_per_sec,
        candidate_per_sec=candidate.scenarios_per_sec,
        baseline_wall=baseline.wall_time,
        candidate_wall=candidate.wall_time,
        scenario_count=baseline.scenario_count,
    )
