"""FLEET — scenarios/sec of the fleet runner vs the sequential baseline.

The seed repository ran every scenario one at a time through the
original pure-Python event loop (kept frozen as
:class:`~repro.runtime.simulator.reference.ReferenceSimulator`).  This
experiment measures what the fleet subsystem buys on a fixed simulator
workload — problems × machine archetypes × seeds, heavy on the
flexible-communication regime whose per-inner-step remote refreshes
were the old loop's worst case:

* **baseline** — sequential execution, reference engine (the seed's
  modus operandi);
* **fleet** — the fleet runner with the vectorized engine, default
  executor (process pool when the host has cores, serial otherwise).

Both run the *same* scenario specs with the same per-scenario seeds,
and the vectorized engine is bit-identical to the reference
(tests/runtime/test_determinism.py), so the throughput ratio is pure
implementation speedup, not workload drift.  The numbers land in
``BENCH_fleet.json`` at the repo root — the perf trajectory file —
and the acceptance bar is >= 2x scenarios/sec.

The streaming results layer adds two costs worth tracking alongside
raw throughput, both measured on the same workload:

* **store-write overhead** — the same serial fleet through
  ``run_grid`` with a ``SweepStore`` (manifest + one atomic JSON row
  per scenario) vs the plain in-memory ``run_fleet``;
* **peak trace memory** — ``tracemalloc`` peak while the sweep
  records and persists every scenario's realized trace
  (``keep_traces``, disk-spilling ``TraceStore``), which must stay
  bounded instead of scaling with scenario count x trace length.

The sharded execution layer adds a third axis: **dispatch overhead**.
A separate many-small-scenarios workload (hundreds of engine scenarios
of a few iterations each — the regime where per-task pickle/IPC and
future bookkeeping dominate) runs once with per-task dispatch
(``chunk_size=1``, the PR-4 behavior) and once with cost-balanced
chunked dispatch (``chunk_size="auto"``) on the same process pool.
The acceptance bar is >= 1.5x scenarios/sec for chunked dispatch, with
bit-identical results (equal determinism digests).

The batched lockstep engine (PR 6) attacks the same workload from the
other side: instead of amortizing dispatch, it *removes* per-scenario
interpreter work by stacking each homogeneous chunk into one ``(N, n)``
population advanced in lockstep vectorized kernels
(``repro.runtime.simulator.batched``).  The legacy strategies run with
``batch=False`` so their rows keep measuring dispatch alone; the
batched row is the default path (``batch=True``).  Phase 2 batches the
*construction* side as well (stacked problem factories via
``registry.build_batch``, shared deterministic models, prefix-stable
seed spawning), so the batched row also reports
``construction_overhead`` — the fraction of its wall spent in
per-scenario setup, measured by the batch engine's own cumulative
counter under the serial executor.  The acceptance bar is >= 8x
scenarios/sec over per-task dispatch on the numpy path (the trajectory
target is >= 10x) — again with equal digests, since batching is
bit-identical per scenario.

The fault-injection layer adds the **fault_overhead** section: the
fault-free workload measured twice (the layer's only cost on fault-free
scenarios is ``faults is None`` guard branches — bit-identity with the
pre-fault goldens is asserted in tests/runtime/test_determinism.py)
plus a run with an inert ``crash-restart`` model attached
(``crash_rate=0``: every per-phase hook fires, no fault ever does).
Measured in CPU seconds with the collector disabled around each run —
the bar is about extra work, not scheduler luck.  The acceptance bar
is <= 2% overhead on the fault-free path; the inert row records the
opt-in cost of attaching a model.

The packed results store adds the **store_scaling** section:
10⁴ synthetic summary rows written to the flat legacy layout and to
the packed columnar layout, then digested, shard-merged, and
re-merged in both.  Recorded per layout: write rows/sec, digest
seconds, merge seconds, and the ``tracemalloc`` peak of the packed
streaming aggregates (digest and ``group_medians`` must stay O(batch),
never materializing the row set).  The acceptance bars are >= 5x
digest and merge speedup for packed over flat at 10⁴ rows, with
byte-identical digests throughout.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import platform
import tempfile
import time
import tracemalloc

from benchmarks._common import emit, fleet_run, once
from repro.analysis.fleet import compare_throughput
from repro.analysis.reporting import render_table
from repro.api import SolverRef, StudyConfig
from repro.runtime.fleet import ScenarioResult, run_grid
from repro.runtime.sweep_store import SweepStore
from repro.scenarios.spec import ScenarioSpec

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TRAJECTORY_FILE = REPO_ROOT / "BENCH_fleet.json"

#: The fixed workload as a declarative study:
#: 2 problems x 2 machines x 3 seeds = 12 scenarios.
STUDY = StudyConfig(
    name="fleet-throughput",
    problems=(("jacobi", {"n": 48}), ("tridiagonal", {"n": 48})),
    solver=SolverRef(
        kind="simulator",
        max_iterations=600,
        tol=0.0,  # run out the budget: identical work per scenario
    ),
    machines=(("flexible", {"n_processors": 8}), ("heterogeneous", {"n_processors": 8})),
    n_seeds=3,
    master_seed=2022,
)
WORKLOAD = STUDY.to_grid()

#: The dispatch-overhead workload: many tiny engine scenarios, so the
#: per-task cost of pickling, queueing and future bookkeeping is the
#: dominant term rather than the math.
MANY_SMALL_STUDY = StudyConfig(
    name="fleet-dispatch",
    problems=(("jacobi", {"n": 6}),),
    solver=SolverRef(kind="engine", max_iterations=4, tol=0.0),
    delays=("zero", "uniform"),
    n_seeds=160,  # 320 scenarios of ~a millisecond each
    master_seed=7,
)
MANY_SMALL = MANY_SMALL_STUDY.to_grid()


def run_throughput():
    baseline_grid = dataclasses.replace(WORKLOAD, backends="reference")
    baseline = fleet_run(baseline_grid, executor="serial")
    fleet = fleet_run(WORKLOAD, executor="auto")
    fleet_serial = fleet_run(WORKLOAD, executor="serial")
    results_layer = run_results_layer()
    dispatch = run_dispatch()
    return baseline, fleet, fleet_serial, results_layer, dispatch


def run_dispatch():
    """Chunked vs per-task dispatch on the many-small-scenarios workload."""
    from repro.runtime.fleet import run_fleet
    from repro.runtime.simulator import batched as batched_mod

    specs = MANY_SMALL.expand()
    serial = run_fleet(specs, executor="serial", batch=False)
    per_task = run_fleet(specs, executor="process", chunk_size=1, batch=False)
    chunked = run_fleet(specs, executor="process", chunk_size="auto",
                        batch=False)
    # Serial executor so the batch engine's in-process construction
    # counter sees every batch this run creates.
    c0 = batched_mod.construction_seconds()
    batched = run_fleet(specs, executor="serial", chunk_size="auto")
    construction = batched_mod.construction_seconds() - c0
    construction_overhead = construction / batched.wall_time
    # Same specs, same seeds: neither dispatch strategy nor scenario
    # batching may ever leak into the results.
    assert (serial.digest() == per_task.digest() == chunked.digest()
            == batched.digest())
    return serial, per_task, chunked, batched, construction_overhead


def run_results_layer():
    """Store-write overhead and peak trace memory on the same workload."""
    specs = WORKLOAD.expand()
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        stored = run_grid(specs, store=root / "summaries", executor="serial")
        # Wall time and peak memory come from separate runs: tracemalloc
        # instruments every allocation and would dominate the timing.
        traced = run_grid(
            specs, store=root / "traced", keep_traces=True, executor="serial",
        )
        tracemalloc.start()
        run_grid(specs, store=root / "memprobe", keep_traces=True, executor="serial")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        n_traces = len(list((root / "traced" / "traces").glob("*.npz")))
        trace_bytes = sum(
            p.stat().st_size for p in (root / "traced" / "traces").glob("*.npz")
        )
    assert not stored.failures() and not traced.failures()
    assert n_traces == len(specs)
    return {
        "store_wall": stored.wall_time,
        "traced_wall": traced.wall_time,
        "trace_peak_bytes": int(peak),
        "trace_files": n_traces,
        "trace_file_bytes": int(trace_bytes),
    }


def run_fault_overhead(repeats: int = 5):
    """CPU cost of the fault layer on fault-free scenarios.

    Fault-free specs run through the engines exactly as they did before
    the fault layer existed, plus ``faults is None`` guard branches —
    bit-identity with the pre-fault golden digests is asserted in
    tests/runtime/test_determinism.py, so the only admissible cost is
    time.  Two interleaved min-of-repeats measurements of the same
    fault-free serial workload bound that cost (the PR 8 baseline path
    versus the identical path measured again); the acceptance bar is
    <= 2%.  A third measurement attaches an *inert* ``crash-restart``
    model (``crash_rate=0``: every per-phase hook runs and draws from
    the fault stream, but no fault ever fires) — recorded as the
    opt-in price of fault sweeps, not held to the fault-free bar.

    Measured in CPU seconds (``time.process_time``) with the collector
    collected-then-disabled around each run: the bar is about extra
    *work*, and on a loaded CI box wall clock smears scheduler and GC
    noise past 2% between literally identical runs.
    """
    import gc

    from repro.runtime.fleet import run_fleet

    plain_specs = WORKLOAD.expand()
    inert_grid = dataclasses.replace(
        WORKLOAD, faults=(("crash-restart", {"crash_rate": 0.0}),)
    )
    inert_specs = inert_grid.expand()

    # batch=False: all rows go straight through the solo engine, so the
    # ratio measures the fault layer itself, not differences in how
    # early the batched path rejects each group.
    def cpu_seconds(specs) -> float:
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            run_fleet(specs, executor="serial", batch=False)
            return time.process_time() - t0
        finally:
            gc.enable()

    cpu_seconds(plain_specs)  # warm-up
    baseline_cpu = float("inf")
    present_cpu = float("inf")
    inert_cpu = float("inf")
    for _ in range(repeats):
        baseline_cpu = min(baseline_cpu, cpu_seconds(plain_specs))
        present_cpu = min(present_cpu, cpu_seconds(plain_specs))
        inert_cpu = min(inert_cpu, cpu_seconds(inert_specs))
    return {
        "baseline_cpu_s": baseline_cpu,
        "fault_free_cpu_s": present_cpu,
        "overhead": present_cpu / baseline_cpu - 1.0,
        "inert_model_cpu_s": inert_cpu,
        "inert_model_overhead": inert_cpu / baseline_cpu - 1.0,
    }


#: Row count of the store_scaling section: large enough that O(rows)
#: rescans dominate the flat layout, small enough for a bench run.
STORE_ROWS = 10_000


def _store_rows(n: int) -> "list[ScenarioResult]":
    """Synthetic-but-realistic summary rows (non-finite residuals,
    None-able fields, small info dicts) for the store benchmarks."""
    rows = []
    for i in range(n):
        spec = ScenarioSpec(problem="jacobi", seed=i,
                            max_iterations=30 + i % 11, tol=1e-6)
        rows.append(ScenarioResult(
            key=spec.key, spec=spec, iterations=i % 400,
            converged=i % 3 != 0,
            final_residual=float("inf") if i % 101 == 0 else 1e-9 * (i + 1),
            final_error=None if i % 4 == 0 else 1e-4 * (i % 60),
            sim_time=None if i % 5 == 0 else 0.25 * (i % 50),
            time_to_tol=None if i % 6 == 0 else 0.1 * (i % 40),
            wall_time=0.001 * (i % 100),
            info={"i": i} if i % 2 else {},
        ))
    return rows


def _fill_store(store: SweepStore, rows) -> float:
    """Write manifest + rows, returning the write wall seconds."""
    t0 = time.perf_counter()
    store.write_manifest([r.spec for r in rows])
    for r in rows:
        store.write_result(r)
    store.flush()
    return time.perf_counter() - t0


def run_store_scaling():
    """Flat vs packed layout at STORE_ROWS rows: write/digest/merge/memory."""
    rows = _store_rows(STORE_ROWS)
    half = len(rows) // 2
    out = {}
    with tempfile.TemporaryDirectory() as td:
        root = pathlib.Path(td)
        flat = SweepStore(root / "flat", layout="flat")
        packed = SweepStore(root / "packed")
        flat_write_s = _fill_store(flat, rows)
        packed_write_s = _fill_store(packed, rows)

        # Digest on cold handles so neither layout benefits from warm
        # in-memory caches.
        t0 = time.perf_counter()
        flat_digest = SweepStore(root / "flat", create=False).digest()
        flat_digest_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        packed_digest = SweepStore(root / "packed", create=False).digest()
        packed_digest_s = time.perf_counter() - t0
        assert packed_digest == flat_digest, "packed digest diverged from flat"

        # Merge two half stores into a fresh destination, per layout.
        for name, layout in (("fshards", "flat"), ("pshards", "packed")):
            _fill_store(SweepStore(root / name / "a", layout=layout), rows[:half])
            _fill_store(SweepStore(root / name / "b", layout=layout), rows[half:])
        t0 = time.perf_counter()
        fmerged = SweepStore(root / "fmerged", layout="flat").merge(
            root / "fshards" / "a", root / "fshards" / "b"
        )
        flat_merge_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pmerged = SweepStore(root / "pmerged").merge(
            root / "pshards" / "a", root / "pshards" / "b"
        )
        packed_merge_s = time.perf_counter() - t0
        assert fmerged.digest() == pmerged.digest() == flat_digest
        # Incremental re-merge of unchanged shards (the O(changed) path).
        t0 = time.perf_counter()
        pmerged.merge(root / "pshards" / "a", root / "pshards" / "b")
        packed_remerge_s = time.perf_counter() - t0

        # Peak memory of the packed streaming aggregates, versus what a
        # full flat materialization costs on the same rows.
        probe = SweepStore(root / "packed", create=False)
        tracemalloc.start()
        probe.digest()
        _, digest_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        probe.invalidate_caches()
        tracemalloc.start()
        probe.fleet_view().group_medians(
            by=("problem",), metrics=("iterations", "converged")
        )
        _, medians_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        tracemalloc.start()
        SweepStore(root / "flat", create=False).fleet_result()
        _, materialize_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    out.update(
        rows=len(rows),
        digest=flat_digest,
        flat_write_rows_per_sec=len(rows) / flat_write_s,
        packed_write_rows_per_sec=len(rows) / packed_write_s,
        flat_digest_s=flat_digest_s,
        packed_digest_s=packed_digest_s,
        digest_speedup=flat_digest_s / packed_digest_s,
        flat_merge_s=flat_merge_s,
        packed_merge_s=packed_merge_s,
        merge_speedup=flat_merge_s / packed_merge_s,
        packed_remerge_s=packed_remerge_s,
        digest_peak_mb=digest_peak / 1e6,
        group_medians_peak_mb=medians_peak / 1e6,
        flat_materialize_peak_mb=materialize_peak / 1e6,
    )
    return out


def test_fleet_throughput(benchmark):
    baseline, fleet, fleet_serial, results_layer, dispatch = once(
        benchmark, run_throughput
    )
    store_scaling = run_store_scaling()
    fault_overhead = run_fault_overhead()
    assert not baseline.failures() and not fleet.failures()

    cmp_total = compare_throughput(baseline, fleet)
    cmp_engine = compare_throughput(baseline, fleet_serial)
    rows = [
        ["sequential + reference engine (seed baseline)", baseline.executor,
         baseline.wall_time, baseline.scenarios_per_sec, 1.0],
        ["fleet + vectorized engine, serial", fleet_serial.executor,
         fleet_serial.wall_time, fleet_serial.scenarios_per_sec, cmp_engine.speedup],
        ["fleet + vectorized engine, default executor", fleet.executor,
         fleet.wall_time, fleet.scenarios_per_sec, cmp_total.speedup],
    ]
    table = render_table(
        ["configuration", "executor", "wall s", "scenarios/s", "speedup"],
        rows,
        title=f"{baseline.scenario_count}-scenario simulator workload (48 components, 8 processors)",
    )

    store_overhead = results_layer["store_wall"] / fleet_serial.wall_time - 1.0
    traced_overhead = results_layer["traced_wall"] / fleet_serial.wall_time - 1.0
    results_rows = [
        ["run_grid + SweepStore (summary rows)", results_layer["store_wall"],
         f"{100 * store_overhead:+.1f}%", "-"],
        ["run_grid + SweepStore + keep_traces", results_layer["traced_wall"],
         f"{100 * traced_overhead:+.1f}%",
         f"{results_layer['trace_peak_bytes'] / 1e6:.1f} MB peak / "
         f"{results_layer['trace_file_bytes'] / 1e6:.1f} MB on disk"],
    ]
    results_table = render_table(
        ["results layer (vs serial in-memory fleet)", "wall s", "overhead", "trace memory"],
        results_rows,
        title=f"streaming results layer, same {baseline.scenario_count}-scenario workload",
    )

    d_serial, d_per_task, d_chunked, d_batched, construction_overhead = dispatch
    chunked_speedup = compare_throughput(d_per_task, d_chunked).speedup
    batched_speedup = compare_throughput(d_per_task, d_batched).speedup
    batched_vs_chunked = compare_throughput(d_chunked, d_batched).speedup
    dispatch_rows = [
        ["serial, solo engine (no pool, no dispatch cost)", d_serial.wall_time,
         d_serial.scenarios_per_sec, "-"],
        ["process pool, per-task dispatch (chunk_size=1)", d_per_task.wall_time,
         d_per_task.scenarios_per_sec, 1.0],
        ["process pool, chunked dispatch (chunk_size=auto)", d_chunked.wall_time,
         d_chunked.scenarios_per_sec, chunked_speedup],
        ["serial, batched lockstep engine (default)", d_batched.wall_time,
         d_batched.scenarios_per_sec, batched_speedup],
        [f"  of which per-scenario construction "
         f"({construction_overhead:.0%} of batched wall)",
         construction_overhead * d_batched.wall_time, "-", "-"],
    ]
    dispatch_table = render_table(
        ["dispatch strategy", "wall s", "scenarios/s", "vs per-task"],
        dispatch_rows,
        title=(f"{d_serial.scenario_count} many-small scenarios "
               f"({MANY_SMALL.max_iterations} iterations each)"),
    )

    ss = store_scaling
    store_rows_tbl = [
        ["write", f"{ss['flat_write_rows_per_sec']:.0f} rows/s",
         f"{ss['packed_write_rows_per_sec']:.0f} rows/s",
         ss["packed_write_rows_per_sec"] / ss["flat_write_rows_per_sec"]],
        ["digest", f"{ss['flat_digest_s']:.3f} s",
         f"{ss['packed_digest_s']:.3f} s", ss["digest_speedup"]],
        ["merge (2 shards)", f"{ss['flat_merge_s']:.3f} s",
         f"{ss['packed_merge_s']:.3f} s", ss["merge_speedup"]],
        ["re-merge (unchanged)", "-", f"{ss['packed_remerge_s']:.3f} s", "-"],
        ["digest peak memory", "-", f"{ss['digest_peak_mb']:.1f} MB", "-"],
        ["group_medians peak memory",
         f"{ss['flat_materialize_peak_mb']:.1f} MB (materialized)",
         f"{ss['group_medians_peak_mb']:.1f} MB", "-"],
    ]
    store_table = render_table(
        ["results store", "flat (legacy)", "packed", "packed/flat"],
        store_rows_tbl,
        title=f"store scaling at {ss['rows']} rows (identical digests)",
    )
    fo = fault_overhead
    fault_table = render_table(
        ["fault layer (serial, min of repeats)", "cpu s", "overhead"],
        [
            ["fault-free specs (PR 8 baseline path)", fo["baseline_cpu_s"], "-"],
            ["fault-free specs, layer present",
             fo["fault_free_cpu_s"], f"{100 * fo['overhead']:+.1f}%"],
            ["inert crash-restart attached (crash_rate=0)",
             fo["inert_model_cpu_s"], f"{100 * fo['inert_model_overhead']:+.1f}%"],
        ],
        title="fault-injection layer overhead (same work, bit-identical)",
    )
    emit(
        "fleet_throughput",
        f"{table}\n\n{results_table}\n\n{dispatch_table}\n\n{store_table}"
        f"\n\n{fault_table}",
    )

    payload = {
        "workload": {
            "scenarios": baseline.scenario_count,
            "max_iterations": WORKLOAD.max_iterations,
            "master_seed": WORKLOAD.master_seed,
        },
        "baseline_scenarios_per_sec": baseline.scenarios_per_sec,
        "fleet_serial_scenarios_per_sec": fleet_serial.scenarios_per_sec,
        "fleet_scenarios_per_sec": fleet.scenarios_per_sec,
        "speedup_engine_only": cmp_engine.speedup,
        "speedup_total": cmp_total.speedup,
        "fleet_executor": fleet.executor,
        "cpu_count": fleet.max_workers,
        "platform": platform.platform(),
        "results_layer": {
            "store_write_overhead": store_overhead,
            "keep_traces_overhead": traced_overhead,
            "trace_peak_mb": results_layer["trace_peak_bytes"] / 1e6,
            "trace_disk_mb": results_layer["trace_file_bytes"] / 1e6,
            "trace_files": results_layer["trace_files"],
        },
        "dispatch": {
            "scenarios": d_serial.scenario_count,
            "max_iterations": MANY_SMALL.max_iterations,
            "serial_scenarios_per_sec": d_serial.scenarios_per_sec,
            "per_task_scenarios_per_sec": d_per_task.scenarios_per_sec,
            "chunked_scenarios_per_sec": d_chunked.scenarios_per_sec,
            "batched_scenarios_per_sec": d_batched.scenarios_per_sec,
            "chunked_vs_per_task_speedup": chunked_speedup,
            "batched_vs_per_task_speedup": batched_speedup,
            "batched_vs_chunked_speedup": batched_vs_chunked,
            "construction_overhead": construction_overhead,
        },
        "store_scaling": store_scaling,
        "fault_overhead": fault_overhead,
    }
    TRAJECTORY_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    # Same work, same seeds: the runs must agree scenario by scenario.
    for rb, rf in zip(baseline.results, fleet.results):
        assert rb.iterations == rf.iterations, (rb.key, rf.key)
        assert rb.final_residual == rf.final_residual, (rb.key, rf.key)
    # The acceptance bars: the fleet at least doubles scenarios/sec,
    # chunked dispatch buys >= 1.5x on many small scenarios, and the
    # batched lockstep engine buys >= 5x on the same workload.
    assert cmp_total.speedup >= 2.0, f"fleet speedup {cmp_total.speedup:.2f}x < 2x"
    assert chunked_speedup >= 1.5, (
        f"chunked dispatch speedup {chunked_speedup:.2f}x < 1.5x"
    )
    assert batched_speedup >= 8.0, (
        f"batched engine speedup {batched_speedup:.2f}x < 8x"
    )
    # Packed-store acceptance bars: aggregates and recombination must
    # beat the flat layout by >= 5x at 10^4 rows (digests identical by
    # the asserts inside run_store_scaling).
    assert ss["digest_speedup"] >= 5.0, (
        f"packed digest speedup {ss['digest_speedup']:.2f}x < 5x"
    )
    assert ss["merge_speedup"] >= 5.0, (
        f"packed merge speedup {ss['merge_speedup']:.2f}x < 5x"
    )
    # Fault-layer acceptance bar: fault-free scenarios with the layer
    # present cost <= 2% over the PR 8 baseline path.
    assert fault_overhead["overhead"] <= 0.02, (
        f"fault layer overhead on fault-free scenarios "
        f"{fault_overhead['overhead']:.1%} > 2%"
    )
