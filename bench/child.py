"""One benchmark repeat in a fresh process: ``python -m bench.child JOB``.

``JOB`` is a JSON object with the keys ``workload``, ``seed``,
``workdir``, ``spawn_ns`` (the driver's ``time.monotonic_ns()`` just
before it started this process; on Linux every process reads the same
monotonic clock), ``trace`` and ``oracle``.  The child
runs the workload's study once through ``Study.run`` into a fresh
store under ``workdir``, resumes the complete store, checks the
results, and prints one JSON line: its measurements, its checks and,
when traced, its per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from typing import Any

from repro.api import Study, StudyConfig
from repro.runtime.fleet import run_fleet
from repro.runtime.sweep_store import DIGEST_FIELDS, SweepStore, digest_rows

from bench.spans import Tracer, layer_metrics, library_targets
from bench.workloads import PINNED_SEED, WORKLOADS, Workload

__all__ = ["oracle_checks", "run_repeat"]

#: How every timed ``Study.run`` executes: in this process, one
#: scenario group after another, with no cross-study result cache.
RUN_OPTIONS = {"executor": "serial", "cache": False}

#: Untraced children resume the complete store until this much time
#: has passed (at least once) and report the median: a resume of a
#: small store takes tens of milliseconds, too short to time once.
RESUME_BUDGET_S = 0.5


def run_repeat(
    workload: Workload,
    seed: int,
    workdir: "str | pathlib.Path",
    *,
    spawn_ns: "int | None" = None,
    trace: bool = False,
    oracle: bool = False,
) -> "dict[str, Any]":
    """Run, resume and check ``workload`` once; return the record.

    The timed run phase is every ``Study.run`` of the study (one per
    shard) plus, for a sharded workload, the ``SweepStore.merge`` and a
    cold ``digest`` of the merged store.  A timed resume is a
    ``resume=True`` rerun over the complete store; a traced child
    resumes exactly once, so its spans describe one run and one resume.
    Checks run outside the timed phases.
    """
    study = Study(StudyConfig.from_dict(workload.config(seed)))
    tracer = Tracer()
    targets = library_targets() if trace else []
    shards = ([None] if workload.shards == 1 else
              [(i, workload.shards) for i in range(workload.shards)])
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    try:
        with tracer.installed(targets) if trace else contextlib.nullcontext():
            setup_s = None if spawn_ns is None else (time.monotonic_ns() - spawn_ns) / 1e9
            gc.collect()
            start = time.perf_counter()
            runs = [study.run(out=work / f"run-{j}", shard=shard, **RUN_OPTIONS)
                    for j, shard in enumerate(shards)]
            if len(runs) == 1:
                final = runs[0].store.root
            else:
                final = SweepStore(work / "merged").merge(*(r.store for r in runs)).root
                merged_digest = SweepStore(final, create=False).digest()
            run_s = time.perf_counter() - start
            resume_times: "list[float]" = []
            while not resume_times or (not trace and sum(resume_times) < RESUME_BUDGET_S):
                gc.collect()
                start = time.perf_counter()
                resumed = study.run(out=final, resume=True, **RUN_OPTIONS)
                resume_times.append(time.perf_counter() - start)
        resume_s = statistics.median(resume_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        files = [p for p in final.rglob("*") if p.is_file()]
        store_mb = sum(p.stat().st_size for p in files) / 1e6

        fleet_digest = digest_rows(
            (r.content_hash, r) for run in runs for r in run.fleet.ok()
        )
        store_digest = (merged_digest if len(runs) > 1
                        else SweepStore(final, create=False).digest())
        checks = {
            "store digest equals fleet digest": store_digest == fleet_digest,
            "resume digest equals run digest": resumed.digest() == store_digest,
        }
        if seed == PINNED_SEED:
            checks["store digest equals pinned digest"] = store_digest == workload.digest
        if oracle:
            checks.update(oracle_checks(study, final, workload.oracle_specs))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scenarios = sum(run.scenario_count for run in runs)
    failed_scenarios = sum(len(r.failures()) for r in (*runs, resumed))
    record: "dict[str, Any]" = {
        "workload": workload.name,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "resume_s": resume_s,
        "scenarios": scenarios,
        "scenarios_per_s": scenarios / run_s,
        "peak_rss_mb": peak_rss_mb,
        "store_mb": store_mb,
        "digest": store_digest,
        "checks": checks,
        "attempted": scenarios + len(checks),
        "failed": failed_scenarios + sum(not ok for ok in checks.values()),
    }
    if trace:
        record["layers"] = layer_metrics(
            tracer, scenarios=scenarios, wall_s=run_s + resume_s, store_files=len(files)
        )
    return record


def _same(a: Any, b: Any) -> bool:
    """Equal, counting NaN as equal to NaN (a diverged row is NaN on both sides)."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def oracle_checks(study: Study, store_root: pathlib.Path, count: int) -> "dict[str, bool]":
    """Rerun the study's first ``count`` specs solo and compare field by field.

    Simulator specs rerun on the ``reference`` event loop, engine specs
    on the solo engine (``batch=False``); every digest field of the
    stored row must equal the rerun's.
    """
    store = SweepStore(store_root, create=False)
    specs = study.specs()[:count]
    oracle_specs = [replace(s, backend="reference") if s.kind == "simulator" else s
                    for s in specs]
    reruns = run_fleet(oracle_specs, executor="serial", batch=False).results
    checks = {}
    for spec, rerun in zip(specs, reruns):
        row = store.load_result(spec)
        checks[f"oracle {spec.key}"] = (
            row is not None and rerun.error is None
            and all(_same(getattr(row, f), getattr(rerun, f)) for f in DIGEST_FIELDS)
        )
    return checks


def main() -> None:
    job = json.loads(sys.argv[1])
    record = run_repeat(
        WORKLOADS[job["workload"]], job["seed"], job["workdir"],
        spawn_ns=job["spawn_ns"], trace=job["trace"], oracle=job["oracle"],
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
