"""The benchmark driver: one process starting one child per repeat.

The driver imports nothing from the library.  It starts
``python -m bench.child`` once per workload repeat, one child at a time
(a closed loop with one client), round-robin over the workloads with
the order rotated each round, and waits for each child's JSON line.
Each metric's value is the median of its repeats; the result also
keeps the quartiles and every raw sample, plus the host it ran on.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Sequence

__all__ = ["ROOT", "host_fingerprint", "load_benchmark", "run_session", "summary"]

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Rounds of a session without a time budget.
ROUNDS = 5
#: Fewest rounds of a time-budgeted session: enough for quartiles.
MIN_ROUNDS = 3
#: A child that runs longer than this is killed and fails the session.
CHILD_TIMEOUT_S = 150
#: One BLAS thread per child: with the idle driver that is at most two
#: busy threads, and thread-pool start-up stays out of the numbers.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
#: Children keep their stores here, inside the checkout; removed after.
WORKDIR = ROOT / ".bench_work"


class ChildFailed(RuntimeError):
    """A child exited non-zero or timed out: the session has no result."""


def load_benchmark() -> "dict[str, Any]":
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(samples: "Sequence[float]") -> "dict[str, Any]":
    """Median, quartiles (``statistics.quantiles(n=4)``) and raw samples."""
    samples = list(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "samples": samples}


def git_commit() -> "str | None":
    """The checked-out commit, read from ``.git``; ``None`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def cpu_loop_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now.

    Inside a virtual machine the load average does not see other
    tenants; a slow loop at the start or end of a session does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def host_fingerprint() -> "dict[str, Any]":
    """CPU, core count, interpreter, numpy, commit, BLAS pin, load and speed."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "blas_pin": BLAS_PIN,
        "loadavg_start": list(os.getloadavg()),
        "cpu_loop_s_start": cpu_loop_s(),
    }


def run_child(workload: str, seed: int, *, trace: bool, oracle: bool) -> "dict[str, Any]":
    """Start one child for one repeat and return its record."""
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    job = {"workload": workload, "seed": seed, "workdir": str(WORKDIR),
           "trace": trace, "oracle": oracle, "spawn_ns": time.monotonic_ns()}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_session(
    workloads: "Sequence[str]",
    seed: int,
    *,
    seconds: "float | None" = None,
    trace: bool = False,
) -> "dict[str, Any]":
    """Measure ``workloads`` and return the result document.

    Without ``seconds`` the session runs :data:`ROUNDS` rounds; with it,
    rounds continue until ``seconds`` have passed (at least
    :data:`MIN_ROUNDS`).  The first round's children also run the
    oracle.  ``trace`` adds one traced child per workload afterwards.
    """
    host = host_fingerprint()
    records: "dict[str, list[dict[str, Any]]]" = {w: [] for w in workloads}
    traced: "dict[str, dict[str, Any]]" = {}
    started = time.monotonic()
    WORKDIR.mkdir(exist_ok=True)
    try:
        rounds = 0
        while True:
            k = rounds % len(workloads)
            for name in (*workloads[k:], *workloads[:k]):
                records[name].append(
                    run_child(name, seed, trace=False, oracle=rounds == 0)
                )
            rounds += 1
            if seconds is None:
                if rounds >= ROUNDS:
                    break
            elif rounds >= MIN_ROUNDS and time.monotonic() - started >= seconds:
                break
        if trace:
            traced = {name: run_child(name, seed, trace=True, oracle=False)
                      for name in workloads}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    host["session_s"] = time.monotonic() - started
    host["loadavg_end"] = list(os.getloadavg())
    host["cpu_loop_s_end"] = cpu_loop_s()

    bench = load_benchmark()
    doc: "dict[str, Any]" = {"seed": seed, "host": host, "workloads": {}}
    for name in workloads:
        recs = records[name]
        checked = [*recs, traced[name]] if name in traced else recs
        failures = sorted({c for r in checked for c, ok in r["checks"].items() if not ok})
        # One more check: every repeat, traced or not, reproduces one
        # digest, whichever process ran it.
        digests = sorted({r["digest"] for r in checked})
        if len(digests) != 1:
            failures.append(f"repeats disagree on the store digest: {digests}")
        attempted = sum(r["attempted"] for r in checked) + 1
        failed = sum(r["failed"] for r in checked) + (len(digests) != 1)
        entry: "dict[str, Any]" = {
            "repeats": len(recs),
            "digest": digests[0],
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "failures": failures,
            "metrics": {
                m["name"]: {**summary([r[m["name"]] for r in recs]), "unit": m["unit"]}
                for m in bench["end_to_end"]
            },
        }
        if name in traced:
            t = traced[name]
            layers = dict(t["layers"])
            untraced = statistics.median(r["run_s"] + r["resume_s"] for r in recs)
            layers["tracing_overhead"] = (t["run_s"] + t["resume_s"]) / untraced - 1
            entry["layers"] = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                               for m in bench["per_layer"]}
        doc["workloads"][name] = entry
    doc["attempted"] = sum(e["attempted"] for e in doc["workloads"].values())
    doc["failed"] = sum(e["failed"] for e in doc["workloads"].values())
    doc["correct"] = doc["failed"] == 0
    return doc


def result_line(doc: "dict[str, Any]", *, trace: bool) -> "dict[str, Any]":
    """The one-line summary: end-to-end metrics, or per-layer ones when traced.

    A single-workload session names metrics plainly; a session over
    several workloads prefixes each with ``<workload>.``.
    """
    section = "layers" if trace else "metrics"
    entries = doc["workloads"]
    metrics = {
        (m if len(entries) == 1 else f"{name}.{m}"): {"value": v["value"], "unit": v["unit"]}
        for name, entry in entries.items()
        for m, v in entry[section].items()
    }
    return {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


def render(doc: "dict[str, Any]") -> str:
    """Human-readable table of every metric, by name, with its unit."""
    host = doc["host"]
    lines = [f"seed {doc['seed']}  host {host['cpu']} x{host['nproc']}  "
             f"loadavg {host['loadavg_start'][0]:.2f} -> {host['loadavg_end'][0]:.2f}  "
             f"cpu loop {host['cpu_loop_s_start']:.3f} s -> {host['cpu_loop_s_end']:.3f} s"]
    for name, entry in doc["workloads"].items():
        lines.append(f"\n{name}  ({entry['repeats']} repeats, {entry['failed']}/"
                     f"{entry['attempted']} operations failed, digest {entry['digest'][:16]})")
        for m, v in entry["metrics"].items():
            lines.append(f"  {m:<40} {v['value']:>12.4f} {v['unit']:<6} "
                         f"[q1 {v['q1']:.4f}, q3 {v['q3']:.4f}]")
        for m, v in entry.get("layers", {}).items():
            lines.append(f"  {m:<40} {v['value']:>12.4f} {v['unit']}")
        for failure in entry["failures"]:
            lines.append(f"  FAILED {failure}")
    return "\n".join(lines)
