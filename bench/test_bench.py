"""Fast checks of the benchmark itself (collected by the tier-1 suite).

The workloads run here at toy size through the same child code the
benchmark runs at full size, so a library change that breaks a
workload, a check or a wrapper fails here first.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re

import pytest

from bench import child, spans
from bench.child import run_repeat
from bench.compare import verdict
from bench.driver import ROOT, load_benchmark
from bench.workloads import WORKLOADS, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def single_resume(monkeypatch):
    """Toy stores resume in milliseconds: one resume each keeps the suite fast."""
    monkeypatch.setattr(child, "RESUME_BUDGET_S", 0.0)


def toy(name: str) -> Workload:
    """The workload with two seeds and three iterations per scenario."""
    w = WORKLOADS[name]
    study = {**w.study, "n_seeds": 2,
             "solver": {**w.study["solver"], "max_iterations": 3}}
    return dataclasses.replace(w, study=study)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, tmp_path):
    record = run_repeat(toy(name), 7, tmp_path, oracle=True)
    assert record["failed"] == 0, record["checks"]
    oracles = [c for c in record["checks"] if c.startswith("oracle ")]
    assert len(oracles) == min(WORKLOADS[name].oracle_specs, record["scenarios"])
    assert record["scenarios_per_s"] > 0 and record["resume_s"] > 0
    assert list(tmp_path.iterdir()) == []  # the child cleans up its stores


def test_self_time_excludes_child_spans(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 6.0])  # outer starts, inner runs 1..3, outer ends
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: [1, 2], "layer/inner", units=len)
    outer = tracer.wrap(lambda: inner(), "layer/outer")
    assert outer() == [1, 2]
    assert tracer.self_s == {"layer/outer": 4.0, "layer/inner": 2.0}
    assert tracer.layer_self("layer") == (6.0, 2)
    assert tracer.units["layer/inner"] == 2
    assert tracer.pairs == {("layer/outer", "layer/inner"): 1}


def test_tracing_keeps_digests_and_restores_the_library(tmp_path):
    targets = spans.library_targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    plain = run_repeat(toy("swarm"), 7, tmp_path)
    traced = run_repeat(toy("swarm"), 7, tmp_path, trace=True)
    assert traced["digest"] == plain["digest"]
    assert [(o, a, vars(o).get(a)) for o, a, _, _ in targets] == before
    layers = traced["layers"]
    assert layers["api_calls"] == 3  # two shards and the resume
    assert layers["span_coverage"] == pytest.approx(1.0, abs=0.05)
    per_layer = {m["name"] for m in load_benchmark()["per_layer"]}
    assert per_layer == set(layers) | {"tracing_overhead"}


def test_benchmark_json_is_consistent():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS.values():
        assert re.fullmatch(r"[0-9a-f]{64}", w.digest), w.name
    e2e = bench["end_to_end"]
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert bounds["setup_s"] == max(bounds.values())
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in itertools.chain(e2e, bench["per_layer"])]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize(("base", "new", "expected"), [
    ([10, 10.1, 9.9, 10, 10.05], [12, 12.1, 11.9, 12, 12.05], "improved"),
    ([10, 10.1, 9.9, 10, 10.05], [8, 8.1, 7.9, 8, 8.05], "regressed"),
    ([10, 10.1, 9.9, 10, 10.05], [10.02, 10.0, 9.95, 10.1, 10.0], "unchanged"),
    ([5, 10, 15, 7, 13], [6, 11, 16, 8, 14], "unresolved"),
])
def test_compare_verdicts(base, new, expected):
    assert verdict(base, new, better="higher", bound=0.1)["verdict"] == expected
