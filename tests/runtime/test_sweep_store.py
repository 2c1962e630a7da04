"""SweepStore + run_grid: content hashing, streaming writes, resume.

The acceptance contract: a sweep killed midway and rerun with
``store=store, resume=True`` executes only the missing scenarios and
reproduces the uninterrupted sweep's determinism digest exactly; a
trace-keeping sweep runs under a fixed memory ceiling because each
trace is saved and dropped inside its worker instead of accumulating
in the fleet.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import pathlib
import shutil
import tracemalloc

import numpy as np
import pytest

import repro.runtime.fleet as fleet_mod
import repro.runtime.sweep_store as store_mod
from repro.api import SolverRef, Study, StudyConfig
from repro.runtime.fleet import FleetResult, run_grid, run_scenario
from repro.runtime.sweep_store import SweepStore, digest_rows
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec


def _grid(n_seeds: int = 2, **overrides) -> ScenarioGrid:
    defaults = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        steerings=("cyclic",),
        n_seeds=n_seeds,
        max_iterations=80,
        tol=1e-6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestContentHash:
    def test_stable_across_instances(self):
        a = ScenarioSpec(problem="jacobi", seed=7)
        b = ScenarioSpec(problem="jacobi", seed=7)
        assert a.content_hash == b.content_hash
        assert len(a.content_hash) == 16

    def test_default_backend_hashes_like_explicit(self):
        # __post_init__ resolves backend=None, so the canonical form agrees.
        a = ScenarioSpec(problem="jacobi", seed=1)
        b = ScenarioSpec(problem="jacobi", seed=1, backend="exact")
        assert a.content_hash == b.content_hash

    def test_every_field_participates(self):
        base = ScenarioSpec(problem="jacobi", seed=1)
        variants = [
            ScenarioSpec(problem="jacobi", seed=2),
            ScenarioSpec(problem="jacobi", seed=1, max_iterations=999),
            ScenarioSpec(problem="jacobi", seed=1, tol=1e-4),
            ScenarioSpec(problem="jacobi", seed=1, delays="uniform"),
            ScenarioSpec(problem="jacobi", seed=1, problem_params={"n": 12}),
            ScenarioSpec(problem="jacobi", seed=1, backend="flexible"),
        ]
        hashes = {base.content_hash} | {v.content_hash for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_canonical_is_plain_json(self):
        spec = ScenarioSpec(problem="jacobi", seed=3, problem_params={"n": 12})
        doc = json.dumps(spec.canonical(), sort_keys=True)
        assert json.loads(doc)["problem_params"] == {"n": 12}

    def test_large_array_params_participate_in_hash(self):
        # Regression: json_safe used to drop >64-element arrays from
        # canonical(), making distinct scenarios collide in the store.
        a = ScenarioSpec(problem="jacobi", seed=1,
                         problem_params={"weights": np.arange(100.0)})
        b = ScenarioSpec(problem="jacobi", seed=1,
                         problem_params={"weights": np.arange(100.0) * 2})
        assert a.content_hash != b.content_hash
        json.dumps(a.canonical())  # arrays canonicalize to digest dicts

    def test_uncanonicalizable_params_raise(self):
        spec = ScenarioSpec(problem="jacobi", seed=1,
                            problem_params={"fn": lambda x: x})
        with pytest.raises(TypeError, match="canonicalize"):
            _ = spec.content_hash

    @pytest.mark.parametrize("tol", [-1e-8, math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        # nan < 0 is false, so a sign check alone lets NaN through; an
        # inf tol ran, then its stored spec read back as tol=None.
        with pytest.raises(ValueError, match="tol must be finite"):
            ScenarioSpec(problem="jacobi", tol=tol)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
        np.array([1.0, np.nan]), [0.0, {"x": -math.inf}],
    ], ids=["nan", "inf", "-inf", "np.float64", "np.float32", "array", "nested"])
    def test_non_finite_params_raise(self, value):
        # Strict JSON holds no NaN or Infinity, so such a spec could be
        # neither hashed nor stored faithfully.
        spec = ScenarioSpec(problem="jacobi", seed=1, delay_params={"scale": value})
        with pytest.raises(ValueError, match="must be finite"):
            _ = spec.content_hash

    def test_finite_numpy_params_hash_as_python_floats(self):
        a = ScenarioSpec(problem="jacobi", seed=1, problem_params={"d": np.float32(0.5)})
        b = ScenarioSpec(problem="jacobi", seed=1, problem_params={"d": 0.5})
        assert a.content_hash == b.content_hash

    def test_manifest_refuses_non_finite_values(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        entry = {"hash": "0" * 16, "key": "k", "spec": {"tol": math.inf}}
        with pytest.raises(ValueError, match="JSON compliant"):
            store._write_manifest_entries([entry])

    def test_array_params_hash_survives_json_roundtrip(self):
        # Regression: persistence mangled ndarray params (json_safe
        # list-ification / dropping), so the reloaded spec hashed
        # differently from the one that ran.
        spec = ScenarioSpec(problem="jacobi", seed=1,
                            problem_params={"weights": np.arange(100.0)})
        result = fleet_mod.ScenarioResult(key=spec.key, spec=spec)
        back = fleet_mod.ScenarioResult.from_json_dict(
            json.loads(json.dumps(result.to_json_dict()))
        )
        assert back.content_hash == spec.content_hash


@pytest.fixture()
def count_hashes(monkeypatch):
    """Count content-hash computations (``sha256`` calls in the spec module)."""
    import types

    import repro.scenarios.spec as spec_mod

    calls: list[bytes] = []
    real = spec_mod.hashlib.sha256

    def sha256(data=b""):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(spec_mod, "hashlib", types.SimpleNamespace(sha256=sha256))
    return calls


class TestContentHashCache:
    """A spec computes its content hash once; the cache is invisible."""

    def test_computed_once_per_instance(self, count_hashes):
        spec = ScenarioSpec(problem="jacobi", seed=7)
        first = spec.content_hash
        assert spec.content_hash == first
        assert len(count_hashes) == 1

    @pytest.mark.parametrize("read_before", [True, False])
    def test_pickle_round_trip(self, read_before):
        import pickle

        spec = ScenarioSpec(problem="jacobi", seed=7, problem_params={"n": 6})
        twin = ScenarioSpec(problem="jacobi", seed=7, problem_params={"n": 6})
        if read_before:
            _ = spec.content_hash
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec == twin
        assert repr(back) == repr(twin)
        assert back.content_hash == twin.content_hash

    def test_equal_to_a_fresh_twin(self):
        spec = ScenarioSpec(problem="jacobi", seed=7)
        _ = spec.content_hash
        twin = ScenarioSpec(problem="jacobi", seed=7)  # hash never read
        assert spec == twin
        assert repr(spec) == repr(twin)
        assert dataclasses.astuple(spec) == dataclasses.astuple(twin)

    def test_replace_gets_its_own_hash(self):
        spec = ScenarioSpec(problem="jacobi", seed=7)
        h = spec.content_hash
        other = dataclasses.replace(spec, seed=8)
        assert other.content_hash == ScenarioSpec(problem="jacobi", seed=8).content_hash
        assert other.content_hash != h
        assert spec.content_hash == h

    @pytest.mark.parametrize("batch", [False, True])
    def test_a_run_hashes_each_spec_once(self, tmp_path, count_hashes, batch):
        specs = list(_grid(n_seeds=3).expand())
        count_hashes.clear()
        run_grid(specs, store=tmp_path / "s", executor="serial", batch=batch)
        assert len(count_hashes) == len(specs)


class TestSweepStoreBasics:
    def test_write_and_load_result_roundtrip(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        spec = ScenarioSpec(problem="jacobi", seed=5, max_iterations=60)
        result = run_scenario(spec)
        store.write_result(result)
        loaded = store.load_result(spec)
        assert loaded is not None
        assert loaded.iterations == result.iterations
        assert loaded.final_residual == result.final_residual
        assert loaded.spec == spec
        assert store.completed() == {spec.content_hash}

    def test_failed_results_not_persisted(self, tmp_path):
        store = SweepStore(tmp_path / "s")
        spec = ScenarioSpec(problem="jacobi", seed=5)
        bad = fleet_mod.ScenarioResult(key=spec.key, spec=spec, error="RuntimeError()")
        store.write_result(bad)
        assert store.completed() == set()
        assert store.load_result(spec) is None

    def test_missing_store_dir_rejected_without_create(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SweepStore(tmp_path / "nope", create=False)

    def test_unrelated_existing_dir_rejected_without_create(self, tmp_path):
        # A directory that exists but is not a store (no manifest) must
        # not silently open as an empty one.
        (tmp_path / "notastore").mkdir()
        (tmp_path / "notastore" / "README.txt").write_text("hi")
        with pytest.raises(FileNotFoundError, match="manifest"):
            SweepStore(tmp_path / "notastore", create=False)

    def test_manifest_freezes_submission_order(self, tmp_path):
        specs = _grid().expand()
        store = SweepStore(tmp_path / "s")
        store.write_manifest(specs)
        assert store.manifest_hashes() == [s.content_hash for s in specs]
        doc = store.read_manifest()
        assert doc["scenario_count"] == len(specs)
        assert doc["scenarios"][0]["spec"]["problem"] == "jacobi"


class TestHandlesReadTheDisk:
    """A handle keeps no copy of its directory, so two handles agree."""

    def test_lookups_made_before_a_resume_see_its_rows(self, tmp_path, count_runs):
        specs = list(_grid(n_seeds=3).expand())
        assert len(specs) == 6
        root = tmp_path / "s"
        run_grid(specs, store=root, executor="serial")
        handle = SweepStore(root, create=False)
        victim = specs[0]
        handle.discard_result(victim.content_hash)
        # Look the row up and count the rows before the resume ...
        assert handle.load_result(victim) is None
        assert len(handle.completed()) == 5
        count_runs.clear()
        run_grid(specs, store=root, resume=True, executor="serial")
        assert count_runs == [victim.key]
        assert not list(root.glob("shards/*/log/*.json"))  # the row is sealed
        # ... and read again through the same handle, with no reset.
        row = handle.load_result(victim)
        assert row is not None and row.key == victim.key
        assert len(handle.completed()) == 6
        assert handle.digest() == run_grid(specs, executor="serial").digest()


class TestRunGrid:
    def test_streams_rows_and_aggregate(self, tmp_path):
        specs = _grid().expand()
        store = SweepStore(tmp_path / "s")
        fleet = run_grid(specs, store=store, executor="serial")
        assert not fleet.failures()
        assert store.completed() == {s.content_hash for s in specs}
        # Each row is stored once: no fleet.json aggregate, only the
        # run's record in the manifest header.
        assert not (tmp_path / "s" / "fleet.json").exists()
        again = store.fleet_result()
        assert (again.executor, again.max_workers, again.wall_time) == (
            fleet.executor, fleet.max_workers, fleet.wall_time
        )
        for a, b in zip(again.results, fleet.results):
            assert a.iterations == b.iterations
            assert a.final_residual == b.final_residual

    def test_keep_traces_persists_loadable_traces(self, tmp_path):
        specs = _grid(n_seeds=1).expand()
        store = SweepStore(tmp_path / "s")
        fleet = run_grid(specs, store=store, keep_traces=True, executor="serial")
        assert not fleet.failures()
        for r in fleet.results:
            assert r.trace_path is not None
            trace = store.load_trace(r.spec)
            assert trace.n_iterations == r.iterations
            assert float(trace.residuals[-1]) == r.final_residual
        # traces record in memory: no working directory beside traces/
        assert not (tmp_path / "s" / "tmp").exists()

    def test_keep_traces_without_store_rejected(self):
        with pytest.raises(ValueError, match="store"):
            run_grid(_grid().expand(), keep_traces=True)

    def test_matches_plain_run_fleet(self, tmp_path):
        specs = _grid().expand()
        plain = fleet_mod.run_fleet(specs, executor="serial")
        stored = run_grid(specs, store=tmp_path / "s", executor="serial")
        for a, b in zip(plain.results, stored.results):
            assert a.iterations == b.iterations
            assert a.converged == b.converged
            assert a.final_residual == b.final_residual
            assert a.final_error == b.final_error

    def test_thread_executor_agrees_with_serial(self, tmp_path):
        specs = _grid().expand()
        serial = run_grid(specs, store=tmp_path / "a", executor="serial")
        threaded = run_grid(specs, store=tmp_path / "b", executor="thread",
                            max_workers=4)
        assert SweepStore(tmp_path / "a").digest() == SweepStore(tmp_path / "b").digest()
        for a, b in zip(serial.results, threaded.results):
            assert a.final_residual == b.final_residual


class TestResume:
    def test_resume_runs_only_missing(self, tmp_path, count_runs):
        specs = list(_grid(n_seeds=6).expand())  # 12 scenarios
        store = SweepStore(tmp_path / "s")
        # "Kill midway": only the first seven scenarios completed.
        run_grid(specs[:7], store=store, executor="serial")
        assert len(count_runs) == 7
        count_runs.clear()

        fleet = run_grid(specs, store=store, resume=True, executor="serial")
        assert len(count_runs) == len(specs) - 7
        assert not fleet.failures()
        assert [r.key for r in fleet.results] == [s.key for s in specs]

    def test_resume_reproduces_uninterrupted_digest(self, tmp_path):
        specs = list(_grid(n_seeds=3).expand())
        full = SweepStore(tmp_path / "full")
        run_grid(specs, store=full, executor="serial")

        interrupted = SweepStore(tmp_path / "partial")
        run_grid(specs[:5], store=interrupted, executor="serial")
        assert interrupted.digest() != full.digest()  # partial != complete
        run_grid(specs, store=interrupted, resume=True, executor="serial")
        assert interrupted.digest() == full.digest()

    def test_resume_true_uses_store(self, tmp_path, count_runs):
        specs = list(_grid().expand())
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        count_runs.clear()
        run_grid(specs, store=store, resume=True, executor="serial")
        assert count_runs == []

    def test_fresh_store_without_resume_reruns_everything(self, tmp_path, count_runs):
        specs = list(_grid().expand())
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        n = len(count_runs)
        run_grid(specs, store=store, executor="serial")  # no resume flag
        assert len(count_runs) == 2 * n

    def test_resume_true_without_store_raises(self):
        # Forgetting store= must not silently run everything unpersisted.
        with pytest.raises(ValueError, match="store"):
            run_grid(_grid().expand(), resume=True, executor="serial")

    def test_digest_scoped_to_manifest_on_reused_dir(self, tmp_path):
        # Rows left behind by a previous, different grid in the same
        # directory must not pollute the determinism certificate.
        small = list(_grid(n_seeds=1).expand())
        big = list(_grid(n_seeds=2).expand())
        reused = SweepStore(tmp_path / "reused")
        run_grid(big, store=reused, executor="serial")     # old grid's rows
        run_grid(small, store=reused, executor="serial")   # new grid, no resume
        fresh = SweepStore(tmp_path / "fresh")
        run_grid(small, store=fresh, executor="serial")
        assert reused.digest() == fresh.digest()

    def test_resume_from_missing_dir_raises(self, tmp_path):
        """A typo'd resume path must error, not silently re-run the sweep."""
        with pytest.raises(FileNotFoundError):
            run_grid(_grid().expand(), store=tmp_path / "typo", resume=True,
                     executor="serial")
        assert not (tmp_path / "typo").exists()  # and must not create it

    def test_resume_takes_only_a_bool(self, tmp_path, count_runs):
        """resume reads the run's own store; any other store is a cache."""
        specs = list(_grid().expand())
        old = SweepStore(tmp_path / "old")
        run_grid(specs, store=old, executor="serial")
        count_runs.clear()
        for store, resume in [
            (None, tmp_path / "old"),
            (tmp_path / "new", tmp_path / "old"),
            (tmp_path / "new", str(tmp_path / "old")),
            (tmp_path / "new", old),
            (old, old),
            (tmp_path / "new", None),
        ]:
            with pytest.raises(TypeError, match=r"store=.*cache="):
                run_grid(specs, store=store, resume=resume, executor="serial")
        assert count_runs == []
        assert not (tmp_path / "new").exists()

    def test_rows_of_another_store_come_in_through_cache(self, tmp_path, count_runs):
        specs = list(_grid().expand())
        old = SweepStore(tmp_path / "old")
        run_grid(specs, store=old, keep_traces=True, executor="serial")
        count_runs.clear()
        new = SweepStore(tmp_path / "new")
        fleet = run_grid(specs, store=new, cache=old, keep_traces=True,
                         executor="serial")
        assert count_runs == []
        assert new.completed() == {s.content_hash for s in specs}
        assert new.digest() == old.digest()
        for r in fleet.results:
            # trace_path rewritten into the new store, file present.
            assert str(new.traces_dir) in r.trace_path
            assert new.load_trace(r.spec).n_iterations == r.iterations

    def test_resume_with_keep_traces_regenerates_missing_traces(self, tmp_path, count_runs):
        specs = list(_grid().expand())
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")  # rows, no traces
        count_runs.clear()
        fleet = run_grid(specs, store=store, resume=True, keep_traces=True,
                         executor="serial")
        assert len(count_runs) == len(specs)  # all re-run to get traces
        for r in fleet.results:
            assert store.load_trace(r.spec).n_iterations == r.iterations

    def test_traceless_backend_row_counts_complete(self, tmp_path, count_runs):
        """A backend that legitimately yields no trace must not livelock.

        trace_path == "" marks "traces requested, none produced"; such
        rows are complete under keep_traces and never re-run.
        """
        specs = list(_grid(n_seeds=1).expand())
        store = SweepStore(tmp_path / "s")
        store.write_manifest(specs)
        for spec in specs:
            row = dataclasses.replace(run_scenario(spec), trace_path="")
            store.write_result(row)
        count_runs.clear()
        fleet = run_grid(specs, store=store, resume=True, keep_traces=True,
                         executor="serial")
        assert count_runs == []
        assert all(r.trace_path == "" for r in fleet.results)

    def test_cli_banner_and_run_grid_share_completeness_rule(self, tmp_path):
        specs = list(_grid().expand())
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")  # rows, no traces
        # The single rule both consumers call:
        assert all(
            store.load_complete_result(s, require_trace=False) is not None
            for s in specs
        )
        assert all(
            store.load_complete_result(s, require_trace=True) is None
            for s in specs
        )

        # The bulk read (run_grid, CLI banner) agrees with the per-spec
        # rule on every layout and trace state, for missing rows and
        # duplicated input specs too.
        specs = list(_grid(n_seeds=3).expand())
        rows = [run_scenario(s) for s in specs[:4]]  # specs[4:] stay missing
        query = specs + specs[:2]

        def traced_rows(root, traced=True):
            traces = pathlib.Path(root) / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            out = []
            for row, state in zip(rows, ("none", "empty", "dangling", "present")):
                trace = traces / f"{row.content_hash}.npz"
                path = {"none": None, "empty": ""}.get(state, str(trace))
                if state == "present":
                    trace.write_bytes(b"")
                out.append(dataclasses.replace(
                    row, trace_path=path if traced else None))
            return out

        def fill(store, traced=True):
            for row in traced_rows(store.root, traced):
                store.write_result(row)
            return store

        logs = fill(SweepStore(tmp_path / "logs", batch_rows=1000))
        sealed = fill(SweepStore(tmp_path / "sealed"))
        sealed.flush()
        # Sealed rows all say "never traced"; the log rows written over
        # them carry the real trace states and must win.
        overlay = fill(SweepStore(tmp_path / "overlay", batch_rows=1000), traced=False)
        overlay.flush()
        fill(overlay)
        expected = {
            False: {r.content_hash for r in rows},
            True: {rows[1].content_hash, rows[3].content_hash},  # "", present
        }
        for name, st in [("logs", logs), ("sealed", sealed),
                         ("overlay", overlay)]:
            for require_trace in (False, True):
                bulk = st.load_complete_results(query, require_trace=require_trace)
                assert set(bulk) == expected[require_trace], (name, require_trace)
                for s in query:
                    one = st.load_complete_result(s, require_trace=require_trace)
                    if s.content_hash in bulk:
                        assert one.to_json_dict() == bulk[s.content_hash].to_json_dict()
                    else:
                        assert one is None, (name, require_trace, s.key)

    def test_resume_from_retired_store_is_refused(
        self, tmp_path, count_runs, write_retired_store, tree_bytes
    ):
        specs = list(_grid().expand())
        live = run_grid(specs, executor="serial")
        root = write_retired_store(tmp_path / "flat", live.results)
        before = tree_bytes(root)
        count_runs.clear()
        for store, resume in [(root, True), (str(root), True), (root, False)]:
            with pytest.raises(ValueError, match="manifest.json"):
                run_grid(specs, store=store, resume=resume, executor="serial")
        assert count_runs == []
        assert tree_bytes(root) == before

    def test_resume_decodes_each_batch_once(self, tmp_path, count_runs, monkeypatch):
        """Regression: a merged store with more batches in one shard
        than a fixed-size batch cache holds, resumed in manifest order
        (random by batch), must still open each batch file only once."""
        grid = _grid(n_seeds=40)  # 80 scenarios
        specs = list(grid.expand())
        runs = []
        for i in range(2):
            shard = SweepStore(tmp_path / f"shard{i}", batch_rows=4, prefix_len=0)
            # chunk_size=1: rows land one at a time, so every batch seals
            # at exactly batch_rows rows.
            runs.append((shard, run_grid(grid.shard(2, i), store=shard,
                                         executor="serial", chunk_size=1)))
        merged = SweepStore(tmp_path / "merged", batch_rows=4, prefix_len=0)
        merged.merge(*(shard for shard, _ in runs))
        batches = {p.name for p in (tmp_path / "merged" / "shards").glob("batch-*.npz")}
        assert len(batches) == 20  # 2 shards x 40 rows / 4 rows per batch
        run_digest = digest_rows(
            (r.content_hash, r) for _, fleet in runs for r in fleet.results
        )
        count_runs.clear()

        opened: "collections.Counter[str]" = collections.Counter()
        real_load = np.load

        def counting_load(file, *args, **kwargs):
            opened[pathlib.Path(file).name] += 1
            return real_load(file, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(store_mod.np, "load", counting_load)
            resumed = run_grid(specs, store=merged, resume=True, executor="serial")

        assert count_runs == []
        assert set(opened) == batches
        assert max(opened.values()) == 1, opened.most_common(3)
        assert [r.key for r in resumed.results] == [s.key for s in specs]
        assert resumed.digest() == run_digest == merged.digest()

    def test_partial_rows_beat_stale_fleet_json(self, tmp_path, count_runs):
        """A new manifest invalidates the previous run's aggregate."""
        small = list(_grid(n_seeds=1).expand())   # 2 scenarios
        big = list(_grid(n_seeds=2).expand())     # 4 scenarios
        store = SweepStore(tmp_path / "s")
        run_grid(small, store=store, executor="serial")
        assert store.fleet_result().scenario_count == 2

        # "Killed" bigger resume: manifest written, rows land, no run
        # record yet — simulate by doing the steps by hand.
        store.write_manifest(big)
        for spec in big:
            store.write_result(run_scenario(spec))
        assert store.fleet_result().scenario_count == 4  # not the stale 2


def _files(root: pathlib.Path) -> "dict[str, tuple[int, str]]":
    """Every file under ``root``: its inode and the SHA-256 of its bytes.

    Files land by rename, so a rewrite with the same bytes still
    changes the inode.
    """
    return {
        str(p.relative_to(root)): (p.stat().st_ino, hashlib.sha256(p.read_bytes()).hexdigest())
        for p in root.rglob("*") if p.is_file()
    }


def _study() -> Study:
    return Study(StudyConfig(
        name="resume", problems=(("jacobi", {"n": 8}),),
        solver=SolverRef(max_iterations=80, tol=1e-6),
        delays=("zero", "uniform"), n_seeds=6,
    ))


def _complete_store(root: pathlib.Path, study: Study, kind: str) -> "list[SweepStore]":
    """A complete store of ``study``; the merge's sources for ``merged``.

    ``plain`` is one run; ``merged`` merges two shard stores with
    :meth:`SweepStore.merge`; ``traced`` keeps every trace.
    """
    if kind != "merged":
        study.run(out=root, keep_traces=kind == "traced", executor="serial")
        return []
    sources = [
        study.run(out=root.parent / f"shard{i}", shard=(i, 2), executor="serial").store
        for i in range(2)
    ]
    SweepStore(root).merge(*sources)
    assert (root / "merge_log.json").is_file()
    return sources


class TestResumeWritesNothing:
    """A resume that runs nothing writes nothing; one that runs a row
    keeps the manifest and records its own run."""

    @pytest.mark.parametrize("path", ["run_grid", "study"])
    @pytest.mark.parametrize("kind", ["plain", "merged", "traced"])
    def test_resume_of_a_complete_store_changes_no_file(
        self, tmp_path, count_runs, kind, path
    ):
        study = _study()
        root = tmp_path / "store"
        _complete_store(root, study, kind)
        keep = kind == "traced"
        if keep:
            assert all(SweepStore(root, create=False).has_trace(s.content_hash)
                       for s in study.specs())
        before = _files(root)
        count_runs.clear()
        if path == "run_grid":
            fleet = run_grid(study.specs(), store=root, resume=True,
                             keep_traces=keep, executor="serial")
        else:
            fleet = study.run(out=root, resume=True, keep_traces=keep,
                              executor="serial").fleet
            assert study.name in study.result(root).report()
        assert count_runs == []
        assert _files(root) == before
        assert fleet.digest() == SweepStore(root, create=False).digest()

    def test_a_header_without_scope_is_rewritten_by_the_first_resume_only(self, tmp_path):
        specs = list(_grid(n_seeds=3).expand())
        root = tmp_path / "s"
        run_grid(specs, store=root, executor="serial")
        header_path = root / "manifest.json"
        header = json.loads(header_path.read_text())
        del header["scope"]  # as a store written before scopes existed
        header_path.write_text(json.dumps(header, indent=2))
        run_grid(specs, store=root, resume=True, executor="serial")
        assert json.loads(header_path.read_text())["scope"]
        before = _files(root)
        run_grid(specs, store=root, resume=True, executor="serial")
        assert _files(root) == before

    def test_a_new_scope_rewrites_the_manifest_whatever_the_order(self, tmp_path):
        specs = list(_grid(n_seeds=3).expand())
        root = tmp_path / "s"
        run_grid(specs[:4], store=root, executor="serial")
        run_grid(specs, store=root, resume=True, executor="serial")
        assert SweepStore(root).manifest_hashes() == [s.content_hash for s in specs]
        # The same scope in another order keeps the stored order.
        before = _files(root)
        run_grid(specs[::-1], store=root, resume=True, executor="serial")
        assert _files(root) == before
        assert SweepStore(root).manifest_hashes() == [s.content_hash for s in specs]

    def test_a_manifest_rewrite_killed_midway_is_redone(self, tmp_path, monkeypatch):
        """The scope leaves the header before any shard manifest changes.

        A resume of the original scope after a killed rewrite must then
        rewrite the manifest, or it keeps a mix of the two lists.
        """
        specs = list(_grid(n_seeds=3).expand())
        template = tmp_path / "template"
        run_grid(specs, store=template, executor="serial")
        expected = SweepStore(template).read_manifest()
        digest = SweepStore(template).digest()
        real = store_mod._atomic_write
        for k in itertools.count(1):
            root = tmp_path / f"s{k}"
            shutil.copytree(template, root)
            calls: "list[pathlib.Path]" = []

            def write(path, text, calls=calls, k=k):
                calls.append(path)
                if len(calls) == k:
                    raise OSError(f"simulated crash at write {k}")
                real(path, text)

            with monkeypatch.context() as m:
                m.setattr(store_mod, "_atomic_write", write)
                try:  # a new scope: the manifest is rewritten
                    run_grid(specs[:2], store=root, resume=True, executor="serial")
                except OSError:
                    pass
                else:
                    break
            run_grid(specs, store=root, resume=True, executor="serial")
            store = SweepStore(root, create=False)
            assert store.read_manifest() == expected, k
            assert store.digest() == digest, k
        assert k > 2  # the header, then at least one shard manifest

    def test_a_resume_that_reruns_a_row_keeps_the_manifest(self, tmp_path, count_runs):
        specs = list(_grid(n_seeds=3).expand())
        root = tmp_path / "s"
        run_grid(specs, store=root, executor="serial")
        SweepStore(root, create=False).discard_result(specs[1].content_hash)
        shard_manifests = {name: f for name, f in _files(root).items()
                           if name.endswith("/manifest.json")}
        assert shard_manifests
        header = json.loads((root / "manifest.json").read_text())
        count_runs.clear()
        fleet = run_grid(specs, store=root, resume=True, executor="serial")
        assert count_runs == [specs[1].key]
        after = _files(root)
        assert {name: after[name] for name in shard_manifests} == shard_manifests
        new_header = json.loads((root / "manifest.json").read_text())
        assert new_header.pop("run") == {
            "executor": fleet.executor, "max_workers": fleet.max_workers,
            "wall_time": fleet.wall_time,
        }
        del header["run"]
        assert new_header == header

    @pytest.mark.parametrize("merge_log", ["kept", "deleted"])
    def test_merging_again_after_a_resume_reads_no_source_unit(
        self, tmp_path, monkeypatch, merge_log
    ):
        study = _study()
        root = tmp_path / "store"
        sources = _complete_store(root, study, "merged")
        run_grid(study.specs(), store=root, resume=True, executor="serial")
        if merge_log == "deleted":
            # A unit whose rows the destination holds is skipped too.
            (root / "merge_log.json").unlink(missing_ok=True)
        digest = SweepStore(root, create=False).digest()
        for src in sources:
            monkeypatch.setattr(src, "_shard_docs", lambda *a: pytest.fail(
                "the merge read rows of a source"))
        monkeypatch.setattr(SweepStore, "_adopt_batch", lambda *a: pytest.fail(
            "the merge copied a source batch"))
        SweepStore(root, create=False).merge(*sources)
        assert SweepStore(root, create=False).digest() == digest


class TestResumedRowsShareSpecs:
    """A resumed or cached row holds the caller's spec, not a rebuilt one."""

    def test_resumed_rows_are_the_uninterrupted_rows_around_the_callers_specs(
        self, tmp_path
    ):
        first = run_grid(_grid(n_seeds=3).expand(), store=tmp_path / "s",
                         executor="serial")
        specs = list(_grid(n_seeds=3).expand())  # new objects, same hashes
        resumed = run_grid(specs, store=tmp_path / "s", resume=True, executor="serial")
        for spec, row, old in zip(specs, resumed.results, first.results):
            assert row.spec is spec
            assert row == old

    @pytest.mark.parametrize("store", [False, True])
    def test_cache_hits_hold_the_callers_specs(self, tmp_path, count_runs, store):
        first = run_grid(_grid(n_seeds=3).expand(), store=tmp_path / "cache",
                         executor="serial")
        specs = list(_grid(n_seeds=3).expand())
        count_runs.clear()
        hits = run_grid(specs, store=tmp_path / "s" if store else None,
                        cache=tmp_path / "cache", executor="serial")
        assert count_runs == []
        for spec, row, old in zip(specs, hits.results, first.results):
            assert row.spec is spec
            assert row == old


def _log_files(root: pathlib.Path) -> "list[pathlib.Path]":
    return sorted((root / "shards").rglob("log/*.json"))


def _logged_rows(path: pathlib.Path) -> "set[str]":
    return set(json.loads(path.read_text())["rows"])


class TestGroupedLog:
    """Rows that complete together land as one log file per shard prefix."""

    @pytest.mark.parametrize("batch", [False, True])
    def test_kill_before_seal_keeps_every_row(self, tmp_path, monkeypatch, batch):
        specs = list(_grid(n_seeds=12).expand())  # 24 scenarios
        root = tmp_path / "s"
        with monkeypatch.context() as m:
            m.setattr(SweepStore, "flush", lambda self: None)  # killed before the seal
            fleet = run_grid(specs, store=root, executor="serial", chunk_size=8,
                             batch=batch)
        store = SweepStore(root, create=False)
        # The serial plan: each batch group in slices of 8, or one row
        # per unit unbatched.
        plan = fleet_mod._plan(list(enumerate(specs)), 8, 1, batch, serial=True)
        chunks = [[spec.content_hash for _, spec in unit] for _, unit in plan]
        logs = _log_files(root)
        # At most one file per unit and prefix; each file is one
        # unit's rows of one prefix.
        assert len(logs) == sum(len({store._prefix(h) for h in c}) for c in chunks)
        for path in logs:
            rows = _logged_rows(path)
            assert {store._prefix(h) for h in rows} == {path.parent.parent.name}
            assert any(rows <= set(c) for c in chunks)
        assert store.completed() == {s.content_hash for s in specs}
        assert store.digest() == fleet.digest()
        store.flush()
        assert not _log_files(root)
        assert SweepStore(root, create=False).digest() == fleet.digest()

    def test_discard_one_row_of_a_multi_row_log(self, tmp_path):
        rows = [run_scenario(s) for s in _grid(n_seeds=2).expand()]
        root = tmp_path / "s"
        store = SweepStore(root, prefix_len=0)
        store.write_manifest([r.spec for r in rows])
        (path,) = store.write_result(*rows)
        assert _logged_rows(path) == {r.content_hash for r in rows}

        victim = rows[1].content_hash
        store.discard_result(victim)
        survivors = [r for r in rows if r.content_hash != victim]
        (left,) = _log_files(root)
        assert _logged_rows(left) == {r.content_hash for r in survivors}
        assert store.load_result_by_hash(victim) is None
        for r in survivors:
            assert store.load_result_by_hash(r.content_hash).to_json_dict() == (
                r.to_json_dict()
            )
        expected = digest_rows((r.content_hash, r) for r in survivors)
        assert store.digest() == expected
        reopened = SweepStore(root, create=False)
        assert reopened.completed() == {r.content_hash for r in survivors}
        assert reopened.digest() == expected

    def test_a_row_logged_twice_reads_as_its_latest_write(self, tmp_path):
        rows = [run_scenario(s) for s in _grid(n_seeds=1).expand()]
        root = tmp_path / "s"
        store = SweepStore(root, prefix_len=0)
        store.write_manifest([r.spec for r in rows])
        (old,) = store.write_result(*rows)
        os.utime(old, ns=(0, 0))  # logged long before the re-run
        rerun = dataclasses.replace(rows[0], trace_path="")
        store.write_result(rerun)
        h = rerun.content_hash
        assert SweepStore(root, create=False).load_result_by_hash(h).trace_path == ""
        store.flush()
        assert SweepStore(root, create=False).load_result_by_hash(h).trace_path == ""

    def test_seal_takes_whole_log_files(self, tmp_path):
        rows = [run_scenario(s) for s in _grid(n_seeds=3).expand()]  # 6 rows
        root = tmp_path / "s"
        store = SweepStore(root, batch_rows=4, prefix_len=0)
        store.write_manifest([r.spec for r in rows])
        store.write_result(*rows[:3])
        assert len(_log_files(root)) == 1
        # 3 + 3 logged rows cross batch_rows=4: both files seal into
        # one batch of 6, and the log empties.
        store.write_result(*rows[3:])
        assert not _log_files(root)
        (batch,) = (root / "shards").glob("batch-*.npz")
        with np.load(batch) as z:
            assert len(z["hash"]) == 6
        assert store.digest() == digest_rows((r.content_hash, r) for r in rows)

    def test_crash_at_every_write_point_resumes_identically(
        self, tmp_path, monkeypatch, count_runs
    ):
        """Each write after the manifest raises in turn; resume completes it.

        The write points of a serial batched run are its log files, the
        seals (sidecar, then npz) it triggers mid-run, the final flush
        and the run record in the manifest header.  After each crash a
        resume must reach the uninterrupted digest, re-running only
        rows whose log file never landed.
        """
        specs = list(_grid(n_seeds=12, max_iterations=20).expand())  # 24 scenarios
        digest = run_grid(specs, executor="serial").digest()
        keys = {s.content_hash: s.key for s in specs}
        real = {name: getattr(store_mod, name)
                for name in ("_atomic_write", "_atomic_savez")}
        real_manifest = SweepStore.write_manifest
        for k in range(1, 500):
            root = tmp_path / f"s{k}"
            calls: "list[str]" = []
            landed: "set[str]" = set()
            armed = [False]

            def crashing(name, k=k, calls=calls, landed=landed, armed=armed):
                def write(path, payload):
                    if armed[0]:
                        calls.append(name)
                        if len(calls) == k:
                            raise OSError(f"simulated crash at write {k}")
                    out = real[name](path, payload)
                    if armed[0] and path.parent.name == "log":
                        landed.update(json.loads(payload)["rows"])
                    return out
                return write

            def arming(self, specs, armed=armed):
                path = real_manifest(self, specs)
                armed[0] = True
                return path

            with monkeypatch.context() as m:
                for name in real:
                    m.setattr(store_mod, name, crashing(name))
                m.setattr(SweepStore, "write_manifest", arming)
                try:
                    run_grid(specs, store=SweepStore(root, batch_rows=2),
                             executor="serial", chunk_size=6)
                except OSError:
                    pass
                else:
                    break
            count_runs.clear()
            resumed = run_grid(specs, store=root, resume=True, executor="serial")
            assert not set(count_runs) & {keys[h] for h in landed}, k
            assert resumed.digest() == digest, k
            assert SweepStore(root, create=False).digest() == digest, k
        else:
            pytest.fail("the run never completed")
        # Every kind of write point was crossed: log files, mid-run
        # seals (sidecar + npz), the final flush, the run record.
        assert len(calls) == k - 1
        assert calls.count("_atomic_savez") >= 2
        assert not _log_files(root)
        assert SweepStore(root, create=False).digest() == digest


@pytest.mark.slow
class TestAcceptance200:
    """The ISSUE acceptance bar, verbatim: 200 scenarios, ceiling, resume."""

    GRID = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        steerings=("cyclic", "random-subset"),
        n_seeds=50,
        max_iterations=60,
        tol=1e-6,
    )
    #: Fixed memory ceiling for the whole trace-recording sweep.
    CEILING_BYTES = 32_000_000

    def test_200_scenario_sweep_bounded_memory_and_exact_resume(self, tmp_path):
        specs = list(ScenarioGrid(**self.GRID).expand())
        assert len(specs) == 200

        full = SweepStore(tmp_path / "full")
        tracemalloc.start()
        fleet = run_grid(specs, store=full, keep_traces=True, executor="serial")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert not fleet.failures()
        assert peak < self.CEILING_BYTES, f"peak {peak} bytes over ceiling"
        assert len(list(full.traces_dir.glob("*.npz"))) == 200

        # Kill at scenario 180/200, then resume.
        partial = SweepStore(tmp_path / "partial")
        run_grid(specs[:180], store=partial, keep_traces=True, executor="serial")
        resumed = run_grid(specs, store=partial, resume=True, keep_traces=True,
                           executor="serial")
        assert not resumed.failures()
        assert partial.digest() == full.digest()
        for a, b in zip(resumed.results, fleet.results):
            assert a.iterations == b.iterations
            assert a.final_residual == b.final_residual
            assert a.final_error == b.final_error


class TestInfoRoundTrip:
    """Satellite: backend stats survive ScenarioResult persistence."""

    def test_flexible_constraint_audit_persisted(self, tmp_path):
        spec = ScenarioSpec(
            problem="jacobi", seed=3, backend="flexible", max_iterations=60,
        )
        result = run_scenario(spec)
        assert "constraint_checks" in result.info
        assert "constraint_violations" in result.info

        store = SweepStore(tmp_path / "s")
        store.write_result(result)
        loaded = store.load_result(spec)
        assert loaded.info == result.info

    def test_fleet_json_roundtrips_info(self):
        spec = ScenarioSpec(problem="jacobi", seed=4, backend="flexible",
                            max_iterations=60)
        fleet = fleet_mod.run_fleet([spec], executor="serial")
        doc = fleet.to_json()
        back = FleetResult.from_json(doc)
        assert back.results[0].info == fleet.results[0].info
        assert back.results[0].info  # non-empty: the audit counters are there

    def test_simulator_stats_are_json_safe(self):
        spec = ScenarioSpec(
            problem="jacobi", kind="simulator", seed=2, max_iterations=120,
        )
        result = run_scenario(spec)
        assert result.info.get("phases_completed", 0) > 0
        json.dumps(result.info)  # must not raise

    def test_legacy_json_without_info_loads(self):
        spec = ScenarioSpec(problem="jacobi", seed=1)
        fleet = fleet_mod.run_fleet([spec], executor="serial")
        doc = json.loads(fleet.to_json())
        for record in doc["results"]:
            record.pop("info")
            record.pop("trace_path")
        back = FleetResult.from_json(doc)
        assert back.results[0].info == {}
        assert back.results[0].trace_path is None


class TestBooleanMedians:
    """Satellite: boolean metrics aggregate as well-defined rates."""

    def _fleet(self, flags):
        spec = ScenarioSpec(problem="jacobi", seed=1)
        results = tuple(
            dataclasses.replace(
                run_scenario(dataclasses.replace(spec, seed=i)),
                converged=bool(f),
            )
            for i, f in enumerate(flags)
        )
        return FleetResult(results=results, wall_time=1.0, executor="serial",
                           max_workers=1)

    def test_converged_is_a_rate(self):
        fleet = self._fleet([True, True, False, False])
        med = fleet.group_medians(by=("problem",), metrics=("converged",))
        assert med[("jacobi",)]["converged"] == 0.5

    def test_rate_is_exact_fraction_not_float_median(self):
        # A float median of [T, T, F] would be 1.0; the rate is 2/3.
        fleet = self._fleet([True, True, False])
        med = fleet.group_medians(by=("problem",), metrics=("converged",))
        assert med[("jacobi",)]["converged"] == pytest.approx(2 / 3)

    def test_numpy_bools_also_aggregate_as_rate(self):
        fleet = self._fleet([np.True_, np.False_])
        med = fleet.group_medians(by=("problem",), metrics=("converged",))
        assert med[("jacobi",)]["converged"] == 0.5

    def test_converged_now_a_metric_field(self):
        assert "converged" in fleet_mod.METRIC_FIELDS


class TestStoreWallTimeAndStrictJson:
    """ISSUE 5: partial stores report real cumulative wall time, and
    every persisted JSON document parses under a strict reader."""

    @staticmethod
    def _strict(text: str):
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name!r}")

        return json.loads(text, parse_constant=no_constants)

    def test_partial_store_fleet_wall_time_is_row_sum(self, tmp_path):
        specs = _grid().expand()
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        store.write_manifest(specs)  # drops the run record, as a killed run of a new scope does

        stitched = store.fleet_result()
        rows_sum = sum(r.wall_time for r in stitched.results)
        assert stitched.wall_time == pytest.approx(rows_sum)
        assert stitched.wall_time > 0
        assert np.isfinite(stitched.scenarios_per_sec)

    def test_store_loaded_fleet_json_is_strict(self, tmp_path):
        specs = _grid().expand()
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        store.write_manifest(specs)  # drops the run record

        text = store.fleet_result().to_json()
        doc = self._strict(text)  # Infinity/NaN literals would raise
        assert doc["scenarios_per_sec"] is not None
        assert doc["wall_time"] > 0

    def test_persisted_row_files_are_strict_json(self, tmp_path):
        # Every JSON file the store writes — manifests, log rows, batch
        # sidecars — must parse under a strict (no NaN/Infinity) parser.
        specs = _grid(n_seeds=1).expand()
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        json_files = [p for p in (tmp_path / "s").rglob("*.json")]
        assert json_files
        for p in json_files:
            self._strict(p.read_text())

    def test_fleet_json_aggregate_is_strict(self, tmp_path):
        # The run's aggregate record lives in the manifest header now
        # (there is no fleet.json); the header must stay strict JSON.
        specs = _grid(n_seeds=1).expand()
        store = SweepStore(tmp_path / "s")
        fleet = run_grid(specs, store=store, executor="serial")
        header = self._strict((tmp_path / "s" / "manifest.json").read_text())
        assert header["run"] == {
            "executor": "serial", "max_workers": fleet.max_workers,
            "wall_time": fleet.wall_time,
        }
        assert not (tmp_path / "s" / "fleet.json").exists()
