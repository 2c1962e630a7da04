"""SweepStore + run_grid: content hashing, streaming writes, resume.

The acceptance contract: a sweep killed midway and rerun with
``resume=store`` executes only the missing scenarios and reproduces the
uninterrupted sweep's determinism digest exactly; trace recording runs
under a fixed memory ceiling because traces spill and persist instead
of accumulating in the fleet.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import repro.runtime.fleet as fleet_mod
import repro.runtime.sweep_store as store_mod
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


@pytest.fixture()
def count_runs(monkeypatch):
    """Count actual scenario executions (resume must skip completed ones).

    Executions happen through two routes: solo calls (via
    ``_run_scenario_inner``) and batched lockstep groups (via
    ``run_scenario_batch``, which never reaches the solo plumbing).
    Both are counted; scenarios a batch hands back to the solo
    fallback are counted once, by the batch wrapper.
    """
    import repro.runtime.simulator.batched as batched_mod

    calls: list[str] = []
    inner = fleet_mod._run_scenario_inner
    batch = batched_mod.run_scenario_batch
    in_batch = [False]

    def counting(spec, **kwargs):
        if not in_batch[0]:
            calls.append(spec.key)
        return inner(spec, **kwargs)

    def counting_batch(specs, **kwargs):
        calls.extend(s.key for s in specs)
        in_batch[0] = True
        try:
            return batch(specs, **kwargs)
        finally:
            in_batch[0] = False

    monkeypatch.setattr(fleet_mod, "_run_scenario_inner", counting)
    monkeypatch.setattr(batched_mod, "run_scenario_batch", counting_batch)
    return calls


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


class TestRunGrid:
    def test_streams_rows_and_aggregate(self, tmp_path):
        specs = _grid().expand()
        store = SweepStore(tmp_path / "s")
        fleet = run_grid(specs, store=store, executor="serial")
        assert not fleet.failures()
        assert store.completed() == {s.content_hash for s in specs}
        assert (tmp_path / "s" / "fleet.json").is_file()
        again = store.fleet_result()
        for a, b in zip(again.results, fleet.results):
            assert a.iterations == b.iterations
            assert a.final_residual == b.final_residual

    def test_keep_traces_persists_loadable_traces(self, tmp_path):
        specs = _grid(n_seeds=1).expand()
        store = SweepStore(tmp_path / "s")
        fleet = run_grid(specs, store=store, keep_traces=True, executor="serial",
                         trace_chunk_size=16)
        assert not fleet.failures()
        for r in fleet.results:
            assert r.trace_path is not None
            trace = store.load_trace(r.spec)
            assert trace.n_iterations == r.iterations
            assert float(trace.residuals[-1]) == r.final_residual
        # spill working set is cleaned up after each scenario
        assert list(store.tmp_dir.iterdir()) == []

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

        fleet = run_grid(specs, resume=store, executor="serial")
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
        run_grid(specs, resume=interrupted, executor="serial")
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
            run_grid(_grid().expand(), resume=tmp_path / "typo", executor="serial")
        assert not (tmp_path / "typo").exists()  # and must not create it

    def test_resume_path_equivalent_to_store_path(self, tmp_path, count_runs):
        specs = list(_grid().expand())
        run_grid(specs, store=tmp_path / "s", executor="serial")
        count_runs.clear()
        # Same directory, spelled differently: still "the same store".
        run_grid(specs, store=tmp_path / "s",
                 resume=tmp_path / "sub" / ".." / "s", executor="serial")
        assert count_runs == []

    def test_resume_into_different_store_copies_rows_and_traces(self, tmp_path):
        specs = list(_grid().expand())
        old = SweepStore(tmp_path / "old")
        run_grid(specs, store=old, keep_traces=True, executor="serial")
        new = SweepStore(tmp_path / "new")
        fleet = run_grid(specs, store=new, resume=old, keep_traces=True,
                         executor="serial")
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
        fleet = run_grid(specs, resume=store, keep_traces=True, executor="serial")
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
        fleet = run_grid(specs, resume=store, keep_traces=True, executor="serial")
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

        def fill(store, traced=True):
            for row, state in zip(rows, ("none", "empty", "dangling", "present")):
                h = row.content_hash
                path = {"none": None, "empty": ""}.get(state, str(store.trace_path(h)))
                if state == "present":
                    store.trace_path(h).write_bytes(b"")
                store.write_result(dataclasses.replace(
                    row, trace_path=path if traced else None))
            return store

        logs = fill(SweepStore(tmp_path / "logs", batch_rows=1000))
        sealed = fill(SweepStore(tmp_path / "sealed"))
        sealed.flush()
        # Sealed rows all say "never traced"; the log rows written over
        # them carry the real trace states and must win.
        overlay = fill(SweepStore(tmp_path / "overlay", batch_rows=1000), traced=False)
        overlay.flush()
        fill(overlay)
        flat = fill(SweepStore(tmp_path / "flat", layout="flat"))
        expected = {
            False: {r.content_hash for r in rows},
            True: {rows[1].content_hash, rows[3].content_hash},  # "", present
        }
        for name, st in [("logs", logs), ("sealed", sealed),
                         ("overlay", overlay), ("flat", flat)]:
            for require_trace in (False, True):
                bulk = st.load_complete_results(query, require_trace=require_trace)
                assert set(bulk) == expected[require_trace], (name, require_trace)
                for s in query:
                    one = st.load_complete_result(s, require_trace=require_trace)
                    if s.content_hash in bulk:
                        assert one.to_json_dict() == bulk[s.content_hash].to_json_dict()
                    else:
                        assert one is None, (name, require_trace, s.key)

    def test_resume_decodes_each_batch_once(self, tmp_path, count_runs, monkeypatch):
        """Regression: a merged store with more batches in one shard
        than a fixed-size batch cache holds, resumed in manifest order
        (random by batch), must still open each batch file only once."""
        grid = _grid(n_seeds=40)  # 80 scenarios
        specs = list(grid.expand())
        runs = []
        for i in range(2):
            shard = SweepStore(tmp_path / f"shard{i}", batch_rows=4, prefix_len=0)
            runs.append((shard, run_grid(grid.shard(2, i), store=shard, executor="serial")))
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

        # "Killed" bigger resume: manifest written, rows land, no new
        # fleet.json yet — simulate by doing the steps by hand.
        store.write_manifest(big)
        for spec in big:
            store.write_result(run_scenario(spec))
        assert store.fleet_result().scenario_count == 4  # not the stale 2


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
        fleet = run_grid(specs, store=full, keep_traces=True, executor="serial",
                         trace_chunk_size=64)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert not fleet.failures()
        assert peak < self.CEILING_BYTES, f"peak {peak} bytes over ceiling"
        assert len(list(full.traces_dir.glob("*.npz"))) == 200

        # Kill at scenario 180/200, then resume.
        partial = SweepStore(tmp_path / "partial")
        run_grid(specs[:180], store=partial, keep_traces=True, executor="serial",
                 trace_chunk_size=64)
        resumed = run_grid(specs, resume=partial, keep_traces=True,
                           executor="serial", trace_chunk_size=64)
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
        (tmp_path / "s" / "fleet.json").unlink()  # no final aggregate

        stitched = store.fleet_result()
        rows_sum = sum(r.wall_time for r in stitched.results)
        assert stitched.wall_time == pytest.approx(rows_sum)
        assert stitched.wall_time > 0
        assert np.isfinite(stitched.scenarios_per_sec)

    def test_store_loaded_fleet_json_is_strict(self, tmp_path):
        specs = _grid().expand()
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        (tmp_path / "s" / "fleet.json").unlink()

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
        specs = _grid(n_seeds=1).expand()
        store = SweepStore(tmp_path / "s")
        run_grid(specs, store=store, executor="serial")
        self._strict((tmp_path / "s" / "fleet.json").read_text())
