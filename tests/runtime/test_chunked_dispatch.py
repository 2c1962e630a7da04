"""Planned fleet dispatch: packing, planning, validation, bit-identity.

One planner cuts a grid into dispatch units for the serial executor
and for pools: batch groups become batched units, everything else runs
solo, and a pool task carries a cost-balanced *chunk* of solo specs
instead of a single pickled spec.  The contract under test: the plan
covers every spec exactly once, only groups of two or more specs of
one batch key reach the batcher, chunk packing balances expected cost,
and the resulting ``FleetResult`` is bit-identical to serial and to
per-task dispatch on every executor.
"""

from __future__ import annotations

import pytest

from repro.runtime.fleet import (
    _pack_chunks,
    _plan,
    _run_chunk,
    run_fleet,
    run_grid,
    run_scenario,
)
from repro.runtime.simulator.batched import _group, batchable
from repro.runtime.sweep_store import DIGEST_FIELDS, SweepStore
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec


def _grid(n_seeds: int = 4, **overrides) -> ScenarioGrid:
    defaults = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        n_seeds=n_seeds,
        max_iterations=60,
        tol=1e-6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


def _indexed(specs):
    return list(enumerate(specs))


class TestPackChunks:
    def test_auto_targets_four_tasks_per_worker(self):
        specs = _grid(n_seeds=32).expand()  # 64 scenarios
        chunks = _pack_chunks(_indexed(specs), "auto", workers=4)
        assert len(chunks) == 16  # 4 x 4 workers
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(len(specs)))

    def test_auto_never_exceeds_spec_count(self):
        specs = _grid(n_seeds=1).expand()  # 2 scenarios
        chunks = _pack_chunks(_indexed(specs), "auto", workers=8)
        assert len(chunks) == 2
        assert all(len(c) == 1 for c in chunks)

    def test_explicit_size_bounds_chunks(self):
        specs = _grid(n_seeds=5).expand()  # 10 scenarios
        chunks = _pack_chunks(_indexed(specs), 4, workers=1)
        assert len(chunks) == 3  # ceil(10 / 4)
        assert max(len(c) for c in chunks) <= 4
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(10))

    def test_single_chunk_when_size_swallows_all(self):
        specs = _grid(n_seeds=2).expand()
        chunks = _pack_chunks(_indexed(specs), 1000, workers=2)
        assert len(chunks) == 1
        assert [i for i, _ in chunks[0]] == list(range(len(specs)))

    def test_empty_input(self):
        assert _pack_chunks([], "auto", workers=4) == []

    def test_cost_balanced_not_count_balanced(self):
        # 2 heavy specs (10000 iterations) + 6 light ones (100): with 2
        # chunks, each heavy spec must land in its own chunk instead of
        # both stacking into one straggler task.
        heavy = [
            ScenarioSpec(problem="jacobi", seed=s, max_iterations=10_000)
            for s in range(2)
        ]
        light = [
            ScenarioSpec(problem="jacobi", seed=10 + s, max_iterations=100)
            for s in range(6)
        ]
        chunks = _pack_chunks(_indexed(heavy + light), 4, workers=1)
        assert len(chunks) == 2
        heavy_per_chunk = [
            sum(1 for _, sp in chunk if sp.max_iterations == 10_000)
            for chunk in chunks
        ]
        assert sorted(heavy_per_chunk) == [1, 1]

    def test_explicit_size_is_a_hard_cap_under_heterogeneous_costs(self):
        # Cost balancing must not overflow an explicit chunk_size: one
        # heavy spec pulls the light ones toward the other chunks, but
        # no chunk may exceed the cap (callers cap per-task memory and
        # kill-loss granularity with it).
        heavy = [ScenarioSpec(problem="jacobi", seed=0, max_iterations=10_000)]
        light = [
            ScenarioSpec(problem="jacobi", seed=1 + s, max_iterations=100)
            for s in range(9)
        ]
        chunks = _pack_chunks(_indexed(heavy + light), 4, workers=1)
        assert max(len(c) for c in chunks) <= 4
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(10))

    def test_submission_order_within_chunks(self):
        specs = _grid(n_seeds=8).expand()
        for chunk in _pack_chunks(_indexed(specs), "auto", workers=2):
            indices = [i for i, _ in chunk]
            assert indices == sorted(indices)

    def test_deterministic_layout(self):
        specs = _grid(n_seeds=8).expand()
        a = _pack_chunks(_indexed(specs), "auto", workers=3)
        b = _pack_chunks(_indexed(specs), "auto", workers=3)
        assert [[i for i, _ in c] for c in a] == [[i for i, _ in c] for c in b]


class TestChunkSizeValidation:
    @pytest.mark.parametrize("bad", [0, -3, "big", 2.5, True])
    def test_rejected_by_run_fleet(self, bad):
        specs = _grid(n_seeds=1).expand()
        with pytest.raises(ValueError, match="chunk_size"):
            run_fleet(specs, executor="serial", chunk_size=bad)

    def test_rejected_by_run_grid(self, tmp_path):
        specs = _grid(n_seeds=1).expand()
        with pytest.raises(ValueError, match="chunk_size"):
            run_grid(specs, store=tmp_path / "s", chunk_size=0)


class TestChunkedBitIdentity:
    def test_run_chunk_matches_individual_runs(self):
        specs = list(_grid(n_seeds=2).expand())
        chunked = _run_chunk(run_scenario, specs)
        singles = [run_scenario(s) for s in specs]
        for c, s in zip(chunked, singles):
            assert c.key == s.key
            assert c.iterations == s.iterations
            assert c.final_residual == s.final_residual

    def test_thread_chunked_matches_serial(self):
        specs = _grid(n_seeds=3).expand()
        serial = run_fleet(specs, executor="serial")
        chunked = run_fleet(specs, executor="thread", max_workers=3, chunk_size="auto")
        per_task = run_fleet(specs, executor="thread", max_workers=3, chunk_size=1)
        assert chunked.digest() == serial.digest() == per_task.digest()
        for rs, rc in zip(serial.results, chunked.results):
            assert rs.key == rc.key
            assert rs.iterations == rc.iterations
            assert rs.final_residual == rc.final_residual

    def test_chunked_run_grid_streams_per_scenario(self, tmp_path):
        specs = _grid(n_seeds=3).expand()
        store_dir = tmp_path / "chunked"
        fleet = run_grid(
            specs, store=store_dir, executor="thread", max_workers=2,
            chunk_size=2,
        )
        from repro.runtime.sweep_store import SweepStore

        store = SweepStore(store_dir, create=False)
        assert len(store.completed()) == len(specs)
        assert store.digest() == fleet.digest()

    @pytest.mark.slow
    def test_process_chunked_matches_serial(self):
        specs = _grid(n_seeds=2).expand()
        serial = run_fleet(specs, executor="serial")
        chunked = run_fleet(specs, executor="process", max_workers=2, chunk_size="auto")
        assert chunked.digest() == serial.digest()


class TestPackingEdges:
    """ISSUE 6 bugfix: degenerate packings never emit empty chunks."""

    def test_auto_on_single_scenario_grid(self):
        specs = _grid(n_seeds=1, delays=("zero",)).expand()
        assert len(specs) == 1
        chunks = _pack_chunks(_indexed(specs), "auto", workers=4)
        assert chunks == [[(0, specs[0])]]

    def test_explicit_size_larger_than_grid_has_no_empty_chunks(self):
        specs = _grid(n_seeds=1).expand()  # 2 scenarios
        for size in (3, 10, 10_000):
            chunks = _pack_chunks(_indexed(specs), size, workers=3)
            assert all(chunk for chunk in chunks), size
            covered = sorted(i for chunk in chunks for i, _ in chunk)
            assert covered == list(range(len(specs)))

    @pytest.mark.parametrize("chunk_size", ["auto", 1, 7, 10_000])
    @pytest.mark.parametrize("workers", [1, 3, 16])
    def test_never_any_empty_chunk(self, chunk_size, workers):
        specs = _grid(n_seeds=2).expand()  # 4 scenarios
        chunks = _pack_chunks(_indexed(specs), chunk_size, workers=workers)
        assert all(len(chunk) >= 1 for chunk in chunks)
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(len(specs)))

    def test_oversized_explicit_chunk_runs_end_to_end(self, tmp_path):
        # chunk_size far beyond the grid used to be an easy way to get
        # a degenerate packing; the fleet must run it like any other.
        specs = _grid(n_seeds=1).expand()
        big = run_fleet(specs, executor="thread", max_workers=2,
                        chunk_size=10_000)
        ref = run_fleet(specs, executor="serial", chunk_size=1)
        assert not big.failures()
        assert big.digest() == ref.digest()

    def test_validation_errors_name_the_argument(self):
        specs = _grid(n_seeds=1).expand()
        with pytest.raises(ValueError, match=r'chunk_size must be "auto"'):
            run_fleet(specs, executor="serial", chunk_size="huge")
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            run_fleet(specs, executor="serial", chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            run_fleet(specs, executor="serial", chunk_size=2.5)


def _mixed() -> "list[ScenarioSpec]":
    """Two batch groups, six ``flexible``-backend specs and one lone batchable spec.

    Seeds interleave the four kinds in submission order, so no unit is
    a contiguous run of the grid.
    """
    def spec(seed, **overrides):
        fields = dict(problem="jacobi", problem_params={"n": 8}, seed=seed,
                      max_iterations=60, tol=1e-6)
        return ScenarioSpec(**{**fields, **overrides})

    specs = [spec(s) for s in range(0, 20, 4)]  # group of five
    specs += [spec(s, problem="tridiagonal", delays="uniform") for s in range(1, 17, 4)]
    specs += [spec(s, backend="flexible") for s in range(2, 24, 4)]  # not batchable
    specs.append(spec(3, max_iterations=80))  # batchable, alone in its group
    return sorted(specs, key=lambda s: s.seed)


#: ``(workers, serial)`` pairs the planner is checked under: the serial
#: executor, and pools of one worker and of three.
_EXECUTORS = [(1, True), (1, False), (3, False)]


def _row_fields(fleet):
    return [(r.key, *(getattr(r, f) for f in DIGEST_FIELDS)) for r in fleet.results]


class TestPlan:
    """One planner cuts specs into batched and solo units, serial and pooled."""

    @staticmethod
    def _specs(**overrides):
        # 2 problems x 2 delays x 10 seeds: four batch groups of ten.
        problems = (("jacobi", {"n": 8}), ("tridiagonal", {"n": 8}))
        return list(_grid(n_seeds=10, problems=problems, **overrides).expand())

    @staticmethod
    def _record_batches(monkeypatch):
        import repro.runtime.simulator.batched as batched_mod

        calls: list[list[str]] = []
        run_batch = batched_mod._run_batch

        def recording(specs):
            calls.append([s.key for s in specs])
            return run_batch(specs)

        monkeypatch.setattr(batched_mod, "_run_batch", recording)
        return calls

    @staticmethod
    def _groups(specs):
        groups: dict[tuple[str, str], set[str]] = {}
        for s in specs:
            groups.setdefault((s.problem, s.delays), set()).add(s.key)
        return groups

    @staticmethod
    def _solo_digest(specs, tmp_path):
        fleet = run_grid(specs, store=tmp_path / "solo", executor="serial",
                         chunk_size=1, cache=False)
        return SweepStore(tmp_path / "solo", create=False).digest(), fleet.digest()

    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("chunk_size", ["auto", 1, 2, 3])
    @pytest.mark.parametrize("workers,serial", _EXECUTORS)
    def test_every_index_lands_in_exactly_one_unit(self, workers, serial, chunk_size, batch):
        specs = _mixed()
        units = _plan(_indexed(specs), chunk_size, workers, batch, serial=serial)
        assert sorted(i for _, unit in units for i, _ in unit) == list(range(len(specs)))
        assert all(unit for _, unit in units)
        for _, unit in units:
            assert [i for i, _ in unit] == sorted(i for i, _ in unit)
        assert [unit[0][0] for _, unit in units] == sorted(unit[0][0] for _, unit in units)

    @pytest.mark.parametrize("chunk_size", ["auto", 1, 2, 3])
    @pytest.mark.parametrize("workers,serial", _EXECUTORS)
    def test_batched_units_hold_two_or_more_of_one_batch_key(self, workers, serial, chunk_size):
        indexed = _indexed(_mixed())
        for batched, unit in _plan(indexed, chunk_size, workers, True, serial=serial):
            if batched:
                assert len(unit) >= 2
                assert len({spec.batch_key for _, spec in unit}) == 1
                assert batchable(unit[0][1])
        unbatched = _plan(indexed, chunk_size, workers, False, serial=serial)
        assert not any(batched for batched, _ in unbatched)

    def test_serial_auto_is_one_unit_per_group_and_per_solo_spec(self):
        specs = _mixed()
        units = _plan(_indexed(specs), "auto", 1, True, serial=True)
        batched = sorted(sorted(i for i, _ in unit) for b, unit in units if b)
        assert batched == sorted(sorted(g) for g in _group(specs) if len(g) >= 2)
        solo = [unit for b, unit in units if not b]
        assert all(len(unit) == 1 for unit in solo)
        assert len(solo) == 7  # six flexible-backend specs and the lone one
        assert len(_plan(_indexed(specs), "auto", 1, False, serial=True)) == len(specs)

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_pool_cuts_a_group_into_at_most_workers_slices(self, workers):
        specs = self._specs()
        units = _plan(_indexed(specs), "auto", workers, True, serial=False)
        assert all(batched for batched, _ in units)
        for keys in self._groups(specs).values():
            slices = [unit for _, unit in units if {s.key for _, s in unit} <= keys]
            assert len(slices) == min(workers, len(keys) // 2)
            assert all(len(unit) >= 2 for unit in slices)
            assert {s.key for unit in slices for _, s in unit} == keys

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("workers,serial", _EXECUTORS)
    def test_explicit_chunk_size_caps_every_unit(self, workers, serial, chunk_size):
        for specs in (self._specs(), _mixed()):
            units = _plan(_indexed(specs), chunk_size, workers, True, serial=serial)
            assert max(len(unit) for _, unit in units) <= chunk_size

    def test_auto_runs_each_group_as_one_batch(self, tmp_path, monkeypatch):
        specs = self._specs()
        calls = self._record_batches(monkeypatch)
        # Serial is planned as one worker, whatever pool width it is given.
        fleet = run_grid(specs, store=tmp_path / "s", executor="serial",
                         max_workers=4, cache=False)
        assert len(calls) == 4
        assert sorted(map(set, calls), key=sorted) == sorted(
            self._groups(specs).values(), key=sorted)
        digest = SweepStore(tmp_path / "s", create=False).digest()
        assert (digest, fleet.digest()) == self._solo_digest(specs, tmp_path)

    def test_explicit_chunk_size_caps_every_slice(self, tmp_path, monkeypatch):
        specs = self._specs()
        calls = self._record_batches(monkeypatch)
        fleet = run_grid(specs, store=tmp_path / "s", executor="serial",
                         chunk_size=4, cache=False)
        assert calls and max(map(len, calls)) <= 4
        for keys in self._groups(specs).values():
            # Each group is cut into the fewest slices of at most 4.
            assert sum(set(c) <= keys for c in calls) == 3
        assert set().union(*map(set, calls)) == {s.key for s in specs}
        digest = SweepStore(tmp_path / "s", create=False).digest()
        assert (digest, fleet.digest()) == self._solo_digest(specs, tmp_path)

    def test_unbatchable_specs_land_as_planned(self, tmp_path, monkeypatch):
        specs = self._specs(backends="flexible")
        calls = self._record_batches(monkeypatch)
        root = tmp_path / "s"
        with monkeypatch.context() as m:
            m.setattr(SweepStore, "flush", lambda self: None)  # keep the logs
            fleet = run_grid(specs, store=root, executor="serial", max_workers=2,
                             cache=False)
        assert calls == []
        # Serially every unbatchable spec is its own unit: one log file each.
        units = _plan(_indexed(specs), "auto", 1, True, serial=True)
        assert [len(unit) for _, unit in units] == [1] * len(specs)
        assert len(list((root / "shards").rglob("log/*.json"))) == len(specs)
        store = SweepStore(root, create=False)
        assert (store.digest(), fleet.digest()) == self._solo_digest(specs, tmp_path)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_pool_packs_solo_specs_at_any_width(self, monkeypatch, workers):
        # A pool packs unbatchable specs into cost-balanced chunks even
        # with one worker: only the serial executor runs them one each.
        import repro.runtime.fleet as fleet_mod

        handed: list[tuple[bool, list[str]]] = []
        run_chunk = fleet_mod._run_chunk

        def spy(runner, specs, batched=False):
            handed.append((batched, [s.key for s in specs]))
            return run_chunk(runner, specs, batched)

        monkeypatch.setattr(fleet_mod, "_run_chunk", spy)
        specs = self._specs(backends="flexible")
        fleet = run_fleet(specs, executor="thread", max_workers=workers)
        packed = _pack_chunks(_indexed(specs), "auto", workers)
        assert len(packed) == 4 * workers
        assert sorted(keys for _, keys in handed) == sorted(
            [s.key for _, s in chunk] for chunk in packed)
        assert not any(batched for batched, _ in handed)
        assert fleet.digest() == run_fleet(specs, executor="serial").digest()

    @pytest.mark.parametrize("executor,workers", [("serial", 1), ("thread", 2)])
    def test_batcher_gets_only_groups_of_two_or_more(self, monkeypatch, executor, workers):
        import repro.runtime.simulator.batched as batched_mod

        handed: list[list[ScenarioSpec]] = []
        run_batch = batched_mod.run_scenario_batch

        def spy(specs, **kwargs):
            handed.append(list(specs))
            return run_batch(specs, **kwargs)

        monkeypatch.setattr(batched_mod, "run_scenario_batch", spy)
        specs = _mixed()
        fleet = run_fleet(specs, executor=executor, max_workers=workers)
        assert not fleet.failures()
        for unit in handed:
            assert len(unit) >= 2 and all(map(batchable, unit))
            assert len({s.batch_key for s in unit}) == 1
        grouped = {specs[i].key for g in _group(specs) if len(g) >= 2 for i in g}
        assert {s.key for unit in handed for s in unit} == grouped

    @pytest.mark.parametrize("chunk_size", ["auto", 2])
    def test_thread_pool_mixed_grid_equals_serial(self, chunk_size):
        specs = _mixed()
        serial = run_fleet(specs, executor="serial")
        pooled = run_fleet(specs, executor="thread", max_workers=3, chunk_size=chunk_size)
        solo = run_fleet(specs, executor="serial", batch=False)
        assert not serial.failures()
        assert pooled.digest() == serial.digest() == solo.digest()
        assert _row_fields(pooled) == _row_fields(serial) == _row_fields(solo)

    @pytest.mark.slow
    def test_process_pool_mixed_grid_equals_serial(self):
        specs = _mixed()
        serial = run_fleet(specs, executor="serial")
        pooled = run_fleet(specs, executor="process", max_workers=2)
        assert not serial.failures()
        assert pooled.digest() == serial.digest()
        assert _row_fields(pooled) == _row_fields(serial)
