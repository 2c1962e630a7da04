"""Grid sharding + store merging: split a sweep across hosts, recombine.

The acceptance contract (ISSUE 5): ``k`` hosts each run
``grid.shard(k, i)`` into their own :class:`SweepStore`; merging the
shard stores with :meth:`SweepStore.merge` reproduces the single-host
store's determinism ``digest()`` bit for bit — including when one
shard was killed mid-run and resumed before merging.
"""

from __future__ import annotations

import pytest

from repro.runtime.fleet import run_grid
from repro.runtime.sweep_store import SweepStore
from repro.scenarios.spec import ScenarioGrid


def _grid(n_seeds: int = 3, **overrides) -> ScenarioGrid:
    defaults = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        n_seeds=n_seeds,
        max_iterations=60,
        tol=1e-6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestShard:
    def test_validation(self):
        grid = _grid()
        with pytest.raises(ValueError, match="num_shards"):
            grid.shard(0, 0)
        with pytest.raises(ValueError, match="shard index"):
            grid.shard(2, 2)
        with pytest.raises(ValueError, match="shard index"):
            grid.shard(2, -1)

    def test_shards_partition_the_grid(self):
        grid = _grid()
        specs = grid.expand()
        for k in (1, 2, 3, 4):
            shards = [grid.shard(k, i) for i in range(k)]
            hashes = [s.content_hash for shard in shards for s in shard]
            assert len(hashes) == len(specs)  # disjoint
            assert set(hashes) == {s.content_hash for s in specs}  # complete
            sizes = sorted(len(s) for s in shards)
            assert sizes[-1] - sizes[0] <= 1  # balanced

    def test_seed_preserving(self):
        # Shard specs are literally elements of the full expansion —
        # same seeds, same content hashes — so sharding can never
        # perturb a scenario's result.
        grid = _grid()
        full = {s.content_hash: s for s in grid.expand()}
        for i in range(3):
            for spec in grid.shard(3, i):
                assert full[spec.content_hash] == spec

    def test_assignment_is_ranked_round_robin(self):
        # The documented rule: rank by content hash, deal round-robin.
        # Membership depends only on scenario identities, never on
        # enumeration order.
        grid = _grid()
        ranked = sorted(grid.expand(), key=lambda s: s.content_hash)
        for k in (2, 3):
            for i in range(k):
                expected = {s.content_hash for s in ranked[i::k]}
                got = {s.content_hash for s in grid.shard(k, i)}
                assert got == expected

    def test_shard_keeps_submission_order(self):
        grid = _grid()
        order = {s.content_hash: n for n, s in enumerate(grid.expand())}
        for spec_list in (grid.shard(2, 0), grid.shard(2, 1)):
            positions = [order[s.content_hash] for s in spec_list]
            assert positions == sorted(positions)


class TestMergeDigest:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_merged_store_matches_single_host_digest(self, tmp_path, k):
        grid = _grid()
        run_grid(grid.expand(), store=tmp_path / "single", executor="serial")
        single = SweepStore(tmp_path / "single", create=False)

        shard_dirs = []
        for i in range(k):
            d = tmp_path / f"shard{i}"
            run_grid(grid.shard(k, i), store=d, executor="serial")
            shard_dirs.append(d)
        merged = SweepStore(tmp_path / "merged").merge(*shard_dirs)

        assert merged.digest() == single.digest()
        fleet = merged.fleet_result()
        assert fleet.scenario_count == grid.size
        assert fleet.wall_time > 0

    def test_killed_and_resumed_shard_merges_identically(self, tmp_path):
        grid = _grid()
        run_grid(grid.expand(), store=tmp_path / "single", executor="serial")
        single = SweepStore(tmp_path / "single", create=False)

        shard0, shard1 = grid.shard(2, 0), grid.shard(2, 1)
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        run_grid(shard0, store=d0, executor="serial")
        run_grid(shard1, store=d1, executor="serial")

        # "Kill" shard 0 after the fact: drop one row, then resume it —
        # the shard must complete exactly the missing scenario and
        # certify identically.
        store0 = SweepStore(d0, create=False)
        victim = shard0[0].content_hash
        store0.discard_result(victim)
        assert len(store0.completed()) == len(shard0) - 1
        run_grid(shard0, store=d0, resume=True, executor="serial")
        # run_grid wrote through its own handle; this one reads the disk.
        assert len(store0.completed()) == len(shard0)

        merged = SweepStore(tmp_path / "merged").merge(d0, d1)
        assert merged.digest() == single.digest()

    def test_merge_order_does_not_matter(self, tmp_path):
        grid = _grid(n_seeds=2)
        for i in range(3):
            run_grid(grid.shard(3, i), store=tmp_path / f"s{i}", executor="serial")
        dirs = [tmp_path / f"s{i}" for i in range(3)]
        a = SweepStore(tmp_path / "a").merge(*dirs)
        b = SweepStore(tmp_path / "b").merge(*reversed(dirs))
        assert a.digest() == b.digest()
        assert set(a.manifest_hashes()) == set(b.manifest_hashes())


class TestMergeMechanics:
    def test_merge_is_incremental_and_idempotent(self, tmp_path):
        grid = _grid(n_seeds=2)
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        run_grid(grid.shard(2, 0), store=d0, executor="serial")
        run_grid(grid.shard(2, 1), store=d1, executor="serial")

        merged = SweepStore(tmp_path / "merged").merge(d0)
        partial = merged.digest()
        assert len(merged.completed()) == len(grid.shard(2, 0))
        # Second merge fills in the other shard; re-merging the first
        # is a no-op, not a corruption.
        merged.merge(d1, d0)
        assert len(merged.completed()) == grid.size
        assert merged.digest() != partial

    def test_merge_copies_traces_and_repoints_rows(self, tmp_path):
        grid = _grid(n_seeds=1)
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        run_grid(grid.shard(2, 0), store=d0, keep_traces=True, executor="serial")
        run_grid(grid.shard(2, 1), store=d1, keep_traces=True, executor="serial")
        merged = SweepStore(tmp_path / "merged").merge(d0, d1)
        for h in merged.manifest_hashes():
            assert merged.has_trace(h)
            row = merged.load_result_by_hash(h)
            assert row.trace_path == str(merged.trace_path(h))
        # The merged store is self-contained: a trace loads from it.
        trace = merged.load_trace(merged.manifest_hashes()[0])
        assert trace.residuals is not None

    def test_merge_requires_existing_shard_stores(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SweepStore(tmp_path / "merged").merge(tmp_path / "nope")

    def test_merged_store_is_resumable(self, tmp_path, count_runs):
        # A merged store is a first-class store: run_grid resumes from
        # it without re-executing anything.
        grid = _grid(n_seeds=2)
        for i in range(2):
            run_grid(grid.shard(2, i), store=tmp_path / f"s{i}", executor="serial")
        merged_dir = tmp_path / "merged"
        SweepStore(merged_dir).merge(tmp_path / "s0", tmp_path / "s1")

        count_runs.clear()
        fleet = run_grid(grid.expand(), store=merged_dir, resume=True, executor="serial")
        assert count_runs == []
        assert fleet.scenario_count == grid.size


@pytest.mark.slow
class TestTwoShardAcceptance:
    """The nightly acceptance bar: a realistic two-host sweep, one shard
    killed and resumed, merged into a store certifying bit-identically
    with a single-host run."""

    GRID = ScenarioGrid(
        problems=(("jacobi", {"n": 12}), ("tridiagonal", {"n": 12})),
        delays=("zero", "uniform", "baudet-sqrt"),
        steerings=("cyclic", "random-subset"),
        n_seeds=8,
        master_seed=2022,
        max_iterations=150,
        tol=1e-6,
    )  # 96 scenarios

    def test_two_shard_merge_reproduces_single_host_digest(self, tmp_path, count_runs):
        grid = self.GRID
        run_grid(grid.expand(), store=tmp_path / "single", executor="serial")
        single = SweepStore(tmp_path / "single", create=False)

        shard0, shard1 = grid.shard(2, 0), grid.shard(2, 1)
        assert abs(len(shard0) - len(shard1)) <= 1
        d0, d1 = tmp_path / "host0", tmp_path / "host1"
        run_grid(shard0, store=d0, executor="serial")
        run_grid(shard1, store=d1, executor="serial")

        # Kill host 0 late in its run: drop the last third of its rows,
        # then resume — only the dropped scenarios may re-execute.
        store0 = SweepStore(d0, create=False)
        victims = shard0[-(len(shard0) // 3):]
        for spec in victims:
            store0.discard_result(spec.content_hash)
        count_runs.clear()
        run_grid(shard0, store=d0, resume=True, executor="serial")
        assert len(count_runs) == len(victims)

        merged = SweepStore(tmp_path / "merged").merge(d0, d1)
        assert merged.digest() == single.digest()
        assert merged.fleet_result().scenario_count == grid.size


class TestOversharding:
    """ISSUE 6 bugfix: more hosts than scenarios must degrade gracefully.

    ``grid.shard(k, i)`` with ``k`` above the scenario count deals some
    hosts an empty shard; those hosts still have to run, write a store
    that :meth:`SweepStore.merge` accepts (manifest included), and stay
    out of the merged digest's way.
    """

    def test_empty_shards_are_legal_and_disjoint(self):
        grid = _grid(n_seeds=1)  # 2 scenarios
        shards = [grid.shard(5, i) for i in range(5)]
        assert sorted(len(s) for s in shards) == [0, 0, 0, 1, 1]
        hashes = [s.content_hash for shard in shards for s in shard]
        assert set(hashes) == {s.content_hash for s in grid.expand()}

    def test_empty_shard_runs_and_writes_mergeable_store(self, tmp_path):
        grid = _grid(n_seeds=1)
        empty = grid.shard(5, 4)
        assert empty == ()
        fleet = run_grid(empty, store=tmp_path / "empty", executor="serial")
        assert fleet.scenario_count == 0
        assert fleet.scenarios_per_sec == 0.0
        store = SweepStore(tmp_path / "empty", create=False)
        assert store.completed() == set()
        # Merging the empty store is a no-op, not a crash.
        merged = SweepStore(tmp_path / "merged").merge(tmp_path / "empty")
        assert merged.completed() == set()

    def test_oversharded_merge_matches_single_host_digest(self, tmp_path):
        grid = _grid(n_seeds=1)  # 2 scenarios across 5 "hosts"
        run_grid(grid.expand(), store=tmp_path / "single", executor="serial")
        single = SweepStore(tmp_path / "single", create=False)

        dirs = []
        for i in range(5):
            d = tmp_path / f"host{i}"
            run_grid(grid.shard(5, i), store=d, executor="serial")
            dirs.append(d)
        merged = SweepStore(tmp_path / "merged").merge(*dirs)
        assert merged.digest() == single.digest()
        assert merged.fleet_result().scenario_count == grid.size
