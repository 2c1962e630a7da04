"""Packed columnar SweepStore: digest preservation, sealing, O(changed) merge.

The acceptance contract of the million-row store refactor: a packed
store's digest is byte-identical to the same rows in the retired flat
layout (pinned by a golden constant computed with the flat-layout
code), kill/resume and shard-merge keep certifying bit-identically,
and merge edge cases at batch boundaries behave (overlap, killed
partial merge).  A store in any other format is refused before
anything on disk changes, and ``merge`` and ``discard_result`` survive
a crash at every write they make.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import pathlib
import shutil

import pytest

import repro.runtime.sweep_store as store_mod
from repro.__main__ import main
from repro.runtime.fleet import ScenarioResult, run_grid
from repro.runtime.sweep_store import SweepStore, digest_rows
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec

#: digest_rows over ``_synth_rows(20)`` computed with the flat-layout
#: code — the byte-identity anchor, which the live rows and the packed
#: store (sealed, unsealed and mixed) must each still reach.
GOLDEN_DIGEST = "82c73a80abf4940868a869386fdb8025d7e19cadb4fce1e3f37fe3dc8925d60c"

#: Manifests of the retired flat layout (format v1, and older ones that
#: carried no ``format_version`` at all): every open refuses them.
RETIRED_MANIFESTS = (
    '{"format_version": 1, "scenario_count": 0, "scenarios": []}',
    '{"scenario_count": 0, "scenarios": []}',
)


def _synth_rows(n: int) -> "list[ScenarioResult]":
    """Deterministic rows exercising every digest-relevant value shape:
    non-finite residuals (inf/nan), None-able optional fields, empty
    and non-empty info dicts."""
    rows = []
    for i in range(n):
        spec = ScenarioSpec(problem="jacobi", seed=i,
                            max_iterations=50 + i % 7, tol=1e-6)
        fr = (1e-9 * (i + 1), float("inf"), float("nan"))[i % 3]
        fe = None if i % 4 == 0 else 1e-3 * i
        st = None if i % 5 == 0 else 0.5 * i
        ttt = (float("inf"), None, 0.1 * i, 0.1 * i, 0.1 * i, 0.1 * i)[i % 6]
        rows.append(ScenarioResult(
            key=spec.key, spec=spec, iterations=i, converged=(i % 2 == 0),
            final_residual=fr, final_error=fe, sim_time=st, time_to_tol=ttt,
            wall_time=0.01 * i, info={"i": i} if i % 2 else {},
        ))
    return rows


def _fill(store: SweepStore, rows: "list[ScenarioResult]") -> SweepStore:
    store.write_manifest([r.spec for r in rows])
    for r in rows:
        store.write_result(r)
    return store


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


class TestDigestPreservation:
    def test_golden_digest_rows(self):
        rows = _synth_rows(20)
        assert digest_rows(
            [(r.content_hash, r) for r in rows]
        ) == GOLDEN_DIGEST

    def test_packed_store_matches_golden_sealed_and_unsealed(self, tmp_path):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        # Unsealed: every row still in the append-log.
        assert store.digest() == GOLDEN_DIGEST
        store.flush()
        assert not any(
            p for p in (tmp_path / "p" / "shards").rglob("log/*.json")
        )
        # Sealed: digest now folds over the columnar batches.
        assert store.digest() == GOLDEN_DIGEST
        # And a cold re-open agrees.
        assert SweepStore(tmp_path / "p", create=False).digest() == GOLDEN_DIGEST

    def test_mixed_batches_and_logs(self, tmp_path):
        rows = _synth_rows(20)
        store = SweepStore(tmp_path / "p", batch_rows=4)
        _fill(store, rows)  # seals every 4 rows; stragglers stay logged
        assert store.digest() == GOLDEN_DIGEST

    def test_run_grid_packed_digest_matches_fleet(self, tmp_path):
        specs = _grid().expand()
        fleet = run_grid(specs, store=tmp_path / "s", executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        assert store.read_manifest()["format_version"] == 2
        assert store.digest() == fleet.digest()


class TestRoundTrip:
    def test_rows_reload_identically_after_seal(self, tmp_path):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        for r in rows:
            loaded = store.load_result_by_hash(r.content_hash)
            # JSON-dict comparison: nan != nan under dataclass eq, but
            # the persisted sentinel forms compare exactly.
            assert loaded.to_json_dict() == r.to_json_dict()
        assert store.load_result_by_hash("0" * 16) is None

    def test_fleet_result_stitches_in_manifest_order(self, tmp_path):
        rows = _synth_rows(10)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        stitched = store.fleet_result()
        assert [r.key for r in stitched.results] == [r.key for r in rows]
        assert stitched.executor == "store"
        assert stitched.wall_time == pytest.approx(
            sum(r.wall_time for r in rows)
        )

    def test_read_manifest_keeps_legacy_shape(self, tmp_path):
        rows = _synth_rows(5)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        doc = store.read_manifest()
        assert doc["scenario_count"] == 5
        assert [s["hash"] for s in doc["scenarios"]] == [
            r.content_hash for r in rows
        ]
        assert doc["scenarios"][0]["spec"]["problem"] == "jacobi"

    def test_error_rows_are_not_persisted(self, tmp_path):
        spec = ScenarioSpec(problem="jacobi", seed=1)
        row = ScenarioResult(key=spec.key, spec=spec, error="boom")
        store = SweepStore(tmp_path / "p")
        store.write_result(row)
        assert store.completed() == set()
        assert store.load_result(spec) is None


class TestSealing:
    def test_seal_threshold(self, tmp_path):
        rows = _synth_rows(9)
        store = SweepStore(tmp_path / "p", batch_rows=3, prefix_len=0)
        store.write_manifest([r.spec for r in rows])
        shard = tmp_path / "p" / "shards"
        for i, r in enumerate(rows):
            store.write_result(r)
        # prefix_len=0 puts everything in one shard: 9 rows at
        # batch_rows=3 seal exactly three batches, log empty.
        assert len(list(shard.rglob("batch-*.npz"))) == 3
        assert not list(shard.rglob("log/*.json"))
        assert store.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )

    def test_flush_is_idempotent_and_flat_noop(self, tmp_path, tree_bytes):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(4))
        store.flush()
        assert not list((tmp_path / "p" / "shards").rglob("log/*.json"))
        # Every row is sealed now, so neither a second flush nor a
        # re-open (with or without create) may move a file.
        before = tree_bytes(tmp_path / "p")
        store.flush()
        for create in (False, True):
            SweepStore(tmp_path / "p", create=create).flush()
        assert tree_bytes(tmp_path / "p") == before
        assert store.digest() == SweepStore(tmp_path / "p", create=False).digest()


class TestDiscard:
    def test_discard_logged_and_sealed_rows(self, tmp_path):
        rows = _synth_rows(8)
        store = SweepStore(tmp_path / "p", batch_rows=4, prefix_len=0)
        _fill(store, rows)  # first 8 rows -> two sealed batches
        extra = _synth_rows(9)[-1]
        store.write_result(extra)  # stays in the log
        assert len(store.completed()) == 9

        store.discard_result(extra.content_hash)  # log unlink
        assert extra.content_hash not in store.completed()
        victim = rows[2].content_hash
        store.discard_result(victim)  # batch rewrite
        assert victim not in store.completed()
        assert store.load_result_by_hash(victim) is None
        survivors = [r for r in rows if r.content_hash != victim]
        assert store.digest() == digest_rows(
            [(r.content_hash, r) for r in survivors]
        )
        # Cold re-open agrees (no stale on-disk leftovers).
        assert SweepStore(tmp_path / "p", create=False).completed() == {
            r.content_hash for r in survivors
        }


    def test_crash_mid_batch_rewrite_loses_no_row(self, tmp_path, monkeypatch):
        # Discarding a sealed row rewrites its batch without it.  The
        # old batch holds every other row of the batch until the new
        # one has landed.
        rows = _synth_rows(12)
        _fill(SweepStore(tmp_path / "p", prefix_len=0), rows).flush()
        victim = rows[5].content_hash

        def crash(*args):
            raise OSError("simulated crash")

        with monkeypatch.context() as m:
            m.setattr(store_mod, "_atomic_savez", crash)
            with pytest.raises(OSError):
                SweepStore(tmp_path / "p", create=False).discard_result(victim)
        reopened = SweepStore(tmp_path / "p", create=False)
        assert reopened.completed() == {r.content_hash for r in rows}
        reopened.discard_result(victim)
        survivors = [r for r in rows if r.content_hash != victim]
        reopened = SweepStore(tmp_path / "p", create=False)
        assert reopened.completed() == {r.content_hash for r in survivors}
        assert reopened.digest() == digest_rows(
            (r.content_hash, r) for r in survivors
        )

    def test_discard_drops_the_sealed_copy_of_a_relogged_row(self, tmp_path):
        rows = _synth_rows(6)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        victim = rows[2]
        store.write_result(victim)  # logged again over its sealed copy
        store.discard_result(victim.content_hash)
        survivors = [r for r in rows if r is not victim]
        expected = digest_rows((r.content_hash, r) for r in survivors)
        for st in (store, SweepStore(tmp_path / "p", create=False)):
            assert victim.content_hash not in st.completed()
            assert st.load_result_by_hash(victim.content_hash) is None
            assert st.digest() == expected

    def test_discard_drops_both_copies_of_a_row_sealed_twice(self, tmp_path):
        # A row re-run and sealed again, or sealed by two handles, sits
        # in two batches; neither copy may read back after a discard.
        rows = _synth_rows(6)
        store = _fill(SweepStore(tmp_path / "p", prefix_len=0), rows)
        store.flush()
        victim = rows[2]
        store.write_result(victim, rows[4])
        store.flush()
        assert len(list((tmp_path / "p" / "shards").glob("batch-*.npz"))) == 2
        store.discard_result(victim.content_hash)
        survivors = [r for r in rows if r is not victim]
        expected = digest_rows((r.content_hash, r) for r in survivors)
        for st in (store, SweepStore(tmp_path / "p", create=False)):
            assert victim.content_hash not in st.completed()
            assert st.load_result_by_hash(victim.content_hash) is None
            assert st.digest() == expected

    def test_discard_keeps_a_relogged_mate_at_its_latest_write(self, tmp_path):
        # The victim's log file also holds a row that a later file
        # logged again.  The rest of the victim's file lands as the
        # newest file, so it must not carry the mate's older write.
        victim, mate = _synth_rows(2)
        newer = dataclasses.replace(mate, iterations=101)
        store = SweepStore(tmp_path / "p", prefix_len=0)
        store.write_manifest([victim.spec, mate.spec])
        (first,) = store.write_result(victim, mate)
        (second,) = store.write_result(newer)
        os.utime(first, ns=(0, 0))  # the two writes well apart
        os.utime(second, ns=(10**9, 10**9))
        store.discard_result(victim.content_hash)
        for st in (store, SweepStore(tmp_path / "p", create=False)):
            assert st.completed() == {mate.content_hash}
            assert st.load_result_by_hash(mate.content_hash).iterations == 101
            assert st.digest() == digest_rows([(mate.content_hash, newer)])


class TestCompleted:
    """completed() is a fresh read of the directory, never a cached set."""

    def test_completed_returns_a_copy(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(5))
        got = store.completed()
        got.add("bogus")
        assert "bogus" not in store.completed()

    def test_every_handle_sees_logged_and_sealed_rows(self, tmp_path):
        # completed() reads the directory on every call: rows another
        # handle wrote after this one last looked count, logged or sealed.
        rows = _synth_rows(6)
        a = SweepStore(tmp_path / "p", batch_rows=4, prefix_len=0)
        b = SweepStore(tmp_path / "p", batch_rows=4, prefix_len=0)
        for r in rows[:3]:
            a.write_result(r)
        assert a.completed() == b.completed() == {r.content_hash for r in rows[:3]}
        for r in rows[3:]:
            b.write_result(r)  # the fourth row seals four, two stay logged
        assert len(list((tmp_path / "p" / "shards").glob("batch-*.npz"))) == 1
        assert len(list((tmp_path / "p" / "shards" / "log").glob("*.json"))) == 2
        assert a.completed() == {r.content_hash for r in rows}


class TestMergeEdgeCases:
    """Satellite: merge behavior at batch boundaries."""

    def _two_overlapping_stores(self, tmp_path, n=20, overlap=8):
        rows = _synth_rows(n)
        cut_a, cut_b = (n + overlap) // 2, (n - overlap) // 2
        a = _fill(SweepStore(tmp_path / "a", batch_rows=4), rows[:cut_a])
        b = _fill(SweepStore(tmp_path / "b", batch_rows=4), rows[cut_b:])
        a.flush(), b.flush()
        return rows, a, b

    def test_overlapping_rows_merge_once(self, tmp_path):
        rows, a, b = self._two_overlapping_stores(tmp_path)
        merged = SweepStore(tmp_path / "m").merge(a, b)
        assert len(merged.completed()) == len(rows)
        assert merged.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )
        # Union manifest keeps first-occurrence order.
        assert merged.manifest_hashes() == list(dict.fromkeys(
            [r.content_hash for r in rows[:14]]
            + [r.content_hash for r in rows[6:]]
        ))

    def test_remerge_after_killed_partial_merge(self, tmp_path):
        rows, a, b = self._two_overlapping_stores(tmp_path)
        merged = SweepStore(tmp_path / "m").merge(a)
        # Simulate a merge killed before its fingerprint log landed:
        # rows/batches are on disk but merge_log.json is gone.
        (tmp_path / "m" / "merge_log.json").unlink()
        reopened = SweepStore(tmp_path / "m", create=False)
        reopened.merge(a, b)
        assert len(reopened.completed()) == len(rows)
        full = digest_rows([(r.content_hash, r) for r in rows])
        assert reopened.digest() == full
        # And a full re-merge is a no-op, not a corruption.
        batches_before = sorted(
            p.name for p in (tmp_path / "m" / "shards").rglob("batch-*.npz")
        )
        reopened.merge(a, b)
        batches_after = sorted(
            p.name for p in (tmp_path / "m" / "shards").rglob("batch-*.npz")
        )
        assert batches_after == batches_before
        assert reopened.digest() == full

    def test_unchanged_source_units_are_skipped_without_reading_rows(
        self, tmp_path, monkeypatch
    ):
        rows, a, b = self._two_overlapping_stores(tmp_path)
        merged = SweepStore(tmp_path / "m").merge(a, b)
        full = merged.digest()
        # O(changed): a re-merge of unchanged sources must not load a
        # single row document from them.
        for src in (a, b):
            monkeypatch.setattr(
                src, "_shard_docs",
                lambda *args: pytest.fail("re-merge read rows of an unchanged source"),
            )
        merged.merge(a, b)
        assert merged.digest() == full

    def test_merge_copies_traces_from_packed_sources(self, tmp_path):
        grid = _grid(n_seeds=1)
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        run_grid(grid.shard(2, 0), store=d0, keep_traces=True, executor="serial")
        run_grid(grid.shard(2, 1), store=d1, keep_traces=True, executor="serial")
        merged = SweepStore(tmp_path / "m").merge(d0, d1)
        for h in merged.manifest_hashes():
            assert merged.has_trace(h)
            assert merged.load_result_by_hash(h).trace_path == str(
                merged.trace_path(h)
            )

    def test_source_gaining_rows_is_remerged(self, tmp_path):
        rows = _synth_rows(12)
        src = _fill(SweepStore(tmp_path / "src", batch_rows=4), rows[:8])
        merged = SweepStore(tmp_path / "m").merge(src)
        assert len(merged.completed()) == 8
        # The source completes more scenarios: its unit fingerprints
        # change, so an incremental re-merge picks exactly those up.
        _fill(src, rows)  # manifest now covers all 12
        merged.merge(src)
        assert len(merged.completed()) == 12
        assert merged.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )


class TestMigrate:
    """Migrating off a retired format: every open refuses the store.

    Re-running the study rebuilds any store from its specs; an open
    with a commit from before the flat-layout reader was removed
    converts a flat one in place.  The refusal names the file and
    changes nothing on disk.
    """

    @pytest.mark.parametrize("text", [
        "", "{not json", "[1, 2]", '"packed"', '{"format_version": "two"}',
        *RETIRED_MANIFESTS,
    ])
    def test_unreadable_manifest_raises_before_any_change(self, tmp_path, text,
                                                          tree_bytes):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        (tmp_path / "p" / "manifest.json").write_text(text)
        before = tree_bytes(tmp_path / "p")
        for create in (True, False):
            with pytest.raises(ValueError, match="manifest.json"):
                SweepStore(tmp_path / "p", create=create)
        assert tree_bytes(tmp_path / "p") == before

    def test_manifest_less_results_directory_is_refused(
        self, tmp_path, write_retired_store, tree_bytes
    ):
        # The flat layout's result cache: row files, no manifest.
        root = write_retired_store(tmp_path / "c", _synth_rows(3))
        (root / "manifest.json").unlink()
        before = tree_bytes(root)
        for create in (True, False):
            with pytest.raises(ValueError, match="format_version 1") as err:
                SweepStore(root, create=create)
            assert str(root / "results") in str(err.value)
            assert "Re-run the study" in str(err.value)
        assert tree_bytes(root) == before


_STORE_WRITES = ("_atomic_write", "_atomic_savez", "_atomic_copy")


def _crash_at_write(m: pytest.MonkeyPatch, k: int, calls: "list[str]") -> None:
    """Make the ``k``-th store write (of any kind) raise ``OSError``."""
    for name in _STORE_WRITES:
        real = getattr(store_mod, name)

        def write(*args, name=name, real=real):
            calls.append(name)
            if len(calls) == k:
                raise OSError(f"simulated crash at write {k} ({name})")
            return real(*args)

        m.setattr(store_mod, name, write)


def _store_state(root: pathlib.Path) -> "dict[str, object]":
    """What an interrupted-then-completed operation must reproduce."""
    store = SweepStore(root, create=False)
    return {
        "digest": store.digest(),
        "manifest": store.read_manifest(),
        "completed": store.completed(),
        "rows": dict(store.iter_row_docs()),
        "merge_log": store._read_merge_log(),
        "files": sorted(
            str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()
        ),
    }


def _crash_matrix(root: pathlib.Path, prepare, op) -> int:
    """Crash ``op`` at each of its writes in turn, then run it again.

    ``prepare(root)`` lays out the starting directory and ``op(root)``
    runs the operation on a store opened there.  After each crash the
    re-run must reach exactly the uninterrupted state, with no temp
    file left.  Returns how many writes the operation makes.
    """
    prepare(root)
    op(root)
    expected = _store_state(root)
    for k in itertools.count(1):
        shutil.rmtree(root, ignore_errors=True)
        prepare(root)
        calls: "list[str]" = []
        with pytest.MonkeyPatch.context() as m:
            _crash_at_write(m, k, calls)
            try:
                op(root)
            except OSError:
                pass
            else:
                break
        op(root)
        assert not list(root.rglob("*.tmp")), k
        assert _store_state(root) == expected, k
    assert len(calls) == k - 1 > 0
    return k - 1


def _traced_store(root: pathlib.Path, rows, n_sealed: int, **kw) -> SweepStore:
    """A store of ``rows``: the first ``n_sealed`` sealed, the rest logged.

    Rows with an even seed carry a trace file.
    """
    store = SweepStore(root, **kw)
    store.write_manifest([r.spec for r in rows])

    def persist(part):
        out = []
        for r in part:
            if r.spec.seed % 2 == 0:
                path = store.trace_path(r.content_hash)
                path.write_bytes(r.content_hash.encode())
                r = dataclasses.replace(r, trace_path=str(path))
            out.append(r)
        store.write_result(*out)

    persist(rows[:n_sealed])
    store.flush()
    persist(rows[n_sealed:])
    return store


class TestCrashPoints:
    """``merge`` and ``discard_result`` crashed at every write they make.

    Every store file lands through ``_atomic_write``, ``_atomic_savez``
    or ``_atomic_copy``; each in turn raises, and re-running the
    operation must reach the uninterrupted store, losing no other row.
    """

    @pytest.mark.parametrize("dest", ["empty", "non-empty"])
    def test_merge(self, tmp_path, dest):
        rows = _synth_rows(16)
        sources = [
            _traced_store(tmp_path / "a", rows[0:8], n_sealed=5).root,
            _traced_store(tmp_path / "b", rows[5:12], n_sealed=4).root,
        ]
        template = tmp_path / "template"
        if dest == "non-empty":
            # Its own rows, one of them also in a source's sealed batch.
            _traced_store(template, [rows[3], *rows[12:]], n_sealed=3)

        def prepare(root):
            if template.is_dir():
                shutil.copytree(template, root)

        def op(root):
            SweepStore(root).merge(*sources)

        work = tmp_path / "dest"
        writes = _crash_matrix(work, prepare, op)
        state = _store_state(work)
        everything = rows if dest == "non-empty" else rows[:12]
        assert state["completed"] == {r.content_hash for r in everything}
        assert state["digest"] == digest_rows(
            (r.content_hash, r) for r in everything
        )
        assert writes > 2 * len(state["manifest"]["scenarios"]) // 3

    @pytest.mark.parametrize(
        "copy", ["logged", "sealed", "sealed+logged", "logged, mate relogged"]
    )
    def test_discard_result(self, tmp_path, copy):
        rows = _synth_rows(12)
        template = tmp_path / "template"
        # One shard: the sealed rows share a batch, the logged a file.
        _traced_store(template, rows, n_sealed=8, prefix_len=0)
        victim = {"logged": rows[10], "sealed": rows[2],
                  "sealed+logged": rows[3], "logged, mate relogged": rows[10]}[copy]
        if copy == "sealed+logged":
            SweepStore(template, create=False).write_result(victim, rows[0])
        if copy == "logged, mate relogged":
            # A later file holds a newer write of rows[11].
            (first,) = (template / "shards" / "log").glob("*.json")
            rows[11] = dataclasses.replace(rows[11], iterations=101)
            (second,) = SweepStore(template, create=False).write_result(rows[11])
            os.utime(first, ns=(0, 0))
            os.utime(second, ns=(10**9, 10**9))

        def prepare(root):
            shutil.copytree(template, root)

        def op(root):
            SweepStore(root, create=False).discard_result(victim.content_hash)

        work = tmp_path / "work"
        writes = _crash_matrix(work, prepare, op)
        state = _store_state(work)
        survivors = [r for r in rows if r is not victim]
        assert state["completed"] == {r.content_hash for r in survivors}
        assert state["digest"] == digest_rows(
            (r.content_hash, r) for r in survivors
        )
        assert writes == {"logged": 1, "sealed": 2, "sealed+logged": 3,
                          "logged, mate relogged": 1}[copy]


class TestFleetView:
    def test_view_matches_materialized_aggregates(self, tmp_path):
        specs = _grid().expand()
        run_grid(specs, store=tmp_path / "s", executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        store.write_manifest(specs)  # drops the run record: both sum row walls
        view = store.fleet_view()
        fleet = store.fleet_result()
        assert view.scenario_count == fleet.scenario_count
        assert view.wall_time == pytest.approx(fleet.wall_time)
        assert view.digest() == fleet.digest()
        assert view.converged_fraction() == fleet.converged_fraction()
        assert view.group_medians(
            by=("problem", "delays"),
            metrics=("iterations", "converged", "final_residual"),
        ) == fleet.group_medians(
            by=("problem", "delays"),
            metrics=("iterations", "converged", "final_residual"),
        )
        assert view.failures() == ()
        # results is re-iterable (report renders iterate it twice).
        assert len(list(view.results)) == len(list(view.results))

    def test_view_rejects_unknown_metric(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(4))
        with pytest.raises(KeyError, match="unknown metric"):
            store.fleet_view().group_medians(metrics=("bogus",))

    def test_lazy_fleet_from_store(self, tmp_path):
        from repro.analysis.fleet import fleet_from_store, render_study_report

        specs = _grid().expand()
        run_grid(specs, store=tmp_path / "s", executor="serial")
        SweepStore(tmp_path / "s", create=False).write_manifest(specs)
        view = fleet_from_store(tmp_path / "s", lazy=True)
        eager = fleet_from_store(tmp_path / "s")
        assert view.digest() == eager.digest()
        # The standard report renders from the view without materializing.
        assert render_study_report(view) == render_study_report(eager)


class TestStoreCLI:
    def test_digest_json(self, tmp_path, capsys):
        rows = _synth_rows(10)
        _fill(SweepStore(tmp_path / "p"), rows).flush()
        assert main(["store", "digest", str(tmp_path / "p"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"] == digest_rows([(r.content_hash, r) for r in rows])
        assert doc["layout"] == "packed"
        assert doc["rows"] == 10
        assert doc["scenarios"] == 10

    def test_merge_json(self, tmp_path, capsys):
        rows = _synth_rows(12)
        _fill(SweepStore(tmp_path / "a", batch_rows=4), rows[:8]).flush()
        _fill(SweepStore(tmp_path / "b", batch_rows=4), rows[6:]).flush()
        out = tmp_path / "m"
        assert main(["store", "merge", "--out", str(out),
                     str(tmp_path / "a"), str(tmp_path / "b"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenarios"] == 12
        assert doc["completed"] == 12
        assert doc["digest"] == digest_rows([(r.content_hash, r) for r in rows])

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys, tree_bytes):
        _fill(SweepStore(tmp_path / "p"), _synth_rows(6)).flush()
        _fill(SweepStore(tmp_path / "src"), _synth_rows(3)).flush()
        manifest = tmp_path / "p" / "manifest.json"
        for text in ("", *RETIRED_MANIFESTS):
            manifest.write_text(text)
            before = tree_bytes(tmp_path / "p")
            for argv in (
                ["store", "digest", str(tmp_path / "p")],
                ["store", "merge", "--out", str(tmp_path / "m"), str(tmp_path / "p")],
                ["store", "merge", "--out", str(tmp_path / "p"), str(tmp_path / "src")],
            ):
                assert main(argv) == 2, (text, argv)
                captured = capsys.readouterr()
                assert str(manifest) in captured.err, (text, argv)
                assert captured.out == "", (text, argv)
            assert tree_bytes(tmp_path / "p") == before
        assert not (tmp_path / "m").exists()

    def test_migrate_is_an_unknown_verb(self, tmp_path, capsys, tree_bytes):
        _fill(SweepStore(tmp_path / "p"), _synth_rows(3)).flush()
        before = tree_bytes(tmp_path / "p")
        with pytest.raises(SystemExit) as exit_:
            main(["store", "migrate", str(tmp_path / "p")])
        assert exit_.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err
        assert tree_bytes(tmp_path / "p") == before


class TestRatesFromStore:
    def test_rates_from_store_streams_traces(self, tmp_path):
        from repro.analysis.rates import fit_geometric_rate, rates_from_store

        specs = _grid(n_seeds=1).expand()
        run_grid(specs, store=tmp_path / "s", keep_traces=True,
                 executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        fits = rates_from_store(store)
        assert set(fits) == {s.key for s in specs}
        any_key = specs[0].key
        trace = store.load_trace(specs[0].content_hash)
        assert fits[any_key] == fit_geometric_rate(trace.residuals)
