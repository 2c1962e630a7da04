"""Packed columnar SweepStore: digest preservation, sealing, O(changed) merge.

The acceptance contract of the million-row store refactor: a packed
store's digest is byte-identical to the same rows in the retired flat
layout (pinned by a golden constant computed with the flat-layout
code), kill/resume and shard-merge keep certifying bit-identically,
and merge edge cases at batch boundaries behave (overlap, killed
partial merge, flat-legacy sources).  Flat stores survive only as
input: they are written by hand (the ``write_flat_store`` fixture),
and opening one packs it in place without changing its digest — a
crash at any write of that migration leaves the flat store intact.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.__main__ import main
from repro.runtime.fleet import ScenarioResult, run_grid
from repro.runtime.sweep_store import SweepStore, digest_rows
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec

#: digest_rows over ``_synth_rows(20)`` computed with the flat-layout
#: code — the byte-identity anchor, reached today by opening a
#: ``write_flat_store`` fixture of those rows.
GOLDEN_DIGEST = "82c73a80abf4940868a869386fdb8025d7e19cadb4fce1e3f37fe3dc8925d60c"


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


def _tree(root: pathlib.Path) -> "dict[str, bytes]":
    """Every file under ``root`` with its bytes (directories as ``b""``)."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else b""
        for p in root.rglob("*")
    }


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

    def test_flat_store_matches_golden(self, tmp_path, write_flat_store):
        root = write_flat_store(tmp_path / "flat", _synth_rows(20))
        store = SweepStore(root, create=False)
        # The open packed the flat rows, verifying the flat digest.
        assert store.migrated_digest == GOLDEN_DIGEST
        assert store.digest() == GOLDEN_DIGEST
        assert not (root / "results").exists()

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

    def test_flush_is_idempotent_and_flat_noop(self, tmp_path, write_flat_store):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(4))
        store.flush()
        store.flush()
        assert store.digest() == SweepStore(tmp_path / "p", create=False).digest()
        # A flat store opens with every row already sealed into batches,
        # so flushing it must not move a file.
        flat = SweepStore(write_flat_store(tmp_path / "f", _synth_rows(4)))
        before = _tree(tmp_path / "f")
        flat.flush()
        assert _tree(tmp_path / "f") == before
        assert not list((tmp_path / "f" / "shards").rglob("log/*.json"))


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


class TestCompletedCache:
    def test_completed_returns_a_copy(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(5))
        got = store.completed()
        got.add("bogus")
        assert "bogus" not in store.completed()

    def test_write_result_updates_cache_without_rescan(self, tmp_path, monkeypatch):
        rows = _synth_rows(6)
        store = SweepStore(tmp_path / "p")
        store.write_manifest([r.spec for r in rows])
        for r in rows[:3]:
            store.write_result(r)
        assert len(store.completed()) == 3  # cache primed here
        # A full re-scan after this point is a satellite regression
        # (every completed() rescan starts by listing the shards).
        monkeypatch.setattr(
            store, "_shard_prefixes",
            lambda: pytest.fail("completed() re-scanned the store"),
        )
        for r in rows[3:]:
            store.write_result(r)
            assert r.content_hash in store.completed()


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

    def test_flat_legacy_source_merges_into_packed_dest(
        self, tmp_path, write_flat_store
    ):
        rows = _synth_rows(16)
        flat = write_flat_store(tmp_path / "flat", rows[:10])
        packed = _fill(SweepStore(tmp_path / "packed", batch_rows=4), rows[8:])
        packed.flush()
        merged = SweepStore(tmp_path / "m").merge(flat, packed)
        assert len(merged.completed()) == len(rows)
        assert merged.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )
        # The source was packed in place when merge opened it.
        assert not (flat / "results").exists()
        assert SweepStore(flat, create=False).digest() == digest_rows(
            [(r.content_hash, r) for r in rows[:10]]
        )

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
    """Opening a legacy flat store packs it in place, digest-verified."""

    def test_migrate_preserves_digest_and_rows(self, tmp_path, write_flat_store):
        rows = _synth_rows(20)
        root = write_flat_store(tmp_path / "s", rows)
        store = SweepStore(root, create=False)
        assert store.migrated_digest == GOLDEN_DIGEST
        assert store.digest() == GOLDEN_DIGEST
        assert not (root / "results").exists()
        header = json.loads((root / "manifest.json").read_text())
        assert header["format_version"] == 2
        # A cold re-open finds a packed store and reloads every row.
        reopened = SweepStore(root, create=False)
        assert reopened.migrated_digest is None
        assert reopened.digest() == GOLDEN_DIGEST
        for r in rows:
            assert (
                reopened.load_result_by_hash(r.content_hash).to_json_dict()
                == r.to_json_dict()
            )
        assert reopened.manifest_hashes() == [r.content_hash for r in rows]

    def test_migrate_packed_store_is_noop(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(6))
        store.flush()
        d = store.digest()
        before = _tree(tmp_path / "p")
        for create in (False, True):
            reopened = SweepStore(tmp_path / "p", create=create)
            assert reopened.migrated_digest is None
            assert reopened.digest() == d
        assert _tree(tmp_path / "p") == before

    def test_migrate_preserves_fleet_json(self, tmp_path, write_flat_store):
        live = run_grid(_grid(n_seeds=1).expand(), executor="serial")
        root = write_flat_store(tmp_path / "s", live.results)
        (root / "fleet.json").write_text(live.to_json())
        store = SweepStore(root, create=False)
        assert store.migrated_digest == live.digest()
        assert (root / "fleet.json").read_text() == live.to_json()
        stitched = store.fleet_result()
        assert stitched.digest() == live.digest()
        assert stitched.executor == "store"  # stitched from rows; fleet.json is never read

    def test_migrate_rolls_back_on_mismatch(
        self, tmp_path, monkeypatch, write_flat_store
    ):
        rows = _synth_rows(8)
        root = write_flat_store(tmp_path / "s", rows)
        before = _tree(root)
        real_append = SweepStore._append_batch

        def corrupting(self, prefix, docs):
            docs = {h: {**doc, "iterations": 999} for h, doc in docs.items()}
            return real_append(self, prefix, docs)

        with monkeypatch.context() as m:
            m.setattr(SweepStore, "_append_batch", corrupting)
            with pytest.raises(RuntimeError, match="digest mismatch"):
                SweepStore(root, create=False)
        assert _tree(root) == before
        assert SweepStore(root, create=False).digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )

    def test_crash_at_every_write_point_keeps_flat_store(
        self, tmp_path, monkeypatch, write_flat_store
    ):
        """Each migration write in turn raises; the flat store survives.

        The writes are one sidecar and one npz per shard batch, one
        manifest per shard, then the v2 header — the commit point.
        """
        import repro.runtime.sweep_store as store_mod

        rows = _synth_rows(20)
        hashes = sorted(r.content_hash for r in rows)
        shards = len({h[:store_mod.DEFAULT_PREFIX_LEN] for h in hashes})
        real = {name: getattr(store_mod, name)
                for name in ("_atomic_write", "_atomic_savez")}
        for k in range(1, 200):
            root = write_flat_store(tmp_path / f"s{k}", rows)
            manifest = (root / "manifest.json").read_bytes()
            calls = []

            def crashing(name, k=k, calls=calls):
                def write(*args):
                    calls.append(name)
                    if len(calls) == k:
                        raise OSError(f"simulated crash at write {k}")
                    return real[name](*args)
                return write

            with monkeypatch.context() as m:
                for name in real:
                    m.setattr(store_mod, name, crashing(name))
                try:
                    SweepStore(root, create=False)
                except OSError:
                    pass
                else:
                    break
            assert sorted(p.stem for p in (root / "results").glob("*.json")) == hashes
            assert (root / "manifest.json").read_bytes() == manifest
            assert not (root / "shards").exists()
            assert SweepStore(root, create=False).digest() == GOLDEN_DIGEST
        else:
            pytest.fail("the migration never completed")
        assert len(calls) == 3 * shards + 1 == k - 1
        assert not (root / "results").exists()
        assert SweepStore(root, create=False).digest() == GOLDEN_DIGEST

    def test_stray_shards_in_flat_store_are_discarded(
        self, tmp_path, write_flat_store
    ):
        """A migration killed before its rollback leaves shards/ debris."""
        rows = _synth_rows(20)
        root = write_flat_store(tmp_path / "s", rows)
        # Debris: a shard manifest, a torn batch and a row that is not
        # in the flat store at all.
        debris = root / "shards" / "0"
        (debris / "log").mkdir(parents=True)
        (debris / "manifest.json").write_text('{"scenarios": []}')
        (debris / "batch-000000000000.npz").write_bytes(b"torn")
        stray = ScenarioSpec(problem="jacobi", seed=999)
        (debris / "log" / f"{stray.content_hash}.json").write_text("{}")
        store = SweepStore(root, create=False)
        assert store.migrated_digest == GOLDEN_DIGEST
        assert store.completed() == {r.content_hash for r in rows}
        assert not (debris / "batch-000000000000.npz").exists()
        assert SweepStore(root, create=False).digest() == GOLDEN_DIGEST

    def test_manifest_less_flat_directory_is_packed(
        self, tmp_path, write_flat_store
    ):
        rows = _synth_rows(20)
        root = write_flat_store(tmp_path / "c", rows)
        (root / "manifest.json").unlink()
        # Without create, a manifest-less directory is not a store, and
        # refusing it changes nothing.
        before = _tree(root)
        with pytest.raises(FileNotFoundError, match="no sweep store"):
            SweepStore(root, create=False)
        assert _tree(root) == before
        # Opened as a cache (create=True), every row is in scope.
        store = SweepStore(root)
        assert store.migrated_digest == GOLDEN_DIGEST
        assert not (root / "manifest.json").exists()
        assert not (root / "results").exists()
        assert SweepStore(root).completed() == {r.content_hash for r in rows}

    @pytest.mark.parametrize("text", [
        "", "{not json", "[1, 2]", '"packed"', '{"format_version": "two"}',
    ])
    def test_unreadable_manifest_raises_before_any_change(self, tmp_path, text):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        (tmp_path / "p" / "manifest.json").write_text(text)
        before = _tree(tmp_path / "p")
        for create in (True, False):
            with pytest.raises(ValueError, match="manifest.json"):
                SweepStore(tmp_path / "p", create=create)
        assert _tree(tmp_path / "p") == before


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

    def test_migrate_cli(self, tmp_path, capsys, write_flat_store):
        rows = _synth_rows(10)
        write_flat_store(tmp_path / "s", rows)
        assert main(["store", "migrate", str(tmp_path / "s"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["migrated"] is True
        assert doc["layout_before"] == "flat"
        assert doc["layout"] == "packed"
        assert doc["digest"] == doc["digest_before"] == digest_rows(
            [(r.content_hash, r) for r in rows]
        )
        assert doc["rows"] == 10
        # Second migrate: already packed, still rc 0.
        assert main(["store", "migrate", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "already packed" in out

    def test_migrate_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "migrate", str(tmp_path / "nope")]) == 2
        assert "no sweep store" in capsys.readouterr().err

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        _fill(SweepStore(tmp_path / "p"), _synth_rows(6)).flush()
        _fill(SweepStore(tmp_path / "src"), _synth_rows(3)).flush()
        manifest = tmp_path / "p" / "manifest.json"
        manifest.write_text("")
        before = _tree(tmp_path / "p")
        for argv in (
            ["store", "digest", str(tmp_path / "p")],
            ["store", "migrate", str(tmp_path / "p"), "--json"],
            ["store", "merge", "--out", str(tmp_path / "m"), str(tmp_path / "p")],
            ["store", "merge", "--out", str(tmp_path / "p"), str(tmp_path / "src")],
        ):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert str(manifest) in captured.err, argv
            assert captured.out == "", argv
        assert _tree(tmp_path / "p") == before


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
