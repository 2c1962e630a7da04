"""Store scale smoke (nightly): 10⁵ rows, bounded memory, digest parity.

The packed layout's reason to exist: aggregates over a hundred
thousand rows must stream — digest and group_medians peak at one
shard's working set, not the whole store — and a legacy flat store of
thousands of rows, packed in place when opened, must keep the digest
its rows had.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import pytest

from repro.runtime.fleet import ScenarioResult
from repro.runtime.sweep_store import SweepStore, digest_rows
from repro.scenarios.spec import ScenarioSpec

#: Peak tracemalloc ceiling for streaming aggregates over N_ROWS rows.
#: A full materialization of 10⁵ row documents costs hundreds of MB;
#: one shard's working set is a few MB.  64 MiB is the generous bound
#: nightly asserts.
MEMORY_CEILING_BYTES = 64 * 1024 * 1024
N_ROWS = 100_000


def _synth_doc(i: int) -> "tuple[str, dict]":
    """A persisted-row document with a realistic spread of values."""
    h = hashlib.sha256(f"scale-{i}".encode()).hexdigest()[:16]
    doc = {
        "key": f"k{i}",
        "spec": {"problem": "jacobi", "seed": i},
        "iterations": i % 500,
        "converged": i % 3 != 0,
        "final_residual": "Infinity" if i % 97 == 0 else 1e-9 * (i + 1),
        "final_error": None if i % 4 == 0 else 1e-3 * (i % 50),
        "sim_time": None if i % 5 == 0 else 0.25 * (i % 40),
        "time_to_tol": None if i % 6 == 0 else 0.1 * (i % 30),
        "wall_time": 0.001 * (i % 100),
        "error": None,
        "info": {},
        "trace_path": None,
    }
    return h, doc


@pytest.mark.slow
class TestStoreScale:
    def test_hundred_thousand_rows_stream_under_memory_ceiling(self, tmp_path):
        store = SweepStore(tmp_path / "big")
        by_prefix: "dict[str, dict[str, dict]]" = {}
        for i in range(N_ROWS):
            h, doc = _synth_doc(i)
            by_prefix.setdefault(store._prefix(h), {})[h] = doc
        for prefix, docs in by_prefix.items():
            store._append_batch(prefix, docs)
        del by_prefix
        store.invalidate_caches()
        assert len(store.completed()) == N_ROWS

        tracemalloc.start()
        digest = store.digest()
        _, digest_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert digest_peak < MEMORY_CEILING_BYTES, (
            f"digest peaked at {digest_peak / 1e6:.1f} MB over {N_ROWS} rows"
        )

        store.invalidate_caches()
        tracemalloc.start()
        medians = store.fleet_view().group_medians(
            by=("problem",), metrics=("iterations", "converged")
        )
        _, gm_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert gm_peak < MEMORY_CEILING_BYTES, (
            f"group_medians peaked at {gm_peak / 1e6:.1f} MB over {N_ROWS} rows"
        )
        (gkey,) = medians
        assert medians[gkey]["count"] == float(N_ROWS)

        # The digest is stable across a cold re-open (pure function of
        # the rows, not of cache state).  This store is manifest-less —
        # a cache-style directory — so it re-opens like one.
        assert SweepStore(tmp_path / "big").digest() == digest

    def test_flat_vs_packed_digest_equality(self, tmp_path, write_flat_store):
        n = 2000
        specs = [
            ScenarioSpec(problem="jacobi", seed=i, max_iterations=40 + i % 9)
            for i in range(n)
        ]
        rows = [
            ScenarioResult(
                key=s.key, spec=s, iterations=i % 300, converged=i % 2 == 0,
                final_residual=float("inf") if i % 53 == 0 else 1e-8 * (i + 1),
                final_error=None if i % 4 == 0 else 1e-4 * i,
                sim_time=None if i % 5 == 0 else 0.5 * i,
                time_to_tol=None if i % 7 == 0 else 0.1 * i,
                wall_time=0.01,
            )
            for i, s in enumerate(specs)
        ]
        packed = SweepStore(tmp_path / "packed")
        packed.write_manifest(specs)
        for r in rows:
            packed.write_result(r)
        packed.flush()
        expected = digest_rows([(r.content_hash, r) for r in rows])
        assert packed.digest() == expected
        # Opening the same rows as a flat store packs them in place,
        # bit-identically.
        flat = SweepStore(write_flat_store(tmp_path / "flat", rows))
        assert flat.migrated_digest == expected
        assert flat.digest() == expected
        assert SweepStore(tmp_path / "flat", create=False).digest() == expected
