"""Content-addressed on-disk results of one scenario sweep.

A :class:`SweepStore` is a plain directory the fleet runner streams
into — the durable half of the results layer.  It has one layout
(manifest format_version 2), sharded and columnar so it scales to
millions of rows:

.. code-block:: text

    <root>/
      manifest.json              # {format_version, layout, prefix_len, prefixes}
      shards/<pp>/manifest.json  # the shard's scenario entries (+ global index)
      shards/<pp>/batch-<fp>.npz # columnar summary rows, content-hash order
      shards/<pp>/batch-<fp>.json# sidecar: key/spec/info/trace_path per row
      shards/<pp>/log/<hash>.json# append-log: in-flight rows not yet sealed
      traces/<hash>.npz          # optional realized traces (keep_traces)
      tmp/<hash>/chunk_*.npz     # spill working set while a trace records
      fleet.json                 # the aggregate FleetResult document
      merge_log.json             # fingerprints of source units already merged

Every row is keyed by the scenario's canonical
:attr:`~repro.scenarios.spec.ScenarioSpec.content_hash`, so the store
is *content-addressed*: a resumed sweep (or a different grid that
happens to share scenarios) recognizes completed work by identity, not
by position.  Rows first land as one atomic append-log file each
(``shards/<pp>/log/<hash>.json`` — the row's JSON document), and a
shard's log is *sealed* into a columnar batch once it reaches
``batch_rows`` entries: the npz holds the summary columns (hash,
iterations, converged, residual/error/times with None-masks,
wall_time) in content-hash order and the JSON sidecar carries the
irregular remainder (key, canonical spec, ``info``, ``trace_path``).
Killing a sweep between log write and seal loses nothing — logs are
complete rows, and readers overlay logs over batches — so kill/resume
stays bit-identical.

Reads go *shard by shard*: every bulk reader visits shard prefixes in
sorted order and decodes each of a shard's batch npz files and
sidecars at most once, plus one log-directory listing (logs overlay
batches).  No decoded batch is cached between calls: a fixed-size
batch cache thrashes once a shard holds more batches than it does,
and row-at-a-time reads in manifest order (random by prefix) hit
exactly that — resuming a merged 3000-row store (two batches per
shard) that way decoded its 32 batch files about 1500 times.  The
resume lookup :meth:`load_complete_results` is the bulk reader
``run_grid`` uses.  :meth:`digest` folds the digest columns
of one shard's batches at a time (never materializing
:class:`~repro.runtime.fleet.ScenarioResult` objects, never reading
sidecars), :meth:`iter_rows` yields lightweight :class:`RowView` rows
in global hash order one shard at a time, and :meth:`fleet_view`
wraps the store in a lazy :class:`StoreFleetView` whose report-facing
surface (``group_medians``, ``scenario_count``, ``wall_time``,
``digest``) never holds the full row set in memory.

Digest preservation: the digest is :func:`digest_rows` over the rows'
JSON documents, so it is byte-identical to the digest of the retired
flat layout (format v1, one ``results/<hash>.json`` per row) — every
value round-trips exactly: float64 summary columns restore the same
doubles the JSON documents carried (npz is lossless and
``json.dumps`` of a given double is deterministic), the non-finite
string sentinels (``"NaN"``/``"Infinity"``/``"-Infinity"``) decode and
re-encode to themselves, and ``None`` optional fields are preserved
through explicit mask columns.

Content addressing is also what makes stores *composable*:
:meth:`merge` recombines the per-host stores of a sharded grid
(``ScenarioGrid.shard``) into one store whose digest matches a
single-host run bit for bit — and is O(changed): each source shard
unit is fingerprinted (its completed hashes + trace markers) into
``merge_log.json``, so re-merging an unchanged shard skips it without
reading a single row.  Any store doubles as the cross-study result
cache ``run_grid(cache=...)`` consults before executing a scenario.

Legacy flat stores are read in exactly one place: every open packs a
flat directory in place first (:meth:`SweepStore._migrate_flat`),
checking the packed digest against the flat one and rolling back on
mismatch, so resume, cache, merge and reporting only ever see packed
stores.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.trace import IterationTrace, load_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.fleet import FleetResult, ScenarioResult
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "SweepStore",
    "StoreFleetView",
    "RowView",
    "DIGEST_FIELDS",
    "digest_rows",
]

_MANIFEST = "manifest.json"
_FLEET = "fleet.json"
_MERGE_LOG = "merge_log.json"

#: First hex chars of the content hash naming a shard directory.  One
#: hex char (16 shards) keeps per-file overheads (npz opens, shard
#: manifest reads) off the digest/merge critical path at 10⁴–10⁵ rows
#: while still bounding any one directory to ~500 entries per million
#: rows; stores persist their own ``prefix_len`` in the manifest
#: header, so the default only governs brand-new stores.
DEFAULT_PREFIX_LEN = 1
#: Log rows per shard before they are sealed into a columnar batch.
DEFAULT_BATCH_ROWS = 256

#: ScenarioResult fields that are functions of the spec alone (for
#: deterministic backends) — wall-clock fields are excluded.
DIGEST_FIELDS = (
    "iterations", "converged", "final_residual", "final_error",
    "sim_time", "time_to_tol",
)

#: Summary fields that may legitimately be ``None`` on a row; packed
#: batches store them as a float column plus a ``<field>_none`` mask.
_OPTIONAL_FIELDS = ("final_error", "sim_time", "time_to_tol")

#: Fault-log counters lifted out of each row's ``info`` dict into int64
#: batch columns (0 for fault-free rows), so fault-intensity analytics
#: scan columns instead of parsing sidecar JSON.  Purely additive: the
#: digest reads only the ``hash``/``digest_json`` members, row documents
#: reconstruct ``info`` from the sidecar, and batches written before
#: these columns existed load unchanged.
_FAULT_FIELDS = ("fault_crashes", "fault_drops", "fault_limp_episodes")

#: Batch members a row document is rebuilt from.
_DOC_COLUMNS = (
    "iterations", "converged", "final_residual", "wall_time",
    *_OPTIONAL_FIELDS, *(f + "_none" for f in _OPTIONAL_FIELDS),
)


def digest_rows(pairs: "Iterable[tuple[str, ScenarioResult]]") -> str:
    """SHA-256 over ``(content_hash, deterministic fields)`` pairs.

    The one digest algorithm shared by :meth:`SweepStore.digest` and
    :meth:`repro.runtime.fleet.FleetResult.digest`, so a live fleet and
    a store that persisted the same scenarios certify equality.  Pairs
    are hashed in content-hash order, making the digest independent of
    completion/enumeration order.
    """
    from repro.runtime.fleet import _encode_nonfinite

    h = hashlib.sha256()
    for ch, row in sorted(pairs, key=lambda p: p[0]):
        # Non-finite values canonicalize to the same string sentinels
        # the store persists (and restores exactly), so a live row
        # with an inf/nan field and its store-loaded twin hash
        # identically — and inf stays distinct from nan.
        payload = {
            f: _encode_nonfinite(getattr(row, f)) for f in DIGEST_FIELDS
        }
        h.update(ch.encode())
        h.update(json.dumps(payload, sort_keys=True, allow_nan=False).encode())
    return h.hexdigest()


def _atomic_write(path: pathlib.Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_copy(src: pathlib.Path, dst: pathlib.Path) -> None:
    """Copy ``src`` to ``dst`` without ever exposing a torn file.

    Store and cache directories are shared between hosts/processes by
    design, and a reader recognizes a trace by the file *existing* —
    so the copy must appear atomically, exactly like row writes
    (tmp + rename), or a concurrent sweep could adopt a half-written
    ``.npz``.
    """
    tmp = dst.with_name(dst.name + ".tmp")
    shutil.copyfile(src, tmp)
    os.replace(tmp, dst)


def _atomic_savez(path: pathlib.Path, arrays: "dict[str, np.ndarray]") -> None:
    # np.savez appends ".npz" to bare path names but not to open file
    # objects — write through a handle so the tmp name stays exact.
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def _payload_from_doc(doc: "dict[str, Any]") -> "dict[str, Any]":
    """Digest payload straight from a persisted row document.

    Matches :func:`digest_rows` on the loaded row byte for byte: the
    document already carries the encoded forms (sentinel strings,
    ``null`` optionals), and a legacy ``final_residual: null`` loads
    as ``nan`` hence re-encodes as ``"NaN"``.
    """
    fr = doc.get("final_residual")
    return {
        "iterations": int(doc.get("iterations", 0)),
        "converged": bool(doc.get("converged", False)),
        "final_residual": "NaN" if fr is None else fr,
        "final_error": doc.get("final_error"),
        "sim_time": doc.get("sim_time"),
        "time_to_tol": doc.get("time_to_tol"),
    }


class _SpecView:
    """Attribute access over a canonical spec document.

    Stands in for :class:`~repro.scenarios.spec.ScenarioSpec` on
    streamed rows: grouping keys (``spec.problem``, ``spec.delays``…)
    resolve straight from the persisted canonical dict, skipping
    registry re-validation — the per-row cost that makes materializing
    10⁶ real specs prohibitive.
    """

    __slots__ = ("_doc",)

    def __init__(self, doc: "dict[str, Any]") -> None:
        self._doc = doc

    def __getattr__(self, name: str) -> Any:
        try:
            return self._doc[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_SpecView({self._doc!r})"


class RowView:
    """One persisted row decoded for streaming aggregation.

    Carries exactly the fields the aggregate consumers touch —
    metrics, ``spec`` (as :class:`_SpecView`), ``info``,
    ``trace_path`` — with non-finite sentinels restored to floats,
    so ``group_medians``/``rates`` treat it like a
    :class:`~repro.runtime.fleet.ScenarioResult` without one ever
    being constructed.  Persisted rows are never failures, so
    ``error`` is always ``None``.
    """

    __slots__ = (
        "content_hash", "key", "spec", "iterations", "converged",
        "final_residual", "final_error", "sim_time", "time_to_tol",
        "wall_time", "error", "info", "trace_path",
    )

    def __init__(self, content_hash: str, doc: "dict[str, Any]") -> None:
        from repro.runtime.fleet import _decode_nonfinite

        self.content_hash = content_hash
        self.key = doc.get("key")
        self.spec = _SpecView(doc.get("spec") or {})
        self.iterations = int(doc.get("iterations", 0))
        self.converged = bool(doc.get("converged", False))
        fr = doc.get("final_residual")
        self.final_residual = (
            float("nan") if fr is None else float(_decode_nonfinite(fr))
        )
        for f in _OPTIONAL_FIELDS:
            v = doc.get(f)
            setattr(self, f, None if v is None else float(_decode_nonfinite(v)))
        self.wall_time = float(doc.get("wall_time", 0.0))
        self.error = None
        self.info = doc.get("info") or {}
        self.trace_path = doc.get("trace_path")


class StoreFleetView:
    """Lazy, streaming stand-in for a store's ``FleetResult``.

    Presents the aggregate surface the report/analysis layer consumes
    (``results``, ``ok``, ``group_medians``, ``scenario_count``,
    ``wall_time``, ``digest``…) while reading rows one shard at a
    time — a 10⁶-row study report peaks at one shard's worth of
    memory.  ``wall_time`` is the *sum* of row wall times (cumulative
    compute, as for any store-reassembled fleet) and ``executor`` is
    ``"store"``, matching :meth:`SweepStore.fleet_result`'s stitched
    path.  :meth:`materialize` yields the eager twin when positional
    results are genuinely needed.
    """

    executor = "store"
    max_workers = 0

    def __init__(self, store: "SweepStore") -> None:
        self.store = store
        self._counts: "tuple[int, float] | None" = None

    # -- rows ----------------------------------------------------------
    @property
    def results(self) -> "_RowIterable":
        return _RowIterable(self.store)

    def ok(self) -> "Iterator[RowView]":
        # Failed scenarios are never persisted: every stored row is ok.
        return self.store.iter_rows()

    def failures(self) -> tuple:
        return ()

    # -- stats ---------------------------------------------------------
    def _stats(self) -> "tuple[int, float]":
        if self._counts is None:
            self._counts = self.store._stats()
        return self._counts

    @property
    def scenario_count(self) -> int:
        return self._stats()[0]

    @property
    def wall_time(self) -> float:
        return self._stats()[1]

    @property
    def scenarios_per_sec(self) -> float:
        n, wall = self._stats()
        if n == 0 or wall <= 0:
            return 0.0
        return n / wall

    def converged_fraction(self) -> float:
        n = 0
        good = 0
        for row in self.store.iter_rows():
            n += 1
            good += bool(row.converged)
        return good / n if n else 0.0

    # -- aggregation ---------------------------------------------------
    def group_medians(
        self,
        by: "Any" = ("problem",),
        metrics: "Sequence[str]" = ("iterations", "final_residual"),
    ) -> "dict[tuple[Any, ...], dict[str, float]]":
        from repro.runtime.fleet import _group_medians

        return _group_medians(self.store.iter_rows(), by, metrics)

    def digest(self) -> str:
        return self.store.digest()

    # -- materialization (only when positions/JSON are really needed) --
    def materialize(self) -> "FleetResult":
        return self.store.fleet_result()

    def to_rows(self, metrics: "Sequence[str]" = ("iterations", "converged",
                                                  "final_residual")) -> list:
        return self.materialize().to_rows(metrics)

    def to_json(self) -> str:
        return self.materialize().to_json()


class _RowIterable:
    """Re-iterable over a store's rows (a fresh scan per ``iter()``)."""

    def __init__(self, store: "SweepStore") -> None:
        self._store = store

    def __iter__(self) -> "Iterator[RowView]":
        return self._store.iter_rows()


class SweepStore:
    """Directory-backed, content-addressed persistence of a sweep."""

    #: The manifest format every store is read and written in.
    FORMAT_VERSION = 2

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        *,
        create: bool = True,
        batch_rows: "int | None" = None,
        prefix_len: "int | None" = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.shards_dir = self.root / "shards"
        self.traces_dir = self.root / "traces"
        self.tmp_dir = self.root / "tmp"
        self.batch_rows = (
            DEFAULT_BATCH_ROWS if batch_rows is None else int(batch_rows)
        )
        self.prefix_len = (
            DEFAULT_PREFIX_LEN if prefix_len is None else int(prefix_len)
        )
        header = self._read_header()
        if header is None and not create:
            # An existing-but-unrelated directory is as wrong as a
            # missing one: opening it as a store would silently re-run
            # a whole sweep (and scatter store files into it).  The
            # manifest is written before any scenario executes, so
            # every real store — however early it was killed — has one.
            raise FileNotFoundError(
                f"no sweep store at {self.root} (missing {_MANIFEST})"
            )
        # Satellite of the scale refactor: the completed-hash set is
        # consulted once per scenario on the resume hot path, so it is
        # computed once and maintained by write_result/merge instead of
        # re-scanning the directory/index per call.
        self._completed: "set[str] | None" = None
        # hash -> batch path per shard, for random access.
        self._shard_maps: "dict[str, dict[str, pathlib.Path]]" = {}
        # Unsealed log-row counts per shard prefix.
        self._pending: "dict[str, int]" = {}
        #: The flat digest this open verified while packing a legacy
        #: flat directory in place (see :meth:`_migrate_flat`); ``None``
        #: when the store was already packed, or is new.
        self.migrated_digest = self._migrate_flat(header)
        if header is not None and self.migrated_digest is None:
            # Shard addressing must match how the store was written,
            # whatever this instance was constructed with.
            self.prefix_len = int(header.get("prefix_len", self.prefix_len))
        elif header is None and prefix_len is None and self.shards_dir.is_dir():
            # Manifest-less directories (result caches) carry no
            # header; infer the addressing from the shard directories
            # themselves so a cache written under one default re-opens
            # correctly under another.
            for p in self.shards_dir.iterdir():
                name = p.name
                if p.is_dir() and name and all(
                    c in "0123456789abcdef" for c in name
                ):
                    self.prefix_len = len(name)
                    break
        if create:
            for d in (self.traces_dir, self.tmp_dir, self.shards_dir):
                d.mkdir(parents=True, exist_ok=True)

    def _read_header(self) -> "dict[str, Any] | None":
        """The top-level manifest document, or ``None`` when absent.

        An unreadable or non-object manifest raises ``ValueError``
        naming the file, before anything on disk changes: guessing a
        format for it would reopen a packed store as flat legacy rows
        (a resume would re-run everything, and a migration's rollback
        would delete its batches).
        """
        path = self.root / _MANIFEST
        if not path.is_file():
            return None
        try:
            header = json.loads(path.read_text())
            if not isinstance(header, dict):
                raise TypeError("not a JSON object")
            header["format_version"] = int(header.get("format_version", 1))
        except (ValueError, TypeError) as exc:
            raise ValueError(
                f"unreadable store manifest {path}: {exc}"
            ) from None
        return header

    def _migrate_flat(self, header: "dict[str, Any] | None") -> "str | None":
        """Pack a legacy flat store in place; its verified digest, else ``None``.

        The one reader of the retired flat layout (format v1: one
        ``results/<hash>.json`` row document per completed scenario
        beside a v1 manifest of hashes and canonical specs).  A
        directory is flat when its manifest has ``format_version``
        missing or below 2, or when it has no manifest but has a
        ``results/`` directory; a v2 store is never touched.

        Every row file is packed into per-shard batches, and the packed
        digest is checked against the flat one — :func:`digest_rows`
        over each row in manifest scope, exactly as the flat layout
        computed it.  Only then does the v2 manifest replace the v1
        one (the commit point) and ``results/`` go.  A mismatch, or a
        failure at any write before the commit, removes ``shards/`` and
        re-raises with the flat store untouched; a ``shards/`` found in
        a flat store can only be debris of a killed migration, so it is
        discarded before packing starts.  Rows, traces, ``fleet.json``
        and the digest stay the same.

        The step must not race a process that is still writing the
        flat store (``store migrate`` never could either): rows landing
        after they were read would be deleted with ``results/``.
        """
        from repro.runtime.fleet import ScenarioResult

        results = self.root / "results"
        if header is None and not results.is_dir():
            return None
        if header is not None and header["format_version"] >= 2:
            return None
        docs = {
            p.stem: json.loads(p.read_text()) for p in results.glob("*.json")
        }
        entries = None if header is None else header.get("scenarios", [])
        scope = set(docs)
        if entries is not None:
            scope &= {e["hash"] for e in entries}
        flat = digest_rows(
            (h, ScenarioResult.from_json_dict(docs[h])) for h in scope
        )
        by_prefix: "dict[str, dict[str, dict[str, Any]]]" = {}
        for h, doc in docs.items():
            by_prefix.setdefault(self._prefix(h), {})[h] = doc
        shutil.rmtree(self.shards_dir, ignore_errors=True)
        try:
            for prefix in sorted(by_prefix):
                self._append_batch(prefix, by_prefix[prefix])
            packed = self.digest(scope)
            if packed != flat:
                raise RuntimeError(
                    f"store migration digest mismatch at {self.root}: "
                    f"flat {flat} != packed {packed}"
                )
            if entries is not None:
                self._write_manifest_entries(entries)
        except BaseException:
            shutil.rmtree(self.shards_dir, ignore_errors=True)
            raise
        if results.is_dir():
            # Renamed before deletion: a kill mid-delete must not leave
            # a partial results/ that would re-pack as the whole store.
            trash = self.root / "results.packed"
            os.replace(results, trash)
            shutil.rmtree(trash, ignore_errors=True)
        return flat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SweepStore root={str(self.root)!r} "
            f"completed={len(self.completed())}>"
        )

    def invalidate_caches(self) -> None:
        """Drop in-memory indexes (after out-of-band directory changes)."""
        self._completed = None
        self._shard_maps.clear()
        self._pending.clear()

    # -- paths ---------------------------------------------------------
    def trace_path(self, content_hash: str) -> pathlib.Path:
        return self.traces_dir / f"{content_hash}.npz"

    def _prefix(self, content_hash: str) -> str:
        return content_hash[: self.prefix_len]

    def _shard_dir(self, prefix: str) -> pathlib.Path:
        return self.shards_dir / prefix

    def _log_path(self, content_hash: str) -> pathlib.Path:
        return self._shard_dir(self._prefix(content_hash)) / "log" / (
            f"{content_hash}.json"
        )

    def _log_paths(self, prefix: str) -> "list[pathlib.Path]":
        d = self._shard_dir(prefix) / "log"
        return sorted(d.glob("*.json")) if d.is_dir() else []

    def _batch_paths(self, prefix: str) -> "list[pathlib.Path]":
        d = self._shard_dir(prefix)
        return sorted(d.glob("batch-*.npz")) if d.is_dir() else []

    def _shard_prefixes(self) -> "list[str]":
        if not self.shards_dir.is_dir():
            return []
        if self.prefix_len == 0:
            # Single-shard store: everything lives in shards/ itself
            # (and shards/log), so there are no prefix subdirectories.
            return [""]
        return sorted(
            p.name for p in self.shards_dir.iterdir()
            if p.is_dir() and len(p.name) == self.prefix_len
        )

    # -- manifest ------------------------------------------------------
    def write_manifest(self, specs: "Sequence[ScenarioSpec]") -> pathlib.Path:
        """Persist the sweep's scenario list (hashes + canonical specs).

        The manifest freezes submission order, which is what makes the
        store self-describing: :meth:`fleet_result` and :meth:`digest`
        iterate scenarios in manifest order, so their output matches
        the live fleet's regardless of completion interleaving.  The
        entries are sharded by content-hash prefix (one index file per
        shard plus a small top-level header), so scoped reads never
        parse the whole scenario list at once.
        """
        entries = [
            {"hash": s.content_hash, "key": s.key, "spec": s.canonical()}
            for s in specs
        ]
        path = self._write_manifest_entries(entries)
        # A new manifest starts a new sweep: a fleet.json left over from
        # a previous (smaller/older) run would otherwise shadow the
        # fresh per-scenario rows in fleet_result() if this run dies
        # before writing its own aggregate.  Merge fingerprints describe
        # the previous scenario scope, so they reset too.
        (self.root / _FLEET).unlink(missing_ok=True)
        (self.root / _MERGE_LOG).unlink(missing_ok=True)
        return path

    def _write_manifest_entries(
        self, entries: "list[dict[str, Any]]"
    ) -> pathlib.Path:
        path = self.root / _MANIFEST
        by_prefix: "dict[str, list[dict[str, Any]]]" = {}
        for index, entry in enumerate(entries):
            shard_entry = {"index": index, "hash": entry["hash"],
                           "key": entry["key"], "spec": entry["spec"]}
            by_prefix.setdefault(self._prefix(entry["hash"]), []).append(
                shard_entry
            )
        # Stale shard manifests from a previous (different) sweep would
        # otherwise leak scenarios back into the reconstructed list.
        if self.shards_dir.is_dir():
            for old in self.shards_dir.glob(f"*/{_MANIFEST}"):
                if old.parent.name not in by_prefix:
                    old.unlink(missing_ok=True)
        for prefix in sorted(by_prefix):
            d = self._shard_dir(prefix)
            d.mkdir(parents=True, exist_ok=True)
            _atomic_write(
                d / _MANIFEST,
                json.dumps({"scenarios": by_prefix[prefix]}),
            )
        doc = {
            "format_version": self.FORMAT_VERSION,
            "layout": "packed",
            "prefix_len": self.prefix_len,
            "scenario_count": len(entries),
            "prefixes": sorted(by_prefix),
        }
        _atomic_write(path, json.dumps(doc, indent=2))
        return path

    def _manifest_entries(self) -> "list[dict[str, Any]]":
        """Manifest entries in submission order (with ``index``)."""
        header = json.loads((self.root / _MANIFEST).read_text())
        entries: "list[dict[str, Any]]" = []
        for prefix in header.get("prefixes", []):
            shard_manifest = self._shard_dir(prefix) / _MANIFEST
            if shard_manifest.is_file():
                entries.extend(json.loads(shard_manifest.read_text())["scenarios"])
        entries.sort(key=lambda e: e.get("index", 0))
        return entries

    def read_manifest(self) -> "dict[str, Any]":
        """The manifest document (raises when the store has none).

        Reconstructs the whole-sweep shape — ``scenario_count`` plus
        ``scenarios`` in submission order — from the sharded index
        files, for manifest consumers (merge, tests, tooling).
        """
        header = json.loads((self.root / _MANIFEST).read_text())
        scenarios = [
            {"hash": e["hash"], "key": e["key"], "spec": e["spec"]}
            for e in self._manifest_entries()
        ]
        return {
            "format_version": header.get("format_version", self.FORMAT_VERSION),
            "prefix_len": header.get("prefix_len", self.prefix_len),
            "scenario_count": header.get("scenario_count", len(scenarios)),
            "scenarios": scenarios,
        }

    def manifest_hashes(self) -> "list[str]":
        """Scenario content hashes in submission order."""
        return [e["hash"] for e in self._manifest_entries()]

    # -- per-scenario rows ---------------------------------------------
    def completed(self) -> "set[str]":
        """Content hashes that already have a persisted summary row.

        Computed once (from the batch indexes and log listings) and then
        maintained in memory by :meth:`write_result`, :meth:`merge` and
        :meth:`discard_result`; callers receive a copy, so mutating the
        returned set never corrupts the cache.
        """
        if self._completed is None:
            comp: "set[str]" = set()
            for prefix in self._shard_prefixes():
                for bp in self._batch_paths(prefix):
                    comp.update(self._batch_hashes(bp))
                for lp in self._log_paths(prefix):
                    comp.add(lp.stem)
            self._completed = comp
        return set(self._completed)

    def write_result(self, result: "ScenarioResult") -> pathlib.Path:
        """Atomically persist one scenario's summary row.

        Failed scenarios (``result.error`` set) are *not* persisted as
        completed work — a resumed sweep retries them.  The row lands
        in the shard's log as its JSON document, and the log is sealed
        into a columnar batch once it reaches ``batch_rows`` entries.
        """
        h = result.content_hash
        path = self._log_path(h)
        if result.error is not None:
            return path
        prefix = self._prefix(h)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(
            path, json.dumps(result.to_json_dict(), indent=2, allow_nan=False)
        )
        if self._completed is not None:
            self._completed.add(h)
        if prefix not in self._pending:
            self._pending[prefix] = len(self._log_paths(prefix))
        else:
            self._pending[prefix] += 1
        if self._pending[prefix] >= self.batch_rows:
            self._seal_prefix(prefix)
        return path

    def flush(self) -> None:
        """Seal every shard's outstanding log rows into batches.

        Not required for correctness (readers overlay logs over
        batches), only for read efficiency — the fleet runner calls it
        once at end of sweep.
        """
        for prefix in self._shard_prefixes():
            if self._log_paths(prefix):
                self._seal_prefix(prefix)

    def _seal_prefix(self, prefix: str) -> None:
        logs = self._log_docs(prefix)
        self._pending[prefix] = 0
        if not logs:
            return
        docs = sorted(logs.items())
        self._write_batch(prefix, docs)
        log_dir = self._shard_dir(prefix) / "log"
        for h, _ in docs:
            (log_dir / f"{h}.json").unlink(missing_ok=True)

    def _write_batch(
        self, prefix: str, docs: "list[tuple[str, dict[str, Any]]]"
    ) -> pathlib.Path:
        """Write one columnar batch (sidecar first, then npz).

        ``docs`` must be sorted by content hash.  The sidecar lands
        before the npz: a batch *exists* only once its npz does, so a
        crash in between leaves an orphan sidecar that the eventual
        re-seal simply overwrites (same rows, same fingerprint name).
        """
        from repro.runtime.fleet import _decode_nonfinite

        hashes = [h for h, _ in docs]
        fp = hashlib.sha256("".join(hashes).encode()).hexdigest()[:12]
        n = len(docs)
        meta_rows = []
        arrays: "dict[str, np.ndarray]" = {
            "hash": np.array([h.encode() for h in hashes]),
            "iterations": np.zeros(n, np.int64),
            "converged": np.zeros(n, bool),
            "final_residual": np.zeros(n, np.float64),
            "wall_time": np.zeros(n, np.float64),
            # The exact bytes digest_rows() would hash for each row,
            # precomputed once at pack time: digest() then reads two
            # npz members per batch and never re-serializes a row.
            # (JSON text contains no NUL bytes, so the S dtype's
            # trailing-NUL stripping cannot corrupt a blob.)
            "digest_json": np.array([
                json.dumps(
                    _payload_from_doc(doc), sort_keys=True, allow_nan=False
                ).encode()
                for _, doc in docs
            ]),
        }
        for f in _OPTIONAL_FIELDS:
            arrays[f] = np.zeros(n, np.float64)
            arrays[f + "_none"] = np.zeros(n, bool)
        for f in _FAULT_FIELDS:
            arrays[f] = np.zeros(n, np.int64)
        for i, (h, doc) in enumerate(docs):
            info = doc.get("info") or {}
            meta_rows.append({
                "key": doc.get("key"),
                "spec": doc.get("spec"),
                "info": info,
                "trace_path": doc.get("trace_path"),
            })
            arrays["iterations"][i] = int(doc.get("iterations", 0))
            arrays["converged"][i] = bool(doc.get("converged", False))
            fr = doc.get("final_residual")
            arrays["final_residual"][i] = (
                float("nan") if fr is None else float(_decode_nonfinite(fr))
            )
            arrays["wall_time"][i] = float(doc.get("wall_time", 0.0))
            for f in _OPTIONAL_FIELDS:
                v = doc.get(f)
                if v is None:
                    arrays[f + "_none"][i] = True
                else:
                    arrays[f][i] = float(_decode_nonfinite(v))
            for f in _FAULT_FIELDS:
                arrays[f][i] = int(info.get(f, 0))
        d = self._shard_dir(prefix)
        d.mkdir(parents=True, exist_ok=True)
        npz = d / f"batch-{fp}.npz"
        _atomic_write(
            npz.with_suffix(".json"),
            json.dumps({"rows": meta_rows}, allow_nan=False),
        )
        _atomic_savez(npz, arrays)
        self._shard_maps.pop(prefix, None)
        return npz

    def _append_batch(
        self, prefix: str, docs: "dict[str, dict[str, Any]]"
    ) -> None:
        """Adopt foreign row documents as one new batch (merge path)."""
        if not docs:
            return
        self._write_batch(prefix, sorted(docs.items()))
        if self._completed is not None:
            self._completed.update(docs)

    # -- batch decoding (one read per file, nothing cached) -------------
    @staticmethod
    def _batch_sidecar(path: pathlib.Path) -> "list[dict[str, Any]]":
        return json.loads(path.with_suffix(".json").read_text())["rows"]

    @staticmethod
    def _batch_hashes(path: pathlib.Path) -> "list[str]":
        # Only the hash member decompresses (npz members load lazily).
        with np.load(path) as z:
            return [h.decode() for h in z["hash"]]

    def _shard_map(self, prefix: str) -> "dict[str, pathlib.Path]":
        m = self._shard_maps.get(prefix)
        if m is None:
            m = {}
            for bp in self._batch_paths(prefix):
                for h in self._batch_hashes(bp):
                    m[h] = bp
            self._shard_maps[prefix] = m
        return m

    def _batch_docs(
        self, path: pathlib.Path, wanted: "set[str] | None" = None
    ) -> "dict[str, dict[str, Any]]":
        """The row documents batch ``path`` was packed from.

        Only rows in ``wanted`` (every row when ``None``) are rebuilt.
        The npz opens once and the sidecar parses at most once; a batch
        holding none of the wanted rows costs one hash-member read.
        """
        from repro.runtime.fleet import _encode_nonfinite

        with np.load(path) as z:
            hashes = [h.decode() for h in z["hash"]]
            rows = [i for i, h in enumerate(hashes)
                    if wanted is None or h in wanted]
            if not rows:
                return {}
            cols = {f: z[f].tolist() for f in _DOC_COLUMNS}
        meta = self._batch_sidecar(path)
        docs: "dict[str, dict[str, Any]]" = {}
        for i in rows:
            doc: "dict[str, Any]" = {
                "key": meta[i]["key"],
                "spec": meta[i]["spec"],
                "iterations": cols["iterations"][i],
                "converged": cols["converged"][i],
                "final_residual": _encode_nonfinite(cols["final_residual"][i]),
                "wall_time": cols["wall_time"][i],
                "error": None,
                "info": meta[i]["info"],
                "trace_path": meta[i]["trace_path"],
            }
            for f in _OPTIONAL_FIELDS:
                doc[f] = (
                    None if cols[f + "_none"][i]
                    else _encode_nonfinite(cols[f][i])
                )
            docs[hashes[i]] = doc
        return docs

    def _log_docs(
        self, prefix: str, wanted: "set[str] | None" = None
    ) -> "dict[str, dict[str, Any]]":
        return {
            p.stem: json.loads(p.read_text()) for p in self._log_paths(prefix)
            if wanted is None or p.stem in wanted
        }

    def _shard_docs(
        self, prefix: str, wanted: "set[str] | None" = None
    ) -> "dict[str, dict[str, Any]]":
        """One shard's row documents, logs overlaying batches.

        Restricted to ``wanted`` when given.  Each batch file and
        sidecar is read at most once, plus one log-directory listing.
        """
        docs: "dict[str, dict[str, Any]]" = {}
        for bp in self._batch_paths(prefix):
            docs.update(self._batch_docs(bp, wanted))
        docs.update(self._log_docs(prefix, wanted))
        return docs

    # -- row loading ---------------------------------------------------
    def load_result(self, spec: "ScenarioSpec") -> "ScenarioResult | None":
        """The persisted row for ``spec``, or ``None`` when absent."""
        return self.load_result_by_hash(spec.content_hash)

    def load_result_by_hash(self, content_hash: str) -> "ScenarioResult | None":
        from repro.runtime.fleet import ScenarioResult

        doc = self._load_doc(content_hash)
        if doc is None:
            return None
        return ScenarioResult.from_json_dict(doc)

    def _load_doc(self, content_hash: str) -> "dict[str, Any] | None":
        log = self._log_path(content_hash)
        if log.is_file():
            return json.loads(log.read_text())
        bp = self._shard_map(self._prefix(content_hash)).get(content_hash)
        if bp is None:
            return None
        return self._batch_docs(bp, {content_hash})[content_hash]

    def load_complete_results(
        self, specs: "Iterable[ScenarioSpec]", *, require_trace: bool = False
    ) -> "dict[str, ScenarioResult]":
        """The *complete* persisted rows of ``specs``, by content hash.

        This is THE completeness rule — ``run_grid``'s resume and cache
        lookups and the CLI's "N/M already complete" banner all call
        it, so they cannot drift apart.  Without ``require_trace`` a
        persisted row is complete.  With it, a row is additionally
        required to account for its trace: ``trace_path`` unset means
        the row predates trace-keeping (re-run to record one); a
        set-but-empty ``trace_path`` means the run kept traces and the
        backend legitimately produced none (complete — re-running could
        never help); a non-empty ``trace_path`` must have its file
        present.

        One bulk read: shards are visited in sorted prefix order and
        each batch file is decoded at most once, whatever order (or
        duplicates) ``specs`` comes in.
        """
        from repro.runtime.fleet import ScenarioResult

        out: "dict[str, ScenarioResult]" = {}
        for h, doc in self.iter_row_docs({s.content_hash for s in specs}):
            row = ScenarioResult.from_json_dict(doc)
            if require_trace and (
                row.trace_path is None
                or (row.trace_path and not self.has_trace(h))  # dangling
            ):
                continue
            out[h] = row
        return out

    def load_complete_result(
        self, spec: "ScenarioSpec", *, require_trace: bool = False
    ) -> "ScenarioResult | None":
        """The persisted row for ``spec`` iff it counts as *complete*
        (see :meth:`load_complete_results`, whose rule this applies)."""
        return self.load_complete_results(
            [spec], require_trace=require_trace
        ).get(spec.content_hash)

    def discard_result(self, content_hash: str) -> None:
        """Remove one persisted row (missing rows no-op).

        The kill-simulation counterpart of :meth:`write_result`: tests
        and tooling drop a row to force its re-execution.  A logged row
        unlinks directly; a sealed row rewrites its batch without it
        (new fingerprint name, old pair removed).  Merge fingerprints
        are invalidated — the store's content no longer matches what
        they certified.
        """
        prefix = self._prefix(content_hash)
        log = self._log_path(content_hash)
        if log.is_file():
            log.unlink()
            if prefix in self._pending and self._pending[prefix] > 0:
                self._pending[prefix] -= 1
        else:
            bp = self._shard_map(prefix).get(content_hash)
            if bp is None:
                if self._completed is not None:
                    self._completed.discard(content_hash)
                return
            rest = self._batch_docs(bp)
            rest.pop(content_hash, None)
            bp.unlink(missing_ok=True)
            bp.with_suffix(".json").unlink(missing_ok=True)
            self._shard_maps.pop(prefix, None)
            if rest:
                self._write_batch(prefix, sorted(rest.items()))
        if self._completed is not None:
            self._completed.discard(content_hash)
        (self.root / _MERGE_LOG).unlink(missing_ok=True)

    # -- traces --------------------------------------------------------
    def has_trace(self, content_hash: str) -> bool:
        return self.trace_path(content_hash).is_file()

    def load_trace(self, spec_or_hash: "ScenarioSpec | str") -> IterationTrace:
        """Materialize a persisted trace by spec or content hash."""
        h = spec_or_hash if isinstance(spec_or_hash, str) else spec_or_hash.content_hash
        return load_trace(self.trace_path(h))

    # -- streaming iteration -------------------------------------------
    def _scope(self, hashes: "Iterable[str] | None") -> "set[str]":
        if hashes is None:
            try:
                hashes = self.manifest_hashes()
            except FileNotFoundError:
                hashes = self.completed()
        return set(hashes)

    def _scope_by_prefix(self, scope: "set[str]") -> "dict[str, list[str]]":
        by_prefix: "dict[str, list[str]]" = {}
        for h in scope:
            by_prefix.setdefault(self._prefix(h), []).append(h)
        for hs in by_prefix.values():
            hs.sort()
        return by_prefix

    def iter_row_docs(
        self, hashes: "Iterable[str] | None" = None
    ) -> "Iterator[tuple[str, dict[str, Any]]]":
        """Yield ``(content_hash, row document)`` in global hash order.

        Scope defaults to the manifest (falling back to every row on
        manifest-less stores).  Rows stream one shard at a time —
        sorted prefixes of sorted in-prefix hashes *is* the global hash
        order, so peak memory is one shard's documents, and each batch
        file is decoded at most once.
        """
        scope = self._scope(hashes)
        by_prefix = self._scope_by_prefix(scope)
        for prefix in sorted(by_prefix):
            docs = self._shard_docs(prefix, scope)
            for h in by_prefix[prefix]:
                doc = docs.get(h)
                if doc is not None:
                    yield h, doc

    def iter_rows(
        self, hashes: "Iterable[str] | None" = None
    ) -> "Iterator[RowView]":
        """Yield :class:`RowView` rows in global hash order (streaming)."""
        for h, doc in self.iter_row_docs(hashes):
            yield RowView(h, doc)

    def _stats(
        self, hashes: "Iterable[str] | None" = None
    ) -> "tuple[int, float]":
        """(completed row count, summed wall time) over the scope."""
        scope = self._scope(hashes)
        n = 0
        wall = 0.0
        for prefix, wanted in sorted(self._scope_by_prefix(scope).items()):
            walls: "dict[str, float]" = {}
            for bp in self._batch_paths(prefix):
                with np.load(bp) as z:
                    for h, w in zip(z["hash"], z["wall_time"].tolist()):
                        walls[h.decode()] = w
            for h, doc in self._log_docs(prefix, scope).items():
                walls[h] = float(doc.get("wall_time", 0.0))
            for h in wanted:
                if h in walls:
                    n += 1
                    wall += walls[h]
        return n, wall

    # -- aggregates ----------------------------------------------------
    def write_fleet(self, fleet: "FleetResult") -> pathlib.Path:
        path = self.root / _FLEET
        _atomic_write(path, fleet.to_json())
        return path

    def fleet_view(self) -> StoreFleetView:
        """Lazy :class:`StoreFleetView` over this store's rows.

        The O(batch)-memory way to report on a store: aggregates
        stream, nothing materializes until :meth:`StoreFleetView.materialize`.
        """
        return StoreFleetView(self)

    def fleet_result(self) -> "FleetResult":
        """Reassemble the typed :class:`~repro.runtime.fleet.FleetResult`.

        Prefers the final ``fleet.json`` aggregate; for an interrupted
        or merged sweep (no aggregate yet) the completed per-scenario
        rows are stitched together in manifest order, so partial stores
        are still fully analyzable.  The stitched fleet's ``wall_time``
        is the *sum* of the rows' wall times — the real cumulative
        compute the store holds — never a fabricated ``0.0`` (which
        would make ``scenarios_per_sec`` infinite and its JSON
        non-standard).  This is the eager path; see :meth:`fleet_view`
        for the streaming one.
        """
        from repro.runtime.fleet import FleetResult, ScenarioResult

        final = self.root / _FLEET
        if final.is_file():
            return FleetResult.from_json(final.read_text())
        order = self.manifest_hashes()
        by_hash = {
            h: ScenarioResult.from_json_dict(doc)
            for h, doc in self.iter_row_docs(order)
        }
        results = [by_hash[h] for h in order if h in by_hash]
        return FleetResult(
            results=tuple(results),
            wall_time=float(sum(r.wall_time for r in results)),
            executor="store",
            max_workers=0,
        )

    # -- merging -------------------------------------------------------
    def merge(self, *stores: "SweepStore | str | os.PathLike[str]") -> "SweepStore":
        """Combine shard stores into this one (rows, traces, manifest).

        The sharding workflow's recombine step: ``k`` hosts each run
        ``grid.shard(k, i)`` into their own store, then one host merges
        them — ``SweepStore(out).merge(shard0, shard1, ...)`` — and the
        merged store's :meth:`digest` is bit-identical to a single-host
        run of the whole grid (row digests are content-addressed and
        hash-ordered, so neither shard assignment nor merge order can
        leak into the certificate).  Legacy flat sources are packed in
        place when opened (see :meth:`_migrate_flat`).

        Every shard's manifest entries are unioned in order (this
        store's own manifest first, when it has one; duplicate content
        hashes keep their first occurrence), completed rows and traces
        are copied in, and copied rows are re-pointed at this store's
        trace files so the merged store is self-contained.  Merging is
        idempotent, incremental and O(changed): each source unit (one
        source shard prefix) is fingerprinted over its completed hashes
        plus trace markers, fingerprints of fully-merged units persist
        in ``merge_log.json`` (written only after the merged manifest,
        so a killed merge re-scans and completes idempotently), and a
        re-merge skips unchanged units without reading a row.
        """
        opened = [
            s if isinstance(s, SweepStore) else SweepStore(s, create=False)
            for s in stores
        ]
        scenarios: "list[dict[str, Any]]" = []
        seen: "set[str]" = set()
        if (self.root / _MANIFEST).is_file():
            scenarios = list(self.read_manifest()["scenarios"])
            seen = {s["hash"] for s in scenarios}
        merged_fps = self._read_merge_log()
        live_fps: "set[str]" = set()
        done = self.completed()
        for shard in opened:
            shard_manifest = shard.read_manifest()["scenarios"]
            for entry in shard_manifest:
                if entry["hash"] not in seen:
                    seen.add(entry["hash"])
                    scenarios.append(entry)
            manifest_set = {e["hash"] for e in shard_manifest}
            src_traced = (
                {p.stem for p in shard.traces_dir.glob("*.npz")}
                if shard.traces_dir.is_dir() else set()
            )
            for unit_prefix, fp, unit_hashes in shard._merge_units(manifest_set):
                live_fps.add(fp)
                if fp in merged_fps:
                    continue  # unchanged since a previous merge
                missing = unit_hashes - done
                if not missing:
                    continue
                # Fast path: a sealed source batch whose rows are all
                # missing here lands under the same shard prefix with
                # the same fingerprint name (both are pure functions of
                # the hash set), so the batch files transfer wholesale
                # — no row decode, no re-encode, no re-fingerprint.
                if shard.prefix_len == self.prefix_len:
                    for bp in shard._batch_paths(unit_prefix):
                        bhashes = shard._batch_hashes(bp)
                        if not all(h in missing for h in bhashes):
                            continue  # partial/stray → row-by-row below
                        self._adopt_batch(shard, unit_prefix, bp, bhashes,
                                          src_traced)
                        done.update(bhashes)
                    missing = unit_hashes - done
                    if not missing:
                        continue
                docs = shard._shard_docs(unit_prefix, missing)
                adopted: "dict[str, dict[str, Any]]" = {}
                for h in missing:
                    doc = docs.get(h)
                    if doc is None:
                        continue
                    doc = dict(doc)
                    if shard.has_trace(h):
                        self.traces_dir.mkdir(parents=True, exist_ok=True)
                        _atomic_copy(shard.trace_path(h), self.trace_path(h))
                        doc["trace_path"] = str(self.trace_path(h))
                    adopted[h] = doc
                    done.add(h)
                by_prefix: "dict[str, dict[str, dict[str, Any]]]" = {}
                for h, doc in adopted.items():
                    by_prefix.setdefault(self._prefix(h), {})[h] = doc
                for prefix, prefix_docs in by_prefix.items():
                    self._append_batch(prefix, prefix_docs)
        self._write_manifest_entries(scenarios)
        # Any pre-merge fleet.json aggregates fewer scenarios than the
        # merged manifest describes; drop it so fleet_result() stitches
        # the full row set instead.
        (self.root / _FLEET).unlink(missing_ok=True)
        self._write_merge_log(merged_fps | live_fps)
        return self

    def _merge_units(
        self, manifest_set: "set[str]"
    ) -> "list[tuple[str, str, set[str]]]":
        """This store's mergeable units: ``(prefix, fingerprint, hashes)``.

        A unit is one shard prefix's completed-and-in-manifest hashes.
        The fingerprint covers the hash set *and* per-hash trace presence,
        so a source that later gains rows — or traces for existing
        rows — fingerprints differently and gets re-merged.
        """
        present = self.completed() & manifest_set
        traced = (
            {p.stem for p in self.traces_dir.glob("*.npz")}
            if self.traces_dir.is_dir() else set()
        )
        groups: "dict[str, list[str]]" = {}
        for h in present:
            groups.setdefault(self._prefix(h), []).append(h)
        for hs in groups.values():
            hs.sort()
        units = []
        for prefix in sorted(groups):
            hs = groups[prefix]
            body = ",".join(f"{h}:{int(h in traced)}" for h in hs)
            fp = hashlib.sha256(f"{prefix}|{body}".encode()).hexdigest()
            units.append((prefix, fp, set(hs)))
        return units

    def _adopt_batch(
        self,
        source: "SweepStore",
        prefix: str,
        bp: pathlib.Path,
        bhashes: "list[str]",
        src_traced: "set[str]",
    ) -> None:
        """Transfer one whole source batch into this store's shard.

        The sidecar lands first, then the npz — the same crash ordering
        as :meth:`_write_batch`.  Rows with persisted traces get their
        trace files copied and the sidecar re-pointed at this store's
        copies; traceless batches transfer as verbatim file copies.
        """
        d = self._shard_dir(prefix)
        d.mkdir(parents=True, exist_ok=True)
        dst = d / bp.name
        traced = [h for h in bhashes if h in src_traced]
        if traced:
            meta = self._batch_sidecar(bp)
            traced_set = set(traced)
            self.traces_dir.mkdir(parents=True, exist_ok=True)
            for i, h in enumerate(bhashes):
                if h in traced_set:
                    _atomic_copy(source.trace_path(h), self.trace_path(h))
                    meta[i]["trace_path"] = str(self.trace_path(h))
            _atomic_write(
                dst.with_suffix(".json"),
                json.dumps({"rows": meta}, allow_nan=False),
            )
        else:
            _atomic_copy(bp.with_suffix(".json"), dst.with_suffix(".json"))
        _atomic_copy(bp, dst)
        self._shard_maps.pop(prefix, None)
        if self._completed is not None:
            self._completed.update(bhashes)

    def _read_merge_log(self) -> "set[str]":
        path = self.root / _MERGE_LOG
        if not path.is_file():
            return set()
        try:
            return set(json.loads(path.read_text()).get("merged", []))
        except json.JSONDecodeError:
            return set()

    def _write_merge_log(self, fps: "set[str]") -> None:
        _atomic_write(
            self.root / _MERGE_LOG,
            json.dumps({"format_version": 1, "merged": sorted(fps)}),
        )

    # -- determinism ---------------------------------------------------
    #: Shared with FleetResult.digest (see module-level DIGEST_FIELDS).
    DIGEST_FIELDS = DIGEST_FIELDS

    def digest(self, hashes: "Iterable[str] | None" = None) -> str:
        """SHA-256 over the deterministic fields of completed rows.

        Two stores that ran the same scenarios — in one shot, or killed
        and resumed, serially or on any executor — produce the same
        digest; it is the cheap equality check the resume tests and the
        benchmark harness pin.  The default scope
        is the manifest's scenario list (falling back to every row on
        manifest-less stores), so rows left behind by a *different*
        grid that reused the directory don't pollute the certificate.
        The algorithm is :func:`digest_rows`, shared with
        :meth:`~repro.runtime.fleet.FleetResult.digest`, folded
        streaming over batch digest columns (one shard at a time, no
        sidecar reads, no ScenarioResult objects).
        """
        acc = hashlib.sha256()
        by_prefix = self._scope_by_prefix(self._scope(hashes))
        for prefix in sorted(by_prefix):
            blobs = self._shard_digest_blobs(prefix)
            for ch in by_prefix[prefix]:
                blob = blobs.get(ch)
                if blob is None:
                    continue
                acc.update(ch.encode())
                acc.update(blob)
        return acc.hexdigest()

    def _shard_digest_blobs(self, prefix: str) -> "dict[str, bytes]":
        """Per-row digest payload bytes for one shard (logs overlay
        batches).

        Batches carry the bytes precomputed in their ``digest_json``
        member, so the hot path reads exactly two npz members per batch
        (hash + blob) and touches neither the sidecar nor the value
        columns.
        """
        blobs: "dict[str, bytes]" = {}
        for bp in self._batch_paths(prefix):
            with np.load(bp) as z:
                for h, blob in zip(z["hash"], z["digest_json"]):
                    blobs[h.decode()] = bytes(blob)
        for h, doc in self._log_docs(prefix).items():
            blobs[h] = json.dumps(
                _payload_from_doc(doc), sort_keys=True, allow_nan=False
            ).encode()
        return blobs
