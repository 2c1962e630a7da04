"""Command-line interface: ``python -m repro {info,list,run,sweep,study,store}``.

``sweep`` and ``study`` are two spellings of the same thing: both build
a :class:`~repro.api.config.StudyConfig` and execute it through
:class:`~repro.api.study.Study` — ``sweep`` from legacy flags (kept
stable), ``study`` from a declarative ``.toml``/``.json`` file with
``run``/``resume``/``report`` verbs.  ``study run --shard i/k`` runs
one content-hash-stable shard of the grid (one host of ``k``), and
``store merge`` recombines the per-host stores into one whose
determinism digest matches a single-host run bit for bit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

from repro import __version__
from repro.dispatch import EXECUTORS
from repro.experiments import EXPERIMENTS, benchmarks_dir


def _cmd_info() -> int:
    print(f"repro {__version__}")
    print(
        "Reproduction of: El-Baz, 'On Parallel or Distributed Asynchronous "
        "Iterations with Unbounded Delays and Possible Out of Order Messages "
        "or Flexible Communication for Convex Optimization Problems and "
        "Machine Learning', IPDPSW 2022."
    )
    print(f"{len(EXPERIMENTS)} registered experiments; see `python -m repro list`.")
    return 0


def _cmd_list() -> int:
    width = max(len(e.exp_id) for e in EXPERIMENTS)
    for e in EXPERIMENTS:
        print(f"{e.exp_id.ljust(width)}  {e.paper_artifact}  [{e.bench_module}]")
    return 0


def _cmd_run(exp_id: str) -> int:
    matches = [e for e in EXPERIMENTS if e.exp_id.lower() == exp_id.lower()]
    if not matches:
        print(f"unknown experiment {exp_id!r}; try `python -m repro list`", file=sys.stderr)
        return 2
    bench = benchmarks_dir() / matches[0].bench_module
    cmd = [sys.executable, "-m", "pytest", str(bench), "--benchmark-only", "-q", "-s"]
    return subprocess.call(cmd)


def _csv(value: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in value.split(",") if s.strip())
    if not items:
        raise argparse.ArgumentTypeError(f"empty list: {value!r}")
    return items


def _shard(value: str) -> tuple[int, int]:
    """``"i/k"`` (1-based, e.g. ``2/4``) -> 0-based ``(index, num_shards)``."""
    try:
        i_text, k_text = value.split("/", 1)
        i, k = int(i_text), int(k_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like i/k (e.g. 2/4), got {value!r}"
        ) from None
    if k < 1 or not 1 <= i <= k:
        raise argparse.ArgumentTypeError(
            f"shard needs 1 <= i <= k, got {value!r}"
        )
    return (i - 1, k)


# ----------------------------------------------------------------------
# The shared study executor (sweep and study both land here)
# ----------------------------------------------------------------------

def _grid_shape(config) -> str:
    """``2 problems x 2 delay models x 2 policies x 3 seeds`` banner text."""
    shape = f"{len(config.problems)} problems x "
    if config.kind == "engine":
        shape += (
            f"{len(config.delays)} delay models x "
            f"{len(config.steerings)} policies"
        )
    else:
        shape += f"{len(config.machines)} machines"
        if tuple(str(f) for f in config.faults) != ("none",):
            shape += f" x {len(config.faults)} faults"
        if tuple(str(t) for t in config.topologies) != ("native",):
            shape += f" x {len(config.topologies)} topologies"
    if len(config.solver.backends) > 1:
        shape += f" x {len(config.solver.backends)} backends"
    return shape + f" x {config.n_seeds} seeds"


def _execute_study(
    config,
    *,
    prog: str,
    resume: bool,
    json_path: "str | None" = None,
    print_digest: bool = False,
    shard: "tuple[int, int] | None" = None,
    cache: "bool | None" = None,
) -> int:
    """Run one validated StudyConfig, printing the standard banners/report."""
    from repro.api.study import Study
    from repro.runtime.sweep_store import SweepStore

    study = Study(config)
    specs = study.shard_specs(shard)
    banner = (
        f"{prog}: {len(specs)} scenarios ({_grid_shape(config)}), "
        f"executor={config.execution.executor}"
    )
    if shard is not None:
        banner += f", shard {shard[0] + 1}/{shard[1]} of {config.size} scenarios"
    print(banner)
    out_dir = config.store.out
    if resume:
        try:
            store = SweepStore(out_dir, create=False)
        except FileNotFoundError:
            print(f"{prog}: no sweep store at {out_dir} to resume", file=sys.stderr)
            return 2
        # The same completeness rule run_grid applies, so the banner
        # and what actually re-executes cannot disagree.
        done = len(store.load_complete_results(
            specs, require_trace=config.store.keep_traces
        ))
        print(f"{prog}: resuming from {out_dir}: {done}/{len(specs)} "
              "scenarios already complete")

    result = study.run(resume=resume, shard=shard, cache=cache)
    if out_dir is not None:
        print(f"{prog}: results in {out_dir} "
              + ("(traces kept)" if config.store.keep_traces else ""))

    print(result.report(title=None))
    if print_digest:
        print(f"{prog}: determinism digest {result.digest()}")

    for r in result.failures():
        print(f"FAILED {r.key}: {r.error}", file=sys.stderr)
    if json_path is not None:
        pathlib.Path(json_path).write_text(result.fleet.to_json())
        print(f"wrote {json_path}")
    return 1 if result.failures() else 0


# ----------------------------------------------------------------------
# sweep: legacy flags, now a thin shim that builds a StudyConfig
# ----------------------------------------------------------------------

def _cmd_list_axes() -> int:
    """Axis tables rendered from registry introspection (no hand lists)."""
    from repro.runtime import backends as _backends
    from repro.scenarios.registry import describe_axes

    for axis, entries in describe_axes().items():
        print(f"{axis}:")
        for e in entries:
            print(f"  {e.describe():<44}  {e.summary}")
    print(
        "backend: "
        f"{', '.join(_backends.available_backends('model'))} (--kind engine); "
        f"{', '.join(_backends.available_backends('machine'))} (--kind simulator)"
    )
    print(
        "dispatch: planned by the fleet (each batch group one batched call "
        "when serial, at most one slice per worker on a pool; other "
        "scenarios one per unit when serial, cost-balanced pool chunks), "
        "--cache DIR / REPRO_SWEEP_CACHE (cross-study result cache), "
        "study run --shard i/k + store merge (multi-host sweeps)"
    )
    return 0


def _sweep_config(args: argparse.Namespace):
    """Compile the legacy sweep flags into a validated StudyConfig."""
    from repro.api.config import (
        ExecutionSpec,
        ReportSpec,
        SolverRef,
        StoreSpec,
        StudyConfig,
        infer_kind,
    )

    backends = tuple(args.backend) if args.backend else ()
    out_dir = args.out if args.resume is None else args.resume
    return StudyConfig(
        name="sweep",
        problems=tuple(args.problems),
        solver=SolverRef(
            kind=infer_kind(backends, args.kind),
            backends=backends,
            max_iterations=args.max_iterations,
            tol=args.tol,
        ),
        steerings=tuple(args.steering),
        delays=tuple(args.delays),
        machines=tuple(args.machines),
        faults=tuple(args.faults),
        topologies=tuple(args.topologies),
        n_seeds=args.seeds,
        master_seed=args.master_seed,
        store=StoreSpec(
            out=out_dir,
            resume=args.resume is not None,
            keep_traces=args.keep_traces,
        ),
        report=ReportSpec(group_by=args.group_by or ()),
        execution=ExecutionSpec(
            executor=args.executor,
            max_workers=args.workers,
            cache_dir=args.cache,
        ),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list_axes:
        return _cmd_list_axes()

    # Path conflicts are CLI-level mistakes; keep their messages stable.
    # A --resume directory that holds no store is refused where
    # _execute_study opens it.
    if args.resume is not None:
        resume_path = pathlib.Path(args.resume)
        if args.out is not None and pathlib.Path(args.out).resolve() != resume_path.resolve():
            print("sweep: --out and --resume point at different stores", file=sys.stderr)
            return 2
    if args.keep_traces and args.out is None and args.resume is None:
        print("sweep: --keep-traces requires --out (or --resume)", file=sys.stderr)
        return 2

    try:
        config = _sweep_config(args)
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"sweep: {msg}", file=sys.stderr)
        return 2
    try:
        return _execute_study(
            config, prog="sweep", resume=args.resume is not None,
            json_path=args.json, cache=False if args.no_cache else None,
        )
    except ValueError as exc:  # a store or cache this version refuses
        print(f"sweep: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# study: the declarative front door
# ----------------------------------------------------------------------

def _cmd_study(args: argparse.Namespace) -> int:
    import dataclasses
    import tomllib

    from repro.api.config import ExecutionSpec, StudyConfig
    from repro.api.study import Study
    from repro.api.toml_io import load_study_file

    try:
        doc = load_study_file(args.study_file)
    except FileNotFoundError:
        print(f"study: no such study file: {args.study_file}", file=sys.stderr)
        return 2
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        print(f"study: cannot parse {args.study_file}: {exc}", file=sys.stderr)
        return 2
    try:
        config = StudyConfig.from_dict(doc)
        if args.out is not None or args.keep_traces:
            config = config.with_store(
                args.out, keep_traces=True if args.keep_traces else None
            )
        overrides = (args.executor, args.workers, args.cache)
        if any(v is not None for v in overrides):
            config = dataclasses.replace(
                config,
                execution=ExecutionSpec(
                    executor=args.executor or config.execution.executor,
                    max_workers=(
                        args.workers if args.workers is not None
                        else config.execution.max_workers
                    ),
                    cache_dir=(
                        args.cache if args.cache is not None
                        else config.execution.cache_dir
                    ),
                ),
            )
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"study: {msg}", file=sys.stderr)
        return 2

    if args.shard is not None and args.verb == "report":
        # A report always reads the whole store; "report one shard"
        # has no store of its own to read.
        print("study: --shard applies to run/resume, not report", file=sys.stderr)
        return 2

    if args.verb == "report":
        try:
            result = Study(config).result()
        except (FileNotFoundError, ValueError) as exc:
            msg = exc.args[0] if exc.args else str(exc)
            print(f"study: {msg}", file=sys.stderr)
            return 2
        total = config.size
        print(f"study: {config.name!r} from {config.store.out}: "
              f"{result.scenario_count}/{total} scenarios complete")
        print(result.report())
        print(f"study: determinism digest {result.digest()}")
        if args.json is not None:
            pathlib.Path(args.json).write_text(result.fleet.to_json())
            print(f"wrote {args.json}")
        return 0

    resume = args.verb == "resume" or config.store.resume
    if resume and config.store.out is None:
        print("study: resume needs a store: set [store] out or pass --out",
              file=sys.stderr)
        return 2
    try:
        return _execute_study(
            config, prog="study", resume=resume, json_path=args.json,
            print_digest=True, shard=args.shard,
            cache=False if args.no_cache else None,
        )
    except ValueError as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"study: {msg}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# store: inspect and recombine sweep stores
# ----------------------------------------------------------------------

def _cmd_store(args: argparse.Namespace) -> int:
    from repro.runtime.sweep_store import SweepStore

    # Opening is where a store can be refused: missing, or a manifest
    # that is unreadable or of a format this version does not read.
    try:
        if args.store_verb == "merge":
            shards = [SweepStore(p, create=False) for p in args.shards]
            merged = SweepStore(args.out)
        else:
            store = SweepStore(args.store_dir, create=False)
    except (FileNotFoundError, ValueError) as exc:
        print(f"store: {exc}", file=sys.stderr)
        return 2
    if args.store_verb == "merge":
        merged.merge(*shards)
        hashes = merged.manifest_hashes()
        done = len(merged.completed() & set(hashes))
        digest = merged.digest()
        if args.json:
            # Machine-readable form for campaign tooling: stable keys,
            # one JSON document on stdout, nothing else.
            print(json.dumps({
                "out": str(args.out),
                "shards": [str(p) for p in args.shards],
                "scenarios": len(hashes),
                "completed": done,
                "digest": digest,
            }, indent=2))
            return 0
        print(
            f"store: merged {len(shards)} shard store"
            f"{'s' if len(shards) != 1 else ''} into {args.out}: "
            f"{done}/{len(hashes)} scenarios complete"
        )
        print(f"store: determinism digest {digest}")
        return 0
    if args.store_verb == "digest":
        if args.json:
            try:
                scenarios = len(store.manifest_hashes())
            except FileNotFoundError:
                scenarios = None
            print(json.dumps({
                "store": str(args.store_dir),
                "layout": "packed",
                "digest": store.digest(),
                "rows": len(store.completed()),
                "scenarios": scenarios,
            }, indent=2))
            return 0
        print(store.digest())
        return 0
    print(f"store: unknown verb {args.store_verb!r}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="asynchronous-iterations reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="print version and paper banner")
    sub.add_parser("list", help="list registered experiments")
    run = sub.add_parser("run", help="run one experiment's benchmark")
    run.add_argument("exp_id", help="experiment id from `list` (e.g. THM1)")

    sweep = sub.add_parser(
        "sweep",
        help="run a scenario grid through the fleet runner",
        description=(
            "Expand a declarative scenario grid (problem x delay model x "
            "steering policy x seeds, or problem x machine x seeds) and "
            "execute it concurrently, printing per-group medians.  These "
            "flags build a StudyConfig: `python -m repro study` runs the "
            "same thing from a declarative TOML/JSON file."
        ),
    )
    sweep.add_argument("--kind", choices=("engine", "simulator"), default=None,
                       help="scenario kind; default: derived from --backend "
                            "(engine when no backend is given)")
    sweep.add_argument("--problems", type=_csv, default=("jacobi", "tridiagonal"),
                       help="comma-separated problem names (see --list-axes)")
    sweep.add_argument("--delays", type=_csv, default=("uniform", "baudet-sqrt"),
                       help="delay model names (engine kind)")
    sweep.add_argument("--steering", type=_csv, default=("cyclic", "random-subset"),
                       help="steering policy names (engine kind)")
    sweep.add_argument("--machines", type=_csv, default=("uniform", "flexible"),
                       help="machine archetype names (simulator kind)")
    sweep.add_argument("--faults", type=_csv, default=("none",),
                       help="fault model names (simulator kind; see --list-axes). "
                            "Each adds a grid axis of injected crash/limplock/"
                            "message-fault scenarios; default none keeps the "
                            "sweep fault-free and bit-identical to historical "
                            "digests")
    sweep.add_argument("--topologies", type=_csv, default=("native",),
                       help="network topology names (simulator kind; see "
                            "--list-axes).  Overrides the machine archetype's "
                            "channel graph; default native keeps the "
                            "archetype's own channels")
    sweep.add_argument("--seeds", type=int, default=3, help="seed replicates per combo")
    sweep.add_argument("--master-seed", type=int, default=0)
    sweep.add_argument("--backend", type=_csv, default=None,
                       help="comma-separated execution backends from the runtime "
                            "registry (engine sweeps: exact, flexible; simulator "
                            "sweeps: vectorized, reference, shared-memory; see "
                            "--list-axes).  More than one backend adds a grid "
                            "axis sharing seeds across backends and prints a "
                            "cross-backend comparison table; default: the "
                            "kind's canonical backend")
    sweep.add_argument("--max-iterations", type=int, default=2000)
    sweep.add_argument("--tol", type=float, default=1e-8)
    sweep.add_argument("--executor", choices=EXECUTORS, default="auto")
    sweep.add_argument("--workers", type=int, default=None, help="pool width cap")
    sweep.add_argument("--cache", default=None, metavar="DIR",
                       help="cross-study result cache: completed scenarios are "
                            "looked up there by content hash before executing "
                            "and written back after (default: the "
                            "REPRO_SWEEP_CACHE environment variable)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the result cache even when "
                            "REPRO_SWEEP_CACHE is set")
    sweep.add_argument("--group-by", type=_csv, default=None,
                       help="spec fields for the median table (default: problem,delays)")
    sweep.add_argument("--json", default=None, metavar="PATH",
                       help="also write the full FleetResult as JSON")
    sweep.add_argument("--out", default=None, metavar="DIR",
                       help="stream per-scenario results into a content-addressed "
                            "sweep store at DIR (sharded manifest + packed row "
                            "batches, written as workers finish)")
    sweep.add_argument("--resume", default=None, metavar="DIR",
                       help="resume an interrupted sweep from the store at DIR: "
                            "scenarios with a persisted result are loaded, only "
                            "the missing ones run (implies --out DIR)")
    sweep.add_argument("--keep-traces", action="store_true",
                       help="persist each scenario's realized (S,L) trace as "
                            "traces/<hash>.npz in the sweep store (requires "
                            "--out/--resume; each trace is saved and dropped in "
                            "its worker, so memory holds one trace per worker)")
    sweep.add_argument("--list-axes", action="store_true",
                       help="print registered axis names, parameters and "
                            "defaults (from registry introspection) and exit")

    study = sub.add_parser(
        "study",
        help="run/resume/report a declarative study file",
        description=(
            "Execute a declarative study: a TOML (or JSON) StudyConfig "
            "naming problems, solver backends, grid axes, store and report "
            "options.  `run` executes it, `resume` completes an interrupted "
            "store bit-identically, `report` renders a (possibly partial) "
            "store without running anything."
        ),
    )
    study.add_argument("verb", choices=("run", "resume", "report"),
                       help="what to do with the study")
    study.add_argument("study_file", metavar="STUDY",
                       help="path to the study config (.toml or .json)")
    study.add_argument("--out", default=None, metavar="DIR",
                       help="override the config's [store] out directory")
    study.add_argument("--keep-traces", action="store_true",
                       help="override the config to persist realized traces")
    study.add_argument("--executor", choices=EXECUTORS,
                       default=None, help="override the config's executor")
    study.add_argument("--workers", type=int, default=None,
                       help="override the config's pool width cap")
    study.add_argument("--shard", type=_shard, default=None, metavar="i/k",
                       help="run only shard i of k (1-based, e.g. 2/4): a "
                            "content-hash-stable, seed-preserving slice of the "
                            "grid; run each shard on its own host with its own "
                            "--out store, then recombine with "
                            "`python -m repro store merge`")
    study.add_argument("--cache", default=None, metavar="DIR",
                       help="override the config's cross-study result cache "
                            "directory (default: [execution] cache_dir, else "
                            "the REPRO_SWEEP_CACHE environment variable)")
    study.add_argument("--no-cache", action="store_true",
                       help="disable the result cache for this invocation")
    study.add_argument("--json", default=None, metavar="PATH",
                       help="also write the full FleetResult as JSON")

    store = sub.add_parser(
        "store",
        help="inspect/merge content-addressed sweep stores",
        description=(
            "Operate on sweep-store directories.  `merge` recombines the "
            "per-host stores of a sharded study into one store whose "
            "determinism digest is bit-identical to a single-host run; "
            "`digest` prints a store's digest for cross-host comparison.  "
            "A store whose manifest is not of the current format_version "
            "is refused (exit 2) before anything on disk changes."
        ),
    )
    store_sub = store.add_subparsers(dest="store_verb", required=True)
    merge = store_sub.add_parser(
        "merge", help="merge shard stores into one certified store"
    )
    merge.add_argument("--out", required=True, metavar="DIR",
                       help="destination store (created if missing; merging "
                            "into an existing store is incremental)")
    merge.add_argument("shards", nargs="+", metavar="SHARD",
                       help="shard store directories to merge in")
    merge.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON summary instead "
                            "of prose")
    digest = store_sub.add_parser(
        "digest", help="print a store's determinism digest"
    )
    digest.add_argument("store_dir", metavar="DIR", help="sweep store directory")
    digest.add_argument("--json", action="store_true",
                        help="print digest plus layout/row counts as JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "info" or args.command is None:
            return _cmd_info()
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args.exp_id)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "study":
            return _cmd_study(args)
        if args.command == "store":
            return _cmd_store(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
