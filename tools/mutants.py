"""Run the mutation catalogue: tier-1 must fail on every mutant.

Usage::

    python tools/mutants.py             # every entry; or: make mutants
    python tools/mutants.py NAME ...    # only the named entries

Each entry of ``tools/mutants.toml`` is one exact-text edit that breaks
a stated invariant.  The runner first checks the catalogue against the
code, whichever entries run: every entry's old text occurs exactly
once in its file, and every entry that is run names its known killer
(``killed_by``, a pytest node id) in a test file that exists and
defines that test.  Then, for each mutant, it copies the tree to a
temporary directory and applies the edit there (never in the working
tree).  It runs the known killer alone first; a failing test kills the
mutant.  When the killer passes or collects nothing, the runner falls
back to the tier-1 suite with ``-x``, requires a test to fail and
prints that test as the new killer, for the entry's ``killed_by``.
The exit status is 1 when a mutant survives, the catalogue does not
match the code, or a run ends without a test failure for any other
reason (a collection error or a timeout); 0 when every mutant is
killed.  Entries marked ``equivalent`` are only matched, not run.
"""

from __future__ import annotations

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tools" / "mutants.toml"
PYTEST = (sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider")
TIER1 = (*PYTEST, "-x")
#: Caches and VCS state: never inputs of a test run.
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
    ".ruff_cache", ".bench_work", "*.egg-info",
)
TIMEOUT_S = 1800


def load_catalogue() -> "list[dict[str, str]]":
    """The catalogue's entries; exits if one does not match the code.

    An old text must occur exactly once in its file, and an entry that
    is run must name a ``killed_by`` test that exists.
    """
    entries = tomllib.loads(CATALOGUE.read_text())["mutant"]
    stale = []
    for e in entries:
        n = (ROOT / e["file"]).read_text().count(e["old"])
        if n != 1:
            stale.append(f"{e['name']}: old text occurs {n} times in {e['file']}")
        if "equivalent" not in e:
            problem = missing_test(e.get("killed_by"))
            if problem:
                stale.append(f"{e['name']}: killed_by {problem}")
    if stale:
        sys.exit("stale catalogue entries:\n  " + "\n  ".join(stale))
    return entries


def missing_test(node_id: "str | None") -> "str | None":
    """Why ``node_id`` names no test in the tree, or ``None`` if it does.

    The node id is ``path::[Class::]function[params]``; the function
    must be defined in that class (or at module level) of that file.
    """
    if not node_id:
        return "is not set"
    path, *names = node_id.split("[", 1)[0].split("::")
    if not (ROOT / path).is_file():
        return f"{node_id!r}: no file {path}"
    scope: "list[ast.stmt]" = ast.parse((ROOT / path).read_text()).body
    node: "ast.stmt | None" = None
    for name in names:
        found = [n for n in scope if getattr(n, "name", None) == name]
        if not found:
            return f"{node_id!r}: no {name} in {path}"
        node = found[0]
        scope = getattr(node, "body", [])
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return f"{node_id!r}: names no test function"
    return None


def first_failure(output: str) -> "str | None":
    """The first ``FAILED``/``ERROR`` test id of a pytest ``-rfE`` summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run_pytest(args: "tuple[str, ...]", tree: pathlib.Path) -> "tuple[str, str]":
    """Run pytest on ``tree``.

    Returns ``(verdict, detail)``: ``killed`` with the first failing
    test id, ``survived``, or ``error`` with the output's tail.
    """
    # The copy's sources only: an inherited PYTHONPATH could point the
    # run back at the unmutated working tree.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]))
    try:
        proc = subprocess.run(
            args, cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "error", f"pytest timed out after {TIMEOUT_S} s"
    output = proc.stdout + proc.stderr
    if proc.returncode == 0:
        return "survived", "tests passed"
    failed = first_failure(output)
    if proc.returncode == 1 and failed is not None:
        return "killed", failed
    tail = "\n".join(output.splitlines()[-15:])
    return "error", f"pytest exited {proc.returncode}:\n{tail}"


def run_mutant(entry: "dict[str, str]", workdir: pathlib.Path) -> "tuple[str, str]":
    """Apply one mutant to a fresh copy and run its killer, then tier-1.

    Returns ``(verdict, detail)`` as :func:`run_pytest` does; a killer
    found by the tier-1 fallback is marked as new.
    """
    tree = workdir / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    target = tree / entry["file"]
    target.write_text(target.read_text().replace(entry["old"], entry["new"], 1))
    verdict, detail = run_pytest((*PYTEST, entry["killed_by"]), tree)
    if verdict == "killed":
        return verdict, detail
    verdict, detail = run_pytest(TIER1, tree)
    if verdict == "killed":
        detail += f" (new killer: killed_by {entry['killed_by']!r} did not fail)"
    return verdict, detail


def main(names: "list[str]") -> int:
    entries = load_catalogue()
    if names:
        unknown = sorted(set(names) - {e["name"] for e in entries})
        if unknown:
            sys.exit(f"unknown mutants: {', '.join(unknown)}")
        entries = [e for e in entries if e["name"] in names]
    verdicts: "dict[str, int]" = {}
    with tempfile.TemporaryDirectory(prefix="repro-mutants-") as tmp:
        for i, entry in enumerate(entries, 1):
            head = f"[{i}/{len(entries)}] {entry['name']}"
            if "equivalent" in entry:
                verdicts["equivalent"] = verdicts.get("equivalent", 0) + 1
                print(f"{head}: equivalent, not run", flush=True)
                continue
            t0 = time.perf_counter()
            verdict, detail = run_mutant(entry, pathlib.Path(tmp))
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            print(f"{head}: {verdict} ({time.perf_counter() - t0:.0f} s): {detail}",
                  flush=True)
            if verdict != "killed":
                print(f"    invariant: {' '.join(entry['invariant'].split())}")
    print("mutants: " + ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items())))
    return 0 if set(verdicts) <= {"killed", "equivalent"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
