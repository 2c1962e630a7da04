"""Run the mutation catalogue: tier-1 must fail on every mutant.

Usage::

    python tools/mutants.py             # every entry; or: make mutants
    python tools/mutants.py NAME ...    # only the named entries

Each entry of ``tools/mutants.toml`` is one exact-text edit that breaks
a stated invariant.  The runner first checks that every entry's old
text occurs exactly once in its file, so the catalogue follows the
code, whichever entries run.  Then, for each mutant, it copies the tree
to a temporary directory, applies the edit there (never in the working
tree), runs the tier-1 suite with ``-x`` and requires a test to fail.
It prints the first failing test id per mutant.  The exit status is 1
when a mutant survives, an old text no longer matches exactly once, or
a run ends without a test failure for any other reason (a collection
error or a timeout); 0 when every mutant is killed.  Entries marked
``equivalent`` are only matched, not run.
"""

from __future__ import annotations

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
TIER1 = (sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider")
#: Caches and VCS state: never inputs of a test run.
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
    ".ruff_cache", ".bench_work", "*.egg-info",
)
TIMEOUT_S = 1800


def load_catalogue() -> "list[dict[str, str]]":
    """The catalogue's entries; exits if an old text does not match once."""
    entries = tomllib.loads(CATALOGUE.read_text())["mutant"]
    stale = []
    for e in entries:
        n = (ROOT / e["file"]).read_text().count(e["old"])
        if n != 1:
            stale.append(f"{e['name']}: old text occurs {n} times in {e['file']}")
    if stale:
        sys.exit("stale catalogue entries:\n  " + "\n  ".join(stale))
    return entries


def first_failure(output: str) -> "str | None":
    """The first ``FAILED``/``ERROR`` test id of a pytest ``-rfE`` summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run_mutant(entry: "dict[str, str]", workdir: pathlib.Path) -> "tuple[str, str]":
    """Apply one mutant to a fresh copy and run tier-1 there.

    Returns ``(verdict, detail)``: ``killed`` with the first failing
    test id, ``survived``, or ``error`` with the output's tail.
    """
    tree = workdir / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    target = tree / entry["file"]
    target.write_text(target.read_text().replace(entry["old"], entry["new"], 1))
    # The copy's sources only: an inherited PYTHONPATH could point the
    # run back at the unmutated working tree.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree)]))
    try:
        proc = subprocess.run(
            TIER1, cwd=tree, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "error", f"tier-1 timed out after {TIMEOUT_S} s"
    output = proc.stdout + proc.stderr
    if proc.returncode == 0:
        return "survived", "tier-1 passed"
    failed = first_failure(output)
    if proc.returncode == 1 and failed is not None:
        return "killed", failed
    tail = "\n".join(output.splitlines()[-15:])
    return "error", f"pytest exited {proc.returncode}:\n{tail}"


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
