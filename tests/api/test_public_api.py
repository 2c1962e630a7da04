"""The package front door: lazy exports and the executable Quickstart."""

from __future__ import annotations

import doctest
import os
import subprocess
import sys

import pytest

import repro


class TestLazyExports:
    def test_all_matches_docstring_tour(self):
        for name in ("solve", "sweep", "load_study", "Study", "StudyConfig",
                     "StudyResult", "ScenarioSpec", "ScenarioGrid",
                     "FleetResult", "run_fleet", "run_grid", "SweepStore"):
            assert name in repro.__all__, name

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_dir_includes_lazy_names(self):
        listing = dir(repro)
        assert "solve" in listing and "StudyConfig" in listing

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope

    def test_import_stays_light(self):
        # `import repro` must not drag in NumPy-heavy engine modules —
        # that's the whole point of the lazy __getattr__ exports.
        code = (
            "import sys; import repro; "
            "heavy = [m for m in ('repro.api', 'repro.runtime', 'repro.core', "
            "'repro.solvers') if m in sys.modules]; "
            "print(','.join(heavy) or 'CLEAN')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "CLEAN"

    def test_cli_info_stays_light(self):
        # The CLI builds its whole parser, executor names included,
        # before `info` runs; none of it may load the library.
        code = (
            "import sys; from repro.__main__ import main; main(['info']); "
            "heavy = [m for m in ('numpy', 'repro.api', 'repro.runtime', 'repro.core', "
            "'repro.solvers') if m in sys.modules]; "
            "print(','.join(heavy) or 'CLEAN')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip().splitlines()[-1] == "CLEAN"

    def test_studies_never_import_networkx(self):
        # Only FlowNetwork.is_connected uses networkx; importing the
        # package, resolving the backends and running studies must not
        # load it.
        assert _loaded_after_studies("networkx") == "False"

    def test_runtime_never_imports_solvers(self):
        # The solvers sit above the runtime: they dispatch into the
        # backend registry, never the other way round.
        assert _loaded_after_studies("repro.solvers") == "False"

    def test_lazy_access_caches(self):
        first = repro.solve
        assert repro.__dict__["solve"] is first  # cached after first access


def _loaded_after_studies(module: str) -> str:
    """Whether ``module`` is loaded after resolving every backend and
    running one engine and one simulator sweep in a fresh interpreter."""
    code = (
        "import sys; import repro, repro.api\n"
        "from repro.runtime import backends\n"
        "for name in backends.available_backends():\n"
        "    backends.get_backend(name)\n"
        "for kind in ('engine', 'simulator'):\n"
        "    repro.api.sweep(['jacobi'], kind=kind, n_seeds=2,\n"
        "                    max_iterations=20, executor='serial')\n"
        f"print({module!r} in sys.modules)"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SWEEP_CACHE"}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    return out.stdout.strip()


class TestQuickstartDoctest:
    def test_quickstart_examples_execute(self):
        """The docstring's Quickstart is executable — it can never rot."""
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 8  # the tour really runs, not a no-op

    def test_api_package_doctest(self):
        import repro.api

        results = doctest.testmod(repro.api, verbose=False)
        assert results.failed == 0 and results.attempted >= 1
