"""End-to-end tests of the ``python -m repro sweep`` CLI verb."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


def _sweep(*extra: str) -> list[str]:
    return [
        "sweep",
        "--problems", "jacobi",
        "--delays", "zero,uniform",
        "--steering", "cyclic",
        "--seeds", "2",
        "--max-iterations", "400",
        "--executor", "serial",
        *extra,
    ]


class TestSweepCLI:
    def test_list_axes(self, capsys):
        assert main(["sweep", "--list-axes"]) == 0
        out = capsys.readouterr().out
        for axis in ("problem:", "steering:", "delays:", "machine:", "backend:"):
            assert axis in out
        assert "jacobi" in out and "baudet-sqrt" in out
        for backend in ("exact", "flexible", "vectorized", "reference", "shared-memory"):
            assert backend in out

    def test_engine_sweep_runs_and_reports(self, capsys):
        assert main(_sweep("--problems", "jacobi,tridiagonal",
                           "--steering", "cyclic,random-subset",
                           "--seeds", "3")) == 0
        out = capsys.readouterr().out
        # 2 problems x 2 delays x 2 policies x 3 seeds
        assert "24 scenarios" in out
        assert "failures=0" in out
        assert "iterations" in out and "converged" in out

    def test_simulator_sweep(self, capsys):
        assert main([
            "sweep", "--kind", "simulator",
            "--problems", "jacobi",
            "--machines", "uniform,flexible",
            "--seeds", "1",
            "--max-iterations", "200",
            "--executor", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim_time" in out
        assert "failures=0" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        assert main(_sweep("--json", str(path))) == 0
        doc = json.loads(path.read_text())
        assert doc["scenario_count"] == 4
        assert all(r["error"] is None for r in doc["results"])
        assert "wrote" in capsys.readouterr().out

    def test_custom_group_by(self, capsys):
        assert main(_sweep("--group-by", "delays,steering")) == 0
        header = capsys.readouterr().out
        assert "delays" in header and "steering" in header

    def test_every_model_backend_sweeps(self, capsys):
        assert main(_sweep("--backend", "exact,flexible", "--seeds", "1")) == 0
        out = capsys.readouterr().out
        assert "2 backends" in out
        assert "failures=0" in out
        assert "cross-backend" in out  # pivot table printed

    def test_kind_derived_from_machine_backends(self, capsys):
        # No --kind: vectorized,reference backends imply a simulator sweep.
        assert main([
            "sweep",
            "--problems", "jacobi",
            "--machines", "uniform",
            "--backend", "vectorized,reference",
            "--seeds", "1",
            "--max-iterations", "150",
            "--executor", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim_time" in out and "failures=0" in out
        assert "cross-backend" in out

    def test_shared_memory_backend_sweeps(self, capsys):
        assert main([
            "sweep",
            "--problems", "jacobi",
            "--machines", "uniform",
            "--backend", "shared-memory",
            "--seeds", "1",
            "--max-iterations", "2000",
            "--executor", "serial",
        ]) == 0
        out = capsys.readouterr().out
        assert "failures=0" in out

    def test_mixed_backend_kinds_rejected(self, capsys):
        assert main(_sweep("--backend", "exact,vectorized")) == 2
        assert "mix kinds" in capsys.readouterr().err

    def test_unknown_backend_errors(self, capsys):
        assert main(_sweep("--backend", "gpu")) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_unknown_axis_value_errors(self, capsys):
        assert main(_sweep("--delays", "warp-speed")) == 2
        err = capsys.readouterr().err
        assert "unknown delays" in err and "baudet-sqrt" in err

    def test_bad_seeds_errors(self, capsys):
        assert main(_sweep("--seeds", "0")) == 2
        assert "n_seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--executor", "gpu", "invalid choice"),
        ("--chunk-size", "2", "unrecognized arguments"),
    ])
    def test_bad_dispatch_flags_exit_2(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(_sweep(flag, value))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestSweepStoreCLI:
    """--out / --resume / --keep-traces: the resumable sweep workflow."""

    def test_out_writes_store(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(_sweep("--out", str(out))) == 0
        assert "results in" in capsys.readouterr().out
        assert (out / "manifest.json").is_file()
        assert not (out / "fleet.json").exists()  # each row is stored once
        from repro.runtime.sweep_store import SweepStore

        assert len(SweepStore(out, create=False).completed()) == 4

    def test_keep_traces_writes_loadable_traces(self, tmp_path, capsys):
        out = tmp_path / "store"
        assert main(_sweep("--out", str(out), "--keep-traces")) == 0
        assert "traces kept" in capsys.readouterr().out
        from repro.runtime.sweep_store import SweepStore

        store = SweepStore(out, create=False)
        traces = list((out / "traces").glob("*.npz"))
        assert len(traces) == 4
        trace = store.load_trace(traces[0].stem)
        assert trace.n_iterations > 0

    def test_resume_skips_completed(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "store"
        assert main(_sweep("--out", str(out))) == 0
        capsys.readouterr()

        import repro.runtime.fleet as fleet_mod

        def boom(spec, **kwargs):  # resume must not execute anything
            raise AssertionError(f"re-ran completed scenario {spec.key}")

        monkeypatch.setattr(fleet_mod, "execute_scenario", boom)
        assert main(_sweep("--resume", str(out))) == 0
        out_text = capsys.readouterr().out
        assert "resuming" in out_text and "4/4" in out_text

    def test_resume_completes_missing(self, tmp_path, capsys):
        from repro.runtime.fleet import run_grid
        from repro.runtime.sweep_store import SweepStore
        from repro.scenarios.spec import ScenarioGrid

        # Pre-populate the store with only half the grid ("killed" sweep).
        grid = ScenarioGrid(
            problems=("jacobi",), delays=("zero", "uniform"),
            steerings=("cyclic",), n_seeds=2, max_iterations=400,
        )
        out = tmp_path / "store"
        run_grid(grid.expand()[:2], store=SweepStore(out), executor="serial")
        assert main(_sweep("--resume", str(out))) == 0
        assert "2/4" in capsys.readouterr().out
        assert len(SweepStore(out, create=False).completed()) == 4

    def test_resume_keep_traces_counts_traceless_rows_as_incomplete(
        self, tmp_path, capsys
    ):
        out = tmp_path / "store"
        assert main(_sweep("--out", str(out))) == 0  # rows, no traces
        capsys.readouterr()
        assert main(_sweep("--resume", str(out), "--keep-traces")) == 0
        out_text = capsys.readouterr().out
        # run_grid re-executes every traceless row; the banner must agree.
        assert "0/4" in out_text
        assert len(list((out / "traces").glob("*.npz"))) == 4

    def test_resume_missing_dir_errors(self, tmp_path, capsys):
        assert main(_sweep("--resume", str(tmp_path / "nope"))) == 2
        assert "no sweep store" in capsys.readouterr().err

    def test_resume_or_cache_of_a_retired_store_exits_2(self, tmp_path, capsys,
                                                       tree_bytes):
        manifest = tmp_path / "old" / "manifest.json"
        manifest.parent.mkdir()
        manifest.write_text('{"format_version": 1, "scenarios": []}')
        for extra in (("--resume", str(manifest.parent)),
                      ("--cache", str(manifest.parent))):
            assert main(_sweep(*extra)) == 2, extra
            assert str(manifest) in capsys.readouterr().err, extra
        assert tree_bytes(manifest.parent) == {"manifest.json": manifest.read_bytes()}

    def test_keep_traces_requires_out(self, capsys):
        assert main(_sweep("--keep-traces")) == 2
        assert "--keep-traces requires" in capsys.readouterr().err

    def test_conflicting_out_and_resume(self, tmp_path, capsys):
        assert main(_sweep("--out", str(tmp_path / "a"),
                           "--resume", str(tmp_path / "b"))) == 2
        assert "different stores" in capsys.readouterr().err
