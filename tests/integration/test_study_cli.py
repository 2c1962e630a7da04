"""End-to-end tests of ``python -m repro study run|resume|report``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.api import SolverRef, StoreSpec, StudyConfig
from repro.runtime.fleet import run_grid
from repro.runtime.sweep_store import SweepStore


@pytest.fixture()
def study_file(tmp_path):
    cfg = StudyConfig(
        name="cli-study",
        problems=(("jacobi", {"n": 16}),),
        solver=SolverRef(max_iterations=400),
        delays=("zero", "uniform"),
        n_seeds=2,
        store=StoreSpec(out=str(tmp_path / "store")),
        execution={"executor": "serial"},
    )
    path = tmp_path / "study.toml"
    path.write_text(cfg.to_toml())
    return path, cfg


def _digest_from(output: str) -> str:
    lines = [ln for ln in output.splitlines() if "determinism digest" in ln]
    assert lines, output
    return lines[-1].rsplit(" ", 1)[-1]


class TestStudyRun:
    def test_run_writes_store_and_reports(self, study_file, capsys):
        path, cfg = study_file
        assert main(["study", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert "failures=0" in out
        assert "determinism digest" in out
        store = SweepStore(cfg.store.out, create=False)
        assert len(store.completed()) == 4
        assert store.digest() == _digest_from(out)

    def test_out_override(self, study_file, tmp_path, capsys):
        path, _ = study_file
        other = tmp_path / "elsewhere"
        assert main(["study", "run", str(path), "--out", str(other)]) == 0
        assert (other / "manifest.json").is_file()

    def test_json_export(self, study_file, tmp_path, capsys):
        path, _ = study_file
        json_path = tmp_path / "fleet.json"
        assert main(["study", "run", str(path), "--json", str(json_path)]) == 0
        doc = json.loads(json_path.read_text())
        assert doc["scenario_count"] == 4

    def test_missing_file_errors(self, tmp_path, capsys):
        assert main(["study", "run", str(tmp_path / "nope.toml")]) == 2
        assert "no such study file" in capsys.readouterr().err

    def test_bad_toml_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("name = [unclosed")
        assert main(["study", "run", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_unknown_name_in_file_suggests(self, tmp_path, capsys):
        path = tmp_path / "typo.toml"
        path.write_text('[[problems]]\nname = "jacobbi"\n')
        assert main(["study", "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown problem" in err and "did you mean 'jacobi'" in err

    def test_unknown_key_in_file_suggests(self, tmp_path, capsys):
        path = tmp_path / "typo.toml"
        path.write_text('n_seed = 2\n\n[[problems]]\nname = "jacobi"\n')
        assert main(["study", "run", str(path)]) == 2
        assert "did you mean 'n_seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize("section,line,message", [
        ("execution", "max_worker = 4", "did you mean 'max_workers'"),
        ("store", "keep_trace = true", "did you mean 'keep_traces'"),
        ("report", "group = []", "unknown report key 'group'"),
        ("solver", "max_iteration = 5", "did you mean 'max_iterations'"),
    ])
    def test_unknown_section_key_exits_2(self, tmp_path, capsys, section,
                                         line, message):
        path = tmp_path / "typo.toml"
        path.write_text(f'[{section}]\n{line}\n\n[[problems]]\nname = "jacobi"\n')
        assert main(["study", "run", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestStudyResumeReport:
    def test_kill_and_resume_reproduces_digest(self, study_file, capsys):
        path, cfg = study_file
        assert main(["study", "run", str(path)]) == 0
        uninterrupted = _digest_from(capsys.readouterr().out)

        # Wipe the store and "kill" a fresh run after 2/4 scenarios.
        import shutil

        shutil.rmtree(cfg.store.out)
        specs = cfg.specs()
        run_grid(specs[:2], store=SweepStore(cfg.store.out), executor="serial")

        assert main(["study", "resume", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resuming" in out and "2/4" in out
        assert _digest_from(out) == uninterrupted

    def test_resume_without_store_errors(self, study_file, capsys):
        path, _ = study_file
        assert main(["study", "resume", str(path)]) == 2
        assert "no sweep store" in capsys.readouterr().err

    def test_report_without_running(self, study_file, capsys):
        path, cfg = study_file
        assert main(["study", "run", str(path)]) == 0
        run_digest = _digest_from(capsys.readouterr().out)
        assert main(["study", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4/4 scenarios complete" in out
        assert _digest_from(out) == run_digest

    def test_report_on_partial_store(self, study_file, capsys):
        path, cfg = study_file
        run_grid(cfg.specs()[:2], store=SweepStore(cfg.store.out),
                 executor="serial")
        assert main(["study", "report", str(path)]) == 0
        assert "2/4 scenarios complete" in capsys.readouterr().out

    def test_report_missing_store_errors(self, study_file, capsys):
        path, _ = study_file
        assert main(["study", "report", str(path)]) == 2
        assert "no sweep store" in capsys.readouterr().err

    def test_report_on_retired_store_exits_2(
        self, study_file, capsys, write_retired_store, tree_bytes
    ):
        path, cfg = study_file
        rows = run_grid(cfg.specs()[:2], executor="serial").results
        root = write_retired_store(cfg.store.out, rows)
        before = tree_bytes(root)
        assert main(["study", "report", str(path)]) == 2
        captured = capsys.readouterr()
        assert str(root / "manifest.json") in captured.err
        assert "Re-run the study" in captured.err
        assert tree_bytes(root) == before

    def test_report_json_export(self, study_file, tmp_path, capsys):
        path, _ = study_file
        assert main(["study", "run", str(path)]) == 0
        capsys.readouterr()
        json_path = tmp_path / "partial.json"
        assert main(["study", "report", str(path), "--json", str(json_path)]) == 0
        assert json.loads(json_path.read_text())["scenario_count"] == 4


class TestSweepIsAStudyShim:
    def test_sweep_builds_study_config(self, monkeypatch):
        """The legacy flags compile to a StudyConfig — one execution path."""
        import repro.__main__ as cli

        captured = {}
        real = cli._execute_study

        def spy(config, **kwargs):
            captured["config"] = config
            return real(config, **kwargs)

        monkeypatch.setattr(cli, "_execute_study", spy)
        assert main([
            "sweep", "--problems", "jacobi", "--delays", "zero",
            "--steering", "cyclic", "--seeds", "1",
            "--max-iterations", "200", "--executor", "serial",
        ]) == 0
        cfg = captured["config"]
        assert isinstance(cfg, StudyConfig)
        assert cfg.solver.max_iterations == 200
        assert [p.name for p in cfg.problems] == ["jacobi"]
        assert cfg.execution.executor == "serial"

    def test_sweep_and_study_agree_on_digest(self, tmp_path, capsys):
        """The same grid through both front ends lands identical stores."""
        sweep_store = tmp_path / "via-sweep"
        assert main([
            "sweep", "--problems", "jacobi", "--delays", "zero,uniform",
            "--steering", "cyclic", "--seeds", "2",
            "--max-iterations", "400", "--executor", "serial",
            "--out", str(sweep_store),
        ]) == 0
        capsys.readouterr()

        cfg = StudyConfig(
            problems=("jacobi",),
            solver=SolverRef(max_iterations=400),
            delays=("zero", "uniform"),
            steerings=("cyclic",),
            n_seeds=2,
            store=StoreSpec(out=str(tmp_path / "via-study")),
            execution={"executor": "serial"},
        )
        study_file = tmp_path / "s.toml"
        study_file.write_text(cfg.to_toml())
        assert main(["study", "run", str(study_file)]) == 0
        digest = _digest_from(capsys.readouterr().out)
        assert SweepStore(sweep_store, create=False).digest() == digest


class TestShardAndMerge:
    """`study run --shard i/k` + `store merge`: the multi-host workflow."""

    def test_sharded_run_merges_to_single_host_digest(self, study_file, tmp_path, capsys):
        path, cfg = study_file
        assert main(["study", "run", str(path)]) == 0
        single_digest = _digest_from(capsys.readouterr().out)

        shard_dirs = [str(tmp_path / f"host{i}") for i in (1, 2)]
        for i, d in enumerate(shard_dirs, start=1):
            assert main(["study", "run", str(path), "--shard", f"{i}/2",
                         "--out", d]) == 0
            out = capsys.readouterr().out
            assert f"shard {i}/2" in out

        merged = str(tmp_path / "merged")
        assert main(["store", "merge", "--out", merged, *shard_dirs]) == 0
        out = capsys.readouterr().out
        assert "4/4 scenarios complete" in out
        assert _digest_from(out.replace("determinism digest",
                                        "determinism digest")) == single_digest

        assert main(["store", "digest", merged]) == 0
        assert capsys.readouterr().out.strip() == single_digest

    def test_shard_flag_validation(self, study_file, capsys):
        path, _ = study_file
        with pytest.raises(SystemExit):
            main(["study", "run", str(path), "--shard", "4"])
        with pytest.raises(SystemExit):
            main(["study", "run", str(path), "--shard", "3/2"])
        with pytest.raises(SystemExit):
            main(["study", "run", str(path), "--shard", "0/2"])

    def test_shard_rejected_for_report(self, study_file, capsys):
        path, _ = study_file
        assert main(["study", "report", str(path), "--shard", "1/2"]) == 2
        assert "--shard applies to run/resume" in capsys.readouterr().err

    def test_store_merge_missing_shard_errors(self, tmp_path, capsys):
        assert main(["store", "merge", "--out", str(tmp_path / "m"),
                     str(tmp_path / "ghost")]) == 2
        assert "no sweep store" in capsys.readouterr().err

    def test_store_digest_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "digest", str(tmp_path / "ghost")]) == 2
        assert "no sweep store" in capsys.readouterr().err


class TestCacheFlags:
    """`--cache` / `--no-cache` / REPRO_SWEEP_CACHE on the CLI."""

    def test_cache_flag_makes_second_study_instant(self, study_file, tmp_path,
                                                   capsys, count_runs):
        path, _ = study_file
        cache = str(tmp_path / "cache")
        assert main(["study", "run", str(path), "--cache", cache,
                     "--out", str(tmp_path / "a")]) == 0
        first = len(count_runs)
        assert first == 4
        d1 = _digest_from(capsys.readouterr().out)
        assert main(["study", "run", str(path), "--cache", cache,
                     "--out", str(tmp_path / "b")]) == 0
        assert len(count_runs) == first  # all four were cache hits
        assert _digest_from(capsys.readouterr().out) == d1

    def test_no_cache_overrides_env(self, study_file, tmp_path, capsys, monkeypatch,
                                    count_runs):
        from repro.runtime.fleet import CACHE_ENV_VAR

        path, _ = study_file
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        assert main(["study", "run", str(path), "--no-cache",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["study", "run", str(path), "--no-cache",
                     "--out", str(tmp_path / "b")]) == 0
        assert len(count_runs) == 8  # no cache: both runs executed everything

    def test_sweep_accepts_dispatch_flags(self, tmp_path, capsys):
        assert main([
            "sweep", "--problems", "jacobi", "--delays", "zero",
            "--steering", "cyclic", "--seeds", "1", "--max-iterations", "50",
            "--executor", "serial",
            "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / "s"),
        ]) == 0
        assert "failures=0" in capsys.readouterr().out
