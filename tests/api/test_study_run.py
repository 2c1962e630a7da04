"""Study execution: solve(), sweep(), run/resume, digests, analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    SolverRef,
    StoreSpec,
    Study,
    StudyConfig,
    load_study,
    solve,
    sweep,
)
from repro.core.macro import macro_sequence
from repro.runtime.fleet import run_grid
from repro.runtime.sweep_store import SweepStore
from repro.scenarios.registry import available


def _config(**overrides) -> StudyConfig:
    base = dict(
        name="run-test",
        problems=(("jacobi", {"n": 16}),),
        solver=SolverRef(max_iterations=400),
        delays=("zero", "uniform"),
        n_seeds=2,
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestSolve:
    def test_engine_default(self):
        out = solve("jacobi", seed=0)
        assert out.converged and out.iterations > 0
        assert out.x.shape == (24,)
        assert out.spec.backend == "exact"
        assert np.isfinite(out.final_residual)

    def test_lasso_on_simulator(self):
        # The acceptance-criteria call, verbatim.
        out = solve("lasso", backend="simulator", seed=0)
        assert out.converged
        assert out.spec.kind == "simulator" and out.spec.backend == "vectorized"
        assert out.sim_time is not None and out.sim_time > 0

    def test_backend_name_derives_kind(self):
        out = solve("jacobi", backend="flexible", seed=1, max_iterations=500)
        assert out.spec.kind == "engine" and out.spec.backend == "flexible"
        ref = solve("jacobi", backend="reference", seed=1, max_iterations=200)
        assert ref.spec.kind == "simulator"

    def test_problem_params_forwarded(self):
        out = solve("jacobi", seed=0, n=10)
        assert out.x.shape == (10,)

    def test_deterministic(self):
        a = solve("jacobi", seed=5)
        b = solve("jacobi", seed=5)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)

    def test_unknown_problem_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'lasso'"):
            solve("laso")

    def test_scenario_error_raises(self):
        # n_processors > components: the machine factory must refuse
        # (solve raises directly; the fleet would record the error).
        with pytest.raises(ValueError, match="n_processors"):
            solve("jacobi", backend="simulator", n=4,
                  machine=("uniform", {"n_processors": 9}), seed=0)

    def test_unknown_problem_param_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'dominance'"):
            solve("jacobi", dominanse=0.5)

    def test_comparator_is_an_unknown_backend(self):
        # ARock and DAve-PG run through their solver classes only.
        with pytest.raises(KeyError, match="unknown backend"):
            solve("quadratic", backend="arock")


class TestSolveOnMachines:
    """One problem on every simulated machine, switched by one string."""

    @pytest.mark.parametrize("machine", available("machine"))
    def test_lasso_converges_on_every_machine(self, machine):
        out = solve("lasso", backend="simulator", machine=machine, seed=1)
        assert out.converged
        assert out.final_error < 1e-5
        assert out.spec.machine == machine
        assert np.isfinite(out.sim_time) and out.sim_time > 0
        assert out.trace is not None

    def test_shared_memory_converges_without_a_trace(self):
        out = solve("lasso", backend="shared-memory", seed=1, tol=1e-6,
                    max_iterations=50_000)
        assert out.converged
        assert out.sim_time > 0  # wall-clock seconds
        assert out.trace is None  # the fleet skips per-commit recording
        assert sum(out.stats["updates_per_worker"].values()) == out.iterations

    def test_flexible_machine_publishes_partials(self):
        # Without partial publishes a phase sends one message per owned
        # component per peer; with four inner steps it sends four.
        def per_phase(out):
            return out.stats["messages_sent"] / out.stats["phases_completed"]

        plain = solve("lasso", backend="simulator", machine="uniform", seed=3)
        flex = solve("lasso", backend="simulator",
                     machine=("flexible", {"inner_steps": 4}), seed=3)
        assert per_phase(plain) == plain.x.size / 4 * 3
        assert per_phase(flex) > 3 * per_phase(plain)

    def test_heterogeneous_machine_skews_updates(self):
        out = solve("lasso", backend="simulator",
                    machine=("heterogeneous", {"imbalance": 6.0}), seed=5)
        counts = np.bincount(out.trace.owners, weights=out.trace.update_counts())
        assert np.all(np.diff(counts) < 0)  # geometric speeds, fastest first
        assert counts[0] > 3 * counts[-1]

    def test_simulator_deterministic(self):
        a = solve("lasso", backend="simulator", machine="wan", seed=6)
        b = solve("lasso", backend="simulator", machine="wan", seed=6)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.iterations == b.iterations
        assert a.sim_time == b.sim_time

    def test_trace_supports_macro_analysis(self):
        out = solve("lasso", backend="simulator", machine="flexible", seed=2)
        assert macro_sequence(out.trace).count > 0


class TestSweepConvenience:
    def test_storeless_sweep(self):
        res = sweep(problems=("jacobi",), delays=("uniform",), n_seeds=2,
                    max_iterations=300, executor="serial")
        assert res.scenario_count == 2 and not res.failures()
        assert res.store is None
        assert len(res.digest()) == 64
        assert "jacobi" in res.report()

    def test_multi_backend_report_has_pivot(self):
        res = sweep(problems=("jacobi",), delays=("uniform",),
                    backends=("exact", "flexible"), n_seeds=1,
                    max_iterations=300, executor="serial")
        assert "cross-backend comparison" in res.report()
        headers, rows = res.backend_comparison()
        assert headers[-2:] == ["iterations[exact]", "iterations[flexible]"]
        assert len(rows) == 1


class TestStudyRun:
    def test_run_with_store_digest_matches_fleet(self, tmp_path):
        res = Study(_config()).run(out=tmp_path / "store", executor="serial")
        assert not res.failures()
        assert res.digest() == res.store.digest()

    def test_resume_reproduces_uninterrupted_digest(self, tmp_path):
        study = Study(_config())
        full = study.run(out=tmp_path / "full", executor="serial")

        # "Kill" a run: persist only half the scenarios, then resume.
        partial = tmp_path / "partial"
        run_grid(study.specs()[:2], store=SweepStore(partial), executor="serial")
        resumed = study.resume(out=partial, executor="serial")
        assert resumed.digest() == full.digest()
        assert resumed.store.digest() == full.store.digest()

    def test_resume_missing_store_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no sweep store"):
            Study(_config()).resume(out=tmp_path / "nope")

    def test_storeless_keep_traces_rejected(self):
        with pytest.raises(ValueError, match="keep_traces requires"):
            Study(_config()).run(keep_traces=True)

    def test_config_store_section_used(self, tmp_path):
        cfg = _config(store=StoreSpec(out=str(tmp_path / "auto")))
        res = Study(cfg).run(executor="serial")
        assert res.store is not None
        assert (tmp_path / "auto" / "manifest.json").is_file()

    def test_result_reads_partial_store(self, tmp_path):
        study = Study(_config())
        run_grid(study.specs()[:2], store=SweepStore(tmp_path / "p"),
                 executor="serial")
        res = study.result(out=tmp_path / "p")
        assert res.scenario_count == 2
        assert "jacobi" in res.report()


class TestStudyAnalysis:
    def test_rates_need_traces(self, tmp_path):
        res = Study(_config()).run(out=tmp_path / "s", executor="serial")
        with pytest.raises(RuntimeError, match="keep_traces"):
            res.rates()

    def test_rates_from_kept_traces(self, tmp_path):
        res = Study(_config()).run(out=tmp_path / "s", executor="serial",
                                   keep_traces=True)
        fits = res.rates()
        assert len(fits) == res.scenario_count
        for fit in fits.values():
            assert 0.0 < fit.rate < 1.0
        # The cache is per skip value, not first-call-wins.
        assert res.rates() is fits
        skipped = res.rates(skip=20)
        assert skipped is not fits and res.rates(skip=20) is skipped

    def test_study_from_file_round_trip(self, tmp_path):
        cfg = _config()
        path = tmp_path / "study.toml"
        path.write_text(cfg.to_toml())
        study = load_study(path)
        assert study.config == cfg
        json_path = tmp_path / "study.json"
        json_path.write_text(cfg.to_json())
        assert load_study(json_path).config == cfg

    def test_resume_from_study_file_bit_identical(self, tmp_path):
        """The acceptance criterion: kill + resume from the study file."""
        cfg = _config(store=StoreSpec(out=str(tmp_path / "store")))
        path = tmp_path / "study.toml"
        path.write_text(cfg.to_toml())

        full = load_study(path).run(out=tmp_path / "uninterrupted",
                                    executor="serial")

        study = load_study(path)
        run_grid(study.specs()[:3], store=SweepStore(cfg.store.out),
                 executor="serial")  # the "killed" first attempt
        resumed = study.resume(executor="serial")
        assert resumed.store.digest() == full.digest()
