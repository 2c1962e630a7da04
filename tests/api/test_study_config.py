"""StudyConfig: eager validation, round-trips, content-hash stability."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api.config import (
    DelayRef,
    ExecutionSpec,
    MachineRef,
    ProblemRef,
    ReportSpec,
    SolverRef,
    SteeringRef,
    StoreSpec,
    StudyConfig,
    infer_kind,
)


def _config(**overrides) -> StudyConfig:
    base = dict(
        name="t",
        problems=(("jacobi", {"n": 16}), "tridiagonal"),
        solver=SolverRef(kind="engine", backends=("exact", "flexible"),
                         max_iterations=500, tol=1e-7),
        steerings=("cyclic", ("random-subset", {"p": 0.4})),
        delays=("uniform",),
        n_seeds=2,
        master_seed=3,
        report=ReportSpec(group_by=("problem", "delays"), metrics=("iterations",)),
        execution=ExecutionSpec(executor="serial"),
    )
    base.update(overrides)
    return StudyConfig(**base)


class TestRefs:
    def test_plain_name_coerces(self):
        cfg = _config()
        assert cfg.problems[0] == ProblemRef("jacobi", {"n": 16})
        assert cfg.problems[1] == ProblemRef("tridiagonal")
        assert cfg.steerings[1].params == {"p": 0.4}

    def test_unknown_name_suggests(self):
        with pytest.raises(KeyError, match="did you mean 'lasso'"):
            ProblemRef("laso")
        with pytest.raises(KeyError, match="unknown delays"):
            DelayRef("warp-speed")
        with pytest.raises(KeyError, match="did you mean 'uniform'"):
            MachineRef("unifrom")
        with pytest.raises(KeyError, match="did you mean 'cyclic'"):
            SteeringRef("cyclik")

    def test_unknown_parameter_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'dominance'"):
            ProblemRef("jacobi", {"dominence": 0.5})
        with pytest.raises(ValueError, match="unknown parameter"):
            DelayRef("uniform", {"wrong": 1})

    def test_params_canonicalized(self):
        # A non-plain-data parameter must fail eagerly, not in a worker.
        with pytest.raises(TypeError, match="canonicalize"):
            ProblemRef("jacobi", {"n": object()})

    def test_typoed_entry_key_rejected(self):
        # A misspelled 'params' key must not silently drop overrides.
        with pytest.raises(ValueError, match="did you mean 'params'"):
            ProblemRef.coerce({"name": "jacobi", "parms": {"n": 48}})
        with pytest.raises(ValueError, match="needs a 'name' key"):
            ProblemRef.coerce({"params": {"n": 48}})
        doc = _config().to_dict()
        doc["problems"][0]["parms"] = doc["problems"][0].pop("params")
        with pytest.raises(ValueError, match="problem entry key"):
            StudyConfig.from_dict(doc)


class TestSolverRef:
    def test_defaults_resolve_eagerly(self):
        assert SolverRef().backends == ("exact",)
        assert SolverRef(kind="simulator").backends == ("vectorized",)

    def test_explicit_default_hashes_identically(self):
        a = _config(solver=SolverRef(kind="engine"))
        b = _config(solver=SolverRef(kind="engine", backends=("exact",)))
        assert a == b and a.content_hash == b.content_hash

    def test_bad_kind_and_backend(self):
        with pytest.raises(ValueError, match="kind"):
            SolverRef(kind="warp")
        with pytest.raises(ValueError, match="unknown backend"):
            SolverRef(backends=("gpu",))
        with pytest.raises(ValueError, match="duplicate"):
            SolverRef(backends=("exact", "exact"))

    def test_infer_kind(self):
        assert infer_kind(()) == "engine"
        assert infer_kind(("exact", "flexible")) == "engine"
        assert infer_kind(("vectorized", "reference")) == "simulator"
        assert infer_kind((), "simulator") == "simulator"
        with pytest.raises(ValueError, match="mix kinds"):
            infer_kind(("exact", "vectorized"))
        with pytest.raises(ValueError, match="algorithm-kind"):
            infer_kind(("arock",))


class TestSpecsValidation:
    def test_store_spec_requires_out(self):
        with pytest.raises(ValueError, match="keep_traces requires"):
            StoreSpec(keep_traces=True)
        with pytest.raises(ValueError, match="resume requires"):
            StoreSpec(resume=True)

    def test_report_spec_validates_fields(self):
        with pytest.raises(ValueError, match="group-by field"):
            ReportSpec(group_by=("probelm",))
        with pytest.raises(ValueError, match="unknown metric"):
            ReportSpec(metrics=("wall_tim",))

    def test_execution_spec(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ExecutionSpec(executor="warp")
        with pytest.raises(ValueError, match="max_workers"):
            ExecutionSpec(max_workers=0)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            _config(problems=())

    def test_unknown_top_level_key_suggests(self):
        doc = _config().to_dict()
        doc["n_seed"] = 3
        with pytest.raises(ValueError, match="did you mean 'n_seeds'"):
            StudyConfig.from_dict(doc)

    @pytest.mark.parametrize("section,key", [
        ("solver", "max_iteration"),
        ("store", "outt"),
        ("report", "metric"),
        ("execution", "chunk_sise"),
    ])
    def test_unknown_section_key_names_it(self, section, key):
        doc = {"problems": ["jacobi"], section: {key: 4}}
        with pytest.raises(ValueError, match=f"unknown {section} key '{key}'"):
            StudyConfig.from_dict(doc)

    def test_execution_spec_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionSpec)] == [
            "executor", "max_workers", "chunk_size", "batch", "cache_dir",
        ]

    def test_newer_format_version_rejected(self):
        doc = _config().to_dict()
        doc["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            StudyConfig.from_dict(doc)


class TestRoundTrips:
    def test_dict_round_trip_identity(self):
        cfg = _config()
        assert StudyConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip_identity(self):
        cfg = _config(store=StoreSpec(out="results", keep_traces=True))
        assert StudyConfig.from_json(cfg.to_json()) == cfg

    def test_toml_round_trip_identity(self):
        cfg = _config()
        assert StudyConfig.from_toml(cfg.to_toml()) == cfg

    def test_toml_round_trip_with_all_sections(self):
        cfg = _config(
            solver=SolverRef(kind="simulator", backends=("vectorized", "reference"),
                             max_iterations=250, tol=0.0),
            machines=(("flexible", {"n_processors": 8}), "uniform"),
            steerings=("cyclic",),
            delays=("zero",),
            store=StoreSpec(out="r", resume=False, keep_traces=True),
            report=ReportSpec(),
            execution=ExecutionSpec(executor="process", max_workers=4),
        )
        assert StudyConfig.from_toml(cfg.to_toml()) == cfg

    def test_content_hash_stable_across_formats(self):
        cfg = _config()
        via_json = StudyConfig.from_json(cfg.to_json())
        via_toml = StudyConfig.from_toml(cfg.to_toml())
        via_dict = StudyConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg.content_hash == via_json.content_hash
        assert cfg.content_hash == via_toml.content_hash
        assert cfg.content_hash == via_dict.content_hash

    def test_content_hash_distinguishes(self):
        assert _config().content_hash != _config(master_seed=4).content_hash
        assert _config().content_hash != _config(n_seeds=3).content_hash

    def test_float_params_round_trip_exactly(self):
        cfg = _config(delays=(("uniform", {"bound": 7}),),
                      problems=(("quadratic", {"condition": 12.5}),))
        rt = StudyConfig.from_toml(cfg.to_toml())
        assert rt.problems[0].params["condition"] == 12.5
        assert rt == cfg


class TestCompilation:
    def test_to_grid_matches_config(self):
        cfg = _config()
        grid = cfg.to_grid()
        # 2 problems x 1 delay x 2 policies x 2 backends x 2 seeds
        assert grid.size == 16 == cfg.size
        specs = cfg.specs()
        assert {s.backend for s in specs} == {"exact", "flexible"}
        assert all(s.max_iterations == 500 and s.tol == 1e-7 for s in specs)

    def test_grid_seeds_stable_across_round_trip(self):
        cfg = _config()
        rt = StudyConfig.from_toml(cfg.to_toml())
        assert [s.content_hash for s in cfg.specs()] == [
            s.content_hash for s in rt.specs()
        ]

    def test_with_store_overrides(self):
        cfg = _config()
        stored = cfg.with_store("out-dir", keep_traces=True)
        assert stored.store == StoreSpec(out="out-dir", keep_traces=True)
        assert dataclasses.replace(stored, store=StoreSpec()) == cfg


class TestExecutionSpecSharding:
    """ISSUE 5: dispatch chunking and the cross-study cache as config."""

    def test_chunk_size_and_cache_dir_round_trip(self, tmp_path):
        spec = ExecutionSpec(executor="serial", chunk_size=8,
                             cache_dir=str(tmp_path / "cache"))
        doc = spec.to_dict()
        assert doc["chunk_size"] == 8
        assert doc["cache_dir"] == str(tmp_path / "cache")
        assert ExecutionSpec(**doc) == spec

    def test_defaults_are_omitted_from_dict(self):
        # A config that never mentions chunking/caching must hash
        # identically to one written before the fields existed.
        doc = ExecutionSpec(executor="serial").to_dict()
        assert "chunk_size" not in doc
        assert "cache_dir" not in doc

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionSpec(chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ExecutionSpec(chunk_size="big")
        assert ExecutionSpec(chunk_size="auto").chunk_size == "auto"

    def test_study_config_round_trips_execution_extras(self, tmp_path):
        cfg = StudyConfig(
            name="sharded",
            problems=("jacobi",),
            execution=ExecutionSpec(executor="serial", chunk_size=4,
                                    cache_dir=str(tmp_path / "c")),
        )
        for back in (StudyConfig.from_json(cfg.to_json()),
                     StudyConfig.from_toml(cfg.to_toml())):
            assert back.execution == cfg.execution
            assert back.content_hash == cfg.content_hash
