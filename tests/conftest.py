"""Shared fixtures and the ``slow`` marker for the test suite.

Tier-1 (`pytest -q`) must stay fast, so fleet stress tests and other
long-running checks carry ``@pytest.mark.slow`` and are skipped unless
explicitly requested with ``--runslow`` or ``-m slow`` (see the
Makefile's ``test-slow`` target).
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.problems import (
    make_classification,
    make_jacobi_instance,
    make_lasso,
    make_logistic,
    make_regression,
    make_ridge,
    random_flow_network,
    random_quadratic,
)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow (fleet stress tests etc.)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test, excluded from tier-1 (`--runslow` to include)"
    )


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    if config.getoption("--runslow") or "slow" in (config.getoption("-m") or ""):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow or -m slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_jacobi():
    """A 10-dim strictly dominant Jacobi operator with known fixed point."""
    return make_jacobi_instance(10, dominance=0.5, seed=7)


@pytest.fixture
def lasso_problem():
    data = make_regression(80, 12, sparsity=0.4, noise_std=0.1, seed=3)
    return make_lasso(data, l1=0.05, l2=0.1)


@pytest.fixture
def ridge_problem():
    data = make_regression(60, 10, seed=4)
    return make_ridge(data, l2=0.2)


@pytest.fixture
def logistic_problem():
    data = make_classification(100, 8, seed=5)
    return make_logistic(data, l2=0.3)


@pytest.fixture
def quadratic_problem():
    return random_quadratic(12, condition=8.0, seed=6)


@pytest.fixture
def flow_network():
    return random_flow_network(12, arc_density=0.25, seed=8)


@pytest.fixture
def write_flat_store():
    """Writer of legacy flat (format v1) sweep stores, by hand.

    ``write_flat_store(root, rows)`` lays out the retired flat layout
    as plain files: a v1 ``manifest.json`` listing every row's spec and
    one ``results/<hash>.json`` row document per row, byte for byte as
    the flat ``SweepStore`` wrote them.  Returns ``root`` as a path.
    """
    def write(root, rows):
        root = pathlib.Path(root)
        (root / "results").mkdir(parents=True, exist_ok=True)
        entries = [
            {"hash": r.spec.content_hash, "key": r.spec.key,
             "spec": r.spec.canonical()}
            for r in rows
        ]
        manifest = {"format_version": 1, "scenario_count": len(entries),
                    "scenarios": entries}
        (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
        for r in rows:
            (root / "results" / f"{r.content_hash}.json").write_text(
                json.dumps(r.to_json_dict(), indent=2, allow_nan=False)
            )
        return root

    return write
