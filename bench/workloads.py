"""The four fixed studies the benchmark drives through ``Study.run``.

Pure data: the driver process imports this module without importing
the library, so study definitions stay plain ``StudyConfig`` documents
(``master_seed`` is filled in from ``--seed``).  Sizes are fixed on
purpose; a number measured here is only comparable with another one
measured on the same study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["PINNED_SEED", "WORKLOADS", "Workload"]

#: The seed whose store digests are pinned below.  Any other seed still
#: runs every equality check, just without a pinned value to meet.
PINNED_SEED = 2022


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a study document plus how to drive it."""

    name: str
    why: str
    study: "dict[str, Any]"
    #: Hosts the study is split over (``Study.run(shard=...)``), then
    #: recombined with ``SweepStore.merge``; 1 runs the grid whole.
    shards: int
    #: Leading specs the once-per-invocation oracle reruns solo.
    oracle_specs: int
    #: Full store digest at :data:`PINNED_SEED`.
    digest: str

    def config(self, seed: int) -> "dict[str, Any]":
        """The ``StudyConfig.from_dict`` document for ``seed``."""
        return {**self.study, "name": self.name, "master_seed": int(seed)}


def _problem(name: str, **params: Any) -> "dict[str, Any]":
    return {"name": name, "params": params}


WORKLOADS: "dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            name="swarm",
            why=(
                "many-seed delay-regime sweep of tiny scenarios, sharded and "
                "merged: per-row overhead and the store read path set the cost"
            ),
            study={
                "problems": [_problem("jacobi", n=6)],
                "solver": {"kind": "engine", "max_iterations": 4, "tol": 0.0},
                "delays": ["zero", "uniform"],
                "n_seeds": 1500,
            },
            shards=2,
            oracle_specs=8,
            digest="037a89d2c1b921106f3bab09a6a260c7830e0586182e2f9b5afe19421efa69b7",
        ),
        Workload(
            name="flex-sim",
            why=(
                "Definition 3 flexible communication on random-timing machines "
                "with crashes: the batch is refused, the solo event loop runs"
            ),
            study={
                "problems": [_problem("jacobi", n=48), _problem("tridiagonal", n=48)],
                "solver": {"kind": "simulator", "max_iterations": 600, "tol": 0.0},
                "machines": [
                    _problem("flexible", n_processors=8),
                    _problem("heterogeneous", n_processors=8),
                ],
                "faults": ["none", _problem("crash-restart", crash_rate=0.01)],
                "n_seeds": 6,
            },
            shards=1,
            oracle_specs=4,
            digest="1f108caac545c18a8a5ef09ba72a153a560a3530ca0a0b18d1ff36b413632c47",
        ),
        Workload(
            name="lockstep-sim",
            why=(
                "deterministic-timing machines: every group runs through the "
                "batched lockstep op-list executor"
            ),
            study={
                "problems": [_problem("jacobi", n=64), _problem("lasso")],
                "solver": {"kind": "simulator", "max_iterations": 400, "tol": 0.0},
                "machines": [
                    _problem("lockstep", n_processors=8),
                    _problem("lockstep-tiered", n_processors=8),
                ],
                "n_seeds": 40,
            },
            shards=1,
            oracle_specs=8,
            digest="16bf73894f358057beb3722b60797137c8a1e8b1bd19bb7675602fd04f51bc3c",
        ),
        Workload(
            name="ml-engine",
            why=(
                "the machine-learning half of the paper: lasso and logistic "
                "on the batched exact engine with stochastic delay labels"
            ),
            study={
                "problems": ["lasso", "logistic"],
                "solver": {"kind": "engine", "max_iterations": 400, "tol": 0.0},
                "delays": ["zero", "uniform"],
                "n_seeds": 64,
            },
            shards=1,
            oracle_specs=8,
            digest="64c3de836a3a1db8058b26d077006ae484649ebe8dfa3373617110c0e97a2089",
        ),
    )
}
