"""Runtime substrates: the simulated machine, the real threads, the fleet.

* :mod:`repro.runtime.backends` — the pluggable
  :class:`ExecutionBackend` registry: one iteration scheme, every
  engine (``exact``, ``flexible``, ``vectorized``, ``reference``,
  ``shared-memory``).  The runtime sits below :mod:`repro.solvers`
  and never imports it;
* :mod:`repro.runtime.simulator` — deterministic discrete-event
  simulation of processors + channels (the hardware substitute);
* :mod:`repro.runtime.shared_memory` — lock-free Hogwild-style
  threading backend on a shared NumPy iterate;
* :mod:`repro.runtime.fleet` — concurrent execution of declarative
  scenario grids (multi-seed, multi-regime experiment populations);
* :mod:`repro.runtime.sweep_store` — content-addressed on-disk sweep
  results (streaming writes, resumable grids, persisted traces).
"""

from repro.runtime.backends import (
    BackendRunResult,
    ExecutionBackend,
    ExecutionRequest,
    available_backends,
    backend_kind,
    default_backend,
    get_backend,
    register_backend,
    replay_trace,
)
from repro.runtime.fleet import (
    FleetResult,
    ScenarioResult,
    run_fleet,
    run_grid,
    run_scenario,
)
from repro.runtime.shared_memory import SharedMemoryAsyncRunner, SharedMemoryResult
from repro.runtime.sweep_store import SweepStore
from repro.runtime.simulator import (
    ChannelSpec,
    ConstantTime,
    DistributedSimulator,
    ExponentialTime,
    LinearGrowthTime,
    ParetoTime,
    ProcessorSpec,
    ReferenceSimulator,
    SimulationResult,
    UniformTime,
    uniform_cluster,
    wide_area_network,
)

__all__ = [
    "BackendRunResult",
    "ChannelSpec",
    "ConstantTime",
    "DistributedSimulator",
    "ExecutionBackend",
    "ExecutionRequest",
    "ExponentialTime",
    "FleetResult",
    "LinearGrowthTime",
    "ParetoTime",
    "ProcessorSpec",
    "ReferenceSimulator",
    "ScenarioResult",
    "SharedMemoryAsyncRunner",
    "SharedMemoryResult",
    "SimulationResult",
    "SweepStore",
    "UniformTime",
    "available_backends",
    "backend_kind",
    "default_backend",
    "get_backend",
    "register_backend",
    "replay_trace",
    "run_fleet",
    "run_grid",
    "run_scenario",
    "uniform_cluster",
    "wide_area_network",
]
