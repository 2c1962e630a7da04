"""Discrete-event simulator of parallel/distributed asynchronous machines.

The hardware substitute for the paper's historical testbeds: seeded,
deterministic, and emitting the same :class:`~repro.core.trace.IterationTrace`
the mathematical engines produce, so every theoretical object
(macro-iterations, epochs, Theorem 1 bounds, admissibility) is
measurable on simulated hardware runs.
"""

from repro.runtime.simulator.batched import batchable, run_scenario_batch
from repro.runtime.simulator.channel import ChannelSpec, ChannelState
from repro.runtime.simulator.engine import DistributedSimulator
from repro.runtime.simulator.faults import (
    ChaosFault,
    CrashRestart,
    FaultLog,
    FaultModel,
    FaultState,
    Limplock,
    LossyChannel,
    ReorderingChannel,
    clique_topology,
    ring_topology,
    star_topology,
    two_tier_topology,
)
from repro.runtime.simulator.network import uniform_cluster, wide_area_network
from repro.runtime.simulator.processor import ProcessorSpec
from repro.runtime.simulator.records import MessageRecord, PhaseRecord, SimulationResult
from repro.runtime.simulator.reference import ReferenceSimulator
from repro.runtime.simulator.timing import (
    ConstantTime,
    DurationModel,
    ExponentialTime,
    LinearGrowthTime,
    ParetoTime,
    UniformTime,
)

__all__ = [
    "ChannelSpec",
    "ChannelState",
    "ChaosFault",
    "ConstantTime",
    "CrashRestart",
    "DistributedSimulator",
    "DurationModel",
    "ExponentialTime",
    "FaultLog",
    "FaultModel",
    "FaultState",
    "Limplock",
    "LinearGrowthTime",
    "LossyChannel",
    "MessageRecord",
    "ParetoTime",
    "PhaseRecord",
    "ProcessorSpec",
    "ReferenceSimulator",
    "ReorderingChannel",
    "SimulationResult",
    "UniformTime",
    "batchable",
    "clique_topology",
    "ring_topology",
    "run_scenario_batch",
    "star_topology",
    "two_tier_topology",
    "uniform_cluster",
    "wide_area_network",
]
