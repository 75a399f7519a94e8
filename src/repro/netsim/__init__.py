"""Flow-level datacenter network simulator.

This is the substrate the paper itself evaluates on (its authors used a
MATLAB flow-level simulator): per-link Bernoulli packet-drop probabilities,
per-epoch TCP flows with bounded packet counts, traffic generators (uniform,
skewed, hot-ToR, replay), failure injection, and an epoch engine that raises
ETW-like retransmission events for the monitoring agent.
"""

from repro.netsim.links import LinkStateTable
from repro.netsim.tcp import TransferResult, simulate_transfer
from repro.netsim.flows import FlowRecord
from repro.netsim.traffic import (
    HotTorTraffic,
    SkewedTraffic,
    TrafficDemand,
    TrafficGenerator,
    UniformTraffic,
)
from repro.netsim.events import ConnectionSetupFailureEvent, RetransmissionEvent
from repro.netsim.failures import (
    FailureInjector,
    FailureScenario,
    TransientFailure,
    TransientFailureSchedule,
    VmRebootModel,
)
from repro.netsim.script import (
    CompiledScenarioScript,
    CongestionBurst,
    LinkDrain,
    LinkFlap,
    ScenarioScript,
    SwitchReboot,
    TrafficShift,
)
from repro.netsim.simulator import EpochResult, EpochSimulator, SimulationConfig

__all__ = [
    "LinkStateTable",
    "TransferResult",
    "simulate_transfer",
    "FlowRecord",
    "TrafficDemand",
    "TrafficGenerator",
    "UniformTraffic",
    "SkewedTraffic",
    "HotTorTraffic",
    "RetransmissionEvent",
    "ConnectionSetupFailureEvent",
    "FailureInjector",
    "FailureScenario",
    "TransientFailure",
    "TransientFailureSchedule",
    "VmRebootModel",
    "CompiledScenarioScript",
    "CongestionBurst",
    "LinkDrain",
    "LinkFlap",
    "ScenarioScript",
    "SwitchReboot",
    "TrafficShift",
    "EpochResult",
    "EpochSimulator",
    "SimulationConfig",
]
