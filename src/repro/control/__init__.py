"""Coordination plane: controller–agent runtime (paper §2.2, §5).

The offline pipeline (measure → estimate → LP → manifests) answers
*what* each node should sample; this package makes that loop run
continuously: an operations-center :class:`Controller` on an epoch
clock, per-node :class:`Agent` endpoints, a lossy simulated
:class:`Bus` between them, epoch-versioned delta distribution,
heartbeat-driven failure detection with targeted redistribution, one
epoch driver (:func:`run_chaos`) that runs scripted schedules
(:mod:`repro.control.scenarios`) and seeded adversarial fault plans
alike and asserts the graceful-degradation invariants per epoch, and
controller HA (:mod:`repro.control.ha`): term-fenced standby replicas
with deterministic election and split-brain-proof epoch-log handoff.
"""

from .agent import Agent, AgentConfig, AgentStats
from .bus import Bus, BusConfig, BusStats, Message
from .chaos import (
    COVERAGE_FLOOR,
    ChaosBus,
    ChaosConfig,
    ChaosEpochRecord,
    ChaosResult,
    FaultEvent,
    FaultPlan,
    InvariantMonitor,
    InvariantViolation,
    NAMED_PLANS,
    build_plan,
    random_fault_plan,
    run_chaos,
)
from .controller import Controller, ControllerConfig, ControllerStats, PushState
from .ha import (
    ControllerReplica,
    EpochLogEntry,
    HACluster,
    HAConfig,
    replica_name,
)
from .protocol import MessageSpec, PROTOCOL, PROTOCOL_KINDS
from .epochs import (
    CoverageSummary,
    EpochRecord,
    coverage_metrics,
    merge_reports,
    stabilize_manifests,
    union_length,
)
from .failure import (
    HeartbeatMonitor,
    RepairResult,
    repair_manifests,
)
from .scenarios import (
    REDISTRIBUTION_DEADLINE_EPOCHS,
    scripted_config,
    scripted_events,
    scripted_violations,
    standard_scenario,
)
from ..traffic.profiles import PROFILES

__all__ = [
    "Agent",
    "AgentConfig",
    "AgentStats",
    "Bus",
    "BusConfig",
    "BusStats",
    "COVERAGE_FLOOR",
    "ChaosBus",
    "ChaosConfig",
    "ChaosEpochRecord",
    "ChaosResult",
    "Controller",
    "ControllerConfig",
    "ControllerReplica",
    "ControllerStats",
    "CoverageSummary",
    "EpochLogEntry",
    "EpochRecord",
    "FaultEvent",
    "FaultPlan",
    "HACluster",
    "HAConfig",
    "HeartbeatMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "Message",
    "MessageSpec",
    "NAMED_PLANS",
    "PROFILES",
    "PROTOCOL",
    "PROTOCOL_KINDS",
    "PushState",
    "REDISTRIBUTION_DEADLINE_EPOCHS",
    "RepairResult",
    "build_plan",
    "coverage_metrics",
    "merge_reports",
    "random_fault_plan",
    "repair_manifests",
    "replica_name",
    "run_chaos",
    "scripted_config",
    "scripted_events",
    "scripted_violations",
    "stabilize_manifests",
    "standard_scenario",
    "union_length",
]
