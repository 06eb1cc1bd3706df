"""Stable public API for the network-wide NIDS/NIPS reproduction.

``repro.api`` is the supported surface for programmatic users: one
flat namespace re-exporting the blessed entry points of each
subsystem.  Anything importable from here is the supported surface;
internal module paths may move without notice.

The facade groups into five areas:

* **planning** — :func:`plan_deployment` / :class:`NIDSDeployment`
  (the measure → LP → manifests pipeline), :func:`solve_nids_lp`,
  :func:`generate_manifests` / :func:`verify_manifests`, and the NIPS
  side (:func:`build_nips_problem`, :func:`solve_relaxation`,
  :func:`best_of_roundings`);
* **emulation** — :func:`run_emulation` over a :class:`Traffic`
  (edge-only when handed module specs, coordinated when handed an
  :class:`NIDSDeployment`), configured by :class:`EmulationConfig`
  with an :class:`ExecutionPolicy` (inline | streamed | sharded),
  plus :func:`compare_deployments` and :class:`BroMode`;
* **coordination plane** — :func:`run_chaos` (the one epoch driver)
  over a :class:`ChaosConfig`, whose fault plan comes from
  :func:`build_plan` or, for the scripted shift / failure / recovery
  schedule, :func:`standard_scenario`; :func:`scripted_violations`
  adds the scripted acceptance criteria to the monitor's verdict;
* **telemetry** — :class:`MetricsRegistry`, :data:`NULL_REGISTRY`,
  :func:`use_registry` (see ``docs/observability.md``);
* **reporting** — the :class:`Report` classes shared by the figure
  artifacts and metrics snapshots.

Quickstart::

    from repro import api

    deployment = api.quick_nids_deployment()
    registry = api.MetricsRegistry()
    profile = api.run_emulation(
        api.Traffic.materialized(generator, sessions),
        deployment,
        registry=registry,
    )
    api.MetricsSnapshotReport(registry).write(sys.stdout, fmt="json")
"""

from __future__ import annotations

# -- topology + traffic ----------------------------------------------------
from . import __version__, quick_nids_deployment
from .topology import PathSet, Topology, geant, internet2, rocketfuel
from .traffic import TrafficGenerator, TrafficMatrix, mixed_profile

# -- planning (NIDS LP -> manifests, NIPS MILP -> rounding) ---------------
from .core import (
    CoordinatedDispatcher,
    FPLConfig,
    NIDSDeployment,
    NIPSProblem,
    RoundingVariant,
    best_of_roundings,
    build_nips_problem,
    generate_manifests,
    plan_deployment,
    run_online_adaptation,
    solve_nids_lp,
    solve_relaxation,
    verify_manifests,
)

# -- emulation -------------------------------------------------------------
from .nids import (
    BroMode,
    EmulationConfig,
    ExecutionMode,
    ExecutionPolicy,
    Traffic,
    compare_deployments,
    run_emulation,
)

# -- coordination plane ----------------------------------------------------
from .control import (
    ChaosConfig,
    ChaosResult,
    HACluster,
    HAConfig,
    build_plan,
    run_chaos,
    scripted_violations,
    standard_scenario,
)

# -- scenario sweeps -------------------------------------------------------
from .sweep import (
    SweepCell,
    SweepSpec,
    consolidate,
    load_spec,
    run_sweep,
)

# -- telemetry -------------------------------------------------------------
from .obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    set_registry,
    use_registry,
)

# -- reporting -------------------------------------------------------------
from .reporting import (
    ComparisonReport,
    ControlEpochsReport,
    MetricsSnapshotReport,
    MicrobenchReport,
    PerNodeReport,
    RegretReport,
    Report,
    RoundingReport,
)

__all__ = [
    # topology + traffic
    "PathSet",
    "Topology",
    "TrafficGenerator",
    "TrafficMatrix",
    "geant",
    "internet2",
    "mixed_profile",
    "rocketfuel",
    # planning
    "CoordinatedDispatcher",
    "FPLConfig",
    "NIDSDeployment",
    "NIPSProblem",
    "RoundingVariant",
    "best_of_roundings",
    "build_nips_problem",
    "generate_manifests",
    "plan_deployment",
    "quick_nids_deployment",
    "run_online_adaptation",
    "solve_nids_lp",
    "solve_relaxation",
    "verify_manifests",
    # emulation
    "BroMode",
    "EmulationConfig",
    "ExecutionMode",
    "ExecutionPolicy",
    "Traffic",
    "compare_deployments",
    "run_emulation",
    # coordination plane
    "ChaosConfig",
    "ChaosResult",
    "HACluster",
    "HAConfig",
    "build_plan",
    "run_chaos",
    "scripted_violations",
    "standard_scenario",
    # scenario sweeps
    "SweepCell",
    "SweepSpec",
    "consolidate",
    "load_spec",
    "run_sweep",
    # telemetry
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    # reporting
    "ComparisonReport",
    "ControlEpochsReport",
    "MetricsSnapshotReport",
    "MicrobenchReport",
    "PerNodeReport",
    "RegretReport",
    "Report",
    "RoundingReport",
    "__version__",
]
