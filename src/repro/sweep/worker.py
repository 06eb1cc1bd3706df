"""Shared-nothing execution of one sweep cell.

This module is the process-pool entry point, so everything here must
be **spawn-safe**: :func:`run_cell_payload` is a module-level function
taking and returning plain JSON-compatible dicts, importable by a
freshly spawned interpreter with no inherited state.  Each cell builds
its own topology, bus, controller, and agents from the cell's derived
seed — no sharing, no ordering dependence — which is what makes the
grid embarrassingly parallel and the parallel/sequential consolidated
reports bit-identical.

Every cell runs through the one epoch driver,
:func:`~repro.control.chaos.run_chaos`, and is judged by the
:class:`~repro.control.chaos.InvariantMonitor`:

* ``plan == "none"`` — the scripted steady → shift → failure →
  recovery schedule, scaled to the cell's epoch count with the failed
  node chosen deterministically from the cell seed, additionally
  scored by :func:`~repro.control.scenarios.scripted_violations`;
* any other plan — the named (or seeded-``random``) fault plan.

The cell's full telemetry snapshot rides along in the result, so the
parent can fold every worker's metrics into one registry with
:meth:`~repro.obs.MetricsRegistry.merge_from`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..control.chaos import ChaosConfig, FaultEvent, build_plan, run_chaos
from ..control.scenarios import (
    scripted_config,
    scripted_events,
    scripted_violations,
)
from ..obs import MetricsRegistry
from ..topology import by_label
from .spec import DYNAMICS_PRESETS, SweepCell

#: Minimum epochs for the scripted event schedule; shorter cells run
#: the steady-state scenario (no shift/failure/recovery events).
MIN_EVENT_EPOCHS = 12


@dataclass
class CellResult:
    """Everything the merge layer needs from one executed cell.

    Wall-clock ``duration_seconds`` is recorded for ``status`` output
    and benchmarking but deliberately **excluded** from the
    consolidated report, which must be bit-identical across executors
    and runs.
    """

    cell: SweepCell
    derived_seed: int
    kind: str  # "scenario" | "chaos"
    ok: bool
    violations: Tuple[str, ...]
    epochs_run: int
    coverage_mean: float
    coverage_min: float
    push_bytes: int
    full_equivalent_bytes: int
    messages_sent: int
    bytes_sent: int
    #: Crash verdicts (empty without crash events).
    detection_epoch: Dict[str, int]
    redistribution_epoch: Dict[str, int]
    #: Monitor verdicts.
    first_degraded_epoch: Optional[int]
    reconverged_epoch: Optional[int]
    #: Full per-cell telemetry snapshot (repro.obs format).
    metrics: dict
    duration_seconds: float

    def to_dict(self) -> dict:
        """JSON-compatible dict (the cache artifact payload)."""
        data = dataclasses.asdict(self)
        data["violations"] = list(self.violations)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        """Rebuild a result from :meth:`to_dict` output."""
        fields = dict(data)
        fields["cell"] = SweepCell.from_dict(data["cell"])
        fields["violations"] = tuple(data["violations"])
        return cls(**fields)


def scenario_events(
    cell: SweepCell, node_names: Tuple[str, ...]
) -> Tuple[FaultEvent, ...]:
    """The scripted schedule for a ``plan == "none"`` cell.

    The canonical 16-epoch shift@5 / fail@8 / recover@12 schedule,
    scaled proportionally to the cell's epoch count; the failed node
    and the shift profile come deterministically from the derived
    seed, so different seeds genuinely exercise different failure
    positions.  Cells shorter than :data:`MIN_EVENT_EPOCHS` epochs run
    steady-state (no events) — there is no room to judge recovery.
    """
    if cell.epochs < MIN_EVENT_EPOCHS:
        return ()
    shift_epoch = max(2, round(cell.epochs * 5 / 16))
    fail_epoch = max(shift_epoch + 2, round(cell.epochs * 8 / 16))
    recover_epoch = max(fail_epoch + 3, round(cell.epochs * 12 / 16))
    if recover_epoch >= cell.epochs - 1:
        return ()
    ordered = tuple(sorted(node_names))
    fail_node = ordered[cell.derived_seed % len(ordered)]
    base_profile = DYNAMICS_PRESETS[cell.dynamics]["profile"]
    shift_profile = "web_heavy" if base_profile != "web_heavy" else "mixed"
    return scripted_events(
        cell.epochs,
        shift_epoch,
        fail_epoch,
        recover_epoch,
        fail_node,
        shift_profile,
    )


def build_cell_config(cell: SweepCell) -> ChaosConfig:
    """The cell's run config, built from the full dynamics preset."""
    preset = DYNAMICS_PRESETS[cell.dynamics]
    node_names = tuple(by_label(cell.topology).node_names)
    workload = dict(
        topology=cell.topology,
        epochs=cell.epochs,
        base_sessions=cell.base_sessions,
        profile=str(preset["profile"]),
        seed=cell.derived_seed,
        diurnal_amplitude=float(preset["diurnal_amplitude"]),
        burst_probability=float(preset["burst_probability"]),
        coverage=cell.redundancy,
    )
    if cell.plan == "none":
        return scripted_config(
            scenario_events(cell, node_names), name="none", **workload
        )
    plan = build_plan(cell.plan, cell.derived_seed, cell.epochs, node_names)
    return ChaosConfig(plan=plan, **workload)


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell in-process and grade it.

    Every cell gets a fresh :class:`~repro.obs.MetricsRegistry`; the
    snapshot ships in the result so the parent can merge telemetry
    across workers deterministically.
    """
    started = time.perf_counter()
    registry = MetricsRegistry()
    result = run_chaos(build_cell_config(cell), registry=registry)
    violations = result.check_acceptance()
    if cell.plan == "none":
        violations += scripted_violations(result)
    coverages = [record.record.coverage for record in result.records]
    stats = result.controller_stats
    return CellResult(
        cell=cell,
        derived_seed=cell.derived_seed,
        kind="scenario" if cell.plan == "none" else "chaos",
        ok=not violations,
        violations=tuple(violations),
        epochs_run=len(result.records),
        coverage_mean=sum(coverages) / len(coverages) if coverages else 1.0,
        coverage_min=min(coverages, default=1.0),
        push_bytes=stats.push_bytes if stats else 0,
        full_equivalent_bytes=stats.full_equivalent_bytes if stats else 0,
        messages_sent=result.bus_stats.sent if result.bus_stats else 0,
        bytes_sent=result.bus_stats.bytes_sent if result.bus_stats else 0,
        detection_epoch=dict(result.detection_epoch),
        redistribution_epoch=dict(result.redistribution_epoch),
        first_degraded_epoch=result.first_degraded_epoch,
        reconverged_epoch=result.reconverged_epoch,
        metrics=registry.snapshot(),
        duration_seconds=time.perf_counter() - started,
    )


def run_cell_payload(payload: dict) -> dict:
    """Process-pool entry point: dict in, dict out.

    Dict transport (rather than pickled result objects) keeps the
    worker boundary identical to the artifact-cache format, so a
    cached cell and a freshly executed one are indistinguishable to
    the merge layer.
    """
    return run_cell(SweepCell.from_dict(payload)).to_dict()
