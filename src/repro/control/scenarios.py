"""Scripted coordination-plane schedules and their acceptance criteria.

A scripted run is a fault plan like any other, driven by
:func:`~repro.control.chaos.run_chaos` and judged by the same
invariant monitor: a traffic-profile switch is a ``shift`` event and
a NIDS process crash with a later recovery is a ``crash`` event with a
cold restart.  On top of the monitor's verdict,
:func:`scripted_violations` scores the run against the paper's
operational requirements: the live network stays covered, a failed
node's responsibilities move to on-path survivors within a bounded
number of epochs, and steady-state configuration pushes cost
delta-sized, not full-manifest-sized, bytes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .chaos import COVERAGE_FLOOR, ChaosConfig, ChaosResult, FaultEvent, FaultPlan

#: Acceptance threshold: epochs allowed between failure detection and
#: full reassignment of the failed node's hash ranges.
REDISTRIBUTION_DEADLINE_EPOCHS = 2

#: The scripted regime's :class:`ChaosConfig` values: no leases,
#: periodic re-solves, a mild diurnal swing and no bursts.
SCRIPTED_DEFAULTS = dict(
    epochs=16,
    base_sessions=900,
    resolve_every=4,
    lease_ttl=None,
    diurnal_amplitude=0.08,
    burst_probability=0.0,
)


def scripted_events(
    epochs: int,
    shift_epoch: int,
    fail_epoch: int,
    recover_epoch: int,
    fail_node: str,
    shift_profile: str,
) -> Tuple[FaultEvent, ...]:
    """A profile shift that lasts to the end of an *epochs*-long run,
    then a crash of *fail_node* with a cold restart."""
    return (
        FaultEvent(
            kind="shift",
            start=float(shift_epoch),
            end=float(max(epochs, shift_epoch + 1)),
            profile=shift_profile,
        ),
        FaultEvent(
            kind="crash",
            start=float(fail_epoch),
            end=float(recover_epoch),
            node=fail_node,
        ),
    )


def scripted_config(
    events: Sequence[FaultEvent] = (),
    name: str = "scripted",
    **overrides,
) -> ChaosConfig:
    """A run of *events* with the scripted regime's defaults."""
    fields = {**SCRIPTED_DEFAULTS, **overrides}
    return ChaosConfig(plan=FaultPlan(name=name, events=tuple(events)), **fields)


def standard_scenario(
    shift_epoch: int = 5,
    fail_epoch: int = 8,
    recover_epoch: int = 12,
    fail_node: str = "NYCM",
    shift_profile: str = "web_heavy",
    **overrides,
) -> ChaosConfig:
    """The canonical steady → shift → failure → recovery schedule."""
    epochs = overrides.get("epochs", SCRIPTED_DEFAULTS["epochs"])
    events = scripted_events(
        epochs, shift_epoch, fail_epoch, recover_epoch, fail_node, shift_profile
    )
    return scripted_config(events, name="standard", **overrides)


def scripted_violations(result: ChaosResult) -> List[str]:
    """Violations of the scripted acceptance criteria (empty = pass).

    These sit on top of the monitor's verdict
    (:meth:`ChaosResult.check_acceptance`): coverage at the floor on
    every epoch outside a transition window, detection of every
    injected crash, redistribution within the deadline, and delta
    pushes that undercut full-manifest distribution.
    """
    violations: List[str] = []
    for record in result.epoch_records:
        if record.in_transition:
            continue
        if record.coverage < COVERAGE_FLOOR:
            violations.append(
                f"epoch {record.epoch}: coverage {record.coverage:.4f}"
                f" < {COVERAGE_FLOOR} outside a transition window"
            )
    for node, detected in result.detection_epoch.items():
        redistributed = result.redistribution_epoch.get(node)
        if redistributed is None:
            violations.append(
                f"{node}: ranges never fully redistributed after the"
                f" failure was detected at epoch {detected}"
            )
        elif redistributed - detected > REDISTRIBUTION_DEADLINE_EPOCHS:
            violations.append(
                f"{node}: redistribution took"
                f" {redistributed - detected} epochs (detected"
                f" {detected}, redistributed {redistributed};"
                f" deadline {REDISTRIBUTION_DEADLINE_EPOCHS})"
            )
    if result.config.plan.crash_events() and not result.detection_epoch:
        violations.append("injected failure was never detected")
    # Delta efficiency: on reconfiguration epochs where the majority
    # of manifest entries carried over, the bytes actually pushed
    # must undercut full-manifest distribution.  Bootstrap and
    # recovery epochs are excluded: a cold agent requires a full
    # manifest by protocol, so there is nothing for a delta to win.
    qualifying = [
        r
        for r in result.epoch_records
        if r.resolved in ("drift", "periodic", "failure")
        and r.unchanged_entry_fraction >= 0.5
        and r.push_bytes > 0
    ]
    for record in qualifying:
        if record.push_bytes >= record.full_equivalent_bytes:
            violations.append(
                f"epoch {record.epoch} ({record.resolved}): pushed"
                f" {record.push_bytes} B >= full-manifest"
                f" {record.full_equivalent_bytes} B despite"
                f" {record.unchanged_entry_fraction:.0%} unchanged entries"
            )
    if not qualifying:
        violations.append(
            "no unchanged-majority reconfiguration epoch exercised"
            " delta distribution"
        )
    return violations
