#!/usr/bin/env python
"""The coordination plane end to end (paper §2.2 operations center, §5).

The paper's deployment story needs more than a one-shot LP solve: "a
centralized operations center periodically configures the NIDS
responsibilities of the different nodes", traffic shifts between
reports, and NIDS processes crash.  This example drives the full
controller–agent runtime through that lifecycle:

1. **Steady state** — agents export NetFlow reports and heartbeats
   each epoch; the controller re-solves periodically and distributes
   *delta* manifest updates over a lossy-capable bus.
2. **Traffic shift** — the mix flips mixed → web-heavy; the controller
   detects the drift and re-plans.
3. **Failure** — one node's NIDS process dies mid-run.  Missed
   heartbeats trip the detector; the dead node's hash ranges move to
   on-path survivors via a targeted repair (a delta-sized push, not a
   network-wide reconfiguration).
4. **Recovery** — the process restarts cold, heartbeats again, and a
   full re-solve folds it back in.

The schedule is a fault plan (a ``shift`` event and a cold-restart
``crash`` event) run by the one epoch driver, ``run_chaos``, so the
invariant monitor judges it as it judges any chaos run.  The run
finishes by asserting the monitor's verdict and the scenario's
acceptance criteria: coverage stays >= 99% outside transition windows,
the failed node's ranges are reassigned within 2 epochs of detection,
and delta pushes undercut full-manifest distribution on
unchanged-majority epochs.

Run:  python examples/control_plane.py [epochs]
"""

import sys

from repro.control import (
    COVERAGE_FLOOR,
    REDISTRIBUTION_DEADLINE_EPOCHS,
    run_chaos,
    scripted_violations,
    standard_scenario,
)

FAIL_NODE = "NYCM"


def main() -> None:
    epochs = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    config = standard_scenario(
        shift_epoch=5,
        fail_epoch=8,
        recover_epoch=12,
        fail_node=FAIL_NODE,
        epochs=epochs,
        base_sessions=900,
    )
    result = run_chaos(config)

    print(
        f"coordination plane on {config.topology}: {config.epochs} epochs"
        f" (shift@5, {FAIL_NODE} fails@8, recovers@12)"
    )
    print(
        f"{'epoch':>5} {'event':<10} {'pushes':>7} {'push B':>7}"
        f" {'full-eq B':>9} {'coverage':>8}  notes"
    )
    for r in result.epoch_records:
        notes = []
        if r.failed_nodes:
            notes.append("down:" + ",".join(r.failed_nodes))
        if r.in_transition:
            notes.append("transition")
        pushes = r.pushes_full + r.pushes_delta
        print(
            f"{r.epoch:>5} {r.resolved or '-':<10} {pushes:>7}"
            f" {r.push_bytes:>7} {r.full_equivalent_bytes:>9}"
            f" {r.coverage:>8.4f}  {' '.join(notes)}"
        )

    detected = result.detection_epoch[FAIL_NODE]
    redistributed = result.redistribution_epoch[FAIL_NODE]
    reintegrated = result.reintegration_epoch[FAIL_NODE]
    print(
        f"\n{FAIL_NODE}: crash detected at epoch {detected}"
        f" (heartbeat timeout), hash ranges redistributed to on-path"
        f" survivors at epoch {redistributed}"
        f" (orphaned singleton mass: {result.orphaned_mass[FAIL_NODE]:.2f}),"
        f" reintegrated at epoch {reintegrated}"
    )
    stats = result.controller_stats
    print(
        f"distribution: {stats.pushes_delta} delta + {stats.pushes_full} full"
        f" pushes, {stats.push_bytes:,} B on the wire"
        f" ({stats.push_bytes / stats.full_equivalent_bytes:.0%} of"
        f" full-manifest cost)"
    )

    # --- acceptance criteria --------------------------------------------
    violations = result.check_acceptance() + scripted_violations(result)
    assert not violations, violations
    steady = [r for r in result.epoch_records if not r.in_transition]
    assert steady and all(r.coverage >= COVERAGE_FLOOR for r in steady)
    assert redistributed - detected <= REDISTRIBUTION_DEADLINE_EPOCHS
    delta_epochs = [
        r
        for r in result.epoch_records
        if r.resolved in ("drift", "periodic", "failure")
        and r.unchanged_entry_fraction >= 0.5
        and r.push_bytes > 0
    ]
    assert delta_epochs and all(
        r.push_bytes < r.full_equivalent_bytes for r in delta_epochs
    )
    print(
        f"acceptance: coverage >= {COVERAGE_FLOOR:.0%} on all"
        f" {len(steady)} non-transition epochs; redistribution within"
        f" {redistributed - detected} epoch(s) of detection;"
        f" deltas beat full pushes on all {len(delta_epochs)}"
        f" unchanged-majority reconfigurations"
    )


if __name__ == "__main__":
    main()
