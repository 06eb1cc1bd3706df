#!/usr/bin/env python
"""Network-wide NIDS emulation: edge-only vs. coordinated (Figs. 6-8).

Emulates both deployment styles over the same trace and prints the
paper's headline comparison — maximum per-node CPU and memory — plus
the per-node Fig. 8 profile showing how coordination offloads the New
York hotspot onto transit nodes.

Both runs go through the unified :func:`repro.nids.run_emulation`
entry point: hand it module specs for the edge-only baseline, hand it
the planned ``NIDSDeployment`` for the coordinated run.

Run:  python examples/nids_network_wide.py  [#sessions]
"""

import sys

from repro.experiments import fig8_per_node_profile
from repro.experiments.nids_network_wide import NetworkWideSetup
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.modules import module_set


def main() -> None:
    num_sessions = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    setup = NetworkWideSetup.internet2(seed=42)
    sessions = setup.generator.generate(num_sessions)
    modules = module_set(21)
    print(f"{num_sessions} sessions, {len(modules)} NIDS modules on Internet2\n")

    deployment = setup.deployment(sessions, 21)
    traffic = Traffic.materialized(setup.generator, sessions)
    edge = run_emulation(traffic, modules)
    coordinated = run_emulation(traffic, deployment)

    print("maximum per-node footprints:")
    print(f"  edge-only    cpu={edge.max_cpu:>12.0f}  mem={edge.max_mem_mb:>7.1f} MB")
    print(
        f"  coordinated  cpu={coordinated.max_cpu:>12.0f}"
        f"  mem={coordinated.max_mem_mb:>7.1f} MB"
    )
    print(
        f"  reduction    cpu={1 - coordinated.max_cpu / edge.max_cpu:>11.1%}"
        f"  mem={1 - coordinated.max_mem_mb / edge.max_mem_mb:>7.1%}"
    )
    print("  (paper Fig. 7: ~50% CPU and ~20% memory at 100k sessions)\n")

    print("per-node profile (Fig. 8):")
    header = f"{'#':>2} {'node':<6} {'edge cpu':>12} {'coord cpu':>12} {'edge MB':>9} {'coord MB':>9}"
    print(header)
    print("-" * len(header))
    for index, node in enumerate(setup.topology.node_names, start=1):
        print(
            f"{index:>2} {node:<6} {edge.cpu(node):>12.0f}"
            f" {coordinated.cpu(node):>12.0f} {edge.mem_mb(node):>9.1f}"
            f" {coordinated.mem_mb(node):>9.1f}"
        )
    print(
        f"\nhottest edge node: #{setup.topology.node_names.index(edge.hottest_cpu_node()) + 1}"
        f" ({setup.topology.node(edge.hottest_cpu_node()).city})"
        " — the paper's node 11, New York"
    )


if __name__ == "__main__":
    main()
