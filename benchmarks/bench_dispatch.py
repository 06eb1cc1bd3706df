"""Batch-dispatch throughput: vectorized vs. scalar Fig. 3 checks.

The coordinated emulation runs the Fig. 3 decision procedure for every
(module, session) pair at every node on the session's path.  This
bench times that dispatch stage per session (``should_analyze``)
versus the NumPy batch path (``batch_decisions``), measures end-to-end
coordinated emulation on the scalar oracle
(``EmulationConfig(batch_engine=False)``) versus the default engine,
asserts the two produce identical reports, and (when run as a script)
writes ``BENCH_dispatch.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_dispatch.py

Under pytest this runs a reduced smoke workload (honours
``REPRO_SCALE``); the script mode uses the paper-scale 100k-session
trace.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro.core.nids_deployment import plan_deployment
from repro.experiments import scaled
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import EmulationConfig
from repro.nids.modules import STANDARD_MODULES
from repro.obs import MetricsRegistry
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from repro.traffic.batch import SessionBatch


def run_dispatch_benchmark(num_sessions: int, seed: int = 51) -> dict:
    """Time scalar vs. batch Fig. 3 dispatch on an Internet2 workload.

    Two measurements: the dispatch stage itself (every node deciding
    its full trace, the loop the vectorization replaces) and the full
    coordinated emulation end to end, scalar oracle against the
    default engine.  The default engine must reproduce the scalar
    emulation reports exactly — a speedup from different answers is a
    bug.
    """
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=seed))
    sessions = generator.generate(num_sessions)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    # Every node processes its transit traffic, so the dispatch count
    # is sessions weighted by path length, not len(sessions).
    traces = generator.split_by_node(list(sessions), transit=True)
    dispatches = sum(len(trace) for trace in traces.values())

    def fresh():
        # A fresh private hash cache per run: no path may benefit
        # from hashes another already computed.
        return dataclasses.replace(deployment, _shared_hash_cache={})

    # -- dispatch stage only: the engine's per-session sampling loop --
    dep = fresh()
    start = time.perf_counter()
    for node, trace in traces.items():
        dispatcher = dep.dispatcher(node)
        for session in trace:
            for spec in dep.modules:
                dispatcher.should_analyze(spec, session)
    scalar_seconds = time.perf_counter() - start

    dep = fresh()
    start = time.perf_counter()
    for node, trace in traces.items():
        dep.dispatcher(node).batch_decisions(SessionBatch(trace))
    batch_seconds = time.perf_counter() - start

    # -- full emulation end to end, plus report equivalence ----------
    traffic = Traffic.materialized(generator, sessions)

    def timed_emulation(batch: bool, registry=None):
        dep = fresh()
        config = EmulationConfig(batch_engine=batch)
        start = time.perf_counter()
        usage = run_emulation(traffic, dep, config=config, registry=registry)
        return time.perf_counter() - start, usage

    emu_scalar_seconds, scalar_usage = timed_emulation(batch=False)
    emu_batch_seconds, batch_usage = timed_emulation(batch=True)

    # -- telemetry overhead: live registry vs. the no-op default -----
    # Best-of-two per variant so a single scheduler hiccup cannot
    # masquerade as instrumentation cost.
    noop_seconds = min(timed_emulation(batch=True)[0] for _ in range(2))
    live_seconds, live_usage = timed_emulation(batch=True, registry=MetricsRegistry())
    live_seconds = min(live_seconds, timed_emulation(batch=True, registry=MetricsRegistry())[0])
    registry_identical = all(
        batch_usage.reports[node].cpu == live_usage.reports[node].cpu
        and batch_usage.reports[node].mem_bytes == live_usage.reports[node].mem_bytes
        for node in batch_usage.reports
    )

    identical = all(
        scalar_usage.reports[node].cpu == batch_usage.reports[node].cpu
        and scalar_usage.reports[node].mem_bytes == batch_usage.reports[node].mem_bytes
        and scalar_usage.reports[node].module_cpu
        == batch_usage.reports[node].module_cpu
        and scalar_usage.reports[node].module_items
        == batch_usage.reports[node].module_items
        for node in scalar_usage.reports
    )
    return {
        "benchmark": "coordinated-dispatch",
        "topology": "internet2",
        "num_sessions": num_sessions,
        "node_session_dispatches": dispatches,
        "dispatch": {
            "scalar_seconds": round(scalar_seconds, 4),
            "batch_seconds": round(batch_seconds, 4),
            "scalar_sessions_per_sec": round(dispatches / scalar_seconds, 1),
            "batch_sessions_per_sec": round(dispatches / batch_seconds, 1),
            "speedup": round(scalar_seconds / batch_seconds, 2),
        },
        "emulation_end_to_end": {
            "scalar_seconds": round(emu_scalar_seconds, 4),
            "batch_seconds": round(emu_batch_seconds, 4),
            "speedup": round(emu_scalar_seconds / emu_batch_seconds, 2),
        },
        "telemetry_overhead": {
            "noop_registry_seconds": round(noop_seconds, 4),
            "live_registry_seconds": round(live_seconds, 4),
            "overhead_fraction": round(live_seconds / noop_seconds - 1.0, 4),
            "reports_identical": registry_identical,
        },
        "reports_identical": identical,
    }


def test_batch_dispatch_smoke():
    """CI smoke: the batch path must beat scalar and agree exactly.

    The ≥5x acceptance target applies to the full-scale script run
    (see BENCH_dispatch.json); at smoke scale we assert a conservative
    floor so CI timing noise cannot flake the job.
    """
    result = run_dispatch_benchmark(scaled(20_000, minimum=2_000))
    print(json.dumps(result, indent=2))
    assert result["reports_identical"], "batch reports diverge from scalar"
    assert result["dispatch"]["speedup"] > 1.5, result
    assert result["emulation_end_to_end"]["speedup"] > 1.0, result
    telemetry = result["telemetry_overhead"]
    assert telemetry["reports_identical"], "live registry changed the results"
    # A live registry may cost at most 10% throughput vs. the no-op
    # default (the tentpole budget is 5%; smoke allows timing noise).
    assert telemetry["overhead_fraction"] <= 0.10, telemetry


if __name__ == "__main__":
    result = run_dispatch_benchmark(
        int(os.environ.get("BENCH_SESSIONS", "100000"))
    )
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_dispatch.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
