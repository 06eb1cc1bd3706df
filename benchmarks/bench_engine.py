"""Vectorized-engine throughput and streaming memory ceiling.

``bench_dispatch`` told an Amdahl story: batch dispatch alone is ~10x
but end-to-end emulation only ~2.7x, because per-session module
processing and cost accounting in the engine still ran in Python.
This bench measures the full vectorized engine
(``EmulationConfig(batch_engine=True)``) against the scalar reference,
asserts both produce bit-identical reports, records a sessions/sec
trajectory across trace sizes, and — in script mode — demonstrates
the streaming memory ceiling with subprocess peak-RSS measurements:

    PYTHONPATH=src python benchmarks/bench_engine.py

writes ``BENCH_engine.json`` at the repo root.  Under pytest this runs
a reduced smoke workload (honours ``REPRO_SCALE``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

from repro.core.nids_deployment import plan_deployment
from repro.experiments import scaled
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import EmulationConfig, ExecutionPolicy
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator

#: Streaming chunk size used by the memory demonstration children.
DEFAULT_CHUNK = 100_000


def _build(num_sessions: int, seed: int):
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=seed))
    sessions = generator.generate(num_sessions)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    return generator, sessions, deployment


def _usage_digest(usage) -> str:
    """Deterministic fingerprint of a DeploymentUsage — equal digests
    mean bit-identical reports (floats serialize exactly via repr)."""
    payload = json.dumps(usage.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def run_engine_benchmark(num_sessions: int, seed: int = 51) -> dict:
    """Time the two engine paths on an Internet2 workload.

    scalar: per-session Python loops for dispatch and cost model.
    full-batch: vectorized sampling *and* cost model.
    Both must produce bit-identical reports — a speedup from
    different answers is a bug.  The streaming run re-generates the
    trace in chunks and must match the materialized report exactly.
    """
    generator, sessions, deployment = _build(num_sessions, seed)
    traces = generator.split_by_node(list(sessions), transit=True)
    dispatches = sum(len(trace) for trace in traces.values())

    traffic = Traffic.materialized(generator, sessions)

    def timed(config: EmulationConfig):
        dep = dataclasses.replace(deployment, _shared_hash_cache={})
        start = time.perf_counter()
        usage = run_emulation(traffic, dep, config=config)
        return time.perf_counter() - start, usage

    scalar_seconds, scalar_usage = timed(EmulationConfig(batch_engine=False))
    batch_seconds, batch_usage = timed(EmulationConfig(batch_engine=True))

    digests = {
        "scalar": _usage_digest(scalar_usage),
        "full_batch": _usage_digest(batch_usage),
    }
    identical = len(set(digests.values())) == 1

    # -- streaming: chunked generation through persistent instances --
    dep = dataclasses.replace(deployment, _shared_hash_cache={})
    chunk_size = max(1, min(DEFAULT_CHUNK, num_sessions // 4 or 1))
    start = time.perf_counter()
    stream_usage = run_emulation(
        Traffic.chunked(generator, generator.generate_chunks(num_sessions, chunk_size)),
        dep,
        config=EmulationConfig(policy=ExecutionPolicy.streamed()),
    )
    stream_seconds = time.perf_counter() - start
    stream_identical = _usage_digest(stream_usage) == digests["full_batch"]

    # -- sessions/sec trajectory across trace sizes -------------------
    trajectory = []
    for fraction in (0.1, 0.25, 0.5, 1.0):
        size = max(1_000, int(num_sessions * fraction))
        if size > num_sessions:
            break
        subset = sessions[:size]
        dep = dataclasses.replace(deployment, _shared_hash_cache={})
        start = time.perf_counter()
        run_emulation(
            Traffic.materialized(generator, subset), dep, config=EmulationConfig()
        )
        elapsed = time.perf_counter() - start
        node_sessions = sum(
            len(trace)
            for trace in generator.split_by_node(list(subset), transit=True).values()
        )
        trajectory.append(
            {
                "num_sessions": size,
                "seconds": round(elapsed, 4),
                "sessions_per_sec": round(size / elapsed, 1),
                "node_sessions_per_sec": round(node_sessions / elapsed, 1),
            }
        )

    return {
        "benchmark": "vectorized-engine",
        "topology": "internet2",
        "num_sessions": num_sessions,
        "node_session_dispatches": dispatches,
        "emulation_end_to_end": {
            "scalar_seconds": round(scalar_seconds, 4),
            "full_batch_seconds": round(batch_seconds, 4),
            "speedup_vs_scalar": round(scalar_seconds / batch_seconds, 2),
            "scalar_sessions_per_sec": round(num_sessions / scalar_seconds, 1),
            "full_batch_sessions_per_sec": round(num_sessions / batch_seconds, 1),
        },
        "streaming": {
            "chunk_size": chunk_size,
            "seconds": round(stream_seconds, 4),
            "report_identical_to_materialized": stream_identical,
        },
        "sessions_per_sec_trajectory": trajectory,
        "reports_identical": identical,
    }


# -- memory-ceiling demonstration (script mode) ---------------------------
def _child_main(argv) -> None:
    """Run one emulation in this process and report peak RSS.

    Invoked via ``--child {materialize,stream} N [CHUNK]`` by the
    parent benchmark so each measurement sees a fresh address space.
    """
    import resource

    mode, num_sessions = argv[0], int(argv[1])
    chunk = int(argv[2]) if len(argv) > 2 else DEFAULT_CHUNK
    # Both modes plan on the same bounded prefix so their manifests —
    # and therefore their reports — are directly comparable, and the
    # streaming child never materializes the full trace.
    generator, deployment = _build_for_stream(
        num_sessions, seed=51, plan_sessions=min(num_sessions, 100_000)
    )
    start = time.perf_counter()
    if mode == "materialize":
        usage = run_emulation(
            Traffic.materialized(generator, generator.generate(num_sessions)),
            deployment,
            config=EmulationConfig(),
        )
    else:
        usage = run_emulation(
            Traffic.chunked(
                generator, generator.generate_chunks(num_sessions, chunk)
            ),
            deployment,
            config=EmulationConfig(policy=ExecutionPolicy.streamed()),
        )
    elapsed = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "mode": mode,
                "num_sessions": num_sessions,
                "chunk_size": chunk if mode == "stream" else None,
                "peak_rss_mb": round(rss_kb / 1024.0, 1),
                "seconds": round(elapsed, 2),
                "digest": _usage_digest(usage),
            }
        )
    )


def _build_for_stream(num_sessions: int, seed: int, plan_sessions: int):
    """Deployment planned on a bounded prefix so the streaming child
    never materializes the full trace (planning input scales the LP,
    not the emulation semantics)."""
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=seed))
    planning = generator.generate(plan_sessions)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, planning)
    return generator, deployment


def _run_child(mode: str, num_sessions: int, chunk: int = DEFAULT_CHUNK) -> dict:
    args = [sys.executable, os.path.abspath(__file__), "--child", mode, str(num_sessions)]
    if mode == "stream":
        args.append(str(chunk))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(args, capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_memory_ceiling(stream_sessions: int = 1_000_000, parity_sessions: int = 200_000) -> dict:
    """Peak-RSS comparison: materialize-all vs streaming.

    Demonstrates (a) report parity between the two paths at a size
    where both fit comfortably, and (b) that a ≥1M-session streaming
    run's footprint is bounded by the chunk size — its RSS stays at
    the materialized footprint of roughly one chunk, not of the full
    trace.
    """
    materialized = _run_child("materialize", parity_sessions)
    streamed_parity = _run_child("stream", parity_sessions, chunk=50_000)
    big_stream = _run_child("stream", stream_sessions, chunk=DEFAULT_CHUNK)
    small_chunk_stream = _run_child("stream", stream_sessions, chunk=25_000)
    return {
        "parity": {
            "num_sessions": parity_sessions,
            "materialized": materialized,
            "streamed": streamed_parity,
            "reports_identical": materialized["digest"] == streamed_parity["digest"],
        },
        "streaming_1m": {
            "chunk_100k": big_stream,
            "chunk_25k": small_chunk_stream,
            # The ceiling claim: 5x more sessions than the parity run
            # must not cost 5x the memory — the footprint follows the
            # chunk, not the trace.
            "rss_bounded_by_chunk": big_stream["peak_rss_mb"]
            < 2.0 * materialized["peak_rss_mb"],
        },
    }


def test_engine_smoke():
    """CI smoke: the vectorized engine must beat scalar and agree
    exactly, and the streaming path must reproduce the materialized
    report bit for bit.

    The ~10x acceptance target applies to the full-scale script run
    (see BENCH_engine.json); smoke asserts a conservative floor so CI
    timing noise cannot flake the job.
    """
    result = run_engine_benchmark(scaled(20_000, minimum=2_000))
    print(json.dumps(result, indent=2))
    assert result["reports_identical"], "batch reports diverge from scalar"
    assert result["streaming"]["report_identical_to_materialized"], result
    assert result["emulation_end_to_end"]["speedup_vs_scalar"] > 1.5, result


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child_main(sys.argv[2:])
        sys.exit(0)
    result = run_engine_benchmark(int(os.environ.get("BENCH_SESSIONS", "100000")))
    result["memory_ceiling"] = run_memory_ceiling(
        stream_sessions=int(os.environ.get("BENCH_STREAM_SESSIONS", "1000000"))
    )
    out = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
