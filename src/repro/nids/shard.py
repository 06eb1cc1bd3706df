"""Intra-scenario sharded emulation (process-level parallelism).

:mod:`repro.sweep` parallelizes *across* scenario cells; this module
parallelizes *inside* one heavy emulation run.  The paper's own
argument makes this safe: NIDS work partitions across vantage points
with no loss of fidelity, and our accounting layer already proved the
engine-side analogue — :class:`~repro.nids.engine.PartialInstanceReport`
merges exactly (order-independent counters, ``ExactSum`` CPU
accumulators, unioned distinct-key arrays) and pickles loss-free.

The execution shape follows the sweep executor we already trust:

* the trace is split per node (the paper's Section 2.4 trace
  construction), and hot node traces are further split into
  ``chunk_size`` shards — the per-routing-pair refinement collapses to
  this, because any contiguous re-chunking merges exactly;
* each shard runs in a **spawn-safe** ``ProcessPoolExecutor`` worker
  (:func:`run_shard_payload`: module-level, dict in / dict out,
  shared-nothing — coordinated workers rebuild their dispatcher from
  the node's manifest rather than inheriting live state);
* the parent merges the returned partials per node and finalizes,
  which is **bit-identical** (float-hex comparable) to the inline,
  streamed, and batch paths by construction;
* wall-clock metric families (``*_seconds`` / ``*_per_second``) are
  excluded from the merged telemetry, exactly as the sweep report
  layer does, so a live registry never breaks report determinism.

Nested sharding is guarded: a run that already executes inside a
worker process (a sweep cell, or a shard worker itself) falls back to
inline execution and counts ``engine_shard_fallback_total`` — spawning
a pool per worker would oversubscribe the host and can deadlock
constrained executors.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.dispatch import CoordinatedDispatcher, UnitResolver
from ..core.manifest import NodeManifest
from ..obs import NONDETERMINISTIC_SUFFIXES, MetricsRegistry, NULL_REGISTRY
from ..traffic.session import Session
from .engine import (
    BroInstance,
    BroMode,
    EmulationConfig,
    ExecutionPolicy,
    InstanceReport,
    PartialInstanceReport,
)
from .modules.base import Alert, ModuleSpec

#: Environment override forcing inline fallback (useful for tests and
#: for operators running under an outer scheduler the guard cannot see).
FORCE_INLINE_ENV = "REPRO_SHARD_INLINE"


def in_worker_process() -> bool:
    """Whether this process already runs inside another worker pool.

    ``multiprocessing.parent_process()`` is non-``None`` in any child
    started by :mod:`multiprocessing` — sweep-cell workers and shard
    workers alike — which is exactly the oversubscription case: every
    such child spawning its own pool would multiply the process count
    by the job factor.  The :data:`FORCE_INLINE_ENV` variable extends
    the guard to externally managed workers.
    """
    if os.environ.get(FORCE_INLINE_ENV):
        return True
    return multiprocessing.parent_process() is not None


def plan_shards(
    traces: Dict[str, List[Session]],
    chunk_size: int,
    allow_chunking: bool,
) -> List[Tuple[str, List[Session]]]:
    """Split per-node traces into shard work items.

    Every node with traffic yields at least one shard; nodes hotter
    than *chunk_size* sessions are split into contiguous chunks (exact
    under merge, so the cut points are free to choose).  When
    *allow_chunking* is off — behavioural detectors are stateful across
    a node's whole trace — each node stays a single shard, preserving
    the sequential alert stream per node.
    """
    shards: List[Tuple[str, List[Session]]] = []
    for node, trace in traces.items():
        if not trace:
            continue
        if not allow_chunking or len(trace) <= chunk_size:
            shards.append((node, trace))
            continue
        for start in range(0, len(trace), chunk_size):
            shards.append((node, trace[start : start + chunk_size]))
    return shards


def _worker_config(config: EmulationConfig) -> EmulationConfig:
    """The config a shard worker runs under.

    The live registry must not cross the process boundary (workers
    report snapshots instead), and the policy is reset so nothing in a
    worker ever consults the sharded mode again.
    """
    return replace(config, registry=NULL_REGISTRY, policy=ExecutionPolicy())


def run_shard_payload(payload: dict) -> dict:
    """Process-pool entry point: one shard, dict in / dict out.

    Spawn-safe: module-level, no inherited state.  A coordinated shard
    rebuilds its node's dispatcher from the manifest, module specs, and
    hash seed (a fresh per-worker hash cache — hash values depend only
    on header fields, so decisions are identical to the parent's).
    The returned dict carries the shard's loss-free partial report,
    any detector alerts (in detector order, matching the sequential
    :meth:`~repro.nids.engine.BroInstance.finalize_partial` append
    order), and — when the parent runs a live registry — the worker's
    telemetry snapshot for deterministic merging.
    """
    node: str = payload["node"]
    mode = BroMode(payload["mode"])
    config: EmulationConfig = payload["config"]
    modules: Sequence[ModuleSpec] = payload["modules"]
    registry = MetricsRegistry() if payload["collect_metrics"] else NULL_REGISTRY
    dispatcher = None
    if mode is not BroMode.UNMODIFIED:
        dispatcher = CoordinatedDispatcher(
            node=node,
            manifest=payload["manifest"],
            modules=modules,
            resolver=UnitResolver(payload["node_names"]),
            hash_seed=payload["hash_seed"],
        )
    instance = BroInstance(
        node=node,
        modules=modules,
        mode=mode,
        dispatcher=dispatcher,
        config=replace(config, registry=registry),
    )
    partial = instance.process_sessions_partial(payload["sessions"])
    alerts: List[dict] = []
    for detector in instance.detectors.values():
        alerts.extend(alert.to_dict() for alert in detector.alerts)
    return {
        "shard_id": payload["shard_id"],
        "node": node,
        "partial": partial.to_dict(),
        "alerts": alerts,
        "metrics": registry.snapshot() if payload["collect_metrics"] else None,
    }


def _filtered_snapshot(snapshot: dict) -> dict:
    """Drop wall-clock families from a worker snapshot before merging."""
    kept = {
        name: entry
        for name, entry in snapshot["metrics"].items()
        if not name.endswith(NONDETERMINISTIC_SUFFIXES)
    }
    return {"version": snapshot["version"], "metrics": kept}


def run_sharded(
    label: str,
    traces: Dict[str, List[Session]],
    modules: Sequence[ModuleSpec],
    mode: BroMode,
    config: EmulationConfig,
    node_names: Sequence[str],
    manifests: Optional[Dict[str, NodeManifest]] = None,
    hash_seed: int = 0,
) -> "DeploymentUsage":
    """Fan per-node trace shards out to a spawn pool and merge exactly.

    *traces* is the Section 2.4 per-node split (edge or transit);
    coordinated runs (*mode* not ``UNMODIFIED``) need *manifests* and
    *hash_seed* so workers can rebuild dispatchers.  The merged
    :class:`~repro.nids.emulation.DeploymentUsage` is bit-identical to
    the inline run over the same traces for every worker count and
    every ``chunk_size``.
    """
    from concurrent.futures import ProcessPoolExecutor

    from .emulation import DeploymentUsage

    policy = config.policy
    coordinated = mode is not BroMode.UNMODIFIED
    if coordinated and manifests is None:
        raise ValueError("coordinated sharded runs need per-node manifests")
    registry = config.registry
    collect_metrics = registry.enabled
    # Detectors are stateful across a node's trace: keep one shard per
    # node so each worker sees the node's full sequential stream.
    shards = plan_shards(
        traces, policy.chunk_size, allow_chunking=not config.run_detectors
    )
    jobs = policy.jobs or os.cpu_count() or 1
    worker_config = _worker_config(config)
    payloads = [
        {
            "shard_id": shard_id,
            "node": node,
            "mode": mode.value,
            "sessions": sessions,
            "modules": list(modules),
            "manifest": manifests[node] if coordinated and manifests else None,
            "node_names": tuple(node_names),
            "hash_seed": hash_seed,
            "config": worker_config,
            "collect_metrics": collect_metrics,
        }
        for shard_id, (node, sessions) in enumerate(shards)
    ]
    registry.counter(
        "engine_shard_tasks_total",
        "shard work items dispatched to emulation workers",
    ).inc(len(payloads))
    registry.counter(
        "engine_shard_sessions_total",
        "sessions shipped to sharded emulation workers",
    ).inc(sum(len(sessions) for _, sessions in shards))
    results: List[dict] = []
    if payloads:
        workers = min(jobs, len(payloads))
        registry.gauge(
            "engine_shard_workers",
            "worker processes used by the most recent sharded emulation",
        ).set(workers)
        context = multiprocessing.get_context(policy.mp_context)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            results = list(pool.map(run_shard_payload, payloads, chunksize=1))
    # Merge in shard-id order: the accounting is order-independent, but
    # a fixed order keeps gauge last-merge-wins telemetry deterministic.
    results.sort(key=lambda result: result["shard_id"])
    partials: Dict[str, PartialInstanceReport] = {}
    alerts: Dict[str, List[Alert]] = {}
    for result in results:
        node = result["node"]
        partial = PartialInstanceReport.from_dict(result["partial"])
        held = partials.get(node)
        if held is None:
            partials[node] = partial
        else:
            held.merge(partial)
        alerts.setdefault(node, []).extend(
            Alert.from_dict(alert) for alert in result["alerts"]
        )
        if collect_metrics and result["metrics"] is not None:
            registry.merge_from(_filtered_snapshot(result["metrics"]))
    module_names = [spec.name for spec in modules]
    reports: Dict[str, InstanceReport] = {}
    for node in traces:
        partial = partials.get(node) or PartialInstanceReport.empty(
            node, mode, module_names
        )
        report = partial.finalize(modules, config.cost_model)
        report.alerts.extend(alerts.get(node, ()))
        reports[node] = report
    return DeploymentUsage(label=label, reports=reports)
