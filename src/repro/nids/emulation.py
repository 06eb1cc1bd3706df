"""Network-wide deployment emulation (paper Section 2.4).

Reproduces the paper's methodology: "From a network-wide trace, we
generate traces that each node sees.  For the coordinated case, this
includes both traffic originating/terminating at a node and transit
traffic.  For the edge-only case, these consist of traffic
originating/terminating at each node."  Each node's trace is then run
through a simulated Bro instance — unmodified for the edge-only
deployment, coordination-enabled (approach 2, checks as early as
possible) for the coordinated deployment — and per-node CPU and memory
footprints are reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..core.nids_deployment import NIDSDeployment
from ..obs import MetricsRegistry
from ..traffic.generator import TrafficGenerator
from ..traffic.session import Session
from .engine import (
    BroInstance,
    BroMode,
    EmulationConfig,
    ExecutionMode,
    InstanceReport,
    PartialInstanceReport,
    with_registry,
)
from .modules.base import Alert, ModuleSpec


@dataclass
class DeploymentUsage:
    """Per-node resource footprints for one deployment style."""

    label: str
    reports: Dict[str, InstanceReport]

    @property
    def nodes(self) -> List[str]:
        """Node names covered by this deployment run."""
        return list(self.reports)

    def cpu(self, node: str) -> float:
        """CPU footprint of *node*."""
        return self.reports[node].cpu

    def mem_bytes(self, node: str) -> float:
        """Memory footprint of *node* in bytes."""
        return self.reports[node].mem_bytes

    def mem_mb(self, node: str) -> float:
        """Memory footprint of *node* in mebibytes."""
        return self.reports[node].mem_bytes / (1024.0 * 1024.0)

    @property
    def max_cpu(self) -> float:
        """Maximum per-node CPU footprint (the figures' y-axis)."""
        return max(r.cpu for r in self.reports.values())

    @property
    def max_mem_bytes(self) -> float:
        """Maximum per-node memory footprint in bytes."""
        return max(r.mem_bytes for r in self.reports.values())

    @property
    def max_mem_mb(self) -> float:
        """Maximum per-node memory footprint in mebibytes."""
        return self.max_mem_bytes / (1024.0 * 1024.0)

    def hottest_cpu_node(self) -> str:
        """Node with the largest CPU footprint."""
        return max(self.reports, key=lambda n: self.reports[n].cpu)

    def hottest_mem_node(self) -> str:
        """Node with the largest memory footprint."""
        return max(self.reports, key=lambda n: self.reports[n].mem_bytes)

    def alert_keys(self) -> Set[Tuple[str, str]]:
        """Aggregate deduplicated alerts across all nodes."""
        keys: Set[Tuple[str, str]] = set()
        for report in self.reports.values():
            keys.update(alert.key() for alert in report.alerts)
        return keys

    def to_dict(self) -> dict:
        """JSON-compatible dict for cross-process result transport."""
        return {
            "label": self.label,
            "reports": {
                node: report.to_dict()
                for node, report in self.reports.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DeploymentUsage":
        """Rebuild a usage result from :meth:`to_dict` output."""
        return cls(
            label=data["label"],
            reports={
                node: InstanceReport.from_dict(report)
                for node, report in data["reports"].items()
            },
        )


@dataclass
class Traffic:
    """The trace input to :func:`run_emulation`, with its routing context.

    The generator supplies topology and routing (``split_by_node``),
    and exactly one of three trace sources supplies the sessions —

    * ``sessions`` — an already-materialized trace
      (:meth:`materialized`);
    * ``chunks`` — an iterable of session chunks, e.g. from
      ``TrafficGenerator.generate_chunks`` (:meth:`chunked`; one-shot,
      as any iterable);
    * ``num_sessions`` — generate the trace lazily from the
      generator's seed (:meth:`generate`).

    All sources describe the same accounting result for the same
    sessions — the engine's reports are order-independent and exact —
    so the choice only affects memory and execution shape.
    """

    generator: TrafficGenerator
    sessions: Optional[Sequence[Session]] = None
    chunks: Optional[Iterable[Sequence[Session]]] = None
    num_sessions: Optional[int] = None

    def __post_init__(self) -> None:
        sources = [
            source
            for source in (self.sessions, self.chunks, self.num_sessions)
            if source is not None
        ]
        if len(sources) != 1:
            raise ValueError(
                "Traffic needs exactly one of sessions=, chunks=, or"
                " num_sessions="
            )

    @classmethod
    def materialized(
        cls, generator: TrafficGenerator, sessions: Sequence[Session]
    ) -> "Traffic":
        """An already-generated trace."""
        return cls(generator=generator, sessions=sessions)

    @classmethod
    def chunked(
        cls,
        generator: TrafficGenerator,
        chunks: Iterable[Sequence[Session]],
    ) -> "Traffic":
        """A pre-chunked session stream (one-shot iterable)."""
        return cls(generator=generator, chunks=chunks)

    @classmethod
    def generate(cls, generator: TrafficGenerator, num_sessions: int) -> "Traffic":
        """Generate *num_sessions* lazily from the generator's seed."""
        if num_sessions < 0:
            raise ValueError("num_sessions must be >= 0")
        return cls(generator=generator, num_sessions=num_sessions)

    def materialize(self) -> List[Session]:
        """The full session list (consumes a ``chunks`` source)."""
        if self.sessions is not None:
            return list(self.sessions)
        if self.num_sessions is not None:
            return self.generator.generate(self.num_sessions)
        assert self.chunks is not None
        return [session for chunk in self.chunks for session in chunk]

    def chunk_iter(self, chunk_size: int) -> Iterator[Sequence[Session]]:
        """The trace as chunks of at most *chunk_size* sessions."""
        if self.chunks is not None:
            yield from self.chunks
        elif self.num_sessions is not None:
            yield from self.generator.generate_chunks(
                self.num_sessions, chunk_size
            )
        else:
            assert self.sessions is not None
            sessions = self.sessions
            for start in range(0, len(sessions), chunk_size):
                yield sessions[start : start + chunk_size]


def run_emulation(
    traffic: Traffic,
    modules_or_deployment: Union[Sequence[ModuleSpec], NIDSDeployment],
    *,
    config: Optional[EmulationConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> DeploymentUsage:
    """Emulate one deployment over one trace — the unified entry point.

    The second argument selects the deployment style, mirroring the
    paper's two configurations:

    * a sequence of :class:`~repro.nids.modules.base.ModuleSpec` —
      **edge-only**: every location independently runs stock Bro
      (``UNMODIFIED``) on traffic originating or terminating there;
    * a :class:`~repro.core.nids_deployment.NIDSDeployment` —
      **coordinated**: every node runs a coordination-enabled instance
      over its full trace including transit traffic, sampling per its
      manifest.  ``config.mode`` picks approach 2 (``COORD_EVENT``,
      the paper's choice and the default) or the approach-1 ablation
      (``COORD_POLICY``).

    ``config.policy`` (an :class:`~repro.nids.engine.ExecutionPolicy`)
    selects the execution shape — ``inline`` (materialized,
    single-process), ``streamed`` (chunked through persistent
    instances, memory bounded by the chunk size), or ``sharded``
    (per-node/per-chunk shards on a spawn process pool, merged
    exactly; see :mod:`repro.nids.shard`).  All three produce
    bit-identical :class:`DeploymentUsage` reports.  A sharded run
    launched from inside another worker process (e.g. a sweep cell)
    falls back to inline execution and counts
    ``engine_shard_fallback_total``.

    ``registry`` (overriding ``config.registry``) receives runtime
    telemetry: per-node dispatch counts, hash-cache hits, tracked /
    light connection tallies, trace throughput, and — for sharded
    runs — the ``engine_shard_*`` families.
    """
    config = with_registry(config, registry)
    coordinated = isinstance(modules_or_deployment, NIDSDeployment)
    if coordinated:
        deployment = modules_or_deployment
        if config.mode is BroMode.UNMODIFIED:
            raise ValueError("coordinated emulation requires a coordinated mode")
        label, transit, mode = "coordinated", True, config.mode
        modules: Sequence[ModuleSpec] = deployment.modules
        run_timer = config.registry.timer(
            "emulate_coordinated_seconds",
            "wall-clock seconds per coordinated emulation",
        )
    else:
        deployment = None
        label, transit, mode = "edge", False, BroMode.UNMODIFIED
        modules = list(modules_or_deployment)
        run_timer = config.registry.timer(
            "emulate_edge_seconds",
            "wall-clock seconds per edge-only emulation",
        )

    generator = traffic.generator

    def build_instance(node: str) -> BroInstance:
        return BroInstance(
            node=node,
            modules=modules,
            mode=mode,
            dispatcher=deployment.dispatcher(node) if coordinated else None,
            config=config,
        )

    policy = config.policy
    with run_timer:
        if policy.mode is ExecutionMode.STREAMED:
            instances = {
                node: build_instance(node)
                for node in generator.topology.node_names
            }
            return _emulate_stream(
                label,
                instances,
                generator,
                traffic.chunk_iter(policy.chunk_size),
                transit,
                config,
            )

        execution = policy.mode
        if execution is ExecutionMode.SHARDED:
            from . import shard

            if shard.in_worker_process():
                # Oversubscription guard: a sweep cell (or another
                # shard worker) already runs in a pool; nesting pools
                # would multiply the process count and can deadlock.
                config.registry.counter(
                    "engine_shard_fallback_total",
                    "sharded runs demoted to inline inside a worker process",
                ).inc()
                execution = ExecutionMode.INLINE

        traces = generator.split_by_node(traffic.materialize(), transit=transit)
        if execution is ExecutionMode.SHARDED:
            return shard.run_sharded(
                label,
                traces,
                modules,
                mode,
                config,
                node_names=generator.topology.node_names,
                manifests=deployment.manifests if coordinated else None,
                hash_seed=deployment.hash_seed if coordinated else 0,
            )
        reports = {
            node: build_instance(node).process_sessions(trace)
            for node, trace in traces.items()
        }
        return DeploymentUsage(label=label, reports=reports)


def _emulate_stream(
    label: str,
    instances: Dict[str, BroInstance],
    generator: TrafficGenerator,
    session_chunks: Iterable[Sequence[Session]],
    transit: bool,
    config: EmulationConfig,
) -> DeploymentUsage:
    """Stream chunks through persistent per-node instances and merge.

    Exact-accounting partials make the merged result bit-identical to
    processing the whole (even re-ordered) trace at once, so callers
    can trade memory for chunk count freely.
    """
    chunk_counter = config.registry.counter(
        "engine_stream_chunks_total",
        "traffic chunks streamed through the emulation entry points",
    )
    partials: Dict[str, PartialInstanceReport] = {}
    for chunk in session_chunks:
        chunk_counter.inc()
        traces = generator.split_by_node(list(chunk), transit=transit)
        for node, trace in traces.items():
            partial = instances[node].process_sessions_partial(trace)
            held = partials.get(node)
            if held is None:
                partials[node] = partial
            else:
                held.merge(partial)
    reports = {
        node: instance.finalize_partial(
            partials.get(node)
            or PartialInstanceReport.empty(
                node, instance.mode, (spec.name for spec in instance.modules)
            )
        )
        for node, instance in instances.items()
    }
    return DeploymentUsage(label=label, reports=reports)


@dataclass
class ComparisonRow:
    """One (x, edge, coordinated) measurement for the Fig. 6/7 series."""

    x: float
    edge_cpu: float
    coord_cpu: float
    edge_mem_mb: float
    coord_mem_mb: float

    @property
    def cpu_reduction(self) -> float:
        """Fractional reduction in max CPU from coordination."""
        return 1.0 - self.coord_cpu / self.edge_cpu if self.edge_cpu else 0.0

    @property
    def mem_reduction(self) -> float:
        """Fractional reduction in max memory from coordination."""
        return 1.0 - self.coord_mem_mb / self.edge_mem_mb if self.edge_mem_mb else 0.0


def compare_deployments(
    deployment: NIDSDeployment,
    generator: TrafficGenerator,
    sessions: Sequence[Session],
    x: float,
    *,
    config: Optional[EmulationConfig] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ComparisonRow:
    """Emulate both deployments and return the max-load comparison."""
    config = with_registry(config, registry)
    traffic = Traffic.materialized(generator, sessions)
    edge = run_emulation(traffic, deployment.modules, config=config)
    coordinated = run_emulation(traffic, deployment, config=config)
    return ComparisonRow(
        x=x,
        edge_cpu=edge.max_cpu,
        coord_cpu=coordinated.max_cpu,
        edge_mem_mb=edge.max_mem_mb,
        coord_mem_mb=coordinated.max_mem_mb,
    )
