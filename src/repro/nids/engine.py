"""Simulated Bro instance (paper Section 2.3, Fig. 4).

A :class:`BroInstance` models one Bro process on one node in one of
three variants:

* ``UNMODIFIED`` — stock Bro: every connection is tracked and every
  module analyzes everything it matches (no coordination machinery).
* ``COORD_POLICY`` — approach 1: coordination checks are delayed to the
  policy engine; interpreted hash checks run per policy event.
* ``COORD_EVENT`` — approach 2: checks run as early as possible; for
  HTTP/IRC/Login-style modules a compiled check at module
  initialization, and connection state is skipped entirely for traffic
  outside the node's manifest unless some policy-stage module on this
  node still needs the connection's events (the Section 2.5 caveat —
  scan detection at an ingress forces tracking of all its sources'
  connections).

Processing is session-granular: per-packet costs are applied
arithmetically from each session's packet count, which reproduces the
cost accounting exactly while staying fast enough for the multi-million
session network-wide runs.  Two execution paths share one accounting
contract:

* the scalar path loops sessions in Python (reference semantics);
* the vectorized path (:meth:`BroInstance.process_sessions_batch`)
  evaluates sampling, tracking levels, coordination checks and module
  work over NumPy arrays with per-module masks.

Both paths fold per-session CPU subtotals — built with the *same*
elementwise operation order — into an :class:`~repro.core.exactsum.ExactSum`,
so their :class:`InstanceReport`\\ s are bit-identical by construction,
and chunked/streamed runs merge :class:`PartialInstanceReport`\\ s to
exactly the one-shot result.  Behavioural detectors can be enabled to
verify functional equivalence between deployments.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..core.dispatch import CoordinatedDispatcher
from ..core.exactsum import ExactSum
from ..core.units import unit_key_for_session
from ..obs import MetricsRegistry, NULL_REGISTRY
from ..traffic.batch import SessionBatch
from ..traffic.session import Session
from .modules.base import Alert, CheckLocation, Detector, ModuleSpec, Subscription
from .modules import make_detector
from .resources import CostModel, DEFAULT_COST_MODEL, ResourceUsage

#: A node trace, either as materialized sessions or a prebuilt columnar
#: batch (the batch is accepted anywhere sessions are, so callers that
#: already paid the column build never pay it twice).
Trace = Union[Sequence[Session], SessionBatch]


class BroMode(enum.Enum):
    """Instance variant (Fig. 4)."""

    UNMODIFIED = "unmodified"
    COORD_POLICY = "coord-policy"
    COORD_EVENT = "coord-event"


class ExecutionMode(enum.Enum):
    """How an emulation run is executed (not *what* it computes).

    All three modes produce bit-identical :class:`InstanceReport`\\ s —
    the exact-accounting contract above — so the choice is purely an
    operational trade: memory footprint, wall-clock, process count.
    """

    #: Materialize the trace and process each node trace in one call.
    INLINE = "inline"
    #: Chunked streaming through persistent per-node instances
    #: (memory bounded by the chunk size, not the trace size).
    STREAMED = "streamed"
    #: Per-node (and per-chunk for hot nodes) shards fanned out to a
    #: spawn-safe process pool, partials merged in the parent
    #: (:mod:`repro.nids.shard`).
    SHARDED = "sharded"


@dataclass(frozen=True)
class ExecutionPolicy:
    """Execution strategy for :func:`~repro.nids.emulation.run_emulation`.

    ``jobs`` is the worker-process count for the sharded mode (``0``
    means one per CPU); ``chunk_size`` bounds both the streamed chunk
    length and the per-shard session count for hot nodes;
    ``mp_context`` names the multiprocessing start method (``spawn``
    is the only start method safe on every platform and is what the
    shard workers are written against).
    """

    mode: ExecutionMode = ExecutionMode.INLINE
    jobs: int = 0
    chunk_size: int = 50_000
    mp_context: str = "spawn"

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means one per CPU)")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    @classmethod
    def inline(cls) -> "ExecutionPolicy":
        """The default single-process, materialized execution."""
        return cls()

    @classmethod
    def streamed(cls, chunk_size: int = 50_000) -> "ExecutionPolicy":
        """Chunked streaming with the given chunk size."""
        return cls(mode=ExecutionMode.STREAMED, chunk_size=chunk_size)

    @classmethod
    def sharded(
        cls, jobs: int = 0, chunk_size: int = 50_000, mp_context: str = "spawn"
    ) -> "ExecutionPolicy":
        """Process-pool sharding with *jobs* workers."""
        return cls(
            mode=ExecutionMode.SHARDED,
            jobs=jobs,
            chunk_size=chunk_size,
            mp_context=mp_context,
        )


@dataclass(frozen=True)
class EmulationConfig:
    """Run configuration for emulation entry points and instances.

    One value that can be built once and shared across a whole
    experiment sweep.  ``mode`` selects the instance variant for
    coordinated emulation (it is ignored by :class:`BroInstance`, whose
    explicit ``mode`` argument is authoritative).  ``registry``
    receives runtime telemetry; the default
    :data:`~repro.obs.NULL_REGISTRY` makes every recording a no-op.
    ``policy`` selects how :func:`~repro.nids.emulation.run_emulation`
    executes the run (inline / streamed / sharded); it never changes
    what is computed.
    """

    mode: BroMode = BroMode.COORD_EVENT
    cost_model: CostModel = DEFAULT_COST_MODEL
    run_detectors: bool = False
    fine_grained: bool = False
    #: Vectorized engine fast path: evaluate the whole cost model over
    #: NumPy session arrays (bit-identical reports; ~order-of-magnitude
    #: faster on large traces).  ``False`` selects the scalar
    #: per-session loop, kept for single sessions and as the reference
    #: semantics (the test oracle).
    batch_engine: bool = True
    registry: MetricsRegistry = NULL_REGISTRY
    policy: ExecutionPolicy = ExecutionPolicy()


def with_registry(
    config: Optional[EmulationConfig], registry: Optional[MetricsRegistry]
) -> EmulationConfig:
    """*config* (default :class:`EmulationConfig`) with an explicit
    *registry* overriding ``config.registry``; the caller's config
    object itself is left untouched."""
    config = config if config is not None else EmulationConfig()
    if registry is not None:
        config = replace(config, registry=registry)
    return config


class TrackingLevel(enum.Enum):
    """How much connection state a session forces at this node.

    ``FULL`` is Bro's normal connection record; ``LIGHT`` is the §2.5
    fine-grained extension — a first-packet-only record sufficient for
    subscribers like scan detection; ``NONE`` skips state entirely.
    """

    NONE = 0
    LIGHT = 1
    FULL = 2


@dataclass
class InstanceReport:
    """Resource usage and detection output of one instance run."""

    node: str
    mode: BroMode
    usage: ResourceUsage
    tracked_connections: int
    module_cpu: Dict[str, float]
    module_items: Dict[str, int]
    alerts: List[Alert] = field(default_factory=list)
    #: §2.5 fine-grained extension: first-packet-only records.
    light_connections: int = 0

    @property
    def cpu(self) -> float:
        """Total CPU footprint (cpu units)."""
        return self.usage.cpu

    @property
    def mem_bytes(self) -> float:
        """Total resident memory footprint (bytes)."""
        return self.usage.mem_bytes

    def to_dict(self) -> dict:
        """JSON-compatible dict for cross-process result transport."""
        return {
            "node": self.node,
            "mode": self.mode.value,
            "usage": {"cpu": self.usage.cpu, "mem_bytes": self.usage.mem_bytes},
            "tracked_connections": self.tracked_connections,
            "module_cpu": dict(self.module_cpu),
            "module_items": dict(self.module_items),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "light_connections": self.light_connections,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            node=data["node"],
            mode=BroMode(data["mode"]),
            usage=ResourceUsage(**data["usage"]),
            tracked_connections=data["tracked_connections"],
            module_cpu=dict(data["module_cpu"]),
            module_items=dict(data["module_items"]),
            alerts=[Alert.from_dict(alert) for alert in data.get("alerts", ())],
            light_connections=data.get("light_connections", 0),
        )


@dataclass(eq=False)
class PartialInstanceReport:
    """Exact, mergeable accounting state for part of a node trace.

    The chunked/streaming path processes a trace in slices; each slice
    yields one partial.  All fields are order-independent (counters,
    :class:`~repro.core.exactsum.ExactSum` CPU accumulators, sorted
    distinct item-key arrays), so merging per-chunk partials in any
    order and finalizing yields a report bit-identical to the one-shot
    run.  Derived quantities — correctly rounded CPU floats, the
    per-process base memory, item memory — are computed once in
    :meth:`finalize`, never summed across partials, which is what makes
    the merge semantics safe (no double-counted ``process_base_bytes``,
    no sum-of-distinct-counts inflation).

    Serialization (:meth:`to_dict` / :meth:`from_dict`, pickle) is
    loss-free: accumulators travel as hex numerators, item keys as int
    lists.
    """

    node: str
    mode: BroMode
    num_sessions: int
    tracked_connections: int
    light_connections: int
    cpu: ExactSum
    module_cpu: Dict[str, ExactSum]
    module_sessions: Dict[str, int]
    #: Sorted unique int64 arrays of state-table keys per module —
    #: distinct-item tracking that unions exactly across chunks.
    module_item_keys: Dict[str, "object"]
    alerts: List[Alert] = field(default_factory=list)

    @classmethod
    def empty(cls, node: str, mode: BroMode, module_names: Iterable[str]) -> "PartialInstanceReport":
        """A zero partial for *node* covering *module_names*."""
        import numpy as np

        names = list(module_names)
        return cls(
            node=node,
            mode=mode,
            num_sessions=0,
            tracked_connections=0,
            light_connections=0,
            cpu=ExactSum(),
            module_cpu={name: ExactSum() for name in names},
            module_sessions={name: 0 for name in names},
            module_item_keys={name: np.empty(0, dtype=np.int64) for name in names},
            alerts=[],
        )

    def merge(self, other: "PartialInstanceReport") -> None:
        """Fold *other* into this partial — exact and order-independent."""
        import numpy as np

        if other.node != self.node or other.mode is not self.mode:
            raise ValueError(
                f"cannot merge partial for {other.node}/{other.mode.value} into"
                f" {self.node}/{self.mode.value}"
            )
        if set(other.module_cpu) != set(self.module_cpu):
            raise ValueError("cannot merge partials over different module sets")
        self.num_sessions += other.num_sessions
        self.tracked_connections += other.tracked_connections
        self.light_connections += other.light_connections
        self.cpu.merge(other.cpu)
        for name, acc in other.module_cpu.items():
            self.module_cpu[name].merge(acc)
        for name, count in other.module_sessions.items():
            self.module_sessions[name] += count
        for name, keys in other.module_item_keys.items():
            self.module_item_keys[name] = np.union1d(
                self.module_item_keys[name], keys
            )
        self.alerts.extend(other.alerts)

    def finalize(
        self, modules: Sequence[ModuleSpec], cost_model: CostModel
    ) -> InstanceReport:
        """Render the exact accounting state into an :class:`InstanceReport`.

        Memory is derived from counts here — the per-process base is
        added exactly once, connection records and hash fields per
        tracked count, item state per *distinct* key count — so the
        result does not depend on how the trace was chunked.
        """
        cost = cost_model
        coordinated = self.mode is not BroMode.UNMODIFIED
        usage = ResourceUsage(mem_bytes=float(cost.process_base_bytes))
        usage.cpu = self.cpu.value()
        usage.mem_bytes += self.tracked_connections * float(cost.conn_record_bytes)
        if coordinated:
            usage.mem_bytes += self.tracked_connections * float(
                cost.hash_fields_bytes
            )
        usage.mem_bytes += self.light_connections * float(cost.light_record_bytes)
        item_counts: Dict[str, int] = {}
        for spec in modules:
            keys = self.module_item_keys.get(spec.name)
            count = 0 if keys is None else len(keys)
            item_counts[spec.name] = count
            usage.mem_bytes += count * spec.mem_bytes_per_item
        module_cpu = {
            spec.name: self.module_cpu.get(spec.name, ExactSum()).value()
            for spec in modules
        }
        return InstanceReport(
            node=self.node,
            mode=self.mode,
            usage=usage,
            tracked_connections=self.tracked_connections,
            module_cpu=module_cpu,
            module_items=item_counts,
            alerts=list(self.alerts),
            light_connections=self.light_connections,
        )

    # -- identity / transport ---------------------------------------------
    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, PartialInstanceReport):
            return NotImplemented
        return (
            self.node == other.node
            and self.mode is other.mode
            and self.num_sessions == other.num_sessions
            and self.tracked_connections == other.tracked_connections
            and self.light_connections == other.light_connections
            and self.cpu == other.cpu
            and self.module_cpu == other.module_cpu
            and self.module_sessions == other.module_sessions
            and set(self.module_item_keys) == set(other.module_item_keys)
            and all(
                np.array_equal(keys, other.module_item_keys[name])
                for name, keys in self.module_item_keys.items()
            )
            and self.alerts == other.alerts
        )

    def to_dict(self) -> dict:
        """JSON-compatible, loss-free dict (ExactSums as hex)."""
        return {
            "node": self.node,
            "mode": self.mode.value,
            "num_sessions": self.num_sessions,
            "tracked_connections": self.tracked_connections,
            "light_connections": self.light_connections,
            "cpu": self.cpu.to_hex(),
            "module_cpu": {
                name: acc.to_hex() for name, acc in self.module_cpu.items()
            },
            "module_sessions": dict(self.module_sessions),
            "module_item_keys": {
                name: [int(key) for key in keys]
                for name, keys in self.module_item_keys.items()
            },
            "alerts": [alert.to_dict() for alert in self.alerts],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PartialInstanceReport":
        """Rebuild a partial from :meth:`to_dict` output."""
        import numpy as np

        return cls(
            node=data["node"],
            mode=BroMode(data["mode"]),
            num_sessions=data["num_sessions"],
            tracked_connections=data["tracked_connections"],
            light_connections=data["light_connections"],
            cpu=ExactSum.from_hex(data["cpu"]),
            module_cpu={
                name: ExactSum.from_hex(text)
                for name, text in data["module_cpu"].items()
            },
            module_sessions=dict(data["module_sessions"]),
            module_item_keys={
                name: np.array(keys, dtype=np.int64)
                for name, keys in data["module_item_keys"].items()
            },
            alerts=[Alert.from_dict(alert) for alert in data.get("alerts", ())],
        )


class BroInstance:
    """One simulated Bro process."""

    def __init__(
        self,
        node: str,
        modules: Sequence[ModuleSpec],
        mode: BroMode,
        dispatcher: Optional[CoordinatedDispatcher] = None,
        *,
        config: Optional[EmulationConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if mode is not BroMode.UNMODIFIED and dispatcher is None:
            raise ValueError("coordinated modes require a dispatcher")
        config = with_registry(config, registry)
        self.node = node
        self.modules = list(modules)
        self.mode = mode
        self.dispatcher = dispatcher
        self.config = config
        self.registry = config.registry
        self.cost = config.cost_model
        #: Vectorized cost-model fast path (masks over session arrays).
        self.batch_engine = config.batch_engine
        #: §2.5 extension: honour FIRST_PACKET subscriptions with
        #: lightweight records instead of full connection tracking.
        self.fine_grained = config.fine_grained
        self.detectors: Dict[str, Detector] = (
            {spec.name: make_detector(spec) for spec in self.modules}
            if config.run_detectors
            else {}
        )

    # -- per-session decisions ---------------------------------------------
    def _responsible(self, spec: ModuleSpec, session: Session) -> bool:
        """Whether this node holds any range for the session's unit."""
        assert self.dispatcher is not None
        unit = unit_key_for_session(spec, session)
        return self.dispatcher.manifest.responsible(spec.name, unit)

    def _sampled(self, spec: ModuleSpec, session: Session) -> bool:
        """The Fig. 3 hash-range check for this node."""
        assert self.dispatcher is not None
        return self.dispatcher.should_analyze(spec, session)

    def _required_level(self, spec: ModuleSpec) -> TrackingLevel:
        """Tracking level *spec* forces when it needs this session."""
        if self.fine_grained and spec.subscription is Subscription.FIRST_PACKET:
            return TrackingLevel.LIGHT
        return TrackingLevel.FULL

    def _tracking_level(
        self, session: Session, sampled_specs: List[ModuleSpec]
    ) -> TrackingLevel:
        """How much connection state *session* forces at this node.

        Unmodified Bro and approach 1 fully track every connection
        (the sampling decision comes too late to skip state).
        Approach 2 creates state only when (a) some module sampled the
        session, or (b) a policy-stage module on this node needs the
        session's connection events: raw-stream consumers (scan, TFTP)
        need events for *every* connection in their unit, other policy
        modules (Blaster, SYN-flood) only for matched sessions.  With
        the §2.5 fine-grained extension, first-packet subscribers force
        only a LIGHT record.
        """
        if self.mode is not BroMode.COORD_EVENT:
            return TrackingLevel.FULL
        assert self.dispatcher is not None
        if self.dispatcher.manifest.full:
            # Standalone configuration: the manifest assigns all
            # traffic to this node, so nothing falls outside it.
            return TrackingLevel.FULL
        level = TrackingLevel.NONE
        for spec in sampled_specs:
            required = self._required_level(spec)
            if required.value > level.value:
                level = required
            if level is TrackingLevel.FULL:
                return level
        for spec in self.modules:
            if spec.check_location is not CheckLocation.POLICY_ONLY:
                continue
            if not self._responsible(spec, session):
                continue
            if spec.raw_event_stream or spec.traffic_filter.matches_session(session):
                required = self._required_level(spec)
                if required.value > level.value:
                    level = required
                if level is TrackingLevel.FULL:
                    return level
        return level

    # -- main loop -----------------------------------------------------------
    def process_sessions(self, sessions: Trace) -> InstanceReport:
        """Run the instance over a node trace and account its resources.

        Routes through the vectorized fast path when ``batch_engine``
        is enabled and the trace is non-trivial; both paths produce
        bit-identical reports.
        """
        return self.finalize_partial(self.process_sessions_partial(sessions))

    def process_sessions_batch(self, sessions: Trace) -> InstanceReport:
        """Explicit vectorized run (bit-identical to the scalar path)."""
        return self.finalize_partial(self._process_batch(sessions))

    def process_sessions_partial(self, sessions: Trace) -> PartialInstanceReport:
        """Account one trace slice into a mergeable partial report.

        The streaming emulation entry points call this once per chunk
        and merge; detector alerts are *not* embedded (detectors
        accumulate on the instance and are collected at
        :meth:`finalize_partial` time, so chunked runs do not duplicate
        them).
        """
        if self.batch_engine and len(sessions) > 1:
            return self._process_batch(sessions)
        return self._process_scalar(sessions)

    def finalize_partial(self, partial: PartialInstanceReport) -> InstanceReport:
        """Render a (possibly merged) partial plus detector output."""
        report = partial.finalize(self.modules, self.cost)
        for detector in self.detectors.values():
            report.alerts.extend(detector.alerts)
        return report

    def _process_scalar(self, sessions: Trace) -> PartialInstanceReport:
        """Reference per-session loop producing an exact partial."""
        import numpy as np

        if isinstance(sessions, SessionBatch):
            sessions = sessions.sessions
        cost = self.cost
        coordinated = self.mode is not BroMode.UNMODIFIED
        partial = PartialInstanceReport.empty(
            self.node, self.mode, (spec.name for spec in self.modules)
        )
        item_sets: Dict[str, Set[int]] = {spec.name: set() for spec in self.modules}
        #: LIGHT-record charge; one binary add, shared with the batch path.
        light_charge = cost.light_conn_cost + cost.hash_compute_cost
        started = time.perf_counter()
        cache_before = self._cache_counters()

        tracked_connections = 0
        light_connections = 0
        for session in sessions:
            pkts = session.num_packets
            # Canonical per-session subtotal. The batch path reproduces
            # this exact operation order elementwise, so the two paths
            # fold identical doubles into the exact accumulator.
            subtotal = cost.capture_cost * pkts

            if coordinated:
                sampled_specs = [
                    spec for spec in self.modules if self._sampled(spec, session)
                ]
            else:
                sampled_specs = [
                    spec
                    for spec in self.modules
                    if spec.traffic_filter.matches_session(session)
                ]

            level = self._tracking_level(session, sampled_specs)
            tracked = level is not TrackingLevel.NONE
            if level is TrackingLevel.FULL:
                tracked_connections += 1
                subtotal += cost.base_conn_packet_cost * pkts
                if coordinated:
                    subtotal += cost.hash_compute_cost
            elif level is TrackingLevel.LIGHT:
                light_connections += 1
                subtotal += light_charge

            if coordinated:
                subtotal += self._check_costs(session, tracked)

            for spec in sampled_specs:
                work = spec.session_cpu(session)
                subtotal += work
                partial.module_cpu[spec.name].add(work)
                item_sets[spec.name].add(spec.item_key(session))
                partial.module_sessions[spec.name] += 1
                detector = self.detectors.get(spec.name)
                if detector is not None:
                    detector.on_session(session)

            partial.cpu.add(subtotal)

        partial.num_sessions = len(sessions)
        partial.tracked_connections = tracked_connections
        partial.light_connections = light_connections
        for name, keys in item_sets.items():
            partial.module_item_keys[name] = np.array(sorted(keys), dtype=np.int64)

        self._record_trace(
            len(sessions),
            started,
            tracked_connections,
            light_connections,
            partial.module_sessions,
            cache_before,
            batched=False,
        )
        return partial

    def _process_batch(self, sessions: Trace) -> PartialInstanceReport:
        """Vectorized cost model: per-module masks over session arrays."""
        import numpy as np

        batch = sessions if isinstance(sessions, SessionBatch) else SessionBatch(sessions)
        n = len(batch)
        cost = self.cost
        coordinated = self.mode is not BroMode.UNMODIFIED
        partial = PartialInstanceReport.empty(
            self.node, self.mode, (spec.name for spec in self.modules)
        )
        partial.num_sessions = n
        started = time.perf_counter()
        cache_before = self._cache_counters()
        if n == 0:
            self._record_trace(
                0, started, 0, 0, partial.module_sessions, cache_before, batched=True
            )
            return partial

        if coordinated:
            assert self.dispatcher is not None
            decisions = self.dispatcher.batch_decisions(batch)
            match_masks = [decision.match for decision in decisions]
            sampled_masks = [decision.analyze for decision in decisions]
            resp_masks = [decision.responsible for decision in decisions]
        else:
            match_masks = [
                spec.traffic_filter.matches_sessions_batch(batch.proto, batch.dport)
                for spec in self.modules
            ]
            sampled_masks = match_masks
            resp_masks = None

        # -- tracking levels (vectorized _tracking_level) -----------------
        if (
            self.mode is not BroMode.COORD_EVENT
            or self.dispatcher is None
            or self.dispatcher.manifest.full
        ):
            level = np.full(n, TrackingLevel.FULL.value, dtype=np.int8)
        else:
            level = np.zeros(n, dtype=np.int8)
            for spec, sampled in zip(self.modules, sampled_masks):
                required = np.int8(self._required_level(spec).value)
                np.maximum(level, sampled * required, out=level)
            assert resp_masks is not None
            for spec, match, resp in zip(self.modules, match_masks, resp_masks):
                if spec.check_location is not CheckLocation.POLICY_ONLY:
                    continue
                needs = resp if spec.raw_event_stream else resp & match
                required = np.int8(self._required_level(spec).value)
                np.maximum(level, needs * required, out=level)
        full_mask = level == TrackingLevel.FULL.value
        light_mask = level == TrackingLevel.LIGHT.value
        tracked_mask = level != TrackingLevel.NONE.value
        tracked_connections = int(full_mask.sum())
        light_connections = int(light_mask.sum())

        # -- per-session CPU subtotals (canonical scalar op order) --------
        pkts_f = batch.pkts_f
        subtotal = cost.capture_cost * pkts_f
        conn_charge = cost.base_conn_packet_cost * pkts_f
        subtotal[full_mask] += conn_charge[full_mask]
        if coordinated:
            subtotal[full_mask] += cost.hash_compute_cost
        subtotal[light_mask] += cost.light_conn_cost + cost.hash_compute_cost

        if coordinated:
            assert resp_masks is not None
            check = np.zeros(n, dtype=np.float64)
            for spec, match, resp in zip(self.modules, match_masks, resp_masks):
                location = spec.check_location
                if location is CheckLocation.POLICY_ONLY:
                    if spec.raw_event_stream:
                        mask = resp & tracked_mask
                        check[mask] += cost.policy_check_cost * spec.raw_events_per_conn
                    else:
                        mask = resp & tracked_mask & match
                        events = spec.policy_events_batch(pkts_f, batch.half_open)
                        charge = cost.policy_check_cost * events
                        check[mask] += charge[mask]
                elif location is CheckLocation.EVENT_ONLY:
                    mask = resp & match
                    check[mask] += cost.event_check_cost
                else:  # EVENT_CAPABLE: placement depends on the approach
                    if self.mode is BroMode.COORD_EVENT:
                        mask = resp & match
                        check[mask] += cost.event_check_cost
                    else:
                        mask = resp & tracked_mask & match
                        events = spec.policy_events_batch(pkts_f, batch.half_open)
                        charge = cost.policy_check_cost * events
                        check[mask] += charge[mask]
            subtotal += check

        # -- per-module analysis work -------------------------------------
        for spec, sampled in zip(self.modules, sampled_masks):
            count = int(sampled.sum())
            if count == 0:
                continue
            work = spec.session_cpu_batch(pkts_f, batch.half_open)
            subtotal[sampled] += work[sampled]
            partial.module_cpu[spec.name].add_array(work[sampled])
            partial.module_sessions[spec.name] = count
            partial.module_item_keys[spec.name] = np.unique(
                batch.item_keys(spec.aggregation)[sampled]
            )

        partial.cpu.add_array(subtotal)
        partial.tracked_connections = tracked_connections
        partial.light_connections = light_connections

        if self.detectors:
            any_sampled = np.zeros(n, dtype=bool)
            for sampled in sampled_masks:
                any_sampled |= sampled
            # Session-major, module order within — the scalar feed order.
            for index in np.flatnonzero(any_sampled):
                session = batch.sessions[index]
                for spec, sampled in zip(self.modules, sampled_masks):
                    if sampled[index]:
                        detector = self.detectors.get(spec.name)
                        if detector is not None:
                            detector.on_session(session)

        self._record_trace(
            n,
            started,
            tracked_connections,
            light_connections,
            partial.module_sessions,
            cache_before,
            batched=True,
        )
        return partial

    # -- telemetry ------------------------------------------------------------
    def _cache_counters(self) -> Tuple[int, int, int]:
        if self.dispatcher is None:
            return (0, 0, 0)
        return (
            self.dispatcher.cache_hits,
            self.dispatcher.cache_misses,
            self.dispatcher.batch_hashes,
        )

    def _record_trace(
        self,
        n: int,
        started: float,
        tracked: int,
        light: int,
        module_sessions: Dict[str, int],
        cache_before: Tuple[int, int, int],
        batched: bool = False,
    ) -> None:
        """Record one trace run into the configured registry.

        Runs once per trace (never per session) so the instrumented
        engine stays within the telemetry overhead budget; under the
        default null registry the whole block is skipped.
        """
        registry = self.registry
        if not registry.enabled:
            return
        elapsed = time.perf_counter() - started
        node = self.node
        registry.counter(
            "dispatch_sessions_total",
            "sessions processed per node trace",
            labels=("node",),
        ).inc(n, node=node)
        if batched:
            registry.counter(
                "engine_batch_sessions_total",
                "sessions processed by the vectorized engine fast path",
                labels=("node",),
            ).inc(n, node=node)
        registry.counter(
            "sessions_tracked_total",
            "sessions forcing a full connection record",
            labels=("node",),
        ).inc(tracked, node=node)
        registry.counter(
            "sessions_light_total",
            "sessions held as first-packet-only light records (Section 2.5)",
            labels=("node",),
        ).inc(light, node=node)
        registry.histogram(
            "engine_trace_seconds",
            "wall-clock seconds per node trace run",
            labels=("node",),
        ).observe(elapsed, node=node)
        if elapsed > 0.0:
            registry.gauge(
                "engine_sessions_per_second",
                "throughput of the most recent trace run",
                labels=("node",),
            ).set(n / elapsed, node=node)
        analyzed = registry.counter(
            "module_sessions_analyzed_total",
            "sessions each module analyzed at each node (Fig. 3 outcomes)",
            labels=("node", "module"),
        )
        for name, count in module_sessions.items():
            if count:
                analyzed.inc(count, node=node, module=name)
        if self.dispatcher is not None:
            hits0, misses0, batch0 = cache_before
            registry.counter(
                "hash_cache_hits_total",
                "scalar-path hash-cache hits",
                labels=("node",),
            ).inc(self.dispatcher.cache_hits - hits0, node=node)
            registry.counter(
                "hash_cache_misses_total",
                "scalar-path hash-cache misses",
                labels=("node",),
            ).inc(self.dispatcher.cache_misses - misses0, node=node)
            registry.counter(
                "hash_batch_computed_total",
                "hash values computed by the vectorized batch sweep",
                labels=("node",),
            ).inc(self.dispatcher.batch_hashes - batch0, node=node)

    # -- coordination-check accounting ----------------------------------------
    def _check_costs(self, session: Session, tracked: bool) -> float:
        """CPU cost of the coordination checks for one connection.

        Event-engine checks are charged per connection per configured
        module; policy-engine checks per event delivered to the policy
        script (raw-stream consumers receive one event per tracked
        connection; protocol modules one per derived protocol event).
        """
        cost = self.cost
        total = 0.0
        for spec in self.modules:
            if not self._responsible(spec, session):
                continue
            location = spec.check_location
            if location is CheckLocation.POLICY_ONLY:
                if not tracked:
                    continue
                if spec.raw_event_stream:
                    total += cost.policy_check_cost * spec.raw_events_per_conn
                elif spec.traffic_filter.matches_session(session):
                    total += cost.policy_check_cost * spec.policy_events(session)
            elif location is CheckLocation.EVENT_ONLY:
                if spec.traffic_filter.matches_session(session):
                    total += cost.event_check_cost
            else:  # EVENT_CAPABLE: placement depends on the approach
                if self.mode is BroMode.COORD_EVENT:
                    if spec.traffic_filter.matches_session(session):
                        total += cost.event_check_cost
                elif tracked and spec.traffic_filter.matches_session(session):
                    total += cost.policy_check_cost * spec.policy_events(session)
        return total

    def alert_keys(self) -> Set[Tuple[str, str]]:
        """Union of deduplicated alert identities across detectors."""
        keys: Set[Tuple[str, str]] = set()
        for detector in self.detectors.values():
            keys.update(detector.alert_keys())
        return keys
