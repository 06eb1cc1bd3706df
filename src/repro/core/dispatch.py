"""The coordinated-NIDS decision procedure (paper Fig. 3).

On node ``R_j``, for each arriving packet:

1. ``GET_CLASS`` — find the modules whose traffic specification the
   packet matches (a packet may be analyzed by several modules);
2. ``GET_COORD_UNIT`` — find the packet's coordination unit for each
   such module;
3. ``HASH`` — hash the class-appropriate header fields into ``[0, 1)``;
4. analyze with module ``C_i`` iff the hash falls in this node's
   assigned range for the unit.

:class:`CoordinatedDispatcher` implements this against a node's
:class:`~repro.core.manifest.NodeManifest`.  Unit resolution uses the
host-to-home-PoP mapping embedded in host identifiers, standing in for
the paper's prefix-to-ingress configuration files.

Session-level dispatch (:meth:`decide_session`) is exact for every
scope.  Packet-level dispatch (:meth:`decide_packet`) is exact for
path-scoped classes (the unordered location pair is direction
independent); for ingress/egress-scoped classes it orients the
connection like Bro does — by connection record, here approximated by
the canonical tuple — and is used by the per-packet engine tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hashing.keys import Aggregation, key_hash_unit
from ..hashing.vectorized import key_hash_unit_batch
from ..nids.modules.base import ModuleSpec, Scope
from ..traffic.batch import SessionBatch
from ..traffic.generator import home_node_index
from ..traffic.packet import Packet
from ..traffic.session import Session
from .manifest import NodeManifest
from .manifest_index import ManifestIndex
from .units import UnitKey, unit_key_for_session

#: Raw 5-tuple fields, the per-aggregation hash-cache key.
FieldKey = Tuple[int, int, int, int, int]


class UnitResolver:
    """``GET_COORD_UNIT``: map traffic to coordination-unit keys.

    Holds the node-name table needed to translate a host identifier's
    home-PoP index back to a node name.
    """

    def __init__(self, node_names: Sequence[str]):
        self._node_names = list(node_names)

    def home_of(self, host: int) -> str:
        """Node name of the host's home PoP."""
        return self._node_names[home_node_index(host)]

    def session_unit(self, spec: ModuleSpec, session: Session) -> UnitKey:
        """Unit key for *session* under *spec* (GET_COORD_UNIT)."""
        return unit_key_for_session(spec, session)

    def packet_unit(self, spec: ModuleSpec, packet: Packet) -> UnitKey:
        """Unit key for a bare packet.

        Path scope is direction-independent.  For ingress/egress scope
        the initiator is taken from the canonical orientation (in the
        engine, the connection record supplies the true initiator).
        """
        src_home = self.home_of(packet.tuple.src)
        dst_home = self.home_of(packet.tuple.dst)
        if spec.scope is Scope.PATH:
            return tuple(sorted((src_home, dst_home)))
        oriented = packet.tuple.canonical()
        initiator_home = self.home_of(oriented.src)
        responder_home = self.home_of(oriented.dst)
        if spec.scope is Scope.INGRESS:
            return (initiator_home,)
        return (responder_home,)


@dataclass
class DispatchDecision:
    """Outcome of the Fig. 3 procedure for one module on one packet."""

    module: ModuleSpec
    unit: UnitKey
    hash_value: float
    analyze: bool


@dataclass
class ModuleBatchDecision:
    """Per-module full-length masks over one :class:`SessionBatch`.

    ``match`` is the traffic-filter predicate, ``analyze`` the Fig. 3
    sampling verdict, and ``responsible`` whether this node holds any
    range for the session's coordination unit (regardless of where the
    hash lands) — the three per-(module, session) booleans the engine
    consumes.
    """

    spec: ModuleSpec
    match: np.ndarray
    analyze: np.ndarray
    responsible: np.ndarray


class CoordinatedDispatcher:
    """Per-node implementation of the coordinated-NIDS algorithm."""

    def __init__(
        self,
        node: str,
        manifest: NodeManifest,
        modules: Sequence[ModuleSpec],
        resolver: UnitResolver,
        hash_seed: int = 0,
        hash_cache: Optional[Dict[Aggregation, Dict[FieldKey, float]]] = None,
    ):
        if manifest.node != node:
            raise ValueError(
                f"manifest belongs to {manifest.node!r}, dispatcher is {node!r}"
            )
        self.node = node
        self.manifest = manifest
        self.modules = list(modules)
        self.resolver = resolver
        self.hash_seed = hash_seed
        # Hash values depend only on (aggregation, key fields); cache
        # them per canonical tuple the way the Bro extension caches
        # hashes in the connection record (Section 2.3).  The cache may
        # be shared across nodes — values are node independent — and is
        # nested per aggregation so batch lookups probe one sub-dict.
        self._hash_cache: Dict[Aggregation, Dict[FieldKey, float]] = (
            hash_cache if hash_cache is not None else {}
        )
        self._manifest_index: Optional[ManifestIndex] = None
        # Plain ints, not registry metrics: _hash runs once per
        # (session, aggregation) and a registry call there would blow
        # the telemetry overhead budget.  The engine reads these as
        # deltas at end of trace and folds them into its registry.
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_hashes = 0

    @property
    def index(self) -> ManifestIndex:
        """The manifest compiled for searchsorted checks (built lazily)."""
        if self._manifest_index is None:
            self._manifest_index = ManifestIndex(self.manifest)
        return self._manifest_index

    # -- hashing ------------------------------------------------------------
    def _hash(self, aggregation: Aggregation, src: int, dst: int, sport: int,
              dport: int, proto: int) -> float:
        from ..hashing.keys import key_for
        from ..hashing.bobhash import hash_unit

        # Cache on the raw fields: serializing the key bytes is itself
        # the dominant cost on cache hits, which dominate in network-
        # wide emulation (the same session is checked at every node on
        # its path).
        sub = self._hash_cache.get(aggregation)
        if sub is None:
            sub = self._hash_cache.setdefault(aggregation, {})
        cache_key = (src, dst, sport, dport, proto)
        cached = sub.get(cache_key)
        if cached is None:
            key = key_for(aggregation, src, dst, sport, dport, proto)
            cached = hash_unit(key, self.hash_seed)
            sub[cache_key] = cached
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        return cached

    def _hash_batch(
        self,
        aggregation: Aggregation,
        tuples: List,
        src: np.ndarray,
        dst: np.ndarray,
        sport: np.ndarray,
        dport: np.ndarray,
        proto: np.ndarray,
    ) -> np.ndarray:
        """Vectorized HASH over all sessions of a batch.

        The vector sweep recomputes every hash: one NumPy pass is
        cheaper than per-element probes of the shared cache (measured —
        the probe loop, not hashing, dominated a cache-aware variant).
        Values are bit-identical to :meth:`_hash` either way.  A cold
        shared cache is warmed from the sweep so the scalar path (and
        single-session traces) still benefit from batch work.
        """
        values = key_hash_unit_batch(
            aggregation, src, dst, sport, dport, proto, self.hash_seed
        )
        self.batch_hashes += len(values)
        sub = self._hash_cache.setdefault(aggregation, {})
        if not sub:
            for t, value in zip(tuples, values.tolist()):
                sub[(t.src, t.dst, t.sport, t.dport, t.proto)] = value
        return values

    def session_hash(self, spec: ModuleSpec, session: Session) -> float:
        """HASH over the session's class-appropriate key fields."""
        t = session.tuple
        return self._hash(spec.aggregation, t.src, t.dst, t.sport, t.dport, t.proto)

    def packet_hash(self, spec: ModuleSpec, packet: Packet) -> float:
        """HASH over the packet's class-appropriate key fields."""
        t = packet.tuple
        return self._hash(spec.aggregation, t.src, t.dst, t.sport, t.dport, t.proto)

    # -- decisions ------------------------------------------------------------
    def decide_session(self, session: Session) -> List[DispatchDecision]:
        """Fig. 3 at connection granularity (the engine's fast path)."""
        decisions = []
        for spec in self.modules:
            if not spec.traffic_filter.matches_session(session):
                continue
            unit = self.resolver.session_unit(spec, session)
            hash_value = self.session_hash(spec, session)
            decisions.append(
                DispatchDecision(
                    module=spec,
                    unit=unit,
                    hash_value=hash_value,
                    analyze=self.manifest.contains(spec.name, unit, hash_value),
                )
            )
        return decisions

    def decide_packet(self, packet: Packet) -> List[DispatchDecision]:
        """Fig. 3 at packet granularity."""
        decisions = []
        for spec in self.modules:
            if not spec.traffic_filter.matches_packet(packet):
                continue
            unit = self.resolver.packet_unit(spec, packet)
            hash_value = self.packet_hash(spec, packet)
            decisions.append(
                DispatchDecision(
                    module=spec,
                    unit=unit,
                    hash_value=hash_value,
                    analyze=self.manifest.contains(spec.name, unit, hash_value),
                )
            )
        return decisions

    # -- batch decisions -----------------------------------------------------
    def _units_by_scope(self, batch: SessionBatch) -> Dict[Scope, List[UnitKey]]:
        """Per-scope gid-to-unit-key tables for the batch's pair groups.

        Unit keys depend only on the routing pair and the module scope,
        so resolving once per distinct pair (instead of once per
        (module, session)) collapses GET_COORD_UNIT to a table lookup.
        """
        pairs = batch.pairs
        return {
            Scope.PATH: [tuple(sorted(pair)) for pair in pairs],
            Scope.INGRESS: [(pair[0],) for pair in pairs],
            Scope.EGRESS: [(pair[1],) for pair in pairs],
        }

    def batch_decisions(self, batch: SessionBatch) -> List["ModuleBatchDecision"]:
        """Fig. 3 over a batch: full-length per-module masks for the
        vectorized engine.

        For each module (in module order): the traffic-filter match
        mask, the Fig. 3 analyze mask (match AND hash-in-range), and
        the responsibility mask (this node holds *some* range for the
        session's unit — the engine's ``_responsible`` check).  All
        element-wise identical to the scalar predicates
        (:meth:`decide_session` / :meth:`should_analyze`).
        """
        n = len(batch)
        if n == 0:
            empty = np.empty(0, dtype=bool)
            return [
                ModuleBatchDecision(spec, empty, empty, empty)
                for spec in self.modules
            ]
        group_ids = batch.group_ids
        units_by_scope = self._units_by_scope(batch)
        index = self.index

        hashes_by_aggregation: Dict[Aggregation, np.ndarray] = {}
        out: List[ModuleBatchDecision] = []
        for spec in self.modules:
            all_hashes = hashes_by_aggregation.get(spec.aggregation)
            if all_hashes is None:
                all_hashes = self._hash_batch(
                    spec.aggregation,
                    batch.tuples,
                    batch.src,
                    batch.dst,
                    batch.sport,
                    batch.dport,
                    batch.proto,
                )
                hashes_by_aggregation[spec.aggregation] = all_hashes
            match = spec.traffic_filter.matches_sessions_batch(
                batch.proto, batch.dport
            )
            matched = np.flatnonzero(match)
            unit_table = units_by_scope[spec.scope]
            analyze = np.zeros(n, dtype=bool)
            if len(matched):
                # One searchsorted per (unit, batch) instead of one
                # linear range scan per (unit, session).
                matched_gids = group_ids[matched]
                matched_hashes = all_hashes[matched]
                order = np.argsort(matched_gids, kind="stable")
                sorted_gids = matched_gids[order]
                cuts = np.flatnonzero(np.diff(sorted_gids)) + 1
                for group in np.split(order, cuts):
                    unit = unit_table[matched_gids[group[0]]]
                    analyze[matched[group]] = index.contains_batch(
                        spec.name, unit, matched_hashes[group]
                    )
            table = np.fromiter(
                (self.manifest.responsible(spec.name, unit) for unit in unit_table),
                dtype=bool,
                count=len(unit_table),
            )
            out.append(ModuleBatchDecision(spec, match, analyze, table[group_ids]))
        return out

    def should_analyze(self, spec: ModuleSpec, session: Session) -> bool:
        """Single-module convenience wrapper over :meth:`decide_session`."""
        if not spec.traffic_filter.matches_session(session):
            return False
        unit = self.resolver.session_unit(spec, session)
        return self.manifest.contains(
            spec.name, unit, self.session_hash(spec, session)
        )
