"""Sampling-manifest generation (paper Fig. 2 and Section 2.5).

``GenerateNIDSManifest`` converts the LP's optimal ``d*`` fractions
into hash ranges: for each coordination unit the eligible nodes' ranges
are laid end to end over ``[0, coverage]``, guaranteeing that the
ranges are non-overlapping and exactly cover the space.  With the
redundancy extension (coverage ``r`` > 1) positions beyond 1 wrap
around modulo 1; because every ``d_ikj <= 1``, a node's arc never
overlaps itself, so every point of the hash space is covered by ``r``
*distinct* nodes.

:func:`verify_manifests` re-checks both invariants numerically and is
used by the test suite and as an operational safety net.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..hashing.ranges import (
    EPSILON,
    HashRange,
    WrappedRange,
    are_disjoint,
    covers_unit_interval,
)
from ..obs import COUNT_BUCKETS, get_registry
from .nids_lp import NIDSAssignment
from .units import CoordinationUnit, UnitKey

EntryKey = Tuple[str, UnitKey]  # (class name, unit key)


@dataclass
class NodeManifest:
    """The sampling manifest for one node ``R_j``.

    Maps each (class, coordination unit) this node participates in to
    the hash ranges it is responsible for.  ``full=True`` builds the
    degenerate standalone manifest in which the node analyzes all
    traffic for every class — the configuration used for the paper's
    single-node microbenchmarks.
    """

    node: str
    entries: Dict[EntryKey, Tuple[HashRange, ...]] = field(default_factory=dict)
    full: bool = False

    def ranges(self, class_name: str, key: UnitKey) -> Tuple[HashRange, ...]:
        """Hash ranges held for (class, unit key)."""
        if self.full:
            return (HashRange(0.0, 1.0),)
        return self.entries.get((class_name, key), ())

    def responsible(self, class_name: str, key: UnitKey) -> bool:
        """Whether this node has any positive range for the unit."""
        if self.full:
            return True
        return any(not r.empty for r in self.entries.get((class_name, key), ()))

    def contains(self, class_name: str, key: UnitKey, hash_value: float) -> bool:
        """The Fig. 3 check: does *hash_value* fall in this node's range?"""
        if self.full:
            return True
        return any(r.contains(hash_value) for r in self.entries.get((class_name, key), ()))

    def assigned_fraction(self, class_name: str, key: UnitKey) -> float:
        """Total hash-space share held for the unit (equals ``d_ikj``)."""
        if self.full:
            return 1.0
        return sum(r.length for r in self.entries.get((class_name, key), ()))

    def same_ranges(self, other: "NodeManifest") -> bool:
        """Whether both manifests assign identical ranges everywhere.

        Content equality only — the owning node name is not compared.
        Used by the agent to skip the §5 dual-manifest window when a
        push changes the version but not the responsibilities.
        """
        if self.full or other.full:
            return self.full == other.full
        mine = {k: v for k, v in self.entries.items() if v}
        theirs = {k: v for k, v in other.entries.items() if v}
        return mine == theirs

    @property
    def num_entries(self) -> int:
        """Number of (class, unit) entries in the manifest."""
        return len(self.entries)


def full_manifest(node: str) -> NodeManifest:
    """Standalone manifest: *node* processes all traffic for all classes."""
    return NodeManifest(node=node, full=True)


def generate_manifests(
    units: Sequence[CoordinationUnit],
    assignment: NIDSAssignment,
    node_names: Iterable[str],
) -> Dict[str, NodeManifest]:
    """Translate ``d*`` into per-node sampling manifests (Fig. 2).

    The order of nodes within a unit does not matter (Fig. 2 comment);
    we use the unit's eligible-node order, which is deterministic.
    Coverage per unit comes from the assignment (1 for the base
    formulation, up to ``r`` under redundancy); ranges past 1.0 wrap.
    """
    manifests: Dict[str, NodeManifest] = {
        name: NodeManifest(node=name) for name in node_names
    }
    for unit in units:
        position = 0.0
        # Track the wrapped layout position incrementally instead of
        # recomputing ``position % 1.0``: ``(lo % 1) + f`` and
        # ``(lo + f) % 1`` can differ by an ulp, and a boundary float
        # mismatch between consecutive ranges would open an
        # ulp-wide sliver that no node's half-open range contains.
        # Chaining the cursor makes each range's lo bit-identical to
        # its predecessor's hi.
        cursor = 0.0
        last_entry: Optional[Tuple[str, EntryKey]] = None
        for node in unit.eligible:
            fraction = assignment.fraction(unit.class_name, unit.key, node)
            if fraction <= EPSILON:
                continue
            arc = WrappedRange(start=cursor, length=min(1.0, fraction))
            pieces = tuple(_snap_top(piece) for piece in arc.pieces())
            if pieces:
                manifests[node].entries[(unit.class_name, unit.key)] = pieces
                last_entry = (node, (unit.class_name, unit.key))
            position += fraction
            cursor += fraction
            if abs(cursor - 1.0) <= EPSILON:
                # The lap boundary landed within EPSILON of the top, so
                # the piece just laid was snapped to end at exactly 1.0
                # (closed top) and any overshoot was dropped rather than
                # wrapped.  The next range must start at the bottom:
                # starting below the top would lay a sliver under the
                # snapped band and cover it fold+1 times, and starting
                # at the dropped overshoot would leave ``[0, overshoot)``
                # covered only fold-1 times.
                cursor = 0.0
            elif cursor > 1.0:
                cursor -= 1.0
        expected = assignment.coverage.get(unit.ident, 1.0)
        if abs(position - expected) > 1e-6:
            raise ValueError(
                f"unit {unit.ident} fractions sum to {position}, expected {expected}"
            )
        # The layout must end exactly at the top of the hash space.
        # Accumulated float error (up to the solver tolerance checked
        # above) can leave the final piece short of 1.0, which would
        # otherwise leak an uncovered sliver into dispatch; snap it.
        if last_entry is not None:
            node, key = last_entry
            entry = manifests[node].entries[key]
            tail = entry[-1]
            if 1.0 - 1e-6 < tail.hi < 1.0:
                manifests[node].entries[key] = entry[:-1] + (
                    HashRange(tail.lo, 1.0),
                )
    registry = get_registry()
    registry.counter(
        "manifest_generations_total", "Fig. 2 manifest-generation runs"
    ).inc()
    registry.histogram(
        "manifest_entries_per_generation",
        "(node, unit) entries produced per generation run",
        buckets=COUNT_BUCKETS,
    ).observe(sum(m.num_entries for m in manifests.values()))
    return manifests


def _snap_top(piece: HashRange) -> HashRange:
    """Snap a laid range ending within ``EPSILON`` of 1.0 to exactly 1.0.

    Wrapped arcs split at the top of the hash space; float error in the
    split position must not leave a piece at ``1.0 - epsilon`` where the
    generator intended exactly 1.0.
    """
    if 1.0 - EPSILON <= piece.hi < 1.0:
        return HashRange(piece.lo, 1.0)
    return piece


def verify_manifests(
    units: Sequence[CoordinationUnit],
    manifests: Mapping[str, NodeManifest],
) -> None:
    """Check the two manifest invariants; raise ``ValueError`` if broken.

    (1) For every unit, the union of all nodes' ranges covers the unit
    hash space exactly ``coverage`` times.  (2) No node's own ranges
    for a unit overlap (a node never analyzes the same traffic twice).
    """
    for unit in units:
        all_pieces: List[HashRange] = []
        coverage_total = 0.0
        for node in unit.eligible:
            pieces = list(manifests[node].ranges(unit.class_name, unit.key))
            if not are_disjoint(pieces):
                raise ValueError(
                    f"node {node} has self-overlapping ranges for {unit.ident}"
                )
            all_pieces.extend(pieces)
            coverage_total += sum(p.length for p in pieces)
        fold = int(round(coverage_total))
        if abs(coverage_total - fold) > 1e-6 or fold < 1:
            raise ValueError(
                f"unit {unit.ident} total coverage {coverage_total} is not a"
                " positive integer"
            )
        if not covers_unit_interval(all_pieces, fold=fold):
            raise ValueError(f"unit {unit.ident} does not cover [0,1] {fold}-fold")
        # The coverage sweep tolerates an EPSILON shortfall at the top;
        # generated manifests must reach 1.0 *exactly* (generate
        # snaps), so solver-epsilon gaps can never reach dispatch.
        top = max(p.hi for p in all_pieces if not p.empty)
        if top != 1.0:  # repnoqa: REP001 -- exactness is the invariant
            raise ValueError(
                f"unit {unit.ident} union tops out at {top!r}, not exactly 1.0"
            )


def sampled_node(
    unit: CoordinationUnit,
    manifests: Mapping[str, NodeManifest],
    hash_value: float,
) -> List[str]:
    """All nodes whose range for *unit* contains *hash_value*.

    Length 1 in the base formulation, ``r`` under redundancy level r.
    """
    return [
        node
        for node in unit.eligible
        if manifests[node].contains(unit.class_name, unit.key, hash_value)
    ]
