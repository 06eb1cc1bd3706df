"""The coordination plane's one epoch driver, with chaos injection and
invariant monitoring.

:func:`run_chaos` runs every coordination-plane experiment: the
scripted steady → shift → failure → recovery schedules
(:mod:`repro.control.scenarios`) are fault plans like any other, so
every run is judged by the same monitor.  This module subjects the
controller–agent runtime to *adversarial* fault schedules — the kind
distributed-NIDS deployments actually face — and proves, per epoch,
that graceful degradation holds the paper's coverage guarantees
(``docs/fault_model.md``):

* a deterministic, seeded :class:`FaultPlan` of timed
  :class:`FaultEvent` s: asymmetric partitions, loss and delay bursts,
  message duplication, reordering beyond channel jitter, agent
  crash/warm-restart-with-stale-epoch, controller outage windows, and
  traffic-profile shifts;
* :class:`ChaosBus`, a :class:`~repro.control.bus.Bus` subclass that
  applies the plan's channel faults to every admitted message via the
  ``_admit`` extension point (process faults — crashes, controller
  outages — are applied by the runner); an empty plan admits exactly
  what the base bus admits and draws nothing from the chaos RNG;
* :class:`InvariantMonitor`, which checks after every epoch that
  (1) no session whose edge-only baseline would cover it goes
  unanalyzed outside a declared transition window, (2) no stale-epoch
  manifest is served past its lease, (3) the plane reconverges to
  a coordinated configuration within a bounded number of epochs after
  the last fault heals, and — under controller HA
  (:mod:`repro.control.ha`) — (4) at most one acting leader exists per
  term at every epoch boundary and no leader ignores higher-term
  evidence, and (5) no agent's applied ``(term, version)`` pair ever
  regresses across a takeover;
* :func:`run_chaos`, the epoch driver, exposed as ``repro control
  run`` (scripted plans) and ``repro control chaos`` (fault plans).

Each epoch is a four-beat discrete-event schedule::

    t + 0.00   agents measure their ingress traffic, export NetFlow
               reports, and heartbeat
    t + 0.25   controller drains the bus, sweeps for missed heartbeats,
               re-plans if warranted, pushes manifest (delta) updates
    t + 0.50   agents apply updates (dual-manifest window) and ack
    t + 0.75   controller collects acks and the epoch record closes

Traffic is drawn from per-profile session *pools* with a volume-scaled
prefix per epoch (:class:`~repro.traffic.dynamics.DiurnalBurstModel`),
so steady-state epochs present near-identical unit sets — the regime
in which delta distribution must win — while a profile shift presents
a genuine drift for the controller to detect.

All randomness is seeded (REP002): the same plan, seed, and topology
replay the exact same fault schedule, so a CI failure is reproducible
locally with the seed it prints.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.units import build_units, unit_key_for_session
from ..hashing.keys import key_hash_unit
from ..hashing.ranges import HashRange
from ..measurement.flows import FlowExporter
from ..nids.modules import STANDARD_MODULES
from ..nids.modules.base import ModuleSpec
from ..obs import MetricsRegistry, NULL_REGISTRY, use_registry
from ..topology import PathSet, by_label
from ..traffic.dynamics import DiurnalBurstModel
from ..traffic.generator import GeneratorConfig, TrafficGenerator
from ..traffic.profiles import PROFILES
from ..traffic.session import Session
from .agent import Agent, AgentConfig
from .bus import Bus, BusConfig, BusStats, Message
from .controller import Controller, ControllerConfig, ControllerStats
from .epochs import EpochRecord, Ident, coverage_metrics, union_length
from .ha import HACluster, HAConfig, base_identity, replica_name

#: Fault kinds the channel layer applies per admitted message.
CHANNEL_FAULTS = ("partition", "loss_burst", "delay_burst", "duplicate", "reorder")
#: Fault kinds the epoch runner applies to processes.
PROCESS_FAULTS = ("crash", "controller_down")
FAULT_KINDS = CHANNEL_FAULTS + PROCESS_FAULTS + ("shift",)

#: Volume-weighted coverage required of every epoch outside a
#: transition window; the monitor's pair-level floor uses the same
#: tolerance.
COVERAGE_FLOOR = 0.99


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault, active over ``[start, end)`` run seconds.

    Field use by kind:

    * ``partition`` — drop messages from *src* to *dst* (either may be
      ``None`` = any): an asymmetric partition drops one direction only.
    * ``loss_burst`` — drop each message with probability *rate*.
    * ``delay_burst`` — delay every message by *delay* extra seconds.
    * ``duplicate`` — with probability *rate*, deliver a second copy
      *delay* seconds after the original.
    * ``reorder`` — with probability *rate*, hold a message back by
      *delay* seconds (beyond channel jitter), overtaking later sends.
    * ``crash`` — *node*'s NIDS process dies at *start* and restarts at
      *end*; ``warm=True`` restarts it holding its pre-crash manifest.
    * ``controller_down`` — a controller process is down: it takes no
      epoch beats and messages addressed to it (either plane) are
      lost.  Under HA, *node* names the specific replica held down
      (``None`` = every replica).
    * ``shift`` — traffic is drawn from *profile* instead of the run's
      base profile while the window is open.  A shift is workload, not
      a fault: :attr:`FaultPlan.heal_time` ignores it.
    """

    kind: str
    start: float
    end: float
    src: Optional[str] = None
    dst: Optional[str] = None
    node: Optional[str] = None
    rate: float = 0.0
    delay: float = 0.0
    warm: bool = False
    profile: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not self.start < self.end:
            raise ValueError(f"fault window must satisfy start < end, got "
                             f"[{self.start}, {self.end})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.kind == "crash" and not self.node:
            raise ValueError("crash fault needs a node")
        if self.kind in ("loss_burst", "duplicate", "reorder") and self.rate <= 0:
            raise ValueError(f"{self.kind} fault needs rate > 0")
        if self.kind in ("delay_burst", "reorder") and self.delay <= 0:
            raise ValueError(f"{self.kind} fault needs delay > 0")
        if self.kind == "shift" and self.profile not in PROFILES:
            raise ValueError(
                f"shift event needs a profile in {sorted(PROFILES)}"
            )

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def to_dict(self) -> dict:
        """JSON-compatible dict of the fault event."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A named, validated schedule of fault events."""

    name: str
    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        crashed: Set[str] = set()
        for event in self.events:
            if event.kind == "crash":
                if event.node in crashed:
                    raise ValueError(
                        f"plan {self.name!r}: node {event.node!r} has"
                        " overlapping crash events"
                    )
                crashed.add(event.node)

    @property
    def heal_time(self) -> float:
        """When the last fault window closes (0.0 for an empty plan)."""
        return max(
            (event.end for event in self.events if event.kind != "shift"),
            default=0.0,
        )

    def profile_at(self, now: float, base: str) -> str:
        """The traffic profile in force at *now*: the last open shift's
        profile, else *base*."""
        profile = base
        for event in self.events:
            if event.kind == "shift" and event.active(now):
                profile = event.profile
        return profile

    def controller_down(self, now: float, name: Optional[str] = None) -> bool:
        """Whether a controller process is held down at *now*.

        With *name* the check is per replica: an event whose ``node``
        is ``None`` downs every replica, otherwise only the named one.
        Without *name* (single-controller callers) any active
        ``controller_down`` event counts.
        """
        for event in self.events:
            if event.kind != "controller_down" or not event.active(now):
                continue
            if event.node is None or name is None or event.node == name:
                return True
        return False

    def channel_events(self, now: float) -> List[FaultEvent]:
        return [
            e
            for e in self.events
            if e.kind in CHANNEL_FAULTS + ("controller_down",) and e.active(now)
        ]

    def crash_events(self) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == "crash"]

    def to_dict(self) -> dict:
        """JSON-compatible dict of the plan and its events."""
        return {
            "name": self.name,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            events=tuple(
                FaultEvent.from_dict(event)
                for event in data.get("events", ())
            ),
        )


class ChaosBus(Bus):
    """A :class:`Bus` whose channel executes a :class:`FaultPlan`.

    Only the ``_admit`` extension point is overridden: the base class
    still accounts every send and applies its own (uniform) loss and
    jitter first; the chaos layer then decides the admitted message's
    fate.  All chaos randomness comes from a dedicated seeded RNG, so
    the fault schedule replays identically for a given seed regardless
    of how much base-channel randomness was consumed.
    """

    def __init__(
        self,
        plan: FaultPlan,
        config: Optional[BusConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        chaos_seed: int = 0,
        controller: str = "controller",
        controller_names: Optional[Sequence[str]] = None,
    ):
        super().__init__(config, registry)
        self.plan = plan
        self.controller_name = controller
        #: Every controller process identity (HA replicas); fault
        #: matching strips the ``#ha`` plane suffix, so an event naming
        #: a replica severs both of its planes at once.
        self.controller_names: Tuple[str, ...] = (
            tuple(controller_names) if controller_names else (controller,)
        )
        self._chaos_rng = random.Random(chaos_seed ^ 0x5EED)
        # Pre-declared so a fault-free run still exports the family.
        self._injected = self.registry.counter(
            "chaos_injected_total",
            "fault-plan interventions applied to admitted messages",
            labels=("fault",),
        )

    def _matches_partition(self, event: FaultEvent, message: Message) -> bool:
        src = base_identity(message.src)
        dst = base_identity(message.dst)
        return (event.src is None or event.src == src) and (
            event.dst is None or event.dst == dst
        )

    def _admit(self, message: Message, now: float) -> Optional[Message]:
        rng = self._chaos_rng
        for event in self.plan.channel_events(now):
            kind = event.kind
            if kind == "partition":
                if self._matches_partition(event, message):
                    self._injected.inc(fault="partition")
                    self._drop_admitted(message)
                    return None
            elif kind == "controller_down":
                # A dead process receives nothing; its own sends are
                # suppressed by the runner not stepping it.
                identity = base_identity(message.dst)
                if identity in self.controller_names and (
                    event.node is None or event.node == identity
                ):
                    self._injected.inc(fault="controller_down")
                    self._drop_admitted(message)
                    return None
            elif kind == "loss_burst":
                if rng.random() < event.rate:
                    self._injected.inc(fault="loss_burst")
                    self._drop_admitted(message)
                    return None
            elif kind == "delay_burst":
                self._injected.inc(fault="delay_burst")
                message = dataclasses.replace(
                    message, deliver_at=message.deliver_at + event.delay
                )
            elif kind == "reorder":
                if rng.random() < event.rate:
                    # Held back past messages sent after it — reordering
                    # beyond anything channel jitter produces.
                    self._injected.inc(fault="reorder")
                    message = dataclasses.replace(
                        message, deliver_at=message.deliver_at + event.delay
                    )
            elif kind == "duplicate":
                if rng.random() < event.rate:
                    self._injected.inc(fault="duplicate")
                    self._seq += 1
                    copy = dataclasses.replace(
                        message,
                        deliver_at=message.deliver_at + max(event.delay, 0.01),
                        seq=self._seq,
                    )
                    self._in_flight.append(copy)
        return super()._admit(message, now)


# ---------------------------------------------------------------------------
# Named plans


def _controller_outage(epochs: int, nodes: Sequence[str], rng: random.Random
                       ) -> Tuple[FaultEvent, ...]:
    """The acceptance-criterion plan: a total operations-center outage
    long enough that every agent's lease expires mid-window."""
    start = 4.0
    end = min(float(epochs) - 6.0, start + 5.0)
    return (FaultEvent(kind="controller_down", start=start, end=end),)


def _asym_partition(epochs: int, nodes: Sequence[str], rng: random.Random
                    ) -> Tuple[FaultEvent, ...]:
    """Controller→agent direction cut only: the agent's heartbeats
    still arrive (so it is never declared dead) but it hears no
    renewals — the lease is what turns this silent staleness into
    explicit edge-only fallback."""
    node = rng.choice(sorted(nodes))
    return (
        FaultEvent(
            kind="partition", start=4.0, end=min(float(epochs) - 6.0, 9.0),
            src="controller", dst=node,
        ),
    )


def _agent_restart_stale(epochs: int, nodes: Sequence[str], rng: random.Random
                         ) -> Tuple[FaultEvent, ...]:
    """Crash an agent and warm-restart it holding its pre-crash
    manifest, under duplicated delivery — the §5 recovery-with-stale-
    state case plus idempotency stress."""
    node = rng.choice(sorted(nodes))
    return (
        FaultEvent(kind="crash", start=4.0, end=7.0, node=node, warm=True),
        FaultEvent(kind="duplicate", start=3.0, end=min(float(epochs) - 6.0, 10.0),
                   rate=0.5, delay=0.12),
    )


def _lossy_burst(epochs: int, nodes: Sequence[str], rng: random.Random
                 ) -> Tuple[FaultEvent, ...]:
    """Correlated channel degradation: a loss burst overlapping delay,
    duplication, and reordering windows."""
    end = min(float(epochs) - 6.0, 9.0)
    return (
        FaultEvent(kind="loss_burst", start=4.0, end=end, rate=0.3),
        FaultEvent(kind="delay_burst", start=4.5, end=end, delay=0.1),
        FaultEvent(kind="duplicate", start=4.0, end=end, rate=0.3, delay=0.15),
        FaultEvent(kind="reorder", start=4.0, end=end, rate=0.3, delay=0.3),
    )


def _leader_crash_mid_push(epochs: int, nodes: Sequence[str], rng: random.Random
                           ) -> Tuple[FaultEvent, ...]:
    """HA acceptance plan 1: the acting leader dies *between* its push
    beat and its ack beat — agents hold an applied-but-unacknowledged
    configuration the standbys only know through the epoch log.  A
    standby must promote, rebuild from log + heartbeat claims, and
    resume coordinated service without ever regressing an epoch."""
    return (
        FaultEvent(
            kind="controller_down",
            start=0.4,
            end=min(float(epochs) - 6.0, 12.0),
            node=replica_name(0),
        ),
    )


def _leader_partition(epochs: int, nodes: Sequence[str], rng: random.Random
                      ) -> Tuple[FaultEvent, ...]:
    """HA acceptance plan 2: the acting leader is partitioned away with
    a quarter of the agents still on its side — it keeps serving them
    at its old term while a standby promotes for the majority side.
    Dual leadership in *distinct* terms is legal during the partition;
    after it heals the old leader must depose on first higher-term
    evidence (announce or agent nack) and no agent's applied
    ``(term, version)`` may regress."""
    ordered = sorted(nodes)
    old_side = sorted(rng.sample(ordered, max(1, len(ordered) // 4)))
    far_side = [n for n in ordered if n not in set(old_side)]
    leader = replica_name(0)
    standbys = (replica_name(1), replica_name(2))
    start = 4.0
    end = min(float(epochs) - 6.0, 10.0)
    events: List[FaultEvent] = []
    for peer in standbys:
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=leader, dst=peer))
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=peer, dst=leader))
    for node in far_side:
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=leader, dst=node))
        events.append(FaultEvent(kind="partition", start=start, end=end,
                                 src=node, dst=leader))
    for node in old_side:
        for peer in standbys:
            events.append(FaultEvent(kind="partition", start=start, end=end,
                                     src=peer, dst=node))
            events.append(FaultEvent(kind="partition", start=start, end=end,
                                     src=node, dst=peer))
    return tuple(events)


NAMED_PLANS = {
    "controller-outage": _controller_outage,
    "asym-partition": _asym_partition,
    "agent-restart-stale": _agent_restart_stale,
    "lossy-burst": _lossy_burst,
    "leader-crash-mid-push": _leader_crash_mid_push,
    "leader-partition": _leader_partition,
}

#: Minimum replica count a named plan needs; the runner raises the
#: configured count to this floor so the HA acceptance plans run
#: unchanged under ``repro control chaos`` and ``repro sweep``.
HA_PLAN_REPLICAS = {
    "leader-crash-mid-push": 3,
    "leader-partition": 3,
}


def random_fault_plan(
    seed: int, epochs: int, nodes: Sequence[str]
) -> FaultPlan:
    """A seeded adversarial schedule of 2–4 faults.

    Windows all close by ``epochs - 5`` so every plan leaves room for
    the reconvergence invariant to be judged.
    """
    rng = random.Random(seed)
    horizon = float(epochs) - 5.0
    if horizon <= 3.0:
        raise ValueError(
            f"need at least 9 epochs for a random plan, got {epochs}"
        )
    ordered = sorted(nodes)
    events: List[FaultEvent] = []
    crashed: Set[str] = set()
    for _ in range(rng.randint(2, 4)):
        start = round(rng.uniform(2.0, horizon - 1.5), 2)
        end = round(min(horizon, start + rng.uniform(1.0, 4.0)), 2)
        kind = rng.choice(
            ("partition", "loss_burst", "delay_burst", "duplicate",
             "reorder", "crash", "controller_down")
        )
        if kind == "partition":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                src="controller", dst=rng.choice(ordered),
            ))
        elif kind == "loss_burst":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                rate=round(rng.uniform(0.1, 0.4), 2),
            ))
        elif kind == "delay_burst":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                delay=round(rng.uniform(0.05, 0.2), 2),
            ))
        elif kind == "duplicate":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                rate=round(rng.uniform(0.2, 0.6), 2),
                delay=round(rng.uniform(0.05, 0.3), 2),
            ))
        elif kind == "reorder":
            events.append(FaultEvent(
                kind=kind, start=start, end=end,
                rate=round(rng.uniform(0.2, 0.5), 2),
                delay=round(rng.uniform(0.2, 0.5), 2),
            ))
        elif kind == "crash":
            candidates = [n for n in ordered if n not in crashed]
            if not candidates:
                continue
            node = rng.choice(candidates)
            crashed.add(node)
            events.append(FaultEvent(
                kind=kind, start=start, end=end, node=node,
                warm=rng.random() < 0.5,
            ))
        else:  # controller_down
            events.append(FaultEvent(kind=kind, start=start, end=end))
    return FaultPlan(name=f"random-{seed}", events=tuple(events))


def build_plan(
    name: str, seed: int, epochs: int, nodes: Sequence[str]
) -> FaultPlan:
    """Resolve a plan by name (``random`` uses *seed* as schedule)."""
    if name == "random":
        return random_fault_plan(seed, epochs, nodes)
    try:
        factory = NAMED_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown plan {name!r}; choose from"
            f" {sorted(NAMED_PLANS) + ['random']}"
        ) from None
    if epochs < 14:
        raise ValueError(f"named plans need >= 14 epochs, got {epochs}")
    return FaultPlan(
        name=name, events=factory(epochs, nodes, random.Random(seed))
    )


# ---------------------------------------------------------------------------
# Invariant monitor


@dataclass(frozen=True)
class InvariantViolation:
    """One broken runtime guarantee, attributed to an epoch."""

    epoch: int
    #: "coverage-floor" | "stale-lease" | "reconvergence"
    #: | "leader-uniqueness" | "epoch-regression"
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"epoch {self.epoch} [{self.rule}]: {self.detail}"

    def to_dict(self) -> dict:
        """JSON-compatible dict of the verdict."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "InvariantViolation":
        """Rebuild a verdict from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class ChaosEpochRecord:
    """One chaos epoch: the plane's record plus ground-truth verdicts."""

    record: EpochRecord
    #: Live agents in edge-only fallback at epoch end.
    degraded_nodes: Tuple[str, ...] = ()
    controller_down: bool = False
    #: Epoch excluded from the coverage-floor assertion (declared
    #: transition window — see ``docs/fault_model.md``).
    excluded: bool = False
    #: (module, session) pairs the edge-only baseline would cover.
    baseline_pairs: int = 0
    #: Of those, pairs no live agent actually analyzed.
    uncovered_pairs: int = 0
    #: Acting leader at epoch end (``None`` without one; single-replica
    #: runs report the lone controller whenever it is up).
    leader: Optional[str] = None
    #: Acting leader's fencing term (0 in single-replica runs).
    term: int = 0
    #: True when the replica set agrees on exactly one caught-up
    #: leader; single-replica runs are trivially settled.
    ha_settled: bool = True

    def to_dict(self) -> dict:
        """JSON-compatible dict (nested record serialized too)."""
        return {
            "record": self.record.to_dict(),
            "degraded_nodes": list(self.degraded_nodes),
            "controller_down": self.controller_down,
            "excluded": self.excluded,
            "baseline_pairs": self.baseline_pairs,
            "uncovered_pairs": self.uncovered_pairs,
            "leader": self.leader,
            "term": self.term,
            "ha_settled": self.ha_settled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEpochRecord":
        """Rebuild a chaos epoch record from :meth:`to_dict` output."""
        fields = dict(data)
        fields["record"] = EpochRecord.from_dict(fields["record"])
        fields["degraded_nodes"] = tuple(fields.get("degraded_nodes", ()))
        return cls(**fields)


class InvariantMonitor:
    """Per-epoch runtime assertions over the live agent/controller state.

    * **coverage-floor** — every (module, session) pair that the
      edge-only baseline deployment would analyze (some live node is an
      endpoint of its unit) is analyzed by at least one live agent,
      outside declared transition windows.
    * **stale-lease** — no live agent serves a coordinated manifest
      past its lease: lease expired ⇒ the agent is degraded.
    * **reconvergence** — within ``reconverge_epochs`` of the plan's
      heal time there is an epoch with no degradation, no fencing, no
      unsynced live node, and coverage at :data:`COVERAGE_FLOOR` (and,
      under HA, a settled replica set).
    * **leader-uniqueness** — at most one acting leader per epoch
      *term*: two alive replicas never serve in the same term, and no
      replica keeps serving after observing a higher term.
    * **epoch-regression** — a live agent's applied ``(term, version)``
      never moves lexicographically backwards across a takeover.
    """

    def __init__(
        self,
        modules: Sequence[ModuleSpec],
        registry: MetricsRegistry = NULL_REGISTRY,
    ):
        self.modules = list(modules)
        self.violations: List[InvariantViolation] = []
        #: Per-agent high-water applied (term, version); cleared on
        #: restart (a cold restart legitimately forgets its manifest).
        self._applied_floor: Dict[str, Tuple[int, int]] = {}
        self._counter = registry.counter(
            "chaos_invariant_violations_total",
            "runtime invariant violations observed by the chaos monitor",
            labels=("rule",),
        )

    def _violate(self, epoch: int, rule: str, detail: str) -> None:
        self.violations.append(InvariantViolation(epoch, rule, detail))
        self._counter.inc(rule=rule)

    # -- per-epoch checks -------------------------------------------------
    def coverage_floor(
        self,
        epoch: int,
        sessions: Sequence[Session],
        agents: Dict[str, Agent],
        excluded: bool,
    ) -> Tuple[int, int]:
        """Count baseline-covered and baseline-covered-but-unanalyzed
        (module, session) pairs; record a violation when the latter is
        non-zero outside a transition window."""
        baseline = 0
        uncovered = 0
        agent_list = list(agents.values())
        for spec in self.modules:
            for session in sessions:
                if not spec.traffic_filter.matches_session(session):
                    continue
                key = unit_key_for_session(spec, session)
                if not any(
                    agents[n].alive for n in key if n in agents
                ):
                    continue  # baseline itself cannot observe it
                baseline += 1
                t = session.tuple
                h = key_hash_unit(
                    spec.aggregation, t.src, t.dst, t.sport, t.dport, t.proto
                )
                if not any(
                    agent.responsible_for_new(spec.name, key, h)
                    for agent in agent_list
                ):
                    uncovered += 1
        # Tolerance mirrors COVERAGE_FLOOR: sessions whose
        # unit keys post-date the last re-plan are uncoverable by any
        # coordinated manifest until the next epoch's plan (planning
        # lag, not a fault) — while a real degradation failure uncovers
        # a large fraction at once.
        if uncovered > (1.0 - COVERAGE_FLOOR) * baseline and not excluded:
            self._violate(
                epoch,
                "coverage-floor",
                f"{uncovered}/{baseline} baseline-covered (module, session)"
                " pairs unanalyzed outside a transition window",
            )
        return baseline, uncovered

    def stale_leases(
        self, epoch: int, now: float, agents: Dict[str, Agent]
    ) -> None:
        """A lease that lapsed must have forced edge-only fallback."""
        for node, agent in agents.items():
            if not agent.alive or agent.config.lease_ttl is None:
                continue
            if (
                not agent.degraded
                and agent.applied_version >= 0
                and not agent.lease_valid(now)
            ):
                self._violate(
                    epoch,
                    "stale-lease",
                    f"{node} serves manifest v{agent.applied_version} with"
                    f" lease expired at {agent.lease_expires_at:.2f}"
                    f" (now {now:.2f})",
                )

    def leader_uniqueness(self, epoch: int, cluster: HACluster) -> None:
        """At most one acting leader per *term*, and no replica keeps
        serving after observing a higher term.

        Dual leadership in distinct terms is legal mid-partition (the
        deposed side simply has not heard the news yet) — split brain
        is two leaders in the *same* term, or a leader that saw
        higher-term evidence and kept serving anyway.
        """
        serving = [
            replica
            for replica in cluster.replicas
            if replica.alive and replica.role == "leader"
        ]
        by_term: Dict[int, List[str]] = defaultdict(list)
        for replica in serving:
            by_term[replica.term].append(replica.name)
        for term in sorted(by_term):
            names = by_term[term]
            if len(names) > 1:
                self._violate(
                    epoch,
                    "leader-uniqueness",
                    f"replicas {sorted(names)} both act as leader in"
                    f" term {term}",
                )
        for replica in serving:
            if replica.observed_term > replica.term:
                self._violate(
                    epoch,
                    "leader-uniqueness",
                    f"{replica.name} keeps serving term {replica.term}"
                    f" after observing term {replica.observed_term}",
                )

    def note_restart(self, node: str) -> None:
        """Forget an agent's applied floor across a restart — a cold
        restart legitimately returns at version -1."""
        self._applied_floor.pop(node, None)

    def epoch_regression(self, epoch: int, agents: Dict[str, Agent]) -> None:
        """No live agent's applied ``(term, version)`` moves backwards.

        A stale-term delta slipping past the fence shows up here: the
        deposed leader's push carries an older term (or rewinds the
        version), dragging the agent's applied pair below its
        high-water mark.
        """
        for node in sorted(agents):
            agent = agents[node]
            if not agent.alive:
                continue
            if agent.applied_version < 0:
                self._applied_floor.pop(node, None)
                continue
            pair = (agent.applied_term, agent.applied_version)
            floor = self._applied_floor.get(node)
            if floor is not None and pair < floor:
                self._violate(
                    epoch,
                    "epoch-regression",
                    f"{node} applied (term, version) regressed from"
                    f" {floor} to {pair}",
                )
            self._applied_floor[node] = max(pair, floor or pair)

    # -- end-of-run check -------------------------------------------------
    def reconvergence(
        self,
        chaos_records: Sequence[ChaosEpochRecord],
        heal_epoch: int,
        budget: int,
    ) -> None:
        """The plane must settle within *budget* epochs of heal time."""
        deadline = heal_epoch + budget
        for chaos_record in chaos_records:
            record = chaos_record.record
            if record.epoch < heal_epoch:
                continue
            if (
                record.converged
                and not chaos_record.degraded_nodes
                and not record.fenced_nodes
                and not chaos_record.controller_down
                and chaos_record.ha_settled
                and record.coverage >= COVERAGE_FLOOR
            ):
                if record.epoch > deadline:
                    self._violate(
                        record.epoch,
                        "reconvergence",
                        f"first settled epoch {record.epoch} is past the"
                        f" deadline {deadline} (heal {heal_epoch}, budget"
                        f" {budget})",
                    )
                return
        last = chaos_records[-1].record.epoch if chaos_records else heal_epoch
        self._violate(
            last,
            "reconvergence",
            f"never settled after heal epoch {heal_epoch}"
            f" (deadline {deadline})",
        )


# ---------------------------------------------------------------------------
# Chaos runner


@dataclass
class ChaosConfig:
    """One coordination-plane run: a workload plus a fault plan.

    The defaults are the chaos regime (leases on, bursty diurnal
    traffic, no periodic re-solves);
    :func:`~repro.control.scenarios.scripted_config` supplies the
    scripted regime's.
    """

    plan: FaultPlan
    topology: str = "Internet2"
    epochs: int = 18
    base_sessions: int = 600
    profile: str = "mixed"
    seed: int = 7
    latency: float = 0.05
    jitter: float = 0.02
    loss_rate: float = 0.0
    heartbeat_timeout: float = 2.2
    transition_window: float = 2.0
    resolve_every: int = 0
    #: Epoch-lease TTL: over two epochs, so two consecutive lost
    #: renewal beats do not trigger spurious degradation, but a real
    #: outage fences every agent well before the plan heals.  ``None``
    #: runs the plane without leases (the scripted regime).
    lease_ttl: Optional[float] = 2.5
    #: Traffic dynamics (:class:`~repro.traffic.dynamics.DiurnalBurstModel`).
    diurnal_amplitude: float = 0.3
    burst_probability: float = 0.05
    #: Epochs allowed between the last fault healing and a settled,
    #: fully coordinated configuration.
    reconverge_epochs: int = 4
    #: Redundancy level r the controller plans at.
    coverage: float = 1.0
    #: Controller replica count; the HA acceptance plans raise this to
    #: their own floor (``HA_PLAN_REPLICAS``) so they run unchanged.
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.lease_ttl is not None and self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive (or None)")
        if self.replicas < 1:
            raise ValueError("chaos runs need at least one controller replica")
        if self.epochs < self.plan.heal_time + 2:
            raise ValueError(
                f"plan {self.plan.name!r} heals at"
                f" {self.plan.heal_time:.1f} but the run is only"
                f" {self.epochs} epochs"
            )

    def to_dict(self) -> dict:
        """JSON-compatible dict; the plan serializes via its own hook."""
        data = dataclasses.asdict(self)
        data["plan"] = self.plan.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        fields = dict(data)
        fields["plan"] = FaultPlan.from_dict(fields["plan"])
        return cls(**fields)


@dataclass
class ChaosResult:
    """Everything observed across one chaos run."""

    config: ChaosConfig
    records: List[ChaosEpochRecord]
    violations: List[InvariantViolation]
    #: Epoch at which the first agent entered edge-only fallback.
    first_degraded_epoch: Optional[int] = None
    #: Epoch of the first settled (fully coordinated) state at or
    #: after the plan's heal time.
    reconverged_epoch: Optional[int] = None
    bus_stats: Optional[BusStats] = None
    controller_stats: Optional[ControllerStats] = None
    #: :meth:`HACluster.summary` snapshot (``None`` in single-replica
    #: runs).
    ha_summary: Optional[dict] = None
    #: Epoch at which the controller first marked each crashed node
    #: failed.
    detection_epoch: Dict[str, int] = field(default_factory=dict)
    #: Epoch at which a crashed node's (repairable) hash ranges were
    #: all observed re-applied on live survivors.
    redistribution_epoch: Dict[str, int] = field(default_factory=dict)
    #: Epoch at which a restarted node was converged back in.
    reintegration_epoch: Dict[str, int] = field(default_factory=dict)
    #: Hash-space mass that could not be reassigned (no live eligible
    #: node), per crashed node — the paper's singleton-unit caveat.
    orphaned_mass: Dict[str, float] = field(default_factory=dict)

    @property
    def epoch_records(self) -> List[EpochRecord]:
        """The plane's per-epoch records, without the monitor's verdicts."""
        return [chaos_record.record for chaos_record in self.records]

    def check_acceptance(self) -> List[str]:
        """Human-readable invariant violations (empty = pass)."""
        return [str(violation) for violation in self.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-compatible dict for cross-process result transport."""
        return {
            "config": self.config.to_dict(),
            "records": [record.to_dict() for record in self.records],
            "violations": [
                violation.to_dict() for violation in self.violations
            ],
            "first_degraded_epoch": self.first_degraded_epoch,
            "reconverged_epoch": self.reconverged_epoch,
            "bus_stats": (
                self.bus_stats.to_dict() if self.bus_stats else None
            ),
            "controller_stats": (
                self.controller_stats.to_dict()
                if self.controller_stats
                else None
            ),
            "ha_summary": self.ha_summary,
            "detection_epoch": dict(self.detection_epoch),
            "redistribution_epoch": dict(self.redistribution_epoch),
            "reintegration_epoch": dict(self.reintegration_epoch),
            "orphaned_mass": dict(self.orphaned_mass),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            config=ChaosConfig.from_dict(data["config"]),
            records=[
                ChaosEpochRecord.from_dict(record)
                for record in data["records"]
            ],
            violations=[
                InvariantViolation.from_dict(violation)
                for violation in data.get("violations", ())
            ],
            first_degraded_epoch=data.get("first_degraded_epoch"),
            reconverged_epoch=data.get("reconverged_epoch"),
            bus_stats=(
                BusStats.from_dict(data["bus_stats"])
                if data.get("bus_stats")
                else None
            ),
            controller_stats=(
                ControllerStats.from_dict(data["controller_stats"])
                if data.get("controller_stats")
                else None
            ),
            ha_summary=data.get("ha_summary"),
            detection_epoch=dict(data.get("detection_epoch", {})),
            redistribution_epoch=dict(data.get("redistribution_epoch", {})),
            reintegration_epoch=dict(data.get("reintegration_epoch", {})),
            orphaned_mass=dict(data.get("orphaned_mass", {})),
        )


def session_pools(
    config: ChaosConfig,
    topology,
    paths,
    pool_size: int,
) -> Dict[str, List[Session]]:
    """One session pool per profile the run can be in.

    Epochs slice a volume-scaled prefix of the active pool, so the
    steady-state unit set is stable across epochs (the regime where
    manifest deltas must stay small) while still scaling with the
    diurnal volume.
    """
    names = {config.profile}
    names.update(e.profile for e in config.plan.events if e.kind == "shift")
    pools: Dict[str, List[Session]] = {}
    for offset, name in enumerate(sorted(names)):
        generator = TrafficGenerator(
            topology,
            paths,
            profile=PROFILES[name](),
            config=GeneratorConfig(seed=config.seed + 101 * offset),
        )
        pools[name] = generator.generate(pool_size)
    return pools


def _clipped_union(ranges: Sequence[HashRange], piece: HashRange) -> float:
    """Measure of ``union(ranges) ∩ piece``."""
    clipped = [
        HashRange(max(r.lo, piece.lo), min(r.hi, piece.hi))
        for r in ranges
        if r.hi > piece.lo and r.lo < piece.hi
    ]
    return union_length(clipped)


def _ranges_reassigned(
    snapshot: Dict[Ident, Tuple[HashRange, ...]],
    agents: Dict[str, Agent],
    failed_node: str,
    skip: Set[Ident],
) -> bool:
    """Whether every repairable snapshot range is applied on a live
    survivor's manifest (the ground truth: what the agents actually
    run, not what the controller intends)."""
    for ident, ranges in snapshot.items():
        if ident in skip:
            continue
        class_name, key = ident
        held: List[HashRange] = []
        for node, agent in agents.items():
            if node == failed_node or not agent.alive:
                continue
            held.extend(agent.manifest.ranges(class_name, key))
        for piece in ranges:
            if piece.empty:
                continue
            if _clipped_union(held, piece) < piece.length - 1e-9:
                return False
    return True


def _edge_manifests(
    agents: Dict[str, Agent], units
) -> Dict[str, object]:
    """Effective manifests for coverage accounting: a degraded agent
    serves its edge-only stance, not its (distrusted) manifest."""
    effective = {}
    full = (HashRange(0.0, 1.0),)
    for node, agent in agents.items():
        if not agent.alive:
            continue
        if not agent.degraded:
            effective[node] = agent.manifest
            continue
        entries = {
            (unit.class_name, unit.key): full
            for unit in units
            if node in unit.key
        }
        effective[node] = dataclasses.replace(
            agent.manifest, entries=entries, full=False
        )
    return effective


def run_chaos(
    config: ChaosConfig,
    registry: Optional[MetricsRegistry] = None,
) -> ChaosResult:
    """Execute the fault plan against a live coordination plane and
    judge every epoch with the invariant monitor."""
    if registry is not None and registry.enabled:
        with use_registry(registry):
            return _run_chaos(config, registry)
    return _run_chaos(config, NULL_REGISTRY)


def _run_chaos(config: ChaosConfig, registry: MetricsRegistry) -> ChaosResult:
    topology = by_label(config.topology).set_uniform_capacities(cpu=1.0, mem=1.0)
    replica_count = max(
        config.replicas, HA_PLAN_REPLICAS.get(config.plan.name, 1)
    )
    replica_names = tuple(replica_name(i) for i in range(replica_count))
    known = set(topology.node_names) | set(replica_names)
    for event in config.plan.events:
        for name in (event.node, event.src, event.dst):
            if name is not None and name not in known:
                raise ValueError(
                    f"plan references unknown node {name!r};"
                    f" {config.topology} nodes are {sorted(known)}"
                )
    paths = PathSet(topology)
    modules = list(STANDARD_MODULES)

    bus = ChaosBus(
        config.plan,
        BusConfig(
            latency=config.latency,
            jitter=config.jitter,
            loss_rate=config.loss_rate,
            seed=config.seed,
        ),
        registry=registry,
        chaos_seed=config.seed,
        controller_names=replica_names,
    )
    controller_config = ControllerConfig(
        heartbeat_timeout=config.heartbeat_timeout,
        resolve_every=config.resolve_every,
        lease_ttl=config.lease_ttl,
        coverage=config.coverage,
        retry_seed=config.seed,
    )
    cluster: Optional[HACluster] = None
    if replica_count > 1:
        cluster = HACluster(
            topology,
            paths,
            modules,
            bus,
            controller_config,
            HAConfig(
                replicas=replica_count,
                leader_lease=config.lease_ttl or HAConfig.leader_lease,
            ),
            registry=registry,
        )
        controller = cluster.authority
    else:
        controller = Controller(
            topology,
            paths,
            modules,
            bus,
            controller_config,
            registry=registry,
        )
    agent_config = AgentConfig(
        transition_window=config.transition_window,
        lease_ttl=config.lease_ttl,
    )
    agents: Dict[str, Agent] = {}
    for index, node in enumerate(topology.node_names):
        agents[node] = Agent(
            node,
            bus,
            exporter=FlowExporter(seed=config.seed + index),
            config=agent_config,
            registry=registry,
        )

    volume_model = DiurnalBurstModel(
        base_sessions=config.base_sessions,
        diurnal_amplitude=config.diurnal_amplitude,
        burst_probability=config.burst_probability,
        seed=config.seed,
    )
    volumes = volume_model.series(config.epochs)
    pools = session_pools(config, topology, paths, max(volumes))

    crashes_by_epoch: Dict[int, List[FaultEvent]] = defaultdict(list)
    restarts_by_epoch: Dict[int, List[FaultEvent]] = defaultdict(list)
    for event in config.plan.crash_events():
        crashes_by_epoch[int(math.floor(event.start))].append(event)
        restarts_by_epoch[int(math.ceil(event.end))].append(event)

    monitor = InvariantMonitor(modules, registry=registry)
    result = ChaosResult(config=config, records=[], violations=monitor.violations)
    #: Pre-crash manifest entries per crashed node, awaiting reassignment.
    pending_redistribution: Dict[str, Dict[Ident, Tuple[HashRange, ...]]] = {}
    pending_recovery: Set[str] = set()

    for epoch in range(config.epochs):
        t = float(epoch)
        for event in crashes_by_epoch.get(epoch, []):
            agent = agents[event.node]
            pending_redistribution[event.node] = dict(agent.manifest.entries)
            agent.crash()
        for event in restarts_by_epoch.get(epoch, []):
            agents[event.node].recover(warm=event.warm)
            monitor.note_restart(event.node)
            pending_recovery.add(event.node)

        profile = config.plan.profile_at(t, config.profile)
        sessions = pools[profile][: volumes[epoch]]
        by_ingress: Dict[str, List[Session]] = defaultdict(list)
        for session in sessions:
            by_ingress[session.ingress].append(session)

        bus_sent_before = bus.stats.sent
        bus_bytes_before = bus.stats.bytes_sent

        for node, agent in agents.items():
            agent.step(t, sessions=by_ingress.get(node, []))
        if cluster is not None:
            # Per-beat outage sets: a leader really can die *between*
            # its push beat and its finish beat.
            down_step = frozenset(
                name for name in replica_names
                if config.plan.controller_down(t + 0.25, name)
            )
            cluster.step(t + 0.25, down_step)
            for agent in agents.values():
                agent.step(t + 0.5)
            down_finish = frozenset(
                name for name in replica_names
                if config.plan.controller_down(t + 0.75, name)
            )
            record = cluster.finish_epoch(t + 0.75, down_finish)
            acting = cluster.acting_leader()
            controller = cluster.authority
            controller_up = (
                acting is not None
                and not acting.rebuilding
                and record is not None
            )
            if record is None:
                record = _idle_record(epoch, t, controller)
        else:
            controller_up = not (
                config.plan.controller_down(t + 0.25)
                or config.plan.controller_down(t + 0.75)
            )
            if controller_up:
                controller.step(t + 0.25)
            for agent in agents.values():
                agent.step(t + 0.5)
            if controller_up:
                record = controller.finish_epoch(t + 0.75)
            else:
                record = _idle_record(epoch, t, controller)
        record.sessions = len(sessions)
        record.messages_sent = bus.stats.sent - bus_sent_before
        record.bytes_sent = bus.stats.bytes_sent - bus_bytes_before

        # Ground-truth coverage over what agents actually *serve*:
        # degraded agents answer edge-only, not from their manifest.
        truth_units = build_units(modules, sessions, paths)
        live = {node for node, agent in agents.items() if agent.alive}
        served = _edge_manifests(agents, truth_units)
        summary = coverage_metrics(truth_units, served, live)
        record.coverage = summary.coverage
        record.min_unit_coverage = summary.min_unit_coverage
        record.orphaned_fraction = summary.orphaned_fraction
        registry.gauge(
            "epoch_coverage",
            "ground-truth volume-weighted coverage of the latest epoch",
        ).set(record.coverage)

        degraded = tuple(
            sorted(
                node for node, agent in agents.items()
                if agent.alive and agent.degraded
            )
        )
        if degraded and result.first_degraded_epoch is None:
            result.first_degraded_epoch = epoch

        # A transition window is any epoch where the configuration is
        # still propagating (push unacked) or a crashed node's ranges
        # have not yet been repaired away (including the detection gap
        # between the crash and the heartbeat timeout).
        failure_unrepaired = any(
            not agent.alive
            and controller.manifests.get(node) is not None
            and controller.manifests[node].entries
            for node, agent in agents.items()
        )
        record.in_transition = (not record.converged) or failure_unrepaired

        # The monitor excludes a wider window from the coverage-floor
        # check (docs/fault_model.md): on top of the transition window,
        # an expired agent the controller has not yet fenced, or an
        # outage epoch where
        # agents are (by design) serving lease-sanctioned *stale*
        # configuration — the controller cannot react to traffic drift
        # while down, and that bounded staleness is exactly what the
        # lease TTL prices in.  Once the leases expire, the whole plane
        # degrades atomically (absolute expiry) and the floor IS
        # asserted on every all-degraded outage epoch.
        fence_pending = any(
            node not in controller.fenced
            for node in degraded
        ) and controller_up
        mixed_versions = (
            len(
                {
                    (agent.applied_term, agent.applied_version)
                    for agent in agents.values()
                    if agent.alive and not agent.degraded
                }
            )
            > 1
        )
        stale_leased = (not controller_up) and any(
            agent.alive and not agent.degraded for agent in agents.values()
        )
        # A freshly promoted leader serves the configuration it rebuilt
        # from the epoch log — by construction pre-takeover — until its
        # first re-plan lands; that staleness is handoff transition.
        handoff_pending = cluster is not None and cluster.handoff_stale(epoch)
        excluded = (
            record.in_transition
            or fence_pending
            or mixed_versions
            or stale_leased
            or handoff_pending
        )

        baseline, uncovered = monitor.coverage_floor(
            epoch, sessions, agents, excluded
        )
        monitor.stale_leases(epoch, t + 0.5, agents)
        monitor.epoch_regression(epoch, agents)
        if cluster is not None:
            monitor.leader_uniqueness(epoch, cluster)
            acting = cluster.acting_leader()
            leader = acting.name if acting is not None else None
            term = acting.term if acting is not None else 0
            ha_settled = cluster.settled()
        else:
            leader = controller.config.name if controller_up else None
            term = 0
            ha_settled = True

        chaos_record = ChaosEpochRecord(
            record=record,
            degraded_nodes=degraded,
            controller_down=not controller_up,
            excluded=excluded,
            baseline_pairs=baseline,
            uncovered_pairs=uncovered,
            leader=leader,
            term=term,
            ha_settled=ha_settled,
        )
        result.records.append(chaos_record)

        if (
            result.reconverged_epoch is None
            and epoch >= config.plan.heal_time
            and record.converged
            and not degraded
            and not record.fenced_nodes
            and controller_up
            and ha_settled
            and record.coverage >= COVERAGE_FLOOR
        ):
            result.reconverged_epoch = epoch

        _track_crashes(
            result, epoch, record, controller, agents,
            pending_redistribution, pending_recovery,
        )

    heal_epoch = int(math.ceil(config.plan.heal_time))
    monitor.reconvergence(result.records, heal_epoch, config.reconverge_epochs)

    result.bus_stats = bus.stats
    result.controller_stats = controller.stats
    result.ha_summary = cluster.summary() if cluster is not None else None
    return result


def _idle_record(epoch: int, t: float, controller: Controller) -> EpochRecord:
    """The record of an epoch no controller closed: the last known
    failure, fencing, and convergence state, with nothing pushed."""
    record = EpochRecord(epoch=epoch, time=t)
    record.failed_nodes = tuple(sorted(controller.monitor.failed))
    record.fenced_nodes = tuple(sorted(controller.fenced))
    record.config_version = controller.version
    record.converged = not controller.unsynced_live_nodes()
    return record


def _track_crashes(
    result: ChaosResult,
    epoch: int,
    record: EpochRecord,
    controller: Controller,
    agents: Dict[str, Agent],
    pending_redistribution: Dict[str, Dict[Ident, Tuple[HashRange, ...]]],
    pending_recovery: Set[str],
) -> None:
    """Record when each crashed node was detected, had its ranges
    redistributed, and was reintegrated after its restart."""
    for node in list(pending_redistribution):
        if node in record.failed_nodes:
            result.detection_epoch.setdefault(node, epoch)
        if node not in result.detection_epoch:
            continue  # controller has not noticed yet
        repair = controller.last_repair
        skip: Set[Ident] = set()
        if repair is not None:
            skip = {ident for ident, _mass in repair.orphaned}
            result.orphaned_mass[node] = sum(
                mass for _ident, mass in repair.orphaned
            )
        if _ranges_reassigned(
            pending_redistribution[node], agents, node, skip
        ):
            result.redistribution_epoch[node] = epoch
            del pending_redistribution[node]

    for node in sorted(pending_recovery):
        if (
            agents[node].alive
            and node not in controller.monitor.failed
            and node not in controller.unsynced_live_nodes()
        ):
            result.reintegration_epoch[node] = epoch
            pending_recovery.discard(node)
