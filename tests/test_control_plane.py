"""Coordination-plane tests: bus, agents, controller, scenarios.

The §5 dynamics discussion promises an operations center that
"periodically configures the NIDS responsibilities of the different
nodes" from NetFlow-style reports.  These tests exercise the runtime
that keeps that promise under realistic distribution conditions:
message latency/loss/reordering, epoch-versioned delta pushes,
heartbeat-driven failure detection, targeted redistribution, and
recovery/reintegration.
"""

import pytest

from repro.control.agent import Agent, AgentConfig
from repro.control.bus import Bus, BusConfig
from repro.control.epochs import (
    merge_reports,
    stabilize_manifests,
    union_length,
)
from repro.control.failure import HeartbeatMonitor
from repro.control.chaos import FaultEvent, run_chaos
from repro.control.scenarios import (
    scripted_config,
    scripted_violations,
    standard_scenario,
)
from repro.core.manifest import NodeManifest
from repro.core.manifest_io import manifest_diff, manifest_to_dict
from repro.hashing.ranges import HashRange
from repro.measurement.flows import TrafficReport


class TestBus:
    def test_delivers_after_latency(self):
        bus = Bus(BusConfig(latency=0.5))
        bus.send("a", "b", "k", {"x": 1}, 10, now=0.0)
        assert bus.deliver("b", 0.4) == []
        [message] = bus.deliver("b", 0.6)
        assert message.payload == {"x": 1}
        assert bus.deliver("b", 0.7) == []  # consumed

    def test_deliver_filters_by_destination(self):
        bus = Bus(BusConfig(latency=0.0))
        bus.send("a", "b", "k", 1, 1, now=0.0)
        bus.send("a", "c", "k", 2, 1, now=0.0)
        assert [m.payload for m in bus.deliver("b", 1.0)] == [1]
        assert bus.pending() == 1

    def test_loss_still_counts_sent_bytes(self):
        bus = Bus(BusConfig(latency=0.0, loss_rate=0.6, seed=5))
        for i in range(200):
            bus.send("a", "b", "k", i, 7, now=0.0)
        assert bus.stats.sent == 200
        assert bus.stats.bytes_sent == 1400
        assert 0 < bus.stats.dropped < 200
        delivered = bus.deliver("b", 1.0)
        assert len(delivered) == 200 - bus.stats.dropped

    def test_jitter_reorders(self):
        bus = Bus(BusConfig(latency=0.1, jitter=0.5, seed=2))
        for i in range(30):
            bus.send("a", "b", "k", i, 1, now=float(i) * 0.01)
        order = [m.payload for m in bus.deliver("b", 10.0)]
        assert sorted(order) == list(range(30))
        assert order != list(range(30))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BusConfig(latency=-1.0)
        with pytest.raises(ValueError):
            BusConfig(loss_rate=1.0)


class TestHeartbeatMonitor:
    def test_sweep_marks_silent_nodes(self):
        monitor = HeartbeatMonitor(["a", "b"], timeout=2.0, now=0.0)
        monitor.beat("a", 1.0)
        assert monitor.sweep(2.5) == ["b"]
        assert not monitor.alive("b")
        assert monitor.alive("a")

    def test_beat_recovers(self):
        monitor = HeartbeatMonitor(["a"], timeout=1.0, now=0.0)
        monitor.sweep(5.0)
        assert not monitor.alive("a")
        assert monitor.beat("a", 6.0) is True
        assert monitor.alive("a")
        assert monitor.beat("a", 7.0) is False  # already live

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            HeartbeatMonitor(["a"], timeout=0.0)


def _manifest(node, lo, hi):
    return NodeManifest(
        node=node, entries={("c", ("k",)): (HashRange(lo, hi),)}
    )


def _full_push(version, manifest):
    return {
        "version": version,
        "mode": "full",
        "base": None,
        "data": manifest_to_dict(manifest),
    }


def _delta_push(version, base_version, old, new):
    return {
        "version": version,
        "mode": "delta",
        "base": base_version,
        "data": manifest_diff(old, new),
    }


class TestAgent:
    def _agent(self):
        bus = Bus(BusConfig(latency=0.0))
        return Agent("n1", bus, config=AgentConfig(transition_window=2.0)), bus

    def _acks(self, bus):
        return [m.payload for m in bus.deliver("controller", 100.0)
                if m.kind == "ack"]

    def test_applies_full_then_delta(self):
        agent, bus = self._agent()
        m0, m1 = _manifest("n1", 0.0, 0.5), _manifest("n1", 0.0, 0.7)
        bus.send("controller", "n1", "manifest-update", _full_push(0, m0), 1, 0.0)
        agent.step(0.1)
        assert agent.applied_version == 0
        bus.send(
            "controller", "n1", "manifest-update", _delta_push(1, 0, m0, m1), 1, 1.0
        )
        agent.step(1.1)
        assert agent.applied_version == 1
        assert agent.manifest.entries == m1.entries
        statuses = [a["status"] for a in self._acks(bus)]
        assert statuses == ["applied", "applied"]

    def test_duplicate_update_reacked_not_reapplied(self):
        agent, bus = self._agent()
        m0 = _manifest("n1", 0.0, 0.5)
        for t in (0.0, 1.0):
            bus.send(
                "controller", "n1", "manifest-update", _full_push(0, m0), 1, t
            )
            agent.step(t + 0.1)
        assert agent.stats.updates_applied == 1
        assert agent.stats.duplicates_ignored == 1
        assert [a["status"] for a in self._acks(bus)] == ["applied", "duplicate"]

    def test_delta_against_unknown_base_requests_resync(self):
        agent, bus = self._agent()
        m0, m1 = _manifest("n1", 0.0, 0.5), _manifest("n1", 0.0, 0.7)
        # Version-1 delta arrives but version 0 (its base) was lost.
        bus.send(
            "controller", "n1", "manifest-update", _delta_push(1, 0, m0, m1), 1, 0.0
        )
        agent.step(0.1)
        assert agent.applied_version == -1
        [ack] = self._acks(bus)
        assert ack["status"] == "resync"

    def test_dual_manifest_transition_window(self):
        agent, bus = self._agent()
        old, new = _manifest("n1", 0.0, 0.5), _manifest("n1", 0.5, 1.0)
        bus.send("controller", "n1", "manifest-update", _full_push(0, old), 1, 0.0)
        agent.step(0.1)
        assert not agent.in_transition  # first manifest: nothing to retire
        bus.send("controller", "n1", "manifest-update", _full_push(1, new), 1, 1.0)
        agent.step(1.1)
        assert agent.in_transition
        # New connections follow the new manifest only.
        assert agent.responsible_for_new("c", ("k",), 0.75)
        assert not agent.responsible_for_new("c", ("k",), 0.25)
        # Existing connections are answered by old OR new (§5).
        assert agent.responsible_for_existing("c", ("k",), 0.25)
        assert agent.responsible_for_existing("c", ("k",), 0.75)
        agent.step(3.2)  # window (2.0) expired
        assert not agent.in_transition
        assert not agent.responsible_for_existing("c", ("k",), 0.25)

    def test_crash_discards_inbox_and_recovery_is_cold(self):
        agent, bus = self._agent()
        m0 = _manifest("n1", 0.0, 0.5)
        bus.send("controller", "n1", "manifest-update", _full_push(0, m0), 1, 0.0)
        agent.step(0.1)
        assert [a["status"] for a in self._acks(bus)] == ["applied"]
        agent.crash()
        bus.send(
            "controller",
            "n1",
            "manifest-update",
            _full_push(1, _manifest("n1", 0.0, 1.0)),
            1,
            1.0,
        )
        agent.step(1.1)  # dead: drains and discards, acks nothing
        assert self._acks(bus) == []
        assert not agent.responsible_for_new("c", ("k",), 0.25)
        agent.recover()
        assert agent.applied_version == -1
        assert agent.manifest.entries == {}


class TestEpochHelpers:
    def test_union_length_merges_overlaps(self):
        ranges = [
            HashRange(0.0, 0.4),
            HashRange(0.3, 0.5),
            HashRange(0.7, 0.9),
        ]
        assert union_length(ranges) == pytest.approx(0.7)

    def test_merge_reports_sums_pairs(self):
        a = TrafficReport(interval_seconds=1.0, sampling_rate=1.0)
        a.pair_flows[("x", "y")] = 2.0
        a.pair_packets[("x", "y")] = 20.0
        b = TrafficReport(interval_seconds=1.0, sampling_rate=1.0)
        b.pair_flows[("x", "y")] = 3.0
        b.pair_flows[("y", "z")] = 1.0
        b.pair_packets[("x", "y")] = 30.0
        merged = merge_reports([a, b])
        assert merged.pair_flows == {("x", "y"): 5.0, ("y", "z"): 1.0}
        assert merged.pair_packets[("x", "y")] == 50.0
        with pytest.raises(ValueError):
            merge_reports([])

    def test_stabilize_keeps_sub_tolerance_moves(self):
        ident = ("c", ("k",))
        previous = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.5),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.5, 1.0),)}),
        }
        proposed = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.51),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.51, 1.0),)}),
        }
        stabilized, changed = stabilize_manifests(previous, proposed, 0.02)
        assert changed == set()
        assert stabilized["a"].entries[ident] == (HashRange(0.0, 0.5),)
        assert stabilized["b"].entries[ident] == (HashRange(0.5, 1.0),)

    def test_stabilize_adopts_material_moves(self):
        ident = ("c", ("k",))
        previous = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.5),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.5, 1.0),)}),
        }
        proposed = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.8),)}),
            "b": NodeManifest(node="b", entries={ident: (HashRange(0.8, 1.0),)}),
        }
        stabilized, changed = stabilize_manifests(previous, proposed, 0.02)
        assert changed == {ident}
        assert stabilized["a"].entries[ident] == (HashRange(0.0, 0.8),)

    def test_stabilize_respects_allowed_holders(self):
        """Previous ranges must not resurrect a now-forbidden node."""
        ident = ("c", ("k",))
        previous = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 1.0),)}),
        }
        proposed = {
            "a": NodeManifest(node="a", entries={ident: (HashRange(0.0, 0.999),)}),
        }
        stabilized, changed = stabilize_manifests(
            previous, proposed, 0.02, allowed={ident: {"b"}}
        )
        assert changed == {ident}
        assert stabilized["a"].entries[ident] == (HashRange(0.0, 0.999),)


@pytest.fixture(scope="module")
def steady_result():
    return run_chaos(scripted_config(epochs=10, base_sessions=400, seed=11))


@pytest.fixture(scope="module")
def standard_result():
    return run_chaos(
        standard_scenario(
            shift_epoch=3,
            fail_epoch=5,
            recover_epoch=9,
            epochs=13,
            base_sessions=400,
            seed=11,
        )
    )


class TestSteadyScenario:
    def test_every_epoch_converges_with_full_coverage(self, steady_result):
        for record in steady_result.epoch_records:
            assert record.converged
            assert not record.in_transition
            assert record.coverage >= 0.99

    def test_bootstrap_then_delta_distribution(self, steady_result):
        records = steady_result.epoch_records
        assert records[0].resolved == "bootstrap"
        assert records[0].pushes_full > 0
        later = [r for r in records[1:] if r.push_bytes > 0]
        # Whatever is re-pushed after bootstrap rides deltas and
        # undercuts full-manifest distribution.
        for record in later:
            assert record.pushes_full == 0
            assert record.push_bytes < record.full_equivalent_bytes

    def test_periodic_resolves_happen(self, steady_result):
        reasons = [r.resolved for r in steady_result.epoch_records]
        assert "periodic" in reasons


class TestFailureScenario:
    def test_heartbeat_timeout_detects_crash(self, standard_result):
        # Crash at epoch 5: last heartbeat reached the controller at
        # t=4.25ish, so the 2.2-epoch timeout trips at the epoch-7 sweep.
        assert standard_result.detection_epoch == {"NYCM": 7}
        detected = {
            r.epoch for r in standard_result.epoch_records if r.failed_nodes
        }
        assert min(detected) == 7

    def test_ranges_redistributed_within_deadline(self, standard_result):
        detected = standard_result.detection_epoch["NYCM"]
        redistributed = standard_result.redistribution_epoch["NYCM"]
        assert redistributed - detected <= 2

    def test_detection_gap_counts_as_transition(self, standard_result):
        """Between the crash and the repair the dead node's ranges are
        uncovered — those epochs must be flagged as transition, not
        count against steady-state coverage."""
        by_epoch = {r.epoch: r for r in standard_result.epoch_records}
        assert by_epoch[5].in_transition
        assert by_epoch[6].in_transition

    def test_recovery_reintegrates(self, standard_result):
        assert standard_result.reintegration_epoch["NYCM"] >= 9
        final = standard_result.epoch_records[-1]
        assert final.failed_nodes == ()
        assert final.converged
        assert final.coverage >= 0.99

    def test_acceptance_criteria_hold(self, standard_result):
        assert standard_result.check_acceptance() == []
        assert scripted_violations(standard_result) == []

    def test_repair_is_delta_sized(self, standard_result):
        [failure] = [
            r for r in standard_result.epoch_records if r.resolved == "failure"
        ]
        assert failure.pushes_full == 0
        assert failure.pushes_delta > 0
        assert failure.push_bytes < failure.full_equivalent_bytes
        assert failure.unchanged_entry_fraction >= 0.5


class TestLossyBus:
    def test_retries_converge_under_loss(self):
        result = run_chaos(
            scripted_config(
                epochs=10,
                base_sessions=300,
                seed=3,
                loss_rate=0.3,
                # Tolerate consecutive lost heartbeats without false
                # failure declarations, and disable periodic re-solves
                # so the run isolates retry-driven convergence of one
                # configuration (a resolve in the final epoch would
                # have no time left to retry a lost push).
                heartbeat_timeout=4.5,
                resolve_every=0,
            )
        )
        assert result.controller_stats.retries > 0
        assert result.bus_stats.dropped > 0
        final = result.epoch_records[-1]
        assert final.converged
        assert final.coverage >= 0.99

    def test_loss_free_run_never_retries(self, steady_result):
        assert steady_result.controller_stats.retries == 0


class TestScenarioEvents:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="explode", start=1.0, end=2.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", start=1.0, end=2.0)
        with pytest.raises(ValueError):
            FaultEvent(kind="shift", start=1.0, end=2.0, profile="nope")

    def test_traffic_shift_triggers_resolve(self, standard_result):
        shifted = standard_result.epoch_records[3]
        assert shifted.resolved in ("drift", "periodic")
        assert shifted.config_version >= 1
