"""Tests for the simulated Bro instance."""

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import full_manifest
from repro.nids.engine import BroInstance, BroMode, EmulationConfig
from repro.nids.modules import HTTP, SCAN, SIGNATURE, STANDARD_MODULES
from repro.nids.resources import CostModel, DEFAULT_COST_MODEL
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def trace():
    topo = internet2()
    generator = TrafficGenerator(
        topo, PathSet(topo), config=GeneratorConfig(seed=61)
    )
    return topo, generator.generate(1500)


def _standalone(topo, modules, mode, run_detectors=False):
    dispatcher = None
    if mode is not BroMode.UNMODIFIED:
        dispatcher = CoordinatedDispatcher(
            node="standalone",
            manifest=full_manifest("standalone"),
            modules=modules,
            resolver=UnitResolver(topo.node_names),
        )
    return BroInstance(
        node="standalone",
        modules=modules,
        mode=mode,
        dispatcher=dispatcher,
        config=EmulationConfig(run_detectors=run_detectors),
    )


class TestModes:
    def test_coordinated_requires_dispatcher(self, trace):
        with pytest.raises(ValueError):
            BroInstance("n", STANDARD_MODULES, BroMode.COORD_EVENT)

    def test_unmodified_tracks_everything(self, trace):
        topo, sessions = trace
        report = _standalone(topo, [SIGNATURE], BroMode.UNMODIFIED).process_sessions(
            sessions
        )
        assert report.tracked_connections == len(sessions)

    def test_full_manifest_coordinated_tracks_everything(self, trace):
        topo, sessions = trace
        report = _standalone(topo, [SIGNATURE], BroMode.COORD_EVENT).process_sessions(
            sessions
        )
        assert report.tracked_connections == len(sessions)


class TestOverheadOrdering:
    """Fig. 5's structural relations between the three variants."""

    def _cpu(self, topo, sessions, modules, mode):
        return _standalone(topo, modules, mode).process_sessions(sessions).cpu

    def test_coordination_always_costs_cpu(self, trace):
        topo, sessions = trace
        for modules in ([], [SIGNATURE], [HTTP], [SCAN]):
            unmod = self._cpu(topo, sessions, modules, BroMode.UNMODIFIED)
            policy = self._cpu(topo, sessions, modules, BroMode.COORD_POLICY)
            event = self._cpu(topo, sessions, modules, BroMode.COORD_EVENT)
            assert policy > unmod
            assert event > unmod

    def test_event_checks_cheaper_for_http(self, trace):
        """HTTP's check can be hoisted to the event engine; the hoisted
        variant must be cheaper than interpreted policy checks."""
        topo, sessions = trace
        policy = self._cpu(topo, sessions, [HTTP], BroMode.COORD_POLICY)
        event = self._cpu(topo, sessions, [HTTP], BroMode.COORD_EVENT)
        assert event < policy

    def test_scan_checks_cannot_be_hoisted(self, trace):
        """Scan consumes policy events in both variants; the two
        coordinated costs must be identical."""
        topo, sessions = trace
        policy = self._cpu(topo, sessions, [SCAN], BroMode.COORD_POLICY)
        event = self._cpu(topo, sessions, [SCAN], BroMode.COORD_EVENT)
        assert policy == pytest.approx(event, rel=1e-9)

    def test_signature_checks_identical(self, trace):
        """Signature's check occurs solely in the event engine in both
        variants (paper §2.4)."""
        topo, sessions = trace
        policy = self._cpu(topo, sessions, [SIGNATURE], BroMode.COORD_POLICY)
        event = self._cpu(topo, sessions, [SIGNATURE], BroMode.COORD_EVENT)
        assert policy == pytest.approx(event, rel=1e-9)

    def test_memory_overhead_from_hash_fields(self, trace):
        topo, sessions = trace
        unmod = _standalone(topo, [SIGNATURE], BroMode.UNMODIFIED).process_sessions(
            sessions
        )
        coord = _standalone(topo, [SIGNATURE], BroMode.COORD_EVENT).process_sessions(
            sessions
        )
        extra = coord.mem_bytes - unmod.mem_bytes
        expected = DEFAULT_COST_MODEL.hash_fields_bytes * len(sessions)
        assert extra == pytest.approx(expected)


class TestDetectors:
    def test_standalone_alerts_deterministic(self, trace):
        topo, sessions = trace
        a = _standalone(topo, STANDARD_MODULES, BroMode.UNMODIFIED, run_detectors=True)
        b = _standalone(topo, STANDARD_MODULES, BroMode.UNMODIFIED, run_detectors=True)
        ra = a.process_sessions(sessions)
        rb = b.process_sessions(sessions)
        assert {x.key() for x in ra.alerts} == {x.key() for x in rb.alerts}

    def test_malicious_sessions_produce_alerts(self, trace):
        topo, sessions = trace
        instance = _standalone(
            topo, STANDARD_MODULES, BroMode.UNMODIFIED, run_detectors=True
        )
        report = instance.process_sessions(sessions)
        modules_with_alerts = {alert.module for alert in report.alerts}
        assert "signature" in modules_with_alerts
        assert "scan" in modules_with_alerts

    def test_module_cpu_breakdown_sums(self, trace):
        topo, sessions = trace
        report = _standalone(topo, STANDARD_MODULES, BroMode.UNMODIFIED).process_sessions(
            sessions
        )
        module_total = sum(report.module_cpu.values())
        assert 0 < module_total < report.cpu

    def test_module_items_counted(self, trace):
        topo, sessions = trace
        report = _standalone(topo, STANDARD_MODULES, BroMode.UNMODIFIED).process_sessions(
            sessions
        )
        assert report.module_items["signature"] == len(sessions)
        distinct_sources = len({s.tuple.src for s in sessions})
        assert report.module_items["scan"] == distinct_sources


class TestCostModelInjection:
    def test_custom_cost_model_scales_cpu(self, trace):
        topo, sessions = trace
        cheap = CostModel(capture_cost=0.0, base_conn_packet_cost=0.5)
        default_report = _standalone(topo, [], BroMode.UNMODIFIED).process_sessions(
            sessions
        )
        instance = BroInstance(
            "standalone", [], BroMode.UNMODIFIED,
            config=EmulationConfig(cost_model=cheap),
        )
        cheap_report = instance.process_sessions(sessions)
        assert cheap_report.cpu < default_report.cpu
