"""Vectorized engine fast path: bit-identical to the scalar cost model.

The batch engine (``EmulationConfig(batch_engine=True)`` /
``BroInstance.process_sessions_batch``) is an optimization with an
exactness contract: every test here asserts *exact* report equality
with the scalar per-session loop — same tracking levels, same
coordination-check charges, bit-identical CPU floats (both paths fold
identical per-session subtotals into an exact accumulator), identical
item counts and alerts.
"""

import dataclasses

import pytest

from repro.core.dispatch import CoordinatedDispatcher, UnitResolver
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.nids.engine import BroInstance, BroMode, EmulationConfig
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, SessionBatch, TrafficGenerator

SCALAR = EmulationConfig(batch_engine=False)
BATCH = EmulationConfig(batch_engine=True)


@pytest.fixture(scope="module")
def network():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=23))
    sessions = generator.generate(4000)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    traces = generator.split_by_node(sessions, transit=True)
    return topo, traces, sessions, deployment


def _standalone(topo, mode, config):
    dispatcher = None
    if mode is not BroMode.UNMODIFIED:
        dispatcher = CoordinatedDispatcher(
            node="standalone",
            manifest=full_manifest("standalone"),
            modules=STANDARD_MODULES,
            resolver=UnitResolver(topo.node_names),
        )
    return BroInstance(
        node="standalone",
        modules=STANDARD_MODULES,
        mode=mode,
        dispatcher=dispatcher,
        config=config,
    )


class TestBitIdentity:
    def test_bit_identical_at_100k_sessions(self):
        """The headline parity guarantee: scalar and batch reports are
        *equal* (not approximately equal) at 100k+ sessions, where any
        summation-order drift would have accumulated."""
        topo = internet2()
        generator = TrafficGenerator(
            topo, PathSet(topo), config=GeneratorConfig(seed=97)
        )
        sessions = generator.generate(100_000)
        scalar = _standalone(topo, BroMode.COORD_EVENT, SCALAR)
        batch = _standalone(topo, BroMode.COORD_EVENT, BATCH)
        scalar_report = scalar.process_sessions(sessions)
        batch_report = batch.process_sessions_batch(sessions)
        assert scalar_report == batch_report
        # Explicitly: the floats are bit-identical, not approx-equal.
        assert scalar_report.cpu.hex() == batch_report.cpu.hex()
        assert scalar_report.mem_bytes.hex() == batch_report.mem_bytes.hex()
        for name, cpu in scalar_report.module_cpu.items():
            assert cpu.hex() == batch_report.module_cpu[name].hex()

    @pytest.mark.parametrize(
        "mode", [BroMode.UNMODIFIED, BroMode.COORD_POLICY, BroMode.COORD_EVENT]
    )
    @pytest.mark.parametrize("fine_grained", [False, True])
    def test_all_modes_and_tracking_levels(self, network, mode, fine_grained):
        """Every Fig. 4 variant, with and without §2.5 fine-grained
        tracking (which exercises NONE/LIGHT/FULL levels)."""
        topo, traces, _, deployment = network
        scalar_cfg = dataclasses.replace(SCALAR, fine_grained=fine_grained)
        batch_cfg = dataclasses.replace(BATCH, fine_grained=fine_grained)
        for node in topo.node_names[:3]:
            dispatcher = (
                None if mode is BroMode.UNMODIFIED else deployment.dispatcher(node)
            )
            trace = traces[node]
            scalar = BroInstance(
                node, STANDARD_MODULES, mode, dispatcher, config=scalar_cfg
            ).process_sessions(trace)
            batch = BroInstance(
                node, STANDARD_MODULES, mode, dispatcher, config=batch_cfg
            ).process_sessions_batch(trace)
            assert scalar == batch

    def test_detectors_equivalent(self, network):
        """Behavioural detectors see the same sessions in the same
        order on both paths, so alerts match exactly."""
        topo, traces, _, deployment = network
        node = topo.node_names[1]
        scalar_cfg = dataclasses.replace(SCALAR, run_detectors=True)
        batch_cfg = dataclasses.replace(BATCH, run_detectors=True)
        trace = traces[node]
        scalar = BroInstance(
            node, STANDARD_MODULES, BroMode.COORD_EVENT,
            deployment.dispatcher(node), config=scalar_cfg,
        ).process_sessions(trace)
        batch = BroInstance(
            node, STANDARD_MODULES, BroMode.COORD_EVENT,
            deployment.dispatcher(node), config=batch_cfg,
        ).process_sessions_batch(trace)
        assert scalar.alerts == batch.alerts
        assert scalar == batch


class TestRouting:
    def test_default_config_routes_through_batch(self, network):
        """``process_sessions`` under the default config must equal the
        forced-scalar run (the fast path is transparent)."""
        topo, _, sessions, _ = network
        default = _standalone(topo, BroMode.COORD_EVENT, EmulationConfig())
        scalar = _standalone(topo, BroMode.COORD_EVENT, SCALAR)
        assert default.process_sessions(sessions[:2000]) == scalar.process_sessions(
            sessions[:2000]
        )

    def test_single_session_and_empty_trace(self, network):
        topo, _, sessions, _ = network
        for trace in ([], sessions[:1]):
            batch = _standalone(topo, BroMode.COORD_EVENT, BATCH)
            scalar = _standalone(topo, BroMode.COORD_EVENT, SCALAR)
            assert batch.process_sessions(trace) == scalar.process_sessions(trace)
            explicit = _standalone(topo, BroMode.COORD_EVENT, BATCH)
            assert explicit.process_sessions_batch(trace) == scalar.process_sessions(
                trace
            )

    def test_prebuilt_session_batch_accepted(self, network):
        """A SessionBatch built by the caller is used as-is."""
        topo, _, sessions, _ = network
        trace = sessions[:1500]
        from_list = _standalone(topo, BroMode.COORD_EVENT, BATCH).process_sessions(
            trace
        )
        from_batch = _standalone(topo, BroMode.COORD_EVENT, BATCH).process_sessions(
            SessionBatch(trace)
        )
        assert from_list == from_batch
