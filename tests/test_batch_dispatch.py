"""Batch dispatch fast path: identical to the scalar Fig. 3 path.

The vectorized dispatch (``CoordinatedDispatcher.batch_decisions``,
which the default engine consumes) is an optimization, not a semantic
change: every test here asserts *exact* equality with the per-session
scalar procedure — same matched modules, identical analyze verdicts,
identical emulation reports against the scalar engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.control.agent import Agent
from repro.control.bus import Bus
from repro.core.dispatch import CoordinatedDispatcher
from repro.core.manifest import full_manifest
from repro.core.nids_deployment import plan_deployment
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import EmulationConfig
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from repro.traffic.batch import SessionBatch


@pytest.fixture(scope="module")
def deployment_setup():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=51))
    sessions = generator.generate(2000)
    deployment = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    return topo, generator, sessions, deployment


class TestDispatcherEquivalence:
    def test_batch_decisions_match_decide_session(self, deployment_setup):
        """batch_decisions agrees with decide_session on every node of
        the deployment: the same modules match, and the same ones
        analyze."""
        topo, _, sessions, deployment = deployment_setup
        for node in topo.node_names:
            dispatcher = deployment.dispatcher(node)
            decisions = dispatcher.batch_decisions(SessionBatch(sessions[:400]))
            for i, session in enumerate(sessions[:400]):
                scalar = {d.module.name: d.analyze for d in dispatcher.decide_session(session)}
                matched = {d.spec.name for d in decisions if d.match[i]}
                assert matched == set(scalar)
                for decision in decisions:
                    if decision.match[i]:
                        assert decision.analyze[i] == scalar[decision.spec.name]
                    else:
                        assert not decision.analyze[i]

    def test_batch_decisions_match_should_analyze(self, deployment_setup):
        topo, _, sessions, deployment = deployment_setup
        for node in topo.node_names[:4]:
            dispatcher = deployment.dispatcher(node)
            decisions = dispatcher.batch_decisions(SessionBatch(sessions[:500]))
            for i, session in enumerate(sessions[:500]):
                sampled = [d.spec for d in decisions if d.analyze[i]]
                expected = [
                    spec
                    for spec in deployment.modules
                    if dispatcher.should_analyze(spec, session)
                ]
                assert sampled == expected

    def test_batch_with_cold_cache_matches_warm(self, deployment_setup):
        """A dispatcher with a private empty cache batches identically
        to one sharing the deployment-wide warm cache."""
        topo, _, sessions, deployment = deployment_setup
        node = topo.node_names[2]
        warm = deployment.dispatcher(node)
        cold = CoordinatedDispatcher(
            node=node,
            manifest=deployment.manifests[node],
            modules=deployment.modules,
            resolver=deployment.resolver,
            hash_seed=deployment.hash_seed,
        )
        batch = SessionBatch(sessions[:300])
        for a, b in zip(warm.batch_decisions(batch), cold.batch_decisions(batch)):
            assert a.spec is b.spec
            assert np.array_equal(a.match, b.match)
            assert np.array_equal(a.analyze, b.analyze)
            assert np.array_equal(a.responsible, b.responsible)

    def test_empty_and_singleton_batches(self, deployment_setup):
        topo, _, sessions, deployment = deployment_setup
        dispatcher = deployment.dispatcher(topo.node_names[0])
        for decision in dispatcher.batch_decisions(SessionBatch([])):
            assert len(decision.match) == len(decision.analyze) == 0
            assert len(decision.responsible) == 0
        single = dispatcher.batch_decisions(SessionBatch(sessions[:1]))
        scalar = {d.module.name: d.analyze for d in dispatcher.decide_session(sessions[0])}
        assert {d.spec.name for d in single if d.match[0]} == set(scalar)
        for decision in single:
            assert bool(decision.analyze[0]) == scalar.get(decision.spec.name, False)

    def test_full_manifest_batch_analyzes_all_matched(self, deployment_setup):
        _, _, sessions, deployment = deployment_setup
        dispatcher = CoordinatedDispatcher(
            node="STTL",
            manifest=full_manifest("STTL"),
            modules=STANDARD_MODULES,
            resolver=deployment.resolver,
        )
        for decision in dispatcher.batch_decisions(SessionBatch(sessions[:200])):
            assert np.array_equal(decision.analyze, decision.match)


class TestEmulationEquivalence:
    def test_batch_emulation_report_identical_to_scalar(self, deployment_setup):
        """Coordinated emulation on the vectorized engine produces the
        exact report of the scalar oracle: same CPU, memory, connection
        counts, per-module loads — on every node."""
        topo, generator, sessions, deployment = deployment_setup
        # Fresh private hash caches so neither run warms the other.
        dep_a = dataclasses.replace(deployment, _shared_hash_cache={})
        dep_b = dataclasses.replace(deployment, _shared_hash_cache={})
        traffic = Traffic.materialized(generator, sessions)
        scalar = run_emulation(
            traffic, dep_a, config=EmulationConfig(batch_engine=False)
        )
        batch = run_emulation(traffic, dep_b, config=EmulationConfig())
        assert set(scalar.reports) == set(batch.reports)
        for node in scalar.reports:
            a, b = scalar.reports[node], batch.reports[node]
            assert a.cpu == b.cpu
            assert a.mem_bytes == b.mem_bytes
            assert a.tracked_connections == b.tracked_connections
            assert a.module_cpu == b.module_cpu
            assert a.module_items == b.module_items


class TestAgentBatchQueries:
    def test_batch_queries_match_scalar(self, deployment_setup):
        topo, _, sessions, deployment = deployment_setup
        node = topo.node_names[1]
        agent = Agent(node=node, bus=Bus())
        agent.manifest = deployment.manifests[node]
        hashes = np.linspace(0.0, 1.0 - 2.0**-32, 257)
        entry_keys = list(deployment.manifests[node].entries)
        assert entry_keys, "node holds no manifest entries"
        for class_name, key in entry_keys[:5]:
            new_batch = agent.responsible_for_new_batch(class_name, key, hashes)
            existing_batch = agent.responsible_for_existing_batch(
                class_name, key, hashes
            )
            for value, got_new, got_existing in zip(
                hashes, new_batch, existing_batch
            ):
                assert got_new == agent.responsible_for_new(class_name, key, value)
                assert got_existing == agent.responsible_for_existing(
                    class_name, key, value
                )

    def test_batch_queries_during_transition_window(self, deployment_setup):
        """During the dual-manifest window the existing-connection query
        is the union of the current and retiring manifests."""
        topo, _, _, deployment = deployment_setup
        node = topo.node_names[1]
        agent = Agent(node=node, bus=Bus())
        agent.manifest = deployment.manifests[node]
        agent.retiring = (full_manifest(node), 10.0)
        class_name, key = next(iter(deployment.manifests[node].entries))
        hashes = np.linspace(0.0, 0.999, 101)
        existing = agent.responsible_for_existing_batch(class_name, key, hashes)
        assert existing.all()  # retiring full manifest claims everything
        new = agent.responsible_for_new_batch(class_name, key, hashes)
        expected_new = [
            agent.responsible_for_new(class_name, key, v) for v in hashes
        ]
        assert new.tolist() == expected_new

    def test_dead_agent_batch_claims_nothing(self, deployment_setup):
        topo, _, _, deployment = deployment_setup
        node = topo.node_names[1]
        agent = Agent(node=node, bus=Bus())
        agent.manifest = deployment.manifests[node]
        agent.crash()
        class_name, key = next(iter(deployment.manifests[node].entries))
        hashes = np.array([0.1, 0.5, 0.9])
        assert not agent.responsible_for_new_batch(class_name, key, hashes).any()
        assert not agent.responsible_for_existing_batch(
            class_name, key, hashes
        ).any()
