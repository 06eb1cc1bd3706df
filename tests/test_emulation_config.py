"""EmulationConfig, the run_emulation entry point, registry wiring, and
the api facade."""

import warnings

import pytest

from repro.core.nids_deployment import plan_deployment
from repro.nids.emulation import (
    Traffic,
    compare_deployments,
    run_emulation,
)
from repro.nids.engine import BroInstance, BroMode, EmulationConfig
from repro.nids.modules import STANDARD_MODULES, module_set
from repro.nids.resources import DEFAULT_COST_MODEL
from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def world():
    topology = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=11))
    sessions = generator.generate(700)
    modules = module_set(8)
    deployment = plan_deployment(topology, paths, modules, sessions)
    return generator, sessions, modules, deployment


class TestEmulationConfig:
    def test_defaults(self):
        config = EmulationConfig()
        assert config.mode is BroMode.COORD_EVENT
        assert config.cost_model is DEFAULT_COST_MODEL
        assert config.run_detectors is False
        assert config.fine_grained is False
        assert config.batch_engine is True
        assert config.registry is NULL_REGISTRY

    def test_frozen(self):
        with pytest.raises(Exception):
            EmulationConfig().run_detectors = True

    def test_instance_adopts_config(self):
        config = EmulationConfig(run_detectors=True, batch_engine=False)
        instance = BroInstance(
            node="NYCM",
            modules=STANDARD_MODULES[:2],
            mode=BroMode.UNMODIFIED,
            config=config,
        )
        assert instance.config is config
        assert instance.batch_engine is False
        assert instance.registry is NULL_REGISTRY


class TestRunEmulationEntryPoint:
    def test_run_emulation_does_not_warn(self, world):
        generator, sessions, modules, _ = world
        traffic = Traffic.materialized(generator, sessions)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_emulation(traffic, modules, config=EmulationConfig())

    def test_coordinated_rejects_unmodified_mode(self, world):
        generator, sessions, _, deployment = world
        traffic = Traffic.materialized(generator, sessions)
        with pytest.raises(ValueError):
            run_emulation(
                traffic,
                deployment,
                config=EmulationConfig(mode=BroMode.UNMODIFIED),
            )

    def test_explicit_registry_overrides_config(self, world):
        generator, sessions, modules, _ = world
        registry = MetricsRegistry()
        config = EmulationConfig()  # registry: NULL_REGISTRY
        traffic = Traffic.materialized(generator, sessions)
        run_emulation(traffic, modules, config=config, registry=registry)
        assert registry.get("emulate_edge_seconds").count() == 1
        # The caller's config object itself is untouched.
        assert config.registry is NULL_REGISTRY


class TestRegistryIntegration:
    def test_session_counts_match_profile_exactly(self, world):
        generator, sessions, _, deployment = world
        registry = MetricsRegistry()
        usage = run_emulation(
            Traffic.materialized(generator, sessions), deployment, registry=registry
        )
        counter = registry.get("dispatch_sessions_total")
        traces = generator.split_by_node(list(sessions), transit=True)
        assert set(usage.reports) == set(traces)
        for node, trace in traces.items():
            assert counter.value(node=node) == len(trace), node
        assert counter.total() == sum(len(t) for t in traces.values())
        # Throughput and timing series exist for every node that saw traffic.
        per_sec = registry.get("engine_sessions_per_second")
        for node, trace in traces.items():
            if trace:
                assert per_sec.value(node=node) > 0
        assert registry.get("emulate_coordinated_seconds").count() == 1

    def test_hash_cache_counters_propagate(self, world):
        generator, sessions, _, deployment = world
        registry = MetricsRegistry()
        run_emulation(
            Traffic.materialized(generator, sessions), deployment, registry=registry
        )
        batched = registry.get("hash_batch_computed_total")
        assert batched is not None and batched.total() > 0

    def test_null_registry_default_records_nothing(self, world):
        generator, sessions, _, deployment = world
        usage = run_emulation(Traffic.materialized(generator, sessions), deployment)
        assert usage.reports
        assert NULL_REGISTRY.metrics() == []

    def test_compare_deployments_shares_one_config(self, world):
        generator, sessions, _, deployment = world
        registry = MetricsRegistry()
        compare_deployments(
            deployment, generator, sessions, x=1.0, registry=registry
        )
        assert registry.get("emulate_edge_seconds").count() == 1
        assert registry.get("emulate_coordinated_seconds").count() == 1


class TestApiFacade:
    def test_lazy_attribute_access(self):
        import repro

        api = repro.api
        assert api is not None
        from repro import api as direct

        assert direct is api

    def test_all_names_resolve(self):
        from repro import api

        for name in api.__all__:
            assert hasattr(api, name), name

    def test_blessed_surface_covers_the_pipeline(self):
        from repro import api

        for name in (
            "plan_deployment",
            "run_emulation",
            "Traffic",
            "ExecutionPolicy",
            "EmulationConfig",
            "run_chaos",
            "standard_scenario",
            "scripted_violations",
            "MetricsRegistry",
            "use_registry",
            "MetricsSnapshotReport",
            "Report",
        ):
            assert name in api.__all__, name

    def test_facade_objects_are_the_canonical_ones(self):
        from repro import api
        from repro.control.chaos import run_chaos
        from repro.obs import MetricsRegistry as CanonicalRegistry

        assert api.run_chaos is run_chaos
        assert api.MetricsRegistry is CanonicalRegistry
        assert api.EmulationConfig is EmulationConfig
