"""Property-based fuzzing of the optimization pipelines.

Hypothesis drives randomized instances through the full NIDS and NIPS
pipelines, asserting the invariants DESIGN.md §6 lists.  Example counts
are modest because each example is an LP solve.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.manifest import generate_manifests, verify_manifests
from repro.core.nids_lp import solve_nids_lp
from repro.core.nips_milp import build_nips_problem, solve_relaxation
from repro.core.rounding import RoundingVariant, rounded_deployment
from repro.core.units import CoordinationUnit, build_units
from repro.nids.modules import STANDARD_MODULES
from repro.nips.rules import MatchRateMatrix, unit_rules
from repro.topology import PathSet, internet2, random_pop_topology
from repro.traffic import GeneratorConfig, TrafficGenerator

_FUZZ_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=3, max_value=9),
    num_units=st.integers(min_value=1, max_value=25),
)
@settings(**_FUZZ_SETTINGS)
def test_fuzz_nids_lp_and_manifests(seed, num_nodes, num_units):
    """Random unit collections: the LP always covers, loads match the
    objective, and manifests verify."""
    rng = random.Random(seed)
    topology = random_pop_topology(num_nodes, seed=seed).set_uniform_capacities(
        cpu=rng.uniform(0.5, 2.0), mem=rng.uniform(0.5, 2.0)
    )
    names = topology.node_names
    units = []
    for index in range(num_units):
        eligible = tuple(
            rng.sample(names, rng.randint(1, min(4, len(names))))
        )
        items = rng.uniform(1, 500)
        units.append(
            CoordinationUnit(
                class_name=f"c{index % 3}",
                key=(f"u{index}",),
                eligible=eligible,
                pkts=rng.uniform(1, 5_000),
                items=items,
                cpu_work=rng.uniform(0, 2_000),
                mem_bytes=items * rng.uniform(10, 500),
            )
        )
    assignment = solve_nids_lp(units, topology)
    # Coverage invariant.
    for unit in units:
        total = sum(
            assignment.fraction(unit.class_name, unit.key, node)
            for node in unit.eligible
        )
        assert total == pytest.approx(1.0, abs=1e-6)
    # Objective is the max load.
    assert assignment.objective == pytest.approx(
        max(assignment.max_cpu_load, assignment.max_mem_load), rel=1e-5, abs=1e-8
    )
    # Manifests verify.
    manifests = generate_manifests(units, assignment, names)
    verify_manifests(units, manifests)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_rules=st.integers(min_value=2, max_value=8),
    cam=st.floats(min_value=1.0, max_value=4.0),
    variant=st.sampled_from(list(RoundingVariant)),
)
@settings(**_FUZZ_SETTINGS)
def test_fuzz_nips_rounding_always_feasible(seed, num_rules, cam, variant):
    """Random NIPS instances: every rounding variant yields a feasible
    deployment bounded by OptLP."""
    rng = random.Random(seed)
    topology = random_pop_topology(
        rng.randint(4, 7), seed=seed
    ).set_uniform_capacities(
        cpu=rng.uniform(1e5, 1e6), mem=rng.uniform(2e4, 2e5), cam=cam
    )
    rules = unit_rules(num_rules)
    pairs = [
        (a, b) for a in topology.node_names for b in topology.node_names if a != b
    ]
    match = MatchRateMatrix.uniform(rules, pairs, rng)
    problem = build_nips_problem(
        topology, rules, match, total_flows=3e5, total_packets=1.5e6
    )
    relaxed = solve_relaxation(problem)
    result = rounded_deployment(problem, variant, random.Random(seed + 1), relaxed=relaxed)
    # rounded_deployment raises on infeasibility internally; re-check.
    assert problem.check_feasible(result.solution.e, result.solution.d) == []
    assert result.solution.objective <= relaxed.objective + 1e-6


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=3, max_value=7),
    fine_grained=st.booleans(),
    mode_name=st.sampled_from(["coord-event", "coord-policy", "unmodified"]),
)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_scalar_vs_batch_engine_decisions(seed, num_nodes, fine_grained, mode_name):
    """Random deployments: the vectorized engine agrees with the scalar
    one per (module, session) — match, Fig. 3 sampling, responsibility
    — and the full reports are bit-identical across tracking levels."""
    import dataclasses

    from repro.core.nids_deployment import plan_deployment
    from repro.nids.engine import BroInstance, BroMode, EmulationConfig
    from repro.traffic import SessionBatch

    mode = BroMode(mode_name)
    topology = random_pop_topology(num_nodes, seed=seed).set_uniform_capacities(
        cpu=1.0, mem=1.0
    )
    paths = PathSet(topology)
    generator = TrafficGenerator(topology, paths, config=GeneratorConfig(seed=seed))
    sessions = generator.generate(300)
    deployment = plan_deployment(topology, paths, STANDARD_MODULES, sessions)
    node = topology.node_names[seed % num_nodes]
    trace = generator.split_by_node(sessions, transit=True)[node]
    dispatcher = None if mode is BroMode.UNMODIFIED else deployment.dispatcher(node)
    config = EmulationConfig(fine_grained=fine_grained)
    scalar_instance = BroInstance(
        node, STANDARD_MODULES, mode, dispatcher,
        config=dataclasses.replace(config, batch_engine=False),
    )
    batch_instance = BroInstance(
        node, STANDARD_MODULES, mode, dispatcher, config=config
    )
    if dispatcher is not None and trace:
        decisions = dispatcher.batch_decisions(SessionBatch(trace))
        for spec, decision in zip(STANDARD_MODULES, decisions):
            for index, session in enumerate(trace):
                assert bool(decision.match[index]) == spec.traffic_filter.matches_session(
                    session
                )
                assert bool(decision.analyze[index]) == scalar_instance._sampled(
                    spec, session
                )
                assert bool(decision.responsible[index]) == scalar_instance._responsible(
                    spec, session
                )
    assert scalar_instance.process_sessions(trace) == batch_instance.process_sessions_batch(
        trace
    )


@given(
    lo=st.floats(min_value=0.0, max_value=0.999999),
    offset=st.floats(min_value=0.0, max_value=5e-9),
    probe=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_fuzz_epsilon_boundary_containment(lo, offset, probe):
    """Scalar and vectorized manifest membership agree everywhere —
    including ranges whose top lands within EPSILON of 1.0 (snapped
    closed) and probe values at the very top of the hash space."""
    import numpy as np

    from repro.core.manifest import NodeManifest
    from repro.core.manifest_index import ManifestIndex
    from repro.hashing.ranges import EPSILON, HashRange

    hi = min(1.0, max(lo, 1.0 - offset))
    manifest = NodeManifest(
        node="n", entries={("c", ("u",)): (HashRange(lo, hi),)}
    )
    index = ManifestIndex(manifest)
    probes = [
        probe,
        lo,
        hi,
        1.0,
        1.0 - EPSILON / 2,
        1.0 - 2 * EPSILON,
        max(0.0, lo - EPSILON / 2),
        min(1.0, hi + EPSILON / 2),
    ]
    scalar = [manifest.contains("c", ("u",), value) for value in probes]
    indexed = [index.contains("c", ("u",), value) for value in probes]
    batched = index.contains_batch("c", ("u",), np.array(probes))
    assert indexed == scalar
    assert list(batched) == scalar


@given(seed=st.integers(min_value=0, max_value=1_000))
@settings(max_examples=8, deadline=None)
def test_fuzz_unit_building_order_invariant(seed):
    """Units derived from a shuffled trace equal the originals."""
    topology = internet2()
    paths = PathSet(topology)
    generator = TrafficGenerator(
        topology, paths, config=GeneratorConfig(seed=seed)
    )
    sessions = generator.generate(300)
    shuffled = list(sessions)
    random.Random(seed).shuffle(shuffled)
    original = build_units(STANDARD_MODULES, sessions, paths)
    reordered = build_units(STANDARD_MODULES, shuffled, paths)
    assert [(u.ident, u.pkts, u.items) for u in original] == [
        (u.ident, u.pkts, u.items) for u in reordered
    ]
