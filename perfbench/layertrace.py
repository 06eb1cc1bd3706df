"""In-memory span tracer that wraps the program's public layer functions.

The program itself carries no spans yet, so the benchmark records them
from its own files: :class:`LayerTracer` replaces each function listed
in :data:`TARGETS` with a wrapper at every name its callers look it up
by (module globals that hold the function, or the class attribute for
a method), records one span per call, and restores every original on
exit.  Spans are kept in memory as ``(target, metric, start, end,
parent)`` rows; per-layer busy times are *self* times, so nested calls
into another layer are charged to that layer and not twice.

Counts are taken at the same boundaries from each call's arguments or
result.  Spans are only recorded on the thread that installed the
tracer; the process-pool helper threads of a sharded run never call a
wrapped function, and shard workers are fresh processes that import
the unwrapped package.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Marker attribute set on every wrapper, so tests can prove none
#: survives a traced run.
WRAPPER_MARK = "__perfbench_wrapper__"


def _len_arg(position: int, keyword: str) -> Callable:
    def count(args, kwargs, result):
        value = kwargs.get(keyword) if keyword in kwargs else (
            args[position] if len(args) > position else None
        )
        return len(value) if value is not None else 0

    return count


def _len_result(args, kwargs, result):
    return len(result)


def _node_sessions(args, kwargs, result):
    return sum(len(trace) for trace in result.values())


def _one(args, kwargs, result):
    return 1


def _lp_variables(args, kwargs, result):
    return result.program.num_variables


class Target(NamedTuple):
    """One wrapped callable: where it lives and what it records."""

    module: str
    qualname: str
    #: Per-layer busy-time metric the call's self time is charged to,
    #: or ``None`` for a count-only wrapper (hot scalar helpers).
    metric: Optional[str]
    #: ``(count metric, counter(args, kwargs, result))`` pairs.
    counts: Tuple[Tuple[str, Callable], ...] = ()
    #: Generator function: time each ``next()`` as its own span.
    generator: bool = False


#: Every public layer function the traced run wraps, grouped by the
#: package module (layer) that owns it.
TARGETS: Tuple[Target, ...] = (
    # topology
    Target("repro.topology.datasets", "by_label", "topology.build_s"),
    Target("repro.topology.routing", "PathSet.__init__", "topology.build_s"),
    # traffic
    Target(
        "repro.traffic.generator", "TrafficGenerator.generate",
        "traffic.generate_s", (("traffic.sessions", _len_result),),
    ),
    Target(
        "repro.traffic.generator", "TrafficGenerator.generate_chunks",
        "traffic.generate_s", (("traffic.sessions", _len_result),),
        generator=True,
    ),
    Target(
        "repro.traffic.generator", "TrafficGenerator.split_by_node",
        "traffic.split_s", (("traffic.node_sessions", _node_sessions),),
    ),
    Target(
        "repro.traffic.batch", "SessionBatch.__init__",
        "traffic.batch_build_s", (("traffic.batch_rows", _len_arg(1, "sessions")),),
    ),
    # core
    Target(
        "repro.core.nids_deployment", "plan_deployment",
        "core.plan_deployment_self_s",
    ),
    Target(
        "repro.core.units", "build_units",
        "core.build_units_s", (("core.units", _len_result),),
    ),
    Target("repro.core.manifest", "generate_manifests", "core.manifests_s"),
    Target(
        "repro.core.dispatch", "CoordinatedDispatcher.batch_decisions",
        "core.dispatch_s", (("core.dispatch_rows", _len_arg(1, "batch")),),
    ),
    Target(
        "repro.core.reconfigure", "TransitionPlan.duplicated_fraction",
        "core.transition_s", (("core.transition_calls", _one),),
    ),
    # lp
    Target(
        "repro.core.nids_lp", "build_nids_lp",
        "lp.build_s", (("lp.variables", _lp_variables),),
    ),
    Target("repro.lp.solver", "solve", "lp.solve_s", (("lp.solves", _one),)),
    # hashing
    Target(
        "repro.hashing.vectorized", "key_hash_unit_batch",
        "hashing.batch_s", (("hashing.keys_hashed", _len_arg(1, "src")),),
    ),
    Target(
        "repro.hashing.keys", "key_hash_unit",
        None, (("hashing.scalar_calls", _one),),
    ),
    # nids
    Target(
        "repro.nids.emulation", "run_emulation", "nids.run_emulation_self_s",
    ),
    Target(
        "repro.nids.engine", "BroInstance.__init__",
        None, (("nids.instances", _one),),
    ),
    Target(
        "repro.nids.engine", "BroInstance.process_sessions_partial",
        "nids.process_s",
    ),
    Target("repro.nids.engine", "PartialInstanceReport.merge", "nids.merge_s"),
    Target("repro.nids.engine", "PartialInstanceReport.finalize", "nids.merge_s"),
    Target("repro.nids.shard", "plan_shards", "nids.shard.plan_s"),
    Target("repro.nids.shard", "run_sharded", "nids.shard.wait_s"),
    # measurement
    Target(
        "repro.measurement.estimation", "estimate_units", "measurement.estimate_s",
    ),
    # analysis
    Target(
        "repro.analysis.verify", "verify_deployment",
        "analysis.verify_s", (("analysis.verify_calls", _one),),
    ),
    # control
    Target("repro.control.chaos", "run_chaos", "control.run_chaos_self_s"),
    Target(
        "repro.control.chaos", "InvariantMonitor.coverage_floor", "control.monitor_s",
    ),
    Target(
        "repro.control.chaos", "InvariantMonitor.stale_leases", "control.monitor_s",
    ),
    Target(
        "repro.control.chaos", "InvariantMonitor.leader_uniqueness",
        "control.monitor_s",
    ),
    Target(
        "repro.control.chaos", "InvariantMonitor.epoch_regression",
        "control.monitor_s",
    ),
    Target(
        "repro.control.chaos", "InvariantMonitor.reconvergence", "control.monitor_s",
    ),
    Target("repro.control.ha", "HACluster.step", "control.controller_step_s"),
    Target(
        "repro.control.agent", "Agent.step", "control.agent_step_s",
        (
            ("control.agent_steps", _one),
            ("control.agent_sessions", _len_arg(2, "sessions")),
        ),
    ),
    Target("repro.control.bus", "Bus.deliver", "control.bus_deliver_s"),
)

#: Busy-time metrics, in report order (a metric may gather several
#: targets, e.g. both PartialInstanceReport methods feed nids.merge_s).
TIME_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(t.metric for t in TARGETS if t.metric is not None)
)
#: Count metrics taken at wrapper boundaries, in report order.
COUNT_METRICS: Tuple[str, ...] = tuple(
    dict.fromkeys(name for t in TARGETS for name, _ in t.counts)
)


class Span(NamedTuple):
    target: str
    metric: str
    start: float
    end: float
    parent: int


def _resolve(target: Target):
    """(owner object, attribute name, original callable)."""
    module = importlib.import_module(target.module)
    owner_name, _, attr = target.qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    if attr not in vars(owner):
        raise LookupError(f"{target.module}.{target.qualname} is not defined there")
    return owner, attr, vars(owner)[attr]


class LayerTracer:
    """Context manager: wrap every :data:`TARGETS` entry, then restore.

    Spans and counts accumulate across every ``with`` block the tracer
    is used for; call :meth:`reset` between measured rounds.
    """

    def __init__(self, targets: Tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.counts: Dict[str, float] = defaultdict(float)
        #: Span rows; a row's end time is filled in when its call returns.
        self._open: List[list] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._thread = threading.get_ident()
        #: Shard plans seen by the plan_shards wrapper; pickled sizes are
        #: measured after the round, outside every timed span.
        self.shard_plans: List[list] = []

    # -- span bookkeeping -------------------------------------------------
    def reset(self) -> None:
        self.counts = defaultdict(float)
        self._open = []
        self._stack = []
        self.shard_plans = []

    def _enter(self, target: Target) -> int:
        index = len(self._open)
        parent = self._stack[-1] if self._stack else -1
        self._open.append([target.qualname, target.metric, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._open[index][3] = time.perf_counter()
        self._stack.pop()

    def _count(self, target: Target, args, kwargs, result) -> None:
        for name, counter in target.counts:
            self.counts[name] += counter(args, kwargs, result)

    def _wrap(self, target: Target, func: Callable) -> Callable:
        tracer = self
        if target.metric is None:

            @functools.wraps(func)
            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                if threading.get_ident() == tracer._thread:
                    tracer._count(target, args, kwargs, result)
                return result

            wrapper = counted
        elif target.generator:

            @functools.wraps(func)
            def generating(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    index = tracer._enter(target)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(index)
                    tracer._count(target, args, kwargs, item)
                    yield item

            wrapper = generating
        else:

            @functools.wraps(func)
            def spanned(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return func(*args, **kwargs)
                index = tracer._enter(target)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._exit(index)
                tracer._count(target, args, kwargs, result)
                if target.metric == "nids.shard.plan_s":
                    tracer.shard_plans.append(result)
                return result

            wrapper = spanned
        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    # -- install / restore ------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self._thread = threading.get_ident()
        try:
            for target in self.targets:
                owner, attr, original = _resolve(target)
                wrapper = self._wrap(target, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, original, wrapper)
                    continue
                # A module-level function is looked up by name in every
                # module that imported it: patch each such binding.
                for module in _program_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, owner: object, name: str, original: object, wrapper: object) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------
    def closed_spans(self) -> List[Span]:
        return [Span(*row) for row in self._open]

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Self time per busy-time metric, counts, and untraced time.

        ``trace.untraced_s`` is *wall_s* minus the time covered by
        top-level spans (calls made straight from the benchmark).
        """
        spans = self.closed_spans()
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        values: Dict[str, float] = {name: 0.0 for name in TIME_METRICS}
        covered = 0.0
        for index, span in enumerate(spans):
            self_time = span.end - span.start - child_time[index]
            values[span.metric] = values.get(span.metric, 0.0) + self_time
            if span.parent < 0:
                covered += span.end - span.start
        for name in COUNT_METRICS:
            values[name] = float(self.counts.get(name, 0.0))
        values["trace.untraced_s"] = wall_s - covered
        values["nids.shard.payload_mb"] = sum(
            len(pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL))
            for plan in self.shard_plans
            for shard in plan
        ) / 2**20
        return values


def _program_modules():
    """Loaded modules whose globals may bind a wrapped function."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro.") or name in _BENCH_MODULES)
    ]


#: The benchmark's own modules, which import layer functions by name.
_BENCH_MODULES = frozenset({"__main__", "workloads"})


def installed_wrappers() -> List[str]:
    """Names of wrappers still bound anywhere (empty after a clean run)."""
    found = []
    for target in TARGETS:
        owner, attr, _ = _resolve(target)
        if getattr(vars(owner).get(attr), WRAPPER_MARK, False):
            found.append(f"{target.module}.{target.qualname}")
    for module in _program_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module.__name__}.{name}")
    return found
