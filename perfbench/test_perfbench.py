"""Self-tests of the benchmark at reduced size.

    python3 -m pytest perfbench -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that the correctness checks fire (a tampered reference
digest, a sharded run demoted to inline), and that the traced run
leaves no wrapper behind.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.02"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, env=None):
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seconds", "0", "--trace", str(trace), "--scale", SCALE,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _expected(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_benchmark_json_lists_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _expected("end_to_end") == workloads.END_TO_END
    assert _expected("per_layer") == workloads.per_layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tampered_reference_digest_counts_as_failure():
    seed = workloads.SEEDS["pipeline-i2"][0]
    tampered = {"pipeline-i2": {str(seed): {"edge": "0" * 64, "coordinated": "0" * 64}}}
    report = workloads.run_workload(
        "pipeline-i2", seed, 0, False, scale=float(SCALE), references=tampered
    )
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert report["error_rate"] == 1.0


def test_tampered_failover_outcome_counts_as_failure():
    seed = workloads.SEEDS["failover-pop200"][0]
    honest = workloads.run_workload("failover-pop200", seed, 0, False, scale=float(SCALE))
    assert honest["result"]["correct"]
    workload = workloads.FailoverPop200(seed, float(SCALE))
    workload.setup()
    outputs = workload.round().outputs
    first = str(workload.subseeds[0])
    outputs[first] = dict(outputs[first], bus_messages=outputs[first]["bus_messages"] + 1)
    report = workloads.run_workload(
        "failover-pop200", seed, 0, False, scale=float(SCALE),
        references={"failover-pop200": {str(seed): outputs}},
    )
    assert report["result"]["failed"] == workloads.FAILOVER_EPOCHS


def test_sharding_fallback_counts_as_failure():
    # REPRO_SHARD_INLINE makes the program demote sharded runs to
    # inline, exactly as it does inside another worker process.
    result = _run("stream-shard-i2", 0, env={"REPRO_SHARD_INLINE": "1"})
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_no_wrapper_survives_a_traced_run():
    report = workloads.run_workload("pipeline-i2", 51, 0, True, scale=float(SCALE))
    assert report["result"]["metrics"]["traffic.sessions"]["value"] > 0
    assert layertrace.installed_wrappers() == []


def test_wrappers_are_restored_when_the_traced_code_raises():
    from repro.core import units

    with pytest.raises(RuntimeError):
        with layertrace.LayerTracer():
            assert getattr(units.build_units, layertrace.WRAPPER_MARK, False)
            raise RuntimeError("boom")
    assert layertrace.installed_wrappers() == []


def test_self_time_charges_nested_spans_once():
    tracer = layertrace.LayerTracer()
    tracer._open = [
        ["outer", "a", 0.0, 10.0, -1],
        ["inner", "b", 2.0, 5.0, 0],
    ]
    values = tracer.summary(wall_s=12.0)
    assert values["a"] == 7.0 and values["b"] == 3.0
    assert values["trace.untraced_s"] == 2.0
