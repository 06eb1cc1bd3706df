"""Tests for the repro.sweep subsystem.

The load-bearing guarantees:

* parallel (4-worker) and sequential (1-worker) executions of the
  same grid produce **byte-identical** consolidated reports;
* the artifact cache serves unchanged cells without re-execution
  (verified through ``sweep_cache_hits_total``) and treats changed
  specs, corrupt artifacts, and format bumps as misses;
* cell seeds derive stably from the axis coordinates;
* run results round-trip through JSON and pickle (the worker/cache
  transport).
"""

import json
import pickle

import pytest

import repro.sweep.cache as sweep_cache
from repro.cli import main as repro_main
from repro.control.chaos import ChaosConfig, build_plan, run_chaos
from repro.control.scenarios import standard_scenario
from repro.obs import MetricsRegistry
from repro.sweep.worker import build_cell_config
from repro.sweep import (
    ArtifactCache,
    CellResult,
    SweepCell,
    SweepSpec,
    cache_key,
    consolidate,
    derive_seed,
    load_spec,
    render_report,
    run_sweep,
)
from repro.topology import by_label

#: The mini-grid for executor tests: 2 plans x 2 dynamics x 2 seeds on
#: internet2 — all eight cells are known-green at these settings.
GRID = SweepSpec(
    name="grid",
    topologies=("internet2",),
    plans=("none", "controller-outage"),
    dynamics=("steady", "diurnal"),
    redundancy=(1.0,),
    seeds=(0, 1),
    epochs=16,
    base_sessions=120,
)


class TestDeriveSeed:
    def test_deterministic_and_32bit(self):
        a = derive_seed(0, "internet2", "none", "steady", 1.0, 0)
        b = derive_seed(0, "internet2", "none", "steady", 1.0, 0)
        assert a == b
        assert 0 <= a < 2**32

    def test_every_axis_perturbs_the_seed(self):
        base = derive_seed(0, "internet2", "none", "steady", 1.0, 0)
        assert derive_seed(1, "internet2", "none", "steady", 1.0, 0) != base
        assert derive_seed(0, "geant", "none", "steady", 1.0, 0) != base
        assert derive_seed(0, "internet2", "random", "steady", 1.0, 0) != base
        assert derive_seed(0, "internet2", "none", "bursty", 1.0, 0) != base
        assert derive_seed(0, "internet2", "none", "steady", 2.0, 0) != base
        assert derive_seed(0, "internet2", "none", "steady", 1.0, 7) != base

    def test_cell_property_matches_free_function(self):
        cell = SweepCell(topology="Internet2", seed=3, base_seed=5)
        assert cell.derived_seed == derive_seed(
            5, "internet2", "none", "diurnal", 1.0, 3
        )


class TestSweepCell:
    def test_cell_id_is_stable_and_readable(self):
        cell = SweepCell(
            topology="geant", plan="random", dynamics="bursty",
            redundancy=2.0, seed=4,
        )
        assert cell.cell_id == "geant+random+bursty+r2+s4"

    def test_round_trip(self):
        cell = SweepCell(plan="lossy-burst", epochs=20, base_seed=9)
        assert SweepCell.from_dict(
            json.loads(json.dumps(cell.to_dict()))
        ) == cell

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="plan"):
            SweepCell(plan="meteor-strike")

    def test_unknown_dynamics_rejected(self):
        with pytest.raises(ValueError, match="dynamics"):
            SweepCell(dynamics="tsunami")

    def test_sub_unit_redundancy_rejected(self):
        with pytest.raises(ValueError, match="redundancy"):
            SweepCell(redundancy=0.5)

    def test_named_plan_needs_fourteen_epochs(self):
        with pytest.raises(ValueError, match="epochs"):
            SweepCell(plan="controller-outage", epochs=10)


class TestSweepSpec:
    def test_cells_enumerate_in_odometer_order(self):
        spec = SweepSpec(
            topologies=("internet2", "geant"),
            seeds=(0, 1),
            plans=("none",),
        )
        ids = [cell.cell_id for cell in spec.cells()]
        assert ids == [
            "internet2+none+diurnal+r1+s0",
            "internet2+none+diurnal+r1+s1",
            "geant+none+diurnal+r1+s0",
            "geant+none+diurnal+r1+s1",
        ]
        assert len(spec) == 4

    def test_cells_inherit_run_shape_and_base_seed(self):
        spec = SweepSpec(epochs=20, base_sessions=77, seed=13)
        (cell,) = spec.cells()
        assert cell.epochs == 20
        assert cell.base_sessions == 77
        assert cell.base_seed == 13

    def test_round_trip(self):
        spec = SweepSpec(
            name="rt", plans=("none", "random"), redundancy=(1.0, 1.5),
            epochs=18,
        )
        assert SweepSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(seeds=())

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SweepSpec(seeds=(1, 1))

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"name": "x", "topography": ["internet2"]})


class TestLoadSpec:
    def test_json_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(
            {"name": "j", "seeds": [0, 2], "epochs": 18}
        ))
        spec = load_spec(str(path))
        assert spec.name == "j"
        assert spec.seeds == (0, 2)
        assert spec.epochs == 18

    def test_toml_file_with_sweep_table(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "sweep.toml"
        path.write_text(
            '[sweep]\nname = "t"\nplans = ["none", "random"]\nepochs = 18\n'
        )
        spec = load_spec(str(path))
        assert spec.name == "t"
        assert spec.plans == ("none", "random")

    def test_repo_example_specs_load(self):
        spec = load_spec("sweeps/smoke.json")
        assert len(spec) == 8
        pytest.importorskip("tomllib")
        nightly = load_spec("sweeps/nightly.toml")
        assert len(nightly) > 8


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cell = SweepCell()
        assert cache.get(cell) is None
        cache.put(cell, {"ok": True})
        assert cache.get(cell) == {"ok": True}

    def test_changed_spec_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put(SweepCell(epochs=16), {"ok": True})
        assert cache.get(SweepCell(epochs=17)) is None
        assert cache_key(SweepCell(epochs=16)) != cache_key(
            SweepCell(epochs=17)
        )

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cell = SweepCell()
        cache.put(cell, {"ok": True})
        path = cache._path(cache_key(cell))
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert cache.get(cell) is None

    def test_format_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ArtifactCache(str(tmp_path))
        cell = SweepCell()
        cache.put(cell, {"ok": True})
        monkeypatch.setattr(
            sweep_cache,
            "CACHE_FORMAT_VERSION",
            sweep_cache.CACHE_FORMAT_VERSION + 1,
        )
        assert cache.get(cell) is None

    def test_partition_splits_by_cache_state(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cached_cell = SweepCell(seed=0)
        missing_cell = SweepCell(seed=1)
        cache.put(cached_cell, {"ok": True})
        hits, missing = cache.partition([cached_cell, missing_cell])
        assert set(hits) == {cached_cell.cell_id}
        assert missing == [missing_cell]


class TestCellConfig:
    def test_steady_chaos_cell_has_constant_volume(self):
        """Chaos cells take the whole dynamics preset, so a ``steady``
        cell draws the same session count every epoch."""
        cell = SweepCell(
            plan="controller-outage", dynamics="steady", epochs=14,
            base_sessions=60,
        )
        config = build_cell_config(cell)
        assert config.diurnal_amplitude == 0.0
        assert config.burst_probability == 0.0
        result = run_chaos(config)
        assert {r.sessions for r in result.epoch_records} == {60}


class TestResultSerialization:
    """Results cross the worker/cache boundary: JSON and pickle safe."""

    def test_scenario_result_round_trips(self):
        result = run_chaos(
            standard_scenario(
                shift_epoch=1,
                fail_epoch=2,
                recover_epoch=4,
                epochs=6,
                base_sessions=80,
                seed=3,
            )
        )
        as_dict = result.to_dict()
        rebuilt = type(result).from_dict(json.loads(json.dumps(as_dict)))
        assert rebuilt.to_dict() == as_dict
        assert pickle.loads(pickle.dumps(result)).to_dict() == as_dict

    def test_chaos_result_round_trips(self):
        nodes = by_label("internet2").node_names
        config = ChaosConfig(
            plan=build_plan("controller-outage", 3, 14, nodes),
            epochs=14,
            base_sessions=80,
            seed=3,
        )
        result = run_chaos(config)
        as_dict = result.to_dict()
        rebuilt = type(result).from_dict(json.loads(json.dumps(as_dict)))
        assert rebuilt.to_dict() == as_dict
        assert pickle.loads(pickle.dumps(result)).to_dict() == as_dict

    def test_cell_result_round_trips(self, sequential_run):
        result = sequential_run.results[0]
        as_dict = result.to_dict()
        assert CellResult.from_dict(
            json.loads(json.dumps(as_dict))
        ).to_dict() == as_dict


@pytest.fixture(scope="module")
def sequential_run(tmp_path_factory):
    """The mini-grid executed once, sequentially, into a fresh cache."""
    cache_dir = tmp_path_factory.mktemp("seq-cache")
    return run_sweep(GRID, jobs=1, cache_dir=str(cache_dir))


@pytest.fixture(scope="module")
def parallel_run(tmp_path_factory):
    """The mini-grid executed once across four worker processes."""
    cache_dir = tmp_path_factory.mktemp("par-cache")
    return run_sweep(GRID, jobs=4, cache_dir=str(cache_dir))


class TestExecutor:
    def test_grid_is_green(self, sequential_run):
        assert sequential_run.ok, sequential_run.violations
        assert len(sequential_run.results) == len(GRID)
        assert len(sequential_run.executed) == len(GRID)
        assert sequential_run.cached == ()

    def test_parallel_report_is_byte_identical(
        self, sequential_run, parallel_run
    ):
        sequential = render_report(consolidate(sequential_run))
        parallel = render_report(consolidate(parallel_run))
        assert sequential == parallel

    def test_warm_rerun_serves_everything_from_cache(
        self, sequential_run, tmp_path_factory
    ):
        cache_dir = tmp_path_factory.mktemp("warm-cache")
        registry = MetricsRegistry()
        cold = run_sweep(GRID, jobs=1, cache_dir=str(cache_dir))
        warm = run_sweep(
            GRID, jobs=1, cache_dir=str(cache_dir), registry=registry
        )
        assert warm.executed == ()
        assert len(warm.cached) == len(GRID)
        assert registry.get("sweep_cache_hits_total").total() == len(GRID)
        assert registry.get("sweep_cache_misses_total").total() == 0
        assert render_report(consolidate(warm)) == render_report(
            consolidate(cold)
        )

    def test_grown_grid_only_executes_new_cells(
        self, tmp_path, sequential_run
    ):
        small = SweepSpec(
            name="grow", plans=("none",), dynamics=("steady",),
            seeds=(0,), epochs=16, base_sessions=120,
        )
        grown = SweepSpec(
            name="grow", plans=("none",), dynamics=("steady",),
            seeds=(0, 1), epochs=16, base_sessions=120,
        )
        first = run_sweep(small, jobs=1, cache_dir=str(tmp_path))
        assert len(first.executed) == 1
        second = run_sweep(grown, jobs=1, cache_dir=str(tmp_path))
        assert len(second.executed) == 1
        assert second.executed[0].endswith("+s1")
        assert len(second.cached) == 1

    def test_force_re_executes_despite_cache(self, tmp_path):
        spec = SweepSpec(
            name="force", plans=("none",), dynamics=("steady",),
            seeds=(0,), epochs=16, base_sessions=120,
        )
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        forced = run_sweep(
            spec, jobs=1, cache_dir=str(tmp_path), force=True
        )
        assert len(forced.executed) == 1
        assert forced.cached == ()

    def test_merged_metrics_cover_cell_telemetry(self, tmp_path):
        spec = SweepSpec(
            name="telemetry", plans=("none",), dynamics=("steady",),
            seeds=(0,), epochs=16, base_sessions=120,
        )
        registry = MetricsRegistry()
        run_sweep(spec, jobs=1, cache_dir=str(tmp_path), registry=registry)
        names = set(registry.snapshot()["metrics"])
        assert "sweep_cells_total" in names
        assert "sweep_workers" in names
        # Folded in from the cell's own registry snapshot:
        assert "controller_resolves_total" in names


class TestReport:
    def test_report_shape(self, sequential_run):
        report = consolidate(sequential_run)
        assert report["summary"]["cells"] == len(GRID)
        assert report["summary"]["ok"] == len(GRID)
        assert report["summary"]["violations_total"] == 0
        assert len(report["cells"]) == len(GRID)
        assert len(report["worst_cells"]) == 3
        assert set(report["axes"]) == {
            "topology", "plan", "dynamics", "redundancy", "seed",
        }
        assert report["axes"]["plan"]["none"]["cells"] == 4
        assert report["axes"]["plan"]["controller-outage"]["ok"] == 4

    def test_report_excludes_wall_clock_values(self, sequential_run):
        report = consolidate(sequential_run)
        text = render_report(report)
        assert "duration_seconds" not in text
        for name in report["metrics"]["metrics"]:
            assert not name.endswith("_seconds")
            assert not name.endswith("_per_second")
            assert not name.startswith("sweep_")

    def test_violations_listed_per_cell(self, tmp_path):
        # The scripted schedule on geant under bursty traffic is a known
        # redistribution stress case (a steady chaos cell no longer is:
        # it now really runs at constant volume) — use it to exercise
        # the violation summary.
        spec = SweepSpec(
            name="stress", topologies=("geant",),
            plans=("none",), dynamics=("bursty",),
            seeds=(0,), epochs=16, base_sessions=120,
        )
        run = run_sweep(spec, jobs=1, cache_dir=str(tmp_path))
        assert not run.ok
        report = consolidate(run)
        assert report["summary"]["violating_cells"] == 1
        assert report["violations"]
        assert report["violations"][0]["cell_id"].startswith("geant+")


class TestSweepCli:
    CELL_FLAGS = [
        "--plans", "none", "--dynamics", "steady", "--seeds", "0",
        "--epochs", "16", "--sessions", "120",
    ]

    def test_run_status_report_flow(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        report_path = str(tmp_path / "report.json")
        code = repro_main(
            ["sweep", "run", "--jobs", "1", "--cache-dir", cache_dir,
             "--report", report_path, *self.CELL_FLAGS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ok: 1/1" in out
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["summary"]["cells"] == 1

        code = repro_main(
            ["sweep", "status", "--cache-dir", cache_dir, *self.CELL_FLAGS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 cached, 0 to run" in out

        code = repro_main(
            ["sweep", "report", "--cache-dir", cache_dir, *self.CELL_FLAGS]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["summary"]["ok"] == 1

    def test_report_requires_complete_cache(self, tmp_path, capsys):
        code = repro_main(
            ["sweep", "report", "--cache-dir", str(tmp_path / "empty"),
             *self.CELL_FLAGS]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "not cached" in captured.err

    def test_run_loads_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "fromfile", "plans": ["none"], "dynamics": ["steady"],
            "seeds": [0], "epochs": 16, "base_sessions": 120,
        }))
        code = repro_main(
            ["sweep", "run", "--jobs", "1", "--no-cache",
             "--spec", str(spec_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep fromfile: 1 cells" in out

    def test_metrics_out_snapshot(self, tmp_path, capsys):
        metrics_path = str(tmp_path / "metrics.json")
        code = repro_main(
            ["sweep", "run", "--jobs", "1", "--no-cache",
             "--metrics-out", metrics_path, *self.CELL_FLAGS]
        )
        capsys.readouterr()
        assert code == 0
        with open(metrics_path) as handle:
            snapshot = json.load(handle)
        assert "sweep_cells_total" in snapshot["metrics"]
