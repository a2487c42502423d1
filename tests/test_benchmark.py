"""Benchmark suite and the resumable experiment runner."""
from __future__ import annotations

import functools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swarmpattern import (
    Constant,
    ExperimentPlan,
    IpsoParams,
    LinearInertia,
    Mapso,
    MapsoConfig,
    ResultSet,
    baseline_schedules,
    classic_suite,
    default_plan,
    derive_seed,
    load_plan,
    load_results,
    plan_from_dict,
    plan_to_dict,
    run,
    run_experiment,
    run_many,
    suite_function,
)
from swarmpattern import benchmark

ICPSO = Constant(IpsoParams(0.711897, 1.711897, 1.0))


def _tiny_plan(base_seed=7):
    return ExperimentPlan(
        algorithms=(("icpso", ICPSO), ("ldw", LinearInertia(0.9, 0.4))),
        functions=(suite_function("sphere", 2), suite_function("ackley", 2)),
        dimension=2,
        pop_size=10,
        runs=3,
        evals_per_dim=50,
        base_seed=base_seed,
    )


def _snapshot(out_dir):
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


class TestClassicFunctions:
    @pytest.mark.parametrize("name", ["sphere", "rastrigin", "griewank"])
    def test_zero_at_origin(self, name):
        fn = suite_function(name, 10)
        assert fn.objective(np.zeros(10)) == 0.0
        assert fn.optimum_value == 0.0

    def test_ackley_floor(self):
        fn = suite_function("ackley", 10)
        assert abs(fn.objective(np.zeros(10))) < 1e-12

    def test_rosenbrock_valley(self):
        fn = suite_function("rosenbrock", 10)
        assert fn.objective(np.ones(10)) == 0.0

    def test_schwefel_minimum_location(self):
        fn = suite_function("schwefel226", 10)
        assert fn.objective(np.full(10, 420.968746)) < 0.01
        assert fn.optimum_value is None

    def test_shift_lands_on_optimum_inside_the_box(self):
        fn = suite_function("shifted_sphere", 10)
        shift = fn.objective.keywords["shift"]
        assert fn.objective(shift) == 0.0
        assert np.all(shift > fn.lower)
        assert np.all(shift < fn.upper)

    def test_shift_is_stable_across_calls(self):
        first = suite_function("shifted_ackley", 5).objective.keywords["shift"]
        second = suite_function("shifted_ackley", 5).objective.keywords["shift"]
        assert np.array_equal(first, second)

    def test_every_function_is_total_outside_its_box(self):
        # Positions are not clamped during optimisation, so values at
        # out-of-box points must still be finite.
        for fn in classic_suite(6):
            assert np.isfinite(fn.objective(2.0 * fn.upper))
            assert np.isfinite(fn.objective(2.0 * fn.lower))

    @pytest.mark.parametrize("dimension", [1, 2, 3, 9, 10, 17])
    def test_batch_equals_row_by_row(self, dimension):
        rng = np.random.default_rng(dimension)
        for fn in classic_suite(dimension):
            X = rng.uniform(2.0 * fn.lower, 2.0 * fn.upper, (7, dimension))
            batched = fn.objective(X)
            assert batched.shape == (7,)
            assert np.array_equal(batched, [fn.objective(x) for x in X])
            assert np.ndim(fn.objective(X[0])) == 0

    def test_suite_composition(self):
        suite = classic_suite(10)
        names = [fn.name for fn in suite]
        assert len(names) == 11
        assert len(set(names)) == 11
        assert [fn.name for fn in suite if fn.optimum_value is None] == ["schwefel226"]
        assert all(fn.dimension == 10 for fn in suite)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            classic_suite(0)

    def test_unknown_name_lists_the_suite(self):
        with pytest.raises(ValueError, match="unknown test function 'sphere3'"):
            suite_function("sphere3", 4)


class TestExperimentPlan:
    def test_budget_scales_with_dimension(self):
        assert _tiny_plan().budget_evals == 100
        assert default_plan(10).budget_evals == 50_000

    def test_default_plan_shape(self):
        plan = default_plan(10, runs=15, base_seed=0)
        assert [n for n, _ in plan.algorithms] == [
            "mapso", "icpso", "ldwpso", "liwpso", "rwpso", "aiwpso"]
        assert len(plan.functions) == 11
        assert plan.runs == 15
        assert plan.pop_size == 20

    def test_validation_messages(self):
        sphere2 = suite_function("sphere", 2)
        with pytest.raises(ValueError, match="algorithm names must be unique"):
            ExperimentPlan((("a", ICPSO), ("a", ICPSO)), (sphere2,), 2)
        with pytest.raises(ValueError, match="function names must be unique"):
            ExperimentPlan((("a", ICPSO),), (sphere2, sphere2), 2)
        with pytest.raises(ValueError, match="not filesystem-safe"):
            ExperimentPlan((("bad name", ICPSO),), (sphere2,), 2)
        with pytest.raises(ValueError, match="at least one algorithm"):
            ExperimentPlan((), (sphere2,), 2)
        with pytest.raises(ValueError, match="match the plan dimension"):
            ExperimentPlan((("a", ICPSO),), (suite_function("sphere", 3),), 2)
        with pytest.raises(ValueError, match="runs must be at least 2"):
            ExperimentPlan((("a", ICPSO),), (sphere2,), 2, runs=1)
        with pytest.raises(ValueError, match="must be positive"):
            ExperimentPlan((("a", ICPSO),), (sphere2,), 2, pop_size=0)
        with pytest.raises(ValueError, match="base_seed must fit in 64 bits"):
            ExperimentPlan((("a", ICPSO),), (sphere2,), 2, base_seed=-1)


class TestDeriveSeed:
    def test_frozen_reference_values(self):
        assert derive_seed(0, 0, 0, 0) == 2558736989570252433
        assert derive_seed(0, 0, 0, 1) == 3400964856525257824
        assert derive_seed(42, 1, 2, 3) == 7251016025068861108

    def test_every_coordinate_matters(self):
        base = derive_seed(5, 1, 2, 3)
        assert derive_seed(6, 1, 2, 3) != base
        assert derive_seed(5, 2, 2, 3) != base
        assert derive_seed(5, 1, 3, 3) != base
        assert derive_seed(5, 1, 2, 4) != base

    def test_no_collisions_on_a_small_lattice(self):
        seeds = {derive_seed(0, i, k, r)
                 for i in range(6) for k in range(11) for r in range(15)}
        assert len(seeds) == 6 * 11 * 15
        assert all(0 <= s < 2 ** 64 for s in seeds)


class TestPlanSerialization:
    def test_round_trip_preserves_every_field(self):
        plan = ExperimentPlan(
            algorithms=(("icpso", ICPSO), ("wide", Mapso(MapsoConfig(v_max=30.0)))),
            functions=(suite_function("shifted_sphere", 3),),
            dimension=3, pop_size=7, runs=4, evals_per_dim=100, base_seed=99)
        back = plan_from_dict(plan_to_dict(plan))
        assert back.algorithms == plan.algorithms
        assert [f.name for f in back.functions] == [f.name for f in plan.functions]
        assert np.array_equal(back.functions[0].objective.keywords["shift"],
                              plan.functions[0].objective.keywords["shift"])
        assert (back.dimension, back.pop_size, back.runs,
                back.evals_per_dim, back.base_seed) == (3, 7, 4, 100, 99)

    def test_load_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(_tiny_plan())), encoding="utf-8")
        assert load_plan(path).algorithms == _tiny_plan().algorithms

    def test_version_gate(self):
        data = plan_to_dict(_tiny_plan())
        data["format_version"] = 2
        with pytest.raises(ValueError, match="unsupported plan format_version 2"):
            plan_from_dict(data)

    def test_missing_field_is_reported_as_malformed(self):
        data = plan_to_dict(_tiny_plan())
        del data["pop_size"]
        with pytest.raises(ValueError, match="malformed experiment plan"):
            plan_from_dict(data)


class TestRunExperiment:
    def test_in_memory_results(self):
        plan = _tiny_plan()
        results = run_experiment(plan)
        assert results.algorithms == ("icpso", "ldw")
        assert results.functions == ("sphere", "ackley")
        assert results.values.shape == (2, 2, 3)
        assert results.runs == 3
        assert np.all(np.isfinite(results.values))
        assert results.failures == ()

    def test_cells_match_direct_runs_exactly(self):
        # Every stock kind: shared triples (constant, MAPSO, linear), a
        # per-run inertia draw ahead of phi1 and phi2, and a per-run success
        # rate.  Each run of a lockstep cell must equal a run of its own.
        plan = ExperimentPlan(
            algorithms=tuple(baseline_schedules().items()),
            functions=(suite_function("sphere", 2), suite_function("ackley", 2),
                       suite_function("shifted_rastrigin", 2)),
            dimension=2, pop_size=10, runs=4, evals_per_dim=200, base_seed=7)
        results = run_experiment(plan)
        for i, (_, schedule) in enumerate(plan.algorithms):
            for k, function in enumerate(plan.functions):
                seeds = [derive_seed(plan.base_seed, i, k, r)
                         for r in range(plan.runs)]
                lockstep = run_many(function.problem(), schedule, plan.pop_size,
                                    plan.budget_evals, seeds)
                for r, seed in enumerate(seeds):
                    direct = run(function.problem(), schedule, plan.pop_size,
                                 plan.budget_evals, seed)
                    assert results.values[i, k, r] == direct.best_value
                    assert results.seeds[i, k, r] == seed
                    assert lockstep[r].seed == seed
                    assert lockstep[r].best_value == direct.best_value
                    assert (lockstep[r].best_position.tobytes()
                            == direct.best_position.tobytes())
                    assert lockstep[r].history == direct.history

    def test_persisted_layout(self, tmp_path):
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["plan"] == plan_to_dict(plan)
        cells = sorted(p.name for p in (tmp_path / "results").iterdir())
        assert cells == ["icpso__ackley.csv", "icpso__sphere.csv",
                         "ldw__ackley.csv", "ldw__sphere.csv"]
        lines = (tmp_path / "results" / "icpso__sphere.csv").read_text().splitlines()
        assert lines[0] == "run,seed,best_value"
        assert len(lines) == 1 + plan.runs

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = _tiny_plan()
        first = run_experiment(plan, out_dir=tmp_path)
        before = _snapshot(tmp_path)
        second = run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == before
        assert np.array_equal(first.values, second.values)

    def test_resume_after_lost_rows(self, tmp_path):
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        reference = _snapshot(tmp_path)
        cell = tmp_path / "results" / "ldw__ackley.csv"
        lines = cell.read_text().splitlines()
        cell.write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
        resumed = run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == reference
        assert np.all(np.isfinite(resumed.values))

    def test_torn_final_row_is_recomputed(self, tmp_path):
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        reference = _snapshot(tmp_path)
        cell = tmp_path / "results" / "icpso__sphere.csv"
        text = cell.read_text()
        cell.write_text(text[:text.rindex(",")], encoding="utf-8")
        run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == reference

    def test_unterminated_final_row_is_recomputed(self, tmp_path):
        # Dropping the line end and a few digits leaves a row that still
        # parses; without its line end it must count as torn all the same.
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        reference = _snapshot(tmp_path)
        cell = tmp_path / "results" / "icpso__sphere.csv"
        data = cell.read_bytes()
        assert data.endswith(b"\r\n")
        cell.write_bytes(data[:-2][:-6])
        run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == reference

    def test_resume_interrupted_after_a_torn_tail(self, tmp_path, monkeypatch):
        # The rerun row must not end up glued to the torn "2" as a row for
        # run 22, even when a second interruption follows the torn cell.
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        reference = _snapshot(tmp_path)
        cell = tmp_path / "results" / "icpso__sphere.csv"
        data = cell.read_bytes()
        cell.write_bytes(data[:data.rstrip(b"\r\n").rindex(b"\n") + 1] + b"2")
        # A lost cell later in the plan gives the resume a second cell to
        # be interrupted in, after the torn cell's rerun row was written.
        (tmp_path / "results" / "ldw__ackley.csv").unlink()

        class Interrupted(Exception):
            pass

        calls = []

        def one_cell(task):
            calls.append(1)
            if len(calls) > 1:
                raise Interrupted
            return run_cell(task)

        run_cell = benchmark._run_cell
        monkeypatch.setattr(benchmark, "_run_cell", one_cell)
        with pytest.raises(Interrupted):
            run_experiment(plan, out_dir=tmp_path)
        monkeypatch.undo()
        lines = cell.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["run", "0", "1", "2"]
        run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == reference

    @pytest.mark.parametrize("torn", [b"", b"run,se"])
    def test_cell_torn_inside_its_header_is_recomputed(self, tmp_path, torn):
        # A whole-cell write cut short can leave less than the header line.
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        reference = _snapshot(tmp_path)
        (tmp_path / "results" / "ldw__sphere.csv").write_bytes(torn)
        run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == reference

    def test_each_finished_cell_is_written_once(self, tmp_path, monkeypatch):
        written = []
        write_cell = benchmark._write_cell

        def counting(path, seeds, values):
            written.append(path.name)
            write_cell(path, seeds, values)

        monkeypatch.setattr(benchmark, "_write_cell", counting)
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        assert sorted(written) == ["icpso__ackley.csv", "icpso__sphere.csv",
                                   "ldw__ackley.csv", "ldw__sphere.csv"]
        written.clear()
        run_experiment(plan, out_dir=tmp_path)
        assert written == []
        (tmp_path / "results" / "ldw__ackley.csv").unlink()
        run_experiment(plan, out_dir=tmp_path)
        assert written == ["ldw__ackley.csv"]

    def test_rerun_with_failed_runs_keeps_the_failures(self, tmp_path):
        # A failed run is pending on resume; its shared schedule fails again
        # the same way, so failures.csv survives the rerun unchanged.
        plan = ExperimentPlan(
            algorithms=(("biased", Mapso(MapsoConfig(f_min=1e9, f_max=1e9))),
                        ("icpso", ICPSO)),
            functions=(suite_function("sphere", 2),),
            dimension=2, pop_size=5, runs=3, evals_per_dim=20)
        first = run_experiment(plan, out_dir=tmp_path)
        reference = _snapshot(tmp_path)
        assert "failures.csv" in reference
        second = run_experiment(plan, out_dir=tmp_path)
        assert _snapshot(tmp_path) == reference
        assert len(first.failures) == len(second.failures) == 3
        assert second.failures == first.failures

    def test_foreign_manifest_is_rejected(self, tmp_path):
        run_experiment(_tiny_plan(), out_dir=tmp_path)
        with pytest.raises(ValueError, match="use a fresh output directory"):
            run_experiment(_tiny_plan(base_seed=8), out_dir=tmp_path)

    def test_failed_runs_become_nan_not_crashes(self, tmp_path):
        plan = ExperimentPlan(
            algorithms=(("icpso", ICPSO),
                        ("biased", Mapso(MapsoConfig(f_min=1e9, f_max=1e9)))),
            functions=(suite_function("sphere", 2),),
            dimension=2, pop_size=5, runs=2, evals_per_dim=20)
        results = run_experiment(plan, out_dir=tmp_path)
        assert np.all(np.isfinite(results.values[0]))
        assert np.all(np.isnan(results.values[1]))
        assert len(results.failures) == 2
        algorithm, function, _, error = results.failures[0]
        assert (algorithm, function) == ("biased", "sphere")
        assert error.startswith("ConsistencyError: ")
        failures = (tmp_path / "failures.csv").read_text().splitlines()
        assert failures[0] == "algorithm,function,run,error"
        assert len(failures) == 3

    def test_spawned_workers_match_a_serial_run(self, tmp_path, monkeypatch):
        # Spawned workers share no module state with the parent: every spec
        # must mean the same thing after a pickle round trip.
        plan = ExperimentPlan(
            algorithms=(("mapso", Mapso()), ("icpso", ICPSO)),
            functions=(suite_function("sphere", 2),),
            dimension=2, pop_size=5, runs=2, evals_per_dim=50)
        serial = run_experiment(plan, out_dir=tmp_path / "serial")
        monkeypatch.setattr(
            "swarmpattern.benchmark.ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor,
                              mp_context=multiprocessing.get_context("spawn")))
        spawned = run_experiment(plan, out_dir=tmp_path / "spawned", parallelism=2)
        assert spawned.failures == ()
        assert np.array_equal(spawned.values, serial.values)
        assert np.array_equal(spawned.seeds, serial.seeds)
        assert _snapshot(tmp_path / "spawned") == _snapshot(tmp_path / "serial")

    def test_parallelism_guard(self):
        with pytest.raises(ValueError, match="parallelism must be positive"):
            run_experiment(_tiny_plan(), parallelism=0)


class TestLoadResults:
    def test_round_trip(self, tmp_path):
        results = run_experiment(_tiny_plan(), out_dir=tmp_path)
        loaded = load_results(tmp_path)
        assert loaded.algorithms == results.algorithms
        assert loaded.functions == results.functions
        assert np.array_equal(loaded.values, results.values)
        assert np.array_equal(loaded.seeds, results.seeds)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no manifest.json"):
            load_results(tmp_path)

    def test_incomplete_directory_points_at_resume(self, tmp_path):
        run_experiment(_tiny_plan(), out_dir=tmp_path)
        cell = tmp_path / "results" / "icpso__ackley.csv"
        lines = cell.read_text().splitlines()
        cell.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="rerun the experiment"):
            load_results(tmp_path)


class TestResultSet:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="values must have shape"):
            ResultSet(("a",), ("f",), np.zeros((2, 1, 3)), np.zeros((2, 1, 3)))
        with pytest.raises(ValueError, match="seeds must match"):
            ResultSet(("a",), ("f",), np.zeros((1, 1, 3)), np.zeros((1, 1, 2)))

    def test_arrays_are_read_only(self):
        rs = ResultSet(("a",), ("f",), np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))
        with pytest.raises(ValueError):
            rs.values[0, 0, 0] = 1.0
