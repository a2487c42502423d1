"""Benchmark suite and the resumable experiment runner."""
from __future__ import annotations

import csv
import dataclasses
import functools
import json
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from swarmpattern import (
    ConsistencyError,
    ExperimentPlan,
    IpsoParams,
    LinearInertia,
    Mapso,
    Problem,
    RandomInertia,
    ResultSet,
    ScheduleError,
    SuccessRateInertia,
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
from swarmpattern.cli import build_parser
from swarmpattern.schedules import coefficient_table

ICPSO = IpsoParams(0.711897, 1.711897, 1.0)


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
        shift = fn.objective.args[1]
        assert fn.objective(shift) == 0.0
        assert np.all(shift > fn.lower)
        assert np.all(shift < fn.upper)

    def test_shift_is_stable_across_calls(self):
        # suite_function hands out one object, so draw the shift afresh.
        first = suite_function("shifted_ackley", 5).objective.args[1]
        second = benchmark._shift_vector("ackley", 5, -32.768, 32.768)
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

    @pytest.mark.parametrize("fn", classic_suite(3), ids=lambda fn: fn.name)
    def test_a_suite_function_is_a_problem(self, fn):
        assert isinstance(fn, Problem)
        assert fn.problem() is fn
        for bound in (fn.lower, fn.upper):
            assert not bound.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                bound[0] = 0.0
        copy = pickle.loads(pickle.dumps(fn))
        assert (copy.name, copy.dimension, copy.optimum_value) == (
            fn.name, fn.dimension, fn.optimum_value)
        assert np.array_equal(copy.lower, fn.lower)
        assert np.array_equal(copy.upper, fn.upper)
        x = np.linspace(fn.lower, fn.upper, 5)
        assert np.array_equal(copy.objective(x), fn.objective(x))
        wrapped = dataclasses.replace(fn, objective=lambda X: fn.objective(X))
        assert type(wrapped) is benchmark.TestFunction
        assert wrapped.optimum_value == fn.optimum_value
        assert np.array_equal(wrapped.objective(x), fn.objective(x))

    def test_a_suite_function_checks_its_box_as_a_problem_does(self):
        with pytest.raises(ValueError, match="need lower < upper"):
            benchmark.TestFunction(dimension=2, lower=np.ones(2),
                                   upper=np.ones(2), objective=benchmark.sphere,
                                   name="flat", optimum_value=0.0)

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

    def test_one_default_run_count(self):
        bare = ExperimentPlan((("icpso", ICPSO),),
                              (suite_function("sphere", 2),), 2)
        args = build_parser().parse_args(["bench", "--out", "unused"])
        assert (bare.runs == default_plan(2).runs == args.runs
                == benchmark.DEFAULT_RUNS == 15)

    def test_a_suite_function_is_one_shared_read_only_object(self):
        sphere2 = suite_function("sphere", 2)
        assert suite_function("sphere", 2) is sphere2
        assert suite_function("sphere", dimension=2) is sphere2
        assert classic_suite(2)[0] is sphere2
        assert suite_function("sphere", 3) is not sphere2
        shifted = suite_function("shifted_sphere", 2)
        assert suite_function(name="shifted_sphere", dimension=2) is shifted
        with pytest.raises(ValueError, match="read-only"):
            shifted.objective.args[1][0] = 0.0
        assert shifted.objective.keywords == {}  # no mutable dict holds it

    def test_a_function_outside_the_suite_is_rejected(self):
        # The manifest stores names only: a directory run for "flat" could
        # never be loaded again.
        flat = benchmark.TestFunction(
            dimension=2, lower=np.full(2, -1.0), upper=np.full(2, 1.0),
            objective=lambda X: np.zeros(len(X)), name="flat")
        with pytest.raises(ValueError, match="unknown test function 'flat'; "
                                             "known: sphere, rosenbrock"):
            ExperimentPlan((("a", ICPSO),), (flat,), 2)

    def test_a_custom_function_under_a_suite_name_is_rejected(self):
        # Its results would be labelled, loaded and resumed as sphere's.
        sphere2 = suite_function("sphere", 2)
        impostor = dataclasses.replace(
            sphere2, objective=lambda X: benchmark.sphere(X) + 7.0)
        for fn in (impostor, dataclasses.replace(sphere2)):
            with pytest.raises(ValueError, match="'sphere' must be "
                                                 "suite_function's"):
                ExperimentPlan((("a", ICPSO),), (fn,), 2)

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
        with pytest.raises(ValueError, match="dimension must be positive"):
            ExperimentPlan((("a", ICPSO),), (sphere2,), 0)
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


# The stock algorithms as a plan file stores them, key order included.
# Resume compares a stored plan with the one it is asked to run, so this
# format must not drift.
STOCK_ALGORITHMS_ON_DISK = [
    {"name": "mapso", "schedule": {
        "kind": "mapso", "v_max": 25.0, "v_min": 5.0, "rho_max": 0.8,
        "rho_min": 0.1, "f_max": 25.0, "f_min": 0.25, "t1_frac": 0.2,
        "t2_frac": 0.8}},
    {"name": "icpso", "schedule": {
        "kind": "constant", "omega": 0.711897, "c": 1.711897, "alpha": 1.0}},
    {"name": "ldwpso", "schedule": {
        "kind": "linear_inertia", "omega_start": 0.9, "omega_end": 0.4,
        "c": 1.49618, "alpha": 1.0}},
    {"name": "liwpso", "schedule": {
        "kind": "linear_inertia", "omega_start": 0.4, "omega_end": 0.9,
        "c": 1.49618, "alpha": 1.0}},
    {"name": "rwpso", "schedule": {
        "kind": "random_inertia", "c": 1.49618, "alpha": 1.0}},
    {"name": "aiwpso", "schedule": {
        "kind": "success_rate_inertia", "omega_min": 0.0, "omega_max": 1.0,
        "c": 1.49618, "alpha": 1.0}},
]


class TestPlanSerialization:
    def test_round_trip_preserves_every_field(self):
        plan = ExperimentPlan(
            algorithms=(("icpso", ICPSO), ("wide", Mapso(v_max=30.0))),
            functions=(suite_function("shifted_sphere", 3),),
            dimension=3, pop_size=7, runs=4, evals_per_dim=100, base_seed=99)
        back = plan_from_dict(plan_to_dict(plan))
        assert back.algorithms == plan.algorithms
        assert [f.name for f in back.functions] == [f.name for f in plan.functions]
        assert np.array_equal(back.functions[0].objective.args[1],
                              plan.functions[0].objective.args[1])
        assert (back.dimension, back.pop_size, back.runs,
                back.evals_per_dim, back.base_seed) == (3, 7, 4, 100, 99)

    def test_stock_algorithms_keep_their_on_disk_format(self):
        written = plan_to_dict(default_plan())
        assert (json.dumps(written["algorithms"])
                == json.dumps(STOCK_ALGORITHMS_ON_DISK))
        stored = {**written, "algorithms": STOCK_ALGORITHMS_ON_DISK}
        again = plan_to_dict(plan_from_dict(json.loads(json.dumps(stored))))
        assert (json.dumps(again["algorithms"])
                == json.dumps(STOCK_ALGORITHMS_ON_DISK))

    def test_load_plan_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(_tiny_plan())), encoding="utf-8")
        assert load_plan(path).algorithms == _tiny_plan().algorithms

    def test_version_gate(self):
        data = plan_to_dict(_tiny_plan())
        data["format_version"] = 2
        with pytest.raises(ValueError, match="unsupported plan format_version 2"):
            plan_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("runs", 5.9), ("pop_size", 20.5), ("dimension", True),
        ("evals_per_dim", "300"), ("base_seed", 0.0), ("runs", None)])
    def test_counts_must_be_json_integers(self, key, value):
        # int() would truncate 5.9 to 5 runs and read true as d=1.
        data = {**plan_to_dict(_tiny_plan()), key: value}
        with pytest.raises(ValueError, match=f"malformed experiment plan: "
                                             f"{key} must be a JSON integer"):
            plan_from_dict(data)

    @pytest.mark.parametrize("name", [5, True, None])
    def test_algorithm_names_must_be_strings(self, name):
        # str() would run an algorithm called "5" or "True".
        data = plan_to_dict(_tiny_plan())
        data["algorithms"][0]["name"] = name
        with pytest.raises(ValueError, match="malformed experiment plan: "
                           f"algorithm name {name!r} is not a string"):
            plan_from_dict(data)
        with pytest.raises(TypeError, match="is not a string"):
            ExperimentPlan(algorithms=((name, ICPSO),),
                           functions=(suite_function("sphere", 2),),
                           dimension=2)

    def test_plan_must_be_a_json_object(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            plan_from_dict([])

    def test_missing_field_is_reported_as_malformed(self):
        data = plan_to_dict(_tiny_plan())
        del data["pop_size"]
        with pytest.raises(ValueError, match="malformed experiment plan"):
            plan_from_dict(data)


class TestRunExperiment:
    def test_results_carry_the_plan_labels(self, tmp_path):
        plan = _tiny_plan()
        results = run_experiment(plan, out_dir=tmp_path)
        assert results.algorithms == ("icpso", "ldw")
        assert results.functions == ("sphere", "ackley")
        assert results.values.shape == (2, 2, 3)
        assert np.all(np.isfinite(results.values))

    def test_cells_match_direct_runs_exactly(self, tmp_path):
        # Every stock kind: shared triples (constant, MAPSO, linear), a
        # per-run inertia draw ahead of phi1 and phi2, and a per-run success
        # rate.  Each run of a lockstep cell must equal a run of its own.
        plan = ExperimentPlan(
            algorithms=tuple(baseline_schedules().items()),
            functions=(suite_function("sphere", 2), suite_function("ackley", 2),
                       suite_function("shifted_rastrigin", 2)),
            dimension=2, pop_size=10, runs=4, evals_per_dim=200, base_seed=7)
        results = run_experiment(plan, out_dir=tmp_path)
        for i, (_, schedule) in enumerate(plan.algorithms):
            for k, function in enumerate(plan.functions):
                seeds = [derive_seed(plan.base_seed, i, k, r)
                         for r in range(plan.runs)]
                lockstep = run_many(function.problem(), [schedule] * plan.runs,
                                    plan.pop_size, plan.budget_evals, seeds)
                for r, seed in enumerate(seeds):
                    direct = run(function.problem(), schedule, plan.pop_size,
                                 plan.budget_evals, seed)
                    assert results.values[i, k, r] == direct.best_value
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
        # Every row's seed is derive_seed of the row's coordinates.
        for i, (algorithm, _) in enumerate(plan.algorithms):
            for k, function in enumerate(plan.functions):
                with open(tmp_path / "results" / f"{algorithm}__{function.name}.csv",
                          newline="", encoding="utf-8") as fh:
                    rows = list(csv.reader(fh))[1:]
                assert [(int(run), int(seed)) for run, seed, _ in rows] == [
                    (r, derive_seed(plan.base_seed, i, k, r))
                    for r in range(plan.runs)]

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
        # A lost cell of a later function gives the resume a second stack
        # to be interrupted in, after the torn cell's rerun row was written.
        (tmp_path / "results" / "ldw__ackley.csv").unlink()

        class Interrupted(Exception):
            pass

        calls = []

        def one_function(task):
            calls.append(1)
            if len(calls) > 1:
                raise Interrupted
            return run_function(task)

        run_function = benchmark._run_function
        monkeypatch.setattr(benchmark, "_run_function", one_function)
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

        def counting(out_path, plan, i, k, values):
            written.append(f"{plan.algorithms[i][0]}__{plan.functions[k].name}.csv")
            write_cell(out_path, plan, i, k, values)

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

    def test_foreign_manifest_is_rejected(self, tmp_path):
        run_experiment(_tiny_plan(), out_dir=tmp_path)
        with pytest.raises(ValueError, match="use a fresh output directory"):
            run_experiment(_tiny_plan(base_seed=8), out_dir=tmp_path)

    @pytest.mark.parametrize("schedule, error, message", [
        (LinearInertia(-1e308, 1e308), ScheduleError,
         "algorithm 'overflow': LinearInertia coefficients must be finite at "
         "tick 0"),
        (SuccessRateInertia(omega_min=-1e308, omega_max=1e308), ScheduleError,
         "algorithm 'overflow': SuccessRateInertia coefficients must be finite "
         "at tick 0"),
        (Mapso(v_min=1e300, v_max=1e308), ConsistencyError,
         "algorithm 'overflow': Mapso pattern solver round-trip failed at "
         "tick 0"),
    ], ids=["linear", "success", "mapso"])
    def test_a_failing_schedule_table_rejects_the_plan_before_writing(
            self, tmp_path, schedule, error, message):
        # Each spec passes construction; its coefficients overflow.  The
        # valid algorithm beside it does not run either.
        plan = ExperimentPlan(
            algorithms=(("icpso", ICPSO), ("overflow", schedule)),
            functions=(suite_function("sphere", 2),),
            dimension=2, pop_size=5, runs=2, evals_per_dim=20)
        fresh = tmp_path / "fresh"
        with pytest.raises(error) as info:
            run_experiment(plan, out_dir=fresh)
        assert str(info.value).startswith(message)
        assert isinstance(info.value.__cause__, error)
        assert not fresh.exists()
        # The table check comes before the manifest check, so a finished
        # directory of another plan keeps its bytes.
        finished = tmp_path / "finished"
        run_experiment(_tiny_plan(), out_dir=finished)
        reference = _snapshot(finished)
        with pytest.raises(error) as info:
            run_experiment(plan, out_dir=finished)
        assert str(info.value).startswith(message)
        assert _snapshot(finished) == reference

    def test_each_schedule_table_is_checked_once(self, tmp_path, monkeypatch):
        # A table depends only on its spec and the plan's clock, so a plan
        # with two functions checks each algorithm's table once per call,
        # a resume with nothing left to run included.
        calls = []

        def counting(spec, t_max):
            calls.append((spec, t_max))
            return coefficient_table(spec, t_max)

        monkeypatch.setattr(benchmark, "coefficient_table", counting)
        plan = ExperimentPlan(
            algorithms=(("icpso", ICPSO), ("mapso", Mapso()),
                        ("rwpso", RandomInertia())),
            functions=(suite_function("sphere", 2),
                       suite_function("ackley", 2)),
            dimension=2, pop_size=5, runs=2, evals_per_dim=20)
        t_max = plan.budget_evals // plan.pop_size
        run_experiment(plan, out_dir=tmp_path)
        assert calls == [(spec, t_max) for _, spec in plan.algorithms]
        calls.clear()
        run_experiment(plan, out_dir=tmp_path)
        assert calls == [(spec, t_max) for _, spec in plan.algorithms]

    def test_one_stack_per_function_with_pending_runs(self, tmp_path,
                                                       monkeypatch):
        calls = []

        def counting(problem, schedules, *args, **kwargs):
            calls.append((problem.name, len(schedules)))
            return run_many(problem, schedules, *args, **kwargs)

        monkeypatch.setattr(benchmark, "run_many", counting)
        plan = _tiny_plan()
        run_experiment(plan, out_dir=tmp_path)
        assert calls == [("sphere", 6), ("ackley", 6)]
        calls.clear()
        run_experiment(plan, out_dir=tmp_path)
        assert calls == []
        # Run 2 of one ackley cell and the whole other one are pending.
        (tmp_path / "results" / "ldw__ackley.csv").unlink()
        cell = tmp_path / "results" / "icpso__ackley.csv"
        cell.write_text("".join(cell.read_text().splitlines(True)[:3]),
                        encoding="utf-8")
        run_experiment(plan, out_dir=tmp_path)
        assert calls == [("ackley", 4)]

    def test_parallel_workers_write_the_serial_directory(self, tmp_path):
        plan = ExperimentPlan(
            algorithms=tuple(baseline_schedules().items()),
            functions=(suite_function("sphere", 2),
                       suite_function("ackley", 2),
                       suite_function("shifted_rastrigin", 2)),
            dimension=2, pop_size=5, runs=2, evals_per_dim=20)
        run_experiment(plan, out_dir=tmp_path / "serial")
        run_experiment(plan, out_dir=tmp_path / "pooled", parallelism=2)
        assert _snapshot(tmp_path / "pooled") == _snapshot(tmp_path / "serial")

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
        assert np.array_equal(spawned.values, serial.values)
        assert _snapshot(tmp_path / "spawned") == _snapshot(tmp_path / "serial")

    def test_parallelism_guard(self, tmp_path):
        with pytest.raises(ValueError, match="parallelism must be positive"):
            run_experiment(_tiny_plan(), out_dir=tmp_path / "out", parallelism=0)
        assert not (tmp_path / "out").exists()

    def test_a_rebound_suite_function_reaches_every_run(self, tmp_path,
                                                        monkeypatch):
        # Callers may rebind benchmark.suite_function to instrument the
        # objective (the counting wrapper here); plans still load, and every
        # stack runs the function the rebound name hands out.
        plan = _tiny_plan()
        plain = run_experiment(plan, out_dir=tmp_path / "plain")
        original, rows = benchmark.suite_function, []

        def counted(name, dimension):
            fn = original(name, dimension)

            def objective(X):
                rows.append(len(X))
                return fn.objective(X)
            return dataclasses.replace(fn, objective=objective)

        monkeypatch.setattr(benchmark, "suite_function", counted)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
        rebound = run_experiment(load_plan(path), out_dir=tmp_path / "rebound")
        assert sum(rows) == 2 * 2 * 3 * plan.budget_evals
        assert np.array_equal(rebound.values, plain.values)
        assert _snapshot(tmp_path / "rebound") == _snapshot(tmp_path / "plain")


class TestLoadResults:
    def test_round_trip(self, tmp_path):
        results = run_experiment(_tiny_plan(), out_dir=tmp_path)
        loaded = load_results(tmp_path)
        assert loaded.algorithms == results.algorithms
        assert loaded.functions == results.functions
        assert np.array_equal(loaded.values, results.values)

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
            ResultSet(("a",), ("f",), np.zeros((2, 1, 3)))

    def test_arrays_are_read_only(self):
        rs = ResultSet(("a",), ("f",), np.zeros((1, 1, 2)))
        with pytest.raises(ValueError):
            rs.values[0, 0, 0] = 1.0
