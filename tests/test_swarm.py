"""Population optimizer: initialization, the step rule, and full runs."""
from __future__ import annotations

import copy
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from swarmpattern import (
    AttractorMoments,
    IpsoParams,
    LinearInertia,
    Mapso,
    Problem,
    RandomInertia,
    SuccessRateInertia,
    SwarmState,
    baseline_schedules,
    expectation_fixed_point,
    initialize,
    ipso_to_moments,
    rho1,
    run,
    run_many,
    step,
    suite_function,
    variance_fixed_point,
)
from swarmpattern import patterns, schedules, swarm
from swarmpattern.schedules import coefficient_table
from swarmpattern.swarm import _RUN_BYTES, _scale_pulls

from conftest import reference_row

ICPSO = IpsoParams(0.711897, 1.711897, 1.0)


def _sphere(dimension, half_width=5.0):
    return Problem(
        dimension=dimension,
        lower=np.full(dimension, -half_width),
        upper=np.full(dimension, half_width),
        objective=lambda X: np.sum(X * X, axis=-1),
        name="sphere",
    )


def _rngs(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def _tick(coeffs, rngs, n, d):
    """step's inertia and pulls for one tick: run r moves under coeffs[r]
    and draws its phi1 and then its phi2 from rngs[r], scaled as run_many
    scales its draws."""
    omega = np.array([p.omega for p in coeffs])
    pulls = np.stack([rng.random((2, n, d)) for rng in rngs])
    _scale_pulls(pulls, np.array([(p.c, p.alpha * p.c) for p in coeffs]))
    return omega, pulls


def _state(problem, positions, velocities, pbest, pbest_values):
    """A one-run stack; every array is copied, since step works in place."""
    positions = np.array(positions, dtype=float)[None]
    pbest = np.array(pbest, dtype=float)[None]
    pbest_values = np.array(pbest_values, dtype=float)[None]
    best = int(np.argmin(pbest_values[0]))
    return SwarmState(
        problem=problem,
        positions=positions,
        velocities=np.array(velocities, dtype=float)[None],
        pbest_positions=pbest,
        pbest_values=pbest_values,
        gbest=pbest[:, best].copy(),
        gbest_value=pbest_values[:, best].copy(),
        success_rate=np.zeros(1),
    )


class TestProblem:
    def test_validation_messages(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            _sphere(0)
        with pytest.raises(ValueError, match="vectors of length dimension"):
            Problem(3, np.zeros(2), np.ones(3), lambda x: 0.0)
        with pytest.raises(ValueError, match="bounds must be finite"):
            Problem(2, np.array([0.0, -np.inf]), np.ones(2), lambda x: 0.0)
        with pytest.raises(ValueError, match="lower < upper"):
            Problem(2, np.zeros(2), np.zeros(2), lambda x: 0.0)

    def test_bounds_are_read_only(self):
        problem = _sphere(2)
        with pytest.raises(ValueError):
            problem.lower[0] = -99.0


class TestInitialize:
    def test_population_layout(self):
        problem = _sphere(30)
        state = initialize(problem, 20, _rngs(0))
        assert state.positions.shape == (1, 20, 30)
        assert state.pbest_values.shape == (1, 20)
        assert state.gbest.shape == (1, 30)
        assert np.all(state.positions >= problem.lower)
        assert np.all(state.positions <= problem.upper)
        assert np.all(state.velocities == 0.0)
        assert np.array_equal(state.pbest_positions, state.positions)

    def test_personal_bests_are_freshly_evaluated(self):
        problem = _sphere(4)
        state = initialize(problem, 10, _rngs(3, 4))
        for r in range(2):
            for i in range(10):
                assert (state.pbest_values[r, i]
                        == problem.objective(state.positions[r, i]))
            best = int(np.argmin(state.pbest_values[r]))
            assert state.gbest_value[r] == state.pbest_values[r, best]
            assert np.array_equal(state.gbest[r], state.positions[r, best])

    def test_same_seed_same_swarm(self):
        # A run's swarm depends on its own generator only, not on the stack.
        problem = _sphere(6)
        first = initialize(problem, 8, _rngs(42))
        second = initialize(problem, 8, _rngs(7, 42, 9))
        for name in ("positions", "pbest_values", "gbest", "gbest_value"):
            assert np.array_equal(getattr(first, name)[0],
                                  getattr(second, name)[1])

    def test_pop_size_guard(self):
        with pytest.raises(ValueError, match="pop_size must be positive"):
            initialize(_sphere(2), 0, _rngs(0))
        with pytest.raises(ValueError, match="at least one generator"):
            initialize(_sphere(2), 4, [])


class TestStep:
    def test_settled_particle_is_a_fixed_point(self):
        problem = _sphere(2)
        positions = np.zeros((3, 2))
        state = _state(problem, positions, np.zeros((3, 2)), positions, [0.0, 0.0, 0.0])
        before = copy.deepcopy(state)
        step(state, *_tick([IpsoParams(0.6, 1.5, 1.0)], _rngs(0), 3, 2))
        assert np.array_equal(state.positions[0], positions)
        assert np.array_equal(state.pbest_values, before.pbest_values)

    def test_out_of_box_improvement_is_rejected(self):
        # Objective improves outside the box; the acceptance rule must hold
        # the personal best inside regardless.
        problem = Problem(1, np.zeros(1), np.ones(1),
                          lambda X: (np.asarray(X)[..., 0] - 20.0) ** 2)
        state = _state(problem, [[0.5]], [[10.0]], [[0.5]], [problem.objective([0.5])])
        before = copy.deepcopy(state)
        step(state, *_tick([IpsoParams(1.0, 0.0, 1.0)], _rngs(0), 1, 1))
        assert state.positions[0, 0, 0] == pytest.approx(10.5)
        assert problem.objective(state.positions[0, 0]) < before.pbest_values[0, 0]
        assert np.array_equal(state.pbest_positions, before.pbest_positions)
        assert np.array_equal(state.pbest_values, before.pbest_values)
        assert state.success_rate[0] == 0.0

    def test_in_box_improvement_is_accepted(self):
        problem = _sphere(2)
        state = _state(problem,
                       positions=[[3.0, 3.0], [1.0, 1.0]],
                       velocities=np.zeros((2, 2)),
                       pbest=[[3.0, 3.0], [1.0, 1.0]],
                       pbest_values=[18.0, 2.0])
        step(state, *_tick([IpsoParams(0.0, 1.49618, 1.0)], _rngs(5), 2, 2))
        assert state.pbest_values[0, 0] < 18.0
        assert not np.array_equal(state.pbest_positions[0, 0], [3.0, 3.0])
        assert state.gbest_value[0] == np.min(state.pbest_values)
        assert state.gbest_value[0] <= 2.0

    def test_flat_objective_never_updates(self):
        problem = Problem(3, -np.ones(3), np.ones(3), lambda X: np.zeros(len(X)))
        state = initialize(problem, 6, _rngs(1))
        rngs = _rngs(9)
        initial_pbest = state.pbest_positions.copy()
        for _ in range(20):
            step(state, *_tick([IpsoParams(0.7, 1.4, 1.0)], rngs, 6, 3))
            assert state.success_rate[0] == 0.0
        assert np.array_equal(state.pbest_positions, initial_pbest)
        assert state.gbest_value[0] == 0.0

    def test_non_finite_objective_is_logged_not_fatal(self, caplog):
        problem = Problem(2, -np.ones(2), np.ones(2),
                          lambda X: np.full(len(X), np.nan))
        with caplog.at_level("WARNING", logger="swarmpattern.swarm"):
            state = initialize(problem, 4, _rngs(0))
            step(state, *_tick([IpsoParams(0.7, 1.4, 1.0)], _rngs(0), 4, 2))
        assert "non-finite" in caplog.text
        assert state.gbest_value[0] == np.inf
        assert np.all(np.isinf(state.pbest_values))

    def test_only_non_finite_rows_become_inf_with_one_warning(self, caplog):
        raw = np.array([3.0, np.nan, 1.0, np.inf, -np.inf, 2.0])
        problem = Problem(1, -np.ones(1), np.ones(1), lambda X: raw.copy())
        with caplog.at_level("WARNING", logger="swarmpattern.swarm"):
            state = initialize(problem, raw.size, _rngs(0))
        assert np.array_equal(state.pbest_values,
                              [[3.0, np.inf, 1.0, np.inf, np.inf, 2.0]])
        assert state.gbest_value[0] == 1.0
        assert len(caplog.records) == 1
        assert "3 non-finite value(s) in a sweep of 6" in caplog.text

    def test_one_warning_per_sweep_of_every_run(self, caplog):
        # Stacked runs share one objective call per tick, hence one warning
        # that counts the rows of all of them.
        raw = np.array([3.0, np.nan, 1.0, np.inf, -np.inf, 2.0])
        problem = Problem(1, -np.ones(1), np.ones(1),
                          lambda X: np.tile(raw, len(X) // raw.size))
        with caplog.at_level("WARNING", logger="swarmpattern.swarm"):
            state = initialize(problem, raw.size, _rngs(0, 1, 2))
            assert len(caplog.records) == 1
            assert "9 non-finite value(s) in a sweep of 18" in caplog.text
            step(state, *_tick([IpsoParams(0.7, 1.4, 1.0)] * 3,
                                _rngs(3, 4, 5), 6, 1))
        assert len(caplog.records) == 2
        assert np.array_equal(state.gbest_value, [1.0, 1.0, 1.0])

    def test_a_tick_without_a_better_value_changes_only_the_success_rate(
            self, monkeypatch):
        # Pulls are zero, so each particle moves by its velocity.
        # Tick one: run 0's first particle improves and run 1 only moves
        # away from its bests.  Tick two (inertia 0): no value beats its
        # personal best, so step leaves before the in-box test.
        problem = _sphere(1)
        x = np.array([[[2.0], [3.0]], [[1.0], [-2.0]]])
        state = SwarmState(
            problem=problem, positions=x.copy(),
            velocities=np.array([[[-1.0], [0.0]], [[1.0], [-1.0]]]),
            pbest_positions=x.copy(), pbest_values=x[..., 0] ** 2,
            gbest=np.array([[2.0], [1.0]]), gbest_value=np.array([4.0, 1.0]),
            success_rate=np.full(2, 0.5))
        gbest_takes = []
        take_gbest = swarm._take_gbest

        def counted(s):
            gbest_takes.append(1)
            take_gbest(s)

        monkeypatch.setattr(swarm, "_take_gbest", counted)
        pulls = np.zeros((2, 2, 2, 1))
        before = copy.deepcopy(state)
        step(state, np.ones(2), pulls)
        assert len(gbest_takes) == 1
        assert np.array_equal(state.pbest_values[0], [1.0, 9.0])
        assert np.array_equal(state.gbest[0], [1.0])
        assert state.success_rate[0] == 0.5
        for name in ("pbest_positions", "pbest_values", "gbest", "gbest_value"):
            assert np.array_equal(getattr(state, name)[1],
                                  getattr(before, name)[1]), name
        assert state.success_rate[1] == 0.0
        before = copy.deepcopy(state)
        step(state, np.zeros(2), pulls)
        assert len(gbest_takes) == 1
        for name in ("positions", "pbest_positions", "pbest_values", "gbest",
                     "gbest_value"):
            assert np.array_equal(getattr(state, name),
                                  getattr(before, name)), name
        assert np.array_equal(state.success_rate, [0.0, 0.0])
        assert not np.signbit(state.success_rate).any()

    def test_a_non_finite_sweep_improves_nothing(self, caplog):
        # -inf would beat every personal best unless it became inf first.
        raw = np.array([-np.inf, np.nan, -np.inf, np.inf])
        calls = iter([lambda X: np.sum(X * X, axis=-1), lambda X: raw])
        problem = Problem(2, -np.ones(2), np.ones(2),
                          lambda X: next(calls)(X))
        state = initialize(problem, 4, _rngs(0))
        before = copy.deepcopy(state)
        with caplog.at_level("WARNING", logger="swarmpattern.swarm"):
            step(state, *_tick([IpsoParams(0.7, 1.4, 1.0)], _rngs(1), 4, 2))
        assert len(caplog.records) == 1
        assert "4 non-finite value(s) in a sweep of 4" in caplog.text
        for name in ("pbest_positions", "pbest_values", "gbest", "gbest_value"):
            assert np.array_equal(getattr(state, name),
                                  getattr(before, name)), name
        assert state.success_rate[0] == 0.0

    @pytest.mark.parametrize("raw", [[3.0, 1.0, 2.0, 5.0],
                                     [3.0, np.nan, -np.inf, 2.0]])
    def test_the_objective_s_array_is_read_never_written_or_kept(self, raw):
        # An objective may hand back the same read-only array every call.
        raw = np.array(raw)
        raw.setflags(write=False)
        expected = raw.copy()
        problem = Problem(1, -np.ones(1), np.ones(1), lambda X: raw)
        state = initialize(problem, raw.size, _rngs(0))
        rngs = _rngs(1)
        for _ in range(3):
            step(state, *_tick([IpsoParams(0.7, 1.4, 1.0)], rngs, raw.size, 1))
        assert np.array_equal(raw, expected, equal_nan=True)
        assert not np.shares_memory(raw, state.pbest_values)

    def test_fields_cannot_be_reassigned(self):
        # step caches buffers by the state's shapes; a field of another
        # population size would break them, so no field may be replaced.
        state = initialize(_sphere(3), 4, _rngs(0, 1))
        grown = np.zeros((2, 6, 3))
        with pytest.raises(dataclasses.FrozenInstanceError,
                           match="'positions'"):
            state.positions = grown
        assert state.positions.shape == (2, 4, 3)

    def test_one_inertia_and_one_pull_pair_per_run(self):
        state = initialize(_sphere(2), 4, _rngs(0, 1))
        with pytest.raises(ValueError, match=r"for 2 runs of 4x2; need "
                                             r"\(2,\) and \(2, 2, 4, 2\)"):
            step(state, *_tick([ICPSO], _rngs(2), 4, 2))
        omega, pulls = _tick([ICPSO] * 2, _rngs(2, 3), 4, 2)
        with pytest.raises(ValueError, match="need"):
            step(state, omega, pulls[:, :1])

    @pytest.mark.parametrize("omega, c, alpha", [
        (0.711897, 1.711897, 1.0), (0.0, 1.49618, 0.3), (-0.4, 0.9, 2.5),
        (0.5, -1.3, 0.5), (0.6, 1.2, -1.5)])
    def test_matches_the_uniform_draw_reference(self, omega, c, alpha):
        # The velocity rule with phi1 ~ U[min(0, c), max(0, c)] and phi2 on
        # alpha*c, drawn per run with Generator.uniform, phi1 first, against
        # step fed the standard draws scaled as run_many scales them.
        problem = _sphere(3)
        state = initialize(problem, 6, _rngs(1, 2, 3))
        noise = np.random.default_rng(4).normal(size=(2, 3, 6, 3))
        state.velocities[:] = noise[0]
        state.positions[:] += noise[1]  # off their personal bests
        before = copy.deepcopy(state)
        step(state, *_tick([IpsoParams(omega, c, alpha)] * 3,
                           _rngs(7, 8, 9), 6, 3))
        for r, rng in enumerate(_rngs(7, 8, 9)):
            phi1 = rng.uniform(min(0.0, c), max(0.0, c), (6, 3))
            ac = alpha * c
            phi2 = rng.uniform(min(0.0, ac), max(0.0, ac), (6, 3))
            x = before.positions[r]
            v = (omega * before.velocities[r]
                 + phi1 * (before.pbest_positions[r] - x)
                 + phi2 * (before.gbest[r] - x))
            if c >= 0 and ac >= 0:
                # Generator.uniform(0, b) is the product b * u alone: exact.
                assert np.array_equal(state.velocities[r], v)
                assert np.array_equal(state.positions[r], x + v)
            else:
                # A negative bound adds its shift after the product, which
                # Generator.uniform may fuse into one rounding.
                np.testing.assert_allclose(state.velocities[r], v,
                                           rtol=0, atol=1e-13)
                np.testing.assert_allclose(state.positions[r], x + v,
                                           rtol=0, atol=1e-13)

    def test_each_run_moves_as_it_would_alone(self):
        problem = _sphere(3)
        stacked = initialize(problem, 5, _rngs(10, 11))
        alone = [initialize(problem, 5, _rngs(seed)) for seed in (10, 11)]
        coeffs = [IpsoParams(0.5, 1.2, 1.0), IpsoParams(0.9, 1.7, 0.5)]
        stacked_rngs, alone_rngs = _rngs(20, 21), _rngs(20, 21)
        for _ in range(15):
            step(stacked, *_tick(coeffs, stacked_rngs, 5, 3))
            for r in range(2):
                step(alone[r], *_tick(coeffs[r:r + 1], alone_rngs[r:r + 1],
                                      5, 3))
        for r in range(2):
            for name in ("positions", "velocities", "pbest_positions",
                         "pbest_values", "gbest", "gbest_value", "success_rate"):
                assert np.array_equal(getattr(stacked, name)[r],
                                      getattr(alone[r], name)[0]), name

    def test_scalar_for_a_batch_breaks_the_contract(self):
        problem = Problem(2, -np.ones(2), np.ones(2),
                          lambda x: float(np.sum(x * x)))
        with pytest.raises(ValueError, match=r"f\(X\[n, d\]\) -> y\[n\]"):
            initialize(problem, 4, _rngs(0))


def _batch_means_se(y):
    # Standard error of the mean of a correlated series, batch length
    # floor(sqrt(n)) (Flegal & Jones 2010).
    b = int(np.sqrt(y.size))
    a = y.size // b
    means = y[:a * b].reshape(a, b).mean(axis=1)
    return float(np.sqrt(np.var(means, ddof=1) / a))


class TestStagnation:
    """A flat objective never improves a personal best, so pbest and gbest
    stay frozen and every coordinate of every particle follows the scalar
    recursion whose moments :mod:`swarmpattern.moments` solves."""

    COEFFS = IpsoParams(0.6, 1.2, 1.0)
    TICKS, BURN_IN = 20_000, 500
    Z_LIMIT = 6.0  # batch-means standard errors; seeds 0-11 stayed below 4

    @pytest.mark.parametrize("seed", range(5))
    def test_frozen_swarm_settles_to_the_analytic_moments(self, seed):
        problem = Problem(3, -np.ones(3), np.ones(3), lambda X: np.zeros(len(X)))
        state = initialize(problem, 10, _rngs(seed))
        pbest = state.pbest_positions[0].copy()
        # Every tick's phi1 and phi2 in one draw: the stream a tick-by-tick
        # draw reads, in the same order.
        pulls = np.random.default_rng(seed).random((self.TICKS, 1, 2, 10, 3))
        c = self.COEFFS.c
        _scale_pulls(pulls, np.array([c, self.COEFFS.alpha * c]))
        omega = np.array([self.COEFFS.omega])
        trace = np.empty((self.TICKS, 10, 3))
        for t in range(self.TICKS):
            step(state, omega, pulls[t])
            trace[t] = state.positions[0]
        assert np.array_equal(state.pbest_positions[0], pbest)
        gbest = state.gbest[0]
        assert np.array_equal(gbest, pbest[0])
        x = trace[self.BURN_IN:]

        # Particle 0 is its own global best: p = g leaves it nothing to orbit.
        assert np.max(np.abs(x[:, 0] - gbest)) <= 1e-12

        coeffs = ipso_to_moments(self.COEFFS)
        lag1 = rho1(coeffs)
        for i in range(1, 10):
            for j in range(3):
                attractors = AttractorMoments(pbest[i, j], 0.0, gbest[j], 0.0)
                series = x[:, i, j]
                centred = series - series.mean()
                var_hat = np.mean(centred ** 2)
                # Lag-1 by its linearised estimator (gamma_1 - rho1 gamma_0) / gamma_0.
                y = (centred[:-1] * centred[1:] - lag1 * centred[:-1] ** 2) / var_hat
                z = {
                    "mean": (series.mean() - expectation_fixed_point(coeffs, attractors))
                    / _batch_means_se(series),
                    "variance": (var_hat - variance_fixed_point(coeffs, attractors))
                    / _batch_means_se(centred ** 2),
                    "rho1": np.mean(y) / _batch_means_se(y),
                }
                for name, value in z.items():
                    assert abs(value) < self.Z_LIMIT, (i, j, name, value)


class TestRun:
    def test_invariants_on_a_short_run(self):
        problem = _sphere(3)
        result = run(problem, ICPSO, pop_size=10, budget_evals=600, seed=7)
        evals, values = zip(*result.history)
        assert list(evals) == [10 * (1 + i) for i in range(len(evals))]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert result.best_value == values[-1]
        assert problem.objective(result.best_position) == pytest.approx(result.best_value)

    def test_gbest_never_rises_and_pbest_stays_in_the_box(self):
        problem = _sphere(2)
        state = initialize(problem, 8, _rngs(11))
        rngs = _rngs(11)
        last = state.gbest_value[0]
        for _ in range(40):
            step(state, *_tick([ICPSO], rngs, 8, 2))
            assert state.gbest_value[0] <= last
            last = state.gbest_value[0]
            assert np.all(state.pbest_positions >= problem.lower)
            assert np.all(state.pbest_positions <= problem.upper)

    def test_budget_equal_to_population_takes_no_steps(self):
        problem = _sphere(5)
        result = run(problem, ICPSO, pop_size=12, budget_evals=12, seed=3)
        assert result.history == ((12, result.best_value),)
        fresh = initialize(problem, 12, _rngs(3))
        assert result.best_value == fresh.gbest_value[0]
        assert np.array_equal(result.best_position, fresh.gbest[0])

    def test_partial_final_sweep_still_counts_whole_steps(self):
        result = run(_sphere(2), ICPSO, pop_size=10, budget_evals=25, seed=0)
        evals = [e for e, _ in result.history]
        assert evals == [10, 20, 30]

    def test_identical_runs_are_identical(self):
        problem = _sphere(4)
        for schedule in (ICPSO, Mapso(), LinearInertia(0.9, 0.4),
                         RandomInertia(), SuccessRateInertia()):
            first = run(problem, schedule, 10, 800, seed=21)
            second = run(problem, schedule, 10, 800, seed=21)
            assert first.best_value == second.best_value
            assert np.array_equal(first.best_position, second.best_position)
            assert first.history == second.history

    def test_input_guards(self):
        with pytest.raises(ValueError, match="pop_size must be positive"):
            run(_sphere(2), ICPSO, 0, 100, seed=0)
        with pytest.raises(ValueError, match="cover at least the initial sweep"):
            run(_sphere(2), ICPSO, 10, 9, seed=0)
        with pytest.raises(ValueError, match="at least one generator"):
            run_many(_sphere(2), [], 10, 100, [])
        with pytest.raises(ValueError, match="one schedule per seed, got 1 "
                           "for 2 seeds"):
            run_many(_sphere(2), [ICPSO], 10, 100, [0, 1])

    def test_schedule_work_is_one_table_not_per_tick(self, monkeypatch):
        calls = {"table": 0, "profile": 0, "solve": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(swarm, "coefficient_table",
                            counted("table", coefficient_table))
        monkeypatch.setattr(schedules, "_mapso_profile",
                            counted("profile", schedules._mapso_profile))
        monkeypatch.setattr(patterns, "_solve",
                            counted("solve", patterns._solve))
        schedules._table.cache_clear()
        results = run_many(_sphere(2), [Mapso()] * 2, 4, 4 * 2_001, [0, 1])
        assert len(results[0].history) == 2_001
        assert schedules._table.cache_info().misses == 1
        assert calls == {"table": 1, "profile": 1, "solve": 1}

    def test_sphere_oracle_across_fifty_seeds(self):
        # Desk-scale sanity threshold: the constant-coefficient baseline
        # should land far below 1e-1 on the 10-d sphere nearly always.
        # Each run of the stack is its lone run() bit for bit.
        fn = suite_function("sphere", 10)
        results = run_many(fn.problem(), [ICPSO] * 50, 20, 50_000, range(50))
        successes = sum(result.best_value < 1e-1 for result in results)
        assert successes >= 45


def _reference_run(problem, schedule, pop_size, budget_evals, seed):
    """One run by the per-tick loop: the schedule's reference row (and
    draw), then phi1 and phi2 drawn with Generator.uniform, then the
    velocity rule.
    Assumes finite objective values and non-negative pull bounds."""
    rng = np.random.default_rng(seed)
    n, d = pop_size, problem.dimension
    t_max = budget_evals // n
    steps = -(-budget_evals // n) - 1
    x = rng.uniform(problem.lower, problem.upper, (n, d))
    v = np.zeros_like(x)
    pbest, pvalues = x.copy(), problem.objective(x)
    rate = 0.0
    best = [pvalues.min()]
    for t in range(steps):
        omega, c, alpha = reference_row(schedule, t, t_max, rng, rate)
        phi1 = rng.uniform(0.0, c, (n, d))
        phi2 = rng.uniform(0.0, alpha * c, (n, d))
        g = pbest[np.argmin(pvalues)]
        v = omega * v + phi1 * (pbest - x) + phi2 * (g - x)
        x = x + v
        values = problem.objective(x)
        in_box = np.all((x >= problem.lower) & (x <= problem.upper), axis=1)
        improved = in_box & (values < pvalues)
        pbest[improved] = x[improved]
        pvalues[improved] = values[improved]
        rate = improved.sum() / n
        best.append(pvalues.min())
    evals = [n * (1 + t) for t in range(steps + 1)]
    return (float(pvalues.min()), pbest[np.argmin(pvalues)],
            tuple(zip(evals, map(float, best))))


SCHEDULE_KINDS = {"constant": ICPSO, "mapso": Mapso(),
                  "linear": LinearInertia(0.9, 0.4), "random": RandomInertia(),
                  "success": SuccessRateInertia()}


class TestBlockDraws:
    """run_many draws each run's uniforms a block of ticks at a time; every
    run must still read its stream in the per-tick loop's order."""

    def _assert_matches_reference(self, problem, schedule, pop_size, steps,
                                  seeds):
        budget = pop_size * (steps + 1)
        results = run_many(problem, [schedule] * len(seeds), pop_size, budget,
                           seeds)
        for seed, result in zip(seeds, results):
            value, position, history = _reference_run(problem, schedule,
                                                      pop_size, budget, seed)
            assert result.best_value == value, (steps, seed)
            assert result.best_position.tobytes() == position.tobytes()
            assert result.history == history, (steps, seed)

    @pytest.mark.parametrize("seeds", [(11,), (5, 6, 7)])
    @pytest.mark.parametrize("kind", sorted(SCHEDULE_KINDS))
    def test_every_block_boundary_matches_the_per_tick_loop(self, kind, seeds):
        n, d = 16, 16
        schedule = SCHEDULE_KINDS[kind]
        block = _RUN_BYTES // (8 * (1 + 2 * n * d))
        assert block > 2
        for steps in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            self._assert_matches_reference(_sphere(d), schedule, n, steps,
                                           seeds)

    def test_one_tick_blocks_when_a_tick_outgrows_the_run_budget(self):
        n, d, seeds = 40, 1000, (1, 2, 3)
        assert _RUN_BYTES // (8 * (1 + 2 * n * d)) == 0
        for schedule in SCHEDULE_KINDS.values():
            self._assert_matches_reference(_sphere(d), schedule, n, 3, seeds)


class TestMixedStack:
    """Runs under different schedules step in one stack; each must still be
    its own run() bit for bit, down to the inertia it is handed."""

    def test_every_run_equals_its_own_run(self, monkeypatch):
        # A -0.0 inertia keeps its sign only if the terms its rule weights
        # by zero are left out, not added as 0.0 (-0.0 + 0.0 is 0.0).
        stock = list(baseline_schedules().values())
        schedules = [*stock, IpsoParams(omega=-0.0, c=1.2, alpha=1.0)] * 3
        seeds = range(40, 40 + len(schedules))
        problem = suite_function("shifted_rastrigin", 3).problem()
        n, steps = 20, 200
        # One run's draws per tick set the block length, however many runs
        # the stack holds; the run crosses blocks.
        assert 1 < _RUN_BYTES // (8 * (1 + 2 * n * 3)) < steps
        inertia = []

        def recording(state, omega, pulls):
            inertia.append(omega.copy())
            step(state, omega, pulls)

        monkeypatch.setattr(swarm, "step", recording)
        results = run_many(problem, schedules, n, n * (steps + 1), seeds)
        stacked = np.array(inertia)
        assert np.signbit(stacked[:, len(stock)]).all()
        for r, (schedule, seed) in enumerate(zip(schedules, seeds)):
            inertia.clear()
            alone = run(problem, schedule, n, n * (steps + 1), seed)
            assert results[r].seed == seed
            assert results[r].best_value == alone.best_value, schedule
            assert (results[r].best_position.tobytes()
                    == alone.best_position.tobytes())
            assert results[r].history == alone.history
            assert stacked[:, r].tobytes() == np.concatenate(inertia).tobytes()

    def test_a_diverging_run_sinks_no_neighbour(self, caplog):
        # Tier-1 turns warnings into errors: the diverging run's overflow
        # must neither raise nor take the healthy run down with it.
        problem = suite_function("sphere", 2)
        schedules, seeds = [ICPSO, IpsoParams(1.5, 1.5, 1.0)], [1, 2]
        n, budget = 20, 30_000
        with caplog.at_level("WARNING", logger="swarmpattern.swarm"):
            results = run_many(problem, schedules, n, budget, seeds)
        assert "non-finite" in caplog.text  # the second run did diverge
        healthy = run(problem, ICPSO, n, budget, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            diverged = run(problem, schedules[1], n, budget, 2)
        for result, alone in zip(results, (healthy, diverged)):
            assert result.best_value == alone.best_value
            assert (result.best_position.tobytes()
                    == alone.best_position.tobytes())
            assert result.best_so_far.tobytes() == alone.best_so_far.tobytes()

    def test_signed_zero_inertia_is_its_own_schedule(self, monkeypatch):
        # Equal as dataclasses, since -0.0 == 0.0, but not the same run.
        inertia = []

        def recording(state, omega, pulls):
            inertia.append(omega.copy())
            step(state, omega, pulls)

        monkeypatch.setattr(swarm, "step", recording)
        run_many(_sphere(2), [IpsoParams(0.0, 1.2, 1.0),
                              IpsoParams(-0.0, 1.2, 1.0)], 4, 40, [1, 2])
        signs = np.signbit(np.array(inertia))
        assert len(inertia) == 9
        assert not signs[:, 0].any() and signs[:, 1].all()


class TestBlockLength:
    """The per-run byte budget sets how many ticks a block holds; no block
    length may change any run's result or the inertia it is handed."""

    def _stack(self, monkeypatch, problem, schedules, n, steps, block=None):
        """Each run's results and received inertia, with the budget set so
        that blocks hold ``block`` ticks (the default budget if None)."""
        width = 1 + 2 * n * problem.dimension
        budget = _RUN_BYTES if block is None else 8 * width * block
        expected = max(1, min(steps, budget // (8 * width)))
        inertia = []

        def recording(state, omega, pulls):
            assert pulls.base.shape[1] == expected  # the block's tick count
            inertia.append(omega.copy())
            step(state, omega, pulls)

        with monkeypatch.context() as patched:
            patched.setattr(swarm, "_RUN_BYTES", budget)
            patched.setattr(swarm, "step", recording)
            results = run_many(problem, schedules, n, n * (steps + 1),
                               range(60, 60 + len(schedules)))
        return results, np.array(inertia)

    def test_every_block_length_gives_the_same_runs(self, monkeypatch):
        schedules = [*baseline_schedules().values(),
                     IpsoParams(omega=-0.0, c=1.2, alpha=1.0)]
        problem = suite_function("shifted_rastrigin", 3).problem()
        n, steps = 20, 150
        assert 1 < _RUN_BYTES // (8 * (1 + 2 * n * 3)) < steps
        default, inertia = self._stack(monkeypatch, problem, schedules, n,
                                       steps)
        for block in (1, 2, 3, steps):
            results, got = self._stack(monkeypatch, problem, schedules, n,
                                       steps, block)
            assert got.tobytes() == inertia.tobytes(), block
            for alone, result in zip(default, results):
                assert result.best_value == alone.best_value, block
                assert (result.best_position.tobytes()
                        == alone.best_position.tobytes())
                assert result.history == alone.history, block


class TestResultMemory:
    """A stack keeps one best-so-far array; each result holds its column."""

    def _stack(self):
        schedules = list(baseline_schedules().values()) * 2
        return (suite_function("sphere", 2), schedules, 10, 20_000,
                range(len(schedules)))

    def test_each_result_holds_a_read_only_column_of_one_array(self):
        results = run_many(*self._stack())
        owner = results[0].best_so_far.base
        assert owner.shape == (2_000, 12)
        for r, result in enumerate(results):
            column = result.best_so_far
            assert column.base is owner and not column.flags.writeable
            assert column[-1] == result.best_value
            assert result.history == tuple(zip(range(10, 20_001, 10),
                                               owner[:, r].tolist()))

    def test_memory_held_after_return_is_about_the_array(self):
        # Measured: 200 kB held against the 192 kB array; a tuple of
        # (evals, best) tuples per run, as results once held, took 2.8 MB.
        problem, schedules, n, budget, seeds = self._stack()
        # Neither the table cache nor a first call's lazy imports are the
        # results' memory.
        for spec in schedules:
            coefficient_table(spec, budget // n)
        run_many(problem, schedules, n, 2 * n, seeds)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            results = run_many(problem, schedules, n, budget, seeds)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        rows = budget // n  # the initial sweep and 1 999 ticks
        assert len(results) == 12 and len(results[0].history) == rows
        assert held <= 2 * rows * len(results) * 8
