"""Monte Carlo recursion traces and the estimators that sit on top of them.

Estimator checks compare single seeded traces against closed forms.  The
seeds are regression inputs chosen once and calibrated: at 1e5 post-burn-in
samples the slowly mixing reference parameters leave only a modest margin
inside the quoted tolerances, so reseeding requires recalibration.
"""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from swarmpattern import (
    AttractorMoments,
    DegenerateParameterError,
    FixedAttractors,
    IidUniformAttractors,
    IpsoParams,
    MovementPattern,
    RandomWalkAttractors,
    SampleError,
    SimConfig,
    SimTrace,
    autocorrelation,
    empirical_autocorrelation,
    empirical_focus,
    empirical_moments,
    empirical_movement_distance,
    expectation_fixed_point,
    iid_uniform_for_moments,
    ipso_to_moments,
    rho1,
    simulate,
    solve_coefficients,
    variance_fixed_point,
)
from swarmpattern.simulate import _CHUNK, _simulate

SLOW_MIXING = IpsoParams(0.73084, 1.6443, 1.0)
FAST_MIXING = IpsoParams(0.98237, 0.19824, 1.0)
REFERENCE = IpsoParams(0.7298, 1.49618, 1.0)

WIDE_IID = IidUniformAttractors((-9.0, 11.0), (-5.0, 15.0))
WALK = RandomWalkAttractors(p0=1.0, g0=5.0)

LONG = SimConfig(iterations=101_000, burn_in=1000, seed=0)

# Divergent runs whose first step past the limit falls inside a later chunk:
# omega just outside the stable region grows slowly past 1e100, and a walk
# that overflows to inf drives the positions to inf and then NaN.
LATE_DIVERGENCE = (IpsoParams(1.04, 0.1, 1.0), FixedAttractors(-2.0, 3.0),
                   SimConfig(iterations=4 * _CHUNK, seed=11, x0=0.25, x1=-7.5))
OVERFLOW = (IpsoParams(0.5, 1e-250, 1.0),
            RandomWalkAttractors(p0=1e308, g0=0.0, step_range=(8.5e306, 8.7e306)),
            SimConfig(iterations=4 * _CHUNK, seed=12, x0=0.25, x1=-7.5))


def _constant_trace(value, n):
    return SimTrace(np.full(n, float(value)))


class TestSimulate:
    def test_same_seed_is_bit_identical(self):
        config = SimConfig(iterations=5000, burn_in=0, seed=1234)
        first, p1, g1 = _simulate(SLOW_MIXING, WIDE_IID, config)
        second, p2, g2 = _simulate(SLOW_MIXING, WIDE_IID, config)
        assert np.array_equal(first.positions, second.positions)
        assert np.array_equal(p1, p2) and np.array_equal(g1, g2)
        assert np.array_equal(simulate(SLOW_MIXING, WIDE_IID, config).positions,
                              first.positions)

    def test_identity_recursion_never_moves(self):
        config = SimConfig(iterations=500, burn_in=0, seed=0, x0=3.7, x1=3.7)
        trace = simulate(IpsoParams(0.0, 0.0, 1.0), FixedAttractors(1.0, 2.0), config)
        assert np.all(trace.positions == 3.7)
        assert not trace.diverged

    def test_fixed_equal_attractors_contract_onto_them(self):
        trace = simulate(IpsoParams(0.0, 1.0, 1.0), FixedAttractors(4.0, 4.0),
                         SimConfig(iterations=20_000, burn_in=1000, seed=0))
        mean, variance = empirical_moments(trace, 1000)
        assert mean == pytest.approx(4.0, abs=1e-9)
        assert variance == pytest.approx(0.0, abs=1e-9)

    def test_trace_layout(self):
        trace, p, g = _simulate(SLOW_MIXING, WIDE_IID,
                                SimConfig(iterations=100, burn_in=0, seed=9))
        assert len(trace) == 100
        # The two seed positions predate any attractor draw.
        assert p.shape == g.shape == (98,)
        assert np.all((-9.0 <= p) & (p <= 11.0)) and np.all((-5.0 <= g) & (g <= 15.0))
        with pytest.raises(ValueError):
            trace.positions[0] = 0.0

    def test_divergence_truncates_and_flags(self):
        trace = simulate(IpsoParams(2.0, 0.1, 1.0), WIDE_IID,
                         SimConfig(iterations=5000, burn_in=0, seed=0))
        assert trace.diverged
        assert len(trace) < 5000
        last = trace.positions[-1]
        assert not np.isfinite(last) or abs(last) > 1e100
        # Every estimator shares one guard, which names the divergence.
        for what, estimate in [
                ("empirical_moments", lambda: empirical_moments(trace)),
                ("empirical_autocorrelation",
                 lambda: empirical_autocorrelation(trace, 0, 1)),
                ("empirical_movement_distance",
                 lambda: empirical_movement_distance(trace)),
                ("empirical_focus", lambda: empirical_focus(trace, 0, 0.0, 1.0))]:
            with pytest.raises(SampleError, match=(
                    f"^{what} undefined: the trace diverged at step "
                    f"{len(trace) - 1}$")):
                estimate()

    @pytest.mark.parametrize("process", [WIDE_IID, WALK, FixedAttractors(1.0, 2.0)],
                             ids=["iid", "walk", "fixed"])
    def test_two_iterations_hold_only_the_seeds(self, process):
        trace, p, g = _simulate(SLOW_MIXING, process,
                                SimConfig(iterations=2, seed=0, x0=1.5, x1=-0.5))
        assert trace.positions.tolist() == [1.5, -0.5]
        assert p.size == g.size == 0
        assert not trace.diverged

    # A coefficient slice past the float range: 1 + omega - phi1 - phi2, or
    # phi2 g.  Under the suite's warnings-as-errors this raised.
    @pytest.mark.parametrize("params", [IpsoParams(0.7, 1.7e308, 1.0),
                                        IpsoParams(0.7, 1.0, 1.7e308)],
                             ids=["lead", "pull"])
    def test_an_overflowing_coefficient_slice_diverges(self, params):
        trace = simulate(params, WIDE_IID, SimConfig(iterations=50, seed=0))
        assert trace.diverged and len(trace) < 50
        assert not abs(trace.positions[-1]) <= 1e100

    def test_config_validation(self):
        with pytest.raises(ValueError, match="iterations must be at least 2"):
            SimConfig(iterations=1, burn_in=0, seed=0)
        with pytest.raises(ValueError, match="burn_in must satisfy"):
            SimConfig(iterations=10, burn_in=10, seed=0)
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            SimConfig(iterations=10, burn_in=0, seed=2 ** 64)
        with pytest.raises(ValueError, match=r"SimConfig\.x0 must be a finite number"):
            SimConfig(iterations=10, burn_in=0, seed=0, x0=float("nan"))

    @pytest.mark.parametrize("bad", ["a", [1.0], float("inf")],
                             ids=["text", "list", "inf"])
    @pytest.mark.parametrize("name", ["x0", "x1"])
    def test_seed_positions_follow_the_field_contract(self, name, bad):
        with pytest.raises(ValueError, match=rf"SimConfig\.{name} must be a "
                           "finite number"):
            SimConfig(iterations=10, **{name: bad})
        config = SimConfig(iterations=10, **{name: 1})
        assert type(getattr(config, name)) is float
        assert SimConfig(iterations=10).x0 is None

    def test_process_validation(self):
        with pytest.raises(ValueError, match="p_range must be a finite ordered interval"):
            IidUniformAttractors((2.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="step_range must be a finite ordered interval"):
            RandomWalkAttractors(0.0, 1.0, step_range=(1.0, -1.0))
        # Finite ends whose width overflows cannot scale a uniform draw.
        with pytest.raises(ValueError, match="^p_range must be a finite "
                           "ordered interval$"):
            IidUniformAttractors((-1.7e308, 1.7e308), (0.0, 1.0))
        with pytest.raises(ValueError, match="^g_range must be a finite "
                           "ordered interval$"):
            IidUniformAttractors((0.0, 1.0), (-1e308, 1e308))
        with pytest.raises(ValueError, match="^step_range must be a finite "
                           "ordered interval$"):
            RandomWalkAttractors(0.0, 1.0, step_range=(-1.7e308, 1.7e308))
        # -0.0 - 0.0 is a negative width, which a uniform draw refuses.
        with pytest.raises(ValueError, match="p_range must be a finite ordered"):
            IidUniformAttractors((0.0, -0.0), (0.0, 1.0))
        assert IidUniformAttractors((-0.0, 0.0), (0.0, 0.0)).p_range == (-0.0, 0.0)
        with pytest.raises(ValueError,
                           match=r"FixedAttractors\.p0 must be a finite number"):
            FixedAttractors(float("inf"), 0.0)

    def test_a_trace_is_its_positions(self):
        trace = SimTrace([1, 2.5])
        assert [f.name for f in dataclasses.fields(trace)] == ["positions", "diverged"]
        assert trace.positions.dtype == float and not trace.diverged


def _scalar_reference(params, process, config):
    """The per-element form of ``simulate``: same draws, one step at a time."""
    rng = np.random.default_rng(config.seed)
    if isinstance(process, IidUniformAttractors):
        lo, hi = process.p_range
    elif isinstance(process, RandomWalkAttractors):
        lo, hi = process.p0 + process.step_range[0], process.p0 + process.step_range[1]
    else:
        lo, hi = process.p0, process.p0
    x0 = float(config.x0) if config.x0 is not None else float(rng.uniform(lo, hi))
    x1 = float(config.x1) if config.x1 is not None else float(rng.uniform(lo, hi))
    nsteps = config.iterations - 2
    c, ac = params.c, params.alpha * params.c
    phi1 = rng.uniform(min(0.0, c), max(0.0, c), nsteps)
    phi2 = rng.uniform(min(0.0, ac), max(0.0, ac), nsteps)
    if isinstance(process, IidUniformAttractors):
        p = rng.uniform(process.p_range[0], process.p_range[1], nsteps)
        g = rng.uniform(process.g_range[0], process.g_range[1], nsteps)
    elif isinstance(process, RandomWalkAttractors):
        r1 = rng.uniform(*process.step_range, nsteps)
        r2 = rng.uniform(*process.step_range, nsteps)
        p, g = np.empty(nsteps), np.empty(nsteps)
        cur_p, cur_g = process.p0, process.g0
        p[0], g[0] = cur_p, cur_g
        for j in range(1, nsteps):
            cur_p += r1[j - 1] / j
            cur_g += r2[j - 1] / j
            p[j], g[j] = cur_p, cur_g
    else:
        p, g = np.full(nsteps, process.p0), np.full(nsteps, process.g0)
    xs = np.empty(config.iterations)
    xs[0], xs[1] = x0, x1
    w = params.omega
    used, diverged = nsteps, False
    for j in range(nsteps):
        f1, f2 = float(phi1[j]), float(phi2[j])
        xs[2 + j] = ((1.0 + w - f1 - f2) * xs[1 + j] - w * xs[j]
                     + f1 * float(p[j]) + f2 * float(g[j]))
        if not math.isfinite(xs[2 + j]) or abs(xs[2 + j]) > 1e100:
            used, diverged = j + 1, True
            break
    return SimTrace(xs[:2 + used], diverged), p, g


class TestScalarOracle:
    """``simulate`` equals the per-element loop byte for byte."""

    @pytest.mark.parametrize("params, process, config", [
        (SLOW_MIXING, WIDE_IID, SimConfig(iterations=20_000, seed=5)),
        (SLOW_MIXING, WALK, SimConfig(iterations=20_000, seed=6)),
        (SLOW_MIXING, FixedAttractors(-2.0, 3.0), SimConfig(iterations=20_000, seed=7)),
        (IpsoParams(0.5, -0.8, 1.3), WIDE_IID, SimConfig(iterations=20_000, seed=8)),
        (IpsoParams(0.6, 1.2, -0.4), WALK, SimConfig(iterations=20_000, seed=9)),
        (REFERENCE, WALK, SimConfig(iterations=5000, seed=10, x0=0.25, x1=-7.5)),
        (IpsoParams(2.0, 0.1, 1.0), WIDE_IID, SimConfig(iterations=5000, seed=0)),
        LATE_DIVERGENCE,
        OVERFLOW,
        *((REFERENCE, WIDE_IID, SimConfig(iterations=n, seed=n))
          for n in (2, 3, 5, _CHUNK + 1, _CHUNK + 2, _CHUNK + 3, 2 * _CHUNK + 3)),
    ], ids=["iid", "walk", "fixed", "negative-c", "negative-alpha-c", "pinned",
            "divergent", "divergent-late", "overflow",
            *(f"steps-{k}" for k in ("0", "1", "3", "chunk-1", "chunk",
                                     "chunk+1", "2chunk+1"))])
    def test_matches_the_scalar_loop(self, params, process, config):
        trace, p, g = _simulate(params, process, config)
        # The overflow case's walk overflows on purpose in the oracle too.
        with np.errstate(over="ignore"):
            expected, want_p, want_g = _scalar_reference(params, process, config)
        assert trace.positions.tobytes() == expected.positions.tobytes()
        assert p.tobytes() == want_p.tobytes() and g.tobytes() == want_g.tobytes()
        assert trace.diverged == expected.diverged
        if trace.diverged:
            # Truncated early, ending on the offending value.
            assert len(trace) < config.iterations
            assert abs(trace.positions[-1]) > 1e100
        if config.x0 is not None:
            assert trace.positions[:2].tolist() == [config.x0, config.x1]

    def test_the_late_divergences_fall_inside_a_later_chunk(self):
        late = simulate(*LATE_DIVERGENCE)
        overflow = simulate(*OVERFLOW)
        for trace in (late, overflow):
            steps = len(trace) - 2
            assert trace.diverged and steps > _CHUNK
            assert 0 < steps % _CHUNK < _CHUNK - 1
        assert np.isfinite(late.positions[-1])
        assert overflow.positions[-1] == math.inf


class TestFootprint:
    def test_a_diverged_trace_owns_only_what_it_used(self):
        trace = simulate(IpsoParams(2.0, 0.1, 1.0), WIDE_IID,
                         SimConfig(iterations=100_000, seed=0))
        assert trace.diverged and len(trace) < 1000
        array = trace.positions
        owner = array if array.base is None else array.base
        assert owner.nbytes == 8 * len(trace)

    def test_a_returned_trace_holds_only_its_positions(self):
        simulate(REFERENCE, WIDE_IID, SimConfig(iterations=10, seed=3))
        tracemalloc.start()
        try:
            trace = simulate(REFERENCE, WIDE_IID, SimConfig(iterations=201_000, seed=3))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not trace.diverged
        assert held <= 1.1 * trace.positions.nbytes

    # Measured peaks: the four drawn streams plus the positions, 5.15x the
    # positions; the walk's division temporary while it is summed, 6.04x.
    # Full-length temporaries or a list of Python floats would add more.
    @pytest.mark.parametrize("process, bound", [(WIDE_IID, 5.7), (WALK, 6.7)],
                             ids=["iid", "walk"])
    def test_peak_memory_is_the_streams_plus_the_trace(self, process, bound):
        config = SimConfig(iterations=200_000, seed=3)
        simulate(REFERENCE, process, SimConfig(iterations=10, seed=3))
        tracemalloc.start()
        try:
            trace = simulate(REFERENCE, process, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not trace.diverged
        assert peak <= bound * trace.positions.nbytes


class TestProcessMoments:
    def test_iid_uniform_ranges_realise_the_moments(self):
        # U[mu - sqrt(3) sigma, mu + sqrt(3) sigma] has mean mu and sd sigma.
        process = iid_uniform_for_moments(AttractorMoments(1.5, 0.25, -2.0, 3.0))
        for (lo, hi), mu, sigma in ((process.p_range, 1.5, 0.25),
                                    (process.g_range, -2.0, 3.0)):
            assert (lo + hi) / 2.0 == pytest.approx(mu, rel=1e-12)
            assert (hi - lo) / math.sqrt(12.0) == pytest.approx(sigma, rel=1e-12)

    def test_zero_spread_is_a_point_range(self):
        process = iid_uniform_for_moments(AttractorMoments(2.0, 0.0, -1.0, 0.0))
        assert process.p_range == (2.0, 2.0) and process.g_range == (-1.0, -1.0)


class TestEmpiricalMoments:
    def test_constant_trace_has_zero_variance(self):
        mean, variance = empirical_moments(_constant_trace(2.5, 50), 0)
        assert mean == 2.5 and variance == 0.0

    def test_reference_run_matches_fixed_points(self):
        coeffs = ipso_to_moments(REFERENCE)
        attractors = AttractorMoments(0.0, 1.0, 0.0, 1.0)
        trace = simulate(REFERENCE, iid_uniform_for_moments(attractors),
                         SimConfig(iterations=101_000, burn_in=1000, seed=27))
        mean, variance = empirical_moments(trace, 1000)
        v_x = variance_fixed_point(coeffs, attractors)
        standard_error = math.sqrt(variance / (len(trace) - 1000))
        assert abs(mean - expectation_fixed_point(coeffs, attractors)) < 3 * standard_error
        assert variance == pytest.approx(v_x, rel=0.05)
        # The same run also carries the movement-distance law.
        movement = empirical_movement_distance(trace, 1000)
        assert movement == pytest.approx(2.0 * v_x * (1.0 - rho1(coeffs)), rel=0.05)

    def test_needs_two_samples(self):
        with pytest.raises(SampleError, match="post-burn-in samples"):
            empirical_moments(_constant_trace(0.0, 3), 2)


class TestEmpiricalAutocorrelation:
    def test_lag1_anchor_slow_mixing(self):
        trace = simulate(SLOW_MIXING, WIDE_IID, LONG)
        estimate = empirical_autocorrelation(trace, 1000, 1)
        analytic = autocorrelation(ipso_to_moments(SLOW_MIXING), 1)
        assert estimate.rho[1] == pytest.approx(analytic.rho[1], abs=0.02)

    def test_lag1_anchor_fast_mixing(self):
        trace = simulate(FAST_MIXING, WIDE_IID, LONG)
        estimate = empirical_autocorrelation(trace, 1000, 1)
        analytic = autocorrelation(ipso_to_moments(FAST_MIXING), 1)
        assert estimate.rho[1] == pytest.approx(analytic.rho[1], abs=0.02)

    def test_matches_pearson_per_lag(self):
        trace = simulate(REFERENCE, WIDE_IID, SimConfig(iterations=6000, burn_in=1000, seed=3))
        estimate = empirical_autocorrelation(trace, 1000, 10)
        window = trace.positions[1000:]
        assert estimate.rho[0] == 1.0
        for lag in range(1, 11):
            reference = np.corrcoef(window[:-lag], window[lag:])[0, 1]
            assert estimate.rho[lag] == pytest.approx(reference, abs=1e-10)

    @pytest.mark.parametrize("process", [WIDE_IID, WALK], ids=["iid", "walk"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_std_based_estimator_byte_for_byte(self, process, seed):
        trace = simulate(REFERENCE, process, SimConfig(iterations=20_000, seed=seed))
        window = trace.positions[500:]
        reference = [1.0]
        for lag in range(1, 16):
            a, b = window[:-lag], window[lag:]
            reference.append(float(np.mean((a - np.mean(a)) * (b - np.mean(b)))
                                   / (float(np.std(a)) * float(np.std(b)))))
        estimate = empirical_autocorrelation(trace, 500, 15)
        assert estimate.rho.tobytes() == np.array(reference).tobytes()

    def test_attractor_process_does_not_move_the_correlations(self):
        # Correlations depend on the coefficients alone; iid and walk runs
        # must agree within the sum of their individual tolerances.
        config = SimConfig(iterations=101_000, burn_in=1000, seed=2)
        for params in (SLOW_MIXING, FAST_MIXING):
            via_iid = empirical_autocorrelation(simulate(params, WIDE_IID, config), 1000, 20)
            via_walk = empirical_autocorrelation(simulate(params, WALK, config), 1000, 20)
            gap = max(abs(via_iid.rho[i] - via_walk.rho[i]) for i in range(1, 21))
            assert gap < 0.06

    def test_window_size_guard(self):
        with pytest.raises(SampleError, match="post-burn-in samples"):
            empirical_autocorrelation(_constant_trace(1.0, 10), 0, 8)

    def test_constant_series_has_no_correlation_structure(self):
        with pytest.raises(SampleError, match="zero-variance series"):
            empirical_autocorrelation(_constant_trace(1.0, 50), 0, 2)

    def test_constant_lag_window_is_reported(self):
        trace = SimTrace(np.array([1.0, 1.0, 1.0, 2.0]))
        with pytest.raises(SampleError, match="zero variance in the lag-1 window"):
            empirical_autocorrelation(trace, 0, 1)


class TestEmpiricalMovementDistance:
    def test_constant_trace_never_moves(self):
        assert empirical_movement_distance(_constant_trace(3.0, 20), 0) == 0.0

    def test_high_correlation_moves_less_than_it_spreads(self):
        trace = simulate(FAST_MIXING, WIDE_IID, LONG)
        _, variance = empirical_moments(trace, 1000)
        assert empirical_movement_distance(trace, 1000) < variance

    def test_needs_two_samples(self):
        with pytest.raises(SampleError, match="post-burn-in samples"):
            empirical_movement_distance(_constant_trace(0.0, 2), 1)


class TestEmpiricalFocus:
    def test_balanced_pulls_split_the_attractors_evenly(self):
        params = solve_coefficients(MovementPattern(0.3, 1.0, 1.0), alpha_sign=1)
        attractors = AttractorMoments(0.0, 1.0, 10.0, 1.0)
        trace = simulate(params, iid_uniform_for_moments(attractors), LONG)
        assert empirical_focus(trace, 1000, 0.0, 10.0) == pytest.approx(1.0, abs=0.10)

    def test_degenerate_when_mean_sits_on_the_global_attractor(self):
        with pytest.raises(DegenerateParameterError, match="coincides with mu_g"):
            empirical_focus(_constant_trace(10.0, 50), 0, 0.0, 10.0)
