"""Movement-pattern layer: autocorrelation, search range, focus, the solver."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpattern import (
    AttractorMoments,
    AutocorrelationSeq,
    CoefficientMoments,
    ConsistencyError,
    DegenerateParameterError,
    IpsoParams,
    MovementPattern,
    autocorrelation,
    convergence_report,
    expected_movement_distance,
    focus,
    gamma,
    ipso_to_moments,
    is_order2_convergent,
    rho1,
    solve_coefficients,
    vc,
)

from conftest import UNSTABLE

SLOW_MIXING = IpsoParams(0.73084, 1.6443, 1.0)
FAST_MIXING = IpsoParams(0.98237, 0.19824, 1.0)
PURE_RANDOM = IpsoParams(0.0, 1.0, 1.0)

FIGURE_TARGETS = [
    MovementPattern(-0.8, 0.1, 1.0),
    MovementPattern(-0.1, 8.0, 1.0),
    MovementPattern(0.1, 0.15, 1.0),
    MovementPattern(0.8, 3.0, 1.0),
]


class TestIpsoToMoments:
    def test_unit_coefficients(self):
        coeffs = ipso_to_moments(PURE_RANDOM)
        assert coeffs.mu_omega == 0.0 and coeffs.sigma_omega == 0.0
        assert coeffs.mu_phi1 == pytest.approx(0.5)
        assert coeffs.mu_phi2 == pytest.approx(0.5)
        assert coeffs.sigma_phi1 == pytest.approx(1.0 / math.sqrt(12.0))
        assert coeffs.sigma_phi2 == pytest.approx(1.0 / math.sqrt(12.0))

    def test_zero_c_kills_both_pulls(self):
        coeffs = ipso_to_moments(IpsoParams(0.7, 0.0, 1.0))
        assert coeffs.mu_phi1 == 0.0 and coeffs.sigma_phi1 == 0.0
        assert coeffs.mu_phi2 == 0.0 and coeffs.sigma_phi2 == 0.0

    def test_negative_alpha_keeps_spread_non_negative(self):
        coeffs = ipso_to_moments(IpsoParams(0.5, 2.0, -3.0))
        assert coeffs.mu_phi2 == pytest.approx(-3.0)
        assert coeffs.sigma_phi2 == pytest.approx(6.0 / math.sqrt(12.0))

    def test_rejects_non_finite_fields(self):
        with pytest.raises(ValueError,
                           match=r"IpsoParams\.omega must be a finite number"):
            IpsoParams(float("inf"), 1.0, 1.0)


class TestRho1:
    def test_slow_mixing_anchor(self):
        assert rho1(ipso_to_moments(SLOW_MIXING)) == pytest.approx(0.0500, abs=1e-4)

    def test_fast_mixing_anchor(self):
        assert rho1(ipso_to_moments(FAST_MIXING)) == pytest.approx(0.9000, abs=1e-4)

    def test_pure_random_search_is_uncorrelated(self):
        assert rho1(ipso_to_moments(PURE_RANDOM)) == 0.0

    def test_degenerate_at_inertia_minus_one(self):
        coeffs = CoefficientMoments(-1.0, 0.0, 0.5, 0.0, 0.5, 0.0)
        with pytest.raises(DegenerateParameterError, match="mu_omega = -1"):
            rho1(coeffs)


class TestAutocorrelation:
    def test_pure_random_search_is_zero_at_every_lag(self):
        seq = autocorrelation(ipso_to_moments(PURE_RANDOM), 20)
        assert seq.rho[0] == 1.0
        assert np.all(seq.rho[1:] == 0.0)
        assert seq.rho.size == 21

    def test_perfectly_correlated_start_stays_correlated(self):
        # mu_l - 1 = mu_omega forces rho1 = 1; the recursion then fixes
        # every later lag at 1 as well.
        coeffs = CoefficientMoments(0.5, 0.0, 0.3, 0.0, -0.3, 0.0)
        seq = autocorrelation(coeffs, 10)
        assert seq.rho[1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(seq.rho, 1.0, atol=1e-12)

    def test_zero_lag1_reflects_inertia_at_lag2(self):
        # mu_l = 0 gives rho1 = 0 and rho2 = -mu_omega.
        coeffs = CoefficientMoments(0.5, 0.0, 0.75, 0.0, 0.75, 0.0)
        seq = autocorrelation(coeffs, 2)
        assert seq.rho[1] == pytest.approx(0.0, abs=1e-15)
        assert seq.rho[2] == pytest.approx(-0.5, abs=1e-12)

    def test_max_lag_zero_returns_the_trivial_sequence(self):
        seq = autocorrelation(ipso_to_moments(SLOW_MIXING), 0)
        assert seq.rho.size == 1 and seq.rho[0] == 1.0

    def test_negative_max_lag_rejected(self):
        with pytest.raises(ValueError, match="max_lag must be non-negative"):
            autocorrelation(ipso_to_moments(SLOW_MIXING), -1)

    def test_degenerate_at_inertia_minus_one(self):
        coeffs = CoefficientMoments(-1.0, 0.0, 0.5, 0.0, 0.5, 0.0)
        with pytest.raises(DegenerateParameterError, match="mu_omega = -1"):
            autocorrelation(coeffs, 5)

    @settings(max_examples=300, deadline=None)
    @given(mu_omega=st.floats(-0.9, 0.9), mu_phi1=st.floats(-1.0, 1.0),
           mu_phi2=st.floats(-1.0, 1.0))
    def test_lag2_matches_its_closed_form(self, mu_omega, mu_phi1, mu_phi2):
        coeffs = CoefficientMoments(mu_omega, 0.0, mu_phi1, 0.0, mu_phi2, 0.0)
        spread = mu_phi1 + mu_phi2
        closed = 1.0 - 2.0 * spread + spread * spread / (mu_omega + 1.0)
        seq = autocorrelation(coeffs, 2)
        assert abs(seq.rho[2] - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_stable_sets_stay_bounded(self, stable_sets):
        for _, coeffs, _ in stable_sets:
            seq = autocorrelation(coeffs, 100)
            assert np.max(np.abs(seq.rho)) <= 1.0 + 1e-9

    def test_only_pure_random_search_is_flat(self, stable_sets):
        for _, coeffs, _ in stable_sets:
            seq = autocorrelation(coeffs, 20)
            assert np.max(np.abs(seq.rho[1:])) > 1e-6

    def test_sequence_type_validation(self):
        with pytest.raises(ValueError, match=r"rho\[0\] must be exactly 1"):
            AutocorrelationSeq(np.array([0.9, 0.1]))
        with pytest.raises(ValueError, match="non-empty 1-d array"):
            AutocorrelationSeq(np.zeros((2, 2)))


class TestMovementDistance:
    def test_perfect_correlation_means_no_movement(self):
        assert expected_movement_distance(7.3, 1.0) == 0.0

    def test_uncorrelated_movement_is_twice_the_variance(self):
        assert expected_movement_distance(1.0, 0.0) == pytest.approx(2.0)


class TestGamma:
    def test_point_attractors_at_the_same_spot(self):
        assert gamma(AttractorMoments(3.0, 0.0, 3.0, 0.0), 1.0) == 0.0

    def test_alpha_zero_leaves_only_the_personal_term(self):
        assert gamma(AttractorMoments(1.0, 1.0, 1.0, 5.0), 0.0) == pytest.approx(2.0)

    def test_direct_substitution(self):
        assert gamma(AttractorMoments(0.0, 1.0, 2.0, 1.0), 1.0) == pytest.approx(20.0)

    def test_an_overflowing_gamma_names_itself(self):
        # alpha ** 2 past the float range raised a bare OverflowError.
        with pytest.raises(DegenerateParameterError,
                           match="^attractor factor gamma overflows$"):
            gamma(AttractorMoments(0.0, 1.0, 0.0, 1.0), 1e200)


class TestVc:
    def test_solver_target_round_trip(self):
        params = solve_coefficients(MovementPattern(0.5, 1.0, 1.0))
        assert vc(params) == pytest.approx(1.0, rel=1e-9)

    def test_reference_parameters_have_positive_range(self):
        assert vc(IpsoParams(0.7298, 1.49618, 1.0)) > 0.0

    def test_an_overflowing_vc_names_itself(self):
        # alpha c is finite, but alpha ** 2 is past the float range.
        with pytest.raises(DegenerateParameterError,
                           match="^variance coefficient overflows$"):
            vc(IpsoParams(0.7, 1e-200, 1e200))

    def test_zero_c_means_zero_range(self):
        assert vc(IpsoParams(0.5, 0.0, 1.0)) == 0.0

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateParameterError, match="denominator vanishes"):
            vc(IpsoParams(1.0, 0.0, 1.0))


def _c_reaching(target_vc, omega, alpha):
    """Pull range giving ``vc == target_vc`` at fixed omega and alpha, by root search.

    For ``|omega| < 1`` the reciprocal ``1 / vc`` falls monotonically and without
    a pole from +inf (c -> 0+) to ``-(m2 - m1 omega) / (omega + 1)``, so one sign
    change brackets the root.
    """
    def excess(c):
        return 1.0 / vc(IpsoParams(omega, c, alpha)) - 1.0 / target_vc

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return scipy.optimize.brentq(excess, 1e-12, hi, xtol=1e-15)


class TestCForVc:
    """The pull range reaching a target vc at fixed omega and alpha is the one
    :func:`solve_coefficients` returns for the pattern it realises."""

    @pytest.mark.parametrize("target_vc", [0.05, 0.5, 3.0, 30.0])
    @pytest.mark.parametrize("omega", [-0.5, 0.0, 0.7])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_inverse_of_vc(self, target_vc, omega, alpha):
        c = _c_reaching(target_vc, omega, alpha)
        params = IpsoParams(omega, c, alpha)
        assert vc(params) == pytest.approx(target_vc, rel=1e-9)
        solved = solve_coefficients(
            MovementPattern(rho1(ipso_to_moments(params)), target_vc, alpha ** 2))
        assert solved.omega == pytest.approx(omega, rel=1e-9, abs=1e-9)
        assert solved.c == pytest.approx(c, rel=1e-9)

    def test_agrees_with_the_full_solver(self):
        params = solve_coefficients(MovementPattern(0.8, 3.0, 1.0))
        assert _c_reaching(3.0, params.omega, 1.0) == pytest.approx(params.c, rel=1e-9)


class TestFocus:
    def test_balanced_search(self):
        assert focus(ipso_to_moments(IpsoParams(0.5, 1.2, 1.0))) == pytest.approx(1.0)

    def test_square_of_alpha(self):
        assert focus(ipso_to_moments(IpsoParams(0.5, 1.2, -3.0))) == pytest.approx(9.0)

    def test_direct_ratio(self):
        coeffs = CoefficientMoments(0.0, 0.0, 0.2, 0.0, 0.4, 0.0)
        assert focus(coeffs) == pytest.approx(4.0)

    def test_degenerate_without_personal_pull(self):
        coeffs = CoefficientMoments(0.0, 0.0, 0.0, 0.0, 0.4, 0.0)
        with pytest.raises(DegenerateParameterError, match="mu_phi1 is zero"):
            focus(coeffs)


class TestSolveCoefficients:
    def test_worked_example_is_exact(self):
        params = solve_coefficients(MovementPattern(0.5, 1.0, 1.0), alpha_sign=1)
        assert params.omega == pytest.approx(33.5 / 38.5, rel=1e-15)
        assert params.c == pytest.approx(2.0 * 0.5 * (33.5 / 38.5 + 1.0) / 2.0, rel=1e-15)
        assert params.alpha == 1.0

    @pytest.mark.parametrize("target", FIGURE_TARGETS,
                             ids=lambda t: f"rho1={t.rho1},vc={t.vc}")
    def test_reference_crossings(self, target):
        params = solve_coefficients(target, alpha_sign=1)
        coeffs = ipso_to_moments(params)
        assert rho1(coeffs) == pytest.approx(target.rho1, rel=1e-9, abs=1e-9)
        assert vc(params) == pytest.approx(target.vc, rel=1e-9)
        assert is_order2_convergent(coeffs)

    def test_negative_alpha_branch(self):
        params = solve_coefficients(MovementPattern(0.3, 1.0, 4.0), alpha_sign=-1)
        assert params.alpha == -2.0
        coeffs = ipso_to_moments(params)
        assert focus(coeffs) == pytest.approx(4.0, rel=1e-9)
        assert is_order2_convergent(coeffs)

    def test_alpha_sign_validation(self):
        with pytest.raises(ValueError, match=r"alpha_sign must be \+1 or -1"):
            solve_coefficients(MovementPattern(0.5, 1.0, 1.0), alpha_sign=2)

    def test_cancelling_pulls_are_unreachable(self):
        with pytest.raises(DegenerateParameterError, match="alpha = -1"):
            solve_coefficients(MovementPattern(0.5, 1.0, 1.0), alpha_sign=-1)

    def test_near_cancelling_pulls_refuse_rather_than_drift(self):
        # Just beside alpha = -1 the nine-digit recovery promise becomes
        # unattainable; the solver must refuse loudly, not return params
        # that silently miss the target.
        with pytest.raises(ConsistencyError, match="round-trip failed"):
            solve_coefficients(MovementPattern(0.0, 1.0, 0.984375), alpha_sign=-1)

    def test_an_overflowing_solve_is_degenerate(self):
        with pytest.raises(DegenerateParameterError, match="overflows"):
            solve_coefficients(MovementPattern(0.5, 1.0, 1e300))

    def test_a_nan_solve_fails_its_round_trip(self):
        # omega comes out NaN; that is a failed solve, not a bad IpsoParams.
        with pytest.raises(ConsistencyError, match="round-trip failed on rho1"):
            solve_coefficients(MovementPattern(0.5, 1e308, 1.0))

    @settings(max_examples=300, deadline=None)
    @given(target_rho1=st.floats(-0.9, 0.9), target_vc=st.floats(0.05, 30.0),
           target_focus=st.one_of(st.floats(0.04, 0.5), st.floats(1.5, 25.0)),
           sign=st.sampled_from([1, -1]))
    def test_round_trip_over_the_target_box(self, target_rho1, target_vc,
                                             target_focus, sign):
        # The focus band (0.5, 1.5) is skipped for the negative branch: alpha
        # there approaches -1, where omega + 1 shrinks like (alpha+1)^4 and
        # the stored omega cannot round-trip to nine digits in float64.  The
        # positive branch is unaffected, so sample it across the gap too.
        if sign == 1:
            target_focus = min(25.0, target_focus * 2.0)
        target = MovementPattern(target_rho1, target_vc, target_focus)
        params = solve_coefficients(target, alpha_sign=sign)
        coeffs = ipso_to_moments(params)
        assert rho1(coeffs) == pytest.approx(target_rho1, rel=1e-9, abs=1e-9)
        assert vc(params) == pytest.approx(target_vc, rel=1e-9)
        assert focus(coeffs) == pytest.approx(target_focus, rel=1e-9)
        assert is_order2_convergent(coeffs)

    def test_pattern_validation_messages(self):
        with pytest.raises(ValueError, match=r"rho1 must lie in \(-1,1\)"):
            MovementPattern(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="vc must be positive"):
            MovementPattern(0.5, 0.0, 1.0)
        with pytest.raises(ValueError, match="focus must be positive"):
            MovementPattern(0.5, 1.0, -2.0)


class TestConvergencePredicate:
    def test_reference_parameters(self):
        assert convergence_report(IpsoParams(0.711897, 1.711897, 1.0))["convergent"]

    def test_zero_total_pull_fails(self):
        assert not convergence_report(IpsoParams(0.0, 1.0, -1.0))["convergent"]

    def test_oversized_pull_fails(self):
        assert not convergence_report(IpsoParams(0.9, 4.5, 1.0))["convergent"]

    def test_report_carries_the_individual_conditions(self):
        report = convergence_report(IpsoParams(0.711897, 1.711897, 1.0))
        assert set(report) == {"omega", "c", "alpha", "omega_in_range", "spread",
                               "spread_bound", "spread_ok", "k2", "k2_negative",
                               "convergent"}
        assert report["convergent"] is True
        assert report["k2"] < 0.0

    def test_report_agrees_with_the_predicate(self, stable_sets):
        # The verdict is the conjunction of the conditions the report lists.
        for params in [p for p, _, _ in stable_sets] + UNSTABLE:
            report = convergence_report(params)
            assert report["convergent"] == (report["omega_in_range"]
                                            and report["spread_ok"]
                                            and report["k2_negative"])
