"""Moment recursion, fixed points, stability predicates and spectral radius.

Closed forms are checked against three independent oracles: exact two-point
distributions enumerated by brute force (entry by entry against the assembled
update), the fixed point of the update (solved, and reached by iterating
``z = M z + b`` in place), and eigenvalue moduli from ``numpy.linalg``.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmpattern import (
    AttractorMoments,
    CoefficientMoments,
    DegenerateParameterError,
    IpsoParams,
    MomentSystem,
    StabilityError,
    build_moment_system,
    expectation_fixed_point,
    gamma,
    ipso_to_moments,
    is_order1_convergent,
    is_order2_convergent,
    iterate_to_fixed_point,
    rho1,
    spectral_radius,
    stability_terms,
    variance_fixed_point,
    vc,
)

from conftest import UNSTABLE

CCPSO = ipso_to_moments(IpsoParams(0.7298, 1.49618, 1.0))
UNIT_ATTRACTORS = AttractorMoments(0.0, 1.0, 0.0, 1.0)


def _two_point(mu, sigma):
    # A distribution with exactly the requested mean and standard deviation.
    if sigma > 0.0:
        return [(mu - sigma, 0.5), (mu + sigma, 0.5)]
    return [(mu, 1.0)]


def _enumerated_expectations(coeffs, attractors):
    """Brute-force every coefficient/attractor expectation over two-point laws."""
    acc = dict.fromkeys(
        ("e_l", "e_omega2", "e_phi1_2", "e_phi2_2", "e_omega_p",
         "e_l2", "e_p", "e_p2", "e_lp", "e_l_omega"),
        0.0,
    )
    for w, pw in _two_point(coeffs.mu_omega, coeffs.sigma_omega):
        for f1, p1 in _two_point(coeffs.mu_phi1, coeffs.sigma_phi1):
            for f2, p2 in _two_point(coeffs.mu_phi2, coeffs.sigma_phi2):
                for p, pp in _two_point(attractors.mu_p, attractors.sigma_p):
                    for g, pg in _two_point(attractors.mu_g, attractors.sigma_g):
                        prob = pw * p1 * p2 * pp * pg
                        l = 1.0 + w - f1 - f2
                        pull = f1 * p + f2 * g
                        acc["e_l"] += prob * l
                        acc["e_omega2"] += prob * w * w
                        acc["e_phi1_2"] += prob * f1 * f1
                        acc["e_phi2_2"] += prob * f2 * f2
                        acc["e_omega_p"] += prob * w * pull
                        acc["e_l2"] += prob * l * l
                        acc["e_p"] += prob * pull
                        acc["e_p2"] += prob * pull * pull
                        acc["e_lp"] += prob * l * pull
                        acc["e_l_omega"] += prob * l * w
    return acc


moment_values = st.floats(-2.0, 2.0)
spread_values = st.floats(0.0, 1.5)


def _entries(system):
    """The product expectations read back off the moment update."""
    m, b = system.m, system.b
    return {
        "e_l": (m[0, 0], m[4, 2]),
        "e_l2": (m[2, 2],),
        "e_omega2": (m[2, 3],),
        "e_omega_p": (-m[2, 1] / 2.0,),
        "e_lp": (m[2, 0] / 2.0,),
        "e_p": (b[0], m[4, 0]),
        "e_p2": (b[2],),
    }


class TestDeriveExpectations:
    def test_uniform_coefficient_mean(self):
        coeffs = ipso_to_moments(IpsoParams(0.73084, 1.6443, 1.0))
        e_l = build_moment_system(coeffs, UNIT_ATTRACTORS).m[0, 0]
        assert e_l == pytest.approx(1.73084 - 1.6443, abs=1e-12)
        # e_l is also rho1 scaled back by (mu_omega + 1).
        assert e_l == pytest.approx(rho1(coeffs) * 1.73084, rel=1e-12)

    def test_deterministic_coefficients_square_exactly(self):
        coeffs = CoefficientMoments(0.5, 0.0, 0.3, 0.0, 0.7, 0.0)
        attractors = AttractorMoments(2.0, 0.0, -1.0, 0.0)
        system = build_moment_system(coeffs, attractors)
        e_l, e_p = system.m[0, 0], system.b[0]
        assert system.m[2, 2] == pytest.approx(e_l ** 2, rel=1e-12)
        assert system.b[2] == pytest.approx(e_p ** 2, rel=1e-12)
        assert system.m[2, 0] / 2.0 == pytest.approx(e_l * e_p, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        mu_omega=moment_values, sigma_omega=spread_values,
        mu_phi1=moment_values, sigma_phi1=spread_values,
        mu_phi2=moment_values, sigma_phi2=spread_values,
        mu_p=moment_values, sigma_p=spread_values,
        mu_g=moment_values, sigma_g=spread_values,
    )
    def test_matches_enumerated_two_point_distributions(
        self, mu_omega, sigma_omega, mu_phi1, sigma_phi1,
        mu_phi2, sigma_phi2, mu_p, sigma_p, mu_g, sigma_g,
    ):
        coeffs = CoefficientMoments(mu_omega, sigma_omega, mu_phi1, sigma_phi1,
                                    mu_phi2, sigma_phi2)
        attractors = AttractorMoments(mu_p, sigma_p, mu_g, sigma_g)
        want = _enumerated_expectations(coeffs, attractors)
        got = _entries(build_moment_system(coeffs, attractors))
        for name, values in got.items():
            for value in values:
                assert value == pytest.approx(want[name], rel=1e-9, abs=1e-9), name
        # Second moments dominate squared means whatever the draw.
        e_l = got["e_l"][0]
        assert got["e_omega2"][0] >= mu_omega ** 2 - 1e-12
        assert got["e_l2"][0] >= e_l ** 2 - 1e-9

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError, match="sigma_omega must be non-negative"):
            CoefficientMoments(0.5, -1.0, 0.7, 0.0, 0.7, 0.0)
        with pytest.raises(ValueError, match="must be non-negative"):
            AttractorMoments(0.0, -0.1, 0.0, 1.0)

    def test_rejects_non_finite_mean(self):
        with pytest.raises(ValueError, match=r"CoefficientMoments\.mu_omega must be a finite number"):
            CoefficientMoments(float("nan"), 0.0, 0.7, 0.0, 0.7, 0.0)


class TestBuildMomentSystem:
    def test_shift_rows_are_pure_delays(self):
        system = build_moment_system(CCPSO, UNIT_ATTRACTORS)
        assert np.array_equal(system.m[1], [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.array_equal(system.m[3], [0.0, 0.0, 1.0, 0.0, 0.0])
        assert system.b[1] == 0.0 and system.b[3] == 0.0 and system.b[4] == 0.0

    def test_pure_random_search_zeroes_the_mean_row(self):
        system = build_moment_system(ipso_to_moments(IpsoParams(0.0, 1.0, 1.0)),
                                     UNIT_ATTRACTORS)
        assert system.m[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert system.m[0, 1] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        mu_omega=moment_values, sigma_omega=spread_values,
        mu_phi1=moment_values, sigma_phi1=spread_values,
        mu_phi2=moment_values, sigma_phi2=spread_values,
    )
    def test_coupling_entry_uses_the_omega_variance_correction(
        self, mu_omega, sigma_omega, mu_phi1, sigma_phi1, mu_phi2, sigma_phi2,
    ):
        # E(l omega) is not E(l)E(omega); the matrix must carry the covariance.
        coeffs = CoefficientMoments(mu_omega, sigma_omega, mu_phi1, sigma_phi1,
                                    mu_phi2, sigma_phi2)
        want = _enumerated_expectations(coeffs, UNIT_ATTRACTORS)["e_l_omega"]
        system = build_moment_system(coeffs, UNIT_ATTRACTORS)
        assert -system.m[2, 4] / 2.0 == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_system_shape_validation(self):
        with pytest.raises(ValueError, match="m must be 5x5"):
            MomentSystem(np.zeros((4, 4)), np.zeros(5))
        with pytest.raises(ValueError, match=r"b must have shape \(5,\)"):
            MomentSystem(np.zeros((5, 5)), np.zeros(4))
        bad = np.zeros((5, 5))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="entries must be finite"):
            MomentSystem(bad, np.zeros(5))


class TestIteration:
    @pytest.mark.parametrize("params", UNSTABLE, ids=lambda p: f"omega={p.omega}")
    def test_unstable_parameters_diverge(self, params):
        coeffs = ipso_to_moments(params)
        assert not is_order2_convergent(coeffs)
        system = build_moment_system(coeffs, AttractorMoments(0.0, 1.0, 2.0, 1.0))
        assert spectral_radius(system) > 1.0
        with pytest.raises(StabilityError, match="spectral radius"):
            iterate_to_fixed_point(system)

    def test_fixed_point_matches_closed_forms(self):
        system = build_moment_system(CCPSO, UNIT_ATTRACTORS)
        settled = iterate_to_fixed_point(system)
        # Spectral radius 0.944: 2000 updates from any start reach it.
        z = np.array([1.0, 0.5, 1.0, 0.25, 0.5])
        for _ in range(2000):
            z = system.m @ z + system.b
        assert np.max(np.abs(z - settled.z)) < 1e-9
        assert settled.mean == pytest.approx(
            expectation_fixed_point(CCPSO, UNIT_ATTRACTORS), abs=1e-9)
        assert settled.variance == pytest.approx(
            variance_fixed_point(CCPSO, UNIT_ATTRACTORS), abs=1e-9)

    def test_fixed_point_matches_linear_solve(self, stable_sets):
        # The solve must leave no residual in the update it solves.
        for _, coeffs, attractors in stable_sets:
            system = build_moment_system(coeffs, attractors)
            z = iterate_to_fixed_point(system).z
            residual = np.abs(system.m @ z + system.b - z)
            assert np.max(residual / np.maximum(1.0, np.abs(z))) < 1e-12

    def test_second_moment_dominates_at_every_fixed_point(self, stable_sets):
        for _, coeffs, attractors in stable_sets:
            settled = iterate_to_fixed_point(build_moment_system(coeffs, attractors))
            assert settled.z[2] >= settled.mean ** 2 - 1e-9

    def test_fixed_point_raises_on_divergent_system(self):
        system = build_moment_system(ipso_to_moments(UNSTABLE[0]), UNIT_ATTRACTORS)
        with pytest.raises(StabilityError, match="spectral radius"):
            iterate_to_fixed_point(system)


class TestFixedPointFormulas:
    def test_expectation_is_the_pull_weighted_attractor_mean(self):
        coeffs = CoefficientMoments(0.5, 0.0, 0.5, 0.0, 0.5, 0.0)
        attractors = AttractorMoments(0.0, 0.0, 10.0, 0.0)
        assert expectation_fixed_point(coeffs, attractors) == pytest.approx(5.0)

        lopsided = CoefficientMoments(0.2, 0.0, 1.0, 0.0, 3.0, 0.0)
        assert expectation_fixed_point(
            lopsided, AttractorMoments(0.0, 0.0, 4.0, 0.0)) == pytest.approx(3.0)

    def test_expectation_for_reference_parameters(self):
        attractors = AttractorMoments(-2.0, 0.0, 6.0, 0.0)
        assert expectation_fixed_point(CCPSO, attractors) == pytest.approx(2.0)

    def test_expectation_degenerate_when_pulls_cancel(self):
        coeffs = CoefficientMoments(0.5, 0.0, 0.5, 0.0, -0.5, 0.0)
        with pytest.raises(DegenerateParameterError, match="mu_phi1 \\+ mu_phi2 is zero"):
            expectation_fixed_point(coeffs, UNIT_ATTRACTORS)

    def test_variance_zero_when_attractors_are_one_point(self):
        attractors = AttractorMoments(3.0, 0.0, 3.0, 0.0)
        assert variance_fixed_point(CCPSO, attractors) == 0.0

    def test_variance_equals_gamma_times_vc(self, stable_sets):
        for params, coeffs, attractors in stable_sets:
            v_x = variance_fixed_point(coeffs, attractors)
            split = gamma(attractors, params.alpha) * vc(params)
            assert abs(v_x - split) < 1e-9 * max(1.0, abs(v_x))

    def test_variance_requires_order2_convergence(self):
        coeffs = ipso_to_moments(IpsoParams(0.9, 4.5, 1.0))
        with pytest.raises(StabilityError, match="non-convergent"):
            variance_fixed_point(coeffs, UNIT_ATTRACTORS)

    def test_variance_degenerate_before_stability(self):
        # c = 0 zeroes k1; the degenerate diagnosis must win over stability.
        coeffs = ipso_to_moments(IpsoParams(0.5, 0.0, 1.0))
        with pytest.raises(DegenerateParameterError, match="k1="):
            variance_fixed_point(coeffs, UNIT_ATTRACTORS)

    def test_stability_terms_signs(self):
        k1, k2 = stability_terms(CCPSO)
        assert k1 > 0.0 and k2 < 0.0


class TestStabilityPredicates:
    def test_order1_reference_true(self):
        coeffs = CoefficientMoments(0.7298, 0.0, 0.74809, 0.0, 0.74809, 0.0)
        assert is_order1_convergent(coeffs)

    def test_order1_inertia_boundary_false(self):
        coeffs = CoefficientMoments(1.0, 0.0, 0.5, 0.0, 0.5, 0.0)
        assert not is_order1_convergent(coeffs)

    def test_order1_pull_boundary_false(self):
        coeffs = CoefficientMoments(0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
        assert not is_order1_convergent(coeffs)

    def test_order2_examples(self):
        assert is_order2_convergent(CCPSO)
        assert is_order2_convergent(ipso_to_moments(IpsoParams(0.711897, 1.711897, 1.0)))
        assert not is_order2_convergent(CoefficientMoments(-1.0, 0.0, 0.5, 0.0, 0.5, 0.0))

    def test_predicates_take_no_attractor_input(self, stable_sets):
        # Stability is a property of the coefficients alone; the matrix
        # spectrum must not move when only the attractors change.
        _, coeffs, _ = stable_sets[0]
        near = build_moment_system(coeffs, AttractorMoments(0.0, 1.0, 0.0, 1.0))
        far = build_moment_system(coeffs, AttractorMoments(-50.0, 9.0, 40.0, 0.1))
        assert spectral_radius(near) == pytest.approx(spectral_radius(far), abs=1e-9)


def _system(m):
    return MomentSystem(m, np.zeros(5))


class TestSpectralRadius:
    def test_identity_has_radius_one(self):
        assert spectral_radius(_system(np.eye(5))) == pytest.approx(
            1.0, abs=1e-10)

    def test_zero_matrix_has_radius_zero(self):
        assert spectral_radius(_system(np.zeros((5, 5)))) == 0.0

    def test_nilpotent_matrix_has_radius_zero(self):
        assert spectral_radius(_system(np.diag(np.ones(4), 1))) == 0.0

    def test_stable_reference_system_below_one(self):
        system = build_moment_system(CCPSO, UNIT_ATTRACTORS)
        assert spectral_radius(system) < 1.0

    def test_matches_eigvals_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            matrix = rng.standard_normal((5, 5))
            moduli = np.abs(np.linalg.eigvals(matrix))
            assert spectral_radius(_system(matrix)) == pytest.approx(
                moduli.max(), rel=1e-6)

    def test_near_tie_of_a_pair_and_a_real_eigenvalue(self):
        # A stable system whose dominant conjugate pair (|z| = 0.84647) nearly
        # ties a real eigenvalue (0.84665).
        params = IpsoParams(0.7165156494959949, 1.2829573119581152,
                            0.7252169359593279)
        system = build_moment_system(ipso_to_moments(params), UNIT_ATTRACTORS)
        moduli = np.abs(np.linalg.eigvals(system.m))
        assert spectral_radius(system) == pytest.approx(moduli.max(), rel=1e-12)
        assert spectral_radius(system) == pytest.approx(0.84665, abs=1e-5)
