"""Shared fixtures: a frozen sample of stable parameter sets and long traces,
and per-tick oracles of the schedules.

The sampler below is the single source of the "randomly sampled stable
parameter sets" used by the estimator-agreement tests.  Its seed, caps and
draw order are part of the regression baseline: change any of them and the
Monte Carlo error margins quoted in the tests must be recalibrated.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from swarmpattern import (
    AttractorMoments,
    IpsoParams,
    LinearInertia,
    RandomInertia,
    SimConfig,
    SuccessRateInertia,
    build_moment_system,
    iid_uniform_for_moments,
    ipso_to_moments,
    is_order2_convergent,
    simulate,
    spectral_radius,
    variance_fixed_point,
)

TRACE_ITERATIONS = 201_000
TRACE_BURN_IN = 1_000
TRACE_SEED = 0

# Order-2 violating parameter sets; every one has spectral radius > 1.
UNSTABLE = [
    IpsoParams(0.9, 4.5, 1.0),
    IpsoParams(-0.5, 3.9, 1.0),
    IpsoParams(0.3, 3.4, 1.0),
    IpsoParams(0.99, 4.2, 1.0),
]


def reference_pattern(t, t_max, cfg):
    """(rho1, vc, focus) of the MAPSO profile ``cfg`` at tick ``t``, written
    as the branchy per-tick code the vectorised profile replaced: an oracle
    independent of the code under test."""
    t1 = cfg.t1_frac * t_max
    t2 = cfg.t2_frac * t_max
    tm = (t1 + t2) / 2.0
    if t < t1:
        vc_t = cfg.v_max
    elif t > t2:
        vc_t = cfg.v_min
    else:
        vc_t = cfg.v_max + (t - t1) / (t2 - t1) * (cfg.v_min - cfg.v_max)
    if t < t1 or t >= t2:
        rho1_t = cfg.rho_min
    elif t <= tm:
        rho1_t = cfg.rho_min + (t - t1) / (tm - t1) * (cfg.rho_max - cfg.rho_min)
    else:
        rho1_t = cfg.rho_max + (t - tm) / (t2 - tm) * (cfg.rho_min - cfg.rho_max)
    if t < t1:
        focus_t = cfg.f_min
    elif t <= t2:
        focus_t = 1.0
    else:
        focus_t = cfg.f_max
    return rho1_t, vc_t, focus_t


def reference_solve(r, v, f):
    """The scalar closed-form solve with a positive alpha, by math.sqrt."""
    alpha = math.sqrt(f)
    a1 = (alpha + 1.0) ** 2
    m1 = a1 * (alpha ** 2 + 3.0 * alpha + 1.0)
    m2 = a1 * (2.0 * alpha ** 2 + 3.0 * alpha + 2.0)
    omega = (m1 * v + m2 * r * v + r - 1.0) / (m2 * v + m1 * r * v - r + 1.0)
    return omega, 2.0 * (1.0 - r) * (omega + 1.0) / (alpha + 1.0), alpha


def reference_row(spec, t, t_max, rng=None, success_rate=0.0):
    """(omega, c, alpha) of the schedule ``spec`` at tick ``t``, each kind's
    rule written out per tick: an oracle independent of the code under test.
    A RandomInertia takes its one standard uniform from ``rng``; a
    SuccessRateInertia reads the run's last ``success_rate``."""
    if isinstance(spec, IpsoParams):
        return spec.omega, spec.c, spec.alpha
    if isinstance(spec, LinearInertia):
        frac = t / t_max
        omega = spec.omega_start + (spec.omega_end - spec.omega_start) * frac
        return omega, spec.c, spec.alpha
    if isinstance(spec, RandomInertia):
        return 0.5 + 0.5 * rng.random(), spec.c, spec.alpha
    if isinstance(spec, SuccessRateInertia):
        omega = (spec.omega_min
                 + (spec.omega_max - spec.omega_min) * success_rate)
        return omega, spec.c, spec.alpha
    return reference_solve(*reference_pattern(t, t_max, spec))


def sample_stable_sets(n, rng_seed, sr_cap, vx_cap=1e3):
    """Rejection-sample n order-2 stable (params, coeffs, attractors) triples.

    sr_cap keeps the moment dynamics fast-mixing so single traces estimate
    the fixed point well; vx_cap keeps absolute tolerances meaningful.
    Attractor moments are drawn for every proposal, accepted or not, so the
    accepted sample is a pure function of (n, rng_seed, sr_cap, vx_cap).
    """
    rng = np.random.default_rng(rng_seed)
    out = []
    while len(out) < n:
        omega = rng.uniform(-0.9, 0.9)
        alpha = rng.uniform(0.2, 3.0)
        cmax = 4.0 * (1.0 + omega) / (1.0 + alpha)
        c = rng.uniform(0.05, 0.95) * cmax
        params = IpsoParams(omega=omega, c=c, alpha=alpha)
        coeffs = ipso_to_moments(params)
        attractors = AttractorMoments(
            mu_p=rng.uniform(-5, 5),
            sigma_p=rng.uniform(0.5, 3.0),
            mu_g=rng.uniform(-5, 5),
            sigma_g=rng.uniform(0.5, 3.0),
        )
        if not is_order2_convergent(coeffs):
            continue
        system = build_moment_system(coeffs, attractors)
        if spectral_radius(system) > sr_cap:
            continue
        if variance_fixed_point(coeffs, attractors) > vx_cap:
            continue
        out.append((params, coeffs, attractors))
    return out


@pytest.fixture(scope="session")
def stable_sets():
    return sample_stable_sets(20, 42, 0.9)


@pytest.fixture(scope="session")
def stable_set_traces(stable_sets):
    # One long trace per sampled set, shared by every estimator test.
    return [
        simulate(
            params,
            iid_uniform_for_moments(attractors),
            SimConfig(iterations=TRACE_ITERATIONS, burn_in=TRACE_BURN_IN, seed=TRACE_SEED),
        )
        for params, _, attractors in stable_sets
    ]
