"""Movement patterns of the recursion and their closed-form calculus.

Three numbers summarise how a convergent particle moves around its
equilibrium, independent of where the attractors happen to sit:

* ``rho1``  -- lag-1 autocorrelation of the stationary position series,
  ``rho1 = mu_l / (mu_w + 1)`` with ``mu_l = 1 + mu_w - mu_phi1 - mu_phi2``.
  Higher lags obey ``rho[i] = mu_l rho[i-1] - mu_w rho[i-2]``.
* ``vc``    -- the attractor-free part of the equilibrium variance.  For the
  two-parameter uniform-coefficient family below, ``V_x = gamma * vc`` where
  ``gamma`` collects every attractor term.
* ``focus`` -- the squared pull ratio ``(mu_phi2 / mu_phi1)^2``; values
  above 1 bias sampling toward the second attractor.

The uniform-coefficient family ``IpsoParams(omega, c, alpha)`` holds the
inertia weight fixed at ``omega`` and draws ``phi1 ~ U[0, c]``,
``phi2 ~ U[0, alpha c]`` fresh per iteration, giving

    mu_phi1 = c/2,        sigma_phi1 = |c| / sqrt(12),
    mu_phi2 = alpha c/2,  sigma_phi2 = |alpha c| / sqrt(12).

Its movement pattern has closed forms in both directions: ``vc`` maps
``(omega, c, alpha)`` to the variance coefficient, and
:func:`solve_coefficients` inverts a full ``MovementPattern`` back to
parameters, which is what makes pattern scheduling practical; each closed
form is plain arithmetic, written once for floats and arrays.  Whether a
triple converges is the general order-2 test of :mod:`swarmpattern.moments`
applied to :func:`ipso_to_moments`; :func:`convergence_report` spells out
its conditions in the family's own terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateParameterError,
    array_dataclass,
    finite_fields,
    read_only_arrays,
)
from .moments import (
    AttractorMoments,
    CoefficientMoments,
    is_order2_convergent,
    stability_terms,
)

_SQRT12 = math.sqrt(12.0)


@dataclass(frozen=True)
class IpsoParams:
    """Inertia weight plus the uniform pull ranges ``[0, c]`` and ``[0, alpha c]``."""

    omega: float
    c: float
    alpha: float

    __post_init__ = finite_fields


@dataclass(frozen=True)
class MovementPattern:
    """Target triple (rho1, vc, focus) describing a stationary movement."""

    rho1: float
    vc: float
    focus: float

    def __post_init__(self):
        finite_fields(self)
        if not (-1.0 < self.rho1 < 1.0):
            raise ValueError("rho1 must lie in (-1,1)")
        if not self.vc > 0.0:
            raise ValueError("vc must be positive and finite")
        if not self.focus > 0.0:
            raise ValueError("focus must be positive and finite")


@array_dataclass
class AutocorrelationSeq:
    """Autocorrelation by lag; ``rho[0]`` is always exactly 1."""

    rho: np.ndarray

    def __post_init__(self):
        read_only_arrays(self, "rho")
        if self.rho.ndim != 1 or self.rho.size < 1:
            raise ValueError("rho must be a non-empty 1-d array")
        if self.rho[0] != 1.0:
            raise ValueError("rho[0] must be exactly 1")


def ipso_to_moments(params: IpsoParams) -> CoefficientMoments:
    """First two moments of the uniform-coefficient family.

    Standard deviations are stored as magnitudes so that negative ``c`` or
    ``alpha`` (legitimate mirrored search) still yields a valid moment set.
    """
    c, alpha = params.c, params.alpha
    return CoefficientMoments(
        mu_omega=params.omega,
        sigma_omega=0.0,
        mu_phi1=c / 2.0,
        sigma_phi1=abs(c) / _SQRT12,
        mu_phi2=alpha * c / 2.0,
        sigma_phi2=abs(alpha * c) / _SQRT12,
    )


def _rho1(mu_omega, mu_phi1, mu_phi2):
    return (1.0 + mu_omega - mu_phi1 - mu_phi2) / (mu_omega + 1.0)


def rho1(coeffs: CoefficientMoments) -> float:
    """Lag-1 autocorrelation of the stationary position series."""
    if coeffs.mu_omega == -1.0:
        raise DegenerateParameterError("rho1 undefined at mu_omega = -1")
    return _rho1(coeffs.mu_omega, coeffs.mu_phi1, coeffs.mu_phi2)


def autocorrelation(coeffs: CoefficientMoments, max_lag: int) -> AutocorrelationSeq:
    """Autocorrelation sequence out to ``max_lag`` via the two-term recursion."""
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    mu_w = coeffs.mu_omega
    mu_l = 1.0 + mu_w - coeffs.mu_phi1 - coeffs.mu_phi2
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    rho[1:2] = rho1(coeffs)  # called even at max_lag 0: it rejects mu_omega = -1
    for i in range(2, max_lag + 1):
        rho[i] = mu_l * rho[i - 1] - mu_w * rho[i - 2]
    return AutocorrelationSeq(rho)


def expected_movement_distance(v_x: float, rho_1: float) -> float:
    """Mean squared step length at equilibrium: ``E (x[t+1]-x[t])^2 = 2 V_x (1 - rho1)``."""
    return 2.0 * v_x * (1.0 - rho_1)


def gamma(attractors: AttractorMoments, alpha: float) -> float:
    """Attractor-dependent factor of the equilibrium variance.

    ``V_x = gamma * vc``: the geometry of the attractors (their spreads and
    separation) scales the variance, while ``vc`` carries everything the
    coefficients control.
    """
    sep = attractors.mu_p - attractors.mu_g
    try:
        return (2.0 * (alpha + 1.0) ** 2
                * (attractors.sigma_p ** 2 + alpha ** 2 * attractors.sigma_g ** 2)
                + alpha ** 2 * sep ** 2)
    except OverflowError:
        raise DegenerateParameterError("attractor factor gamma overflows") from None


def _m1_m2(alpha: float) -> tuple[float, float]:
    a1 = (alpha + 1.0) ** 2
    m1 = a1 * (alpha ** 2 + 3.0 * alpha + 1.0)
    m2 = a1 * (2.0 * alpha ** 2 + 3.0 * alpha + 2.0)
    return m1, m2


def _vc(omega, c, alpha):
    m1, m2 = _m1_m2(alpha)
    den = c * (m2 - m1 * omega) + (alpha + 1.0) ** 3 * (6.0 * omega ** 2 - 6.0)
    return -c * (omega + 1.0) / den


def vc(params: IpsoParams) -> float:
    """Variance coefficient of the uniform-coefficient family.

    ``vc = -c (omega + 1) / (c (m2 - m1 omega) + (alpha+1)^3 (6 omega^2 - 6))``
    with ``m1 = (alpha+1)^2 (alpha^2 + 3 alpha + 1)`` and
    ``m2 = (alpha+1)^2 (2 alpha^2 + 3 alpha + 2)``.
    """
    try:
        return _vc(params.omega, params.c, params.alpha)
    except ZeroDivisionError:
        raise DegenerateParameterError(
            "variance coefficient denominator vanishes") from None
    except OverflowError:
        raise DegenerateParameterError("variance coefficient overflows") from None


def _focus(mu_phi1, mu_phi2):
    return (mu_phi2 / mu_phi1) ** 2


def focus(coeffs: CoefficientMoments) -> float:
    """Squared pull ratio ``(mu_phi2 / mu_phi1)^2``."""
    if coeffs.mu_phi1 == 0.0:
        raise DegenerateParameterError("focus undefined when mu_phi1 is zero")
    return _focus(coeffs.mu_phi1, coeffs.mu_phi2)


def convergence_report(params: IpsoParams) -> dict:
    """Condition-by-condition stability diagnostics for one parameter triple."""
    omega, c, alpha = params.omega, params.c, params.alpha
    spread = c * (1.0 + alpha)
    spread_bound = 4.0 * (1.0 + omega)
    coeffs = ipso_to_moments(params)
    _, k2 = stability_terms(coeffs)
    return {
        "omega": omega,
        "c": c,
        "alpha": alpha,
        "omega_in_range": -1.0 < omega < 1.0,
        "spread": spread,
        "spread_bound": spread_bound,
        "spread_ok": 0.0 < spread < spread_bound,
        "k2": k2,
        "k2_negative": k2 < 0.0,
        "convergent": is_order2_convergent(coeffs),
    }


_ROUND_TRIP_RTOL = 1e-9


def _solve(rho1, vc, focus, alpha):
    """(omega, c) realising the pattern at pull ratio ``alpha``, the
    (rho1, vc, focus) they give back, and whether each is within 1e-9."""
    m1, m2 = _m1_m2(alpha)
    omega = ((m1 * vc + m2 * rho1 * vc + rho1 - 1.0)
             / (m2 * vc + m1 * rho1 * vc - rho1 + 1.0))
    c = 2.0 * (1.0 - rho1) * (omega + 1.0) / (alpha + 1.0)
    mu_phi1, mu_phi2 = c / 2.0, alpha * c / 2.0
    got = (_rho1(omega, mu_phi1, mu_phi2), _vc(omega, c, alpha),
           _focus(mu_phi1, mu_phi2))
    # |got - want| <= 1e-9 max(1, |want|), false for NaN.
    ok = [(abs(g - w) <= _ROUND_TRIP_RTOL)
          | (abs(g - w) <= _ROUND_TRIP_RTOL * abs(w))
          for g, w in zip(got, (rho1, vc, focus))]
    return omega, c, got, ok


def solve_coefficients(target: MovementPattern, alpha_sign: int = 1) -> IpsoParams:
    """Parameters of the uniform family realising a movement pattern.

    ``alpha = alpha_sign * sqrt(focus)`` fixes the pull ratio; the remaining
    two parameters then come out in closed form,

        omega = (m1 vc + m2 rho1 vc + rho1 - 1) / (m2 vc + m1 rho1 vc - rho1 + 1),
        c     = 2 (1 - rho1) (omega + 1) / (alpha + 1).

    The solution is verified by substituting back into :func:`rho1`,
    :func:`vc` and :func:`focus`; a relative residual above 1e-9 raises
    :class:`ConsistencyError` rather than returning a silently wrong triple.
    """
    if alpha_sign not in (1, -1):
        raise ValueError("alpha_sign must be +1 or -1")
    alpha = alpha_sign * math.sqrt(target.focus)
    if alpha == -1.0:
        raise DegenerateParameterError(
            "alpha = -1 leaves the second pull cancelling the first; "
            "no parameters realise this pattern")
    try:
        omega, c, got, ok = _solve(target.rho1, target.vc, target.focus, alpha)
    except ZeroDivisionError:
        raise DegenerateParameterError("pattern solver denominator vanishes") from None
    except OverflowError:
        raise DegenerateParameterError("pattern solver overflows") from None
    for name, value, want, fine in zip(("rho1", "vc", "focus"), got,
                                       (target.rho1, target.vc, target.focus), ok):
        if not fine:
            raise ConsistencyError(
                f"pattern solver round-trip failed on {name}: "
                f"got {value!r}, wanted {want!r}")
    return IpsoParams(omega=omega, c=c, alpha=alpha)


def solve_coefficient_arrays(rho1, vc, focus):
    """:func:`solve_coefficients` with ``alpha_sign = 1`` over arrays of
    valid targets: the arrays ``omega``, ``c`` and ``alpha``, and a mask of
    the targets whose solution round-trips.  A float's ``alpha ** 2`` is C
    ``pow`` and an array's a product, so an element may differ from the
    scalar solution in its last bit where ``alpha ** 2`` is inexact."""
    with np.errstate(all="ignore"):
        alpha = np.sqrt(focus)
        omega, c, _, ok = _solve(rho1, vc, focus, alpha)
    return omega, c, alpha, ok[0] & ok[1] & ok[2]
