"""Moment dynamics of the stochastic position recursion.

A particle whose attractors are held statistically fixed follows the scalar
recursion

    x[t+1] = l[t] * x[t] - w[t] * x[t-1] + phi1[t] * p[t] + phi2[t] * g[t]

with ``l = 1 + w - phi1 - phi2``.  The coefficient draws ``w, phi1, phi2``
are mutually independent across terms and across iterations, and independent
of the attractor draws ``p, g``.  Writing ``P = phi1 * p + phi2 * g`` for the
combined attractor pull, the first and second moments of the position evolve
linearly:

    z[t+1] = M z[t] + b,
    z = (E x[t], E x[t-1], E x[t]^2, E x[t-1]^2, E x[t] x[t-1]).

Only the first two moments of the coefficient and attractor distributions
enter ``M`` and ``b``, so every result in this module is distribution-free.
``M`` is block lower-triangular: the 2x2 block driving the means and the 3x3
block driving the second moments are both attractor-free, hence stability
never depends on where the attractors sit.

The fixed point of the whole update, :func:`iterate_to_fixed_point`, is the
exact solve of ``(I - M) z = b``.  Closed forms are provided for its mean
(``E_x``) and variance (``V_x``), together with the two stability predicates:

* order-1 (means settle):   -1 < mu_w < 1  and  0 < s < 2 (mu_w + 1),
  where ``s = mu_phi1 + mu_phi2``;
* order-2 (variances settle): order-1 plus ``k2 < 0`` for the quadratic
  stability term ``k2`` defined in :func:`stability_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParameterError,
    StabilityError,
    array_dataclass,
    finite_fields,
    read_only_arrays,
)


@dataclass(frozen=True)
class CoefficientMoments:
    """First two moments of the random recursion coefficients.

    ``mu_*`` are means, ``sigma_*`` standard deviations.  The recursion sees
    nothing beyond these, so any generating distributions with matching
    moments give identical mean/variance dynamics.
    """

    mu_omega: float
    sigma_omega: float
    mu_phi1: float
    sigma_phi1: float
    mu_phi2: float
    sigma_phi2: float

    def __post_init__(self):
        finite_fields(self)
        for name in ("sigma_omega", "sigma_phi1", "sigma_phi2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class AttractorMoments:
    """First two moments of the stationary attractor pair ``(p, g)``."""

    mu_p: float
    sigma_p: float
    mu_g: float
    sigma_g: float

    def __post_init__(self):
        finite_fields(self)
        if self.sigma_p < 0 or self.sigma_g < 0:
            raise ValueError("attractor standard deviations must be non-negative")


@array_dataclass
class MomentSystem:
    """Affine update ``z -> m @ z + b`` for the five position moments.

    Systems produced by :func:`build_moment_system` always carry the two
    shift rows ``[1,0,0,0,0]`` and ``[0,0,1,0,0]`` at indices 1 and 3 and
    zeros in ``b`` everywhere except indices 0 and 2; the constructor only
    enforces shape and finiteness so that degenerate matrices can still be
    fed to :func:`spectral_radius` directly.
    """

    m: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        read_only_arrays(self, "m", "b")
        if self.m.shape != (5, 5):
            raise ValueError(f"m must be 5x5, got shape {self.m.shape}")
        if self.b.shape != (5,):
            raise ValueError(f"b must have shape (5,), got {self.b.shape}")
        if not (np.all(np.isfinite(self.m)) and np.all(np.isfinite(self.b))):
            raise ValueError("moment system entries must be finite")


@array_dataclass
class MomentState:
    """One point of the moment trajectory, ordered as ``z`` above."""

    z: np.ndarray

    def __post_init__(self):
        read_only_arrays(self, "z")
        if self.z.shape != (5,):
            raise ValueError(f"z must have shape (5,), got {self.z.shape}")

    @property
    def mean(self) -> float:
        return float(self.z[0])

    @property
    def second_moment(self) -> float:
        return float(self.z[2])

    @property
    def variance(self) -> float:
        return float(self.z[2] - self.z[0] ** 2)


def build_moment_system(coeffs: CoefficientMoments,
                        attractors: AttractorMoments) -> MomentSystem:
    """Assemble the affine moment update from first/second moments.

    Every entry is a product expectation that follows from independence of
    ``w``, ``phi1``, ``phi2``, ``p`` and ``g``; the only care needed is that
    ``l`` shares randomness with each coefficient it contains.  ``e_p``,
    ``e_p2`` and ``e_lp`` refer to the combined pull ``P``, not to the
    attractor ``p`` itself.
    """
    try:
        mu_w = coeffs.mu_omega
        mu1, mu2 = coeffs.mu_phi1, coeffs.mu_phi2
        e_omega2 = coeffs.sigma_omega ** 2 + mu_w ** 2
        e_phi1_2 = coeffs.sigma_phi1 ** 2 + mu1 ** 2
        e_phi2_2 = coeffs.sigma_phi2 ** 2 + mu2 ** 2
        mu_p, mu_g = attractors.mu_p, attractors.mu_g

        e_l = 1.0 + mu_w - mu1 - mu2
        e_p = mu1 * mu_p + mu2 * mu_g
        e_omega_p = mu_w * e_p
        e_l2 = (1.0 + e_omega2 + e_phi1_2 + e_phi2_2
                + 2.0 * mu_w - 2.0 * (mu1 + mu2)
                - 2.0 * mu_w * (mu1 + mu2) + 2.0 * mu1 * mu2)
        e_p2 = ((attractors.sigma_p ** 2 + mu_p ** 2) * e_phi1_2
                + (attractors.sigma_g ** 2 + mu_g ** 2) * e_phi2_2
                + 2.0 * mu1 * mu2 * mu_p * mu_g)
        e_lp = (mu1 * mu_p + mu2 * mu_g
                + mu_w * mu1 * mu_p + mu_w * mu2 * mu_g
                - mu_p * e_phi1_2 - mu1 * mu2 * (mu_p + mu_g)
                - mu_g * e_phi2_2)
        # E(l w) expands through the shared w term; the phi means factor out.
        e_l_omega = mu_w * e_l + coeffs.sigma_omega ** 2
    except OverflowError:
        raise DegenerateParameterError("moment system overflows") from None
    m = np.array([
        [e_l, -mu_w, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [2.0 * e_lp, -2.0 * e_omega_p, e_l2, e_omega2, -2.0 * e_l_omega],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [e_p, 0.0, e_l, 0.0, -mu_w],
    ])
    b = np.array([e_p, 0.0, e_p2, 0.0, 0.0])
    return MomentSystem(m=m, b=b)


def iterate_to_fixed_point(system: MomentSystem) -> MomentState:
    """The state ``z = M z + b`` that the affine update settles to.

    Solved exactly as ``(I - M) z = b``.  The iteration settles from every
    start only when the spectral radius of ``M`` is below 1; otherwise a
    :class:`StabilityError` is raised.
    """
    if spectral_radius(system) >= 1.0:
        raise StabilityError(
            "moment fixed point requested for a system with spectral radius >= 1")
    return MomentState(np.linalg.solve(np.eye(5) - system.m, system.b))


def stability_terms(coeffs: CoefficientMoments) -> tuple[float, float]:
    """The attractor-free terms ``(k1, k2)`` of the variance fixed point.

    ``k1 = s^2`` with ``s = mu_phi1 + mu_phi2``; ``k2 < 0`` is the extra
    condition separating order-2 from order-1 convergence.
    """
    mu_w = coeffs.mu_omega
    s = coeffs.mu_phi1 + coeffs.mu_phi2
    k1 = s * s
    k2 = (k1 * (1.0 - mu_w)
          + 2.0 * s * (mu_w ** 2 + coeffs.sigma_omega ** 2 - 1.0)
          + (coeffs.sigma_phi1 ** 2 + coeffs.sigma_phi2 ** 2) * (mu_w + 1.0))
    return k1, k2


def is_order1_convergent(coeffs: CoefficientMoments) -> bool:
    """Whether the mean recursion settles (both 2x2 eigenvalues inside 1)."""
    s = coeffs.mu_phi1 + coeffs.mu_phi2
    return (-1.0 < coeffs.mu_omega < 1.0) and (0.0 < s < 2.0 * (coeffs.mu_omega + 1.0))


def is_order2_convergent(coeffs: CoefficientMoments) -> bool:
    """Whether the variance recursion also settles (order-1 plus ``k2 < 0``)."""
    if not is_order1_convergent(coeffs):
        return False
    _, k2 = stability_terms(coeffs)
    return k2 < 0.0


def expectation_fixed_point(coeffs: CoefficientMoments,
                            attractors: AttractorMoments) -> float:
    """Equilibrium mean: the phi-weighted average of the attractor means."""
    s = coeffs.mu_phi1 + coeffs.mu_phi2
    if s == 0.0:
        raise DegenerateParameterError(
            "mean fixed point undefined: mu_phi1 + mu_phi2 is zero")
    return (coeffs.mu_phi1 * attractors.mu_p + coeffs.mu_phi2 * attractors.mu_g) / s


def variance_fixed_point(coeffs: CoefficientMoments,
                         attractors: AttractorMoments) -> float:
    """Equilibrium variance ``V_x = -(k3 + k4) (mu_w + 1) / (k1 k2)``.

    ``k1, k2`` are the :func:`stability_terms`; ``k3`` carries the attractor
    spreads and ``k4`` their separation.  Only meaningful on the order-2
    convergent set; outside it the variance recursion has no finite
    attracting fixed point and a :class:`StabilityError` is raised.
    """
    k1, k2 = stability_terms(coeffs)
    mu1, mu2 = coeffs.mu_phi1, coeffs.mu_phi2
    s1, s2 = coeffs.sigma_phi1, coeffs.sigma_phi2
    vp, vg = attractors.sigma_p ** 2, attractors.sigma_g ** 2
    k3 = k1 * (mu1 ** 2 * vp + mu2 ** 2 * vg + s1 ** 2 * vp + s2 ** 2 * vg)
    k4 = (mu1 ** 2 * s2 ** 2 + mu2 ** 2 * s1 ** 2) * (attractors.mu_g - attractors.mu_p) ** 2
    if k1 == 0.0 or k2 == 0.0:
        raise DegenerateParameterError(
            f"variance fixed point degenerate: k1={k1!r}, k2={k2!r}")
    if not is_order2_convergent(coeffs):
        raise StabilityError(
            "variance fixed point requested for non-convergent parameters")
    return -(k3 + k4) / (k1 * k2) * (coeffs.mu_omega + 1.0)


def spectral_radius(system: MomentSystem) -> float:
    """Largest eigenvalue modulus of the update matrix.

    A result at or above 1 is a legitimate radius of an unstable system,
    never an error.
    """
    return float(np.max(np.abs(np.linalg.eigvals(system.m))))
