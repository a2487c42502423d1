"""Single-particle simulation of the stochastic position recursion.

These runs are the empirical side of every moment and autocorrelation
prediction: one scalar particle, attractors driven by a stationary (or
settling) process, coefficients redrawn each iteration.

Draw discipline.  One PCG64 generator (``numpy.random.default_rng``) seeded
from ``SimConfig.seed`` produces every random number, in this fixed order:

1. the two seed positions ``x0``, ``x1`` (when not pinned in the config),
2. the full phi1 vector, then the full phi2 vector,
3. the attractor draws, one vector per attractor stream.

Two traces with equal configs are therefore bit-identical.

Vectorisation.  Every elementwise quantity is a numpy array built before the
recursion starts: the pulls, the attractor streams (the settling walk is a
cumulative sum of its damped steps), and the per-step products
``1 + omega - phi1 - phi2``, ``phi1 p`` and ``phi2 g``.  Each is formed with
the same IEEE operations in the same order as the scalar update, so only the
sequential two-term recurrence runs as a Python loop, and the traces equal
bit for bit those of the per-element loop that ``tests/test_simulate.py``
keeps as its oracle.

The inertia weight is the constant ``omega`` of ``IpsoParams``; the pulls
are uniform on ``[0, c]`` and ``[0, alpha c]`` (intervals flip orientation
when negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParameterError, SampleError
from .moments import AttractorMoments
from .patterns import AutocorrelationSeq, IpsoParams

_SQRT3 = math.sqrt(3.0)

# A trace whose position passes this magnitude is declared divergent rather
# than being iterated into float overflow.
DIVERGENCE_LIMIT = 1e100


@dataclass(frozen=True)
class IidUniformAttractors:
    """Fresh uniform draws each iteration: ``p ~ U[p_range]``, ``g ~ U[g_range]``."""

    p_range: tuple[float, float]
    g_range: tuple[float, float]

    def __post_init__(self):
        for name in ("p_range", "g_range"):
            lo, hi = (float(v) for v in getattr(self, name))
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
                raise ValueError(f"{name} must be a finite ordered interval")
            object.__setattr__(self, name, (lo, hi))

    def moments(self) -> AttractorMoments:
        (plo, phi), (glo, ghi) = self.p_range, self.g_range
        return AttractorMoments(
            mu_p=(plo + phi) / 2.0, sigma_p=(phi - plo) / math.sqrt(12.0),
            mu_g=(glo + ghi) / 2.0, sigma_g=(ghi - glo) / math.sqrt(12.0),
        )


@dataclass(frozen=True)
class RandomWalkAttractors:
    """Settling walks ``p[t+1] = p[t] + r/t`` with ``r ~ U[step_range]``.

    The step is damped by the iteration counter (divisions start at t = 1),
    so both attractors converge almost surely; late in a run they behave
    like fixed attractors at wherever they settled.
    """

    p0: float
    g0: float
    step_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        for name in ("p0", "g0"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        lo, hi = (float(v) for v in self.step_range)
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
            raise ValueError("step_range must be a finite ordered interval")
        object.__setattr__(self, "step_range", (lo, hi))


@dataclass(frozen=True)
class FixedAttractors:
    """Constant attractors; the recursion's randomness then lies in the pulls alone."""

    p_value: float
    g_value: float

    def __post_init__(self):
        for name in ("p_value", "g_value"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    def moments(self) -> AttractorMoments:
        return AttractorMoments(mu_p=self.p_value, sigma_p=0.0,
                                mu_g=self.g_value, sigma_g=0.0)


AttractorProcess = IidUniformAttractors | RandomWalkAttractors | FixedAttractors


def iid_uniform_for_moments(attractors: AttractorMoments) -> IidUniformAttractors:
    """Uniform iid process realising the given attractor moments exactly."""
    hp = _SQRT3 * attractors.sigma_p
    hg = _SQRT3 * attractors.sigma_g
    return IidUniformAttractors(
        p_range=(attractors.mu_p - hp, attractors.mu_p + hp),
        g_range=(attractors.mu_g - hg, attractors.mu_g + hg),
    )


@dataclass(frozen=True)
class SimConfig:
    """Length, burn-in, seed and optional pinned seed positions of one run."""

    iterations: int
    burn_in: int = 0
    seed: int = 0
    x0: float | None = None
    x1: float | None = None

    def __post_init__(self):
        if self.iterations < 2:
            raise ValueError("iterations must be at least 2 (the recursion needs two seeds)")
        if not (0 <= self.burn_in < self.iterations):
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")
        for name in ("x0", "x1"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(float(value)):
                raise ValueError(f"{name} must be finite when given")


@dataclass(frozen=True)
class SimTrace:
    """Positions plus the attractor values that generated each of them.

    ``p_values[t]`` / ``g_values[t]`` are the draws used to produce
    ``positions[t]``; the two seed entries have no generating draw and hold
    NaN.  When ``diverged`` is set the arrays stop at the offending step, so
    their length may fall short of the configured iteration count.
    """

    positions: np.ndarray
    p_values: np.ndarray
    g_values: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        for name in ("positions", "p_values", "g_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.positions) == len(self.p_values) == len(self.g_values)):
            raise ValueError("trace arrays must share one length")

    def __len__(self) -> int:
        return int(self.positions.size)


def _init_range(process: AttractorProcess) -> tuple[float, float]:
    # Default seed positions are uniform over the p-attractor's natural range.
    if isinstance(process, IidUniformAttractors):
        return process.p_range
    if isinstance(process, RandomWalkAttractors):
        lo, hi = process.step_range
        return (process.p0 + lo, process.p0 + hi)
    return (process.p_value, process.p_value)


def _attractor_streams(process: AttractorProcess, nsteps: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(process, IidUniformAttractors):
        p = rng.uniform(process.p_range[0], process.p_range[1], nsteps)
        g = rng.uniform(process.g_range[0], process.g_range[1], nsteps)
        return p, g
    if isinstance(process, RandomWalkAttractors):
        lo, hi = process.step_range
        r1 = rng.uniform(lo, hi, nsteps)
        r2 = rng.uniform(lo, hi, nsteps)
        # p[j] = p[j-1] + r1[j-1] / j as a running sum: cumsum adds in index
        # order, so it performs the same additions as the sequential walk.
        steps = np.arange(1, nsteps)
        p = np.cumsum(np.concatenate(([process.p0], r1[:-1] / steps)))
        g = np.cumsum(np.concatenate(([process.g0], r2[:-1] / steps)))
        return p, g
    return (np.full(nsteps, process.p_value), np.full(nsteps, process.g_value))


def simulate(params: IpsoParams, process: AttractorProcess,
             config: SimConfig) -> SimTrace:
    """Run the scalar recursion and log positions with their attractor draws.

    Positions whose magnitude passes ``DIVERGENCE_LIMIT`` (or stop being
    finite) flag the trace as diverged and end it early; unstable parameters
    legitimately do this.
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = _init_range(process)
    x0 = float(config.x0) if config.x0 is not None else float(rng.uniform(lo, hi))
    x1 = float(config.x1) if config.x1 is not None else float(rng.uniform(lo, hi))

    nsteps = config.iterations - 2
    c, ac = params.c, params.alpha * params.c
    phi1 = rng.uniform(min(0.0, c), max(0.0, c), nsteps)
    phi2 = rng.uniform(min(0.0, ac), max(0.0, ac), nsteps)
    p_stream, g_stream = _attractor_streams(process, nsteps, rng)

    # The arrays repeat the scalar update's operations in its order, which
    # keeps the trace bit-identical to it; iterating a memoryview yields
    # Python floats without building lists.
    w = params.omega
    lead = (1.0 + w) - phi1
    lead -= phi2
    xs = [x0, x1]
    xprev, xcur = x0, x1
    diverged = False
    for a, fp, fg in zip(memoryview(lead), memoryview(phi1 * p_stream),
                         memoryview(phi2 * g_stream)):
        xnext = a * xcur - w * xprev + fp + fg
        xs.append(xnext)
        # The chained bounds test is also False for NaN and +-inf.
        if not -DIVERGENCE_LIMIT <= xnext <= DIVERGENCE_LIMIT:
            diverged = True
            break
        xprev, xcur = xcur, xnext

    used = len(xs) - 2
    pad = np.full(2, np.nan)
    return SimTrace(
        positions=np.array(xs),
        p_values=np.concatenate([pad, p_stream[:used]]),
        g_values=np.concatenate([pad, g_stream[:used]]),
        diverged=diverged,
    )


def _window(trace: SimTrace, burn_in: int, need: int, what: str) -> np.ndarray:
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    x = trace.positions[burn_in:]
    if x.size < need:
        raise SampleError(
            f"{what} needs at least {need} post-burn-in samples, have {x.size}")
    return x


def empirical_moments(trace: SimTrace, burn_in: int = 0) -> tuple[float, float]:
    """Sample mean and unbiased sample variance of the post-burn-in positions."""
    x = _window(trace, burn_in, 2, "empirical_moments")
    return float(np.mean(x)), float(np.var(x, ddof=1))


def empirical_autocorrelation(trace: SimTrace, burn_in: int,
                              max_lag: int) -> AutocorrelationSeq:
    """Per-lag Pearson correlation between the series and its shifted copy.

    Each lag correlates ``x[:-i]`` with ``x[i:]`` using their own means and
    scales, which is the estimator the analytic sequence predicts.
    """
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    x = _window(trace, burn_in, max_lag + 3, "empirical_autocorrelation")
    if float(np.var(x)) == 0.0:
        raise SampleError("autocorrelation undefined for a zero-variance series")
    rho = np.empty(max_lag + 1)
    rho[0] = 1.0
    for i in range(1, max_lag + 1):
        # One centring per window serves both the covariance and the scales;
        # sqrt(mean(d * d)) is the arithmetic np.std performs.
        da = x[:-i] - np.mean(x[:-i])
        db = x[i:] - np.mean(x[i:])
        sa, sb = float(np.sqrt(np.mean(da * da))), float(np.sqrt(np.mean(db * db)))
        if sa == 0.0 or sb == 0.0:
            raise SampleError(f"zero variance in the lag-{i} window")
        rho[i] = float(np.mean(da * db) / (sa * sb))
    return AutocorrelationSeq(rho)


def empirical_movement_distance(trace: SimTrace, burn_in: int = 0) -> float:
    """Mean squared one-step displacement after burn-in."""
    x = _window(trace, burn_in, 2, "empirical_movement_distance")
    return float(np.mean(np.diff(x) ** 2))


def empirical_focus(trace: SimTrace, burn_in: int,
                    mu_p: float, mu_g: float) -> float:
    """Squared-distance ratio of the sample mean to the two attractor means."""
    x = _window(trace, burn_in, 1, "empirical_focus")
    mean = float(np.mean(x))
    if mean == mu_g:
        raise DegenerateParameterError(
            "focus estimate degenerate: sample mean coincides with mu_g")
    return (mean - mu_p) ** 2 / (mean - mu_g) ** 2
