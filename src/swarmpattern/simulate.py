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

Vectorisation.  The draws are whole arrays made before the recursion starts
(the settling walk is a cumulative sum of its damped steps).  The recursion
then runs in chunks of ``_CHUNK`` steps: each chunk forms its slices of
``1 + omega - phi1 - phi2``, ``phi1 p`` and ``phi2 g`` with the same IEEE
operations in the same order as the scalar update, runs the sequential
two-term recurrence over them as a Python loop, and writes its positions into
the one preallocated trace, where a single array test per chunk finds the
first divergent step.  So once the four streams are drawn, a run of N steps
allocates only its positions at full length: no more than five such arrays
are alive at once, and the returned trace keeps the positions alone, which
equal bit for bit those of the oracle loop in ``tests/test_simulate.py``.

The inertia weight is the constant ``omega`` of ``IpsoParams``; the pulls
are uniform on ``[0, c]`` and ``[0, alpha c]`` (intervals flip orientation
when negative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateParameterError,
    SampleError,
    array_dataclass,
    finite_fields,
    read_only_arrays,
)
from .moments import AttractorMoments
from .patterns import AutocorrelationSeq, IpsoParams

_SQRT3 = math.sqrt(3.0)

# A trace whose position passes this magnitude is declared divergent rather
# than being iterated into float overflow.
DIVERGENCE_LIMIT = 1e100

# Steps of the recursion per chunk: a chunk's coefficient slices and its
# Python floats are the only temporaries, whatever the trace length.
_CHUNK = 4096


def _ordered_interval(process, name: str) -> None:
    """Coerce a range field to a finite ``(lo, hi)`` float pair, ``lo <= hi``."""
    lo, hi = (float(v) for v in getattr(process, name))
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise ValueError(f"{name} must be a finite ordered interval")
    object.__setattr__(process, name, (lo, hi))


@dataclass(frozen=True)
class IidUniformAttractors:
    """Fresh uniform draws each iteration: ``p ~ U[p_range]``, ``g ~ U[g_range]``."""

    p_range: tuple[float, float]
    g_range: tuple[float, float]

    def __post_init__(self):
        _ordered_interval(self, "p_range")
        _ordered_interval(self, "g_range")


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
        finite_fields(self, "p0", "g0")
        _ordered_interval(self, "step_range")


@dataclass(frozen=True)
class FixedAttractors:
    """Constant attractors; the recursion's randomness then lies in the pulls alone."""

    p_value: float
    g_value: float

    __post_init__ = finite_fields


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
    """Length, burn-in, seed and optional pinned seed positions of one run.
    ``burn_in`` is only checked: :func:`simulate` returns every step, and
    the estimators take their own ``burn_in``."""

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
            if getattr(self, name) is not None:
                finite_fields(self, name)


@array_dataclass
class SimTrace:
    """The positions of one run, the two seed positions first.  When
    ``diverged`` is set they stop at the offending step, so their length may
    fall short of the configured iteration count."""

    positions: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        read_only_arrays(self, "positions")

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
        # p[j] = p[j-1] + r1[j-1] / j as a running sum, formed in the draw's
        # own buffer: cumsum adds in index order, so it performs the same
        # additions as the sequential walk.  A walk that overflows holds
        # inf, and the recursion then reports the trace as diverged.
        steps = np.arange(1, nsteps)
        with np.errstate(over="ignore"):
            for walk, start in ((r1, process.p0), (r2, process.g0)):
                walk[1:] = walk[:-1] / steps
                walk[:1] = start
                np.cumsum(walk, out=walk)
        return r1, r2
    return (np.full(nsteps, process.p_value), np.full(nsteps, process.g_value))


def _recurse(x0: float, x1: float, w: float, phi1: np.ndarray, phi2: np.ndarray,
             p_stream: np.ndarray, g_stream: np.ndarray) -> tuple[np.ndarray, bool]:
    """Positions of the recursion, and whether it diverged.

    A diverged trace ends on its first step past ``DIVERGENCE_LIMIT`` and is
    copied out, so it does not keep the full-length buffer alive.
    """
    nsteps = phi1.size
    positions = np.empty(nsteps + 2)
    positions[0], positions[1] = x0, x1
    xprev, xcur = x0, x1
    for start in range(0, nsteps, _CHUNK):
        stop = start + _CHUNK
        f1, f2 = phi1[start:stop], phi2[start:stop]
        # The slices repeat the scalar update's operations in its order,
        # which keeps the trace bit-identical to it; iterating a memoryview
        # yields Python floats without building lists.  A slice that
        # overflows holds inf, and the trace then diverges.
        with np.errstate(over="ignore", invalid="ignore"):
            lead = (1.0 + w) - f1
            lead -= f2
            pull1, pull2 = f1 * p_stream[start:stop], f2 * g_stream[start:stop]
        xs = []
        append = xs.append
        for a, fp, fg in zip(memoryview(lead), memoryview(pull1), memoryview(pull2)):
            xnext = a * xcur - w * xprev + fp + fg
            append(xnext)
            xprev, xcur = xcur, xnext
        seg = positions[2 + start:2 + stop]
        seg[:] = xs
        # Also True for NaN and +-inf; steps after the first one past the
        # limit ran on garbage and are cut away.
        past = np.flatnonzero(~(np.abs(seg) <= DIVERGENCE_LIMIT))
        if past.size:
            return positions[:3 + start + int(past[0])].copy(), True
    return positions, False


def _simulate(params: IpsoParams, process: AttractorProcess, config: SimConfig
              ) -> tuple[SimTrace, np.ndarray, np.ndarray]:
    """:func:`simulate`'s trace and the attractor streams it drew: ``p[j]``
    and ``g[j]`` produced ``positions[j + 2]``."""
    rng = np.random.default_rng(config.seed)
    lo, hi = _init_range(process)
    x0 = float(config.x0) if config.x0 is not None else float(rng.uniform(lo, hi))
    x1 = float(config.x1) if config.x1 is not None else float(rng.uniform(lo, hi))

    nsteps = config.iterations - 2
    c, ac = params.c, params.alpha * params.c
    phi1 = rng.uniform(min(0.0, c), max(0.0, c), nsteps)
    phi2 = rng.uniform(min(0.0, ac), max(0.0, ac), nsteps)
    p_stream, g_stream = _attractor_streams(process, nsteps, rng)

    trace = SimTrace(*_recurse(x0, x1, params.omega, phi1, phi2, p_stream, g_stream))
    return trace, p_stream, g_stream


def simulate(params: IpsoParams, process: AttractorProcess,
             config: SimConfig) -> SimTrace:
    """Run the scalar recursion and return its positions.

    Positions whose magnitude passes ``DIVERGENCE_LIMIT`` (or stop being
    finite) flag the trace as diverged and end it early; unstable parameters
    legitimately do this.
    """
    return _simulate(params, process, config)[0]


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
