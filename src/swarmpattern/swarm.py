"""Population optimizer built on the stochastic position recursion.

Per particle and per dimension the velocity update draws fresh pulls

    v <- omega v + phi1 (pbest - x) + phi2 (gbest - x),   x <- x + v

with ``phi1 ~ U[0, c]`` and ``phi2 ~ U[0, alpha c]``, which is exactly the
recursion the moment theory analyses once the attractors settle.  Personal
bests accept a new position only on strict improvement beyond ``epsilon0``
AND only when the position lies inside the search box; positions themselves
are never clamped, so particles may roam outside and return.  The global
best is recomputed synchronously after the whole population has moved.

Determinism: one PCG64 generator owned by :func:`run` drives everything, in
a fixed order per iteration -- first the schedule's own draw (if its rule is
random), then the phi1 matrix, then the phi2 matrix.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .patterns import IpsoParams
from .schedules import ScheduleFeedback, ScheduleSpec, coefficients_at

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Problem:
    """Box-constrained minimisation target.

    ``objective`` is batched: it maps an ``(n, d)`` array of positions to
    ``n`` values, one per row, and the swarm calls it once per sweep.  A
    function written for a single d-vector is lifted with
    ``lambda X: np.apply_along_axis(f, -1, X)``.  Non-finite values are
    treated as unusable (never an improvement) rather than crashing the run.
    """

    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    objective: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise ValueError("bounds must be vectors of length dimension")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("bounds must be finite")
        if np.any(lower >= upper):
            raise ValueError("need lower < upper in every dimension")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class SwarmState:
    """Whole-population state after ``t`` steps and ``evals`` evaluations."""

    problem: Problem
    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_values: np.ndarray
    gbest: np.ndarray
    gbest_value: float
    t: int
    evals: int
    success_rate: float = 0.0

    @property
    def pop_size(self) -> int:
        return int(self.positions.shape[0])


@dataclass(frozen=True)
class RunResult:
    """Final best plus the best-so-far history ``(evals, best_value)``."""

    best_value: float
    best_position: np.ndarray
    history: tuple[tuple[int, float], ...]
    seed: int


def _evaluate(problem: Problem, positions: np.ndarray) -> np.ndarray:
    """One objective call for the whole sweep; non-finite values become inf.

    The objective must return one value per row of ``positions``.  A
    per-vector function ``f`` satisfies that as
    ``lambda X: np.apply_along_axis(f, -1, X)``.
    """
    n = positions.shape[0]
    values = np.array(problem.objective(positions), dtype=float)
    if values.shape != (n,):
        raise ValueError(
            f"objective {problem.name or '<anonymous>'} returned shape "
            f"{values.shape} for {n} positions; the contract is "
            "f(X[n, d]) -> y[n] (lift a per-vector f with "
            "np.apply_along_axis(f, -1, X))")
    bad = ~np.isfinite(values)
    if bad.any():
        logger.warning(
            "objective %s returned %d non-finite value(s) in a sweep of %d; "
            "treating them as no-improvement",
            problem.name or "<anonymous>", np.count_nonzero(bad), n)
        values[bad] = math.inf
    return values


def _initialize(problem: Problem, pop_size: int,
                rng: np.random.Generator) -> SwarmState:
    positions = rng.uniform(problem.lower, problem.upper,
                            (pop_size, problem.dimension))
    velocities = np.zeros_like(positions)
    values = _evaluate(problem, positions)
    best = int(np.argmin(values))
    return SwarmState(
        problem=problem,
        positions=positions,
        velocities=velocities,
        pbest_positions=positions.copy(),
        pbest_values=values,
        gbest=positions[best].copy(),
        gbest_value=float(values[best]),
        t=0,
        evals=pop_size,
        success_rate=0.0,
    )


def initialize(problem: Problem, pop_size: int, seed: int) -> SwarmState:
    """Uniform positions in the box, zero velocities, bests from one sweep."""
    if pop_size < 1:
        raise ValueError("pop_size must be positive")
    return _initialize(problem, pop_size, np.random.default_rng(seed))


def step(state: SwarmState, coeffs: IpsoParams, rng: np.random.Generator,
         epsilon0: float = 0.0) -> SwarmState:
    """Advance the whole population one iteration.

    Personal bests require strict improvement by more than ``epsilon0`` and
    an in-box position; the global best is the synchronous minimum of the
    updated personal bests.
    """
    problem = state.problem
    n, d = state.positions.shape
    c, ac = coeffs.c, coeffs.alpha * coeffs.c
    phi1 = rng.uniform(min(0.0, c), max(0.0, c), (n, d))
    phi2 = rng.uniform(min(0.0, ac), max(0.0, ac), (n, d))

    velocities = (coeffs.omega * state.velocities
                  + phi1 * (state.pbest_positions - state.positions)
                  + phi2 * (state.gbest - state.positions))
    positions = state.positions + velocities

    values = _evaluate(problem, positions)
    in_box = np.all((positions >= problem.lower) & (positions <= problem.upper),
                    axis=1)
    improved = in_box & (values < state.pbest_values - epsilon0)

    pbest_positions = state.pbest_positions.copy()
    pbest_values = state.pbest_values.copy()
    pbest_positions[improved] = positions[improved]
    pbest_values[improved] = values[improved]

    best = int(np.argmin(pbest_values))
    return SwarmState(
        problem=problem,
        positions=positions,
        velocities=velocities,
        pbest_positions=pbest_positions,
        pbest_values=pbest_values,
        gbest=pbest_positions[best].copy(),
        gbest_value=float(pbest_values[best]),
        t=state.t + 1,
        evals=state.evals + n,
        success_rate=np.count_nonzero(improved) / n,
    )


def run(problem: Problem, schedule: ScheduleSpec, pop_size: int,
        budget_evals: int, seed: int, epsilon0: float = 0.0) -> RunResult:
    """Full optimisation run under an evaluation budget.

    The schedule clock runs over ``t_max = budget_evals // pop_size`` ticks;
    stepping stops once the budget is spent, so the final evaluation count
    is exactly ``pop_size * (1 + steps)``.
    """
    if pop_size < 1:
        raise ValueError("pop_size must be positive")
    if budget_evals < pop_size:
        raise ValueError("budget_evals must cover at least the initial sweep")
    rng = np.random.default_rng(seed)
    t_max = budget_evals // pop_size
    state = _initialize(problem, pop_size, rng)
    history = [(state.evals, state.gbest_value)]
    while state.evals < budget_evals:
        feedback = ScheduleFeedback(t=state.t, t_max=t_max,
                                    success_rate=state.success_rate)
        coeffs = coefficients_at(schedule, feedback, rng)
        state = step(state, coeffs, rng, epsilon0=epsilon0)
        history.append((state.evals, state.gbest_value))
    return RunResult(
        best_value=state.gbest_value,
        best_position=state.gbest.copy(),
        history=tuple(history),
        seed=seed,
    )
