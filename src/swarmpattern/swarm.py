"""Population optimizer built on the stochastic position recursion.

Per particle and per dimension the velocity update draws fresh pulls

    v <- omega v + phi1 (pbest - x) + phi2 (gbest - x),   x <- x + v

with ``phi1 ~ U[0, c]`` and ``phi2 ~ U[0, alpha c]``, which is exactly the
recursion the moment theory analyses once the attractors settle.  A
personal best takes a new position on strict improvement at an in-box
position, and on nothing else; positions themselves are never clamped, so
particles may roam outside and return.  The global best is recomputed
synchronously after the whole population has moved.

Cost of a tick: :func:`step` reuses scratch buffers held on the state for
its pulls and masks, and when no particle beats its personal best it skips
the in-box test and the best-keeping, since nothing else can change.  The
objective's returned values are read, never written or kept.

Lockstep: :func:`run_many` advances ``R`` independent runs of one problem
together, each under its own schedule.  Their state is stacked along a
leading run axis and updated in place, and each tick makes one objective
call on all ``R*n`` positions and reads each run's coefficients from a row
of its schedule's table.  The stack keeps one best-so-far array; each result
holds its run's read-only column and derives ``history`` from it when read.
:func:`run` is the case ``R = 1``.

Determinism: every run owns one PCG64 generator, seeded from its own seed,
and reads it in a fixed order per iteration -- first the inertia's draw
(if its rule weights one), then the phi1 matrix, then the phi2 matrix.
:func:`run_many` takes those standard uniforms for a block of iterations at
once, one generator call per run and block, laid out tick after tick in that
same order, so the block length (``_RUN_BYTES`` of one run's draws) never
changes what a run draws.  A run's result depends on its seed only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import array_dataclass, read_only_arrays
from .schedules import ScheduleSpec, coefficient_table

logger = logging.getLogger(__name__)

# Bytes of standard uniforms one run draws per block of run_many.
_RUN_BYTES = 1 << 16


@array_dataclass
class Problem:
    """Box-constrained minimisation target.

    ``objective`` is batched: it maps an ``(n, d)`` array of positions to
    ``n`` values, one per row, and the swarm calls it once per sweep, with
    the particles of every run stepped in lockstep stacked into one array.
    That array is the swarm's own and moves on after the call: an objective
    must not write to it, and must copy whatever of it it keeps.  A
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
        read_only_arrays(self, "lower", "upper")
        lower, upper = self.lower, self.upper
        if lower.shape != (self.dimension,) or upper.shape != (self.dimension,):
            raise ValueError("bounds must be vectors of length dimension")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if (lower >= upper).any():
            raise ValueError("need lower < upper in every dimension")


@dataclass(frozen=True, eq=False)
class SwarmState:
    """Stacked state of ``R`` independent swarms.

    Positions, velocities and personal bests have shape ``(R, n, d)``,
    personal-best values ``(R, n)``, the global bests ``(R, d)`` and their
    values and success rates ``(R,)``.  :func:`step` updates the arrays in
    place.  No field can be reassigned, so the values cached from their
    shapes hold for the state's life.
    """

    problem: Problem
    positions: np.ndarray
    velocities: np.ndarray
    pbest_positions: np.ndarray
    pbest_values: np.ndarray
    gbest: np.ndarray
    gbest_value: np.ndarray
    success_rate: np.ndarray

    @cached_property
    def _run_starts(self) -> np.ndarray:
        """Index of each run's first particle among all ``R*n``."""
        runs, n = self.positions.shape[:2]
        return np.arange(0, runs * n, n)

    @cached_property
    def _workspace(self) -> tuple[np.ndarray, ...]:
        """:func:`step`'s temporaries: the ``(R, n, d)`` pull, two
        ``(R, n, d)`` in-box masks and the ``(R, n)`` improvement mask."""
        shape = self.positions.shape
        return (np.empty(shape), np.empty(shape, dtype=bool),
                np.empty(shape, dtype=bool), np.empty(shape[:2], dtype=bool))


@array_dataclass
class RunResult:
    """Final best plus ``best_so_far``, the global best after the initial
    sweep and each tick of ``pop_size`` evaluations: a read-only view of the
    run's column in its stack's array, which ``history`` pairs with evals."""

    best_value: float
    best_position: np.ndarray
    best_so_far: np.ndarray
    pop_size: int
    seed: int

    def __post_init__(self):
        read_only_arrays(self, "best_position", "best_so_far")

    @property
    def history(self) -> tuple[tuple[int, float], ...]:
        n, size = self.pop_size, self.best_so_far.size
        return tuple(zip(range(n, n * (size + 1), n), self.best_so_far.tolist()))


def _evaluate(problem: Problem, positions: np.ndarray) -> np.ndarray:
    """One objective call for the whole sweep; non-finite values become inf.

    ``positions`` stacks the particles of every run, ``(R, n, d)``; the
    objective sees them as one ``(R*n, d)`` array.  The returned values may
    be the objective's own array: it is copied when a value must become inf,
    and never written, so a caller that keeps the result copies it.
    """
    runs, n, d = positions.shape
    rows = runs * n
    values = np.asarray(problem.objective(positions.reshape(rows, d)),
                        dtype=float)
    if values.shape != (rows,):
        raise ValueError(
            f"objective {problem.name or '<anonymous>'} returned shape "
            f"{values.shape} for {rows} positions; the contract is "
            "f(X[n, d]) -> y[n] (lift a per-vector f with "
            "np.apply_along_axis(f, -1, X))")
    finite = np.isfinite(values)
    bad = rows - np.count_nonzero(finite)
    if bad:
        logger.warning(
            "objective %s returned %d non-finite value(s) in a sweep of %d; "
            "treating them as no-improvement",
            problem.name or "<anonymous>", bad, rows)
        values = np.where(finite, values, math.inf)
    return values.reshape(runs, n)


def _take_gbest(state: SwarmState) -> None:
    best = state.pbest_values.argmin(axis=1)
    best += state._run_starts
    state.pbest_positions.reshape(-1, state.gbest.shape[1]).take(
        best, axis=0, out=state.gbest)
    state.pbest_values.reshape(-1).take(best, out=state.gbest_value)


def initialize(problem: Problem, pop_size: int,
               rngs: Sequence[np.random.Generator]) -> SwarmState:
    """One swarm per generator: uniform positions in the box, zero
    velocities, bests from one sweep over every run."""
    if pop_size < 1:
        raise ValueError("pop_size must be positive")
    if not rngs:
        raise ValueError("need at least one generator")
    positions = np.stack([rng.uniform(problem.lower, problem.upper,
                                      (pop_size, problem.dimension))
                          for rng in rngs])
    runs = len(rngs)
    state = SwarmState(
        problem=problem,
        positions=positions,
        velocities=np.zeros_like(positions),
        pbest_positions=positions.copy(),
        pbest_values=_evaluate(problem, positions).copy(),
        gbest=np.empty((runs, problem.dimension)),
        gbest_value=np.empty(runs),
        success_rate=np.zeros(runs),
    )
    _take_gbest(state)
    return state


def _scale_pulls(pulls: np.ndarray, bounds: np.ndarray) -> None:
    """Turn standard draws into phi1 and phi2, in place.

    ``pulls[..., 0, :, :]`` holds the phi1 draws and ``pulls[..., 1, :, :]``
    the phi2 draws; ``bounds[..., 0]`` is c and ``bounds[..., 1]`` is
    alpha*c.  Generator.uniform(low, high) is low + (high - low) * u for
    the same u, so U[min(0, b), max(0, b)] is |b| * u + min(0, b), and the
    shift adds an exact zero when b >= 0.
    """
    bounds = bounds[..., None, None]
    pulls *= np.abs(bounds)
    pulls += np.minimum(bounds, 0.0)


def step(state: SwarmState, omega: np.ndarray, pulls: np.ndarray) -> None:
    """Advance every run one iteration, in place.

    Run ``r`` moves with inertia ``omega[r]`` and the drawn pulls
    ``pulls[r, 0]`` (phi1, towards its personal bests) and ``pulls[r, 1]``
    (phi2, towards its global best), shapes ``(R,)`` and ``(R, 2, n, d)``.
    A personal best takes a strict improvement at an in-box position; each
    run's global best is the synchronous minimum of its updated personal
    bests.
    """
    problem = state.problem
    runs, n, d = state.positions.shape
    if np.shape(omega) != (runs,) or np.shape(pulls) != (runs, 2, n, d):
        raise ValueError(f"inertia of shape {np.shape(omega)} and pulls of "
                         f"shape {np.shape(pulls)} for {runs} runs of "
                         f"{n}x{d}; need ({runs},) and ({runs}, 2, {n}, {d})")
    pull, at_least, at_most, improved = state._workspace
    x, v = state.positions, state.velocities
    v *= omega[:, None, None]
    np.subtract(state.pbest_positions, x, out=pull)
    pull *= pulls[:, 0]
    v += pull
    np.subtract(state.gbest[:, None, :], x, out=pull)
    pull *= pulls[:, 1]
    v += pull
    x += v

    values = _evaluate(problem, x)
    np.less(values, state.pbest_values, out=improved)
    if not np.count_nonzero(improved):
        # Unchanged personal bests keep every global best: nothing to do.
        state.success_rate.fill(0.0)
        return
    np.greater_equal(x, problem.lower, out=at_least)
    np.less_equal(x, problem.upper, out=at_most)
    at_least &= at_most
    improved &= at_least.all(axis=2)
    np.copyto(state.pbest_positions, x, where=improved[:, :, None])
    np.copyto(state.pbest_values, values, where=improved)
    _take_gbest(state)
    state.success_rate[:] = improved.sum(axis=1) / n


def run_many(problem: Problem, schedules: Sequence[ScheduleSpec],
             pop_size: int, budget_evals: int, seeds: Sequence[int]
             ) -> list[RunResult]:
    """One run per seed, run ``r`` under ``schedules[r]``, all stepped in
    lockstep; run ``r`` alone gives the same result bit for bit.

    The schedule clock runs over ``t_max = budget_evals // pop_size`` ticks;
    stepping stops once the budget is spent, so each run's final evaluation
    count is exactly ``pop_size * (1 + steps)``.  The global bests fill one
    ``(steps + 1, R)`` array; run ``r``'s result holds its column, not a copy.

    The table of each distinct schedule (by ``repr``, so -0.0 is not 0.0)
    is built and checked before the initial sweep.  Everything that does not
    depend on the positions is made a block of ticks ahead, as many as fit
    in ``_RUN_BYTES`` of one run's draws, drawn in the order the module
    docstring gives, and the pulls are scaled by the runs' (c, alpha*c).  A
    run's inertia is its table's base value; the draw term is added for a
    block, the success-rate term per tick, each to the runs whose rule
    weights it.
    """
    if pop_size < 1:
        raise ValueError("pop_size must be positive")
    if budget_evals < pop_size:
        raise ValueError("budget_evals must cover at least the initial sweep")
    seeds, schedules = list(seeds), list(schedules)
    if len(schedules) != len(seeds):
        raise ValueError(f"need one schedule per seed, got {len(schedules)} "
                         f"for {len(seeds)} seeds")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    t_max = budget_evals // pop_size
    steps = -(-budget_evals // pop_size) - 1
    distinct = {repr(spec): spec for spec in schedules}  # -0.0 is not 0.0
    tables = [coefficient_table(spec, t_max) for spec in distinct.values()]
    state = initialize(problem, pop_size, rngs)
    runs, n, d = state.positions.shape
    group = [list(distinct).index(repr(spec)) for spec in schedules]
    table = np.stack(tables, axis=-1)  # (t_max + 1, 5, distinct schedules)
    draws, success = table[:, 3:].any(axis=0)[:, group]
    reads_success = success.any()
    width = 2 * n * d
    block = max(1, min(steps, _RUN_BYTES // (8 * (width + 1))))
    pulls = np.empty((runs, block, 2, n, d))
    best_so_far = np.empty((steps + 1, runs))
    best_so_far[0] = state.gbest_value
    # A diverging run overflows to inf and NaN; it stays a result, and
    # its neighbours in the stack run on.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, steps, block):
            k = min(block, steps - start)
            omega, c, alpha, per_draw, per_success = np.moveaxis(
                table[start:start + k, :, group], 1, 0)
            for r, rng in enumerate(rngs):
                if draws[r]:  # per tick the inertia's draw, then the pulls
                    drawn = rng.random((k, width + 1))
                    omega[:, r] += per_draw[:, r] * drawn[:, 0]
                    pulls[r, :k] = drawn[:, 1:].reshape(k, 2, n, d)
                else:
                    rng.random(out=pulls[r, :k])
            _scale_pulls(pulls[:, :k], np.stack((c.T, (alpha * c).T), axis=-1))
            for j in range(k):
                inertia = omega[j]
                if reads_success:
                    inertia = np.where(success, inertia + per_success[j]
                                       * state.success_rate, inertia)
                step(state, inertia, pulls[:, j])
                best_so_far[start + j + 1] = state.gbest_value
    return [RunResult(best_value=float(state.gbest_value[r]),
                      best_position=state.gbest[r].copy(),
                      best_so_far=best_so_far[:, r], pop_size=pop_size,
                      seed=seed)
            for r, seed in enumerate(seeds)]


def run(problem: Problem, schedule: ScheduleSpec, pop_size: int,
        budget_evals: int, seed: int) -> RunResult:
    """Full optimisation run under an evaluation budget: :func:`run_many`
    with one seed."""
    return run_many(problem, [schedule], pop_size, budget_evals, [seed])[0]
