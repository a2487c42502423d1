"""optimize: one long ``run()`` per stock schedule on two functions at d=10.

Twelve runs (six schedules x rastrigin and shifted_rosenbrock), each with
pop 20 and 50 000 evaluations, so objective evaluation and ``swarm.step``
dominate.  A batched objective contract shows here; a MAPSO cache shared
across runs or lockstep runs cannot, since every run is alone in its cell.
"""

from __future__ import annotations

import functools
import hashlib
import types

import numpy as np

from harness import Check, digest

DIMENSION = 10
POP_SIZE = 20
BUDGET = 50_000
STEPS = -(-BUDGET // POP_SIZE) - 1  # the run stops once the budget is spent
FUNCTIONS = ("rastrigin", "shifted_rosenbrock")


# --- the benchmark's own formulas for the two test functions ---------------

def _rastrigin(x):
    return 10.0 * x.size + np.sum(x ** 2 - 10.0 * np.cos(2.0 * np.pi * x))


def _rosenbrock(x):
    return np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)


def _shift(name: str, lo: float, hi: float) -> np.ndarray:
    # The suite draws each shift from a digest of the function name and keeps
    # the shifted optimum within the middle half of the box.
    seed = int.from_bytes(hashlib.sha256(f"shift:{name}".encode()).digest()[:8],
                          "little")
    return np.random.default_rng(seed).uniform(0.5 * lo, 0.5 * hi, DIMENSION)


_ROSENBROCK_SHIFT = _shift("rosenbrock", -30.0, 30.0)
REFERENCE = {  # name -> (objective, box half-width)
    "rastrigin": (_rastrigin, 5.12),
    "shifted_rosenbrock": (lambda x: _rosenbrock(x - _ROSENBROCK_SHIFT), 30.0),
}

OPS = tuple(f"{s}/{f}" for f in FUNCTIONS
            for s in ("mapso", "icpso", "ldwpso", "liwpso", "rwpso", "aiwpso"))


def setup(prog, seed: int, work):
    schedules = prog.schedules.baseline_schedules()
    problems = {f: prog.benchmark.suite_function(f, DIMENSION).problem()
                for f in FUNCTIONS}
    seeds = np.random.default_rng([seed, 1]).integers(0, 2 ** 63, len(OPS))
    cells = []
    for label, run_seed in zip(OPS, seeds):
        schedule, function = label.split("/")
        cells.append((label, problems[function], schedules[schedule],
                      int(run_seed)))
    return types.SimpleNamespace(cells=cells, results={})


def _run_cell(prog, ctx, cell, rec):
    label, problem, schedule, seed = cell
    if rec.tracer:
        problem = rec.tracer.traced_problem(problem)
    result = rec.call(label, prog.swarm.run, problem, schedule, POP_SIZE,
                      BUDGET, seed, updates=STEPS * POP_SIZE * DIMENSION)
    ctx.results[label] = result
    rec.blobs[label] = digest(repr(result.best_value),
                              result.best_position.tobytes(),
                              repr(result.history), result.seed)


def ops(prog, ctx, round_dir):
    return [(cell[0], functools.partial(_run_cell, prog, ctx, cell))
            for cell in ctx.cells]


def check(prog, ctx, rounds, round_dir) -> list[Check]:
    value_gap, box_bad, history_bad, count_bad = 0.0, [], [], []
    for label, result in ctx.results.items():
        fn, half = REFERENCE[label.split("/")[1]]
        x = np.asarray(result.best_position, dtype=float)
        own = float(fn(x))
        value_gap = max(value_gap, abs(own - result.best_value)
                        / max(1.0, abs(own)))
        if x.shape != (DIMENSION,) or np.any(np.abs(x) > half):
            box_bad.append(label)
        evals = [e for e, _ in result.history]
        best = [v for _, v in result.history]
        if (any(b > a for a, b in zip(best, best[1:]))
                or best[-1] != result.best_value):
            history_bad.append(label)
        steps = len(result.history) - 1
        if (steps != STEPS or evals[-1] != POP_SIZE * (1 + steps)
                or evals != [POP_SIZE * (1 + t) for t in range(steps + 1)]):
            count_bad.append(label)
    runs = len(ctx.results)
    return [
        Check("best value equals the benchmark's own formula at best_position",
              value_gap <= 1e-12, f"{runs} runs, worst relative gap "
              f"{value_gap:.2e} (tolerance 1e-12)", OPS),
        Check("best position lies in the box", not box_bad,
              f"{runs} runs; outside: {box_bad or 'none'}", OPS),
        Check("best-so-far history is non-increasing and ends at best_value",
              not history_bad, f"violations: {history_bad or 'none'}", OPS),
        Check("evaluation count is pop_size*(1+steps) with steps = "
              f"{STEPS}", not count_bad, f"violations: {count_bad or 'none'}",
              OPS),
    ]
