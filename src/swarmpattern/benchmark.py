"""Classic benchmark functions and the reproducible experiment runner.

The suite is the usual six-function desk set -- sphere, rosenbrock,
rastrigin, ackley, griewank, schwefel226 -- plus shifted variants of the
first five.  Shift vectors are drawn once per function name from a digest
of that name, so the suite is identical across processes and sessions.

Run seeds mix ``(base_seed, algorithm index, function index, run index)``
through a splitmix64-style finaliser, giving headline-number reproducibility
independent of execution order or parallelism.

The pending runs of one (algorithm, function) cell are stepped in lockstep
by :func:`swarmpattern.swarm.run_many`; with ``parallelism > 1`` worker
processes take whole cells, not single runs.

Results persist incrementally: one CSV per cell with columns
``run, seed, best_value``, plus a JSON manifest of the plan.  A cell's CSV
is written once, whole and run-sorted, as soon as its pending runs finish,
so an interruption loses at most the pending runs of the cells in flight.
An interrupted experiment resumes by rerunning with the same plan and output
directory: runs with a row are skipped, while missing, torn and failed
(NaN) runs are run again, so a resumed experiment is byte-identical to an
uninterrupted one.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SwarmPatternError
from .schedules import (
    ScheduleSpec,
    baseline_schedules,
    schedule_from_dict,
    schedule_to_dict,
)
from .swarm import Problem, run_many

PLAN_FORMAT_VERSION = 1


# --- the classic functions ---------------------------------------------------
#
# Each maps an (n, d) batch of positions to n values, reducing over the last
# axis, so a single d-vector maps to a scalar.  A row's value is the same
# bits whether it is evaluated alone or inside a batch.

def sphere(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=-1)


def rosenbrock(x: np.ndarray) -> np.ndarray:
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2, axis=-1)


def rastrigin(x: np.ndarray) -> np.ndarray:
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x),
                                       axis=-1)


def ackley(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    return (-20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / d))
            - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / d)
            + 20.0 + np.e)


def griewank(x: np.ndarray) -> np.ndarray:
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    return (1.0 + np.sum(x * x, axis=-1) / 4000.0
            - np.prod(np.cos(x / np.sqrt(i)), axis=-1))


def schwefel226(x: np.ndarray) -> np.ndarray:
    return 418.9829 * x.shape[-1] - np.sum(x * np.sin(np.sqrt(np.abs(x))),
                                           axis=-1)


def _shifted(x: np.ndarray, base, shift: np.ndarray) -> np.ndarray:
    return base(x - shift)


_BASES = {
    "sphere": (sphere, -100.0, 100.0, 0.0),
    "rosenbrock": (rosenbrock, -30.0, 30.0, 0.0),
    "rastrigin": (rastrigin, -5.12, 5.12, 0.0),
    "ackley": (ackley, -32.768, 32.768, 0.0),
    "griewank": (griewank, -600.0, 600.0, 0.0),
    "schwefel226": (schwefel226, -500.0, 500.0, None),
}
_SHIFTED = ("sphere", "rosenbrock", "rastrigin", "ackley", "griewank")


@dataclass(frozen=True)
class TestFunction:
    """One benchmark target with its box and (when known) optimum value."""

    name: str
    dimension: int
    lower: np.ndarray
    upper: np.ndarray
    objective: object
    optimum_value: float | None

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def problem(self) -> Problem:
        return Problem(dimension=self.dimension, lower=self.lower,
                       upper=self.upper, objective=self.objective,
                       name=self.name)


def _shift_vector(name: str, dimension: int, lo: float, hi: float) -> np.ndarray:
    # Seed from a stable digest of the function name: identical in every
    # process, unlike the interpreter's salted hash().
    digest = hashlib.sha256(f"shift:{name}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    # Keep the shifted optimum comfortably inside the box.
    return rng.uniform(0.5 * lo, 0.5 * hi, dimension)


def classic_suite(dimension: int) -> tuple[TestFunction, ...]:
    """The six classics plus five shifted variants, all at one dimension."""
    if dimension < 1:
        raise ValueError("dimension must be positive")
    out = []
    for name, (fn, lo, hi, best) in _BASES.items():
        out.append(TestFunction(
            name=name, dimension=dimension,
            lower=np.full(dimension, lo), upper=np.full(dimension, hi),
            objective=fn, optimum_value=best))
    for name in _SHIFTED:
        fn, lo, hi, best = _BASES[name]
        shift = _shift_vector(name, dimension, lo, hi)
        out.append(TestFunction(
            name=f"shifted_{name}", dimension=dimension,
            lower=np.full(dimension, lo), upper=np.full(dimension, hi),
            objective=functools.partial(_shifted, base=fn, shift=shift),
            optimum_value=best))
    return tuple(out)


def suite_function(name: str, dimension: int) -> TestFunction:
    for fn in classic_suite(dimension):
        if fn.name == name:
            return fn
    known = ", ".join(f.name for f in classic_suite(dimension))
    raise ValueError(f"unknown test function {name!r}; known: {known}")


# --- plans and result sets ---------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one tournament's raw data."""

    algorithms: tuple[tuple[str, ScheduleSpec], ...]
    functions: tuple[TestFunction, ...]
    dimension: int
    pop_size: int = 20
    runs: int = 50
    evals_per_dim: int = 5000
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(
            (str(n), s) for n, s in self.algorithms))
        object.__setattr__(self, "functions", tuple(self.functions))
        names = [n for n, _ in self.algorithms]
        if len(set(names)) != len(names):
            raise ValueError("algorithm names must be unique")
        fnames = [f.name for f in self.functions]
        if len(set(fnames)) != len(fnames):
            raise ValueError("function names must be unique")
        for bad in (n for n in names + fnames if not _safe_name(n)):
            raise ValueError(f"name {bad!r} is not filesystem-safe")
        if not self.algorithms or not self.functions:
            raise ValueError("plan needs at least one algorithm and one function")
        if any(f.dimension != self.dimension for f in self.functions):
            raise ValueError("every function must match the plan dimension")
        if self.runs < 2:
            raise ValueError("runs must be at least 2 for downstream statistics")
        if self.pop_size < 1 or self.evals_per_dim < 1 or self.dimension < 1:
            raise ValueError("pop_size, evals_per_dim and dimension must be positive")
        if not (0 <= self.base_seed < 2 ** 64):
            raise ValueError("base_seed must fit in 64 bits")

    @property
    def budget_evals(self) -> int:
        return self.evals_per_dim * self.dimension


def _safe_name(name: str) -> bool:
    return bool(name) and all(ch.isalnum() or ch in "_-" for ch in name)


def default_plan(dimension: int = 10, runs: int = 15,
                 base_seed: int = 0) -> ExperimentPlan:
    """Stock comparison: the six schedules over the classic suite."""
    return ExperimentPlan(
        algorithms=tuple(baseline_schedules().items()),
        functions=classic_suite(dimension),
        dimension=dimension,
        pop_size=20,
        runs=runs,
        evals_per_dim=5000,
        base_seed=base_seed,
    )


@dataclass(frozen=True)
class ResultSet:
    """Final best values and seeds, indexed (algorithm, function, run)."""

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    values: np.ndarray
    seeds: np.ndarray
    failures: tuple[tuple[str, str, int, str], ...] = ()

    def __post_init__(self):
        shape = (len(self.algorithms), len(self.functions), -1)
        values = np.asarray(self.values, dtype=float)
        seeds = np.asarray(self.seeds, dtype=np.uint64)
        if values.ndim != 3 or values.shape[:2] != shape[:2]:
            raise ValueError("values must have shape (n_algorithms, n_functions, runs)")
        if seeds.shape != values.shape:
            raise ValueError("seeds must match the shape of values")
        values.setflags(write=False)
        seeds.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seeds", seeds)

    @property
    def runs(self) -> int:
        return int(self.values.shape[2])


# --- seed derivation ---------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, algorithm_index: int, function_index: int,
                run_index: int) -> int:
    """Stable 64-bit mix of the run coordinates.

    Chains one splitmix64 finaliser per coordinate, so any coordinate change
    reshuffles the seed and distinct coordinates never collide in practice.
    """
    state = base_seed & _MASK64
    for part in (algorithm_index, function_index, run_index):
        state = _splitmix64(state ^ (part & _MASK64))
    return state


# --- persistence -------------------------------------------------------------

def plan_to_dict(plan: ExperimentPlan) -> dict:
    return {
        "format_version": PLAN_FORMAT_VERSION,
        "algorithms": [{"name": n, "schedule": schedule_to_dict(s)}
                       for n, s in plan.algorithms],
        "functions": [f.name for f in plan.functions],
        "dimension": plan.dimension,
        "pop_size": plan.pop_size,
        "runs": plan.runs,
        "evals_per_dim": plan.evals_per_dim,
        "base_seed": plan.base_seed,
    }


def plan_from_dict(data: dict) -> ExperimentPlan:
    version = data.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise ValueError(f"unsupported plan format_version {version!r} "
                         f"(this build reads {PLAN_FORMAT_VERSION})")
    try:
        algorithms = tuple((a["name"], schedule_from_dict(a["schedule"]))
                           for a in data["algorithms"])
        dimension = int(data["dimension"])
        functions = tuple(suite_function(name, dimension)
                          for name in data["functions"])
        return ExperimentPlan(
            algorithms=algorithms,
            functions=functions,
            dimension=dimension,
            pop_size=int(data["pop_size"]),
            runs=int(data["runs"]),
            evals_per_dim=int(data["evals_per_dim"]),
            base_seed=int(data["base_seed"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed experiment plan: {exc}") from exc


def load_plan(path: str | Path) -> ExperimentPlan:
    with open(path, encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))


def _cell_path(out_dir: Path, algorithm: str, function: str) -> Path:
    return out_dir / "results" / f"{algorithm}__{function}.csv"


def _read_cell(path: Path) -> dict[int, tuple[int, float]]:
    rows: dict[int, tuple[int, float]] = {}
    if not path.exists():
        return rows
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    # Every complete row ends with a line terminator.  A tail without one was
    # torn by an interrupted write, even when what is left of it still parses;
    # a file torn inside its header line holds no rows.
    reader = csv.reader(text[:text.rfind("\n") + 1].splitlines())
    header = next(reader, None)
    if header not in (None, ["run", "seed", "best_value"]):
        raise ValueError(f"{path} has unexpected header {header!r}")
    for row in reader:
        if len(row) != 3:
            continue  # malformed row
        try:
            run_index = int(row[0])
            seed = int(row[1])
            value = float(row[2])
        except ValueError:
            continue
        rows[run_index] = (seed, value)
    return rows


def _write_cell(path: Path, seeds: np.ndarray, values: np.ndarray) -> None:
    """Write one whole cell, a row for every run in run order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "seed", "best_value"])
        for run_index, (seed, value) in enumerate(zip(seeds, values)):
            writer.writerow([run_index, int(seed), repr(float(value))])


def _read_results(plan: ExperimentPlan,
                  out_path: Path | None) -> tuple[np.ndarray, np.ndarray]:
    """Values and seeds of every run on disk, indexed (algorithm, function, run).

    A run without a row (every run, when there is no directory) reads as a
    NaN value and a zero seed.
    """
    values = np.full((len(plan.algorithms), len(plan.functions), plan.runs),
                     np.nan)
    seeds = np.zeros_like(values, dtype=np.uint64)
    if out_path is None:
        return values, seeds
    for i, (algorithm, _) in enumerate(plan.algorithms):
        for k, function in enumerate(plan.functions):
            rows = _read_cell(_cell_path(out_path, algorithm, function.name))
            for r, (seed, value) in rows.items():
                if 0 <= r < plan.runs:
                    values[i, k, r] = value
                    seeds[i, k, r] = seed
    return values, seeds


def _run_cell(task) -> tuple[int, int, list[tuple[int, float, str]]]:
    """Every pending run of one cell, stepped in lockstep."""
    i, k, runs, seeds, function, schedule, pop_size, budget = task
    try:
        results = run_many(function.problem(), schedule, pop_size, budget,
                           seeds)
        return i, k, [(r, result.best_value, "")
                      for r, result in zip(runs, results)]
    except SwarmPatternError as exc:
        # Only a schedule shared by every run raises a toolkit error, and it
        # fails them all at the same tick, as each would fail alone.
        error = f"{type(exc).__name__}: {exc}"
        return i, k, [(r, math.nan, error) for r in runs]


def run_experiment(plan: ExperimentPlan, out_dir: str | Path | None = None,
                   parallelism: int = 1) -> ResultSet:
    """Execute (or finish) every run of the plan.

    The pending runs of one (algorithm, function) cell step in lockstep, and
    ``parallelism`` worker processes take one cell at a time.  With
    ``out_dir`` set, each cell whose runs were pending is written whole,
    run-sorted, as soon as they finish, and runs already on disk are
    skipped, which is what makes interrupted experiments resumable.  Failed
    runs are recorded as NaN with the error captured in
    ``ResultSet.failures`` (and ``failures.csv``), never silently dropped;
    a resume runs them again and so reproduces the same failures.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        (out_path / "results").mkdir(parents=True, exist_ok=True)
        manifest_path = out_path / "manifest.json"
        manifest = {"plan": plan_to_dict(plan), "toolkit_version": __version__}
        if manifest_path.exists():
            with open(manifest_path, encoding="utf-8") as fh:
                on_disk = json.load(fh)
            if on_disk.get("plan") != manifest["plan"]:
                raise ValueError(
                    f"{manifest_path} was written for a different plan; "
                    "use a fresh output directory")
        else:
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
    values, seeds = _read_results(plan, out_path)

    tasks = []
    for i, (_, schedule) in enumerate(plan.algorithms):
        for k, function in enumerate(plan.functions):
            runs = [r for r in range(plan.runs) if math.isnan(values[i, k, r])]
            if runs:
                run_seeds = [derive_seed(plan.base_seed, i, k, r) for r in runs]
                tasks.append((i, k, runs, run_seeds, function, schedule,
                              plan.pop_size, plan.budget_evals))

    failures: list[tuple[str, str, int, str]] = []

    def record(i: int, k: int, outcomes: list[tuple[int, float, str]]) -> None:
        for r, value, error in outcomes:
            values[i, k, r] = value
            seeds[i, k, r] = derive_seed(plan.base_seed, i, k, r)
            if error:
                failures.append((plan.algorithms[i][0], plan.functions[k].name,
                                 r, error))
        if out_path is not None:
            _write_cell(_cell_path(out_path, plan.algorithms[i][0],
                                   plan.functions[k].name),
                        seeds[i, k], values[i, k])

    if parallelism == 1 or len(tasks) <= 1:
        for task in tasks:
            record(*_run_cell(task))
    else:
        workers = min(parallelism, os.cpu_count() or 1, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for outcome in pool.map(_run_cell, tasks, chunksize=1):
                record(*outcome)

    if out_path is not None:
        failure_path = out_path / "failures.csv"
        if failures:
            with open(failure_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["algorithm", "function", "run", "error"])
                writer.writerows(failures)
        elif failure_path.exists():
            failure_path.unlink()

    return ResultSet(
        algorithms=tuple(n for n, _ in plan.algorithms),
        functions=tuple(f.name for f in plan.functions),
        values=values,
        seeds=seeds,
        failures=tuple(failures),
    )


def load_results(out_dir: str | Path) -> ResultSet:
    """Rebuild a ResultSet from a finished output directory.

    A run without a row, or with a NaN value (a failed run), is reported
    as missing.  The hint points at ``failures.csv`` when the directory has
    one, since a rerun fails those runs the same way; otherwise it says to
    resume the experiment.
    """
    out_path = Path(out_dir)
    manifest_path = out_path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {out_path}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    plan = plan_from_dict(manifest["plan"])
    values, seeds = _read_results(plan, out_path)
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        preview = ", ".join(
            f"{plan.algorithms[i][0]}/{plan.functions[k].name}#{r}"
            for i, k, r in missing[:5])
        if (out_path / "failures.csv").exists():
            hint = ("see failures.csv: those runs failed, and a rerun fails "
                    "them the same way")
        else:
            hint = ("rerun the experiment with the same plan and output "
                    "directory to resume")
        raise ValueError(f"{len(missing)} runs missing or failed in {out_path} "
                         f"(e.g. {preview}); {hint}")
    return ResultSet(
        algorithms=tuple(n for n, _ in plan.algorithms),
        functions=tuple(f.name for f in plan.functions),
        values=values,
        seeds=seeds,
    )
