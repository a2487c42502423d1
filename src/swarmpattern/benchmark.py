"""Classic benchmark functions and the reproducible experiment runner.

The suite is the usual six-function desk set -- sphere, rosenbrock,
rastrigin, ackley, griewank, schwefel226 -- plus shifted variants of the
first five.  Shift vectors are drawn once per function name from a digest
of that name, so the suite is identical across processes and sessions.

Run seeds mix ``(base_seed, algorithm index, function index, run index)``
through a splitmix64-style finaliser, giving headline-number reproducibility
independent of execution order or parallelism.

The pending runs of one function, across every algorithm, step in one
lockstep stack by :func:`swarmpattern.swarm.run_many`; with
``parallelism > 1`` worker processes take whole functions, not single runs.

Results persist incrementally: a JSON manifest of the plan and one CSV per
(algorithm, function) cell, columns ``run, seed, best_value``, written once,
whole and run-sorted, when its function's stack finishes, so an interruption
loses at most the pending runs of the function in flight.
An interrupted experiment resumes by rerunning with the same plan and output
directory: runs with a row are skipped, while missing and torn runs are run
again, so a resumed experiment is byte-identical to an uninterrupted one.
A plan whose schedule table fails is rejected before anything is written.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SwarmPatternError, array_dataclass, read_only_arrays
from .schedules import (
    ScheduleSpec,
    baseline_schedules,
    coefficient_table,
    schedule_from_dict,
    schedule_to_dict,
)
from .swarm import Problem, run_many

PLAN_FORMAT_VERSION = 1
# What a plan, `bench` or `optimize` names none of: runs per (algorithm,
# function) pairing, particles per swarm and budget evaluations per dimension.
DEFAULT_RUNS = 15
DEFAULT_POP_SIZE = 20
DEFAULT_EVALS_PER_DIM = 5000


# --- the classic functions ---------------------------------------------------
#
# Each maps an (n, d) batch of positions to n values, reducing over the last
# axis, so a single d-vector maps to a scalar.  A row's value is the same
# bits whether it is evaluated alone or inside a batch.

def sphere(x: np.ndarray) -> np.ndarray:
    return (x * x).sum(axis=-1)


def rosenbrock(x: np.ndarray) -> np.ndarray:
    head, tail = x[..., :-1], x[..., 1:]
    return (100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2).sum(axis=-1)


def rastrigin(x: np.ndarray) -> np.ndarray:
    return 10.0 * x.shape[-1] + (x * x - 10.0 * np.cos(2.0 * np.pi * x)).sum(
        axis=-1)


def ackley(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    return (-20.0 * np.exp(-0.2 * np.sqrt((x * x).sum(axis=-1) / d))
            - np.exp(np.cos(2.0 * np.pi * x).sum(axis=-1) / d)
            + 20.0 + np.e)


def griewank(x: np.ndarray) -> np.ndarray:
    i = np.arange(1, x.shape[-1] + 1, dtype=float)
    return (1.0 + (x * x).sum(axis=-1) / 4000.0
            - np.cos(x / np.sqrt(i)).prod(axis=-1))


def schwefel226(x: np.ndarray) -> np.ndarray:
    return 418.9829 * x.shape[-1] - (x * np.sin(np.sqrt(np.abs(x)))).sum(
        axis=-1)


def _shifted(base, shift: np.ndarray, x: np.ndarray) -> np.ndarray:
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
_SUITE = (*_BASES, *(f"shifted_{name}" for name in _SHIFTED))


@array_dataclass
class TestFunction(Problem):
    """One benchmark target: a :class:`Problem` plus its optimum value,
    when known."""

    optimum_value: float | None = None

    def problem(self) -> Problem:
        return self


def _shift_vector(name: str, dimension: int, lo: float, hi: float) -> np.ndarray:
    # Seed from a stable digest of the function name: identical in every
    # process, unlike the interpreter's salted hash().
    digest = hashlib.sha256(f"shift:{name}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    # Keep the shifted optimum comfortably inside the box.
    shift = rng.uniform(0.5 * lo, 0.5 * hi, dimension)
    shift.setflags(write=False)
    return shift


def suite_function(name: str, dimension: int) -> TestFunction:
    """One :func:`classic_suite` function, the same object on every call."""
    return _suite_function(name, dimension)


@functools.lru_cache(maxsize=None)
def _suite_function(name: str, dimension: int) -> TestFunction:
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if name not in _SUITE:
        raise ValueError(f"unknown test function {name!r}; "
                         f"known: {', '.join(_SUITE)}")
    base = name.removeprefix("shifted_")
    fn, lo, hi, best = _BASES[base]
    # Bound positionally: a partial's args are a tuple, its keywords a dict.
    objective = fn if name == base else functools.partial(
        _shifted, fn, _shift_vector(base, dimension, lo, hi))
    return TestFunction(dimension=dimension, lower=np.full(dimension, lo),
                        upper=np.full(dimension, hi), objective=objective,
                        name=name, optimum_value=best)


def classic_suite(dimension: int) -> tuple[TestFunction, ...]:
    """The six classics plus five shifted variants, all at one dimension."""
    return tuple(_suite_function(name, dimension) for name in _SUITE)


# --- plans and result sets ---------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one tournament's raw data."""

    algorithms: tuple[tuple[str, ScheduleSpec], ...]
    functions: tuple[TestFunction, ...]
    dimension: int
    pop_size: int = DEFAULT_POP_SIZE
    runs: int = DEFAULT_RUNS
    evals_per_dim: int = DEFAULT_EVALS_PER_DIM
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "functions", tuple(self.functions))
        names = [n for n, _ in self.algorithms]
        for bad in (n for n in names if not isinstance(n, str)):
            raise TypeError(f"algorithm name {bad!r} is not a string")
        if len(set(names)) != len(names):
            raise ValueError("algorithm names must be unique")
        fnames = [f.name for f in self.functions]
        if len(set(fnames)) != len(fnames):
            raise ValueError("function names must be unique")
        for bad in (n for n in names + fnames if not _safe_name(n)):
            raise ValueError(f"name {bad!r} is not filesystem-safe")
        if not self.algorithms or not self.functions:
            raise ValueError("plan needs at least one algorithm and one function")
        for f in self.functions:  # the manifest rebuilds a function by name
            if f is not _suite_function(f.name, self.dimension):
                raise ValueError(f"function {f.name!r} must be suite_function's "
                                 "and match the plan dimension")
        if self.runs < 2:
            raise ValueError("runs must be at least 2 for downstream statistics")
        if self.pop_size < 1 or self.evals_per_dim < 1:
            raise ValueError("pop_size and evals_per_dim must be positive")
        if not (0 <= self.base_seed < 2 ** 64):
            raise ValueError("base_seed must fit in 64 bits")

    @property
    def budget_evals(self) -> int:
        return self.evals_per_dim * self.dimension


def _safe_name(name: str) -> bool:
    return bool(name) and all(ch.isalnum() or ch in "_-" for ch in name)


def default_plan(dimension: int = 10, runs: int = DEFAULT_RUNS,
                 base_seed: int = 0) -> ExperimentPlan:
    """Stock comparison: the six schedules over the classic suite."""
    return ExperimentPlan(
        algorithms=tuple(baseline_schedules().items()),
        functions=classic_suite(dimension),
        dimension=dimension,
        runs=runs,
        base_seed=base_seed,
    )


@array_dataclass
class ResultSet:
    """Final best values, indexed (algorithm, function, run); a run's seed is
    :func:`derive_seed` of those indices and the plan's base seed."""

    algorithms: tuple[str, ...]
    functions: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        read_only_arrays(self, "values")
        shape = (len(self.algorithms), len(self.functions))
        if self.values.ndim != 3 or self.values.shape[:2] != shape:
            raise ValueError("values must have shape (n_algorithms, n_functions, runs)")


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
    if not isinstance(data, dict):
        raise ValueError("malformed experiment plan: not a JSON object")
    version = data.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise ValueError(f"unsupported plan format_version {version!r} "
                         f"(this build reads {PLAN_FORMAT_VERSION})")
    try:
        algorithms = tuple((a["name"], schedule_from_dict(a["schedule"]))
                           for a in data["algorithms"])
        counts = {key: data[key] for key in ("dimension", "pop_size", "runs",
                                             "evals_per_dim", "base_seed")}
        # JSON integers only: a float, bool or string is never truncated.
        for key, value in counts.items():
            if type(value) is not int:
                raise TypeError(f"{key} must be a JSON integer, got {value!r}")
        functions = tuple(_suite_function(name, counts["dimension"])
                          for name in data["functions"])
        return ExperimentPlan(algorithms=algorithms, functions=functions,
                              **counts)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed experiment plan: {exc}") from exc


def load_plan(path: str | Path) -> ExperimentPlan:
    with open(path, encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))


def _manifest_plan(path: Path) -> dict:
    """The plan dict of a ``manifest.json``; a ValueError unless the file is
    a JSON object holding a ``plan`` object."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    plan = manifest.get("plan") if isinstance(manifest, dict) else None
    if not isinstance(plan, dict):
        raise ValueError(f"{path} is not a manifest: need a JSON object "
                         "with a 'plan' object")
    return plan


def _cell_path(out_dir: Path, algorithm: str, function: str) -> Path:
    return out_dir / "results" / f"{algorithm}__{function}.csv"


def _read_cell(path: Path) -> dict[int, float]:
    rows: dict[int, float] = {}
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
            run_index, _, value = int(row[0]), int(row[1]), float(row[2])
        except ValueError:
            continue
        rows[run_index] = value
    return rows


def _write_cell(out_path: Path, plan: ExperimentPlan, i: int, k: int,
                values: np.ndarray) -> None:
    """Write cell ``(i, k)`` whole, a row for every run in run order."""
    path = _cell_path(out_path, plan.algorithms[i][0], plan.functions[k].name)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "seed", "best_value"])
        for r, value in enumerate(values):
            writer.writerow([r, derive_seed(plan.base_seed, i, k, r),
                             repr(float(value))])


def _read_results(plan: ExperimentPlan, out_path: Path) -> np.ndarray:
    """Values of every run on disk, indexed (algorithm, function, run).

    A run without a row reads as NaN.  Seeds are not read back: a run's seed
    is :func:`derive_seed`.
    """
    values = np.full((len(plan.algorithms), len(plan.functions), plan.runs),
                     np.nan)
    for i, (algorithm, _) in enumerate(plan.algorithms):
        for k, function in enumerate(plan.functions):
            rows = _read_cell(_cell_path(out_path, algorithm, function.name))
            for r, value in rows.items():
                if 0 <= r < plan.runs:
                    values[i, k, r] = value
    return values


def _run_function(task) -> list[float]:
    """Best values of one stack of pending runs: ``task`` is the arguments
    of :func:`run_many`."""
    return [result.best_value for result in run_many(*task)]


def run_experiment(plan: ExperimentPlan, out_dir: str | Path,
                   parallelism: int = 1) -> ResultSet:
    """Execute (or finish) every run of the plan into ``out_dir``.

    The pending runs of one function, across every algorithm, step in one
    lockstep stack, and ``parallelism`` worker processes take one function
    at a time.  Each cell whose runs were pending is written whole,
    run-sorted, when its function finishes, and runs already on disk are
    skipped, which makes interrupted experiments resumable.
    A plan whose schedule table fails is rejected before anything is
    written: each algorithm's table is checked once, first, and a failure
    re-raises its error with the algorithm's name in front.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    for name, schedule in plan.algorithms:
        try:
            coefficient_table(schedule, plan.budget_evals // plan.pop_size)
        except SwarmPatternError as exc:
            raise type(exc)(f"algorithm {name!r}: {exc}") from exc
    out_path = Path(out_dir)
    (out_path / "results").mkdir(parents=True, exist_ok=True)
    manifest_path = out_path / "manifest.json"
    manifest = {"plan": plan_to_dict(plan), "toolkit_version": __version__}
    if manifest_path.exists():
        if _manifest_plan(manifest_path) != manifest["plan"]:
            raise ValueError(f"{manifest_path} was written for a different "
                             "plan; use a fresh output directory")
    else:
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                 + "\n", encoding="utf-8")
    values = _read_results(plan, out_path)
    pending = np.isnan(values)

    stacks, tasks = [], []
    for k, function in enumerate(plan.functions):
        stack = [(i, r) for i in range(len(plan.algorithms))
                 for r in range(plan.runs) if pending[i, k, r]]
        if stack:
            stacks.append((k, stack))
            # By the public name: a rebound suite_function reaches every run.
            tasks.append((suite_function(function.name, plan.dimension),
                          [plan.algorithms[i][1] for i, _ in stack],
                          plan.pop_size, plan.budget_evals,
                          [derive_seed(plan.base_seed, i, k, r)
                           for i, r in stack]))

    def record(outcomes) -> None:
        for (k, stack), best in zip(stacks, outcomes):
            for (i, r), value in zip(stack, best):
                values[i, k, r] = value
            for i in sorted({i for i, _ in stack}):
                _write_cell(out_path, plan, i, k, values[i, k])

    if parallelism == 1 or len(tasks) <= 1:
        record(map(_run_function, tasks))
    else:
        workers = min(parallelism, os.cpu_count() or 1, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            record(pool.map(_run_function, tasks, chunksize=1))

    return ResultSet(tuple(n for n, _ in plan.algorithms),
                     tuple(f.name for f in plan.functions), values)


def load_results(out_dir: str | Path) -> ResultSet:
    """Rebuild a ResultSet from a finished output directory.

    A run without a row, or with a NaN value, is reported as missing, with
    a hint to resume the experiment.
    """
    out_path = Path(out_dir)
    manifest_path = out_path / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json under {out_path}")
    plan = plan_from_dict(_manifest_plan(manifest_path))
    values = _read_results(plan, out_path)
    missing = np.argwhere(np.isnan(values))
    if missing.size:
        preview = ", ".join(
            f"{plan.algorithms[i][0]}/{plan.functions[k].name}#{r}"
            for i, k, r in missing[:5])
        raise ValueError(f"{len(missing)} runs missing in {out_path} "
                         f"(e.g. {preview}); rerun the experiment with the "
                         "same plan and output directory to resume")
    return ResultSet(tuple(n for n, _ in plan.algorithms),
                     tuple(f.name for f in plan.functions), values)
