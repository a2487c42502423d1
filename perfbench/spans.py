"""In-memory span recorder for the traced benchmark run.

Tracing replaces the module attributes that callers resolve at call time
(``swarmpattern.swarm.step`` is looked up by ``run`` through its module
globals, ``swarmpattern.cli.run_experiment`` by ``cli.main``, and so on) with
wrappers that record one span per call: name, start, end and the enclosing
span.  The originals are put back when the traced round ends.

Objective evaluations are too many to keep one span each.  They are counted
where the benchmark hands the objective over (rows evaluated, rows inside
the box, seconds), and their time is charged to the enclosing span as child
time, so that span's self time excludes the objective.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array

import numpy as np

# (module, attribute callers look up, span name).  The span name is the
# module that defines the function, so a function reached through two
# modules shares one name.
TRACE_POINTS = (
    ("cli", "main", "cli.main"),
    ("cli", "run_experiment", "benchmark.run_experiment"),
    ("cli", "load_results", "benchmark.load_results"),
    ("cli", "tournament", "stats.tournament"),
    ("benchmark", "run", "swarm.run"),
    ("swarm", "run", "swarm.run"),
    ("swarm", "step", "swarm.step"),
    ("swarm", "coefficients_at", "schedules.coefficients_at"),
    ("schedules", "coefficients_at", "schedules.coefficients_at"),
    ("schedules", "solve_coefficients", "patterns.solve_coefficients"),
    ("patterns", "solve_coefficients", "patterns.solve_coefficients"),
    ("stats", "wilcoxon_rank_sum", "stats.wilcoxon_rank_sum"),
    ("moments", "spectral_radius", "moments.spectral_radius"),
    ("moments", "iterate_to_fixed_point", "moments.iterate_to_fixed_point"),
    ("simulate", "simulate", "simulate.simulate"),
    ("simulate", "empirical_autocorrelation", "simulate.empirical_autocorrelation"),
    ("simulate", "empirical_moments", "simulate.empirical_moments"),
    ("simulate", "empirical_movement_distance", "simulate.empirical_movement_distance"),
    ("simulate", "empirical_focus", "simulate.empirical_focus"),
)


_BLOCK = 4096  # objective rows tested against the box at once


class Tracer:
    """Spans as parallel arrays: name id, parent index, start, end, leaf time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.leaf_s = array("d")  # objective time spent directly inside the span
        self._stack: list[int] = []
        self.objective_rows = 0
        self.objective_in_box = 0
        self.objective_s = 0.0
        self._flushes = []  # pending in-box counts of each wrapped objective

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.leaf_s.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()

        return traced

    def objective(self, fn, lower, upper):
        """Count rows (one per vector, n for an n-row batch) and in-box rows.

        Single vectors are copied into a buffer and tested against the box a
        block at a time, which costs far less than one test per vector.
        """
        clock = time.perf_counter
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        buffer = np.empty((_BLOCK, lower.size))
        filled = 0

        def flush():
            nonlocal filled
            self._count_in_box(buffer[:filled], lower, upper)
            filled = 0

        def traced(x):
            nonlocal filled
            t0 = clock()
            y = fn(x)
            t1 = clock()
            if np.ndim(x) == 1:
                buffer[filled] = x
                filled += 1
                if filled == _BLOCK:
                    flush()
            else:
                self._count_in_box(np.asarray(x), lower, upper)
            self.objective_s += t1 - t0
            if self._stack:
                # Bookkeeping included, so the parent's self time excludes it.
                self.leaf_s[self._stack[-1]] += clock() - t0
            return y

        self._flushes.append(flush)
        return traced

    def _count_in_box(self, rows, lower, upper) -> None:
        inside = np.all((rows >= lower) & (rows <= upper), axis=-1)
        self.objective_rows += int(np.size(inside))
        self.objective_in_box += int(np.count_nonzero(inside))

    def traced_problem(self, problem):
        return dataclasses.replace(
            problem, objective=self.objective(problem.objective, problem.lower,
                                              problem.upper))

    @contextlib.contextmanager
    def installed(self, prog):
        """Wrap every trace point of ``prog`` and restore the originals after."""
        saved = []
        try:
            for module, attr, name in TRACE_POINTS:
                mod = getattr(prog, module)
                if hasattr(mod, attr):
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(name, original))
            # Experiment plans resolve their functions through suite_function;
            # wrapping its results hands run() a counted objective.
            original = prog.benchmark.suite_function
            saved.append((prog.benchmark, "suite_function", original))

            def suite_function(*args, **kwargs):
                fn = original(*args, **kwargs)
                return dataclasses.replace(
                    fn, objective=self.objective(fn.objective, fn.lower, fn.upper))

            prog.benchmark.suite_function = suite_function
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)
            for flush in self._flushes:
                flush()
            self._flushes.clear()

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        names = np.array(self.name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        n = duration.size
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested],
                            minlength=n) if n else np.zeros(0)
        own = duration - child - np.array(self.leaf_s)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """One line per span, times in seconds from the first span's start."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i] - origin:.9f}\t"
                         f"{self.end[i] - origin:.9f}\n")
