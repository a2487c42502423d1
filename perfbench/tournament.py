"""tournament: the ``bench`` -> ``compare`` path through ``cli.main``.

All six stock schedules x all eleven suite functions at d=2, 300 evaluations
per dimension and five runs per cell: five runs per side is the smallest
sample on which the two-sided exact rank-sum test can reach p < 0.05.
Many short runs put the weight on per-run and per-tick overhead, on MAPSO
re-solving the same ticks in every run, on the CSV writes beside the reads,
and on ``stats``.  One round:

1. ``fresh``: ``bench`` into an empty directory (330 runs);
2. ``resume_deleted``: copy it, delete one cell CSV, ``bench`` again;
3. ``torn_resume``: ``bench`` a fixed three-run plan, copy its output, tear
   the tail of the cell CSV (drop the line end and the last six
   characters), ``bench`` the copy again;
4. ``compare`` on the fresh directory.

The torn-tail plan does not depend on the seed: it fails the same way in
every round and every run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import re
import shutil
import types
from pathlib import Path

import numpy as np

from harness import Check, digest

DIMENSION = 2
POP_SIZE = 20
RUNS = 5
EVALS_PER_DIM = 300
TORN_RUNS = 3
P_THRESHOLD = 0.05
SAMPLED_CELLS = 3
STEPS = -(-EVALS_PER_DIM * DIMENSION // POP_SIZE) - 1
RUN_UPDATES = STEPS * POP_SIZE * DIMENSION
TORN_FAULT = ("benchmark._read_cell accepts a torn last row that still "
              "parses, so the resume keeps the truncated value")

OPS = ("fresh", "resume_deleted", "torn_resume", "compare")


def setup(prog, seed: int, work: Path):
    bm = prog.benchmark
    rng = np.random.default_rng([seed, 2])
    schedules = prog.schedules.baseline_schedules()
    plan = bm.ExperimentPlan(
        algorithms=tuple(schedules.items()),
        functions=bm.classic_suite(DIMENSION), dimension=DIMENSION,
        pop_size=POP_SIZE, runs=RUNS, evals_per_dim=EVALS_PER_DIM,
        base_seed=int(rng.integers(0, 2 ** 63)))
    torn_plan = bm.ExperimentPlan(
        algorithms=(("mapso", schedules["mapso"]),),
        functions=(bm.suite_function("sphere", DIMENSION),),
        dimension=DIMENSION, pop_size=POP_SIZE, runs=TORN_RUNS,
        evals_per_dim=EVALS_PER_DIM, base_seed=0)
    paths = {}
    for name, p in (("plan", plan), ("torn_plan", torn_plan)):
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(bm.plan_to_dict(p), indent=2),
                               encoding="utf-8")
    cells = [(a, f.name) for a, _ in plan.algorithms for f in plan.functions]
    picks = rng.choice(len(cells), SAMPLED_CELLS + 1, replace=False)
    return types.SimpleNamespace(
        plan=paths["plan"], torn_plan=paths["torn_plan"],
        algorithms=[a for a, _ in plan.algorithms], schedules=schedules,
        cells=cells,
        deleted=cells[picks[0]], sampled=[cells[i] for i in picks[1:]])


def _cell_file(out: Path, cell) -> Path:
    return out / "results" / f"{cell[0]}__{cell[1]}.csv"


def _dir_digest(path: Path) -> bytes:
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return digest(*[part for p in files
                    for part in (str(p.relative_to(path)), p.read_bytes())])


def _cli(prog, rec, label, argv, updates=0) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rec.call(label, prog.cli.main, [str(a) for a in argv],
                        updates=updates)
    if code != 0:
        raise RuntimeError(f"swarmpattern {argv[0]} exited {code}: "
                           f"{err.getvalue().strip()[-300:]}")
    return out.getvalue()


def _fresh(prog, ctx, d, rec):
    _cli(prog, rec, "fresh", ["bench", "--plan", ctx.plan, "--out", d / "fresh"],
         updates=len(ctx.cells) * RUNS * RUN_UPDATES)
    rec.blobs["fresh"] = _dir_digest(d / "fresh")


def _resume_deleted(prog, ctx, d, rec):
    shutil.copytree(d / "fresh", d / "resume")
    _cell_file(d / "resume", ctx.deleted).unlink()
    _cli(prog, rec, "resume_deleted",
         ["bench", "--plan", ctx.plan, "--out", d / "resume"],
         updates=RUNS * RUN_UPDATES)
    rec.blobs["resume_deleted"] = _dir_digest(d / "resume")


def _tear(path: Path) -> None:
    """Drop the line end and the last six characters of the final row."""
    data = path.read_bytes()
    data = data[:-2] if data.endswith(b"\r\n") else data.rstrip(b"\n")
    path.write_bytes(data[:-6])


def _torn_resume(prog, ctx, d, rec):
    _cli(prog, rec, "torn_fresh",
         ["bench", "--plan", ctx.torn_plan, "--out", d / "torn"],
         updates=TORN_RUNS * RUN_UPDATES)
    shutil.copytree(d / "torn", d / "torn_copy")
    _tear(_cell_file(d / "torn_copy", ("mapso", "sphere")))
    # A correct resume reruns the torn run; how many runs it makes is the
    # program's business, so this call is not counted as moving particles.
    _cli(prog, rec, "torn_resume",
         ["bench", "--plan", ctx.torn_plan, "--out", d / "torn_copy"])
    rec.blobs["torn_resume:uninterrupted"] = _dir_digest(d / "torn")
    rec.blobs["torn_resume"] = _dir_digest(d / "torn_copy")


def _compare(prog, ctx, d, rec):
    ranking = _cli(prog, rec, "compare",
                   ["compare", "--results", d / "fresh", "--out", d / "compare"])
    (d / "compare" / "ranking.txt").write_text(ranking, encoding="utf-8")
    rec.blobs["compare"] = _dir_digest(d / "compare")


def ops(prog, ctx, round_dir):
    return [(name, functools.partial(fn, prog, ctx, round_dir))
            for name, fn in (("fresh", _fresh),
                             ("resume_deleted", _resume_deleted),
                             ("torn_resume", _torn_resume),
                             ("compare", _compare))]


# --- checks ------------------------------------------------------------------

def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _scipy_p(a, b) -> tuple[float, str]:
    """Two-sided Mann-Whitney p from scipy, on the path the program documents:
    exact when both sides have fewer than 20 values and nothing ties."""
    from scipy.stats import mannwhitneyu
    pooled = np.concatenate([a, b])
    if np.all(pooled == pooled[0]):
        return 1.0, "constant"
    if np.unique(pooled).size == pooled.size and min(a.size, b.size) < 20:
        return float(mannwhitneyu(a, b, alternative="two-sided",
                                  method="exact").pvalue), "exact"
    return float(mannwhitneyu(a, b, alternative="two-sided",
                              method="asymptotic",
                              use_continuity=True).pvalue), "normal"


def _coarse(values: np.ndarray) -> np.ndarray:
    """One significant digit: ties that send the test down its normal path."""
    return np.array([float(f"{v:.1g}") for v in values])


def check(prog, ctx, rounds, d: Path) -> list[Check]:
    resumed = tuple(r for r, rec in enumerate(rounds)
                    if rec.blobs.get("resume_deleted") != rec.blobs.get("fresh"))
    torn = tuple(r for r, rec in enumerate(rounds)
                 if rec.blobs.get("torn_resume")
                 != rec.blobs.get("torn_resume:uninterrupted"))
    detail = ""
    if torn and torn[0] == 0:
        want = _read_rows(_cell_file(d / "torn", ("mapso", "sphere")))[-1]
        got = _read_rows(_cell_file(d / "torn_copy", ("mapso", "sphere")))[-1]
        detail = f"; last row {got} in place of {want}"
    checks = [
        Check("resume after a deleted cell is byte-identical to the "
              "uninterrupted directory", not resumed,
              f"deleted {'/'.join(ctx.deleted)}; differs in rounds "
              f"{resumed or 'none'}", ("resume_deleted",), resumed or None),
        Check("resume after a torn last row is byte-identical to the "
              "uninterrupted directory", not torn,
              f"differs in rounds {torn or 'none'}{detail}", ("torn_resume",),
              torn or None, known_fault=TORN_FAULT),
    ]

    # The fresh directory, read with the benchmark's own parser.
    values, seeds, layout_bad = {}, {}, []
    for cell in ctx.cells:
        rows = _read_rows(_cell_file(d / "fresh", cell))
        if rows[0] != ["run", "seed", "best_value"] or [
                int(row[0]) for row in rows[1:]] != list(range(RUNS)):
            layout_bad.append(cell)
            continue
        seeds[cell] = [int(row[1]) for row in rows[1:]]
        values[cell] = [row[2] for row in rows[1:]]
    all_seeds = [s for cell_seeds in seeds.values() for s in cell_seeds]
    checks.append(Check(
        "every cell holds runs 0..4 with distinct seeds",
        not layout_bad and len(set(all_seeds)) == len(ctx.cells) * RUNS,
        f"{len(ctx.cells)} cells; malformed: {layout_bad or 'none'}",
        ("fresh",)))
    if layout_bad:
        return checks

    mismatches = []
    for cell in ctx.sampled:
        problem = prog.benchmark.suite_function(cell[1], DIMENSION).problem()
        for run_seed, recorded in zip(seeds[cell], values[cell]):
            result = prog.swarm.run(problem, ctx.schedules[cell[0]], POP_SIZE,
                                    EVALS_PER_DIM * DIMENSION, run_seed)
            if repr(result.best_value) != recorded:
                mismatches.append((cell, run_seed))
    checks.append(Check(
        "sampled cells equal direct run() calls with the recorded seeds",
        not mismatches, f"{len(ctx.sampled)} cells x {RUNS} runs "
        f"({', '.join('/'.join(c) for c in ctx.sampled)}); "
        f"mismatches: {mismatches or 'none'}", ("fresh",)))

    # p-values: the tournament's own entries, and coarsened samples that tie.
    samples = {cell: np.array([float(v) for v in values[cell]])
               for cell in ctx.cells}
    results = prog.benchmark.load_results(d / "fresh")
    entries = prog.stats.tournament(results, P_THRESHOLD).entries
    paths = {"exact": 0, "normal": 0, "constant": 0}
    worst_normal = 0.0
    p_bad = []

    def scipy_agrees(got, x, y, entry) -> float:
        nonlocal worst_normal
        want, path = _scipy_p(x, y)
        paths[path] += 1
        gap = abs(got - want) / max(want, 1e-300)
        if path == "normal":
            worst_normal = max(worst_normal, gap)
        if gap > 1e-9 if path == "normal" else got != want:
            p_bad.append((entry.first, entry.second, entry.function))
        return want

    n = len(ctx.algorithms)
    expected = np.zeros((n, n), dtype=int)
    for entry in entries:
        a = samples[(entry.first, entry.function)]
        b = samples[(entry.second, entry.function)]
        p = scipy_agrees(entry.p_value, a, b, entry)
        scipy_agrees(prog.stats.wilcoxon_rank_sum(_coarse(a), _coarse(b)),
                     _coarse(a), _coarse(b), entry)
        if p < P_THRESHOLD:
            i = ctx.algorithms.index(entry.first)
            j = ctx.algorithms.index(entry.second)
            sign = int(np.sign(np.median(b) - np.median(a)))
            expected[i, j] += sign
            expected[j, i] -= sign
    checks.append(Check(
        "rank-sum p-values match scipy.stats.mannwhitneyu",
        not p_bad and paths["exact"] > 0 and paths["normal"] > 0,
        f"{paths['exact']} exact (equal), {paths['normal']} normal (worst "
        f"relative gap {worst_normal:.1e}, tolerance 1e-9), "
        f"{paths['constant']} constant; mismatches: {p_bad[:3] or 'none'}",
        ("compare",)))

    table = _read_rows(d / "compare" / "tournament.csv")
    matrix = np.array([[int(v) for v in row[1:]] for row in table[1:]])
    order_ok = table[0][1:] == ctx.algorithms and [
        row[0] for row in table[1:]] == ctx.algorithms
    checks.append(Check(
        "tournament matrix is antisymmetric and equals the one rebuilt from "
        "scipy p-values and numpy medians",
        order_ok and np.array_equal(matrix, -matrix.T)
        and np.array_equal(matrix, expected),
        f"{n}x{n}, {int(np.count_nonzero(matrix > 0))} positive entries",
        ("compare",)))

    edges = {tuple(row) for row in _read_rows(d / "compare" / "edges.csv")[1:]}
    positive = {(ctx.algorithms[i], ctx.algorithms[j])
                for i, j in itertools.product(range(n), repeat=2)
                if matrix[i, j] > 0}
    beats = {a: int(np.count_nonzero(matrix[i] > 0))
             for i, a in enumerate(ctx.algorithms)}
    dot = (d / "compare" / "digraph.dot").read_text(encoding="utf-8")
    dot_beats = {m[0]: int(m[1]) for m in
                 re.findall(r'"([^"]+)" \[label="[^"]*\\nbeats (\d+)"\]', dot)}
    ranking = (d / "compare" / "ranking.txt").read_text(encoding="utf-8")
    rank_beats = {row.split()[1]: int(row.split()[2])
                  for row in ranking.splitlines()[1:] if row.strip()}
    checks.append(Check(
        "beat counts equal the positive entries of the matrix",
        edges == positive and dot_beats == beats and rank_beats == beats,
        f"beats {beats}", ("compare",)))
    return checks
