"""Benchmark of swarmpattern: three workloads, end-to-end and per-layer metrics.

Run from the root of a swarmpattern checkout:

    python3 perfbench/run.py --workload optimize --seed 0 --seconds 30 --trace 0

A run sets the workload up several times (``setup_s`` is the median), then
repeats whole rounds of the workload's operations until ``--seconds`` have
passed (at least two rounds), each from a fresh, untimed import and set-up,
then checks the outputs against computations made apart from the program.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced rounds, so it
also reports the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import optimize
import spans
import theory
import tournament
from harness import Check, Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = ("swarm", "schedules", "patterns", "moments", "simulate",
           "benchmark", "stats", "cli")
WORKLOADS = {"optimize": optimize, "tournament": tournament, "theory": theory}
SETUP_REPEATS = 11
MIN_ROUNDS = 2

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "updates_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER = (
    ("benchmark.objective.calls", "count"),
    ("benchmark.objective.total_s", "s"),
    ("benchmark.objective.in_box_ratio", "ratio"),
    ("swarm.run.calls", "count"),
    ("swarm.step.calls", "count"),
    ("swarm.step.self_s", "s"),
    ("schedules.coefficients_at.calls", "count"),
    ("schedules.coefficients_at.self_s", "s"),
    ("patterns.solve_coefficients.calls", "count"),
    ("patterns.solve_coefficients.total_s", "s"),
    ("benchmark.run_experiment.self_s", "s"),
    ("benchmark.load_results.total_s", "s"),
    ("cli.main.self_s", "s"),
    ("stats.tournament.total_s", "s"),
    ("stats.wilcoxon_rank_sum.calls", "count"),
    ("stats.wilcoxon_rank_sum.total_s", "s"),
    ("moments.spectral_radius.calls", "count"),
    ("moments.spectral_radius.total_s", "s"),
    ("moments.iterate_to_fixed_point.total_s", "s"),
    ("simulate.simulate.total_s", "s"),
    ("simulate.empirical_autocorrelation.total_s", "s"),
    ("simulate.empirical_moments.total_s", "s"),
    ("simulate.empirical_movement_distance.total_s", "s"),
    ("simulate.empirical_focus.total_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def import_program():
    """Import swarmpattern afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "swarmpattern" or m.startswith("swarmpattern.")]:
        del sys.modules[name]
    package = importlib.import_module("swarmpattern")
    return types.SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"swarmpattern.{m}") for m in MODULES})


def run_round(workload, prog, ctx, round_dir: Path,
              tracer: spans.Tracer | None) -> Recorder:
    rec = Recorder(tracer)
    round_dir.mkdir(parents=True)
    with tracer.installed(prog) if tracer else contextlib.nullcontext():
        for label, op in workload.ops(prog, ctx, round_dir):
            try:
                op(rec)
            except Exception as exc:  # the op fails; the round goes on
                rec.errors[label] = f"{type(exc).__name__}: {exc}"
    return rec


def harness_checks(rounds) -> list[Check]:
    out = []
    for r, rec in enumerate(rounds):
        for label, error in rec.errors.items():
            out.append(Check(f"{label} raised", False, error, (label,), (r,)))
    for key, blob in rounds[0].blobs.items():
        differ = tuple(r for r, rec in enumerate(rounds)
                       if rec.blobs.get(key) != blob)
        op = key.split(":")[0]
        out.append(Check(f"{key} bit-identical in every round", not differ,
                         f"{len(rounds)} rounds" + (
                             f"; differs in rounds {differ}" if differ else ""),
                         (op,), differ or None))
    return out


def timing(rounds: list[Recorder]) -> tuple[float, float]:
    """(wall_s, updates_per_s) of one round from per-call medians."""
    labels = rounds[0].seconds.keys()
    median = {label: statistics.median(r.seconds[label] for r in rounds
                                       if label in r.seconds)
              for label in labels}
    moving = [label for label in labels if label in rounds[0].updates]
    updates = sum(rounds[0].updates[label] for label in moving)
    moving_s = sum(median[label] for label in moving)
    return sum(median.values()), (updates / moving_s if moving_s else 0.0)


def layer_metrics(tracer: spans.Tracer, traced_rounds: int,
                  overhead_s: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer figures per traced round."""
    summary = tracer.summary()
    values = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        calls, total, own = summary.get(layer, (0, 0.0, 0.0))
        values[name] = {"calls": calls, "total_s": total,
                        "self_s": own}.get(field, 0.0)
    values["benchmark.objective.calls"] = tracer.objective_rows
    values["benchmark.objective.total_s"] = tracer.objective_s
    values["benchmark.objective.in_box_ratio"] = (
        tracer.objective_in_box / tracer.objective_rows
        if tracer.objective_rows else 0.0)
    for name, unit in PER_LAYER:
        if name.endswith((".calls", "total_s", "self_s")):
            values[name] /= traced_rounds
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_share"] = overhead_s / untraced_wall
    return values


def measure(args, workload, work: Path) -> dict:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        prog = import_program()
        ctx = workload.setup(prog, args.seed, work)
        setup_times.append(time.perf_counter() - t0)
    if not Path(prog.package.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported swarmpattern from "
                         f"{prog.package.__file__}, not from {SRC}")

    tracer = spans.Tracer() if args.trace else None
    rounds: list[Recorder] = []
    traced: list[bool] = []
    first = (prog, ctx)  # round 0's program and inputs serve the checks
    start = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start < args.seconds):
        if rounds:
            # Every round starts cold, as one session of a user would: caches
            # the program keeps in its modules do not carry over.
            prog = import_program()
            ctx = workload.setup(prog, args.seed, work)
        # A traced run alternates untraced and traced rounds.
        with_trace = tracer is not None and len(rounds) % 2 == 1
        round_dir = work / f"round-{len(rounds)}"
        rec = run_round(workload, prog, ctx, round_dir, tracer if with_trace
                        else None)
        rounds.append(rec)
        traced.append(with_trace)
        if len(rounds) > 1:
            shutil.rmtree(round_dir)  # round 0's files serve the checks
        # The modules of the previous import sit in reference cycles; free
        # them now, or peak memory would grow with the number of rounds.
        gc.collect()
        print(f"round {len(rounds) - 1}{' traced' if with_trace else ''}: "
              f"{sum(rec.seconds.values()):.3f} s in program calls",
              file=sys.stderr, flush=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = harness_checks(rounds)
    try:
        checks += workload.check(*first, rounds, work / "round-0")
    except Exception as exc:  # outputs too broken to check count as failed
        checks.append(Check("checks ran to the end", False,
                            f"{type(exc).__name__}: {exc}", workload.OPS))
    failed: set[tuple[int, str]] = set()
    correct = True
    for check in checks:
        if not check.ok:
            for r in check.rounds or range(len(rounds)):
                failed.update((r, op) for op in check.ops)
            correct = correct and bool(check.known_fault)
        verdict = "PASS" if check.ok else (
            "FAIL (known fault)" if check.known_fault else "FAIL")
        print(f"check {verdict}  {args.workload}: {check.name}: {check.detail}"
              + (f" [{check.known_fault}]" if check.known_fault and not check.ok
                 else ""))

    h = hashlib.sha256()
    for key in sorted(rounds[0].blobs):
        h.update(key.encode() + rounds[0].blobs[key])
    print(f"digest {args.workload} seed={args.seed} sha256={h.hexdigest()}")

    plain = [rec for rec, t in zip(rounds, traced) if not t]
    wall_s, updates_per_s = timing(plain)
    end_to_end = {"setup_s": statistics.median(setup_times), "wall_s": wall_s,
                  "updates_per_s": updates_per_s, "peak_rss_mb": peak_rss_mb}
    print(f"rounds {len(rounds)} ({sum(traced)} traced); setup runs "
          f"{SETUP_REPEATS}; operations per round {len(workload.OPS)}")
    for name, value in end_to_end.items():
        print(f"metric {name} {value:.6g} {END_TO_END_UNITS[name]}")
    if tracer is None:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    else:
        traced_wall, _ = timing([rec for rec, t in zip(rounds, traced) if t])
        layers = layer_metrics(tracer, sum(traced), traced_wall - wall_s, wall_s)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"metric {name} {layers[name]:.6g} {unit}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
        tracer.write(trace_path)
        print(f"spans {len(tracer.start)} written to {trace_path}")
    return {"correct": correct, "attempted": len(rounds) * len(workload.OPS),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swarmpattern" / "__init__.py").is_file():
        print(f"error: no swarmpattern sources under {SRC}; run the benchmark "
              "from a swarmpattern checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = measure(args, WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
