"""Command-line window onto the toolkit.

Every subcommand prints a one-line ``effective-config: {...}`` JSON block to
stderr holding every parsed flag (defaults included), the values the command
resolved from them (``bench``'s full plan, ``compare``'s output directory)
and the package version, which is sufficient to reproduce its output
exactly.  Payloads go to stdout or to ``--output``; ``--format json`` always
writes indented JSON with sorted keys.  A value flag is named after the
field it fills: ``--mu-p`` fills ``AttractorMoments.mu_p``, ``--p-range``
``IidUniformAttractors.p_range``.

Exit codes: 0 on success, 2 for input errors (bad flag values, unknown
names, malformed files), 3 for numerical or degenerate-parameter errors
raised by the computation itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    DEFAULT_EVALS_PER_DIM,
    DEFAULT_POP_SIZE,
    DEFAULT_RUNS,
    default_plan,
    load_plan,
    load_results,
    plan_to_dict,
    run_experiment,
    suite_function,
)
from .errors import StabilityError, SwarmPatternError
from .moments import (
    AttractorMoments,
    build_moment_system,
    expectation_fixed_point,
    is_order1_convergent,
    is_order2_convergent,
    spectral_radius,
    variance_fixed_point,
)
from .patterns import (
    IpsoParams,
    MovementPattern,
    autocorrelation,
    convergence_report,
    expected_movement_distance,
    focus,
    gamma,
    ipso_to_moments,
    rho1,
    solve_coefficients,
    vc,
)
from .schedules import (
    LinearInertia,
    Mapso,
    RandomInertia,
    SuccessRateInertia,
    _mapso_profile,
    baseline_schedules,
    coefficient_table,
)
from .simulate import (
    FixedAttractors,
    IidUniformAttractors,
    RandomWalkAttractors,
    SimConfig,
    SimTrace,
    _simulate,
    empirical_autocorrelation,
    empirical_moments,
    empirical_movement_distance,
    simulate,
)
from .stats import (
    digraph_edges_csv,
    digraph_to_dot,
    ranking_table,
    tournament,
    tournament_to_csv,
)
from .swarm import run


class _InputError(ValueError):
    """User-supplied value rejected before any computation started."""


def _print_config(args, **resolved) -> None:
    """Every parsed flag of the command, overridden by the values it resolved."""
    values = {key: value for key, value in vars(args).items() if key != "func"}
    payload = {**values, "toolkit_version": __version__, **resolved}
    print("effective-config: " + json.dumps(payload, sort_keys=True),
          file=sys.stderr)


def _emit(output: str | None, text: str) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_payload(args, payload: dict, lines: list[str]) -> None:
    """Write ``payload`` as JSON under ``--format json``, else the text ``lines``."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    _emit(args.output, text + "\n")


_INLINE = {"constant": IpsoParams, "linear": LinearInertia,
           "random": RandomInertia, "success": SuccessRateInertia}


def _parse_schedule(text: str):
    """Schedule mini-language: a stock name, or ``HEAD[:v,...]`` with a head
    of :data:`_INLINE` whose spec's fields the values fill in order, the
    defaulted ones optional, e.g. ``linear:omega_start,omega_end[,c[,alpha]]``."""
    stock = baseline_schedules()
    head, _, tail = text.partition(":")
    if head in stock and not tail:
        return stock[head]
    if head not in _INLINE:
        known = ", ".join(sorted(stock))
        raise _InputError(f"unknown schedule {text!r}; known: {known}")
    try:
        args = [float(v) for v in tail.split(",")] if tail else []
    except ValueError:
        raise _InputError(f"non-numeric schedule arguments in {text!r}") from None
    spec_fields = fields(_INLINE[head])
    required = sum(f.default is MISSING for f in spec_fields)
    if not required <= len(args) <= len(spec_fields):
        names = [f.name for f in spec_fields]
        spelling = ",".join(names[:required])
        for name in names[required:]:
            spelling += f"[,{name}" if spelling else f"[{name}"
        spelling += "]" * (len(names) - required)
        raise _InputError(f"{head} schedule needs {spelling}")
    try:
        return _INLINE[head](*args)
    except ValueError as exc:
        raise _InputError(f"bad schedule {text!r}: {exc}") from exc


_PROCESSES = {"iid": IidUniformAttractors, "walk": RandomWalkAttractors,
              "fixed": FixedAttractors}


def _build(cls, args):
    """``cls`` with each field filled from the flag of the same name, where
    the command has one; the other fields keep their defaults."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if hasattr(args, f.name)})


def _add_process_flags(sub, default: str = "iid") -> None:
    sub.add_argument("--process", choices=tuple(_PROCESSES), default=default)
    sub.add_argument("--p-range", nargs=2, type=float, default=(-9.0, 11.0),
                     metavar=("LO", "HI"))
    sub.add_argument("--g-range", nargs=2, type=float, default=(-5.0, 15.0),
                     metavar=("LO", "HI"))
    sub.add_argument("--p0", type=float, default=1.0)
    sub.add_argument("--g0", type=float, default=5.0)
    sub.add_argument("--step-range", nargs=2, type=float, default=(-1.0, 1.0),
                     metavar=("LO", "HI"))
    sub.add_argument("--p-value", type=float, default=0.0)
    sub.add_argument("--g-value", type=float, default=0.0)


def _float_csv(value: float) -> str:
    return repr(float(value))


def _write_trace_csv(out, trace: SimTrace, p: np.ndarray, g: np.ndarray) -> None:
    """``t,x,p,g`` rows, each value spelled as ``_float_csv`` spells it: row
    ``t`` holds ``p[t - 2]`` and ``g[t - 2]``, the draws that produced it,
    and the seed rows ``nan``; a memoryview yields one Python float at a time."""
    out.write("t,x,p,g\n")
    seeds = (float("nan"),) * 2
    out.writelines(f"{t},{x!r},{pt!r},{gt!r}\n" for t, (x, pt, gt) in enumerate(zip(
        memoryview(trace.positions), chain(seeds, memoryview(p)),
        chain(seeds, memoryview(g)))))


# --- subcommands -------------------------------------------------------------

def cmd_solve(args) -> int:
    _print_config(args)
    target = _build(MovementPattern, args)
    params = solve_coefficients(target, alpha_sign=args.alpha_sign)
    coeffs = ipso_to_moments(params)
    report = convergence_report(params)
    payload = {
        "omega": params.omega, "c": params.c, "alpha": params.alpha,
        "residual_rho1": rho1(coeffs) - target.rho1,
        "residual_vc": vc(params) - target.vc,
        "residual_focus": focus(coeffs) - target.focus,
        "conditions": report,
    }
    _emit_payload(args, payload, [
        f"omega = {params.omega!r}",
        f"c     = {params.c!r}",
        f"alpha = {params.alpha!r}",
        f"round-trip residuals: rho1 {payload['residual_rho1']:.3e}, "
        f"vc {payload['residual_vc']:.3e}, "
        f"focus {payload['residual_focus']:.3e}",
        f"conditions: -1 < omega < 1: {report['omega_in_range']}; "
        f"0 < c(1+alpha) = {report['spread']:.6g} "
        f"< {report['spread_bound']:.6g}: {report['spread_ok']}; "
        f"k2 = {report['k2']:.6g} < 0: {report['k2_negative']}",
        f"convergent: {report['convergent']}",
    ])
    return 0


def cmd_autocorr(args) -> int:
    _print_config(args)
    params = _build(IpsoParams, args)
    coeffs = ipso_to_moments(params)
    if not is_order2_convergent(coeffs):
        # Correlations exist only for a stationary series.  k2 squares the
        # flags, overflowing only far outside omega's or the spread's range.
        try:
            report = convergence_report(params)
        except OverflowError:
            report = {"omega_in_range": -1.0 < params.omega < 1.0, "spread_ok": False}
        failed = next(k for k in ("omega_in_range", "spread_ok", "k2_negative",
                                  "convergent") if not report[k])
        raise StabilityError(
            f"autocorrelation needs an order-2 convergent set; {failed} is false")
    analytic = autocorrelation(coeffs, args.max_lag)
    empirical = None
    if args.simulate:
        trace = simulate(params, _build(_PROCESSES[args.process], args),
                         _build(SimConfig, args))
        empirical = empirical_autocorrelation(trace, args.burn_in, args.max_lag)
    payload = {"lags": list(range(args.max_lag + 1)),
               "rho_analytic": [float(v) for v in analytic.rho]}
    if empirical is not None:
        payload["rho_empirical"] = [float(v) for v in empirical.rho]
    columns = [key for key in ("rho_analytic", "rho_empirical") if key in payload]
    lines = [",".join(["lag", *columns])]
    lines += [",".join([str(lag), *(_float_csv(payload[key][lag]) for key in columns)])
              for lag in payload["lags"]]
    _emit_payload(args, payload, lines)
    return 0


def cmd_moments(args) -> int:
    _print_config(args)
    params = _build(IpsoParams, args)
    coeffs = ipso_to_moments(params)
    attractors = _build(AttractorMoments, args)
    system = build_moment_system(coeffs, attractors)
    order1 = is_order1_convergent(coeffs)
    order2 = is_order2_convergent(coeffs)
    payload = {
        "order1_convergent": order1,
        "order2_convergent": order2,
        "spectral_radius": spectral_radius(system),
        "rho1": rho1(coeffs) if order2 else None,
        "vc": vc(params),
        "focus": focus(coeffs),
        "gamma": gamma(attractors, params.alpha),
        "e_x": expectation_fixed_point(coeffs, attractors) if order1 else None,
        "v_x": variance_fixed_point(coeffs, attractors) if order2 else None,
    }
    if order2:
        payload["movement_distance"] = expected_movement_distance(
            payload["v_x"], payload["rho1"])
    _emit_payload(args, payload,
                  [f"{key} = {value!r}" for key, value in sorted(payload.items())])
    return 0


def cmd_simulate(args) -> int:
    _print_config(args)
    params = _build(IpsoParams, args)
    trace, p, g = _simulate(params, _build(_PROCESSES[args.process], args),
                            _build(SimConfig, args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as out:
            _write_trace_csv(out, trace, p, g)
    else:
        _write_trace_csv(sys.stdout, trace, p, g)
    if not trace.diverged:
        mean, variance = empirical_moments(trace, args.burn_in)
        print(f"mean {mean!r}  variance {variance!r}  movement "
              f"{empirical_movement_distance(trace, args.burn_in)!r}",
              file=sys.stderr)
    else:
        print("trace diverged; summary statistics skipped", file=sys.stderr)
    return 0


def cmd_optimize(args) -> int:
    _print_config(args)
    function = suite_function(args.function, args.dimension)
    schedule = _parse_schedule(args.schedule)
    budget = (args.budget_evals if args.budget_evals is not None
              else DEFAULT_EVALS_PER_DIM * args.dimension)
    result = run(function, schedule, args.pop_size, budget, args.seed)
    history = result.history
    if args.history:
        lines = ["evals,best_value"]
        lines.extend(f"{e},{_float_csv(v)}" for e, v in history)
        Path(args.history).write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {
        "function": function.name,
        "best_value": result.best_value,
        "best_position": [float(v) for v in result.best_position],
        "evals": history[-1][0],
        "steps": len(history) - 1,
        "seed": result.seed,
    }
    _emit_payload(args, payload, [
        f"{function.name}: best {result.best_value!r} after "
        f"{payload['evals']} evaluations ({payload['steps']} steps)"])
    return 0


def cmd_bench(args) -> int:
    if args.plan:
        try:
            plan = load_plan(args.plan)
        except ValueError as exc:
            # A plan is user input: reject it before the manifest is written.
            raise _InputError(f"bad plan {args.plan}: {exc}") from exc
    else:
        plan = default_plan(dimension=args.dimension, runs=args.runs,
                            base_seed=args.base_seed)
    _print_config(args, plan_file=args.plan, plan=plan_to_dict(plan),
                  runs=plan.runs, dimension=plan.dimension,
                  base_seed=plan.base_seed)
    results = run_experiment(plan, out_dir=args.out,
                             parallelism=args.parallelism)
    n = results.values.size  # run_experiment finishes every run or raises
    print(f"completed {n}/{n} runs into {args.out}")
    return 0


def cmd_compare(args) -> int:
    _print_config(args, out=args.out or args.results)
    results = load_results(args.results)
    tm = tournament(results, p_threshold=args.p_threshold)
    out_dir = Path(args.out or args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in (("tournament.csv", tournament_to_csv(tm)),
                       ("edges.csv", digraph_edges_csv(tm)),
                       ("digraph.dot", digraph_to_dot(tm))):
        (out_dir / name).write_text(text, encoding="utf-8")
    sys.stdout.write(ranking_table(tm))
    return 0


def cmd_schedule_dump(args) -> int:
    _print_config(args)
    if args.t_max < 1:
        raise _InputError(f"--t-max must be at least 1, got {args.t_max}")
    if args.stride < 1:
        raise _InputError(f"--stride must be at least 1, got {args.stride}")
    spec = _parse_schedule(args.schedule)
    ticks = np.arange(0, args.t_max + 1, args.stride)
    omega, c, alpha, per_draw, per_success = coefficient_table(
        spec, args.t_max)[ticks].T
    # Blank cells: the pattern of a schedule other than MAPSO, and an
    # inertia that each run sets from its own draw or success rate.
    blank = [None] * ticks.size
    rho1, vc, focus = (_mapso_profile(ticks, args.t_max, spec)
                       if isinstance(spec, Mapso) else (blank, blank, blank))
    omega = [None if d or s else w
             for d, s, w in zip(per_draw, per_success, omega)]
    lines = ["t,vc,rho1,focus,omega,c,alpha"] + [
        ",".join([str(t), *("" if v is None else _float_csv(v) for v in cells)])
        for t, *cells in zip(ticks, vc, rho1, focus, omega, c, alpha)]
    _emit(args.output, "\n".join(lines) + "\n")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmpattern",
        description="Movement-pattern analysis and pattern-adaptive swarm optimization",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="coefficients realising a movement pattern")
    p.add_argument("--rho1", type=float, required=True)
    p.add_argument("--vc", type=float, required=True)
    p.add_argument("--focus", type=float, default=1.0)
    p.add_argument("--alpha-sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("autocorr", help="analytic (and optional empirical) autocorrelation")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--max-lag", type=int, default=20)
    p.add_argument("--simulate", action="store_true")
    _add_process_flags(p)
    p.add_argument("--iterations", type=int, default=100_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output")
    p.set_defaults(func=cmd_autocorr)

    p = sub.add_parser("moments", help="equilibrium moments and stability diagnostics")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--mu-p", type=float, default=0.0)
    p.add_argument("--sigma-p", type=float, default=1.0)
    p.add_argument("--mu-g", type=float, default=0.0)
    p.add_argument("--sigma-g", type=float, default=1.0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("simulate", help="single-particle trace as CSV")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    _add_process_flags(p)
    p.add_argument("--iterations", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--x1", type=float, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="one optimisation run on a suite function")
    p.add_argument("--function", required=True)
    p.add_argument("--dimension", type=int, default=10)
    p.add_argument("--schedule", default="mapso")
    p.add_argument("--pop-size", type=int, default=DEFAULT_POP_SIZE)
    p.add_argument("--budget-evals", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", help="write (evals,best_value) history CSV here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bench", help="run (or resume) a benchmark experiment")
    p.add_argument("--plan", help="experiment plan JSON; omit for the stock plan")
    p.add_argument("--out", required=True, help="results directory")
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--dimension", type=int, default=10,
                   help="stock-plan dimension (ignored with --plan)")
    p.add_argument("--runs", type=int, default=DEFAULT_RUNS,
                   help="stock-plan runs per pairing (ignored with --plan)")
    p.add_argument("--base-seed", type=int, default=0,
                   help="stock-plan base seed (ignored with --plan)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="tournament statistics over finished results")
    p.add_argument("--results", required=True, help="bench output directory")
    p.add_argument("--p-threshold", type=float, default=0.05)
    p.add_argument("--out", help="where to write tables (default: results dir)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("schedule-dump", help="tabulate a schedule over a run clock")
    p.add_argument("--schedule", default="mapso")
    p.add_argument("--t-max", type=int, default=10_000)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--output")
    p.set_defaults(func=cmd_schedule_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SwarmPatternError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # _InputError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
