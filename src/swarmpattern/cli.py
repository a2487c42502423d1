"""Command-line window onto the toolkit.

Every subcommand prints a one-line ``effective-config: {...}`` JSON block to
stderr holding every parsed flag (defaults included), the values the command
resolved from them (``bench``'s full plan, ``compare``'s output directory)
and the package version, which is sufficient to reproduce its output
exactly.  Payloads go to stdout or to ``--output``; ``--format json`` always
writes indented JSON with sorted keys.

Exit codes: 0 on success, 2 for input errors (bad flag values, unknown
names, malformed files), 3 for numerical or degenerate-parameter errors
raised by the computation itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    default_plan,
    load_plan,
    load_results,
    plan_to_dict,
    run_experiment,
    suite_function,
)
from .errors import ScheduleError, SwarmPatternError
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
    Constant,
    LinearInertia,
    Mapso,
    RandomInertia,
    ScheduleFeedback,
    SuccessRateInertia,
    baseline_schedules,
    coefficients_at,
    mapso_pattern,
)
from .simulate import (
    FixedAttractors,
    IidUniformAttractors,
    RandomWalkAttractors,
    SimConfig,
    empirical_autocorrelation,
    empirical_moments,
    empirical_movement_distance,
    simulate,
)
from .stats import (
    beat_digraph,
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


def _parse_schedule(text: str):
    """Schedule mini-language: a stock name or ``constant:omega,c,alpha`` /
    ``linear:ws,we[,c[,alpha]]`` / ``random[:c[,alpha]]`` /
    ``success[:wmin,wmax[,c[,alpha]]]``."""
    stock = baseline_schedules()
    head, _, tail = text.partition(":")
    args = []
    if tail:
        try:
            args = [float(v) for v in tail.split(",")]
        except ValueError:
            raise _InputError(f"non-numeric schedule arguments in {text!r}") from None
    try:
        if head in stock and not tail:
            return stock[head]
        if head == "constant":
            if len(args) != 3:
                raise _InputError("constant schedule needs omega,c,alpha")
            return Constant(IpsoParams(*args))
        if head == "linear":
            if len(args) not in (2, 3, 4):
                raise _InputError("linear schedule needs ws,we[,c[,alpha]]")
            return LinearInertia(*args)
        if head == "random":
            if len(args) > 2:
                raise _InputError("random schedule takes at most c,alpha")
            return RandomInertia(*args)
        if head == "success":
            if len(args) not in (0, 2, 3, 4):
                raise _InputError("success schedule needs [wmin,wmax[,c[,alpha]]]")
            return SuccessRateInertia(*args)
    except ValueError as exc:
        if isinstance(exc, _InputError):
            raise
        raise _InputError(f"bad schedule {text!r}: {exc}") from exc
    known = ", ".join(sorted(stock))
    raise _InputError(f"unknown schedule {text!r}; known: {known}")


def _parse_process(args):
    if args.process == "iid":
        return IidUniformAttractors(p_range=tuple(args.p_range),
                                    g_range=tuple(args.g_range))
    if args.process == "walk":
        return RandomWalkAttractors(p0=args.p0, g0=args.g0,
                                    step_range=tuple(args.step_range))
    if args.process == "fixed":
        return FixedAttractors(p_value=args.p_value, g_value=args.g_value)
    raise _InputError(f"unknown attractor process {args.process!r}")


def _add_process_flags(sub, default: str = "iid") -> None:
    sub.add_argument("--process", choices=("iid", "walk", "fixed"),
                     default=default)
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


# --- subcommands -------------------------------------------------------------

def cmd_solve(args) -> int:
    _print_config(args)
    target = MovementPattern(rho1=args.rho1, vc=args.vc, focus=args.focus)
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
    params = IpsoParams(omega=args.omega, c=args.c, alpha=args.alpha)
    analytic = autocorrelation(ipso_to_moments(params), args.max_lag)
    empirical = None
    if args.simulate:
        process = _parse_process(args)
        config = SimConfig(iterations=args.iterations, burn_in=args.burn_in,
                           seed=args.seed)
        trace = simulate(params, process, config)
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
    params = IpsoParams(omega=args.omega, c=args.c, alpha=args.alpha)
    coeffs = ipso_to_moments(params)
    attractors = AttractorMoments(mu_p=args.mu_p, sigma_p=args.sigma_p,
                                  mu_g=args.mu_g, sigma_g=args.sigma_g)
    system = build_moment_system(coeffs, attractors)
    order1 = is_order1_convergent(coeffs)
    order2 = is_order2_convergent(coeffs)
    payload = {
        "order1_convergent": order1,
        "order2_convergent": order2,
        "spectral_radius": spectral_radius(system),
        "rho1": rho1(coeffs),
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
    params = IpsoParams(omega=args.omega, c=args.c, alpha=args.alpha)
    process = _parse_process(args)
    config = SimConfig(iterations=args.iterations, burn_in=args.burn_in,
                       seed=args.seed, x0=args.x0, x1=args.x1)
    trace = simulate(params, process, config)
    lines = ["t,x,p,g"]
    for t in range(len(trace)):
        lines.append(f"{t},{_float_csv(trace.positions[t])},"
                     f"{_float_csv(trace.p_values[t])},"
                     f"{_float_csv(trace.g_values[t])}")
    _emit(args.output, "\n".join(lines) + "\n")
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
              else 5000 * args.dimension)
    result = run(function.problem(), schedule, args.pop_size, budget,
                 args.seed, epsilon0=args.epsilon0)
    if args.history:
        lines = ["evals,best_value"]
        lines.extend(f"{e},{_float_csv(v)}" for e, v in result.history)
        Path(args.history).write_text("\n".join(lines) + "\n", encoding="utf-8")
    payload = {
        "function": function.name,
        "best_value": result.best_value,
        "best_position": [float(v) for v in result.best_position],
        "evals": result.history[-1][0],
        "steps": len(result.history) - 1,
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
    done = int(np.sum(~np.isnan(results.values)))
    total = results.values.size
    print(f"completed {done}/{total} runs into {args.out}")
    if results.failures:
        print(f"{len(results.failures)} runs failed; see failures.csv")
        for algorithm, function, r, error in results.failures[:5]:
            print(f"  {algorithm}/{function} run {r}: {error}")
    return 0


def cmd_compare(args) -> int:
    _print_config(args, out=args.out or args.results)
    results = load_results(args.results)
    tm = tournament(results, p_threshold=args.p_threshold)
    graph = beat_digraph(tm)
    out_dir = Path(args.out or args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "tournament.csv").write_text(tournament_to_csv(tm),
                                            encoding="utf-8")
    (out_dir / "edges.csv").write_text(digraph_edges_csv(graph),
                                       encoding="utf-8")
    (out_dir / "digraph.dot").write_text(digraph_to_dot(graph),
                                         encoding="utf-8")
    sys.stdout.write(ranking_table(graph))
    return 0


def cmd_schedule_dump(args) -> int:
    _print_config(args)
    spec = _parse_schedule(args.schedule)
    rng = np.random.default_rng(args.seed)
    is_mapso = isinstance(spec, Mapso)
    lines = ["t,vc,rho1,focus,omega,c,alpha"]
    for t in range(0, args.t_max + 1, args.stride):
        feedback = ScheduleFeedback(t=t, t_max=args.t_max)
        params = coefficients_at(spec, feedback, rng)
        if is_mapso:
            target = mapso_pattern(t, args.t_max, spec.config)
            pattern = (_float_csv(target.vc), _float_csv(target.rho1),
                       _float_csv(target.focus))
        else:
            pattern = ("", "", "")
        lines.append(f"{t},{pattern[0]},{pattern[1]},{pattern[2]},"
                     f"{_float_csv(params.omega)},{_float_csv(params.c)},"
                     f"{_float_csv(params.alpha)}")
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
    p.add_argument("--pop-size", type=int, default=20)
    p.add_argument("--budget-evals", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon0", type=float, default=0.0)
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
    p.add_argument("--runs", type=int, default=15,
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_schedule_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SwarmPatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
