"""Command-line interface, driven in process through cli.main."""
from __future__ import annotations

import json

import numpy as np
import pytest

from swarmpattern import (
    ExperimentPlan,
    FixedAttractors,
    IidUniformAttractors,
    IpsoParams,
    LinearInertia,
    Mapso,
    RandomInertia,
    RandomWalkAttractors,
    SimConfig,
    SuccessRateInertia,
    __version__,
    baseline_schedules,
    cli,
    default_plan,
    ipso_to_moments,
    is_order2_convergent,
    plan_to_dict,
    run,
    suite_function,
)

from swarmpattern.simulate import _simulate

from conftest import reference_pattern, reference_row


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config_line(err):
    line = next(l for l in err.splitlines() if l.startswith("effective-config: "))
    return json.loads(line[len("effective-config: "):])


def _rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestEffectiveConfig:
    def test_attractor_process_flags_are_recorded(self, capsys):
        code, _, err = _run(capsys, "simulate", "--omega", "0.7", "--c", "1.4",
                            "--p-range", "0", "1", "--iterations", "50",
                            "--burn-in", "10")
        assert code == 0
        config = _config_line(err)
        assert config["command"] == "simulate"
        assert config["p_range"] == [0.0, 1.0]

        code, _, err = _run(capsys, "autocorr", "--omega", "0.7", "--c", "1.4",
                            "--simulate", "--process", "walk", "--g0", "3",
                            "--iterations", "2000", "--burn-in", "100",
                            "--max-lag", "2")
        assert code == 0
        config = _config_line(err)
        assert config["process"] == "walk"
        assert config["g0"] == 3.0


class TestSolve:
    def test_text_worked_example(self, capsys):
        code, out, err = _run(capsys, "solve", "--rho1", "0.5", "--vc", "1.0")
        assert code == 0
        assert "omega = 0.8701298701298701" in out
        assert "c     = 0.935064935064935" in out
        assert "convergent: True" in out
        config = _config_line(err)
        assert config["command"] == "solve"
        assert config["toolkit_version"] == __version__
        assert config["rho1"] == 0.5

    def test_json_payload_with_residuals(self, capsys):
        code, out, _ = _run(capsys, "solve", "--rho1", "-0.3", "--vc", "4.0",
                            "--focus", "9.0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["residual_rho1"]) < 1e-9
        assert abs(payload["residual_vc"]) < 1e-9 * 4.0
        assert abs(payload["residual_focus"]) < 1e-9 * 9.0
        assert payload["conditions"]["convergent"] is True
        assert payload["alpha"] == pytest.approx(3.0)

    def test_invalid_target_is_an_input_error(self, capsys):
        code, _, err = _run(capsys, "solve", "--rho1", "1.0", "--vc", "1.0")
        assert code == 2
        assert "error: rho1 must lie in (-1,1)" in err

    def test_degenerate_target_is_a_numerical_error(self, capsys):
        code, _, err = _run(capsys, "solve", "--rho1", "0.0", "--vc", "1.0",
                            "--focus", "1.0", "--alpha-sign", "-1")
        assert code == 3
        assert "error:" in err


class TestNumericalOverflow:
    # The last case has a finite alpha c, so only vc's alpha ** 2 overflows.
    @pytest.mark.parametrize("argv, message", [
        (("moments", "--omega", "1e200", "--c", "1"), "moment system overflows"),
        (("moments", "--omega", "0.5", "--c", "1e200"),
         "moment system overflows"),
        (("solve", "--rho1", "0.5", "--vc", "1", "--focus", "1e300"),
         "pattern solver overflows"),
        (("solve", "--rho1", "0.5", "--vc", "1e308"),
         "pattern solver round-trip failed on rho1: got nan, wanted 0.5"),
        (("moments", "--omega", "0.7", "--c", "1e-200", "--alpha", "1e200"),
         "variance coefficient overflows"),
    ], ids=["moments-omega", "moments-c", "solve-focus", "solve-vc",
            "moments-vc"])
    def test_is_a_numerical_error_on_one_line(self, capsys, argv, message):
        code, out, err = _run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        config, error = err.splitlines()
        assert config.startswith("effective-config: ")
        assert error == f"error: {message}"

    # Each moments flag in turn at 1e300 and 1.7e308.  alpha c past the
    # float range makes mu_phi2 non-finite, an input error; every other
    # probe squares a float past its range inside the moment system.
    @pytest.mark.parametrize("flag", ["omega", "c", "alpha", "mu-p", "sigma-p",
                                      "mu-g", "sigma-g"])
    @pytest.mark.parametrize("value", ["1e300", "1.7e308"])
    def test_every_moments_overflow_names_the_moment_system(self, capsys, flag,
                                                            value):
        argv = {"omega": "0.7", "c": "1.4", "alpha": "1", "mu-p": "0",
                "sigma-p": "1", "mu-g": "0", "sigma-g": "1", flag: value}
        code, out, err = _run(capsys, "moments",
                              *(f"--{name}={v}" for name, v in argv.items()))
        assert out == ""
        config, error = err.splitlines()
        assert config.startswith("effective-config: ")
        if (flag, value) == ("alpha", "1.7e308"):
            assert code == 2
            assert error == ("error: CoefficientMoments.mu_phi2 must be a "
                             "finite number, got inf")
        else:
            assert code == 3
            assert error == "error: moment system overflows"


_EXTREMES = ["0", "-0.0", "5e-324", "1e-300", "-1e-300", "1e300", "-1e300",
             "1.7e308", "-1.7e308", "nan", "inf"]

# (command, process) and the float flags set in turn over _EXTREMES; a range
# flag is set to (-v, v).  The simulated iterations leave the default
# burn-in valid, and autocorr's fixed attractors stay apart, since a trace
# seeded on p = g never moves; its estimator may name a diverged trace.
_GRID = {("solve", None): ["rho1", "vc", "focus"],
         ("simulate", "iid"): ["omega", "c", "alpha", "x0", "x1", "p-range",
                               "g-range"],
         ("simulate", "walk"): ["p0", "g0", "step-range"],
         ("simulate", "fixed"): ["p-value", "g-value"],
         ("autocorr", "iid"): ["p-range", "g-range"],
         ("autocorr", "walk"): ["p0", "g0", "step-range"],
         ("autocorr", "fixed"): ["p-value", "g-value"]}
_BASE = {"solve": ["--rho1=0.5", "--vc=1"],
         "simulate": ["--omega=0.7", "--c=1.4", "--iterations=2000"],
         "autocorr": ["--omega=0.7", "--c=1.4", "--simulate",
                      "--iterations=2000", "--p-value=1", "--g-value=2"]}


class TestExitContract:
    """Every answer is exit 0, or exit 2 or 3 on one error line that names
    the flag's field or the quantity that failed, never a traceback."""

    @pytest.mark.parametrize("value", _EXTREMES)
    @pytest.mark.parametrize("command, process, flag", [
        (command, process, flag) for (command, process), flags in _GRID.items()
        for flag in flags])
    def test_every_extreme_flag_value_keeps_the_contract(
            self, capsys, command, process, flag, value):
        argv = [command, *_BASE[command]]
        argv = [a for a in argv if not a.startswith(f"--{flag}=")]
        if process:
            argv.append(f"--process={process}")
        if flag.endswith("range"):
            # A leading space keeps argparse from reading "-v" as a flag.
            neg = value[1:] if value.startswith("-") else "-" + value
            argv += [f"--{flag}", f" {neg}", f" {value}"]
        else:
            argv.append(f"--{flag}={value}")
        code, _, err = _run(capsys, *argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        if code == 0:
            assert errors == []
            return
        assert len(errors) == 1
        subject = errors[0][len("error: "):]
        field = subject.split(" ")[0].rpartition(".")[2]
        assert (field == flag.replace("-", "_")
                or subject.startswith("pattern solver ")
                or (command == "autocorr" and subject.startswith(
                    "empirical_autocorrelation undefined: the trace diverged "
                    "at step "))), subject


class TestAutocorr:
    def test_pure_random_rows_are_zero(self, capsys):
        code, out, _ = _run(capsys, "autocorr", "--omega", "0", "--c", "1")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["lag", "rho_analytic"]
        assert len(rows) == 21
        assert float(rows[0][1]) == 1.0
        assert all(float(row[1]) == 0.0 for row in rows[1:])

    def test_zero_lag_only(self, capsys):
        code, out, _ = _run(capsys, "autocorr", "--omega", "0.5", "--c", "1",
                            "--max-lag", "0")
        assert code == 0
        _, rows = _rows(out)
        assert [row[0] for row in rows] == ["0"]

    def test_empirical_column_tracks_analytic(self, capsys):
        code, out, _ = _run(capsys, "autocorr", "--omega", "0.73084",
                            "--c", "1.6443", "--simulate",
                            "--iterations", "101000", "--seed", "0")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["lag", "rho_analytic", "rho_empirical"]
        analytic, empirical = float(rows[1][1]), float(rows[1][2])
        assert analytic == pytest.approx(0.05, abs=1e-4)
        assert abs(empirical - analytic) < 0.02

    def test_json_payload(self, capsys):
        code, out, _ = _run(capsys, "autocorr", "--omega", "0.7", "--c", "1.4",
                            "--max-lag", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["lags"] == [0, 1, 2, 3]
        assert len(payload["rho_analytic"]) == 4
        assert "rho_empirical" not in payload

    # Off the order-2 set these printed rho3 = -1.164 and rho1 = -1.94, or
    # overflowed under warnings-as-errors.
    @pytest.mark.parametrize("flags, failed", [
        (["--omega", "1.2", "--c", "1.4"], "omega_in_range"),
        (["--omega", "0.7", "--c", "5"], "spread_ok"),
        (["--omega", "0.7", "--c", "3"], "k2_negative"),
        (["--omega", "1e300", "--c", "1.4"], "omega_in_range"),
        (["--omega", "0.7", "--c", "1e300"], "spread_ok"),
        (["--omega", "0.7", "--c", "1.4", "--alpha", "1e300"], "spread_ok"),
        (["--omega", "1.2", "--c", "1.4", "--simulate", "--iterations", "50"],
         "omega_in_range"),
    ], ids=["omega", "spread", "k2", "huge-omega", "huge-c", "huge-alpha",
            "simulate"])
    def test_a_set_off_the_order2_region_names_its_failed_condition(
            self, capsys, flags, failed):
        code, out, err = _run(capsys, "autocorr", *flags)
        assert code == 3 and out == ""
        assert err.splitlines()[1:] == [
            "error: autocorrelation needs an order-2 convergent set; "
            f"{failed} is false"]

    @pytest.mark.parametrize("flag", ["omega", "c", "alpha"])
    @pytest.mark.parametrize("value", ["0", "-0.0", "5e-324", "1e-300", "-1e-300",
                                       "1e300", "-1e300", "1.7e308", "-1.7e308",
                                       "nan", "inf", "-0.5", "0.5", "3"])
    def test_every_answer_is_a_correlation_or_one_error_line(self, capsys,
                                                             flag, value):
        argv = {"omega": "0.7", "c": "1.4", "alpha": "1", flag: value}
        code, out, err = _run(capsys, "autocorr", "--format", "json",
                              *(f"--{name}={v}" for name, v in argv.items()))
        assert code in (0, 2, 3)
        if code == 0:
            assert all(abs(r) <= 1.0 for r in json.loads(out)["rho_analytic"])
        else:
            assert out == ""
            assert len(err.splitlines()) == 2
            assert err.splitlines()[1].startswith("error: ")


class TestMoments:
    def test_convergent_payload(self, capsys):
        code, out, _ = _run(capsys, "moments", "--omega", "0.7298",
                            "--c", "1.49618", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order1_convergent"] is True
        assert payload["order2_convergent"] is True
        assert payload["e_x"] == 0.0
        assert payload["v_x"] > 0.0
        assert payload["movement_distance"] > 0.0
        assert payload["spectral_radius"] < 1.0
        assert payload["focus"] == pytest.approx(1.0)

    def test_divergent_setting_reports_no_equilibrium(self, capsys):
        code, out, _ = _run(capsys, "moments", "--omega", "0.9", "--c", "4.5",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order1_convergent"] is False
        assert payload["e_x"] is None
        assert payload["v_x"] is None
        assert payload["rho1"] is None
        assert "movement_distance" not in payload

    @pytest.mark.parametrize("omega, c", [(0.7, 3.0), (-1.0, 1.0)],
                             ids=["order1-only", "omega-minus-one"])
    def test_rho1_is_reported_only_on_the_order2_set(self, capsys, omega, c):
        code, out, _ = _run(capsys, "moments", "--omega", str(omega),
                            "--c", str(c), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order1_convergent"] is (omega == 0.7)
        assert payload["order2_convergent"] is False
        assert payload["rho1"] is None and payload["v_x"] is None

    def test_text_format_prints_sorted_pairs(self, capsys):
        code, out, _ = _run(capsys, "moments", "--omega", "0.7298",
                            "--c", "1.49618")
        assert code == 0
        assert "e_x = 0.0" in out
        lines = out.strip().splitlines()
        assert lines == sorted(lines)


class TestSimulate:
    def test_csv_layout_and_summary(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, out, err = _run(capsys, "simulate", "--omega", "0.7298",
                              "--c", "1.49618", "--iterations", "500",
                              "--burn-in", "10", "--seed", "0",
                              "--output", str(target))
        assert code == 0
        assert out == ""
        assert "mean " in err and "variance " in err
        lines = target.read_text().splitlines()
        assert lines[0] == "t,x,p,g"
        assert len(lines) == 501
        assert lines[1].startswith("0,")
        assert lines[1].endswith(",nan,nan")

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        argv = ["simulate", "--omega", "0.7298", "--c", "1.49618",
                "--iterations", "300", "--burn-in", "10", "--seed", "9"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert _run(capsys, *argv, "--output", str(first))[0] == 0
        assert _run(capsys, *argv, "--output", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("omega, iterations, process, pinned, flags", [
        (0.7298, 9000, IidUniformAttractors((-9.0, 11.0), (-5.0, 15.0)), {}, []),
        (2.0, 2000, IidUniformAttractors((-9.0, 11.0), (-5.0, 15.0)), {}, []),
        (0.7298, 5000, RandomWalkAttractors(2.5, -1.0, (-0.5, 2.0)),
         {"x0": 0.25, "x1": -3.0},
         ["--process", "walk", "--p0", "2.5", "--g0", "-1",
          "--step-range", "-0.5", "2", "--x0", "0.25", "--x1", "-3"]),
        (0.7298, 5000, FixedAttractors(1.5, -2.0), {"x0": 7.0, "x1": 0.5},
         ["--process", "fixed", "--p-value", "1.5", "--g-value", "-2",
          "--x0", "7", "--x1", "0.5"]),
    ], ids=["seeded", "diverged", "walk", "fixed"])
    def test_rows_spell_each_value_as_its_repr(self, capsys, tmp_path, omega,
                                                iterations, process, pinned,
                                                flags):
        # The row-at-a-time formatter the streamed writer replaced, over the
        # library call that each process's flags spell.
        trace, p, g = _simulate(IpsoParams(omega, 0.1, 1.0), process,
                                SimConfig(iterations=iterations, burn_in=10,
                                          seed=4, **pinned))
        # The seed rows have no generating draw.
        p, g = np.concatenate([[np.nan] * 2, p]), np.concatenate([[np.nan] * 2, g])
        lines = ["t,x,p,g"]
        for t in range(len(trace)):
            lines.append(f"{t},{cli._float_csv(trace.positions[t])},"
                         f"{cli._float_csv(p[t])},{cli._float_csv(g[t])}")
        expected = "\n".join(lines) + "\n"
        argv = ["simulate", "--omega", str(omega), "--c", "0.1",
                "--iterations", str(iterations), "--burn-in", "10", "--seed", "4",
                *flags]
        target = tmp_path / "trace.csv"
        assert _run(capsys, *argv, "--output", str(target))[0] == 0
        assert target.read_text(encoding="utf-8") == expected
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out == expected

    # An overflowing 1 + omega - phi1 - phi2, or phi2 g, raised under
    # warnings-as-errors; an alpha c past the float range, or a walk's seed
    # range p0 + step_range past it, made numpy's uniform draw refuse its
    # range.
    @pytest.mark.parametrize("flags", [
        ["--omega", "2.0", "--c", "0.1"],
        ["--omega", "0.7", "--c", "1.7e308"],
        ["--omega", "0.7", "--c", "1", "--alpha", "1.7e308"],
        ["--omega", "0.7", "--c", "1.4", "--alpha", "1.7e308"],
        ["--omega", "0.7", "--c", "1.4", "--alpha=-1.7e308"],
        ["--omega", "0.7", "--c", "1.4", "--process", "walk", "--p0", "1e308",
         "--step-range", " -1", "1e308"],
    ], ids=["unstable", "overflowing-lead", "overflowing-pull",
            "overflowing-bound", "overflowing-negative-bound",
            "overflowing-seed-range"])
    def test_divergent_trace_skips_summary(self, capsys, flags):
        code, out, err = _run(capsys, "simulate", *flags, "--iterations", "2000",
                              "--seed", "0")
        assert code == 0
        assert err.splitlines()[-1] == "trace diverged; summary statistics skipped"
        rows = out.splitlines()
        assert rows[0] == "t,x,p,g" and 3 < len(rows) < 2001


class TestOptimize:
    def test_json_payload_and_history(self, capsys, tmp_path):
        history = tmp_path / "history.csv"
        code, out, _ = _run(capsys, "optimize", "--function", "sphere",
                            "--dimension", "2", "--schedule", "icpso",
                            "--pop-size", "10", "--budget-evals", "500",
                            "--seed", "0", "--format", "json",
                            "--history", str(history))
        assert code == 0
        payload = json.loads(out)
        assert payload["function"] == "sphere"
        assert payload["evals"] == 500
        assert payload["steps"] == 49
        assert payload["seed"] == 0
        assert len(payload["best_position"]) == 2
        header, rows = _rows(history.read_text())
        assert header == ["evals", "best_value"]
        assert [int(row[0]) for row in rows] == [10 * (1 + i) for i in range(50)]
        values = [float(row[1]) for row in rows]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == payload["best_value"]

    def test_history_file_is_the_result_history(self, capsys, tmp_path):
        # A partial final sweep: 505 evaluations buy 50 whole steps.
        history = tmp_path / "history.csv"
        code, out, _ = _run(capsys, "optimize", "--function", "rastrigin",
                            "--dimension", "3", "--schedule", "mapso",
                            "--pop-size", "10", "--budget-evals", "505",
                            "--seed", "4", "--format", "json",
                            "--history", str(history))
        assert code == 0
        payload = json.loads(out)
        assert (payload["evals"], payload["steps"]) == (510, 50)
        result = run(suite_function("rastrigin", 3), Mapso(), 10, 505, 4)
        lines = ["evals,best_value"]
        lines += [f"{e},{v!r}" for e, v in result.history]
        assert history.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_text_line(self, capsys):
        code, out, _ = _run(capsys, "optimize", "--function", "sphere",
                            "--dimension", "2", "--schedule", "icpso",
                            "--pop-size", "10", "--budget-evals", "200",
                            "--seed", "1")
        assert code == 0
        assert out.startswith("sphere: best ")
        assert "(19 steps)" in out

    def test_unknown_schedule_lists_known_names(self, capsys):
        code, _, err = _run(capsys, "optimize", "--function", "sphere",
                            "--schedule", "nope")
        assert code == 2
        assert ("unknown schedule 'nope'; known: "
                "aiwpso, icpso, ldwpso, liwpso, mapso, rwpso") in err

    @pytest.mark.parametrize("text, kind", [
        ("linear:-1e308,1e308", "LinearInertia"),
        ("success:-1e308,1e308", "SuccessRateInertia"),
    ], ids=["linear", "success"])
    def test_overflowing_schedule_is_a_numerical_error(self, capsys, text,
                                                       kind):
        code, _, err = _run(capsys, "optimize", "--function", "sphere",
                            "--dimension", "2", "--schedule", text,
                            "--pop-size", "10", "--budget-evals", "100")
        assert code == 3
        assert f"{kind} coefficients must be finite at tick 0" in err

    def test_malformed_schedule_expression(self, capsys):
        # The spelling in each message is read from the spec's fields.
        for text, message in [
                ("constant:0.7,1.4", "constant schedule needs omega,c,alpha"),
                ("linear:0.9",
                 "linear schedule needs omega_start,omega_end[,c[,alpha]]"),
                ("random:1,1,1", "random schedule needs [c[,alpha]]"),
                ("success:0,1,1,1,1",
                 "success schedule needs [omega_min[,omega_max[,c[,alpha]]]]")]:
            code, _, err = _run(capsys, "optimize", "--function", "sphere",
                                "--schedule", text)
            assert code == 2
            assert message in err

    def test_inline_arguments_fill_the_spec_fields_in_order(self):
        assert cli._parse_schedule("success:0.2") == SuccessRateInertia(
            omega_min=0.2)
        assert cli._parse_schedule("linear:0.9,0.4,2") == LinearInertia(
            0.9, 0.4, c=2.0)
        assert cli._parse_schedule("constant:0.7,1.4,1") == IpsoParams(
            0.7, 1.4, 1.0)

    def test_unknown_function(self, capsys):
        code, _, err = _run(capsys, "optimize", "--function", "slope")
        assert code == 2
        assert "unknown test function 'slope'" in err


def _reference_dump(spec, t_max, stride):
    """schedule-dump's CSV by the per-tick loop: one reference_row call and
    one reference_pattern call per printed tick.  An inertia that each run
    sets from its own draw or success rate has no value to print."""
    draws = isinstance(spec, RandomInertia)
    weights_success = (isinstance(spec, SuccessRateInertia)
                       and spec.omega_max != spec.omega_min)
    lines = ["t,vc,rho1,focus,omega,c,alpha"]
    for t in range(0, t_max + 1, stride):
        omega, c, alpha = ((None, spec.c, spec.alpha) if draws
                           else reference_row(spec, t, t_max))
        cells = [None, None, None, None if weights_success else omega, c,
                 alpha]
        if isinstance(spec, Mapso):
            rho1_t, vc_t, focus_t = reference_pattern(t, t_max, spec)
            cells[:3] = vc_t, rho1_t, focus_t
        lines.append(",".join([str(t)] + ["" if v is None else repr(float(v))
                                          for v in cells]))
    return "\n".join(lines) + "\n"


class TestScheduleDump:
    def test_mapso_profile_endpoints(self, capsys):
        code, out, _ = _run(capsys, "schedule-dump", "--schedule", "mapso",
                            "--t-max", "600", "--stride", "60")
        assert code == 0
        header, rows = _rows(out)
        assert header == ["t", "vc", "rho1", "focus", "omega", "c", "alpha"]
        assert len(rows) == 11
        first, last = rows[0], rows[-1]
        assert [float(v) for v in first[:4]] == [0.0, 25.0, 0.1, 0.25]
        assert [float(v) for v in last[:4]] == [600.0, 5.0, 0.1, 25.0]
        assert max(float(row[2]) for row in rows) == 0.8
        for row in rows:
            params = IpsoParams(*(float(v) for v in row[4:]))
            assert is_order2_convergent(ipso_to_moments(params))

    def test_non_mapso_schedules_leave_pattern_columns_blank(self, capsys):
        code, out, _ = _run(capsys, "schedule-dump", "--schedule",
                            "constant:0.7,1.4,1.0", "--t-max", "10",
                            "--stride", "5")
        assert code == 0
        _, rows = _rows(out)
        assert [row[:4] for row in rows] == [
            ["0", "", "", ""], ["5", "", "", ""], ["10", "", "", ""]]
        assert all(float(row[4]) == 0.7 for row in rows)

    @pytest.mark.parametrize("schedule, c, alpha", [
        ("aiwpso", "1.49618", "1.0"), ("rwpso", "1.49618", "1.0"),
        ("random:2,0.5", "2.0", "0.5")])
    def test_run_set_inertia_leaves_omega_blank(self, capsys, schedule, c,
                                                 alpha):
        # Only a run's own draw or live success rate sets that inertia;
        # there is no schedule value to print.
        code, out, _ = _run(capsys, "schedule-dump", "--schedule", schedule,
                            "--t-max", "4", "--stride", "2")
        assert code == 0
        _, rows = _rows(out)
        assert rows == [[t, "", "", "", "", c, alpha] for t in ("0", "2", "4")]

    @pytest.mark.parametrize("flags", [
        (), ("--t-max", "997", "--stride", "7"),
        ("--t-max", "1", "--stride", "5")])
    @pytest.mark.parametrize("schedule", [
        *sorted(baseline_schedules()), "constant:-0.0,1.2,1.0", "linear:1,-1",
        "random:2,0.5", "success:0.1,0.9"])
    def test_output_equals_the_per_tick_loop_byte_for_byte(self, capsys,
                                                           schedule, flags):
        code, out, err = _run(capsys, "schedule-dump", "--schedule", schedule,
                              *flags)
        assert code == 0
        config = _config_line(err)
        assert "seed" not in config  # the dump draws nothing
        assert out == _reference_dump(cli._parse_schedule(schedule),
                                      config["t_max"], config["stride"])

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_stride_below_one_is_an_input_error(self, capsys, stride):
        code, out, err = _run(capsys, "schedule-dump", "--t-max", "10",
                              "--stride", stride)
        assert code == 2
        assert f"--stride must be at least 1, got {stride}" in err
        assert out == ""

    @pytest.mark.parametrize("t_max", ["0", "-5"])
    def test_t_max_below_one_is_an_input_error(self, capsys, t_max):
        code, out, err = _run(capsys, "schedule-dump", "--t-max", t_max)
        assert code == 2
        assert f"--t-max must be at least 1, got {t_max}" in err
        assert out == ""


class TestBenchAndCompare:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        plan = ExperimentPlan(
            algorithms=(("icpso", IpsoParams(0.711897, 1.711897, 1.0)),
                        ("ldw", LinearInertia(0.9, 0.4))),
            functions=(suite_function("sphere", 2), suite_function("ackley", 2)),
            dimension=2, pop_size=10, runs=3, evals_per_dim=50, base_seed=7)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
        return path

    def test_bench_then_compare(self, capsys, tmp_path, plan_file):
        out_dir = tmp_path / "results"
        code, out, _ = _run(capsys, "bench", "--plan", str(plan_file),
                            "--out", str(out_dir))
        assert code == 0
        assert f"completed 12/12 runs into {out_dir}" in out

        before = {p.name: p.read_bytes()
                  for p in (out_dir / "results").iterdir()}
        code, _, _ = _run(capsys, "bench", "--plan", str(plan_file),
                          "--out", str(out_dir))
        assert code == 0
        after = {p.name: p.read_bytes()
                 for p in (out_dir / "results").iterdir()}
        assert after == before

        code, out, _ = _run(capsys, "compare", "--results", str(out_dir))
        assert code == 0
        assert out.splitlines()[0] == "rank  algorithm        beats"
        matrix = (out_dir / "tournament.csv").read_text().splitlines()
        assert matrix[0] == "algorithm,icpso,ldw"
        assert (out_dir / "edges.csv").read_text().startswith("from,to")
        assert (out_dir / "digraph.dot").read_text().startswith(
            "digraph tournament {")

    def test_bench_config_line_reports_the_plan_values(
            self, capsys, tmp_path, plan_file):
        code, _, err = _run(capsys, "bench", "--plan", str(plan_file),
                            "--out", str(tmp_path / "o"))
        assert code == 0
        config = _config_line(err)
        assert (config["runs"], config["dimension"], config["base_seed"]) == (3, 2, 7)
        assert config["plan"]["runs"] == 3

    def test_compare_on_missing_runs_points_at_resume(self, capsys, tmp_path,
                                                      plan_file):
        out_dir = tmp_path / "results"
        code, _, _ = _run(capsys, "bench", "--plan", str(plan_file),
                          "--out", str(out_dir))
        assert code == 0
        (out_dir / "results" / "ldw__ackley.csv").unlink()
        code, _, err = _run(capsys, "compare", "--results", str(out_dir))
        assert code == 2
        assert "3 runs missing" in err
        assert ("rerun the experiment with the same plan and output directory "
                "to resume") in err

    def test_bench_rejects_a_plan_whose_schedule_table_fails(self, capsys,
                                                             tmp_path):
        plan = ExperimentPlan(
            algorithms=(("icpso", IpsoParams(0.711897, 1.711897, 1.0)),
                        ("overflow", LinearInertia(-1e308, 1e308))),
            functions=(suite_function("sphere", 2),),
            dimension=2, pop_size=5, runs=2, evals_per_dim=20)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
        out_dir = tmp_path / "results"
        code, out, err = _run(capsys, "bench", "--plan", str(plan_path),
                              "--out", str(out_dir))
        assert code == 3
        assert ("error: algorithm 'overflow': LinearInertia coefficients must "
                "be finite at tick 0") in err
        assert "completed" not in out
        assert not (out_dir / "manifest.json").exists()

    def test_compare_without_results(self, capsys, tmp_path):
        code, _, err = _run(capsys, "compare", "--results",
                            str(tmp_path / "missing"))
        assert code == 2
        assert "no manifest.json" in err

    @pytest.mark.parametrize("manifest", ["{}", "[]", '{"plan": 3}'],
                             ids=["no-plan", "list", "plan-not-object"])
    def test_malformed_manifest_is_an_input_error(self, capsys, tmp_path,
                                                  plan_file, manifest):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        (out_dir / "manifest.json").write_text(manifest, encoding="utf-8")
        for argv in (("compare", "--results", str(out_dir)),
                     ("bench", "--plan", str(plan_file), "--out", str(out_dir))):
            code, _, err = _run(capsys, *argv)
            assert code == 2, argv
            assert "is not a manifest: need a JSON object with a 'plan' object" in err

    @pytest.mark.parametrize("key, value", [("runs", 5.9), ("dimension", True)])
    def test_bench_rejects_a_non_integer_count_before_writing(
            self, capsys, tmp_path, plan_file, key, value):
        data = {**json.loads(plan_file.read_text(encoding="utf-8")),
                key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out_dir = tmp_path / "results"
        code, _, err = _run(capsys, "bench", "--plan", str(bad),
                            "--out", str(out_dir))
        assert code == 2
        assert f"{key} must be a JSON integer, got {value!r}" in err
        assert not (out_dir / "manifest.json").exists()

    @pytest.mark.parametrize("name", [5, True, None])
    def test_bench_rejects_a_non_string_algorithm_name(
            self, capsys, tmp_path, plan_file, name):
        data = json.loads(plan_file.read_text(encoding="utf-8"))
        data["algorithms"][0]["name"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        out_dir = tmp_path / "results"
        code, _, err = _run(capsys, "bench", "--plan", str(bad),
                            "--out", str(out_dir))
        assert code == 2
        assert "malformed experiment plan" in err
        assert f"algorithm name {name!r} is not a string" in err
        assert not (out_dir / "manifest.json").exists()

    def test_bench_rejects_a_non_finite_plan_before_writing(
            self, capsys, tmp_path, plan_file):
        data = json.loads(plan_file.read_text(encoding="utf-8"))
        linear = data["algorithms"][1]["schedule"]
        for kind, schedule, spelling in [
                ("linear_inertia", {**linear, "c": float("nan")}, "NaN"),
                ("mapso", {"kind": "mapso", "v_max": float("inf")}, "Infinity")]:
            data["algorithms"][1]["schedule"] = schedule
            bad = tmp_path / f"bad_{kind}.json"
            bad.write_text(json.dumps(data), encoding="utf-8")
            assert spelling in bad.read_text(encoding="utf-8")
            out_dir = tmp_path / f"d_{kind}"
            code, _, err = _run(capsys, "bench", "--plan", str(bad),
                                "--out", str(out_dir))
            assert code == 2
            assert f"bad fields for schedule kind '{kind}'" in err
            assert not (out_dir / "manifest.json").exists()

    def test_bench_runs_the_stock_plan_without_a_plan_file(self, capsys,
                                                            tmp_path):
        out_dir = tmp_path / "stock"
        code, out, _ = _run(capsys, "bench", "--out", str(out_dir),
                            "--dimension", "2", "--runs", "2")
        assert code == 0
        assert f"completed 132/132 runs into {out_dir}" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["plan"] == plan_to_dict(default_plan(2, runs=2))

    def test_bench_without_plan_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "bench", "--plan",
                            str(tmp_path / "ghost.json"),
                            "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error:" in err
