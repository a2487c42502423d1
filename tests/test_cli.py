"""Command-line interface, driven in process through cli.main."""
from __future__ import annotations

import json

import numpy as np
import pytest

from swarmpattern import (
    Constant,
    ExperimentPlan,
    IpsoParams,
    LinearInertia,
    Mapso,
    MapsoConfig,
    __version__,
    cli,
    ipso_to_moments,
    is_order2_convergent,
    plan_to_dict,
    suite_function,
)


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
        assert "movement_distance" not in payload

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

    def test_divergent_trace_skips_summary(self, capsys):
        code, out, err = _run(capsys, "simulate", "--omega", "2.0",
                              "--c", "0.1", "--iterations", "2000",
                              "--seed", "0")
        assert code == 0
        assert "trace diverged; summary statistics skipped" in err
        assert len(out.strip().splitlines()) < 2001


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

    def test_malformed_schedule_expression(self, capsys):
        code, _, err = _run(capsys, "optimize", "--function", "sphere",
                            "--schedule", "constant:0.7,1.4")
        assert code == 2
        assert "constant schedule needs omega,c,alpha" in err

    def test_unknown_function(self, capsys):
        code, _, err = _run(capsys, "optimize", "--function", "slope")
        assert code == 2
        assert "unknown test function 'slope'" in err


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


class TestBenchAndCompare:
    @pytest.fixture()
    def plan_file(self, tmp_path):
        plan = ExperimentPlan(
            algorithms=(("icpso", Constant(IpsoParams(0.711897, 1.711897, 1.0))),
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

    def test_compare_on_failed_runs_points_at_failures_csv(self, capsys, tmp_path):
        plan = ExperimentPlan(
            algorithms=(("biased", Mapso(MapsoConfig(f_min=1e9, f_max=1e9))),
                        ("icpso", Constant(IpsoParams(0.711897, 1.711897, 1.0)))),
            functions=(suite_function("sphere", 2),),
            dimension=2, pop_size=5, runs=3, evals_per_dim=20)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
        out_dir = tmp_path / "results"
        code, out, _ = _run(capsys, "bench", "--plan", str(plan_path),
                            "--out", str(out_dir))
        assert code == 0
        assert "3 runs failed; see failures.csv" in out
        code, _, err = _run(capsys, "compare", "--results", str(out_dir))
        assert code == 2
        assert "3 runs missing or failed" in err
        assert "see failures.csv: those runs failed, and a rerun fails them the same way" in err
        assert "to resume" not in err

    def test_compare_without_results(self, capsys, tmp_path):
        code, _, err = _run(capsys, "compare", "--results",
                            str(tmp_path / "missing"))
        assert code == 2
        assert "no manifest.json" in err

    def test_bench_rejects_a_non_finite_plan_before_writing(
            self, capsys, tmp_path, plan_file):
        data = json.loads(plan_file.read_text(encoding="utf-8"))
        data["algorithms"][1]["schedule"]["c"] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        assert "NaN" in bad.read_text(encoding="utf-8")
        out_dir = tmp_path / "d"
        code, _, err = _run(capsys, "bench", "--plan", str(bad),
                            "--out", str(out_dir))
        assert code == 2
        assert "bad fields for schedule kind 'linear_inertia'" in err
        assert not (out_dir / "manifest.json").exists()

    def test_bench_without_plan_file(self, capsys, tmp_path):
        code, _, err = _run(capsys, "bench", "--plan",
                            str(tmp_path / "ghost.json"),
                            "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error:" in err
