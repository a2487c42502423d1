"""Coefficient schedules: the pattern-driven profile, the classic baselines,
and the plan serialization round trip."""
from __future__ import annotations

import typing
from dataclasses import fields

import numpy as np
import pytest

from swarmpattern import (
    AttractorMoments,
    CoefficientMoments,
    ConsistencyError,
    FixedAttractors,
    IpsoParams,
    LinearInertia,
    Mapso,
    MovementPattern,
    RandomInertia,
    RandomWalkAttractors,
    ScheduleError,
    ScheduleSpec,
    SuccessRateInertia,
    baseline_schedules,
    cli,
    focus,
    ipso_to_moments,
    is_order2_convergent,
    rho1,
    vc,
)
from swarmpattern.schedules import (
    _KINDS,
    ScheduleFeedback,
    _mapso_profile,
    coefficient_table,
    coefficients_at,
    schedule_from_dict,
    schedule_to_dict,
)

from conftest import reference_pattern, reference_row

T_MAX = 1000
CFG = Mapso()
T1 = CFG.t1_frac * T_MAX
T2 = CFG.t2_frac * T_MAX
T_MID = (T1 + T2) / 2.0


PROFILE = np.array(_mapso_profile(np.arange(T_MAX + 1), T_MAX, CFG))


def _profile(t):
    return MovementPattern(*PROFILE[:, int(t)])


class TestMapsoProfiles:
    def test_search_range_knots(self):
        assert _profile(0).vc == 25.0
        assert _profile(T_MAX).vc == 5.0
        assert _profile(T_MID).vc == pytest.approx(15.0)

    def test_correlation_knots(self):
        assert _profile(0).rho1 == 0.1
        assert _profile(T_MID).rho1 == pytest.approx(0.8)
        assert _profile(T2).rho1 == pytest.approx(0.1)
        assert _profile(T_MAX).rho1 == 0.1

    def test_focus_knots(self):
        assert _profile(0).focus == 0.25
        assert _profile(T1).focus == 1.0
        assert _profile(T_MID).focus == 1.0
        assert _profile(T2).focus == 1.0
        assert _profile(T_MAX).focus == 25.0

    def test_ramps_are_continuous_on_the_clock_grid(self):
        vc_values = [_profile(t).vc for t in range(T_MAX + 1)]
        rho_values = [_profile(t).rho1 for t in range(T_MAX + 1)]
        vc_slope = (CFG.v_max - CFG.v_min) / (T2 - T1)
        rho_slope = (CFG.rho_max - CFG.rho_min) / (T_MID - T1)
        assert np.max(np.abs(np.diff(vc_values))) <= vc_slope * 1.01
        assert np.max(np.abs(np.diff(rho_values))) <= rho_slope * 1.01

    def test_focus_steps_exactly_twice(self):
        values = np.array([_profile(t).focus for t in range(T_MAX + 1)])
        assert np.count_nonzero(np.diff(values)) == 2

    def test_config_validation(self):
        with pytest.raises(ScheduleError, match="0 < v_min <= v_max"):
            Mapso(v_max=5.0, v_min=25.0)
        with pytest.raises(ScheduleError, match="-1 < rho_min <= rho_max < 1"):
            Mapso(rho_max=1.0)
        with pytest.raises(ScheduleError, match="0 < f_min <= f_max"):
            Mapso(f_min=0.0)
        with pytest.raises(ScheduleError, match="0 <= t1_frac < t2_frac <= 1"):
            Mapso(t1_frac=0.9, t2_frac=0.2)


def _row(spec, t, t_max):
    return IpsoParams(*coefficient_table(spec, t_max)[t, :3])


class TestCoefficientsAt:
    """The per-tick read: a clock-only row as one triple."""

    def test_feedback_validation(self):
        with pytest.raises(ValueError, match="t_max must be positive"):
            ScheduleFeedback(t=0, t_max=0)
        with pytest.raises(ValueError, match=r"t must lie in \[0, t_max\]"):
            ScheduleFeedback(t=11, t_max=10)

    @pytest.mark.parametrize("spec", [
        Mapso(), IpsoParams(0.711897, 1.711897, 1.0), LinearInertia(0.9, 0.4)],
        ids=lambda s: type(s).__name__)
    def test_a_clock_only_row_comes_back_as_a_triple(self, spec):
        for t in (0, 3, 10):
            out = coefficients_at(spec, ScheduleFeedback(t=t, t_max=10))
            assert type(out) is IpsoParams
            assert out == _row(spec, t, 10)

    @pytest.mark.parametrize("spec", [RandomInertia(), SuccessRateInertia()],
                             ids=lambda s: type(s).__name__)
    def test_a_per_run_kind_has_no_per_tick_triple(self, spec):
        with pytest.raises(ScheduleError, match=rf"{type(spec).__name__} .* "
                           "read its coefficient_table rows"):
            coefficients_at(spec, ScheduleFeedback(t=0, t_max=10))


TABLE_SPECS = {"mapso": Mapso(), "ldw": LinearInertia(0.9, 0.4),
               "liw": LinearInertia(0.4, 0.9),
               "constant": IpsoParams(0.711897, 1.711897, 1.0)}


# (omega, c, alpha, omega_per_draw, omega_per_success) at ticks 0, 5 and 10
# of a 10-tick clock: only the feedback kinds weight a draw or a success rate.
STOCK_ROWS = {
    "icpso": [(0.711897, 1.711897, 1.0, 0.0, 0.0)] * 3,
    "ldwpso": [(0.9, 1.49618, 1.0, 0.0, 0.0), (0.65, 1.49618, 1.0, 0.0, 0.0),
               (0.4, 1.49618, 1.0, 0.0, 0.0)],
    "liwpso": [(0.4, 1.49618, 1.0, 0.0, 0.0), (0.65, 1.49618, 1.0, 0.0, 0.0),
               (0.9, 1.49618, 1.0, 0.0, 0.0)],
    "rwpso": [(0.5, 1.49618, 1.0, 0.5, 0.0)] * 3,
    "aiwpso": [(0.0, 1.49618, 1.0, 0.0, 1.0)] * 3,
}


class TestCoefficientTable:
    @pytest.mark.parametrize("t_max", [1, 2, 15, 29, 2_500, 10_000])
    @pytest.mark.parametrize("name", sorted(TABLE_SPECS))
    def test_rows_equal_the_per_tick_reference_bit_for_bit(self, name, t_max):
        spec = TABLE_SPECS[name]
        table = coefficient_table(spec, t_max)
        reference = np.array([reference_row(spec, t, t_max)
                              for t in range(t_max + 1)])
        assert table.shape == (t_max + 1, 5)
        assert table[:, :3].tobytes() == reference.tobytes()
        assert (table[:, 3:] == 0.0).all()

    @pytest.mark.parametrize("t_max", [1, 2, 15, 29, 2_500, 10_000])
    def test_profile_equals_the_per_tick_reference_bit_for_bit(self, t_max):
        profile = np.array(_mapso_profile(np.arange(t_max + 1), t_max, CFG)).T
        reference = np.array([reference_pattern(t, t_max, CFG)
                              for t in range(t_max + 1)])
        assert profile.tobytes() == reference.tobytes()

    def test_one_read_only_table_per_spec_and_clock(self):
        table = coefficient_table(Mapso(), 40)
        assert coefficient_table(Mapso(v_max=25), 40) is table
        assert coefficient_table(Mapso(), 41) is not table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5

    def test_a_signed_zero_field_gets_its_own_table(self):
        # -0.0 == 0.0, so equal specs by == may still differ in their rows.
        plus = coefficient_table(IpsoParams(0.0, 1.2, 1.0), 5)
        minus = coefficient_table(IpsoParams(-0.0, 1.2, 1.0), 5)
        assert minus is not plus
        assert np.signbit(minus[:, 0]).all() and not np.signbit(plus).any()

    @pytest.mark.parametrize("name", sorted(baseline_schedules()))
    def test_every_stock_kind_pins_its_five_columns(self, name):
        spec = baseline_schedules()[name]
        if name == "mapso":
            expected = [(*reference_row(spec, t, 10), 0.0, 0.0)
                        for t in (0, 5, 10)]
        else:
            expected = STOCK_ROWS[name]
        table = coefficient_table(spec, 10)
        assert table[[0, 5, 10]] == pytest.approx(np.array(expected),
                                                  rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("t_max", [1, 2, 100, 2_500, 7_500])
    def test_a_flat_mapso_is_icpso(self, t_max):
        # Every factor flattened at ICPSO's own pattern: the solver returns
        # ICPSO's c and alpha exactly and its omega to within one ulp.
        icpso = IpsoParams(0.711897, 1.711897, 1.0)
        spec = Mapso(v_max=vc(icpso), v_min=vc(icpso), rho_max=0.0,
                     rho_min=0.0, f_max=1.0, f_min=1.0)
        table = coefficient_table(spec, t_max)
        assert np.all(np.abs(table[:, 0] - icpso.omega)
                      <= np.spacing(icpso.omega))
        assert (table[:, 1] == icpso.c).all()
        assert (table[:, 2] == icpso.alpha).all()

    def test_first_bad_tick_is_named(self):
        # Focus 1e9 from t1 on: the solver cannot hold alpha near 31623.
        spec = Mapso(f_max=1e9)
        with pytest.raises(ConsistencyError, match="failed at tick 9 of 10"):
            coefficient_table(spec, 10)

    def test_constant_passes_through(self):
        params = IpsoParams(0.711897, 1.711897, 1.0)
        assert _row(params, 3, 10) == params

    def test_pattern_schedule_start(self):
        out = _row(Mapso(), 0, T_MAX)
        assert out.alpha == 0.5
        coeffs = ipso_to_moments(out)
        assert rho1(coeffs) == pytest.approx(0.1, rel=1e-9)
        assert vc(out) == pytest.approx(25.0, rel=1e-9)
        assert focus(coeffs) == pytest.approx(0.25, rel=1e-9)

    def test_pattern_schedule_is_feasible_and_faithful_all_the_way(self):
        spec = Mapso()
        t_max = 600
        profile = np.array(_mapso_profile(np.arange(t_max + 1), t_max, CFG))
        for t in range(t_max + 1):
            params = _row(spec, t, t_max)
            coeffs = ipso_to_moments(params)
            assert is_order2_convergent(coeffs), t
            pattern = MovementPattern(*profile[:, t])
            assert rho1(coeffs) == pytest.approx(pattern.rho1, rel=1e-9, abs=1e-9)
            assert vc(params) == pytest.approx(pattern.vc, rel=1e-9)
            assert focus(coeffs) == pytest.approx(pattern.focus, rel=1e-9)

    def test_pattern_schedule_is_constant_outside_the_ramp(self):
        spec = Mapso()
        before = [_row(spec, t, T_MAX) for t in range(0, int(T1))]
        after = [_row(spec, t, T_MAX) for t in range(int(T2) + 1, T_MAX + 1)]
        assert len({(p.omega, p.c, p.alpha) for p in before}) == 1
        assert len({(p.omega, p.c, p.alpha) for p in after}) == 1

    def test_linear_inertia_interpolates(self):
        spec = LinearInertia(omega_start=0.9, omega_end=0.4)
        start = _row(spec, 0, 100)
        end = _row(spec, 100, 100)
        mid = _row(spec, 50, 100)
        assert start.omega == 0.9 and end.omega == 0.4
        assert mid.omega == pytest.approx(0.65)
        assert start.c == pytest.approx(1.49618) and start.alpha == 1.0

    def test_unknown_spec_object_is_rejected(self):
        with pytest.raises(ScheduleError, match="unknown schedule spec"):
            coefficient_table(object(), 10)


# Every value class whose float fields go through one finite-field check:
# valid arguments, all ints, and the exact error class a bad field raises.
FIELD_CONTRACT = {
    LinearInertia: (dict(omega_start=1, omega_end=0, c=2, alpha=1),
                    ScheduleError),
    RandomInertia: (dict(c=2, alpha=1), ScheduleError),
    SuccessRateInertia: (dict(omega_min=0, omega_max=1, c=2, alpha=1),
                         ScheduleError),
    Mapso: (dict(v_max=30, v_min=5, rho_max=0, rho_min=0, f_max=30, f_min=1,
                 t1_frac=0, t2_frac=1), ScheduleError),
    IpsoParams: (dict(omega=0, c=1, alpha=1), ValueError),
    CoefficientMoments: (dict(mu_omega=0, sigma_omega=0, mu_phi1=1,
                              sigma_phi1=0, mu_phi2=1, sigma_phi2=0),
                         ValueError),
    AttractorMoments: (dict(mu_p=0, sigma_p=1, mu_g=1, sigma_g=1), ValueError),
    MovementPattern: (dict(rho1=0, vc=10, focus=1), ValueError),
    RandomWalkAttractors: (dict(p0=0, g0=1), ValueError),
    FixedAttractors: (dict(p_value=0, g_value=1), ValueError),
}


def _float_fields(spec_type):
    return [f.name for f in fields(spec_type) if f.type == "float"]


class TestInertiaSpecFields:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "a", None],
                             ids=["nan", "inf", "text", "none"])
    @pytest.mark.parametrize("spec_type", list(FIELD_CONTRACT),
                             ids=lambda t: t.__name__)
    def test_every_field_must_be_a_finite_number(self, spec_type, bad):
        valid, error = FIELD_CONTRACT[spec_type]
        for name in _float_fields(spec_type):
            message = rf"{spec_type.__name__}\.{name} must be a finite number"
            with pytest.raises(ValueError, match=message) as raised:
                spec_type(**{**valid, name: bad})
            assert raised.type is error

    @pytest.mark.parametrize("spec_type", list(FIELD_CONTRACT),
                             ids=lambda t: t.__name__)
    def test_fields_are_coerced_to_float(self, spec_type):
        valid, _ = FIELD_CONTRACT[spec_type]
        spec = spec_type(**valid)
        names = _float_fields(spec_type)
        assert names and set(names) <= set(valid)
        assert all(type(getattr(spec, name)) is float for name in names)
        assert spec == spec_type(**{k: float(v) for k, v in valid.items()})


class TestBaselines:
    def test_stock_set(self):
        stock = baseline_schedules()
        assert list(stock) == ["mapso", "icpso", "ldwpso", "liwpso", "rwpso", "aiwpso"]
        assert stock["icpso"] == IpsoParams(0.711897, 1.711897, 1.0)
        assert stock["ldwpso"] == LinearInertia(omega_start=0.9, omega_end=0.4)
        assert stock["liwpso"] == LinearInertia(omega_start=0.4, omega_end=0.9)


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        IpsoParams(0.5, 1.2, 1.0),
        Mapso(),
        Mapso(v_max=30.0, rho_max=0.7),
        LinearInertia(0.9, 0.4),
        RandomInertia(c=2.0),
        SuccessRateInertia(omega_min=0.1, omega_max=0.7),
    ], ids=lambda s: type(s).__name__)
    def test_round_trip(self, spec):
        assert schedule_from_dict(schedule_to_dict(spec)) == spec

    def test_kinds_table_is_the_one_list_of_spec_types(self):
        # A kind added to the union, the plan format or the CLI alone fails.
        assert set(_KINDS.values()) == set(typing.get_args(ScheduleSpec))
        assert len(_KINDS) == len(typing.get_args(ScheduleSpec))
        assert set(cli._INLINE.values()) <= set(_KINDS.values())

    def test_missing_kind(self):
        with pytest.raises(ValueError, match="needs a 'kind' entry"):
            schedule_from_dict({"omega": 0.5})

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            schedule_from_dict({"kind": "chaotic"})

    def test_named_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown schedule kind 'named'"):
            schedule_from_dict({"kind": "named", "name": "mapso"})

    def test_bad_fields(self):
        with pytest.raises(ValueError, match="bad fields for schedule kind"):
            schedule_from_dict({"kind": "constant", "omega": 0.5})

    @pytest.mark.parametrize("data", [
        {"kind": "linear_inertia", "omega_start": 0.9, "omega_end": float("inf")},
        {"kind": "random_inertia", "c": float("nan")},
        {"kind": "success_rate_inertia", "omega_max": "a"},
    ], ids=lambda d: d["kind"])
    def test_non_finite_inertia_fields(self, data):
        with pytest.raises(ScheduleError, match="bad fields for schedule kind"):
            schedule_from_dict(data)

    def test_unserialisable_spec(self):
        with pytest.raises(ValueError, match="cannot serialise schedule spec"):
            schedule_to_dict(object())
