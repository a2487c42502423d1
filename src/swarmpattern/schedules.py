"""Coefficient schedules: movement-pattern control and baseline inertia rules.

A schedule maps the run clock (and optionally a success-rate feedback
signal) to the coefficient triple used for the next swarm step.  The
pattern-adaptive schedule plans the run in movement-pattern space -- wide
exploration early, a correlated sweep in the middle, tight biased
exploitation late -- and converts each target pattern to coefficients
through the closed-form pattern solver, so every iteration of the run is
provably order-2 convergent.

The profile over normalised time (knots at ``t1 = t_max/5`` and
``t2 = 4 t_max/5``, peak at their midpoint ``t_m``):

* variance coefficient: ``v_max`` flat, linear down to ``v_min`` across
  ``[t1, t2]``, then flat;
* lag-1 autocorrelation: ``rho_min`` flat, linear up to ``rho_max`` at
  ``t_m``, linear back down to ``rho_min`` at ``t2``, then flat (a
  continuous triangle);
* focus: ``f_min`` before ``t1``, exactly 1 on ``[t1, t2]``, ``f_max``
  after (two deliberate steps).

Baselines for comparison runs: linearly decreasing or increasing inertia,
uniformly random inertia, success-rate-adaptive inertia, and any constant
triple.  Every schedule is a frozen dataclass, so a spec pickles by value and
means the same thing in every process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ScheduleError
from .patterns import IpsoParams, MovementPattern, solve_coefficients


@dataclass(frozen=True)
class MapsoConfig:
    """Knobs of the pattern-adaptive profile; defaults are the recommended ones."""

    v_max: float = 25.0
    v_min: float = 5.0
    rho_max: float = 0.8
    rho_min: float = 0.1
    f_max: float = 25.0
    f_min: float = 0.25
    t1_frac: float = 0.2
    t2_frac: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if not (-1.0 < self.rho_min <= self.rho_max < 1.0):
            raise ValueError("need -1 < rho_min <= rho_max < 1")
        if not (0.0 < self.f_min <= self.f_max):
            raise ValueError("need 0 < f_min <= f_max")
        if not (0.0 <= self.t1_frac < self.t2_frac <= 1.0):
            raise ValueError("need 0 <= t1_frac < t2_frac <= 1")


@dataclass(frozen=True)
class ScheduleFeedback:
    """Run clock plus the success-rate signal some schedules consume."""

    t: int
    t_max: int
    success_rate: float = 0.0

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be positive")
        if not (0 <= self.t <= self.t_max):
            raise ValueError("t must lie in [0, t_max]")
        if not (0.0 <= self.success_rate <= 1.0):
            raise ValueError("success_rate must lie in [0, 1]")


def mapso_pattern(t: float, t_max: float,
                  cfg: MapsoConfig = MapsoConfig()) -> MovementPattern:
    """The movement-pattern target at one clock tick."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if not (0 <= t <= t_max):
        raise ValueError(f"t must lie in [0, t_max], got t={t}, t_max={t_max}")
    t1 = cfg.t1_frac * t_max
    t2 = cfg.t2_frac * t_max
    tm = (t1 + t2) / 2.0

    # Variance coefficient: flat, ramp down, flat.
    if t < t1:
        vc = cfg.v_max
    elif t > t2:
        vc = cfg.v_min
    else:
        vc = cfg.v_max + (t - t1) / (t2 - t1) * (cfg.v_min - cfg.v_max)

    # Autocorrelation: a continuous triangle peaking midway between the knots.
    # t2 joins the flat tail, not the ramp: the ramp formula evaluated at its
    # own foot can land one ulp off rho_min.
    if t < t1 or t >= t2:
        rho1 = cfg.rho_min
    elif t <= tm:
        rho1 = cfg.rho_min + (t - t1) / (tm - t1) * (cfg.rho_max - cfg.rho_min)
    else:
        rho1 = cfg.rho_max + (t - tm) / (t2 - tm) * (cfg.rho_min - cfg.rho_max)

    # Focus: unbiased midgame, second-attractor bias endgame.
    if t < t1:
        focus = cfg.f_min
    elif t <= t2:
        focus = 1.0
    else:
        focus = cfg.f_max
    return MovementPattern(rho1=rho1, vc=vc, focus=focus)


# --- schedule variants -----------------------------------------------------

@dataclass(frozen=True)
class Constant:
    """The same coefficient triple every iteration."""

    params: IpsoParams

    def __post_init__(self):
        if not isinstance(self.params, IpsoParams):
            raise ScheduleError(
                f"Constant needs IpsoParams, got {type(self.params).__name__}")


@dataclass(frozen=True)
class Mapso:
    """Pattern-adaptive schedule: solve the profile's pattern at each tick."""

    config: MapsoConfig = field(default_factory=MapsoConfig)


def _finite_fields(spec) -> None:
    """Coerce every field of an inertia spec to a finite float."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            raise ScheduleError(f"{type(spec).__name__}.{f.name} must be a "
                                f"finite number, got {value!r}")
        object.__setattr__(spec, f.name, number)


@dataclass(frozen=True)
class LinearInertia:
    """Inertia interpolated linearly over the run; pulls held fixed."""

    omega_start: float
    omega_end: float
    c: float = 1.49618
    alpha: float = 1.0

    __post_init__ = _finite_fields


@dataclass(frozen=True)
class RandomInertia:
    """Inertia redrawn uniformly from [0.5, 1) each iteration."""

    c: float = 1.49618
    alpha: float = 1.0

    __post_init__ = _finite_fields

    @staticmethod
    def inertia(u):
        """Inertia for a standard uniform draw ``u`` (a float or an array)."""
        return 0.5 + u / 2.0


@dataclass(frozen=True)
class SuccessRateInertia:
    """Inertia tracking the swarm's recent success rate linearly."""

    omega_min: float = 0.0
    omega_max: float = 1.0
    c: float = 1.49618
    alpha: float = 1.0

    def __post_init__(self):
        _finite_fields(self)
        if not math.isfinite(self.omega_max - self.omega_min):
            raise ScheduleError("SuccessRateInertia.omega_max - omega_min "
                                "must be finite")

    def inertia(self, success_rate):
        """Inertia for a success rate in [0, 1] (a float or an array)."""
        return self.omega_min + (self.omega_max - self.omega_min) * success_rate


ScheduleSpec = (Constant | Mapso | LinearInertia | RandomInertia
                | SuccessRateInertia)


def coefficients_at(spec: ScheduleSpec, feedback: ScheduleFeedback,
                    rng: np.random.Generator | None = None) -> IpsoParams:
    """Coefficient triple for the step at ``feedback.t``.

    Pure for every variant except :class:`RandomInertia`, which draws from
    the caller's generator; the calling run owns that generator so replays
    stay deterministic.
    """
    if isinstance(spec, Constant):
        return spec.params
    if isinstance(spec, Mapso):
        pattern = mapso_pattern(feedback.t, feedback.t_max, spec.config)
        return solve_coefficients(pattern, alpha_sign=1)
    if isinstance(spec, LinearInertia):
        frac = feedback.t / feedback.t_max
        omega = spec.omega_start + (spec.omega_end - spec.omega_start) * frac
        return IpsoParams(omega=omega, c=spec.c, alpha=spec.alpha)
    if isinstance(spec, RandomInertia):
        if rng is None:
            raise ScheduleError("RandomInertia needs the run's random generator")
        omega = spec.inertia(rng.uniform(0.0, 1.0))
        return IpsoParams(omega=omega, c=spec.c, alpha=spec.alpha)
    if isinstance(spec, SuccessRateInertia):
        omega = spec.inertia(feedback.success_rate)
        return IpsoParams(omega=omega, c=spec.c, alpha=spec.alpha)
    raise ScheduleError(f"unknown schedule spec {spec!r}")


def baseline_schedules() -> dict[str, ScheduleSpec]:
    """The stock comparison set: pattern-adaptive plus five classics."""
    return {
        "mapso": Mapso(),
        "icpso": Constant(IpsoParams(omega=0.711897, c=1.711897, alpha=1.0)),
        "ldwpso": LinearInertia(omega_start=0.9, omega_end=0.4),
        "liwpso": LinearInertia(omega_start=0.4, omega_end=0.9),
        "rwpso": RandomInertia(),
        "aiwpso": SuccessRateInertia(),
    }


# --- JSON round-trip for experiment plans ----------------------------------

def schedule_to_dict(spec: ScheduleSpec) -> dict:
    if isinstance(spec, Constant):
        p = spec.params
        return {"kind": "constant", "omega": p.omega, "c": p.c, "alpha": p.alpha}
    if isinstance(spec, Mapso):
        cfg = spec.config
        return {"kind": "mapso",
                "v_max": cfg.v_max, "v_min": cfg.v_min,
                "rho_max": cfg.rho_max, "rho_min": cfg.rho_min,
                "f_max": cfg.f_max, "f_min": cfg.f_min,
                "t1_frac": cfg.t1_frac, "t2_frac": cfg.t2_frac}
    if isinstance(spec, LinearInertia):
        return {"kind": "linear_inertia", "omega_start": spec.omega_start,
                "omega_end": spec.omega_end, "c": spec.c, "alpha": spec.alpha}
    if isinstance(spec, RandomInertia):
        return {"kind": "random_inertia", "c": spec.c, "alpha": spec.alpha}
    if isinstance(spec, SuccessRateInertia):
        return {"kind": "success_rate_inertia",
                "omega_min": spec.omega_min, "omega_max": spec.omega_max,
                "c": spec.c, "alpha": spec.alpha}
    raise ScheduleError(f"cannot serialise schedule spec {spec!r}")


def schedule_from_dict(data: dict) -> ScheduleSpec:
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ScheduleError("schedule dict needs a 'kind' entry") from None
    rest = {k: v for k, v in data.items() if k != "kind"}
    try:
        if kind == "constant":
            return Constant(IpsoParams(**rest))
        if kind == "mapso":
            return Mapso(MapsoConfig(**rest))
        if kind == "linear_inertia":
            return LinearInertia(**rest)
        if kind == "random_inertia":
            return RandomInertia(**rest)
        if kind == "success_rate_inertia":
            return SuccessRateInertia(**rest)
    except (TypeError, ValueError) as exc:
        raise ScheduleError(f"bad fields for schedule kind {kind!r}: {exc}") from exc
    raise ScheduleError(f"unknown schedule kind {kind!r}")
