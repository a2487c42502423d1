"""Coefficient schedules: movement-pattern control and baseline inertia rules.

A schedule's coefficients over a run clock are one read-only table,
:func:`coefficient_table`, built and validated whole before a run steps.
Every kind's inertia is one affine rule over its row: a base value plus
weights on the run's own standard uniform draw and on its success rate,
both zero for the kinds that follow the clock alone.  Only such a row is a
coefficient triple on its own; :func:`coefficients_at` reads one.

The pattern-adaptive schedule plans the run in movement-pattern space -- wide
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
triple, which is :class:`IpsoParams` itself.  Each kind is one flat frozen
dataclass, so a spec pickles by value, means the same thing in every
process, and is stored in a plan as its ``_KINDS`` name plus its fields.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConsistencyError, ScheduleError, finite_fields
from .patterns import IpsoParams, solve_coefficient_arrays

_TABLE_CACHE = 32  # (spec, t_max) tables kept; 2 500 ticks take 100 kB


@dataclass(frozen=True)
class ScheduleFeedback:
    """One tick ``t`` of a run clock over ``t_max`` ticks."""

    t: int
    t_max: int

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be positive")
        if not (0 <= self.t <= self.t_max):
            raise ValueError("t must lie in [0, t_max]")


# --- schedule variants -----------------------------------------------------

def _finite_fields(spec) -> None:
    """Coerce every field of a schedule spec to a finite float, or raise
    :class:`ScheduleError`."""
    finite_fields(spec, error=ScheduleError)


@dataclass(frozen=True)
class Mapso:
    """Pattern-adaptive schedule: solve the profile's pattern at each tick;
    the knob defaults are this toolkit's stock setting, not the paper's."""

    v_max: float = 25.0
    v_min: float = 5.0
    rho_max: float = 0.8
    rho_min: float = 0.1
    f_max: float = 25.0
    f_min: float = 0.25
    t1_frac: float = 0.2
    t2_frac: float = 0.8

    def __post_init__(self):
        _finite_fields(self)
        if not (0.0 < self.v_min <= self.v_max):
            raise ScheduleError("need 0 < v_min <= v_max")
        if not (-1.0 < self.rho_min <= self.rho_max < 1.0):
            raise ScheduleError("need -1 < rho_min <= rho_max < 1")
        if not (0.0 < self.f_min <= self.f_max):
            raise ScheduleError("need 0 < f_min <= f_max")
        if not (0.0 <= self.t1_frac < self.t2_frac <= 1.0):
            raise ScheduleError("need 0 <= t1_frac < t2_frac <= 1")


def _mapso_profile(t, t_max, cfg: Mapso):
    """(rho1, vc, focus) at ticks ``t``: a numpy array, or one numpy float."""
    t1 = cfg.t1_frac * t_max
    t2 = cfg.t2_frac * t_max
    tm = (t1 + t2) / 2.0
    before, after = t < t1, t > t2
    with np.errstate(all="ignore"):  # a ramp off its piece may divide by 0
        # Variance coefficient: flat, ramp down, flat.
        vc = np.select(
            [before, after], [cfg.v_max, cfg.v_min],
            cfg.v_max + (t - t1) / (t2 - t1) * (cfg.v_min - cfg.v_max))
        # Autocorrelation: a continuous triangle peaking midway between the
        # knots.  t2 joins the flat tail, not the ramp: the ramp formula
        # evaluated at its own foot can land one ulp off rho_min.
        rho1 = np.select(
            [before | (t >= t2), t <= tm],
            [cfg.rho_min,
             cfg.rho_min + (t - t1) / (tm - t1) * (cfg.rho_max - cfg.rho_min)],
            cfg.rho_max + (t - tm) / (t2 - tm) * (cfg.rho_min - cfg.rho_max))
    # Focus: unbiased midgame, second-attractor bias endgame.
    focus = np.select([before, after], [cfg.f_min, cfg.f_max], 1.0)
    return rho1, vc, focus


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
    """Inertia redrawn uniformly from [0.5, 1) each iteration: ``0.5 + u/2``
    for a standard uniform ``u`` (Eberhart & Shi 2001)."""

    c: float = 1.49618
    alpha: float = 1.0

    __post_init__ = _finite_fields


@dataclass(frozen=True)
class SuccessRateInertia:
    """Inertia tracking the swarm's last success rate ``Ps`` linearly:
    ``omega_min + (omega_max - omega_min) * Ps`` (Nickabadi et al. 2011)."""

    omega_min: float = 0.0
    omega_max: float = 1.0
    c: float = 1.49618
    alpha: float = 1.0

    __post_init__ = _finite_fields


ScheduleSpec = (IpsoParams | Mapso | LinearInertia | RandomInertia
                | SuccessRateInertia)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _table(key: str, spec: ScheduleSpec, t_max: int) -> np.ndarray:
    # key is repr(spec): the cache compares specs by ==, and -0.0 == 0.0.
    ticks = np.arange(t_max + 1)
    solved = True
    if isinstance(spec, RandomInertia):
        columns = (0.5, spec.c, spec.alpha, 0.5, 0.0)
    elif isinstance(spec, SuccessRateInertia):
        columns = (spec.omega_min, spec.c, spec.alpha, 0.0,
                   spec.omega_max - spec.omega_min)
    elif isinstance(spec, IpsoParams):
        columns = (spec.omega, spec.c, spec.alpha, 0.0, 0.0)
    elif isinstance(spec, Mapso):
        *columns, solved = solve_coefficient_arrays(
            *_mapso_profile(ticks, t_max, spec))
        columns += (0.0, 0.0)
    elif isinstance(spec, LinearInertia):
        with np.errstate(all="ignore"):
            columns = (spec.omega_start + (spec.omega_end - spec.omega_start)
                       * (ticks / t_max), spec.c, spec.alpha, 0.0, 0.0)
    else:
        raise ScheduleError(f"unknown schedule spec {spec!r}")
    table = np.empty((t_max + 1, 5))
    for j, column in enumerate(columns):
        table[:, j] = column
    ok = np.isfinite(table).all(axis=1) & solved
    if not ok.all():
        t = int(np.argmin(ok))
        error, what = ((ConsistencyError, "pattern solver round-trip failed")
                       if isinstance(spec, Mapso)
                       else (ScheduleError, "coefficients must be finite"))
        raise error(f"{type(spec).__name__} {what} at tick {t} of {t_max}: "
                    "(omega, c, alpha, omega_per_draw, omega_per_success) = "
                    f"{tuple(table[t].tolist())}")
    table.setflags(write=False)
    return table


def coefficient_table(spec: ScheduleSpec, t_max: int) -> np.ndarray:
    """Read-only ``(t_max + 1, 5)`` rows of ``(omega, c, alpha,
    omega_per_draw, omega_per_success)``, row ``t`` for the step at tick
    ``t``, the same array for ``(spec, t_max)`` of equal ``repr``.

    A run's inertia is ``omega + omega_per_draw * u + omega_per_success * s``
    for its own standard uniform ``u`` and success rate ``s``.  A MAPSO row
    that misses its target pattern (NaN included) raises
    :class:`ConsistencyError`, any other non-finite entry
    :class:`ScheduleError`, naming the first bad tick.
    """
    return _table(repr(spec), spec, t_max)


def coefficients_at(spec: ScheduleSpec,
                    feedback: ScheduleFeedback) -> IpsoParams:
    """Row ``feedback.t`` of a clock-only schedule's
    :func:`coefficient_table`, as a coefficient triple.

    A row that weights a run's own draw or success rate (the
    :class:`RandomInertia` and :class:`SuccessRateInertia` rules) has no
    per-tick triple and raises :class:`ScheduleError`; read its
    ``coefficient_table`` row instead.
    """
    omega, c, alpha, per_draw, per_success = coefficient_table(
        spec, feedback.t_max)[feedback.t]
    if per_draw or per_success:
        raise ScheduleError(f"{type(spec).__name__} weights each run's own "
                            "draw or success rate, so it has no per-tick "
                            "triple; read its coefficient_table rows")
    return IpsoParams(omega=omega, c=c, alpha=alpha)


def baseline_schedules() -> dict[str, ScheduleSpec]:
    """The stock comparison set: pattern-adaptive plus five classics."""
    return {
        "mapso": Mapso(),
        "icpso": IpsoParams(omega=0.711897, c=1.711897, alpha=1.0),
        "ldwpso": LinearInertia(omega_start=0.9, omega_end=0.4),
        "liwpso": LinearInertia(omega_start=0.4, omega_end=0.9),
        "rwpso": RandomInertia(),
        "aiwpso": SuccessRateInertia(),
    }


# --- JSON round-trip for experiment plans ----------------------------------

# The one list of JSON kind names; a plan's schedule entry is its kind plus
# the spec's fields.
_KINDS = {"constant": IpsoParams, "mapso": Mapso,
          "linear_inertia": LinearInertia, "random_inertia": RandomInertia,
          "success_rate_inertia": SuccessRateInertia}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def schedule_to_dict(spec: ScheduleSpec) -> dict:
    kind = _KIND_OF.get(type(spec))
    if kind is None:
        raise ScheduleError(f"cannot serialise schedule spec {spec!r}")
    return {"kind": kind, **asdict(spec)}


def schedule_from_dict(data: dict) -> ScheduleSpec:
    try:
        kind = data["kind"]
    except (KeyError, TypeError):
        raise ScheduleError("schedule dict needs a 'kind' entry") from None
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ScheduleError(f"unknown schedule kind {kind!r}")
    rest = {k: v for k, v in data.items() if k != "kind"}
    try:
        return _KINDS[kind](**rest)
    except (TypeError, ValueError) as exc:
        raise ScheduleError(f"bad fields for schedule kind {kind!r}: {exc}") from exc
