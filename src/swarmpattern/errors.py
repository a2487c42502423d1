"""Exception types shared across the toolkit, and the field checks of its
frozen value classes that raise them.

Every value class builds itself through the same two helpers: numeric fields
are coerced to finite floats by :func:`finite_fields`, array fields are made
read-only by :func:`read_only_arrays`.  A class with array fields is declared
by :func:`array_dataclass`.
"""

import dataclasses
import math

import numpy as np


class SwarmPatternError(Exception):
    """Base class for every toolkit-specific error."""


class DegenerateParameterError(SwarmPatternError, ValueError):
    """A required denominator or scale vanishes for the given parameters."""


class StabilityError(SwarmPatternError, ValueError):
    """An equilibrium quantity was requested for non-convergent parameters."""


class ConsistencyError(SwarmPatternError, RuntimeError):
    """A closed-form solution failed its own verification residual."""


class ScheduleError(SwarmPatternError, ValueError):
    """A malformed schedule spec or a schedule contract violation."""


class SampleError(SwarmPatternError, ValueError):
    """An empirical estimator received too few or degenerate samples."""


def finite_fields(obj, *names, error=ValueError) -> None:
    """Coerce the named fields of a frozen dataclass, every field when none
    is named, to finite floats; raise ``error`` on the first that is not."""
    for name in names or obj.__dataclass_fields__:
        value = getattr(obj, name)
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            raise error(f"{type(obj).__name__}.{name} must be a finite "
                        f"number, got {value!r}")
        object.__setattr__(obj, name, number)


def read_only_arrays(obj, *names, dtype=float) -> None:
    """Replace the named fields of a frozen dataclass by read-only arrays of
    ``dtype``.  ``np.asarray`` copies nothing that already is one, so such
    an array is frozen in place."""
    for name in names:
        array = np.asarray(getattr(obj, name), dtype=dtype)
        array.setflags(write=False)
        object.__setattr__(obj, name, array)


def array_dataclass(cls):
    """Declare a frozen dataclass with array fields: equal only to itself,
    as an array has no one truth value, and pickled and copied through its
    constructor, so its checks run again and its arrays come back read-only."""
    cls.__reduce__ = lambda obj: (type(obj), tuple(
        getattr(obj, field.name) for field in dataclasses.fields(obj)))
    return dataclasses.dataclass(cls, frozen=True, eq=False)
