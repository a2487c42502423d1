"""Exception types shared across the toolkit."""


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
