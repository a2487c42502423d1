"""Movement-pattern analysis and pattern-adaptive particle swarm optimization.

The package splits into a small analytic core and the machinery around it:

* :mod:`swarmpattern.moments` -- moment dynamics of the stochastic position
  recursion: closed-form equilibria and stability predicates.
* :mod:`swarmpattern.patterns` -- the movement-pattern calculus
  (autocorrelation, variance coefficient, focus) and its inverse solver.
* :mod:`swarmpattern.simulate` -- single-particle simulation and the
  empirical estimators matching each analytic quantity.
* :mod:`swarmpattern.schedules` -- coefficient schedules, including the
  pattern-adaptive one and the classic inertia-weight baselines.
* :mod:`swarmpattern.swarm` -- the population optimizer.
* :mod:`swarmpattern.benchmark` -- classic test functions and the
  reproducible experiment runner.
* :mod:`swarmpattern.stats` -- rank-sum comparison and the tournament
  matrix with its beat digraph.
* :mod:`swarmpattern.cli` -- the ``swarmpattern`` command.
"""

__version__ = "0.1.0"

from .errors import (
    ConsistencyError,
    DegenerateParameterError,
    SampleError,
    ScheduleError,
    StabilityError,
    SwarmPatternError,
)
from .moments import (
    AttractorMoments,
    CoefficientMoments,
    MomentState,
    MomentSystem,
    build_moment_system,
    expectation_fixed_point,
    is_order1_convergent,
    is_order2_convergent,
    iterate_to_fixed_point,
    spectral_radius,
    stability_terms,
    variance_fixed_point,
)
from .patterns import (
    AutocorrelationSeq,
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
from .simulate import (
    AttractorProcess,
    FixedAttractors,
    IidUniformAttractors,
    RandomWalkAttractors,
    SimConfig,
    SimTrace,
    empirical_autocorrelation,
    empirical_focus,
    empirical_moments,
    empirical_movement_distance,
    iid_uniform_for_moments,
    simulate,
)
from .schedules import (
    LinearInertia,
    Mapso,
    RandomInertia,
    ScheduleSpec,
    SuccessRateInertia,
    baseline_schedules,
)
from .swarm import (
    Problem,
    RunResult,
    SwarmState,
    initialize,
    run,
    run_many,
    step,
)
from .benchmark import (
    ExperimentPlan,
    ResultSet,
    TestFunction,
    classic_suite,
    default_plan,
    derive_seed,
    load_plan,
    load_results,
    plan_from_dict,
    plan_to_dict,
    run_experiment,
    suite_function,
)
from .stats import (
    DominanceEntry,
    TournamentMatrix,
    digraph_edges_csv,
    digraph_to_dot,
    ranking_table,
    tournament,
    tournament_to_csv,
    wilcoxon_rank_sum,
)
