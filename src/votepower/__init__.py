"""Voting-power computations for weighted voting games.

Exact Penrose-Banzhaf and Coleman indices for fixed games, closed-form
distributions and moments of simplex-uniform random weights, small-n
expected-power curves, the expected Coleman index as an exact mixture over
coalition sizes, and reproducible Monte Carlo estimators.
"""

from .analytic import (
    ClassTable,
    Extremum,
    GameClassInfo,
    PiecewisePolynomialCurve,
    class_table_n3,
    coalition_weight_cf,
    coleman_error_ratio,
    expected_beta_n2,
    expected_beta_n2_curve,
    expected_beta_n3,
    expected_beta_n3_curve,
    expected_coleman,
    expected_coleman_normal,
    extrema_n3,
)
from .errors import (
    AccuracyUnsupportedError,
    BudgetExceededError,
    ConvergenceFailureError,
    DegenerateDistributionError,
    InvalidArgumentsError,
    InvalidDimensionError,
    InvalidRankError,
    VotePowerError,
)
from .experiments import (
    GameClass,
    GameClassCatalog,
    QuotaCurve,
    SplineFit,
    count_extrema,
    default_quota_grid,
    discover_classes,
    fit_spline,
    mc_coleman_curve,
    mc_hoeffding_curve,
    mc_power_curve,
)
from .games import (
    PowerProfile,
    StepCurve,
    VotingGame,
    banzhaf,
    count_winning_mitm,
    count_winning_naive,
    dummies,
    fixed_weight_quota_curve,
    hoeffding_bound,
    is_winning,
    optimal_quota_diagnostic,
)
from .simplex import (
    OrderedWeights,
    RandomSeed,
    as_weight_vector,
    order_descending,
    renyi_partial_sums,
    sample_uniform_simplex,
    sample_uniform_simplex_batch,
)
from .weightdist import (
    expected_ordered_weight,
    expected_ordered_weight_exact,
    expected_ordered_weights,
    ordered_weight_breakpoints,
    ordered_weight_cdf,
    ordered_weight_density,
    ordered_weight_support,
    power_sum_moment,
    product_moment,
    product_moment_exact,
    sum_sq_stats,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
