"""Voting-power computations for weighted voting games.

Exact Penrose-Banzhaf and Coleman indices for fixed games, closed-form
distributions and moments of simplex-uniform random weights, small-n
expected-power curves, the expected Coleman index as an exact mixture over
coalition sizes, and reproducible Monte Carlo estimators.

The package is lazy: ``import votepower`` loads neither numpy nor any
submodule.  A public name (``votepower.banzhaf``) or a submodule
(``votepower.games``) imports its submodule on first access (PEP 562), so
a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "analytic": (
        "ClassTable",
        "Extremum",
        "GameClassInfo",
        "PiecewisePolynomialCurve",
        "class_table_n3",
        "coalition_weight_cf",
        "coleman_error_ratio",
        "expected_beta_n2",
        "expected_beta_n2_curve",
        "expected_beta_n3",
        "expected_beta_n3_curve",
        "expected_coleman",
        "expected_coleman_normal",
        "extrema_n3",
    ),
    "errors": (
        "AccuracyUnsupportedError",
        "BudgetExceededError",
        "DegenerateDistributionError",
        "InvalidArgumentsError",
        "InvalidDimensionError",
        "InvalidRankError",
        "VotePowerError",
    ),
    "experiments": (
        "GameClass",
        "GameClassCatalog",
        "QuotaCurve",
        "SplineFit",
        "count_extrema",
        "discover_classes",
        "fit_spline",
        "mc_coleman_curve",
        "mc_hoeffding_curve",
        "mc_power_curve",
    ),
    "games": (
        "PowerProfile",
        "StepCurve",
        "VotingGame",
        "banzhaf",
        "count_winning_mitm",
        "dummies",
        "fixed_weight_quota_curve",
        "hoeffding_bound",
        "optimal_quota_diagnostic",
    ),
    "simplex": (
        "RandomSeed",
        "as_weight_vector",
        "default_quota_grid",
        "renyi_partial_sums",
        "sample_uniform_simplex_batch",
    ),
    "weightdist": (
        "expected_ordered_weight",
        "expected_ordered_weight_exact",
        "expected_ordered_weights",
        "ordered_weight_cdf",
        "ordered_weight_density",
        "ordered_weight_support",
        "power_sum_moment",
        "product_moment",
        "product_moment_exact",
        "sum_sq_stats",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
