"""Exception types shared across the package."""


class VotePowerError(Exception):
    """Base class for library-specific failures."""


class InvalidArgumentsError(VotePowerError, ValueError):
    """Arguments violate a documented precondition."""


class InvalidDimensionError(InvalidArgumentsError):
    """Player count is not an integer at least 1, or a weight vector is
    empty.  A kind of invalid argument, so a caller catching
    ``InvalidArgumentsError`` catches it too."""


class InvalidRankError(InvalidArgumentsError):
    """Order-statistic rank k is not an integer in 1..n.  A kind of invalid
    argument, as ``InvalidDimensionError`` is."""


class DegenerateDistributionError(VotePowerError):
    """The requested distribution is a point mass and has no density."""


class BudgetExceededError(VotePowerError):
    """Player count exceeds the documented enumeration budget."""


class AccuracyUnsupportedError(VotePowerError):
    """Inputs lie outside the validated accuracy range; refusing to
    return a possibly garbage value."""

