"""Exception types shared across the package."""


class RankDeficiencyError(ValueError):
    """The input's numerical rank is too low for the requested operation."""


class StabilityError(ValueError):
    """A spectral-radius constraint required for convergence is violated."""


class NumericalError(RuntimeError):
    """A numerical routine failed or a certified post-condition did not hold."""
