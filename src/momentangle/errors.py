"""Exception types shared across the toolkit."""


class StructuralError(ValueError):
    """Malformed input: bad shapes, inconsistent fields, unknown keys."""


class NumericalError(RuntimeError):
    """A numerical routine could not produce a trustworthy answer."""


class ProjectionError(NumericalError):
    """Gauss-Newton projection failed to converge.

    Carries the best residual infinity-norm achieved before giving up.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class SingularPointError(NumericalError):
    """A candidate point has a rank-deficient Jacobian and cannot be certified."""


class SamplingBudgetError(NumericalError):
    """Fewer certified points than requested within the retry budget.

    The points that did certify are attached so partial results are not lost,
    and ``outcomes`` counts the attempts and why the rejected ones failed
    (keys ``attempts``, ``not_converged``, ``line_search_stalls``,
    ``singular``, ``duplicates``).
    """

    def __init__(self, message, points, requested, outcomes):
        super().__init__(message)
        self.points = points
        self.requested = requested
        self.outcomes = outcomes
