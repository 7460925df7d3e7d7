"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class NonFiniteIterate(RuntimeError):
    """An iteration produced NaN or infinity."""

    def __init__(self, iteration: int):
        # Exception keeps the arguments, so unpickling (a worker's error) rebuilds it
        super().__init__(iteration)
        self.iteration = iteration

    def __str__(self) -> str:
        return f"non-finite iterate at iteration {self.iteration}"


class CandidateBudget(ValueError):
    """Exhaustive search refused because the candidate set is too large."""

    def __init__(self, count: int, limit: int):
        super().__init__(count, limit)
        self.count = count
        self.limit = limit

    def __str__(self) -> str:
        return f"{self.count} candidates exceed budget of {self.limit}"


class SolverFailure(RuntimeError):
    """A linear solve failed (matrix singular to machine precision)."""


class ConfigError(ValueError):
    """Invalid experiment or algorithm configuration."""
