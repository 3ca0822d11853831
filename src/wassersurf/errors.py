"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Field, corner-vector, or grid shapes are incompatible."""


class DomainValidityError(ValueError):
    """A point lies outside an analytic surface's validity domain."""


class PositivityError(ValueError):
    """Values that must stay strictly positive (covariance entries) are not."""


class DegenerateSurfaceError(RuntimeError):
    """The area element vanished (parallel tangents) where it must not."""


class SolverNaNError(FloatingPointError):
    """Non-finite values appeared during optimization."""

    def __init__(self, iteration: int, detail: str = ""):
        self.iteration = iteration
        msg = f"non-finite values detected at iteration {iteration}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class QuantileConvergenceError(ArithmeticError):
    """A quantile iteration did not converge within its step budget."""
