"""Exception types shared across the package."""


class UnlearnLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(UnlearnLabError):
    """Matrix or vector input contains NaN/Inf or has an unusable shape."""


class SvdFailureError(UnlearnLabError):
    """The SVD iteration did not converge."""


class InconsistentSystemError(UnlearnLabError):
    """A linear system expected to be consistent has a large residual."""


class RegimeViolationError(UnlearnLabError):
    """Scenario dimensions leave the interpolating (n <= d) regime."""


class LayoutMismatchError(UnlearnLabError):
    """Operation applied to a feature layout it does not support."""


class DivergenceError(UnlearnLabError):
    """Gradient descent produced a non-finite loss."""


class ConfigError(UnlearnLabError):
    """Experiment configuration is missing fields or holds invalid values."""
