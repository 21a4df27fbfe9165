"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from :class:`QradarError`, so callers
(and the CLI) can separate validation problems from numerical failures.
"""


class QradarError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QradarError):
    """An input violated a documented invariant; the message names it."""


class PhysicalityError(ValidationError):
    """A covariance matrix violates the uncertainty bound (nu >= 1/2)."""


class DegenerateStateError(QradarError):
    """A covariance matrix is numerically singular where it must not be."""


class UnphysicalChannelError(ValidationError):
    """A Gaussian channel violates the complete-positivity bound."""


class NoSteadyStateError(QradarError):
    """The drift matrix is not strictly stable; carries the offending eigenvalue."""

    def __init__(self, message: str, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class StiffnessError(QradarError):
    """Covariance ODE integration failed; steady_state_cov is the alternative."""


class ConvergenceError(QradarError):
    """No operating point (delta_eg = 0, no finite root, or a DC residual
    above its gate), or a quadrature that did not converge."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class ThresholdError(QradarError):
    """Parametric pump at or above the oscillation threshold."""


class NonStandardFormError(QradarError):
    """Blocks are not reducible to the two-mode squeezed thermal standard form."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class NumericalDegeneracyError(QradarError):
    """A discriminant or pivot fell below its documented tolerance."""


class UndefinedQuantityError(QradarError):
    """A closed-form expression is 0/0 for the given inputs (e.g. n_eff)."""


class ConfigError(QradarError):
    """Scenario configuration is invalid; carries the full list of messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
