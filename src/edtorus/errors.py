"""Exception taxonomy shared by all edtorus modules."""


class EdtorusError(Exception):
    """Base class for all package-specific failures."""


class NonPositiveConformalFactor(EdtorusError):
    """A conformal factor was required to be strictly positive but is not."""


class ConvergenceFailure(EdtorusError):
    """An iterative solver did not reach its tolerance."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NonFiniteState(ConvergenceFailure):
    """The integrated state or one of its rates is not finite: a numerical
    breakdown, reported like a solver failure."""


class GridTooLarge(EdtorusError):
    """Dense-path operation requested on a grid above its size budget."""


class ZeroEigenvalue(EdtorusError):
    """Operation undefined at eigenvalue zero."""


class SmallGap(EdtorusError):
    """Spectral gap fell below the configured safety threshold."""


class NonPositiveDiffusivity(EdtorusError):
    """Parabolic coefficient lost its uniform positive lower bound."""


class ParameterTooSmall(EdtorusError):
    """A parameter violates the admissibility constraint of an estimate."""


class PositivityLoss(EdtorusError):
    """The evolving conformal factor dropped below the positivity floor."""


class StepTooLarge(EdtorusError):
    """A fixed time step violates the CFL precondition of the explicit scheme."""


class NoSimpleEigenvalue(EdtorusError):
    """No quaternionic-simple eigenvalue cluster near the requested target."""


class ParseError(EdtorusError):
    """Malformed configuration text."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(EdtorusError):
    """Structurally valid configuration with an unacceptable key or value."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
