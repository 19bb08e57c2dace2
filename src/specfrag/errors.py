"""Exception hierarchy shared by all specfrag modules."""


class SpecfragError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SpecfragError):
    """Rejected input: malformed, out of range, or violating a precondition."""


class ConfigurationError(SpecfragError):
    """A configuration object or option combination is invalid."""


class NumericalError(SpecfragError):
    """A numerical computation produced an untrustworthy result."""


class ConvergenceError(NumericalError):
    """An iterative numerical procedure failed to converge."""
