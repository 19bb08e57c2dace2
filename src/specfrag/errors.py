"""Exception hierarchy shared by all specfrag modules, and the number
checks the model configs share."""
import math
import numbers


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


def is_real(value) -> bool:
    """True for an int or a float, numpy's included; False for a boolean,
    which Python would read as 0 or 1, and for anything else."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_whole(value) -> bool:
    """True for a real number (is_real) that is finite and has no fraction,
    such as 30 or 30.0; False for 30.5, infinities, NaN and booleans."""
    return is_real(value) and math.isfinite(value) and int(value) == value
