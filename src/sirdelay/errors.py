"""Exception types, and the one number check with the delay check built on it,
shared across the package."""

import reprlib
from numbers import Real
from sys import float_info


class DomainError(ValueError):
    """Raised when a mathematical operation receives arguments outside its domain."""


class IntegrationError(RuntimeError):
    """Raised when a numerical integration fails: a negativity violation, a
    blow-up, or a controlled run that passes the divergence bound or uses up
    its try budget.

    The attribute ``time`` holds the integration time at which the failure
    was detected, and ``trajectory`` the part computed before the failing
    step (None when the first step failed).
    """

    def __init__(self, message, time, trajectory):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


class ConfigError(ValueError):
    """Raised for malformed model/scenario configuration input.

    ``field`` names the offending entry when known, so command-line
    diagnostics can point at it.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def check_finite(name, *values):
    """DomainError naming ``name`` unless each value is a finite real number: not a
    bool, nor an int past the float range.  Floats with a finite sum pass at once."""
    if set(map(type, values)) <= {float} and abs(sum(values)) <= float_info.max:
        return
    for value in values:
        if type(value) is bool or not isinstance(value, Real) or not abs(value) <= float_info.max:
            raise DomainError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def check_delays(tau, delta):
    """DomainError naming the delay unless tau and delta are finite and nonnegative."""
    for name, value in (("tau", tau), ("delta", delta)):
        check_finite(f"delay {name}", value)
        if value < 0.0:
            raise DomainError(f"delay {name} must be nonnegative, got {value}")
