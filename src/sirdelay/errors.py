"""Exception types shared across the package."""


class DomainError(ValueError):
    """Raised when a mathematical operation receives arguments outside its domain."""


class IntegrationError(RuntimeError):
    """Raised when a numerical integration fails (negativity violation or blow-up).

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
