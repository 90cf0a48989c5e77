"""Exception types shared across the simulator.

CLI exit-code mapping: InvalidConfigError -> 2, InstabilityError -> 3,
statistical check failures -> 4 (raised as StatisticalCheckError).
"""


class InvalidParameterError(ValueError):
    """A model parameter violates its documented range."""


class DomainError(ValueError):
    """A function argument lies outside the function's domain."""


class InstabilityError(RuntimeError):
    """A queueing system is unstable (offered load >= capacity)."""


class UnreachableTargetError(ValueError):
    """A calibration target cannot be bracketed by scaling the chosen field."""


class ShapeMismatchError(ValueError):
    """Tabular input is ragged or otherwise malformed."""


class InvalidConfigError(ValueError):
    """A run configuration failed validation."""


class StatisticalCheckError(RuntimeError):
    """A statistical acceptance check (KS / moment) failed."""
