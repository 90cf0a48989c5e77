"""Exception types shared across the simulator.

Every type derives from NetsimError and carries the exit code the CLI
returns for it: InstabilityError exits 3, StatisticalCheckError exits 4,
and every other type exits 2, as does an OSError.
"""


class NetsimError(Exception):
    """Base of the package's errors; exit_code is the CLI's for this type."""

    exit_code = 2


class InvalidParameterError(NetsimError, ValueError):
    """A model parameter violates its documented range."""


class DomainError(NetsimError, ValueError):
    """A function argument lies outside the function's domain."""


class InstabilityError(NetsimError, RuntimeError):
    """A queueing system is unstable (offered load >= capacity)."""

    exit_code = 3


class ShapeMismatchError(NetsimError, ValueError):
    """Tabular input is ragged or otherwise malformed."""


class InvalidConfigError(NetsimError, ValueError):
    """A run configuration failed validation."""


class StatisticalCheckError(NetsimError, RuntimeError):
    """A statistical acceptance check (KS / moment) failed."""

    exit_code = 4
