"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented physical or mathematical precondition."""


class ConsistencyError(RuntimeError):
    """An internal identity that must hold by construction failed.

    Raised when a computed state violates a structural invariant (e.g. an
    unphysical correlation matrix, or a fidelity above one).  Signals a bug
    in the dynamics, not bad user input.
    """


class ConfigError(ValueError):
    """A run configuration file is missing fields or holds invalid values."""
