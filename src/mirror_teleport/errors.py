"""Exception types shared across the package.

Both are input errors.  A broken internal identity, such as an unphysical
conditioned channel, raises neither: ``verify``'s gates measure each one,
and a gate that fails makes ``verify`` exit 2.
"""


class DomainError(ValueError):
    """An input violates a documented physical or mathematical precondition."""


class ConfigError(ValueError):
    """A run configuration file is missing fields or holds invalid values."""
