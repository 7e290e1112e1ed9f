"""Exception and warning types shared across the package."""


class RegistryError(ValueError):
    """Unknown mode label, registry mismatch, or mode-count cap violation."""


class GridMismatchError(ValueError):
    """Two grid quantities do not live on the same grid."""


class LayoutError(ValueError):
    """A wavepacket layout violates a geometric precondition or gate."""


class DuplicateOccupationError(ValueError):
    """An occupation descriptor lists the same fermionic mode twice."""


class SignConstraintError(ValueError):
    """Sign assignment violates the s1*s2*s3 = -1 standardization constraint."""


class ConfigError(ValueError):
    """A run configuration file or override could not be parsed/validated."""


class PerturbativeRangeWarning(UserWarning):
    """First-order evolution requested outside the perturbative coupling guard."""
