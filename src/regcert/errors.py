"""Exception and warning types shared across the package."""


class RegcertError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(RegcertError):
    """Raised when vector or matrix shapes are incompatible."""


class EmptySet(RegcertError):
    """Raised when an operation needs a point of a set that is empty."""


class NotInSet(RegcertError):
    """Raised when a point required to lie in a set does not."""


class NotPolyhedral(RegcertError):
    """Raised when an operation needs a polyhedral set description."""


class InSet(RegcertError):
    """Raised when a reference point already satisfies the constraint system."""


class NoAdmissibleSamples(RegcertError):
    """Raised when the admissibility filter rejects every sampled pair."""


class InvalidPerturbation(RegcertError):
    """Raised when a perturbation size exceeds the certified stability range."""


class InvalidParameter(RegcertError):
    """Raised for parameter values outside their documented domain."""


class UnknownInstance(RegcertError):
    """Raised for a registry lookup with an unknown instance name."""


class GridTooLarge(RegcertError):
    """Raised when a requested lattice would exceed the hard size cap."""


class SimplexIterationLimit(RegcertError):
    """Raised when the LP simplex or the NNLS hits its iteration cap
    (internal guard)."""


class ProblemFileError(RegcertError):
    """Raised for malformed problem files; message names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class GridTooCoarse(UserWarning):
    """Warning: the lattice found no feasible point although the instance
    looks regular, so the grid spacing is probably too wide."""
