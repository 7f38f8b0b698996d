"""Exception hierarchy.

Two branches matter operationally: :class:`ValidationError` means the input
was rejected before (or instead of) computing, :class:`NumericalError` means
a computation broke down.  The CLI maps them to exit codes 2 and 3.
"""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(GeometryError):
    """Invalid input: wrong domain, malformed data, violated precondition."""


class NumericalError(GeometryError):
    """Numerical breakdown: singularity, overflow, ill-conditioned data."""


class DomainViolation(ValidationError):
    """Point is not a member of the space it was claimed to belong to."""


class NotSymplectic(ValidationError):
    """4x4 matrix fails the symplectic-form preservation test."""


class NotInHatGroup(ValidationError):
    """Symplectic matrix neither commutes nor anticommutes with the exchange involution."""


class NotUnimodular(ValidationError):
    """A 2x2 factor (real Moebius or SU(1,1)) does not have determinant one."""


class UnitModulusViolation(ValidationError):
    """Rotation parameter does not lie on the unit circle."""


class OutOfRange(ValidationError):
    """Scalar parameter outside its allowed interval."""


class DegeneratePair(ValidationError):
    """Two points coincide where distinct points are required."""


class NumericalBreakdown(NumericalError):
    """Values left the numerically trustworthy regime (overflow, boundary blowup)."""
