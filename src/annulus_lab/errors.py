"""Exception taxonomy for the toolkit.

Everything derives from :class:`AnnulusLabError` so callers can catch
toolkit failures wholesale.  The subclasses mirror the failure modes of the
numerical contracts: lost isometry, spectra in forbidden places, series that
cannot converge, and so on.
"""


class AnnulusLabError(Exception):
    """Base class for all toolkit errors."""


class NotSquare(AnnulusLabError):
    """A square matrix was required."""


class DimensionMismatch(AnnulusLabError):
    """Operand shapes are incompatible."""


class NotNormal(AnnulusLabError):
    """Commutator ``A*A - AA*`` exceeds the normality tolerance."""


class NoConvergence(AnnulusLabError):
    """An iterative factorization failed to converge."""


class Singular(AnnulusLabError):
    """Matrix is singular (or too ill-conditioned) for the requested solve."""


class NotInvertible(AnnulusLabError):
    """An invertible operator was required."""


class NotIsometric(AnnulusLabError):
    """Columns are not orthonormal within tolerance."""


class NotUnitary(AnnulusLabError):
    """A unitary matrix was required."""


class BadRadius(AnnulusLabError):
    """Inner radius must lie strictly between 0 and 1."""


class RootInClosedDisk(AnnulusLabError):
    """A denominator root that must lie outside the closed unit disk does not."""


class RootOutsideInnerDisk(AnnulusLabError):
    """A denominator root that must lie inside the inner disk does not."""


class InvalidRational(AnnulusLabError):
    """Rational function violates its root-location invariants."""


class PoleHit(AnnulusLabError):
    """Evaluation point coincides with a pole."""


class SeriesDivergent(AnnulusLabError):
    """Norm preconditions for the two-sided series evaluation fail."""


class SpectrumOnContour(AnnulusLabError):
    """An eigenvalue sits on (or outside) the integration contour."""


class PoleInsideContour(AnnulusLabError):
    """A pole of the integrand lies inside the integration region."""


class NoSpectralGap(AnnulusLabError):
    """Spectrum does not split into the two requested parts."""


class NotArUnitary(AnnulusLabError):
    """Operator is not normal with spectrum on the two boundary circles."""


class NotCommuting(AnnulusLabError):
    """The two operators do not commute within tolerance."""


class NotContraction(AnnulusLabError):
    """Operator norm exceeds one beyond tolerance."""


class NotContractions(NotContraction):
    """At least one operator of a pair is not a contraction."""


class BudgetExceeded(AnnulusLabError):
    """Requested accuracy is not reachable within the degree budget."""
