"""Exception types shared across the package.

Every failure mode raised by the numeric layers subclasses
:class:`BruckLoopsError`, so callers (notably the CLI) can distinguish
"the input/configuration is bad" from "a verified property failed".  A bad
value the command line can pass to a numeric layer, such as a negative
sample radius, raises :class:`ConfigInvalid`.
"""


class BruckLoopsError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(BruckLoopsError):
    """Input matrix is not hermitian within tolerance."""


class NoConvergence(BruckLoopsError):
    """The eigensolver got a non-finite matrix or LAPACK did not converge."""


class NotPositiveDefinite(BruckLoopsError):
    """A spectral function requiring positivity met a non-positive eigenvalue."""


class RankDeficient(BruckLoopsError):
    """Columns handed to orthonormalization are not linearly independent."""


class DimensionMismatch(BruckLoopsError):
    """Operands have incompatible shapes or forms."""


class NotInGroup(BruckLoopsError):
    """A matrix fails the membership residuals required by an operation."""


class InversesDisagree(BruckLoopsError):
    """Left and right inverses of a loop element differ beyond tolerance."""


class TransversalityViolated(BruckLoopsError):
    """A subspace expected to meet another in a single point does not."""


class NotInOrbit(BruckLoopsError):
    """A direction at infinity is not in the orbit of the carrier subspace."""


class RankAmbiguous(BruckLoopsError):
    """The dimension rank estimate lacks a clean singular-value gap at too
    many sample points."""


class ConfigInvalid(BruckLoopsError):
    """A suite configuration violates a structural invariant."""


class ParseError(BruckLoopsError):
    """A matrix or element file could not be parsed."""
