"""Error types raised deliberately by this package."""


class BBSuperError(Exception):
    """Base class for every failure the engine detects itself."""


class BadDiagonal(BBSuperError):
    """Diagonal Cartan entry is neither 2 nor a nonpositive even integer."""


class PositiveOffDiagonal(BBSuperError):
    """Off-diagonal Cartan entry is positive."""


class NotSymmetrizable(BBSuperError):
    """The given D is not a positive integer symmetrizer for A."""


class OddReParity(BBSuperError):
    """An odd real index has an odd entry somewhere in its row."""


class ImaginaryIndexReflection(BBSuperError):
    """Simple reflections exist only at real indices."""


class NotDominant(BBSuperError):
    """A weight that must be dominant integral is not."""


class HeightMismatch(BBSuperError):
    """Series with different height bounds cannot be combined."""


class NonUnitConstantTerm(BBSuperError):
    """Only series with constant term 1 or -1 can divide or be inverted."""


class IncompleteRootTable(BBSuperError):
    """The root table does not cover the requested height window."""


class NegativeMultiplicity(BBSuperError):
    """The multiplicity recursion produced a negative value."""


class NonIntegralMultiplicity(BBSuperError):
    """The multiplicity recursion produced a value that is not an integer."""


class BadGeneratorIndex(BBSuperError):
    """Generator label (i, l) lies outside the admissible index set."""


class Unreachable(BBSuperError):
    """An oracle cell lies deeper than the configured height cap."""
