"""Exception types raised across the package.

Every failure mode that callers are expected to branch on gets its own class;
all inherit from BurstfoldError so `except BurstfoldError` catches anything
raised deliberately by this library.
"""


class BurstfoldError(Exception):
    pass


# --- field construction / arithmetic ---

class NonPrimeCharacteristic(BurstfoldError):
    """Field characteristic is not prime."""


class ReducibleModulus(BurstfoldError):
    """Supplied modulus polynomial is not irreducible over GF(p)."""


class FieldTooLarge(BurstfoldError):
    """Field has more elements than the arithmetic tables support."""


class DivisionByZero(BurstfoldError):
    """Division or inversion of the zero element."""


class NoSuchOrder(BurstfoldError):
    """Requested multiplicative order does not divide the group order."""


class DependentBasis(BurstfoldError):
    """Vectors passed as a subspace basis are linearly dependent."""


# --- group / point enumeration ---

class GammaInKernel(BurstfoldError):
    """Coset representative lies in the kernel of the subspace map (t > 1)."""


class DuplicatePoints(BurstfoldError):
    """Enumerated evaluation points are not pairwise distinct."""


# --- polynomials ---

class DuplicateAbscissa(BurstfoldError):
    """Interpolation nodes are not pairwise distinct."""


# --- transform plans ---

class SmoothnessExceeded(BurstfoldError):
    """A chain factor exceeds the requested smoothness bound."""


class LengthMismatch(BurstfoldError):
    """Vector length does not match the plan length."""


class LevelOutOfRange(BurstfoldError):
    """Requested chain level does not exist in the plan."""


# --- codes / decoding ---

class DimensionOutOfRange(BurstfoldError):
    """Code dimension outside 1..n."""


class WindowTooLong(BurstfoldError):
    """Erasure window longer than n - k."""


class NotACodeword(BurstfoldError):
    """Erasure-filled word is inconsistent with the code."""


class CyclicStructureAbsent(BurstfoldError):
    """Operation requires a cyclic (coset) code and the plan has none."""


class NoRootRun(BurstfoldError):
    """Check polynomial has no roots on the evaluation group."""


class NonDivisor(BurstfoldError):
    """Fold width does not divide the vector length."""


class ConfigInfeasible(BurstfoldError):
    """Decoder configuration violates a feasibility condition."""


class DetectedFailure(BurstfoldError):
    """Decoder detected that it cannot produce a trustworthy answer."""


# --- algebraic-geometry codes ---

class FieldOrderMismatch(BurstfoldError):
    """Curve constant does not match the field order."""


class LambdaTooSmall(BurstfoldError):
    """Order bound too small to contain a nonconstant function."""


class IndexOutsideBasis(BurstfoldError):
    """Message index falls outside the function-space basis."""


# --- input boundary ---

class InvalidSymbol(BurstfoldError):
    """A symbol (a word-file line, a message or received entry) is not the
    code of a field element."""


class MalformedSpec(BurstfoldError):
    """A field or group specification (a spec string or a word-file header)
    does not parse, or its values contradict each other."""
