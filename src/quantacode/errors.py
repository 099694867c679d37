"""Exception hierarchy for quantacode.

Every error raised by the library derives from QuantacodeError so callers can
catch the whole family at once.  Every one raised on bad input also derives
from InvalidArgument, and so is a ValueError.  The CLI maps QuantacodeError
to exit code 2 (invalid input), except TargetUnachievableWithinScan which maps
to exit code 3.
"""


class QuantacodeError(Exception):
    """Base class for all quantacode errors."""


class InvalidArgument(QuantacodeError, ValueError):
    """An argument lies outside the domain of the function it was passed to.

    Also a ValueError, so callers that catch ValueError keep working.
    """


# ---- probability vectors ----------------------------------------------------

class NonPositiveProbability(InvalidArgument):
    """A probability entry is not strictly inside (0, 1)."""


class SumOutOfTolerance(InvalidArgument):
    """The raw probabilities do not sum to 1 within the parse tolerance."""


class AlphabetTooSmall(InvalidArgument):
    """Fewer than two symbols."""


class DimensionMismatch(InvalidArgument):
    """Probability vector and frequency table have different lengths."""


# ---- approximation ----------------------------------------------------------

class DenominatorTooSmall(InvalidArgument):
    """Requested denominator t < m, so f_i >= 1 is infeasible."""


class InstanceTooLarge(InvalidArgument):
    """Exhaustive search requested beyond its supported size (m <= 4, t <= 64)."""


class WidthTooSmall(InvalidArgument):
    """2**W < m, no frequency table fits in the requested register width."""


# ---- bounds -----------------------------------------------------------------

class RatioNotLessThanOne(InvalidArgument):
    """delta_star / p_min >= 1; the divergence bound does not apply."""


class PreconditionViolated(InvalidArgument):
    """A closed-form bound was evaluated outside its domain."""


class AlphabetNotMary(InvalidArgument):
    """The m-ary bound was requested for m <= 2 (or the binary one for m != 2)."""


class NonPositiveTarget(InvalidArgument):
    """Target redundancy must be > 0."""


class KappaMissing(InvalidArgument):
    """The binary width bound needs an explicit kappa constant."""


class TargetUnachievableWithinScan(QuantacodeError):
    """No denominator within the scan window reaches the target redundancy."""


# ---- coder ------------------------------------------------------------------

class ZeroFrequency(InvalidArgument):
    """A frequency table entry is < 1."""


class TableTooWide(InvalidArgument):
    """The table total t exceeds the coder limit 2**24."""


class SymbolOutOfRange(InvalidArgument):
    """An input symbol index is outside [0, m)."""


class CorruptStream(InvalidArgument):
    """The compressed stream is inconsistent (truncated, bad magic, bad header)."""
