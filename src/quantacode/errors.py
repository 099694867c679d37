"""Exception hierarchy for quantacode.

Every error raised by the library derives from QuantacodeError so callers can
catch the whole family at once.  The CLI maps QuantacodeError to exit code 2
(invalid input), except TargetUnachievableWithinScan which maps to exit code 3.
"""


class QuantacodeError(Exception):
    """Base class for all quantacode errors."""


# ---- probability vectors ----------------------------------------------------

class NonPositiveProbability(QuantacodeError):
    """A probability entry is not strictly inside (0, 1)."""


class SumOutOfTolerance(QuantacodeError):
    """The raw probabilities do not sum to 1 within the parse tolerance."""


class AlphabetTooSmall(QuantacodeError):
    """Fewer than two symbols."""


class DimensionMismatch(QuantacodeError):
    """Probability vector and frequency table have different lengths."""


# ---- approximation ----------------------------------------------------------

class DenominatorTooSmall(QuantacodeError):
    """Requested denominator t < m, so f_i >= 1 is infeasible."""


class InstanceTooLarge(QuantacodeError):
    """Exhaustive search requested beyond its supported size (m <= 4, t <= 64)."""


class WidthTooSmall(QuantacodeError):
    """2**W < m, no frequency table fits in the requested register width."""


# ---- bounds -----------------------------------------------------------------

class RatioNotLessThanOne(QuantacodeError):
    """delta_star / p_min >= 1; the divergence bound does not apply."""


class PreconditionViolated(QuantacodeError):
    """A closed-form bound was evaluated outside its domain."""


class AlphabetNotMary(QuantacodeError):
    """The m-ary bound was requested for m <= 2 (or the binary one for m != 2)."""


class NonPositiveTarget(QuantacodeError):
    """Target redundancy must be > 0."""


class KappaMissing(QuantacodeError):
    """The binary width bound needs an explicit kappa constant."""


class TargetUnachievableWithinScan(QuantacodeError):
    """No denominator within the scan window reaches the target redundancy."""


# ---- coder ------------------------------------------------------------------

class ZeroFrequency(QuantacodeError):
    """A frequency table entry is < 1."""


class TableTooWide(QuantacodeError):
    """The table total t exceeds the coder limit 2**24."""


class SymbolOutOfRange(QuantacodeError):
    """An input symbol index is outside [0, m)."""


class CorruptStream(QuantacodeError):
    """The compressed stream is inconsistent (truncated, bad magic, bad header)."""
