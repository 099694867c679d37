"""Working-precision helpers.

All "high-precision real" values in this package are mpmath floats evaluated
at a configurable number of decimal digits.  The default is 50 digits; the
QUANTACODE_PRECISION environment variable or an explicit ``dps=`` argument
overrides it per call.  Exact quantities (probabilities, per-symbol errors)
never pass through floats at all -- they stay `fractions.Fraction`.
"""

from __future__ import annotations

import os
from fractions import Fraction

import mpmath as mp

DEFAULT_DPS = 50
SURROGATE_DIGITS = 60

_ENV_VAR = "QUANTACODE_PRECISION"


def working_dps(dps: int | None = None) -> int:
    """Resolve the working precision in decimal digits.

    Explicit argument wins, then QUANTACODE_PRECISION, then the default (50).
    """
    if dps is not None:
        return int(dps)
    env = os.environ.get(_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_DPS


def to_mpf(x, dps: int | None = None) -> mp.mpf:
    """Coerce int/str/Fraction/float/mpf to mpf at the working precision.

    Strings and Fractions convert exactly before the single final rounding;
    floats are taken at face value.
    """
    with mp.workdps(working_dps(dps)):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / mp.mpf(x.denominator)
        if isinstance(x, str):
            return mp.mpf(x)
        return mp.mpf(x)


def format_decimal(x, sig: int = 30, dps: int | None = None) -> str:
    """Fixed-significant-digit decimal string for CSV output."""
    with mp.workdps(max(working_dps(dps), sig + 10)):
        return mp.nstr(to_mpf(x, dps=max(working_dps(dps), sig + 10)), sig,
                       strip_zeros=False)
