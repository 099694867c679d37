"""Machine-speed calibration block.

On a shared virtual machine with 2 vCPUs (Python 3.11, numpy 2.4), speed
comes in phases: for tens of seconds at a time, the same code runs up to
1.9x slower, in CPU time as well as wall time, so a 30-second run's raw throughput depends on
which phases it met.  A tight arithmetic loop slows down less than real
code does, so the block below imitates the program's mix instead: exact
largest-remainder rows on Python integers, a byte-wise range-coder loop,
a stable numpy argsort on an int64 matrix, Fraction arithmetic, and mpmath
logarithms and formatting at 50 digits.  It calls nothing in quantacode, so
no change to the package can change it.

The block runs before the first request of a cycle and after every
request.  A request's time is scaled by REFERENCE_S / (median of the eight
block times around it), so reported rates are work per second at the
machine speed at which one block takes REFERENCE_S, close to that machine
in its fast phase.  Raw rates are kept in the result file next to them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import mpmath as mp
import numpy as np

from checks import largest_remainder_a

REFERENCE_S = 0.003

_NUMS = [412345, 300001, 199999, 87655]
_MATRIX = np.random.default_rng(20071217).integers(0, 1 << 40, size=(4096, 6))
_SYMS = [int(v) for v in np.random.default_rng(7).integers(0, 4, size=6000)]
_STARTS, _FREQS = [0, 400, 1600, 3000], [400, 1200, 1400, 1096]


def _coder_loop(data, t=4096):
    low, rng, out = 0, 0xFFFFFFFF, bytearray()
    for s in data:
        r = rng // t
        low += _STARTS[s] * r
        rng = _FREQS[s] * r
        while rng < 1 << 24:
            rng <<= 8
            out.append((low >> 24) & 0xFF)
            low = (low & 0xFFFFFF) << 8
    return out


def block_seconds() -> float:
    """Time one calibration block."""
    start = time.perf_counter()
    for t in range(1000, 1300):
        largest_remainder_a(_NUMS, 10**6, t)
    _coder_loop(_SYMS)
    np.argsort(-_MATRIX, axis=1, kind="stable")
    str(sum(Fraction(i, i + 1) for i in range(1, 30)))
    with mp.workdps(50):
        for k in range(2, 40):
            mp.nstr(mp.log(mp.mpf(k) / 7), 30)
    return time.perf_counter() - start
