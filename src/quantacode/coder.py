"""Quantized range coder and its rate-measurement harness.

The coder is a byte-wise carry-propagating range coder (64-bit state, 32-bit
range register, renormalized when the range drops below 2**24).  Symbol
intervals are the canonical cumulative intervals of the frequency table:
symbol at canonical position k owns [cum[k], cum[k] + f_k) out of t.  With
t capped at 2**24, range // t never truncates a nonzero interval, and after
every renormalization range >= 2**24 = 2**(32 - 8).

The encoder is the measurement instrument for the redundancy analysis: for
iid symbols from p, the empirical rate converges to H(p) + D(p || f/t) bits
per symbol, up to O(1/n) flush overhead (at most the state width, 64 bits,
per stream) plus sampling noise.  A finite-n measurement therefore validates
the divergence computed by `bounds`, it does not bound it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import _kernels
from .errors import (
    CorruptStream,
    DimensionMismatch,
    InvalidArgument,
    SymbolOutOfRange,
    TableTooWide,
)
from .precision import DEFAULT_DPS
from .prob_model import MAX_TOTAL, FrequencyTable, ProbabilityVector
from .bounds import _report_dps, kl_divergence

FRAME_MAGIC = b"QC01"


def _check_table(table: FrequencyTable):
    if table.t > MAX_TOTAL:
        raise TableTooWide(
            f"t = {table.t} exceeds the coder limit 2**24; "
            f"use a narrower table"
        )


def _as_symbol_array(symbols) -> np.ndarray:
    """Symbols as integers: bytes as a uint8 view, integer arrays uncopied."""
    if isinstance(symbols, (bytes, bytearray, memoryview)):
        return np.frombuffer(symbols, dtype=np.uint8)
    if isinstance(symbols, np.ndarray) and symbols.dtype.kind in "iu":
        return symbols
    return np.ascontiguousarray(symbols, dtype=np.int64)


def encode(symbols, table: FrequencyTable) -> bytes:
    """Range-encode a sequence of symbol indices with the given table.

    Deterministic; integer arithmetic only.  The empty sequence encodes to
    the bare flush (5 bytes).
    """
    _check_table(table)
    syms = _as_symbol_array(symbols)
    if syms.size and (syms.min() < 0 or syms.max() >= table.m):
        bad = int(syms[(syms < 0) | (syms >= table.m)][0])
        raise SymbolOutOfRange(f"symbol {bad} outside [0, {table.m})")
    fpos = [table.freqs[s] for s in table.order]
    return _kernels.rc_encode(syms, table.position_of_symbol, table.cum,
                              fpos, table.t)


def decode(data: bytes, n: int, table: FrequencyTable) -> np.ndarray:
    """Exact inverse of encode for a stream of n symbols."""
    _check_table(table)
    if n < 0:
        raise InvalidArgument(f"n must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Each symbol shrinks the range by at least 1 - (t - f_max)/(2t), the
    # last interval included, since r = range // t >= range/(2t) when
    # range >= 2**24 >= t.  The range stays in [2**24, 2**32) and each byte
    # read multiplies it by 256, so an honest stream has
    # n*(t - f_max) < 16*t*(bytes read + 1), and the decoder reads at most
    # len(data) + 8 bytes.  A larger n is forged: reject it before
    # allocating n symbols.
    if n * (table.t - max(table.freqs)) > 16 * table.t * (len(data) + 9):
        raise CorruptStream(f"symbol count {n} exceeds what "
                            f"{len(data)} payload bytes can hold")
    fpos = [table.freqs[s] for s in table.order]
    syms, status = _kernels.rc_decode(data, n, table.order, table.cum,
                                      fpos, table.t)
    if status != 0:
        raise CorruptStream("compressed stream truncated or inconsistent")
    return syms


def encode_framed(symbols, table: FrequencyTable) -> bytes:
    """Self-describing stream: magic, serialized table, n, payload."""
    syms = _as_symbol_array(symbols)
    body = encode(syms, table)
    ttext = table.serialize_text().encode()
    return (FRAME_MAGIC + struct.pack(">I", len(ttext)) + ttext
            + struct.pack(">Q", syms.size) + body)


def decode_framed(data: bytes):
    """Inverse of encode_framed; returns (symbols, table)."""
    if len(data) < 16 or data[:4] != FRAME_MAGIC:
        raise CorruptStream("bad magic; not a framed quantacode stream")
    (tlen,) = struct.unpack(">I", data[4:8])
    if len(data) < 8 + tlen + 8:
        raise CorruptStream("framed stream truncated in header")
    try:
        table = FrequencyTable.parse_text(data[8:8 + tlen].decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise CorruptStream(f"bad embedded table: {exc}")
    (n,) = struct.unpack(">Q", data[8 + tlen:16 + tlen])
    return decode(memoryview(data)[16 + tlen:], n, table), table


# ---- measurement ------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    """Empirical rate of coding n iid symbols next to the model's penalty."""

    n: int
    total_bits: int
    rate: float            # bits per symbol
    entropy_bits: float    # H(p), bits per symbol
    divergence_bits: float  # D(p || f/t), bits per symbol
    excess: float          # rate - entropy_bits

    CSV_HEADER = "n,total_bits,rate,entropy_bits,divergence_bits,excess"

    def csv_row(self) -> str:
        return (f"{self.n},{self.total_bits},{self.rate:.12g},"
                f"{self.entropy_bits:.12g},{self.divergence_bits:.12g},"
                f"{self.excess:.12g}")


def entropy_bits(p: ProbabilityVector, dps: int = DEFAULT_DPS) -> mp.mpf:
    """Source entropy H(p) in bits at dps digits."""
    with mp.workdps(dps):
        return -mp.fsum(
            (mp.mpf(x.numerator) / x.denominator)
            * mp.log(mp.mpf(x.numerator) / x.denominator)
            for x in p.probs
        ) / mp.log(2)


def sample_symbols(p: ProbabilityVector, n: int, seed: int) -> np.ndarray:
    """n iid draws from p, seeded and platform-stable (PCG64 + searchsorted)."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(np.array([float(x) for x in p.probs]))
    cum[-1] = 1.0
    syms = np.empty(n, dtype=np.int64)
    for i in range(0, n, _kernels._CHUNK):   # one stream, drawn in slices
        u = rng.random(min(n - i, _kernels._CHUNK))
        syms[i:i + u.size] = np.searchsorted(cum, u, side="right")
    return syms


def measure_rate(p: ProbabilityVector, table: FrequencyTable, n: int,
                 seed: int) -> RateReport:
    """Encode n seeded iid symbols from p and compare the rate to H + D.

    The reported excess (rate minus entropy) approaches divergence_bits up to
    sampling noise and the O(1/n) flush overhead.
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    if table.m != p.m:
        raise DimensionMismatch(f"table has {table.m} symbols, source has {p.m}")
    syms = sample_symbols(p, n, seed)
    blob = encode(syms, table)
    total_bits = 8 * len(blob)
    dps = _report_dps(p, table)   # so that the printed H and D are right
    h = float(entropy_bits(p, dps))
    d = float(kl_divergence(p, table, dps).bits)
    rate = total_bits / n
    return RateReport(n, total_bits, rate, h, d, rate - h)
