import bisect
import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quantacode import (
    CorruptStream,
    FrequencyTable,
    InvalidArgument,
    ProbabilityVector,
    SymbolOutOfRange,
    TableTooWide,
    decode,
    decode_framed,
    encode,
    encode_framed,
    entropy_bits,
    error_profile,
    measure_rate,
    parse_probability_vector,
    round_min_max,
    sample_symbols,
)

from quantacode import _kernels

from conftest import random_decimal_probs


def uniform_table(m, reps=1):
    p = ProbabilityVector([f"1/{m}"] * m) if m != 2 else parse_probability_vector(["0.5", "0.5"])
    return p, FrequencyTable.from_freqs(p, [reps] * m)


class TestRoundtrip:
    def test_empty(self):
        p, table = uniform_table(2)
        blob = encode([], table)
        assert decode(blob, 0, table).tolist() == []
        assert len(blob) <= 8

    def test_single_symbol(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        for s in range(3):
            assert decode(encode([s], table), 1, table).tolist() == [s]

    def test_large_random(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        syms = sample_symbols(p, 10**5, seed=3)
        assert np.array_equal(decode(encode(syms, table), len(syms), table), syms)

    def test_bytes_input(self):
        p, table = uniform_table(2)
        raw = bytes([0, 1, 1, 0, 1])
        assert decode(encode(raw, table), 5, table).tolist() == [0, 1, 1, 0, 1]

    @given(st.integers(2, 12), st.integers(0, 2**32), st.integers(0, 3000))
    @settings(max_examples=30)
    def test_random_tables_and_streams(self, m, seed, n):
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        t = int(rng.integers(m, 5000))
        table = round_min_max(p, t)
        syms = rng.integers(0, m, n, dtype=np.int64)
        assert np.array_equal(decode(encode(syms, table), n, table), syms)

    @given(st.integers(2, 300), st.integers(0, 2**32), st.integers(0, 3000))
    @example(m=257, seed=1, n=3000)
    @example(m=300, seed=2, n=1)
    @settings(max_examples=30)
    def test_wide_alphabets_and_tables(self, m, seed, n):
        # m > 256 keeps the decoded symbols as C unsigned ints; t reaches 2**24
        rng = np.random.default_rng(seed)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        table = round_min_max(p, int(rng.integers(m, (1 << 24) + 1)))
        syms = rng.integers(0, m, n, dtype=np.int64)
        syms[::5] = table.order[-1]     # the last canonical interval
        assert np.array_equal(decode(encode(syms, table), n, table), syms)

    def test_wide_alphabet_across_slices(self):
        m, n = 300, 2 * _kernels._CHUNK + 3
        rng = np.random.default_rng(6)
        p = ProbabilityVector(random_decimal_probs(rng, m))
        table = round_min_max(p, 1 << 24)
        syms = rng.integers(0, m, n, dtype=np.int64)
        assert np.array_equal(decode(encode(syms, table), n, table), syms)

    def test_determinism(self):
        p = parse_probability_vector(["0.7", "0.3"])
        table = round_min_max(p, 100)
        syms = sample_symbols(p, 5000, seed=5)
        assert encode(syms, table) == encode(syms, table)


class TestValidation:
    def test_symbol_out_of_range(self):
        p, table = uniform_table(2)
        with pytest.raises(SymbolOutOfRange):
            encode([0, 2], table)

    def test_oversized_total_rejected(self):
        p = parse_probability_vector(["0.5", "0.5"])
        table = round_min_max(p, (1 << 24) + 2)
        with pytest.raises(TableTooWide):
            encode([0], table)

    def test_negative_count_rejected(self):
        p, table = uniform_table(2)
        with pytest.raises(InvalidArgument) as exc:
            decode(b"", -1, table)
        assert isinstance(exc.value, ValueError)

    def test_rate_needs_a_symbol(self):
        p, table = uniform_table(2)
        with pytest.raises(InvalidArgument):
            measure_rate(p, table, 0, seed=1)

    def test_truncated_stream_detected(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        syms = sample_symbols(p, 4000, seed=9)
        blob = encode(syms, table)
        with pytest.raises(CorruptStream):
            decode(blob[: len(blob) // 2], len(syms), table)


class TestFraming:
    def test_roundtrip_carries_table(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        syms = sample_symbols(p, 1000, seed=1)
        out, table2 = decode_framed(encode_framed(syms, table))
        assert table2 == table
        assert np.array_equal(out, syms)

    def test_bad_magic(self):
        with pytest.raises(CorruptStream):
            decode_framed(b"NOPE" + b"\0" * 32)

    def test_truncated_header(self):
        p, table = uniform_table(2)
        blob = encode_framed([0, 1], table)
        with pytest.raises(CorruptStream):
            decode_framed(blob[:10])

    @staticmethod
    def forged(n):
        """A framed 30-symbol stream whose header claims n symbols."""
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        blob = bytearray(encode_framed(sample_symbols(p, 30, seed=2), table))
        n_at = 8 + len(table.serialize_text().encode())
        blob[n_at:n_at + 8] = n.to_bytes(8, "big")
        return table, bytes(blob), bytes(blob[n_at + 8:])

    def test_forged_count_stops_at_first_overread(self):
        table, blob, payload = self.forged(10**6)
        fpos = [table.freqs[s] for s in table.order]
        _, over = _kernels.rc_decode_py(payload, 10**6, table.order, table.cum,
                                        fpos, table.t)
        assert over == 9
        with pytest.raises(CorruptStream):
            decode_framed(blob)

    def test_forged_huge_count_rejected_before_decoding(self):
        # a count of 2**40 would need an 8 TiB symbol buffer
        _, blob, _ = self.forged(2**40)
        with pytest.raises(CorruptStream, match="symbol count"):
            decode_framed(blob)

    def test_count_bound_admits_runs_of_the_likeliest_symbol(self):
        # the cheapest symbols per unit of t - f_max come nearest the bound
        p = parse_probability_vector(["0.0625", "0.9375"])
        table = FrequencyTable.from_freqs(p, [1 << 20, 15 << 20])
        syms = np.ones(20000, dtype=np.int64)
        assert np.array_equal(decode(encode(syms, table), syms.size, table), syms)


class TestRates:
    def test_degenerate_stream_costs_one_bit(self):
        p, table = uniform_table(2)
        blob = encode(np.zeros(10**4, dtype=np.int64), table)
        rate = 8 * len(blob) / 10**4
        assert abs(rate - 1.0) < 0.01

    def test_exact_dyadic_model_only_flush_overhead(self):
        # constant per-symbol cost: no sampling noise, excess is pure flush
        p, table = uniform_table(2)
        rep = measure_rate(p, table, 10**6, seed=0)
        assert rep.divergence_bits == 0
        assert 0 <= rep.excess <= 1e-4

    def test_uniform_four_symbol_model(self):
        p = ProbabilityVector(["1/4"] * 4)
        table = FrequencyTable.from_freqs(p, [1, 1, 1, 1])
        rep = measure_rate(p, table, 10**5, seed=0)
        assert abs(rep.excess) <= (table.width_bits + 8 + 48) / 10**5

    def test_mismatched_model_pays_divergence(self):
        p = parse_probability_vector(["0.7", "0.3"])
        table = FrequencyTable.from_freqs(p, [1, 1])
        rep = measure_rate(p, table, 10**6, seed=12)
        assert abs(rep.excess - rep.divergence_bits) < 0.005
        assert abs(rep.divergence_bits - 0.11870910076930738) < 1e-12

    def test_excess_tracks_divergence_within_noise(self):
        p = parse_probability_vector(["0.6", "0.3", "0.1"])
        table = round_min_max(p, 7)
        n = 200_000
        rep = measure_rate(p, table, n, seed=77)
        syms = sample_symbols(p, n, seed=77)
        counts = np.bincount(syms, minlength=3)
        lens = -np.log2(np.array(table.freqs) / table.t)
        mean = float(counts @ lens) / n
        var = float(counts @ (lens - mean) ** 2) / n
        sigma = (var / n) ** 0.5
        assert abs(rep.excess - rep.divergence_bits) <= 4 * sigma + 64 / n

    def test_entropy_matches_reference(self):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        assert abs(float(entropy_bits(p)) - 1.1567796494470395) < 1e-14

    def test_csv_row(self):
        p, table = uniform_table(2)
        rep = measure_rate(p, table, 1000, seed=0)
        assert len(rep.csv_row().split(",")) == len(rep.CSV_HEADER.split(","))

    def test_sampling_is_seeded(self):
        p = parse_probability_vector(["0.7", "0.3"])
        a = sample_symbols(p, 1000, seed=4)
        b = sample_symbols(p, 1000, seed=4)
        c = sample_symbols(p, 1000, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def _lcg(seed):
    """64-bit LCG (Knuth's MMIX constants); its high 32 bits, forever.

    The pinned streams below come from it rather than from numpy, so that
    their digests do not depend on numpy's generator algorithms.
    """
    x = seed
    while True:
        x = (6364136223846793005 * x + 1442695040888963407) & (2**64 - 1)
        yield x >> 32


def _pinned_case(m, t, n=20_000):
    """A seeded source of m symbols, its min-max table at t, and n symbols
    drawn from that table's frequencies."""
    gen = _lcg(1000 * m + t)
    w = [1 + next(gen) % 1000 for _ in range(m)]
    p = ProbabilityVector([Fraction(v, sum(w)) for v in w])
    table = round_min_max(p, t)
    ends = list(itertools.accumulate(table.freqs))
    syms = np.array([bisect.bisect_right(ends, next(gen) % t) for _ in range(n)],
                    dtype=np.int64)
    return table, syms


def _pin_ts(m):
    return sorted(t for t in {m + 1, 97, 1 << 12, 1 << 18, 1 << 24} if t > m)


# sha256 of encode(...) for every (m, t) of _pinned_case
ENCODE_SHA256 = {
    (2, 3): "4c95c3812aede54d331a4cc8094d2f15e83a9031626a8d117cd99652a5b9ee3d",
    (2, 97): "7ff8f7f2b2179d699ddb9e748a4322031e0c668229d555ce5433c7d56472b8be",
    (2, 4096): "0f64510df1339f4b76ca7a63766f56b7cf59b31d67ead04d8b33c757fc3b9fd9",
    (2, 262144): "1000397e134599ffab39e6d4dcb45675bdaa38fd0a203fe20e606b710dee3226",
    (2, 16777216): "78d65fb8827a27bfd2931934f885218fc527f171c19cb53296cd871aa91ecb44",
    (3, 4): "01d3f9ff3b4dd8bb1db70053eb5871c51f12a60ad5e50018459f23e79599c0bb",
    (3, 97): "a864f563127e81adbc6600314f037d7d9aef4c206a5db8f5cbc2db2e42c8cbc4",
    (3, 4096): "4cea0b19700a2c673267bbbfcac4f3ca5a331c61223f0d9cbc308c97ca10c707",
    (3, 262144): "7bf377b3bf19cabf915f816e7ae1c1c12d500cddfc8149eadeeccdb20851f68b",
    (3, 16777216): "e9ff7dffa2e3dee632a57bd24b977932168eea6b9f6ff53e99c6a912c5b6ff9c",
    (24, 25): "d86597da7189c2ace75536b6482c11117e08eb010c291024c34e832737976515",
    (24, 97): "fd621c84574b635a8d853638494e7aaa6526ba14580cc65e91d7d1d07819359f",
    (24, 4096): "60885560d4ee1aaaa7d13b35ab6ee0f371811653e548613710025d1d9dc899ba",
    (24, 262144): "04b572c27afecee23f969814247582e4d7e376815fffe887f87ecf7b6c3544e1",
    (24, 16777216): "de9dae6ea7206648ce766eed1ad2f6df7b43f545e63fbd1e84cc29a6a9336444",
    (200, 201): "e24cbe6f62aaac7053c3f5077874247e85203135c796bece8238aa1d3e059b6f",
    (200, 4096): "546cc3bf46711f9922da0545652f22c55d61d3c2716d1ecc37c7e75792fbc5a2",
    (200, 262144): "321c92a43902cb35860c2b833d1e6f6259df5b6c9458ece61672c949dcc2ed66",
    (200, 16777216): "d79f53f58677a8fde18b202bda0f338c040872ad8ba4ec686ebcfeda798574ef",
    (300, 301): "5f5527c3d57c484f31f42a304c4bc0a821c39b54afcd28584cc31292cb7fd4c6",
    (300, 4096): "f228738f64dd7489c19136e6f593262108f06b6ef4787039c07f73e5a4962053",
    (300, 262144): "bf09dd40462814a9a51f6b53c6f880bd57a6ee4083a7a77e4e48fdc2ab3c2db1",
    (300, 16777216): "e621f771d9195a520ab97dcb4114dd00f97fa2ce049cf08e6f1fbff50c8f71b4",
}

# rc_decode_py's `over` on the payload of an n-symbol _pinned_case cut to
# each length: (m, t, n) -> {length: over}
CUT_OVER = {
    (2, 3, 2000): {
        0: 9, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9, 117: 9, 226: 9, 227: 8,
        230: 5, 234: 1, 235: 0,
    },
    (3, 97, 2000): {
        0: 9, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9, 198: 9, 388: 9, 389: 8,
        392: 5, 396: 1, 397: 0,
    },
    (24, 4096, 2000): {
        0: 9, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9, 545: 9, 1081: 8, 1082: 8,
        1085: 5, 1089: 1, 1090: 0,
    },
    (200, 16777216, 2000): {
        0: 9, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9, 937: 9, 1865: 9, 1866: 8,
        1869: 5, 1873: 1, 1874: 0,
    },
    (300, 262144, 2000): {
        0: 9, 1: 9, 2: 9, 3: 9, 4: 9, 5: 9, 6: 9, 1000: 9, 1992: 9, 1993: 8,
        1996: 5, 2000: 1, 2001: 0,
    },
    (3, 97, 3): {
        0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0,
    },
    (200, 16777216, 2): {
        0: 8, 1: 7, 2: 4, 3: 3, 4: 2, 5: 1, 6: 0,
    },
    (300, 301, 1): {
        0: 6, 1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 0,
    },
}


class TestPinnedBytes:
    @pytest.mark.parametrize("m", [2, 3, 24, 200, 300])
    def test_encode_digests(self, m):
        for t in _pin_ts(m):
            table, syms = _pinned_case(m, t)
            blob = encode(syms, table)
            assert hashlib.sha256(blob).hexdigest() == ENCODE_SHA256[m, t], (m, t)
            assert np.array_equal(decode(blob, syms.size, table), syms)

    @pytest.mark.parametrize("m, t, n", sorted(CUT_OVER))
    def test_overread_on_cut_payloads(self, m, t, n):
        table, syms = _pinned_case(m, t, n)
        blob = encode(syms, table)
        fpos = [table.freqs[s] for s in table.order]
        got = {}
        for cut in CUT_OVER[m, t, n]:
            _, got[cut] = _kernels.rc_decode_py(blob[:cut], syms.size, table.order,
                                                table.cum, fpos, table.t)
        assert got == CUT_OVER[m, t, n]
