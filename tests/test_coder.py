import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantacode import (
    CorruptStream,
    FrequencyTable,
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

    def test_forged_count_stops_at_first_overread(self):
        # a 30-symbol stream whose header claims 10**6 symbols
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        blob = bytearray(encode_framed(sample_symbols(p, 30, seed=2), table))
        n_at = 8 + len(table.serialize_text().encode())
        blob[n_at:n_at + 8] = (10**6).to_bytes(8, "big")
        payload = bytes(blob[n_at + 8:])
        fpos = [table.freqs[s] for s in table.order]
        _, over = _kernels.rc_decode_py(payload, 10**6, table.order, table.cum,
                                        fpos, table.t)
        assert over == 9
        with pytest.raises(CorruptStream):
            decode_framed(bytes(blob))


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
