import inspect
import struct
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from quantacode import (
    KAPPA_GENERIC,
    DenominatorTooSmall,
    ProbabilityVector,
    QuantacodeError,
    corollary1_width,
    corollary2_width,
    encode,
    encode_framed,
    golden_pair,
    parse_probability_vector,
    plan_precision,
    round_min_max,
    sample_symbols,
    scan_rows,
    __version__,
)
from quantacode import cli, precision
from quantacode.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestApproximate:
    def test_writes_table_and_report(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, stdout, _ = run(capsys, "approximate", "-p", "0.7,0.3",
                              "-t", "4", "-o", str(out))
        assert code == 0
        assert "divergence" in stdout
        text = out.read_text()
        assert text.splitlines()[2] == "2 4 2"
        assert "delta_star 1/20" in text

    def test_width_budget_variant(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, stdout, _ = run(capsys, "approximate", "-p", "golden",
                              "-W", "4", "-o", str(out))
        assert code == 0
        assert "13" in out.read_text().splitlines()[2]

    @pytest.mark.parametrize("probs", ["0.7,0.2,0.1", "triple"])
    def test_width_beyond_coder_exits_2_before_any_scan(self, capsys, monkeypatch,
                                                        probs):
        # m > 2 scans every t up to 2**W: -W 40 would run for days
        import quantacode.approx as A

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(A, "_Chunk", no_scan)     # every scan builds its chunks
        code, stdout, err = run(capsys, "approximate", "-p", probs, "-W", "40")
        assert code == 2 and stdout == ""
        assert "W = 40" in err and "24" in err

    @pytest.mark.parametrize("argv, want", [
        # a binary source's best table up to any W >= bl(d) is its exact one
        (["approximate", "-p", "0.7,0.3", "-W", "1000000000000"],
         "denominator t = 10,"),
        (["approximate", "-p", "golden", "-W", "1000000000000"],
         f"denominator t = {2 * 10**60},"),
        (["approximate", "-p", "0.7,0.2,0.1", "-W", "1000000000000"], None),
        # Fraction("1e-10000000") builds 10**10000000, about 16 s
        (["plan", "-p", "1e-10000000,0.5", "-R", "1e-3"], None),
    ], ids=["binary", "golden", "ternary", "exponent"])
    def test_huge_width_or_exponent_is_decided_at_once(self, capsys, argv, want):
        # each width case used to build 2**W first and exit 1 on a MemoryError
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        if want is None:
            assert code == 2 and not stdout and err
        else:
            assert code == 0 and want in stdout

    def test_huge_denominator_reports_delta_star_as_a_decimal(self, tmp_path, capsys):
        # delta_star's denominator has more than 4,300 digits, past what
        # str() writes: the table comment and the report give its decimal
        out = tmp_path / "t.txt"
        code, stdout, _ = run(capsys, "approximate", "-p", "1e-4300,0.5,0.5",
                              "-W", "12", "-o", str(out))
        assert code == 0
        assert out.read_text().splitlines()[1] == (
            "# delta_star 0.000244140625000000000000000000000")
        assert "delta_star = 0.000244140625000, " in stdout

    def test_invalid_denominator_exit_code(self, capsys, tmp_path):
        code, _, err = run(capsys, "approximate", "-p", "0.7,0.3", "-t", "1",
                           "-o", str(tmp_path / "x"))
        assert code == 2
        assert "error" in err

    def test_invalid_probability_exit_code(self, capsys, tmp_path):
        code, _, _ = run(capsys, "approximate", "-p", "0.3,0.3", "-t", "4",
                         "-o", str(tmp_path / "x"))
        assert code == 2

    def test_report_csv(self, tmp_path, capsys):
        rep = tmp_path / "rep.csv"
        code, _, _ = run(capsys, "approximate", "-p", "0.7,0.3", "-t", "4",
                         "-o", str(tmp_path / "t.txt"),
                         "--report-csv", str(rep))
        assert code == 0
        lines = rep.read_text().splitlines()
        assert lines[0] == f"# quantacode {__version__}"
        assert lines[1].startswith("m,t,delta_star")


class TestScan:
    def test_csv_contents(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, err = run(capsys, "scan", "-p", "golden", "--t-max", "60",
                           "--kappa", "golden", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("t,delta_star_decimal,quality_decimal,"
                            "is_record,beats_fact_constant")
        rows = [ln.split(",") for ln in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(2, 61))
        records = [int(r[0]) for r in rows if r[3] == "1"]
        assert records == [2, 3, 5, 8, 13, 21, 34, 55]
        assert "records:" in err

    def test_rational_scan_stops_at_exact(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "-p", "0.7,0.3", "--t-max", "100",
                         "-o", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[-1].split(",")[0] == "10"

    def test_decimals_do_not_depend_on_precision(self, tmp_path, capsys):
        # the decimals are exact: at mpmath's default 15 digits the scan
        # writes the same bytes
        bodies = []
        for dps in (15, 50):
            out = tmp_path / f"scan{dps}.csv"
            with mp.workdps(dps):
                code, _, _ = run(capsys, "scan", "-p", "triple", "--t-max",
                                 "300", "-o", str(out))
            assert code == 0
            bodies.append(out.read_text())
        assert bodies[0] == bodies[1]

    def test_t_max_below_m_exits_2(self, capsys):
        with pytest.raises(DenominatorTooSmall):
            next(scan_rows(golden_pair(), 1))
        code, stdout, err = run(capsys, "scan", "-p", "golden", "--t-max", "1")
        assert code == 2 and not stdout and "t_max = 1 < m = 2" in err

    def test_rows_stream_to_the_output(self, tmp_path, capsys, monkeypatch):
        # each row is written as the scan yields it: four times the rows
        # leave the peak of traced memory within 1 MB, where holding every
        # line until the end took about 293 bytes per row.  The decimals
        # are a fixed string of their length here: tracing their integer
        # arithmetic took 10 s, and it holds nothing across rows
        digits = "0." + "0" * 30
        rows = [0]

        def formatter(d, m):
            def decimals(t, a):
                rows[0] += 1
                return digits, digits
            return decimals
        monkeypatch.setattr(cli, "scan_formatter", formatter)
        peaks = []
        for t_max in (20000, 80000):
            tracemalloc.start()
            code, _, _ = run(capsys, "scan", "-p", "0.312407,0.451893,0.235700",
                             "--t-max", str(t_max), "-o", str(tmp_path / "s.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert code == 0
        assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks
        assert rows[0] == (20000 - 2) + (80000 - 2)     # every row, t >= m = 3

    @pytest.mark.parametrize("probs, calls", [
        ("golden", {"scan_formatter": 1}),
        # decimal_root takes the 13 perfect cubes t = j**3 <= 3000: their
        # quality j * A/d has at most 31 digits, on a rounding boundary
        ("0.312407,0.451893,0.235700", {"scan_formatter": 1, "decimal_root": 13}),
    ])
    def test_rows_call_no_public_decimal_function(self, probs, calls, tmp_path,
                                                  capsys, monkeypatch):
        # a tracer that wraps the public functions of each module (as the
        # benchmark's does) sees a constant number of precision calls per
        # scan, plus one per row the fixed-point root cannot decide
        seen = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        public = {fn: name for name, fn in vars(precision).items()
                  if not name.startswith("_") and inspect.isfunction(fn)
                  and fn.__module__ == precision.__name__}
        for name, mod in list(sys.modules.items()):
            if name.startswith("quantacode") and mod is not None:
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in public:
                        monkeypatch.setattr(mod, attr, counted(public[val], val))
        code, _, _ = run(capsys, "scan", "-p", probs, "--t-max", "3000",
                         "-o", str(tmp_path / "s.csv"))
        assert code == 0
        assert seen == calls


class TestPlan:
    def test_opportunistic_plan(self, capsys):
        code, stdout, _ = run(capsys, "plan", "-p", "golden", "-R", "1e-5",
                              "--mode", "opportunistic")
        assert code == 0
        assert "chosen t = 21" in stdout
        assert "precision" not in stdout

    def test_bad_target_exit_code(self, capsys):
        code, _, _ = run(capsys, "plan", "-p", "golden", "-R", "-1")
        assert code == 2

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "plan.csv"
        code, _, _ = run(capsys, "plan", "-p", "0.7,0.3", "-R", "1e-6",
                         "--mode", "opportunistic", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].startswith("mode,target_r_nats")
        assert lines[2].startswith("opportunistic")

    @pytest.mark.parametrize("target", ["2", "5"])
    def test_target_at_least_m_prints_no_eta(self, tmp_path, capsys, target):
        # R >= m = 2 leaves eta undefined: R = 2 used to exit 1 with a
        # ZeroDivisionError, R = 5 to print eta = -0.756
        out = tmp_path / "plan.csv"
        code, stdout, _ = run(capsys, "plan", "-p", "0.7,0.3", "-R", target,
                              "-o", str(out))
        assert code == 0
        assert "eta = W / log2(m/R) = n/a" in stdout
        assert out.read_text().splitlines()[2].split(",")[8] == ""

    @pytest.mark.parametrize("target", ["1/0", "inf", "abc"])
    def test_bad_target_exits_2_with_message(self, capsys, target):
        # 1/0 used to exit 1 with a traceback, inf to exit 2 with "error: ",
        # and the library raised ZeroDivisionError or a bare ValueError
        code, _, err = run(capsys, "plan", "-p", "0.7,0.3", "-R", target)
        assert code == 2
        assert err.startswith("error: ") and err[len("error: "):].strip()
        p = parse_probability_vector("0.7,0.3")
        for call in (lambda: plan_precision(p, target),
                     lambda: corollary1_width(2, target, p.p_min),
                     lambda: corollary2_width(2, target, p.p_min,
                                              kappa=KAPPA_GENERIC)):
            with pytest.raises(QuantacodeError, match="target redundancy"):
                call()

    def test_guaranteed_beyond_coder_exits_3(self, capsys):
        # second order needs W = 26 > 24; the plan used to scan 2**50 rows
        code, stdout, err = run(capsys, "plan", "-p", "golden", "-R", "1e-15")
        assert code == 3 and not stdout
        assert "W = 26 bits" in err and "--mode opportunistic" in err


    @pytest.mark.parametrize("probs, target, mode, want", [
        ("0.7,0.3", "1e999999999999", "guaranteed", ["chosen t = 2,"]),
        ("0.7,0.3", "1e-999999999999", "opportunistic",
         ["chosen t = 10,", "second-order width: 1660964047444"]),
        ("golden", "1e-999999999999", "guaranteed", None),
        ("golden", "1e-999999999999", "opportunistic", None),
        # exp ~ -3.3e30: a seed of W taken in floats would be 2**48 widths off
        ("0.7,0.3", "1e-" + "1" + "0" * 30, "opportunistic", ["chosen t = 10,"]),
    ])
    def test_far_target_is_decided_in_bounded_time(self, capsys, probs, target,
                                                   mode, want):
        # the second-order test used to shift by about 3.3e12 bits at
        # R = 1e999999999999 and build 2**(1.66e12) at R = 1e-999999999999:
        # both exited 1 with a MemoryError, as did R = 1e-10**30
        start = time.perf_counter()
        code, stdout, err = run(capsys, "plan", "-p", probs, "-R", target,
                                "--mode", mode)
        assert time.perf_counter() - start < 1
        if want is None:
            assert code == 3 and not stdout and err
        else:
            assert code == 0 and all(line in stdout for line in want), stdout

    def test_forced_rows_target_exits_3_before_any_scan(self, capsys, monkeypatch):
        # every t <= 2**24 forces f = 1 on p_min = 1e-8, so D >= 3.18e-8 > R;
        # the plan used to scan all 2**24 rows (5.9 s) before exiting 3
        import quantacode.bounds as B

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(B, "_chunks", no_scan)
        start = time.perf_counter()
        code, stdout, err = run(capsys, "plan", "-p", "0.00000001,0.99999999",
                                "-R", "1e-9", "--mode", "opportunistic")
        assert time.perf_counter() - start < 0.5
        assert code == 3 and not stdout
        assert "2**24" in err

    @pytest.mark.parametrize("mode, probs, want", [
        ("guaranteed", "golden", None),
        ("opportunistic", "golden", None),
        ("opportunistic", "0.123457,0.876543", "chosen t = 1000000"),
    ])
    def test_tiny_target_is_decided_at_few_digits(self, capsys, monkeypatch,
                                                  mode, probs, want):
        # R = 1e-2000000 lies below every D > 0 of a table with t <= 2**24;
        # each divergence the plan evaluates takes the digits of its own
        # size, never the two million digits of R (which took minutes)
        import quantacode.bounds as B
        digits = []
        kl_dps = B._kl_dps
        monkeypatch.setattr(B, "_kl_dps",
                            lambda *a: digits.append(kl_dps(*a)) or digits[-1])
        code, stdout, err = run(capsys, "plan", "-p", probs, "-R", "1e-2000000",
                                "--mode", mode)
        assert max(digits, default=0) < 200
        if want is None:
            assert code == 3 and not stdout and err
        else:
            assert code == 0 and want in stdout

    @pytest.mark.parametrize("probs, csv", [
        ("golden", None),
        ("0.123457,0.876543",
         "opportunistic,1.00000000000e-2000000,1000000,20,40,0.0,6643857,"
         "6643857.18977,3.01029950354e-6"),
    ])
    def test_target_below_pinsker_floor_needs_no_scan(self, tmp_path, capsys,
                                                      monkeypatch, probs, csv):
        # below 2/(d * 2**cap)**2 only an exact table qualifies, and the
        # first is at t = d: golden's d exceeds 2**24, 0.123457's is 10**6.
        # The plan used to scan every row up to one of them (3.7 s for golden)
        import quantacode.bounds as B

        def no_scan(*args, **kwargs):
            raise AssertionError("scanned")

        monkeypatch.setattr(B, "_chunks", no_scan)
        out = tmp_path / "plan.csv"
        start = time.perf_counter()
        code, stdout, err = run(capsys, "plan", "-p", probs, "-R", "1e-2000000",
                                "--mode", "opportunistic", "-o", str(out))
        assert time.perf_counter() - start < 0.5
        if csv is None:
            assert code == 3 and not stdout and "2**24" in err
        else:
            assert code == 0 and out.read_text().splitlines()[2] == csv

class TestCodecCommands:
    def test_file_roundtrip(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        code, _, _ = run(capsys, "approximate", "-p", "0.7,0.2,0.1",
                         "-t", "10", "-o", str(table))
        assert code == 0
        rng = np.random.default_rng(8)
        payload = rng.integers(0, 3, 1 << 20, dtype=np.int64).astype(np.uint8)
        inp = tmp_path / "in.bin"
        inp.write_bytes(payload.tobytes())
        packed = tmp_path / "out.qc"
        code, _, err = run(capsys, "encode", "-i", str(inp),
                           "--table", str(table), "-o", str(packed))
        assert code == 0 and "bytes" in err
        unpacked = tmp_path / "back.bin"
        code, _, _ = run(capsys, "decode", "-i", str(packed),
                         "-o", str(unpacked))
        assert code == 0
        assert unpacked.read_bytes() == payload.tobytes()

    def test_stdout_roundtrip(self, tmp_path, capsysbinary):
        # without -o both commands write their bytes to stdout
        table = tmp_path / "table.txt"
        assert main(["approximate", "-p", "0.7,0.2,0.1", "-t", "10",
                     "-o", str(table)]) == 0
        rng = np.random.default_rng(3)
        payload = rng.integers(0, 3, 5000).astype(np.uint8).tobytes()
        inp = tmp_path / "in.bin"
        inp.write_bytes(payload)
        capsysbinary.readouterr()
        assert main(["encode", "-i", str(inp), "--table", str(table)]) == 0
        packed = tmp_path / "s.qc"
        packed.write_bytes(capsysbinary.readouterr().out)
        assert main(["decode", "-i", str(packed)]) == 0
        assert capsysbinary.readouterr().out == payload

    def test_decoded_symbol_above_a_byte_exit_code(self, tmp_path, capsys):
        p = ProbabilityVector([Fraction(1, 300)] * 300)
        table = round_min_max(p, 300)
        (tmp_path / "t.txt").write_text(table.serialize_text())
        (tmp_path / "s.qc").write_bytes(encode([299, 0], table))
        code, _, err = run(capsys, "decode", "-i", str(tmp_path / "s.qc"),
                           "--raw", "--table", str(tmp_path / "t.txt"),
                           "-n", "2", "-o", str(tmp_path / "o.bin"))
        assert code == 2 and "not a byte" in err

    def test_wide_alphabet_with_byte_symbols_decodes(self, tmp_path, capsys):
        table = round_min_max(ProbabilityVector([Fraction(1, 300)] * 300), 300)
        payload = bytes(range(256)) * 4
        (tmp_path / "s.qc").write_bytes(encode_framed(payload, table))
        code, _, _ = run(capsys, "decode", "-i", str(tmp_path / "s.qc"),
                         "-o", str(tmp_path / "o.bin"))
        assert code == 0 and (tmp_path / "o.bin").read_bytes() == payload

    def test_decode_peak_memory_per_symbol(self, tmp_path, capsys):
        # the decoded bytes are written from the decoder's own buffer
        n = 2 * 10**5
        table = round_min_max(ProbabilityVector([Fraction(1, 200)] * 200), 1 << 24)
        payload = np.random.default_rng(4).integers(0, 200, n).astype(np.uint8)
        for name, data in (("w.qc", payload[:100]), ("s.qc", payload)):
            (tmp_path / name).write_bytes(encode_framed(data, table))
        # a first call pays the one-time costs (the parser, caches)
        assert main(["decode", "-i", str(tmp_path / "w.qc"),
                     "-o", str(tmp_path / "o.bin")]) == 0
        tracemalloc.start()
        try:
            code = main(["decode", "-i", str(tmp_path / "s.qc"),
                         "-o", str(tmp_path / "o.bin")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and (tmp_path / "o.bin").read_bytes() == payload.tobytes()
        assert peak < 4 * n, peak / n

    def test_raw_roundtrip_needs_table_and_n(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        run(capsys, "approximate", "-p", "0.5,0.5", "-t", "2", "-o", str(table))
        inp = tmp_path / "in.bin"
        inp.write_bytes(bytes([0, 1, 1, 0]))
        packed = tmp_path / "out.qc"
        code, _, _ = run(capsys, "encode", "-i", str(inp), "--table",
                         str(table), "-o", str(packed), "--raw")
        assert code == 0
        back = tmp_path / "back.bin"
        code, _, _ = run(capsys, "decode", "-i", str(packed), "-o", str(back),
                         "--raw", "--table", str(table), "-n", "4")
        assert code == 0
        assert back.read_bytes() == bytes([0, 1, 1, 0])
        code, _, _ = run(capsys, "decode", "-i", str(packed), "-o", str(back),
                         "--raw")
        assert code == 2

    def test_table_wider_than_coder_exit_code(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        code, _, _ = run(capsys, "approximate", "-p", "0.5,0.5",
                         "-t", str((1 << 24) + 2), "-o", str(table))
        assert code == 0
        inp = tmp_path / "in.bin"
        inp.write_bytes(bytes([0, 1, 1, 0]))
        code, _, err = run(capsys, "encode", "-i", str(inp), "--table",
                           str(table), "-o", str(tmp_path / "out.qc"))
        assert code == 2
        assert err.startswith("error:") and "2**24" in err

    def test_forged_huge_count_exit_code(self, tmp_path, capsys):
        p = parse_probability_vector(["0.7", "0.2", "0.1"])
        table = round_min_max(p, 10)
        blob = bytearray(encode_framed(sample_symbols(p, 30, seed=2), table))
        n_at = 8 + len(table.serialize_text().encode())
        blob[n_at:n_at + 8] = (2**40).to_bytes(8, "big")
        bad = tmp_path / "forged.qc"
        bad.write_bytes(bytes(blob))
        code, _, err = run(capsys, "decode", "-i", str(bad),
                           "-o", str(tmp_path / "o.bin"))
        assert code == 2
        assert err.startswith("error:")

    def test_corrupt_stream_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        code, _, _ = run(capsys, "decode", "-i", str(bad),
                         "-o", str(tmp_path / "o.bin"))
        assert code == 2


class TestSimulate:
    def test_simulate_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, _, err = run(capsys, "simulate", "-p", "0.7,0.3", "-t", "2",
                           "-n", "100000", "--seed", "11", "-o", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# quantacode") and "seed=11" in lines[0]
        assert lines[1] == "n,total_bits,rate,entropy_bits,divergence_bits,excess"
        row = lines[2].split(",")
        assert int(row[0]) == 100000
        assert abs(float(row[5]) - 0.1187) < 0.02

    def test_table_file(self, tmp_path, capsys):
        table = tmp_path / "t.txt"
        assert run(capsys, "approximate", "-p", "0.7,0.3", "-t", "10",
                   "-o", str(table))[0] == 0
        outs = []
        for argv in (["--table", str(table)], ["-t", "10"]):
            out = tmp_path / "sim.csv"
            code, _, _ = run(capsys, "simulate", "-p", "0.7,0.3", *argv,
                             "-n", "1000", "-o", str(out))
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_table_of_another_alphabet_exits_2(self, tmp_path, capsys):
        table = tmp_path / "t3.txt"
        assert run(capsys, "approximate", "-p", "0.7,0.2,0.1", "-t", "10",
                   "-o", str(table))[0] == 0
        code, _, err = run(capsys, "simulate", "-p", "0.7,0.3", "--table", str(table))
        assert code == 2 and "table has 3 symbols, source has 2" in err

    def test_unallocatable_n_exits_2(self, capsys):
        # 2**62 int64 symbols are past numpy's size limit, so the array is
        # refused without any allocation; a smaller n that does not fit in
        # memory takes the same path, through MemoryError
        code, stdout, err = run(capsys, "simulate", "-p", "0.7,0.3", "-t", "10",
                                "-n", str(2**62))
        assert code == 2 and not stdout and f"n = {2**62}" in err

    @pytest.mark.parametrize("argv", [
        ["plan", "-p", "0.7,0.3", "-R", "1e-6", "--precision", "60"],
        ["plan", "-p", "0.7,0.3", "-R", "1e-6", "--seed", "3"],
        ["scan", "-p", "0.7,0.3", "--t-max", "20", "--seed", "3"],
    ])
    def test_removed_flags_are_rejected(self, capsys, argv):
        # only simulate draws random numbers, so only it takes --seed; no
        # option sets a digit count
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "scan", "-p", "silver", "--t-max", "200",
                             "-o", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "simulate", "-p", "0.7,0.3", "-t", "4",
                             "-n", "20000", "--seed", "3", "-o", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestSequentialCalls:
    def test_calls_leak_nothing_between_them(self, tmp_path, capsys):
        out = str(tmp_path / "scan.csv")
        sequence = [
            ["plan", "-p", "golden", "-R", "1e-5", "--mode", "opportunistic"],
            ["scan", "-p", "golden", "--t-max", "30", "--kappa", "golden", "-o", out],
            ["plan", "-p", "golden", "-R", "1e-5"],
            ["scan", "-p", "golden", "--t-max", "30", "-o", out],
        ]
        got = [run(capsys, *argv) for argv in sequence]
        assert [code for code, _, _ in got] == [0] * 4
        assert "mode: opportunistic" in got[0][1] and "chosen t = 21," in got[0][1]
        assert "hits (golden)" in got[1][2]
        assert "mode: guaranteed" in got[2][1] and "chosen t = 987," in got[2][1]
        assert "hits (generic)" in got[3][2]


class TestLowPrecisionReports:
    """Reports evaluate the divergence at enough digits for the 12 they
    print (at 6 digits the divergence sum of golden at t = 1000 read
    2.18e-8, not 2.45e-9), and the bounds, raw width and eta at 50."""

    @staticmethod
    def lines(capsys, tmp_path, argv, pick):
        path = tmp_path / "out"
        code, stdout, stderr = run(capsys, *argv, "-o", str(path))
        assert code == 0
        return pick(stdout, stderr, path)

    def test_approximate(self, capsys, tmp_path):
        got = self.lines(
            capsys, tmp_path, ["approximate", "-p", "golden", "-t", "1000"],
            lambda so, se, path: [s for s in so.splitlines() if "divergence" in s])
        assert got == ["divergence: 2.44677181225e-9 nats/sym = "
                       "3.52994555972e-9 bits/sym"]

    def test_simulate(self, capsys, tmp_path):
        row = self.lines(
            capsys, tmp_path, ["simulate", "-p", "golden", "-t", "1000",
                               "-n", "2000", "--seed", "3"],
            lambda so, se, path: path.read_text().splitlines()[2])
        assert float(row.split(",")[4]) == pytest.approx(3.52994555972e-9,
                                                         rel=1e-11)

    @pytest.mark.parametrize("mode", ["guaranteed", "opportunistic"])
    def test_plan(self, capsys, tmp_path, mode):
        # the divergences agree with a 200-digit evaluation
        t, w, div = {"guaranteed": (987, 10, "4.46369245767e-13"),
                     "opportunistic": (21, 5, "2.17764276980e-6")}[mode]
        got = self.lines(
            capsys, tmp_path, ["plan", "-p", "golden", "-R", "1e-5", "--mode", mode],
            lambda so, se, path: ([s for s in so.splitlines()
                                   if s.startswith(("chosen", "verified"))],
                                  path.read_text().splitlines()[2].split(",")[5]))
        assert got == ([f"chosen t = {t}, W = {w} bits, memory = {2 * w} bits",
                        f"verified divergence: {div} nats/sym"], div)

    @pytest.mark.parametrize("probs, want", [
        ("golden", ["error bound (nats):        6.79835492176e-5",
                    "rounding bound (nats):     0.00100131073277",
                    "record bound (nats):       7.07107435696e-7  [kappa = generic]"]),
        ("triple", ["error bound (nats):        0.000641198170659",
                    "rounding bound (nats):     0.00150280427095",
                    "record bound (nats):       0.000300112003324"]),
    ])
    def test_approximate_bounds(self, capsys, tmp_path, probs, want):
        # at 6 digits the golden error bound read 6.79835357005e-5 and the
        # triple record bound 0.000300112180412
        got = self.lines(
            capsys, tmp_path, ["approximate", "-p", probs, "-t", "1000"],
            lambda so, se, path: [s for s in so.splitlines() if "bound" in s])
        assert got == want

    @pytest.mark.parametrize("mode, eta", [("guaranteed", "0.567870764569"),
                                           ("opportunistic", "0.283935382284")])
    def test_plan_raw_bound_and_eta(self, capsys, tmp_path, mode, eta):
        # at 6 digits the raw bound read 17.6096572876 and the opportunistic
        # eta 0.283935427666
        got = self.lines(
            capsys, tmp_path, ["plan", "-p", "golden", "-R", "1e-5", "--mode", mode],
            lambda so, se, path: ([s for s in so.splitlines()
                                   if s.startswith(("guaranteed-", "eta"))],
                                  path.read_text().splitlines()[2].split(",")[6:]))
        assert got == (
            ["guaranteed-sufficient width: 17 (raw bound 17.6096593594)",
             f"eta = W / log2(m/R) = {eta}"],
            ["17", "17.6096593594", eta])


class TestErrorBranches:
    """Each failure the CLI maps to an exit code, reached through cli.main."""

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "decode", "-i", str(tmp_path / "none.qc"),
                           "-o", str(tmp_path / "o.bin"))
        assert code == 2 and err.startswith("error:")

    def test_table_file_not_utf8_exits_2(self, tmp_path, capsys):
        (tmp_path / "t.txt").write_bytes(b"\xff\xfe 2 4 2\n")
        (tmp_path / "s.bin").write_bytes(bytes([0, 1]))
        code, _, err = run(capsys, "encode", "-i", str(tmp_path / "s.bin"),
                           "--table", str(tmp_path / "t.txt"),
                           "-o", str(tmp_path / "s.qc"))
        assert code == 2 and err.startswith("error:")

    def test_approximate_needs_t_or_width(self, capsys):
        code, stdout, err = run(capsys, "approximate", "-p", "0.7,0.3")
        assert code == 2 and not stdout and "need -t or -W" in err

    def test_simulate_needs_table_or_t(self, capsys):
        code, stdout, err = run(capsys, "simulate", "-p", "0.7,0.3")
        assert code == 2 and not stdout and "need --table or -t" in err

    def test_framed_stream_with_bad_table_exits_2(self, tmp_path, capsys):
        ttext = b"not a table"
        blob = (b"QC01" + struct.pack(">I", len(ttext)) + ttext
                + struct.pack(">Q", 0))
        (tmp_path / "s.qc").write_bytes(blob)
        code, _, err = run(capsys, "decode", "-i", str(tmp_path / "s.qc"),
                           "-o", str(tmp_path / "o.bin"))
        assert code == 2 and "bad embedded table" in err

    def test_unparsable_probability_exits_2(self, capsys):
        code, _, err = run(capsys, "approximate", "-p", "0.5,abc", "-t", "4")
        assert code == 2 and "cannot parse p[1]" in err

    def test_internal_error_exits_1_with_traceback(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_plan", boom)
        code, stdout, err = run(capsys, "plan", "-p", "golden", "-R", "1e-5")
        assert code == 1 and not stdout
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_report_prints_na_where_a_premise_fails(self, tmp_path, capsys):
        # 2 * t * p_min = 0.2 <= 1: theorem 1's premise fails, and so does
        # lemma 1's, since delta_star = 0.09 exceeds p_min = 0.01
        code, stdout, _ = run(capsys, "approximate", "-p", "0.01,0.99",
                              "-t", "10", "-o", str(tmp_path / "t.txt"))
        assert code == 0
        assert "rounding bound (nats):     n/a" in stdout
        assert "error bound (nats):        n/a" in stdout
