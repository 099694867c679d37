import numpy as np

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
        assert lines[0].startswith("# quantacode")
        assert "precision=50" in lines[0]
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


class TestPlan:
    def test_opportunistic_plan(self, capsys):
        code, stdout, _ = run(capsys, "plan", "-p", "golden", "-R", "1e-5",
                              "--mode", "opportunistic")
        assert code == 0
        assert "chosen t = 21" in stdout

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

    def test_precision_flag_flows_through(self, capsys):
        code, stdout, _ = run(capsys, "plan", "-p", "0.7,0.3", "-R", "1e-6",
                              "--precision", "60")
        assert code == 0
        assert "working precision: 60 digits" in stdout

    def test_precision_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("QUANTACODE_PRECISION", "55")
        code, stdout, _ = run(capsys, "plan", "-p", "0.7,0.3", "-R", "1e-6")
        assert code == 0
        assert "working precision: 55 digits" in stdout


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "scan", "-p", "silver", "--t-max", "200",
                             "--seed", "9", "-o", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "simulate", "-p", "0.7,0.3", "-t", "4",
                             "-n", "20000", "--seed", "3", "-o", str(out))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
