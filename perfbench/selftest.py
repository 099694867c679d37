"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

SmokeRuns runs every workload, untraced and traced, at tiny sizes through
the same command the full benchmark uses, so every output check and the
determinism check run.  CheckerCatches feeds each check a damaged output and
requires a failure, so a check that stopped checking shows up here.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr[-3000:])
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


class SmokeRuns(unittest.TestCase):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_every_workload_prints_every_metric_and_passes_its_checks(self):
        for wl in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl["name"], trace=trace):
                    res, out = bench(wl["name"], 11, trace)
                    self.assertEqual(res["failed"], 0, out)
                    self.assertTrue(res["correct"], out)
                    self.assertGreater(res["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_same_seed_gives_the_same_counts(self):
        stored = run.OUT / "counts-surrogate-seed12-smoke-trace0.json"
        try:
            for trace in (0, 1):
                first = bench("surrogate", 12, trace)[1]
                second = bench("surrogate", 12, trace)[1]
                self.assertIn("0 differences", first)
                self.assertIn("previous run with this seed and code: match", second)
            record = json.loads(stored.read_text())
            record["requests"][0]["records"] += 1
            stored.write_text(json.dumps(record))
            res, out = bench("surrogate", 12, 0)
            self.assertIn("previous run with this seed and code: DIFFERENT", out)
            self.assertFalse(res["correct"])
        finally:
            stored.unlink(missing_ok=True)


class CheckerCatches(unittest.TestCase):
    """One smoke cycle of each workload, then damaged copies of its outputs."""

    @classmethod
    def setUpClass(cls):
        cls.pkg = run.Package()
        cls.work = run.OUT / "selftest-work"
        cls.cases = {}
        for name in ("surrogate", "coder"):
            wl = workloads.build(name, 5, "smoke", cls.work / name)
            for argv in wl.generation:
                run.quiet_cli(cls.pkg, argv)
            workloads.finish_inputs(wl, cls.pkg.coder.encode_framed,
                                    cls.pkg.prob_model.FrequencyTable.parse_text)
            checker = run.checks.Checker(cls.pkg._kernels.minmax_freqs_exact)
            vectors = {s.name: cls.pkg.vector(s) for s in wl.sources}
            for req in wl.requests:
                out = run.execute(req, cls.pkg, vectors)
                _, fails = checker.check(req, out)
                assert not fails, (req.kind, req.label, fails)
                cls.cases.setdefault(req.kind, []).append((checker, req, out))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def fails(self, kind, pick=lambda req: True, mutate_out=None, mutate_file=None):
        checker, req, out = next(c for c in self.cases[kind] if pick(c[1]))
        path = mutate_file and Path(mutate_file[0](req))
        saved, scans = (path.read_bytes() if path else None), dict(checker.scans)
        try:
            if path:
                path.write_bytes(mutate_file[1](saved))
            _, fails = checker.check(req, mutate_out(out) if mutate_out else out)
        finally:
            if path:
                path.write_bytes(saved)
            checker.scans = scans   # a damaged record scan must not leak
        self.assertTrue(fails, f"{kind} check accepted a damaged output")
        return " ".join(fails)

    def test_record_scan_missing_record(self):
        def drop(out):
            recs = out.result.records
            return dataclasses.replace(out, result=dataclasses.replace(
                out.result, records=recs[:2] + recs[3:]))
        self.assertIn("reference", self.fails("record_scan", mutate_out=drop))

    def test_golden_records_must_be_fibonacci(self):
        def extra(out):
            recs = list(out.result.records)
            recs[2] = dataclasses.replace(recs[2], t=recs[2].t + 1)
            return dataclasses.replace(out, result=dataclasses.replace(
                out.result, records=recs))
        msg = self.fails("record_scan", lambda r: r.source.preset == "golden", extra)
        self.assertIn("Fibonacci", msg)

    def test_approximate_wrong_delta_star(self):
        def bump(data):
            lines = data.decode().splitlines(keepends=True)
            i = next(i for i, ln in enumerate(lines) if ln.startswith("# delta_star"))
            num, den = lines[i].split()[2].split("/")
            lines[i] = f"# delta_star {int(num) + 1}/{den} x\n"
            return "".join(lines).encode()
        self.fails("approximate", mutate_file=(lambda r: r.params["out"], bump))

    def test_scan_wrong_record_flag(self):
        def flip(data):
            lines = data.decode().split("\n")
            cells = lines[5].split(",")
            cells[3] = "0" if cells[3] == "1" else "1"
            lines[5] = ",".join(cells)
            return "\n".join(lines).encode()
        self.fails("scan", mutate_file=(lambda r: r.params["out"], flip))

    def test_plan_that_misses_its_target(self):
        def small_t(data):
            lines = data.decode().split("\n")
            cells = lines[2].split(",")
            cells[2], cells[3] = "3", "2"
            lines[2] = ",".join(cells)
            return "\n".join(lines).encode()
        msg = self.fails("plan_guaranteed", lambda r: r.source.m == 2,
                         mutate_file=(lambda r: r.params["out"], small_t))
        self.assertIn("divergence", msg)

    def test_encode_bloated_payload(self):
        self.fails("encode", mutate_file=(lambda r: r.params["out"],
                                          lambda b: b + bytes(64)))

    def test_decode_wrong_symbol(self):
        self.fails("decode", mutate_file=(lambda r: r.params["out"],
                                          lambda b: bytes([b[0] ^ 1]) + b[1:]))

    def test_simulate_wrong_bit_count(self):
        def more_bits(data):
            lines = data.decode().split("\n")
            cells = lines[2].split(",")
            cells[1] = str(int(cells[1]) + 1000)
            lines[2] = ",".join(cells)
            return "\n".join(lines).encode()
        self.fails("simulate", mutate_file=(lambda r: r.params["out"], more_bits))

    def test_damaged_stream_accepted(self):
        self.fails("reject", mutate_out=lambda out: dataclasses.replace(out, exit=0))


if __name__ == "__main__":
    unittest.main()
