"""quantacode benchmark: search on both arithmetic paths, and the range coder.

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ../src relative to this file.
Workloads (see workloads.py): fastpath, surrogate, coder.  One client in one
process sends one request at a time (a closed loop, --jobs 1): library
`record_scan` calls and in-process `quantacode.cli.main(argv)` calls.  The
request list is drawn from --seed before the clock starts and replayed in
whole cycles for about --seconds.  Every output is checked (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 wraps the package's
public functions (spans.py) on every second cycle and prints the per-layer
metrics, the tracing overhead and the self-time coverage.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Results,
provenance and (when traced) the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, PREFIX, Tracer  # noqa: E402

# Seeds 1-10 tune and prove the benchmark; a gain claim must also hold on this
# seed, which is not used while a change is written.
HELD_OUT_SEED = 9001

SETUP_REPEATS = 7

E2E = (  # metric, unit, request kind
    ("records_t_per_s", "t/s", "record_scan"),
    ("approximate_t_per_s", "t/s", "approximate"),
    ("scan_rows_per_s", "rows/s", "scan"),
    ("plan_guaranteed_per_s", "1/s", "plan_guaranteed"),
    ("plan_opportunistic_per_s", "1/s", "plan_opportunistic"),
    ("encode_sym_per_s", "sym/s", "encode"),
    ("decode_sym_per_s", "sym/s", "decode"),
    ("simulate_sym_per_s", "sym/s", "simulate"),
    ("reject_per_s", "1/s", "reject"),
)

COUNTED = (  # exact per-cycle counts of the traced run
    "kernels.minmax_scan.rows", "kernels.minmax_scan.int64_rows",
    "kernels.minmax_scan.exact_rows", "kernels.minmax_scan.repair_rows",
    "kernels.minmax_freqs_exact.calls", "approx.record_scan.records",
    "precision.working_dps.calls", "precision.format_decimal.calls",
    "bounds.kl_divergence.calls",
    "kernels.rc_encode.symbols", "kernels.rc_encode.bytes_out",
    "kernels.rc_decode.symbols", "kernels.rc_decode.bytes_in",
    "kernels.rc_decode.overread_bytes",
    "coder.decode.rejects", "coder.decode_framed.rejects",
)
SELF_TIMED = (  # per-cycle self seconds of the traced run
    "kernels.minmax_scan", "kernels.minmax_freqs_exact",
    "approx.record_scan", "approx.scan_rows", "approx.best_table_under_width",
    "precision.format_decimal", "bounds.plan_precision", "bounds.kl_divergence",
    "bounds.build_bound_report", "kernels.rc_encode", "kernels.rc_decode",
    "cli.main", "prob_model.parse_probability_vector",
    "prob_model.FrequencyTable.parse_text",
)


@dataclass
class Outcome:
    seconds: float
    exit: int | None = None
    stderr: str = ""
    result: object = None
    error: str | None = None
    work: int | None = None


def execute(req, pkg, vectors) -> Outcome:
    """One request, timed; module attributes are looked up per call so the
    trace wrappers, when installed, are the functions called."""
    if req.argv is None:
        pv = vectors[req.source.name]
        start = time.perf_counter()
        try:
            res = pkg.approx.record_scan(pv, req.params["t_max"])
        except Exception as exc:  # a failed operation, counted by the caller
            return Outcome(time.perf_counter() - start, error=repr(exc))
        return Outcome(time.perf_counter() - start, result=res)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pkg.cli.main(req.argv)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - start
    return Outcome(seconds, exit=code, stderr=err.getvalue(), work=req.work)


# ---- provenance -------------------------------------------------------------

def tree_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(directory).rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(pkg, wl, args):
    import mpmath
    import numpy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
        "backend": pkg._kernels.backend(), "commit": git_commit(),
        "src_sha256": tree_digest(SRC / "quantacode"),
        "bench_sha256": tree_digest(HERE),
        "workload": wl.name, "seed": wl.seed, "held_out_seed": HELD_OUT_SEED,
        "scale": wl.scale, "seconds": args.seconds, "trace": args.trace,
        "sizes": wl.sizes, "requests_per_cycle": len(wl.requests),
    }


# ---- set-up -----------------------------------------------------------------

class Package:
    """The quantacode modules, imported from this checkout's src/."""

    def __init__(self):
        if not (SRC / "quantacode" / "__init__.py").is_file():
            raise FileNotFoundError(f"no quantacode package under {SRC}")
        sys.path.insert(0, str(SRC))
        import quantacode
        from quantacode import _kernels, approx, cli, coder, prob_model
        if Path(quantacode.__file__).resolve().parent != SRC / "quantacode":
            raise ImportError(f"imported quantacode from {quantacode.__file__}")
        self._kernels, self.approx, self.cli = _kernels, approx, cli
        self.coder, self.prob_model = coder, prob_model

    def vector(self, src):
        if src.preset:
            return self.prob_model.PRESETS[src.preset]()
        return self.prob_model.parse_probability_vector(src.spec)


def quiet_cli(pkg, argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = pkg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"input generation failed: {argv[:2]}: {err.getvalue()}")


def measure_setup(wl, work) -> list:
    """Set-up seconds from SETUP_REPEATS fresh interpreters (setup_probe.py)."""
    manifest = work / "setup.json"
    manifest.write_text(json.dumps({
        "sources": [s.preset or s.spec for s in wl.sources],
        "tables": [str(p) for p in wl.table_paths]}))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(manifest)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


# ---- the measured loop ------------------------------------------------------

class Run:
    def __init__(self, pkg, wl, args):
        self.pkg, self.wl, self.args = pkg, wl, args
        self.checker = checks.Checker(pkg._kernels.minmax_freqs_exact)
        self.vectors = {s.name: pkg.vector(s) for s in wl.sources}
        # request index -> [s, ...], scaled to the reference machine speed
        self.seconds = {"plain": {}, "traced": {}}
        self.raw_seconds = {"plain": {}, "traced": {}}
        self.work = {}                                  # request index -> work units
        self.attempted = self.failed = 0
        self.failures = []
        self.first_counts = None      # per-request counts of cycle 0
        self.determinism = []         # differences between identical cycles
        self.tracers = []
        self.traced_wall = []
        self.traced_scale = []        # reference speed / speed, per traced cycle
        self.cycles = 0
        self.wall = 0.0

    def fail(self, label, msgs):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {'; '.join(msgs)}")

    def run_cycle(self, traced: bool):
        tracer = None
        if traced:
            tracer = Tracer(keep_spans=not self.tracers)
            tracer.install()
        counts_now, timed = [], []          # timed: (request index, seconds)
        blocks = [calibrate.block_seconds()]
        try:
            for i, req in enumerate(self.wl.requests):
                if tracer:
                    tracer.req, tracer.kind = self.cycles * len(self.wl.requests) + i, req.kind
                out = execute(req, self.pkg, self.vectors)
                blocks.append(calibrate.block_seconds())
                counts, fails = self.checker.check(req, out)
                self.attempted += 1
                label = f"cycle {self.cycles} {req.kind} {req.label}"
                if self.first_counts is not None and counts != self.first_counts[i]:
                    fails.append(f"counts {counts} differ from cycle 0: "
                                 f"{self.first_counts[i]}")
                    self.determinism.append(label)
                if fails:
                    self.fail(label, fails)
                elif out.work:
                    self.work[i] = out.work
                    timed.append((i, out.seconds))
                counts_now.append(counts)
        finally:
            if tracer:
                tracer.remove()
        mode = "traced" if traced else "plain"
        for i, seconds in timed:
            # blocks[i] and blocks[i + 1] bracket request i; a window of eight
            # blocks averages out the jitter of single blocks
            window = blocks[max(0, i - 3):i + 5]
            self.seconds[mode].setdefault(i, []).append(
                seconds * calibrate.REFERENCE_S / median(window))
            self.raw_seconds[mode].setdefault(i, []).append(seconds)
        if self.first_counts is None:
            self.first_counts = counts_now
        if tracer:
            if self.tracers and self.trace_counts(tracer) != self.trace_counts(self.tracers[0]):
                self.determinism.append(f"cycle {self.cycles} trace counts")
            self.tracers.append(tracer)
            self.traced_wall.append(sum(s for _, s in timed))
            self.traced_scale.append(calibrate.REFERENCE_S / median(blocks))
        self.cycles += 1

    def rate(self, mode, kind, raw=False):
        """Work per second of one cycle's requests of `kind`, each request
        timed by its median over the cycles it ran in."""
        times = (self.raw_seconds if raw else self.seconds)[mode]
        slots = [i for i in times if self.wl.requests[i].kind == kind]
        seconds = sum(median(times[i]) for i in slots)
        return sum(self.work[i] for i in slots) / seconds if seconds else 0.0

    @staticmethod
    def trace_counts(tr):
        return {k: tr.calls[k[:-6]] if k.endswith(".calls") else tr.counts[k]
                for k in COUNTED}

    def loop(self):
        """Whole cycles until --seconds are used up: stop once another cycle
        would end further past the deadline than stopping now falls short."""
        min_cycles = 4 if self.args.trace else 2
        start = time.perf_counter()
        while True:
            self.run_cycle(traced=bool(self.args.trace) and self.cycles % 2 == 1)
            self.wall = time.perf_counter() - start
            if (self.cycles >= min_cycles
                    and self.wall + self.wall / self.cycles / 2 >= self.args.seconds):
                break


# ---- metrics ----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def e2e_metrics(run, setup):
    metrics = {name: {"value": run.rate("plain", kind), "unit": unit}
               for name, unit, kind in E2E}
    metrics["setup_s"] = {"value": median(setup), "unit": "s"}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
    return metrics


def layer_metrics(run):
    trs = run.tracers
    pairs = list(zip(trs, run.traced_scale))    # seconds scale like the rates
    metrics = {}
    for key, value in Run.trace_counts(trs[0]).items():
        metrics[key] = {"value": value, "unit": "count"}
    for fn in SELF_TIMED:
        metrics[fn + ".self_s"] = {
            "value": median([t.self_s.get(fn, 0.0) * k for t, k in pairs]), "unit": "s"}
    for layer in LAYERS:
        p = PREFIX[layer] + "."
        metrics[p + "self_s"] = {"value": median(
            [k * sum(v for n, v in t.self_s.items() if n.startswith(p)) for t, k in pairs]),
            "unit": "s"}
    metrics["trace.self_share"] = {"value": median(
        [t.top_s / w for t, w in zip(trs, run.traced_wall)]), "unit": "share"}
    metrics["trace.cycle_s"] = {"value": median(
        [w * k for w, k in zip(run.traced_wall, run.traced_scale)]), "unit": "s"}
    for name, _, kind in E2E:
        plain, traced = run.rate("plain", kind), run.rate("traced", kind)
        metrics[f"trace.overhead.{name}"] = {
            "value": plain / traced - 1 if traced else 0.0, "unit": "share"}
    fold = median([k * t.kind_self_s.get(("record_scan", "approx.record_scan"), 0.0)
                   for t, k in pairs])
    kern = median([k * sum(v for (kind, n), v in t.kind_self_s.items()
                           if kind == "record_scan" and n.startswith("kernels."))
                   for t, k in pairs])
    metrics["split.record_scan.approx_s"] = {"value": fold, "unit": "s"}
    metrics["split.record_scan.kernels_s"] = {"value": kern, "unit": "s"}
    metrics["split.record_scan.kernels_share"] = {
        "value": kern / (fold + kern) if fold + kern else 0.0, "unit": "share"}
    return metrics


def low_tail(rates):
    """(percentile, value) of the lowest rate with ten samples below it."""
    if len(rates) < 20:
        return None
    s = sorted(rates)
    return 100 * 10 / len(s), s[10]


# ---- determinism across runs ------------------------------------------------

def compare_previous(run, prov, path):
    """Compare this run's exact counts with a stored run of the same code and
    seed; store them when there is none."""
    record = {"code": [prov["src_sha256"], prov["bench_sha256"]],
              "requests": run.first_counts,
              "trace": Run.trace_counts(run.tracers[0]) if run.tracers else None}
    if path.is_file():
        old = json.loads(path.read_text())
        if old.get("code") == record["code"]:
            same = json.loads(json.dumps(record)) == old
            if not same:
                run.determinism.append(f"counts differ from the previous run ({path.name})")
            return "match" if same else "DIFFERENT"
    path.write_text(json.dumps(record))
    return "none stored; this run's counts saved"


# ---- entry point ------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny sizes for the self-test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = Package()
    tag = f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    OUT.mkdir(exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.scale, work)
        for argv_ in wl.generation:
            quiet_cli(pkg, argv_)
        workloads.finish_inputs(wl, pkg.coder.encode_framed,
                                pkg.prob_model.FrequencyTable.parse_text)
        setup = measure_setup(wl, work)
        run = Run(pkg, wl, args)
        run.loop()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = provenance(pkg, wl, args)
    previous = compare_previous(run, prov, OUT / f"counts-{tag}.json")
    metrics = layer_metrics(run) if args.trace else e2e_metrics(run, setup)
    correct = run.failed == 0 and not run.determinism

    print(f"quantacode benchmark: workload {wl.name}, seed {wl.seed}, scale {wl.scale}, "
          f"trace {args.trace}")
    print("provenance: " + json.dumps({k: v for k, v in prov.items() if k != "sizes"}))
    print("sizes: " + json.dumps(wl.sizes))
    print(f"cycles: {run.cycles} ({len(wl.requests)} requests each), "
          f"wall {run.wall:.2f} s, set-up samples "
          + ", ".join(f"{s:.3f}" for s in setup) + " s")
    print(f"  {'metric (at reference speed)':26s} {'value':>14s} {'unit':7s} "
          f"{'samples':>7s}  {'raw value':>10s}  low tail")
    raw_rates = {}
    for name, unit, kind in E2E:
        rates = [run.work[i] / s for i, ss in run.seconds["plain"].items()
                 if run.wl.requests[i].kind == kind for s in ss]
        tail = low_tail(rates)
        raw_rates[name] = run.rate("plain", kind, raw=True)
        print(f"  {name:26s} {run.rate('plain', kind):14.6g} {unit:7s} {len(rates):7d}"
              f"  {raw_rates[name]:10.4g}"
              + (f"  p{tail[0]:.0f}={tail[1]:.6g}" if tail else ""))
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    share = run.failed / run.attempted
    print(f"failed_share: {run.failed}/{run.attempted} = {share:.6g}")
    print(f"determinism: {len(run.determinism)} differences across {run.cycles} "
          f"cycles; previous run with this seed and code: {previous}")
    for line in run.failures + run.determinism:
        print(f"  FAIL {line}", file=sys.stderr)

    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "provenance": prov, "failed_share": share,
         "failures": run.failures, "determinism": run.determinism,
         "setup_samples": setup, "raw_rates": raw_rates, "cycles": run.cycles, "wall_s": run.wall}, indent=1))
    if run.tracers:
        first = len(wl.requests)   # cycle 1 is the first traced cycle
        requests = {first + i: (r.kind, r.label) for i, r in enumerate(wl.requests)}
        run.tracers[0].write(OUT / f"spans-{wl.name}.csv.gz", requests)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
