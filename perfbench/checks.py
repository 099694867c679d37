"""Output checks that do not trust the code under test.

Every check recomputes what it compares from the source's exact
probabilities with the benchmark's own arithmetic: Fractions for errors and
widths, the `decimal` module for logarithms, numpy only to count symbols.
The one borrowed piece is `_kernels.minmax_freqs_exact`, the program's exact
big-integer reference, which rebuilds the record set row by row for a prefix
of every scan; rows where no symbol has to be forced are also recomputed
with the benchmark's own largest-remainder rounding.

Each check returns (counts, failures).  `counts` are the deterministic
numbers of a request (records found, bytes in and out, sizes); `failures`
is a list of messages, empty when the output is correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import sample_stream

SCAN_HEADER = "t,delta_star_decimal,quality_decimal,is_record,beats_fact_constant"
PLAN_HEADER = ("mode,target_r_nats,t,width_bits,memory_bits,"
               "verified_divergence_nats,corollary1_width,raw_width_bound,eta")
SIM_HEADER = "n,total_bits,rate,entropy_bits,divergence_bits,excess"
FRAME_MAGIC = b"QC01"
CODER_TOP = 1 << 24      # the coder renormalizes to keep its range >= 2**24
FLUSH_SLACK_BITS = 64    # flush bytes and the final carry cache
DECIMAL_DIGITS = 60


# ---- exact arithmetic helpers ----------------------------------------------

def common_form(probs):
    """(numerators, d) with p_i = numerators[i] / d."""
    d = math.lcm(*(p.denominator for p in probs))
    return [p.numerator * (d // p.denominator) for p in probs], d


def delta_star(probs, freqs, t) -> Fraction:
    return max(abs(p - Fraction(f, t)) for p, f in zip(probs, freqs))


def largest_remainder_a(nums, d, t):
    """A = max_i |t*P_i - f_i*d| of plain largest-remainder rounding, or None
    when some t*p_i < 1 (the program then forces f_i = 1)."""
    x = [t * v for v in nums]
    n = [v // d for v in x]
    if min(n) == 0:
        return None
    rem = sorted((v - k * d for v, k in zip(x, n)), reverse=True)
    up = t - sum(n)
    return max(max(d - r for r in rem[:up]) if up else 0,
               max(rem[up:]) if up < len(rem) else 0)


def width_of(t: int) -> int:
    return (t - 1).bit_length()


def corollary1_width(m: int, target: str, p_min: Fraction) -> int:
    """Largest W with 2**W < m/R + 1/p_min, at least 1."""
    bound = m / Fraction(target) + 1 / p_min
    w = bound.numerator // bound.denominator
    w = w.bit_length() - 1 if w else 0      # 2**w <= floor(bound)
    if Fraction(2**w) == bound:
        w -= 1
    return max(w, 1)


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def divergence_nats(probs, freqs, t) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return sum((_dec(p) * _dec(p * t / f).ln() for p, f in zip(probs, freqs)),
                   Decimal(0))


def entropy_nats(probs) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return -sum((_dec(p) * _dec(p).ln() for p in probs), Decimal(0))


def to_bits(nats: Decimal) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return nats / Decimal(2).ln()


def close(a, b, rel=1e-9, abs_=1e-12) -> bool:
    return abs(float(a) - float(b)) <= max(rel * abs(float(b)), abs_)


def is_fibonacci(n: int) -> bool:
    return any(math.isqrt(v) ** 2 == v for v in (5 * n * n + 4, 5 * n * n - 4))


# ---- file formats -----------------------------------------------------------

@dataclass
class Table:
    freqs: list      # by symbol
    order: list      # canonical order, as listed in the file
    t: int
    width: int
    delta_star: Fraction | None


def parse_table(text: str) -> Table:
    """The table text format: comments, `m t W`, then `symbol f s` lines."""
    ds, rows = None, []
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("# delta_star "):
            ds = Fraction(ln.split()[2])
        elif ln and not ln.startswith("#"):
            rows.append([int(v) for v in ln.split()])
    m, t, width = rows[0]
    freqs, order, acc = [0] * m, [], 0
    for sym, f, s in rows[1:]:
        acc += f
        if s != acc:
            raise ValueError(f"cumulative sum {s} != {acc}")
        freqs[sym] = f
        order.append(sym)
    if len(order) != m or acc != t or sorted(order) != list(range(m)):
        raise ValueError("table lines do not cover the symbols or sum to t")
    return Table(freqs, order, t, width, ds)


def csv_rows(text: str):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# quantacode"):
        raise ValueError("missing provenance comment")
    return lines[1], [ln.split(",") for ln in lines[2:] if ln]


def code_length_window(counts, table: Table):
    """Bounds on the payload bits for symbol counts `counts` under `table`.

    Ideal length is sum_x log2(t/f_x).  With a 32-bit range kept >= 2**24,
    r = range // t >= 2**24 // t, so each symbol but the last in canonical
    order costs at most log2(1 + 1/r) bits more than ideal; the last symbol
    takes the rounding slack and costs at most log2(1 + (t-f)t/(f 2**24))
    bits less.  Flush and carry add at most FLUSH_SLACK_BITS either way.
    """
    t, last = table.t, table.order[-1]
    f_last = table.freqs[last]
    ideal = sum(int(c) * math.log2(t / table.freqs[s])
                for s, c in enumerate(counts) if c)
    others = int(sum(counts)) - int(counts[last])
    over = others * math.log2(1 + 1 / (CODER_TOP // t))
    under = int(counts[last]) * math.log2(1 + (t - f_last) * t / (f_last * CODER_TOP))
    return ideal - under - FLUSH_SLACK_BITS, ideal + over + FLUSH_SLACK_BITS


def symbol_counts(data: bytes, m: int):
    return np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=m)


def regenerate_sample(probs, n: int, seed: int):
    """Symbol counts of the documented `simulate` sample: PCG64 uniforms
    through the float CDF, as the workload streams are drawn."""
    data = sample_stream(np.random.default_rng(seed), probs, n)
    return symbol_counts(data, len(probs))


# ---- the checker ------------------------------------------------------------

class Checker:
    """Checks one request's outcome; remembers each source's record scan so
    that approximate and scan outputs can be compared with it."""

    def __init__(self, reference_minmax):
        self.reference = reference_minmax   # (nums, d, t) -> (freqs, A)
        self.scans = {}     # source name -> (record ts, {t: delta_star}, fact hits)
        self._samples = {}

    def check(self, req, outcome):
        fails = []
        if outcome.error is not None:
            return {}, [f"raised {outcome.error}"]
        if req.argv is not None and outcome.exit != req.expect_exit:
            return {"exit": outcome.exit}, [
                f"exit {outcome.exit}, expected {req.expect_exit}: "
                f"{outcome.stderr.strip()[-200:]}"]
        try:
            counts = getattr(self, "_" + req.kind)(req, outcome, fails)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return {}, [f"unreadable output: {type(exc).__name__}: {exc}"]
        return counts, fails

    # search requests

    def _record_scan(self, req, out, fails):
        src, res = req.source, out.result
        probs, t_max = src.probs, req.params["t_max"]
        recs = [(r.t, r.delta_star, tuple(r.freqs)) for r in res.records]
        prev = None
        for t, ds, freqs in recs:
            if len(freqs) != src.m or sum(freqs) != t or min(freqs) < 1:
                fails.append(f"record t={t}: freqs {freqs} invalid")
            elif delta_star(probs, freqs, t) != ds:
                fails.append(f"record t={t}: delta_star {ds} != recomputed")
            if prev and not (t > prev[0] and ds < prev[1]):
                fails.append(f"record t={t} does not improve on t={prev[0]}")
            prev = (t, ds)
        prefix = min(req.params["prefix"], t_max)
        want = self.rebuild_records(probs, prefix)
        got = [(t, ds) for t, ds, _ in recs if t <= prefix]
        if got != want:
            fails.append(f"records up to t={prefix} differ from the row-by-row "
                         f"reference: {[t for t, _ in got]} vs {[t for t, _ in want]}")
        if src.preset == "golden":
            bad = [t for t, _, _ in recs if not is_fibonacci(t)]
            if bad:
                fails.append(f"golden records not Fibonacci: {bad}")
        last = recs[-1][0] if recs and recs[-1][1] == 0 else t_max
        out.work = last - src.m + 1
        self.scans[src.name] = ([t for t, _, _ in recs],
                                {t: ds for t, ds, _ in recs}, list(res.fact_hits))
        return {"records": len(recs), "t_scanned": out.work,
                "fact_hits": len(res.fact_hits)}

    def rebuild_records(self, probs, t_max):
        """Records up to t_max from the exact reference, one row at a time."""
        nums, d = common_form(probs)
        best, out = None, []
        for t in range(len(probs), t_max + 1):
            _, a = self.reference(nums, d, t)
            own = largest_remainder_a(nums, d, t)
            if own is not None and own != a:
                raise ValueError(f"reference A={a} at t={t}, own rounding {own}")
            if best is None or a * best[1] < best[0] * t:
                best = (a, t)
                out.append((t, Fraction(a, d * t)))
                if a == 0:
                    break
        return out

    def _scan_of(self, src, fails):
        if src.name not in self.scans:
            fails.append(f"no record scan of {src.name} to compare with")
        return self.scans.get(src.name)

    def _approximate(self, req, out, fails):
        src, width = req.source, req.params["width"]
        tab = parse_table(Path(req.params["out"]).read_text())
        ds = delta_star(src.probs, tab.freqs, tab.t)
        if not (src.m <= tab.t <= 1 << width) or min(tab.freqs) < 1:
            fails.append(f"table t={tab.t} outside [m, 2**{width}] or a zero frequency")
        if tab.width != width_of(tab.t):
            fails.append(f"table width {tab.width} != ceil(log2 {tab.t})")
        if tab.delta_star != ds:
            fails.append(f"reported delta_star {tab.delta_star} != recomputed {ds}")
        scan = self._scan_of(src, fails)
        if scan:
            best = [t for t in scan[0] if t <= 1 << width][-1]
            if scan[1][best] != ds:
                fails.append(f"delta_star {ds} != last record <= 2**{width} "
                             f"(t={best}, {scan[1][best]})")
        return {"t": tab.t, "delta_star": str(ds)}

    def _scan(self, req, out, fails):
        src, t_max = req.source, req.params["t_max"]
        header, rows = csv_rows(Path(req.params["out"]).read_text())
        if header != SCAN_HEADER:
            fails.append(f"scan header {header!r}")
        ts = [int(r[0]) for r in rows]
        if ts != list(range(src.m, src.m + len(ts))) or ts[-1] != t_max:
            fails.append(f"scan rows are not t = {src.m}..{t_max}")
        rec_rows = [int(r[0]) for r in rows if r[3] == "1"]
        hit_rows = [int(r[0]) for r in rows if r[4] == "1"]
        scan = self._scan_of(src, fails)
        if scan:
            if rec_rows != [t for t in scan[0] if t <= t_max]:
                fails.append("scan record flags differ from record_scan")
            if hit_rows != [t for t in scan[2] if t <= t_max]:
                fails.append("scan fact-constant flags differ from record_scan")
        nums, d = common_form(src.probs)
        by_t = {int(r[0]): r for r in rows}
        for t in req.params["rows"]:
            a = largest_remainder_a(nums, d, t)
            if a is None or t not in by_t:
                continue
            exact = Fraction(a, d * t)
            got = Fraction(Decimal(by_t[t][1]))
            if abs(got - exact) > exact / 10**25:
                fails.append(f"scan t={t}: delta_star {by_t[t][1]} != {float(exact)!r}")
        out.work = len(rows)
        return {"rows": len(rows), "records": len(rec_rows), "hits": len(hit_rows)}

    def _plan(self, req, out, fails):
        src, target = req.source, req.params["target"]
        header, rows = csv_rows(Path(req.params["out"]).read_text())
        if header != PLAN_HEADER or len(rows) != 1:
            raise ValueError("plan CSV is not one row under the plan header")
        row = dict(zip(PLAN_HEADER.split(","), rows[0]))
        t, width = int(row["t"]), int(row["width_bits"])
        w1 = corollary1_width(src.m, target, min(src.probs))
        if row["mode"] != req.params["mode"]:
            fails.append(f"plan mode {row['mode']}")
        if width != width_of(t):
            fails.append(f"plan width {width} != ceil(log2 {t})")
        if int(row["corollary1_width"]) != w1:
            fails.append(f"corollary1_width {row['corollary1_width']} != {w1}")
        if width > max(w1, width_of(src.m)):
            fails.append(f"plan width {width} > corollary1 width {w1}")
        nums, d = common_form(src.probs)
        freqs, a = self.reference(nums, d, t)
        own = largest_remainder_a(nums, d, t)
        if own is not None and own != a:
            fails.append(f"reference table at t={t} is not min-max")
        dv = divergence_nats(src.probs, freqs, t)
        if not dv <= Decimal(target):
            fails.append(f"plan t={t}: divergence {dv:.6e} > R = {target}")
        if not close(row["verified_divergence_nats"], dv):
            fails.append(f"verified divergence {row['verified_divergence_nats']} "
                         f"!= recomputed {dv:.12e}")
        return {"t": t, "width": width}

    _plan_guaranteed = _plan
    _plan_opportunistic = _plan

    # coder requests

    def _encode(self, req, out, fails):
        data = Path(req.params["input"]).read_bytes()
        blob = Path(req.params["out"]).read_bytes()
        table = parse_table(Path(req.params["table"]).read_text())
        tlen = int.from_bytes(blob[4:8], "big")
        if blob[:4] != FRAME_MAGIC:
            raise ValueError("encoded file lacks the frame magic")
        framed = parse_table(blob[8:8 + tlen].decode())
        if (framed.freqs, framed.order) != (table.freqs, table.order):
            fails.append("framed table differs from the input table")
        if int.from_bytes(blob[8 + tlen:16 + tlen], "big") != len(data):
            fails.append("framed symbol count differs from the input length")
        bits = 8 * (len(blob) - 16 - tlen)
        lo, hi = code_length_window(symbol_counts(data, len(table.freqs)), table)
        if not lo <= bits <= hi:
            fails.append(f"payload {bits} bits outside [{lo:.0f}, {hi:.0f}]")
        return {"bytes_in": len(data), "bytes_out": len(blob)}

    def _decode(self, req, out, fails):
        blob = Path(req.params["input"]).read_bytes()
        got = Path(req.params["out"]).read_bytes()
        if got != Path(req.params["orig"]).read_bytes():
            fails.append("decode(encode(x)) != x")
        return {"bytes_in": len(blob), "bytes_out": len(got)}

    def _simulate(self, req, out, fails):
        src, p = req.source, req.params
        header, rows = csv_rows(Path(p["out"]).read_text())
        if header != SIM_HEADER or len(rows) != 1:
            raise ValueError("simulate CSV is not one row under its header")
        row = dict(zip(SIM_HEADER.split(","), rows[0]))
        table = parse_table(Path(p["table"]).read_text())
        key = (src.name, p["n"], p["seed"])
        if key not in self._samples:
            self._samples[key] = regenerate_sample(src.probs, p["n"], p["seed"])
        lo, hi = code_length_window(self._samples[key], table)
        bits = int(row["total_bits"])
        if int(row["n"]) != p["n"]:
            fails.append(f"simulate n={row['n']}")
        if not lo <= bits <= hi:
            fails.append(f"simulate {bits} bits outside [{lo:.0f}, {hi:.0f}]")
        h = to_bits(entropy_nats(src.probs))
        dv = to_bits(divergence_nats(src.probs, table.freqs, table.t))
        if not close(row["entropy_bits"], h):
            fails.append(f"entropy {row['entropy_bits']} != {h:.12e}")
        if not close(row["divergence_bits"], dv, rel=1e-6, abs_=1e-11):
            fails.append(f"divergence {row['divergence_bits']} != {dv:.12e}")
        return {"total_bits": bits}

    def _reject(self, req, out, fails):
        if "error:" not in out.stderr:
            fails.append("rejected without an error message")
        return {"exit": out.exit}
