"""Seeded workload generation: sources, input files and the request cycle.

A workload is a list of requests that one client sends in a closed loop, one
at a time, and replays until the run's time is up.  Every input -- source
probabilities, symbol streams, damaged streams -- is drawn from the workload
seed before the clock starts; the program under test only sees the files and
arguments built here.

Sizes are fixed per workload (and per scale), so runs with different seeds
differ only in the drawn probabilities and symbols, never in the shape of
the work.  Decimal sources are drawn with their full denominator 10**digits
and a floor on the smallest probability, so no scan ends early at an exact
table and min-max rounding never has to force a symbol below t = 10*m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# Full-size shapes.  Plan targets are (m or preset, R) pairs; the guaranteed
# mode scans all 2**W rows, so its R = 1e-6 slot is kept to the binary source.
FULL = {
    "fastpath": dict(
        decimal_ms=(2, 3, 4, 5, 6), digits=6, presets=(),
        record_t=200_000, width=17, scan_t=3_000,
        guaranteed=[(m, "1e-4") for m in (2, 3, 4, 5, 6)]
        + [(2, "1e-5"), (3, "1e-5"), (2, "1e-6")],
        opportunistic=[(m, r) for m in (2, 3, 4, 5, 6)
                       for r in ("1e-4", "1e-5", "1e-6")],
        stream_n=100_000, honest_n=10_000, coder_tables=None,
    ),
    "surrogate": dict(
        decimal_ms=(2, 3, 4), digits=20, presets=("golden", "silver", "triple"),
        record_t=20_000, width=14, scan_t=2_000,
        guaranteed=[(s, "1e-4") for s in ("golden", "silver", "triple", 2, 3, 4)]
        + [("golden", "1e-5")],
        opportunistic=[(s, r) for s in ("golden", "silver", "triple", 2, 3, 4)
                       for r in ("1e-4", "1e-5")],
        stream_n=100_000, honest_n=10_000, coder_tables=None,
    ),
    "coder": dict(
        decimal_ms=(2, 24, 200), digits=6, presets=(),
        record_t=20_000, width=14, scan_t=2_000,
        guaranteed=[(2, "1e-3"), (24, "1e-3"), (2, "1e-4"), (2, "1e-5")],
        opportunistic=[(m, r) for m in (2, 24) for r in ("1e-3", "1e-4")],
        stream_n=500_000, honest_n=10_000,
        coder_tables={2: 1 << 12, 24: 1 << 18, 200: 1 << 24},
        search_ms=(2, 24),
    ),
}

# Tiny shapes for the self-test: every request kind and every check, fast.
SMOKE = {
    "fastpath": dict(record_t=3_000, width=10, scan_t=200, stream_n=2_000,
                     honest_n=500,
                     guaranteed=[(2, "1e-3"), (4, "1e-3")],
                     opportunistic=[(2, "1e-3"), (3, "1e-4")]),
    "surrogate": dict(record_t=1_000, width=9, scan_t=150, stream_n=2_000,
                      honest_n=500,
                      guaranteed=[("golden", "1e-3"), (3, "1e-3")],
                      opportunistic=[("golden", "1e-4"), (2, "1e-3")]),
    "coder": dict(record_t=1_000, width=9, scan_t=100, stream_n=5_000,
                  honest_n=500),
}

DECIMAL_FLOOR = Fraction(1, 10)  # smallest probability >= DECIMAL_FLOOR / m
SURROGATE_DIGITS = 60
FORGE_FACTOR = 10


@dataclass
class Source:
    """A source as the CLI receives it (`spec`) plus its exact probabilities."""

    name: str
    spec: str
    probs: tuple  # Fractions, computed by the benchmark itself
    preset: str | None = None

    @property
    def m(self) -> int:
        return len(self.probs)


@dataclass
class Request:
    kind: str
    label: str
    source: Source
    argv: list | None = None      # CLI request; None for a library call
    expect_exit: int = 0
    work: int | None = None       # known work units, else taken from the output
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    scale: str
    sources: list
    requests: list
    sizes: dict
    table_paths: list             # table files parsed at set-up
    generation: list              # CLI argv lists run once before the clock


# ---- exact sources ----------------------------------------------------------

def _scaled_isqrt(k: int, digits: int) -> Fraction:
    n = 10**digits
    return Fraction(math.isqrt(k * n * n), n)


def preset_probs(name: str) -> tuple:
    """The 60-digit surrogates, rebuilt from their definition."""
    if name == "golden":
        g = (_scaled_isqrt(5, SURROGATE_DIGITS) - 1) / 2
        return (g, 1 - g)
    if name == "silver":
        s = _scaled_isqrt(2, SURROGATE_DIGITS) - 1
        return (s, 1 - s)
    if name == "triple":
        r2 = _scaled_isqrt(2, SURROGATE_DIGITS)
        r3 = _scaled_isqrt(3, SURROGATE_DIGITS)
        return (r2 - 1, r3 - r2, 2 - r3)
    raise KeyError(name)


def decimal_source(rng: np.random.Generator, m: int, digits: int) -> Source:
    """m decimals with `digits` digits, summing to 1, common denominator
    exactly 10**digits and every entry at least DECIMAL_FLOOR / m."""
    den = 10**digits
    floor = math.ceil(DECIMAL_FLOOR * den / m)
    while True:
        w = rng.dirichlet(np.ones(m))
        # exact binary value of each weight, scaled and floored in integers
        nums = [floor + int(Fraction(float(x)) * (den - m * floor)) for x in w]
        nums[int(np.argmax(nums))] += den - sum(nums)
        if math.gcd(den, *nums) != 1:
            continue
        spec = ",".join(f"0.{v:0{digits}d}" for v in nums)
        return Source(f"m{m}", spec, tuple(Fraction(v, den) for v in nums))


def sample_stream(rng: np.random.Generator, probs, n: int) -> bytes:
    cum = np.cumsum([float(p) for p in probs])
    cum[-1] = 1.0
    syms = np.searchsorted(cum, rng.random(n), side="right")
    return syms.astype(np.uint8).tobytes()


# ---- workload construction --------------------------------------------------

def build(name: str, seed: int, scale: str, work_dir: Path) -> Workload:
    """Draw the sources and inputs of workload `name` and list its requests.

    Writes the symbol streams into `work_dir`.  Damaged streams need honest
    framed streams, which only the program under test can write; they are
    made by `finish_inputs` after the generation commands have run.
    """
    if name not in FULL:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(FULL)}")
    sz = dict(FULL[name])
    if scale == "smoke":
        sz.update(SMOKE[name])
    elif scale != "full":
        raise KeyError(f"unknown scale {scale!r}")
    rng = np.random.default_rng([seed, list(FULL).index(name)])

    sources = [Source(p, p, preset_probs(p), preset=p) for p in sz["presets"]]
    sources += [decimal_source(rng, m, sz["digits"]) for m in sz["decimal_ms"]]
    by_key = {s.preset or s.m: s for s in sources}
    search = [by_key[m] for m in sz.get("search_ms", ())] or sources

    work_dir.mkdir(parents=True, exist_ok=True)
    w = lambda *parts: str(work_dir / "-".join(str(p) for p in parts))  # noqa: E731
    reqs, generation, table_paths = [], [], []

    def table_of(src):
        return w("table", src.name)

    for src in sources:
        if sz["coder_tables"]:
            argv = ["approximate", "-p", src.spec, "-t",
                    str(sz["coder_tables"][src.m]), "-o", table_of(src)]
        else:
            argv = ["approximate", "-p", src.spec, "-W", str(sz["width"]),
                    "-o", table_of(src)]
        generation.append(argv)
        table_paths.append(table_of(src))

    for src in search:
        reqs.append(Request("record_scan", f"{src.name}/t{sz['record_t']}", src,
                            params={"t_max": sz["record_t"],
                                    "prefix": int(rng.integers(600, 1200))}))
    for src in search:
        width = sz["width"]
        argv = ["approximate", "-p", src.spec, "-W", str(width),
                "-o", w("approx", src.name)]
        reqs.append(Request("approximate", f"{src.name}/W{width}", src, argv,
                            work=(1 << width) - src.m + 1,
                            params={"width": width, "out": w("approx", src.name)}))
    for src in search:
        argv = ["scan", "-p", src.spec, "--t-max", str(sz["scan_t"]),
                "-o", w("scan", src.name)]
        reqs.append(Request("scan", f"{src.name}/t{sz['scan_t']}", src, argv,
                            params={"t_max": sz["scan_t"], "out": w("scan", src.name),
                                    "rows": [int(v) for v in rng.integers(
                                        src.m, sz["scan_t"] + 1, size=6)]}))
    for mode in ("guaranteed", "opportunistic"):
        for key, r in sz[mode]:
            src = by_key[key]
            out = w("plan", mode, src.name, r)
            argv = ["plan", "-p", src.spec, "-R", r, "--mode", mode, "-o", out]
            reqs.append(Request(f"plan_{mode}", f"{src.name}/R{r}", src, argv,
                                work=1, params={"target": r, "mode": mode, "out": out}))

    n = sz["stream_n"]
    for src in sources:
        sym = w("syms", src.name)
        Path(sym).write_bytes(sample_stream(rng, src.probs, n))
        enc, dec = w("enc", src.name), w("dec", src.name)
        reqs.append(Request("encode", f"{src.name}/n{n}", src,
                            ["encode", "-i", sym, "--table", table_of(src), "-o", enc],
                            work=n, params={"input": sym, "out": enc,
                                            "table": table_of(src)}))
        reqs.append(Request("decode", f"{src.name}/n{n}", src,
                            ["decode", "-i", enc, "-o", dec],
                            work=n, params={"input": enc, "out": dec, "orig": sym}))
    for src in sources:
        sim_seed = int(rng.integers(1, 2**31))
        out = w("sim", src.name)
        argv = ["simulate", "-p", src.spec, "--table", table_of(src), "-n", str(n),
                "--seed", str(sim_seed), "-o", out]
        reqs.append(Request("simulate", f"{src.name}/n{n}", src, argv, work=n,
                            params={"seed": sim_seed, "n": n, "out": out,
                                    "table": table_of(src)}))

    honest_n = sz["honest_n"]
    for src in sources:
        sym = w("honest", src.name)
        Path(sym).write_bytes(sample_stream(rng, src.probs, honest_n))
        cut = float(rng.uniform(0.3, 0.7))
        for how in ("header", "payload", "forged"):
            bad = w("bad", how, src.name)
            reqs.append(Request("reject", f"{src.name}/{how}", src,
                                ["decode", "-i", bad, "-o", w("rejected", src.name)],
                                expect_exit=2, work=1,
                                params={"how": how, "path": bad, "honest": sym,
                                        "table": table_of(src), "cut": cut}))

    sizes = {k: v for k, v in sz.items()
             if k in ("record_t", "width", "scan_t", "stream_n", "honest_n",
                      "digits", "guaranteed", "opportunistic", "coder_tables")}
    sizes["sources"] = [s.name for s in sources]
    return Workload(name, seed, scale, sources, reqs, sizes, table_paths, generation)


def finish_inputs(wl: Workload, encode_framed, parse_table):
    """Write the damaged streams, deriving each from an honest framed stream.

    header:  the stream cut inside its embedded table;
    payload: the payload cut to a seeded 30-70 % of its length (at least
             16 bytes short, so the decoder must read past the end);
    forged:  an intact stream whose symbol count is multiplied by
             FORGE_FACTOR.
    """
    for req in wl.requests:
        if req.kind != "reject":
            continue
        p = req.params
        table = parse_table(Path(p["table"]).read_text())
        honest = encode_framed(Path(p["honest"]).read_bytes(), table)
        tlen = int.from_bytes(honest[4:8], "big")
        head, payload = honest[:16 + tlen], honest[16 + tlen:]
        if p["how"] == "header":
            bad = honest[:8 + tlen // 2]
        elif p["how"] == "payload":
            keep = min(int(len(payload) * p["cut"]), len(payload) - 16)
            bad = head + payload[:max(keep, 0)]
        else:
            n = int.from_bytes(honest[8 + tlen:16 + tlen], "big")
            bad = (honest[:8 + tlen] + (n * FORGE_FACTOR).to_bytes(8, "big")
                   + payload)
        Path(p["path"]).write_bytes(bad)
