"""Command-line front end.

Subcommands: approximate, scan, plan, encode, decode, simulate.  Exit codes:
0 success, 1 internal error, 2 invalid input, 3 target unachievable.
Probabilities are comma-separated decimals/fractions or a preset name
(golden, silver, triple).  CSV outputs start with a comment line recording
the tool version, and on `simulate` the seed.  No option sets a digit count:
the library derives every one from the inputs.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from . import __version__
from .approx import best_table_under_width, round_min_max, scan_rows
from .bounds import (
    KAPPA_GENERIC,
    KAPPA_GOLDEN,
    build_bound_report,
    plan_precision,
)
from .coder import decode, decode_framed, encode, encode_framed, measure_rate
from .errors import QuantacodeError, TargetUnachievableWithinScan
from .precision import decimal_ratio, decimal_root
from .prob_model import PRESETS, FrequencyTable, parse_probability_vector

_EXIT_OK = 0
_EXIT_INTERNAL = 1
_EXIT_INVALID = 2
_EXIT_UNACHIEVABLE = 3


def _probs(spec: str):
    key = spec.strip().lower()
    if key in PRESETS:
        return PRESETS[key]()
    return parse_probability_vector(spec)


def _kappa(name: str):
    return KAPPA_GOLDEN if name == "golden" else KAPPA_GENERIC


def _csv_comment(seed: int | None = None) -> str:
    return f"# quantacode {__version__}" + ("" if seed is None else f" seed={seed}")


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_table(path: str) -> FrequencyTable:
    with open(path) as fh:
        return FrequencyTable.parse_text(fh.read())


# ---- commands ---------------------------------------------------------------

def cmd_approximate(args) -> int:
    p = _probs(args.probs)
    if args.t is None and args.width is None:
        print("approximate: need -t or -W", file=sys.stderr)
        return _EXIT_INVALID
    if args.t is not None:
        table = round_min_max(p, args.t)
    else:
        table = best_table_under_width(p, args.width)
    report = build_bound_report(p, table, kappa=_kappa(args.kappa))
    _write(args.out, table.serialize_text(delta_star=report.delta_star))
    print(report.human_text())
    if args.report_csv:
        _write(args.report_csv, "\n".join([
            _csv_comment(), report.CSV_HEADER, report.csv_row(), ""
        ]))
    return _EXIT_OK


def cmd_scan(args) -> int:
    p = _probs(args.probs)
    kappa = _kappa(args.kappa)
    m, d = p.m, p.common_denominator
    d_m = d**m
    lines = [_csv_comment(),
             "t,delta_star_decimal,quality_decimal,is_record,beats_fact_constant"]
    records, hits = [], 0
    for t, a, is_rec, beats in scan_rows(p, args.t_max, kappa=kappa):
        if is_rec:
            records.append(t)
        hits += beats
        quality = (decimal_ratio(t * a, d) if m == 2
                   else decimal_root(t * a**m, d_m, m))
        lines.append(f"{t},{decimal_ratio(a, d * t)},{quality},"
                     f"{int(is_rec)},{int(beats)}")
    _write(args.out, "\n".join(lines) + "\n")
    label = kappa.label if m == 2 else f"{m}/{m + 1}"
    print(f"records: {records}", file=sys.stderr)
    print(f"fact-constant hits ({label}): {hits}", file=sys.stderr)
    return _EXIT_OK


def cmd_plan(args) -> int:
    p = _probs(args.probs)
    plan = plan_precision(p, args.target, mode=args.mode)
    print(plan.human_text())
    if args.out:
        _write(args.out, "\n".join([
            _csv_comment(), plan.CSV_HEADER, plan.csv_row(), ""
        ]))
    return _EXIT_OK


def cmd_encode(args) -> int:
    table = _load_table(args.table)
    with open(args.input, "rb") as fh:
        payload = fh.read()
    blob = encode(payload, table) if args.raw else encode_framed(payload, table)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"{len(payload)} symbols -> {len(blob)} bytes", file=sys.stderr)
    return _EXIT_OK


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        blob = fh.read()
    if args.raw:
        if args.table is None or args.n is None:
            print("decode --raw: need --table and -n", file=sys.stderr)
            return _EXIT_INVALID
        syms = decode(blob, args.n, _load_table(args.table))
    else:
        syms, _ = decode_framed(blob)
    with open(args.out, "wb") as fh:
        fh.write(bytes(int(s) for s in syms))
    return _EXIT_OK


def cmd_simulate(args) -> int:
    p = _probs(args.probs)
    if args.table is not None:
        table = _load_table(args.table)
    elif args.t is not None:
        table = round_min_max(p, args.t)
    else:
        print("simulate: need --table or -t", file=sys.stderr)
        return _EXIT_INVALID
    report = measure_rate(p, table, args.n, args.seed)
    _write(args.out, "\n".join([
        _csv_comment(args.seed), report.CSV_HEADER, report.csv_row(), ""
    ]))
    print(f"rate {report.rate:.6f} bits/sym, entropy {report.entropy_bits:.6f},"
          f" divergence {report.divergence_bits:.6f},"
          f" excess {report.excess:.6f}", file=sys.stderr)
    return _EXIT_OK


# ---- wiring -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quantacode",
        description="Rational frequency tables under register-width budgets: "
                    "build them, bound their redundancy, and measure it.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, probs=True):
        if probs:
            sp.add_argument("-p", "--probs", required=True,
                            help="comma-separated probabilities or preset "
                                 "(golden, silver, triple)")
        sp.add_argument("-o", "--out", default=None,
                        help="output path (default stdout)")

    sp = sub.add_parser("approximate", help="best table at a fixed t or width")
    common(sp)
    sp.add_argument("-t", type=int, default=None, help="denominator")
    sp.add_argument("-W", "--width", type=int, default=None,
                    help="register width budget (scan all t <= 2**W)")
    sp.add_argument("--kappa", choices=("golden", "generic"), default="generic")
    sp.add_argument("--report-csv", default=None, help="also write the report CSV")
    sp.set_defaults(func=cmd_approximate)

    sp = sub.add_parser("scan", help="per-denominator error/quality CSV")
    common(sp)
    sp.add_argument("--t-max", type=int, required=True)
    sp.add_argument("--kappa", choices=("golden", "generic"), default="generic")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("plan", help="choose (W, t) for a target redundancy")
    common(sp)
    sp.add_argument("-R", "--target", required=True,
                    help="target redundancy in nats/symbol")
    sp.add_argument("--mode", choices=("guaranteed", "opportunistic"),
                    default="guaranteed")
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("encode", help="compress a byte file of symbol indices")
    common(sp, probs=False)
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("--table", required=True, help="table file")
    sp.add_argument("--raw", action="store_true",
                    help="bare stream without the framed header")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="decompress to a byte file")
    common(sp, probs=False)
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("--table", default=None, help="table file (raw streams)")
    sp.add_argument("-n", type=int, default=None,
                    help="symbol count (raw streams)")
    sp.add_argument("--raw", action="store_true")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", help="measure empirical rate vs entropy + D")
    common(sp)
    sp.add_argument("--table", default=None, help="table file")
    sp.add_argument("-t", type=int, default=None,
                    help="build the min-max table at this t instead")
    sp.add_argument("-n", type=int, default=10**6, help="symbols to draw")
    sp.add_argument("--seed", type=int, default=0, help="rng seed")
    sp.set_defaults(func=cmd_simulate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TargetUnachievableWithinScan as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNACHIEVABLE
    except QuantacodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID
    except Exception:
        traceback.print_exc()
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
