"""Spans around the public functions of each quantacode module.

`Tracer.install` replaces each public function of the layer modules with a
wrapper, in every quantacode module that holds a reference to it, so calls
between modules and inside one module pass through the wrappers; `remove`
puts the originals back.  Nothing in the package itself changes.

A span records its name, start, end, parent span and request id.  A
function's self time is its span time minus the time its child spans
cover.  Functions in COUNT_ONLY are too small to time without distorting
their callers; they are counted, and their time stays in the caller's self
time.  In `cli` only `main` is a span: its self time is argument parsing,
file I/O and output formatting, the subcommand bodies included.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("prob_model", "_kernels", "approx", "bounds", "precision", "coder", "cli")

# metric prefix of each layer; metric names must start with a letter
PREFIX = {name: name.lstrip("_") for name in LAYERS}

SPAN_ONLY = {"cli": {"main"}}
COUNT_ONLY = {
    "_kernels": {"fits_int64", "backend", "rc_encode_py", "rc_decode_py"},
    "precision": {"working_dps", "to_mpf"},
    "prob_model": {"register_width", "memory_cost", "canonical_order"},
}
METHODS = {"prob_model": {"FrequencyTable": ("parse_text",)}}


class Tracer:
    """In-memory spans and counters of one traced cycle."""

    def __init__(self, keep_spans: bool):
        self.keep = keep_spans
        self.names: list[str] = []
        self._ix: dict[str, int] = {}
        self.cols = {k: array("q") for k in ("span", "name", "parent", "req")}
        self.cols.update(start=array("d"), end=array("d"))
        self.stack: list[list] = []     # [span id, name, start, child time, tag]
        self.next_id = 0
        self.req = -1
        self.kind = ""
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.kind_self_s: defaultdict = defaultdict(float)
        self.top_s = 0.0
        self._saved: list = []
        self._fits_int64 = None

    # ---- spans ----------------------------------------------------------------

    def open(self, name: str):
        frame = [self.next_id, name, time.perf_counter(), 0.0, None]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame):
        end = time.perf_counter()
        popped = self.stack.pop()
        assert popped is frame, "span stack out of order"
        sid, name, start, child, _ = frame
        dur = end - start
        own = dur - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.kind_self_s[(self.kind, name)] += own
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        else:
            self.top_s += dur
            parent = -1
        if self.keep:
            ix = self._ix.get(name)
            if ix is None:
                ix = self._ix[name] = len(self.names)
                self.names.append(name)
            c = self.cols
            c["span"].append(sid)
            c["name"].append(ix)
            c["parent"].append(parent)
            c["req"].append(self.req)
            c["start"].append(start)
            c["end"].append(end)

    def write(self, path, requests):
        """Spans as gzip CSV; `requests` maps request id -> (kind, label)."""
        c = self.cols
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# requests: " + "; ".join(
                f"{i}={k}:{lab}" for i, (k, lab) in sorted(requests.items())) + "\n")
            fh.write("span,name,start_s,end_s,parent,request\n")
            t0 = c["start"][0] if c["start"] else 0.0
            for i in range(len(c["span"])):
                fh.write(f"{c['span'][i]},{self.names[c['name'][i]]},"
                         f"{c['start'][i] - t0:.9f},{c['end'][i] - t0:.9f},"
                         f"{c['parent'][i]},{c['req'][i]}\n")

    # ---- installing the wrappers ----------------------------------------------

    def install(self, package: str = "quantacode"):
        """Wrap every layer's public functions, everywhere they are bound."""
        modules = {n: m for n, m in sys.modules.items()
                   if (n == package or n.startswith(package + ".")) and m is not None}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{package}.{layer}"]
            only = SPAN_ONLY.get(layer)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (only is not None and attr not in only)):
                    continue
                name = f"{PREFIX[layer]}.{attr}"
                count_only = attr in COUNT_ONLY.get(layer, ())
                wrappers[fn] = self._wrap(fn, name, count_only)
            for cls_name, meths in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    raw = cls.__dict__[meth]
                    name = f"{PREFIX[layer]}.{cls_name}.{meth}"
                    wrapped = classmethod(self._wrap(raw.__func__, name, False))
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
                elif isinstance(val, dict) and any(
                        inspect.isfunction(v) and v in wrappers for v in val.values()):
                    self._saved.append((val, None, dict(val)))
                    val.update({k: wrappers.get(v, v) if inspect.isfunction(v) else v
                                for k, v in val.items()})
        self._fits_int64 = modules[f"{package}._kernels"].fits_int64.__wrapped__

    def remove(self):
        for owner, attr, val in reversed(self._saved):
            if attr is None:
                owner.clear()
                owner.update(val)
            else:
                setattr(owner, attr, val)
        self._saved.clear()

    def _wrap(self, fn, name, count_only):
        before = BEFORE.get(name)
        after = AFTER.get(name)
        on_error = ON_ERROR.get(name)
        tr = self
        calls = self.calls

        if count_only:
            def counted(*args, **kwargs):
                calls[name] += 1
                res = fn(*args, **kwargs)
                if after is not None:
                    after(tr, args, res)
                return res
            counted.__wrapped__ = fn
            return counted

        if inspect.isgeneratorfunction(fn):
            def spanned_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = tr.open(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tr.close(frame)
                    yield value
            spanned_gen.__wrapped__ = fn
            return spanned_gen

        def spanned(*args, **kwargs):
            frame = tr.open(name)
            try:
                if before is not None:
                    before(tr, frame, args)
                res = fn(*args, **kwargs)
                if after is not None:
                    after(tr, args, res)
                return res
            except Exception as exc:
                if on_error is not None:
                    on_error(tr, exc)
                raise
            finally:
                tr.close(frame)
        spanned.__wrapped__ = fn
        return spanned


# ---- per-function counters --------------------------------------------------

def _minmax_scan(tr, frame, args):
    nums, d, lo, hi = args[:4]
    rows = hi - lo + 1
    tr.counts["kernels.minmax_scan.rows"] += rows
    if tr._fits_int64([int(v) for v in nums], d, hi):
        tr.counts["kernels.minmax_scan.int64_rows"] += rows
        frame[4] = "int64"
    else:
        tr.counts["kernels.minmax_scan.exact_rows"] += rows


def _minmax_freqs_exact(tr, frame, args):
    parent = tr.stack[-2] if len(tr.stack) > 1 else None
    if parent is not None and parent[1] == "kernels.minmax_scan" and parent[4] == "int64":
        tr.counts["kernels.minmax_scan.repair_rows"] += 1


def _rc_encode(tr, args, res):
    tr.counts["kernels.rc_encode.symbols"] += len(args[0])
    tr.counts["kernels.rc_encode.bytes_out"] += len(res)


def _rc_decode(tr, frame, args):
    tr.counts["kernels.rc_decode.symbols"] += int(args[1])
    tr.counts["kernels.rc_decode.bytes_in"] += len(args[0])


def _rc_decode_py(tr, args, res):
    tr.counts["kernels.rc_decode.overread_bytes"] += int(res[1])


def _record_scan(tr, args, res):
    tr.counts["approx.record_scan.records"] += len(res.records)


def _rejects(name):
    def hook(tr, exc):
        if type(exc).__name__ == "CorruptStream":
            tr.counts[name + ".rejects"] += 1
    return hook


BEFORE = {
    "kernels.minmax_scan": _minmax_scan,
    "kernels.minmax_freqs_exact": _minmax_freqs_exact,
    "kernels.rc_decode": _rc_decode,
}
AFTER = {
    "kernels.rc_encode": _rc_encode,
    "kernels.rc_decode_py": _rc_decode_py,
    "approx.record_scan": _record_scan,
}
ON_ERROR = {name: _rejects(name) for name in ("coder.decode", "coder.decode_framed")}
