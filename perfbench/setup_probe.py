"""One set-up measurement, run in a fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <manifest.json>

Times importing quantacode from <src dir> and parsing the workload's
sources (the CLI's preset-or-decimal rule) and table files, then prints the
seconds on stdout.  numpy and mpmath are imported before the clock starts:
their import takes most of the set-up time, varied by up to 2x from minute
to minute on a shared 2-vCPU virtual machine, and no change to the package
can make it faster or slower.
"""

import json
import sys
import time

import mpmath  # noqa: F401
import numpy  # noqa: F401


def main(src_dir: str, manifest: str) -> None:
    with open(manifest) as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    sys.path.insert(0, src_dir)
    from quantacode.prob_model import PRESETS, FrequencyTable, parse_probability_vector

    for s in spec["sources"]:
        PRESETS[s]() if s in PRESETS else parse_probability_vector(s)
    for path in spec["tables"]:
        with open(path) as fh:
            FrequencyTable.parse_text(fh.read())
    print(f"{time.perf_counter() - start:.9f}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
