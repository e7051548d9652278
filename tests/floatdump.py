"""Hex dump of the floats behind the verdicts of a verdictbench workload.

    python tests/floatdump.py --workload association --seeds 1-60 > dump.txt

Runs one cycle of ``verdictbench/workloads.py`` per seed and prints the
floats that reach each query's verdict as signed ``float.hex``: one line
per ``fit_order`` call with its values in rate order, and one line per
``SweepVerdict`` floor, sorted within the query so that the order of the
calls does not show; then the query's answer text.  Two checkouts that
print the same lines reach the same verdicts from the same floats, bit
for bit: run this script in each and diff the output.  It reads the
``src`` and ``verdictbench`` next to it, so a copy placed in another
checkout's ``tests`` dumps that checkout.  A script, not a test module.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(spec: str) -> list[int]:
    """``1-60,101`` -> [1, ..., 60, 101]."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def record(out: list) -> None:
    """Append a line "fit <values>" for each ``fit_order`` call and
    "floor <floor>" for each ``SweepVerdict`` to ``out``, in hex, through
    every binding of the library."""
    from gfkernel import testing

    real_fit, real_init = testing.fit_order, testing.SweepVerdict.__init__

    def fit_order(values, *args, **kwargs):
        values = list(values)
        out.append(" ".join(["fit", *(float(v).hex() for v in values)]))
        return real_fit(values, *args, **kwargs)

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        out.append(f"floor {float(self.floor).hex()}")

    for name, mod in list(sys.modules.items()):
        if name.startswith("gfkernel") and getattr(mod, "fit_order", None) is real_fit:
            mod.fit_order = fit_order
    testing.SweepVerdict.__init__ = init


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("pointmass", "density", "association"))
    p.add_argument("--seeds", required=True, type=seeds, help="e.g. 1-60 or 7,101")
    args = p.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "verdictbench")]
    from workloads import cycles

    floats: list = []
    record(floats)
    for seed in args.seeds:
        for j, q in enumerate(next(cycles(args.workload, seed))):
            answer, _ = q.run()
            for line in sorted(floats):
                print(seed, j, q.template, line)
            print(seed, j, q.template, "answer", repr(answer), flush=True)
            floats.clear()
    return 0


if __name__ == "__main__":
    sys.exit(main())
