"""Closed-loop verdict benchmark for gfkernel.

    python3 verdictbench/run.py --workload pointmass --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One client issues the next query only after the previous one returns.
The queries are cycles of templates drawn from ``--seed`` (see
``workloads.py``); the loop runs whole cycles and stops after the first
cycle that ends at or past ``--seconds``, so every run measures the same
mix.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of one traced cycle (``tracer.py``).
The last line of stdout is the JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0

# Layers each workload is meant to exercise: a zero here means the
# tracer lost a binding or the workload stopped reaching the layer.
NONZERO_ALL = ("kernel.jets.calls", "kernel.jets.y_points", "smooth.jets.calls",
               "smooth.jets.points", "basic.eval.calls", "basic.iota.applies",
               "kernel.apply.delta.x_points", "testing.fit.calls")
NONZERO = {
    "pointmass": ("cli.parse.calls", "cli.main.self_s", "testing.sweeps",
                  "testing.classify.s", "simplified.section.s",
                  "simplified.pullback.s", "simplified.classify.s",
                  "smooth.seminorm.calls", "smooth.seminorm.samples"),
    "density": ("kernel.apply.density.x_points", "smooth.integrate.outer.calls",
                "smooth.integrate.panels", "smooth.integrate.nodes",
                "testing.sweeps", "testing.classify.s", "testing.validate.s",
                "dist.pair.calls", "smooth.seminorm.calls",
                "smooth.seminorm.samples"),
    "association": ("testing.associate.s", "smooth.integrate.outer.calls",
                    "smooth.integrate.panels", "smooth.integrate.nodes"),
}
# Predictions of the workload design: these paths must stay unused.
ZERO = {
    "pointmass": ("kernel.apply.density.x_points",
                  "smooth.integrate.inner.calls"),
    "density": (),
    "association": ("kernel.apply.density.x_points",
                    "smooth.integrate.inner.calls", "smooth.seminorm.calls"),
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_library() -> None:
    # One thread: numpy's BLAS pool would otherwise start a thread per core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "gfkernel" / "__init__.py").is_file():
        log(f"error: no gfkernel sources under {ROOT / 'src'}")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import gfkernel  # noqa: F401


def warm_up() -> None:
    """Do the library's lazy set-up before any query: the classifier
    families for q = 1, 2, 3 on every domain the queries use, their
    kernels at the grid rates, and the mollifier moments the closed-form
    residual sweeps read.  Left lazy, this work lands in whichever query
    comes first and makes its counts depend on its position."""
    from gfkernel import kernel, testing
    from workloads import DOMAIN, RESTRICTED

    for dom in (DOMAIN, RESTRICTED):
        for q in (1, 2, 3):
            seq = testing.default_family(dom, q)
            for k in kernel.DEFAULT_K_GRID:
                seq.at(k)
            for a in range(1, testing.SERIES_TERMS + 1):
                seq.mollifier.moment(a)


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its first query."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)[0]:
                raise TimeoutError("set-up probe printed nothing")
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_query(q) -> tuple[float, str, str | None]:
    t0 = time.perf_counter()
    out, problem = q.run()
    return time.perf_counter() - t0, out, problem


def timed(args, gen) -> dict:
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    lat: list[float] = []
    failed = 0
    t0 = time.perf_counter()
    while True:
        for q in next(gen):
            dt, _, problem = run_query(q)
            lat.append(dt)
            failed += problem is not None
            log(f"{dt:8.3f}s {q.template:20s} {problem or 'ok'}  {q.text}")
        if time.perf_counter() - t0 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdicts_per_s": (n / elapsed, "1/s"),
        "verdict_s_p50": (statistics.median(lat), "s"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    log(f"{n} queries in {elapsed:.2f}s; set-up samples "
        + " ".join(f"{s:.3f}" for s in setups))
    return {"correct": failed == 0, "attempted": n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(args, gen) -> dict:
    """One cycle, each query untraced and then traced; then the first
    query traced once more.  Pairing the two runs of a query keeps the
    host's drift out of ``trace.overhead_ratio``.

    Fails (exit 1, no result) when a layer the workload must reach
    records zero, a predicted-unused path records work, the first query's
    counts change when it runs again, or tracing changes an answer.
    """
    from tracer import Tracer

    cycle = next(gen)
    tr = Tracer()
    first_counts, failed, plain_s, traced_s = None, 0, 0.0, 0.0
    for q in cycle:
        dt, seen, problem = run_query(q)
        plain_s += dt
        failed += problem is not None
        tr.install()
        dt, out, problem = run_query(q)
        tr.end_query()
        if first_counts is None:
            log("bindings traced: " + " ".join(tr.bindings))
            first_counts = tr.count_snapshot()
        tr.uninstall()
        traced_s += dt
        failed += problem is not None
        if out != seen:
            fail(f"tracing changed the answer of {q.text}")
        log(f"{dt:8.3f}s traced {q.template:20s} {problem or 'ok'}  {q.text}")
    raw = tr.metrics(traced_s / plain_s)
    tr.reset()
    tr.install()
    run_query(cycle[0])
    tr.end_query()
    tr.uninstall()
    again = tr.count_snapshot()

    if again != first_counts:
        diff = sorted(k for k in set(again) | set(first_counts)
                      if again.get(k) != first_counts.get(k))
        fail(f"counts of {cycle[0].text} differ when it runs again: {diff}")
    for name in NONZERO_ALL + NONZERO[args.workload]:
        if not raw[name]["value"] > 0:
            fail(f"{name} is zero on {args.workload}")
    for name in ZERO[args.workload]:
        if raw[name]["value"] != 0:
            fail(f"{name} is {raw[name]['value']} on {args.workload}, "
                 "predicted 0")
    log(f"traced {traced_s:.2f}s, untraced {plain_s:.2f}s")
    return {"correct": failed == 0, "attempted": 2 * len(cycle),
            "failed": failed, "metrics": raw}


def fail(msg: str) -> None:
    log(f"error: {msg}")
    sys.exit(1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("pointmass", "density", "association"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used for setup_s)")
    args = p.parse_args(argv)

    import_library()
    warm_up()
    from workloads import cycles

    gen = cycles(args.workload, args.seed)
    if args.setup_probe:
        next(gen)  # building the first queries is set-up too
        print("ready", flush=True)
        return 0
    result = traced(args, gen) if args.trace else timed(args, gen)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
