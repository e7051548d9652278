"""Layer tracing of gfkernel from outside the library.

The tracer replaces public functions and methods of the library's
modules with wrappers that record spans and work counts, and puts the
originals back when it is uninstalled.  Nothing in ``src/`` knows about
it.  A name imported into several modules is wrapped in every module
that holds it (found by identity), so a call through any binding is
seen.  A reference taken before ``install`` still points at the
original, so the benchmark looks library functions up at call time.

A span records calls, total time and self time: its duration minus the
time its child spans cover.  Spans are aggregated per name while they
run; nothing per call is kept, so a traced run stays small.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter

# (home module, attribute, span name) for module-level functions.
FUNCTION_SPANS = (
    ("gfkernel.cli", "main", "cli.main"),
    ("gfkernel.testing", "is_moderate", "testing.is_moderate"),
    ("gfkernel.testing", "is_negligible", "testing.is_negligible"),
    ("gfkernel.testing", "associated", "testing.associated"),
    ("gfkernel.testing", "validate_test_object", "testing.validate"),
    ("gfkernel.testing", "sweep_seminorms", "testing.sweep"),
    ("gfkernel.testing", "embedding_residual_sweep", "testing.sweep"),
    ("gfkernel.testing", "fit_order", "testing.fit"),
    ("gfkernel.simplified", "pullback_seq", "simplified.pullback"),
    ("gfkernel.simplified", "classify_seq", "simplified.classify"),
    ("gfkernel.basic", "eval_basic", "basic.eval"),
    ("gfkernel.smooth", "seminorm", "smooth.seminorm"),
    ("gfkernel.dist", "pair", "dist.pair"),
)

TESTING_SPANS = ("testing.is_moderate", "testing.is_negligible",
                 "testing.associated", "testing.validate", "testing.sweep",
                 "testing.fit")

# Metric name -> unit, in report order.  Every traced run reports all.
PER_LAYER_UNITS = {
    "cli.parse.calls": "count",
    "cli.main.self_s": "s",
    "testing.sweeps": "count",
    "testing.fit.calls": "count",
    "testing.classify.s": "s",
    "testing.associate.s": "s",
    "testing.validate.s": "s",
    "testing.self_s": "s",
    "simplified.section.s": "s",
    "simplified.pullback.s": "s",
    "simplified.classify.s": "s",
    "basic.eval.calls": "count",
    "basic.iota.applies": "count",
    "basic.iota.distinct_ratio": "ratio",
    "kernel.jets.calls": "count",
    "kernel.jets.y_points": "count",
    "kernel.jets.self_s": "s",
    "kernel.apply.delta.x_points": "count",
    "kernel.apply.density.x_points": "count",
    "kernel.apply.self_s": "s",
    "kernel.seq.builds": "count",
    "smooth.jets.calls": "count",
    "smooth.jets.points": "count",
    "smooth.jets.self_s": "s",
    "smooth.integrate.inner.calls": "count",
    "smooth.integrate.outer.calls": "count",
    "smooth.integrate.panels": "count",
    "smooth.integrate.nodes": "count",
    "smooth.integrate.no_convergence": "count",
    "smooth.integrate.self_s": "s",
    "smooth.seminorm.calls": "count",
    "smooth.seminorm.samples": "count",
    "smooth.seminorm.self_s": "s",
    "dist.pair.calls": "count",
    "dist.pair.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _size(x) -> int:
    try:
        return int(x.size)
    except AttributeError:
        return 1 if isinstance(x, (int, float)) else len(x)


class Tracer:
    """Spans and counters over the library's public functions."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.bindings: list[str] = []      # "module.attr" of every patch
        self._stack: list[list] = []       # open spans: [name, child_s]
        self._patches: list[tuple] = []    # (owner, attr, original)
        self._pairs: dict = {}             # (id u, id ker) -> (u, ker)

    # -- wrapping ----------------------------------------------------------

    def span(self, name: str, fn, on_enter=None):
        """``fn`` wrapped in a span; ``on_enter(args)`` may count work."""
        stack = self._stack
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)
        self.bindings.append(f"{owner.__name__}.{attr}")

    def _patch_everywhere(self, original, new) -> int:
        """Replace every module-level binding of ``original`` in gfkernel."""
        hits = 0
        for modname, mod in sorted(sys.modules.items()):
            if modname != "gfkernel" and not modname.startswith("gfkernel."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patch(mod, attr, new)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"tracer found no binding of {original!r}")
        return hits

    def install(self) -> None:
        import gfkernel.cli as cli
        import gfkernel.kernel as kernel
        import gfkernel.simplified as simplified
        import gfkernel.smooth as smooth

        for modname, attr, name in FUNCTION_SPANS:
            orig = getattr(sys.modules[modname], attr)
            self._patch_everywhere(orig, self.span(name, orig))

        self._patch_everywhere(cli.parse_expr, self._counted(
            "cli.parse.calls", cli.parse_expr))
        self._patch_everywhere(simplified.section_seq, self._section(
            simplified.section_seq))
        self._patch_everywhere(kernel.apply_kernel, self._apply(
            kernel.apply_kernel))
        self._patch_everywhere(smooth.integrate, self._integrate(
            smooth.integrate))
        self._patch(smooth, "_gk_panel", self._panel(smooth._gk_panel))

        def y_points(args):
            self.counts["kernel.jets.y_points"] += _size(args[3])

        classes = [kernel.Kernel]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "jets" in cls.__dict__ and cls is not kernel.Kernel:
                self._patch(cls, "jets", self.span(
                    "kernel.jets", cls.__dict__["jets"], y_points))

        def points(args):
            n = _size(args[1])
            self.counts["smooth.jets.points"] += n
            if self._stack and self._stack[-1][0] == "smooth.seminorm":
                self.counts["smooth.seminorm.samples"] += n

        for meth in ("jet", "jets"):
            self._patch(smooth.SmoothFn, meth, self.span(
                "smooth.jets", smooth.SmoothFn.__dict__[meth], points))

        at = kernel.KernelSequence.at

        def seq_at(seq, k):
            before = len(seq._memo)
            out = at(seq, k)
            self.counts["kernel.seq.builds"] += len(seq._memo) - before
            return out

        self._patch(kernel.KernelSequence, "at", seq_at)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        self.bindings = []

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _section(self, fn):
        """section_seq returns a lazy element: its evaluator is the work,
        so the span wraps the evaluator as well as the constructor."""
        build = self.span("simplified.section", fn)

        def wrapper(*args, **kwargs):
            elem = build(*args, **kwargs)
            return dataclasses.replace(
                elem, evaluator=self.span("simplified.section", elem.evaluator))

        return wrapper

    def _apply(self, fn):
        """apply_kernel returns a lazy SmoothFn; pairing happens when its
        jets are asked for, so the span wraps the returned ``_jet_all``."""

        def wrapper(ker, u):
            out = fn(ker, u)
            self.counts["basic.iota.applies"] += 1
            self._pairs.setdefault((id(u), id(ker)), (u, ker))
            inner = out._jet_all
            deltas, densities = bool(u.deltas), bool(u.densities)

            def count(args):
                n = _size(args[0])
                if deltas:
                    self.counts["kernel.apply.delta.x_points"] += n
                if densities:
                    self.counts["kernel.apply.density.x_points"] += n

            out._jet_all = self.span("kernel.apply", inner, count)
            return out

        return wrapper

    def _integrate(self, fn):
        from gfkernel.errors import NoConvergence

        stack = self._stack

        def classify(args):
            inner = any(frame[0] == "kernel.apply" for frame in stack)
            key = "inner" if inner else "outer"
            self.counts[f"smooth.integrate.{key}.calls"] += 1

        traced = self.span("smooth.integrate", fn, classify)

        def wrapper(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            except NoConvergence:
                self.counts["smooth.integrate.no_convergence"] += 1
                raise

        return wrapper

    def _panel(self, fn):
        counts = self.counts

        def wrapper(ev, lo, hi):
            counts["smooth.integrate.panels"] += 1

            def counted(xs):
                counts["smooth.integrate.nodes"] += _size(xs)
                return ev(xs)

            return fn(counted, lo, hi)

        return wrapper

    # -- reading -----------------------------------------------------------

    def end_query(self) -> None:
        """Close a query's distinct-pair window (ids are only unique while
        the objects live, and a query's element keeps them alive)."""
        self.counts["basic.iota.distinct"] += len(self._pairs)
        self._pairs.clear()

    def count_snapshot(self) -> dict:
        """Every count and span call count: the exact part of a trace."""
        snap = dict(self.counts)
        snap.update({f"{k}.calls": v[0] for k, v in self.spans.items()})
        return snap

    def reset(self) -> None:
        for stats in self.spans.values():  # the wrappers hold these lists
            stats[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._pairs.clear()

    def metrics(self, overhead_ratio: float) -> dict:
        sp = self.spans
        c = self.counts

        def calls(name):
            return sp.get(name, [0, 0.0, 0.0])[0]

        def total(*names):
            return sum(sp.get(n, [0, 0.0, 0.0])[1] for n in names)

        def self_s(*names):
            return sum(sp.get(n, [0, 0.0, 0.0])[2] for n in names)

        applies = c["basic.iota.applies"]
        vals = {
            "cli.parse.calls": c["cli.parse.calls"],
            "cli.main.self_s": self_s("cli.main"),
            "testing.sweeps": calls("testing.sweep"),
            "testing.fit.calls": calls("testing.fit"),
            "testing.classify.s": total("testing.is_moderate",
                                        "testing.is_negligible"),
            "testing.associate.s": total("testing.associated"),
            "testing.validate.s": total("testing.validate"),
            "testing.self_s": self_s(*TESTING_SPANS),
            "simplified.section.s": total("simplified.section"),
            "simplified.pullback.s": total("simplified.pullback"),
            "simplified.classify.s": total("simplified.classify"),
            "basic.eval.calls": calls("basic.eval"),
            "basic.iota.applies": applies,
            "basic.iota.distinct_ratio": (c["basic.iota.distinct"] / applies
                                          if applies else 1.0),
            "kernel.jets.calls": calls("kernel.jets"),
            "kernel.jets.y_points": c["kernel.jets.y_points"],
            "kernel.jets.self_s": self_s("kernel.jets"),
            "kernel.apply.delta.x_points": c["kernel.apply.delta.x_points"],
            "kernel.apply.density.x_points": c["kernel.apply.density.x_points"],
            "kernel.apply.self_s": self_s("kernel.apply"),
            "kernel.seq.builds": c["kernel.seq.builds"],
            "smooth.jets.calls": calls("smooth.jets"),
            "smooth.jets.points": c["smooth.jets.points"],
            "smooth.jets.self_s": self_s("smooth.jets"),
            "smooth.integrate.inner.calls": c["smooth.integrate.inner.calls"],
            "smooth.integrate.outer.calls": c["smooth.integrate.outer.calls"],
            "smooth.integrate.panels": c["smooth.integrate.panels"],
            "smooth.integrate.nodes": c["smooth.integrate.nodes"],
            "smooth.integrate.no_convergence":
                c["smooth.integrate.no_convergence"],
            "smooth.integrate.self_s": self_s("smooth.integrate"),
            "smooth.seminorm.calls": calls("smooth.seminorm"),
            "smooth.seminorm.samples": c["smooth.seminorm.samples"],
            "smooth.seminorm.self_s": self_s("smooth.seminorm"),
            "dist.pair.calls": calls("dist.pair"),
            "dist.pair.s": total("dist.pair"),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: {"value": vals[k], "unit": u}
                for k, u in PER_LAYER_UNITS.items()}
