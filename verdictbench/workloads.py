"""Seeded verdict queries with their expected answers.

Each workload is a cycle of templates in a fixed order; the seed draws
only the parameters (points, coefficients, smooth functions, the
test-object grade), so every run measures the same mix of work.  Every
template carries the verdict the theory settles and, where the theory
gives one, a slope band on the order-0 sweep.  Parameters stay off
thresholds: points lie in [-0.3, 0.3], well inside the classifiers'
region [-0.5, 0.5] even with the k = 8 kernel window (half-width 0.1)
around them; distinct points are at least 0.3 apart, so no two windows
overlap at k >= 8; and coefficients have magnitude in [0.5, 2].

Where a parameter moves the work of a query, it is drawn from a narrow
band, so a run's cost depends on the host and the code, not on the seed:
step jumps lie in [0.245, 0.255], each association slot draws its
points within ``BAND`` of a center of its own, and the point mass of a
lie-check pair has a coefficient of magnitude near 1.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gfkernel as gf
from gfkernel import cli

DOMAIN = gf.Domain.interval(-2.0, 2.0)
RESTRICTED = gf.Domain.interval(-1.0, 1.0)  # the one restriction queries use
SHORT_GRID = (8, 16, 32)
SLOPE_TOL = 0.2
BAND = 0.01
SEQ_ROUNDTRIP = "seq-roundtrip"
SMOOTH = {"sin": gf.sin_fn(), "x2": gf.polynomial([0.0, 0.0, 1.0])}


@dataclass(frozen=True)
class Query:
    """One verdict query: ``run()`` returns (answer text, problem).

    The answer text is a deterministic rendering of the result, used to
    check that tracing does not change answers; the problem is None for
    a correct answer and a one-line reason otherwise.
    """

    template: str
    text: str
    run: Callable[[], tuple[str, str | None]]


def _point(rng, lo=-0.3, hi=0.3) -> float:
    return round(float(rng.uniform(lo, hi)), 3)


def _coef(rng) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return round(sign * float(rng.uniform(0.5, 2.0)), 3)


def _near(rng, center: float) -> float:
    """A point within BAND of a slot's center.  Where a point falls
    against the outer quadrature's panels moves the work of an
    association query by up to 30% over [-0.3, 0.3], and by a few
    percent within a band this narrow."""
    return _point(rng, center - BAND, center + BAND)


def _unit_coef(rng) -> float:
    """A coefficient of magnitude within 5% of 1.  The work of a
    lie-check pair grows with the point mass's coefficient: 5,020
    kernel-jet calls at magnitude 0.6, 6,460 at 1.9."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return round(sign * float(rng.uniform(0.95, 1.05)), 3)


def _separated(rng) -> tuple[float, float]:
    a = _point(rng, -0.3, -0.05)
    return a, _point(rng, a + 0.3, 0.3)


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _band(name: str, slope: float, center: float) -> str | None:
    if not abs(slope - center) <= SLOPE_TOL:
        return f"{name} slope {slope:+.3f} outside {center:+.1f} +- {SLOPE_TOL}"
    return None


def _guard(fn):
    """Run a query body; an exception is a failed query, not a crash."""

    def run():
        try:
            return fn()
        except Exception as exc:  # a failed query is counted, not fatal
            return "", f"raised {type(exc).__name__}: {exc}"

    return run


# ---------------------------------------------------------------------------
# pointmass: the CLI's classify on delta-only expressions


def _parse_classify(out: str) -> dict:
    """{"moderate": (verdict, {m: (slope|None, values)}), "negligible": ...}"""
    parsed: dict = {}
    current = None
    for line in out.splitlines():
        if line.startswith(("moderate:", "negligible:")):
            key, _, verdict = line.partition(": ")
            current = {}
            parsed[key] = (verdict.strip() == "True", current)
        elif line.startswith("  order ") and current is not None:
            head, _, rest = line[len("  order "):].partition(": ")
            if rest.startswith("identically zero"):
                current[int(head)] = (None, [])
            else:
                slope = float(rest.split()[1])
                vals = rest.split("values ", 1)[1].rsplit(" [", 1)[0].split()
                current[int(head)] = (slope, [float(v) for v in vals])
    return parsed


def _classify_cli(template: str, expr: str, moderate: bool,
                  negligible: bool, slope0: float | None) -> Query:
    """``slope0`` None means every sweep must be identically zero."""

    def body():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["classify", "--", expr])
        out = buf.getvalue()
        want_rc = 0 if moderate else 1
        if rc != want_rc:
            return out, f"exit code {rc}, expected {want_rc}"
        parsed = _parse_classify(out)
        for key, want in (("moderate", moderate), ("negligible", negligible)):
            if key not in parsed:
                return out, f"no {key} verdict in output"
            verdict, sweeps = parsed[key]
            if verdict != want:
                return out, f"{key}: {verdict}, expected {want}"
            if sorted(sweeps) != [0, 1, 2]:
                return out, f"{key}: sweeps for orders {sorted(sweeps)}"
            for m, (slope, vals) in sweeps.items():
                if slope is None:
                    if slope0 is not None:
                        return out, f"{key} order {m} identically zero"
                    continue
                if slope0 is None:
                    return out, f"{key} order {m} not identically zero"
                if not (math.isfinite(slope) and _finite(vals)):
                    return out, f"{key} order {m}: non-finite sweep"
            if slope0 is not None:
                problem = _band(f"{key} order 0", sweeps[0][0], slope0)
                if problem:
                    return out, problem
        return out, None

    return Query(template, expr, _guard(body))


def _seq_roundtrip(u, slope0: float) -> Query:
    """classify_seq(pullback_seq(section_seq(iota_seq(u)))) must give the
    verdicts the CLI gives for iota(u): moderate, not negligible."""

    def body():
        rep = gf.classify_seq(gf.pullback_seq(gf.section_seq(gf.iota_seq(u))))
        fit = rep.growth[0].fit
        out = (f"moderate={rep.moderate} negligible={rep.negligible} "
               + " ".join(f"m{m}:{sv.fit.values!r}"
                          for m, sv in sorted(rep.growth.items())))
        if not (rep.moderate and not rep.negligible):
            return out, (f"sequence model: moderate={rep.moderate} "
                         f"negligible={rep.negligible}, expected True/False")
        if not all(_finite(sv.fit.values) for sv in rep.growth.values()):
            return out, "sequence model: non-finite sweep"
        return out, _band("sequence order 0", fit.slope, slope0)

    t = u.deltas[0]
    text = f"{SEQ_ROUNDTRIP}({t.coeff}*delta({t.point}, {t.order}))"
    return Query(SEQ_ROUNDTRIP, text, _guard(body))


def pointmass_cycle(rng) -> list[Query]:
    """Twelve queries.  The median of a cycle falls among the five that
    cost about the same (delta, ddelta, sum-sigma, lietilde, restrict);
    they are spread through the cycle, so one slow spell of the host
    does not slow all of them."""
    out = []

    def add(*args):
        out.append(_classify_cli(*args))

    def seq_roundtrip(order):
        u = gf.delta(_point(rng), order=order, coeff=_coef(rng), domain=DOMAIN)
        out.append(_seq_roundtrip(u, 1.0 + order))

    a, c = _point(rng), _coef(rng)
    add("delta", f"{c}*iota(delta({a}))", True, False, 1.0)
    a, c = _point(rng), _coef(rng)
    add("product2", f"{c}*iota(delta({a}))*iota(delta({a}))", True, False, 2.0)
    a, c = _point(rng), _coef(rng)
    add("ddelta", f"{c}*iota(ddelta({a}, 1))", True, False, 2.0)
    a, c = _point(rng), _coef(rng)
    add("liehat", f"liehat({c}*iota(delta({a})))", True, False, 2.0)
    a, c = _point(rng), _coef(rng)
    f = ("sin", "exp", "x2", "one")[int(rng.integers(4))]
    add("sum-sigma", f"iota(delta({a})) + {c}*sigma(fn:{f})", True, False, 1.0)
    a, c = _point(rng), _coef(rng)
    add("r-minus-r", f"{c}*iota(delta({a})) - {c}*iota(delta({a}))",
        True, True, None)
    seq_roundtrip(0)
    a, c = _point(rng), _coef(rng)
    add("lietilde", f"lietilde({c}*iota(delta({a})))", True, False, 2.0)
    # No odd factor such as ddelta(a, 1) in a product: the seminorm's zoom
    # can miss the sup of the sharper odd spike, and the slope then depends
    # on where a falls between grid points (see README).
    a = _point(rng)
    add("product3", f"iota(delta({a}))*iota(delta({a}))*iota(delta({a}))",
        True, False, 3.0)
    # the restricted domain's region is [-0.25, 0.25]; its k=8 window is 0.055
    a, c = _point(rng, -0.15, 0.15), _coef(rng)
    add("restrict", f"restrict[-1, 1]({c}*iota(delta({a})))", True, False, 1.0)
    a, b = _separated(rng)
    add("separated", f"iota(delta({a}))*iota(delta({b}))", True, True, None)
    seq_roundtrip(1)
    return out


# ---------------------------------------------------------------------------
# density: classifiers on elements with density leaves, short grid


def _classify_api(template: str, text: str, R, which: str, want: bool,
                  check=None) -> Query:
    def body():
        classify = getattr(gf, f"is_{which}")  # looked up late: see tracer.py
        rep = classify(R, k_grid=SHORT_GRID, orders=(0,))
        fit = rep.sweeps[0].fit
        out = f"{which}={rep.verdict} values={fit.values!r}"
        if rep.verdict != want:
            return out, f"{which}: {rep.verdict}, expected {want}"
        if not _finite(fit.values):
            return out, "non-finite sweep"
        return out, check(fit) if check else None

    return Query(template, f"{which}({text})", _guard(body))


def _validate(q: int) -> Query:
    def body():
        seq = gf.testing.default_family(DOMAIN, q)
        rep = gf.validate_test_object(seq, k_grid=SHORT_GRID, orders=(0,))
        fits = [sv.fit for part in (rep.rate, rep.growth, rep.weak)
                for sv in part.values()]
        out = (f"passed={rep.passed} "
               + " ".join(repr(f.values) for f in fits))
        if not rep.passed:
            return out, (f"validate q={q}: rate={rep.rate_ok} "
                         f"growth={rep.growth_ok} weak={rep.weak_ok}")
        if not all(_finite(f.values) for f in fits):
            return out, "non-finite sweep"
        return out, None

    return Query("validate", f"validate_test_object(grade={q})", _guard(body))


def _jump(rng) -> float:
    """A step's jump point.  Quadrature work grows with the share of the
    region right of the jump (left of it the density is 0): a jump drawn
    from [0.2, 0.3] moved a step query's work by up to 20%, one drawn
    from this band moves it by about 2%."""
    return _point(rng, 0.245, 0.255)


def density_cycle(rng) -> list[Query]:
    """Ten queries: two cheap, one at a jump, four steps, three heavy.  The
    median of a cycle is the mean of the middle two of its four step
    queries, which do the same work; they are spread through the cycle,
    so one slow spell of the host does not slow all of them."""

    def step(a):
        return gf.iota(gf.heaviside(DOMAIN, jump_at=a))

    def slope(center):
        return lambda fit: _band("order 0", fit.slope, center)

    def step_query(which, want):
        a, c = _jump(rng), _coef(rng)
        return _classify_api(
            "step", f"{c}*iota(H@{a})", c * step(a), which, want, slope(0.0))

    def left_of_step():
        # a point mass left of the jump meets a smoothed step that is exactly 0
        b = _jump(rng)
        a = _point(rng, -0.3, b - 0.3)
        return _classify_api(
            "delta-left-of-step", f"iota(H@{b})*iota(delta({a}))",
            step(b) * gf.iota(gf.delta(a, domain=DOMAIN)), "negligible", True,
            lambda fit: None if fit.exact_zero else "not identically zero")

    def on_jump():
        a = _point(rng)
        return _classify_api(
            "step-times-delta", f"iota(H@{a})*iota(delta({a}))",
            step(a) * gf.iota(gf.delta(a, domain=DOMAIN)), "negligible", False,
            slope(1.0))

    def embed_residual():
        c = _coef(rng)
        f = SMOOTH["sin"] * c
        return _classify_api(
            "embed-residual", f"iota({c}*sin) - sigma({c}*sin)",
            gf.iota(gf.regular(f, domain=DOMAIN)) - gf.sigma(f, DOMAIN),
            "negligible", True)

    def square_defect(fit):
        if not (fit.slope >= -SLOPE_TOL and fit.values[-1] >= 0.125):
            return (f"H*H-H: slope {fit.slope:+.3f}, final value "
                    f"{fit.values[-1]:.3e}; expected >= -0.2 and >= 0.125")
        return None

    def square():
        # one step object used three times, as the theory writes H^2 - H
        a = _jump(rng)
        H = step(a)
        return _classify_api(
            "step-square-defect", f"H*H - H, H = iota(H@{a})", H * H - H,
            "negligible", False, square_defect)

    # grades 2 and 3 share a mollifier size, so the draw barely moves
    # the cost of a cycle
    return [step_query("moderate", True), left_of_step(),
            step_query("negligible", False), embed_residual(), on_jump(),
            step_query("moderate", True), square(), left_of_step(),
            step_query("negligible", False), _validate(int(rng.integers(2, 4)))]


# ---------------------------------------------------------------------------
# association: weak equality on pairs without density leaves


def _associate(template: str, text: str, A, B, want: bool,
               slope_band: float | None = None) -> Query:
    def body():
        rep = gf.associated(A, B)
        fits = [sv.fit for sv in rep.sweeps.values()]
        out = (f"associated={rep.verdict} "
               + " ".join(repr(f.values) for f in fits))
        if rep.verdict != want:
            return out, f"associated: {rep.verdict}, expected {want}"
        if not all(_finite(f.values) for f in fits):
            return out, "non-finite sweep"
        if slope_band is not None:
            steepest = max(f.slope for f in fits)
            return out, _band("steepest pairing", steepest, slope_band)
        return out, None

    return Query(template, text, _guard(body))


def association_cycle(rng) -> list[Query]:
    """Eight pairs.  The median of a cycle falls among the five that cost
    about the same (ddelta-vs-liehat, lie-check); they are spread through
    the cycle, so one slow spell of the host does not slow all of them."""
    X = gf.constant_field(1.0, DOMAIN)

    def iota_delta(p, order=0, coeff=1.0):
        return gf.iota(gf.delta(p, order=order, coeff=coeff, domain=DOMAIN))

    def ddelta_vs_liehat(center):
        a, c = _near(rng, center), _coef(rng)
        return _associate(
            "ddelta-vs-liehat",
            f"{c}*iota(ddelta({a},1)) ~ liehat({c}*iota(delta({a})))",
            iota_delta(a, 1, c), gf.lie_hat(X, iota_delta(a, 0, c)), True)

    def x2_times_delta():
        # |a| away from 0 keeps the right-hand coefficient c*a^2 ordinary
        a, c = _near(rng, 0.2), _coef(rng)
        x2 = gf.sigma(SMOOTH["x2"], DOMAIN)
        return _associate(
            "x2-times-delta",
            f"sigma(x2)*{c}*iota(delta({a})) ~ "
            f"{round(c * a * a, 6)}*iota(delta({a}))",
            x2 * iota_delta(a, 0, c), iota_delta(a, 0, c * a * a), True)

    def delta_squared():
        a, c = _near(rng, 0.05), _coef(rng)
        return _associate(
            "delta-squared", f"({c}*iota(delta({a})))^2 ~ 0",
            iota_delta(a, 0, c) * iota_delta(a, 0, c), None, False, 1.0)

    def separated():
        a, b = _near(rng, -0.15), _near(rng, 0.2)
        return _associate(
            "separated", f"iota(delta({a}))*iota(delta({b})) ~ 0",
            iota_delta(a) * iota_delta(b), None, True)

    def lie_check(center, f):
        # The smooth summand differentiates identically under both
        # derivatives, and it sets the pairing floor.  On a bare point mass
        # the floor sampling misses the odd spike and the floor is the
        # constant 1e-13, so the verdict flips with roundoff.
        a, c, c2 = _near(rng, center), _unit_coef(rng), _coef(rng)
        R = iota_delta(a, 0, c) + gf.sigma(SMOOTH[f] * c2, DOMAIN)
        return _associate(
            "lie-check",
            f"lietilde({c}*iota(delta({a})) + {c2}*sigma({f})) ~ liehat(...)",
            gf.lie_tilde(X, R), gf.lie_hat(X, R), True)

    return [ddelta_vs_liehat(-0.2), x2_times_delta(), lie_check(-0.25, "sin"),
            separated(), ddelta_vs_liehat(0.15), delta_squared(),
            lie_check(0.0, "x2"), lie_check(0.25, "sin")]


CYCLES = {
    "pointmass": pointmass_cycle,
    "density": density_cycle,
    "association": association_cycle,
}


def cycles(workload: str, seed: int):
    """Endless cycles of the workload's templates, a pure function of seed."""
    rng = np.random.default_rng(seed)
    make = CYCLES[workload]
    while True:
        yield make(rng)
