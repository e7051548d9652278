"""Asymptotic classification along kernel sequences.

Everything here reduces to one move: sweep a scalar measurement over the
rate grid, fit a power law, compare the slope to a bound.  The
measurements are compact-seminorm sizes (moderateness, negligibility),
pairings against a fixed battery (association, weak convergence), or
distance to the identity on smooth probes (the grading of test objects).

Rate fits on residuals of smoothing operators are delicate: the signals
decay like k^-(q+1) and fall under any quadrature floor long before the
grid ends.  On the scale plateau of a standard kernel the residual has
an exact finite expansion in the mollifier's measured moments, so the
sweep uses that closed form whenever the kernel offers it and only falls
back to quadrature when it must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .basic import BasicElement, Iota, Pushforward, Sum, eval_basic
from .dist import Distribution, default_test_battery, delta, heaviside, pair, regular
from .errors import NonFiniteSweep, TooFewPoints
from .kernel import (
    DEFAULT_K_GRID,
    SERIES_TERMS,
    Kernel,
    KernelSequence,
    make_mollifier,
    standard_sequence,
)
from .smooth import (
    CompactInterval,
    Domain,
    SmoothFn,
    exp_fn,
    polynomial,
    restrict_view,
    seminorm,
    sin_fn,
)

DEFAULT_ORDERS = (0, 1, 2)
NEGLIGIBLE_SLOPE = -0.5
MODERATE_BOUND = 40.0
FLOOR_REL = 1e-13
CLAMP = 1e-300
CLASSIFIER_GRID = 129  # odd, so the center of a symmetric region is sampled


# ---------------------------------------------------------------------------
# power-law fitting


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares slope of log(value) against log(k).

    ``exact_zero`` marks a sweep that vanished identically; its slope is
    -inf by convention.  Zeros inside an otherwise nonzero sweep are
    dropped from the fit (they mean "below every floor", not data).
    """

    k_grid: tuple[int, ...]
    values: tuple[float, ...]
    slope: float
    intercept: float
    residual: float
    exact_zero: bool

    @property
    def peak(self) -> float:
        return max(abs(v) for v in self.values)

    def decays(self, bound: float) -> bool:
        return self.exact_zero or self.slope <= bound


def fit_order(values, k_grid=DEFAULT_K_GRID) -> AsymptoticFit:
    ks = tuple(int(k) for k in k_grid)
    vals = tuple(float(abs(v)) for v in values)
    if len(vals) != len(ks):
        raise TooFewPoints("one value per grid point required")
    if not all(math.isfinite(v) for v in vals):
        raise NonFiniteSweep(f"sweep values are not all finite: {vals}")
    nz = [(k, v) for k, v in zip(ks, vals) if v > CLAMP]
    if not nz:
        return AsymptoticFit(ks, vals, -math.inf, -math.inf, 0.0, True)
    if len(nz) < 2:
        return AsymptoticFit(ks, vals, -math.inf, -math.inf, 0.0, False)
    lk = np.log([k for k, _ in nz])
    lv = np.log([v for _, v in nz])
    slope, intercept = np.polyfit(lk, lv, 1)
    residual = float(np.max(np.abs(slope * lk + intercept - lv)))
    return AsymptoticFit(ks, vals, float(slope), float(intercept), residual, False)


def default_region(domain: Domain) -> CompactInterval:
    """The central quarter of the domain hull: comfortably compact, and
    inside the scale plateau of a default standard sequence."""
    lo, hi = domain.hull()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = max(lo, -2.0), min(hi, 2.0)
    L = hi - lo
    return CompactInterval(lo + 0.375 * L, hi - 0.375 * L)


# ---------------------------------------------------------------------------
# sweep helpers


def element_family(R: BasicElement, seq: KernelSequence):
    """k -> R(psi_k) as a lazily evaluated smooth function."""
    return lambda k: eval_basic(R, seq.at(k))


def sweep_seminorms(family, K: CompactInterval, m: int | tuple[int, ...],
                    k_grid=DEFAULT_K_GRID) -> AsymptoticFit | dict:
    """The fit of p_{K,m}(family(k)) over the grid; for a tuple of orders
    m, {order: fit}, from one ``family(k)`` and one seminorm call per k."""
    vals = [seminorm(family(k), K, m, grid=CLASSIFIER_GRID) for k in k_grid]
    if np.ndim(m) == 0:
        return fit_order(vals, k_grid)
    return {o: fit_order([v[i] for v in vals], k_grid) for i, o in enumerate(m)}


def _plateau_series_sup(f: SmoothFn, ker: Kernel, K: CompactInterval,
                        m: int) -> float | None:
    """sup over K of the m-th derivative of (smoothing residual of f),
    via the exact moment expansion; None when the kernel cannot offer it."""
    moll = ker.mollifier
    if moll is None or f.jet_cap < m + SERIES_TERMS + 1:
        return None
    xs = np.linspace(K.lo, K.hi, 129)
    scales = [ker.plateau_scale(float(x)) for x in (K.lo, 0.5 * (K.lo + K.hi), K.hi)]
    if any(s is None for s in scales) or len({round(s, 12) for s in scales}) != 1:
        return None
    s = scales[0]
    jets = f.jets(xs, m + SERIES_TERMS)
    acc = np.zeros(xs.size)
    for a in range(1, SERIES_TERMS + 1):
        ma = moll.moment(a)
        if ma == 0.0:
            continue
        acc += jets[a + m] / math.factorial(a) * ma * s ** (-a)
    return float(np.max(np.abs(acc)))


def embedding_residual_sweep(f: SmoothFn, seq: KernelSequence, *,
                             K: CompactInterval | None = None, m: int = 0,
                             k_grid=DEFAULT_K_GRID) -> AsymptoticFit:
    """Rate of p_{K,m}((iota f - sigma f)(psi_k)) along the sequence."""
    K = K if K is not None else default_region(seq.domain)
    vals = []
    for k in k_grid:
        ker = seq.at(k)
        v = _plateau_series_sup(f, ker, K, m)
        if v is None:
            diff = eval_basic(Iota(regular(f, domain=seq.domain)), ker) \
                - restrict_view(f, seq.domain)
            v = seminorm(diff, K, m)
        vals.append(v)
    return fit_order(vals, k_grid)


def _singular_points(R: BasicElement) -> tuple[float, ...]:
    """Locations where an element's output can concentrate: delta points
    and density breaks of its distribution leaves, carried through each
    pushforward into the coordinates of the element itself."""

    def walk(node) -> set[float]:
        if isinstance(node, Iota):
            return ({t.point for t in node.u.deltas}
                    | {b for t in node.u.densities for b in t.fn.breaks})
        kids = getattr(node, "parts", (getattr(node, "a", None),))
        pts = set().union(*(walk(c) for c in kids if isinstance(c, BasicElement)))
        if isinstance(node, Pushforward):
            mu = node.mu
            pts = {float(mu.fwd.jet(p, 0)) for p in pts if mu.source.contains(p)}
        return pts

    return tuple(sorted(walk(R)))


def _hints_at(R: BasicElement, seq: KernelSequence, k: int) -> tuple[float, ...]:
    pts = _singular_points(R)
    w = seq.radius_bound(k)
    out = []
    for p in pts:
        out.append(p)
        if w is not None:
            out += [p - w, p + w]
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# test-object validation


@dataclass(frozen=True)
class SweepVerdict:
    """A fitted sweep against its slope bound.

    It passes when the fit decays at least as fast as ``bound`` or when
    every value sits below the resolution ``floor``.
    """

    fit: AsymptoticFit
    bound: float
    floor: float = 0.0

    @property
    def ok(self) -> bool:
        return self.fit.decays(self.bound) or self.fit.peak < self.floor


def moderate_verdict(fit: AsymptoticFit) -> SweepVerdict:
    """The moderateness rule: growth no steeper than ``MODERATE_BOUND``."""
    return SweepVerdict(fit, MODERATE_BOUND)


def negligible_verdict(fit: AsymptoticFit) -> SweepVerdict:
    """The negligibility rule: decay at ``NEGLIGIBLE_SLOPE`` or steeper,
    or every value under ``FLOOR_REL``."""
    return SweepVerdict(fit, NEGLIGIBLE_SLOPE, FLOOR_REL)


@dataclass(frozen=True)
class TestObjectReport:
    """Outcome of the three-part grading check for a kernel sequence."""

    grade: int
    rate: dict = field(repr=False)          # (probe, m) -> SweepVerdict
    growth: dict = field(repr=False)        # m -> SweepVerdict
    weak: dict = field(repr=False)          # (dist, battery idx) -> SweepVerdict

    @property
    def rate_ok(self) -> bool:
        return all(sv.ok for sv in self.rate.values())

    @property
    def growth_ok(self) -> bool:
        return all(sv.ok for sv in self.growth.values())

    @property
    def weak_ok(self) -> bool:
        return all(sv.ok for sv in self.weak.values())

    @property
    def passed(self) -> bool:
        return self.rate_ok and self.growth_ok and self.weak_ok


def _rate_battery(q: int, domain: Domain):
    probes = []
    for j in range(q + 3):
        coeffs = [0.0] * j + [1.0]
        probes.append((f"x^{j}", polynomial(coeffs)))
    probes.append(("sin", sin_fn()))
    probes.append(("exp", exp_fn()))
    return probes


def validate_test_object(seq: KernelSequence, *, grade: int | None = None,
                         K: CompactInterval | None = None,
                         k_grid=DEFAULT_K_GRID,
                         orders=DEFAULT_ORDERS) -> TestObjectReport:
    """Check the three defining conditions of a graded test object.

    (i) the induced smoothing operators converge to the identity on
    smooth probes at rate k^-(q+1), measured in compact seminorms up to
    the requested orders; (ii) the kernels grow at most polynomially in
    the same seminorms; (iii) pairings converge weakly on genuinely
    singular inputs.  Sweeps whose every value sits below the resolution
    floor pass by convention: they certify nothing but contradict
    nothing, and for a graded mollifier that is exactly what the killed
    moments look like.
    """
    q = grade if grade is not None else seq.grade
    if q is None:
        raise ValueError("sequence carries no grade; pass grade=")
    K = K if K is not None else default_region(seq.domain)
    bound = -(q + 1) + 0.5

    rate: dict = {}
    for name, f in _rate_battery(q, seq.domain):
        for m, sup in zip(orders, seminorm(f, K, tuple(orders))):
            fit = embedding_residual_sweep(f, seq, K=K, m=m, k_grid=k_grid)
            floor = FLOOR_REL * max(1.0, sup)
            rate[(name, m)] = SweepVerdict(fit, bound, floor)

    growth: dict = {}
    xs = np.linspace(K.lo, K.hi, 33)
    for m in orders:
        tri = np.add.outer(np.arange(m + 1), np.arange(m + 1)) <= m
        vals = []
        for k in k_grid:
            ker = seq.at(k)
            w = ker.y_window(xs)
            J = ker.jets(xs, m, np.linspace(w[:, 0], w[:, 1], 65, axis=-1), m)
            vals.append(float(np.max(np.abs(J[tri]))))
        growth[m] = moderate_verdict(fit_order(vals, k_grid))

    weak: dict = {}
    mid = 0.5 * (K.lo + K.hi)
    sing = [("delta", delta(mid, domain=seq.domain)),
            ("step", heaviside(seq.domain, jump_at=mid))]
    battery = default_test_battery(seq.domain, n_centers=2, n_radii=2)
    for uname, u in sing:
        vals = [_windowed_residuals(eval_basic(Iota(u), seq.at(k)), u, battery, mid,
                                    _window_radius(seq, k, mid)) for k in k_grid]
        for idx, size in enumerate(pair(u, battery).value):
            floor = FLOOR_REL * max(1.0, abs(size))
            weak[(uname, idx)] = SweepVerdict(fit_order([v[idx] for v in vals], k_grid),
                                              -0.5, floor)

    return TestObjectReport(q, rate, growth, weak)


def _window_radius(seq: KernelSequence, k: int, p: float) -> float:
    rb = seq.radius_bound(k)
    if rb is not None:
        return float(rb)
    w = seq.at(k).y_window(p)
    return 1.5 * 0.5 * w.width


def _windowed_residuals(fn: SmoothFn, u, phis, p: float, w: float) -> np.ndarray:
    """<fn dx, phi> - <u, phi> for each phi, for u singular only at p,
    assuming fn agrees with u's density beyond distance w of p.

    Exact for delta combinations and piecewise-constant densities under
    a unit-mass kernel: away from the singular point the smoothing
    reproduces a constant identically, so the residual integrand is
    supported in the window and nowhere else.
    """

    def jet_all(xs, m):
        d = np.zeros(xs.shape)
        for t in u.densities:
            d += t.coeff * t.fn.jet(xs, 0)
        return (fn.jet(xs, 0) - d)[None]

    g = SmoothFn(u.domain, jet_all, support=CompactInterval(p - w, p + w), jet_cap=0,
                 breaks=(p, *(b for t in u.densities for b in t.fn.breaks)))
    got = pair(regular(g), phis, rel_tol=1e-9, abs_tol=1e-13).value
    if not u.deltas:
        return got
    base = pair(Distribution(u.domain, u.deltas), phis).value
    # an empty window reads -<u, phi>, a zero of the other sign than 0.0 - <u, phi>
    empty = [min(phi.support.hi, p + w) <= max(phi.support.lo, p - w) for phi in phis]
    return np.where(empty, -base, got - base)


# ---------------------------------------------------------------------------
# moderateness and negligibility


@dataclass(frozen=True)
class ClassificationReport:
    sweeps: dict  # m -> SweepVerdict
    region: CompactInterval

    @property
    def verdict(self) -> bool:
        return all(sv.ok for sv in self.sweeps.values())


@lru_cache(maxsize=32)
def default_family(domain: Domain, q: int) -> KernelSequence:
    """The graded probe family used by the classifiers; one per (domain, q)."""
    return standard_sequence(domain, make_mollifier(q))


def is_moderate(R: BasicElement, seq: KernelSequence | None = None, *,
                K: CompactInterval | None = None, k_grid=DEFAULT_K_GRID,
                orders=DEFAULT_ORDERS) -> ClassificationReport:
    """Polynomial growth of all compact seminorms along the family."""
    seq = seq if seq is not None else default_family(R.domain, 3)
    K = K if K is not None else default_region(seq.domain)
    fits = sweep_seminorms(element_family(R, seq), K, tuple(orders), k_grid)
    return ClassificationReport({m: moderate_verdict(fits[m]) for m in orders}, K)


def classify(R: BasicElement, *, K: CompactInterval | None = None,
             k_grid=DEFAULT_K_GRID) -> tuple[ClassificationReport, ClassificationReport]:
    """(moderateness, negligibility) of R along the default families.

    Negligibility at order 2 sweeps the grade-3 family that moderateness
    sweeps, so it judges those fits instead of sweeping again.
    """
    mod = is_moderate(R, K=K, k_grid=k_grid)
    neg = is_negligible(R, K=K, k_grid=k_grid, orders=(0, 1))
    sweeps = {**neg.sweeps, 2: negligible_verdict(mod.sweeps[2].fit)}
    return mod, ClassificationReport(sweeps, neg.region)


def is_negligible(R: BasicElement, seq: KernelSequence | None = None, *,
                  K: CompactInterval | None = None, k_grid=DEFAULT_K_GRID,
                  orders=DEFAULT_ORDERS) -> ClassificationReport:
    """Vanishing to all orders, at the resolution a seminorm sweep has.

    Each derivative order m is swept along a probe family of grade m+1,
    fine enough to expose a surviving term of that order.  The verdict
    demands genuine decay at every order.  The bound is uniform rather
    than graded: residuals of negligible elements fall under the
    cancellation noise of the evaluating quadrature midway through the
    grid for m >= 2, so steeper fitted slopes cannot be certified, while
    every non-negligible element shows flat or growing seminorms.  The
    per-order fits are kept in the report as evidence.

    A fixed ``seq`` overrides the graded families (useful for probing
    along a specific object).
    """
    if K is None:
        K = default_region(seq.domain if seq is not None else R.domain)
    by_family: dict = {}  # one sweep per family, over all its orders
    for m in orders:
        fam_seq = seq if seq is not None else default_family(R.domain, m + 1)
        by_family.setdefault(fam_seq, []).append(m)
    fits = {}
    for fam_seq, ms in by_family.items():
        fits.update(sweep_seminorms(element_family(R, fam_seq), K, tuple(ms), k_grid))
    return ClassificationReport({m: negligible_verdict(fits[m]) for m in orders}, K)


# ---------------------------------------------------------------------------
# association


@dataclass(frozen=True)
class AssociationReport:
    sweeps: dict  # battery index -> SweepVerdict
    slope_bound: float

    @property
    def verdict(self) -> bool:
        return all(sv.ok for sv in self.sweeps.values())


ASSOC_FLOOR_REL = 1e-9
# pairing tolerances of association (and of the CLI demo's pairing)
ASSOC_REL_TOL = 1e-10
ASSOC_ABS_TOL = 1e-13


def associated(A: BasicElement, B: BasicElement | None = None, *,
               seq: KernelSequence | None = None, battery=None,
               k_grid=DEFAULT_K_GRID,
               slope_bound: float = -0.5) -> AssociationReport:
    """Do A and B converge weakly to the same distribution?

    Measures the pairing of (A - B)(psi_k) against a battery of test
    functions and requires a decaying fit for each.  B omitted means
    "associated to zero".

    The resolution floor of each sweep is calibrated against the size of
    the sides themselves: a difference of evaluations carries the
    relative noise of its parts, so pairings stuck at that level count
    as unresolved zeros instead of polluting the verdict with noise
    slopes.
    """
    R = A if B is None else A - B
    seq = seq if seq is not None else default_family(R.domain, 3)
    battery = battery if battery is not None else default_test_battery(R.domain)
    hints = [_hints_at(R, seq, k) for k in k_grid]
    # every rate in one quadrature: rows (rate, test function)
    vals = pair([regular(eval_basic(R, seq.at(k))) for k in k_grid], battery,
                points=hints, rel_tol=ASSOC_REL_TOL, abs_tol=ASSOC_ABS_TOL).value
    # the cancellation noise of a difference scales with its summands, so
    # the floor is calibrated against them individually
    parts = _summands(A) + (_summands(B) if B is not None else [])
    scales = [_pair_scale([eval_basic(P, seq.at(k)) for P in parts], battery, h)
              for k, h in zip(k_grid, hints)]
    sweeps = {}
    for idx in range(len(battery)):
        fit = fit_order([v[idx] for v in vals], k_grid)
        floor = ASSOC_FLOOR_REL * max([0.0, *(sc[idx] for sc in scales)]) + FLOOR_REL
        sweeps[idx] = SweepVerdict(fit, slope_bound, floor)
    return AssociationReport(sweeps, slope_bound)


def _summands(R: BasicElement) -> list[BasicElement]:
    if isinstance(R, Sum):
        return [s for p in R.parts for s in _summands(p)]
    return [R]


def _pair_scale(fns, phis, hints=()) -> list[float]:
    """Coarse upper scale of sum over f of |<f dx, phi>| for each phi, for
    noise-floor calibration: each f is sampled once, at the union of every
    phi's points (9 across its support, the hints inside it, and 7 inside
    each gap between consecutive hints, clipped to the support, so that a
    kernel window p - w, p, p + w is sampled at 17 points and the odd
    spike of a derivative point mass is seen)."""
    spans = [(phi.support.lo, phi.support.hi) for phi in phis]
    gaps = list(zip(hints[:-1], hints[1:]))
    xs = [np.concatenate([np.linspace(lo, hi, 9), [h for h in hints if lo < h < hi],
                          *(np.linspace(max(a, lo), min(b, hi), 9)[1:-1]
                            for a, b in gaps if max(a, lo) < min(b, hi))])
          for lo, hi in spans]
    cut = np.cumsum([x.size for x in xs])[:-1]
    fvals = [np.split(f.jet(np.concatenate(xs), 0), cut) for f in fns]
    pvals = [phi.jet(x, 0) for phi, x in zip(phis, xs)]
    return [sum(float(np.max(np.abs(fv[i] * pv))) * (hi - lo) for fv in fvals)
            for i, (pv, (lo, hi)) in enumerate(zip(pvals, spans))]
