"""Distributions of finite structural type on an open subset of R.

A :class:`Distribution` is a finite sum of derivatives of point masses and
piecewise-smooth densities.  That covers every classical example this
library works with (delta combs, Heaviside jumps, smooth densities) while
keeping pairings exact where they can be exact: delta terms evaluate jets
directly, only densities go through quadrature.

Pairings use a tighter quadrature tolerance than the generic default: the
asymptotic slope fits downstream compare pairing values across five
octaves of k, and the noise floor has to sit well below the smallest
signal on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompatiblePieces, NotContained, UnboundedSupport
from .smooth import (
    _FACT,
    _leibniz,
    _series_compose,
    CompactInterval,
    Domain,
    PiecewiseFn,
    QuadResult,
    SmoothFn,
    TestFn,
    VectorField,
    compose,
    constant,
    derivative_fn,
    integrate,
    restrict_view,
)

PAIR_REL_TOL = 1e-12
PAIR_ABS_TOL = 1e-14


@dataclass(frozen=True)
class DeltaTerm:
    """coeff * delta^(order) at ``point``."""

    point: float
    order: int
    coeff: float


@dataclass(frozen=True)
class DensityTerm:
    """coeff * fn(x) dx; ``fn`` may be piecewise with flagged breaks."""

    fn: SmoothFn
    coeff: float


@dataclass(frozen=True)
class Distribution:
    """A finite combination of delta derivatives and piecewise densities."""

    domain: Domain
    deltas: tuple[DeltaTerm, ...] = ()
    densities: tuple[DensityTerm, ...] = ()

    def __post_init__(self):
        for t in self.deltas:
            if not self.domain.contains(t.point):
                raise NotContained(f"delta point {t.point} outside the domain")

    def __add__(self, other: "Distribution") -> "Distribution":
        if other.domain != self.domain:
            raise NotContained("distributions live on different domains")
        return _normalize(self.domain, self.deltas + other.deltas,
                          self.densities + other.densities)

    def __sub__(self, other: "Distribution") -> "Distribution":
        return self + (-1.0) * other

    def __rmul__(self, c: float) -> "Distribution":
        c = float(c)
        return Distribution(
            self.domain,
            tuple(DeltaTerm(t.point, t.order, c * t.coeff) for t in self.deltas),
            tuple(DensityTerm(t.fn, c * t.coeff) for t in self.densities),
        )

    def __neg__(self) -> "Distribution":
        return (-1.0) * self

    @property
    def max_delta_order(self) -> int:
        return max((t.order for t in self.deltas), default=0)


def _normalize(domain, deltas, densities) -> Distribution:
    merged: dict[tuple[float, int], float] = {}
    for t in deltas:
        key = (t.point, t.order)
        merged[key] = merged.get(key, 0.0) + t.coeff
    ds = tuple(DeltaTerm(p, o, c) for (p, o), c in merged.items() if c != 0.0)
    return Distribution(domain, ds, tuple(t for t in densities if t.coeff != 0.0))


# ---------------------------------------------------------------------------
# constructors


def delta(point: float = 0.0, order: int = 0, coeff: float = 1.0,
          domain: Domain = Domain.interval(-2.0, 2.0)) -> Distribution:
    return Distribution(domain, (DeltaTerm(float(point), int(order), float(coeff)),))


def regular(fn: SmoothFn, coeff: float = 1.0, domain: Domain | None = None) -> Distribution:
    return Distribution(domain or fn.domain, (), (DensityTerm(fn, float(coeff)),))


def heaviside(domain: Domain = Domain.interval(-2.0, 2.0), jump_at: float = 0.0) -> Distribution:
    """The unit step: density 0 left of ``jump_at``, 1 right of it."""
    fn = PiecewiseFn([jump_at], [constant(0.0), constant(1.0)], domain)
    return Distribution(domain, (), (DensityTerm(fn, 1.0),))


# ---------------------------------------------------------------------------
# pairing


def _at_rows(fns, idx, ys):
    """fns[idx[p]] at the nodes ys[p], one jet call per distinct index."""
    out = np.empty_like(ys)
    for j in np.unique(idx).tolist():
        on = idx == j
        out[on] = fns[j].jet(ys[on], 0)
    return out


def _pair_rows(u: Distribution, shape, point_jet, windows, breaks, row_values, *,
               rel_tol: float, abs_tol: float) -> QuadResult:
    """<u, row> for rows of test functions: value and error arrays of ``shape``.

    Point masses are exact jets, added first in ``u.deltas`` order:
    ``point_jet(a, n)`` holds every row's n-th derivative at a.  Each
    (density, row r) pair, r in C order, is one :func:`integrate` row over
    the overlap of the density's support with ``windows[r]``, cut at both
    breaks; ``row_values(r, ys)`` gives row r[p] at the nodes ys[p], and
    each density is evaluated once per round over the new nodes of its rows."""
    value, error = np.zeros(shape), np.zeros(shape)
    for t in u.deltas:
        value += t.coeff * (-1.0) ** t.order * point_jet(t.point, t.order)
    if not (u.densities and value.size):
        return QuadResult(value, error)
    W = np.asarray(windows, dtype=float)
    spans, cuts = [], []
    for t in u.densities:
        s = t.fn.support
        spans += (W if s is None else np.column_stack(
            [np.maximum(W[:, 0], s.lo), np.minimum(W[:, 1], s.hi)])).tolist()
        cuts += [(*t.fn.breaks, *b) for b in breaks]

    def integrand(rows, ys):
        dens, r = np.divmod(rows, value.size)
        return _at_rows([t.fn for t in u.densities], dens, ys) * row_values(r, ys)

    res = integrate(integrand, spans, rel_tol=rel_tol, abs_tol=abs_tol, points=cuts)
    for t, v, e in zip(u.densities, res.value.reshape((-1,) + value.shape),
                       res.error.reshape((-1,) + value.shape)):
        value += t.coeff * v
        error += abs(t.coeff) * e
    return QuadResult(value, error)


def pair(u: Distribution, phis, *, points=(), rel_tol: float = PAIR_REL_TOL,
         abs_tol: float = PAIR_ABS_TOL) -> QuadResult:
    """<u, phi> for each compactly supported smooth phi: value and error arrays.

    One :func:`_pair_rows` row per phi over its support, cut at its breaks
    and at ``points``.  A point mass outside phi's domain reads 0."""
    fs = [phi.fn if isinstance(phi, TestFn) else phi for phi in phis]
    for f in fs:
        if f.support is None:
            raise UnboundedSupport("pairing needs a compactly supported test function")
        if not u.domain.contains_interval(f.support.lo, f.support.hi, strict=True):
            raise NotContained("test function support must sit inside the domain")
    return _pair_rows(
        u, len(fs),
        lambda a, n: np.array([f.jet(a, n) if f.domain.contains(a) else 0.0 for f in fs]),
        [(f.support.lo, f.support.hi) for f in fs], [(*f.breaks, *points) for f in fs],
        lambda r, ys: _at_rows(fs, r, ys), rel_tol=rel_tol, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# mollification


def mollify(u: Distribution, rho: SmoothFn, k: float) -> SmoothFn:
    """The smooth function x -> <u, rho_k(x - .)>, rho_k(t) = k rho(k t).

    This is :func:`~gfkernel.kernel.apply_kernel` with a translation
    kernel, so delta terms are exact jets.  If some density has unbounded
    support the result only lives on the set of x whose window
    [x - r/k, x + r/k] stays inside the domain.
    """
    from .kernel import TranslationKernel, apply_kernel

    if rho.support is None:
        raise UnboundedSupport("mollifier needs compact support")
    ker = TranslationKernel(rho, k, u.domain)
    out = apply_kernel(ker, u)
    if all(t.fn.support is not None for t in u.densities):
        return out
    lo, hi = u.domain.hull()
    w = ker.radius_sup()
    dlo = lo + w if math.isfinite(lo) else lo
    dhi = hi - w if math.isfinite(hi) else hi
    if not dlo < dhi:
        raise UnboundedSupport(
            "domain too small for this mollifier window; supply a cutoff first")
    return restrict_view(out, Domain.interval(dlo, dhi))


# ---------------------------------------------------------------------------
# Lie derivative and smooth module structure


def lie_dist(X: VectorField, u: Distribution) -> Distribution:
    """Lie derivative along X, acting on distributions as densities.

    Defined through the adjoint pairing <L u, phi> = -<u, X phi' + X' phi>.
    Delta derivatives stay deltas; a density contributes X g' plus jump
    deltas X(p) [g](p) at each flagged discontinuity.
    """
    Xc = X.coef
    deltas: list[DeltaTerm] = []
    densities: list[DensityTerm] = []
    for t in u.deltas:
        n, a, c = t.order, t.point, t.coeff
        # row[r]: the coefficient of phi^(r)(a) in (X phi)^(n+1)(a)
        row = _leibniz(Xc.jets(np.array([a]), n + 1)[:, 0], np.eye(n + 2))[n + 1]
        for r in range(n + 2):
            coeff = -c * (-1.0) ** (n - r) * row[r]
            if coeff != 0.0:
                deltas.append(DeltaTerm(a, r, coeff))
    for t in u.densities:
        g = t.fn
        if isinstance(g, PiecewiseFn):
            newpieces = [derivative_fn(p) * Xc for p in g.pieces]
            densities.append(DensityTerm(
                PiecewiseFn(g.breaks, newpieces, g.domain), t.coeff))
            for i, b in enumerate(g.breaks):
                jump = g.pieces[i + 1].jet(b, 0) - g.pieces[i].jet(b, 0)
                amp = t.coeff * jump * Xc.jet(b, 0)
                if amp != 0.0:
                    deltas.append(DeltaTerm(b, 0, amp))
        elif g.breaks:
            raise IncompatiblePieces(
                "density with breaks must be a PiecewiseFn to take Lie derivatives")
        else:
            densities.append(DensityTerm(derivative_fn(g) * Xc, t.coeff))
    return _normalize(u.domain, tuple(deltas), tuple(densities))


def scale_dist(f: SmoothFn, u: Distribution) -> Distribution:
    """The module action f * u of smooth functions on distributions."""
    deltas: list[DeltaTerm] = []
    densities: list[DensityTerm] = []
    for t in u.deltas:
        n, a, c = t.order, t.point, t.coeff
        # row[r]: the coefficient of phi^(r)(a) in (f phi)^(n)(a)
        row = _leibniz(f.jets(np.array([a]), n)[:, 0], np.eye(n + 1))[n]
        for r in range(n, -1, -1):
            coeff = c * (-1.0) ** (n - r) * row[r]
            if coeff != 0.0:
                deltas.append(DeltaTerm(a, r, coeff))
    for t in u.densities:
        g = t.fn
        if isinstance(g, PiecewiseFn):
            densities.append(DensityTerm(
                PiecewiseFn(g.breaks, [p * f for p in g.pieces], g.domain), t.coeff))
        else:
            densities.append(DensityTerm(g * f, t.coeff))
    return _normalize(u.domain, tuple(deltas), tuple(densities))


# ---------------------------------------------------------------------------
# supports


def support_dist(u: Distribution) -> tuple[tuple[float, float], ...]:
    """Closed-in-domain intervals carrying u; points appear as (a, a)."""
    lo, hi = u.domain.hull()
    pieces: list[tuple[float, float]] = []
    for t in u.deltas:
        pieces.append((t.point, t.point))
    for t in u.densities:
        g = t.fn
        if isinstance(g, PiecewiseFn):
            edges = (lo,) + g.breaks + (hi,)
            for i, p in enumerate(g.pieces):
                if p.const_value == 0.0:
                    continue
                a, b = edges[i], edges[i + 1]
                if p.support is not None:
                    a, b = max(a, p.support.lo), min(b, p.support.hi)
                if a <= b:
                    pieces.append((a, b))
        elif g.support is not None:
            pieces.append((g.support.lo, g.support.hi))
        else:
            pieces.append((lo, hi))
    pieces.sort()
    merged: list[list[float]] = []
    for a, b in pieces:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


# ---------------------------------------------------------------------------
# restriction and transport


def restrict_dist(u: Distribution, V: Domain) -> Distribution:
    """The restriction u|_V: point masses outside V vanish, densities narrow."""
    if not V.is_subset(u.domain):
        raise NotContained("restriction target must sit inside the domain")
    deltas = tuple(t for t in u.deltas if V.contains(t.point))
    densities = tuple(
        DensityTerm(t.fn if t.fn.domain == V else restrict_view(t.fn, V), t.coeff)
        for t in u.densities)
    return Distribution(V, deltas, densities)


def pushforward_dist(u: Distribution, fwd: SmoothFn, inv: SmoothFn,
                     image: Domain) -> Distribution:
    """Transport along a diffeomorphism by plain precomposition.

    <mu_* u, g> = <u, g o mu>: point masses move to mu(point), with
    derivative orders mixing downward through the jet series of mu;
    densities change variables with the inverse Jacobian.  No Jacobian
    appears on the delta side under this convention: mu_* delta_a is
    exactly delta_{mu(a)}.
    """
    xs, xh = u.domain.hull()
    x_ref = 0.5 * (xs + xh) if math.isfinite(xs) and math.isfinite(xh) else 0.0
    slope_ref = float(fwd.jet(x_ref, 1))
    if slope_ref == 0.0:
        raise NotContained("transport map is critical inside the domain")
    sgn = math.copysign(1.0, slope_ref)

    deltas: list[DeltaTerm] = []
    for t in u.deltas:
        a, n, c = t.point, t.order, t.coeff
        mj = fwd.jets(np.array([a]), n)[:, 0]
        b = float(mj[0])
        # Faa di Bruno: P[m] is the t^n coefficient of (mu(a + t) - b)^m
        P = _series_compose(np.eye(n + 1), mj / _FACT[: n + 1])[n]
        for m in range(n + 1):
            if P[m] != 0.0:
                alpha = (-1.0) ** (n - m) * math.factorial(n) / math.factorial(m) * P[m]
                deltas.append(DeltaTerm(b, m, c * alpha))

    densities: list[DensityTerm] = []
    for t in u.densities:
        g = t.fn
        comp = compose(g, inv)
        h = (comp * derivative_fn(inv, 1)) * sgn
        supp = None
        if g.support is not None:
            lo = max(g.support.lo, xs)
            hi = min(g.support.hi, xh)
            if lo > hi:
                continue
            ends = sorted((float(fwd.jet(lo, 0)), float(fwd.jet(hi, 0))))
            supp = CompactInterval(ends[0], ends[1])
        brks = tuple(sorted(float(fwd.jet(bk, 0)) for bk in g.breaks
                            if u.domain.contains(bk)))
        h = SmoothFn(image, h._jet_all, support=supp, jet_cap=h.jet_cap,
                     breaks=brks)
        densities.append(DensityTerm(h, t.coeff))

    return _normalize(image, tuple(deltas), tuple(densities))


# ---------------------------------------------------------------------------
# deterministic probe battery


def default_test_battery(domain: Domain, n_centers: int = 4,
                         n_radii: int = 3) -> list[TestFn]:
    """Bump test functions at fixed centers and radii, supports inside domain.

    A deterministic surrogate for "all test functions" in weak-convergence
    and association checks.
    """
    from .smooth import bump

    lo, hi = domain.hull()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = max(lo, -3.0), min(hi, 3.0)
    L = hi - lo
    centers = np.linspace(lo + 0.3 * L, hi - 0.3 * L, n_centers)
    out = []
    for c in centers:
        maxr = 0.9 * min(c - lo, hi - c)
        for fr in np.linspace(0.3, 0.95, n_radii):
            b = bump(float(c), float(fr * maxr), domain)
            out.append(TestFn(b))
    return out
