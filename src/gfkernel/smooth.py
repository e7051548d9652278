"""Smooth functions on open subsets of the real line, with exact jets.

The whole library manipulates smooth objects through their *jets*: values
together with derivatives up to a configurable cap (``JET_CAP_DEFAULT``).
Derivatives of combined objects are never approximated numerically; sums,
products, affine substitutions and compositions propagate jets through the
usual calculus rules (linearity, Leibniz, and Faa di Bruno realized as
truncated-series arithmetic).

Suprema and integrals, by contrast, are honest numerics: :func:`seminorm`
samples a fixed grid (plus one midpoint refinement) and :func:`integrate`
is an adaptive Gauss-Kronrod rule.  Both are deterministic: same inputs,
same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    DomainMismatch,
    EmptyCover,
    GapInCover,
    InvalidRadius,
    JetCapExceeded,
    NoConvergence,
    NotContained,
    OutOfDomain,
    UnboundedSupport,
)

JET_CAP_DEFAULT = 8
SEMINORM_GRID = 257

_FACT = np.array([math.factorial(i) for i in range(64)], dtype=float)


# ---------------------------------------------------------------------------
# domains and supports


@dataclass(frozen=True)
class Domain:
    """An open subset of R: a finite union of disjoint open intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        last = -math.inf
        for lo, hi in self.intervals:
            if not lo < hi:
                raise DomainMismatch(f"degenerate interval ({lo}, {hi})")
            if lo < last:
                raise DomainMismatch("domain intervals must be sorted and disjoint")
            last = hi

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.intervals:
            out |= (x > lo) & (x < hi)
        return out

    def contains_interval(self, lo: float, hi: float, *, strict: bool = False) -> bool:
        """Whether [lo, hi] (or (lo, hi)) sits inside a single component."""
        for a, b in self.intervals:
            if strict:
                if a < lo and hi < b:
                    return True
            else:
                if a <= lo and hi <= b:
                    return True
            if a <= lo <= b or a <= hi <= b:
                # straddles a component boundary; no other component can help
                return False
        return False

    def is_subset(self, other: "Domain") -> bool:
        return all(other.contains_interval(lo, hi) for lo, hi in self.intervals)

    def intersect(self, other: "Domain") -> "Domain":
        pieces = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    pieces.append((lo, hi))
        if not pieces:
            raise DomainMismatch("domains do not overlap")
        return Domain(tuple(sorted(pieces)))

    def hull(self) -> tuple[float, float]:
        return self.intervals[0][0], self.intervals[-1][1]

    def component_of(self, x: float) -> tuple[float, float]:
        for lo, hi in self.intervals:
            if lo < x < hi:
                return lo, hi
        raise OutOfDomain(f"{x} not in domain {self.intervals}")

    @staticmethod
    def interval(lo: float, hi: float) -> "Domain":
        return Domain(((lo, hi),))


REALS = Domain(((-math.inf, math.inf),))


@dataclass(frozen=True)
class CompactInterval:
    """A closed bounded interval [lo, hi], used for supports and seminorms."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise NotContained(f"not a compact interval: [{self.lo}, {self.hi}]")

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x >= self.lo) & (x <= self.hi)

    def intersect(self, other: "CompactInterval") -> "CompactInterval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return CompactInterval(lo, hi) if lo <= hi else None

    def hull(self, other: "CompactInterval") -> "CompactInterval":
        return CompactInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# truncated-series helpers (coefficient arrays of shape (m+1, npoints))


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = a.shape[0] - 1
    out = np.zeros_like(a)
    for k in range(m + 1):
        for i in range(k + 1):
            out[k] += a[i] * b[k - i]
    return out


def _series_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a/b with b[0] bounded away from zero (caller's responsibility)
    m = a.shape[0] - 1
    out = np.zeros_like(a)
    out[0] = a[0] / b[0]
    for k in range(1, m + 1):
        acc = a[k].copy()
        for j in range(k):
            acc -= out[j] * b[k - j]
        out[k] = acc / b[0]
    return out


def _leibniz(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivatives 0..m of a product from those of its factors.

    Orders run along axis 0; the trailing axes of ``a`` broadcast against
    those of ``b``.  The sum starts from zeros and adds terms in ascending
    i, an order callers rely on for bit-stable results.
    """
    out = np.zeros(b.shape)
    for k in range(b.shape[0]):
        for i in range(k + 1):
            out[k] += math.comb(k, i) * a[i] * b[k - i]
    return out


def _jet_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Derivatives 0..m of a / b, shape (m+1, npoints), b bounded away from zero."""
    fact = _FACT[: a.shape[0], None]
    return _series_div(a / fact, b / fact) * fact


def _series_compose(fc: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """Coefficients of f(g(x)) given f-coeffs at g(x0) and g-coeffs at x0."""
    m = fc.shape[0] - 1
    gt = gc.copy()
    gt[0] = 0.0
    out = np.zeros_like(fc)
    out[0] = fc[m]
    for j in range(m - 1, -1, -1):
        out = _series_mul(out, gt)
        out[0] += fc[j]
    return out


# ---------------------------------------------------------------------------
# the core type


class SmoothFn:
    """A smooth function with vectorized jet evaluation.

    ``jet(x, m)`` returns the m-th derivative at x (scalar or ndarray).
    Outside a declared ``support`` the jets are exactly 0.0, not merely
    small; the negligibility tests downstream rely on that.  ``breaks``
    flags points where smoothness fails (piecewise data); quadrature
    splits there and jets use the right-hand branch.
    """

    __slots__ = ("domain", "support", "jet_cap", "const_value", "breaks", "_jet_all")

    def __init__(
        self,
        domain: Domain,
        jet_all: Callable[[np.ndarray, int], np.ndarray],
        *,
        support: CompactInterval | None = None,
        jet_cap: int = JET_CAP_DEFAULT,
        const_value: float | None = None,
        breaks: tuple[float, ...] = (),
    ):
        self.domain = domain
        self.support = support
        self.jet_cap = jet_cap
        self.const_value = const_value
        self.breaks = breaks
        self._jet_all = jet_all

    # -- evaluation --------------------------------------------------------

    def _masked_all(self, x: np.ndarray, m: int) -> np.ndarray:
        """All jets 0..m at in-domain points, with the support mask applied."""
        if self.support is not None:
            inside = self.support.contains(x)
            vals = np.zeros((m + 1, x.size))
            if inside.any():
                vals[:, inside] = self._jet_all(x[inside], m)
            return vals
        return self._jet_all(x, m)

    def _checked_all(self, x, m: int) -> np.ndarray:
        """All jets 0..m, shape (m+1,) + x.shape, after the order, jet-cap
        and domain checks."""
        if m < 0:
            raise ValueError("derivative order must be >= 0")
        if m > self.jet_cap:
            raise JetCapExceeded(f"order {m} exceeds jet cap {self.jet_cap}")
        arr = np.asarray(x, dtype=float)
        flat = np.atleast_1d(arr).ravel()
        inside = self.domain.contains(flat)
        if not inside.all():
            raise OutOfDomain(f"{flat[~inside][0]} not in domain {self.domain.intervals}")
        return self._masked_all(flat, m).reshape((m + 1,) + arr.shape)

    def jet(self, x, m: int = 0):
        vals = self._checked_all(x, m)[m]
        return float(vals) if vals.ndim == 0 else vals

    def jets(self, x, m: int) -> np.ndarray:
        """All derivatives 0..m at once, shape (m+1,) + x.shape."""
        return self._checked_all(x, m)

    def __call__(self, x):
        return self.jet(x, 0)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SmoothFn):
            return lin_comb([self, other], [1.0, 1.0])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SmoothFn):
            return lin_comb([self, other], [1.0, -1.0])
        return NotImplemented

    def __neg__(self):
        return lin_comb([self], [-1.0])

    def __mul__(self, other):
        if isinstance(other, SmoothFn):
            return _product(self, other)
        if isinstance(other, (int, float)):
            return lin_comb([self], [float(other)])
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        s = f"[{self.support.lo:.4g},{self.support.hi:.4g}]" if self.support else "-"
        return f"SmoothFn(domain={self.domain.intervals}, supp={s}, cap={self.jet_cap})"


class PiecewiseFn(SmoothFn):
    """Smooth away from finitely many flagged break points.

    Jets at a break use the right-hand piece; pairings never see the
    difference (the flags force quadrature splits there).
    """

    __slots__ = ("pieces",)

    def __init__(self, breaks: Sequence[float], pieces: Sequence[SmoothFn], domain: Domain):
        if len(pieces) != len(breaks) + 1:
            raise ValueError("need exactly one piece more than breaks")
        bks = tuple(float(b) for b in breaks)
        if list(bks) != sorted(bks):
            raise ValueError("breaks must be sorted")
        self.pieces = tuple(pieces)
        cap = min(p.jet_cap for p in pieces)
        bk_arr = np.asarray(bks)

        def jet_all(x, m):
            idx = np.searchsorted(bk_arr, x, side="right")
            out = np.zeros((m + 1, x.size))
            for i, p in enumerate(self.pieces):
                mask = idx == i
                if mask.any():
                    out[:, mask] = p._masked_all(x[mask], m)
            return out

        super().__init__(domain, jet_all, jet_cap=cap, breaks=bks)


def constant(c: float, domain: Domain = REALS) -> SmoothFn:
    c = float(c)

    def jet_all(x, m):
        out = np.zeros((m + 1, x.size))
        out[0] = c
        return out

    return SmoothFn(domain, jet_all, const_value=c, jet_cap=99)


def polynomial(coeffs: Sequence[float], domain: Domain = REALS) -> SmoothFn:
    base = np.asarray(coeffs, dtype=float)
    derived = [base]

    def jet_all(x, m):
        while len(derived) <= m:
            derived.append(npoly.polyder(derived[-1]))
        out = np.empty((m + 1, x.size))
        for j in range(m + 1):
            out[j] = npoly.polyval(x, derived[j])
        return out

    cv = float(base[0]) if base.size == 1 or not base[1:].any() else None
    return SmoothFn(domain, jet_all, const_value=cv, jet_cap=99)


def sin_fn(domain: Domain = REALS) -> SmoothFn:
    def jet_all(x, m):
        out = np.empty((m + 1, x.size))
        table = (np.sin(x), np.cos(x), -np.sin(x), -np.cos(x))
        for j in range(m + 1):
            out[j] = table[j % 4]
        return out

    return SmoothFn(domain, jet_all, jet_cap=99)


def exp_fn(domain: Domain = REALS) -> SmoothFn:
    def jet_all(x, m):
        e = np.exp(x)
        return np.tile(e, (m + 1, 1))

    return SmoothFn(domain, jet_all, jet_cap=99)


# ---------------------------------------------------------------------------
# bump functions and plateaus

# Numerically dead zone: once 1 - 1/(1-t^2) drops below this, exp underflows
# and every derivative is an exact double-precision zero.  Returning 0.0
# outright avoids inf * 0 from the rational prefactors.
_EXP_UNDERFLOW = -700.0


def bump(center: float = 0.0, radius: float = 1.0, domain: Domain = REALS) -> SmoothFn:
    """The standard bump exp(1 - 1/(1 - t^2)), t = (x-center)/radius.

    Value 1 at the center, support exactly [center-radius, center+radius].
    The m-th derivative is P_m(t) / (1-t^2)^(2m) * g(t) / radius^m with the
    polynomial recurrence

        P_0 = 1,   P_{m+1} = P_m' (1-t^2)^2 + (4 m t (1-t^2) - 2 t) P_m,

    which follows from g' = -2t/(1-t^2)^2 * g.
    """
    if not (radius > 0 and math.isfinite(radius)):
        raise InvalidRadius(f"radius must be positive and finite, got {radius}")
    polys: list[np.ndarray] = [np.array([1.0])]
    w2 = np.array([1.0, 0.0, -1.0])  # 1 - t^2

    def prefactor(m: int) -> np.ndarray:
        while len(polys) <= m:
            j = len(polys) - 1
            P = polys[-1]
            nxt = npoly.polymul(npoly.polyder(P), npoly.polymul(w2, w2))
            nxt = npoly.polyadd(nxt, npoly.polymul(npoly.polymul([0.0, 1.0], P),
                                                   npoly.polyadd(4.0 * j * w2, [-2.0])))
            polys.append(nxt)
        return polys[m]

    def jet_all(x, m):
        t = (x - center) / radius
        w = 1.0 - t * t
        live = w > 0
        expo = np.where(live, 1.0 - 1.0 / np.where(live, w, 1.0), _EXP_UNDERFLOW - 1)
        live &= expo > _EXP_UNDERFLOW
        g = np.where(live, np.exp(np.where(live, expo, 0.0)), 0.0)
        out = np.zeros((m + 1, x.size))
        if not live.any():
            return out
        tl, wl, gl = t[live], w[live], g[live]
        scale = 1.0
        for j in range(m + 1):
            out[j, live] = npoly.polyval(tl, prefactor(j)) / wl ** (2 * j) * gl / scale
            scale *= radius
        return out

    return SmoothFn(domain, jet_all, jet_cap=12,
                    support=CompactInterval(center - radius, center + radius))


def _expnegrecip_jets(t: np.ndarray, m: int) -> np.ndarray:
    """Jets of t -> exp(-1/t) for t > 0 (0 elsewhere), via Q_{j+1} = s^2 (Q_j - Q_j')."""
    out = np.zeros((m + 1, t.size))
    live = t > -1.0 / _EXP_UNDERFLOW
    if not live.any():
        return out
    s = 1.0 / t[live]
    e = np.exp(-s)
    Q = np.array([1.0])
    s2 = np.array([0.0, 0.0, 1.0])
    for j in range(m + 1):
        out[j, live] = npoly.polyval(s, Q) * e
        Q = npoly.polymul(s2, npoly.polysub(Q, npoly.polyder(Q)))
    return out


def _step_jets(t: np.ndarray, m: int) -> np.ndarray:
    """Jets of the smooth step S(t) = f(t) / (f(t) + f(1-t)), f(t) = exp(-1/t).

    S is exactly 0 for t <= 0 and exactly 1 for t >= 1; the division is
    well conditioned because the denominator is bounded below on (0, 1).
    """
    out = np.zeros((m + 1, t.size))
    out[0, t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if not mid.any():
        return out
    tm = t[mid]
    F = _expnegrecip_jets(tm, m)
    G = _expnegrecip_jets(1.0 - tm, m)
    sign = np.array([(-1.0) ** j for j in range(m + 1)])[:, None]
    G = G * sign
    out[:, mid] = _jet_div(F, F + G)
    return out


def smoothstep(x0: float, x1: float, domain: Domain = REALS) -> SmoothFn:
    """Monotone C-infinity step: exactly 0 left of x0, exactly 1 right of x1."""
    if not x0 < x1:
        raise InvalidRadius("smoothstep needs x0 < x1")
    w = x1 - x0

    def jet_all(x, m):
        t = (x - x0) / w
        vals = _step_jets(t, m)
        chain = np.array([w ** (-j) for j in range(m + 1)])[:, None]
        return vals * chain

    return SmoothFn(domain, jet_all, jet_cap=12)


def plateau(lo: float, hi: float, rise: float, domain: Domain = REALS) -> SmoothFn:
    """Cutoff that is exactly 1 on [lo, hi], with support [lo-rise, hi+rise].

    Product of a rising and a falling smooth step; on the plateau both
    factors are exactly 1.0, so downstream eventual-equality certificates
    see genuine floating-point identity, not approximation.
    """
    if not (rise > 0 and lo <= hi):
        raise InvalidRadius(f"bad plateau data lo={lo} hi={hi} rise={rise}")

    def jet_all(x, m):
        tu = (x - (lo - rise)) / rise
        td = ((hi + rise) - x) / rise
        U = _step_jets(tu, m)
        D = _step_jets(td, m)
        cu = np.array([rise ** (-j) for j in range(m + 1)])[:, None]
        cd = np.array([(-1.0 / rise) ** j for j in range(m + 1)])[:, None]
        return _leibniz(U * cu, D * cd)

    return SmoothFn(domain, jet_all, jet_cap=12,
                    support=CompactInterval(lo - rise, hi + rise))


# ---------------------------------------------------------------------------
# combinators


def lin_comb(fns: Sequence[SmoothFn], coefs: Sequence[float]) -> SmoothFn:
    if len(fns) != len(coefs):
        raise ValueError("length mismatch")
    fns = list(fns)
    coefs = [float(c) for c in coefs]
    dom = fns[0].domain
    for f in fns[1:]:
        if f.domain != dom:
            dom = dom.intersect(f.domain)
    cap = min(f.jet_cap for f in fns)
    supp = None
    if all(f.support is not None for f in fns):
        supp = fns[0].support
        for f in fns[1:]:
            supp = supp.hull(f.support)
    breaks = tuple(sorted({b for f in fns for b in f.breaks}))
    cv = None
    if all(f.const_value is not None for f in fns):
        cv = sum(c * f.const_value for c, f in zip(coefs, fns))

    def jet_all(x, m):
        out = np.zeros((m + 1, x.size))
        for c, f in zip(coefs, fns):
            out += c * f._masked_all(x, m)
        return out

    return SmoothFn(dom, jet_all, support=supp, jet_cap=cap, const_value=cv, breaks=breaks)


def _product(*fns: SmoothFn, right: bool = False) -> SmoothFn:
    """The product of a chain in one closure: ((f1 f2) f3)..., or with
    ``right`` f1 (f2 (f3 ...)).

    Every jet and attribute is that of the nested binary products, bit
    for bit; a pair of disjoint supports makes the running product the
    constant 0, and the factors before it are never evaluated.
    """
    order = fns[::-1] if right else fns
    f = order[0]
    dom, cap, supp, cv = f.domain, f.jet_cap, f.support, f.const_value
    breaks = set(f.breaks)
    start = 0
    for i, g in enumerate(order[1:], 1):
        dom = dom if dom == g.domain else dom.intersect(g.domain)
        if supp is not None and g.support is not None:
            supp = supp.intersect(g.support)
            if supp is None:  # from here on, a product with constant(0.0)
                cap, cv, breaks, start = 99, 0.0, set(), i + 1
                continue
        supp = g.support if supp is None else supp
        cap = min(cap, g.jet_cap)
        breaks |= set(g.breaks)
        cv = None if cv is None or g.const_value is None else cv * g.const_value

    def jet_all(x, m):
        acc = np.zeros((m + 1, x.size)) if start else order[0]._masked_all(x, m)
        for g in order[max(start, 1):]:
            G = g._masked_all(x, m)
            acc = _leibniz(G, acc) if right else _leibniz(acc, G)
        return acc

    return SmoothFn(dom, jet_all, support=supp, jet_cap=cap, const_value=cv,
                    breaks=tuple(sorted(breaks)))


def compose(outer: SmoothFn, inner: SmoothFn) -> SmoothFn:
    """outer after inner, with exact jet propagation."""
    cap = min(outer.jet_cap, inner.jet_cap)

    def jet_all(x, m):
        G = inner._masked_all(x, m)
        g0 = G[0]
        if not outer.domain.contains(g0).all():
            raise OutOfDomain("inner function leaves the outer domain")
        F = outer._jet_all(g0, m) if outer.support is None else outer._masked_all(g0, m)
        if m == 0:
            return F
        fact = _FACT[: m + 1, None]
        hc = _series_compose(F / fact, G / fact)
        return hc * fact

    return SmoothFn(inner.domain, jet_all, jet_cap=cap, breaks=inner.breaks)


def derivative_fn(f: SmoothFn, order: int = 1) -> SmoothFn:
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return f
    if f.jet_cap < order:
        raise JetCapExceeded(f"cannot differentiate {order} times past cap {f.jet_cap}")

    def jet_all(x, m):
        return f._masked_all(x, m + order)[order:]

    return SmoothFn(f.domain, jet_all, support=f.support,
                    jet_cap=f.jet_cap - order, breaks=f.breaks)


def restrict_view(f: SmoothFn, sub: Domain) -> SmoothFn:
    """The same jets on a smaller open set."""
    if not sub.is_subset(f.domain):
        raise NotContained("restriction target is not a subset")
    return SmoothFn(sub, f._jet_all, support=f.support, jet_cap=f.jet_cap,
                    const_value=f.const_value, breaks=f.breaks)


def extend_by_zero(f: SmoothFn, new_domain: Domain) -> SmoothFn:
    """Zero-extension of a compactly supported function to a larger open set."""
    if f.support is None:
        raise UnboundedSupport("extend_by_zero needs a declared compact support")
    if not new_domain.contains_interval(f.support.lo, f.support.hi, strict=True):
        raise NotContained("support must sit strictly inside the new domain")

    def jet_all(x, m):
        out = np.zeros((m + 1, x.size))
        inside = f.support.contains(x) & f.domain.contains(x)
        if inside.any():
            out[:, inside] = f._jet_all(x[inside], m)
        return out

    return SmoothFn(new_domain, jet_all, support=f.support, jet_cap=f.jet_cap,
                    breaks=f.breaks)


# ---------------------------------------------------------------------------
# test functions and vector fields


@dataclass(frozen=True)
class TestFn:
    """A smooth function with compact support strictly inside its open domain."""

    fn: SmoothFn

    def __post_init__(self):
        s = self.fn.support
        if s is None:
            raise UnboundedSupport("test functions need a declared compact support")
        lo, hi = self.fn.domain.hull()
        if not (lo < s.lo and s.hi < hi):
            raise NotContained(
                f"support [{s.lo}, {s.hi}] must be strictly inside ({lo}, {hi})")

    @property
    def support(self) -> CompactInterval:
        return self.fn.support

    @property
    def domain(self) -> Domain:
        return self.fn.domain

    def jet(self, x, m: int = 0):
        return self.fn.jet(x, m)

    def __call__(self, x):
        return self.fn.jet(x, 0)

    def __add__(self, other: "TestFn") -> "TestFn":
        return TestFn(self.fn + other.fn)

    def __sub__(self, other: "TestFn") -> "TestFn":
        return TestFn(self.fn - other.fn)

    def __rmul__(self, c: float) -> "TestFn":
        return TestFn(lin_comb([self.fn], [float(c)]))

    def __neg__(self) -> "TestFn":
        return TestFn(lin_comb([self.fn], [-1.0]))


@dataclass(frozen=True)
class VectorField:
    """A complete smooth vector field X = coef(x) d/dx on its domain."""

    coef: SmoothFn

    @property
    def domain(self) -> Domain:
        return self.coef.domain


def constant_field(c: float, domain: Domain = REALS) -> VectorField:
    return VectorField(constant(c, domain))


def lie_smooth(X: VectorField, f: SmoothFn) -> SmoothFn:
    """Lie derivative X f' of a scalar field along X.

    Supports are preserved; the jet cap drops by one.
    """
    out = _product(X.coef, derivative_fn(f, 1))
    if f.support is not None and out.support is None:
        out = SmoothFn(out.domain, out._jet_all, support=f.support,
                       jet_cap=out.jet_cap, breaks=out.breaks)
    return out


# ---------------------------------------------------------------------------
# seminorms


def seminorm(f: SmoothFn, K: CompactInterval, m: int | tuple[int, ...], *,
             grid: int = SEMINORM_GRID) -> float | tuple[float, ...]:
    """sup over K of |f^(a)| for all orders a <= m, on a deterministic grid.

    The grid has ``grid`` uniform points plus one midpoint refinement pass
    (midpoints of every adjacent pair), i.e. 2*grid - 1 samples total.
    Two zoom passes then resample densely around the best point seen, so
    a narrow spike straddling two grid points is still measured; the
    estimate never decreases with zooming.

    For a tuple of orders m, a tuple of each order's float, bit for bit:
    one grid pass at the top order serves all, each zooms on its own.
    """
    if not f.domain.contains_interval(K.lo, K.hi, strict=True):
        raise OutOfDomain(f"compact [{K.lo}, {K.hi}] not inside domain")
    orders = (m,) if np.ndim(m) == 0 else tuple(m)
    if min(orders) < 0:
        raise ValueError("derivative order must be >= 0")
    xs = np.linspace(K.lo, K.hi, grid)
    mids = 0.5 * (xs[:-1] + xs[1:])
    pts = np.concatenate([xs, mids])
    grid_vals = np.abs(f.jets(pts, max(orders)))
    out = []
    for o in orders:
        vals = grid_vals[: o + 1]
        best = float(vals.max())
        x0 = float(pts[vals.max(axis=0).argmax()])
        h = 0.5 * (K.hi - K.lo) / (grid - 1)
        for _ in range(2):
            zpts = np.linspace(max(K.lo, x0 - h), min(K.hi, x0 + h), 65)
            zv = np.abs(f.jets(zpts, o))
            zbest = float(zv.max())
            if zbest > best:
                best = zbest
                x0 = float(zpts[zv.max(axis=0).argmax()])
            h /= 32.0
        out.append(best)
    return out[0] if np.ndim(m) == 0 else tuple(out)


# ---------------------------------------------------------------------------
# adaptive quadrature (Gauss-Kronrod 7/15)

_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GK_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


class QuadResult(NamedTuple):
    """An integral estimate and its error bound (per-row arrays from
    :func:`integrate_rows`)."""

    value: float
    error: float


def _gk_panel(fn, lo: np.ndarray, hi: np.ndarray):
    """Kronrod value, |Kronrod - Gauss| error and |f| mass of the panels
    (lo[p], hi[p]), from one ``fn`` call on their nodes, shape (P, 15).
    ``vecdot`` takes the 1-D dot ``w @ y`` per panel; a matrix product
    would round differently.  A non-finite mass raises
    :class:`NoConvergence` before the other sums can warn: no refinement
    gets past it."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ys = fn(c[:, None] + h[:, None] * _GK_NODES)
    mass = h * np.vecdot(np.abs(ys), _GK_WK)
    finite = np.isfinite(mass)
    if not finite.all():
        p = int(np.argmin(finite))
        raise NoConvergence(f"integrand not finite on panel ({lo[p]}, {hi[p]})",
                            math.nan, math.inf)
    ik = h * np.vecdot(ys, _GK_WK)
    return ik, abs(ik - h * np.vecdot(ys[:, 1::2], _GK_WG)), mass


_QUAD_NOISE = 1e-14  # relative to the integral of |f|
MAX_PANELS = 4096


def _cuts(lo: float, hi: float, points: Iterable[float]) -> list[float]:
    """Initial panel boundaries: the interval's ends and its interior points."""
    return sorted({lo, hi, *(p for p in points if lo < p < hi)})


def _accepts(total, toterr, mass, rel_tol: float, abs_tol: float):
    """Acceptance of summed panels, elementwise.  The floor term is the
    node sums' cancellation noise, which no refinement gets below."""
    return toterr <= np.fmax(np.fmax(abs_tol, rel_tol * abs(total)),
                             _QUAD_NOISE * mass)


def integrate(fn, interval, *, rel_tol: float = 1e-9, abs_tol: float = 1e-12,
              points: Iterable[float] = ()) -> QuadResult:
    """Deterministic adaptive Gauss-Kronrod integration of a vectorized fn.

    ``fn`` maps a 1-D array of x to the integrand's values there.  The
    integral is the one-row case of :func:`integrate_rows`, whose loop
    and acceptance it shares, and whose :class:`NoConvergence` it raises.
    ``points`` lists interior locations that force panel boundaries
    (support edges, piecewise breaks).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        return QuadResult(0.0, 0.0)

    def rows_fn(rows, ys):
        return np.asarray(fn(ys.ravel()), dtype=float).reshape(ys.shape)

    res = integrate_rows(rows_fn, [_cuts(lo, hi, points)], rel_tol=rel_tol, abs_tol=abs_tol)
    return QuadResult(float(res.value[0]), float(res.error[0]))


def integrate_rows(fn, cuts, *, rel_tol: float, abs_tol: float) -> QuadResult:
    """Adaptive Gauss-Kronrod 7/15 on many rows at once, one integral per row.

    ``cuts[r]``: row r's initial panel boundaries (``_cuts``; empty for a
    zero row).  ``fn(rows, ys)``: the integrands at nodes ``ys`` (P, 15),
    node row p in row ``rows[p]``, called once per round for the new
    panels of every unsettled row.  Each round splits every unsettled
    row's panel with the largest error estimate (ties: the leftmost) and
    sums each row's panels left to right, so a row's floats do not depend
    on the other rows.  Returns per-row values and the error estimates
    they were accepted with.

    Tolerances below the roundoff of summing |f| are unreachable for a
    cancelling integrand; acceptance therefore includes a noise floor
    proportional to the integral of |f|.  Raises :class:`NoConvergence`
    when the first row exhausts the panel budget (with its estimate and
    bound) or meets a non-finite integrand.
    """
    value, error = np.zeros(len(cuts)), np.zeros(len(cuts))
    nrow = np.repeat(np.arange(len(cuts)), [max(len(c) - 1, 0) for c in cuts])
    nab = np.array([p for c in cuts for p in zip(c[:-1], c[1:])]).reshape(-1, 2)
    # panels (lo, hi, value, error, mass) of unsettled rows, grouped by
    # row, a split panel's halves at the end of its row
    prow, pan = nrow[:0], np.empty((0, 5))
    while nrow.size:
        sums = _gk_panel(lambda ys: fn(nrow, ys), nab[:, 0], nab[:, 1])
        order = np.argsort(np.concatenate([prow, nrow]), kind="stable")
        prow = np.concatenate([prow, nrow])[order]
        pan = np.concatenate([pan, np.column_stack((nab,) + sums)])[order]
        start = np.flatnonzero(np.r_[True, prow[1:] != prow[:-1]])
        count = np.diff(np.r_[start, prow.size])
        group = np.repeat(np.arange(start.size), count)
        # left to right from a zero start; np.sum is pairwise
        pad = np.zeros((count.max() + 1, start.size, 3))
        pad[np.arange(prow.size) - start[group] + 1, group] = pan[:, 2:]
        total, toterr, mass = np.add.accumulate(pad, axis=0)[-1].T
        done = _accepts(total, toterr, mass, rel_tol, abs_tol)
        value[prow[start[done]]] = total[done]
        error[prow[start[done]]] = toterr[done]
        spent = ~done & (count >= MAX_PANELS)
        if spent.any():
            i = int(np.argmax(spent))
            raise NoConvergence(f"quadrature budget ({MAX_PANELS} panels) exhausted",
                                float(total[i]), float(toterr[i]))
        # worst panel of each unsettled row: largest error, then leftmost
        by = np.lexsort((pan[:, 0], -pan[:, 3], prow))
        worst = by[np.r_[True, prow[by][1:] != prow[by][:-1]]][~done]
        keep = ~done[group]
        keep[worst] = False
        a, b = pan[worst, 0], pan[worst, 1]
        nrow = np.repeat(prow[worst], 2)
        nab = np.column_stack([a, 0.5 * (a + b), 0.5 * (a + b), b]).reshape(-1, 2)
        prow, pan = prow[keep], pan[keep]
    return QuadResult(value, error)


# ---------------------------------------------------------------------------
# partitions of unity


class PartitionOfUnity:
    """Smooth chi_key >= 0 summing to 1 on ``domain``, supp chi_key in piece key.

    Subclasses give the geometry: ``piece(key)``, ``_overlaps(key)`` (the
    (left, right) widths shared with the neighbors, None on a side with no
    neighbor, where the bump stays flat) and ``active_keys(x)``, the
    pieces containing x.  Bumps rise and fall strictly inside the overlaps
    and are exactly 0 outside their piece, so chi_key is bump_key over the
    sum of the active bumps.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self._bumps: dict = {}
        self._chis: dict = {}

    def bump(self, key) -> SmoothFn:
        if key not in self._bumps:
            a, b = self.piece(key)
            ol, orr = self._overlaps(key)
            factors = []
            if ol is not None:
                factors.append(smoothstep(a + 0.25 * ol, a + 0.75 * ol))
            if orr is not None:
                factors.append(constant(1.0) - smoothstep(b - 0.75 * orr, b - 0.25 * orr))
            g = constant(1.0)  # the one piece of a one-piece cover
            if factors:
                g = factors[0] if len(factors) == 1 else _product(*factors)
                supp = CompactInterval(a if ol is None else a + 0.25 * ol,
                                       b if orr is None else b - 0.25 * orr)
                g = SmoothFn(g.domain, g._jet_all, jet_cap=g.jet_cap, support=supp)
            self._bumps[key] = g
        return self._bumps[key]

    def chi(self, key) -> SmoothFn:
        """The normalized partition function for a piece, smooth on the domain."""
        if key not in self._chis:

            def jet_all(x, m):
                out = np.zeros((m + 1, x.size))
                for i in range(x.size):
                    keys = self.active_keys(float(x[i]))
                    if key not in keys:
                        continue
                    xi = x[i:i + 1]
                    total = sum(self.bump(kk)._masked_all(xi, m) for kk in keys)
                    out[:, i:i + 1] = _jet_div(self.bump(key)._masked_all(xi, m), total)
                return out

            g = self.bump(key)
            self._chis[key] = SmoothFn(self.domain, jet_all, support=g.support,
                                       jet_cap=g.jet_cap)
        return self._chis[key]


class _CoverPartition(PartitionOfUnity):
    """The partition of a finite staggered cover; keys are sorted positions."""

    def __init__(self, pieces: tuple[tuple[float, float], ...]):
        super().__init__(Domain.interval(pieces[0][0], pieces[-1][1]))
        self.pieces = pieces

    def piece(self, key: int) -> tuple[float, float]:
        return self.pieces[key]

    def _overlaps(self, key: int) -> tuple[float | None, float | None]:
        a, b = self.pieces[key]
        ol = self.pieces[key - 1][1] - a if key > 0 else None
        orr = b - self.pieces[key + 1][0] if key + 1 < len(self.pieces) else None
        return (ol, orr)

    def active_keys(self, x: float) -> list:
        return [i for i, (a, b) in enumerate(self.pieces) if a < x < b]


def partition_of_unity(cover: Sequence[tuple[float, float]]) -> PartitionOfUnity:
    """A partition of unity subordinate to a finite interval cover.

    Pieces must be staggered: sorted, overlapping consecutively, none
    swallowed by its neighbors.  Keys are the positions of the sorted
    pieces.  Pieces touching the boundary of the union stay flat there, so
    the sum is exactly representable and normalization never divides by
    anything small.
    """
    pieces = sorted((float(a), float(b)) for a, b in cover)
    if not pieces:
        raise EmptyCover("no cover pieces given")
    for (a, b) in pieces:
        if not a < b:
            raise GapInCover(f"degenerate cover piece ({a}, {b})")
    his = [p[1] for p in pieces]  # the lower ends are sorted already
    if his != sorted(his):
        raise GapInCover("cover pieces must be staggered, none contained in another")
    for (a0, b0), (a1, b1) in zip(pieces[:-1], pieces[1:]):
        if not a1 < b0:
            raise GapInCover(f"pieces ({a0}, {b0}) and ({a1}, {b1}) do not overlap")
    return _CoverPartition(tuple(pieces))


class DyadicPartition(PartitionOfUnity):
    """A lazy, locally finite partition of unity on an open interval.

    Pieces are relatively compact in the domain: a central core, dyadic
    rings accumulating at each finite endpoint, and unit tiles marching to
    infinity on unbounded sides.  Consecutive pieces overlap by a fixed
    fraction.  Every piece key also has a companion plateau ``cutoff``
    equal to 1 on a neighborhood of the piece and compactly supported in
    the domain; restriction and embedding constructions use both.
    """

    RING_BASE = 4.0  # core margin = length / RING_BASE

    def __init__(self, domain: Domain):
        if len(domain.intervals) != 1:
            raise DomainMismatch("dyadic partitions want a single interval")
        super().__init__(domain)
        self.lo, self.hi = domain.intervals[0]
        self._cutoffs: dict = {}
        if math.isfinite(self.lo) and math.isfinite(self.hi):
            self.D = (self.hi - self.lo) / self.RING_BASE
        else:
            self.D = 1.0

    # -- geometry ----------------------------------------------------------

    def piece(self, key) -> tuple[float, float]:
        kind = key[0]
        if kind == "core":
            return (self.lo + self.D / 2.0, self.hi - self.D / 2.0)
        if kind == "L":
            ell = key[1]
            return (self.lo + self.D * 2.0 ** (-ell - 1), self.lo + self.D * 2.0 ** (-ell + 1))
        if kind == "R":
            ell = key[1]
            return (self.hi - self.D * 2.0 ** (-ell + 1), self.hi - self.D * 2.0 ** (-ell - 1))
        if kind == "T":
            n = key[1]
            if math.isfinite(self.lo) and not math.isfinite(self.hi):
                base = self.lo + 0.5
                return (base + 0.75 * n, base + 0.75 * n + 1.0)
            if math.isfinite(self.hi) and not math.isfinite(self.lo):
                base = self.hi - 0.5
                return (base - 0.75 * n - 1.0, base - 0.75 * n)
            return (0.75 * n - 0.5, 0.75 * n + 0.5)
        raise KeyError(key)

    def _ring_keys(self, side: str, d: float) -> list:
        # rings at depth ell cover distances (D 2^-ell-1, D 2^-ell+1)
        if d <= 0 or d >= self.D:
            return []
        lc = math.log2(self.D / d)
        out = []
        for ell in range(max(1, math.floor(lc)), math.ceil(lc) + 2):
            a = self.D * 2.0 ** (-ell - 1)
            b = self.D * 2.0 ** (-ell + 1)
            if a < d < b:
                out.append((side, ell))
        return out

    def active_keys(self, x: float) -> list:
        if not (self.lo < x < self.hi):
            raise OutOfDomain(f"{x} not in ({self.lo}, {self.hi})")
        keys = []
        fin_lo, fin_hi = math.isfinite(self.lo), math.isfinite(self.hi)
        if fin_lo and fin_hi:
            dl, dr = x - self.lo, self.hi - x
            if dl > self.D / 2.0 and dr > self.D / 2.0:
                keys.append(("core",))
            keys += self._ring_keys("L", dl)
            keys += self._ring_keys("R", dr)
            return keys
        if fin_lo:
            keys += self._ring_keys("L", x - self.lo)
            u = (x - self.lo - 0.5) / 0.75  # tile n is active iff u - 4/3 < n < u
            lo_n = max(0, math.ceil(u - 4.0 / 3.0))
        elif fin_hi:
            keys += self._ring_keys("R", self.hi - x)
            u = (self.hi - 0.5 - x) / 0.75
            lo_n = max(0, math.ceil(u - 4.0 / 3.0))
        else:
            u = (x + 0.5) / 0.75  # tile n covers (0.75 n - 0.5, 0.75 n + 0.5)
            lo_n = math.ceil(u - 4.0 / 3.0)
        for n in range(lo_n, math.floor(u) + 1):
            a, b = self.piece(("T", n))
            if a < x < b:
                keys.append(("T", n))
        return keys

    def _overlaps(self, key) -> tuple[float, float]:
        """(left, right) overlap widths of a piece with its neighbors."""
        kind = key[0]
        if kind == "core":
            return (self.D / 2.0, self.D / 2.0)
        if kind in ("L", "R"):
            ell = key[1]
            deeper = self.D * 2.0 ** (-ell - 1)   # overlap with ring ell+1
            shallower = self.D * 2.0 ** (-ell)    # overlap with ring ell-1 / core / tile0
            return (deeper, shallower) if kind == "L" else (shallower, deeper)
        # tiles overlap 0.25 on both sides (ring1/tile chain)
        return (0.25, 0.25)

    # -- smooth data -------------------------------------------------------

    def cutoff(self, key) -> SmoothFn:
        """Plateau equal to 1 on a neighborhood of the piece, supported in the domain."""
        if key not in self._cutoffs:
            a, b = self.piece(key)
            kind = key[0]
            if kind == "core":
                margin = self.D / 2.0
            elif kind in ("L", "R"):
                margin = self.D * 2.0 ** (-key[1] - 1)
            else:
                margin = 0.5
            delta = margin / 2.0
            self._cutoffs[key] = plateau(a - delta / 2.0, b + delta / 2.0, delta / 2.0)
        return self._cutoffs[key]
