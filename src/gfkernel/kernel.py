"""Smoothing kernels: smooth maps from an open set into test densities.

A kernel assigns to each x a compactly supported smooth density in y;
rated sequences of kernels (indexed by k) drive every regularization in
the package.  All variants expose exact mixed jets

    jets(x, mx, ys, my)[i, j, n] = d^i/dx^i d^j/dy^j phi(x, y_n),

computed structurally through truncated Taylor series, never by finite
differences.  Exact mixed jets are what keep delta pairings and
Lie-derivative identities at machine precision downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dist import Distribution, _pair_rows, support_dist
from .errors import (
    DomainMismatch,
    IncompatiblePieces,
    InvalidRadius,
    JetCapExceeded,
    NotContained,
    OutOfDomain,
    SingularMomentSystem,
)
from .smooth import (
    _FACT,
    _leibniz,
    _series_compose,
    _series_div,
    _series_mul,
    CompactInterval,
    Domain,
    DyadicPartition,
    SmoothFn,
    TestFn,
    VectorField,
    bump,
    constant,
    integrate,
    partition_of_unity,
    plateau,
    polynomial,
    smoothstep,
)

DEFAULT_DOMAIN = Domain.interval(-2.0, 2.0)
DEFAULT_K_GRID = (8, 16, 32, 64, 128)

MOMENT_REL_TOL = 1e-13
MOMENT_ABS_TOL = 1e-14
SERIES_TERMS = 16  # moment terms of the closed-form residual expansion


# ---------------------------------------------------------------------------
# mollifiers


@dataclass(frozen=True)
class Mollifier:
    """Unit-mass bump whose moments 1..order vanish.

    Built on an even polynomial times a bump, so every odd moment is zero
    by symmetry, not by cancellation.  ``moment`` returns measured values
    (cached); they feed the closed-form residual expansions, which is why
    they are measured rather than assumed.
    """

    fn: SmoothFn
    order: int
    radius: float
    _moments: dict = field(default_factory=dict, compare=False, repr=False)

    def moment(self, a: int) -> float:
        if a % 2 == 1:
            return 0.0
        if a not in self._moments:
            # a miss measures every missing even moment up to the series
            # length at once; each row's float is its own one-row integral
            need = [e for e in range(0, max(a, SERIES_TERMS) + 1, 2)
                    if e not in self._moments]
            self._moments.update(zip(need, _moments(self.fn, need, self.radius)))
        return self._moments[a]


def _moments(f: SmoothFn, exps, r: float) -> list[float]:
    """int_{-r}^{r} t^a f(t) dt for each a in ``exps``, at the moment
    tolerances, split at 0: one :func:`integrate` row per exponent, ``f``
    evaluated once per round for every row."""
    exps = list(exps)

    def fn(rows, ys):
        ft = f.jet(ys, 0)
        out = np.empty_like(ys)
        for i, a in enumerate(exps):
            on = rows == i
            out[on] = ys[on] ** a * ft[on]
        return out

    return integrate(fn, [(-r, r)] * len(exps), rel_tol=MOMENT_REL_TOL,
                     abs_tol=MOMENT_ABS_TOL, points=[(0.0,)] * len(exps)).value.tolist()


@lru_cache
def make_mollifier(q: int, radius: float = 1.0) -> Mollifier:
    """Mollifier of order q: unit mass, vanishing moments 1..q.

    The ansatz is bump(t) * p(t^2) with p even-polynomial.  One extra
    basis element pins the first surviving even moment to the base
    bump's own normalized moment, so the leading residual term of every
    induced smoothing operator has a known, comfortably nonzero size and
    low orders stay close to a plain bump (q <= 1 IS the normalized bump).
    Cached per (q, radius): the result is frozen, and its moment memo
    holds the same floats for every caller.
    """
    if q < 0:
        raise SingularMomentSystem("moment order must be nonnegative")
    if not (radius > 0 and math.isfinite(radius)):
        raise InvalidRadius(f"mollifier radius must be positive, got {radius}")
    b = bump(0.0, radius)
    n = q // 2 + 2
    e_pin = 2 * (n - 1)
    exps = range(0, 4 * (n - 1) + 1, 2)
    B = dict(zip(exps, _moments(b, exps, radius)))
    A = np.array([[B[2 * i + 2 * j] for j in range(n)] for i in range(n)])
    rhs = np.zeros(n)
    rhs[0] = 1.0
    rhs[n - 1] = B[e_pin] / B[0]
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e10:
        raise SingularMomentSystem(
            f"moment system for q={q} is ill conditioned (cond={cond:.2e})")
    c = np.linalg.solve(A, rhs)
    coeffs = np.zeros(2 * n - 1)
    coeffs[0::2] = c
    fn = b * polynomial(coeffs)
    fn = fn * (1.0 / _moments(fn, [0], radius)[0])
    moll = Mollifier(fn, q, radius)
    for a in range(2, q + 1, 2):
        got = moll.moment(a)
        if abs(got) > 1e-10:
            raise SingularMomentSystem(
                f"moment {a} failed to vanish after solve: {got:.3e}")
    return moll


# ---------------------------------------------------------------------------
# kernel base


class Kernel:
    """One smoothing kernel: x |-> a test density phi(x, .) in y."""

    domain: Domain
    jet_cap: int = 8

    def jets(self, x, mx: int, ys, my: int) -> np.ndarray:
        """Mixed derivatives d_x^i d_y^j phi(x, y_n), shape (mx+1, my+1, n).

        x may also be a 1-D array of nx points, with ``ys`` of shape
        (nx, n) whose row r pairs with x[r]; the result then has shape
        (mx+1, my+1, nx, n), and its [:, :, r] slice is bit for bit the
        scalar call at (x[r], ys[r]).
        """
        raise NotImplementedError

    def y_window(self, x) -> CompactInterval | np.ndarray:
        """A compact interval containing supp phi(x, .).  For a 1-D array of
        x, an (nx, 2) array: row r is the scalar call's (lo, hi) at x[r]."""
        raise NotImplementedError

    def radius_sup(self) -> float | None:
        """Uniform bound on the y-window radius, if one is known."""
        return None

    def plateau_scale(self, x: float) -> float | None:
        """If phi is exactly s * rho(s(y-x)) near x, the scale s; else None."""
        return None

    @property
    def mollifier(self) -> Mollifier | None:
        return None


def _rows(x, ys) -> tuple[np.ndarray, np.ndarray, bool]:
    """x as a 1-D array, ys as one row per x, and whether x was a scalar."""
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    Y = np.asarray(ys, dtype=float)
    Y = np.atleast_1d(Y)[None] if scalar else Y
    if xs.ndim != 1 or Y.ndim != 2 or Y.shape[0] != xs.size:
        raise ValueError("ys must hold one row of points per x")
    return xs, Y, scalar


def _per_x(jets):
    """Give a scalar-x ``jets`` body the array-x contract, one x at a time."""

    def lifted(self, x, mx: int, ys, my: int) -> np.ndarray:
        xs, Y, scalar = _rows(x, ys)
        if scalar:
            return jets(self, x, mx, Y[0], my)
        out = np.empty((mx + 1, my + 1) + Y.shape)
        for r in range(xs.size):
            out[:, :, r] = jets(self, float(xs[r]), mx, Y[r], my)
        return out

    return lifted


def _per_x_window(y_window):
    """Give a scalar-x ``y_window`` body the array-x contract, one x at a time."""

    def lifted(self, x):
        if np.ndim(x) == 0:
            return y_window(self, x)
        return np.array([(w.lo, w.hi) for w in
                         (y_window(self, float(xi)) for xi in x)]).reshape(-1, 2)

    return lifted


# ---------------------------------------------------------------------------
# the standard construction: a scale-profile translation kernel


_TAPER_RISE = smoothstep(0.5, 1.0)  # sigma(t): 0 up to t = 1/2, 1 from t = 1


def _edge_taper(t: np.ndarray, c: float, m: int) -> np.ndarray:
    """x-jets 0..m of h = sigma + (1 - sigma) t, where t = d/pad has slope
    c in x: h = t up to t = 1/2 and exactly 1 (all derivatives +0.0) from
    t = 1 on."""
    s = _TAPER_RISE.jets(t, m) * c ** np.arange(m + 1)[:, None]
    r = -s
    r[0] += 1.0
    h = s + r * t
    h[1:] += np.arange(1, m + 1)[:, None] * c * r[:-1]
    return h


def _profile_for(domain: Domain, mbar: float):
    """Scale profile m(x) per component: flat mb on a plateau, and mb h(d/pad)
    within pad = 1.5 mb of each finite end at distance d, so m = d/1.5 next
    to the boundary: strictly below the boundary distance, with m'/m of
    order 1/d, which keeps the kernel's x-derivatives tame off the plateau."""
    comps = []
    for (a, bnd) in domain.intervals:
        finite_a, finite_b = math.isfinite(a), math.isfinite(bnd)
        L = bnd - a
        mb = mbar if not (finite_a and finite_b) else min(mbar, 0.22 * L)
        pad = 1.5 * mb
        lo_p = a + pad if finite_a else -math.inf
        hi_p = bnd - pad if finite_b else math.inf
        if not lo_p < hi_p:
            raise InvalidRadius(
                f"component ({a}, {bnd}) too small for scale mbar={mb}")
        comps.append(((a, bnd), (lo_p, hi_p, mb), pad))

    def jet_all(x, m):
        out = np.zeros((m + 1, x.size))
        for (a, bnd), (lo_p, hi_p, mb), pad in comps:
            out[0, (x > a) & (x < bnd)] = mb
            # one taper factor per finite end, evaluated off the plateau only
            for near, end, c in (((x > a) & (x < lo_p), a, 1.0 / pad),
                                 ((x > hi_p) & (x < bnd), bnd, -1.0 / pad)):
                if near.any():
                    out[:, near] = mb * _edge_taper((x[near] - end) * c, c, m)
        return out

    prof = SmoothFn(domain, jet_all, jet_cap=12)
    # the whole construction stands on supp phi(x,.) staying inside the
    # domain, so check m(x) < dist(x, boundary) once, on a fine grid
    for (a, bnd), _, _ in comps:
        if not (math.isfinite(a) or math.isfinite(bnd)):
            continue
        lo = a if math.isfinite(a) else bnd - 8.0
        hi = bnd if math.isfinite(bnd) else a + 8.0
        xs = np.linspace(lo + 1e-9, hi - 1e-9, 4097)
        mv = prof.jet(xs, 0)
        dist = np.minimum(xs - a if math.isfinite(a) else np.inf,
                          bnd - xs if math.isfinite(bnd) else np.inf)
        bad = mv >= dist
        if bad.any():
            raise InvalidRadius(
                f"scale profile exceeds boundary distance near x={xs[bad][0]:.4f}")
    return prof, [p for _, p, _ in comps]


class ScaleKernel(Kernel):
    """phi(x, y) = s(x) rho(s(x)(y - x)) with s(x) = k r / m(x).

    On the profile's plateau the kernel is an exact scaled translate of
    the mollifier; everywhere else the scale varies smoothly and the
    support [x - m(x)/k, x + m(x)/k] stays inside the domain.
    """

    def __init__(self, domain: Domain, moll: Mollifier, profile: SmoothFn,
                 plateaus, k: int):
        self.domain = domain
        self.moll = moll
        self.profile = profile
        self.plateaus = tuple(plateaus)
        self.k = int(k)
        self.jet_cap = moll.fn.jet_cap

    @property
    def mollifier(self) -> Mollifier:
        return self.moll

    def _scale_series(self, xs: np.ndarray, mx: int) -> np.ndarray:
        """h-series of s(x+h) at each x, shape (mx+1, nx)."""
        mj = self.profile.jets(xs, mx)
        bad = ~(mj[0] > 1e-12)
        if bad.any():
            raise OutOfDomain(
                f"x={xs[bad][0]} is too close to the boundary for this kernel's scale")
        mc = mj / _FACT[: mx + 1, None]
        kr = np.zeros_like(mc)
        kr[0] = self.k * self.moll.radius
        return _series_div(kr, mc)

    def jets(self, x, mx: int, ys, my: int) -> np.ndarray:
        xs, Y, scalar = _rows(x, ys)
        rho = self.moll.fn
        sc = self._scale_series(xs, mx)[:, :, None]
        yrel = Y - xs[:, None]
        # u(h; y) = s(x+h) (y - x - h) as an h-series per (x, y) pair
        u = np.zeros((mx + 1,) + Y.shape)
        for i in range(mx + 1):
            u[i] = sc[i] * yrel
            if i >= 1:
                u[i] -= sc[i - 1]
        fact = _FACT[: mx + 1, None, None]
        spow = sc
        out = np.empty((mx + 1, my + 1) + Y.shape)
        rj = rho.jets(u[0], mx + my)
        for j in range(my + 1):
            comp = _series_compose(rj[j: j + mx + 1] / fact, u)
            col = _series_mul(comp, np.broadcast_to(spow, comp.shape))
            out[:, j] = col * fact
            spow = _series_mul(spow, sc)
        return out[:, :, 0] if scalar else out

    def y_window(self, x):
        rad = self.profile.jet(x, 0) / self.k
        if np.ndim(x) == 0:
            return CompactInterval(x - rad, x + rad)
        return np.stack([x - rad, x + rad], axis=-1)

    def radius_sup(self) -> float | None:
        return max(mb for _, _, mb in self.plateaus) / self.k

    def plateau_scale(self, x: float) -> float | None:
        for lo, hi, mb in self.plateaus:
            if lo <= x <= hi:
                return self.k * self.moll.radius / mb
        return None


class TranslationKernel(Kernel):
    """phi(x, y) = k rho(k(x - y)): one mollifier translated, at one scale.

    Mollification is this kernel applied to a distribution.  Windows are
    not clipped to the domain; callers keep densities inside it.
    """

    def __init__(self, rho: SmoothFn, k: float, domain: Domain):
        self.rho = rho
        self.k = float(k)
        self.radius = max(abs(rho.support.lo), abs(rho.support.hi))
        self.domain = domain
        self.jet_cap = rho.jet_cap

    @_per_x
    def jets(self, x: float, mx: int, ys, my: int) -> np.ndarray:
        k = self.k
        R = self.rho.jets(k * (x - ys), mx + my)
        out = np.empty((mx + 1, my + 1) + R.shape[1:])
        for i in range(mx + 1):
            for j in range(my + 1):
                out[i, j] = (-1.0) ** j * k ** (i + j + 1) * R[i + j]
        return out

    @_per_x_window
    def y_window(self, x: float) -> CompactInterval:
        return CompactInterval(x - self.radius / self.k, x + self.radius / self.k)

    def radius_sup(self) -> float | None:
        return self.radius / self.k


# ---------------------------------------------------------------------------
# derived kernels


class LieKernel(Kernel):
    """The kernel-space Lie derivative X d_x phi + d_y(X(y) phi)."""

    def __init__(self, X: VectorField, base: Kernel):
        self.X = X
        self.base = base
        self.domain = base.domain
        self.jet_cap = max(base.jet_cap - 2, 0)

    def jets(self, x, mx: int, ys, my: int) -> np.ndarray:
        xs, Y, scalar = _rows(x, ys)
        B = self.base.jets(xs, mx + 1, Y, my + 1)
        Xx = self.X.coef.jets(xs, mx)
        Xy = self.X.coef.jets(Y, my + 1)
        moved = _leibniz(Xx[:, None, :, None], B[1:, : my + 1])
        # d_y^(j+1) of X(y) phi, with the y axis in front for the product
        carried = _leibniz(Xy, np.moveaxis(B[: mx + 1], 1, 0))[1:]
        out = moved + np.moveaxis(carried, 0, 1)
        return out[:, :, 0] if scalar else out

    def y_window(self, x):
        return self.base.y_window(x)

    def radius_sup(self) -> float | None:
        return self.base.radius_sup()


class RestrictedKernel(Kernel):
    """Restriction of a kernel on U to an open subset V.

    (rho_{V,U} phi)(x) = sum_W chi_W(x) (phi(x,.) theta_W)|_V with a
    dyadic partition {chi_W} of V and cutoffs theta_W that are exactly 1
    on a neighborhood of each piece and compactly supported in V.  Deep
    inside V the cutoffs are invisible and the restriction acts as the
    identity, which is what makes restriction classes eventually equal.
    """

    def __init__(self, base: Kernel, V: Domain):
        if not V.is_subset(base.domain):
            raise NotContained("restriction target must sit inside the domain")
        self.base = base
        self.domain = V
        self.jet_cap = base.jet_cap
        self._parts: dict[tuple, DyadicPartition] = {}

    def _partition(self, x: float) -> DyadicPartition:
        comp = self.domain.component_of(x)
        if comp not in self._parts:
            self._parts[comp] = DyadicPartition(Domain.interval(*comp))
        return self._parts[comp]

    @_per_x
    def jets(self, x: float, mx: int, ys, my: int) -> np.ndarray:
        part = self._partition(x)
        B = self.base.jets(x, mx, ys, my)
        out = np.zeros((mx + 1, my + 1, ys.size))
        xa = np.array([x])
        By = np.moveaxis(B, 1, 0)
        for key in part.active_keys(x):
            cj = part.chi(key).jets(xa, mx)[:, 0]
            th = part.cutoff(key).jets(ys, my)
            cut = np.moveaxis(_leibniz(th, By), 0, 1)
            out += _leibniz(cj[:, None, None], cut)
        return out

    @_per_x_window
    def y_window(self, x: float) -> CompactInterval:
        part = self._partition(x)
        base_w = self.base.y_window(x)
        w = None
        for key in part.active_keys(x):
            s = part.cutoff(key).support
            piece = s.intersect(base_w) if s is not None else base_w
            if piece is not None:
                w = piece if w is None else w.hull(piece)
        if w is None:
            lo, hi = self.domain.component_of(x)
            eps = min(1e-9, (hi - lo) / 4)
            w = CompactInterval(max(x - eps, lo), min(x + eps, hi))
        return w

    def radius_sup(self) -> float | None:
        return self.base.radius_sup()


class GluedKernel(Kernel):
    """sum_l w_l(x) phi^l(x, .): a gluing for weights subordinate to a
    cover, a linear combination for constant weights.  A piece whose
    weight jets all vanish at x is skipped there, not multiplied by 0."""

    def __init__(self, pieces, domain: Domain):
        self.pieces = tuple(pieces)  # (weight SmoothFn, Kernel)
        self.domain = domain
        self.jet_cap = min(k.jet_cap for _, k in self.pieces)

    @_per_x
    def jets(self, x: float, mx: int, ys, my: int) -> np.ndarray:
        out = np.zeros((mx + 1, my + 1, ys.size))
        xa = np.array([x])
        for w, ker in self.pieces:
            if w.support is not None and not w.support.contains(x):
                continue
            wj = w.jets(xa, mx)[:, 0]
            if not wj.any():
                continue
            mask = np.asarray(ker.domain.contains(ys))
            if not mask.any():
                continue
            B = ker.jets(x, mx, ys[mask], my)
            out[:, :, mask] += _leibniz(wj[:, None, None], B)
        return out

    @_per_x_window
    def y_window(self, x: float) -> CompactInterval:
        w = None
        for wt, ker in self.pieces:
            if wt.support is not None and not wt.support.contains(x):
                continue
            if float(wt.jet(x, 0)) == 0.0 and wt.support is not None:
                continue
            if not ker.domain.contains(x):
                continue
            piece = ker.y_window(x)
            w = piece if w is None else w.hull(piece)
        if w is None:
            raise OutOfDomain(f"no glued piece active at x={x}")
        return w

    def radius_sup(self) -> float | None:
        rads = [ker.radius_sup() for _, ker in self.pieces]
        if any(r is None for r in rads):
            return None
        return max(rads)


class ConstantKernel(Kernel):
    """x-independent kernel phi(x, .) = psi: smooth but not localizing."""

    def __init__(self, tf: TestFn, domain: Domain):
        if not domain.contains_interval(tf.support.lo, tf.support.hi, strict=True):
            raise NotContained("witness density must be supported in the domain")
        self.tf = tf
        self.domain = domain
        self.jet_cap = tf.fn.jet_cap

    @_per_x
    def jets(self, x: float, mx: int, ys, my: int) -> np.ndarray:
        out = np.zeros((mx + 1, my + 1, ys.size))
        out[0] = self.tf.fn.jets(ys, my)
        return out

    @_per_x_window
    def y_window(self, x: float) -> CompactInterval:
        return self.tf.support


class PullbackKernel(Kernel):
    """phi precomposed with a diffeomorphism in both slots: phi(mu(x), mu(y)).

    Plain composition, no Jacobian factor: this is the convention under
    which pushing forward an embedded point mass lands exactly on the
    transported point.
    """

    def __init__(self, base: Kernel, mu: SmoothFn, mu_inv: SmoothFn, domain: Domain):
        self.base = base
        self.mu = mu
        self.mu_inv = mu_inv
        self.domain = domain
        self.jet_cap = max(base.jet_cap - 1, 0)

    @_per_x
    def jets(self, x: float, mx: int, ys, my: int) -> np.ndarray:
        ux = self.mu.jets(np.array([x]), mx)[:, 0]
        vy = self.mu.jets(ys, my)
        B = self.base.jets(float(ux[0]), mx, vy[0], my)
        fx, fy = _FACT[: mx + 1, None, None], _FACT[None, : my + 1, None]
        # Taylor coefficients of B composed with the inner series, y slot first
        c = np.moveaxis(B / (fx * fy), 1, 0)
        c = np.moveaxis(_series_compose(c, (vy / _FACT[: my + 1, None])[:, None, :]), 0, 1)
        return _series_compose(c, ux[:, None, None] / fx) * fx * fy

    @_per_x_window
    def y_window(self, x: float) -> CompactInterval:
        w = self.base.y_window(float(self.mu.jet(x, 0)))
        a = float(self.mu_inv.jet(w.lo, 0))
        b = float(self.mu_inv.jet(w.hi, 0))
        return CompactInterval(min(a, b), max(a, b))

    def radius_sup(self) -> float | None:
        r = self.base.radius_sup()
        if r is None:
            return None
        # crude Lipschitz stretch estimate on a sample grid
        lo, hi = self.domain.hull()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return None
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 257)
        stretch = np.max(np.abs(self.mu_inv.jet(self.mu.jet(xs, 0), 1)))
        return float(r * stretch)


# ---------------------------------------------------------------------------
# sequences


class KernelSequence:
    """A k-indexed family of kernels; the rate variable of the theory."""

    def __init__(self, domain: Domain, maker, *, grade: int | None = None,
                 label: str = "seq", mollifier: Mollifier | None = None):
        self.domain = domain
        self._maker = maker
        self.grade = grade
        self.label = label
        self.mollifier = mollifier
        self._memo: dict[int, Kernel] = {}

    def at(self, k: int) -> Kernel:
        k = int(k)
        if k < 1:
            raise InvalidRadius(f"rate index must be >= 1, got {k}")
        if k not in self._memo:
            self._memo[k] = self._maker(k)
        return self._memo[k]

    def radius_bound(self, k: int) -> float | None:
        """sup_x of the y-window radius at rate k, if the kernel knows it."""
        return self.at(k).radius_sup()

    def __repr__(self):
        g = f", grade={self.grade}" if self.grade is not None else ""
        return f"KernelSequence({self.label}{g})"


def standard_sequence(domain: Domain = DEFAULT_DOMAIN,
                      mollifier: Mollifier | None = None, *,
                      mbar: float = 0.8) -> KernelSequence:
    """The canonical localizing test-object sequence on a domain.

    Scaled translates of one mollifier, with the scale profile flattened
    on a central plateau of every component and tapered toward finite
    boundaries so each kernel's support stays inside the domain at every
    rate k >= 1.
    """
    moll = mollifier if mollifier is not None else make_mollifier(3)
    prof, plats = _profile_for(domain, mbar)

    def maker(k: int) -> Kernel:
        return ScaleKernel(domain, moll, prof, plats, k)

    return KernelSequence(domain, maker, grade=moll.order,
                          label=f"standard(q={moll.order})", mollifier=moll)


def lie_seq(X: VectorField, seq: KernelSequence) -> KernelSequence:
    return KernelSequence(seq.domain, lambda k: LieKernel(X, seq.at(k)),
                          grade=None, label=f"lie({seq.label})")


def restrict_seq(seq: KernelSequence, V: Domain) -> KernelSequence:
    if not V.is_subset(seq.domain):
        raise NotContained("restriction target must sit inside the domain")
    return KernelSequence(V, lambda k: RestrictedKernel(seq.at(k), V),
                          grade=seq.grade, label=f"{seq.label}|{V.intervals}")


def glue_seqs(cover, seqs, *, domain: Domain | None = None) -> KernelSequence:
    """Glue a compatible family of kernel sequences along an interval cover.

    cover: list of (lo, hi) with consecutive overlaps; seqs: one sequence
    per cover piece, each living on (at least) its piece.
    """
    if len(cover) != len(seqs):
        raise IncompatiblePieces("need exactly one sequence per cover piece")
    pou = partition_of_unity(cover)
    dom = domain or Domain.interval(min(lo for lo, _ in cover),
                                    max(hi for _, hi in cover))
    for (lo, hi), s in zip(cover, seqs):
        if not Domain.interval(lo, hi).is_subset(s.domain):
            raise IncompatiblePieces(
                f"piece ({lo}, {hi}) is not inside its sequence's domain")
    # the partition keys its weights by sorted position
    order = sorted(range(len(cover)), key=lambda i: tuple(cover[i]))

    def maker(k: int) -> Kernel:
        pieces = [(pou.chi(j), seqs[i].at(k)) for j, i in enumerate(order)]
        return GluedKernel(pieces, dom)

    grades = {s.grade for s in seqs}
    grade = grades.pop() if len(grades) == 1 else None
    return KernelSequence(dom, maker, grade=grade, label="glued")


def extend_seq(seq: KernelSequence, U: Domain, *,
               core: tuple[float, float]) -> KernelSequence:
    """Extend a sequence on V to all of U, keeping it intact on the core.

    Blends with a standard filler sequence on U through a plateau weight
    that is exactly 1 on the core and supported inside V; on the core the
    result is the original kernel, bit for bit.
    """
    V = seq.domain
    if not V.is_subset(U):
        raise NotContained("extension requires V inside U")
    lo, hi = core
    vlo, vhi = V.component_of((lo + hi) / 2)
    rise = 0.45 * min(lo - vlo, vhi - hi)
    if not rise > 0:
        raise InvalidRadius("core must sit strictly inside one component of V")
    chi = plateau(lo, hi, rise)
    one_minus = constant(1.0, U) - chi
    fill = standard_sequence(
        U, make_mollifier(seq.grade if seq.grade is not None else 3))

    def maker(k: int) -> Kernel:
        return GluedKernel([(chi, seq.at(k)), (one_minus, fill.at(k))], U)

    grade = seq.grade if seq.grade == fill.grade else None
    return KernelSequence(U, maker, grade=grade, label=f"extend({seq.label})")


def constant_witness_seq(domain: Domain = DEFAULT_DOMAIN) -> KernelSequence:
    """A deliberately non-localizing sequence: the same fat density at
    every x and every k.  The standard counterexample for everything
    that genuinely needs shrinking supports."""
    lo, hi = domain.hull()
    mid = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else 0.0
    rad = 0.75 * (hi - lo) / 2 if math.isfinite(lo) and math.isfinite(hi) else 1.0
    tf = TestFn(bump(mid, rad, domain))
    return KernelSequence(domain, lambda k: ConstantKernel(tf, domain),
                          grade=None, label="constant-witness")


def combo_seq(terms) -> KernelSequence:
    """Pointwise linear combination of sequences (for kernel directions)."""
    dom = terms[0][1].domain
    if any(s.domain != dom for _, s in terms):
        raise DomainMismatch("combined sequences must share a domain")

    def maker(k: int) -> Kernel:
        return GluedKernel([(constant(c, dom), s.at(k)) for c, s in terms], dom)

    return KernelSequence(dom, maker, label="combo")


# ---------------------------------------------------------------------------
# the smoothing action


APPLY_REL_TOL = 1e-10
APPLY_ABS_TOL = 1e-13


def apply_kernel(ker: Kernel, u) -> SmoothFn:
    """The smooth function x -> <u, phi(x, .)> with exact delta jets.

    All x are paired at once by :func:`~gfkernel.dist._pair_rows`, with
    one row per (x, order i <= m), the row d_x^i phi(x, .): point masses
    read one ``jets`` call, and a round of quadrature nodes makes one
    ``jets`` call for its distinct (x, panel) pairs, shared by every order
    and density.  The result keeps its last (x, m) and their jets, and
    hands out copies, so an operand that one evaluation reaches twice is
    paired once.
    """
    if not isinstance(u, Distribution):
        raise TypeError("apply_kernel expects a Distribution")
    if not u.domain.is_subset(ker.domain):
        raise DomainMismatch("distribution must live on the kernel's domain")
    dmax = u.max_delta_order
    if dmax > ker.jet_cap:
        raise JetCapExceeded(f"order {dmax} exceeds jet cap {ker.jet_cap}")
    dpts = np.array(sorted({t.point for t in u.deltas}))
    col = {a: j for j, a in enumerate(dpts.tolist())}

    last: list = [None, None, None]  # m, x, jets

    def jet_all(x, m):
        if last[0] == m and np.array_equal(last[1], x):
            return last[2].copy()
        if u.deltas:
            J = ker.jets(x, m, np.broadcast_to(dpts, (x.size, dpts.size)), dmax)
        windows = np.repeat(ker.y_window(x), m + 1, axis=0) if u.densities else ()

        def row_values(r, ys):
            # kernel rows by (x index, first node, last node): every order
            # and density at x that visits a panel shares one evaluation
            # per round; a kernel row's floats do not depend on its batch
            ix, i = np.divmod(r, m + 1)
            _, p, inv = np.unique(np.column_stack([ix, ys[:, 0], ys[:, -1]]), axis=0,
                                  return_index=True, return_inverse=True)
            # ravel: return_inverse's shape for axis=0 differs across numpy 2.0.x
            return ker.jets(x[ix[p]], m, ys[p], 0)[:, 0][i, inv.ravel()]

        out = _pair_rows(u, (x.size, m + 1), lambda a, n: J[:, n, :, col[a]].T,
                         windows, [()] * len(windows), row_values,
                         rel_tol=APPLY_REL_TOL, abs_tol=APPLY_ABS_TOL).value.T
        last[:] = m, x.copy(), out
        return out.copy()

    supp = None
    rs = ker.radius_sup()
    sd = support_dist(u)
    if rs is not None and sd and all(
            math.isfinite(a) and math.isfinite(b) for a, b in sd):
        supp = CompactInterval(min(a for a, _ in sd) - rs,
                               max(b for _, b in sd) + rs)
        lo, hi = ker.domain.hull()
        if not (lo < supp.lo and supp.hi < hi):
            supp = None
    cap = max(ker.jet_cap - dmax, 0)
    return SmoothFn(ker.domain, jet_all, support=supp, jet_cap=cap)


# ---------------------------------------------------------------------------
# sequence-level probes


@dataclass(frozen=True)
class EventualEquality:
    per_probe: dict
    all_eventual: bool
    k_grid: tuple


def eventually_equal(seq_a: KernelSequence, seq_b: KernelSequence, probes,
                     *, k_grid=DEFAULT_K_GRID) -> EventualEquality:
    """Per-probe first rate index from which the kernels agree in sup norm.

    Equality is measured on a 257-point y-grid over the union of both
    windows, to 1e-12; a probe maps to None when no tail of the grid
    stays within that tolerance.
    """
    ks = sorted(int(k) for k in k_grid)
    found = {}
    for x in probes:
        x = float(x)
        ok = []
        for k in ks:
            ka, kb = seq_a.at(k), seq_b.at(k)
            if ka is kb:
                ok.append(True)
                continue
            wa, wb = ka.y_window(x), kb.y_window(x)
            w = wa.hull(wb)
            ys = np.linspace(w.lo, w.hi, 257)
            va = ka.jets(x, 0, ys, 0)[0, 0]
            vb = kb.jets(x, 0, ys, 0)[0, 0]
            ok.append(bool(np.max(np.abs(va - vb)) <= 1e-12))
        k0 = None
        for i in range(len(ks)):
            if all(ok[i:]):
                k0 = ks[i]
                break
        found[x] = k0
    return EventualEquality(found, all(v is not None for v in found.values()),
                            tuple(ks))


def is_localizing(seq: KernelSequence, *, k_grid=DEFAULT_K_GRID) -> bool:
    """Do the kernel supports shrink to points, uniformly along probes?"""
    ks = (min(k_grid), max(k_grid))
    r0, r1 = (seq.radius_bound(k) for k in ks)
    if r0 is None or r1 is None:
        lo, hi = seq.domain.hull()
        lo = lo if math.isfinite(lo) else -2.0
        hi = hi if math.isfinite(hi) else 2.0
        probes = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7)
        r0, r1 = (max(seq.at(k).y_window(float(x)).width / 2 for x in probes)
                  for k in ks)
    return bool(r1 < r0 / 2 and r1 < 1.0)
