"""Generalized functions as smooth maps from kernels to smooth functions.

An element takes a smoothing kernel and returns a smooth function on the
kernel's domain.  Two embeddings generate everything of interest: iota
pairs a distribution against the kernel pointwise, sigma ignores the
kernel altogether.  Elements form an algebra, carry two competing Lie
derivatives, restrict to open subsets, and push forward along
diffeomorphisms; each constructor also tracks a structural locality tag
(how much of the kernel the output at a point can see).

Evaluation is structural: every node knows its own derivative rules, so
kernel-direction differentials, which the hat Lie derivative needs, come
out exact rather than by finite differences.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, restrict_dist
from .errors import DomainMismatch, NotContained, WrongTag
from .kernel import (
    _per_x,
    ConstantKernel,
    GluedKernel,
    Kernel,
    KernelSequence,
    LieKernel,
    PullbackKernel,
    apply_kernel,
    make_mollifier,
    standard_sequence,
)
from .smooth import (
    CompactInterval,
    Domain,
    SmoothFn,
    TestFn,
    VectorField,
    _leibniz,
    _product,
    bump,
    compose,
    constant,
    lie_smooth,
    lin_comb,
    restrict_view,
    smoothstep,
)

# the locality chain, ordered by how little of the kernel an element sees
CHAIN_NONE = 0          # arbitrary smooth dependence
CHAIN_LOCAL = 1         # output on V depends only on the kernel on V
CHAIN_POINT_LOCAL = 2   # output at x depends only on the density at x
CHAIN_POINT_INDEP = 3   # one fixed functional applied to the density at x

FD_STEP = 1e-3  # kernel-space step of GenericElement's finite differences


@dataclass(frozen=True)
class LocalityTag:
    """Structural locality bookkeeping for an element.

    ``chain`` is a lower bound certified by the construction, not a
    measurement; ``linear`` means linear in the kernel slot.
    """

    chain: int
    linear: bool

    def meet(self, other: "LocalityTag") -> "LocalityTag":
        return LocalityTag(min(self.chain, other.chain),
                           self.linear and other.linear)


# ---------------------------------------------------------------------------
# element nodes


class BasicElement:
    """Base node; subclasses carry the structure of their construction."""

    domain: Domain

    def __add__(self, other):
        if isinstance(other, BasicElement):
            return _chain(Sum, self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, BasicElement):
            return _chain(Sum, self, _scale(-1.0, other))
        return NotImplemented

    def __neg__(self):
        return _scale(-1.0, self)

    def __mul__(self, other):
        if isinstance(other, Sigma):
            return _scale(other.f, self)
        if isinstance(other, BasicElement):
            return _chain(Product, self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if isinstance(other, (SmoothFn, int, float)):
            return _scale(other, self)
        return NotImplemented

    def __call__(self, ker: Kernel) -> SmoothFn:
        return eval_basic(self, ker)

    def restrict(self, V: Domain) -> "BasicElement":
        return restrict_basic(self, V)


def _chain(kind: type, a: BasicElement, b: BasicElement) -> BasicElement:
    """a + b or a * b, with b appended to a's parts when a is already a
    chain of that kind; a right operand of that kind stays one part, so
    the chain folds as the nested build did."""
    if a.domain != b.domain:
        raise DomainMismatch("elements live on different domains")
    return kind(a.parts + (b,) if isinstance(a, kind) else (a, b))


def _scale(f, a: BasicElement) -> "SmoothScale":
    """f * a for a smooth f or a number, f outermost on a scaled a."""
    if not isinstance(f, SmoothFn):
        f = constant(float(f), a.domain)
    if not a.domain.is_subset(f.domain):
        raise DomainMismatch("coefficient must cover the element's domain")
    f = restrict_view(f, a.domain)
    if isinstance(a, SmoothScale):
        return SmoothScale((f,) + a.fs, a.a)
    return SmoothScale((f,), a)


@dataclass(frozen=True)
class Iota(BasicElement):
    """The distribution embedding: (iota u)(phi)(x) = <u, phi(x, .)>."""

    u: Distribution

    @property
    def domain(self) -> Domain:
        return self.u.domain


@dataclass(frozen=True)
class Sigma(BasicElement):
    """The constant embedding: (sigma f)(phi) = f, kernel ignored."""

    f: SmoothFn

    @property
    def domain(self) -> Domain:
        return self.f.domain


@dataclass(frozen=True)
class Sum(BasicElement):
    """parts[0] + parts[1] + ..., added left to right."""

    parts: tuple[BasicElement, ...]

    @property
    def domain(self) -> Domain:
        return self.parts[0].domain


@dataclass(frozen=True)
class Product(BasicElement):
    """Pointwise product of evaluated outputs, multiplied left to right;
    where new singular objects (delta squared and friends) come from."""

    parts: tuple[BasicElement, ...]

    @property
    def domain(self) -> Domain:
        return self.parts[0].domain


@dataclass(frozen=True)
class SmoothScale(BasicElement):
    """fs[0] * (fs[1] * (... * a)) for fixed smooth fs on a's domain; the
    smooth-module structure."""

    fs: tuple[SmoothFn, ...]
    a: BasicElement

    @property
    def domain(self) -> Domain:
        return self.a.domain


@dataclass(frozen=True)
class LieHat(BasicElement):
    """Geometric Lie derivative: differentiate against the transported
    kernel and add the ambient directional term.  Commutes with both
    embeddings."""

    X: VectorField
    a: BasicElement

    @property
    def domain(self) -> Domain:
        return self.a.domain


@dataclass(frozen=True)
class LieTilde(BasicElement):
    """Naive Lie derivative: post-compose the output with X d/dx.  Smooth-
    module linear in X, but blind to how the kernel moves, which costs
    point-locality."""

    X: VectorField
    a: BasicElement

    @property
    def domain(self) -> Domain:
        return self.a.domain


@dataclass(frozen=True)
class Diffeo1D:
    """A diffeomorphism between two open sets, with an explicit inverse."""

    fwd: SmoothFn
    inv: SmoothFn
    source: Domain
    image: Domain

    def __post_init__(self):
        lo, hi = self.source.hull()
        if math.isfinite(lo) and math.isfinite(hi):
            xs = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 65)
        else:
            xs = np.linspace(-4.0, 4.0, 65)
        xs = xs[self.source.contains(xs)]
        fx = self.fwd.jet(xs, 0)
        if not self.image.contains(fx).all():
            raise NotContained("forward map leaves the stated image")
        back = self.inv.jet(fx, 0)
        if np.max(np.abs(back - xs)) > 1e-9:
            raise DomainMismatch("inverse does not undo the forward map")
        d = self.fwd.jet(xs, 1)
        if np.any(d == 0.0) or (np.sign(d) != np.sign(d[0])).any():
            raise DomainMismatch("map is not a diffeomorphism (critical point)")


def affine_diffeo(scale: float, shift: float, domain: Domain) -> Diffeo1D:
    """mu(x) = scale * x + shift on ``domain``."""
    from .smooth import polynomial

    if scale == 0.0:
        raise DomainMismatch("scale must be nonzero")
    ivs = []
    for lo, hi in domain.intervals:
        a, b = scale * lo + shift, scale * hi + shift
        ivs.append((min(a, b), max(a, b)))
    image = Domain(tuple(sorted(ivs)))
    fwd = polynomial([shift, scale], domain)
    inv = polynomial([-shift / scale, 1.0 / scale], image)
    return Diffeo1D(fwd, inv, domain, image)


@dataclass(frozen=True)
class Pushforward(BasicElement):
    """Transport along a diffeomorphism: evaluate upstairs by pulling the
    kernel back through both slots, then move the output across."""

    a: BasicElement
    mu: Diffeo1D

    def __post_init__(self):
        if self.mu.source != self.a.domain:
            raise DomainMismatch("transport map must start on the element's domain")

    @property
    def domain(self) -> Domain:
        return self.mu.image


@dataclass(frozen=True)
class GenericElement(BasicElement):
    """Escape hatch: an arbitrary kernel -> smooth-function map.

    The evaluator must accept kernels on any open subset of ``dom`` (that
    is how restriction reaches it) and should be smooth in the kernel for
    the finite-difference differential to mean anything.  ``stated_tag``
    is trusted as given; probe_locality can audit it.
    """

    evaluator: object  # Kernel -> SmoothFn
    dom: Domain
    stated_tag: LocalityTag = LocalityTag(CHAIN_NONE, False)

    @property
    def domain(self) -> Domain:
        return self.dom


def iota(u: Distribution) -> Iota:
    return Iota(u)


def sigma(f: SmoothFn, domain: Domain | None = None) -> Sigma:
    return Sigma(restrict_view(f, f.domain if domain is None else domain))


def lie_hat(X: VectorField, a: BasicElement) -> LieHat:
    return LieHat(_field_on(X, a.domain), a)


def lie_tilde(X: VectorField, a: BasicElement) -> LieTilde:
    return LieTilde(_field_on(X, a.domain), a)


def pushforward(a: BasicElement, mu: Diffeo1D) -> Pushforward:
    return Pushforward(a, mu)


def as_generic(a: BasicElement) -> GenericElement:
    """Forget structure, keeping only the evaluation map."""
    return GenericElement(lambda ker: eval_basic(a, ker), a.domain)


def _field_on(X: VectorField, dom: Domain) -> VectorField:
    if X.coef.domain == dom:
        return X
    if not dom.is_subset(X.coef.domain):
        raise DomainMismatch("vector field must cover the element's domain")
    return VectorField(restrict_view(X.coef, dom))


# ---------------------------------------------------------------------------
# structural locality tags


def tag_of(R: BasicElement) -> LocalityTag:
    if isinstance(R, Iota):
        return LocalityTag(CHAIN_POINT_INDEP, linear=True)
    if isinstance(R, Sigma):
        return LocalityTag(CHAIN_POINT_LOCAL, linear=False)
    if isinstance(R, (Sum, Product)):
        t = functools.reduce(LocalityTag.meet, map(tag_of, R.parts))
        return t if isinstance(R, Sum) else LocalityTag(t.chain, linear=False)
    if isinstance(R, SmoothScale):
        t = tag_of(R.a)
        if all(f.const_value is not None for f in R.fs):
            return t
        return LocalityTag(min(t.chain, CHAIN_POINT_LOCAL), t.linear)
    if isinstance(R, LieHat):
        return tag_of(R.a)
    if isinstance(R, LieTilde):
        t = tag_of(R.a)
        return LocalityTag(min(t.chain, CHAIN_LOCAL), t.linear)
    if isinstance(R, Pushforward):
        return tag_of(R.a)
    if isinstance(R, GenericElement):
        return R.stated_tag
    raise TypeError(f"unknown element {type(R).__name__}")


# ---------------------------------------------------------------------------
# evaluation and kernel-direction differentials


def eval_basic(R: BasicElement, ker: Kernel) -> SmoothFn:
    """R applied to one kernel, as a smooth function on the kernel's domain."""
    if isinstance(ker, KernelSequence):
        raise TypeError("pass a single kernel (seq.at(k)), not the sequence")
    if ker.domain != R.domain:
        if ker.domain.is_subset(R.domain):
            R = restrict_basic(R, ker.domain)
        else:
            raise DomainMismatch("kernel domain must sit inside the element's")
    return d_eval(R, ker, (), _memo={})


def d_eval(R: BasicElement, ker: Kernel, dirs: tuple[Kernel, ...], *,
           _memo: dict | None = None) -> SmoothFn:
    """The n-th kernel-direction differential of R at ker; n = 0 evaluates.

    Multilinear and symmetric in ``dirs``; computed from the structure of
    R, so embeddings differentiate exactly (iota is linear, sigma is
    constant) and only GenericElement falls back to finite differences.
    Within one call, equal iota leaves at one kernel share one pairing.
    """
    memo = {} if _memo is None else _memo

    def sub(a, k, ds):
        return d_eval(a, k, ds, _memo=memo)

    n = len(dirs)
    if isinstance(R, Iota):
        if n < 2:
            key = (R.u, dirs[0] if n else ker)
            if key not in memo:
                memo[key] = apply_kernel(key[1], R.u)
            return memo[key]
        return constant(0.0, ker.domain)
    if isinstance(R, Sigma):
        return R.f if n == 0 else constant(0.0, ker.domain)
    if isinstance(R, Sum):
        return lin_comb([sub(p, ker, dirs) for p in R.parts], [1.0] * len(R.parts))
    if isinstance(R, Product):
        if n == 0:
            return _product(*(sub(p, ker, ()) for p in R.parts))
        subsets = [S for r in range(n + 1) for S in itertools.combinations(range(n), r)]
        return _product_rule([{S: sub(p, ker, tuple(dirs[i] for i in S)) for S in subsets}
                              for p in R.parts])
    if isinstance(R, SmoothScale):
        return _product(*R.fs, sub(R.a, ker, dirs), right=True)
    if isinstance(R, LieHat):
        X = R.X
        moved = sub(R.a, ker, (LieKernel(X, ker),) + dirs)
        cross = []
        for i in range(n):
            repl = dirs[:i] + (LieKernel(X, dirs[i]),) + dirs[i + 1:]
            cross.append(sub(R.a, ker, repl))
        ambient = lie_smooth(X, sub(R.a, ker, dirs))
        return lin_comb([ambient, moved, *cross], [1.0] + [-1.0] * (n + 1))
    if isinstance(R, LieTilde):
        return lie_smooth(R.X, sub(R.a, ker, dirs))
    if isinstance(R, Pushforward):
        pulled = PullbackKernel(ker, R.mu.fwd, R.mu.inv, R.a.domain)
        pdirs = tuple(PullbackKernel(d, R.mu.fwd, R.mu.inv, R.a.domain)
                      for d in dirs)
        up = sub(R.a, pulled, pdirs)
        return compose(up, R.mu.inv)
    if isinstance(R, GenericElement):
        return R.evaluator(ker) if n == 0 else _fd_differential(R, ker, dirs)
    raise TypeError(f"unknown element {type(R).__name__}")


def _product_rule(dfs: list[dict]) -> SmoothFn:
    """The kernel-direction differential of f_1 f_2 ... f_N in every
    direction, from each factor's differentials ``{S: d^S f_i}``, S
    running over the subsets of the directions in
    ``itertools.combinations`` order.  D_i[S] is the sum of
    D_{i-1}[T] d^(S-T) f_i over the subsets T of S in key order, summed
    as :func:`lin_comb` sums, and D_i[()] = f_1 ... f_i.

    The jets and attributes are those of the binary rule applied to
    (all factors but the last) x (the last), bit for bit, but the
    recurrence runs in one loop, so a chain of any length evaluates.
    """
    keys = list(dfs[0])
    splits = {S: [(T, tuple(i for i in S if i not in T)) for T in keys if set(T) <= set(S)]
              for S in keys}

    def fold(get, mul, add):
        D = get(dfs[0])
        for df in dfs[1:]:
            F = get(df)
            D = {S: add([mul(D[T], F[U]) for T, U in splits[S]]) for S in keys}
        return D[keys[-1]]

    # the binary rule's attributes; a one-term sum is its term
    D = fold(dict, lambda a, b: a * b,
             lambda ts: lin_comb(ts, [1.0] * len(ts)) if len(ts) > 1 else ts[0])

    def jet_all(x, m):
        # lin_comb's order; its zero start changes no float, as _leibniz
        # never returns -0.0
        return fold(lambda df: {S: f._masked_all(x, m) for S, f in df.items()},
                    _leibniz, lambda ts: sum(ts[1:], ts[0]))

    return SmoothFn(D.domain, jet_all, support=D.support, jet_cap=D.jet_cap,
                    const_value=D.const_value, breaks=D.breaks)


def _fd_differential(R: GenericElement, ker: Kernel,
                     dirs: tuple[Kernel, ...]) -> SmoothFn:
    """Central differences in kernel space, one Richardson pass."""
    h = FD_STEP
    psi = dirs[0]
    rest = dirs[1:]
    dom = ker.domain
    one = constant(1.0, dom)

    def D(step: float) -> SmoothFn:
        plus = GluedKernel([(one, ker), (constant(step, dom), psi)], dom)
        minus = GluedKernel([(one, ker), (constant(-step, dom), psi)], dom)
        if rest:
            a = _fd_differential(R, plus, rest)
            b = _fd_differential(R, minus, rest)
        else:
            a = R.evaluator(plus)
            b = R.evaluator(minus)
        return lin_comb([a, b], [0.5 / step, -0.5 / step])

    d1, d2 = D(h), D(h / 2.0)
    return lin_comb([d2, d1], [4.0 / 3.0, -1.0 / 3.0])


# ---------------------------------------------------------------------------
# restriction (a structural functor, applied eagerly)


def restrict_basic(R: BasicElement, V: Domain) -> BasicElement:
    """R|_V: push the restriction through the construction.

    Transitive by construction: restricting twice is restricting once to
    the smaller set.
    """
    if V == R.domain:
        return R
    if not V.is_subset(R.domain):
        raise NotContained("restriction target must sit inside the domain")
    if isinstance(R, Iota):
        return Iota(restrict_dist(R.u, V))
    if isinstance(R, Sigma):
        return Sigma(restrict_view(R.f, V))
    if isinstance(R, (Sum, Product)):
        return type(R)(tuple(restrict_basic(p, V) for p in R.parts))
    if isinstance(R, SmoothScale):
        return SmoothScale(tuple(restrict_view(f, V) for f in R.fs),
                           restrict_basic(R.a, V))
    if isinstance(R, LieHat):
        return LieHat(_field_on(R.X, V), restrict_basic(R.a, V))
    if isinstance(R, LieTilde):
        return LieTilde(_field_on(R.X, V), restrict_basic(R.a, V))
    if isinstance(R, Pushforward):
        W_ivs = []
        for lo, hi in V.intervals:
            a, b = float(R.mu.inv.jet(lo, 0)), float(R.mu.inv.jet(hi, 0))
            W_ivs.append((min(a, b), max(a, b)))
        W = Domain(tuple(sorted(W_ivs)))
        mu = Diffeo1D(restrict_view(R.mu.fwd, W), restrict_view(R.mu.inv, V),
                      W, V)
        return Pushforward(restrict_basic(R.a, W), mu)
    if isinstance(R, GenericElement):
        return GenericElement(R.evaluator, V, R.stated_tag)
    raise TypeError(f"unknown element {type(R).__name__}")


# ---------------------------------------------------------------------------
# empirical locality probing


@dataclass(frozen=True)
class LocalityReport:
    """Measured consistency with each rung of the locality chain.

    Flags are one-sided: True means the probes could not separate the
    element from that class; False is a witnessed failure.
    """

    local: bool
    point_local: bool
    point_independent: bool
    linear: bool
    defects: dict

    @property
    def chain_estimate(self) -> int:
        if not self.local:
            return CHAIN_NONE
        if not self.point_local:
            return CHAIN_LOCAL
        if not self.point_independent:
            return CHAIN_POINT_LOCAL
        return CHAIN_POINT_INDEP

    def consistent_with(self, tag: LocalityTag) -> bool:
        return self.chain_estimate >= tag.chain and (self.linear or not tag.linear)


class _XReparamKernel(Kernel):
    """Same densities along a reparametrized base point: phi(c + s(x-c), y).

    Agrees with phi at x = c but moves differently with x; separates
    point-local elements from merely local ones.
    """

    def __init__(self, base: Kernel, center: float, slope: float):
        self.base = base
        self.center = center
        self.slope = slope
        self.domain = base.domain
        self.jet_cap = base.jet_cap

    def _warp(self, x: float) -> float:
        return self.center + self.slope * (x - self.center)

    @_per_x
    def jets(self, x: float, mx: int, ys, my: int) -> np.ndarray:
        B = self.base.jets(self._warp(x), mx, ys, my)
        scale = self.slope ** np.arange(mx + 1)
        return B * scale[:, None, None]

    def y_window(self, x):
        return self.base.y_window(self._warp(x))


def probe_locality(R: BasicElement) -> LocalityReport:
    """Audit an element's locality empirically.

    Builds rate-16 kernels that agree on a region, at a point, or differ
    by a linear combination, and checks whether the element can tell them
    apart where it should not.  Probes are seeded but deterministic.
    """
    dom = R.domain
    lo, hi = dom.hull()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = max(lo, -2.0), min(hi, 2.0)
    L = hi - lo
    rng = np.random.default_rng(0)
    tol = 1e-8
    defects: dict[str, float] = {}

    seq_a = standard_sequence(dom, make_mollifier(3))
    seq_b = standard_sequence(dom, make_mollifier(1), mbar=0.7)
    ka, kb = seq_a.at(16), seq_b.at(16)

    def sup_on(f: SmoothFn, a: float, b: float, n: int = 41) -> float:
        xs = np.linspace(a, b, n)
        xs = xs[dom.contains(xs)]
        return float(np.max(np.abs(f.jet(xs, 0)))) if xs.size else 0.0

    # scale reference so tolerances mean "relative to typical output size"
    base_out = d_eval(R, ka, ())
    ref = max(sup_on(base_out, lo + 0.1 * L, hi - 0.1 * L), 1.0)

    # linearity: R(a phi + b psi) vs a R(phi) + b R(psi)
    ca, cb = 0.3, -1.2
    combo = GluedKernel([(constant(ca, dom), ka), (constant(cb, dom), kb)], dom)
    lhs = d_eval(R, combo, ())
    rhs = lin_comb([d_eval(R, ka, ()), d_eval(R, kb, ())], [ca, cb])
    defect = sup_on(lhs - rhs, lo + 0.1 * L, hi - 0.1 * L)
    defects["linear"] = defect / ref
    linear = defect <= tol * ref

    # point-independence: a kernel with no x-dependence must give a
    # constant output
    mid, rad = 0.5 * (lo + hi), 0.375 * L
    cw = ConstantKernel(TestFn(bump(mid, rad, dom)), dom)
    out = d_eval(R, cw, ())
    xs = np.linspace(lo + 0.1 * L, hi - 0.1 * L, 41)
    xs = xs[dom.contains(xs)]
    vals = out.jet(xs, 0)
    defect = float(np.max(vals) - np.min(vals))
    defects["point_independent"] = defect / ref
    point_independent = defect <= tol * ref

    # point-locality: kernels agreeing at x0 (but moving differently)
    # must agree at x0.  Probe where the output actually varies, or a
    # compactly concentrated element would pass vacuously.
    grid = np.linspace(lo + 0.15 * L, hi - 0.15 * L, 81)
    grid = grid[dom.contains(grid)]
    weight = np.abs(base_out.jet(grid, 0)) + np.abs(base_out.jet(grid, 1))
    picks = list(grid[np.argsort(weight)[::-1][:3]])
    picks += list(rng.uniform(lo + 0.2 * L, hi - 0.2 * L, 2))
    worst = 0.0
    for x0 in picks:
        warped = _XReparamKernel(ka, float(x0), 1.5)
        d = abs(float(base_out.jet(float(x0), 0))
                - float(d_eval(R, warped, ()).jet(float(x0), 0)))
        worst = max(worst, d)
    defects["point_local"] = worst / ref
    point_local = worst <= tol * ref

    # locality: ka left of the seam, kb right of a ramp in x after it;
    # the output must not change deep inside the left region
    cut = lo + 0.55 * L
    seam = cut + 0.1 * L
    ramp = smoothstep(seam, seam + 0.1 * L)
    patched = GluedKernel([(constant(1.0) - ramp, ka), (ramp, kb)], dom)
    defect = sup_on(base_out - d_eval(R, patched, ()), lo + 0.1 * L, cut - 0.15 * L)
    defects["local"] = defect / ref
    local = defect <= tol * ref

    return LocalityReport(local, point_local, point_independent, linear, defects)


# ---------------------------------------------------------------------------
# convenience: check a claimed tag against the probes


def audit_tag(R: BasicElement) -> LocalityReport:
    report = probe_locality(R)
    if not report.consistent_with(tag_of(R)):
        raise WrongTag(
            f"structural tag {tag_of(R)} not supported by probes: {report.defects}")
    return report
