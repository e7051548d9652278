"""The sequence model: generalized functions as graded families of
smooth functions, without the kernel argument.

A representative here is just one smooth function per rate-grid entry.
Evaluating a functional along a fixed kernel sequence lands in this
model (``pullback_seq``); a smooth selection trick goes back
(``section_seq``), and the two are inverse on the nose at the grid
kernels.  Growth and decay classify exactly as in the full model, which
is the point: over a fixed sequence the two theories agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic import (
    CHAIN_NONE,
    BasicElement,
    GenericElement,
    Iota,
    LocalityTag,
    eval_basic,
)
from .errors import DomainMismatch, NoSeparation
from .kernel import DEFAULT_K_GRID, Kernel, KernelSequence
from .smooth import (
    CompactInterval,
    Domain,
    SmoothFn,
    constant,
    derivative_fn,
    lin_comb,
    plateau,
    restrict_view,
)
from .testing import (
    default_family,
    default_region,
    moderate_verdict,
    negligible_verdict,
    sweep_seminorms,
)


@dataclass(frozen=True)
class SimplifiedRep:
    """One smooth function per grid rate; pointwise algebra."""

    domain: Domain
    k_grid: tuple[int, ...]
    fns: tuple[SmoothFn, ...]

    def __post_init__(self):
        if len(self.fns) != len(self.k_grid):
            raise ValueError("one function per grid entry")

    def at(self, k: int) -> SmoothFn:
        return self.fns[self.k_grid.index(k)]

    def _zip(self, other: "SimplifiedRep", op):
        if not isinstance(other, SimplifiedRep):
            return NotImplemented
        if other.k_grid != self.k_grid:
            raise ValueError("mismatched rate grids")
        if other.domain != self.domain:
            raise DomainMismatch("mismatched domains")
        return SimplifiedRep(self.domain, self.k_grid,
                             tuple(op(f, g) for f, g in zip(self.fns, other.fns)))

    def __add__(self, other):
        return self._zip(other, lambda f, g: f + g)

    def __sub__(self, other):
        return self._zip(other, lambda f, g: f - g)

    def __mul__(self, other):
        if isinstance(other, SimplifiedRep):
            return self._zip(other, lambda f, g: f * g)
        if isinstance(other, (int, float)):
            c = float(other)
            return SimplifiedRep(self.domain, self.k_grid,
                                 tuple(f * c for f in self.fns))
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "SimplifiedRep":
        return SimplifiedRep(self.domain, self.k_grid,
                             tuple(derivative_fn(f, order) for f in self.fns))


def iota_seq(u, seq: KernelSequence | None = None, *,
             k_grid=DEFAULT_K_GRID) -> SimplifiedRep:
    """Embed a distribution: smooth it along the sequence, keep the grid."""
    seq = seq if seq is not None else default_family(u.domain, 3)
    fns = tuple(eval_basic(Iota(u), seq.at(k)) for k in k_grid)
    return SimplifiedRep(seq.domain, tuple(k_grid), fns)


def sigma_seq(f: SmoothFn, domain: Domain | None = None, *,
              k_grid=DEFAULT_K_GRID) -> SimplifiedRep:
    """Embed a smooth function as a constant family."""
    dom = domain if domain is not None else f.domain
    g = f if f.domain == dom else restrict_view(f, dom)
    return SimplifiedRep(dom, tuple(k_grid), tuple(g for _ in k_grid))


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SimplifiedClassification:
    growth: dict   # m -> SweepVerdict
    decay: dict    # m -> SweepVerdict
    region: CompactInterval

    @property
    def moderate(self) -> bool:
        return all(sv.ok for sv in self.growth.values())

    @property
    def negligible(self) -> bool:
        return all(sv.ok for sv in self.decay.values())


def classify_seq(rep: SimplifiedRep, *, K: CompactInterval | None = None,
                 orders=(0, 1, 2)) -> SimplifiedClassification:
    """Moderate/negligible verdicts by direct seminorm fits of the family.

    One seminorm sweep of the family, judged at every order by the rules
    of the full-model classifiers (``testing.moderate_verdict`` and
    ``testing.negligible_verdict``).
    """
    K = K if K is not None else default_region(rep.domain)
    fits = sweep_seminorms(rep.at, K, tuple(orders), rep.k_grid)
    growth: dict = {}
    decay: dict = {}
    for m in orders:
        growth[m] = moderate_verdict(fits[m])
        decay[m] = negligible_verdict(fits[m])
    return SimplifiedClassification(growth, decay, K)


# ---------------------------------------------------------------------------
# pullback along a sequence, and its section


def pullback_seq(R: BasicElement, seq: KernelSequence | None = None, *,
                 k_grid=DEFAULT_K_GRID) -> SimplifiedRep:
    """Evaluate a functional at the grid kernels of a sequence."""
    seq = seq if seq is not None else default_family(R.domain, 3)
    fns = tuple(eval_basic(R, seq.at(k)) for k in k_grid)
    return SimplifiedRep(seq.domain, tuple(k_grid), fns)


def separation_values(seq: KernelSequence, k_grid=DEFAULT_K_GRID,
                      *, K: CompactInterval | None = None) -> tuple[float, ...]:
    """The diagonal masses t(phi) = int_K phi(x)(x) dx at the grid kernels.

    This linear functional separates the grid: along a concentrating
    sequence it grows with the rate, giving one real number per kernel,
    strictly increasing in k.  Raises NoSeparation when the sequence
    fails that (a constant witness, say).
    """
    K = K if K is not None else default_region(seq.domain)
    vals = tuple(_diag_mass(seq.at(k), K) for k in k_grid)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise NoSeparation(
            f"diagonal masses {vals} do not increase strictly")
    return vals


def _diag_mass(ker: Kernel, K: CompactInterval) -> float:
    # composite Simpson on a fixed grid: deterministic, smooth in the
    # kernel, and identical between section and separation scans
    K = _clip_region(K, ker.domain)
    if K is None:
        return 0.0
    n = 65
    xs = np.linspace(K.lo, K.hi, n)
    diag = ker.jets(xs, 0, xs[:, None], 0)[0, 0, :, 0]
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-2:2] = 2.0
    h = (K.hi - K.lo) / (n - 1)
    return float(h / 3.0 * (w @ diag))


def _clip_region(K: CompactInterval, dom: Domain) -> CompactInterval | None:
    """K itself when the domain contains it; otherwise the biggest part
    strictly inside one component (selection on a restricted kernel
    degrades gracefully)."""
    if dom.contains_interval(K.lo, K.hi, strict=True):
        return K
    eps = 1e-6 * (K.hi - K.lo)
    best = None
    for lo, hi in dom.intervals:
        a, b = max(K.lo, lo + eps), min(K.hi, hi - eps)
        if b > a and (best is None or b - a > best.hi - best.lo):
            best = CompactInterval(a, b)
    return best


def section_seq(rep: SimplifiedRep, seq: KernelSequence | None = None, *,
                K: CompactInterval | None = None) -> GenericElement:
    """A functional whose pullback along ``seq`` is ``rep`` exactly.

    Selection by diagonal mass: smooth windows sit on the separation
    values, flat at exactly 1 there, identically 0 at every other grid
    kernel; a kernel argument picks out the blend of family members its
    diagonal mass lands on.  At a grid kernel the blend collapses to
    that entry, so pullback(section(rep)) returns the entry itself.

    The result forgets locality (the selection reads the kernel
    globally), which is the honest tag for it.
    """
    seq = seq if seq is not None else default_family(rep.domain, 3)
    K = K if K is not None else default_region(seq.domain)
    svals = separation_values(seq, rep.k_grid, K=K)
    gaps = [b - a for a, b in zip(svals, svals[1:])]
    if not gaps:
        gaps = [max(abs(svals[0]), 1.0)]
    windows = []
    for i, s in enumerate(svals):
        gl = gaps[i - 1] if i > 0 else gaps[0]
        gr = gaps[i] if i < len(gaps) else gaps[-1]
        windows.append(plateau(s - 0.2 * gl, s + 0.2 * gr,
                               0.2 * min(gl, gr)))

    def evaluator(ker: Kernel) -> SmoothFn:
        t = _diag_mass(ker, K)
        coefs = [w.jet(t, 0) for w in windows]
        live = [(c, f) for c, f in zip(coefs, rep.fns) if c != 0.0]
        if not live:
            out = constant(0.0, rep.domain)
        elif len(live) == 1 and live[0][0] == 1.0:
            out = live[0][1]
        else:
            out = lin_comb([f for _, f in live], [c for c, _ in live])
        if ker.domain != rep.domain:
            out = restrict_view(out, ker.domain)
        return out

    return GenericElement(evaluator, rep.domain,
                          LocalityTag(CHAIN_NONE, linear=False))


__all__ = [
    "SimplifiedRep",
    "SimplifiedClassification",
    "iota_seq",
    "sigma_seq",
    "classify_seq",
    "pullback_seq",
    "separation_values",
    "section_seq",
]
