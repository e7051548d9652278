"""A scalar reference for the adaptive quadrature loop.

``smooth.integrate`` is the one-row case of ``smooth.integrate_rows``.
This module keeps the loop the library used before that: one panel per
integrand call, panels held in a list-ordered array, the worst panel
split in place.  It shares only the rule's data (nodes, weights, cuts,
acceptance, budget) with the library, so tests can hold the batched loop
to its floats bit for bit.
"""

import numpy as np

from gfkernel import smooth
from gfkernel.errors import NoConvergence
from gfkernel.smooth import _GK_NODES, _GK_WG, _GK_WK, QuadResult, _accepts, _cuts


def _panel(fn, lo, hi):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    ys = np.asarray(fn(c + h * _GK_NODES), dtype=float)
    ik = h * np.vecdot(ys, _GK_WK)
    ig = h * np.vecdot(ys[1::2], _GK_WG)
    return float(ik), float(abs(ik - ig)), float(h * np.vecdot(np.abs(ys), _GK_WK))


def scalar_integrate(fn, interval, *, rel_tol=1e-9, abs_tol=1e-12, points=()):
    """``smooth.integrate`` for finite integrands, one panel at a time;
    reads ``smooth.MAX_PANELS`` at call time."""
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        return QuadResult(0.0, 0.0)
    cuts = _cuts(lo, hi, points)
    n = len(cuts) - 1
    # rows [:n]: panels (lo, hi, value, error, mass), split halves appended
    pan = np.empty((2 * n + 16, 5))
    pan[:n] = [(a, b) + _panel(fn, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    while True:
        # left to right from a zero start; np.sum is pairwise
        total, toterr, mass = (np.add.accumulate(pan[:n, 2:])[-1] + 0.0).tolist()
        if _accepts(total, toterr, mass, rel_tol, abs_tol):
            return QuadResult(total, toterr)
        if n >= smooth.MAX_PANELS:
            raise NoConvergence(
                f"quadrature budget ({smooth.MAX_PANELS} panels) exhausted", total, toterr)
        worst = np.lexsort((pan[:n, 0], -pan[:n, 3]))[0]  # largest error, then leftmost
        a, b = pan[worst, :2].tolist()
        mid = 0.5 * (a + b)
        if n == len(pan):
            pan = np.concatenate([pan, np.empty_like(pan)])
        pan[worst: n - 1] = pan[worst + 1: n]
        pan[n - 1] = (a, mid) + _panel(fn, a, mid)
        pan[n] = (mid, b) + _panel(fn, mid, b)
        n += 1
