"""A series-path reference for the standard kernel's rows.

``ScaleKernel.jets`` computes rows whose x lies on the scale plateau in
closed form.  This module keeps the formula the library used for every
row before that: the profile's h-series of s(x+h), a truncated series
composition of rho with u(h; y) = s(x+h)(y - x - h), and one series
product per y-order.  It shares only the series helpers with the
library, so tests can hold the closed form to its floats bit for bit.
"""

import numpy as np

from gfkernel.kernel import _rows
from gfkernel.smooth import _FACT, _series_compose, _series_mul


def series_jets(ker, x, mx, ys, my):
    """``ker.jets(x, mx, ys, my)`` for a ScaleKernel, every row by series."""
    xs, Y, scalar = _rows(x, ys)
    sc = ker._scale_series(xs, mx)[:, :, None]
    yrel = Y - xs[:, None]
    u = np.zeros((mx + 1,) + Y.shape)
    for i in range(mx + 1):
        u[i] = sc[i] * yrel
        if i >= 1:
            u[i] -= sc[i - 1]
    fact = _FACT[: mx + 1, None, None]
    spow = sc
    out = np.empty((mx + 1, my + 1) + Y.shape)
    rj = ker.moll.fn.jets(u[0], mx + my)
    for j in range(my + 1):
        comp = _series_compose(rj[j: j + mx + 1] / fact, u)
        out[:, j] = _series_mul(comp, np.broadcast_to(spow, comp.shape)) * fact
        spow = _series_mul(spow, sc)
    return out[:, :, 0] if scalar else out
