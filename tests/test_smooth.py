"""Smooth layer: domains, jets, cutoffs, quadrature, seminorms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfkernel import smooth
from gfkernel.errors import DomainMismatch, NoConvergence, OutOfDomain
from gfkernel.smooth import (
    CompactInterval,
    Domain,
    DyadicPartition,
    PiecewiseFn,
    _cuts,
    _product,
    bump,
    compose,
    constant,
    constant_field,
    derivative_fn,
    exp_fn,
    extend_by_zero,
    integrate,
    lie_smooth,
    lin_comb,
    partition_of_unity,
    plateau,
    polynomial,
    restrict_view,
    seminorm,
    sin_fn,
    smoothstep,
)
from gfkernel.smooth import TestFn as CompactTestFn
from tests.quadref import scalar_integrate


class TestDomains:
    def test_open_interval_excludes_endpoints(self):
        d = Domain.interval(-2.0, 2.0)
        inside = d.contains(np.array([-2.0, -1.999, 0.0, 1.999, 2.0]))
        assert list(inside) == [False, True, True, True, False]

    def test_component_lookup(self):
        d = Domain(((-2.0, -0.5), (0.5, 2.0)))
        assert d.component_of(1.0) == (0.5, 2.0)
        assert d.component_of(-1.0) == (-2.0, -0.5)

    def test_intersection_respects_pieces(self):
        d = Domain(((-2.0, -0.5), (0.5, 2.0)))
        got = d.intersect(Domain.interval(-1.0, 1.0))
        assert got.intervals == ((-1.0, -0.5), (0.5, 1.0))

    def test_subset_and_hull(self):
        d = Domain(((-2.0, -0.5), (0.5, 2.0)))
        assert Domain.interval(0.6, 1.9).is_subset(d)
        assert not Domain.interval(-0.6, 0.6).is_subset(d)
        assert d.hull() == (-2.0, 2.0)

    def test_compact_interval_ops(self):
        K = CompactInterval(-0.5, 0.5)
        assert K.width == 1.0
        assert K.hull(CompactInterval(0.0, 2.0)) == CompactInterval(-0.5, 2.0)
        assert K.intersect(CompactInterval(0.0, 2.0)) == CompactInterval(0.0, 0.5)


class TestJets:
    def test_polynomial_derivatives(self):
        p = polynomial([0.0, 0.0, 0.0, 1.0])  # x^3
        assert p.jet(2.0, 0) == 8.0
        assert p.jet(2.0, 1) == 12.0
        assert p.jet(2.0, 2) == 12.0
        assert p.jet(2.0, 3) == 6.0
        assert p.jet(2.0, 4) == 0.0

    def test_product_jets_match_leibniz(self):
        # (sin x * e^x)''' = 2 e^x (cos x - sin x)
        f = sin_fn() * exp_fn()
        x = 0.7
        want = 2.0 * math.exp(x) * (math.cos(x) - math.sin(x))
        assert abs(f.jet(x, 3) - want) < 1e-12

    def test_sum_and_scalar_scale(self):
        f = 2.0 * sin_fn() + polynomial([1.0])
        xs = np.linspace(-1.0, 1.0, 7)
        np.testing.assert_allclose(f.jet(xs, 0), 2.0 * np.sin(xs) + 1.0,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(f.jet(xs, 1), 2.0 * np.cos(xs),
                                   rtol=0, atol=1e-14)

    def test_derivative_fn_shifts_orders(self):
        g = derivative_fn(sin_fn())
        xs = np.linspace(-1.0, 1.0, 9)
        np.testing.assert_allclose(g.jet(xs, 0), np.cos(xs), rtol=0, atol=1e-14)
        np.testing.assert_allclose(g.jet(xs, 1), -np.sin(xs), rtol=0, atol=1e-14)

    def test_negative_order_is_rejected(self):
        # jet already refuses m < 0; jets and seminorm must too, not fail
        # on an empty array or return one
        with pytest.raises(ValueError):
            constant(1.0).jets(0.3, -1)
        with pytest.raises(ValueError):
            sin_fn().jets(np.array([0.3, 0.4]), -1)
        with pytest.raises(ValueError):
            seminorm(sin_fn(), CompactInterval(-1.0, 1.0), -1)

    @given(st.floats(-1.5, 1.5), st.integers(0, 4))
    def test_composition_jets_match_closed_form(self, x, m):
        # sin(e^x) has analytic derivatives we can cross-check by FD on
        # the jet one order down; spacing chosen for the central stencil
        from gfkernel.smooth import compose

        f = compose(sin_fn(), exp_fn())
        if m == 0:
            assert abs(f.jet(x, 0) - math.sin(math.exp(x))) < 1e-12
        else:
            h = 1e-5
            fd = (f.jet(x + h, m - 1) - f.jet(x - h, m - 1)) / (2 * h)
            scale = max(1.0, abs(f.jet(x, m)))
            assert abs(f.jet(x, m) - fd) / scale < 1e-6


# leaves of random smooth chains: bounded with bounded derivatives on [-1, 1]
_LEAVES = st.one_of(
    st.just(sin_fn()), st.just(exp_fn()), st.just(bump(0.0, 2.0)),
    st.just(smoothstep(-1.5, 1.5)),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4).map(polynomial))


def _chains(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.tuples(pairs, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
            lambda t: lin_comb(list(t[0]), [t[1], t[2]])),
        pairs.map(lambda fg: _product(*fg)),
        st.tuples(st.sampled_from([sin_fn(), exp_fn(), bump(0.0, 2.0)]), children).map(
            lambda t: compose(t[0], t[1])),
        children.map(derivative_fn))


class TestChainJets:
    @given(st.recursive(_LEAVES, _chains, max_leaves=4), st.floats(-1.0, 1.0))
    def test_structural_jets_match_central_differences(self, f, x):
        # f^(m)(x) against (f^(m-1)(x+h) - f^(m-1)(x-h)) / 2h, h = 1e-5:
        # truncation h^2/6 |f^(m+2)| and roundoff eps |f^(m-1)| / h both
        # sit far below 1e-6 of max(1, |f^(m)|) on these chains
        h = 1e-5
        for m in range(1, min(2, f.jet_cap) + 1):
            fd = (f.jet(x + h, m - 1) - f.jet(x - h, m - 1)) / (2 * h)
            got = f.jet(x, m)
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(got))


def _zero_fill_masked_all(self, x, m):
    # the support mask with a zero fill at every call, in or out of support
    if self.support is None:
        return self._jet_all(x, m)
    inside = self.support.contains(x)
    vals = np.zeros((m + 1, x.size))
    if inside.any():
        vals[:, inside] = self._jet_all(x[inside], m)
    return vals


# layered functions that carry one support through every layer, as the
# mollifier does, and ones whose layers carry different supports
MASKED_FNS = {
    "bump": lambda: bump(0.1, 0.7),
    "plateau": lambda: plateau(-0.3, 0.2, 0.4),
    "mollifier": lambda: lin_comb([_product(bump(0.0, 1.0), polynomial([1.0, 0.0, -2.0]))],
                                  [1.3]),
    "product of two supports": lambda: bump(0.0, 1.0) * plateau(0.2, 0.4, 0.3),
    "sum of two supports": lambda: bump(-0.5, 0.6) + 2.0 * bump(0.4, 0.5),
    "derivative": lambda: derivative_fn(bump(0.0, 0.9), 2),
}


@pytest.mark.parametrize("name", sorted(MASKED_FNS))
@given(st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=8), st.integers(0, 6),
       st.booleans())
def test_support_pass_through_equals_the_zero_fill(name, xs, m, ends):
    f = MASKED_FNS[name]()
    lo, hi = f.support.lo, f.support.hi
    # all points inside the support, or some outside it too
    x = np.array(xs + ([lo, hi] if ends else []))
    x = np.clip(x, lo, hi) if ends else x
    got = f.jets(x, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smooth.SmoothFn, "_masked_all", _zero_fill_masked_all)
        want = f.jets(x, m)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCutoffs:
    def test_bump_support_and_flat_edges(self):
        b = bump(0.3, 0.8)
        assert b.support.lo == pytest.approx(-0.5)
        assert b.support.hi == pytest.approx(1.1)
        assert b.jet(0.3, 0) == 1.0
        for m in range(5):
            assert b.jet(1.1, m) == 0.0
            assert b.jet(2.0, m) == 0.0

    def test_plateau_is_one_inside_zero_outside(self):
        p = plateau(-0.5, 0.5, 0.2)
        xs = np.array([-0.8, -0.5, 0.0, 0.5, 0.8])
        np.testing.assert_array_equal(p.jet(xs, 0), [0.0, 1.0, 1.0, 1.0, 0.0])
        # flat to all orders where it is flat
        assert p.jet(0.0, 3) == 0.0

    def test_smoothstep_monotone(self):
        s = smoothstep(0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 101)
        vals = s.jet(xs, 0)
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0)

    def test_partition_of_unity_sums_to_one(self):
        cover = [(-2.0, -0.4), (-1.1, 1.1), (0.4, 2.0)]
        pou = partition_of_unity(cover)
        xs = np.linspace(-1.95, 1.95, 81)
        tot = sum(pou.chi(i).jet(xs, 0) for i in range(3))
        np.testing.assert_allclose(tot, 1.0, rtol=0, atol=1e-12)

    def test_partition_members_respect_cover(self):
        cover = [(-2.0, -0.4), (-1.1, 1.1), (0.4, 2.0)]
        pou = partition_of_unity(cover)
        # probe points inside the union but outside each piece
        outside = {0: [0.5, 1.5], 1: [-1.5, 1.5], 2: [-1.5, -0.5]}
        for i in range(3):
            chi = pou.chi(i)
            np.testing.assert_array_equal(
                chi.jet(np.array(outside[i]), 0), [0.0, 0.0])

    @pytest.mark.parametrize("lo, hi, x", [
        (-1.0, 1.0, -0.905), (-1.0, 1.0, -0.95), (-1.0, 1.0, 0.6),
        (0.0, math.inf, 0.2), (0.0, math.inf, 0.7), (0.0, math.inf, 1.4),
        (-math.inf, math.inf, 0.3)])
    def test_dyadic_partition_sums_to_one(self, lo, hi, x):
        # at core/ring, ring/ring, ring/tile and tile/tile overlaps the
        # active weights sum to 1 and their derivatives to 0
        part = DyadicPartition(Domain.interval(lo, hi))
        J = np.array([part.chi(key).jets(x, 2) for key in part.active_keys(x)])
        assert len(J) >= 2
        assert abs(J[:, 0].sum() - 1.0) < 1e-12
        for j in (1, 2):
            assert abs(J[:, j].sum()) <= 1e-12 * np.max(np.abs(J[:, j])), j


class TestRestriction:
    def test_restrict_view_narrows_domain(self):
        f = restrict_view(sin_fn(), Domain.interval(-1.0, 1.0))
        assert f.domain.intervals == ((-1.0, 1.0),)
        assert f.jet(0.5, 0) == pytest.approx(math.sin(0.5))
        with pytest.raises(OutOfDomain):
            f.jet(1.5, 0)

    def test_restriction_to_the_own_domain_is_the_function(self):
        f = sin_fn(Domain.interval(-1.0, 1.0))
        assert restrict_view(f, f.domain) is f

    def test_restricted_piecewise_keeps_the_breaks_inside(self):
        f = PiecewiseFn([-1.0, 0.0, 1.0], [constant(c) for c in (1.0, 2.0, 3.0, 4.0)],
                        Domain.interval(-2.0, 2.0))
        g = restrict_view(f, Domain.interval(-1.0, 0.5))
        assert isinstance(g, PiecewiseFn)
        assert g.breaks == (0.0,)
        assert g.pieces == f.pieces[1:3]
        assert g.jet(np.array([-0.5, 0.0, 0.25]), 0).tolist() == [2.0, 3.0, 3.0]
        assert restrict_view(f, Domain.interval(0.2, 0.8)).pieces == f.pieces[2:3]

    def test_jet_and_jets_name_the_point_outside(self):
        f = restrict_view(sin_fn(), Domain.interval(-1.0, 1.0))
        with pytest.raises(OutOfDomain, match=r"^1\.5 not in domain"):
            f.jet(np.array([0.5, 1.5]), 0)
        with pytest.raises(OutOfDomain, match=r"^1\.5 not in domain"):
            f.jets(np.array([0.5, 1.5]), 1)

    def test_extend_by_zero(self):
        g = extend_by_zero(bump(0.0, 0.5, Domain.interval(-1.0, 1.0)),
                           Domain.interval(-2.0, 2.0))
        assert g.jet(1.7, 0) == 0.0
        assert g.jet(0.0, 0) == 1.0

    def test_lin_comb(self):
        f = lin_comb([sin_fn(), sin_fn()], [2.0, -1.0])
        xs = np.linspace(-1, 1, 5)
        np.testing.assert_allclose(f.jet(xs, 0), np.sin(xs), rtol=0, atol=1e-14)


class TestQuadrature:
    def test_exact_on_smooth_closed_forms(self):
        got = integrate(np.sin, (0.0, math.pi), rel_tol=1e-12, abs_tol=1e-14)
        assert abs(got.value - 2.0) < 1e-11
        assert got.error < 1e-10

    def test_reported_error_bounds_true_error(self):
        f = lambda x: np.exp(x) * np.cos(3.0 * x)
        got = integrate(f, (0.0, 2.0), rel_tol=1e-11, abs_tol=1e-14)
        true = (math.exp(2.0) * (math.cos(6.0) + 3.0 * math.sin(6.0)) - 1.0) / 10.0
        assert abs(got.value - true) <= max(got.error * 10, 1e-13)

    def test_breakpoints_respected(self):
        f = lambda x: np.abs(x)
        got = integrate(f, (-1.0, 1.0), rel_tol=1e-12, abs_tol=1e-14,
                        points=(0.0,))
        assert abs(got.value - 1.0) < 1e-12

    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    def test_polynomial_exactness(self, coeffs):
        # Gauss-Kronrod nodes integrate low-degree polynomials to roundoff
        p = polynomial(coeffs)
        got = integrate(lambda x: p.jet(x, 0), (-1.0, 1.0),
                        rel_tol=1e-13, abs_tol=1e-13)
        want = sum(c * ((1.0) ** (j + 1) - (-1.0) ** (j + 1)) / (j + 1)
                   for j, c in enumerate(coeffs))
        assert abs(got.value - want) < 1e-11 * max(1.0, abs(want))

    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity(self, a, b):
        f, g = sin_fn(), exp_fn()
        lhs = integrate(lambda x: a * f.jet(x, 0) + b * g.jet(x, 0),
                        (0.0, 1.0), rel_tol=1e-12, abs_tol=1e-14).value
        rhs = (a * integrate(lambda x: f.jet(x, 0), (0.0, 1.0),
                             rel_tol=1e-12, abs_tol=1e-14).value
               + b * integrate(lambda x: g.jet(x, 0), (0.0, 1.0),
                               rel_tol=1e-12, abs_tol=1e-14).value)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


    # bounds from the returned error estimates, plus the roundoff of the
    # node sums (which the acceptance floor of integrate also allows)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.floats(-1.0, 0.5), st.floats(0.1, 2.0))
    def test_linear_in_the_integrand_within_error_bounds(self, a, b, lo, width):
        f = lambda x: np.sin(5.0 * x) * np.exp(x)
        g = lambda x: np.abs(x - 0.1) ** 1.5
        hi = lo + width
        opts = dict(rel_tol=1e-9, abs_tol=1e-12, points=(0.1,))
        both = integrate(lambda x: a * f(x) + b * g(x), (lo, hi), **opts)
        rf, rg = integrate(f, (lo, hi), **opts), integrate(g, (lo, hi), **opts)
        slack = 1e-13 * width * (abs(a) * math.exp(hi) + abs(b) * 3.0) + 1e-15
        bound = both.error + abs(a) * rf.error + abs(b) * rg.error + slack
        assert abs(both.value - (a * rf.value + b * rg.value)) <= bound

    @given(st.floats(-2.0, 0.0), st.floats(0.2, 2.0), st.floats(0.01, 0.99))
    def test_additive_over_an_interior_split(self, lo, width, frac):
        f = lambda x: np.cos(7.0 * x) / (2.5 + x)
        hi = lo + width
        mid = lo + frac * width
        opts = dict(rel_tol=1e-10, abs_tol=1e-13)
        whole = integrate(f, (lo, hi), **opts)
        left, right = integrate(f, (lo, mid), **opts), integrate(f, (mid, hi), **opts)
        slack = 1e-13 * width * 2.0 + 1e-15
        bound = whole.error + left.error + right.error + slack
        assert abs(whole.value - (left.value + right.value)) <= bound


    def test_panel_sums_do_not_depend_on_builtin_sum(self, monkeypatch):
        # panels of 1e16, 1 and -1e16: a left-to-right sum loses the 1, a
        # compensated one (builtin sum since CPython 3.12) keeps it
        def f(x):
            return np.where(x < 1.0, 1e16, np.where(x < 2.0, 1.0, -1e16))

        def compensated(values, start=0):
            return math.fsum([start, *values])

        monkeypatch.setattr(smooth, "sum", compensated, raising=False)
        opts = dict(rel_tol=1e-9, abs_tol=1e-12)
        got = integrate(f, (0.0, 3.0), points=(1.0, 2.0), **opts)
        rows = integrate(lambda rows, ys: f(ys), [(0.0, 3.0)], points=[(1.0, 2.0)], **opts)
        assert got.value == rows.value[0] == 0.0

    def test_rows_give_integrates_floats(self):
        # one integral per row, each refined as the scalar loop refines it alone
        fns = [np.sin, lambda x: np.abs(x - 0.3), lambda x: np.exp(-40.0 * x * x), np.cos]
        spans = [(0.0, 3.0, ()), (-1.0, 1.0, (0.3,)), (-2.0, 2.0, (0.0, 0.5)), (1.0, 1.0, ())]

        def f(rows, ys):
            return np.stack([fns[r](y) for r, y in zip(rows, ys)])

        got = integrate(f, [(lo, hi) for lo, hi, _ in spans], rel_tol=1e-11, abs_tol=1e-14,
                        points=[pts for _, _, pts in spans])
        want = [scalar_integrate(g, (lo, hi), rel_tol=1e-11, abs_tol=1e-14, points=pts)
                for g, (lo, hi, pts) in zip(fns, spans)]
        assert got.value.tolist() == [w.value for w in want]
        assert got.error.tolist() == [w.error for w in want]

    # piecewise integrands: a smooth wave plus a |x - s|^1.5 kink per
    # piece, with jumps at breaks that the cut points may or may not name;
    # further rows integrate it over spans and cuts of their own, or are
    # zero rows (hi <= lo)
    @given(st.floats(-2.0, 0.0), st.floats(0.05, 3.0),
           st.lists(st.floats(0.0, 1.0), max_size=3),
           st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 40.0),
                              st.floats(-1.0, 1.0)), min_size=1, max_size=4),
           st.lists(st.floats(0.0, 1.0), max_size=3),
           st.sampled_from([1e-6, 1e-9, 1e-12]), st.integers(1, 12),
           st.lists(st.tuples(st.booleans(), st.floats(-2.0, 0.0), st.floats(0.05, 3.0),
                              st.lists(st.floats(0.0, 1.0), max_size=3)), max_size=3))
    def test_integrate_is_the_scalar_loop(self, lo, width, breaks, pieces, points,
                                          rel_tol, budget, more):
        hi = lo + width
        brk = np.sort([lo + b * width for b in breaks])
        amp, freq, shift = map(np.array, zip(*pieces))

        def f(x):
            i = np.searchsorted(brk, x) % len(pieces)
            return amp[i] * np.sin(freq[i] * x + shift[i]) + np.abs(x - shift[i]) ** 1.5

        pts = [lo + p * width for p in points]
        spans = [(lo, hi, pts)] + [(a, a + w, [a + p * w for p in ps]) if live else (a + w, a, ())
                                   for live, a, w, ps in more]
        opts = dict(rel_tol=rel_tol, abs_tol=1e-14)

        def rows():
            return integrate(lambda r, ys: f(ys), [(a, b) for a, b, _ in spans],
                             points=[p for *_, p in spans], **opts)

        def outcome(quad, a, b, p):
            try:
                return tuple(quad(f, (a, b), points=p, **opts))
            except NoConvergence as exc:
                return (str(exc), exc.estimate, exc.error_bound)

        want = [scalar_integrate(f, (a, b), points=p, **opts) for a, b, p in spans]
        got = integrate(f, (lo, hi), points=pts, **opts)
        assert (got.value, got.error) == (want[0].value, want[0].error)
        assert np.signbit(got.value) == np.signbit(want[0].value)
        got = rows()
        assert got.value.tolist() == [w.value for w in want]
        assert got.error.tolist() == [w.error for w in want]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smooth, "MAX_PANELS", budget)
            outs = [outcome(scalar_integrate, *span) for span in spans]
            assert outcome(integrate, *spans[0]) == outs[0]
            # every unsettled row splits one panel a round, so the rows
            # call raises for the first row to reach the budget (ties:
            # the lowest index), as its own call raises
            spent = [(max(0, budget - len(_cuts(a, b, p)) + 1), i, out)
                     for i, ((a, b, p), out) in enumerate(zip(spans, outs))
                     if isinstance(out[0], str)]
            try:
                rows()
            except NoConvergence as exc:
                assert spent and (str(exc), exc.estimate, exc.error_bound) == min(spent)[2]
            else:
                assert not spent

    def test_a_pole_is_not_accepted(self):
        # the middle node hits the pole: an infinite panel sum once passed
        # the relative test as inf <= rel_tol * inf
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(NoConvergence, match=r"not finite on panel \(0.0, 1.0\)") as exc:
            integrate(f, (0.0, 1.0))
        assert math.isnan(exc.value.estimate) and exc.value.error_bound == math.inf

    @pytest.mark.parametrize("make", [lambda x: np.full_like(x, np.nan),
                                      lambda x: np.where(x > 0.5, np.inf, 1.0)],
                             ids=["nan", "inf-half"])
    def test_non_finite_integrands_stop_at_once(self, make):
        calls = []

        def f(x):
            calls.append(x.size)
            return make(x)

        with pytest.raises(NoConvergence, match="not finite"):
            integrate(f, (0.0, 1.0), points=(0.25,))
        assert calls == [30]  # one round: both initial panels, no refinement
        with pytest.raises(NoConvergence, match=r"panel \(0.25, 1.0\)"):
            integrate(lambda rows, ys: np.where(rows[:, None] == 1, make(ys), 1.0),
                      [(0.0, 0.25), (0.25, 1.0)])

    def test_the_integrand_returns_one_value_per_node(self):
        with pytest.raises(ValueError, match=r"one value per node: expected shape \(15,\), got \(\)"):
            integrate(lambda x: 1.0, (0, 1))
        with pytest.raises(ValueError, match=r"expected shape \(2, 15\), got \(2,\)"):
            integrate(lambda rows, ys: ys[:, 0], [(0.0, 1.0), (1.0, 2.0)])
        # checked every round: here the second round's one split panel
        calls = []

        def f(x):
            calls.append(x.size)
            return np.sin(40.0 * x)[: 15 if len(calls) > 1 else None]

        with pytest.raises(ValueError, match=r"expected shape \(30,\), got \(15,\)"):
            integrate(f, (0.0, 1.0))
        assert calls == [15, 30]


class TestSeminorm:
    def test_tuple_of_orders_gives_each_orders_own_float(self):
        # a narrow bump: |f|, |f'| and |f''| peak at different points, so
        # each order zooms on its own centre
        spike = bump(0.1234, 0.05) * sin_fn()
        K = CompactInterval(-0.5, 0.5)
        xs = np.linspace(K.lo, K.hi, 129)
        pts = np.concatenate([xs, 0.5 * (xs[:-1] + xs[1:])])
        peaks = np.maximum.accumulate(np.abs(spike.jets(pts, 2)), axis=0).argmax(axis=1)
        assert len(set(peaks.tolist())) == 3
        cases = [(spike, K), (sin_fn(), CompactInterval(0.0, 1.0)),
                 (bump(0.123456, 0.01), CompactInterval(0.0, 0.5)),
                 (polynomial([0.5, -1.0, 0.0, 2.0]), CompactInterval(-1.0, 1.5))]
        for f, K in cases:
            for orders in [(0, 1, 2), (2, 0), (1,), (0, 3, 1, 2)]:
                got = seminorm(f, K, orders, grid=129)
                assert type(got) is tuple
                assert got == tuple(seminorm(f, K, m, grid=129) for m in orders)
        assert type(seminorm(sin_fn(), K, 1)) is float

    def test_tuple_of_orders_makes_one_jets_call_per_pass(self, monkeypatch):
        # the grid pass and both zoom passes each serve every order at once
        calls = []
        real = smooth.SmoothFn.jets
        monkeypatch.setattr(smooth.SmoothFn, "jets",
                            lambda f, x, m: calls.append(m) or real(f, x, m))
        spike = bump(0.1234, 0.05) * sin_fn()
        seminorm(spike, CompactInterval(-0.5, 0.5), (0, 1, 2), grid=129)
        assert calls == [2, 2, 2]

    def test_negative_order_in_a_tuple_is_rejected(self):
        with pytest.raises(ValueError):
            seminorm(sin_fn(), CompactInterval(0.0, 1.0), (0, -1))

    def test_interior_maximum_found(self):
        K = CompactInterval(0.0, math.pi / 2)
        assert seminorm(sin_fn(), K, 0) == pytest.approx(1.0, abs=1e-9)

    def test_orders_accumulate(self):
        # m=1 includes |cos| which is 1 at the left endpoint
        assert seminorm(sin_fn(), CompactInterval(0.0, 1.0), 1) == \
            pytest.approx(1.0, abs=1e-12)

    def test_zoom_sharpens_narrow_peaks(self):
        # a spike of width ~1e-2 between coarse grid points
        spike = bump(0.123456, 0.01)
        val = seminorm(spike, CompactInterval(0.0, 0.5), 0)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestVectorFields:
    def test_lie_on_smooth_is_directional_derivative(self):
        X = constant_field(2.0)
        g = lie_smooth(X, sin_fn())
        xs = np.linspace(-1.0, 1.0, 9)
        np.testing.assert_allclose(g.jet(xs, 0), 2.0 * np.cos(xs),
                                   rtol=0, atol=1e-14)

    def test_nonconstant_coefficient(self):
        X = polynomial([0.0, 1.0])  # x d/dx
        from gfkernel.smooth import VectorField

        g = lie_smooth(VectorField(X), exp_fn())
        assert g.jet(0.5, 0) == pytest.approx(0.5 * math.exp(0.5), abs=1e-13)


class TestTestFn:
    def test_wraps_compact_support(self):
        phi = CompactTestFn(bump(0.0, 0.8))
        assert phi.support == CompactInterval(-0.8, 0.8)
        assert phi.jet(0.0, 0) == 1.0

    def test_rejects_noncompact(self):
        from gfkernel.errors import UnboundedSupport

        with pytest.raises(UnboundedSupport):
            CompactTestFn(sin_fn())
