"""Distributions: pairings, calculus, transport, restriction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfkernel import smooth
from gfkernel.dist import (
    PAIR_ABS_TOL,
    PAIR_REL_TOL,
    DeltaTerm,
    DensityTerm,
    Distribution,
    default_test_battery,
    delta,
    heaviside,
    lie_dist,
    mollify,
    pair,
    pushforward_dist,
    regular,
    restrict_dist,
    scale_dist,
    support_dist,
)
from gfkernel.errors import NoConvergence, UnboundedSupport
from gfkernel.smooth import (
    Domain, PiecewiseFn, bump, constant_field, integrate, lie_smooth, polynomial, sin_fn)
from gfkernel.smooth import TestFn as CompactTestFn
from gfkernel.smooth import VectorField
from tests.quadref import scalar_integrate


DOM = Domain.interval(-2.0, 2.0)


def _phi(center=0.0, radius=0.8):
    return CompactTestFn(bump(center, radius, DOM))


class TestPairings:
    def test_delta_pairs_to_point_value(self):
        phi = _phi()
        got = pair(delta(0.3, domain=DOM), [phi]).value[0]
        assert got == pytest.approx(phi.jet(0.3, 0), abs=1e-14)

    def test_derivative_delta_alternates_sign(self):
        phi = _phi()
        got = pair(delta(0.1, order=1, domain=DOM), [phi]).value[0]
        assert got == pytest.approx(-phi.jet(0.1, 1), abs=1e-14)
        got2 = pair(delta(0.1, order=2, domain=DOM), [phi]).value[0]
        assert got2 == pytest.approx(phi.jet(0.1, 2), abs=1e-13)

    def test_step_pairs_to_right_tail_integral(self):
        phi = _phi()
        got = pair(heaviside(DOM), [phi]).value[0]
        want = integrate(lambda x: phi.jet(x, 0), (0.0, 0.8),
                         rel_tol=1e-12, abs_tol=1e-14).value
        assert got == pytest.approx(want, abs=1e-11)

    def test_density_pairing_matches_direct_quadrature(self):
        phi = _phi(0.2, 0.5)
        got = pair(regular(sin_fn(), domain=DOM), [phi]).value[0]
        want = integrate(lambda x: np.sin(x) * phi.jet(x, 0), (-0.3, 0.7),
                         rel_tol=1e-12, abs_tol=1e-14).value
        assert got == pytest.approx(want, abs=1e-11)

    @given(st.floats(-0.5, 0.5), st.floats(-2.0, 2.0))
    def test_pairing_is_linear(self, a, c):
        phi = _phi()
        u = delta(a, domain=DOM)
        v = regular(sin_fn(), domain=DOM)
        lhs = pair(u + c * v, [phi]).value[0]
        rhs = pair(u, [phi]).value[0] + c * pair(v, [phi]).value[0]
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestBatteryPairing:
    """``pair`` takes a battery: each entry keeps the floats of its own
    point-mass jets and, per density, its own scalar integral."""

    @given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.integers(0, 2), st.floats(-2.0, 2.0)),
                    max_size=3),
           st.floats(-1.0, 1.0), st.floats(-2.0, 2.0),
           st.floats(-1.0, 1.0), st.floats(0.1, 0.8), st.floats(-2.0, 2.0),
           st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
           st.lists(st.floats(-2.0, 2.0), max_size=4), st.integers(1, 12))
    def test_entries_equal_jets_plus_scalar_integrals(self, masses, jump, c_step, center,
                                                      radius, c_bump, picks, points, budget):
        step = heaviside(DOM, jump_at=jump).densities[0].fn
        u = Distribution(DOM, tuple(DeltaTerm(p, o, c) for p, o, c in masses),
                         (DensityTerm(step, c_step),
                          DensityTerm(bump(center, radius, DOM) * sin_fn(), c_bump)))
        battery = default_test_battery(DOM)
        phis = [battery[i] for i in picks]

        def reference(phi):
            value = 0.0
            for t in u.deltas:
                value += t.coeff * (-1.0) ** t.order * phi.jet(t.point, t.order)
            for t in u.densities:
                lo, hi = phi.support.lo, phi.support.hi
                if t.fn.support is not None:
                    lo, hi = max(lo, t.fn.support.lo), min(hi, t.fn.support.hi)
                row = scalar_integrate(lambda x: t.fn.jet(x, 0) * phi.jet(x, 0), (lo, hi),
                                       rel_tol=PAIR_REL_TOL, abs_tol=PAIR_ABS_TOL,
                                       points=(*t.fn.breaks, *phi.fn.breaks, *points))
                value += t.coeff * row.value
            return value

        got = pair(u, phis, points=points).value.tolist()
        want = [reference(phi) for phi in phis]
        assert got == want
        assert np.signbit(got).tolist() == np.signbit(want).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smooth, "MAX_PANELS", budget)
            failing = []
            for phi in phis:
                try:
                    reference(phi)
                except NoConvergence:
                    failing.append(phi)
            try:
                pair(u, phis, points=points)
                raised = False
            except NoConvergence:
                raised = True
        assert raised == bool(failing)

    def test_point_mass_outside_a_test_functions_domain_reads_zero(self):
        phi = CompactTestFn(bump(0.0, 0.5, Domain.interval(-1.0, 1.0)))
        u = delta(1.5, domain=DOM) + delta(0.2, coeff=2.0, domain=DOM)
        assert pair(delta(1.5, domain=DOM), [phi]).value.tolist() == [0.0]
        assert pair(u, [phi]).value.tolist() == [2.0 * phi.jet(0.2, 0)]


class TestCalculus:
    def test_derivative_of_step_is_delta(self):
        X = constant_field(1.0, DOM)
        du = lie_dist(X, heaviside(DOM))
        phi = _phi()
        assert pair(du, [phi]).value[0] == pytest.approx(phi.jet(0.0, 0), abs=1e-12)

    def test_derivative_of_delta_raises_order(self):
        X = constant_field(1.0, DOM)
        du = lie_dist(X, delta(0.0, domain=DOM))
        assert len(du.deltas) == 1
        t = du.deltas[0]
        assert (t.point, t.order) == (0.0, 1)
        # adjoint identity <L u, phi> = -<u, (X phi)'> for constant X
        phi = _phi()
        assert pair(du, [phi]).value[0] == pytest.approx(-phi.jet(0.0, 1), abs=1e-13)

    def test_adjoint_identity_nonconstant_field(self):
        # <L_X u, phi> = -<u, X phi' + X' phi> with X = x d/dx
        X = VectorField(polynomial([0.0, 1.0], DOM))
        u = regular(sin_fn(), domain=DOM)
        phi = _phi(0.3, 0.6)
        lhs = pair(lie_dist(X, u), [phi]).value[0]
        integrand = lambda x: np.sin(x) * (x * phi.jet(x, 1) + phi.jet(x, 0))
        rhs = -integrate(integrand, (-0.3, 0.9), rel_tol=1e-12,
                         abs_tol=1e-14).value
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_adjoint_identity_on_point_masses_a_step_and_a_density(self):
        # <L_X u, phi> = -<u, psi>, psi = X phi' + X' phi, with X = x d/dx
        X = VectorField(polynomial([0.0, 1.0], DOM))
        masses = [(0.3, 0, 1.5), (0.3, 1, -0.7), (0.3, 2, 0.4),
                  (-0.5, 0, 0.9), (-0.5, 1, 1.1), (-0.5, 2, -0.6)]
        u = heaviside(DOM, 0.1) + regular(sin_fn(), domain=DOM)
        for a, n, c in masses:
            u = u + delta(a, n, c, DOM)
        phi = _phi(0.1, 1.2)
        psi = lie_smooth(X, phi.fn) + phi.fn

        def psi_jet(x, n):  # (x phi)^(n+1) = x phi^(n+1) + (n+1) phi^(n)
            return x * phi.jet(x, n + 1) + (n + 1) * phi.jet(x, n)

        want = sum(c * (-1.0) ** n * psi_jet(a, n) for a, n, c in masses)
        want += integrate(lambda x: psi.jet(x, 0), (0.1, 1.3),
                          rel_tol=1e-12, abs_tol=1e-14).value
        want += integrate(lambda x: np.sin(x) * psi.jet(x, 0), (-1.1, 1.3),
                          rel_tol=1e-12, abs_tol=1e-14, points=(0.1,)).value
        assert pair(lie_dist(X, u), [phi]).value[0] == pytest.approx(-want, abs=1e-10)

    def test_scale_pairs_like_the_product_density(self):
        f = polynomial([0.5, -1.0, 0.3], DOM)
        phi = _phi(0.2, 1.1)
        fu = scale_dist(f, regular(sin_fn(), domain=DOM))
        want = integrate(lambda x: f.jet(x, 0) * np.sin(x) * phi.jet(x, 0), (-0.9, 1.3),
                         rel_tol=1e-12, abs_tol=1e-14).value
        assert pair(fu, [phi]).value[0] == pytest.approx(want, abs=1e-12)
        fH = scale_dist(f, heaviside(DOM))
        g = fH.densities[0].fn
        assert isinstance(g, PiecewiseFn) and g.breaks == (0.0,)
        want = integrate(lambda x: f.jet(x, 0) * phi.jet(x, 0), (0.0, 1.3),
                         rel_tol=1e-12, abs_tol=1e-14).value
        assert pair(fH, [phi]).value[0] == pytest.approx(want, abs=1e-12)

    def test_scale_by_smooth_function(self):
        u = scale_dist(sin_fn(), delta(0.5, domain=DOM))
        phi = _phi()
        assert pair(u, [phi]).value[0] == pytest.approx(
            math.sin(0.5) * phi.jet(0.5, 0), abs=1e-13)


class TestMollification:
    def test_delta_mollifies_to_scaled_kernel(self):
        from gfkernel.kernel import make_mollifier

        rho = make_mollifier(2).fn
        out = mollify(delta(0.0, domain=DOM), rho, 8.0)
        # (u * rho_k)(x) = k rho(k x) for a point mass at the origin
        assert out.jet(0.05, 0) == pytest.approx(8.0 * rho.jet(0.4, 0), abs=1e-12)

    def test_smooth_density_nearly_unchanged(self):
        from gfkernel.kernel import make_mollifier

        rho = make_mollifier(3).fn
        out = mollify(regular(sin_fn(), domain=DOM), rho, 64.0)
        xs = np.linspace(-0.5, 0.5, 7)
        assert np.max(np.abs(out.jet(xs, 0) - np.sin(xs))) < 1e-5

    def test_mixture_matches_direct_quadrature(self):
        from gfkernel.kernel import make_mollifier

        rho = make_mollifier(2).fn  # support [-1, 1]
        k = 8.0
        out = mollify(delta(0.2, domain=DOM) + heaviside(DOM), rho, k)
        for x in (-0.3, -0.05, 0.1, 0.25, 0.6):
            lo, hi = max(0.0, x - 1.0 / k), x + 1.0 / k
            step = 0.0
            if lo < hi:
                step = integrate(lambda ys: k * rho.jet(k * (x - ys), 0), (lo, hi),
                                 rel_tol=1e-12, abs_tol=1e-14).value
            want = k * rho.jet(k * (x - 0.2), 0) + step
            assert out.jet(x, 0) == pytest.approx(want, abs=1e-10), x
            # the step's smoothing has derivative rho_k(x) in closed form
            want1 = k ** 2 * rho.jet(k * (x - 0.2), 1) + k * rho.jet(k * x, 0)
            assert out.jet(x, 1) == pytest.approx(want1, abs=1e-9), x

    def test_unbounded_density_shrinks_the_domain(self):
        from gfkernel.kernel import make_mollifier

        out = mollify(heaviside(DOM), make_mollifier(3).fn, 8.0)
        assert out.domain.intervals == ((-1.875, 1.875),)
        assert out.jet(1.87, 0) == pytest.approx(1.0, abs=1e-10)

    def test_window_wider_than_domain_rejected(self):
        from gfkernel.kernel import make_mollifier

        small = Domain.interval(-0.1, 0.1)
        with pytest.raises(UnboundedSupport):
            mollify(heaviside(small), make_mollifier(3).fn, 8.0)


class TestTransport:
    def test_point_mass_moves_without_jacobian(self):
        mu = polynomial([1.0, 2.0], DOM)          # 2x + 1
        mu_inv = polynomial([-0.5, 0.5], Domain.interval(-3.0, 5.0))
        out = pushforward_dist(delta(0.0, domain=DOM), mu, mu_inv,
                               Domain.interval(-3.0, 5.0))
        assert len(out.deltas) == 1
        t = out.deltas[0]
        assert (t.point, t.order, t.coeff) == (1.0, 0, 1.0)

    def test_second_order_mass_under_curved_map(self):
        # mu(x) = x + 0.1 x^2 sends delta''(0.5) to a mix at 0.525:
        # coefficient -0.2 on delta' and 1.21 on delta'' (chain rule jets)
        img = Domain.interval(-3.0, 5.0)
        mu = polynomial([0.0, 1.0, 0.1], DOM)
        # inverse via solving the quadratic; only values matter here
        from gfkernel.smooth import SmoothFn

        def inv_jets(y, m):
            x = (np.sqrt(1.0 + 0.4 * y) - 1.0) / 0.2
            out = [x]
            if m >= 1:
                out.append(1.0 / np.sqrt(1.0 + 0.4 * y))
            for _ in range(len(out), m + 1):
                out.append(np.zeros_like(y))
            return np.stack(out[: m + 1])

        mu_inv = SmoothFn(img, inv_jets, jet_cap=1)
        out = pushforward_dist(delta(0.5, order=2, domain=DOM), mu, mu_inv, img)
        terms = sorted((t.order, t.point, t.coeff) for t in out.deltas)
        assert terms[0] == (1, pytest.approx(0.525), pytest.approx(-0.2))
        assert terms[1] == (2, pytest.approx(0.525), pytest.approx(1.21))

    def test_transport_matches_precomposition_pairing(self):
        img = Domain.interval(-3.0, 5.0)
        mu = polynomial([1.0, 2.0], DOM)
        mu_inv = polynomial([-0.5, 0.5], img)
        u = delta(0.2, order=1, domain=DOM) + regular(sin_fn(), domain=DOM)
        out = pushforward_dist(u, mu, mu_inv, img)
        phi = CompactTestFn(bump(1.0, 1.5, img))
        lhs = pair(out, [phi]).value[0]
        # <mu_* u, phi> = <u, phi o mu>
        comp_support = (-0.75, 0.75)
        dens = integrate(lambda x: np.sin(x) * phi.jet(2.0 * x + 1.0, 0),
                         comp_support, rel_tol=1e-12, abs_tol=1e-14).value
        point = -2.0 * phi.jet(1.4, 1)
        assert lhs == pytest.approx(dens + point, abs=1e-10)


    def test_compact_density_moves_by_change_of_variables(self):
        img = Domain.interval(-3.0, 5.0)
        mu = polynomial([1.0, -2.0], DOM)          # 1 - 2x, decreasing
        mu_inv = polynomial([0.5, -0.5], img)
        g = bump(0.3, 0.8, DOM)
        out = pushforward_dist(regular(g, 1.7), mu, mu_inv, img)
        s = out.densities[0].fn.support
        assert (s.lo, s.hi) == (mu.jet(1.1, 0), mu.jet(-0.5, 0))
        assert (s.lo, s.hi) == (pytest.approx(-1.2), pytest.approx(2.0))
        phi = CompactTestFn(bump(0.5, 2.0, img))
        # <mu_* u, phi> = <u, phi o mu>
        want = 1.7 * integrate(lambda x: g.jet(x, 0) * phi.jet(1.0 - 2.0 * x, 0),
                               (-0.5, 1.1), rel_tol=1e-12, abs_tol=1e-14).value
        assert pair(out, [phi]).value[0] == pytest.approx(want, abs=1e-10)


class TestRestrictionAndSupport:
    def test_restricted_step_keeps_its_jump(self):
        V = Domain.interval(-1.0, 1.0)
        u = restrict_dist(heaviside(DOM), V)
        du = lie_dist(constant_field(1.0, V), u)
        assert [(t.point, t.order, t.coeff) for t in du.deltas] == [(0.0, 0, 1.0)]
        assert support_dist(u) == ((0.0, 1.0),)
        # a break in a gap of the domain carries no jump
        W = Domain(((-2.0, -1.0), (1.0, 2.0)))
        assert lie_dist(constant_field(1.0, W), restrict_dist(heaviside(DOM), W)).deltas == ()

    def test_restriction_drops_outside_point_masses(self):
        u = delta(-1.0, domain=DOM) + delta(1.0, domain=DOM)
        v = restrict_dist(u, Domain.interval(0.0, 2.0))
        assert len(v.deltas) == 1
        assert v.deltas[0].point == 1.0

    def test_support_is_clipped_to_the_components(self):
        # the step's pieces end at the components' edges, not at the hull's
        W = Domain(((-2.0, -1.0), (1.0, 2.0)))
        assert support_dist(restrict_dist(heaviside(DOM), W)) == ((1.0, 2.0),)
        assert support_dist(restrict_dist(heaviside(DOM, jump_at=-1.5), W)) == (
            (-1.5, -1.0), (1.0, 2.0))
        dens = restrict_dist(regular(bump(0.0, 1.9, DOM)), W)
        assert support_dist(dens) == ((-1.9, -1.0), (1.0, 1.9))

    def test_support_reported(self):
        u = delta(0.5, domain=DOM)
        (lo, hi), = support_dist(u)
        assert lo == hi == 0.5

    def test_battery_is_deterministic_and_admissible(self):
        b1 = default_test_battery(DOM)
        b2 = default_test_battery(DOM)
        assert len(b1) == 12
        for p, q in zip(b1, b2):
            assert p.support == q.support
        lo, hi = DOM.hull()
        for phi in b1:
            assert lo < phi.support.lo and phi.support.hi < hi
