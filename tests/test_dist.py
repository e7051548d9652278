"""Distributions: pairings, calculus, transport, restriction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfkernel.dist import (
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
from gfkernel.errors import UnboundedSupport
from gfkernel.smooth import Domain, bump, constant_field, integrate, polynomial, sin_fn
from gfkernel.smooth import TestFn as CompactTestFn
from gfkernel.smooth import VectorField


DOM = Domain.interval(-2.0, 2.0)


def _phi(center=0.0, radius=0.8):
    return CompactTestFn(bump(center, radius, DOM))


class TestPairings:
    def test_delta_pairs_to_point_value(self):
        phi = _phi()
        got = pair(delta(0.3, domain=DOM), phi)
        assert got.value == pytest.approx(phi.jet(0.3, 0), abs=1e-14)

    def test_derivative_delta_alternates_sign(self):
        phi = _phi()
        got = pair(delta(0.1, order=1, domain=DOM), phi)
        assert got.value == pytest.approx(-phi.jet(0.1, 1), abs=1e-14)
        got2 = pair(delta(0.1, order=2, domain=DOM), phi)
        assert got2.value == pytest.approx(phi.jet(0.1, 2), abs=1e-13)

    def test_step_pairs_to_right_tail_integral(self):
        phi = _phi()
        got = pair(heaviside(DOM), phi)
        want = integrate(lambda x: phi.jet(x, 0), (0.0, 0.8),
                         rel_tol=1e-12, abs_tol=1e-14).value
        assert got.value == pytest.approx(want, abs=1e-11)

    def test_density_pairing_matches_direct_quadrature(self):
        phi = _phi(0.2, 0.5)
        got = pair(regular(sin_fn(), domain=DOM), phi)
        want = integrate(lambda x: np.sin(x) * phi.jet(x, 0), (-0.3, 0.7),
                         rel_tol=1e-12, abs_tol=1e-14).value
        assert got.value == pytest.approx(want, abs=1e-11)

    @given(st.floats(-0.5, 0.5), st.floats(-2.0, 2.0))
    def test_pairing_is_linear(self, a, c):
        phi = _phi()
        u = delta(a, domain=DOM)
        v = regular(sin_fn(), domain=DOM)
        lhs = pair(u + c * v, phi).value
        rhs = pair(u, phi).value + c * pair(v, phi).value
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


class TestCalculus:
    def test_derivative_of_step_is_delta(self):
        X = constant_field(1.0, DOM)
        du = lie_dist(X, heaviside(DOM))
        phi = _phi()
        assert pair(du, phi).value == pytest.approx(phi.jet(0.0, 0), abs=1e-12)

    def test_derivative_of_delta_raises_order(self):
        X = constant_field(1.0, DOM)
        du = lie_dist(X, delta(0.0, domain=DOM))
        assert len(du.deltas) == 1
        t = du.deltas[0]
        assert (t.point, t.order) == (0.0, 1)
        # adjoint identity <L u, phi> = -<u, (X phi)'> for constant X
        phi = _phi()
        assert pair(du, phi).value == pytest.approx(-phi.jet(0.0, 1), abs=1e-13)

    def test_adjoint_identity_nonconstant_field(self):
        # <L_X u, phi> = -<u, X phi' + X' phi> with X = x d/dx
        X = VectorField(polynomial([0.0, 1.0], DOM))
        u = regular(sin_fn(), domain=DOM)
        phi = _phi(0.3, 0.6)
        lhs = pair(lie_dist(X, u), phi).value
        integrand = lambda x: np.sin(x) * (x * phi.jet(x, 1) + phi.jet(x, 0))
        rhs = -integrate(integrand, (-0.3, 0.9), rel_tol=1e-12,
                         abs_tol=1e-14).value
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_scale_by_smooth_function(self):
        u = scale_dist(sin_fn(), delta(0.5, domain=DOM))
        phi = _phi()
        assert pair(u, phi).value == pytest.approx(
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
        lhs = pair(out, phi).value
        # <mu_* u, phi> = <u, phi o mu>
        comp_support = (-0.75, 0.75)
        dens = integrate(lambda x: np.sin(x) * phi.jet(2.0 * x + 1.0, 0),
                         comp_support, rel_tol=1e-12, abs_tol=1e-14).value
        point = -2.0 * phi.jet(1.4, 1)
        assert lhs == pytest.approx(dens + point, abs=1e-10)


class TestRestrictionAndSupport:
    def test_restriction_drops_outside_point_masses(self):
        u = delta(-1.0, domain=DOM) + delta(1.0, domain=DOM)
        v = restrict_dist(u, Domain.interval(0.0, 2.0))
        assert len(v.deltas) == 1
        assert v.deltas[0].point == 1.0

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
