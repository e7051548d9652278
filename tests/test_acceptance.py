"""End-to-end checks of the library's central claims, with pinned tolerances.

Every numerical target here is either a closed form recomputed from first
principles (Gauss-Legendre reference quadrature, dense sampling of the
mollifier) or an asymptotic bound asserted on a fitted slope.  Nothing is
compared against the library's own adaptive quadrature except where the
claim under test is about that evaluation itself.
"""

import numpy as np
import pytest

from gfkernel.basic import (
    affine_diffeo,
    eval_basic,
    iota,
    lie_hat,
    lie_tilde,
    pushforward,
    restrict_basic,
    sigma,
    tag_of,
)
from gfkernel.dist import delta, heaviside, pair, regular
from gfkernel.kernel import (
    DEFAULT_K_GRID,
    constant_witness_seq,
    eventually_equal,
    glue_seqs,
    make_mollifier,
    restrict_seq,
    standard_sequence,
)
from gfkernel.simplified import (
    classify_seq,
    iota_seq,
    pullback_seq,
    section_seq,
    sigma_seq,
)
from gfkernel.smooth import TestFn as CompactBump
from gfkernel.smooth import (
    Domain,
    VectorField,
    bump,
    constant_field,
    polynomial,
    seminorm,
    sin_fn,
)
from gfkernel.testing import (
    associated,
    default_region,
    embedding_residual_sweep,
    fit_order,
    is_moderate,
    is_negligible,
    validate_test_object,
)

DOM = Domain.interval(-2.0, 2.0)
KS = DEFAULT_K_GRID
REGION = default_region(DOM)        # [-0.5, 0.5]

# standard kernels put scale k * radius / 0.8 on the central plateau
PLATEAU_SCALE = 1 / 0.8


def _battery(*specs):
    return [CompactBump(bump(c, r, DOM)) for c, r in specs]


def _gauss_moment(moll, a: int, n: int) -> float:
    """Reference integral of x^a rho(x) on Legendre nodes, no library code."""
    x, w = np.polynomial.legendre.leggauss(n)
    xs = moll.radius * x
    return moll.radius * float(np.dot(w * xs**a, moll.fn.jet(xs, 0)))


def _mollifier_sup(moll) -> float:
    xs = np.linspace(-moll.radius, moll.radius, 2_000_001)[1:-1]
    return float(np.max(np.abs(moll.fn.jet(xs, 0))))


class TestMollifierMoments:
    @pytest.mark.parametrize("q", range(6))
    def test_unit_mass_and_vanishing_moments(self, q):
        moll = make_mollifier(q)
        # the reference quadrature is converged: two node counts agree
        assert abs(_gauss_moment(moll, 0, 160) - _gauss_moment(moll, 0, 200)) < 1e-12
        assert abs(_gauss_moment(moll, 0, 200) - 1.0) < 1e-10
        for a in range(1, q + 1):
            assert abs(_gauss_moment(moll, a, 160) - _gauss_moment(moll, a, 200)) < 1e-12
            assert abs(_gauss_moment(moll, a, 200)) < 1e-8


class TestGradedSequences:
    @pytest.mark.parametrize("q", [0, 3, 5])
    def test_standard_sequence_is_a_graded_test_object(self, q, q3_seq):
        seq = q3_seq if q == 3 else standard_sequence(DOM, make_mollifier(q))
        rep = validate_test_object(seq, grade=q)
        assert rep.passed
        bound = -(q + 1) + 0.5
        live = 0
        for (probe, m), v in rep.rate.items():
            if m > 2:
                continue
            assert v.bound == bound
            resolved = not (v.fit.exact_zero or v.fit.peak < v.floor)
            if resolved:
                assert v.fit.slope <= bound, (probe, m)
                live += 1
        assert live, "every residual sweep fell below resolution"
        assert all(v.ok for v in rep.weak.values())


class TestEmbeddingComparison:
    def test_smooth_residual_decays_at_grade_rate(self):
        seq = standard_sequence(DOM, make_mollifier(5))
        fit = embedding_residual_sweep(sin_fn(), seq, K=REGION, m=0)
        assert fit.slope <= -5.5

    def test_pointmass_residual_grows_linearly(self):
        moll = make_mollifier(5)
        seq = standard_sequence(DOM, moll)
        R = iota(delta(0.0, domain=DOM))        # minus sigma(0), which is 0
        vals = [seminorm(eval_basic(R, seq.at(k)), REGION, 0) for k in KS]
        assert fit_order(vals, KS).slope >= 0.8
        # closed form: the row at x is s rho(s(y - x)) on the plateau, so
        # the sup over a region containing 0 is s sup|rho|
        rho_sup = _mollifier_sup(moll)
        for k, v in zip(KS, vals):
            assert v == pytest.approx(k * PLATEAU_SCALE * rho_sup, rel=1e-5)


class TestPointmassSquare:
    def test_square_grows_at_second_order(self, q3_seq):
        R = iota(delta(0.0, domain=DOM)) * iota(delta(0.0, domain=DOM))
        rep = is_negligible(R, q3_seq, orders=(0,))
        fit = rep.sweeps[0].fit
        assert not rep.verdict
        assert fit.slope == pytest.approx(2.0, abs=0.2)
        rho_sup = _mollifier_sup(q3_seq.mollifier)
        assert fit.values[0] == pytest.approx(
            (KS[0] * PLATEAU_SCALE * rho_sup) ** 2, rel=1e-5)


class TestStepSquare:
    def test_defect_survives_every_rate(self, q3_seq):
        H = iota(heaviside(DOM))
        rep = is_negligible(H * H - H, q3_seq, orders=(0,))
        fit = rep.sweeps[0].fit
        assert not rep.verdict
        assert fit.slope >= -0.2
        # the squared ramp undershoots the ramp by 1/4 at the midpoint,
        # and no rate smooths that away
        assert fit.values[-1] >= 0.125

    def test_defect_is_nonetheless_associated_to_zero(self, q3_seq):
        H = iota(heaviside(DOM))
        rep = associated(H * H, H, seq=q3_seq,
                         battery=_battery((0.0, 0.8), (0.25, 0.5)),
                         slope_bound=-0.8)
        assert rep.verdict
        live = [v for v in rep.sweeps.values()
                if not (v.fit.exact_zero or v.fit.peak < v.floor)]
        assert live, "the pairings must be visible, not vacuously small"
        assert all(v.fit.slope <= -0.8 for v in live)


class TestStepTimesPointmass:
    def test_product_pairs_like_half_a_pointmass(self, q3_seq):
        R = iota(heaviside(DOM)) * iota(delta(0.0, domain=DOM))
        u = regular(eval_basic(R, q3_seq.at(KS[-1])), domain=DOM)
        battery = _battery((0.0, 0.8), (0.2, 0.9), (-0.3, 1.0),
                           (0.1, 0.6), (0.0, 0.5))
        for phi in battery:
            got = pair(u, [phi]).value[0]
            assert got == pytest.approx(phi.fn.jet(0.0, 0) / 2, abs=1e-3)


class TestLieDerivatives:
    def test_flow_derivative_commutes_with_the_embedding(self, q3_seq):
        X = constant_field(1.0, DOM)
        moved = lie_hat(X, iota(delta(0.0, domain=DOM)))
        target = iota(delta(0.0, order=1, domain=DOM))
        xs = np.linspace(-0.4, 0.4, 5)
        for k in KS:
            ker = q3_seq.at(k)
            np.testing.assert_allclose(eval_basic(moved, ker).jet(xs, 0),
                                       eval_basic(target, ker).jet(xs, 0),
                                       rtol=0, atol=1e-8)

    def test_composition_derivative_is_module_linear(self, q3_seq):
        x_fn = polynomial([0.0, 1.0], DOM)
        unit = constant_field(1.0, DOM)
        R = iota(delta(0.0, domain=DOM))
        lhs = lie_tilde(VectorField(x_fn), R)
        rhs = sigma(x_fn, DOM) * lie_tilde(unit, R)
        xs = np.linspace(-0.6, 0.6, 7)
        for k in (8, 32, 128):
            ker = q3_seq.at(k)
            np.testing.assert_allclose(eval_basic(lhs, ker).jet(xs, 0),
                                       eval_basic(rhs, ker).jet(xs, 0),
                                       rtol=0, atol=1e-12)

    def test_two_derivatives_differ_negligibly(self, q3_seq):
        # the pairings come out as pure roundoff dust (~1e-31 against
        # sides of size k^2), so the verdict needs the calibrated floor
        unit = constant_field(1.0, DOM)
        R = iota(delta(0.0, domain=DOM))
        rep = associated(lie_tilde(unit, R), lie_hat(unit, R), seq=q3_seq,
                         battery=_battery((0.0, 0.8), (0.2, 0.9), (-0.3, 1.0),
                                          (0.1, 0.6), (0.0, 0.5)),
                         slope_bound=-0.8)
        assert rep.verdict
        for v in rep.sweeps.values():
            assert (v.fit.exact_zero or v.fit.peak < v.floor
                    or v.fit.slope <= -0.8)


class TestSheafStructure:
    def test_restrict_then_glue_recovers_the_sequence(self, q3_seq):
        cover = [(-2.0, -0.4), (-1.1, 1.1), (0.4, 2.0)]
        pieces = [restrict_seq(q3_seq, Domain.interval(lo, hi))
                  for lo, hi in cover]
        glued = glue_seqs(cover, pieces, domain=DOM)
        probes = np.linspace(-1.8, 1.8, 10)
        eq = eventually_equal(glued, q3_seq, probes, k_grid=KS)
        assert eq.all_eventual
        assert all(k0 <= 64 for k0 in eq.per_probe.values())

    def test_separated_masses_vanish_locally_but_not_globally(self, q3_seq):
        R = iota(delta(-1.0, domain=DOM)) * iota(delta(1.0, domain=DOM))
        halves = [(Domain.interval(-2.0, 0.0), np.linspace(-1.6, -0.4, 7)),
                  (Domain.interval(0.0, 2.0), np.linspace(0.4, 1.6, 7))]
        for U, xs in halves:
            piece = restrict_basic(R, U)
            ker = restrict_seq(q3_seq, U).at(32)
            assert np.all(eval_basic(piece, ker).jet(xs, 0) == 0.0)
        # a non-localizing witness sees both masses at once
        witness = constant_witness_seq(DOM)
        assert eval_basic(R, witness.at(32)).jet(0.0, 0) > 0.0

    def test_restriction_is_transitive(self, q3_seq):
        R = iota(delta(0.0, domain=DOM)) + sigma(sin_fn(), DOM)
        V, W = Domain.interval(-1.5, 1.5), Domain.interval(-0.75, 0.75)
        two_step = restrict_basic(restrict_basic(R, V), W)
        one_step = restrict_basic(R, W)
        seq = standard_sequence(W, make_mollifier(3))
        xs = np.linspace(-0.5, 0.5, 9)
        for k in (8, 32, 128):
            ker = seq.at(k)
            np.testing.assert_allclose(eval_basic(two_step, ker).jet(xs, 0),
                                       eval_basic(one_step, ker).jet(xs, 0),
                                       rtol=0, atol=1e-10)

    def test_restriction_away_from_the_mass_is_negligible(self, q3_seq):
        R = iota(delta(0.0, domain=DOM))
        far, near = Domain.interval(0.5, 2.0), Domain.interval(-0.5, 0.5)
        assert is_negligible(restrict_basic(R, far),
                             restrict_seq(q3_seq, far), orders=(0,)).verdict
        assert not is_negligible(restrict_basic(R, near),
                                 restrict_seq(q3_seq, near), orders=(0,)).verdict


class TestSimplifiedCorrespondence:
    @pytest.mark.parametrize("kind", ["pointmass", "smooth"])
    def test_pullback_inverts_section_on_the_grid(self, q3_seq, kind):
        if kind == "pointmass":
            rep = iota_seq(delta(0.0, domain=DOM), q3_seq)
        else:
            rep = sigma_seq(sin_fn(), DOM)
        back = pullback_seq(section_seq(rep, q3_seq), q3_seq)
        xs = np.linspace(-0.5, 0.5, 33)
        for a, b in zip(back.fns, rep.fns):
            assert np.max(np.abs(a.jet(xs, 0) - b.jet(xs, 0))) == 0.0

    @pytest.mark.parametrize("kind", ["pointmass", "square", "residual", "zero"])
    def test_classification_agrees_through_both_models(self, q3_seq, kind):
        d = iota(delta(0.0, domain=DOM))
        R = {"pointmass": d,
             "square": d * d,
             "residual": iota(regular(sin_fn(), domain=DOM)) - sigma(sin_fn(), DOM),
             "zero": 0.0 * d}[kind]
        # the residual needs honest evaluation at every rate, which gets
        # expensive high up the grid; the verdicts are settled early
        ks = (8, 16, 32) if kind == "residual" else KS
        mod = is_moderate(R, q3_seq, orders=(0, 1), k_grid=ks).verdict
        neg = is_negligible(R, q3_seq, orders=(0, 1), k_grid=ks).verdict
        cls = classify_seq(pullback_seq(R, q3_seq, k_grid=ks), orders=(0, 1))
        assert cls.moderate == mod
        assert cls.negligible == neg


class TestNaturality:
    def test_affine_transport_moves_the_mass(self, q3_seq):
        mu = affine_diffeo(2.0, 1.0, DOM)
        src = iota(delta(0.0, domain=DOM))
        moved = pushforward(src, mu)
        target = iota(delta(1.0, domain=mu.image))
        seq = standard_sequence(mu.image, make_mollifier(3))
        zs = np.linspace(0.6, 1.4, 5)
        for k in KS:
            ker = seq.at(k)
            np.testing.assert_allclose(eval_basic(moved, ker).jet(zs, 0),
                                       eval_basic(target, ker).jet(zs, 0),
                                       rtol=0, atol=1e-8)
        assert tag_of(moved) == tag_of(src)
