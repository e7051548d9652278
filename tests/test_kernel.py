"""Smoothing kernels: mollifiers, the standard family, derived kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfkernel import smooth
from gfkernel.dist import delta, heaviside, pair, regular
from gfkernel.errors import (
    DomainMismatch,
    JetCapExceeded,
    NoConvergence,
    NoSeparation,
    NotContained,
)
from gfkernel import dist as dist_mod
from gfkernel.kernel import (
    APPLY_ABS_TOL,
    APPLY_REL_TOL,
    DEFAULT_K_GRID,
    MOMENT_ABS_TOL,
    MOMENT_REL_TOL,
    SERIES_TERMS,
    Mollifier,
    ConstantKernel,
    GluedKernel,
    Kernel,
    LieKernel,
    PullbackKernel,
    TranslationKernel,
    apply_kernel,
    combo_seq,
    constant_witness_seq,
    eventually_equal,
    extend_seq,
    glue_seqs,
    is_localizing,
    lie_seq,
    make_mollifier,
    restrict_seq,
    standard_sequence,
)
from gfkernel.kernel import _edge_taper, _moments, _profile_for
from gfkernel.smooth import TestFn as CompactTestFn
from gfkernel.smooth import (
    Domain,
    VectorField,
    bump,
    constant,
    constant_field,
    integrate,
    polynomial,
    sin_fn,
    smoothstep,
)
from tests.kernelref import series_jets
from tests.quadref import scalar_integrate

DOM = Domain.interval(-2.0, 2.0)


class TestMollifier:
    @pytest.mark.parametrize("q", range(6))
    def test_mass_and_vanishing_moments(self, q):
        m = make_mollifier(q)
        mass = integrate(lambda t: m.fn.jet(t, 0), (-m.radius, m.radius),
                         rel_tol=1e-13, abs_tol=1e-14).value
        assert abs(mass - 1.0) < 1e-12
        for a in range(1, q + 1):
            mom = integrate(lambda t: t ** a * m.fn.jet(t, 0),
                            (-m.radius, m.radius),
                            rel_tol=1e-13, abs_tol=1e-14).value
            assert abs(mom) < 1e-11, (q, a)

    def test_moment_method_matches_quadrature(self):
        m = make_mollifier(3)
        for a in range(8):
            direct = integrate(lambda t: t ** a * m.fn.jet(t, 0),
                               (-m.radius, m.radius),
                               rel_tol=1e-13, abs_tol=1e-14).value
            assert m.moment(a) == pytest.approx(direct, abs=1e-11), a

    def test_moment_rows_equal_one_row_calls(self, monkeypatch):
        # one integrate call measures every exponent, each row bit for bit
        for q in (0, 3, 5):
            m = make_mollifier(q)
            want = [integrate(lambda t: t ** a * m.fn.jet(t, 0), (-m.radius, m.radius),
                              rel_tol=MOMENT_REL_TOL, abs_tol=MOMENT_ABS_TOL,
                              points=(0.0,)).value for a in range(21)]
            assert _moments(m.fn, range(21), m.radius) == want
        calls = []
        real = dist_mod.integrate
        monkeypatch.setattr(dist_mod, "integrate",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        fresh = Mollifier(m.fn, m.order, m.radius)
        got = [fresh.moment(a) for a in range(SERIES_TERMS + 3)]
        assert len(calls) == 2  # a miss fills every even moment up to SERIES_TERMS
        assert got == [0.0 if a % 2 else w for a, w in enumerate(want[:SERIES_TERMS + 3])]

    def test_supported_in_stated_radius(self):
        m = make_mollifier(2)
        assert m.fn.jet(m.radius, 0) == 0.0
        assert m.fn.jet(-m.radius, 0) == 0.0


class TestStandardSequence:
    def test_plateau_is_exact_scaled_mollifier(self, q3_seq):
        ker = q3_seq.at(16)
        s = ker.plateau_scale(0.0)
        assert s is not None
        rho = ker.mollifier.fn
        ys = np.linspace(-0.05, 0.05, 11)
        want = s * rho.jet(s * ys, 0)
        got = ker.jets(0.0, 0, ys, 0)[0, 0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_rows_keep_unit_mass_everywhere(self, q3_seq):
        # the defining property of a smoothing kernel: each y-density
        # integrates to one, on and off the plateau
        ker = q3_seq.at(8)
        for x in (-1.7, -0.3, 0.0, 0.9, 1.85):
            w = ker.y_window(x)
            mass = integrate(lambda ys: ker.jets(x, 0, ys, 0)[0, 0],
                             (w.lo, w.hi), rel_tol=1e-12, abs_tol=1e-14).value
            assert mass == pytest.approx(1.0, abs=1e-10), x

    def test_windows_stay_inside_domain(self, q3_seq):
        ker = q3_seq.at(8)
        for x in (-1.99, -1.0, 0.0, 1.0, 1.99):
            w = ker.y_window(x)
            assert DOM.contains_interval(w.lo, w.hi)

    def test_x_derivative_consistent_with_differences(self, q3_seq):
        ker = q3_seq.at(16)
        x, h = 0.25, 1e-5
        ys = np.linspace(0.2, 0.3, 7)
        fd = (ker.jets(x + h, 0, ys, 0)[0, 0]
              - ker.jets(x - h, 0, ys, 0)[0, 0]) / (2 * h)
        an = ker.jets(x, 1, ys, 0)[1, 0]
        scale = np.max(np.abs(an)) + 1.0
        assert np.max(np.abs(fd - an)) / scale < 1e-6

    def test_localizing_and_graded(self, q3_seq):
        assert is_localizing(q3_seq)
        assert q3_seq.grade == 3
        assert q3_seq.radius_bound(32) < q3_seq.radius_bound(8)


# the scale profile of four component shapes: bounded, both half-lines, two pieces
PROFILE_DOMAINS = {
    "bounded": DOM,
    "right half-line": Domain.interval(0.0, math.inf),
    "left half-line": Domain.interval(-math.inf, 1.0),
    "two pieces": Domain(((-2.0, -0.5), (0.5, 2.0))),
}


@pytest.mark.parametrize("name", sorted(PROFILE_DOMAINS))
def test_profile_skips_the_taper_only_where_it_is_exactly_one(name):
    dom = PROFILE_DOMAINS[name]
    prof, plateaus = _profile_for(dom, 0.8)
    for (a, b), (lo_p, hi_p, mb) in zip(dom.intervals, plateaus):
        lo = lo_p if math.isfinite(lo_p) else hi_p - 4.0
        hi = hi_p if math.isfinite(hi_p) else lo_p + 4.0
        xs = np.linspace(lo, hi, 41)
        skipped = prof.jets(xs, 12)
        for end, c in ((a, 1.0 / (1.5 * mb)), (b, -1.0 / (1.5 * mb))):
            if math.isfinite(end):
                own = mb * _edge_taper((xs - end) * c, c, 12)
                assert np.array_equal(own, skipped), (name, end)
                assert np.array_equal(np.signbit(own), np.signbit(skipped)), (name, end)


def test_profile_is_linear_in_the_boundary_distance():
    prof, _ = _profile_for(DOM, 0.8)
    d = np.array([1e-6, 0.01, 0.1, 0.5])  # within half the 1.2 pad of each end
    for x in (-2.0 + d, 2.0 - d):
        np.testing.assert_allclose(prof.jet(x, 0), d / 1.5, rtol=1e-9)


class TestDerivedKernels:
    def test_lie_kernel_vanishes_on_plateau_for_translation(self, q3_seq):
        # s' = 0 on the plateau, so X d_x phi + d_y(X phi) telescopes to zero
        lie = lie_seq(constant_field(1.0, DOM), q3_seq)
        ker = lie.at(16)
        ys = np.linspace(-0.1, 0.1, 9)
        vals = ker.jets(0.0, 0, ys, 0)[0, 0]
        assert np.max(np.abs(vals)) < 1e-10

    def test_lie_kernel_nonzero_for_stretching_field(self, q3_seq):
        X = VectorField(polynomial([0.0, 1.0], DOM))
        ker = lie_seq(X, q3_seq).at(16)
        ys = np.linspace(-0.06, 0.06, 33)
        vals = ker.jets(0.01, 0, ys, 0)[0, 0]
        assert np.max(np.abs(vals)) > 1.0

    def test_restriction_changes_domain_not_values(self, q3_seq):
        V = Domain.interval(-1.0, 1.0)
        sub = restrict_seq(q3_seq, V)
        assert sub.domain == V
        ys = np.linspace(-0.4, -0.2, 5)
        np.testing.assert_array_equal(
            sub.at(16).jets(-0.3, 0, ys, 0), q3_seq.at(16).jets(-0.3, 0, ys, 0))

    def test_restriction_outside_domain_rejected(self, q3_seq):
        with pytest.raises(NotContained):
            restrict_seq(q3_seq, Domain.interval(0.0, 3.0))

    def test_glued_matches_original_away_from_seams(self, q3_seq):
        cover = [(-2.0, -0.4), (-1.1, 1.1), (0.4, 2.0)]
        pieces = [restrict_seq(q3_seq, Domain.interval(lo, hi))
                  for lo, hi in cover]
        glued = glue_seqs(cover, pieces, domain=DOM)
        probes = np.linspace(-1.8, 1.8, 10)
        eq = eventually_equal(glued, q3_seq, probes, k_grid=(8, 16, 32, 64))
        assert eq.all_eventual
        assert all(k0 <= 64 for k0 in eq.per_probe.values())

    def test_glue_order_of_the_cover_does_not_matter(self, q3_seq, q1_seq):
        # each sequence must keep the weight of its own piece however the
        # cover is listed
        cover = [(-2.0, -0.4), (-1.1, 1.1), (0.4, 2.0)]
        seqs = [restrict_seq(s, Domain.interval(*c))
                for s, c in zip((q3_seq, q1_seq, q3_seq), cover)]
        perm = (2, 0, 1)
        ref = glue_seqs(cover, seqs, domain=DOM)
        glued = glue_seqs([cover[i] for i in perm], [seqs[i] for i in perm], domain=DOM)
        for k in (8, 16):
            for x in (-1.5, -0.75, 0.0, 0.7, 1.5):
                w = ref.at(k).y_window(x)
                ys = np.linspace(w.lo, w.hi, 33)
                assert np.array_equal(glued.at(k).jets(x, 2, ys, 2),
                                      ref.at(k).jets(x, 2, ys, 2)), (k, x)

    def test_extension_is_identical_on_core(self, q3_seq):
        V = Domain.interval(-1.0, 1.0)
        sub = restrict_seq(q3_seq, V)
        ext = extend_seq(sub, DOM, core=(-0.5, 0.5))
        assert ext.domain == DOM
        ys = np.linspace(-0.05, 0.05, 5)
        np.testing.assert_array_equal(
            ext.at(16).jets(0.0, 0, ys, 0), sub.at(16).jets(0.0, 0, ys, 0))

    def test_constant_witness_ignores_x(self):
        w = constant_witness_seq(DOM)
        ker = w.at(32)
        ys = np.linspace(-0.5, 0.5, 9)
        a = ker.jets(-1.0, 0, ys, 0)[0, 0]
        b = ker.jets(1.3, 0, ys, 0)[0, 0]
        np.testing.assert_array_equal(a, b)
        assert not is_localizing(w)

    def test_combo_preserves_affine_structure(self, q3_seq, q1_seq):
        combo = combo_seq([(0.25, q3_seq), (0.75, q1_seq)])
        ker, k3, k1 = combo.at(8), q3_seq.at(8), q1_seq.at(8)
        ys = np.linspace(-0.1, 0.1, 7)
        want = 0.25 * k3.jets(0.0, 0, ys, 0) + 0.75 * k1.jets(0.0, 0, ys, 0)
        np.testing.assert_allclose(ker.jets(0.0, 0, ys, 0), want,
                                   rtol=0, atol=1e-13)

    def test_constant_weights_combine_linearly(self, q3_seq, q1_seq):
        # a zero weight drops its piece; the rest is sum_l c_l jets exactly
        terms = [(0.3, q3_seq.at(16)), (0.0, q3_seq.at(8)), (-1.2, q1_seq.at(16))]
        glued = GluedKernel([(constant(c, DOM), k) for c, k in terms], DOM)
        for x in (-1.7, 0.0, 0.45):
            ys = np.linspace(x - 0.1, x + 0.1, 21)
            for mx in range(3):
                for my in range(3):
                    want = sum(c * k.jets(x, mx, ys, my) for c, k in terms)
                    assert np.array_equal(glued.jets(x, mx, ys, my), want), (x, mx, my)

    def test_combo_rejects_sequences_on_different_domains(self, q3_seq):
        other = standard_sequence(Domain.interval(-1.0, 1.0), make_mollifier(3))
        with pytest.raises(DomainMismatch):
            combo_seq([(0.5, q3_seq), (0.5, other)])

    def test_locality_probe_kernel_is_the_base_left_of_the_seam(self):
        # the kernel probe_locality patches together on (-2, 2): ka up to
        # the seam at 0.6, then a ramp of width 0.4 over to kb
        ka = standard_sequence(DOM, make_mollifier(3)).at(16)
        kb = standard_sequence(DOM, make_mollifier(1), mbar=0.7).at(16)
        ramp = smoothstep(0.6, 1.0)
        patched = GluedKernel([(constant(1.0) - ramp, ka), (ramp, kb)], DOM)
        for x in (-1.6, -0.4, 0.55):
            w = ka.y_window(x)
            ys = np.linspace(w.lo, w.hi, 33)
            np.testing.assert_array_equal(patched.jets(x, 2, ys, 2),
                                          ka.jets(x, 2, ys, 2))

    def test_restriction_to_a_half_line_is_the_base_on_single_tiles(self):
        # at these x only one unit tile of (0, inf) is active and its
        # cutoff is 1 on the whole window, so nothing may move
        base = standard_sequence(Domain.interval(-1.0, math.inf), make_mollifier(3))
        half = restrict_seq(base, Domain.interval(0.0, math.inf))
        for k in (8, 16):
            for x in (1.9, 3.3, 7.7):
                w = base.at(k).y_window(x)
                ys = np.linspace(w.lo, w.hi, 33)
                np.testing.assert_array_equal(half.at(k).jets(x, 2, ys, 2),
                                              base.at(k).jets(x, 2, ys, 2))

    def test_radius_bound_is_the_kernels_own(self, q3_seq, q1_seq):
        V = Domain.interval(-1.0, 1.0)
        cover = [(-2.0, 0.2), (-0.2, 2.0)]
        seqs = {
            "standard": q3_seq,
            "lie": lie_seq(constant_field(1.0, DOM), q3_seq),
            "restrict": restrict_seq(q3_seq, V),
            "glue": glue_seqs(cover, [restrict_seq(q3_seq, Domain.interval(*c))
                                      for c in cover], domain=DOM),
            "extend": extend_seq(restrict_seq(q3_seq, V), DOM, core=(-0.5, 0.5)),
            "combo": combo_seq([(0.25, q3_seq), (0.75, q1_seq)]),
        }
        for name, seq in seqs.items():
            for k in (8, 16):
                assert seq.radius_bound(k) == seq.at(k).radius_sup(), name
                # every piece is a standard kernel with plateau scale 0.8
                assert seq.radius_bound(k) == 0.8 / k, name
        assert constant_witness_seq(DOM).radius_bound(8) is None

    def test_pullback_is_plain_composition(self, q3_seq):
        # (mu^* phi)(x)(y) = phi(mu x)(mu y); no derivative factor anywhere
        img = Domain.interval(-3.0, 5.0)
        big = standard_sequence(img, make_mollifier(3))
        base = big.at(16)
        mu = polynomial([1.0, 2.0], DOM)
        mu_inv = polynomial([-0.5, 0.5], img)
        pb = PullbackKernel(base, mu, mu_inv, DOM)
        x = 0.1
        ys = np.linspace(0.05, 0.15, 7)
        got = pb.jets(x, 0, ys, 0)[0, 0]
        want = base.jets(1.2, 0, 2.0 * ys + 1.0, 0)[0, 0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


# (kernel builder from the q3 and q1 sequences, x); every case puts x
# where the derived kernel's own factors vary, not just the base kernel
MIXED_CASES = {
    # off the scale plateau, so the profile's x-derivatives enter too
    "lie-nonconstant-field": (lambda s3, s1: lie_seq(
        VectorField(polynomial([0.3, 1.0, 0.5], DOM)), s3).at(16), -1.3),
    # the partition weights of rings L2 and L3 of (-1, 1) both vary at x,
    # and the window crosses the falling edge of L3's cutoff
    "restricted-ring-overlap": (lambda s3, s1: restrict_seq(
        s3, Domain.interval(-1.0, 1.0)).at(16), -0.905),
    # both weights of the left seam vary at x, between unequal kernels
    "glued-seam": (lambda s3, s1: glue_seqs(
        [(-2.0, -0.4), (-1.1, 1.1)],
        [restrict_seq(s3, Domain.interval(-2.0, -0.4)),
         restrict_seq(s1, Domain.interval(-1.1, 1.1))], domain=DOM).at(16), -0.75),
    "translation": (lambda s3, s1: TranslationKernel(
        make_mollifier(2).fn, 8.0, DOM), 0.3),
    # mu = x + 0.1 x^3 is curved, so mu'' enters both slots; mu_inv only
    # brackets the y-window
    "pullback-curved": (lambda s3, s1: PullbackKernel(
        standard_sequence(Domain.interval(-3.0, 3.0), make_mollifier(3)).at(16),
        polynomial([0.0, 1.0, 0.0, 0.1], DOM),
        polynomial([0.0, 1.0, 0.0, -0.1], Domain.interval(-3.0, 3.0)), DOM), 0.7),
}


@pytest.mark.parametrize("case", sorted(MIXED_CASES))
def test_mixed_jets_match_central_differences(q3_seq, q1_seq, case):
    # each order (mx, my) <= 2 is the x- or y-difference of the one below
    build, x = MIXED_CASES[case]
    ker = build(q3_seq, q1_seq)
    w = ker.y_window(x)
    ys = np.linspace(w.lo, w.hi, 33)
    h = 1e-6
    J = ker.jets(x, 2, ys, 2)
    dx = (ker.jets(x + h, 2, ys, 2) - ker.jets(x - h, 2, ys, 2)) / (2 * h)
    dy = (ker.jets(x, 2, ys + h, 2) - ker.jets(x, 2, ys - h, 2)) / (2 * h)
    for i in range(3):
        for j in range(3):
            scale = np.max(np.abs(J[i, j])) + 1.0
            if i > 0:
                assert np.max(np.abs(dx[i - 1, j] - J[i, j])) / scale < 1e-5, ("x", i, j)
            if j > 0:
                assert np.max(np.abs(dy[i, j - 1] - J[i, j])) / scale < 1e-5, ("y", i, j)


class TestApplication:
    def test_point_mass_reads_off_kernel_row(self, q3_seq):
        ker = q3_seq.at(16)
        out = apply_kernel(ker, delta(0.3, domain=DOM))
        xs = np.array([0.25, 0.3, 0.35])
        want = np.array([ker.jets(float(x), 0, np.array([0.3]), 0)[0, 0, 0]
                         for x in xs])
        np.testing.assert_allclose(out.jet(xs, 0), want, rtol=0, atol=1e-12)

    def test_derivative_mass_pairs_with_row_derivative(self, q3_seq):
        ker = q3_seq.at(16)
        out = apply_kernel(ker, delta(0.0, order=1, domain=DOM))
        want = -ker.jets(0.05, 0, np.array([0.0]), 1)[0, 1, 0]
        assert out.jet(0.05, 0) == pytest.approx(want, abs=1e-12)

    def test_delta_order_above_jet_cap_fails_before_pairing(self, q3_seq):
        # an order of 10**18 would otherwise size a kernel-jet array in EiB
        with pytest.raises(JetCapExceeded):
            apply_kernel(q3_seq.at(8), delta(0.0, order=10**18, domain=DOM))

    def test_smooth_density_reproduced_to_grade_order(self, q3_seq):
        out = apply_kernel(q3_seq.at(64), regular(sin_fn(), domain=DOM))
        xs = np.linspace(-0.5, 0.5, 9)
        err = np.max(np.abs(out.jet(xs, 0) - np.sin(xs)))
        assert err < 1e-6  # k^-4 regime at k=64

    def test_eventual_equality_of_identical_sequences(self, q3_seq):
        eq = eventually_equal(q3_seq, q3_seq, [0.0, 1.0], k_grid=(8, 16))
        assert eq.all_eventual
        assert set(eq.per_probe.values()) == {8}


# ---------------------------------------------------------------------------
# batched x: an array of x must give the stacked scalar calls, bit for bit

def _xreparam(s3, k):
    from gfkernel.basic import _XReparamKernel

    return _XReparamKernel(s3.at(k), 0.1, 1.5)


# kernel builder from (q3 sequence, q1 sequence, k), and an x range that
# reaches both the scale plateau [-0.8, 0.8] and the tapering outside it
BATCH_CASES = {
    "scale": (lambda s3, s1, k: s3.at(k), (-1.9, 1.9)),
    "lie": (lambda s3, s1, k: lie_seq(
        VectorField(polynomial([0.3, 1.0, 0.5], DOM)), s3).at(k), (-1.9, 1.9)),
    "translation": (lambda s3, s1, k: TranslationKernel(
        make_mollifier(2).fn, float(k), DOM), (-1.5, 1.5)),
    "restricted": (lambda s3, s1, k: restrict_seq(
        s3, Domain.interval(-1.0, 1.0)).at(k), (-0.99, 0.99)),
    "glued": (lambda s3, s1, k: glue_seqs(
        [(-2.0, -0.4), (-1.1, 1.1)],
        [restrict_seq(s3, Domain.interval(-2.0, -0.4)),
         restrict_seq(s1, Domain.interval(-1.1, 1.1))], domain=DOM).at(k),
        (-1.9, 1.05)),
    "constant": (lambda s3, s1, k: constant_witness_seq(DOM).at(k), (-1.9, 1.9)),
    "pullback": (lambda s3, s1, k: PullbackKernel(
        standard_sequence(Domain.interval(-3.0, 3.0), make_mollifier(3)).at(k),
        polynomial([0.0, 1.0, 0.0, 0.1], DOM),
        polynomial([0.0, 1.0, 0.0, -0.1], Domain.interval(-3.0, 3.0)), DOM),
        (-1.5, 1.5)),
    "xreparam": (lambda s3, s1, k: _xreparam(s3, k), (-1.2, 1.2)),
}


@pytest.mark.parametrize("k", DEFAULT_K_GRID)
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_jets_equal_stacked_scalar_calls(q3_seq, q1_seq, case, k):
    build, (lo, hi) = BATCH_CASES[case]
    ker = build(q3_seq, q1_seq, k)

    @settings(max_examples=4)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.integers(0, 2), st.integers(0, 2))
    def check(fracs, mx, my):
        # one x on the plateau, one off it, and the drawn ones
        xs = np.array([0.05, lo + 0.02 * (hi - lo)] + [lo + f * (hi - lo) for f in fracs])
        windows = [ker.y_window(float(x)) for x in xs]
        Y = np.array([np.linspace(w.lo, w.hi, 11) for w in windows])
        got = ker.jets(xs, mx, Y, my)
        want = np.stack([ker.jets(float(x), mx, y, my) for x, y in zip(xs, Y)], axis=2)
        assert got.shape == (mx + 1, my + 1) + Y.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    check()


@pytest.mark.parametrize("k", DEFAULT_K_GRID)
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_windows_equal_scalar_calls(q3_seq, q1_seq, case, k):
    build, (lo, hi) = BATCH_CASES[case]
    ker = build(q3_seq, q1_seq, k)
    xs = np.concatenate([[0.05], np.linspace(lo, hi, 41)])
    want = np.array([(w.lo, w.hi) for w in (ker.y_window(float(x)) for x in xs)])
    got = ker.y_window(xs)
    assert got.shape == (xs.size, 2)
    assert np.array_equal(got, want)


def test_batched_jets_reject_misshapen_rows(q3_seq):
    with pytest.raises(ValueError):
        q3_seq.at(8).jets(np.array([0.0, 0.1]), 0, np.linspace(-0.1, 0.1, 5), 0)


# ---------------------------------------------------------------------------
# batched pairing against one scalar-loop integral per x and order, one
# jets per panel


def _reference_pairing(ker, u, xs, m):
    dpts = sorted({t.point for t in u.deltas})
    out = np.zeros((m + 1, xs.size))
    for idx, x in enumerate(xs.tolist()):
        if u.deltas:
            J = ker.jets(x, m, np.array(dpts), u.max_delta_order)
            for t in u.deltas:
                out[:, idx] += (t.coeff * (-1.0) ** t.order
                                * J[:, t.order, dpts.index(t.point)])
        w = ker.y_window(x) if u.densities else None
        for t in u.densities:
            lo, hi = w.lo, w.hi
            if t.fn.support is not None:
                lo, hi = max(lo, t.fn.support.lo), min(hi, t.fn.support.hi)
                if lo >= hi:
                    continue
            for i in range(m + 1):
                def f(ys, t=t, i=i, x=x):
                    return t.fn.jet(ys, 0) * ker.jets(x, m, ys, 0)[i, 0]
                res = scalar_integrate(f, (lo, hi), rel_tol=APPLY_REL_TOL,
                                       abs_tol=APPLY_ABS_TOL, points=t.fn.breaks)
                out[i, idx] += t.coeff * res.value
    return out


PAIRING_INPUTS = {
    "delta": lambda: delta(-0.129, domain=DOM),
    "ddelta": lambda: delta(0.1, order=1, coeff=-1.5, domain=DOM),
    "fn:sin": lambda: regular(sin_fn(), domain=DOM),
    "H": lambda: heaviside(DOM, jump_at=0.25),
    "H+delta": lambda: heaviside(DOM, jump_at=0.25) + delta(0.25, coeff=2.0, domain=DOM),
}


@pytest.mark.parametrize("k", [8, 64])
@pytest.mark.parametrize("name", sorted(PAIRING_INPUTS))
def test_batched_pairing_equals_per_x_reference(q3_seq, name, k):
    ker, u = q3_seq.at(k), PAIRING_INPUTS[name]()
    # plateau and taper, the jump's window, and both sides of the masses
    xs = np.concatenate([np.linspace(-1.5, 1.5, 13), [0.2, 0.25, 0.251, 0.3]])
    got = apply_kernel(ker, u)._jet_all(xs, 2)
    want = _reference_pairing(ker, u, xs, 2)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("x", [1.75, 1.8, 1.825, 1.85, 1.9])
def test_step_pairs_to_its_truth_off_the_plateau(q3_seq, x):
    # phi(x, .) lies right of the jump, so the pairing is 1 near x
    got = apply_kernel(q3_seq.at(8), PAIRING_INPUTS["H"]())._jet_all(np.array([x]), 2)
    assert np.abs(got[:, 0] - [1.0, 0.0, 0.0]).max() < 1e-6


@pytest.mark.parametrize("center, radius", [(0.0, 1.2), (0.3, 0.4)])
@pytest.mark.parametrize("name", sorted(PAIRING_INPUTS))
def test_kernel_rows_pair_like_test_functions(name, center, radius):
    # an x-independent kernel row is a test function, and both entry
    # points run the one pairing core
    psi = CompactTestFn(bump(center, radius, DOM))
    u = PAIRING_INPUTS[name]()
    got = apply_kernel(ConstantKernel(psi, DOM), u)._jet_all(np.linspace(-1.5, 1.5, 7), 0)
    want = np.broadcast_to(
        pair(u, [psi], rel_tol=APPLY_REL_TOL, abs_tol=APPLY_ABS_TOL).value, got.shape)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


BATCH_XS = np.linspace(-1.5, 1.5, 129)  # more x than any earlier fixed batch


@pytest.mark.parametrize("k", [8, 64])
@pytest.mark.parametrize("name", ["H", "H+delta", "fn:sin"])
@settings(max_examples=6)
@given(splits=st.lists(st.integers(1, BATCH_XS.size - 1), max_size=4, unique=True))
def test_pairing_floats_do_not_depend_on_batching(q3_seq, name, k, splits):
    fn = apply_kernel(q3_seq.at(k), PAIRING_INPUTS[name]())
    whole = fn._jet_all(BATCH_XS, 2)
    parts = np.concatenate(
        [fn._jet_all(xs, 2) for xs in np.split(BATCH_XS, sorted(splits))], axis=1)
    assert np.array_equal(whole, parts)
    assert np.array_equal(np.signbit(whole), np.signbit(parts))


def test_batched_pairing_keeps_the_panel_budget(q3_seq, monkeypatch):
    ker, u = q3_seq.at(8), PAIRING_INPUTS["fn:sin"]()
    xs = np.array([0.0, 0.3])
    monkeypatch.setattr(smooth, "MAX_PANELS", 2)
    with pytest.raises(NoConvergence):
        _reference_pairing(ker, u, xs, 1)
    with pytest.raises(NoConvergence):
        apply_kernel(ker, u)._jet_all(xs, 1)


# ---------------------------------------------------------------------------
# the standard kernel's rows on its plateau, in closed form, against the
# series path every row used to take

WORKLOAD_DOMAINS = (DOM, Domain.interval(-1.0, 1.0))


def _bits_equal(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=80)
@given(q=st.integers(1, 3), d=st.sampled_from(range(len(WORKLOAD_DOMAINS))),
       k=st.integers(1, 200), mx=st.integers(0, 12), my=st.integers(0, 12),
       data=st.data())
def test_plateau_rows_are_the_series_rows_bit_for_bit(q, d, k, mx, my, data):
    ker = standard_sequence(WORKLOAD_DOMAINS[d], make_mollifier(q)).at(k)
    my = min(my, ker.jet_cap - mx)
    lo, hi, mb = ker.plateaus[0]
    x = data.draw(st.one_of(st.sampled_from([lo, hi, 0.5 * (lo + hi)]),
                            st.floats(lo, hi)), label="x")
    # y = x, the window's ends, and points inside and outside the window
    fracs = data.draw(st.lists(st.floats(-1.5, 1.5), max_size=12), label="fracs")
    ys = x + mb / k * np.array([0.0, -1.0, 1.0] + fracs)
    assert ker.plateau_scale(x) is not None
    assert _bits_equal(ker.jets(x, mx, ys, my), series_jets(ker, x, mx, ys, my))


@pytest.mark.parametrize("k", [8, 64])
@pytest.mark.parametrize("d", range(len(WORKLOAD_DOMAINS)))
def test_mixed_plateau_batches_are_the_per_row_calls(d, k):
    dom = WORKLOAD_DOMAINS[d]
    ker = standard_sequence(dom, make_mollifier(3)).at(k)
    lo, hi, _ = ker.plateaus[0]
    a, b = dom.intervals[0]
    # both plateau ends, their neighbours off it, the tapers and the middle
    xs = np.array([lo, hi, np.nextafter(lo, a), np.nextafter(hi, b),
                   a + 0.01, b - 0.01, 0.5 * (a + lo), 0.5 * (hi + b), 0.5 * (lo + hi)])
    Y = np.array([np.linspace(w.lo - 0.01, w.hi + 0.01, 9) for w in
                  (ker.y_window(float(x)) for x in xs)])
    for mx, my in ((0, 0), (2, 1), (3, 2)):
        got = ker.jets(xs, mx, Y, my)
        assert _bits_equal(got, series_jets(ker, xs, mx, Y, my))
        want = np.stack([ker.jets(float(x), mx, y, my) for x, y in zip(xs, Y)], axis=2)
        assert _bits_equal(got, want)


class _SeriesKernel(Kernel):
    """A standard kernel whose every row takes the series path."""

    def __init__(self, ker):
        self.ker, self.domain, self.jet_cap = ker, ker.domain, ker.jet_cap

    def jets(self, x, mx, ys, my):
        return series_jets(self.ker, x, mx, ys, my)


@pytest.mark.parametrize("k", [8, 64])
def test_lie_kernel_rows_over_the_closed_form_are_unchanged(q3_seq, k):
    X = VectorField(polynomial([0.3, 1.0, 0.5], DOM))
    ker = q3_seq.at(k)
    xs = np.array([-1.9, -0.8, -0.3, 0.0, 0.8, 1.5])
    Y = np.array([np.linspace(w.lo, w.hi, 11) for w in
                  (ker.y_window(float(x)) for x in xs)])
    got = LieKernel(X, ker).jets(xs, 2, Y, 1)
    assert _bits_equal(got, LieKernel(X, _SeriesKernel(ker)).jets(xs, 2, Y, 1))
