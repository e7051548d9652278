"""Asymptotic classification: fits, grading, moderateness, association."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gfkernel import dist as dist_module
from gfkernel import smooth
from gfkernel.basic import (
    affine_diffeo, as_generic, eval_basic, iota, lie_hat, lie_tilde, pushforward, sigma)
from gfkernel.dist import default_test_battery, delta, heaviside, pair, regular
from gfkernel.errors import NoConvergence, NonFiniteSweep, TooFewPoints
from gfkernel.kernel import (
    DEFAULT_K_GRID, constant_witness_seq, make_mollifier, standard_sequence)
from gfkernel.smooth import CompactInterval, Domain, constant_field, polynomial, sin_fn
from gfkernel.smooth import VectorField
from gfkernel.smooth import seminorm
from gfkernel.testing import (
    ASSOC_ABS_TOL,
    ASSOC_FLOOR_REL,
    ASSOC_REL_TOL,
    FLOOR_REL,
    AsymptoticFit,
    ClassificationReport,
    SweepVerdict,
    associated,
    classify,
    default_region,
    element_family,
    embedding_residual_sweep,
    fit_order,
    is_moderate,
    is_negligible,
    sweep_seminorms,
    validate_test_object,
)
from gfkernel.testing import _hints_at, _pair_scale, _summands
from tests.conftest import SHORT_KS
from tests.quadref import scalar_integrate

DOM = Domain.interval(-2.0, 2.0)


class TestFitting:
    def test_recovers_exact_power_law(self):
        ks = (8, 16, 32, 64, 128)
        vals = [7.0 * k ** (-2.5) for k in ks]
        fit = fit_order(vals, ks)
        assert fit.slope == pytest.approx(-2.5, abs=1e-12)
        assert fit.residual < 1e-12
        assert fit.decays(-2.0)
        assert not fit.decays(-3.0)

    def test_all_zero_is_flagged_exact(self):
        fit = fit_order([0.0, 0.0, 0.0], SHORT_KS)
        assert fit.exact_zero
        assert fit.slope == -math.inf

    def test_zeros_are_dropped_from_the_fit(self):
        ks = (8, 16, 32, 64)
        vals = [k ** (-1.0) for k in ks]
        vals[2] = 0.0
        fit = fit_order(vals, ks)
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("vals", [
        [math.nan] * 5,
        [1e-3, math.nan, 1e-5, math.inf, 1e-7],
        [math.inf] * 5,
    ])
    def test_non_finite_values_raise(self, vals):
        # NaN fails every "> floor" test, so it must not pass as a zero
        with pytest.raises(NonFiniteSweep):
            fit_order(vals)

    def test_single_point_fit_is_degenerate(self):
        fit = fit_order([1.0], (8,))
        assert fit.slope == -math.inf
        assert not fit.exact_zero

    def test_default_region_is_central_quarter(self):
        K = default_region(DOM)
        assert K == CompactInterval(-0.5, 0.5)


def _flat_fit(slope, peak=1.0):
    return AsymptoticFit(SHORT_KS, (peak,) * 3, slope, 0.0, 0.0, False)


class TestSweepVerdict:
    @pytest.mark.parametrize("fit,floor,ok", [
        (fit_order([0.0] * 3, SHORT_KS), 0.0, True),     # identically zero
        (_flat_fit(0.0, peak=1e-14), 1e-13, True),       # all below the floor
        (_flat_fit(0.0, peak=1e-14), 0.0, False),        # same sweep, no floor
        (_flat_fit(-0.5), 0.0, True),                    # slope at the bound
        (_flat_fit(math.nextafter(-0.5, 0.0)), 0.0, False),  # just above it
    ])
    def test_pass_rule(self, fit, floor, ok):
        assert SweepVerdict(fit, -0.5, floor).ok is ok

    def test_report_verdict_reads_its_sweeps(self):
        good = SweepVerdict(_flat_fit(-1.0), -0.5)
        bad = SweepVerdict(_flat_fit(0.0), -0.5)
        K = default_region(DOM)
        assert ClassificationReport({0: good, 1: good}, K).verdict
        assert not ClassificationReport({0: good, 1: bad}, K).verdict


class TestEmbeddingResidual:
    def test_series_and_quadrature_paths_agree(self, q3_seq):
        # the moment-series shortcut must reproduce the honest evaluation
        from gfkernel.basic import eval_basic, iota as emb
        from gfkernel.smooth import restrict_view

        K = CompactInterval(-0.5, 0.5)
        fit = embedding_residual_sweep(sin_fn(), q3_seq, K=K, m=0,
                                       k_grid=(8, 16))
        for k, fast in zip((8, 16), fit.values):
            out = eval_basic(emb(regular(sin_fn(), domain=DOM)), q3_seq.at(k))
            xs = np.linspace(K.lo, K.hi, 129)
            slow = float(np.max(np.abs(out.jet(xs, 0) - np.sin(xs))))
            assert fast == pytest.approx(slow, rel=1e-6), k

    def test_rate_improves_with_grade(self, dom):
        K = CompactInterval(-0.5, 0.5)
        slopes = []
        for q in (0, 2, 4):
            seq = standard_sequence(dom, make_mollifier(q))
            fit = embedding_residual_sweep(sin_fn(), seq, K=K, m=0,
                                           k_grid=SHORT_KS)
            slopes.append(fit.slope)
            assert fit.slope <= -(q + 1) + 0.5, q
        assert slopes[2] < slopes[1] < slopes[0]

    def test_polynomials_below_grade_are_reproduced_exactly(self, q3_seq):
        # vanishing moments make the kernel exact on low-degree polynomials
        for j in range(4):
            f = polynomial([0.0] * j + [1.0])
            fit = embedding_residual_sweep(f, q3_seq, m=0, k_grid=(8, 16))
            assert fit.exact_zero or fit.peak < 1e-12, j


class TestGrading:
    def test_standard_family_passes_its_grade(self, dom):
        seq = standard_sequence(dom, make_mollifier(1))
        rep = validate_test_object(seq, k_grid=SHORT_KS)
        assert rep.passed
        assert rep.grade == 1

    def test_growth_values_and_rate_floors_equal_per_x_and_per_order_calls(self, dom):
        seq = standard_sequence(dom, make_mollifier(1))
        K = CompactInterval(-0.6, 0.4)
        rep = validate_test_object(seq, K=K, k_grid=SHORT_KS)
        xs = np.linspace(K.lo, K.hi, 33)
        for m in (0, 1, 2):
            tri = np.add.outer(np.arange(m + 1), np.arange(m + 1)) <= m
            want = []
            for k in SHORT_KS:
                ker, worst = seq.at(k), 0.0
                for x in xs:
                    w = ker.y_window(float(x))
                    J = ker.jets(float(x), m, np.linspace(w.lo, w.hi, 65), m)
                    worst = max(worst, float(np.max(np.abs(J[tri]))))
                want.append(worst)
            assert rep.growth[m].fit.values == tuple(want)
        for name, f in [("x^2", polynomial([0.0, 0.0, 1.0])), ("sin", sin_fn())]:
            for m in (0, 1, 2):
                floor = FLOOR_REL * max(1.0, seminorm(f, K, m))
                assert rep.rate[(name, m)].floor == floor

    def test_constant_witness_fails(self, dom):
        rep = validate_test_object(constant_witness_seq(dom), grade=0,
                                   k_grid=SHORT_KS, orders=(0,))
        assert not rep.passed
        assert not rep.rate_ok  # never converges to the identity

    def test_grade_must_come_from_somewhere(self, dom):
        with pytest.raises(ValueError):
            validate_test_object(constant_witness_seq(dom), k_grid=SHORT_KS)


class TestModeration:
    def test_squared_point_mass_is_moderate_not_negligible(self):
        A = iota(delta(0.0, domain=DOM))
        rep = is_moderate(A * A, k_grid=SHORT_KS)
        assert rep.verdict
        assert rep.sweeps[0].fit.slope == pytest.approx(2.0, abs=0.1)
        assert not is_negligible(A * A, k_grid=SHORT_KS).verdict

    def test_embedding_defect_of_smooth_is_negligible(self):
        R = iota(regular(sin_fn(), domain=DOM)) - sigma(sin_fn(), DOM)
        assert is_negligible(R, k_grid=(8, 16), orders=(0, 1)).verdict

    def test_zero_is_negligible_exactly(self):
        Z = sigma(sin_fn(), DOM) - sigma(sin_fn(), DOM)
        rep = is_negligible(Z, k_grid=SHORT_KS)
        assert rep.verdict
        assert all(sv.fit.exact_zero for sv in rep.sweeps.values())

    def test_point_mass_is_not_negligible(self):
        rep = is_negligible(iota(delta(0.0, domain=DOM)), k_grid=SHORT_KS)
        assert not rep.verdict
        assert rep.sweeps[0].fit.slope == pytest.approx(1.0, abs=0.1)

    def test_sweep_over_orders_equals_per_order_sweeps(self, q3_seq):
        A = iota(delta(0.1, domain=DOM)) * iota(delta(0.1, domain=DOM))
        B = lie_hat(VectorField(polynomial([0.3, 1.0], DOM)), iota(delta(-0.2, domain=DOM)))
        K = CompactInterval(-0.5, 0.5)
        for R in (A, B):
            fam = element_family(R, q3_seq)
            fits = sweep_seminorms(fam, K, (0, 1, 2), SHORT_KS)
            assert list(fits) == [0, 1, 2]
            for m in (0, 1, 2):
                assert fits[m] == sweep_seminorms(fam, K, m, SHORT_KS)

    def test_classify_reads_the_shared_sweep_once(self, monkeypatch):
        from gfkernel import testing

        R = iota(delta(0.05, domain=DOM)) * iota(delta(0.05, 1, domain=DOM))
        want = (is_moderate(R, k_grid=SHORT_KS), is_negligible(R, k_grid=SHORT_KS))
        calls = []
        real = testing.sweep_seminorms
        monkeypatch.setattr(testing, "sweep_seminorms",
                            lambda *a, **kw: calls.append(a[2]) or real(*a, **kw))
        got = classify(R, k_grid=SHORT_KS)
        # q = 3 once for orders 0..2, then q = 1 and q = 2 for negligibility
        assert calls == [(0, 1, 2), (0,), (1,)]
        assert got == want

    def test_growth_read_off_seminorm_sweep(self, q3_seq):
        A = iota(delta(0.0, domain=DOM))
        fam = element_family(A, q3_seq)
        fit = sweep_seminorms(fam, CompactInterval(-0.5, 0.5), 0, SHORT_KS)
        # sup of k rho(k .) scales linearly in k
        assert fit.slope == pytest.approx(1.0, abs=1e-6)


def _battery_at(*specs):
    """Bumps positioned by hand; the default battery keeps clear of the
    domain center, which is exactly where these tests need to look."""
    from gfkernel.smooth import TestFn, bump

    return [TestFn(bump(c, r, DOM)) for c, r in specs]


class TestAssociation:
    def test_squared_step_sticks_to_step(self):
        H = iota(heaviside(DOM))
        battery = _battery_at((0.0, 0.8), (0.5, 0.4))
        rep = associated(H * H, H, battery=battery, k_grid=SHORT_KS)
        assert rep.verdict
        live = [sv for sv in rep.sweeps.values()
                if not sv.fit.exact_zero and sv.fit.peak >= sv.floor]
        assert live, "expected at least one informative pairing"
        assert all(sv.fit.slope <= -0.8 for sv in live)

    def test_distinct_distributions_are_not_associated(self):
        A = iota(delta(0.0, domain=DOM))
        battery = _battery_at((0.0, 0.8))
        rep = associated(A, battery=battery, k_grid=SHORT_KS)
        assert not rep.verdict

    def test_two_lie_derivatives_associate_for_stretching_field(self):
        # For X = x d/dx the two derivatives differ at every finite rate,
        # yet the difference dies weakly; this is the nontrivial case of
        # the derivative-comparison statement.
        X = VectorField(polynomial([0.0, 1.0], DOM))
        A = iota(delta(0.3, domain=DOM))
        battery = _battery_at((0.3, 0.5), (0.0, 0.8))
        rep = associated(lie_tilde(X, A), lie_hat(X, A), battery=battery,
                         k_grid=SHORT_KS)
        assert rep.verdict
        live = [sv for sv in rep.sweeps.values()
                if not sv.fit.exact_zero and sv.fit.peak >= sv.floor]
        assert live, "difference should be visible at finite rates"

    def test_association_is_wider_than_negligibility(self):
        # H^2 - H is associated to zero but nowhere near negligible
        H = iota(heaviside(DOM))
        R = H * H - H
        battery = _battery_at((0.0, 0.7))
        assert associated(R, battery=battery, k_grid=(8, 16)).verdict
        assert not is_negligible(R, k_grid=(8, 16), orders=(0,)).verdict

    def test_pushforward_point_mass_pairs_like_the_moved_mass(self):
        # A evaluates to the same arrays as a point mass at 0.3; the outer
        # quadrature must split at 0.3, not at the source point 0.0, or
        # the spike falls between nodes and A looks associated to zero
        A = pushforward(iota(delta(0.0, domain=DOM)), affine_diffeo(2.0, 0.3, DOM))
        B = iota(delta(0.3, domain=A.domain))
        phi = default_test_battery(A.domain)[5]
        rep = associated(A, battery=[phi])
        assert not rep.verdict
        moved = associated(B, battery=[phi])
        assert rep.sweeps[0].fit.values == moved.sweeps[0].fit.values

    def test_generic_point_mass_pairs_like_the_point_mass(self):
        # no hint reaches inside a GenericElement; the outer quadrature
        # must still split at the evaluated spike's support edges
        phi = default_test_battery(DOM)[5]
        ks = (32, 64, 128)
        rep = associated(as_generic(iota(delta(0.3))), battery=[phi], k_grid=ks)
        plain = associated(iota(delta(0.3)), battery=[phi], k_grid=ks)
        assert not rep.verdict
        assert rep.sweeps[0].fit.values == plain.sweeps[0].fit.values


X1 = constant_field(1.0, DOM)


def _lie_pair(R):
    return lie_tilde(X1, R), lie_hat(X1, R)


def _assoc_pair(fn, phis, hints):
    """The pairings ``associated`` sweeps: <fn dx, phi> at its tolerances."""
    return pair(regular(fn), phis, points=hints, rel_tol=ASSOC_REL_TOL,
                abs_tol=ASSOC_ABS_TOL).value.tolist()


class TestBatchedPairing:
    """``associated`` pairs every (rate, battery row) in one quadrature;
    each row must keep the floats of its own scalar integral."""

    @given(st.lists(st.tuples(st.floats(-0.5, 0.5), st.integers(0, 1),
                              st.sampled_from(["deltas", "density", "both"]),
                              st.booleans(), st.sampled_from([8, 16, 32]),
                              st.lists(st.floats(-2.0, 2.0), max_size=4)),
                    min_size=1, max_size=5),
           st.lists(st.integers(0, 11), min_size=1, max_size=12, unique=True),
           st.integers(1, 12))
    def test_rows_equal_the_scalar_loop(self, q3_seq, draws, picks, budget):
        battery = default_test_battery(DOM)
        phis = [battery[i] for i in picks]
        us, hints, fns = [], [], []
        for p, order, kind, smooth_part, k, h in draws:
            R = iota(delta(p, order=order, domain=DOM))
            if smooth_part:
                R = R + sigma(sin_fn(), DOM)
            u, fn = delta(p, order=order, coeff=-1.5, domain=DOM), None
            if kind != "deltas":
                fn = eval_basic(R, q3_seq.at(k))
                u = regular(fn) + u if kind == "both" else regular(fn)
            us.append(u)
            hints.append(tuple(h))
            fns.append(fn)

        def reference(u, fn, phi, h):
            # point masses first, then the density over supp phi cut down
            # to fn's support
            want = 0.0
            for t in u.deltas:
                want += t.coeff * (-1.0) ** t.order * phi.jet(t.point, t.order)
            if fn is None:
                return want
            lo, hi = phi.support.lo, phi.support.hi
            if fn.support is not None:
                lo, hi = max(lo, fn.support.lo), min(hi, fn.support.hi)
            return want + 1.0 * scalar_integrate(
                lambda x: fn.jet(x, 0) * phi.jet(x, 0), (lo, hi), rel_tol=1e-10,
                abs_tol=1e-13, points=(*fn.breaks, *phi.fn.breaks, *h)).value

        def stacked():
            return pair(us, phis, points=hints, rel_tol=ASSOC_REL_TOL,
                        abs_tol=ASSOC_ABS_TOL).value

        got = stacked()
        assert got.shape == (len(us), len(phis))
        for u, fn, h, block in zip(us, fns, hints, got):
            own = pair(u, phis, points=h, rel_tol=ASSOC_REL_TOL, abs_tol=ASSOC_ABS_TOL).value
            want = [reference(u, fn, phi, h) for phi in phis]
            assert block.tolist() == own.tolist() == want
            assert np.signbit(block).tolist() == np.signbit(own).tolist() \
                == np.signbit(want).tolist()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(smooth, "MAX_PANELS", budget)
            failing = []
            for u, fn, h in zip(us, fns, hints):
                for phi in phis:
                    try:
                        reference(u, fn, phi, h)
                    except NoConvergence:
                        failing.append(phi)
            try:
                stacked()
                raised = False
            except NoConvergence:
                raised = True
        assert raised == bool(failing)

    def test_association_makes_one_quadrature_per_query(self, monkeypatch):
        A = iota(delta(0.151, 1, -1.464, DOM))
        B = lie_hat(X1, iota(delta(0.151, 0, -1.464, DOM)))
        associated(A, B)  # the mollifier's moments are computed once, here
        calls = []

        def counting(fn, interval, **kwargs):
            calls.append(len(interval))
            return smooth.integrate(fn, interval, **kwargs)

        monkeypatch.setattr(dist_module, "integrate", counting)
        assert associated(A, B).verdict
        # rows (rate, test function): one density per rate
        assert calls == [len(DEFAULT_K_GRID) * len(default_test_battery(DOM))]

    @pytest.mark.parametrize("A, B", [
        # the association workload's templates, at parameters its seeds draw
        (iota(delta(-0.197, 1, -1.664, DOM)), lie_hat(X1, iota(delta(-0.197, 0, -1.664, DOM)))),
        (sigma(polynomial([0.0, 0.0, 1.0]), DOM) * iota(delta(0.204, 0, 1.3, DOM)),
         iota(delta(0.204, 0, round(1.3 * 0.204 ** 2, 6), DOM))),
        _lie_pair(iota(delta(-0.251, 0, 0.97, DOM)) + sigma(sin_fn() * -1.2, DOM)),
        _lie_pair(iota(delta(0.004, 0, -1.03, DOM)) + sigma(polynomial([0.0, 0.0, 0.8]), DOM)),
    ], ids=["ddelta-vs-liehat", "x2-times-delta", "lie-check-sin", "lie-check-x2"])
    def test_association_equals_one_row_calls(self, A, B):
        rep = associated(A, B)
        R = A - B
        seq = standard_sequence(DOM, make_mollifier(3))
        parts = _summands(A) + _summands(B)
        for idx, phi in enumerate(default_test_battery(DOM)):
            vals, scale = [], 0.0
            for k in DEFAULT_K_GRID:
                hints = _hints_at(R, seq, k)
                vals += _assoc_pair(eval_basic(R, seq.at(k)), [phi], hints)
                scale = max(scale, sum(_pair_scale([eval_basic(P, seq.at(k))], [phi], hints)[0]
                                       for P in parts))
            assert rep.sweeps[idx].fit.values == fit_order(vals).values
            assert rep.sweeps[idx].floor == ASSOC_FLOOR_REL * scale + FLOOR_REL
